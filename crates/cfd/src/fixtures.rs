//! The paper's CFD fixtures.
//!
//! * Figure 4: `ϕ1`–`ϕ3` over the bank target schema, refining the
//!   traditional FDs `fd1`–`fd3` of Example 1.2;
//! * Example 3.2: the four CFDs over `dom(A) = bool` that are pairwise
//!   satisfiable yet jointly inconsistent.

use crate::normalize::normalize;
use crate::syntax::{Cfd, NormalCfd};
use condep_model::fixtures::bank_schema;
use condep_model::{prow, Domain, PValue, PatternRow, Schema, Value};
use std::sync::Arc;

/// `fd1: saving(an, ab → cn, ca, cp)` as a CFD.
pub fn fd1() -> Cfd {
    Cfd::parse(
        &bank_schema(),
        "saving",
        &["an", "ab"],
        &["cn", "ca", "cp"],
        vec![PatternRow::all_any(5)],
    )
    .expect("fixture well-formed")
}

/// `fd2: checking(an, ab → cn, ca, cp)` as a CFD.
pub fn fd2() -> Cfd {
    Cfd::parse(
        &bank_schema(),
        "checking",
        &["an", "ab"],
        &["cn", "ca", "cp"],
        vec![PatternRow::all_any(5)],
    )
    .expect("fixture well-formed")
}

/// `fd3: interest(ct, at → rt)` as a CFD.
pub fn fd3() -> Cfd {
    Cfd::parse(
        &bank_schema(),
        "interest",
        &["ct", "at"],
        &["rt"],
        vec![PatternRow::all_any(3)],
    )
    .expect("fixture well-formed")
}

/// `ϕ1` of Figure 4 — syntactically identical to [`fd1`].
pub fn phi1() -> Cfd {
    fd1()
}

/// `ϕ2` of Figure 4 — syntactically identical to [`fd2`].
pub fn phi2() -> Cfd {
    fd2()
}

/// `ϕ3` of Figure 4: `fd3` refined with the four constant rows
/// `(UK, saving ‖ 4.5%)`, `(UK, checking ‖ 1.5%)`, `(US, saving ‖ 4%)`,
/// `(US, checking ‖ 1%)`.
pub fn phi3() -> Cfd {
    Cfd::parse(
        &bank_schema(),
        "interest",
        &["ct", "at"],
        &["rt"],
        vec![
            prow![_, _, _],
            prow!["UK", "saving", "4.5%"],
            prow!["UK", "checking", "1.5%"],
            prow!["US", "saving", "4%"],
            prow!["US", "checking", "1%"],
        ],
    )
    .expect("fixture well-formed")
}

/// All Figure 4 CFDs, normalized.
pub fn figure_4_normalized() -> Vec<NormalCfd> {
    [phi1(), phi2(), phi3()]
        .iter()
        .flat_map(normalize)
        .collect()
}

/// Example 3.2: schema `R(A: bool, B: string)` and the CFDs
///
/// ```text
/// φ1: (A = true)  → (B = b1)      φ2: (A = false) → (B = b2)
/// φ3: (B = b1)    → (A = false)   φ4: (B = b2)    → (A = true)
/// ```
///
/// Each is individually satisfiable, but together no nonempty instance
/// exists: whatever boolean `t[A]` takes, the cycle forces the other
/// value.
pub fn example_3_2() -> (Arc<Schema>, Vec<NormalCfd>) {
    let schema = Arc::new(
        Schema::builder()
            .relation("r", &[("a", Domain::boolean()), ("b", Domain::string())])
            .finish(),
    );
    let tru = PValue::Const(Value::bool(true));
    let fls = PValue::Const(Value::bool(false));
    let cfds = vec![
        NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            PatternRow::new([tru.clone()]),
            "b",
            PValue::constant("b1"),
        )
        .expect("fixture well-formed"),
        NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            PatternRow::new([fls.clone()]),
            "b",
            PValue::constant("b2"),
        )
        .expect("fixture well-formed"),
        NormalCfd::parse(&schema, "r", &["b"], prow!["b1"], "a", fls).expect("fixture well-formed"),
        NormalCfd::parse(&schema, "r", &["b"], prow!["b2"], "a", tru).expect("fixture well-formed"),
    ];
    (schema, cfds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_4_normalizes_to_eleven_cfds() {
        // ϕ1, ϕ2: 1 row × 3 RHS attrs each; ϕ3: 5 rows × 1 RHS attr.
        assert_eq!(figure_4_normalized().len(), 11);
    }

    #[test]
    fn phi3_rows_match_the_paper() {
        let phi3 = phi3();
        assert_eq!(phi3.tableau().len(), 5);
        assert!(phi3.tableau()[0].is_all_any());
        assert!(phi3.tableau()[2].all_const());
    }

    #[test]
    fn example_3_2_cfds_are_individually_satisfiable() {
        use crate::consistency::{relation_consistency, RelationVerdict};
        let (schema, cfds) = example_3_2();
        let rel = schema.rel_id("r").unwrap();
        for cfd in &cfds {
            assert!(
                matches!(
                    relation_consistency(&schema, rel, &[(0, cfd)], None),
                    RelationVerdict::Sat(_)
                ),
                "each Example 3.2 CFD alone must be consistent"
            );
        }
    }
}
