//! Exact implication analysis for CFDs.
//!
//! `Σ |= φ` iff every instance satisfying `Σ` also satisfies `φ`. For
//! CFDs this is coNP-complete in general and O(n²) without finite-domain
//! attributes (Section 4, citing the companion CFD paper).
//!
//! A violation of `φ` involves one or two tuples of `φ`'s relation, CFD
//! satisfaction is closed under sub-instances, and CFDs are
//! intra-relational. So `Σ ⊭ φ` iff an instance of at most two tuples
//! of `φ`'s relation satisfies `Σ`'s rows on that relation and violates
//! `φ`. [`implies`] asks exactly that of the two-tuple SAT encoding in
//! [`crate::consistency`], over finite and infinite domains alike.

use crate::syntax::NormalCfd;
use condep_model::Schema;
use std::sync::Arc;

pub use condep_model::implication::{Implication, ImplicationConfig};

/// Decides `Σ |= φ`: [`Implication::Implied`] when no instance of one or
/// two tuples satisfies `Σ` and violates `φ`,
/// [`Implication::NotImplied`] when one does, and
/// [`Implication::Unknown`] when the SAT conflict budget
/// `config.max_conflicts` trips first.
pub fn implies(
    schema: &Arc<Schema>,
    sigma: &[NormalCfd],
    phi: &NormalCfd,
    config: ImplicationConfig,
) -> Implication {
    crate::consistency::implication(schema, sigma, phi, config.max_conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{prow, Domain, PValue, PatternRow, Value};

    fn abc_schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation_str("r", &["a", "b", "c"])
                .finish(),
        )
    }

    fn fd(schema: &Schema, lhs: &[&str], rhs: &str) -> NormalCfd {
        NormalCfd::parse(
            schema,
            "r",
            lhs,
            PatternRow::all_any(lhs.len()),
            rhs,
            PValue::Any,
        )
        .unwrap()
    }

    /// The unbounded verdict.
    fn verdict(schema: &Arc<Schema>, sigma: &[NormalCfd], phi: &NormalCfd) -> Implication {
        implies(schema, sigma, phi, ImplicationConfig::unbounded())
    }

    #[test]
    fn fd_transitivity_is_implied() {
        // {A→B, B→C} |= A→C (classical Armstrong transitivity).
        let schema = abc_schema();
        let sigma = vec![fd(&schema, &["a"], "b"), fd(&schema, &["b"], "c")];
        let phi = fd(&schema, &["a"], "c");
        assert_eq!(verdict(&schema, &sigma, &phi), Implication::Implied);
    }

    #[test]
    fn reverse_direction_is_not_implied() {
        let schema = abc_schema();
        let sigma = vec![fd(&schema, &["a"], "b")];
        let phi = fd(&schema, &["b"], "a");
        assert_eq!(verdict(&schema, &sigma, &phi), Implication::NotImplied);
    }

    #[test]
    fn reflexivity_is_implied_from_nothing() {
        // ∅ |= AB→A style: X→A with A ∈ X.
        let schema = abc_schema();
        let phi =
            NormalCfd::parse(&schema, "r", &["a", "b"], prow![_, _], "a", PValue::Any).unwrap();
        assert_eq!(verdict(&schema, &[], &phi), Implication::Implied);
    }

    #[test]
    fn constant_propagation_is_implied() {
        // {(A=x → B=y), (B=y → C=z)} |= (A=x → C=z).
        let schema = abc_schema();
        let c1 =
            NormalCfd::parse(&schema, "r", &["a"], prow!["x"], "b", PValue::constant("y")).unwrap();
        let c2 =
            NormalCfd::parse(&schema, "r", &["b"], prow!["y"], "c", PValue::constant("z")).unwrap();
        let sigma = [c1, c2];
        let phi =
            NormalCfd::parse(&schema, "r", &["a"], prow!["x"], "c", PValue::constant("z")).unwrap();
        assert_eq!(verdict(&schema, &sigma, &phi), Implication::Implied);
        // A different target constant is not implied.
        let phi_bad =
            NormalCfd::parse(&schema, "r", &["a"], prow!["x"], "c", PValue::constant("w")).unwrap();
        assert_eq!(verdict(&schema, &sigma, &phi_bad), Implication::NotImplied);
    }

    #[test]
    fn pattern_refines_fd() {
        // A plain FD implies its constant-premise refinement with
        // wildcard RHS.
        let schema = abc_schema();
        let sigma = vec![fd(&schema, &["a"], "b")];
        let phi = NormalCfd::parse(&schema, "r", &["a"], prow!["x"], "b", PValue::Any).unwrap();
        assert_eq!(verdict(&schema, &sigma, &phi), Implication::Implied);
        // The converse fails: the refinement does not imply the full FD.
        let sigma2 = vec![phi];
        let phi2 = fd(&schema, &["a"], "b");
        assert_eq!(verdict(&schema, &sigma2, &phi2), Implication::NotImplied);
    }

    #[test]
    fn finite_domain_case_split_changes_the_answer() {
        // dom(A) = {0,1}. Σ = {(A=0 → B=x), (A=1 → B=x)}.
        // Σ |= (nil → B=x)?  Over an infinite A it would NOT be implied
        // (pick A outside {0,1}); over the finite domain it IS.
        let verdict_over = |a_dom: Domain| {
            let schema = Arc::new(
                Schema::builder()
                    .relation("r", &[("a", a_dom), ("b", Domain::string())])
                    .finish(),
            );
            let mk = |v: i64| {
                NormalCfd::parse(
                    &schema,
                    "r",
                    &["a"],
                    PatternRow::new([PValue::constant(Value::int(v))]),
                    "b",
                    PValue::constant("x"),
                )
                .unwrap()
            };
            let sigma = vec![mk(0), mk(1)];
            let phi =
                NormalCfd::parse(&schema, "r", &[], prow![], "b", PValue::constant("x")).unwrap();
            verdict(&schema, &sigma, &phi)
        };
        assert_eq!(verdict_over(Domain::finite_ints(2)), Implication::Implied);
        assert_eq!(verdict_over(Domain::integer()), Implication::NotImplied);
    }

    #[test]
    fn finite_domain_case_split_on_pairs() {
        // dom(A) = {0,1}. Σ = {(AB → C, (0, _ ‖ _)), (AB → C, (1, _ ‖ _))}
        // covers every A value, so Σ |= AB → C; two tuples that differ
        // on A still refute B → C.
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::finite_ints(2)),
                        ("b", Domain::string()),
                        ("c", Domain::string()),
                    ],
                )
                .finish(),
        );
        let row = |v: i64| {
            let pat = PatternRow::new([PValue::constant(Value::int(v)), PValue::Any]);
            NormalCfd::parse(&schema, "r", &["a", "b"], pat, "c", PValue::Any).unwrap()
        };
        let sigma = vec![row(0), row(1)];
        assert_eq!(
            verdict(&schema, &sigma, &fd(&schema, &["a", "b"], "c")),
            Implication::Implied
        );
        assert_eq!(
            verdict(&schema, &sigma, &fd(&schema, &["b"], "c")),
            Implication::NotImplied
        );
    }

    #[test]
    fn a_fresh_cell_never_agrees_with_a_constant() {
        // dom(A) = {a, b}, B a string. Σ = {(A=a → B=p), (B=p → A, _)}.
        // Two tuples agreeing on B agree on A: on B = p by the second
        // row; on a fresh B neither can take A = a, so both take b.
        // The refutation `t1 = (b, fresh)`, `t2 = (a, p)` would need the
        // pair's equality variable to equate a fresh value with p.
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::finite_strs(&["a", "b"])),
                        ("b", Domain::string()),
                    ],
                )
                .finish(),
        );
        let sigma = vec![
            NormalCfd::parse(&schema, "r", &["a"], prow!["a"], "b", PValue::constant("p")).unwrap(),
            NormalCfd::parse(&schema, "r", &["b"], prow!["p"], "a", PValue::Any).unwrap(),
        ];
        let phi = NormalCfd::parse(&schema, "r", &["b"], prow![_], "a", PValue::Any).unwrap();
        assert_eq!(verdict(&schema, &sigma, &phi), Implication::Implied);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // Transitivity needs the solver to refute the pair encoding; a
        // zero conflict budget cannot.
        let schema = abc_schema();
        let sigma = vec![fd(&schema, &["a"], "b"), fd(&schema, &["b"], "c")];
        let phi = fd(&schema, &["a"], "c");
        let starved = ImplicationConfig {
            max_conflicts: Some(0),
            ..ImplicationConfig::default()
        };
        assert_eq!(
            implies(&schema, &sigma, &phi, starved),
            Implication::Unknown
        );
        // A counterexample found without a conflict needs no budget.
        let phi_rev = fd(&schema, &["c"], "a");
        assert_eq!(
            implies(&schema, &sigma, &phi_rev, starved),
            Implication::NotImplied
        );
    }

    #[test]
    fn sigma_on_other_relations_is_ignored() {
        let schema = Arc::new(
            Schema::builder()
                .relation_str("r", &["a", "b"])
                .relation_str("s", &["c", "d"])
                .finish(),
        );
        let on_s = NormalCfd::parse(&schema, "s", &["c"], prow![_], "d", PValue::Any).unwrap();
        let phi = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        assert_eq!(verdict(&schema, &[on_s], &phi), Implication::NotImplied);
    }
}
