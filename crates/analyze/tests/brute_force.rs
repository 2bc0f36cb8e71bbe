//! Brute-force property suite for the Σ analyzer's verdict lattice and
//! the CFD implication decider.
//!
//! Over tiny schemas the static CFD questions are exhaustively
//! checkable, because each reduces to one or two tuples:
//!
//! - **Consistency.** A CFD set is satisfiable by some nonempty
//!   database iff some relation admits a **single-tuple** witness (CFD
//!   satisfaction is closed under subinstance, so any satisfying
//!   instance yields a one-tuple one, and a Σ over several relations is
//!   satisfied by putting that tuple in its relation and leaving the
//!   rest empty). The oracle enumerates every candidate tuple of every
//!   relation and tests the singleton database with the independent
//!   semantic checker `condep_cfd::satisfy::satisfies_all`.
//! - **Implication.** A CFD violation involves at most two tuples, so
//!   `Σ ⊨ φ` iff no instance of one or two candidate tuples satisfies
//!   `Σ` and violates `φ` (`condep_cfd::satisfy::satisfies_normal`).
//!
//! A finite attribute's candidates are its whole domain (≤ 3 values).
//! An infinite attribute's are the constants the dependencies mention
//! for it plus fresh values: one suffices for a single tuple, two let a
//! pair agree or differ off the mentioned constants.
//!
//! Checked per seed:
//! - the analyzer's verdict equals the oracle (never `Unknown` on
//!   CFD-only input within the default budget);
//! - a `Sat` witness actually satisfies Σ, re-validated through
//!   `condep_validate::Validator` (the production sweep);
//! - an `Unsat` core is itself unsatisfiable and **minimal**: dropping
//!   any single member restores satisfiability (which implies every
//!   proper subset is satisfiable);
//! - `condep_cfd::implication::implies` equals the implication oracle
//!   under the default budget, never `Unknown`.

use condep_analyze::{analyze, SigmaVerdict};
use condep_cfd::implication::{implies, Implication, ImplicationConfig};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{AttrId, Database, Domain, PValue, PatternRow, RelId, Schema, Tuple, Value};
use condep_validate::Validator;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Candidate cells per attribute of `rel`: the whole domain when
/// finite, else the constants `deps` mention for the attribute plus
/// `fresh` values none of them mentions.
fn candidate_values(
    schema: &Schema,
    rel: RelId,
    deps: &[&NormalCfd],
    fresh: usize,
) -> Vec<Vec<Value>> {
    let rs = schema.relation(rel).unwrap();
    rs.iter()
        .map(|(attr, a)| {
            if let Some(values) = a.domain().values() {
                return values.to_vec();
            }
            let mut out: Vec<Value> = Vec::new();
            for dep in deps.iter().filter(|d| d.rel() == rel) {
                for (b, v) in dep.pattern_constants() {
                    if b == attr && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            for _ in 0..fresh {
                let v = a.domain().fresh_value(&out).unwrap();
                out.push(v);
            }
            out
        })
        .collect()
}

/// Every tuple over per-attribute candidate values.
fn all_tuples(cands: &[Vec<Value>]) -> Vec<Tuple> {
    let mut out = vec![Vec::new()];
    for dom in cands {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                dom.iter().map(move |v| {
                    let mut next = prefix.clone();
                    next.push(v.clone());
                    next
                })
            })
            .collect();
    }
    out.into_iter().map(Tuple::new).collect()
}

/// Exhaustive oracle: does ANY nonempty database satisfy `cfds`?
/// (Equivalently by the subinstance-closure lemma: does any single
/// tuple of any relation do so?)
fn oracle_consistent(schema: &Arc<Schema>, cfds: &[NormalCfd]) -> bool {
    let deps: Vec<&NormalCfd> = cfds.iter().collect();
    schema.iter().any(|(rel, _)| {
        all_tuples(&candidate_values(schema, rel, &deps, 1))
            .into_iter()
            .any(|t| {
                let mut db = Database::empty(Arc::clone(schema));
                db.insert(rel, t).unwrap();
                condep_cfd::satisfy::satisfies_all(&db, cfds)
            })
    })
}

/// Exhaustive oracle: `Σ ⊨ φ` iff no instance of one or two candidate
/// tuples of `φ`'s relation satisfies `Σ` and violates `φ`.
fn oracle_implies(schema: &Arc<Schema>, sigma: &[NormalCfd], phi: &NormalCfd) -> bool {
    let rel = phi.rel();
    let deps: Vec<&NormalCfd> = sigma.iter().chain([phi]).collect();
    let tuples = all_tuples(&candidate_values(schema, rel, &deps, 2));
    let counterexample = |instance: &[&Tuple]| {
        let mut db = Database::empty(Arc::clone(schema));
        for t in instance {
            db.insert(rel, (*t).clone()).unwrap();
        }
        condep_cfd::satisfy::satisfies_all(&db, sigma)
            && !condep_cfd::satisfy::satisfies_normal(&db, phi)
    };
    !tuples.iter().enumerate().any(|(i, t1)| {
        counterexample(&[t1]) || tuples[i + 1..].iter().any(|t2| counterexample(&[t1, t2]))
    })
}

/// Random tiny all-finite schema: 1–2 relations, 2–3 attrs, 2–3 values.
fn random_schema(rng: &mut StdRng) -> Arc<Schema> {
    let rels = rng.gen_range(1..=2usize);
    let mut builder = Schema::builder();
    for r in 0..rels {
        let arity = rng.gen_range(2..=3usize);
        let name = format!("r{r}");
        let attrs: Vec<(String, Domain)> = (0..arity)
            .map(|a| {
                let size = rng.gen_range(2..=3usize);
                let values: Vec<&str> = ["a", "b", "c"][..size].to_vec();
                (format!("x{a}"), Domain::finite_strs(&values))
            })
            .collect();
        let borrowed: Vec<(&str, Domain)> =
            attrs.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        builder = builder.relation(&name, &borrowed);
    }
    Arc::new(builder.finish())
}

/// Random single relation of arity 2–3 mixing finite attributes (1–3
/// values) with string attributes.
fn random_mixed_schema(rng: &mut StdRng) -> Arc<Schema> {
    let arity = rng.gen_range(2..=3usize);
    let attrs: Vec<(String, Domain)> = (0..arity)
        .map(|a| {
            let dom = if rng.gen_bool(0.4) {
                Domain::string()
            } else {
                Domain::finite_strs(&["a", "b", "c"][..rng.gen_range(1..=3usize)])
            };
            (format!("x{a}"), dom)
        })
        .collect();
    let borrowed: Vec<(&str, Domain)> =
        attrs.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
    Arc::new(Schema::builder().relation("r0", &borrowed).finish())
}

/// The constants a CFD may mention on a string attribute.
const STRING_POOL: [&str; 2] = ["p", "q"];

/// A random constant for `attr`: from its finite domain, or from
/// [`STRING_POOL`] when the domain is infinite.
fn random_constant(rng: &mut StdRng, schema: &Schema, rel: RelId, attr: AttrId) -> Value {
    let rs = schema.relation(rel).unwrap();
    match rs.attribute(attr).unwrap().domain().values() {
        Some(values) => values[rng.gen_range(0..values.len())].clone(),
        None => Value::str(STRING_POOL[rng.gen_range(0..STRING_POOL.len())]),
    }
}

/// Random CFD over `rel`, biased toward constant patterns so conflicts
/// actually occur.
fn random_cfd(rng: &mut StdRng, schema: &Schema, rel: RelId) -> NormalCfd {
    let rs = schema.relation(rel).unwrap();
    let arity = rs.arity();
    let lhs_len = rng.gen_range(1..=(arity - 1).clamp(1, 2));
    // Distinct LHS attrs.
    let mut attrs: Vec<u32> = (0..arity as u32).collect();
    for i in (1..attrs.len()).rev() {
        let j = rng.gen_range(0..=i);
        attrs.swap(i, j);
    }
    let lhs: Vec<AttrId> = attrs[..lhs_len].iter().map(|&a| AttrId(a)).collect();
    let rhs = AttrId(attrs[lhs_len % attrs.len()]);
    let cell = |rng: &mut StdRng, attr: AttrId| -> PValue {
        if rng.gen_bool(0.6) {
            PValue::Const(random_constant(rng, schema, rel, attr))
        } else {
            PValue::Any
        }
    };
    let lhs_pat = PatternRow::new(lhs.iter().map(|&a| cell(rng, a)).collect::<Vec<_>>());
    let rhs_pat = if rng.gen_bool(0.75) {
        cell(rng, rhs)
    } else {
        PValue::Any
    };
    NormalCfd::new(rel, lhs, lhs_pat, rhs, rhs_pat)
}

/// A same-key clone of `cfd` with a different RHS constant (from the
/// finite domain or [`STRING_POOL`]), if `cfd` has a constant RHS and
/// another constant exists.
fn clash(schema: &Schema, cfd: &NormalCfd) -> Option<NormalCfd> {
    let orig = cfd.rhs_pat().as_const()?;
    let rs = schema.relation(cfd.rel()).unwrap();
    let pool = STRING_POOL.map(Value::str);
    let values = rs.attribute(cfd.rhs()).unwrap().domain().values();
    let other = values.unwrap_or(&pool).iter().find(|v| *v != orig)?;
    Some(NormalCfd::new(
        cfd.rel(),
        cfd.lhs().to_vec(),
        cfd.lhs_pat().clone(),
        cfd.rhs(),
        PValue::Const(other.clone()),
    ))
}

/// Runs the analyzer on CFD-only `cfds` and checks it against the
/// consistency oracle: a `Sat` witness must satisfy Σ (also through the
/// production `Validator`), an `Unsat` core must be inconsistent and
/// minimal, and `Unknown` must not occur. Returns whether Σ is `Sat`.
fn verdict_matches_oracle(seed: u64, schema: &Arc<Schema>, cfds: &[NormalCfd]) -> bool {
    let expected = oracle_consistent(schema, cfds);
    let analysis = analyze(schema, cfds, &[]);
    match &analysis.verdict {
        SigmaVerdict::Sat(w) => {
            assert!(
                expected,
                "seed {seed}: analyzer Sat but oracle says inconsistent"
            );
            assert!(w.db.total_tuples() >= 1, "seed {seed}: empty witness");
            assert!(
                condep_cfd::satisfy::satisfies_all(&w.db, cfds),
                "seed {seed}: witness does not satisfy sigma"
            );
            // Re-validate through the production sweep.
            let report = Validator::new(cfds.to_vec(), Vec::new()).validate(&w.db);
            assert!(
                report.is_empty(),
                "seed {seed}: Validator found violations in witness"
            );
        }
        SigmaVerdict::Unsat(core) => {
            assert!(
                !expected,
                "seed {seed}: analyzer Unsat but oracle found a witness"
            );
            assert!(!core.cfds.is_empty(), "seed {seed}: empty unsat core");
            let subset = |keep: &dyn Fn(usize) -> bool| -> Vec<NormalCfd> {
                core.cfds
                    .iter()
                    .filter(|i| keep(**i))
                    .map(|&i| cfds[i].clone())
                    .collect()
            };
            // The core alone is already inconsistent...
            assert!(
                !oracle_consistent(schema, &subset(&|_| true)),
                "seed {seed}: reported core is satisfiable"
            );
            // ...and minimal: dropping any single member restores
            // satisfiability (hence every proper subset is Sat).
            for &drop in &core.cfds {
                assert!(
                    oracle_consistent(schema, &subset(&|i| i != drop)),
                    "seed {seed}: core not minimal — dropping {drop} stays inconsistent"
                );
            }
        }
        SigmaVerdict::Unknown(trip) => {
            panic!(
                "seed {seed}: Unknown ({}) on CFD-only tiny-domain input",
                trip.reason
            )
        }
    }
    expected
}

#[test]
fn verdicts_match_exhaustive_enumeration_over_240_seeds() {
    let (mut sat_seen, mut unsat_seen) = (0usize, 0usize);
    for seed in 0..240u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FD_0000 + seed);
        let schema = random_schema(&mut rng);
        let n = rng.gen_range(1..=6usize);
        let mut cfds: Vec<NormalCfd> = (0..n)
            .map(|_| {
                let rel = RelId(rng.gen_range(0..schema.len() as u32));
                random_cfd(&mut rng, &schema, rel)
            })
            .collect();
        // Half the seeds get a deliberate same-key clone with a
        // different RHS constant, tilting toward real conflicts.
        if rng.gen_bool(0.5) {
            let extra = clash(&schema, &cfds[rng.gen_range(0..cfds.len())]);
            cfds.extend(extra);
        }
        // A global Unsat needs EVERY relation to conflict, so inject
        // per-relation conflict gadgets: either two wildcard rows with
        // clashing constants (core of 2) or a domain-covering chain
        // against a wildcard row (core of |domain| + 1).
        for (rel, rs) in schema.iter() {
            if !rng.gen_bool(0.55) {
                continue;
            }
            let lhs = AttrId(0);
            let rhs = AttrId(1);
            let rvals = rs
                .attribute(rhs)
                .unwrap()
                .domain()
                .values()
                .unwrap()
                .to_vec();
            if rng.gen_bool(0.4) {
                for v in rvals.iter().take(2) {
                    cfds.push(NormalCfd::new(
                        rel,
                        vec![lhs],
                        PatternRow::all_any(1),
                        rhs,
                        PValue::Const(v.clone()),
                    ));
                }
            } else {
                let lvals = rs
                    .attribute(lhs)
                    .unwrap()
                    .domain()
                    .values()
                    .unwrap()
                    .to_vec();
                for v in &lvals {
                    cfds.push(NormalCfd::new(
                        rel,
                        vec![lhs],
                        PatternRow::new([PValue::Const(v.clone())]),
                        rhs,
                        PValue::Const(rvals[0].clone()),
                    ));
                }
                cfds.push(NormalCfd::new(
                    rel,
                    vec![lhs],
                    PatternRow::all_any(1),
                    rhs,
                    PValue::Const(rvals[1].clone()),
                ));
            }
        }

        if verdict_matches_oracle(seed, &schema, &cfds) {
            sat_seen += 1;
        } else {
            unsat_seen += 1;
        }
    }
    // The generator must actually exercise both sides of the lattice.
    assert!(
        sat_seen >= 20,
        "only {sat_seen} Sat seeds — generator too conflict-heavy"
    );
    assert!(
        unsat_seen >= 20,
        "only {unsat_seen} Unsat seeds — generator too benign"
    );
}

#[test]
fn verdicts_match_exhaustive_enumeration_over_mixed_domains() {
    let mut verdicts = [0usize; 2];
    for seed in 0..240u64 {
        let mut rng = StdRng::seed_from_u64(0x3D0A_0000 + seed);
        let schema = random_mixed_schema(&mut rng);
        let n = rng.gen_range(1..=6usize);
        let mut cfds: Vec<NormalCfd> = (0..n)
            .map(|_| random_cfd(&mut rng, &schema, RelId(0)))
            .collect();
        // Most seeds get same-key clones with a different RHS constant,
        // tilting toward real conflicts.
        for _ in 0..rng.gen_range(0..=2usize) {
            let extra = clash(&schema, &cfds[rng.gen_range(0..cfds.len())]);
            cfds.extend(extra);
        }
        let sat = verdict_matches_oracle(seed, &schema, &cfds);
        verdicts[usize::from(sat)] += 1;
    }
    assert!(
        verdicts.iter().all(|&n| n >= 20),
        "[unsat, sat] seeds {verdicts:?}: the generator must exercise both"
    );
}

#[test]
fn implication_matches_exhaustive_enumeration_over_mixed_domains() {
    let mut verdicts = [0usize; 2];
    for seed in 0..240u64 {
        let mut rng = StdRng::seed_from_u64(0x1A9F_0000 + seed);
        let schema = random_mixed_schema(&mut rng);
        let n = rng.gen_range(0..=4usize);
        let sigma: Vec<NormalCfd> = (0..n)
            .map(|_| random_cfd(&mut rng, &schema, RelId(0)))
            .collect();
        let phi = random_cfd(&mut rng, &schema, RelId(0));
        let expected = oracle_implies(&schema, &sigma, &phi);
        let got = implies(&schema, &sigma, &phi, ImplicationConfig::default());
        assert_ne!(
            got,
            Implication::Unknown,
            "seed {seed}: default budget tripped"
        );
        assert_eq!(
            got == Implication::Implied,
            expected,
            "seed {seed}: {sigma:?} |= {phi:?}"
        );
        verdicts[usize::from(expected)] += 1;
    }
    assert!(
        verdicts.iter().all(|&n| n >= 20),
        "[not implied, implied] seeds {verdicts:?}: the generator must exercise both"
    );
}

#[test]
fn example_3_2_is_unsat_with_the_full_four_cfd_core() {
    let (schema, cfds) = condep_cfd::fixtures::example_3_2();
    let analysis = analyze(&schema, &cfds, &[]);
    match analysis.verdict {
        SigmaVerdict::Unsat(core) => {
            // The Example 3.2 cycle needs all four CFDs: dropping any
            // one of them leaves a satisfiable set.
            assert_eq!(core.cfds, vec![0, 1, 2, 3]);
        }
        other => panic!("example 3.2 must be Unsat, got {other:?}"),
    }
}

fn two_rel_schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .relation("r", &[("a", Domain::finite_strs(&["a", "b"]))])
            .relation(
                "s",
                &[
                    ("k", Domain::finite_strs(&["a", "b"])),
                    ("c", Domain::finite_strs(&["x", "y"])),
                ],
            )
            .finish(),
    )
}

#[test]
fn cind_chase_builds_a_two_relation_witness() {
    let schema = two_rel_schema();
    // r[a] ⊆ s[k] with no conditions; s is otherwise unconstrained.
    let cind = NormalCind::parse(&schema, "r", &["a"], &[], "s", &["k"], &[]).unwrap();
    let analysis = analyze(&schema, &[], std::slice::from_ref(&cind));
    match analysis.verdict {
        SigmaVerdict::Sat(w) => {
            assert!(w.db.total_tuples() >= 1);
            assert!(condep_core::satisfy::satisfies_all(&w.db, &[cind]));
        }
        other => panic!("expected Sat via chase, got {other:?}"),
    }
}

#[test]
fn cind_into_unsat_target_degrades_to_unknown_never_sat() {
    let schema = two_rel_schema();
    let s = schema.rel_id("s").unwrap();
    // Two key-group rows force different constants on s.c for every
    // tuple: s admits no tuple at all.
    let clash = |c: &str| {
        NormalCfd::new(
            s,
            vec![AttrId(0)],
            PatternRow::all_any(1),
            AttrId(1),
            PValue::constant(c),
        )
    };
    let cfds = vec![clash("x"), clash("y")];
    // r is unconstrained (Sat), but every r-tuple forces an s-tuple.
    let cind = NormalCind::parse(&schema, "r", &["a"], &[], "s", &["k"], &[]).unwrap();
    let analysis = analyze(&schema, &cfds, &[cind]);
    // Truth: inconsistent (r nonempty forces s nonempty, s unsat; both
    // empty is not allowed). The budgeted chase cannot prove that, so
    // the only sound answers are Unsat or Unknown — never Sat.
    assert!(
        !analysis.verdict.is_sat(),
        "chase must not claim Sat for an inconsistent CFD+CIND set"
    );
}

#[test]
fn lints_flag_conflicting_and_unreachable_rows() {
    use condep_analyze::SigmaLint;
    let schema = two_rel_schema();
    let s = schema.rel_id("s").unwrap();
    let row = |pat: PValue, rhs: &str| {
        NormalCfd::new(
            s,
            vec![AttrId(0)],
            PatternRow::new([pat]),
            AttrId(1),
            PValue::constant(rhs),
        )
    };
    let cfds = vec![
        // Same key group, identical patterns, conflicting constants.
        row(PValue::Any, "x"),
        row(PValue::Any, "y"),
        // Subsumed by row 0 but carries yet another constant — and "z"
        // is outside s.c's {x, y} domain, so also unreachable.
        row(PValue::constant("a"), "z"),
    ];
    let analysis = analyze(&schema, &cfds, &[]);
    assert!(analysis.lints.iter().any(|l| matches!(
        l,
        SigmaLint::KeyGroupConflict {
            left: 0,
            right: 1,
            ..
        }
    )));
    assert!(analysis.lints.iter().any(|l| matches!(
        l,
        SigmaLint::RedundantConflict {
            general: 0,
            specific: 2,
            ..
        }
    )));
    assert!(analysis.lints.iter().any(|l| matches!(
        l,
        SigmaLint::UnreachablePattern {
            cfd: 2,
            conclusion: true,
            ..
        }
    )));
}
