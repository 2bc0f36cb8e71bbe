//! Procedure `CFD_Checking` — Section 5.2.
//!
//! Given `CFD(R)` and the tuple template `τ(R)`, decide whether the CFDs
//! on `R` admit a single-tuple witness and, if so, instantiate `τ(R)`.
//! Two implementations, compared in Figure 10(a):
//!
//! * [`ChaseCfdChecker`] — chases `τ(R)` with the CFDs: constants forced
//!   by definitely-matched premises are propagated to a fixpoint; any
//!   remaining finite-domain fields are sampled (up to `K_CFD`
//!   valuations, the knob of Figure 10(b)). Sound; incomplete only when
//!   sampling misses every good valuation.
//! * [`SatCfdChecker`] — reduces the search to SAT ("we reduce it to
//!   SAT … and then check the consistency of the CFDs by using SAT4j");
//!   our DPLL solver plays SAT4j's role. Complete, but pays for the
//!   encoding (exactly-one constraints over whole finite domains), which
//!   is why it scales worse in Figure 10(a).

use condep_cfd::consistency::{relation_consistency, RelationVerdict};
use condep_cfd::NormalCfd;
use condep_model::{AttrId, PValue, RelId, Schema, Tuple, Value};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A `CFD_Checking` implementation: returns an instantiated witness
/// tuple `τ(R)` when `CFD(R)` is consistent (by its lights), `None`
/// otherwise.
pub trait CfdChecker {
    /// Checks `CFD(R)` and instantiates `τ(R)`.
    fn check(&mut self, schema: &Schema, rel: RelId, cfds: &[NormalCfd]) -> Option<Tuple>;
}

/// Shared propagation: the single-tuple chase fixpoint. `assignment`
/// holds every field already forced or chosen (finite or infinite).
/// Returns `false` on conflict.
fn propagate(cfds: &[NormalCfd], assignment: &mut BTreeMap<AttrId, Value>) -> bool {
    loop {
        let mut changed = false;
        for cfd in cfds {
            let PValue::Const(forced) = cfd.rhs_pat() else {
                continue; // wildcard RHS is vacuous on one tuple
            };
            let matched = cfd
                .lhs()
                .iter()
                .zip(cfd.lhs_pat().cells())
                .all(|(a, cell)| match cell {
                    PValue::Any => true,
                    PValue::Const(c) => assignment.get(a) == Some(c),
                });
            if !matched {
                continue;
            }
            match assignment.get(&cfd.rhs()) {
                Some(v) if v == forced => {}
                Some(_) => return false,
                None => {
                    assignment.insert(cfd.rhs(), forced.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return true;
        }
    }
}

/// Materializes the witness tuple from the final assignment: assigned
/// fields keep their values, free fields take fresh values that avoid
/// the constraint constants (so the witness triggers nothing avoidable).
fn materialize(
    schema: &Schema,
    rel: RelId,
    cfds: &[NormalCfd],
    assignment: &BTreeMap<AttrId, Value>,
) -> Option<Tuple> {
    let rs = schema.relation(rel).ok()?;
    let mut avoid_per_attr: HashMap<AttrId, Vec<Value>> = HashMap::new();
    for cfd in cfds {
        for (a, v) in cfd.pattern_constants() {
            avoid_per_attr.entry(a).or_default().push(v);
        }
    }
    let values: Option<Vec<Value>> = rs
        .iter()
        .map(|(a, attr)| {
            if let Some(v) = assignment.get(&a) {
                return Some(v.clone());
            }
            let avoid = avoid_per_attr.get(&a).map(Vec::as_slice).unwrap_or(&[]);
            attr.domain()
                .fresh_value(avoid)
                .or_else(|| attr.domain().values().map(|vs| vs[0].clone()))
        })
        .collect();
    values.map(Tuple::new)
}

/// Finite-domain attributes mentioned by the CFDs but not yet assigned.
fn open_finite_attrs(
    schema: &Schema,
    rel: RelId,
    cfds: &[NormalCfd],
    assignment: &BTreeMap<AttrId, Value>,
) -> Vec<(AttrId, Vec<Value>)> {
    let Ok(rs) = schema.relation(rel) else {
        return Vec::new();
    };
    let mut mentioned: BTreeSet<AttrId> = BTreeSet::new();
    for cfd in cfds {
        for a in cfd.lhs().iter().chain([&cfd.rhs()]) {
            mentioned.insert(*a);
        }
    }
    mentioned
        .into_iter()
        .filter(|a| !assignment.contains_key(a))
        .filter_map(|a| {
            let attr = rs.attribute(a).ok()?;
            attr.domain().values().map(|vs| (a, vs.to_vec()))
        })
        .collect()
}

/// The chase-based `CFD_Checking` with a `K_CFD` valuation budget.
pub struct ChaseCfdChecker<R: Rng> {
    /// `K_CFD`: how many valuations of the open finite-domain fields to
    /// try before giving up (Figure 10(b) sweeps this).
    pub k_cfd: u64,
    /// Randomness for valuation sampling.
    pub rng: R,
}

impl<R: Rng> ChaseCfdChecker<R> {
    /// Creates a checker with the given budget.
    pub fn new(k_cfd: u64, rng: R) -> Self {
        ChaseCfdChecker { k_cfd, rng }
    }
}

impl<R: Rng> CfdChecker for ChaseCfdChecker<R> {
    fn check(&mut self, schema: &Schema, rel: RelId, cfds: &[NormalCfd]) -> Option<Tuple> {
        // Stage 1: unavoidable forcings.
        let mut base: BTreeMap<AttrId, Value> = BTreeMap::new();
        if !propagate(cfds, &mut base) {
            return None;
        }
        // Stage 2: sample valuations of the open finite fields.
        let open = open_finite_attrs(schema, rel, cfds, &base);
        if open.is_empty() {
            return materialize(schema, rel, cfds, &base);
        }
        // Deterministic first try: for each open attribute prefer a value
        // that no LHS pattern mentions (it cannot fire new premises).
        let mut tries = 0u64;
        let mut first: BTreeMap<AttrId, Value> = base.clone();
        for (a, dom) in &open {
            let lhs_consts: BTreeSet<&Value> = cfds
                .iter()
                .flat_map(|c| {
                    c.lhs()
                        .iter()
                        .zip(c.lhs_pat().cells())
                        .filter(|(b, _)| *b == a)
                        .filter_map(|(_, cell)| cell.as_const())
                })
                .collect();
            let v = dom
                .iter()
                .find(|v| !lhs_consts.contains(v))
                .unwrap_or(&dom[0])
                .clone();
            first.insert(*a, v);
        }
        if tries < self.k_cfd {
            tries += 1;
            let mut attempt = first;
            if propagate(cfds, &mut attempt) {
                return materialize(schema, rel, cfds, &attempt);
            }
        }
        // Small valuation spaces are sampled *without replacement*
        // (a shuffled exhaustive sweep): the K_CFD budget then covers the
        // space completely once K reaches its size, and no budget is
        // wasted on repeats. Large spaces fall back to uniform sampling.
        let space: u64 = open
            .iter()
            .map(|(_, dom)| dom.len() as u64)
            .try_fold(1u64, |acc, n| acc.checked_mul(n))
            .unwrap_or(u64::MAX);
        const EXHAUSTIVE_LIMIT: u64 = 8_192;
        if space <= EXHAUSTIVE_LIMIT {
            let mut valuations: Vec<Vec<usize>> = Vec::with_capacity(space as usize);
            let mut counters = vec![0usize; open.len()];
            'outer: loop {
                valuations.push(counters.clone());
                let mut i = 0;
                loop {
                    if i == counters.len() {
                        break 'outer;
                    }
                    counters[i] += 1;
                    if counters[i] < open[i].1.len() {
                        break;
                    }
                    counters[i] = 0;
                    i += 1;
                }
            }
            use rand::seq::SliceRandom;
            valuations.shuffle(&mut self.rng);
            for valuation in valuations {
                if tries >= self.k_cfd {
                    return None;
                }
                tries += 1;
                let mut attempt = base.clone();
                for (k, (a, dom)) in open.iter().enumerate() {
                    attempt.insert(*a, dom[valuation[k]].clone());
                }
                if propagate(cfds, &mut attempt) {
                    return materialize(schema, rel, cfds, &attempt);
                }
            }
            return None; // space exhausted: provably inconsistent
        }
        while tries < self.k_cfd {
            tries += 1;
            let mut attempt = base.clone();
            for (a, dom) in &open {
                let k = self.rng.gen_range(0..dom.len());
                attempt.insert(*a, dom[k].clone());
            }
            if propagate(cfds, &mut attempt) {
                return materialize(schema, rel, cfds, &attempt);
            }
        }
        None
    }
}

/// The SAT-based `CFD_Checking`.
///
/// Encoding: for a finite attribute `A`, one variable per domain value
/// with an exactly-one constraint; for an infinite attribute, one
/// variable per pattern constant with an at-most-one constraint (the
/// tuple may equal none of them). Each constant-RHS CFD becomes the
/// clause `⋀ premise vars → conclusion var`. Complete, since single-tuple
/// satisfaction depends only on which pattern constants the tuple hits.
///
/// The checker calls the repo's one CFD decider,
/// [`condep_cfd::consistency::relation_consistency`] — the same
/// encoding the Σ analyzer, `Validator::analysis`, discovery's keep
/// stage and CFD implication use. It runs the solver without a conflict
/// budget, preserving this checker's completeness contract.
pub struct SatCfdChecker;

impl CfdChecker for SatCfdChecker {
    fn check(&mut self, schema: &Schema, rel: RelId, cfds: &[NormalCfd]) -> Option<Tuple> {
        let active: Vec<(usize, &NormalCfd)> = cfds.iter().enumerate().collect();
        match relation_consistency(schema, rel, &active, None) {
            RelationVerdict::Sat(t) => Some(t),
            RelationVerdict::Unsat(_) => None,
            // Unreachable without a conflict budget; treat as "no
            // witness found" like the chase checker does.
            RelationVerdict::Unknown => None,
        }
    }
}

/// Validates a witness: the single-tuple database `{t}` must satisfy
/// every CFD — used in tests and as a cheap internal certificate.
pub fn witness_is_valid(
    schema: &std::sync::Arc<Schema>,
    rel: RelId,
    cfds: &[NormalCfd],
    t: &Tuple,
) -> bool {
    let mut db = condep_model::Database::empty(schema.clone());
    if db.insert(rel, t.clone()).is_err() {
        return false;
    }
    condep_cfd::satisfy::satisfies_all(&db, cfds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_cfd::fixtures::example_3_2;
    use condep_model::{prow, Domain, PatternRow, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn chase_checker() -> ChaseCfdChecker<StdRng> {
        ChaseCfdChecker::new(64, StdRng::seed_from_u64(11))
    }

    #[test]
    fn both_checkers_reject_example_3_2() {
        let (schema, cfds) = example_3_2();
        let rel = schema.rel_id("r").unwrap();
        assert!(chase_checker().check(&schema, rel, &cfds).is_none());
        assert!(SatCfdChecker.check(&schema, rel, &cfds).is_none());
    }

    #[test]
    fn both_checkers_accept_single_constraints_of_example_3_2() {
        let (schema, cfds) = example_3_2();
        let rel = schema.rel_id("r").unwrap();
        for cfd in &cfds {
            let set = std::slice::from_ref(cfd);
            let t1 = chase_checker().check(&schema, rel, set).expect("chase");
            assert!(witness_is_valid(&schema, rel, set, &t1));
            let t2 = SatCfdChecker.check(&schema, rel, set).expect("sat");
            assert!(witness_is_valid(&schema, rel, set, &t2));
        }
    }

    #[test]
    fn checkers_find_the_narrow_good_value() {
        // dom(a) = {0..4}; values 0..3 all force conflicts; only 4 works.
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[("a", Domain::finite_ints(5)), ("b", Domain::string())],
                )
                .finish(),
        );
        let rel = schema.rel_id("r").unwrap();
        let mut cfds = Vec::new();
        for v in 0..4i64 {
            for target in ["x", "y"] {
                cfds.push(
                    NormalCfd::parse(
                        &schema,
                        "r",
                        &["a"],
                        PatternRow::new([PValue::constant(Value::int(v))]),
                        "b",
                        PValue::constant(target),
                    )
                    .unwrap(),
                );
            }
        }
        let t = chase_checker()
            .check(&schema, rel, &cfds)
            .expect("chase finds a=4");
        assert_eq!(t[AttrId(0)], Value::int(4));
        let t = SatCfdChecker
            .check(&schema, rel, &cfds)
            .expect("sat finds a=4");
        assert_eq!(t[AttrId(0)], Value::int(4));
    }

    #[test]
    fn tiny_k_cfd_can_miss_consistency() {
        // Large finite domain with a single good value: K_CFD = 1 after
        // the biased try will usually fail — this is the accuracy loss
        // Figure 10(b) measures. Craft the set so the biased first try
        // also fails: every domain value appears in some LHS pattern.
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[("a", Domain::finite_ints(50)), ("b", Domain::string())],
                )
                .finish(),
        );
        let rel = schema.rel_id("r").unwrap();
        let mut cfds = Vec::new();
        for v in 0..50i64 {
            // (a=v → b=x) and, for v != 7, (a=v → b=y): only a=7 works.
            cfds.push(
                NormalCfd::parse(
                    &schema,
                    "r",
                    &["a"],
                    PatternRow::new([PValue::constant(Value::int(v))]),
                    "b",
                    PValue::constant("x"),
                )
                .unwrap(),
            );
            if v != 7 {
                cfds.push(
                    NormalCfd::parse(
                        &schema,
                        "r",
                        &["a"],
                        PatternRow::new([PValue::constant(Value::int(v))]),
                        "b",
                        PValue::constant("y"),
                    )
                    .unwrap(),
                );
            }
        }
        // SAT (complete) always finds a = 7.
        let t = SatCfdChecker.check(&schema, rel, &cfds).expect("sat");
        assert_eq!(t[AttrId(0)], Value::int(7));
        // A generous chase budget finds it too.
        let t = ChaseCfdChecker::new(5_000, StdRng::seed_from_u64(3))
            .check(&schema, rel, &cfds)
            .expect("generous chase");
        assert_eq!(t[AttrId(0)], Value::int(7));
        // A starved budget misses it (with this seed).
        assert!(ChaseCfdChecker::new(1, StdRng::seed_from_u64(3))
            .check(&schema, rel, &cfds)
            .is_none());
    }

    #[test]
    fn empty_cfd_set_yields_a_witness() {
        let (schema, _) = example_3_2();
        let rel = schema.rel_id("r").unwrap();
        assert!(chase_checker().check(&schema, rel, &[]).is_some());
        assert!(SatCfdChecker.check(&schema, rel, &[]).is_some());
    }

    #[test]
    fn forced_chain_on_infinite_attrs() {
        // (nil → b = v1) then (b=v1 → … conflict) — stage-1 propagation
        // alone must detect it, regardless of K_CFD.
        let schema = Arc::new(Schema::builder().relation_str("r", &["a", "b"]).finish());
        let rel = schema.rel_id("r").unwrap();
        let cfds = vec![
            NormalCfd::parse(&schema, "r", &[], prow![], "b", PValue::constant("v1")).unwrap(),
            NormalCfd::parse(
                &schema,
                "r",
                &["b"],
                prow!["v1"],
                "a",
                PValue::constant("p"),
            )
            .unwrap(),
            NormalCfd::parse(
                &schema,
                "r",
                &["b"],
                prow!["v1"],
                "a",
                PValue::constant("q"),
            )
            .unwrap(),
        ];
        assert!(ChaseCfdChecker::new(0, StdRng::seed_from_u64(0))
            .check(&schema, rel, &cfds)
            .is_none());
        assert!(SatCfdChecker.check(&schema, rel, &cfds).is_none());
    }

    #[test]
    fn witnesses_avoid_triggering_constants_when_possible() {
        // The materialized witness's free fields avoid pattern constants.
        let schema = Arc::new(Schema::builder().relation_str("r", &["a", "b"]).finish());
        let rel = schema.rel_id("r").unwrap();
        let cfds = vec![NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            prow!["trigger"],
            "b",
            PValue::constant("forced"),
        )
        .unwrap()];
        let t = chase_checker().check(&schema, rel, &cfds).unwrap();
        assert_ne!(t[AttrId(0)], Value::str("trigger"));
    }

    #[test]
    fn sat_agrees_with_exact_oracle_on_example_sets() {
        // K_CFD = 8,193 pays for the deterministic first try plus a full
        // sweep of any valuation space up to the 8,192 sweep limit (the
        // spaces here hold at most 3³), so the chase checker is complete:
        // an independent exact oracle for the SAT checker.
        let agree = |schema: &Arc<Schema>, rel, cfds: &[NormalCfd], seed, what: &str| {
            let sat = SatCfdChecker.check(schema, rel, cfds);
            let chase =
                ChaseCfdChecker::new(8_193, StdRng::seed_from_u64(seed)).check(schema, rel, cfds);
            assert_eq!(sat.is_some(), chase.is_some(), "{what}");
            for t in sat.iter().chain(&chase) {
                assert!(witness_is_valid(schema, rel, cfds, t), "{what}");
            }
            sat.is_some()
        };

        // Example 3.2 is inconsistent; each subset of three is not.
        let (schema, cfds) = example_3_2();
        let rel = schema.rel_id("r").unwrap();
        assert!(!agree(&schema, rel, &cfds, 0, "example 3.2"));
        for skip in 0..cfds.len() {
            let mut subset = cfds.clone();
            subset.remove(skip);
            assert!(agree(&schema, rel, &subset, 0, &format!("skip = {skip}")));
        }

        // Seeded small sets over one relation mixing finite attributes
        // (1–3 values) with string attributes.
        let mut verdicts = [0usize; 2];
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x5A7C_0000 + seed);
            let arity = rng.gen_range(2..=3usize);
            let attrs: Vec<(String, Domain)> = (0..arity)
                .map(|a| {
                    let dom = match rng.gen_range(0..4usize) {
                        0 => Domain::string(),
                        n => Domain::finite_ints(n),
                    };
                    (format!("x{a}"), dom)
                })
                .collect();
            let borrowed: Vec<(&str, Domain)> =
                attrs.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
            let schema = Arc::new(Schema::builder().relation("r", &borrowed).finish());
            let rel = schema.rel_id("r").unwrap();
            let rs = schema.relation(rel).unwrap();
            let constant =
                |rng: &mut StdRng, a: AttrId| match rs.attribute(a).unwrap().domain().values() {
                    Some(vals) => vals[rng.gen_range(0..vals.len())].clone(),
                    None => Value::str(["p", "q"][rng.gen_range(0..2usize)]),
                };
            let cfds: Vec<NormalCfd> = (0..rng.gen_range(1..=5usize))
                .map(|_| {
                    let lhs_len = rng.gen_range(0..arity);
                    let mut order: Vec<u32> = (0..arity as u32).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    let lhs: Vec<AttrId> = order[..lhs_len].iter().map(|&a| AttrId(a)).collect();
                    let rhs = AttrId(order[lhs_len]);
                    let cells: Vec<PValue> = lhs
                        .iter()
                        .map(|&a| {
                            if rng.gen_bool(0.7) {
                                PValue::Const(constant(&mut rng, a))
                            } else {
                                PValue::Any
                            }
                        })
                        .collect();
                    let rhs_pat = if rng.gen_bool(0.85) {
                        PValue::Const(constant(&mut rng, rhs))
                    } else {
                        PValue::Any
                    };
                    NormalCfd::new(rel, lhs, PatternRow::new(cells), rhs, rhs_pat)
                })
                .collect();
            let consistent = agree(&schema, rel, &cfds, seed, &format!("seed {seed}"));
            verdicts[consistent as usize] += 1;
        }
        assert!(
            verdicts.iter().all(|&n| n >= 20),
            "too few seeds on one side: {verdicts:?}"
        );
    }
}
