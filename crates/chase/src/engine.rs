//! The chase engine: chasing sequences to termination.
//!
//! A chasing sequence applies `FD(φ)`/`IND(ψ)` operations until no
//! operation changes the template (the chase is *defined*, and the
//! result is `chase(D, Σ)`), or an `FD(φ)` hits two distinct constants /
//! the tuple cap is exceeded (the chase is *undefined*).
//!
//! The engine always drives CFDs to a local fixpoint before attempting
//! the next IND step — this implements the "improvement" of Section 5.2
//! (procedure `CFD_Checking` interleaved with the IND chase), and is
//! also the natural strategy: FD repairs only merge values, so doing
//! them eagerly keeps the template small.

use crate::config::ChaseConfig;
use crate::ops::{fd_step, ind_step, OpFailure};
use crate::template::{TemplateDb, TplValue, VarRef};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{PValue, Value};
use rand::Rng;

/// Why a chase ended undefined.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UndefinedReason {
    /// An `FD(φ)` application was undefined (two distinct constants).
    FdConflict {
        /// Rendered conflicting constants.
        left: String,
        /// Rendered conflicting constants.
        right: String,
    },
    /// A relation exceeded the tuple cap `T`.
    TupleCapExceeded,
    /// The engineering step budget was exhausted.
    StepBudgetExhausted,
}

/// Result of a chase run.
#[derive(Clone, Debug)]
pub enum ChaseOutcome {
    /// The chase terminated at a fixpoint; the result is `chase(D, Σ)`.
    Defined(TemplateDb),
    /// The chase is undefined.
    Undefined(UndefinedReason),
}

impl ChaseOutcome {
    /// Is the chase defined?
    pub fn is_defined(&self) -> bool {
        matches!(self, ChaseOutcome::Defined(_))
    }

    /// The resulting template, if defined.
    pub fn template(&self) -> Option<&TemplateDb> {
        match self {
            ChaseOutcome::Defined(db) => Some(db),
            ChaseOutcome::Undefined(_) => None,
        }
    }
}

impl From<OpFailure> for UndefinedReason {
    fn from(f: OpFailure) -> Self {
        match f {
            OpFailure::FdConflict { left, right } => UndefinedReason::FdConflict { left, right },
            OpFailure::TupleCapExceeded => UndefinedReason::TupleCapExceeded,
        }
    }
}

/// Drives the CFDs of `Σ` to a fixpoint on `db`. Returns the number of
/// repair steps, or the failure that made the chase undefined.
pub fn chase_cfds(
    db: &mut TemplateDb,
    cfds: &[NormalCfd],
    cfg: &ChaseConfig,
) -> Result<usize, UndefinedReason> {
    let mut steps = 0usize;
    loop {
        let mut changed = false;
        for cfd in cfds {
            while fd_step(db, cfd).map_err(UndefinedReason::from)? {
                steps += 1;
                changed = true;
                if steps > cfg.max_steps {
                    return Err(UndefinedReason::StepBudgetExhausted);
                }
            }
        }
        if !changed {
            return Ok(steps);
        }
    }
}

/// Borrow-based overlay: views `cell` with `var := cand` substituted,
/// without cloning any cell.
fn overlaid<'a>(cell: &'a TplValue, var: VarRef, cand: &'a TplValue) -> &'a TplValue {
    match cell {
        TplValue::Var(w) if *w == var => cand,
        other => other,
    }
}

/// Would substituting `candidate` for `var` immediately violate a CFD?
/// This is the chase's candidate check (procedure `CFD_Checking`'s
/// "when possible"). It reads the template as it stands, with the
/// substitution overlaid by borrowing, so it keeps no state between
/// calls and clones no cell.
///
/// It checks both the single-tuple reading (a matched premise forcing a
/// different constant) and the pair reading against the other tuples of
/// each relation the variable occurs in (`IND(ψ)` copies variables
/// across relations, so carriers are not confined to `var.rel`).
/// Agreement involving a variable is never a conflict — `FD(φ)` would
/// repair it by substitution. Deeper cross-tuple cascades are left to
/// the following CFD fixpoint.
///
/// Each call rescans the carriers' relations: `O(carriers · |R| · |Σ|)`
/// for a template whose relations hold at most `|R|` tuples. The tests
/// diff it against a substitute-then-check oracle.
pub fn candidate_conflicts(
    db: &TemplateDb,
    cfds: &[NormalCfd],
    var: VarRef,
    candidate: &Value,
) -> bool {
    let cand = TplValue::Const(candidate.clone());
    for rel_idx in 0..db.schema().len() {
        let rel = condep_model::RelId(rel_idx as u32);
        let rel_cfds: Vec<&NormalCfd> = cfds.iter().filter(|c| c.rel() == rel).collect();
        if rel_cfds.is_empty() {
            continue;
        }
        let tuples = db.relation(rel);
        for (i, t) in tuples.iter().enumerate() {
            if !t.cells().iter().any(|c| c == &TplValue::Var(var)) {
                continue;
            }
            for cfd in &rel_cfds {
                // Single-tuple reading.
                if let PValue::Const(forced) = cfd.rhs_pat() {
                    let matched = cfd
                        .lhs()
                        .iter()
                        .zip(cfd.lhs_pat().cells())
                        .all(|(a, cell)| match cell {
                            PValue::Any => true,
                            PValue::Const(c) => matches!(
                                overlaid(t.get(*a), var, &cand),
                                TplValue::Const(v) if v == c
                            ),
                        });
                    if matched {
                        if let TplValue::Const(existing) = overlaid(t.get(cfd.rhs()), var, &cand) {
                            if existing != forced {
                                return true;
                            }
                        }
                    }
                }
                // Pair reading against every other tuple.
                for (j, t2) in tuples.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let premise = cfd
                        .lhs()
                        .iter()
                        .zip(cfd.lhs_pat().cells())
                        .all(|(a, cell)| {
                            let v1 = overlaid(t.get(*a), var, &cand);
                            let v2 = overlaid(t2.get(*a), var, &cand);
                            if v1 != v2 {
                                return false;
                            }
                            match cell {
                                PValue::Any => true,
                                PValue::Const(c) => {
                                    matches!(v1, TplValue::Const(v) if v == c)
                                }
                            }
                        });
                    if !premise {
                        continue;
                    }
                    if let (TplValue::Const(c1), TplValue::Const(c2)) = (
                        overlaid(t.get(cfd.rhs()), var, &cand),
                        overlaid(t2.get(cfd.rhs()), var, &cand),
                    ) {
                        if c1 != c2 {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// Instantiates every remaining finite-domain variable — procedure
/// `CFD_Checking`'s "instantiating variables in terms of constants in
/// the pattern tuples when possible": candidates are tried in the order
///
/// 1. constants appearing as RHS-pattern values on this attribute (these
///    are the values the CFDs would force anyway, so picking them keeps
///    later premises consistent),
/// 2. the rest of the domain (randomly rotated),
///
/// and the first one that [`candidate_conflicts`] clears is substituted
/// into the template. Falls back to a random value when every candidate
/// conflicts (the subsequent CFD fixpoint then reports the chase
/// undefined, which is the correct signal). CIND `Yp` constants
/// targeting the attribute are hints too: future forced tuples will
/// carry them, and agreeing early avoids pair conflicts.
///
/// There is one check and no persistent checker: every candidate is
/// checked against the template as the previous substitutions left it.
fn instantiate_finite_vars<R: Rng>(
    db: &mut TemplateDb,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
    rng: &mut R,
) {
    loop {
        let vars = db.finite_variables();
        let Some(var) = vars.first().copied() else {
            return;
        };
        let dom: Vec<Value> = db
            .schema()
            .relation(var.rel)
            .ok()
            .and_then(|rs| rs.attribute(var.attr).ok().map(|a| a.domain().clone()))
            .and_then(|d| d.values().map(<[Value]>::to_vec))
            .unwrap_or_default();
        if dom.is_empty() {
            return; // defensive: finite vars always have domains
        }
        // Pattern-tuple hints: RHS constants targeting this attribute,
        // from CFD conclusions and CIND Yp patterns alike.
        let hints: Vec<&Value> = cfds
            .iter()
            .filter(|c| c.rel() == var.rel && c.rhs() == var.attr)
            .filter_map(|c| c.rhs_pat().as_const())
            .chain(
                cinds
                    .iter()
                    .filter(|c| c.rhs_rel() == var.rel)
                    .flat_map(|c| c.yp().iter())
                    .filter(|(a, _)| *a == var.attr)
                    .map(|(_, v)| v),
            )
            .filter(|v| dom.contains(v))
            .collect();
        let start = rng.gen_range(0..dom.len());
        let pick = hints
            .into_iter()
            .chain((0..dom.len()).map(|i| &dom[(start + i) % dom.len()]))
            .find(|cand| !candidate_conflicts(db, cfds, var, cand))
            .unwrap_or(&dom[start])
            .clone();
        db.substitute(var, &TplValue::Const(pick));
    }
}

/// Runs the full chase of `db` with `Σ = cfds ∪ cinds` to termination.
///
/// This implements the **improved** instantiated chase of Section 5.2
/// ("This is the algorithm we have implemented"): new tuples are created
/// with pool variables everywhere, the CFD fixpoint then pins whatever
/// the patterns force, and only the *remaining* finite-domain variables
/// are instantiated — constraint-aware, preferring values that violate
/// no pattern (followed by another CFD fixpoint, since fresh constants
/// can fire new premises). Instantiating eagerly at tuple-creation time
/// — the naive reading — loses accuracy badly: a random pick races the
/// value the CFDs would have forced.
pub fn chase<R: Rng>(
    mut db: TemplateDb,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
    cfg: &ChaseConfig,
    rng: &mut R,
) -> ChaseOutcome {
    let mut steps = 0usize;
    // IND steps always create pool variables; instantiation of finite
    // fields is deferred until after the CFD fixpoint.
    let ind_cfg = ChaseConfig {
        instantiate_finite: false,
        ..*cfg
    };
    // Initial CFD fixpoint + instantiation (covers the seed tuple).
    match chase_cfds(&mut db, cfds, cfg) {
        Ok(s) => steps += s,
        Err(r) => return ChaseOutcome::Undefined(r),
    }
    if cfg.instantiate_finite {
        instantiate_finite_vars(&mut db, cfds, cinds, rng);
        match chase_cfds(&mut db, cfds, cfg) {
            Ok(s) => steps += s,
            Err(r) => return ChaseOutcome::Undefined(r),
        }
    }
    loop {
        let mut changed = false;
        for cind in cinds {
            match ind_step(&mut db, cind, &ind_cfg, rng) {
                Ok(false) => {}
                Ok(true) => {
                    steps += 1;
                    changed = true;
                    // Interleaved CFD fixpoint (procedure CFD_Checking).
                    match chase_cfds(&mut db, cfds, cfg) {
                        Ok(s) => steps += s,
                        Err(r) => return ChaseOutcome::Undefined(r),
                    }
                    // Constraint-aware instantiation of the finite
                    // variables the fixpoint left open, then
                    // re-propagate.
                    if cfg.instantiate_finite {
                        instantiate_finite_vars(&mut db, cfds, cinds, rng);
                        match chase_cfds(&mut db, cfds, cfg) {
                            Ok(s) => steps += s,
                            Err(r) => return ChaseOutcome::Undefined(r),
                        }
                    }
                }
                Err(f) => return ChaseOutcome::Undefined(f.into()),
            }
            if steps > cfg.max_steps {
                return ChaseOutcome::Undefined(UndefinedReason::StepBudgetExhausted);
            }
        }
        if !changed {
            return ChaseOutcome::Defined(db);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{constant, seed_tuple};
    use crate::template::TplTuple;
    use crate::valuation::{all_valuations, Valuation};
    use condep_core::fixtures::{example_5_1_cinds, example_5_1_schema};
    use condep_model::{prow, AttrId, PValue, RelId, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn example_5_1_cfds(schema: &condep_model::Schema) -> Vec<NormalCfd> {
        vec![
            // φ1 = (R1: E → F, (_ || _))
            NormalCfd::parse(schema, "r1", &["e"], prow![_], "f", PValue::Any).unwrap(),
            // φ2 = (R2: H → G, (_ || c))
            NormalCfd::parse(schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap(),
        ]
    }

    #[test]
    fn example_5_1_chase_is_defined_and_matches_the_paper() {
        // Paper: starting from D = {(vE1, vE2)} in R1, the chase adds
        // (vE1, vH1) to R2, then FD(φ2) makes vE1 = c, ending with
        //   R1: (c, vF1)    R2: (c, vH1).
        let schema = example_5_1_schema(false);
        let cfds = example_5_1_cfds(&schema);
        let cinds = example_5_1_cinds(&schema);
        let mut db = TemplateDb::empty(schema.clone());
        let r1 = schema.rel_id("r1").unwrap();
        let r2 = schema.rel_id("r2").unwrap();
        seed_tuple(&mut db, r1);
        let outcome = chase(db, &cfds, &cinds, &ChaseConfig::plain(), &mut rng());
        let result = outcome.template().expect("chase must be defined");
        assert_eq!(result.relation(r1).len(), 1);
        assert_eq!(result.relation(r2).len(), 1);
        // E and G both became the constant c.
        assert_eq!(result.relation(r1)[0].get(AttrId(0)), &constant("c"));
        assert_eq!(result.relation(r2)[0].get(AttrId(0)), &constant("c"));
        // F and H remain variables.
        assert!(result.relation(r1)[0].get(AttrId(1)).is_var());
        assert!(result.relation(r2)[0].get(AttrId(1)).is_var());
        // The defined chase certifies consistency: instantiate fresh and
        // check all of Σ.
        let consts: Vec<Value> = vec![Value::str("a"), Value::str("b"), Value::str("c")];
        let concrete = result.instantiate_fresh(&consts).unwrap();
        assert!(condep_cfd::satisfy::satisfies_all(&concrete, &cfds));
        assert!(condep_core::satisfy::satisfies_all(&concrete, &cinds));
    }

    #[test]
    fn example_5_3_instantiated_chase_with_valuation_rho1() {
        // dom(H) = {0, 1}; seed R2 with (vG1, vH1); ρ1 maps vH1 to 0.
        // Example 5.3: the instantiated chase is defined for ρ1 and ends
        // with R1 ⊇ {(c, a)}, R2 ⊇ {(c, 0)} (database D4). The lazy
        // instantiation draws the H field of chase-created tuples at
        // random, so individual runs may legitimately be undefined —
        // exactly why RandomChecking retries; some seed must reproduce
        // the paper's outcome.
        let schema = example_5_1_schema(true);
        let cfds = example_5_1_cfds(&schema);
        let cinds = example_5_1_cinds(&schema);
        let r1 = schema.rel_id("r1").unwrap();
        let r2 = schema.rel_id("r2").unwrap();
        let mut seed_db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut seed_db, r2);
        let finite_vars = seed_db.finite_variables();
        assert_eq!(finite_vars.len(), 1);
        let rho1 = Valuation::from_pairs([(finite_vars[0], Value::str("0"))]);
        rho1.apply(&mut seed_db);

        let defined = (0..20u64).find_map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            match chase(
                seed_db.clone(),
                &cfds,
                &cinds,
                &ChaseConfig::default(),
                &mut rng,
            ) {
                ChaseOutcome::Defined(t) => Some(t),
                ChaseOutcome::Undefined(_) => None,
            }
        });
        let result = defined.expect("some run reproduces Example 5.3's D4");
        // The D4 tuples are present: R2 ∋ (c, 0), R1 ∋ (c, a).
        assert!(result
            .relation(r2)
            .iter()
            .any(|t| t.get(AttrId(0)) == &constant("c") && t.get(AttrId(1)) == &constant("0")));
        assert!(result
            .relation(r1)
            .iter()
            .any(|t| t.get(AttrId(0)) == &constant("c") && t.get(AttrId(1)) == &constant("a")));
        // And the defined result certifies consistency.
        let consts: Vec<Value> = ["a", "b", "c", "d", "0", "1"]
            .iter()
            .map(Value::str)
            .collect();
        let concrete = result.instantiate_fresh(&consts).unwrap();
        assert!(condep_cfd::satisfy::satisfies_all(&concrete, &cfds));
        assert!(condep_core::satisfy::satisfies_all(&concrete, &cinds));
    }

    #[test]
    fn conflicting_cfds_make_the_chase_undefined() {
        // Two unconditional constant CFDs on the same attribute clash.
        let schema = example_5_1_schema(false);
        let c1 = NormalCfd::parse(&schema, "r1", &[], prow![], "f", PValue::constant("x")).unwrap();
        let c2 = NormalCfd::parse(&schema, "r1", &[], prow![], "f", PValue::constant("y")).unwrap();
        let mut db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut db, schema.rel_id("r1").unwrap());
        let outcome = chase(db, &[c1, c2], &[], &ChaseConfig::default(), &mut rng());
        assert!(matches!(
            outcome,
            ChaseOutcome::Undefined(UndefinedReason::FdConflict { .. })
        ));
    }

    #[test]
    fn tuple_cap_makes_the_chase_undefined() {
        let schema = example_5_1_schema(false);
        let cinds = example_5_1_cinds(&schema);
        let mut db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut db, schema.rel_id("r1").unwrap());
        let cfg = ChaseConfig {
            tuple_cap: 0,
            ..ChaseConfig::plain()
        };
        let outcome = chase(db, &[], &cinds, &cfg, &mut rng());
        assert!(matches!(
            outcome,
            ChaseOutcome::Undefined(UndefinedReason::TupleCapExceeded)
        ));
    }

    #[test]
    fn chase_terminates_on_cyclic_inds() {
        // R1[E] ⊆ R2[G] and R2[G] ⊆ R1[E]: bounded pools keep the chase
        // finite (the termination claim of Section 5.1).
        let schema = example_5_1_schema(false);
        let forward = NormalCind::parse(&schema, "r1", &["e"], &[], "r2", &["g"], &[]).unwrap();
        let backward = NormalCind::parse(&schema, "r2", &["g"], &[], "r1", &["e"], &[]).unwrap();
        let mut db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut db, schema.rel_id("r1").unwrap());
        let outcome = chase(
            db,
            &[],
            &[forward, backward],
            &ChaseConfig::plain(),
            &mut rng(),
        );
        assert!(outcome.is_defined());
    }

    #[test]
    fn all_valuations_eventually_find_the_defined_chase() {
        // Exhaustive analogue of RandomChecking's sampling: with
        // dom(H) = {0, 1}, at least one valuation yields a defined chase.
        let schema = example_5_1_schema(true);
        let cfds = example_5_1_cfds(&schema);
        let cinds = example_5_1_cinds(&schema);
        let mut seed_db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut seed_db, schema.rel_id("r2").unwrap());
        let vars = seed_db.finite_variables();
        let defined = all_valuations(&schema, &vars).into_iter().any(|rho| {
            let mut db = seed_db.clone();
            rho.apply(&mut db);
            chase(db, &cfds, &cinds, &ChaseConfig::default(), &mut rng()).is_defined()
        });
        assert!(defined);
    }

    fn var(rel: u32, attr: u32, idx: u8) -> VarRef {
        VarRef {
            rel: RelId(rel),
            attr: AttrId(attr),
            idx,
        }
    }

    /// Deterministic xorshift so the random sweep is reproducible.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random cell of relation `rel`: a constant, a variable of the
    /// relation's own pool, or one copied in from either relation (as
    /// `IND(ψ)` copies variables across relations).
    fn random_cell(state: &mut u64, rel: u32, attr: u32) -> TplValue {
        match next(state) % 5 {
            0 => TplValue::Var(var(rel, attr, 0)),
            1 => TplValue::Var(var((next(state) % 2) as u32, attr, 1)),
            k => constant(["a", "b", "c"][(k as usize - 2) % 3]),
        }
    }

    /// The definition-level oracle for [`candidate_conflicts`]: apply
    /// `var := candidate` to a copy of the template, then look for a
    /// tuple that carried `var` whose image matches a CFD's LHS constants
    /// and either holds a constant other than a constant RHS, or agrees
    /// on `X` with another tuple while the two hold different RHS
    /// constants.
    fn substitution_conflicts(
        db: &TemplateDb,
        cfds: &[NormalCfd],
        var: VarRef,
        candidate: &Value,
    ) -> bool {
        let cand = TplValue::Const(candidate.clone());
        let mut after = db.clone();
        after.substitute(var, &cand);
        let image = |t: &TplTuple| {
            TplTuple(
                t.cells()
                    .iter()
                    .map(|c| if c == &TplValue::Var(var) { &cand } else { c }.clone())
                    .collect(),
            )
        };
        for cfd in cfds {
            let carriers = db.relation(cfd.rel()).iter();
            for t in carriers.filter(|t| t.cells().contains(&TplValue::Var(var))) {
                let t = image(t);
                let lhs_constants_match =
                    cfd.lhs()
                        .iter()
                        .zip(cfd.lhs_pat().cells())
                        .all(|(a, p)| match p {
                            PValue::Any => true,
                            PValue::Const(c) => t.get(*a) == &constant(c.clone()),
                        });
                if !lhs_constants_match {
                    continue;
                }
                if let (PValue::Const(forced), TplValue::Const(held)) =
                    (cfd.rhs_pat(), t.get(cfd.rhs()))
                {
                    if held != forced {
                        return true;
                    }
                }
                for other in after.relation(cfd.rel()) {
                    let agrees = cfd.lhs().iter().all(|a| t.get(*a) == other.get(*a));
                    if let (TplValue::Const(c1), TplValue::Const(c2)) =
                        (t.get(cfd.rhs()), other.get(cfd.rhs()))
                    {
                        if agrees && c1 != c2 {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Runs [`candidate_conflicts`] for `var := cand` and asserts that the
    /// substitute-then-check oracle reaches the same decision.
    fn decide(db: &TemplateDb, cfds: &[NormalCfd], v: VarRef, cand: &str) -> bool {
        let cand = Value::str(cand);
        let checked = candidate_conflicts(db, cfds, v, &cand);
        assert_eq!(
            checked,
            substitution_conflicts(db, cfds, v, &cand),
            "diverged on {v:?} := {cand:?} for template:\n{db}"
        );
        checked
    }

    /// φ = (R1: E → F, (_ || _)).
    fn e_to_f(schema: &condep_model::Schema) -> NormalCfd {
        NormalCfd::parse(schema, "r1", &["e"], prow![_], "f", PValue::Any).unwrap()
    }

    /// φ = (R2: H → G, (_ || c)).
    fn pin_g(schema: &condep_model::Schema) -> NormalCfd {
        NormalCfd::parse(schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap()
    }

    /// A substitution that merges two template tuples: vE := b collapses
    /// (vE, a) into (b, a); (c, vF) is a second key group whose F stays
    /// open until it is instantiated too.
    #[test]
    fn candidate_conflicts_follows_a_merging_substitution() {
        let schema = example_5_1_schema(false);
        let r1 = schema.rel_id("r1").unwrap();
        let fd = [e_to_f(&schema)];
        let (ve, vf) = (var(0, 0, 0), var(0, 1, 0));
        let mut db = TemplateDb::empty(schema.clone());
        db.insert(r1, TplTuple(vec![TplValue::Var(ve), constant("a")]));
        db.insert(r1, TplTuple(vec![constant("b"), constant("a")]));
        db.insert(r1, TplTuple(vec![constant("c"), TplValue::Var(vf)]));
        assert!(!decide(&db, &fd, ve, "b"), "merge is clean");
        db.substitute(ve, &constant("b"));
        assert_eq!(db.relation(r1).len(), 2, "template merged");
        assert!(!decide(&db, &fd, vf, "a"), "F's key group is a singleton");
        assert!(!decide(&db, &fd, vf, "c"));
        db.substitute(vf, &constant("c"));
        assert!(db.variables().is_empty());
    }

    /// A candidate that breaks a constant RHS is rejected, and the next
    /// one is accepted and committed.
    #[test]
    fn candidate_conflicts_rejects_then_accepts_a_candidate() {
        let schema = example_5_1_schema(false);
        let r2 = schema.rel_id("r2").unwrap();
        let pin = [pin_g(&schema)];
        let vg = var(1, 0, 0);
        let mut db = TemplateDb::empty(schema.clone());
        db.insert(r2, TplTuple(vec![TplValue::Var(vg), constant("k")]));
        assert!(decide(&db, &pin, vg, "a"), "g must be c");
        assert!(!decide(&db, &pin, vg, "c"));
        db.substitute(vg, &constant("c"));
        assert!(db.variables().is_empty());
    }

    /// [`candidate_conflicts`] against the substitute-then-check oracle on
    /// every (variable, candidate) decision over 120 random templates with
    /// mixed CFD shapes.
    #[test]
    fn candidate_conflicts_matches_a_substitution_oracle() {
        let schema = example_5_1_schema(false);
        let cfds = vec![
            e_to_f(&schema),
            pin_g(&schema),
            NormalCfd::parse(
                &schema,
                "r1",
                &["e"],
                prow!["a"],
                "f",
                PValue::constant("b"),
            )
            .unwrap(),
            NormalCfd::parse(&schema, "r2", &["g"], prow![_], "h", PValue::Any).unwrap(),
        ];
        let mut state = 0x5eed_cafe_f00d_1234u64;
        let (mut decisions, mut conflicts) = (0usize, 0usize);
        for _case in 0..120 {
            let mut db = TemplateDb::empty(schema.clone());
            for rel in 0..2u32 {
                for _ in 0..1 + next(&mut state) % 4 {
                    let cells = (0..2u32)
                        .map(|attr| random_cell(&mut state, rel, attr))
                        .collect();
                    db.insert(RelId(rel), TplTuple(cells));
                }
            }
            for v in db.variables() {
                for cand in ["a", "b", "c"] {
                    conflicts += usize::from(decide(&db, &cfds, v, cand));
                    decisions += 1;
                }
            }
        }
        assert!(decisions > 300, "sweep too small: {decisions}");
        assert!(
            0 < conflicts && conflicts < decisions,
            "{conflicts} of {decisions} decisions conflict"
        );
    }
}
