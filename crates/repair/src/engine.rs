//! The greedy, delta-verified repair loop.

use crate::cost::RepairCost;
use crate::log::{AppliedFix, Fix, Motive, RepairLog, RepairReport};
use condep_cfd::CfdViolation;
use condep_chase::ops::forced_target_template;
use condep_chase::TplValue;
use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, BaseType, Database, RelId, Tuple, Value};
use condep_telemetry::{Registry, SpanTimer};
use condep_validate::{
    Mutation, SigmaLint, SigmaReport, SigmaVerdict, UnsatSigma, Validator, ValidatorStream,
};
use std::collections::{BTreeMap, HashMap};

/// Termination bounds of the fixpoint loop.
///
/// Termination never actually rides on these: every *kept* fix is
/// strictly net-negative, so the outstanding violation count decreases
/// monotonically and the loop reaches a fixpoint in at most
/// `initial_violations` rounds. The budget bounds the tail — cascades of
/// plan/reject/replan rounds on pathological (e.g. inconsistent) Σ —
/// and caps the audit log's size.
#[derive(Clone, Copy, Debug)]
pub struct RepairBudget {
    /// Maximum fixpoint rounds (the cascade budget).
    pub max_rounds: usize,
    /// Maximum fixes kept across the whole run.
    pub max_fixes: usize,
}

impl Default for RepairBudget {
    fn default() -> Self {
        RepairBudget {
            max_rounds: 32,
            max_fixes: usize::MAX,
        }
    }
}

/// Union-find with path halving over dense cell ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn make(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Lower root wins: keeps component representatives (and with
            // them the plan order) deterministic.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// One planned fix: the candidates for one conflict, cheapest first.
struct Planned {
    motive: Motive,
    /// `(cost, fix)` candidates in preference order.
    candidates: Vec<(f64, Fix)>,
}

impl Fix {
    /// The value-level mutation that applies this fix.
    fn mutation(&self) -> Mutation {
        match self {
            Fix::EditCells { rel, old, new, .. } => Mutation::Update {
                rel: *rel,
                old: old.clone(),
                new: new.clone(),
            },
            Fix::DeleteTuple { rel, tuple } => Mutation::Delete {
                rel: *rel,
                tuple: tuple.clone(),
            },
            Fix::InsertTuple { rel, tuple } => Mutation::Insert {
                rel: *rel,
                tuple: tuple.clone(),
            },
        }
    }
}

/// Repairs `db` against the compiled suite: greedy equivalence-class
/// resolution for CFD violations, insert-or-delete for CIND orphans,
/// every candidate verified through the delta engine (kept only when its
/// [`condep_validate::SigmaDelta`]s are strictly net-negative, rolled
/// back otherwise), iterated to fixpoint under `budget`.
///
/// The engine's delta stream is seeded with
/// [`ValidatorStream::new_validated`], whose one shared build both
/// indexes `db` and reads its initial violations — callers pass no
/// report and no batch sweep runs first.
///
/// **Pre-flight gate:** Σ is statically analyzed first and a *proven*
/// unsatisfiable Σ is refused with [`UnsatSigma`] naming a minimal
/// conflicting core — repairing toward a Σ no nonempty database can
/// satisfy would only chase contradictory majorities around the budget.
/// `Unknown` verdicts (possible with CINDs) are admitted.
///
/// Returns the repaired database together with the auditable
/// [`RepairReport`].
pub fn repair(
    validator: Validator,
    db: Database,
    cost: &RepairCost,
    budget: &RepairBudget,
) -> Result<(Database, RepairReport), UnsatSigma> {
    if let SigmaVerdict::Unsat(core) = validator.analysis(db.schema()).verdict {
        return Err(UnsatSigma { core: core.cfds });
    }
    let (mut stream, initial) = ValidatorStream::new_validated(validator, db);
    let initial_violations = initial.len();
    let mut log = RepairLog::default();
    let mut budget_exhausted = false;
    let mut fill_serial = 0u64;
    // Run-local instrumentation: the round-latency distribution plus
    // accept/reject/stale counters, returned on the report
    // (`RepairReport::metrics`) next to the stream's own telemetry.
    let registry = Registry::new();
    let round_us = registry.histogram("repair.round_us");
    let accepted_fixes = registry.counter("repair.fixes.accepted");
    let rejected_fixes = registry.counter("repair.fixes.rejected");
    let stale_fixes = registry.counter("repair.fixes.stale");

    'rounds: loop {
        let report = stream.current_report();
        if report.is_empty() {
            break;
        }
        if log.rounds >= budget.max_rounds {
            budget_exhausted = true;
            break;
        }
        log.rounds += 1;
        // Dropped at the end of the iteration (including the `break
        // 'rounds` path), recording the round's wall time.
        let _round_span = SpanTimer::start(&round_us);
        let plan = plan_round(&stream, &report, cost, &mut fill_serial);
        if plan.is_empty() {
            break;
        }
        let mut progressed = false;
        for planned in plan {
            if log.applied.len() >= budget.max_fixes {
                budget_exhausted = true;
                break 'rounds;
            }
            for (fix_cost, fix) in planned.candidates {
                let applied = match stream.apply(fix.mutation()) {
                    Ok(applied) => applied,
                    Err(_) => {
                        // Ill-typed candidate (e.g. a forced constant
                        // outside the attribute's domain): skip it.
                        log.rejected += 1;
                        rejected_fixes.incr();
                        continue;
                    }
                };
                if applied.is_noop() {
                    // An earlier fix already removed or rewrote the
                    // target tuple; the whole conflict is replanned next
                    // round.
                    log.stale += 1;
                    stale_fixes.incr();
                    break;
                }
                if applied.net_change() < 0 {
                    // The retired id is the pre-fix tuple an edit or
                    // delete acted on; an insert only has a born id.
                    let target = applied
                        .deltas
                        .first()
                        .and_then(|d| d.ids.retired.or(d.ids.born));
                    log.applied.push(AppliedFix {
                        resolved: applied.resolved_count(),
                        introduced: applied.introduced_count(),
                        cost: fix_cost,
                        motive: planned.motive,
                        fix,
                        target,
                    });
                    accepted_fixes.incr();
                    progressed = true;
                    break;
                }
                // The deltas prove the fix does not pay for itself:
                // retract it and try the next candidate.
                let revert = applied.revert.expect("non-noop mutation has a revert");
                stream
                    .revert(revert)
                    .expect("revert of a just-applied mutation cannot fail");
                log.rejected += 1;
                rejected_fixes.incr();
            }
        }
        if !progressed {
            break;
        }
    }

    let residual = stream.current_report();
    let lints = suspect_majority_lints(&stream, &log);
    let mut cells_edited = 0;
    let mut tuples_deleted = 0;
    let mut tuples_inserted = 0;
    let mut total_cost = 0.0;
    for a in &log.applied {
        total_cost += a.cost;
        match &a.fix {
            Fix::EditCells { attrs, .. } => cells_edited += attrs.len(),
            Fix::DeleteTuple { .. } => tuples_deleted += 1,
            Fix::InsertTuple { .. } => tuples_inserted += 1,
        }
    }
    // The summary values are re-set from the log so the key set (minus
    // the histograms) is identical whether the `telemetry` feature is
    // on or off; with it on they overwrite the registry's counters with
    // the same values.
    let mut metrics = registry.snapshot();
    metrics.counter("repair.rounds", log.rounds as u64);
    metrics.counter("repair.fixes.accepted", log.applied.len() as u64);
    metrics.counter("repair.fixes.rejected", log.rejected as u64);
    metrics.counter("repair.fixes.stale", log.stale as u64);
    metrics.counter("repair.violations.initial", initial_violations as u64);
    metrics.counter("repair.violations.residual", residual.len() as u64);
    metrics.counter("repair.cells_edited", cells_edited as u64);
    metrics.counter("repair.tuples_deleted", tuples_deleted as u64);
    metrics.counter("repair.tuples_inserted", tuples_inserted as u64);
    metrics.float("repair.total_cost", total_cost);
    metrics.counter("repair.lints.suspect_majority", lints.len() as u64);
    metrics.merge("", &stream.telemetry().snapshot());
    Ok((
        stream.into_db(),
        RepairReport {
            log,
            initial_violations,
            residual,
            cells_edited,
            tuples_deleted,
            tuples_inserted,
            total_cost,
            budget_exhausted,
            metrics,
            lints,
        },
    ))
}

/// Post-hoc blind-spot detection over the accepted audit log: group
/// every kept CFD-motivated single-cell edit by `(relation, attribute,
/// motive CFD's LHS key in the pre-edit tuple, new value)`. When a
/// whole class of cells (3+) was rewritten toward one value, the
/// "majority" that won may itself have been coordinated dirt outvoting
/// the clean data — exactly what the adversarial
/// `count_majority_flips` scoring measures against ground truth, but
/// detectable without it. Advisory only: repair behavior is unchanged.
fn suspect_majority_lints(stream: &ValidatorStream, log: &RepairLog) -> Vec<SigmaLint> {
    let cfds = stream.validator().cfds();
    let mut classes: BTreeMap<(RelId, AttrId, Vec<Value>, Value), usize> = BTreeMap::new();
    for a in &log.applied {
        let Motive::Cfd(ci) = a.motive else { continue };
        let Fix::EditCells {
            rel,
            old,
            new,
            attrs,
        } = &a.fix
        else {
            continue;
        };
        if attrs.len() != 1 {
            continue;
        }
        let attr = attrs[0];
        let key = old.project(cfds[ci].lhs());
        *classes
            .entry((*rel, attr, key, new[attr].clone()))
            .or_default() += 1;
    }
    classes
        .into_iter()
        .filter(|(_, rewritten)| *rewritten >= 3)
        .map(
            |((rel, attr, _, value), rewritten)| SigmaLint::SuspectMajority {
                rel,
                attr,
                value,
                rewritten,
            },
        )
        .collect()
}

/// Plans one round of fixes against a snapshot of the live state:
/// equivalence classes for the CFD violations (union-find over
/// conflicting cells), insert-or-delete pairs for the CIND orphans.
/// Read-only — application (and the keep-or-roll-back decision) happens
/// in the caller's loop.
fn plan_round(
    stream: &ValidatorStream,
    report: &SigmaReport,
    cost: &RepairCost,
    fill_serial: &mut u64,
) -> Vec<Planned> {
    let validator = stream.validator();
    let db = stream.db();
    let mut plan: Vec<Planned> = Vec::new();

    // ---- CFD phase: union conflicting cells into equivalence classes.
    //
    // A cell is a `(relation, position, attribute)` triple; every
    // violation names its conflicting cells (`CfdViolation::cells`). A
    // single-tuple violation pins its cell to the pattern constant; a
    // pair violation pulls in the whole violation class (all resident
    // tuples agreeing on the LHS key and matching the pattern), since
    // the class must agree as a whole. Classes sharing a cell merge —
    // the cell can only hold one value, so its classes must settle on a
    // common target.
    let mut cell_ids: HashMap<(RelId, usize, AttrId), usize, FxBuildHasher> = HashMap::default();
    let mut cells: Vec<(RelId, usize, AttrId)> = Vec::new();
    // Per cell: the constants forced on it by constant-RHS violations,
    // and the first CFD that named it (the motive).
    let mut forced: Vec<Vec<Value>> = Vec::new();
    let mut motives: Vec<usize> = Vec::new();
    let mut uf = UnionFind::new();
    #[allow(clippy::too_many_arguments)]
    fn intern(
        cell_ids: &mut HashMap<(RelId, usize, AttrId), usize, FxBuildHasher>,
        cells: &mut Vec<(RelId, usize, AttrId)>,
        forced: &mut Vec<Vec<Value>>,
        motives: &mut Vec<usize>,
        uf: &mut UnionFind,
        cell: (RelId, usize, AttrId),
        ci: usize,
    ) -> usize {
        *cell_ids.entry(cell).or_insert_with(|| {
            cells.push(cell);
            forced.push(Vec::new());
            motives.push(ci);
            uf.make()
        })
    }

    for (ci, v) in &report.cfd {
        let cfd = &validator.cfds()[*ci];
        let (rel, rhs) = (cfd.rel(), cfd.rhs());
        // The violation's own conflicting cells anchor the class …
        let mut prev: Option<usize> = None;
        for (pos, attr) in v.cells(rhs) {
            let id = intern(
                &mut cell_ids,
                &mut cells,
                &mut forced,
                &mut motives,
                &mut uf,
                (rel, pos, attr),
                *ci,
            );
            if let Some(p) = prev {
                uf.union(p, id);
            }
            prev = Some(id);
        }
        match v {
            // … a single-tuple violation additionally pins its cell to
            // the pattern constant …
            CfdViolation::SingleTuple { expected, .. } => {
                let id = prev.expect("a violation always names a cell");
                if !forced[id].contains(expected) {
                    forced[id].push(expected.clone());
                }
            }
            // … and a pair violation pulls in its whole violation
            // class, anchored at the witness (its lowest position).
            CfdViolation::Pair { .. } => {
                let witness = db
                    .relation(rel)
                    .get(v.positions()[0])
                    .expect("report positions are live");
                for pos in stream.cfd_violation_class(*ci, witness) {
                    let id = intern(
                        &mut cell_ids,
                        &mut cells,
                        &mut forced,
                        &mut motives,
                        &mut uf,
                        (rel, pos, rhs),
                        *ci,
                    );
                    uf.union(prev.expect("pair cells interned above"), id);
                }
            }
        }
    }

    // Components in deterministic (first-cell) order.
    let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for id in 0..cells.len() {
        components.entry(uf.find(id)).or_default().push(id);
    }

    for (_, member_ids) in components {
        let (rel, _, attr) = cells[member_ids[0]];
        let motive = Motive::Cfd(motives[member_ids[0]]);
        // The component's current values, in position order (so the
        // group witness — the lowest position — is fixed first; see the
        // engine docs for why that ordering converges fastest).
        let mut by_pos: Vec<(usize, usize)> =
            member_ids.iter().map(|&id| (cells[id].1, id)).collect();
        by_pos.sort_unstable();
        // Target value: a forced constant when any cell is pinned
        // (majority support, then value order, for determinism);
        // otherwise the majority of the current values — the cheapest
        // resolving assignment under per-cell costs.
        let mut tally: HashMap<&Value, usize, FxBuildHasher> = HashMap::default();
        let mut forced_tally: HashMap<&Value, usize, FxBuildHasher> = HashMap::default();
        for &(pos, id) in &by_pos {
            let t = db.relation(rel).get(pos).expect("component cell is live");
            *tally.entry(&t[attr]).or_default() += 1;
            for f in &forced[id] {
                *forced_tally.entry(f).or_default() += 1;
            }
        }
        let pick = |m: &HashMap<&Value, usize, FxBuildHasher>| -> Option<Value> {
            m.iter()
                .map(|(v, n)| (*n, *v))
                .max_by(|(na, va), (nb, vb)| na.cmp(nb).then_with(|| vb.cmp(va)))
                .map(|(_, v)| v.clone())
        };
        let Some(target) = pick(&forced_tally).or_else(|| pick(&tally)) else {
            continue;
        };
        for &(pos, _) in &by_pos {
            let old = db
                .relation(rel)
                .get(pos)
                .expect("component cell is live")
                .clone();
            if old[attr] == target {
                continue;
            }
            let edit = Fix::EditCells {
                rel,
                new: old.with(attr, target.clone()),
                old: old.clone(),
                attrs: vec![attr],
            };
            let delete = Fix::DeleteTuple { rel, tuple: old };
            let mut candidates = vec![
                (cost.edit_cost(rel, attr), edit),
                (cost.tuple_delete, delete),
            ];
            // Stable by cost: edits precede deletions on ties.
            candidates.sort_by(|(a, _), (b, _)| a.partial_cmp(b).expect("finite costs"));
            plan.push(Planned { motive, candidates });
        }
    }

    // ---- CIND phase: each orphan is either given its chased target
    // tuple (pattern instantiation through the chase machinery) or
    // deleted, whichever is cheaper — ties prefer the insertion.
    let schema = db.schema();
    for (ci, v) in &report.cind {
        let cind = &validator.cinds()[*ci];
        let src_rel = cind.lhs_rel();
        let Some(src) = db.relation(src_rel).get(v.tuple) else {
            continue;
        };
        let template = forced_target_template(schema, cind, src);
        let target_rel = cind.rhs_rel();
        let rs = schema
            .relation(target_rel)
            .expect("compiled suite is well-formed");
        let instantiated: Option<Tuple> = template
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| match cell {
                TplValue::Const(v) => Some(v.clone()),
                TplValue::Var(_) => {
                    let dom = rs.attribute(AttrId(i as u32)).ok()?.domain();
                    // Finite domains: any member serves (the delta check
                    // vetoes bad draws). Infinite ones: a serial value
                    // from the reserved `repair-fill` namespace — data
                    // avoiding the namespace cannot collide a filler
                    // into a CFD key group, and a collision anyway only
                    // downgrades this candidate (the delta check rejects
                    // it), never corrupts.
                    *fill_serial += 1;
                    let v = match dom.values() {
                        Some(vs) => vs[0].clone(),
                        None => match dom.base_type() {
                            BaseType::Str => Value::str(format!("repair-fill{fill_serial}")),
                            BaseType::Int => Value::int(0x2000_0000_0000 + *fill_serial as i64),
                            BaseType::Bool => Value::bool(true),
                        },
                    };
                    Some(v)
                }
            })
            .collect();
        let mut candidates: Vec<(f64, Fix)> = Vec::new();
        if let Some(tuple) = instantiated {
            candidates.push((
                cost.tuple_insert,
                Fix::InsertTuple {
                    rel: target_rel,
                    tuple,
                },
            ));
        }
        candidates.push((
            cost.tuple_delete,
            Fix::DeleteTuple {
                rel: src_rel,
                tuple: src.clone(),
            },
        ));
        candidates.sort_by(|(a, _), (b, _)| a.partial_cmp(b).expect("finite costs"));
        plan.push(Planned {
            motive: Motive::Cind(*ci),
            candidates,
        });
    }

    plan
}
