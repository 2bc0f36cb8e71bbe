//! The chase operations `IND(ψ)` and `FD(φ)` of Section 5.1.

use crate::config::ChaseConfig;
use crate::template::{TemplateDb, TplTuple, TplValue, VarRef};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{AttrId, PValue, Value};
use rand::Rng;

/// Why a chase operation rendered the chase undefined.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpFailure {
    /// `FD(φ)` tried to equate two distinct constants.
    FdConflict {
        /// Rendered left constant.
        left: String,
        /// Rendered right constant.
        right: String,
    },
    /// The tuple cap `T` was exceeded (Section 5.2's simplification (b)).
    TupleCapExceeded,
}

/// Does the template tuple match `tp[X]` of a CFD? Variables match only
/// wildcards.
fn matches_lhs(t: &TplTuple, cfd: &NormalCfd) -> bool {
    cfd.lhs()
        .iter()
        .zip(cfd.lhs_pat().cells())
        .all(|(a, p)| match p {
            PValue::Any => true,
            PValue::Const(c) => t.get(*a) == &TplValue::Const(c.clone()),
        })
}

/// One application of `FD(φ)`: finds a violating pair (or single tuple)
/// and repairs it by substitution. Returns `Ok(true)` if the template
/// changed, `Ok(false)` at fixpoint, `Err` when undefined.
pub fn fd_step(db: &mut TemplateDb, cfd: &NormalCfd) -> Result<bool, OpFailure> {
    let rel = cfd.rel();
    let tuples = db.relation(rel);
    // Find one violation; apply; let the engine loop.
    for i in 0..tuples.len() {
        let t1 = &tuples[i];
        if !matches_lhs(t1, cfd) {
            continue;
        }
        let a = cfd.rhs();
        // Single-tuple reading: a constant RHS pattern must hold.
        if let PValue::Const(c) = cfd.rhs_pat() {
            match t1.get(a).clone() {
                TplValue::Const(b) if &b == c => {}
                TplValue::Const(b) => {
                    return Err(OpFailure::FdConflict {
                        left: b.to_string(),
                        right: c.to_string(),
                    });
                }
                TplValue::Var(v) => {
                    db.substitute(v, &TplValue::Const(c.clone()));
                    return Ok(true);
                }
            }
        }
        // Pair reading: agreement on A for tuples agreeing on X.
        #[allow(clippy::needless_range_loop)]
        for j in (i + 1)..tuples.len() {
            let t2 = &tuples[j];
            if !matches_lhs(t2, cfd) {
                continue;
            }
            if cfd.lhs().iter().any(|x| t1.get(*x) != t2.get(*x)) {
                continue;
            }
            let (va, vb) = (t1.get(a).clone(), t2.get(a).clone());
            if va == vb {
                continue;
            }
            // The paper's order: substitute the smaller side (variables
            // precede constants) by the larger.
            return match (va, vb) {
                (TplValue::Const(c1), TplValue::Const(c2)) => Err(OpFailure::FdConflict {
                    left: c1.to_string(),
                    right: c2.to_string(),
                }),
                (TplValue::Var(v), other) | (other, TplValue::Var(v)) => {
                    // `Var(v)` sorts below `other` whenever `other` is a
                    // constant; for two variables pick the smaller as the
                    // one to replace.
                    let (replace, with) = match &other {
                        TplValue::Var(w) if *w < v => (*w, TplValue::Var(v)),
                        _ => (v, other),
                    };
                    db.substitute(replace, &with);
                    Ok(true)
                }
            };
        }
    }
    Ok(false)
}

/// Picks the value for an unconstrained field of a new tuple: a random
/// pool variable, or (under `chaseI`) a random domain constant for
/// finite-domain attributes.
fn free_field<R: Rng>(
    db: &TemplateDb,
    rel: condep_model::RelId,
    attr: AttrId,
    cfg: &ChaseConfig,
    rng: &mut R,
) -> TplValue {
    if cfg.instantiate_finite {
        if let Ok(rs) = db.schema().relation(rel) {
            if let Ok(a) = rs.attribute(attr) {
                if let Some(values) = a.domain().values() {
                    let k = rng.gen_range(0..values.len());
                    return TplValue::Const(values[k].clone());
                }
            }
        }
    }
    let idx = rng.gen_range(0..cfg.pool_size);
    TplValue::Var(VarRef { rel, attr, idx })
}

/// The determined cells of the target tuple a CIND forces for one
/// triggered source tuple (the pattern-instantiation core of `IND(ψ)`):
/// each `Y` attribute copies the source's matching `X` cell (rule CIND2's
/// permutation semantics) and each `Yp` attribute takes its pattern
/// constant. `source_cell` reads the source tuple's cells.
pub fn forced_cells<F>(cind: &NormalCind, source_cell: F) -> Vec<(AttrId, TplValue)>
where
    F: Fn(AttrId) -> TplValue,
{
    let mut determined: Vec<(AttrId, TplValue)> = Vec::new();
    for (xa, ya) in cind.x().iter().zip(cind.y()) {
        determined.push((*ya, source_cell(*xa)));
    }
    for (a, v) in cind.yp() {
        determined.push((*a, TplValue::Const(v.clone())));
    }
    determined
}

/// One application of `IND(ψ)`: finds a triggered source tuple without a
/// target witness and adds the forced tuple. Returns `Ok(true)` if a
/// tuple was added, `Ok(false)` at fixpoint, `Err` when the tuple cap is
/// exceeded.
pub fn ind_step<R: Rng>(
    db: &mut TemplateDb,
    cind: &NormalCind,
    cfg: &ChaseConfig,
    rng: &mut R,
) -> Result<bool, OpFailure> {
    let source_rel = cind.lhs_rel();
    let target_rel = cind.rhs_rel();
    // Find a triggered tuple lacking a witness.
    let mut forced: Option<Vec<(AttrId, TplValue)>> = None;
    'search: for t1 in db.relation(source_rel) {
        if !t1.matches_consts(cind.xp()) {
            continue;
        }
        for t2 in db.relation(target_rel) {
            let copies_match = cind
                .x()
                .iter()
                .zip(cind.y())
                .all(|(xa, ya)| t1.get(*xa) == t2.get(*ya));
            if copies_match && t2.matches_consts(cind.yp()) {
                continue 'search; // witnessed
            }
        }
        forced = Some(forced_cells(cind, |a| t1.get(a).clone()));
        break;
    }
    let Some(determined) = forced else {
        return Ok(false);
    };
    if db.relation(target_rel).len() >= cfg.tuple_cap {
        return Err(OpFailure::TupleCapExceeded);
    }
    let arity = db
        .schema()
        .relation(target_rel)
        .map(|r| r.arity())
        .unwrap_or(0);
    let mut cells: Vec<Option<TplValue>> = vec![None; arity];
    for (a, v) in determined {
        cells[a.index()] = Some(v);
    }
    let cells: Vec<TplValue> = cells
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.unwrap_or_else(|| free_field(db, target_rel, AttrId(i as u32), cfg, rng)))
        .collect();
    db.insert(target_rel, TplTuple(cells));
    Ok(true)
}

/// Seeds the chase: a single tuple of fresh pool variables in `rel`
/// (line 1 of Algorithm RandomChecking).
pub fn seed_tuple(db: &mut TemplateDb, rel: condep_model::RelId) {
    seed_tuple_with(db, rel, &[]);
}

/// Seeds the chase with a tuple whose listed fields are pinned to
/// constants (pool variables everywhere else) — used to build templates
/// that trigger a specific CIND, e.g. by the implication refuter.
pub fn seed_tuple_with(db: &mut TemplateDb, rel: condep_model::RelId, pinned: &[(AttrId, Value)]) {
    let arity = db.schema().relation(rel).map(|r| r.arity()).unwrap_or(0);
    let cells = (0..arity)
        .map(|i| {
            let attr = AttrId(i as u32);
            match pinned.iter().find(|(a, _)| *a == attr) {
                Some((_, v)) => TplValue::Const(v.clone()),
                None => TplValue::Var(VarRef { rel, attr, idx: 0 }),
            }
        })
        .collect();
    db.insert(rel, TplTuple(cells));
}

/// Convenience for tests: a ground template cell.
pub fn constant(v: impl Into<Value>) -> TplValue {
    TplValue::Const(v.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_core::fixtures::{example_5_1_cinds, example_5_1_schema};
    use condep_model::{prow, RelId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn ind_step_adds_the_forced_tuple() {
        // Example 5.1: seeding R1 with (vE1, vE2) and applying IND(ψ1)
        // adds a tuple (vE1, ·) to R2.
        let schema = example_5_1_schema(false);
        let cinds = example_5_1_cinds(&schema);
        let mut db = TemplateDb::empty(schema.clone());
        let r1 = schema.rel_id("r1").unwrap();
        let r2 = schema.rel_id("r2").unwrap();
        seed_tuple(&mut db, r1);
        let cfg = ChaseConfig::plain();
        let changed = ind_step(&mut db, &cinds[0], &cfg, &mut rng()).unwrap();
        assert!(changed);
        assert_eq!(db.relation(r2).len(), 1);
        // The G column copies R1's E variable.
        let e_cell = db.relation(r1)[0].get(AttrId(0)).clone();
        assert_eq!(db.relation(r2)[0].get(AttrId(0)), &e_cell);
        // Re-applying is a no-op: the witness now exists.
        assert!(!ind_step(&mut db, &cinds[0], &cfg, &mut rng()).unwrap());
    }

    #[test]
    fn ind_step_respects_the_tuple_cap() {
        let schema = example_5_1_schema(false);
        let cinds = example_5_1_cinds(&schema);
        let mut db = TemplateDb::empty(schema.clone());
        let r1 = schema.rel_id("r1").unwrap();
        seed_tuple(&mut db, r1);
        let cfg = ChaseConfig {
            tuple_cap: 0,
            ..ChaseConfig::plain()
        };
        assert_eq!(
            ind_step(&mut db, &cinds[0], &cfg, &mut rng()),
            Err(OpFailure::TupleCapExceeded)
        );
    }

    #[test]
    fn fd_step_substitutes_variable_with_constant() {
        // Example 5.1: FD(φ2) = (R2: H → G, (_ || c)) turns vG1 into c.
        let schema = example_5_1_schema(false);
        let mut db = TemplateDb::empty(schema.clone());
        let r2 = schema.rel_id("r2").unwrap();
        seed_tuple(&mut db, r2);
        let phi2 =
            NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap();
        assert!(fd_step(&mut db, &phi2).unwrap());
        assert_eq!(db.relation(r2)[0].get(AttrId(0)), &constant("c"));
        // Fixpoint afterwards.
        assert!(!fd_step(&mut db, &phi2).unwrap());
    }

    #[test]
    fn fd_step_conflicting_constants_is_undefined() {
        let schema = example_5_1_schema(false);
        let mut db = TemplateDb::empty(schema.clone());
        let r2 = schema.rel_id("r2").unwrap();
        db.insert(r2, TplTuple(vec![constant("wrong"), constant("k")]));
        let phi =
            NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap();
        assert!(matches!(
            fd_step(&mut db, &phi),
            Err(OpFailure::FdConflict { .. })
        ));
    }

    #[test]
    fn fd_step_merges_pairs_on_wildcard_rhs() {
        let schema = example_5_1_schema(false);
        let mut db = TemplateDb::empty(schema.clone());
        let r2 = schema.rel_id("r2").unwrap();
        let v0 = VarRef {
            rel: r2,
            attr: AttrId(0),
            idx: 0,
        };
        let v1 = VarRef {
            rel: r2,
            attr: AttrId(0),
            idx: 1,
        };
        db.insert(r2, TplTuple(vec![TplValue::Var(v0), constant("k")]));
        db.insert(r2, TplTuple(vec![TplValue::Var(v1), constant("k")]));
        // (R2: H → G, (_ || _)): same H forces same G.
        let fd = NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::Any).unwrap();
        assert!(fd_step(&mut db, &fd).unwrap());
        // The two tuples collapsed into one.
        assert_eq!(db.relation(r2).len(), 1);
        // Pair conflict with two constants is undefined (iterate to the
        // failing application: earlier variable merges may come first).
        db.insert(r2, TplTuple(vec![constant("a"), constant("k")]));
        db.insert(r2, TplTuple(vec![constant("b"), constant("k")]));
        let outcome = loop {
            match fd_step(&mut db, &fd) {
                Ok(true) => continue,
                other => break other,
            }
        };
        assert!(matches!(outcome, Err(OpFailure::FdConflict { .. })));
    }

    #[test]
    fn instantiated_chase_draws_finite_constants() {
        // With dom(H) = {0, 1} and chaseI, the fresh H field of the
        // forced R2 tuple is a constant from the domain, not a variable.
        let schema = example_5_1_schema(true);
        let cinds = example_5_1_cinds(&schema);
        let mut db = TemplateDb::empty(schema.clone());
        let r1 = schema.rel_id("r1").unwrap();
        let r2 = schema.rel_id("r2").unwrap();
        seed_tuple(&mut db, r1);
        let cfg = ChaseConfig::default(); // instantiate_finite = true
        ind_step(&mut db, &cinds[0], &cfg, &mut rng()).unwrap();
        let h_cell = db.relation(r2)[0].get(AttrId(1));
        match h_cell {
            TplValue::Const(v) => {
                assert!(v == &Value::str("0") || v == &Value::str("1"));
            }
            TplValue::Var(_) => panic!("chaseI must instantiate finite fields"),
        }
    }

    #[test]
    fn triggered_only_by_exact_constants() {
        // ψ2 triggers on H = 0; a variable H does not trigger (v ≭ a).
        let schema = example_5_1_schema(false);
        let cinds = example_5_1_cinds(&schema);
        let mut db = TemplateDb::empty(schema.clone());
        let r2 = schema.rel_id("r2").unwrap();
        seed_tuple(&mut db, r2);
        let cfg = ChaseConfig::plain();
        assert!(!ind_step(&mut db, &cinds[1], &cfg, &mut rng()).unwrap());
        // Substitute H := 0 — now it triggers.
        let vh = VarRef {
            rel: r2,
            attr: AttrId(1),
            idx: 0,
        };
        db.substitute(vh, &constant("0"));
        assert!(ind_step(&mut db, &cinds[1], &cfg, &mut rng()).unwrap());
        let r1 = schema.rel_id("r1").unwrap();
        assert_eq!(db.relation(r1).len(), 1);
        assert_eq!(db.relation(r1)[0].get(AttrId(1)), &constant("a"));
    }

    #[test]
    fn seed_tuple_uses_pool_index_zero() {
        let schema = example_5_1_schema(false);
        let mut db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut db, RelId(0));
        let t = &db.relation(RelId(0))[0];
        for (i, cell) in t.cells().iter().enumerate() {
            assert_eq!(
                cell,
                &TplValue::Var(VarRef {
                    rel: RelId(0),
                    attr: AttrId(i as u32),
                    idx: 0
                })
            );
        }
    }
}
