//! Dirty-data generation for the data-cleaning workloads.
//!
//! The paper motivates CINDs/CFDs with dirty bank data (Figure 1's
//! `t12`); this module scales that scenario: it builds a database that
//! satisfies a constraint set (by replicating perturbed copies of a
//! hidden witness) and then injects a controlled fraction of violations,
//! recording the ground truth so detectors can be scored.

use crate::constraints::HiddenWitness;
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{AttrId, Database, Domain, RelId, Schema, Tuple, TupleId, Value};
use rand::Rng;
use std::sync::Arc;

/// Parameters of the dirty-database generator.
#[derive(Clone, Copy, Debug)]
pub struct DirtyDataConfig {
    /// Clean tuples per relation (clones of the witness with fresh
    /// values on unconstrained attributes).
    pub tuples_per_relation: usize,
    /// Number of violations to inject per relation that is a CIND
    /// source (a triggered tuple whose join value is scrambled).
    pub violations_per_relation: usize,
}

impl Default for DirtyDataConfig {
    fn default() -> Self {
        DirtyDataConfig {
            tuples_per_relation: 100,
            violations_per_relation: 5,
        }
    }
}

/// The generated instance plus ground truth.
#[derive(Clone, Debug)]
pub struct DirtyDatabase {
    /// The instance (clean base + injected noise).
    pub db: Database,
    /// `(relation, tuple)` pairs injected as violations.
    pub injected: Vec<(RelId, Tuple)>,
}

/// Attributes of `rel` constrained by any CFD/CIND pattern or matched
/// list — these keep their witness values in clean clones.
fn constrained_attrs(
    rel: RelId,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
) -> Vec<condep_model::AttrId> {
    let mut out = std::collections::BTreeSet::new();
    for c in cfds.iter().filter(|c| c.rel() == rel) {
        out.extend(c.lhs().iter().copied());
        out.insert(c.rhs());
    }
    for c in cinds {
        if c.lhs_rel() == rel {
            out.extend(c.x().iter().copied());
            out.extend(c.xp().iter().map(|(a, _)| *a));
        }
        if c.rhs_rel() == rel {
            out.extend(c.y().iter().copied());
            out.extend(c.yp().iter().map(|(a, _)| *a));
        }
    }
    out.into_iter().collect()
}

/// Builds a database satisfying `(cfds, cinds)` by cloning the hidden
/// witness with fresh values on unconstrained attributes, then injects
/// violations by scrambling the `Yp`-ish fields of CIND source tuples.
pub fn dirty_database<R: Rng>(
    schema: &Arc<Schema>,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
    witness: &HiddenWitness,
    cfg: &DirtyDataConfig,
    rng: &mut R,
) -> DirtyDatabase {
    let mut db = Database::empty(schema.clone());
    // Clean base: perturbed witness clones. Unconstrained attributes get
    // unique values so clones do not collide; constrained ones keep the
    // witness value, preserving satisfaction of every constraint.
    let mut serial = 0u64;
    for (rel, rs) in schema.iter() {
        let constrained = constrained_attrs(rel, cfds, cinds);
        let base = witness.tuple(rel);
        for _ in 0..cfg.tuples_per_relation {
            let values: Vec<Value> = rs
                .iter()
                .map(|(a, attr)| {
                    if constrained.contains(&a) {
                        base[a].clone()
                    } else if let Some(vs) = attr.domain().values() {
                        vs[rng.gen_range(0..vs.len())].clone()
                    } else {
                        serial += 1;
                        Value::str(format!("row{serial}"))
                    }
                })
                .collect();
            db.insert(rel, Tuple::new(values)).expect("well-typed");
        }
    }
    debug_assert!(condep_cfd::satisfy::satisfies_all(&db, cfds));
    debug_assert!(condep_core::satisfy::satisfies_all(&db, cinds));

    // Noise: for CINDs with a trigger-able source, insert tuples that
    // trigger but scramble a matched column (so the target lookup
    // fails). Only infinite matched columns are scrambled, guaranteeing
    // the scrambled value misses every target.
    let mut injected = Vec::new();
    for cind in cinds {
        if cind.x().is_empty() {
            continue;
        }
        let rel = cind.lhs_rel();
        let base = witness.tuple(rel);
        for k in 0..cfg.violations_per_relation {
            let scramble_attr = cind.x()[k % cind.x().len()];
            serial += 1;
            let t = base.with(scramble_attr, Value::str(format!("dirty{serial}")));
            if cind.triggers(&t) && db.insert(rel, t.clone()).unwrap_or(false) {
                injected.push((rel, t));
            }
        }
    }
    DirtyDatabase { db, injected }
}

/// Parameters of the planted-Σ generator
/// ([`clean_database_with_hidden_sigma`]).
#[derive(Clone, Copy, Debug)]
pub struct PlantedSigmaConfig {
    /// `(key, dep)` column pairs in the `fact` relation; each pair
    /// plants the variable FD `k{p} → d{p}`.
    pub fd_pairs: usize,
    /// Distinct values per pair — each value is one equivalence class,
    /// so expected per-class support is `tuples / pair_cardinality`.
    pub pair_cardinality: usize,
    /// Constant tableau rows `(k{p}=k{p}_h ‖ d{p}=d{p}_h)` planted per
    /// pair (`h < constant_rows_per_pair ≤ pair_cardinality`).
    pub constant_rows_per_pair: usize,
    /// Reference relations `dim{p}` with the planted inclusion
    /// `fact[k{p}] ⊆ dim{p}[v]` (`≤ fd_pairs`).
    pub cind_count: usize,
    /// `fact` rows to generate (each row gets a unique serial id, so the
    /// set instance really holds this many tuples) — the scale knob the
    /// 100K/1M/10M sampled-discovery workloads turn.
    pub tuples: usize,
    /// The **last** `drift_pairs` column pairs *drift*: from row
    /// `tuples · drift_onset` on, their `d{p}` cell is drawn
    /// independently of `k{p}`, so the pair's planted dependencies are
    /// exact on the pre-onset prefix and decay over the suffix — the
    /// confidence-decay ground truth. `0` (the default) plants no
    /// drift.
    pub drift_pairs: usize,
    /// Fraction of the instance generated before drift sets in
    /// (ignored when `drift_pairs == 0`).
    pub drift_onset: f64,
}

impl Default for PlantedSigmaConfig {
    fn default() -> Self {
        PlantedSigmaConfig {
            fd_pairs: 4,
            pair_cardinality: 8,
            constant_rows_per_pair: 4,
            cind_count: 2,
            tuples: 10_000,
            drift_pairs: 0,
            drift_onset: 0.5,
        }
    }
}

/// A clean database together with the hidden Σ it was built to satisfy
/// — the discovery ground truth.
#[derive(Clone, Debug)]
pub struct PlantedDatabase {
    /// The clean instance (satisfies every planted dependency).
    pub db: Database,
    /// The planted CFDs of the **stable** pairs: one variable FD per
    /// pair plus the constant tableau rows. These hold on the whole
    /// instance.
    pub cfds: Vec<NormalCfd>,
    /// The planted CINDs: one exact inclusion per `dim` relation (drift
    /// never touches the `k{p}` columns, so these hold on the whole
    /// instance too).
    pub cinds: Vec<NormalCind>,
    /// The planted CFDs of the **drifting** pairs: exact on the rows
    /// before [`PlantedDatabase::drift_onset_row`], broken after —
    /// stream the suffix into an online miner and watch their
    /// confidence decay. Empty without drift.
    pub drifted_cfds: Vec<NormalCfd>,
    /// First row index the drift applies to (`tuples` when no drift —
    /// i.e. the clean prefix is the whole instance). Rows keep their
    /// generation order as dense positions, so slicing the `fact`
    /// relation at this row splits clean prefix from drifted suffix.
    pub drift_onset_row: usize,
}

/// Builds a clean database around a **hidden planted Σ** with enough
/// value diversity for discovery to be non-trivial — unlike
/// [`dirty_database`]'s witness clones (whose constrained columns are
/// constant, so every FD holds vacuously), each planted FD here holds
/// through `pair_cardinality` distinct equivalence classes.
///
/// Shape: one `fact(id, k0, d0, k1, d1, …)` relation whose column pairs
/// are value-locked (`k{p} = k{p}_h ⇒ d{p} = d{p}_h` for a per-row
/// random `h`), plus `cind_count` single-column `dim{p}(v)` relations
/// holding every `k{p}` value. The planted ground truth comes back in
/// [`PlantedDatabase::cfds`] / [`PlantedDatabase::cinds`]; a discovery
/// run on [`PlantedDatabase::db`] should recover a Σ′ **implying** every
/// member of it (asserted via the exact implication checkers in the
/// discovery property suite and `condep-discover`'s recovery test).
///
/// With `drift_pairs > 0` the last pairs **drift**: past
/// `tuples · drift_onset` their dependent cell decouples from the key,
/// so their planted dependencies (returned separately in
/// [`PlantedDatabase::drifted_cfds`]) are exact on the prefix and decay
/// over the suffix — ground truth for confidence-decay and
/// online-retirement tests. [`PlantedDatabase::cfds`] /
/// [`PlantedDatabase::cinds`] always hold on the whole instance.
///
/// Deterministic for a fixed `(cfg, seed)`. The first
/// `pair_cardinality` rows cycle every class deterministically, so each
/// planted constant row is guaranteed to have support.
pub fn clean_database_with_hidden_sigma<R: Rng>(
    cfg: &PlantedSigmaConfig,
    rng: &mut R,
) -> PlantedDatabase {
    assert!(cfg.fd_pairs >= 1, "at least one column pair");
    assert!(cfg.pair_cardinality >= 2, "classes must be non-degenerate");
    assert!(
        cfg.constant_rows_per_pair <= cfg.pair_cardinality,
        "cannot plant more constant rows than classes"
    );
    assert!(cfg.cind_count <= cfg.fd_pairs, "one dim per pair at most");
    assert!(
        cfg.drift_pairs <= cfg.fd_pairs,
        "can only drift planted pairs"
    );
    if cfg.drift_pairs > 0 {
        assert!(
            (0.0..=1.0).contains(&cfg.drift_onset),
            "drift_onset is a fraction of the instance"
        );
    }
    let first_drifting_pair = cfg.fd_pairs - cfg.drift_pairs;
    let drift_onset_row = if cfg.drift_pairs > 0 {
        // Never drift inside the deterministic class-seeding prefix:
        // every class (and so every planted constant row) must witness
        // its lock at least once.
        ((cfg.tuples as f64 * cfg.drift_onset) as usize).max(cfg.pair_cardinality)
    } else {
        cfg.tuples
    };

    let mut builder = Schema::builder();
    let mut fact_cols: Vec<(String, condep_model::Domain)> =
        vec![("id".to_string(), condep_model::Domain::string())];
    for p in 0..cfg.fd_pairs {
        fact_cols.push((format!("k{p}"), condep_model::Domain::string()));
        fact_cols.push((format!("d{p}"), condep_model::Domain::string()));
    }
    let cols_ref: Vec<(&str, condep_model::Domain)> = fact_cols
        .iter()
        .map(|(n, d)| (n.as_str(), d.clone()))
        .collect();
    builder = builder.relation("fact", &cols_ref);
    for p in 0..cfg.cind_count {
        builder = builder.relation(&format!("dim{p}"), &[("v", condep_model::Domain::string())]);
    }
    let schema = Arc::new(builder.finish());
    let fact = schema.rel_id("fact").expect("just declared");
    let fact_rs = schema.relation(fact).expect("in range");

    let mut db = Database::empty(schema.clone());
    for i in 0..cfg.tuples {
        let mut values = Vec::with_capacity(1 + 2 * cfg.fd_pairs);
        values.push(Value::str(format!("t{i}")));
        for p in 0..cfg.fd_pairs {
            // Guarantee every class appears before randomness takes
            // over, so planted constant rows always have support.
            let h = if i < cfg.pair_cardinality {
                i
            } else {
                rng.gen_range(0..cfg.pair_cardinality)
            };
            values.push(Value::str(format!("k{p}_{h}")));
            // A drifting pair breaks its value lock past the onset: the
            // dependent cell is drawn independently of the key.
            let g = if p >= first_drifting_pair && i >= drift_onset_row {
                rng.gen_range(0..cfg.pair_cardinality)
            } else {
                h
            };
            values.push(Value::str(format!("d{p}_{g}")));
        }
        db.insert(fact, Tuple::new(values)).expect("well-typed");
    }
    for p in 0..cfg.cind_count {
        let dim = schema.rel_id(&format!("dim{p}")).expect("just declared");
        for h in 0..cfg.pair_cardinality {
            db.insert(dim, Tuple::new(vec![Value::str(format!("k{p}_{h}"))]))
                .expect("well-typed");
        }
    }

    let mut cfds = Vec::new();
    let mut drifted_cfds = Vec::new();
    for p in 0..cfg.fd_pairs {
        let k = fact_rs.attr_id(&format!("k{p}")).expect("declared");
        let d = fact_rs.attr_id(&format!("d{p}")).expect("declared");
        let out = if p >= first_drifting_pair {
            &mut drifted_cfds
        } else {
            &mut cfds
        };
        out.push(NormalCfd::new(
            fact,
            vec![k],
            condep_model::PatternRow::all_any(1),
            d,
            condep_model::PValue::Any,
        ));
        for h in 0..cfg.constant_rows_per_pair {
            out.push(NormalCfd::new(
                fact,
                vec![k],
                condep_model::PatternRow::new(vec![condep_model::PValue::constant(format!(
                    "k{p}_{h}"
                ))]),
                d,
                condep_model::PValue::constant(format!("d{p}_{h}")),
            ));
        }
    }
    let mut cinds = Vec::new();
    for p in 0..cfg.cind_count {
        let dim = schema.rel_id(&format!("dim{p}")).expect("declared");
        let dim_v = schema
            .relation(dim)
            .expect("in range")
            .attr_id("v")
            .expect("declared");
        let k = fact_rs.attr_id(&format!("k{p}")).expect("declared");
        cinds.push(NormalCind::new(
            fact,
            dim,
            vec![k],
            vec![dim_v],
            Vec::new(),
            Vec::new(),
        ));
    }
    debug_assert!(condep_cfd::satisfy::satisfies_all(&db, &cfds));
    debug_assert!(condep_core::satisfy::satisfies_all(&db, &cinds));
    PlantedDatabase {
        db,
        cfds,
        cinds,
        drifted_cfds,
        drift_onset_row,
    }
}

/// One error [`dirtied_database`] injected, with the **dirty** tuple
/// value (the ground truth a repair run should undo) and its
/// **position-stable id**.
///
/// The `id` follows the dense-seeding convention: it equals the dirty
/// tuple's dense position in the **final** returned database, which is
/// exactly the [`TupleId`] any `ValidatorStream` seeded on that database
/// allocates for it. Resolve it through the stream
/// (`tuple_by_id`/`position_of`) and it keeps addressing this injection
/// through every swap-renumbering a repair run causes — the stale dense
/// positions recorded by earlier revisions of this ground truth did not.
#[derive(Clone, Debug)]
pub enum InjectedDirt {
    /// A CFD RHS cell scrambled in place (typo injection): the edited
    /// tuple now carries `attr = <scrambled>` where the pattern (or its
    /// key group) demands otherwise.
    Typo {
        /// The relation edited in.
        rel: RelId,
        /// The tuple **after** the edit.
        tuple: Tuple,
        /// The scrambled attribute (the CFD's RHS).
        attr: AttrId,
        /// The dirty tuple's stable id (dense-seeding convention).
        id: TupleId,
    },
    /// A CIND source tuple's matched `X` cell scrambled to a value no
    /// target holds — the tuple is now an orphan.
    Orphan {
        /// The source relation.
        rel: RelId,
        /// The tuple **after** the edit.
        tuple: Tuple,
        /// The scrambled attribute (one of the CIND's `X`).
        attr: AttrId,
        /// The dirty tuple's stable id (dense-seeding convention).
        id: TupleId,
    },
    /// A near-duplicate inserted next to a resident tuple: same LHS key
    /// under some wildcard-RHS CFD, different RHS value — a guaranteed
    /// pair conflict.
    DuplicateKey {
        /// The relation inserted into.
        rel: RelId,
        /// The inserted conflicting tuple.
        tuple: Tuple,
        /// The disagreeing attribute (the CFD's RHS).
        attr: AttrId,
        /// The dirty tuple's stable id (dense-seeding convention).
        id: TupleId,
    },
}

impl InjectedDirt {
    /// The relation the dirt landed in.
    pub fn rel(&self) -> RelId {
        match self {
            InjectedDirt::Typo { rel, .. }
            | InjectedDirt::Orphan { rel, .. }
            | InjectedDirt::DuplicateKey { rel, .. } => *rel,
        }
    }

    /// The dirty tuple (its value in the final returned database).
    pub fn tuple(&self) -> &Tuple {
        match self {
            InjectedDirt::Typo { tuple, .. }
            | InjectedDirt::Orphan { tuple, .. }
            | InjectedDirt::DuplicateKey { tuple, .. } => tuple,
        }
    }

    /// The scrambled / disagreeing attribute.
    pub fn attr(&self) -> AttrId {
        match self {
            InjectedDirt::Typo { attr, .. }
            | InjectedDirt::Orphan { attr, .. }
            | InjectedDirt::DuplicateKey { attr, .. } => *attr,
        }
    }

    /// The dirty tuple's position-stable id (see the type docs for the
    /// dense-seeding convention).
    pub fn id(&self) -> TupleId {
        match self {
            InjectedDirt::Typo { id, .. }
            | InjectedDirt::Orphan { id, .. }
            | InjectedDirt::DuplicateKey { id, .. } => *id,
        }
    }

    fn parts_mut(&mut self) -> (&mut Tuple, &mut TupleId) {
        match self {
            InjectedDirt::Typo { tuple, id, .. }
            | InjectedDirt::Orphan { tuple, id, .. }
            | InjectedDirt::DuplicateKey { tuple, id, .. } => (tuple, id),
        }
    }
}

/// A clean database plus a controlled fraction of injected errors.
#[derive(Clone, Debug)]
pub struct DirtiedDatabase {
    /// The dirtied instance.
    pub db: Database,
    /// Ground truth: every injected error, in injection order.
    pub injected: Vec<InjectedDirt>,
}

/// A value of `dom` that differs from `current` (and, for infinite
/// domains, from everything the clean data plausibly holds): infinite
/// strings get a serial `dirt{n}` marker, infinite ints a far-offset
/// serial, finite domains their first member ≠ `current` (`None` for
/// singleton domains).
fn scramble(dom: &Domain, current: &Value, serial: u64) -> Option<Value> {
    match dom.values() {
        Some(vs) => vs.iter().find(|v| *v != current).cloned(),
        None => Some(match dom.base_type() {
            condep_model::BaseType::Str => Value::str(format!("dirt{serial}")),
            condep_model::BaseType::Int => Value::int(0x4000_0000_0000 + serial as i64),
            condep_model::BaseType::Bool => Value::bool(current != &Value::bool(true)),
        }),
    }
}

/// Picks a resident tuple of `rel` satisfying `pred`, scanning from a
/// random offset (bounded by one wrap-around).
fn pick_tuple<R: Rng, F: Fn(&Tuple) -> bool>(
    db: &Database,
    rel: RelId,
    rng: &mut R,
    pred: F,
) -> Option<Tuple> {
    let inst = db.relation(rel);
    if inst.is_empty() {
        return None;
    }
    let start = rng.gen_range(0..inst.len());
    (0..inst.len())
        .map(|k| inst.get((start + k) % inst.len()).expect("in range"))
        .find(|t| pred(t))
        .cloned()
}

/// Injects a controlled error fraction into a **clean** database: cycles
/// through **typo injection** (a constant-RHS CFD's RHS cell scrambled —
/// a guaranteed single-tuple violation), **orphaned CIND sources** (a
/// matched `X` cell scrambled to a key no target holds) and
/// **duplicate-key conflicts** (a near-duplicate inserted that agrees
/// with a resident tuple on a wildcard-RHS CFD's LHS but disagrees on
/// the RHS — a guaranteed pair violation), until
/// `⌈total_tuples × error_rate⌉` errors are placed (or no constraint
/// offers a viable injection site).
///
/// Deterministic for a fixed `(clean, cfds, cinds, error_rate, seed)`;
/// the ground truth comes back in [`DirtiedDatabase::injected`]. Fresh
/// scramble values use a `dirt{n}` marker namespace, so they never
/// collide with clean data that avoids that prefix.
pub fn dirtied_database<R: Rng>(
    clean: &Database,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
    error_rate: f64,
    rng: &mut R,
) -> DirtiedDatabase {
    let mut db = clean.clone();
    let mut injected = Vec::new();
    let target = ((clean.total_tuples() as f64) * error_rate).ceil() as usize;
    let schema = clean.schema().clone();
    let domain_of = |rel: RelId, attr: AttrId| -> &Domain {
        schema
            .relation(rel)
            .expect("relation in range")
            .attribute(attr)
            .expect("attribute in range")
            .domain()
    };
    let const_rhs: Vec<&NormalCfd> = cfds.iter().filter(|c| c.is_constant_rhs()).collect();
    let wild_rhs: Vec<&NormalCfd> = cfds.iter().filter(|c| !c.is_constant_rhs()).collect();
    let sources: Vec<&NormalCind> = cinds.iter().filter(|c| !c.x().is_empty()).collect();
    // Ids are assigned once generation finishes (they are final dense
    // positions — the dense-seeding convention); until then a placeholder.
    let pending = TupleId(u32::MAX);
    // A later injection may re-edit an already-dirty tuple; the earlier
    // record is rewritten to the new value so every record's `tuple` is
    // its value in the final database (set semantics make `(rel, value)`
    // identify the tuple, so this cannot mis-target).
    let retarget = |injected: &mut Vec<InjectedDirt>, rel: RelId, old: &Tuple, new: &Tuple| {
        for d in injected.iter_mut() {
            if d.rel() == rel && d.tuple() == old {
                *d.parts_mut().0 = new.clone();
            }
        }
    };
    let mut serial = 0u64;
    let mut misses = 0usize;
    while injected.len() < target && misses < 3 * target + 8 {
        serial += 1;
        // Cycle the error kinds; misses rotate too, so a Σ without (say)
        // constant-RHS CFDs still exercises the other injectors.
        let kind = (injected.len() + misses) % 3;
        let placed = match kind {
            // Typo: scramble the RHS of a tuple matching a constant-RHS
            // pattern, away from both the pattern constant and the
            // current value.
            0 if !const_rhs.is_empty() => {
                let cfd = const_rhs[rng.gen_range(0..const_rhs.len())];
                let expected = cfd.rhs_pat().as_const().expect("constant RHS").clone();
                pick_tuple(&db, cfd.rel(), rng, |t| {
                    cfd.lhs_pat().matches_tuple(t, cfd.lhs()) && t[cfd.rhs()] == expected
                })
                .and_then(|t| {
                    let bad = scramble(domain_of(cfd.rel(), cfd.rhs()), &t[cfd.rhs()], serial)?;
                    if bad == expected
                        || db
                            .relation(cfd.rel())
                            .contains(&t.with(cfd.rhs(), bad.clone()))
                    {
                        // A scramble that would merge into a resident
                        // tuple (set semantics) is a miss *before* any
                        // mutation — the database must only change when
                        // ground truth is recorded.
                        return None;
                    }
                    let (dirty, merged) = db
                        .edit_cell(cfd.rel(), &t, cfd.rhs(), bad)
                        .expect("scramble respects the domain")
                        .expect("picked tuple is resident");
                    debug_assert!(!merged, "merge was pre-checked");
                    retarget(&mut injected, cfd.rel(), &t, &dirty);
                    Some(InjectedDirt::Typo {
                        rel: cfd.rel(),
                        tuple: dirty,
                        attr: cfd.rhs(),
                        id: pending,
                    })
                })
            }
            // Orphan: scramble one matched X cell of a triggered source
            // tuple to a fresh value no target can hold.
            1 if !sources.is_empty() => {
                let cind = sources[rng.gen_range(0..sources.len())];
                let attr = cind.x()[rng.gen_range(0..cind.x().len())];
                let dom = domain_of(cind.lhs_rel(), attr);
                if dom.is_finite() {
                    // A finite scramble may still hit a resident target
                    // key; only infinite domains guarantee an orphan.
                    None
                } else {
                    pick_tuple(&db, cind.lhs_rel(), rng, |t| cind.triggers(t)).map(|t| {
                        let bad = scramble(dom, &t[attr], serial).expect("infinite domain");
                        let (dirty, merged) = db
                            .edit_cell(cind.lhs_rel(), &t, attr, bad)
                            .expect("scramble respects the domain")
                            .expect("picked tuple is resident");
                        debug_assert!(!merged, "fresh dirt values cannot merge");
                        retarget(&mut injected, cind.lhs_rel(), &t, &dirty);
                        InjectedDirt::Orphan {
                            rel: cind.lhs_rel(),
                            tuple: dirty,
                            attr,
                            id: pending,
                        }
                    })
                }
            }
            // Duplicate key: insert a near-copy disagreeing on a
            // wildcard RHS — the copy shares its victim's whole LHS key.
            2 if !wild_rhs.is_empty() => {
                let cfd = wild_rhs[rng.gen_range(0..wild_rhs.len())];
                pick_tuple(&db, cfd.rel(), rng, |t| {
                    cfd.lhs_pat().matches_tuple(t, cfd.lhs())
                })
                .and_then(|t| {
                    let bad = scramble(domain_of(cfd.rel(), cfd.rhs()), &t[cfd.rhs()], serial)?;
                    let dirty = t.with(cfd.rhs(), bad);
                    db.insert(cfd.rel(), dirty.clone())
                        .expect("well-typed near-duplicate")
                        .then_some(InjectedDirt::DuplicateKey {
                            rel: cfd.rel(),
                            tuple: dirty,
                            attr: cfd.rhs(),
                            id: pending,
                        })
                })
            }
            _ => None,
        };
        match placed {
            Some(dirt) => injected.push(dirt),
            None => misses += 1,
        }
    }
    // Dense-seeding ids: final position == the TupleId any stream
    // seeded on this database allocates for the tuple.
    for d in injected.iter_mut() {
        let rel = d.rel();
        let (tuple, id) = d.parts_mut();
        let pos = db
            .relation(rel)
            .position(tuple)
            .expect("every ground-truth tuple is resident in the final database");
        *id = TupleId(pos as u32);
    }
    DirtiedDatabase { db, injected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{generate_sigma, SigmaGenConfig};
    use crate::schema::{random_schema, SchemaGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Arc<Schema>, Vec<NormalCfd>, Vec<NormalCind>, HiddenWitness) {
        let schema = random_schema(
            &SchemaGenConfig {
                relations: 6,
                attrs_min: 3,
                attrs_max: 6,
                finite_ratio: 0.2,
                finite_dom_min: 2,
                finite_dom_max: 8,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let (cfds, cinds, witness) = generate_sigma(
            &schema,
            &SigmaGenConfig {
                cardinality: 40,
                consistent: true,
                ..SigmaGenConfig::default()
            },
            &mut StdRng::seed_from_u64(seed + 1),
        );
        (schema, cfds, cinds, witness.unwrap())
    }

    #[test]
    fn clean_base_satisfies_sigma() {
        let (schema, cfds, cinds, witness) = setup(1);
        let out = dirty_database(
            &schema,
            &cfds,
            &cinds,
            &witness,
            &DirtyDataConfig {
                tuples_per_relation: 30,
                violations_per_relation: 0,
            },
            &mut StdRng::seed_from_u64(2),
        );
        assert!(out.injected.is_empty());
        assert!(condep_cfd::satisfy::satisfies_all(&out.db, &cfds));
        assert!(condep_core::satisfy::satisfies_all(&out.db, &cinds));
        // Every relation is populated (clones of fully-constrained
        // relations may collapse under set semantics, so only lower-bound
        // by one per relation).
        for (_, inst) in out.db.iter() {
            assert!(!inst.is_empty());
        }
        assert!(out.db.total_tuples() <= 30 * schema.len());
    }

    #[test]
    fn injected_tuples_are_detected_as_violations() {
        let (schema, cfds, cinds, witness) = setup(3);
        let out = dirty_database(
            &schema,
            &cfds,
            &cinds,
            &witness,
            &DirtyDataConfig {
                tuples_per_relation: 20,
                violations_per_relation: 3,
            },
            &mut StdRng::seed_from_u64(4),
        );
        if out.injected.is_empty() {
            // No CIND with a non-empty X in this draw — nothing to check.
            return;
        }
        // Every injected tuple shows up in some CIND's violation list.
        let mut caught = 0;
        for (rel, t) in &out.injected {
            let found = cinds.iter().any(|c| {
                c.lhs_rel() == *rel
                    && condep_core::find_violations(&out.db, c)
                        .iter()
                        .any(|v| out.db.relation(*rel).get(v.tuple) == Some(t))
            });
            if found {
                caught += 1;
            }
        }
        assert_eq!(
            caught,
            out.injected.len(),
            "all injected dirt is detectable"
        );
    }

    fn bank_sigma() -> (Vec<NormalCfd>, Vec<NormalCind>) {
        (
            condep_cfd::normalize::normalize_all(&[
                condep_cfd::fixtures::phi1(),
                condep_cfd::fixtures::phi2(),
                condep_cfd::fixtures::phi3(),
            ]),
            condep_core::normalize::normalize_all(&condep_core::fixtures::figure_2()),
        )
    }

    #[test]
    fn dirtied_database_injects_detectable_errors() {
        let clean = condep_model::fixtures::clean_bank_database();
        let (cfds, cinds) = bank_sigma();
        // The clean fixture satisfies Σ.
        assert!(condep_cfd::satisfy::satisfies_all(&clean, &cfds));
        assert!(condep_core::satisfy::satisfies_all(&clean, &cinds));
        let out = dirtied_database(&clean, &cfds, &cinds, 0.3, &mut StdRng::seed_from_u64(11));
        assert!(!out.injected.is_empty(), "30% of 14 tuples must inject");
        let mut violations = 0;
        for c in &cfds {
            violations += condep_cfd::find_violations(&out.db, c).len();
        }
        for c in &cinds {
            violations += condep_core::find_violations(&out.db, c).len();
        }
        assert!(
            violations >= out.injected.len(),
            "each injection must surface at least one violation \
             ({} injected, {violations} found)",
            out.injected.len(),
        );
        // All three error kinds have injectors wired for this Σ.
        let kinds: std::collections::HashSet<u8> = out
            .injected
            .iter()
            .map(|d| match d {
                InjectedDirt::Typo { .. } => 0u8,
                InjectedDirt::Orphan { .. } => 1,
                InjectedDirt::DuplicateKey { .. } => 2,
            })
            .collect();
        assert!(kinds.len() >= 2, "error kinds must vary: {kinds:?}");
    }

    #[test]
    fn dirtied_database_ids_survive_swap_renumbering() {
        use condep_validate::{Validator, ValidatorStream};
        let clean = condep_model::fixtures::clean_bank_database();
        let (cfds, cinds) = bank_sigma();
        let out = dirtied_database(&clean, &cfds, &cinds, 0.3, &mut StdRng::seed_from_u64(11));
        assert!(!out.injected.is_empty());
        // Ids follow the dense-seeding convention: in the freshly
        // returned database, id == dense position.
        for d in &out.injected {
            assert_eq!(
                out.db.relation(d.rel()).get(d.id().0 as usize),
                Some(d.tuple()),
                "seed id must be the dense position: {d:?}"
            );
        }
        // A stream seeded on the dirty database allocates exactly those
        // ids — and they keep resolving after swap-renumbering deletes
        // of *other* tuples (the old dense positions would go stale).
        let validator = Validator::new(cfds, cinds);
        let (mut stream, _) = ValidatorStream::new_validated(validator, out.db.clone());
        let dirty_keys: std::collections::HashSet<(RelId, Tuple)> = out
            .injected
            .iter()
            .map(|d| (d.rel(), d.tuple().clone()))
            .collect();
        let mut deleted = 0;
        for (rel, inst) in out.db.iter() {
            for t in inst.iter() {
                if deleted < 4 && !dirty_keys.contains(&(rel, t.clone())) {
                    stream.delete_tuple(rel, t).expect("resident");
                    deleted += 1;
                }
            }
        }
        assert!(deleted > 0, "the fixture must offer clean tuples");
        let mut stale_positions = 0;
        for d in &out.injected {
            assert_eq!(
                stream.tuple_by_id(d.rel(), d.id()),
                Some(d.tuple()),
                "ground-truth id must survive the churn: {d:?}"
            );
            if stream.db().relation(d.rel()).get(d.id().0 as usize) != Some(d.tuple()) {
                stale_positions += 1;
            }
        }
        assert!(
            stale_positions > 0,
            "the deletes must have moved at least one ground-truth tuple \
             (otherwise this test proves nothing)"
        );
    }

    #[test]
    fn dirtied_database_is_deterministic() {
        let clean = condep_model::fixtures::clean_bank_database();
        let (cfds, cinds) = bank_sigma();
        let a = dirtied_database(&clean, &cfds, &cinds, 0.25, &mut StdRng::seed_from_u64(7));
        let b = dirtied_database(&clean, &cfds, &cinds, 0.25, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
        assert_eq!(a.injected.len(), b.injected.len());
        for (rel, inst) in a.db.iter() {
            assert_eq!(inst, b.db.relation(rel));
        }
    }

    #[test]
    fn planted_database_satisfies_its_hidden_sigma() {
        let cfg = PlantedSigmaConfig {
            tuples: 300,
            ..PlantedSigmaConfig::default()
        };
        let planted = clean_database_with_hidden_sigma(&cfg, &mut StdRng::seed_from_u64(21));
        assert_eq!(
            planted.cfds.len(),
            cfg.fd_pairs * (1 + cfg.constant_rows_per_pair)
        );
        assert_eq!(planted.cinds.len(), cfg.cind_count);
        assert!(condep_cfd::satisfy::satisfies_all(
            &planted.db,
            &planted.cfds
        ));
        assert!(condep_core::satisfy::satisfies_all(
            &planted.db,
            &planted.cinds
        ));
        // The unique id column keeps the set instance at full size...
        let fact = planted.db.schema().rel_id("fact").unwrap();
        assert_eq!(planted.db.relation(fact).len(), cfg.tuples);
        // ...and every planted constant row has resident support.
        for cfd in planted.cfds.iter().filter(|c| c.is_constant_rhs()) {
            let hits = planted
                .db
                .relation(fact)
                .iter()
                .filter(|t| cfd.lhs_pat().matches_tuple(t, cfd.lhs()))
                .count();
            assert!(hits >= 2, "planted pattern must have support: {hits}");
        }
    }

    #[test]
    fn drifting_pairs_hold_on_the_prefix_and_break_after_onset() {
        let cfg = PlantedSigmaConfig {
            tuples: 400,
            fd_pairs: 3,
            drift_pairs: 1,
            drift_onset: 0.5,
            ..PlantedSigmaConfig::default()
        };
        let planted = clean_database_with_hidden_sigma(&cfg, &mut StdRng::seed_from_u64(77));
        assert_eq!(planted.drift_onset_row, 200);
        assert_eq!(
            planted.cfds.len(),
            (cfg.fd_pairs - 1) * (1 + cfg.constant_rows_per_pair),
            "the drifting pair leaves the stable ground truth"
        );
        assert_eq!(planted.drifted_cfds.len(), 1 + cfg.constant_rows_per_pair);
        // Stable Σ (and the CINDs: drift never touches key columns)
        // hold on the whole instance...
        assert!(condep_cfd::satisfy::satisfies_all(
            &planted.db,
            &planted.cfds
        ));
        assert!(condep_core::satisfy::satisfies_all(
            &planted.db,
            &planted.cinds
        ));
        // ...the drifting pair's do not...
        assert!(!condep_cfd::satisfy::satisfies_all(
            &planted.db,
            &planted.drifted_cfds
        ));
        // ...but they are exact on the pre-onset prefix (rows keep
        // generation order as dense positions).
        let fact = planted.db.schema().rel_id("fact").unwrap();
        let mut prefix = Database::empty(planted.db.schema().clone());
        for t in planted
            .db
            .relation(fact)
            .iter()
            .take(planted.drift_onset_row)
        {
            prefix.insert(fact, t.clone()).unwrap();
        }
        assert!(condep_cfd::satisfy::satisfies_all(
            &prefix,
            &planted.drifted_cfds
        ));
        // Determinism holds with drift in play.
        let again = clean_database_with_hidden_sigma(&cfg, &mut StdRng::seed_from_u64(77));
        assert_eq!(again.drifted_cfds, planted.drifted_cfds);
        assert_eq!(again.db.relation(fact), planted.db.relation(fact));
    }

    #[test]
    fn planted_database_is_deterministic() {
        let cfg = PlantedSigmaConfig {
            tuples: 200,
            ..PlantedSigmaConfig::default()
        };
        let a = clean_database_with_hidden_sigma(&cfg, &mut StdRng::seed_from_u64(9));
        let b = clean_database_with_hidden_sigma(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.cfds, b.cfds);
        assert_eq!(a.cinds, b.cinds);
        for (rel, inst) in a.db.iter() {
            assert_eq!(inst, b.db.relation(rel));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (schema, cfds, cinds, witness) = setup(5);
        let cfg = DirtyDataConfig::default();
        let a = dirty_database(
            &schema,
            &cfds,
            &cinds,
            &witness,
            &cfg,
            &mut StdRng::seed_from_u64(6),
        );
        let b = dirty_database(
            &schema,
            &cfds,
            &cinds,
            &witness,
            &cfg,
            &mut StdRng::seed_from_u64(6),
        );
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
        assert_eq!(a.injected.len(), b.injected.len());
    }
}
