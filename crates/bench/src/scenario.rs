//! The scenario matrix: workload sweeps as *data*, driven by one
//! generic runner.
//!
//! A [`Scenario`] names a data shape, a dirt model, a Σ source, a churn
//! schedule and the passes to run; [`run_scenario`] drives every
//! scenario through the same generate → discover/compile → validate →
//! repair → stream-churn → health pipeline and captures one
//! [`ScenarioResult`]: the workload's identity, wall time and
//! throughput per pass, and every other figure once, in one
//! [`MetricsSnapshot`]. The scoreboard ([`crate::scoreboard`])
//! serializes the results and diffs runs.
//!
//! Every scenario is deterministic for its seed in everything but wall
//! time: the counters of two runs on the same tree are byte-identical,
//! which is what lets CI diff a fresh run against the committed
//! baseline with exact counter thresholds.

use condep::report::QualitySuite;
use condep_discover::online::OnlineConfig;
use condep_discover::DiscoveryConfig;
use condep_gen::{
    adversarial_majority_dirt, churn_plan, clean_database_with_hidden_sigma, dirtied_database,
    dirty_database, generate_sigma, random_schema, AdversarialDirtConfig, ChurnConfig, ChurnOp,
    DirtyDataConfig, PlantedSigmaConfig, PoisonedClass, SchemaGenConfig, SigmaGenConfig,
};
use condep_model::{prow, Database, PValue, RelId, Tuple, Value};
use condep_repair::{AppliedFix, Fix, RepairBudget, RepairCost};
use condep_telemetry::{MetricValue, MetricsSnapshot, Registry};
use condep_validate::Mutation;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// What instance a scenario runs against.
#[derive(Clone, Debug)]
pub enum DataShape {
    /// One wide `fact` relation with planted FD pairs + `dim`
    /// inclusions ([`clean_database_with_hidden_sigma`]).
    Planted(PlantedSigmaConfig),
    /// [`DataShape::Planted`] with Σ keyed on the `fact` relation's
    /// unique `id` column as well: the variable CFD `id → k0` and the
    /// CIND `fact[id] ⊆ fact[id]`, which every instance satisfies. A
    /// churn insert brings a never-seen `id`, so it opens a key group in
    /// a CFD index, a CIND target index and a CIND source index, and
    /// the delete of a churned tuple empties all three.
    PlantedIdKeyed(PlantedSigmaConfig),
    /// Many small relations with a random consistent Σ
    /// ([`random_schema`] + [`generate_sigma`] + [`dirty_database`]).
    ManyRelations {
        /// Relations in the schema.
        relations: usize,
        /// Clean tuples per relation.
        tuples_per_relation: usize,
        /// `card(Σ)` of the generated constraint set.
        sigma_cardinality: usize,
    },
}

/// How the instance gets dirtied before Σ compilation.
#[derive(Clone, Copy, Debug)]
pub enum Dirt {
    /// Leave the instance clean.
    None,
    /// Independent errors at this rate
    /// ([`dirtied_database`]; planted shapes only).
    Uniform(f64),
    /// Coordinated majority-flipping noise
    /// ([`adversarial_majority_dirt`]; planted shapes only).
    Adversarial {
        /// `(pair, class)` slots to poison.
        classes: usize,
        /// Conflicting copies per slot.
        copies: usize,
    },
}

/// The mutation schedule streamed through the monitor.
#[derive(Clone, Copy, Debug)]
pub enum ChurnSpec {
    /// No streaming pass.
    None,
    /// A generated insert/delete plan against the planted `fact`
    /// relation ([`churn_plan`]), ingested in windows of `window`
    /// mutations (`window == 1` streams them one at a time).
    Plan(ChurnConfig),
    /// Delete-then-reinsert resident rows round-robin across relations
    /// — steady-state churn that works on any shape.
    Recycle {
        /// Total mutations (half deletes, half reinserts).
        ops: usize,
        /// Mutations per `apply_deltas` window.
        window: usize,
    },
    /// Stream the planted instance's *drifted suffix* into a monitor
    /// seeded on the clean prefix (requires
    /// [`PlantedSigmaConfig::drift_pairs`] > 0).
    DriftSuffix {
        /// Suffix rows per window.
        window: usize,
    },
    /// Replace resident `fact` tuples, oldest first, by copies carrying
    /// a never-seen `id`, one update each (planted shapes only): the
    /// live size stays put while every insert brings a new `id`.
    FreshIds {
        /// Updates to stream.
        ops: usize,
        /// Updates per `apply_deltas` window.
        window: usize,
    },
}

/// One cell of the scenario matrix.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable scenario name — the scoreboard's entry key.
    pub name: &'static str,
    /// Master seed: data, dirt and churn all derive from it.
    pub seed: u64,
    /// The instance to build.
    pub data: DataShape,
    /// The dirt model.
    pub dirt: Dirt,
    /// When set, mine Σ from the dirty instance
    /// ([`QualitySuite::discover`]) with this config instead of
    /// compiling the planted ground truth. Mining dirty data below
    /// `min_confidence: 1.0` recovers the *approximate* planted
    /// dependencies — the violations the relaxed Σ′ still flags are
    /// what the repair pass consumes.
    pub discover: Option<DiscoveryConfig>,
    /// Run the cost-based repair pass before streaming.
    pub repair: bool,
    /// The streaming pass.
    pub churn: ChurnSpec,
    /// Enable the monitor's online-discovery loop during churn.
    pub online: Option<OnlineConfig>,
    /// When non-zero, retire + re-add pair 0's planted dependencies
    /// every this many churn windows — live Σ churn.
    pub sigma_churn_every: usize,
    /// When set, the scenario is a **static-analysis sweep**: run the
    /// Σ analyzer over this many seeds of `condep-gen`'s expectation-
    /// carrying families instead of the data pipeline. Every counter
    /// it produces is deterministic and gates exactly.
    pub sigma_lint: Option<usize>,
}

/// Elapsed wall time per pass, microseconds (informational — the diff
/// gate treats them as latency-class, not exact).
#[derive(Clone, Copy, Debug, Default)]
pub struct ElapsedUs {
    /// Instance generation + dirt injection.
    pub generate: u64,
    /// Σ acquisition (discovery or planted-Σ compilation).
    pub sigma: u64,
    /// The batched validation pass.
    pub validate: u64,
    /// The repair pass (0 when skipped).
    pub repair: u64,
    /// The streaming churn pass (0 when skipped).
    pub churn: u64,
}

/// Everything one scenario run measured.
///
/// The workload's identity (`rows` … `passes`), wall time per pass and
/// the two throughputs are fields; every other figure lives once, in
/// `metrics`:
/// - the monitor's `health().metrics` after the churn pass (`stream.*`
///   and `monitor.*`);
/// - the repair run's `repair.*` keys (`RepairReport::metrics`), when
///   the pass ran;
/// - the `sigma_lint` sweep's `analyze.*` counters;
/// - the scenario's own figures under `scenario.*`: the violations the
///   batch check found before cleaning (`scenario.violations.initial`),
///   the Σ-churn calls (`scenario.sigma_churn.{retires,readds}`) and,
///   when repair ran, the poisoned-class scores
///   (`scenario.poisoned.{classes,restored,flipped,untouched}`).
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario's name.
    pub name: &'static str,
    /// The seed it ran with.
    pub seed: u64,
    /// Instance rows after generation + dirt (for the `sigma_lint`
    /// sweep: constraints analyzed).
    pub rows: u64,
    /// Relations in the schema (for the `sigma_lint` sweep: families
    /// analyzed).
    pub relations: u64,
    /// Mutations streamed by the churn pass.
    pub churn_ops: u64,
    /// The passes that ran, in order.
    pub passes: Vec<&'static str>,
    /// Wall time per pass.
    pub elapsed: ElapsedUs,
    /// Batched-validation throughput, tuples/s.
    pub validate_tuples_per_s: f64,
    /// Churn throughput, mutations/s (0.0 when churn is skipped).
    pub churn_ops_per_s: f64,
    /// Every other figure of the run (see the type docs).
    pub metrics: MetricsSnapshot,
}

impl ScenarioResult {
    /// The counter or gauge `name` of [`ScenarioResult::metrics`];
    /// `None` when the run exported no such count.
    pub fn count(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            MetricValue::Gauge(v) => u64::try_from(*v).ok(),
            MetricValue::Float(_) | MetricValue::Histogram(_) => None,
        }
    }
}

/// The default scenario matrix — twelve workloads covering value drift,
/// bursty vs singleton churn, hot-key skew, adversarial dirt, shape
/// extremes, live Σ churn, a Σ analysis sweep, long hot-key churn,
/// churn of never-seen keys and a wide Σ.
/// Sized so the whole sweep runs in seconds: the committed baseline
/// **is** the matrix CI runs.
pub fn matrix() -> Vec<Scenario> {
    let planted = |tuples: usize| PlantedSigmaConfig {
        fd_pairs: 3,
        pair_cardinality: 16,
        constant_rows_per_pair: 3,
        cind_count: 2,
        tuples,
        drift_pairs: 0,
        drift_onset: 0.5,
    };
    vec![
        Scenario {
            name: "value_drift",
            seed: 0xD217,
            data: DataShape::Planted(PlantedSigmaConfig {
                drift_pairs: 1,
                drift_onset: 0.5,
                ..planted(4_000)
            }),
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::DriftSuffix { window: 64 },
            online: Some(OnlineConfig {
                min_support: 16,
                min_confidence: 0.98,
                retire_confidence: 0.9,
                window: 256,
            }),
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        Scenario {
            name: "bursty_churn",
            seed: 0xB0457,
            data: DataShape::Planted(planted(3_000)),
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::Plan(ChurnConfig {
                ops: 2_048,
                window: 16,
                burst: 256,
                skew: 0.0,
                dirt_rate: 0.05,
            }),
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        Scenario {
            name: "singleton_churn",
            seed: 0x516E,
            data: DataShape::Planted(planted(3_000)),
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::Plan(ChurnConfig {
                ops: 1_024,
                window: 1,
                burst: 0,
                skew: 0.0,
                dirt_rate: 0.05,
            }),
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        Scenario {
            name: "hot_key_skew",
            seed: 0x4053,
            data: DataShape::Planted(PlantedSigmaConfig {
                pair_cardinality: 64,
                constant_rows_per_pair: 4,
                ..planted(3_000)
            }),
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::Plan(ChurnConfig {
                ops: 2_048,
                window: 32,
                burst: 0,
                skew: 2.0,
                dirt_rate: 0.02,
            }),
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        Scenario {
            name: "adversarial_dirt",
            seed: 0xADD1,
            data: DataShape::Planted(PlantedSigmaConfig {
                fd_pairs: 2,
                pair_cardinality: 16,
                constant_rows_per_pair: 2,
                cind_count: 0,
                tuples: 2_000,
                drift_pairs: 0,
                drift_onset: 0.5,
            }),
            dirt: Dirt::Adversarial {
                classes: 4,
                copies: 160,
            },
            discover: None,
            repair: true,
            churn: ChurnSpec::None,
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        Scenario {
            name: "many_small_relations",
            seed: 0x3A11,
            data: DataShape::ManyRelations {
                relations: 12,
                tuples_per_relation: 160,
                sigma_cardinality: 48,
            },
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::Recycle {
                ops: 1_024,
                window: 32,
            },
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        Scenario {
            name: "one_huge_relation",
            seed: 0x46E0,
            data: DataShape::Planted(PlantedSigmaConfig {
                pair_cardinality: 32,
                ..planted(12_000)
            }),
            dirt: Dirt::Uniform(0.01),
            // Mine below exact confidence: the approximate planted FDs
            // survive the 1% dirt and still flag it for repair.
            discover: Some(DiscoveryConfig {
                min_confidence: 0.95,
                ..DiscoveryConfig::default()
            }),
            repair: true,
            churn: ChurnSpec::Recycle {
                ops: 512,
                window: 64,
            },
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        Scenario {
            name: "sigma_churn",
            seed: 0x51C7,
            data: DataShape::Planted(planted(3_000)),
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::Plan(ChurnConfig {
                ops: 1_536,
                window: 32,
                burst: 0,
                skew: 0.0,
                dirt_rate: 0.05,
            }),
            online: None,
            sigma_churn_every: 8,
            sigma_lint: None,
        },
        Scenario {
            name: "sigma_lint",
            seed: 0x51F0,
            // The data-pipeline fields are inert for an analysis sweep.
            data: DataShape::ManyRelations {
                relations: 0,
                tuples_per_relation: 0,
                sigma_cardinality: 0,
            },
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::None,
            online: None,
            sigma_churn_every: 0,
            sigma_lint: Some(24),
        },
        // 2^18 operations against a 20K-row instance: index storage
        // must stay bounded by the live data however long churn runs.
        // The FIFO deletes remove tuples churn itself inserted, and
        // every insert brings a never-seen id.
        Scenario {
            name: "long_churn",
            seed: 0x10C4,
            data: DataShape::Planted(planted(20_000)),
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::Plan(ChurnConfig {
                ops: 1 << 18,
                window: 128,
                burst: 0,
                skew: 2.0,
                dirt_rate: 0.02,
            }),
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        // 2^16 updates against a 20K-row instance whose Σ keys on `id`:
        // every update retires one `id` and brings a never-seen one into
        // three index tiers and the stream's dictionary, while the live
        // size stays put. Key groups and strings must follow the live
        // tuples, and a late window must cost what an early one did.
        Scenario {
            name: "fresh_key_churn",
            seed: 0xF4E5,
            data: DataShape::PlantedIdKeyed(planted(20_000)),
            dirt: Dirt::None,
            discover: None,
            repair: false,
            churn: ChurnSpec::FreshIds {
                ops: 1 << 16,
                window: 128,
            },
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
        // The widest Σ the matrix compiles: 10 pairs of one variable FD
        // plus 19 constant rows give 200 CFDs in 10 `(fact, {k_p})` key
        // groups of 20, plus `fact[k0] ⊆ dim0[v]` and `fact[k1] ⊆
        // dim1[v]`. Dirtied 1%, repaired, then churned.
        Scenario {
            name: "wide_sigma",
            seed: 0x51DE,
            data: DataShape::Planted(PlantedSigmaConfig {
                fd_pairs: 10,
                pair_cardinality: 32,
                constant_rows_per_pair: 19,
                cind_count: 2,
                tuples: 10_000,
                drift_pairs: 0,
                drift_onset: 0.5,
            }),
            dirt: Dirt::Uniform(0.01),
            discover: None,
            repair: true,
            churn: ChurnSpec::Plan(ChurnConfig {
                ops: 2_048,
                window: 128,
                burst: 0,
                skew: 0.0,
                dirt_rate: 0.01,
            }),
            online: None,
            sigma_churn_every: 0,
            sigma_lint: None,
        },
    ]
}

/// Looks a matrix scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    matrix().into_iter().find(|s| s.name == name)
}

struct BuiltInstance {
    db: Database,
    suite_src: SuiteSource,
    poisoned: Vec<PoisonedClass>,
    planted_cfg: Option<PlantedSigmaConfig>,
    drift_suffix: Vec<Tuple>,
    drift_rel: Option<RelId>,
}

enum SuiteSource {
    Normal {
        cfds: Vec<condep_cfd::NormalCfd>,
        cinds: Vec<condep_core::NormalCind>,
    },
}

fn build_instance(s: &Scenario, rng: &mut StdRng) -> BuiltInstance {
    match &s.data {
        DataShape::Planted(cfg) | DataShape::PlantedIdKeyed(cfg) => {
            let planted = clean_database_with_hidden_sigma(cfg, rng);
            let mut cfds = planted.cfds.clone();
            // Drifted pairs ship their planted dependencies too: they
            // hold on the prefix and decay over the streamed suffix —
            // that accumulation is the drift scenario's signal.
            cfds.extend(planted.drifted_cfds.iter().cloned());
            let mut cinds = planted.cinds.clone();
            if let DataShape::PlantedIdKeyed(_) = s.data {
                let schema = planted.db.schema();
                cfds.push(
                    condep_cfd::NormalCfd::parse(
                        schema,
                        "fact",
                        &["id"],
                        prow![_],
                        "k0",
                        PValue::Any,
                    )
                    .expect("planted shape"),
                );
                cinds.push(
                    condep_core::NormalCind::parse(
                        schema,
                        "fact",
                        &["id"],
                        &[],
                        "fact",
                        &["id"],
                        &[],
                    )
                    .expect("planted shape"),
                );
            }

            let (db, drift_suffix, drift_rel) = if matches!(s.churn, ChurnSpec::DriftSuffix { .. })
            {
                // Seed the monitor on the clean prefix; the drifted
                // suffix arrives through the stream.
                let fact = planted.db.schema().rel_id("fact").expect("planted shape");
                let onset = planted.drift_onset_row;
                let mut prefix = Database::empty(planted.db.schema().clone());
                let mut suffix = Vec::new();
                for (i, t) in planted.db.relation(fact).iter().enumerate() {
                    if i < onset {
                        prefix.insert(fact, t.clone()).expect("well-typed");
                    } else {
                        suffix.push(t.clone());
                    }
                }
                for (rel, relation) in planted.db.iter() {
                    if rel != fact {
                        for t in relation.iter() {
                            prefix.insert(rel, t.clone()).expect("well-typed");
                        }
                    }
                }
                (prefix, suffix, Some(fact))
            } else {
                (planted.db.clone(), Vec::new(), None)
            };

            let (db, poisoned) = match s.dirt {
                Dirt::None => (db, Vec::new()),
                Dirt::Uniform(rate) => {
                    let dirty = dirtied_database(&db, &planted.cfds, &planted.cinds, rate, rng);
                    (dirty.db, Vec::new())
                }
                Dirt::Adversarial { classes, copies } => {
                    let adv = adversarial_majority_dirt(
                        &planted,
                        cfg,
                        &AdversarialDirtConfig { classes, copies },
                        rng,
                    );
                    (adv.db, adv.poisoned)
                }
            };
            BuiltInstance {
                db,
                suite_src: SuiteSource::Normal { cfds, cinds },
                poisoned,
                planted_cfg: Some(*cfg),
                drift_suffix,
                drift_rel,
            }
        }
        DataShape::ManyRelations {
            relations,
            tuples_per_relation,
            sigma_cardinality,
        } => {
            let schema = random_schema(
                // Wide enough that most relations keep an unconstrained
                // infinite attribute: witness clones then stay distinct
                // under set semantics instead of collapsing.
                &SchemaGenConfig {
                    relations: *relations,
                    attrs_min: 5,
                    attrs_max: 8,
                    finite_ratio: 0.1,
                    finite_dom_min: 8,
                    finite_dom_max: 40,
                },
                rng,
            );
            let (cfds, cinds, witness) = generate_sigma(
                &schema,
                &SigmaGenConfig {
                    cardinality: *sigma_cardinality,
                    consistent: true,
                    ..SigmaGenConfig::default()
                },
                rng,
            );
            let witness = witness.expect("consistent generation carries a witness");
            let dirty = dirty_database(
                &schema,
                &cfds,
                &cinds,
                &witness,
                &DirtyDataConfig {
                    tuples_per_relation: *tuples_per_relation,
                    violations_per_relation: 3,
                },
                rng,
            );
            BuiltInstance {
                db: dirty.db,
                suite_src: SuiteSource::Normal { cfds, cinds },
                poisoned: Vec::new(),
                planted_cfg: None,
                drift_suffix: Vec::new(),
                drift_rel: None,
            }
        }
    }
}

/// Scores each poisoned class against the kept fixes and the repaired
/// database, into `scenario.poisoned.*`: *untouched* when no kept fix
/// acted on a `fact` tuple carrying the class key (before or after an
/// edit), else *restored* when the clean value strictly outnumbers the
/// dirty one after repair, else *flipped*. The three sum to
/// `scenario.poisoned.classes`.
fn score_poisoned(
    db: &Database,
    applied: &[AppliedFix],
    poisoned: &[PoisonedClass],
    out: &mut MetricsSnapshot,
) {
    let (mut restored, mut flipped, mut untouched) = (0u64, 0u64, 0u64);
    for slot in poisoned {
        let fact = db.schema().rel_id("fact").expect("planted shape");
        let attrs = db.schema().relation(fact).expect("in range");
        let k = attrs.attr_id(&format!("k{}", slot.pair)).expect("planted");
        let d = attrs.attr_id(&format!("d{}", slot.pair)).expect("planted");
        let touched = applied.iter().any(|a| match &a.fix {
            Fix::EditCells { rel, old, new, .. } => {
                *rel == fact && (old[k] == slot.key || new[k] == slot.key)
            }
            Fix::DeleteTuple { rel, tuple } | Fix::InsertTuple { rel, tuple } => {
                *rel == fact && tuple[k] == slot.key
            }
        });
        let (mut dirty, mut clean) = (0usize, 0usize);
        for t in db.relation(fact).iter().filter(|t| t[k] == slot.key) {
            dirty += (t[d] == slot.dirty_value) as usize;
            clean += (t[d] == slot.clean_value) as usize;
        }
        match (touched, clean > dirty) {
            (false, _) => untouched += 1,
            (true, true) => restored += 1,
            (true, false) => flipped += 1,
        }
    }
    out.counter("scenario.poisoned.classes", poisoned.len() as u64);
    out.counter("scenario.poisoned.restored", restored);
    out.counter("scenario.poisoned.flipped", flipped);
    out.counter("scenario.poisoned.untouched", untouched);
}

/// Items per second over `us` microseconds (0.0 for an untimed pass).
fn per_s(items: u64, us: u64) -> f64 {
    if us == 0 {
        0.0
    } else {
        items as f64 / (us as f64 / 1e6)
    }
}

/// Builds the churn mutation windows for a scenario (empty when it has
/// no streaming pass).
fn churn_windows(
    s: &Scenario,
    built: &BuiltInstance,
    db: &Database,
    rng: &mut StdRng,
) -> Vec<Vec<Mutation>> {
    match s.churn {
        ChurnSpec::None => Vec::new(),
        ChurnSpec::Plan(cfg) => {
            let planted_cfg = built.planted_cfg.expect("Plan churn needs a planted shape");
            // The plan generator only needs the planted shape/Σ, which
            // `built` preserves; rebuild a planted view for it.
            let plan = churn_plan(
                &condep_gen::PlantedDatabase {
                    db: db.clone(),
                    cfds: Vec::new(),
                    cinds: Vec::new(),
                    drifted_cfds: Vec::new(),
                    drift_onset_row: planted_cfg.tuples,
                },
                &planted_cfg,
                &cfg,
                rng,
            );
            let rel = plan.rel;
            plan.windows
                .into_iter()
                .map(|w| {
                    w.into_iter()
                        .map(|op| match op {
                            ChurnOp::Insert(t) => Mutation::Insert { rel, tuple: t },
                            ChurnOp::Delete(t) => Mutation::Delete { rel, tuple: t },
                        })
                        .collect()
                })
                .collect()
        }
        ChurnSpec::Recycle { ops, window } => {
            // Delete + reinsert resident rows, round-robin across
            // relations — every mutation is effective and the instance
            // ends where it began.
            let mut victims: Vec<(RelId, Tuple)> = Vec::new();
            let rels: Vec<RelId> = db.iter().map(|(rel, _)| rel).collect();
            let mut cursor = vec![0usize; rels.len()];
            'fill: loop {
                for (i, rel) in rels.iter().enumerate() {
                    if victims.len() * 2 >= ops {
                        break 'fill;
                    }
                    let relation = db.relation(*rel);
                    if cursor[i] < relation.len() {
                        victims.push((*rel, relation.tuples()[cursor[i]].clone()));
                        cursor[i] += 1;
                    }
                }
                if cursor
                    .iter()
                    .enumerate()
                    .all(|(i, c)| *c >= db.relation(rels[i]).len())
                {
                    break;
                }
            }
            let muts: Vec<Mutation> = victims
                .into_iter()
                .flat_map(|(rel, t)| {
                    [
                        Mutation::Delete {
                            rel,
                            tuple: t.clone(),
                        },
                        Mutation::Insert { rel, tuple: t },
                    ]
                })
                .collect();
            muts.chunks(window.max(1)).map(|c| c.to_vec()).collect()
        }
        ChurnSpec::FreshIds { ops, window } => {
            let fact = db
                .schema()
                .rel_id("fact")
                .expect("FreshIds churn needs a planted shape");
            let id = db
                .schema()
                .relation(fact)
                .expect("in range")
                .attr_id("id")
                .expect("planted shape");
            let mut queue: VecDeque<Tuple> = db.relation(fact).iter().cloned().collect();
            let muts: Vec<Mutation> = (0..ops)
                .map(|serial| {
                    let old = queue.pop_front().expect("a non-empty fact relation");
                    let mut values = old.values().to_vec();
                    values[id.index()] = Value::str(format!("f{serial}"));
                    let new = Tuple::new(values);
                    queue.push_back(new.clone());
                    Mutation::Update {
                        rel: fact,
                        old,
                        new,
                    }
                })
                .collect();
            muts.chunks(window.max(1)).map(|c| c.to_vec()).collect()
        }
        ChurnSpec::DriftSuffix { window } => {
            let rel = built.drift_rel.expect("DriftSuffix needs a planted drift");
            built
                .drift_suffix
                .chunks(window.max(1))
                .map(|c| {
                    c.iter()
                        .map(|t| Mutation::Insert {
                            rel,
                            tuple: t.clone(),
                        })
                        .collect()
                })
                .collect()
        }
    }
}

/// Runs a static-analysis sweep: `seeds` instances of every Σ family,
/// each analyzed and held to its generator-declared expectation.
fn run_sigma_lint(s: &Scenario, seeds: usize) -> ScenarioResult {
    use condep_analyze::{analyze, AnalyzeConfig, SigmaVerdict};
    use condep_gen::{sigma_families, ExpectedVerdict};

    let config = AnalyzeConfig::default();
    // Every analyzed family bumps these; misses must stay 0 and the
    // witnesses that re-validate through `Validator` must equal the
    // `Sat` verdicts.
    let counters = Registry::new();
    let families = counters.counter("analyze.families");
    let sat = counters.counter("analyze.verdict.sat");
    let unsat = counters.counter("analyze.verdict.unsat");
    let unknown = counters.counter("analyze.verdict.unknown");
    let core_cfds = counters.counter("analyze.core.cfds");
    let lints = counters.counter("analyze.lints");
    let witness_ok = counters.counter("analyze.witness.ok");
    let misses = counters.counter("analyze.expectation.misses");
    let mut constraints = 0u64;
    let t0 = Instant::now();
    for i in 0..seeds as u64 {
        for family in sigma_families(s.seed ^ i) {
            families.incr();
            constraints += (family.cfds.len() + family.cinds.len()) as u64;
            let analysis = analyze(&family.schema, &family.cfds, &family.cinds, &config);
            lints.add(analysis.lints.len() as u64);
            let mut hit = analysis.lints.len() == family.expect.lints;
            match &analysis.verdict {
                SigmaVerdict::Sat(w) => {
                    sat.incr();
                    hit &= family.expect.verdict == ExpectedVerdict::Sat;
                    let v =
                        condep_validate::Validator::new(family.cfds.clone(), family.cinds.clone());
                    if v.validate(&w.db).is_empty() {
                        witness_ok.incr();
                    } else {
                        hit = false;
                    }
                }
                SigmaVerdict::Unsat(core) => {
                    unsat.incr();
                    core_cfds.add(core.cfds.len() as u64);
                    hit &= family.expect.verdict == ExpectedVerdict::Unsat
                        && core.cfds.len() == family.expect.core_size;
                }
                SigmaVerdict::Unknown(_) => {
                    unknown.incr();
                    hit &= family.expect.verdict == ExpectedVerdict::Unknown;
                }
            }
            if !hit {
                misses.incr();
            }
        }
    }
    let sigma_us = t0.elapsed().as_micros() as u64;

    ScenarioResult {
        name: s.name,
        seed: s.seed,
        rows: constraints,
        relations: families.get(),
        churn_ops: 0,
        passes: vec!["sigma_lint"],
        elapsed: ElapsedUs {
            sigma: sigma_us,
            ..ElapsedUs::default()
        },
        validate_tuples_per_s: 0.0,
        churn_ops_per_s: 0.0,
        metrics: counters.snapshot(),
    }
}

/// Runs one scenario end to end and captures its result.
pub fn run_scenario(s: &Scenario) -> ScenarioResult {
    if let Some(seeds) = s.sigma_lint {
        return run_sigma_lint(s, seeds);
    }
    let mut rng = StdRng::seed_from_u64(s.seed);
    let mut passes: Vec<&'static str> = vec!["generate"];

    let t0 = Instant::now();
    let built = build_instance(s, &mut rng);
    let generate_us = t0.elapsed().as_micros() as u64;
    let db = built.db.clone();
    let rows = db.total_tuples() as u64;
    let relations = db.schema().iter().count() as u64;

    // Σ: mined from the dirty instance, or the planted/generated truth.
    let t0 = Instant::now();
    let suite = if let Some(config) = &s.discover {
        passes.push("discover");
        let (suite, _) = QualitySuite::discover(&db, config);
        suite
    } else {
        let SuiteSource::Normal { cfds, cinds } = &built.suite_src;
        QualitySuite::from_normal(db.schema().clone(), cfds.clone(), cinds.clone())
    };
    let sigma_us = t0.elapsed().as_micros() as u64;

    passes.push("validate");
    let t0 = Instant::now();
    let initial = suite.check(&db);
    let validate_us = t0.elapsed().as_micros() as u64;
    let mut metrics = MetricsSnapshot::new();
    metrics.counter(
        "scenario.violations.initial",
        initial.summary.total() as u64,
    );

    let (db, repair_us) = if s.repair {
        passes.push("repair");
        let t0 = Instant::now();
        let (repaired, mut report) = suite
            .repair(db, &RepairCost::default(), &RepairBudget::default())
            .expect("scenario sigmas are satisfiable by construction");
        let repair_us = t0.elapsed().as_micros() as u64;
        score_poisoned(
            &repaired,
            &report.log.applied,
            &built.poisoned,
            &mut metrics,
        );
        // The repair stream's own `stream.*` telemetry stays out: the
        // monitor's `stream.*` below is the churn pass's.
        report.metrics.retain(|name, _| name.starts_with("repair."));
        metrics.merge("", &report.metrics);
        (repaired, repair_us)
    } else {
        (db, 0)
    };

    // Streaming pass: a monitor over the (possibly repaired) instance.
    let windows = churn_windows(s, &built, &db, &mut rng);
    let churn_ops: u64 = windows.iter().map(|w| w.len() as u64).sum();
    let (mut monitor, _) = suite.monitor(db);
    if let Some(online) = s.online {
        monitor = monitor.with_online_discovery(online);
    }

    let (mut retires, mut readds) = (0u64, 0u64);
    // Live Σ churn rotates pair 0's planted dependencies: its variable
    // FD plus constant rows sit at the front of the CFD list, both for
    // planted suites and for the re-added clones.
    let mut rotating: Vec<usize> = if s.sigma_churn_every > 0 {
        let per_pair = 1 + built
            .planted_cfg
            .map(|c| c.constant_rows_per_pair)
            .unwrap_or(0);
        (0..per_pair.min(monitor.validator().cfds().len())).collect()
    } else {
        Vec::new()
    };
    let rotating_cfds: Vec<condep_cfd::NormalCfd> = rotating
        .iter()
        .map(|&i| monitor.validator().cfds()[i].clone())
        .collect();

    let churn_us = if windows.is_empty() {
        0
    } else {
        passes.push("churn");
        let t0 = Instant::now();
        for (w, window) in windows.iter().enumerate() {
            monitor.ingest_batch(window).expect("well-typed");
            if s.sigma_churn_every > 0 && (w + 1) % s.sigma_churn_every == 0 {
                monitor
                    .retire_dependencies(&rotating, &[])
                    .expect("the rotating CFDs are assigned");
                retires += 1;
                // Re-added dependencies append to the live Σ: their
                // indices are the tail of the CFD list after the splice.
                let before = monitor.validator().cfds().len();
                monitor.add_dependencies(rotating_cfds.clone(), Vec::new());
                readds += 1;
                rotating = (before..before + rotating_cfds.len()).collect();
            }
        }
        t0.elapsed().as_micros() as u64
    };
    metrics.counter("scenario.sigma_churn.retires", retires);
    metrics.counter("scenario.sigma_churn.readds", readds);
    metrics.merge("", &monitor.health().metrics);

    ScenarioResult {
        name: s.name,
        seed: s.seed,
        rows,
        relations,
        churn_ops,
        passes,
        elapsed: ElapsedUs {
            generate: generate_us,
            sigma: sigma_us,
            validate: validate_us,
            repair: repair_us,
            churn: churn_us,
        },
        validate_tuples_per_s: per_s(rows, validate_us),
        churn_ops_per_s: per_s(churn_ops, churn_us),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep::report::QualityMonitor;
    use std::time::Duration;

    /// The storage gauge `name` of a monitor's health snapshot.
    fn gauge(monitor: &QualityMonitor, name: &str) -> usize {
        match monitor.health().metrics.get(name) {
            Some(MetricValue::Gauge(v)) => usize::try_from(*v).expect("a size"),
            other => panic!("{name}: {other:?}"),
        }
    }

    /// The median of a run of window costs.
    fn median(costs: &[Duration]) -> Duration {
        let mut sorted = costs.to_vec();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// `fresh_key_churn` keys Σ on `id`, and every churn update brings a
    /// never-seen one. Window by window, the stream keeps exactly three
    /// key groups and one string per live `fact` tuple beyond what the
    /// seed's other columns need, and both stay within a constant
    /// factor of the live tuples. Wall time: the median window of the
    /// run's last quarter costs at most 1.25× the median window of its
    /// first quarter. The two quarters are timed alternately, each on a
    /// clone of the monitor taken where its quarter begins, so a host
    /// whose speed shifts during the run slows both quarters alike.
    #[test]
    fn fresh_key_churn_keeps_keys_and_strings_bounded_and_windows_flat() {
        let mut s = by_name("fresh_key_churn").expect("in matrix");
        // A quarter of the matrix run keeps the unoptimized test build
        // to seconds; 128 windows still give each quarter 32 samples.
        if let ChurnSpec::FreshIds { ops, .. } = &mut s.churn {
            *ops = 1 << 14;
        }
        let mut rng = StdRng::seed_from_u64(s.seed);
        let built = build_instance(&s, &mut rng);
        let SuiteSource::Normal { cfds, cinds } = &built.suite_src;
        let suite =
            QualitySuite::from_normal(built.db.schema().clone(), cfds.clone(), cinds.clone());
        let windows = churn_windows(&s, &built, &built.db, &mut rng);
        assert_eq!(windows.len(), 128);
        let fact = built.db.schema().rel_id("fact").expect("planted shape");
        let (mut monitor, _) = suite.monitor(built.db.clone());
        let surplus = |m: &QualityMonitor| {
            let live = m.db().relation(fact).len();
            (
                gauge(m, "stream.index.keys") - 3 * live,
                gauge(m, "stream.interner.strings") - live,
            )
        };
        let seeded = surplus(&monitor);
        let quarter = windows.len() / 4;
        let late_start = windows.len() - quarter;
        let (mut early, mut late) = (monitor.clone(), None);
        for (w, window) in windows.iter().enumerate() {
            if w == late_start {
                late = Some(monitor.clone());
            }
            monitor.ingest_batch(window).expect("well-typed");
            assert_eq!(surplus(&monitor), seeded, "window {w}");
            let live = monitor.db().total_tuples();
            assert!(
                gauge(&monitor, "stream.index.keys") <= 4 * live,
                "window {w}"
            );
            assert!(
                gauge(&monitor, "stream.interner.strings") <= 2 * live,
                "window {w}"
            );
        }
        let mut late = late.expect("a late quarter");
        let time = |m: &mut QualityMonitor, window: &[Mutation]| {
            let t0 = Instant::now();
            m.ingest_batch(window).expect("well-typed");
            t0.elapsed()
        };
        let (mut first, mut last) = (Vec::new(), Vec::new());
        for i in 0..quarter {
            first.push(time(&mut early, &windows[i]));
            last.push(time(&mut late, &windows[late_start + i]));
        }
        let (first, last) = (median(&first), median(&last));
        assert!(
            last.as_secs_f64() <= 1.25 * first.as_secs_f64(),
            "late windows cost {last:?}, early ones {first:?}"
        );
    }
}
