//! The scenario matrix: workload sweeps as *data*, driven by one
//! generic runner.
//!
//! A [`Scenario`] names a data shape, a dirt model, a Σ source, a churn
//! schedule and the passes to run; [`run_scenario`] drives every
//! scenario through the same generate → discover/compile → validate →
//! repair → stream-churn → health pipeline and captures one
//! [`ScenarioResult`] — throughput, latency percentiles from the
//! stream's telemetry histograms, residual violations, repair
//! accept/reject counts and the full metric set. The scoreboard
//! ([`crate::scoreboard`]) serializes the results and diffs runs.
//!
//! Every scenario is deterministic for its seed in everything but wall
//! time: the counters of two runs on the same tree are byte-identical,
//! which is what lets CI diff a fresh run against the committed
//! baseline with exact counter thresholds.

use condep::report::{HealthSnapshot, QualitySuite};
use condep_discover::online::OnlineConfig;
use condep_discover::DiscoveryConfig;
use condep_gen::{
    adversarial_majority_dirt, churn_plan, clean_database_with_hidden_sigma, dirtied_database,
    dirty_database, generate_sigma, random_schema, AdversarialDirtConfig, ChurnConfig, ChurnOp,
    DirtyDataConfig, PlantedSigmaConfig, PoisonedClass, SchemaGenConfig, SigmaGenConfig,
};
use condep_model::{Database, RelId, Tuple};
use condep_repair::{RepairBudget, RepairCost};
use condep_telemetry::MetricsSnapshot;
use condep_validate::Mutation;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// What instance a scenario runs against.
#[derive(Clone, Debug)]
pub enum DataShape {
    /// One wide `fact` relation with planted FD pairs + `dim`
    /// inclusions ([`clean_database_with_hidden_sigma`]).
    Planted(PlantedSigmaConfig),
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

/// Latency percentiles captured from the stream's telemetry
/// histograms.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Median, µs (bucket upper bound).
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Largest sample, µs (exact).
    pub max_us: u64,
    /// Samples recorded.
    pub count: u64,
}

/// Violation counts at the pipeline's checkpoints.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViolationCounts {
    /// After generation + dirt, before any cleaning.
    pub initial: u64,
    /// Residual after the repair pass (== `initial` when repair is
    /// skipped).
    pub residual: u64,
    /// Live count after the churn pass (== `residual` when churn is
    /// skipped).
    pub after_churn: u64,
}

/// What the repair pass did, scored against the dirt ground truth.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepairOutcome {
    /// Fixes kept (verified net-negative through the delta engine).
    pub accepted: u64,
    /// Candidate fixes applied and rolled back.
    pub rejected: u64,
    /// Planned fixes skipped as stale.
    pub stale: u64,
    /// Fixpoint rounds.
    pub rounds: u64,
    /// Cells edited across kept fixes.
    pub cells_edited: u64,
    /// Tuples deleted across kept fixes.
    pub tuples_deleted: u64,
    /// Tuples inserted across kept fixes.
    pub tuples_inserted: u64,
    /// Adversarial scenarios: poisoned classes where the dirty value
    /// won the majority election (the heuristic's failure count).
    pub majority_flips: u64,
    /// Adversarial scenarios: classes poisoned in total.
    pub poisoned_classes: u64,
}

/// Stream counters captured after the churn pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// `apply_deltas` windows ingested.
    pub windows: u64,
    /// Effective inserts.
    pub inserts: u64,
    /// Effective deletes.
    pub deletes: u64,
    /// No-op mutations.
    pub noops: u64,
    /// Journal events over the monitor's lifetime.
    pub journal_total: u64,
    /// Share of key-group lookups served probe-free (0.0 before any).
    pub probe_hit_rate: f64,
    /// Live positions across the stream's key-group indexes
    /// (`stream.index.live`).
    pub index_live: u64,
    /// Position entries those indexes store, live or spare or dead
    /// (`stream.index.stored`).
    pub index_stored: u64,
}

/// Online-discovery counters, when the loop ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    /// Proposal polls run.
    pub polls: u64,
    /// Dependencies proposed across all polls.
    pub proposed: u64,
    /// Dependencies promoted into the live suite.
    pub promoted: u64,
    /// Promoted dependencies later retired on decay.
    pub retired: u64,
    /// Distinct values the miner's dictionary holds at the end
    /// (`monitor.online.values`).
    pub values: u64,
    /// Classes across the miner's pair sketches at the end
    /// (`monitor.online.classes`).
    pub classes: u64,
}

/// Σ static-analysis sweep counters (the `sigma_lint` scenario).
#[derive(Clone, Copy, Debug, Default)]
pub struct SigmaLintStats {
    /// Families analyzed across all seeds.
    pub families: u64,
    /// `Sat` verdicts (each with a witness that re-validated).
    pub sat: u64,
    /// `Unsat` verdicts (each with a minimal core).
    pub unsat: u64,
    /// `Unknown` verdicts (budgeted-chase give-ups).
    pub unknown: u64,
    /// Total unsat-core CFDs across all `Unsat` verdicts.
    pub core_cfds: u64,
    /// Total Σ lints raised.
    pub lints: u64,
    /// Sat witnesses that re-validated through `Validator` (must equal
    /// `sat`).
    pub witness_ok: u64,
    /// Families whose analysis missed the generator's expectation
    /// (must stay 0).
    pub expectation_misses: u64,
}

/// Live-Σ churn counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SigmaChurnStats {
    /// Retire calls (each drops pair 0's dependencies).
    pub retires: u64,
    /// Re-add calls (each splices them back live).
    pub readds: u64,
}

/// Everything one scenario run measured.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario's name.
    pub name: &'static str,
    /// The seed it ran with.
    pub seed: u64,
    /// Instance rows after generation + dirt.
    pub rows: u64,
    /// Relations in the schema.
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
    /// Stream latency percentiles.
    pub latency: LatencySummary,
    /// Violation checkpoints.
    pub violations: ViolationCounts,
    /// Repair outcome, when the pass ran.
    pub repair: Option<RepairOutcome>,
    /// Stream counters.
    pub stream: StreamStats,
    /// Online-discovery counters, when the loop ran.
    pub online: Option<OnlineStats>,
    /// Live-Σ churn counters.
    pub sigma_churn: SigmaChurnStats,
    /// Static-analysis sweep counters (the `sigma_lint` scenario).
    pub sigma_lint: Option<SigmaLintStats>,
    /// The monitor's full end-of-run metric set (plus
    /// `monitor.violations.*` / `monitor.online.*`).
    pub metrics: MetricsSnapshot,
}

/// The default scenario matrix — eleven workloads covering value drift,
/// bursty vs singleton churn, hot-key skew, adversarial dirt, shape
/// extremes, live Σ churn, a Σ analysis sweep, long hot-key churn and
/// a wide Σ.
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
        DataShape::Planted(cfg) => {
            let planted = clean_database_with_hidden_sigma(cfg, rng);
            let mut cfds = planted.cfds.clone();
            // Drifted pairs ship their planted dependencies too: they
            // hold on the prefix and decay over the streamed suffix —
            // that accumulation is the drift scenario's signal.
            cfds.extend(planted.drifted_cfds.iter().cloned());
            let cinds = planted.cinds.clone();

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

/// Scores the adversarial ground truth against the repaired database:
/// a class *flipped* when the dirty value outvoted the clean one in
/// the final instance.
fn count_majority_flips(db: &Database, poisoned: &[PoisonedClass]) -> u64 {
    let Ok(fact) = db.schema().rel_id("fact") else {
        return 0;
    };
    let fact_rs = db.schema().relation(fact).expect("in range");
    let mut flips = 0u64;
    for slot in poisoned {
        let (Ok(k), Ok(d)) = (
            fact_rs.attr_id(&format!("k{}", slot.pair)),
            fact_rs.attr_id(&format!("d{}", slot.pair)),
        ) else {
            continue;
        };
        let (mut dirty, mut clean) = (0usize, 0usize);
        for t in db.relation(fact).iter() {
            if t[k] == slot.key {
                if t[d] == slot.dirty_value {
                    dirty += 1;
                } else if t[d] == slot.clean_value {
                    clean += 1;
                }
            }
        }
        if dirty > clean {
            flips += 1;
        }
    }
    flips
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
    let mut stats = SigmaLintStats::default();
    let mut constraints = 0u64;
    let t0 = Instant::now();
    for i in 0..seeds as u64 {
        for family in sigma_families(s.seed ^ i) {
            stats.families += 1;
            constraints += (family.cfds.len() + family.cinds.len()) as u64;
            let analysis = analyze(&family.schema, &family.cfds, &family.cinds, &config);
            stats.lints += analysis.lints.len() as u64;
            let mut hit = analysis.lints.len() == family.expect.lints;
            match &analysis.verdict {
                SigmaVerdict::Sat(w) => {
                    stats.sat += 1;
                    hit &= family.expect.verdict == ExpectedVerdict::Sat;
                    let v =
                        condep_validate::Validator::new(family.cfds.clone(), family.cinds.clone());
                    if v.validate(&w.db).is_empty() {
                        stats.witness_ok += 1;
                    } else {
                        hit = false;
                    }
                }
                SigmaVerdict::Unsat(core) => {
                    stats.unsat += 1;
                    stats.core_cfds += core.cfds.len() as u64;
                    hit &= family.expect.verdict == ExpectedVerdict::Unsat
                        && core.cfds.len() == family.expect.core_size;
                }
                SigmaVerdict::Unknown(_) => {
                    stats.unknown += 1;
                    hit &= family.expect.verdict == ExpectedVerdict::Unknown;
                }
            }
            if !hit {
                stats.expectation_misses += 1;
            }
        }
    }
    let sigma_us = t0.elapsed().as_micros() as u64;

    let mut metrics = MetricsSnapshot::new();
    metrics.counter("analyze.families", stats.families);
    metrics.counter("analyze.verdict.sat", stats.sat);
    metrics.counter("analyze.verdict.unsat", stats.unsat);
    metrics.counter("analyze.verdict.unknown", stats.unknown);
    metrics.counter("analyze.core.cfds", stats.core_cfds);
    metrics.counter("analyze.lints", stats.lints);
    metrics.counter("analyze.witness.ok", stats.witness_ok);
    metrics.counter("analyze.expectation.misses", stats.expectation_misses);

    ScenarioResult {
        name: s.name,
        seed: s.seed,
        rows: constraints,
        relations: stats.families,
        churn_ops: 0,
        passes: vec!["sigma_lint"],
        elapsed: ElapsedUs {
            sigma: sigma_us,
            ..ElapsedUs::default()
        },
        validate_tuples_per_s: 0.0,
        churn_ops_per_s: 0.0,
        latency: LatencySummary::default(),
        violations: ViolationCounts::default(),
        repair: None,
        stream: StreamStats::default(),
        online: None,
        sigma_churn: SigmaChurnStats::default(),
        sigma_lint: Some(stats),
        metrics,
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
    let validate_tuples_per_s = if validate_us == 0 {
        0.0
    } else {
        rows as f64 / (validate_us as f64 / 1e6)
    };

    let mut violations = ViolationCounts {
        initial: initial.summary.total() as u64,
        residual: initial.summary.total() as u64,
        after_churn: initial.summary.total() as u64,
    };

    let (db, repair_outcome, repair_us) = if s.repair {
        passes.push("repair");
        let t0 = Instant::now();
        let (repaired, report) = suite
            .repair(db, &RepairCost::default(), &RepairBudget::default())
            .expect("scenario sigmas are satisfiable by construction");
        let repair_us = t0.elapsed().as_micros() as u64;
        violations.residual = report.residual.len() as u64;
        violations.after_churn = violations.residual;
        let outcome = RepairOutcome {
            accepted: report.fixes_applied() as u64,
            rejected: report.log.rejected as u64,
            stale: report.log.stale as u64,
            rounds: report.log.rounds as u64,
            cells_edited: report.cells_edited as u64,
            tuples_deleted: report.tuples_deleted as u64,
            tuples_inserted: report.tuples_inserted as u64,
            majority_flips: count_majority_flips(&repaired, &built.poisoned),
            poisoned_classes: built.poisoned.len() as u64,
        };
        (repaired, Some(outcome), repair_us)
    } else {
        (db, None, 0)
    };

    // Streaming pass: a monitor over the (possibly repaired) instance.
    let windows = churn_windows(s, &built, &db, &mut rng);
    let churn_ops: u64 = windows.iter().map(|w| w.len() as u64).sum();
    let (mut monitor, _) = suite.monitor(db);
    if let Some(online) = s.online {
        monitor = monitor.with_online_discovery(online);
    }

    let mut sigma_churn = SigmaChurnStats::default();
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
                monitor.retire_dependencies(&rotating, &[]);
                sigma_churn.retires += 1;
                // Re-added dependencies append to the live Σ: their
                // indices are the tail of the CFD list after the splice.
                let before = monitor.validator().cfds().len();
                monitor.add_dependencies(rotating_cfds.clone(), Vec::new());
                sigma_churn.readds += 1;
                rotating = (before..before + rotating_cfds.len()).collect();
            }
        }
        t0.elapsed().as_micros() as u64
    };
    let churn_ops_per_s = if churn_us == 0 {
        0.0
    } else {
        churn_ops as f64 / (churn_us as f64 / 1e6)
    };
    if !windows.is_empty() {
        violations.after_churn = monitor.summary().total() as u64;
    }

    let health: HealthSnapshot = monitor.health();
    let latency = LatencySummary {
        p50_us: health.window_latency.p50_us,
        p90_us: health.window_latency.p90_us,
        p99_us: health.window_latency.p99_us,
        max_us: health.window_latency.max_us,
        count: health.window_latency.count,
    };
    let telemetry_snapshot = health.metrics.clone();
    let counter_of = |name: &str| match telemetry_snapshot.get(name) {
        Some(condep_telemetry::MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let gauge_of = |name: &str| match telemetry_snapshot.get(name) {
        Some(condep_telemetry::MetricValue::Gauge(v)) => u64::try_from(*v).unwrap_or(0),
        _ => 0,
    };
    let stream = StreamStats {
        windows: counter_of("stream.apply.windows"),
        inserts: counter_of("stream.mutations.inserts"),
        deletes: counter_of("stream.mutations.deletes"),
        noops: counter_of("stream.mutations.noops"),
        journal_total: health.journal_total,
        probe_hit_rate: {
            let slot = counter_of("stream.probes.slot");
            let total = slot + counter_of("stream.probes.hash");
            if total == 0 {
                0.0
            } else {
                slot as f64 / total as f64
            }
        },
        index_live: gauge_of("stream.index.live"),
        index_stored: gauge_of("stream.index.stored"),
    };

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
        validate_tuples_per_s,
        churn_ops_per_s,
        latency,
        violations,
        repair: repair_outcome,
        stream,
        online: health.online.map(|a| OnlineStats {
            polls: a.polls as u64,
            proposed: a.proposed as u64,
            promoted: a.promoted as u64,
            retired: a.retired as u64,
            values: gauge_of("monitor.online.values"),
            classes: gauge_of("monitor.online.classes"),
        }),
        sigma_churn,
        sigma_lint: None,
        metrics: health.metrics,
    }
}
