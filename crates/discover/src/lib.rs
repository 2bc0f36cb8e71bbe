#![warn(missing_docs)]

//! # condep-discover
//!
//! Dependency **discovery**: mine a ranked Σ′ of CFDs and CINDs from a
//! [`Database`] instance.
//!
//! The paper assumes Σ is given; every deployment starts by *profiling*
//! the data to find it. This crate closes that gap, turning the
//! workspace's loop into discover → validate → monitor → repair:
//!
//! * **CFD mining** (`cfd_miner`, via [`discover`]) — per relation, a
//!   level-wise walk of the attribute-set lattice over **stripped
//!   partitions** (TANE's data structure over a [`SymTables`]
//!   symbolization through one [`condep_model::Dict`]). Every partition
//!   and tally is one counting pass over symbols through a reusable
//!   [`SymCounter`] — no comparison sort over positions, no string
//!   hashed in the hot path.
//!   Each lattice node yields the plain FD `X → A` as a *variable* (all
//!   wildcard) tableau row and **specializes** each equivalence class of
//!   `π_X` into a *constant* row `(X = x̄ ‖ A = a)`, both tagged with
//!   `(support, confidence)`.
//! * **CIND mining** (`cind_miner`, same entry point) — unary
//!   inclusion candidates probed against shared target-column symbol
//!   sets; exact inclusions become traditional INDs, near-inclusions get
//!   the highest-support constant source conditions that make them
//!   exact.
//! * **Ranking & pruning** — candidates are ranked by
//!   `(support, confidence)`; trivial dependencies
//!   ([`NormalCfd::is_trivial`] / [`NormalCind::is_trivial`]),
//!   non-minimal FDs (supersets of an exact LHS) and dependencies
//!   *implied* by higher-ranked keeps (checked with the exact
//!   [`condep_cfd::implication`] SAT decider / [`condep_core::implication`]
//!   chase game, budgeted) are dropped; per-relation and global caps
//!   bound the output.
//!
//! The result is a [`DiscoveredSigma`]: ready to compile into a
//! batched validator (`condep::report::QualitySuite::discover` does
//! exactly that), feed a monitor, or — mined at
//! `min_confidence < 1.0` from dirty data — hand the repair engine a
//! realistic constraint set.
//!
//! ## Non-goals
//!
//! * **No full CTANE completeness.** The walk explores LHS sets up to
//!   [`DiscoveryConfig::max_lhs`] and specializes patterns per whole
//!   equivalence class: every attribute of a constant row is bound, so
//!   mixed wildcard/constant LHS rows (CTANE's full pattern lattice) are
//!   not enumerated.
//! * **Unary embedded INDs only.** CIND candidates match one source
//!   column against one target column; wider matched lists and
//!   target-side (`Yp`) conditions are not searched.
//! * **Empty-LHS CFDs** (global constant columns) are not emitted.
//!
//! Within those bounds the output is *sound*: at the default
//! `min_confidence = 1.0` every member of Σ′ is satisfied by the input
//! instance (property-tested at the workspace root).

use condep_cfd::consistency::{relation_consistency, RelationVerdict};
use condep_cfd::NormalCfd;
use condep_core::implication::ImplicationConfig;
use condep_core::NormalCind;
use condep_model::fxhash::FxBuildHasher;
use condep_model::{Database, RelId, SymTables};
use condep_telemetry::{Export, MetricsSnapshot, Stopwatch};
use condep_validate::SigmaCover;
use std::collections::HashMap;

mod cfd_miner;
mod cind_miner;
mod config;
mod confirm;
pub mod online;
mod partition;
mod sample;

pub use config::{DiscoveryConfig, SampleConfig};
pub use partition::{StrippedPartition, SymCounter};

/// A Hoeffding-style `(support, confidence)` interval estimate attached
/// to a sample-mined candidate (see [`DiscoveryConfig::sample`]).
///
/// * **support** — for a constant row or a CIND the class/trigger
///   fraction obeys the Hoeffding–Serfling bound for sampling without
///   replacement, scaled back to the full row count and tightened by
///   the deterministic facts (a sampled class member is a full class
///   member, so the exact support is at least the sampled one). For a
///   *variable* FD the sampled `‖π_X‖` is a provable lower bound (a
///   sampled pair is a full pair) and the row count the trivial upper.
/// * **confidence** — `±ε` around the sampled estimate for the
///   cleanly-Bernoulli cases (constant-row purity, CIND coverage
///   against an exhaustively-indexed target); the variable-FD majority
///   fraction is not a per-row mean, so its lower bound is widened to
///   `−2ε` (heuristic, validated by the interval-containment property
///   suite).
///
/// After the confirmation pass the surviving candidate's
/// `support`/`confidence` fields are **exact**; the interval is kept as
/// the audit trail of the estimate that selected it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvidenceInterval {
    /// `(lower, upper)` bounds on the exact support.
    pub support: (usize, usize),
    /// `(lower, upper)` bounds on the exact confidence.
    pub confidence: (f64, f64),
}

impl EvidenceInterval {
    /// Does the interval contain the exact figures? (Float bounds are
    /// checked with a 1e-9 slack.)
    pub fn contains(&self, support: usize, confidence: f64) -> bool {
        let (slo, shi) = self.support;
        let (clo, chi) = self.confidence;
        support >= slo && support <= shi && confidence >= clo - 1e-9 && confidence <= chi + 1e-9
    }
}

/// A mined CFD with its evidence.
#[derive(Clone, Debug)]
pub struct DiscoveredCfd {
    /// The dependency, in normal form.
    pub cfd: NormalCfd,
    /// Tuples supporting the pattern: class size for a constant row,
    /// `‖π_X‖` (tuples sharing their LHS value with another tuple) for a
    /// variable row.
    pub support: usize,
    /// Fraction of the support that satisfies the dependency (1.0 =
    /// exact on this instance).
    pub confidence: f64,
    /// The sampled interval estimate ([`DiscoveryConfig::sample`] runs
    /// only); `support`/`confidence` are exact post-confirmation.
    pub interval: Option<EvidenceInterval>,
}

/// A mined CIND with its evidence.
#[derive(Clone, Debug)]
pub struct DiscoveredCind {
    /// The dependency, in normal form.
    pub cind: NormalCind,
    /// Triggered source tuples.
    pub support: usize,
    /// Fraction of the triggered tuples with a target partner (1.0 =
    /// exact on this instance).
    pub confidence: f64,
    /// The sampled interval estimate ([`DiscoveryConfig::sample`] runs
    /// only); `support`/`confidence` are exact post-confirmation.
    pub interval: Option<EvidenceInterval>,
}

/// Counters of one sampled run (see [`DiscoveryConfig::sample`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SamplingStats {
    /// Rows in the full instance.
    pub full_rows: usize,
    /// Rows actually mined (the union of the per-relation samples).
    pub sampled_rows: usize,
    /// Relations that were genuinely downsampled (the rest fit the
    /// budget and were mined whole).
    pub relations_downsampled: usize,
    /// Worst realized Hoeffding half-width across downsampled relations
    /// (0.0 when nothing was downsampled).
    pub epsilon: f64,
    /// The configured per-interval failure probability.
    pub delta: f64,
    /// Candidates the confirmation pass re-counted exactly.
    pub confirm_checked: usize,
    /// Candidates the confirmation pass dropped (exact figures below
    /// the requested floors — sampling noise had let them through).
    pub confirm_dropped: usize,
}

impl Export for SamplingStats {
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.counter(k("full_rows"), self.full_rows as u64);
        out.counter(k("sampled_rows"), self.sampled_rows as u64);
        out.counter(
            k("relations_downsampled"),
            self.relations_downsampled as u64,
        );
        out.float(k("epsilon"), self.epsilon);
        out.float(k("delta"), self.delta);
        out.counter(k("confirm_checked"), self.confirm_checked as u64);
        out.counter(k("confirm_dropped"), self.confirm_dropped as u64);
    }
}

/// Counters describing one discovery run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiscoveryStats {
    /// Relations profiled.
    pub relations_profiled: usize,
    /// Attribute-set lattice nodes whose partition was materialized.
    pub lattice_nodes: usize,
    /// CFD tableau-row candidates examined (variable + constant).
    pub cfd_candidates: usize,
    /// CIND candidates examined (column pairs + conditions).
    pub cind_candidates: usize,
    /// Candidates dropped as trivially satisfied.
    pub pruned_trivial: usize,
    /// `(X, A)` nodes skipped because a subset of `X` already determines
    /// `A` exactly (lattice-level minimality pruning).
    pub pruned_nonminimal: usize,
    /// Ranked candidates dropped because the higher-ranked keeps already
    /// imply them.
    pub pruned_implied: usize,
    /// Ranked candidates dropped because keeping them would make the
    /// emitted Σ′ inconsistent on their relation (no nonempty instance
    /// could satisfy it — the shape approximate mining produces when two
    /// near-constant rows disagree). Checked with the SAT-backed
    /// analyzer; `Unknown` keeps the candidate, which matches the
    /// implication tier's budget convention.
    pub pruned_inconsistent: usize,
    /// Kept dependencies the final Σ-cover pass removed: pattern rows
    /// merged into a subsuming keep, payload-identical CIND duplicates,
    /// and keeps the *rest* of the kept set implies (the greedy walk
    /// only checks each candidate against earlier keeps).
    pub pruned_cover: usize,
    /// Candidates dropped by a per-candidate, per-relation or global
    /// cap.
    pub pruned_capped: usize,
    /// Exact implication checks spent (bounded by
    /// [`DiscoveryConfig::implication_budget`]).
    pub implication_checks: usize,
    /// Sampling counters — `Some` iff the run was sampled.
    pub sampling: Option<SamplingStats>,
}

impl Export for DiscoveryStats {
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.counter(k("relations_profiled"), self.relations_profiled as u64);
        out.counter(k("lattice_nodes"), self.lattice_nodes as u64);
        out.counter(k("cfd_candidates"), self.cfd_candidates as u64);
        out.counter(k("cind_candidates"), self.cind_candidates as u64);
        out.counter(k("pruned.trivial"), self.pruned_trivial as u64);
        out.counter(k("pruned.nonminimal"), self.pruned_nonminimal as u64);
        out.counter(k("pruned.implied"), self.pruned_implied as u64);
        out.counter(k("pruned.inconsistent"), self.pruned_inconsistent as u64);
        out.counter(k("pruned.cover"), self.pruned_cover as u64);
        out.counter(k("pruned.capped"), self.pruned_capped as u64);
        out.counter(k("implication_checks"), self.implication_checks as u64);
        if let Some(s) = &self.sampling {
            s.export(&condep_telemetry::key(prefix, "sampling"), out);
        }
    }
}

/// Wall-clock phase breakdown of one [`discover`] run, in milliseconds.
/// For an exact run everything is mining; a sampled run splits into the
/// reservoir scan, the mining walk over the sample, and the full-data
/// confirmation scan. Timings are *measurements*, not part of any
/// determinism contract — compare [`DiscoveryStats`] instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Reservoir-sampling scan (0 for exact runs).
    pub sample_ms: f64,
    /// Lattice walk + CIND probing (over the sample when sampled).
    pub mine_ms: f64,
    /// Full-scan confirmation of the keep-set (0 for exact runs).
    pub confirm_ms: f64,
}

impl Export for PhaseTimings {
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.float(k("sample_ms"), self.sample_ms);
        out.float(k("mine_ms"), self.mine_ms);
        out.float(k("confirm_ms"), self.confirm_ms);
    }
}

/// The ranked result of one [`discover`] run.
#[derive(Clone, Debug, Default)]
pub struct DiscoveredSigma {
    /// Kept CFDs, ranked by `(support, confidence)` descending.
    pub cfds: Vec<DiscoveredCfd>,
    /// Kept CINDs, ranked by `(support, confidence)` descending.
    pub cinds: Vec<DiscoveredCind>,
    /// Run counters.
    pub stats: DiscoveryStats,
    /// Wall-clock phase breakdown.
    pub timings: PhaseTimings,
}

impl DiscoveredSigma {
    /// Total kept dependencies.
    pub fn len(&self) -> usize {
        self.cfds.len() + self.cinds.len()
    }

    /// Did the run keep nothing?
    pub fn is_empty(&self) -> bool {
        self.cfds.is_empty() && self.cinds.is_empty()
    }

    /// The kept CFDs as a plain Σ half (evidence stripped).
    pub fn cfds_normal(&self) -> Vec<NormalCfd> {
        self.cfds.iter().map(|d| d.cfd.clone()).collect()
    }

    /// The kept CINDs as a plain Σ half (evidence stripped).
    pub fn cinds_normal(&self) -> Vec<NormalCind> {
        self.cinds.iter().map(|d| d.cind.clone()).collect()
    }

    /// The run as one metrics snapshot: kept counts under
    /// `discover.kept.*`, [`DiscoveryStats`] under `discover.stats.*`
    /// and [`PhaseTimings`] under `discover.timings.*`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        out.counter("discover.kept.cfds", self.cfds.len() as u64);
        out.counter("discover.kept.cinds", self.cinds.len() as u64);
        self.stats.export("discover.stats", &mut out);
        self.timings.export("discover.timings", &mut out);
        out
    }
}

/// Mines a ranked Σ′ from `db`. Deterministic for a fixed
/// `(db, config)` — every internal collection either iterates in dense
/// order or sorts before harvesting.
///
/// With [`DiscoveryConfig::sample`] set the run is **budgeted**: mining
/// walks a per-relation reservoir sample, candidates carry
/// [`EvidenceInterval`] estimates, and one streaming full-data
/// confirmation pass re-counts the keep-set exactly before emission.
pub fn discover(db: &Database, config: &DiscoveryConfig) -> DiscoveredSigma {
    match config.sample {
        Some(sample_cfg) => discover_sampled(db, config, &sample_cfg),
        None => discover_exact(db, config),
    }
}

/// The budgeted path: reservoir-sample → mine the sample with scaled
/// floors → attach interval estimates → confirm exactly → re-rank.
fn discover_sampled(
    db: &Database,
    config: &DiscoveryConfig,
    sample_cfg: &SampleConfig,
) -> DiscoveredSigma {
    let sample_clock = Stopwatch::start();
    let outcome = sample::reservoir_sample(db, sample_cfg);
    let sample_ms = sample_clock.elapsed_ms();
    let full_total: usize = outcome.full_rows.iter().sum();
    let sampled_total: usize = outcome.sampled_rows.iter().sum();
    if !outcome.any_downsampled() {
        // Every relation fit the budget: the exact path costs the same
        // and needs no estimation.
        let mut found = discover_exact(db, config);
        found.stats.sampling = Some(SamplingStats {
            full_rows: full_total,
            sampled_rows: sampled_total,
            delta: sample_cfg.delta,
            ..SamplingStats::default()
        });
        found.timings.sample_ms = sample_ms;
        return found;
    }
    // Worst realized half-width across the downsampled relations — the
    // confidence-floor relaxation has to cover the loosest estimate.
    let epsilon = outcome
        .sampled_rows
        .iter()
        .zip(&outcome.downsampled)
        .filter(|&(_, &down)| down)
        .map(|(&m, _)| sample_cfg.epsilon_for(m))
        .fold(0.0_f64, f64::max);
    let fraction = sampled_total as f64 / full_total.max(1) as f64;
    let mining = sample::sampled_mining_config(config, fraction, epsilon);
    let mut found = discover_exact(&outcome.db, &mining);
    found.timings.sample_ms = sample_ms;
    for d in &mut found.cfds {
        let (m, n) = outcome.rows(d.cfd.rel());
        d.interval = Some(cfd_interval(
            d,
            m,
            n,
            outcome.downsampled[d.cfd.rel().index()],
            sample_cfg,
        ));
    }
    for d in &mut found.cinds {
        let (m, n) = outcome.rows(d.cind.lhs_rel());
        d.interval = Some(cind_interval(
            d,
            m,
            n,
            outcome.downsampled[d.cind.lhs_rel().index()],
            outcome.downsampled[d.cind.rhs_rel().index()],
            sample_cfg,
        ));
    }
    let confirm_clock = Stopwatch::start();
    let confirmed = confirm::confirm(db, config, &mut found.cfds, &mut found.cinds);
    found.timings.confirm_ms = confirm_clock.elapsed_ms();
    // Exact figures may reorder the ranking the sample suggested.
    found
        .cfds
        .sort_by(|a, b| rank_key(b.support, b.confidence, a.support, a.confidence));
    found
        .cinds
        .sort_by(|a, b| rank_key(b.support, b.confidence, a.support, a.confidence));
    found.stats.sampling = Some(SamplingStats {
        full_rows: full_total,
        sampled_rows: sampled_total,
        relations_downsampled: outcome.downsampled.iter().filter(|&&d| d).count(),
        epsilon,
        delta: sample_cfg.delta,
        confirm_checked: confirmed.checked,
        confirm_dropped: confirmed.dropped,
    });
    found
}

/// The sampled→full interval of one CFD candidate: `m` sampled rows of
/// `n` full rows in its relation.
fn cfd_interval(
    d: &DiscoveredCfd,
    m: usize,
    n: usize,
    downsampled: bool,
    sample_cfg: &SampleConfig,
) -> EvidenceInterval {
    if !downsampled {
        return EvidenceInterval {
            support: (d.support, d.support),
            confidence: (d.confidence, d.confidence),
        };
    }
    if d.cfd.lhs_pat().is_all_any() && !d.cfd.is_constant_rhs() {
        // Variable row. Every sampled LHS pair is a full pair, so the
        // sampled ‖π_X‖ bounds the exact one from below; the majority
        // fraction is not a per-row mean, so its bound is the widened
        // heuristic documented on [`EvidenceInterval`].
        let eps = sample_cfg.epsilon_for(d.support.max(1));
        EvidenceInterval {
            support: (d.support, n),
            confidence: (
                (d.confidence - 2.0 * eps).max(0.0),
                (d.confidence + eps).min(1.0),
            ),
        }
    } else {
        // Constant row: the class fraction is a clean Bernoulli mean
        // over the m sampled rows; purity is a mean over the sampled
        // class members.
        let eps_rel = sample_cfg.epsilon_for(m);
        let p = d.support as f64 / m.max(1) as f64;
        let lower = (((p - eps_rel) * n as f64).floor().max(0.0)) as usize;
        let upper = (((p + eps_rel) * n as f64).ceil()) as usize;
        // Deterministic tightening: sampled class members are full class
        // members, and sampled non-members are full non-members.
        let det_upper = n - (m - d.support);
        let eps_class = sample_cfg.epsilon_for(d.support.max(1));
        EvidenceInterval {
            support: (lower.max(d.support), upper.min(det_upper)),
            confidence: (
                (d.confidence - eps_class).max(0.0),
                (d.confidence + eps_class).min(1.0),
            ),
        }
    }
}

/// The sampled→full interval of one CIND candidate: `m` sampled source
/// rows of `n` full source rows.
fn cind_interval(
    d: &DiscoveredCind,
    m: usize,
    n: usize,
    src_downsampled: bool,
    target_downsampled: bool,
    sample_cfg: &SampleConfig,
) -> EvidenceInterval {
    let support = if src_downsampled {
        // Trigger fraction over the sampled source rows.
        let eps_rel = sample_cfg.epsilon_for(m);
        let p = d.support as f64 / m.max(1) as f64;
        let lower = (((p - eps_rel) * n as f64).floor().max(0.0)) as usize;
        let upper = (((p + eps_rel) * n as f64).ceil()) as usize;
        (lower.max(d.support), upper.min(n - (m - d.support)))
    } else {
        (d.support, d.support)
    };
    let eps_cov = sample_cfg.epsilon_for(d.support.max(1));
    let confidence = if target_downsampled {
        // The sampled target misses values the full target holds:
        // coverage is downward-biased, so only 1.0 is a safe upper.
        ((d.confidence - eps_cov).max(0.0), 1.0)
    } else if src_downsampled {
        // Exhaustive target index: each sampled trigger's hit/miss is
        // its full-data hit/miss — a clean Bernoulli mean.
        (
            (d.confidence - eps_cov).max(0.0),
            (d.confidence + eps_cov).min(1.0),
        )
    } else {
        (d.confidence, d.confidence)
    };
    EvidenceInterval {
        support,
        confidence,
    }
}

/// The exact (unsampled) mining pipeline.
fn discover_exact(db: &Database, config: &DiscoveryConfig) -> DiscoveredSigma {
    let mine_clock = Stopwatch::start();
    let mut stats = DiscoveryStats::default();
    let (dict, tables) = SymTables::build(db);

    let mut cfd_cands: Vec<DiscoveredCfd> = Vec::new();
    for (rel, _) in db.iter() {
        stats.relations_profiled += 1;
        cfd_miner::mine_relation(rel, &dict, &tables, config, &mut stats, &mut cfd_cands);
    }
    let mut cind_cands: Vec<DiscoveredCind> = Vec::new();
    cind_miner::mine(db, &dict, &tables, config, &mut stats, &mut cind_cands);

    // Belt-and-braces trivia filter (the miners avoid most of these by
    // construction).
    cfd_cands.retain(|c| {
        let trivial = c.cfd.is_trivial();
        stats.pruned_trivial += trivial as usize;
        !trivial
    });
    cind_cands.retain(|c| {
        let trivial = c.cind.is_trivial();
        stats.pruned_trivial += trivial as usize;
        !trivial
    });

    // Rank by evidence; generation order (deterministic) breaks ties.
    cfd_cands.sort_by(|a, b| rank_key(b.support, b.confidence, a.support, a.confidence));
    cind_cands.sort_by(|a, b| rank_key(b.support, b.confidence, a.support, a.confidence));

    // Greedy keep: walk the ranking, dropping candidates the kept set
    // already implies (exact checkers, budgeted — `Unknown` keeps the
    // candidate, which is sound) and enforcing the caps.
    let schema = db.schema();
    let mut budget = config.implication_budget;
    let mut kept_cfds: Vec<DiscoveredCfd> = Vec::new();
    let mut kept_sigma: Vec<NormalCfd> = Vec::new();
    let mut per_rel: HashMap<RelId, usize, FxBuildHasher> = HashMap::default();
    for cand in cfd_cands {
        let kept_here = per_rel.entry(cand.cfd.rel()).or_insert(0);
        if *kept_here >= config.max_cfds_per_relation {
            stats.pruned_capped += 1;
            continue;
        }
        if budget > 0 {
            budget -= 1;
            stats.implication_checks += 1;
            if condep_cfd::implication::implies(
                schema,
                &kept_sigma,
                &cand.cfd,
                ImplicationConfig::default(),
            ) == condep_cfd::implication::Implication::Implied
            {
                stats.pruned_implied += 1;
                continue;
            }
        }
        let mut same_rel: Vec<(usize, &NormalCfd)> = kept_sigma
            .iter()
            .filter(|k| k.rel() == cand.cfd.rel())
            .enumerate()
            .collect();
        same_rel.push((same_rel.len(), &cand.cfd));
        if matches!(
            relation_consistency(
                schema,
                cand.cfd.rel(),
                &same_rel,
                condep_analyze::MAX_CONFLICTS,
            ),
            RelationVerdict::Unsat(_)
        ) {
            stats.pruned_inconsistent += 1;
            continue;
        }
        drop(same_rel);
        *kept_here += 1;
        kept_sigma.push(cand.cfd.clone());
        kept_cfds.push(cand);
    }

    let mut kept_cinds: Vec<DiscoveredCind> = Vec::new();
    let mut kept_cind_sigma: Vec<NormalCind> = Vec::new();
    let cind_impl_config = ImplicationConfig {
        max_states: 50_000,
        max_initial_assignments: 256,
        ..ImplicationConfig::default()
    };
    for cand in cind_cands {
        if kept_cinds.len() >= config.max_cinds {
            stats.pruned_capped += 1;
            continue;
        }
        if budget > 0 {
            budget -= 1;
            stats.implication_checks += 1;
            if condep_core::implication::implies(
                schema,
                &kept_cind_sigma,
                &cand.cind,
                cind_impl_config,
            ) == condep_core::implication::Implication::Implied
            {
                stats.pruned_implied += 1;
                continue;
            }
        }
        kept_cind_sigma.push(cand.cind.clone());
        kept_cinds.push(cand);
    }

    // Σ-cover pass over the kept set. The greedy walk above only checks
    // each candidate against *earlier* (higher-ranked) keeps; the cover
    // pass closes the loop — merging pattern rows a kept row subsumes,
    // deduping payload-identical CINDs, and (budget permitting) dropping
    // keeps the rest of the kept set implies. Both tiers are
    // satisfaction-preserving, so a database satisfying the covered Σ′
    // satisfies everything mined — implication recovery of planted
    // dependencies is untouched. Exact merges process in input order, so
    // the survivor of each family is its highest-ranked member.
    let cover = if budget > 0 {
        SigmaCover::minimal(
            schema,
            &kept_sigma,
            &kept_cind_sigma,
            ImplicationConfig::default(),
        )
    } else {
        SigmaCover::exact(&kept_sigma, &kept_cind_sigma)
    };
    stats.pruned_cover =
        (kept_cfds.len() + kept_cinds.len()) - (cover.kept_cfds().len() + cover.kept_cinds().len());
    let mut keep_cfd = cover.cfd.iter().map(|r| r.is_kept());
    kept_cfds.retain(|_| keep_cfd.next().expect("one role per kept CFD"));
    let mut keep_cind = cover.cind.iter().map(|r| r.is_kept());
    kept_cinds.retain(|_| keep_cind.next().expect("one role per kept CIND"));

    DiscoveredSigma {
        cfds: kept_cfds,
        cinds: kept_cinds,
        stats,
        timings: PhaseTimings {
            mine_ms: mine_clock.elapsed_ms(),
            ..PhaseTimings::default()
        },
    }
}

/// Descending `(support, confidence)` with a total order (confidence is
/// a well-formed fraction, so `partial_cmp` cannot fail; equal ties fall
/// back to `Equal`, keeping the sort stable over generation order).
fn rank_key(s_b: usize, c_b: f64, s_a: usize, c_a: f64) -> std::cmp::Ordering {
    s_b.cmp(&s_a)
        .then(c_b.partial_cmp(&c_a).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{tuple, Domain, PValue, Schema, Value};
    use std::sync::Arc;

    /// fact(city, country, zip): city → country exactly, with two big
    /// constant classes; zip is a key.
    fn city_db() -> Database {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "fact",
                    &[
                        ("city", Domain::string()),
                        ("country", Domain::string()),
                        ("zip", Domain::string()),
                    ],
                )
                .relation("cities", &[("name", Domain::string())])
                .finish(),
        );
        let mut db = Database::empty(schema);
        let rows = [
            ("EDI", "UK"),
            ("EDI", "UK"),
            ("EDI", "UK"),
            ("NYC", "US"),
            ("NYC", "US"),
            ("NYC", "US"),
            ("GLA", "UK"),
            ("GLA", "UK"),
        ];
        for (i, (city, country)) in rows.iter().enumerate() {
            db.insert_into("fact", tuple![*city, *country, format!("z{i}").as_str()])
                .unwrap();
        }
        for city in ["EDI", "NYC", "GLA"] {
            db.insert_into("cities", tuple![city]).unwrap();
        }
        db
    }

    fn config(min_support: usize) -> DiscoveryConfig {
        DiscoveryConfig {
            min_support,
            ..DiscoveryConfig::default()
        }
    }

    #[test]
    fn mines_the_planted_fd_and_its_constant_rows() {
        let db = city_db();
        let found = discover(&db, &config(2));
        let schema = db.schema();
        let fact = schema.rel_id("fact").unwrap();
        let rs = schema.relation(fact).unwrap();
        let city = rs.attr_id("city").unwrap();
        let country = rs.attr_id("country").unwrap();
        // The variable FD city → country.
        let fd = found
            .cfds
            .iter()
            .find(|d| {
                d.cfd.rel() == fact
                    && d.cfd.lhs() == [city]
                    && d.cfd.rhs() == country
                    && d.cfd.lhs_pat().is_all_any()
                    && !d.cfd.is_constant_rhs()
            })
            .expect("city → country must be mined");
        assert_eq!(fd.support, 8, "all tuples sit in non-singleton classes");
        assert_eq!(fd.confidence, 1.0);
        // A constant specialization (EDI ‖ UK).
        let edi = found
            .cfds
            .iter()
            .find(|d| {
                d.cfd.rel() == fact
                    && d.cfd.lhs() == [city]
                    && d.cfd.lhs_pat().cell(0) == &PValue::constant("EDI")
            })
            .expect("the EDI class must specialize");
        assert_eq!(edi.support, 3);
        assert_eq!(edi.cfd.rhs_pat(), &PValue::constant("UK"));
        // Soundness: everything kept holds on the instance.
        for d in &found.cfds {
            assert!(
                condep_cfd::satisfy::satisfies_normal(&db, &d.cfd),
                "unsound CFD: {}",
                d.cfd.display(schema)
            );
        }
        // The key column never produces a dependency target from its
        // side: zip partitions are all singletons.
        assert!(found
            .cfds
            .iter()
            .all(|d| !d.cfd.lhs().contains(&rs.attr_id("zip").unwrap())));
    }

    #[test]
    fn mines_the_exact_inclusion() {
        let db = city_db();
        let found = discover(&db, &config(2));
        let schema = db.schema();
        let fact = schema.rel_id("fact").unwrap();
        let cities = schema.rel_id("cities").unwrap();
        let ind = found
            .cinds
            .iter()
            .find(|d| d.cind.lhs_rel() == fact && d.cind.rhs_rel() == cities)
            .expect("fact[city] ⊆ cities[name] must be mined");
        assert_eq!(ind.support, 8);
        assert_eq!(ind.confidence, 1.0);
        assert!(ind.cind.xp().is_empty());
        for d in &found.cinds {
            assert!(
                condep_core::satisfy::satisfies_normal(&db, &d.cind),
                "unsound CIND: {}",
                d.cind.display(schema)
            );
        }
    }

    #[test]
    fn near_inclusion_gets_an_exact_condition() {
        // src[v] ⊆ dst[v] fails only for kind=bad tuples: the condition
        // kind=good makes it exact.
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "src",
                    &[("v", Domain::string()), ("kind", Domain::string())],
                )
                .relation("dst", &[("v", Domain::string())])
                .finish(),
        );
        let mut db = Database::empty(schema);
        for i in 0..6 {
            db.insert_into("src", tuple![format!("ok{i}").as_str(), "good"])
                .unwrap();
            db.insert_into("dst", tuple![format!("ok{i}").as_str()])
                .unwrap();
        }
        db.insert_into("src", tuple!["orphan1", "bad"]).unwrap();
        db.insert_into("src", tuple!["orphan2", "bad"]).unwrap();
        let found = discover(&db, &config(2));
        let schema = db.schema();
        let src = schema.rel_id("src").unwrap();
        let kind = schema.relation(src).unwrap().attr_id("kind").unwrap();
        let cond = found
            .cinds
            .iter()
            .find(|d| d.cind.lhs_rel() == src && !d.cind.xp().is_empty())
            .expect("a conditioned near-IND must be mined");
        assert_eq!(
            cond.cind.xp(),
            &[(kind, Value::str("good"))],
            "the kind=good condition makes the inclusion exact"
        );
        assert_eq!(cond.support, 6);
        assert_eq!(cond.confidence, 1.0);
        assert!(condep_core::satisfy::satisfies_normal(&db, &cond.cind));
        // Strict mode must NOT emit the bare (violated) near-IND.
        assert!(found
            .cinds
            .iter()
            .all(|d| condep_core::satisfy::satisfies_normal(&db, &d.cind)));
        // Relaxing the confidence floor must never LOSE the exact
        // conditioned CIND, even when the orphan rate (25% here)
        // exceeds the relaxed tolerance (10%).
        let relaxed = discover(
            &db,
            &DiscoveryConfig {
                min_support: 2,
                min_confidence: 0.9,
                ..DiscoveryConfig::default()
            },
        );
        assert!(
            relaxed
                .cinds
                .iter()
                .any(|d| d.cind.xp() == [(kind, Value::str("good"))]),
            "relaxed mode must keep the conditioned near-IND: {:?}",
            relaxed.cinds
        );
    }

    #[test]
    fn approximate_mode_emits_the_near_dependencies() {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("id", Domain::string()),
                        ("k", Domain::string()),
                        ("v", Domain::string()),
                    ],
                )
                .finish(),
        );
        let mut db = Database::empty(schema);
        // k=a determines v except for one dissenter (9 of 10 agree).
        for i in 0..9 {
            db.insert_into("r", tuple![format!("t{i}").as_str(), "a", "same"])
                .unwrap();
        }
        db.insert_into("r", tuple!["t9", "a", "dissent"]).unwrap();
        let r = db.schema().rel_id("r").unwrap();
        let rs = db.schema().relation(r).unwrap();
        let (k, v) = (rs.attr_id("k").unwrap(), rs.attr_id("v").unwrap());
        let broken_fd = |d: &DiscoveredCfd| {
            d.cfd.lhs() == [k]
                && d.cfd.rhs() == v
                && d.cfd.lhs_pat().is_all_any()
                && !d.cfd.is_constant_rhs()
        };
        let strict = discover(&db, &config(2));
        assert!(
            !strict.cfds.iter().any(&broken_fd),
            "strict mode rejects the broken FD"
        );
        let relaxed = discover(
            &db,
            &DiscoveryConfig {
                min_support: 2,
                min_confidence: 0.8,
                ..DiscoveryConfig::default()
            },
        );
        let fd = relaxed
            .cfds
            .iter()
            .find(|d| broken_fd(d))
            .expect("approximate k -> v must surface");
        assert_eq!(fd.support, 10);
        assert!((fd.confidence - 0.9).abs() < 1e-9, "{}", fd.confidence);
    }

    #[test]
    fn implied_candidates_are_pruned() {
        // Two copies of the same functional column pair: the ranked walk
        // keeps the FD and prunes whatever the chase proves redundant —
        // and never keeps two identical dependencies.
        let db = city_db();
        let found = discover(&db, &config(2));
        let mut seen = std::collections::HashSet::new();
        for d in &found.cfds {
            assert!(
                seen.insert(format!("{}", d.cfd.display(db.schema()))),
                "duplicate dependency kept: {}",
                d.cfd.display(db.schema())
            );
        }
        assert!(found.stats.implication_checks > 0);
    }

    #[test]
    fn discovery_is_deterministic() {
        let db = city_db();
        let a = discover(&db, &config(2));
        let b = discover(&db, &config(2));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.cfds.len(), b.cfds.len());
        for (x, y) in a.cfds.iter().zip(&b.cfds) {
            assert_eq!(x.cfd, y.cfd);
            assert_eq!(x.support, y.support);
            assert_eq!(x.confidence, y.confidence);
        }
        for (x, y) in a.cinds.iter().zip(&b.cinds) {
            assert_eq!(x.cind, y.cind);
            assert_eq!(x.support, y.support);
        }
    }

    #[test]
    fn caps_bound_the_output() {
        let db = city_db();
        let capped = discover(
            &db,
            &DiscoveryConfig {
                min_support: 2,
                max_cfds_per_relation: 1,
                max_cinds: 1,
                ..DiscoveryConfig::default()
            },
        );
        let mut per_rel: HashMap<RelId, usize, FxBuildHasher> = HashMap::default();
        for d in &capped.cfds {
            *per_rel.entry(d.cfd.rel()).or_insert(0) += 1;
        }
        assert!(per_rel.values().all(|&n| n <= 1));
        assert!(capped.cinds.len() <= 1);
        assert!(capped.stats.pruned_capped > 0);
    }

    /// Keep-stage post-condition: the emitted Σ′ is never inconsistent.
    /// Mined-from-data rows rarely conflict by construction, so this
    /// asserts the analyzer agrees (`Sat`) and that nothing was pruned
    /// on the clean fixture — the `pruned_inconsistent` counter is a
    /// safety net for sampled / online drift, not the happy path.
    #[test]
    fn kept_sigma_is_always_consistent() {
        let db = city_db();
        let found = discover(&db, &config(2));
        assert!(!found.is_empty());
        let cfds: Vec<NormalCfd> = found.cfds.iter().map(|d| d.cfd.clone()).collect();
        let cinds: Vec<NormalCind> = found.cinds.iter().map(|d| d.cind.clone()).collect();
        let analysis = condep_analyze::analyze(db.schema(), &cfds, &cinds);
        assert!(
            analysis.verdict.is_sat(),
            "discovered sigma must be satisfiable: {:?}",
            analysis.verdict
        );
        assert_eq!(found.stats.pruned_inconsistent, 0);
    }
}
