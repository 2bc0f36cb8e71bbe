//! High-level data-quality façade.
//!
//! Ties the workspace together the way the paper's introduction motivates
//! it: take a database and a set of conditional dependencies, check the
//! dependencies are consistent, and report every violation with enough
//! context to drive cleaning.

use condep_cfd::{normalize as cfd_normalize, Cfd, CfdViolation, NormalCfd};
use condep_consistency::{checking, CheckingConfig, ConstraintSet};
use condep_core::{normalize as cind_normalize, Cind, CindViolation, NormalCind};
use condep_discover::online::{OnlineConfig, OnlineMiner};
use condep_discover::{DiscoveredSigma, DiscoveryConfig};
use condep_model::{Database, ModelError, RelId, Schema, Tuple};
use condep_repair::{RepairBudget, RepairCost, RepairReport};
use condep_telemetry::json::JsonWriter;
use condep_telemetry::{Export, JournalEvent, MetricsSnapshot};
use condep_validate::{
    CoverRole, Mutation, RetireLog, SigmaCover, SigmaDelta, SigmaReport, UnknownDependency,
    Validator, ValidatorStream,
};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One detected violation, tagged with its source constraint.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A CFD violation (single-tuple or pair).
    Cfd {
        /// Index of the (normalized) CFD in the suite.
        constraint: usize,
        /// The violation details.
        violation: CfdViolation,
        /// The relation involved.
        rel: RelId,
    },
    /// A CIND violation: a triggered tuple with no partner.
    Cind {
        /// Index of the (normalized) CIND in the suite.
        constraint: usize,
        /// The violation details.
        violation: CindViolation,
        /// The source relation.
        rel: RelId,
    },
}

/// Counts per constraint kind.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ViolationSummary {
    /// CFD violations found.
    pub cfd_violations: usize,
    /// CIND violations found.
    pub cind_violations: usize,
    /// Tuples inspected.
    pub tuples_checked: usize,
}

impl ViolationSummary {
    /// Total violations.
    pub fn total(&self) -> usize {
        self.cfd_violations + self.cind_violations
    }

    /// Is the database clean with respect to the suite?
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

impl Export for ViolationSummary {
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.counter(k("cfd"), self.cfd_violations as u64);
        out.counter(k("cind"), self.cind_violations as u64);
        out.counter(k("tuples_checked"), self.tuples_checked as u64);
    }
}

/// The full quality report.
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Aggregate counts.
    pub summary: ViolationSummary,
    /// Every violation found, in deterministic order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} violation(s): {} CFD, {} CIND over {} tuple(s)",
            self.summary.total(),
            self.summary.cfd_violations,
            self.summary.cind_violations,
            self.summary.tuples_checked,
        )
    }
}

/// A compiled suite of conditional dependencies over one schema.
///
/// Construction normalizes every dependency (Prop 3.1 for CINDs, the
/// Section 4 normal form for CFDs) and compiles the whole Σ into a
/// batched [`Validator`]; checking then builds one shared group-by index
/// per `(relation, LHS)` group and sweeps groups in parallel, instead of
/// re-indexing the database once per constraint.
#[derive(Clone, Debug)]
pub struct QualitySuite {
    schema: Arc<Schema>,
    validator: Validator,
}

impl QualitySuite {
    /// Builds a suite from general-form dependencies.
    pub fn new(schema: Arc<Schema>, cfds: &[Cfd], cinds: &[Cind]) -> Self {
        QualitySuite::from_normal(
            schema,
            cfd_normalize::normalize_all(cfds),
            cind_normalize::normalize_all(cinds),
        )
    }

    /// Builds a suite directly from normal forms.
    pub fn from_normal(schema: Arc<Schema>, cfds: Vec<NormalCfd>, cinds: Vec<NormalCind>) -> Self {
        QualitySuite {
            schema,
            validator: Validator::new(cfds, cinds),
        }
    }

    /// **Profiles** `db` with the `condep-discover` miners and compiles
    /// the recovered Σ′ straight into a suite — the entry point of the
    /// discover → validate → monitor → repair loop when no constraint
    /// set is given. Returns the suite together with the ranked
    /// [`DiscoveredSigma`] (supports, confidences, run counters).
    ///
    /// At the default `min_confidence = 1.0` the suite is clean on `db`
    /// by construction; mine with a lower floor to tolerate dirt in the
    /// profiled snapshot and let [`QualitySuite::check`] /
    /// [`QualitySuite::repair`] surface and fix it.
    pub fn discover(db: &Database, config: &DiscoveryConfig) -> (Self, DiscoveredSigma) {
        let found = condep_discover::discover(db, config);
        let suite = QualitySuite::from_normal(
            db.schema().clone(),
            found.cfds_normal(),
            found.cinds_normal(),
        );
        (suite, found)
    }

    /// The schema the suite is defined over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The normalized CFDs.
    pub fn cfds(&self) -> &[NormalCfd] {
        self.validator.cfds()
    }

    /// The normalized CINDs.
    pub fn cinds(&self) -> &[NormalCind] {
        self.validator.cinds()
    }

    /// The compiled batched validator (e.g. to open a
    /// [`condep_validate::ValidatorStream`] for incremental checking).
    pub fn validator(&self) -> &Validator {
        &self.validator
    }

    /// Promotes additional (normal-form) dependencies into the compiled
    /// suite, recompiling **only** the `(relation, LHS)` / target groups
    /// they join — existing indices and any report computed so far keep
    /// their meaning. Returns the Σ index ranges the newcomers occupy.
    pub fn add_dependencies(
        &mut self,
        cfds: Vec<NormalCfd>,
        cinds: Vec<NormalCind>,
    ) -> (Range<usize>, Range<usize>) {
        self.validator.add_dependencies(cfds, cinds)
    }

    /// Retires dependencies from the suite in place: their indices stay
    /// allocated (historical reports keep meaning) but they are no
    /// longer checked. Only the groups that carried them recompile. An
    /// index the suite never assigned is an error, and then nothing is
    /// retired.
    pub fn retire_dependencies(
        &mut self,
        cfd_idxs: &[usize],
        cind_idxs: &[usize],
    ) -> Result<RetireLog, UnknownDependency> {
        self.validator.retire_dependencies(cfd_idxs, cind_idxs)
    }

    /// Checks whether the suite itself is consistent, using algorithm
    /// `Checking` (Figure 9). `Some(witness)` certifies consistency;
    /// `None` means no witness was found (sound, not complete —
    /// Theorem 4.2 makes completeness unattainable).
    pub fn check_consistency(&self, config: &CheckingConfig) -> Option<Database> {
        let sigma = ConstraintSet::new(
            self.schema.clone(),
            self.validator.cfds().to_vec(),
            self.validator.cinds().to_vec(),
        );
        checking(&sigma, config)
    }

    /// Runs the batched validator against `db`: one parallel sweep over
    /// all of Σ, reported in the same deterministic order the per-CFD
    /// detectors would produce.
    pub fn check(&self, db: &Database) -> QualityReport {
        let report = self.validator.validate_sorted(db);
        resolve_report(&self.validator, db.total_tuples(), report)
    }

    /// Opens a streaming monitor over `db`: the suite's delta engine
    /// keeps the violation state live, so every insert / delete / update
    /// is charged only for what it touches. Also returns the seed
    /// database's initial quality report.
    pub fn monitor(&self, db: Database) -> (QualityMonitor, QualityReport) {
        let tuples = db.total_tuples();
        let (stream, initial) = ValidatorStream::new_validated(self.validator.clone(), db);
        let report = resolve_report(&self.validator, tuples, initial);
        let monitor = QualityMonitor {
            stream,
            online: None,
        };
        (monitor, report)
    }

    /// Repairs `db` against the suite: the `condep-repair` cost-based
    /// engine seeds its delta stream over `db` (one shared index build
    /// that also reads every initial violation; no batch sweep runs
    /// first), settles CFD conflicts per equivalence class (constant
    /// patterns force their constant, variable ones take the class
    /// majority), gives CIND orphans their chased target tuple or
    /// deletes them, and verifies **every**
    /// candidate fix through the delta engine — kept only when its
    /// [`SigmaDelta`]s prove it strictly net-negative, rolled back
    /// otherwise. Returns the repaired database and the auditable
    /// [`RepairReport`] (fixes, costs, residual violations).
    ///
    /// A Σ the static analyzer **proves** unsatisfiable is refused up
    /// front with [`condep_validate::UnsatSigma`] carrying a minimal
    /// conflicting core — see [`QualitySuite::analysis`].
    pub fn repair(
        &self,
        db: Database,
        cost: &RepairCost,
        budget: &RepairBudget,
    ) -> Result<(Database, RepairReport), condep_validate::UnsatSigma> {
        condep_repair::repair(self.validator.clone(), db, cost, budget)
    }

    /// Full static analysis of the suite's Σ: SAT-backed consistency
    /// with a witness database or a minimal unsat core, a budgeted
    /// chase for CFD+CIND interaction, and the advisory
    /// [`condep_validate::SigmaLint`] catalogue. The cheap lint tier is
    /// also always available as `validator().lints()`.
    pub fn analysis(&self) -> condep_validate::SigmaAnalysis {
        self.validator.analysis(&self.schema)
    }

    /// The offending tuples, resolved against `db` — what a repair tool
    /// consumes.
    pub fn offending_tuples<'a>(
        &self,
        db: &'a Database,
        report: &QualityReport,
    ) -> Vec<(&'static str, RelId, &'a Tuple)> {
        let mut out = Vec::new();
        for v in &report.violations {
            match v {
                Violation::Cfd { violation, rel, .. } => match violation {
                    CfdViolation::SingleTuple { tuple, .. } => {
                        if let Some(t) = db.relation(*rel).get(*tuple) {
                            out.push(("cfd", *rel, t));
                        }
                    }
                    CfdViolation::Pair { left, right } => {
                        for pos in [left, right] {
                            if let Some(t) = db.relation(*rel).get(*pos) {
                                out.push(("cfd", *rel, t));
                            }
                        }
                    }
                },
                Violation::Cind { violation, rel, .. } => {
                    if let Some(t) = db.relation(*rel).get(violation.tuple) {
                        out.push(("cind", *rel, t));
                    }
                }
            }
        }
        out
    }
}

/// Resolves a raw [`SigmaReport`] against the compiled suite into the
/// user-facing [`QualityReport`].
fn resolve_report(
    validator: &Validator,
    tuples_checked: usize,
    report: SigmaReport,
) -> QualityReport {
    let mut violations = Vec::with_capacity(report.len());
    let summary = ViolationSummary {
        tuples_checked,
        cfd_violations: report.cfd.len(),
        cind_violations: report.cind.len(),
    };
    for (i, v) in report.cfd {
        violations.push(Violation::Cfd {
            constraint: i,
            violation: v,
            rel: validator.cfds()[i].rel(),
        });
    }
    for (i, v) in report.cind {
        violations.push(Violation::Cind {
            constraint: i,
            violation: v,
            rel: validator.cinds()[i].lhs_rel(),
        });
    }
    QualityReport {
        summary,
        violations,
    }
}

/// A live data-quality monitor: a [`QualitySuite`] bound to one evolving
/// database through the `condep-validate` delta engine.
///
/// The monitor keeps no violation state of its own: it reads the
/// stream's live violation set, which the stream maintains from its
/// own deltas. So a monitor ingesting an insert/delete stream never
/// re-validates the database, yet [`QualityMonitor::summary`] and
/// [`QualityMonitor::report`] always match what [`QualitySuite::check`]
/// would report from scratch. `summary()` is O(1); `report()` collects
/// and sorts the live set, O(V log V) in the V live violations.
#[derive(Clone, Debug)]
pub struct QualityMonitor {
    stream: ValidatorStream,
    /// Online-discovery loop, when enabled.
    online: Option<OnlineState>,
}

/// Counters of what a monitor's online-discovery loop has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineActivity {
    /// Proposal polls run (one per elapsed window).
    pub polls: usize,
    /// Dependencies proposed across all polls (pre-deduplication).
    pub proposed: usize,
    /// Dependencies promoted into the live suite.
    pub promoted: usize,
    /// Promoted dependencies later retired on confidence decay.
    pub retired: usize,
}

impl Export for OnlineActivity {
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.counter(k("polls"), self.polls as u64);
        out.counter(k("proposed"), self.proposed as u64);
        out.counter(k("promoted"), self.promoted as u64);
        out.counter(k("retired"), self.retired as u64);
    }
}

/// The online-discovery state bound to a monitor: the incremental miner
/// plus the bookkeeping of what it promoted.
#[derive(Clone, Debug)]
struct OnlineState {
    miner: OnlineMiner,
    /// `miner.ops()` at the last proposal poll.
    polled_at: u64,
    /// Σ indices of monitor-promoted dependencies — the only ones the
    /// decay pass may retire (user-supplied Σ is never touched).
    promoted_cfds: Vec<usize>,
    promoted_cinds: Vec<usize>,
    activity: OnlineActivity,
}

impl QualityMonitor {
    /// Enables **online discovery**: an incremental [`OnlineMiner`] is
    /// seeded from the current database and fed every effective
    /// mutation the monitor ingests. Every `config.window` effective
    /// mutations the monitor polls the miner's proposals, deduplicates
    /// them against the live suite through the exact Σ cover, promotes
    /// the genuinely new dependencies into the running validator (no
    /// re-materialization, no re-sweep of Σ), and retires previously
    /// promoted dependencies whose streamed confidence decayed below
    /// `config.retire_confidence`.
    pub fn with_online_discovery(mut self, config: OnlineConfig) -> Self {
        let mut miner = OnlineMiner::new(self.stream.db().schema().clone(), config);
        miner.seed(self.stream.db());
        self.online = Some(OnlineState {
            miner,
            polled_at: 0,
            promoted_cfds: Vec::new(),
            promoted_cinds: Vec::new(),
            activity: OnlineActivity::default(),
        });
        self
    }

    /// Ingests a window of value-level [`Mutation`]s through the stream's
    /// one mutation entry ([`ValidatorStream::apply_deltas`]): each
    /// arriving tuple is symbolized once and each touched key group
    /// probed once. Returns the streamed deltas in the stream's fixed
    /// shape: one per insert or delete and two per update, with the empty
    /// delta wherever nothing changed. An ill-typed mutation (or one
    /// naming a relation outside the schema) applies nothing.
    ///
    /// With online discovery on, the mutations and their deltas are then
    /// walked in lockstep: a delta that retired a tuple feeds
    /// [`OnlineMiner::observe_delete`] and one that bore a tuple feeds
    /// [`OnlineMiner::observe_insert`], the tuple borrowed from `muts`.
    pub fn ingest_batch(&mut self, muts: &[Mutation]) -> Result<Vec<SigmaDelta>, ModelError> {
        let deltas = self.stream.apply_deltas(muts)?;
        if let Some(state) = self.online.as_mut() {
            let mut slots = deltas.iter();
            for m in muts {
                let (rel, gone, arrived) = match m {
                    Mutation::Insert { rel, tuple } => (*rel, None, Some(tuple)),
                    Mutation::Delete { rel, tuple } => (*rel, Some(tuple), None),
                    Mutation::Update { rel, old, new } => (*rel, Some(old), Some(new)),
                };
                // An update's delete slot comes before its insert slot.
                if let Some(t) = gone {
                    if slots.next().is_some_and(|d| d.ids.retired.is_some()) {
                        state.miner.observe_delete(rel, t);
                    }
                }
                if let Some(t) = arrived {
                    if slots.next().is_some_and(|d| d.ids.born.is_some()) {
                        state.miner.observe_insert(rel, t);
                    }
                }
            }
        }
        self.poll_online();
        Ok(deltas)
    }

    /// Runs one online-discovery poll when the configured window of
    /// effective mutations has elapsed: decay-retire first (so a fading
    /// dependency cannot suppress its own replacement in the cover),
    /// then dedup-and-promote the current proposals.
    fn poll_online(&mut self) {
        let Some(mut state) = self.online.take() else {
            return;
        };
        let window = (state.miner.config().window as u64).max(1);
        if state.miner.ops() < state.polled_at + window {
            self.online = Some(state);
            return;
        }
        state.polled_at = state.miner.ops();
        state.activity.polls += 1;

        // Decay pass: only monitor-promoted dependencies are eligible.
        let retire_confidence = state.miner.config().retire_confidence;
        let decayed = |idx: &&usize, kind: u8| -> bool {
            let v = self.stream.validator();
            let i = **idx;
            match kind {
                0 if !v.is_cfd_retired(i) => state
                    .miner
                    .confidence_of_cfd(&v.cfds()[i])
                    .is_some_and(|(_, c)| c < retire_confidence),
                1 if !v.is_cind_retired(i) => state
                    .miner
                    .confidence_of_cind(&v.cinds()[i])
                    .is_some_and(|(_, c)| c < retire_confidence),
                _ => false,
            }
        };
        let retire_cfds: Vec<usize> = state
            .promoted_cfds
            .iter()
            .filter(|i| decayed(i, 0))
            .copied()
            .collect();
        let retire_cinds: Vec<usize> = state
            .promoted_cinds
            .iter()
            .filter(|i| decayed(i, 1))
            .copied()
            .collect();
        if !retire_cfds.is_empty() || !retire_cinds.is_empty() {
            state.activity.retired += retire_cfds.len() + retire_cinds.len();
            self.retire_dependencies(&retire_cfds, &retire_cinds)
                .expect("promoted indices are assigned");
        }

        // Promotion pass: dedup proposals against the active suite via
        // the exact Σ cover — a proposal that is (or is subsumed by) an
        // active dependency merges away; only genuinely new rows
        // splice in.
        let proposals = state.miner.proposals();
        state.activity.proposed += proposals.len();
        if !proposals.is_empty() {
            let validator = self.stream.validator();
            let mut cover_cfds: Vec<NormalCfd> = (0..validator.cfds().len())
                .filter(|&i| !validator.is_cfd_retired(i))
                .map(|i| validator.cfds()[i].clone())
                .collect();
            let n_active_cfds = cover_cfds.len();
            cover_cfds.extend(proposals.cfds.iter().map(|d| d.cfd.clone()));
            let mut cover_cinds: Vec<NormalCind> = (0..validator.cinds().len())
                .filter(|&i| !validator.is_cind_retired(i))
                .map(|i| validator.cinds()[i].clone())
                .collect();
            let n_active_cinds = cover_cinds.len();
            cover_cinds.extend(proposals.cinds.iter().map(|d| d.cind.clone()));
            let cover = SigmaCover::exact(&cover_cfds, &cover_cinds);
            let new_cfds: Vec<NormalCfd> = proposals
                .cfds
                .iter()
                .enumerate()
                .filter(|(i, _)| matches!(cover.cfd[n_active_cfds + i], CoverRole::Keep { .. }))
                .map(|(_, d)| d.cfd.clone())
                .collect();
            let new_cinds: Vec<NormalCind> = proposals
                .cinds
                .iter()
                .enumerate()
                .filter(|(i, _)| matches!(cover.cind[n_active_cinds + i], CoverRole::Keep { .. }))
                .map(|(_, d)| d.cind.clone())
                .collect();
            if !new_cfds.is_empty() || !new_cinds.is_empty() {
                let cfd_start = validator.cfds().len();
                let cind_start = validator.cinds().len();
                state
                    .promoted_cfds
                    .extend(cfd_start..cfd_start + new_cfds.len());
                state
                    .promoted_cinds
                    .extend(cind_start..cind_start + new_cinds.len());
                state.activity.promoted += new_cfds.len() + new_cinds.len();
                self.add_dependencies(new_cfds, new_cinds);
            }
        }
        self.online = Some(state);
    }

    /// Promotes dependencies into the **live** monitored suite (see
    /// [`ValidatorStream::add_dependencies`]): only the affected groups
    /// recompile, and the newcomers' violations join the live set.
    /// Returns those violations.
    pub fn add_dependencies(
        &mut self,
        cfds: Vec<NormalCfd>,
        cinds: Vec<NormalCind>,
    ) -> SigmaReport {
        self.stream.add_dependencies(cfds, cinds)
    }

    /// Retires dependencies from the live monitored suite (see
    /// [`ValidatorStream::retire_dependencies`]); their violations
    /// leave the live set and are returned. An index the suite never
    /// assigned is an error, and then nothing is retired.
    pub fn retire_dependencies(
        &mut self,
        cfd_idxs: &[usize],
        cind_idxs: &[usize],
    ) -> Result<SigmaReport, UnknownDependency> {
        self.stream.retire_dependencies(cfd_idxs, cind_idxs)
    }

    /// The online miner, when online discovery is enabled.
    pub fn online_miner(&self) -> Option<&OnlineMiner> {
        self.online.as_ref().map(|s| &s.miner)
    }

    /// What the online-discovery loop has done so far.
    pub fn online_activity(&self) -> Option<OnlineActivity> {
        self.online.as_ref().map(|s| s.activity)
    }

    /// Σ indices of the dependencies the online loop promoted (live and
    /// since-retired alike), as `(cfds, cinds)`.
    pub fn online_promoted(&self) -> Option<(&[usize], &[usize])> {
        self.online
            .as_ref()
            .map(|s| (s.promoted_cfds.as_slice(), s.promoted_cinds.as_slice()))
    }

    /// The live counters, read from the stream in O(1) (no validation
    /// run).
    pub fn summary(&self) -> ViolationSummary {
        let (cfd_violations, cind_violations) = self.stream.violation_counts();
        ViolationSummary {
            cfd_violations,
            cind_violations,
            tuples_checked: self.stream.db().total_tuples(),
        }
    }

    /// The current database.
    pub fn db(&self) -> &Database {
        self.stream.db()
    }

    /// The live compiled suite under monitoring (reflects every
    /// [`QualityMonitor::add_dependencies`] /
    /// [`QualityMonitor::retire_dependencies`] and the online loop's
    /// promotions).
    pub fn validator(&self) -> &Validator {
        self.stream.validator()
    }

    /// A point-in-time health snapshot: the tail of the stream's
    /// activity journal and the full metric set — live violation counts,
    /// window latency percentiles, the journal's lifetime event count,
    /// online-loop activity — everything an operator dashboard polls, in
    /// one call and one JSON document ([`HealthSnapshot::to_json`]).
    pub fn health(&self) -> HealthSnapshot {
        let telemetry = self.stream.telemetry();
        let mut metrics = telemetry.snapshot();
        self.summary().export("monitor.violations", &mut metrics);
        metrics.counter("monitor.journal.events", telemetry.journal().total());
        if let Some(state) = &self.online {
            state.activity.export("monitor.online", &mut metrics);
            let (values, classes) = state.miner.sketch_size();
            let k = |name| condep_telemetry::key("monitor.online", name);
            metrics.gauge(k("values"), values as i64);
            metrics.gauge(k("classes"), classes as i64);
        }
        HealthSnapshot {
            journal: telemetry.journal_tail(HEALTH_JOURNAL_TAIL),
            metrics,
        }
    }

    /// The full current report, resolved from the stream's live set
    /// ([`ValidatorStream::current_report`]) — equal to re-checking the
    /// database from scratch, without the sweep. Collects and sorts the
    /// live set: O(V log V) in the V live violations.
    pub fn report(&self) -> QualityReport {
        resolve_report(
            self.stream.validator(),
            self.stream.db().total_tuples(),
            self.stream.current_report(),
        )
    }
}

/// How many of the newest journal events a [`HealthSnapshot`] carries.
const HEALTH_JOURNAL_TAIL: usize = 32;

/// What [`QualityMonitor::health`] returns: the monitor's live state as
/// plain data, serializable to one JSON document.
///
/// Every figure lives once, in `metrics`; read one by key
/// ([`MetricsSnapshot::get`]). With the stream's recording switched off
/// ([`ValidatorStream::set_telemetry_enabled`]) the `stream.*` metrics
/// and `monitor.journal.events` read zero and the journal is empty; the
/// `monitor.violations.*` and `monitor.online.*` counters are always
/// live.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// The newest journal events (up to 32), oldest first: per-window
    /// mutation/violation churn, online promote/retire.
    pub journal: Vec<JournalEvent>,
    /// Every stream metric (the window latency histogram is
    /// `stream.apply.window_us`); the live violation counts under
    /// `monitor.violations.*`; the journal's lifetime event count (≥
    /// `journal.len()`: the ring forgets, this count does not) as
    /// `monitor.journal.events`; and, when online discovery is on, the
    /// loop's counters and the miner's sketch size
    /// ([`OnlineMiner::sketch_size`], as the gauges
    /// `monitor.online.values` and `monitor.online.classes`) under
    /// `monitor.online.*`.
    pub metrics: MetricsSnapshot,
}

impl HealthSnapshot {
    /// Renders the snapshot as one pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("journal");
        w.begin_array();
        for e in &self.journal {
            e.write_json(&mut w);
        }
        w.end_array();
        w.key("metrics");
        self.metrics.write_json(&mut w);
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_cfd::fixtures as cfd_fixtures;
    use condep_core::fixtures as cind_fixtures;
    use condep_model::fixtures::{bank_database, bank_schema, clean_bank_database};
    use condep_model::tuple;

    /// Ingests one arriving tuple as a window of one, returning its
    /// delta.
    fn insert(monitor: &mut QualityMonitor, rel: RelId, tuple: Tuple) -> SigmaDelta {
        let mut deltas = monitor
            .ingest_batch(&[Mutation::Insert { rel, tuple }])
            .unwrap();
        deltas.remove(0)
    }

    /// Ingests one departing tuple as a window of one, returning its
    /// delta.
    fn delete(monitor: &mut QualityMonitor, rel: RelId, tuple: Tuple) -> SigmaDelta {
        let mut deltas = monitor
            .ingest_batch(&[Mutation::Delete { rel, tuple }])
            .unwrap();
        deltas.remove(0)
    }

    fn bank_suite() -> QualitySuite {
        QualitySuite::new(
            bank_schema(),
            &[
                cfd_fixtures::phi1(),
                cfd_fixtures::phi2(),
                cfd_fixtures::phi3(),
            ],
            &cind_fixtures::figure_2(),
        )
    }

    #[test]
    fn dirty_bank_report_finds_exactly_the_two_paper_errors() {
        // t12 violates ϕ3 (CFD) and t10 violates ψ6 (CIND).
        let suite = bank_suite();
        let db = bank_database();
        let report = suite.check(&db);
        assert_eq!(report.summary.cfd_violations, 1);
        assert_eq!(report.summary.cind_violations, 1);
        assert!(!report.summary.is_clean());
        let offenders = suite.offending_tuples(&db, &report);
        assert_eq!(offenders.len(), 2);
    }

    #[test]
    fn clean_bank_report_is_clean() {
        let suite = bank_suite();
        let report = suite.check(&clean_bank_database());
        assert!(report.summary.is_clean());
        assert_eq!(report.summary.tuples_checked, 14);
    }

    #[test]
    fn suite_consistency_check_finds_a_witness() {
        let suite = bank_suite();
        let witness = suite
            .check_consistency(&CheckingConfig::default())
            .expect("Figure 2 + Figure 4 are consistent");
        assert!(!witness.is_empty());
    }

    #[test]
    fn monitor_consumes_introductions_and_retractions() {
        let suite = bank_suite();
        let (mut monitor, initial) = suite.monitor(bank_database());
        // Seeded with the dirty instance: the paper's two errors.
        assert_eq!(initial.summary.total(), 2);
        assert_eq!(monitor.summary().total(), 2);
        let interest = suite.schema().rel_id("interest").unwrap();
        // A fresh violation raises the counters...
        let bad = tuple!["GLA", "UK", "checking", "9.9%"];
        let delta = insert(&mut monitor, interest, bad.clone());
        assert!(!delta.is_quiet());
        let raised = monitor.summary().total();
        assert!(raised > 2, "summary must rise: {raised}");
        // ... and deleting it streams the retraction back down.
        let gone = delete(&mut monitor, interest, bad);
        assert!(!gone.resolved().is_empty());
        assert_eq!(monitor.summary().total(), 2);
        // The delta-maintained summary matches a from-scratch check.
        let fresh = suite.check(monitor.db());
        assert_eq!(monitor.summary(), fresh.summary);
        assert_eq!(monitor.report().summary, fresh.summary);
    }

    /// The storage gauge `name` of a monitor's health snapshot.
    fn gauge(monitor: &QualityMonitor, name: &str) -> i64 {
        match monitor.health().metrics.get(name) {
            Some(condep_telemetry::MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: {other:?}"),
        }
    }

    /// A batch that inserts, updates and deletes one tuple leaves the
    /// database where it began, so the stream's key groups and strings
    /// must come back to their seed counts with no maintenance call.
    #[test]
    fn monitor_ingests_batches_without_storage_drift() {
        let suite = bank_suite();
        let (mut monitor, initial) = suite.monitor(bank_database());
        assert_eq!(initial.summary.total(), 2);
        let storage = |m: &QualityMonitor| {
            (
                gauge(m, "stream.index.keys"),
                gauge(m, "stream.interner.strings"),
            )
        };
        let seeded = storage(&monitor);
        let interest = suite.schema().rel_id("interest").unwrap();
        let deltas = monitor
            .ingest_batch(&[
                Mutation::Insert {
                    rel: interest,
                    tuple: condep_model::tuple!["GLA", "UK", "checking", "9.9%"],
                },
                Mutation::Update {
                    rel: interest,
                    old: condep_model::tuple!["GLA", "UK", "checking", "9.9%"],
                    new: condep_model::tuple!["GLA", "UK", "checking", "1.5%"],
                },
                Mutation::Delete {
                    rel: interest,
                    tuple: condep_model::tuple!["GLA", "UK", "checking", "1.5%"],
                },
            ])
            .unwrap();
        assert!(!deltas.is_empty());
        assert_eq!(storage(&monitor), seeded, "churn leaves nothing behind");
        // The live state survives the batch and still equals a
        // from-scratch check.
        let fresh = suite.check(monitor.db());
        assert_eq!(monitor.summary(), fresh.summary);
        assert_eq!(monitor.report().summary, fresh.summary);
        assert_eq!(monitor.summary().total(), 2);
    }

    #[test]
    fn monitor_update_repairs_the_paper_error() {
        let suite = bank_suite();
        let (mut monitor, initial) = suite.monitor(bank_database());
        assert_eq!(initial.summary.cfd_violations, 1);
        let interest = suite.schema().rel_id("interest").unwrap();
        // t12 is the ϕ3 offender: EDI UK checking at 10.5%. Repairing
        // the rate resolves the CFD violation.
        let deltas = monitor
            .ingest_batch(&[Mutation::Update {
                rel: interest,
                old: tuple!["EDI", "UK", "checking", "10.5%"],
                new: tuple!["EDI", "UK", "checking", "1.5%"],
            }])
            .unwrap();
        let [del, ins] = &deltas[..] else {
            panic!("an update gets a delete and an insert delta: {deltas:?}");
        };
        assert_eq!(del.cfd.resolved.len(), 1);
        assert!(ins.cfd.introduced.is_empty());
        assert_eq!(monitor.summary().cfd_violations, 0);
        let fresh = suite.check(monitor.db());
        assert_eq!(monitor.summary(), fresh.summary);
    }

    #[test]
    fn discover_profiles_and_compiles_a_working_suite() {
        // Profile the clean bank instance: the mined suite is satisfied
        // by it (soundness at confidence 1.0), and still *checks* — a
        // dirty tuple surfaces as violations of the discovered Σ′.
        let db = clean_bank_database();
        let (suite, found) = QualitySuite::discover(
            &db,
            &condep_discover::DiscoveryConfig {
                min_support: 2,
                ..condep_discover::DiscoveryConfig::default()
            },
        );
        assert!(!found.is_empty(), "the bank data carries dependencies");
        assert_eq!(suite.cfds().len(), found.cfds.len());
        assert_eq!(suite.cinds().len(), found.cinds.len());
        assert!(
            suite.check(&db).summary.is_clean(),
            "strict discovery output must hold on the profiled instance"
        );
        // Rankings are evidence-sorted.
        for pair in found.cfds.windows(2) {
            assert!(
                pair[0].support > pair[1].support
                    || (pair[0].support == pair[1].support
                        && pair[0].confidence >= pair[1].confidence),
                "ranking must be (support, confidence) descending"
            );
        }
    }

    /// `report()`'s `(constraint, violation)` lists equal a fresh sweep
    /// of the monitor's database under its live Σ.
    fn assert_report_matches_sweep(monitor: &QualityMonitor) {
        let fresh = monitor.validator().validate_sorted(monitor.db());
        let (mut cfd, mut cind) = (Vec::new(), Vec::new());
        for v in monitor.report().violations {
            match v {
                Violation::Cfd {
                    constraint,
                    violation,
                    ..
                } => cfd.push((constraint, violation)),
                Violation::Cind {
                    constraint,
                    violation,
                    ..
                } => cind.push((constraint, violation)),
            }
        }
        assert_eq!(cfd, fresh.cfd);
        assert_eq!(cind, fresh.cind);
    }

    #[test]
    fn monitor_add_and_retire_dependencies_keep_the_report_live() {
        let suite = bank_suite();
        let (mut monitor, initial) = suite.monitor(bank_database());
        assert_eq!(initial.summary.total(), 2);
        // Retire the whole suite out from under the live stream: every
        // standing violation streams back as resolved.
        let all_cfds: Vec<usize> = (0..suite.cfds().len()).collect();
        let all_cinds: Vec<usize> = (0..suite.cinds().len()).collect();
        // An unknown index fails the whole call before anything retires.
        let unknown = monitor.retire_dependencies(&[0, 999], &[]);
        assert_eq!(unknown, Err(condep_validate::UnknownDependency::Cfd(999)));
        assert_eq!(monitor.summary().total(), 2);
        let resolved = monitor.retire_dependencies(&[], &all_cinds).unwrap();
        assert_eq!(resolved.cind.len(), 1, "t10's ψ6 violation resolves");
        assert_eq!(monitor.summary().cind_violations, 0);
        let resolved = monitor.retire_dependencies(&all_cfds, &[]).unwrap();
        assert_eq!(resolved.cfd.len(), 1, "t12's ϕ3 violation resolves");
        assert_eq!(monitor.summary().total(), 0);
        // Splice the same dependencies back in: they take fresh Σ
        // indices past the retired block and re-find both paper errors
        // without re-validating from scratch.
        let introduced = monitor.add_dependencies(suite.cfds().to_vec(), suite.cinds().to_vec());
        assert_eq!(introduced.len(), 2);
        assert!(introduced.cfd.iter().all(|(i, _)| *i >= suite.cfds().len()));
        assert_eq!(monitor.summary().cfd_violations, 1);
        assert_eq!(monitor.summary().cind_violations, 1);
        // The delta engine stays live across the reshaped suite.
        let interest = suite.schema().rel_id("interest").unwrap();
        let bad = tuple!["GLA", "UK", "checking", "9.9%"];
        assert!(!insert(&mut monitor, interest, bad.clone()).is_quiet());
        assert!(monitor.summary().total() > 2);
        delete(&mut monitor, interest, bad);
        assert_eq!(monitor.summary().total(), 2);
        // And the live state still equals a from-scratch batch check.
        let fresh = suite.check(monitor.db());
        assert_eq!(
            monitor.summary().cfd_violations,
            fresh.summary.cfd_violations
        );
        assert_eq!(
            monitor.summary().cind_violations,
            fresh.summary.cind_violations
        );
        assert_report_matches_sweep(&monitor);
    }

    fn city_schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "fact",
                    &[
                        ("city", condep_model::Domain::string()),
                        ("country", condep_model::Domain::string()),
                        ("zip", condep_model::Domain::string()),
                    ],
                )
                .relation("cities", &[("name", condep_model::Domain::string())])
                .finish(),
        )
    }

    fn city_db() -> Database {
        let mut db = Database::empty(city_schema());
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

    #[test]
    fn online_discovery_promotes_then_decay_retires_on_the_stream() {
        let schema = city_schema();
        let suite = QualitySuite::from_normal(schema.clone(), vec![], vec![]);
        let (monitor, initial) = suite.monitor(city_db());
        assert!(initial.summary.is_clean(), "no Σ, nothing to violate");
        let mut monitor = monitor.with_online_discovery(OnlineConfig {
            min_support: 2,
            window: 4,
            ..OnlineConfig::default()
        });
        let fact = schema.rel_id("fact").unwrap();
        // Four clean arrivals: the fourth closes the first window and
        // the poll promotes the planted dependencies into the live
        // suite (city → country, the constant rows, fact[city] ⊆
        // cities[name]) — all satisfied, so the live set stays clean.
        for (city, country, zip) in [
            ("EDI", "UK", "z8"),
            ("NYC", "US", "z9"),
            ("GLA", "UK", "z10"),
            ("EDI", "UK", "z11"),
        ] {
            insert(&mut monitor, fact, tuple![city, country, zip]);
        }
        let activity = monitor.online_activity().unwrap();
        assert_eq!(activity.polls, 1);
        assert!(activity.promoted > 0, "the planted Σ must promote");
        assert_eq!(activity.retired, 0);
        assert_eq!(monitor.summary().total(), 0, "clean data, clean suite");
        let fd_idx = monitor
            .validator()
            .cfds()
            .iter()
            .position(|c| c.lhs_pat().is_all_any() && !c.is_constant_rhs())
            .expect("the variable FD city → country is promoted");
        let (promoted_cfds, promoted_cinds) = monitor.online_promoted().unwrap();
        assert!(promoted_cfds.contains(&fd_idx));
        assert!(!promoted_cinds.is_empty(), "fact[city] ⊆ cities[name]");
        // A dirty arrival now violates the *promoted* dependencies.
        insert(&mut monitor, fact, tuple!["EDI", "US", "z99"]);
        assert!(monitor.summary().cfd_violations > 0);
        let fresh = QualitySuite::from_normal(
            schema.clone(),
            monitor.validator().cfds().to_vec(),
            monitor.validator().cinds().to_vec(),
        )
        .check(monitor.db());
        assert_eq!(
            monitor.summary().cfd_violations,
            fresh.summary.cfd_violations
        );
        // Keep the dirt coming: at the next poll the EDI evidence has
        // decayed below `retire_confidence` and the affected promotions
        // retire, resolving their violations — the still-confident rest
        // (NYC ⇒ US, GLA ⇒ UK, the CINDs) stays live.
        insert(&mut monitor, fact, tuple!["EDI", "US", "z12"]);
        insert(&mut monitor, fact, tuple!["EDI", "US", "z13"]);
        insert(&mut monitor, fact, tuple!["GLA", "UK", "z14"]);
        let activity = monitor.online_activity().unwrap();
        assert_eq!(activity.polls, 2);
        assert!(activity.retired > 0, "decayed promotions must retire");
        assert!(monitor.validator().is_cfd_retired(fd_idx));
        assert_eq!(
            monitor.summary().total(),
            0,
            "retiring the decayed dependencies resolves their violations"
        );
        assert!(
            monitor.validator().cfds().len() > activity.retired,
            "the confident remainder stays live"
        );
        let metrics = monitor.health().metrics;
        assert!(metrics.get("monitor.online.polls").is_some());
        assert_eq!(
            condep_telemetry::misnamed_keys(&metrics),
            Vec::<&str>::new()
        );
        assert_report_matches_sweep(&monitor);
    }

    #[test]
    fn batch_ingest_feeds_only_effective_mutations_to_the_miner() {
        let suite = QualitySuite::from_normal(city_schema(), vec![], vec![]);
        let (monitor, _) = suite.monitor(city_db());
        let mut monitor = monitor.with_online_discovery(OnlineConfig::default());
        assert_eq!(monitor.online_miner().unwrap().ops(), 0, "seed resets ops");
        let fact = city_schema().rel_id("fact").unwrap();
        monitor
            .ingest_batch(&[
                // Present already: a set-semantics no-op.
                Mutation::Insert {
                    rel: fact,
                    tuple: tuple!["EDI", "UK", "z0"],
                },
                // Effective insert (1 op)...
                Mutation::Insert {
                    rel: fact,
                    tuple: tuple!["EDI", "UK", "z8"],
                },
                // ... its duplicate within the same batch: no-op.
                Mutation::Insert {
                    rel: fact,
                    tuple: tuple!["EDI", "UK", "z8"],
                },
                // Absent tuple: no-op.
                Mutation::Delete {
                    rel: fact,
                    tuple: tuple!["ABD", "UK", "z9"],
                },
                // Merge-degenerate update: only the deletion is
                // effective (1 op).
                Mutation::Update {
                    rel: fact,
                    old: tuple!["EDI", "UK", "z8"],
                    new: tuple!["NYC", "US", "z3"],
                },
                // Identity update: no-op.
                Mutation::Update {
                    rel: fact,
                    old: tuple!["GLA", "UK", "z6"],
                    new: tuple!["GLA", "UK", "z6"],
                },
            ])
            .unwrap();
        assert_eq!(
            monitor.online_miner().unwrap().ops(),
            2,
            "only the effective mutations reach the sketches"
        );
    }

    /// The miner and the stream each key their state by ids of their
    /// own refcounted dictionary. Promotions pin Σ constants in the
    /// stream's (`ABD` keeps its symbol through the deletes: a promoted
    /// constant row names it); a batch of deletes frees ids in both
    /// (`DUN` leaves the stream's), and the next batch's new values
    /// take those ids again. The monitor's miner must still equal one
    /// freshly seeded on the live database — same proposals, and the
    /// same probe answers for every promoted dependency — and its live
    /// report a fresh sweep.
    #[test]
    fn online_discovery_survives_freed_and_reused_ids() {
        let schema = city_schema();
        let suite = QualitySuite::from_normal(schema.clone(), vec![], vec![]);
        let (monitor, _) = suite.monitor(city_db());
        let config = OnlineConfig {
            min_support: 2,
            window: 4,
            ..OnlineConfig::default()
        };
        let mut monitor = monitor.with_online_discovery(config);
        let fact = schema.rel_id("fact").unwrap();
        let cities = schema.rel_id("cities").unwrap();
        let ins = |rel, tuple| Mutation::Insert { rel, tuple };
        let del = |rel, tuple| Mutation::Delete { rel, tuple };
        monitor
            .ingest_batch(&[
                ins(cities, tuple!["ABD"]),
                ins(fact, tuple!["ABD", "UK", "z8"]),
                ins(fact, tuple!["ABD", "UK", "z9"]),
                ins(fact, tuple!["DUN", "UK", "z10"]),
                ins(cities, tuple!["DUN"]),
            ])
            .unwrap();
        assert!(monitor.online_activity().unwrap().promoted > 0);
        let strings = |m: &QualityMonitor| gauge(m, "stream.interner.strings");
        let (held, values) = (
            strings(&monitor),
            monitor.online_miner().unwrap().sketch_size().0,
        );
        monitor
            .ingest_batch(&[
                del(fact, tuple!["ABD", "UK", "z8"]),
                del(fact, tuple!["ABD", "UK", "z9"]),
                del(cities, tuple!["ABD"]),
                del(fact, tuple!["EDI", "UK", "z0"]),
                del(fact, tuple!["DUN", "UK", "z10"]),
                del(cities, tuple!["DUN"]),
            ])
            .unwrap();
        assert_report_matches_sweep(&monitor);
        assert!(strings(&monitor) < held, "the deletes free stream strings");
        assert!(
            monitor.online_miner().unwrap().sketch_size().0 < values,
            "the deletes free miner ids"
        );
        monitor
            .ingest_batch(&[
                ins(cities, tuple!["PER"]),
                ins(fact, tuple!["PER", "UK", "z11"]),
                ins(fact, tuple!["PER", "UK", "z12"]),
                ins(fact, tuple!["ABD", "UK", "z13"]),
                del(fact, tuple!["NYC", "US", "z3"]),
                Mutation::Update {
                    rel: fact,
                    old: tuple!["GLA", "UK", "z6"],
                    new: tuple!["DUN", "UK", "z6"],
                },
            ])
            .unwrap();
        let activity = monitor.online_activity().unwrap();
        assert!(activity.polls >= 3, "a poll after the ids were reused");
        assert_report_matches_sweep(&monitor);

        let miner = monitor.online_miner().unwrap();
        let mut fresh = OnlineMiner::new(schema.clone(), config);
        fresh.seed(monitor.db());
        let (got, want) = (miner.proposals(), fresh.proposals());
        let evidence = |p: &condep_discover::online::OnlineProposals| {
            let cfds: Vec<_> = p
                .cfds
                .iter()
                .map(|d| (d.cfd.clone(), d.support, d.confidence.to_bits()))
                .collect();
            let cinds: Vec<_> = p
                .cinds
                .iter()
                .map(|d| (d.cind.clone(), d.support, d.confidence.to_bits()))
                .collect();
            (cfds, cinds)
        };
        assert!(!got.is_empty());
        assert_eq!(evidence(&got), evidence(&want));
        let (promoted_cfds, promoted_cinds) = monitor.online_promoted().unwrap();
        assert!(!promoted_cfds.is_empty() && !promoted_cinds.is_empty());
        let v = monitor.validator();
        for &i in promoted_cfds {
            let cfd = &v.cfds()[i];
            assert_eq!(miner.confidence_of_cfd(cfd), fresh.confidence_of_cfd(cfd));
        }
        for &i in promoted_cinds {
            let cind = &v.cinds()[i];
            assert_eq!(
                miner.confidence_of_cind(cind),
                fresh.confidence_of_cind(cind)
            );
        }
        assert_eq!(miner.sketch_size(), fresh.sketch_size());
    }

    #[test]
    fn online_batch_ingest_rejects_an_out_of_range_relation() {
        let suite = QualitySuite::from_normal(city_schema(), vec![], vec![]);
        let (monitor, _) = suite.monitor(city_db());
        let mut monitor = monitor.with_online_discovery(OnlineConfig::default());
        let missing = RelId(city_schema().len() as u32);
        let err = monitor
            .ingest_batch(&[Mutation::Insert {
                rel: missing,
                tuple: tuple!["EDI", "UK", "z8"],
            }])
            .unwrap_err();
        assert_eq!(err, ModelError::RelOutOfRange(missing.index()));
        assert_eq!(monitor.online_miner().unwrap().ops(), 0);
        assert_eq!(monitor.db().total_tuples(), city_db().total_tuples());
    }

    #[test]
    fn monitor_rejects_a_delete_from_an_out_of_range_relation() {
        let suite = bank_suite();
        let (mut monitor, initial) = suite.monitor(bank_database());
        let missing = RelId(bank_schema().len() as u32);
        let err = monitor
            .ingest_batch(&[Mutation::Delete {
                rel: missing,
                tuple: tuple!["x"],
            }])
            .unwrap_err();
        assert_eq!(err, ModelError::RelOutOfRange(missing.index()));
        assert_eq!(monitor.report().summary, initial.summary);
    }

    #[test]
    fn health_snapshot_after_a_240_mutation_oracle_run() {
        let suite = bank_suite();
        let (mut monitor, _) = suite.monitor(bank_database());
        let interest = suite.schema().rel_id("interest").unwrap();
        // 240 mutations in 24 windows of 10: each window inserts and
        // then deletes five fresh tuples, so every mutation is
        // effective yet the database (and its two paper errors) ends
        // each window unchanged.
        for w in 0..24 {
            let mut muts = Vec::new();
            for j in 0..5 {
                let t = tuple![format!("C{w}_{j}").as_str(), "UK", "checking", "9.9%"];
                muts.push(Mutation::Insert {
                    rel: interest,
                    tuple: t.clone(),
                });
                muts.push(Mutation::Delete {
                    rel: interest,
                    tuple: t,
                });
            }
            let deltas = monitor.ingest_batch(&muts).unwrap();
            assert_eq!(deltas.len(), 10, "all ten mutations are effective");
        }

        let health = monitor.health();
        let m = &health.metrics;
        let counter = |name: &str| match m.get(name) {
            Some(condep_telemetry::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(
            counter("monitor.violations.cfd") + counter("monitor.violations.cind"),
            2,
            "the paper's two errors remain"
        );
        let Some(condep_telemetry::MetricValue::Histogram(lat)) = m.get("stream.apply.window_us")
        else {
            panic!("window latency histogram missing");
        };
        assert_eq!(lat.count, 24, "one latency sample per window");
        assert!(lat.sum_us >= lat.max_us);
        assert!(lat.p50_us <= lat.p90_us && lat.p90_us <= lat.p99_us);
        assert_eq!(counter("monitor.journal.events"), 24);
        assert_eq!(health.journal.len(), 24, "tail capacity is 32");
        for (i, e) in health.journal.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "oldest first, monotone seqs");
            match e.event {
                condep_telemetry::StreamEvent::Window {
                    mutations,
                    introduced,
                    resolved,
                    ..
                } => {
                    assert_eq!(mutations, 10);
                    assert_eq!(introduced, resolved, "each window nets to zero");
                }
                ref other => panic!("unexpected journal event: {other:?}"),
            }
        }
        // The metric roll-up carries the stream's counters and the
        // monitor-level summary.
        assert_eq!(counter("stream.mutations.inserts"), 120);
        assert_eq!(counter("stream.mutations.deletes"), 120);
        assert_eq!(counter("monitor.violations.cfd"), 1);
        assert_eq!(condep_telemetry::misnamed_keys(m), Vec::<&str>::new());

        // The snapshot round-trips through the JSON writer: valid
        // syntax, all top-level sections present.
        let json = health.to_json();
        assert!(
            condep_telemetry::json::is_valid(&json),
            "health JSON must parse: {json}"
        );
        let tree = condep_telemetry::json::parse(&json).expect("parses");
        let sections: Vec<&str> = tree
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(sections, ["journal", "metrics"]);
        assert_eq!(
            tree.at("metrics.monitor.journal.events")
                .and_then(condep_telemetry::json::JsonValue::as_f64),
            Some(24.0)
        );
    }

    #[test]
    fn report_displays_counts() {
        let suite = bank_suite();
        let report = suite.check(&bank_database());
        let s = report.to_string();
        assert!(s.contains("2 violation(s)"));
        assert!(s.contains("1 CFD"));
        assert!(s.contains("1 CIND"));
    }
}
