//! Stream instrumentation: the handles a [`crate::ValidatorStream`] records
//! through and the journal of its recent activity.
//!
//! Every stream owns one [`StreamTelemetry`] — a private
//! [`Registry`] with pre-resolved counter/histogram handles plus a
//! bounded [`Journal`] — so parallel streams (and parallel tests) never
//! share metric state. Recording sites live on the mutation hot path;
//! the per-call cost is a handful of relaxed atomic adds (hot-loop
//! sites accumulate locally and flush once per mutation) and, for the
//! latency histograms, two clock reads. A stream built disabled
//! ([`StreamTelemetry::disabled`]) reduces every site to one branch.
//!
//! ## Metric names
//!
//! | Name | Kind | Meaning |
//! |---|---|---|
//! | `stream.materialize_us` | histogram | seed build time: row-cache symbolization, group index builds and the seed violation read |
//! | `stream.apply.window_us` | histogram | one `apply_deltas` window that passed its type check (an `apply` call is a window of one) |
//! | `stream.apply.windows` | counter | windows applied, `apply` calls included |
//! | `stream.mutations.inserts` | counter | effective tuple arrivals |
//! | `stream.mutations.deletes` | counter | effective tuple removals |
//! | `stream.mutations.noops` | counter | mutations that changed nothing (every delta they got is empty) |
//! | `stream.probes.hash` | counter | key-group lookups that hashed a key |
//! | `stream.probes.slot` | counter | key-group lookups served probe-free by a slot record |
//! | `stream.pairs.fast_path` | counter | delete-side pair settlements that stayed `O(1)` (witness survived) |
//! | `stream.pairs.recompute` | counter | witness-restructure scopes (full pair recomputation) |
//! | `stream.violations.introduced` | counter | violations introduced, cumulative |
//! | `stream.violations.resolved` | counter | violations resolved, cumulative |
//! | `stream.index.live` | gauge | live positions, summed over the stream's key-group indexes; sampled on each [`ValidatorStream::telemetry`] read |
//! | `stream.index.stored` | gauge | position entries those indexes store, live or spare or dead ([`SymIndex::stored`]); sampled likewise |
//! | `stream.index.keys` | gauge | live key groups over every index tier ([`SymIndex::distinct_keys`]: an emptied group is freed at once); sampled likewise |
//! | `stream.interner.strings` | gauge | live strings in the stream's refcounted dictionary: those resident cached cells hold or CFD pattern constants pin; sampled likewise |
//!
//! [`ValidatorStream::telemetry`]: crate::ValidatorStream::telemetry
//! [`SymIndex::stored`]: condep_model::SymIndex::stored
//! [`SymIndex::distinct_keys`]: condep_model::SymIndex::distinct_keys

use crate::stream::SigmaDelta;
use condep_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Journal, JournalEvent, MetricsSnapshot, Registry,
    StreamEvent,
};

/// How many journal events a stream retains.
const JOURNAL_CAPACITY: usize = 256;

/// Per-stream instrumentation: a private registry, pre-resolved
/// handles, and the bounded activity journal.
///
/// Obtained from [`ValidatorStream::telemetry`]; see the module docs
/// for the metric vocabulary.
///
/// [`ValidatorStream::telemetry`]: crate::ValidatorStream::telemetry
#[derive(Debug)]
pub struct StreamTelemetry {
    registry: Registry,
    journal: Journal,
    pub(crate) materialize_us: Histogram,
    pub(crate) window_us: Histogram,
    pub(crate) windows: Counter,
    pub(crate) inserts: Counter,
    pub(crate) deletes: Counter,
    pub(crate) noops: Counter,
    pub(crate) hash_probes: Counter,
    pub(crate) slot_probes: Counter,
    pub(crate) pair_fast: Counter,
    pub(crate) pair_recompute: Counter,
    pub(crate) introduced: Counter,
    pub(crate) resolved: Counter,
    pub(crate) index_live: Gauge,
    pub(crate) index_stored: Gauge,
    pub(crate) index_keys: Gauge,
    pub(crate) strings: Gauge,
}

impl StreamTelemetry {
    fn with_registry(registry: Registry) -> Self {
        StreamTelemetry {
            materialize_us: registry.histogram("stream.materialize_us"),
            window_us: registry.histogram("stream.apply.window_us"),
            windows: registry.counter("stream.apply.windows"),
            inserts: registry.counter("stream.mutations.inserts"),
            deletes: registry.counter("stream.mutations.deletes"),
            noops: registry.counter("stream.mutations.noops"),
            hash_probes: registry.counter("stream.probes.hash"),
            slot_probes: registry.counter("stream.probes.slot"),
            pair_fast: registry.counter("stream.pairs.fast_path"),
            pair_recompute: registry.counter("stream.pairs.recompute"),
            introduced: registry.counter("stream.violations.introduced"),
            resolved: registry.counter("stream.violations.resolved"),
            index_live: registry.gauge("stream.index.live"),
            index_stored: registry.gauge("stream.index.stored"),
            index_keys: registry.gauge("stream.index.keys"),
            strings: registry.gauge("stream.interner.strings"),
            journal: Journal::with_capacity(JOURNAL_CAPACITY),
            registry,
        }
    }

    /// Fresh recording state.
    pub fn new() -> Self {
        StreamTelemetry::with_registry(Registry::new())
    }

    /// The runtime kill switch: every record reduces to one branch,
    /// every read reports zero/empty.
    pub fn disabled() -> Self {
        StreamTelemetry::with_registry(Registry::disabled())
    }

    /// Whether this telemetry records anything (false when built
    /// [`disabled`](StreamTelemetry::disabled)).
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// The stream's private registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// All metrics, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The activity journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The newest `n` journal events, oldest first.
    pub fn journal_tail(&self, n: usize) -> Vec<JournalEvent> {
        self.journal.tail(n)
    }

    /// Latency distribution of `apply_deltas` windows (`apply` calls
    /// included).
    pub fn window_latency(&self) -> HistogramSnapshot {
        self.window_us.snapshot()
    }

    /// Key-group lookups so far, both flavors — the "groups touched"
    /// baseline a window diffs around its mutations.
    pub(crate) fn probes_total(&self) -> u64 {
        self.hash_probes.get() + self.slot_probes.get()
    }

    /// Books one `apply_deltas` window over its emitted deltas, of
    /// which `noops` mutations changed nothing. The journal event's
    /// `mutations` counts the effective inserts and deletes.
    pub(crate) fn record_window(&mut self, deltas: &[SigmaDelta], noops: u64, groups0: u64) {
        if !self.is_enabled() {
            return;
        }
        self.windows.incr();
        self.noops.add(noops);
        let mut introduced = 0u64;
        let mut resolved = 0u64;
        let mut inserts = 0u64;
        let mut deletes = 0u64;
        for d in deltas {
            introduced += (d.cfd.introduced.len() + d.cind.introduced.len()) as u64;
            resolved += (d.cfd.resolved.len() + d.cind.resolved.len()) as u64;
            inserts += d.ids.born.is_some() as u64;
            deletes += d.ids.retired.is_some() as u64;
        }
        self.inserts.add(inserts);
        self.deletes.add(deletes);
        self.introduced.add(introduced);
        self.resolved.add(resolved);
        self.journal.push(StreamEvent::Window {
            mutations: (inserts + deletes) as u32,
            groups_touched: (self.probes_total() - groups0) as u32,
            introduced: introduced as u32,
            resolved: resolved as u32,
        });
    }

    /// Books a live dependency splice (e.g. an online promotion).
    pub(crate) fn record_promote(&mut self, cfds: usize, cinds: usize, introduced: usize) {
        if !self.is_enabled() {
            return;
        }
        self.introduced.add(introduced as u64);
        self.journal.push(StreamEvent::Promote {
            cfds: cfds as u32,
            cinds: cinds as u32,
            introduced: introduced as u32,
        });
    }

    /// Books a live dependency retirement.
    pub(crate) fn record_retire(&mut self, cfds: usize, cinds: usize, resolved: usize) {
        if !self.is_enabled() {
            return;
        }
        self.resolved.add(resolved as u64);
        self.journal.push(StreamEvent::Retire {
            cfds: cfds as u32,
            cinds: cinds as u32,
            resolved: resolved as u32,
        });
    }
}

impl Default for StreamTelemetry {
    fn default() -> Self {
        StreamTelemetry::new()
    }
}

/// A forked stream records independently: cloning starts **fresh**
/// telemetry (zero counters, empty journal) with the same
/// enabled/disabled setting, rather than sharing or double-counting
/// the original's atomics.
impl Clone for StreamTelemetry {
    fn clone(&self) -> Self {
        if self.is_enabled() {
            StreamTelemetry::new()
        } else {
            StreamTelemetry::disabled()
        }
    }
}
