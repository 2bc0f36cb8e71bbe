//! Stream instrumentation: the handles a [`ValidatorStream`] records
//! through and the journal of its recent activity.
//!
//! Every stream owns one [`StreamTelemetry`] — a private
//! [`Registry`] with pre-resolved counter/histogram handles plus a
//! bounded [`Journal`] — so parallel streams (and parallel tests) never
//! share metric state. Recording sites live on the mutation hot path;
//! the per-call cost is a handful of relaxed atomic adds (hot-loop
//! sites accumulate locally and flush once per mutation) and, for the
//! latency histograms, two clock reads. With the `telemetry` feature
//! off all of it compiles to nothing; at runtime a stream built while
//! disabled ([`StreamTelemetry::disabled`]) reduces every site to one
//! branch.
//!
//! ## Metric names
//!
//! | Name | Kind | Meaning |
//! |---|---|---|
//! | `stream.materialize_us` | histogram | seed build time: row-cache symbolization, group index builds and the seed violation read |
//! | `stream.apply.mutation_us` | histogram | one single-mutation call (`insert_tuple`/`delete_tuple`; an update is its delete + insert) |
//! | `stream.apply.window_us` | histogram | one `apply_deltas` batch |
//! | `stream.apply.windows` | counter | `apply_deltas` calls |
//! | `stream.compact_us` | histogram | one `compact()` pass |
//! | `stream.compactions` | counter | `compact()` calls |
//! | `stream.mutations.inserts` | counter | effective tuple arrivals |
//! | `stream.mutations.deletes` | counter | effective tuple removals |
//! | `stream.mutations.noops` | counter | mutations that changed nothing |
//! | `stream.probes.hash` | counter | key-group lookups that hashed a key |
//! | `stream.probes.slot` | counter | key-group lookups served probe-free by a slot record |
//! | `stream.pairs.fast_path` | counter | delete-side pair settlements that stayed `O(1)` (witness survived) |
//! | `stream.pairs.recompute` | counter | witness-restructure scopes (full pair recomputation) |
//! | `stream.violations.introduced` | counter | violations introduced, cumulative |
//! | `stream.violations.resolved` | counter | violations resolved, cumulative |

use crate::stream::SigmaDelta;
use condep_telemetry::{
    Counter, Histogram, HistogramSnapshot, Journal, JournalEvent, MetricsSnapshot, Registry,
    StreamEvent,
};

/// How many journal events a stream retains by default
/// ([`StreamTelemetry::set_journal_capacity`] rebounds it at runtime).
const JOURNAL_CAPACITY: usize = 256;

/// Which primitive a single-mutation call performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MutKind {
    /// `insert_tuple`.
    Insert,
    /// `delete_tuple`.
    Delete,
}

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
    pub(crate) mutation_us: Histogram,
    pub(crate) window_us: Histogram,
    pub(crate) compact_us: Histogram,
    pub(crate) windows: Counter,
    pub(crate) compactions: Counter,
    pub(crate) inserts: Counter,
    pub(crate) deletes: Counter,
    pub(crate) noops: Counter,
    pub(crate) hash_probes: Counter,
    pub(crate) slot_probes: Counter,
    pub(crate) pair_fast: Counter,
    pub(crate) pair_recompute: Counter,
    pub(crate) introduced: Counter,
    pub(crate) resolved: Counter,
}

impl StreamTelemetry {
    fn with_registry(registry: Registry) -> Self {
        StreamTelemetry {
            materialize_us: registry.histogram("stream.materialize_us"),
            mutation_us: registry.histogram("stream.apply.mutation_us"),
            window_us: registry.histogram("stream.apply.window_us"),
            compact_us: registry.histogram("stream.compact_us"),
            windows: registry.counter("stream.apply.windows"),
            compactions: registry.counter("stream.compactions"),
            inserts: registry.counter("stream.mutations.inserts"),
            deletes: registry.counter("stream.mutations.deletes"),
            noops: registry.counter("stream.mutations.noops"),
            hash_probes: registry.counter("stream.probes.hash"),
            slot_probes: registry.counter("stream.probes.slot"),
            pair_fast: registry.counter("stream.pairs.fast_path"),
            pair_recompute: registry.counter("stream.pairs.recompute"),
            introduced: registry.counter("stream.violations.introduced"),
            resolved: registry.counter("stream.violations.resolved"),
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
    /// [`disabled`](StreamTelemetry::disabled), and always false with
    /// the `telemetry` feature off).
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

    /// Rebounds the activity journal to keep the newest `capacity`
    /// events (min 1; the default is 256). Long scenario runs raise it
    /// to retain a full event tail; shrinking evicts the oldest
    /// retained events immediately. Sequence numbers and the lifetime
    /// total are unaffected.
    pub fn set_journal_capacity(&mut self, capacity: usize) {
        self.journal.set_capacity(capacity);
    }

    /// The newest `n` journal events, oldest first.
    pub fn journal_tail(&self, n: usize) -> Vec<JournalEvent> {
        self.journal.tail(n)
    }

    /// Latency distribution of `apply_deltas` windows.
    pub fn window_latency(&self) -> HistogramSnapshot {
        self.window_us.snapshot()
    }

    /// Latency distribution of single-mutation calls.
    pub fn mutation_latency(&self) -> HistogramSnapshot {
        self.mutation_us.snapshot()
    }

    /// Share of key-group lookups served probe-free by slot records
    /// (`probes.slot / (probes.slot + probes.hash)`); `None` before any
    /// lookup.
    pub fn probe_cache_hit_rate(&self) -> Option<f64> {
        let slot = self.slot_probes.get();
        let total = slot + self.hash_probes.get();
        (total > 0).then(|| slot as f64 / total as f64)
    }

    /// Key-group lookups so far, both flavors — the "groups touched"
    /// baseline a wrapper diffs around a mutation or window.
    pub(crate) fn probes_total(&self) -> u64 {
        self.hash_probes.get() + self.slot_probes.get()
    }

    /// Books one single-mutation call: counters, plus a
    /// window-of-one journal event when the mutation was effective.
    /// `groups0` is [`probes_total`](Self::probes_total) from before
    /// the call.
    pub(crate) fn record_single(
        &mut self,
        kind: MutKind,
        delta: Option<&SigmaDelta>,
        groups0: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let Some(delta) = delta else {
            self.noops.incr();
            return;
        };
        match kind {
            MutKind::Insert => self.inserts.incr(),
            MutKind::Delete => self.deletes.incr(),
        }
        let introduced = (delta.cfd.introduced.len() + delta.cind.introduced.len()) as u32;
        let resolved = (delta.cfd.resolved.len() + delta.cind.resolved.len()) as u32;
        self.introduced.add(introduced as u64);
        self.resolved.add(resolved as u64);
        self.journal.push(StreamEvent::Window {
            mutations: 1,
            groups_touched: (self.probes_total() - groups0) as u32,
            introduced,
            resolved,
        });
    }

    /// Books one `apply_deltas` window over its emitted deltas.
    pub(crate) fn record_window(&mut self, deltas: &[SigmaDelta], groups0: u64) {
        if !self.is_enabled() {
            return;
        }
        self.windows.incr();
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
            mutations: deltas.len() as u32,
            groups_touched: (self.probes_total() - groups0) as u32,
            introduced: introduced as u32,
            resolved: resolved as u32,
        });
    }

    /// Books one compaction pass.
    pub(crate) fn record_compaction(&mut self, stats: &crate::CompactionStats) {
        if !self.is_enabled() {
            return;
        }
        self.compactions.incr();
        self.journal.push(StreamEvent::Compaction {
            key_groups_dropped: stats.key_groups_dropped as u32,
            strings_dropped: stats.interned_strings_dropped() as u32,
            bytes_reclaimed: stats.interned_bytes_reclaimed() as u64,
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
