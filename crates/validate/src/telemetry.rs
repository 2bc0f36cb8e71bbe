//! Stream instrumentation: what a [`crate::ValidatorStream`] records
//! and the journal of its recent activity.
//!
//! Every stream owns one [`Recorder`] — plain counters, two latency
//! histograms, a bounded [`Journal`] and an on/off flag — so parallel
//! streams (and parallel tests) never share metric state. Recording
//! sites live on the mutation hot path; hot-loop sites accumulate
//! locally and add once per mutation, and the window latency costs two
//! clock reads. With recording off every site reduces to one branch.
//! A read ([`ValidatorStream::telemetry`]) hands out a
//! [`StreamTelemetry`]: the recorder plus the storage gauges, sampled at
//! the read.
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
//! | `stream.interner.strings` | gauge | live strings in the stream's refcounted dictionary: those resident cached cells hold, plus every string constant of Σ (CFD pattern and RHS constants, CIND Xp and Yp constants), which stays pinned while its dependency is compiled; sampled likewise |
//!
//! With recording off every one of these names is still exported, and
//! reads zero.
//!
//! [`ValidatorStream::telemetry`]: crate::ValidatorStream::telemetry
//! [`SymIndex::stored`]: condep_model::SymIndex::stored
//! [`SymIndex::distinct_keys`]: condep_model::SymIndex::distinct_keys

use crate::stream::SigmaDelta;
use condep_telemetry::{
    key, Export, Histogram, HistogramSnapshot, Journal, JournalEvent, MetricsSnapshot, Stopwatch,
    StreamEvent,
};

/// How many journal events a stream retains.
const JOURNAL_CAPACITY: usize = 256;

/// What one stream records: plain counters, the seed-build and window
/// latency histograms, the bounded activity journal and whether
/// recording is on. Every record call is a no-op while it is off.
#[derive(Debug)]
pub(crate) struct Recorder {
    enabled: bool,
    journal: Journal,
    materialize_us: Histogram,
    window_us: Histogram,
    windows: u64,
    inserts: u64,
    deletes: u64,
    noops: u64,
    hash_probes: u64,
    slot_probes: u64,
    pair_fast: u64,
    pair_recompute: u64,
    introduced: u64,
    resolved: u64,
}

impl Recorder {
    /// Zeroed recording state, recording or not.
    pub(crate) fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            journal: Journal::with_capacity(JOURNAL_CAPACITY),
            materialize_us: Histogram::default(),
            window_us: Histogram::default(),
            windows: 0,
            inserts: 0,
            deletes: 0,
            noops: 0,
            hash_probes: 0,
            slot_probes: 0,
            pair_fast: 0,
            pair_recompute: 0,
            introduced: 0,
            resolved: 0,
        }
    }

    /// Whether this recorder books anything.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Books the seed build's wall time.
    pub(crate) fn record_materialize(&mut self, us: u64) {
        if self.enabled {
            self.materialize_us.record_us(us);
        }
    }

    /// Books one mutation's key-group lookups (hashed and slot-served)
    /// and its delete-side pair settlements.
    pub(crate) fn record_probes(&mut self, hash: u64, slot: u64, fast: u64, recompute: u64) {
        if self.enabled {
            self.hash_probes += hash;
            self.slot_probes += slot;
            self.pair_fast += fast;
            self.pair_recompute += recompute;
        }
    }

    /// Starts an `apply_deltas` window: its clock and the key-group
    /// lookups made before it (`None` while recording is off, so a
    /// disabled stream reads no clock).
    pub(crate) fn start_window(&self) -> Option<(Stopwatch, u64)> {
        self.enabled
            .then(|| (Stopwatch::start(), self.hash_probes + self.slot_probes))
    }

    /// Books one `apply_deltas` window over its emitted deltas, of
    /// which `noops` mutations changed nothing. The journal event's
    /// `mutations` counts the effective inserts and deletes.
    pub(crate) fn record_window(
        &mut self,
        start: Option<(Stopwatch, u64)>,
        deltas: &[SigmaDelta],
        noops: u64,
    ) {
        let Some((clock, probes0)) = start else {
            return;
        };
        self.window_us.record_us(clock.elapsed_us());
        self.windows += 1;
        self.noops += noops;
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
        self.inserts += inserts;
        self.deletes += deletes;
        self.introduced += introduced;
        self.resolved += resolved;
        self.journal.push(StreamEvent::Window {
            mutations: (inserts + deletes) as u32,
            groups_touched: (self.hash_probes + self.slot_probes - probes0) as u32,
            introduced: introduced as u32,
            resolved: resolved as u32,
        });
    }

    /// Books a live dependency splice (e.g. an online promotion).
    pub(crate) fn record_promote(&mut self, cfds: usize, cinds: usize, introduced: usize) {
        if !self.enabled {
            return;
        }
        self.introduced += introduced as u64;
        self.journal.push(StreamEvent::Promote {
            cfds: cfds as u32,
            cinds: cinds as u32,
            introduced: introduced as u32,
        });
    }

    /// Books a live dependency retirement.
    pub(crate) fn record_retire(&mut self, cfds: usize, cinds: usize, resolved: usize) {
        if !self.enabled {
            return;
        }
        self.resolved += resolved as u64;
        self.journal.push(StreamEvent::Retire {
            cfds: cfds as u32,
            cinds: cinds as u32,
            resolved: resolved as u32,
        });
    }
}

/// A forked stream records independently: cloning starts **fresh**
/// recording state (zero counters, empty journal) with the same
/// enabled/disabled setting, rather than double-counting the
/// original's history.
impl Clone for Recorder {
    fn clone(&self) -> Self {
        Recorder::new(self.enabled)
    }
}

/// The storage gauges of one [`StreamTelemetry`] read, all zero while
/// recording is off.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StorageGauges {
    pub(crate) index_live: usize,
    pub(crate) index_stored: usize,
    pub(crate) index_keys: usize,
    pub(crate) strings: usize,
}

/// One read of a stream's instrument panel
/// ([`ValidatorStream::telemetry`]): what the stream recorded, with
/// the storage gauges sampled at the read. See the module docs for the
/// metric vocabulary.
///
/// [`ValidatorStream::telemetry`]: crate::ValidatorStream::telemetry
#[derive(Clone, Copy, Debug)]
pub struct StreamTelemetry<'a> {
    recorded: &'a Recorder,
    storage: StorageGauges,
}

impl<'a> StreamTelemetry<'a> {
    pub(crate) fn new(recorded: &'a Recorder, storage: StorageGauges) -> Self {
        StreamTelemetry { recorded, storage }
    }

    /// Whether the stream records anything (false after
    /// [`set_telemetry_enabled(false)`]).
    ///
    /// [`set_telemetry_enabled(false)`]: crate::ValidatorStream::set_telemetry_enabled
    pub fn is_enabled(&self) -> bool {
        self.recorded.enabled
    }

    /// Every `stream.*` metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        self.export("stream", &mut out);
        out
    }

    /// The activity journal.
    pub fn journal(&self) -> &'a Journal {
        &self.recorded.journal
    }

    /// The newest `n` journal events, oldest first.
    pub fn journal_tail(&self, n: usize) -> Vec<JournalEvent> {
        self.recorded.journal.tail(n)
    }

    /// Latency distribution of `apply_deltas` windows (`apply` calls
    /// included).
    pub fn window_latency(&self) -> HistogramSnapshot {
        self.recorded.window_us.snapshot()
    }
}

impl Export for StreamTelemetry<'_> {
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let r = self.recorded;
        let k = |name| key(prefix, name);
        out.histogram(k("materialize_us"), r.materialize_us.snapshot());
        out.histogram(k("apply.window_us"), r.window_us.snapshot());
        for (name, value) in [
            ("apply.windows", r.windows),
            ("mutations.inserts", r.inserts),
            ("mutations.deletes", r.deletes),
            ("mutations.noops", r.noops),
            ("probes.hash", r.hash_probes),
            ("probes.slot", r.slot_probes),
            ("pairs.fast_path", r.pair_fast),
            ("pairs.recompute", r.pair_recompute),
            ("violations.introduced", r.introduced),
            ("violations.resolved", r.resolved),
        ] {
            out.counter(k(name), value);
        }
        let s = self.storage;
        for (name, value) in [
            ("index.live", s.index_live),
            ("index.stored", s.index_stored),
            ("index.keys", s.index_keys),
            ("interner.strings", s.strings),
        ] {
            out.gauge(k(name), value as i64);
        }
    }
}
