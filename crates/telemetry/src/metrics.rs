//! Recording instruments: registry, counters, gauges, histograms and
//! span timers.
//!
//! Instruments wrap atomics and clocks. Handles issued by
//! [`Registry::disabled`] carry no storage, so recording through them
//! costs one branch: the runtime kill switch the overhead guard test
//! uses to A/B the instrumented hot path inside a single binary.

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing event counter handle.
///
/// Cheap to clone (shared storage); a handle from a disabled
/// registry records nothing.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` events.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Relaxed);
        }
    }

    /// Adds one event.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current count (0 for a disabled handle).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Relaxed))
    }
}

/// A signed level that can move both ways (resident bytes, live groups).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the level.
    #[inline(always)]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Relaxed);
        }
    }

    /// Moves the level by `delta`.
    #[inline(always)]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Relaxed);
        }
    }

    /// Current level (0 for a disabled handle).
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Relaxed))
    }
}

/// Storage behind an enabled [`Histogram`] handle: one bucket per
/// bit-length, so bucket `i` (i ≥ 1) covers `[2^(i-1), 2^i - 1]`
/// and bucket 0 holds exact zeros. The sample count is the buckets'
/// sum, read at snapshot time.
#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; 64],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucket microsecond latency histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample, in microseconds.
    #[inline(always)]
    pub fn record_us(&self, us: u64) {
        if let Some(core) = &self.0 {
            core.buckets[bucket_of(us)].fetch_add(1, Relaxed);
            core.sum.fetch_add(us, Relaxed);
            core.max.fetch_max(us, Relaxed);
        }
    }

    /// Whether this handle has storage (false for disabled handles).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Summarizes the recorded distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(core) = &self.0 else {
            return HistogramSnapshot::default();
        };
        let counts: Vec<u64> = core.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let mut snap = HistogramSnapshot {
            count,
            sum_us: core.sum.load(Relaxed),
            max_us: core.max.load(Relaxed),
            ..HistogramSnapshot::default()
        };
        if count == 0 {
            return snap;
        }
        // A bucket's upper bound can overshoot the largest sample it
        // holds; no percentile reads above the observed max.
        snap.p50_us = quantile(&counts, count, 50).min(snap.max_us);
        snap.p90_us = quantile(&counts, count, 90).min(snap.max_us);
        snap.p99_us = quantile(&counts, count, 99).min(snap.max_us);
        snap
    }
}

/// Bucket index for `us`: its bit length, capped to 63.
#[inline(always)]
fn bucket_of(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(63)
}

/// Largest value bucket `b` can contain.
fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        63 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Upper bound of the bucket containing the `pct`-th percentile
/// rank (`ceil(pct/100 · count)`, 1-based).
fn quantile(counts: &[u64], count: u64, pct: u64) -> u64 {
    let rank = (count * pct).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (b, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_upper(b);
        }
    }
    bucket_upper(63)
}

/// RAII guard: measures from construction to drop (or [`stop`])
/// and records the elapsed microseconds into a [`Histogram`].
///
/// [`stop`]: SpanTimer::stop
#[derive(Debug)]
pub struct SpanTimer {
    inner: Option<(Instant, Histogram)>,
}

impl SpanTimer {
    /// Starts timing into `hist`. A disabled handle skips the
    /// clock read entirely.
    #[inline]
    pub fn start(hist: &Histogram) -> SpanTimer {
        SpanTimer {
            inner: hist.is_enabled().then(|| (Instant::now(), hist.clone())),
        }
    }

    /// Stops early and returns the recorded microseconds
    /// (0 when disabled).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        match self.inner.take() {
            Some((t0, hist)) => {
                let us = t0.elapsed().as_micros() as u64;
                hist.record_us(us);
                us
            }
            None => 0,
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A started wall clock for phase timing; reads do not record
/// anywhere, callers store the result themselves.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Microseconds since start.
    #[inline]
    pub fn elapsed_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }

    /// Milliseconds since start.
    #[inline]
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}

/// What a registry slot stores.
#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

/// The registry's storage: named slots behind one lock (`None` =
/// the runtime kill switch).
type Slots = Option<Arc<Mutex<Vec<(String, Slot)>>>>;

/// A named collection of instruments.
///
/// `counter`/`gauge`/`histogram` get-or-create by name and hand
/// out clonable handles; registration takes a lock, recording
/// through a handle is lock-free. Clones share storage. The whole
/// registry can be born disabled ([`Registry::disabled`]): it then
/// hands out storage-less handles and snapshots empty.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Slots,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// A registry whose handles all record nothing (the runtime kill
    /// switch).
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether this registry stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn slot<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Slot,
        pick: impl Fn(&Slot) -> Option<T>,
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let mut slots = inner.lock().unwrap();
        if let Some((_, slot)) = slots.iter().find(|(n, _)| n == name) {
            let picked = pick(slot);
            assert!(
                picked.is_some(),
                "metric `{name}` already registered with a different kind"
            );
            return picked;
        }
        let slot = make();
        let picked = pick(&slot);
        slots.push((name.to_string(), slot));
        picked
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.slot(
            name,
            || Slot::Counter(Arc::default()),
            |s| match s {
                Slot::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        ))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.slot(
            name,
            || Slot::Gauge(Arc::default()),
            |s| match s {
                Slot::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        ))
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.slot(
            name,
            || Slot::Histogram(Arc::default()),
            |s| match s {
                Slot::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        ))
    }

    /// Snapshots every registered instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        let Some(inner) = &self.inner else {
            return out;
        };
        for (name, slot) in inner.lock().unwrap().iter() {
            match slot {
                Slot::Counter(c) => out.counter(name.clone(), c.load(Relaxed)),
                Slot::Gauge(g) => out.gauge(name.clone(), g.load(Relaxed)),
                Slot::Histogram(h) => {
                    out.histogram(name.clone(), Histogram(Some(Arc::clone(h))).snapshot())
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        // Bucket 0 = {0}; bucket i covers [2^(i-1), 2^i - 1].
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
        for b in 1..63 {
            // The boundary pair (2^b - 1, 2^b) straddles buckets b, b+1.
            assert_eq!(bucket_of(bucket_upper(b)), b);
            assert_eq!(bucket_of(bucket_upper(b) + 1), b + 1);
        }
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_report_bucket_upper_bounds() {
        let reg = Registry::new();
        let h = reg.histogram("t");
        // 100 samples: 50× 3µs (bucket 2), 40× 10µs (bucket 4),
        // 9× 100µs (bucket 7), 1× 1000µs (bucket 10).
        for _ in 0..50 {
            h.record_us(3);
        }
        for _ in 0..40 {
            h.record_us(10);
        }
        for _ in 0..9 {
            h.record_us(100);
        }
        h.record_us(1000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum_us, 50 * 3 + 40 * 10 + 9 * 100 + 1000);
        assert_eq!(snap.max_us, 1000);
        assert_eq!(snap.p50_us, 3); // rank 50 lands in bucket 2: [2, 3]
        assert_eq!(snap.p90_us, 15); // rank 90 lands in bucket 4: [8, 15]
        assert_eq!(snap.p99_us, 127); // rank 99 lands in bucket 7: [64, 127]
    }

    #[test]
    fn quantiles_never_exceed_the_max() {
        let reg = Registry::new();
        let h = reg.histogram("t");
        // 508 lies inside bucket 9, [256, 511]: its upper bound is not a
        // sample.
        for us in [300, 400, 508] {
            h.record_us(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.max_us, 508);
        assert_eq!((snap.p50_us, snap.p90_us, snap.p99_us), (508, 508, 508));
        // Below the max's bucket the bucket bound still reads.
        h.record_us(2000);
        let snap = h.snapshot();
        assert_eq!((snap.p50_us, snap.p99_us, snap.max_us), (511, 2000, 2000));
    }

    #[test]
    fn single_sample_histogram_pins_all_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("one");
        h.record_us(0);
        let snap = h.snapshot();
        assert_eq!(
            (snap.count, snap.p50_us, snap.p99_us, snap.max_us),
            (1, 0, 0, 0)
        );
    }

    #[test]
    fn registry_hands_out_shared_handles_and_snapshots_sorted() {
        let reg = Registry::new();
        let c1 = reg.counter("z.ops");
        let c2 = reg.counter("z.ops");
        c1.add(2);
        c2.incr();
        assert_eq!(c1.get(), 3);
        reg.gauge("a.level").set(-4);
        reg.histogram("m.lat_us").record_us(5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.level", "m.lat_us", "z.ops"]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = reg.histogram("y");
        h.record_us(10);
        assert_eq!(h.snapshot().count, 0);
        assert!(reg.snapshot().is_empty());
        assert_eq!(SpanTimer::start(&h).stop(), 0);
    }

    #[test]
    fn span_timer_records_once_on_stop_or_drop() {
        let reg = Registry::new();
        let h = reg.histogram("span_us");
        SpanTimer::start(&h).stop();
        {
            let _guard = SpanTimer::start(&h);
        }
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registering_the_same_name_with_another_kind_panics() {
        let reg = Registry::new();
        reg.counter("dual");
        reg.gauge("dual");
    }
}
