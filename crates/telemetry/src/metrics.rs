//! Recording instruments: the log2-bucket histogram and the stopwatch.
//!
//! Both are plain values. An owner keeps them (and its counters, as
//! plain integers) in its own fields and writes them into a
//! [`MetricsSnapshot`](crate::MetricsSnapshot) through
//! [`Export`](crate::Export) when it is read.

use crate::snapshot::HistogramSnapshot;
use std::time::Instant;

/// A log2-bucket microsecond latency histogram: one bucket per
/// bit-length, so bucket `i` (i ≥ 1) covers `[2^(i-1), 2^i - 1]` and
/// bucket 0 holds exact zeros. The sample count is the buckets' sum,
/// read at snapshot time.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample, in microseconds.
    #[inline]
    pub fn record_us(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.sum += us;
        self.max = self.max.max(us);
    }

    /// Summarizes the recorded distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count: u64 = self.buckets.iter().sum();
        let mut snap = HistogramSnapshot {
            count,
            sum_us: self.sum,
            max_us: self.max,
            ..HistogramSnapshot::default()
        };
        if count == 0 {
            return snap;
        }
        // A bucket's upper bound can overshoot the largest sample it
        // holds; no percentile reads above the observed max.
        snap.p50_us = quantile(&self.buckets, count, 50).min(snap.max_us);
        snap.p90_us = quantile(&self.buckets, count, 90).min(snap.max_us);
        snap.p99_us = quantile(&self.buckets, count, 99).min(snap.max_us);
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
        let mut h = Histogram::default();
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
        let mut h = Histogram::default();
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
        let mut h = Histogram::default();
        h.record_us(0);
        let snap = h.snapshot();
        assert_eq!(
            (snap.count, snap.p50_us, snap.p99_us, snap.max_us),
            (1, 0, 0, 0)
        );
    }
}
