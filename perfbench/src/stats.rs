//! Sample statistics computed from the benchmark's own clock readings,
//! plus the process's peak resident set.

use std::time::{Duration, Instant};

/// A set of timing samples, kept in seconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn median(&self) -> f64 {
        let s = self.sorted();
        match s.len() {
            0 => 0.0,
            n if n % 2 == 1 => s[n / 2],
            n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank `p`-quantile, but only when at least ten samples
    /// lie beyond it; `None` otherwise.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let s = self.sorted();
        let rank = (p * s.len() as f64).ceil() as usize;
        if rank == 0 || s.len() - rank < 10 {
            return None;
        }
        Some(s[rank - 1])
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        s
    }
}

/// A closed loop's stopping rule. It also reads the peak resident set
/// once the loop's minimum operations have run, so `peak_rss_mb` covers
/// the operations every run makes, however many more a run gets through.
pub struct ClosedLoop {
    start: Instant,
    seconds: f64,
    min: usize,
    peak_rss_mb: f64,
}

impl ClosedLoop {
    /// A loop that runs at least `min` operations, from now on.
    pub fn new(seconds: f64, min: usize) -> Self {
        ClosedLoop {
            start: Instant::now(),
            seconds,
            min,
            peak_rss_mb: 0.0,
        }
    }

    /// Whether to issue another operation after `done`: until `min` have
    /// run, and then while another one, as long as the mean so far, still
    /// ends within `seconds`.
    pub fn keep_going(&mut self, done: &Samples) -> bool {
        if done.len() == self.min && self.peak_rss_mb == 0.0 {
            self.peak_rss_mb = peak_rss_mb();
        }
        done.len() < self.min || self.start.elapsed().as_secs_f64() + done.mean() <= self.seconds
    }

    /// The peak resident set through the minimum operations, in MiB; 0
    /// if the loop stopped short of them.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb
    }
}

/// Runs `f` and returns its wall time with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// The median of `reps` timed runs of `f`; each run gets a fresh input
/// from `prepare`, which is not timed, and its output is dropped
/// outside the timed region.
pub fn median_of<I, T>(
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let mut samples = Samples::new();
    for _ in 0..reps {
        let input = prepare();
        let (d, out) = timed(|| f(input));
        samples.push(d);
        drop(std::hint::black_box(out));
    }
    samples.median()
}

/// A run times at least this many set-ups, and at most the second many.
const SETUP_REPS: (usize, usize) = (3, 200);

/// Between those counts, set-ups stop once they took this long together:
/// the host's speed drifts within a second, so short set-ups are sampled
/// across a few.
const SETUP_SECONDS: f64 = 2.0;

/// Times `build` on copies of `input` until [`SETUP_REPS`] and
/// [`SETUP_SECONDS`] say stop, the last time on `input` itself. Each
/// copy is made before its clock starts and each result but the last is
/// dropped after it stops. The peak resident set is reset just before
/// the last set-up, so `peak_rss_mb` covers the engine from the input it
/// is handed on, not the benchmark's generation or its spare copies.
pub fn setups<I: Clone, T>(input: I, build: impl Fn(I) -> T) -> (Samples, T) {
    let (min, max) = SETUP_REPS;
    let mut samples = Samples::new();
    while samples.len() + 1 < min || (samples.len() + 1 < max && samples.sum() < SETUP_SECONDS) {
        let copy = input.clone();
        let (d, out) = timed(|| build(copy));
        samples.push(d);
        drop(out);
    }
    reset_peak_rss();
    let (d, out) = timed(|| build(input));
    samples.push(d);
    (samples, out)
}

/// Resets this process's peak resident set to its current one. Where the
/// kernel does not offer that, the peak keeps covering the whole run.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(Duration::from_micros(v));
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples([3, 1, 2]).median(), 2e-6);
        assert!((samples([4, 1, 3, 2]).median() - 2.5e-6).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples(1..=999).percentile(0.99), None);
        let s = samples(1..=1000);
        assert_eq!(s.percentile(0.99), Some(990e-6));
    }
}
