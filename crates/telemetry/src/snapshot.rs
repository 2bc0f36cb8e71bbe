//! Point-in-time metric values: the export surface every report
//! carries. Owners keep their figures in plain fields and write them
//! here through [`Export`] when they are read.

use crate::json::JsonWriter;

/// The value of one named metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing event count.
    Counter(u64),
    /// A signed level that can move both ways (resident bytes, live groups).
    Gauge(i64),
    /// A derived floating-point quantity (rates, milliseconds).
    Float(f64),
    /// A latency distribution summary.
    Histogram(HistogramSnapshot),
}

/// Percentile summary of one log2-bucket microsecond histogram.
///
/// Quantiles are *bucket upper bounds*, clamped to the max: the
/// reported `p99_us` is the largest value the bucket holding the p99
/// rank can contain (`2^i - 1`), or `max_us` when that is smaller, so a
/// percentile never exceeds the observed max. The summary is
/// deterministic given the bucket counts and the max, and never
/// interpolates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples, in microseconds.
    pub sum_us: u64,
    /// Largest recorded sample (exact, not bucketed).
    pub max_us: u64,
    /// Median, rounded up to its bucket upper bound, at most `max_us`.
    pub p50_us: u64,
    /// 90th percentile, rounded up to its bucket upper bound, at most
    /// `max_us`.
    pub p90_us: u64,
    /// 99th percentile, rounded up to its bucket upper bound, at most
    /// `max_us`.
    pub p99_us: u64,
}

/// A sorted `dotted.name → value` map: the unit of metric exchange.
///
/// Names are dotted paths (`stream.apply.window_us`); the JSON writer
/// nests on the dots. Entries are kept sorted by name, so two
/// snapshots built from the same values in any insertion order render
/// byte-identically — the determinism contract every consumer
/// (benches, tests, scoreboard diffs) relies on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces `name`, keeping the entries sorted.
    pub fn set(&mut self, name: impl Into<String>, value: MetricValue) {
        let name = name.into();
        match self
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(&name))
        {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => self.entries.insert(at, (name, value)),
        }
    }

    /// Sets a [`MetricValue::Counter`] entry.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.set(name, MetricValue::Counter(value));
    }

    /// Sets a [`MetricValue::Gauge`] entry.
    pub fn gauge(&mut self, name: impl Into<String>, value: i64) {
        self.set(name, MetricValue::Gauge(value));
    }

    /// Sets a [`MetricValue::Float`] entry.
    pub fn float(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, MetricValue::Float(value));
    }

    /// Sets a [`MetricValue::Histogram`] entry.
    pub fn histogram(&mut self, name: impl Into<String>, value: HistogramSnapshot) {
        self.set(name, MetricValue::Histogram(value));
    }

    /// Looks up one entry by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|at| &self.entries[at].1)
    }

    /// Copies every entry of `other` into `self` under `prefix.`
    /// (or verbatim when `prefix` is empty).
    pub fn merge(&mut self, prefix: &str, other: &MetricsSnapshot) {
        for (name, value) in &other.entries {
            self.set(crate::key(prefix, name), value.clone());
        }
    }

    /// Iterates entries in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keeps only entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&str, &MetricValue) -> bool) {
        self.entries.retain(|(n, v)| keep(n, v));
    }

    /// Renders the snapshot as a pretty-printed JSON object, nesting
    /// on the dots in metric names (`a.b` becomes `{"a": {"b": …}}`).
    ///
    /// A name that is both a leaf and a prefix of deeper names
    /// (`a = 1` next to `a.b = 2`) keeps its leaf value under the
    /// reserved `_value` key inside the object. Keys come out sorted,
    /// so the rendering is deterministic.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the snapshot as one JSON object into an in-progress
    /// [`JsonWriter`] (for embedding as a section of a larger report).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        self.write_range(w, 0, self.entries.len(), 0);
        w.end_object();
    }

    /// Emits entries `[lo, hi)` whose names share a common (dot-complete)
    /// prefix of `depth` bytes, grouping on the next dot level.
    fn write_range(&self, w: &mut JsonWriter, lo: usize, hi: usize, depth: usize) {
        let mut at = lo;
        while at < hi {
            let (name, value) = &self.entries[at];
            let rest = &name[depth..];
            match rest.find('.') {
                None => {
                    // A leaf at this level. If deeper names extend it
                    // (`rest` followed by '.'), the leaf moves into the
                    // group under `_value` when that group is emitted.
                    let group_end = self.group_end(at + 1, hi, depth, rest);
                    if group_end > at + 1 {
                        w.key(rest);
                        w.begin_object();
                        w.key("_value");
                        value.write_json(w);
                        self.write_range(w, at + 1, group_end, depth + rest.len() + 1);
                        w.end_object();
                    } else {
                        w.key(rest);
                        value.write_json(w);
                    }
                    at = group_end;
                }
                Some(dot) => {
                    let head = &rest[..dot];
                    let group_end = self.group_end(at, hi, depth, head);
                    w.key(head);
                    w.begin_object();
                    self.write_range(w, at, group_end, depth + head.len() + 1);
                    w.end_object();
                    at = group_end;
                }
            }
        }
    }

    /// First index in `[from, hi)` whose name does not continue the
    /// group `prefix[..depth] + head + "."`.
    fn group_end(&self, from: usize, hi: usize, depth: usize, head: &str) -> usize {
        let mut end = from;
        while end < hi {
            let name = &self.entries[end].0[depth..];
            if name.len() > head.len()
                && name.starts_with(head)
                && name.as_bytes()[head.len()] == b'.'
            {
                end += 1;
            } else {
                break;
            }
        }
        end
    }
}

impl MetricValue {
    /// Writes this value into an in-progress [`JsonWriter`].
    pub fn write_json(&self, w: &mut JsonWriter) {
        match self {
            MetricValue::Counter(v) => w.value_u64(*v),
            MetricValue::Gauge(v) => w.value_i64(*v),
            MetricValue::Float(v) => w.value_f64(*v),
            MetricValue::Histogram(h) => h.write_json(w),
        }
    }
}

impl HistogramSnapshot {
    /// Writes the summary as a JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("count");
        w.value_u64(self.count);
        w.key("sum_us");
        w.value_u64(self.sum_us);
        w.key("max_us");
        w.value_u64(self.max_us);
        w.key("p50_us");
        w.value_u64(self.p50_us);
        w.key("p90_us");
        w.value_u64(self.p90_us);
        w.key("p99_us");
        w.value_u64(self.p99_us);
        w.end_object();
    }
}

/// Renders a value into a [`MetricsSnapshot`] subtree.
///
/// The unifying interface over the engine's per-layer stats structs
/// (`CompileStats`, `CoverStats`, `SamplingStats`, `PhaseTimings`,
/// `OnlineActivity`, …): each writes its fields under `prefix` and the
/// caller composes subtrees with [`MetricsSnapshot::merge`] or nested
/// prefixes. Implementations must be pure — same struct, same subtree.
pub trait Export {
    /// Writes this value's metrics under `prefix` (dotted; may be empty).
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_stay_sorted_regardless_of_insertion_order() {
        let mut a = MetricsSnapshot::new();
        a.counter("z.last", 1);
        a.counter("a.first", 2);
        a.counter("m.mid", 3);
        let mut b = MetricsSnapshot::new();
        b.counter("m.mid", 3);
        b.counter("z.last", 1);
        b.counter("a.first", 2);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn set_replaces_existing_entries() {
        let mut s = MetricsSnapshot::new();
        s.counter("hits", 1);
        s.counter("hits", 7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("hits"), Some(&MetricValue::Counter(7)));
    }

    #[test]
    fn json_nests_on_dots_with_sorted_keys() {
        let mut s = MetricsSnapshot::new();
        s.counter("stream.apply.mutations", 4);
        s.gauge("stream.groups", -2);
        s.float("repair.net_cost", 1.5);
        let json = s.to_json();
        assert!(crate::json::is_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("\"repair\""));
        assert!(json.contains("\"net_cost\": 1.5"));
        assert!(json.contains("\"mutations\": 4"));
        assert!(json.contains("\"groups\": -2"));
        // "repair" sorts before "stream".
        assert!(json.find("\"repair\"").unwrap() < json.find("\"stream\"").unwrap());
    }

    #[test]
    fn leaf_and_prefix_conflict_uses_the_reserved_value_key() {
        let mut s = MetricsSnapshot::new();
        s.counter("a", 1);
        s.counter("a.b", 2);
        let json = s.to_json();
        assert!(crate::json::is_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("\"_value\": 1"));
        assert!(json.contains("\"b\": 2"));
    }

    #[test]
    fn merge_prefixes_every_entry() {
        let mut inner = MetricsSnapshot::new();
        inner.counter("polls", 9);
        let mut outer = MetricsSnapshot::new();
        outer.merge("online", &inner);
        assert_eq!(outer.get("online.polls"), Some(&MetricValue::Counter(9)));
        outer.merge("", &inner);
        assert_eq!(outer.get("polls"), Some(&MetricValue::Counter(9)));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut s = MetricsSnapshot::new();
        s.float("bad", f64::NAN);
        s.float("worse", f64::INFINITY);
        let json = s.to_json();
        assert!(crate::json::is_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\"worse\": null"));
    }
}
