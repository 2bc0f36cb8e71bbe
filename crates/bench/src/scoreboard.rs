//! Scoreboard serialization and regression diffing.
//!
//! [`emit`] renders a slice of [`ScenarioResult`]s as one deterministic
//! pretty-printed JSON document (scenario entries keyed by name, keys
//! in fixed order). Every entry has exactly the top-level keys of
//! [`ENTRY_KEYS`]: the workload's identity (`seed`, `fingerprint`), its
//! wall time and throughput per pass, and `metrics`, the one metric
//! snapshot that holds every other figure the run measured.
//! [`validate`] checks a document is well-formed JSON carrying that
//! shape; [`diff`] compares two documents leaf by leaf with
//! class-aware thresholds:
//!
//! - **counters**: every `metrics.*` leaf not ending `_us` (violation
//!   counts, repair accept/reject, stream probe and mutation counts,
//!   histogram sample counts, …) is deterministic for a fixed seed and
//!   gates **exactly** by default — any drift means behavior changed;
//! - **latency**: `elapsed_us.*` and every `metrics.*` leaf ending `_us`
//!   (histogram sums, maxima and percentiles) gate on a relative
//!   threshold with an absolute floor, so machine noise under the floor
//!   never trips the gate;
//! - **throughput**: `throughput.*` gates on a relative drop;
//! - **fingerprint**: `seed` and `fingerprint.*` (and string leaves)
//!   must match exactly or the scenario is reported *incomparable*
//!   (workload shape changed — rebaseline rather than gate).
//!
//! [`parse_args`] reads the `scoreboard` binary's command line.

use crate::scenario::{matrix, ScenarioResult};
use condep_telemetry::json::{self, JsonValue, JsonWriter};
use std::path::PathBuf;

/// Current scoreboard document version ([`emit`] stamps it,
/// [`validate`] requires it).
pub const SCHEMA_VERSION: u64 = 2;

/// The top-level keys of every scenario entry, in emitted order.
pub const ENTRY_KEYS: &[&str] = &[
    "name",
    "seed",
    "fingerprint",
    "elapsed_us",
    "throughput",
    "metrics",
];

/// Renders results as the scoreboard JSON document.
pub fn emit(results: &[ScenarioResult]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema_version");
    w.value_u64(SCHEMA_VERSION);
    w.key("scenarios");
    w.begin_object();
    for r in results {
        w.key(r.name);
        write_entry(&mut w, r);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn write_entry(w: &mut JsonWriter, r: &ScenarioResult) {
    w.begin_object();
    w.key("name");
    w.value_str(r.name);
    w.key("seed");
    w.value_u64(r.seed);

    w.key("fingerprint");
    w.begin_object();
    w.key("rows");
    w.value_u64(r.rows);
    w.key("relations");
    w.value_u64(r.relations);
    w.key("churn_ops");
    w.value_u64(r.churn_ops);
    w.key("passes");
    w.begin_array();
    for p in &r.passes {
        w.value_str(p);
    }
    w.end_array();
    w.end_object();

    w.key("elapsed_us");
    w.begin_object();
    w.key("generate");
    w.value_u64(r.elapsed.generate);
    w.key("sigma");
    w.value_u64(r.elapsed.sigma);
    w.key("validate");
    w.value_u64(r.elapsed.validate);
    w.key("repair");
    w.value_u64(r.elapsed.repair);
    w.key("churn");
    w.value_u64(r.elapsed.churn);
    w.end_object();

    w.key("throughput");
    w.begin_object();
    w.key("validate_tuples_per_s");
    w.value_f64(r.validate_tuples_per_s);
    w.key("churn_ops_per_s");
    w.value_f64(r.churn_ops_per_s);
    w.end_object();

    w.key("metrics");
    r.metrics.write_json(w);
    w.end_object();
}

/// The nested per-scenario keys [`validate`] requires (dotted paths; a
/// listed path must resolve to a non-null value).
pub const REQUIRED_ENTRY_PATHS: &[&str] = &[
    "fingerprint.rows",
    "fingerprint.churn_ops",
    "throughput.validate_tuples_per_s",
    "throughput.churn_ops_per_s",
];

/// Checks a scoreboard document: well-formed JSON (per
/// [`json::parse`]), the schema version, a non-empty scenario map,
/// every entry carrying exactly the [`ENTRY_KEYS`] (none null) and the
/// [`REQUIRED_ENTRY_PATHS`], and every histogram under `metrics` (an
/// object with a `p50_us` leaf) with numeric percentiles in order,
/// `p50_us ≤ p90_us ≤ p99_us ≤ max_us`. Returns the parsed tree on
/// success.
pub fn validate(doc: &str) -> Result<JsonValue, String> {
    let v = json::parse(doc).ok_or("not well-formed JSON")?;
    let version = v
        .at("schema_version")
        .and_then(JsonValue::as_f64)
        .ok_or("missing schema_version")?;
    if version as u64 != SCHEMA_VERSION {
        return Err(format!("schema_version {version} != {SCHEMA_VERSION}"));
    }
    let scenarios = v
        .at("scenarios")
        .and_then(JsonValue::as_object)
        .ok_or("missing scenarios object")?;
    if scenarios.is_empty() {
        return Err("scenarios object is empty".into());
    }
    for (name, entry) in scenarios {
        let fields = entry
            .as_object()
            .ok_or_else(|| format!("scenario {name}: not an object"))?;
        if let Some((extra, _)) = fields
            .iter()
            .find(|(k, _)| !ENTRY_KEYS.contains(&k.as_str()))
        {
            return Err(format!("scenario {name}: unknown key {extra}"));
        }
        for path in ENTRY_KEYS.iter().chain(REQUIRED_ENTRY_PATHS) {
            match entry.at(path) {
                None | Some(JsonValue::Null) => {
                    return Err(format!("scenario {name}: missing required key {path}"));
                }
                Some(_) => {}
            }
        }
        let metrics = entry.get("metrics").expect("required above");
        check_histograms(name, "metrics", metrics)?;
    }
    Ok(v)
}

/// Holds every histogram in the `metrics` subtree `v` (at dotted
/// `path`) to `p50_us ≤ p90_us ≤ p99_us ≤ max_us`: a percentile above
/// the observed max, or out of order, is a statistic the diff gate
/// cannot trust.
fn check_histograms(scenario: &str, path: &str, v: &JsonValue) -> Result<(), String> {
    let Some(fields) = v.as_object() else {
        return Ok(());
    };
    if v.get("p50_us").is_some() {
        let quantiles: Vec<f64> = ["p50_us", "p90_us", "p99_us", "max_us"]
            .iter()
            .map(|q| v.get(q).and_then(JsonValue::as_f64))
            .collect::<Option<_>>()
            .ok_or_else(|| {
                format!("scenario {scenario}: {path} needs numeric p50/p90/p99/max_us")
            })?;
        if quantiles.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "scenario {scenario}: {path} must satisfy \
                 p50_us <= p90_us <= p99_us <= max_us, got {quantiles:?}"
            ));
        }
    }
    for (k, child) in fields {
        check_histograms(scenario, &format!("{path}.{k}"), child)?;
    }
    Ok(())
}

/// How a diffed metric path gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricClass {
    /// Deterministic count: gates exactly (± `counter_frac`).
    Counter,
    /// Wall-time: higher is worse; gates on `latency_frac` with an
    /// absolute floor.
    Latency,
    /// Rate: lower is worse; gates on `throughput_frac`.
    Throughput,
    /// Workload identity: a mismatch makes the scenario incomparable.
    Fingerprint,
}

/// Classifies a dotted path within a scenario entry.
pub fn classify(path: &str) -> MetricClass {
    if path.starts_with("fingerprint.") || path == "seed" {
        MetricClass::Fingerprint
    } else if path.starts_with("elapsed_us.") || path.ends_with("_us") {
        MetricClass::Latency
    } else if path.starts_with("throughput.") {
        MetricClass::Throughput
    } else {
        MetricClass::Counter
    }
}

/// Regression thresholds, one knob per metric class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// Allowed relative latency growth (`0.25` = +25%).
    pub latency_frac: f64,
    /// Latency changes under this many µs never gate.
    pub latency_floor_us: f64,
    /// Allowed relative throughput drop (`0.20` = −20%).
    pub throughput_frac: f64,
    /// Allowed relative counter drift (`0.0` = exact).
    pub counter_frac: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            latency_frac: 0.25,
            latency_floor_us: 50.0,
            throughput_frac: 0.20,
            counter_frac: 0.0,
        }
    }
}

/// One gated deviation.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The scenario the path lives in.
    pub scenario: String,
    /// Dotted path within the entry.
    pub path: String,
    /// Metric class that gated it.
    pub class: MetricClass,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
}

/// What a diff run found.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Gated deviations — non-empty fails the run.
    pub regressions: Vec<Regression>,
    /// Gated-class paths that moved in the *good* direction.
    pub improvements: usize,
    /// Gated-class paths compared.
    pub compared: usize,
    /// Scenario-level problems: fingerprint mismatches and scenarios
    /// missing from the new document. Reported and **gated** (a
    /// vanished scenario is a regression; a changed fingerprint needs
    /// a rebaseline, not a silent pass).
    pub incomparable: Vec<String>,
    /// Scenarios only in the new document (informational).
    pub added: Vec<String>,
    /// `scenario: path` of each leaf only the new document has, in a
    /// scenario both documents hold. **Gated**: a new metric has no
    /// baseline to gate against until the baseline is re-recorded.
    pub added_leaves: Vec<String>,
}

impl DiffReport {
    /// Did the new document pass the gate?
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.incomparable.is_empty() && self.added_leaves.is_empty()
    }
}

/// Flattens an entry to `(dotted path, leaf)` pairs, skipping nulls.
fn flatten<'a>(prefix: &str, v: &'a JsonValue, out: &mut Vec<(String, &'a JsonValue)>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, val, out);
            }
        }
        JsonValue::Null => {}
        JsonValue::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{prefix}.{i}"), item, out);
            }
        }
        _ => out.push((prefix.to_string(), v)),
    }
}

/// Diffs two **validated** scoreboard trees (see [`validate`]) under
/// the thresholds. Scenarios are matched by name.
pub fn diff(base: &JsonValue, new: &JsonValue, t: &Thresholds) -> DiffReport {
    let empty: &[(String, JsonValue)] = &[];
    let base_scenarios = base
        .at("scenarios")
        .and_then(JsonValue::as_object)
        .unwrap_or(empty);
    let new_scenarios = new
        .at("scenarios")
        .and_then(JsonValue::as_object)
        .unwrap_or(empty);
    let mut report = DiffReport::default();

    for (name, _) in new_scenarios {
        if !base_scenarios.iter().any(|(n, _)| n == name) {
            report.added.push(name.clone());
        }
    }

    for (name, base_entry) in base_scenarios {
        let Some(new_entry) = new_scenarios
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e)
        else {
            report
                .incomparable
                .push(format!("{name}: missing from new document"));
            continue;
        };

        let mut base_leaves = Vec::new();
        let mut new_leaves = Vec::new();
        flatten("", base_entry, &mut base_leaves);
        flatten("", new_entry, &mut new_leaves);

        // Fingerprint first: identity mismatch makes every other
        // comparison meaningless for this scenario.
        let mut comparable = true;
        for (path, bv) in &base_leaves {
            if classify(path) != MetricClass::Fingerprint {
                continue;
            }
            let nv = new_leaves.iter().find(|(p, _)| p == path).map(|(_, v)| *v);
            let matches = match (bv, nv) {
                (JsonValue::Str(a), Some(JsonValue::Str(b))) => a == b,
                (JsonValue::Num(a), Some(JsonValue::Num(b))) => a == b,
                _ => false,
            };
            if !matches {
                report.incomparable.push(format!(
                    "{name}: fingerprint {path} changed ({} -> {})",
                    render(bv),
                    nv.map(render).unwrap_or_else(|| "<absent>".into()),
                ));
                comparable = false;
            }
        }
        if !comparable {
            continue;
        }

        for (path, _) in &new_leaves {
            if !base_leaves.iter().any(|(p, _)| p == path) {
                report.added_leaves.push(format!("{name}: {path}"));
            }
        }

        for (path, bv) in &base_leaves {
            let class = classify(path);
            if class == MetricClass::Fingerprint {
                continue;
            }
            let Some(b) = bv.as_f64() else { continue };
            let Some(n) = new_leaves
                .iter()
                .find(|(p, _)| p == path)
                .and_then(|(_, v)| v.as_f64())
            else {
                report.regressions.push(Regression {
                    scenario: name.clone(),
                    path: path.clone(),
                    class,
                    base: b,
                    new: f64::NAN,
                });
                continue;
            };
            report.compared += 1;
            let (regressed, improved) = match class {
                MetricClass::Latency => {
                    let allowed = (b * (1.0 + t.latency_frac)).max(b + t.latency_floor_us);
                    (n > allowed, n < b)
                }
                MetricClass::Throughput => (n < b * (1.0 - t.throughput_frac), n > b),
                MetricClass::Counter => {
                    let drift = (n - b).abs();
                    (drift > b.abs() * t.counter_frac, false)
                }
                MetricClass::Fingerprint => (false, false),
            };
            if regressed {
                report.regressions.push(Regression {
                    scenario: name.clone(),
                    path: path.clone(),
                    class,
                    base: b,
                    new: n,
                });
            } else if improved {
                report.improvements += 1;
            }
        }
    }
    report
}

/// The `scoreboard` binary's usage text.
pub const USAGE: &str = "\
usage: scoreboard run [--out PATH]
       scoreboard run --only NAME[,NAME…] --out PATH
       scoreboard diff BASE NEW [--latency F] [--latency-floor-us N]
                                [--throughput F] [--counter F]
       scoreboard list";

/// A parsed `scoreboard` command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Run the matrix, or the `only` subset of it, and write the
    /// document to `out` (`None`: the committed `SCOREBOARD.json`).
    Run {
        /// Where the document goes.
        out: Option<PathBuf>,
        /// Matrix scenario names to run (in matrix order).
        only: Option<Vec<&'static str>>,
    },
    /// Diff two documents.
    Diff {
        /// The baseline document.
        base: PathBuf,
        /// The document gated against it.
        new: PathBuf,
        /// Defaults overridden by the threshold flags.
        thresholds: Thresholds,
    },
    /// Print the matrix.
    List,
}

/// Parses the `scoreboard` arguments (program name excluded). Every
/// flag takes one value. An unknown or repeated flag, a flag without a
/// value, an `--only` name outside [`matrix`], `--only` without
/// `--out` and a threshold that is not a non-negative number are
/// errors, so a mistyped command never runs on defaults or rewrites
/// the committed baseline with part of the matrix.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "run" => {
            let args = Args::split(rest, &["--out", "--only"])?;
            if let Some(arg) = args.positional.first() {
                return Err(format!("run takes no argument {arg:?}"));
            }
            let out = args.value("--out").map(PathBuf::from);
            let only = match args.value("--only") {
                Some(_) if out.is_none() => {
                    return Err(
                        "--only needs --out, so a subset never replaces the baseline".into(),
                    )
                }
                Some(list) => Some(matrix_names(list)?),
                None => None,
            };
            Ok(Command::Run { out, only })
        }
        "diff" => {
            let flags = [
                "--latency",
                "--latency-floor-us",
                "--throughput",
                "--counter",
            ];
            let args = Args::split(rest, &flags)?;
            let [base, new] = args.positional[..] else {
                let n = args.positional.len();
                return Err(format!("diff takes two documents, got {n}"));
            };
            let mut thresholds = Thresholds::default();
            for (flag, v) in args.flags {
                let x = v
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| format!("{flag} needs a non-negative number, got {v:?}"))?;
                match flag {
                    "--latency" => thresholds.latency_frac = x,
                    "--latency-floor-us" => thresholds.latency_floor_us = x,
                    "--throughput" => thresholds.throughput_frac = x,
                    _ => thresholds.counter_frac = x,
                }
            }
            Ok(Command::Diff {
                base: base.into(),
                new: new.into(),
                thresholds,
            })
        }
        "list" if rest.is_empty() => Ok(Command::List),
        "list" => Err("list takes no arguments".into()),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Resolves a comma-separated list to [`matrix`] scenario names.
fn matrix_names(list: &str) -> Result<Vec<&'static str>, String> {
    let names: Vec<&'static str> = matrix().iter().map(|s| s.name).collect();
    list.split(',')
        .map(|n| {
            let found = names.iter().find(|m| **m == n).copied();
            found.ok_or_else(|| format!("no scenario named {n:?} in the matrix"))
        })
        .collect()
}

/// One command's arguments: positionals and `(flag, value)` pairs.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits `args`, accepting each of the `allowed` flags at most
    /// once and only with a value.
    fn split(args: &'a [String], allowed: &[&'static str]) -> Result<Self, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                out.positional.push(arg);
                continue;
            }
            let Some(&flag) = allowed.iter().find(|f| **f == arg) else {
                return Err(format!("unknown flag {arg}"));
            };
            if out.value(flag).is_some() {
                return Err(format!("{flag} given twice"));
            }
            match args.next() {
                Some(v) if !v.starts_with("--") => out.flags.push((flag, v)),
                _ => return Err(format!("{flag} needs a value")),
            }
        }
        Ok(out)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }
}

fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Str(s) => s.clone(),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Bool(b) => format!("{b}"),
        JsonValue::Null => "null".into(),
        JsonValue::Array(_) => "<array>".into(),
        JsonValue::Object(_) => "<object>".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_knows_the_path_classes() {
        assert_eq!(classify("metrics.stream.probes.hash"), MetricClass::Counter);
        assert_eq!(classify("metrics.analyze.core.cfds"), MetricClass::Counter);
        assert_eq!(
            classify("metrics.repair.fixes.accepted"),
            MetricClass::Counter
        );
        assert_eq!(classify("metrics.repair.total_cost"), MetricClass::Counter);
        assert_eq!(
            classify("metrics.stream.apply.window_us.count"),
            MetricClass::Counter
        );
        assert_eq!(
            classify("metrics.stream.apply.window_us.p99_us"),
            MetricClass::Latency
        );
        assert_eq!(
            classify("metrics.repair.round_us.sum_us"),
            MetricClass::Latency
        );
        assert_eq!(classify("elapsed_us.validate"), MetricClass::Latency);
        assert_eq!(
            classify("throughput.churn_ops_per_s"),
            MetricClass::Throughput
        );
        assert_eq!(classify("fingerprint.rows"), MetricClass::Fingerprint);
        assert_eq!(classify("seed"), MetricClass::Fingerprint);
    }

    fn doc(p99: u64, probes: u64, per_s: f64, rows: u64) -> String {
        format!(
            r#"{{
  "schema_version": 2,
  "scenarios": {{
    "s": {{
      "name": "s",
      "seed": 7,
      "fingerprint": {{"rows": {rows}, "churn_ops": 10}},
      "elapsed_us": {{"churn": 900}},
      "throughput": {{"validate_tuples_per_s": {per_s}, "churn_ops_per_s": {per_s}}},
      "metrics": {{
        "stream": {{
          "apply": {{
            "window_us": {{"count": 4, "sum_us": 30, "max_us": {p99}, "p50_us": 5, "p90_us": 9, "p99_us": {p99}}}
          }},
          "probes": {{"hash": {probes}, "slot": 3}}
        }}
      }}
    }}
  }}
}}"#
        )
    }

    #[test]
    fn validate_accepts_the_schema_and_rejects_missing_keys() {
        let good = doc(12, 2, 100.0, 500);
        validate(&good).expect("valid");
        let bad = good.replace("\"rows\": 500", "\"rowz\": 500");
        assert!(validate(&bad).unwrap_err().contains("fingerprint.rows"));
        let bad = good.replace("\"elapsed_us\": {\"churn\": 900},", "");
        assert!(validate(&bad).unwrap_err().contains("elapsed_us"));
        assert!(validate("{").is_err());
        assert!(validate(r#"{"schema_version": 2, "scenarios": {}}"#).is_err());
        let v1 = good.replace("\"schema_version\": 2", "\"schema_version\": 1");
        assert!(validate(&v1).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn validate_rejects_percentiles_out_of_order() {
        let good = doc(12, 2, 100.0, 500);
        // A p99 above the observed max: an unclamped histogram bucket.
        let above_max = good.replace("\"max_us\": 12", "\"max_us\": 11");
        let err = validate(&above_max).unwrap_err();
        assert!(err.contains("p99_us <= max_us"), "{err}");
        assert!(err.contains("metrics.stream.apply.window_us"), "{err}");
        // A p90 below the p50.
        let inverted = good.replace("\"p90_us\": 9", "\"p90_us\": 4");
        assert!(validate(&inverted)
            .unwrap_err()
            .contains("p50_us <= p90_us"));
        let missing_max = good.replace("\"max_us\": 12, ", "");
        assert!(validate(&missing_max)
            .unwrap_err()
            .contains("needs numeric p50/p90/p99/max_us"));
    }

    /// Every figure lives once, in `metrics`: a block copied beside it
    /// is not part of the entry shape.
    #[test]
    fn validate_rejects_a_hand_copied_block_beside_metrics() {
        let good = doc(12, 2, 100.0, 500);
        for block in [
            "\"online\": {\"polls\": 1, \"values\": 9},",
            "\"repair\": null,",
            "\"latency_us\": {\"p50\": 5},",
        ] {
            let copied = good.replace("\"metrics\": {", &format!("{block} \"metrics\": {{"));
            let err = validate(&copied).unwrap_err();
            assert!(err.contains("unknown key"), "{block}: {err}");
        }
    }

    #[test]
    fn self_diff_is_clean_and_classes_gate_as_designed() {
        let base = validate(&doc(100, 2, 1000.0, 500)).unwrap();
        let t = Thresholds::default();
        let self_diff = diff(&base, &base, &t);
        assert!(self_diff.ok(), "self-diff regressions: {self_diff:?}");
        assert!(self_diff.compared > 0);

        // Latency within floor+frac passes; beyond it gates.
        let fast = validate(&doc(120, 2, 1000.0, 500)).unwrap();
        assert!(diff(&base, &fast, &t).ok());
        let slow = validate(&doc(500, 2, 1000.0, 500)).unwrap();
        let r = diff(&base, &slow, &t);
        assert!(!r.ok());
        assert!(r.regressions.iter().any(|x| {
            x.path == "metrics.stream.apply.window_us.p99_us" && x.class == MetricClass::Latency
        }));

        // Throughput gates on relative drop only.
        let slower = validate(&doc(100, 2, 850.0, 500)).unwrap();
        assert!(diff(&base, &slower, &t).ok());
        let collapsed = validate(&doc(100, 2, 100.0, 500)).unwrap();
        assert!(!diff(&base, &collapsed, &t).ok());

        // Fingerprint change makes the scenario incomparable (gated).
        let reshaped = validate(&doc(100, 2, 1000.0, 999)).unwrap();
        let r = diff(&base, &reshaped, &t);
        assert!(!r.ok());
        assert!(r.regressions.is_empty());
        assert!(r.incomparable[0].contains("fingerprint.rows"));
    }

    /// A leaf only the new document has fails the gate, named by
    /// scenario and path; the reverse diff sees the leaf vanish, a
    /// Counter regression. Checked on the committed baseline with
    /// `wide_sigma`'s `metrics.repair.plan.class_reads` removed.
    #[test]
    fn a_leaf_only_the_new_document_has_fails_the_gate() {
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../SCOREBOARD.json"
        ))
        .expect("SCOREBOARD.json is committed");
        let baseline = validate(&doc).unwrap();
        let mut trimmed = baseline.clone();
        let plan = ["scenarios", "wide_sigma", "metrics", "repair", "plan"]
            .iter()
            .fold(&mut trimmed, |v, key| match v {
                JsonValue::Object(members) => {
                    &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
                }
                _ => panic!("{key}: not an object member"),
            });
        let JsonValue::Object(plan) = plan else {
            panic!("plan object");
        };
        let before = plan.len();
        plan.retain(|(k, _)| k != "class_reads");
        assert_eq!(plan.len(), before - 1);
        let t = Thresholds::default();

        let r = diff(&trimmed, &baseline, &t);
        assert_eq!(
            r.added_leaves,
            ["wide_sigma: metrics.repair.plan.class_reads"]
        );
        assert!(
            r.regressions.is_empty() && r.incomparable.is_empty(),
            "{r:?}"
        );
        assert!(!r.ok());

        let r = diff(&baseline, &trimmed, &t);
        assert!(r.added_leaves.is_empty());
        assert_eq!(r.regressions.len(), 1, "{r:?}");
        let x = &r.regressions[0];
        assert_eq!(
            (x.scenario.as_str(), x.path.as_str(), x.class),
            (
                "wide_sigma",
                "metrics.repair.plan.class_reads",
                MetricClass::Counter
            )
        );
        assert!(diff(&baseline, &baseline, &t).ok());
    }

    /// The engine's counters under `metrics` gate exactly: one drifted
    /// probe count is one Counter regression, whatever the thresholds
    /// on timing.
    #[test]
    fn a_drifted_metrics_counter_is_one_counter_regression() {
        let base = validate(&doc(100, 2, 1000.0, 500)).unwrap();
        let drifted = validate(&doc(100, 3, 1000.0, 500)).unwrap();
        let open_timing = Thresholds {
            latency_frac: 1e9,
            latency_floor_us: 1e12,
            throughput_frac: 1.0,
            counter_frac: 0.0,
        };
        let r = diff(&base, &drifted, &open_timing);
        assert!(!r.ok());
        assert_eq!(r.regressions.len(), 1, "{r:?}");
        let x = &r.regressions[0];
        assert_eq!(x.path, "metrics.stream.probes.hash");
        assert_eq!(x.class, MetricClass::Counter);
        assert_eq!((x.base, x.new), (2.0, 3.0));
    }
}
