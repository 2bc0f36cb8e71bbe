//! Scoreboard serialization and regression diffing.
//!
//! [`emit`] renders a slice of [`ScenarioResult`]s as one deterministic
//! pretty-printed JSON document (scenario entries keyed by name, keys
//! in fixed order); [`validate`] checks a document is well-formed JSON
//! carrying the required per-scenario key schema; [`diff`] compares two
//! documents metric-by-metric with class-aware thresholds:
//!
//! - **counters** (violation counts, repair accept/reject, stream
//!   mutation counts, …) are deterministic for a fixed seed and gate
//!   **exactly** by default — any drift means behavior changed;
//! - **latency** paths (`elapsed_us.*`, `latency_us.{p50,p90,p99,max}`)
//!   gate on a relative threshold with an absolute floor, so machine
//!   noise under the floor never trips the gate;
//! - **throughput** paths (`*per_s`) gate on a relative drop;
//! - **`metrics.*`** is informational — full-fidelity telemetry travels
//!   with the scoreboard but never gates;
//! - **fingerprint** paths (and string leaves) must match exactly or
//!   the scenario is reported *incomparable* (workload shape changed —
//!   rebaseline rather than gate).
//!
//! [`parse_args`] reads the `scoreboard` binary's command line.

use crate::scenario::{matrix, ScenarioResult};
use condep_telemetry::json::{self, JsonValue, JsonWriter};
use std::path::PathBuf;

/// Current scoreboard document version ([`emit`] stamps it,
/// [`validate`] requires it).
pub const SCHEMA_VERSION: u64 = 1;

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

    w.key("latency_us");
    w.begin_object();
    w.key("p50");
    w.value_u64(r.latency.p50_us);
    w.key("p90");
    w.value_u64(r.latency.p90_us);
    w.key("p99");
    w.value_u64(r.latency.p99_us);
    w.key("max");
    w.value_u64(r.latency.max_us);
    w.key("count");
    w.value_u64(r.latency.count);
    w.key("source");
    w.value_str(r.latency.source);
    w.end_object();

    w.key("violations");
    w.begin_object();
    w.key("initial");
    w.value_u64(r.violations.initial);
    w.key("residual");
    w.value_u64(r.violations.residual);
    w.key("after_churn");
    w.value_u64(r.violations.after_churn);
    w.end_object();

    w.key("repair");
    match &r.repair {
        Some(rep) => {
            w.begin_object();
            w.key("accepted");
            w.value_u64(rep.accepted);
            w.key("rejected");
            w.value_u64(rep.rejected);
            w.key("stale");
            w.value_u64(rep.stale);
            w.key("rounds");
            w.value_u64(rep.rounds);
            w.key("cells_edited");
            w.value_u64(rep.cells_edited);
            w.key("tuples_deleted");
            w.value_u64(rep.tuples_deleted);
            w.key("tuples_inserted");
            w.value_u64(rep.tuples_inserted);
            w.key("majority_flips");
            w.value_u64(rep.majority_flips);
            w.key("poisoned_classes");
            w.value_u64(rep.poisoned_classes);
            w.end_object();
        }
        None => w.value_null(),
    }

    w.key("stream");
    w.begin_object();
    w.key("windows");
    w.value_u64(r.stream.windows);
    w.key("inserts");
    w.value_u64(r.stream.inserts);
    w.key("deletes");
    w.value_u64(r.stream.deletes);
    w.key("noops");
    w.value_u64(r.stream.noops);
    w.key("journal_total");
    w.value_u64(r.stream.journal_total);
    w.key("probe_hit_rate");
    w.value_f64(r.stream.probe_hit_rate);
    w.key("index_live");
    w.value_u64(r.stream.index_live);
    w.key("index_stored");
    w.value_u64(r.stream.index_stored);
    w.end_object();

    w.key("online");
    match &r.online {
        Some(o) => {
            w.begin_object();
            w.key("polls");
            w.value_u64(o.polls);
            w.key("proposed");
            w.value_u64(o.proposed);
            w.key("promoted");
            w.value_u64(o.promoted);
            w.key("retired");
            w.value_u64(o.retired);
            w.key("values");
            w.value_u64(o.values);
            w.key("classes");
            w.value_u64(o.classes);
            w.end_object();
        }
        None => w.value_null(),
    }

    w.key("sigma_churn");
    w.begin_object();
    w.key("retires");
    w.value_u64(r.sigma_churn.retires);
    w.key("readds");
    w.value_u64(r.sigma_churn.readds);
    w.end_object();

    // Static-analysis sweep counters: null for pipeline scenarios (the
    // diff flattener skips nulls), an exact-gated counter block for the
    // `sigma_lint` scenario.
    w.key("sigma_lint");
    match &r.sigma_lint {
        Some(sl) => {
            w.begin_object();
            w.key("families");
            w.value_u64(sl.families);
            w.key("sat");
            w.value_u64(sl.sat);
            w.key("unsat");
            w.value_u64(sl.unsat);
            w.key("unknown");
            w.value_u64(sl.unknown);
            w.key("core_cfds");
            w.value_u64(sl.core_cfds);
            w.key("lints");
            w.value_u64(sl.lints);
            w.key("witness_ok");
            w.value_u64(sl.witness_ok);
            w.key("expectation_misses");
            w.value_u64(sl.expectation_misses);
            w.end_object();
        }
        None => w.value_null(),
    }

    w.key("metrics");
    r.metrics.write_json(w);
    w.end_object();
}

/// The per-scenario keys [`validate`] requires (dotted paths; a listed
/// path must resolve to a non-null value).
pub const REQUIRED_ENTRY_PATHS: &[&str] = &[
    "name",
    "seed",
    "fingerprint.rows",
    "fingerprint.churn_ops",
    "throughput.validate_tuples_per_s",
    "throughput.churn_ops_per_s",
    "latency_us.p50",
    "latency_us.p90",
    "latency_us.p99",
    "latency_us.max",
    "violations.initial",
    "violations.residual",
    "metrics",
];

/// The keys a non-null `online` block must carry: the loop's activity
/// and the miner's sketch size.
const ONLINE_KEYS: &[&str] = &[
    "polls", "proposed", "promoted", "retired", "values", "classes",
];

/// Checks a scoreboard document: well-formed JSON (per
/// [`json::is_valid`]), the schema version, a non-empty scenario map,
/// every required per-scenario path present and non-null, latency
/// percentiles in order (`p50 ≤ p90 ≤ p99 ≤ max`), and every non-null
/// `repair` / `online` block carrying its counters (an `online` block
/// needs the loop's polls, proposed, promoted and retired counts and
/// the miner's sketch size, `values` and `classes`). Returns the parsed
/// tree on success.
pub fn validate(doc: &str) -> Result<JsonValue, String> {
    if !json::is_valid(doc) {
        return Err("not well-formed JSON".into());
    }
    let v = json::parse(doc).ok_or("unparseable JSON")?;
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
        for path in REQUIRED_ENTRY_PATHS {
            match entry.at(path) {
                None | Some(JsonValue::Null) => {
                    return Err(format!("scenario {name}: missing required key {path}"));
                }
                Some(_) => {}
            }
        }
        // A percentile above the observed max, or out of order, is a
        // statistic the diff gate cannot trust.
        let latency: Vec<f64> = ["p50", "p90", "p99", "max"]
            .iter()
            .map(|q| {
                entry
                    .at(&format!("latency_us.{q}"))
                    .and_then(JsonValue::as_f64)
            })
            .collect::<Option<_>>()
            .ok_or_else(|| format!("scenario {name}: latency_us leaves must be numbers"))?;
        if latency.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "scenario {name}: latency_us must satisfy p50 <= p90 <= p99 <= max, got {latency:?}"
            ));
        }
        // A repair entry, when present, must carry its accept/reject
        // counts; an online entry, its activity and the miner's sketch
        // size.
        for (block, keys) in [
            ("repair", &["accepted", "rejected"][..]),
            ("online", ONLINE_KEYS),
        ] {
            if let Some(b) = entry.at(block).filter(|b| !matches!(b, JsonValue::Null)) {
                for key in keys {
                    if b.get(key).is_none() {
                        return Err(format!("scenario {name}: {block} missing {key}"));
                    }
                }
            }
        }
    }
    Ok(v)
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
    /// Telemetry payload (`metrics.*`): never gates.
    Informational,
}

/// Classifies a dotted path within a scenario entry.
pub fn classify(path: &str) -> MetricClass {
    if path.starts_with("metrics.") || path == "metrics" {
        return MetricClass::Informational;
    }
    if path.starts_with("fingerprint.") || path == "seed" || path == "latency_us.source" {
        return MetricClass::Fingerprint;
    }
    if path.starts_with("elapsed_us.") {
        return MetricClass::Latency;
    }
    if let Some(q) = path.strip_prefix("latency_us.") {
        return match q {
            "p50" | "p90" | "p99" | "max" => MetricClass::Latency,
            _ => MetricClass::Counter,
        };
    }
    if path.ends_with("per_s") {
        return MetricClass::Throughput;
    }
    MetricClass::Counter
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
}

impl DiffReport {
    /// Did the new document pass the gate?
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.incomparable.is_empty()
    }
}

/// Flattens an entry to `(dotted path, leaf)` pairs, skipping the
/// `metrics` subtree (informational) and nulls.
fn flatten<'a>(prefix: &str, v: &'a JsonValue, out: &mut Vec<(String, &'a JsonValue)>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                if path == "metrics" {
                    continue;
                }
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

        for (path, bv) in &base_leaves {
            let class = classify(path);
            if matches!(class, MetricClass::Fingerprint | MetricClass::Informational) {
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
                MetricClass::Fingerprint | MetricClass::Informational => (false, false),
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
        assert_eq!(classify("violations.residual"), MetricClass::Counter);
        assert_eq!(classify("sigma_lint.core_cfds"), MetricClass::Counter);
        assert_eq!(classify("repair.accepted"), MetricClass::Counter);
        assert_eq!(classify("elapsed_us.validate"), MetricClass::Latency);
        assert_eq!(classify("latency_us.p99"), MetricClass::Latency);
        assert_eq!(classify("latency_us.count"), MetricClass::Counter);
        assert_eq!(classify("latency_us.source"), MetricClass::Fingerprint);
        assert_eq!(
            classify("throughput.churn_ops_per_s"),
            MetricClass::Throughput
        );
        assert_eq!(classify("fingerprint.rows"), MetricClass::Fingerprint);
        assert_eq!(classify("seed"), MetricClass::Fingerprint);
        assert_eq!(
            classify("metrics.stream.apply.window_us.p50_us"),
            MetricClass::Informational
        );
    }

    fn doc(p99: u64, residual: u64, per_s: f64, rows: u64) -> String {
        format!(
            r#"{{
  "schema_version": 1,
  "scenarios": {{
    "s": {{
      "name": "s",
      "seed": 7,
      "fingerprint": {{"rows": {rows}, "churn_ops": 10}},
      "throughput": {{"validate_tuples_per_s": {per_s}, "churn_ops_per_s": {per_s}}},
      "latency_us": {{"p50": 5, "p90": 9, "p99": {p99}, "max": {p99}}},
      "violations": {{"initial": 3, "residual": {residual}}},
      "repair": null,
      "metrics": {{"x": 1}}
    }}
  }}
}}"#
        )
    }

    #[test]
    fn validate_accepts_the_schema_and_rejects_missing_keys() {
        let good = doc(12, 0, 100.0, 500);
        validate(&good).expect("valid");
        let bad = good.replace("\"residual\": 0", "\"residually\": 0");
        assert!(validate(&bad).unwrap_err().contains("violations.residual"));
        assert!(validate("{").is_err());
        assert!(validate(r#"{"schema_version": 1, "scenarios": {}}"#).is_err());
    }

    #[test]
    fn validate_rejects_percentiles_out_of_order() {
        let good = doc(12, 0, 100.0, 500);
        // A p99 above the observed max: an unclamped histogram bucket.
        let above_max = good.replace("\"max\": 12", "\"max\": 11");
        assert!(validate(&above_max).unwrap_err().contains("p99 <= max"));
        // A p90 below the p50.
        let inverted = good.replace("\"p90\": 9", "\"p90\": 4");
        assert!(validate(&inverted).unwrap_err().contains("p50 <= p90"));
        let missing_max = good.replace(", \"max\": 12", "");
        assert!(validate(&missing_max)
            .unwrap_err()
            .contains("latency_us.max"));
    }

    #[test]
    fn validate_rejects_an_online_block_without_the_sketch_size() {
        let online = |keys: &str| {
            doc(12, 0, 100.0, 500).replace(
                "\"repair\": null,",
                &format!("\"repair\": null, \"online\": {{{keys}}},"),
            )
        };
        let activity = "\"polls\": 1, \"proposed\": 2, \"promoted\": 1, \"retired\": 0";
        let full = online(&format!("{activity}, \"values\": 9, \"classes\": 4"));
        assert!(validate(&full).is_ok());
        let no_classes = online(&format!("{activity}, \"values\": 9"));
        assert!(validate(&no_classes)
            .unwrap_err()
            .contains("online missing classes"));
        let no_size = online(activity);
        assert!(validate(&no_size)
            .unwrap_err()
            .contains("online missing values"));
        // A scenario without the loop carries a null block.
        assert!(validate(
            &doc(12, 0, 100.0, 500)
                .replace("\"repair\": null,", "\"repair\": null, \"online\": null,")
        )
        .is_ok());
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
        assert!(r.regressions.iter().any(|x| x.path == "latency_us.p99"));

        // Counters gate exactly.
        let drifted = validate(&doc(100, 3, 1000.0, 500)).unwrap();
        let r = diff(&base, &drifted, &t);
        assert!(r
            .regressions
            .iter()
            .any(|x| x.path == "violations.residual" && x.class == MetricClass::Counter));

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
}
