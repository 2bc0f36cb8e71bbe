//! The scenario-matrix scoreboard harness.
//!
//! ```text
//! scoreboard run [--out PATH]
//! scoreboard run --only NAME[,NAME…] --out PATH
//! scoreboard diff BASE NEW [--latency F] [--latency-floor-us N]
//!                          [--throughput F] [--counter F]
//! scoreboard list
//! ```
//!
//! `run` drives every matrix scenario through the generic runner,
//! validates the emitted document (well-formed JSON + required key
//! schema) and writes it — by default to `SCOREBOARD.json` at the repo
//! root, the committed baseline; a subset (`--only`) must name its own
//! `--out`. `diff` compares two scoreboard documents with class-aware
//! thresholds and exits `2` on any gated regression;
//! `scoreboard diff SCOREBOARD.json SCOREBOARD.json` is
//! zero-regression by construction. CI runs the matrix with
//! `--out target/…` and diffs against the committed baseline with
//! loose timing thresholds — counters still gate exactly. A command
//! line that does not parse prints the usage and exits `1`.

use condep_bench::scenario::{matrix, run_scenario, ScenarioResult};
use condep_bench::scoreboard::{diff, emit, parse_args, validate, Command, Thresholds, USAGE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn default_out() -> PathBuf {
    PathBuf::from(format!(
        "{}/../../SCOREBOARD.json",
        env!("CARGO_MANIFEST_DIR")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run { out, only }) => cmd_run(&out.unwrap_or_else(default_out), only),
        Ok(Command::Diff {
            base,
            new,
            thresholds,
        }) => cmd_diff(&base, &new, &thresholds),
        Ok(Command::List) => {
            for s in matrix() {
                println!("{:24} seed 0x{:X}", s.name, s.seed);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scoreboard: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(out: &Path, only: Option<Vec<&str>>) -> ExitCode {
    let scenarios: Vec<_> = matrix()
        .into_iter()
        .filter(|s| only.as_ref().is_none_or(|names| names.contains(&s.name)))
        .collect();

    let mut results: Vec<ScenarioResult> = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        let r = run_scenario(s);
        print_result(&r);
        results.push(r);
    }

    let doc = emit(&results);
    // Self-gate before writing: the emitted document must satisfy its
    // own schema.
    if let Err(e) = validate(&doc) {
        eprintln!("scoreboard: emitted document failed validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(out, &doc) {
        Ok(()) => {
            println!("\n(scoreboard: {})", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scoreboard: cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

fn print_result(r: &ScenarioResult) {
    if let Some(sl) = &r.sigma_lint {
        println!(
            "{:24} {} families  sat/unsat/unknown {}/{}/{}  core cfds {}  \
             lints {}  misses {}",
            r.name,
            sl.families,
            sl.sat,
            sl.unsat,
            sl.unknown,
            sl.core_cfds,
            sl.lints,
            sl.expectation_misses,
        );
        return;
    }
    println!(
        "{:24} rows {:>6}  churn {:>5} ops ({:>9.0} ops/s)  \
         p50/p90/p99 {:>5}/{:>5}/{:>5} µs [{}]  violations {} -> {} -> {}{}",
        r.name,
        r.rows,
        r.churn_ops,
        r.churn_ops_per_s,
        r.latency.p50_us,
        r.latency.p90_us,
        r.latency.p99_us,
        r.latency.source,
        r.violations.initial,
        r.violations.residual,
        r.violations.after_churn,
        match &r.repair {
            Some(rep) => format!(
                "  repair {}+/{}-{}",
                rep.accepted,
                rep.rejected,
                if rep.poisoned_classes > 0 {
                    format!("  flips {}/{}", rep.majority_flips, rep.poisoned_classes)
                } else {
                    String::new()
                }
            ),
            None => String::new(),
        },
    );
}

fn cmd_diff(base_path: &Path, new_path: &Path, t: &Thresholds) -> ExitCode {
    let load = |path: &Path| -> Result<condep_telemetry::json::JsonValue, String> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        validate(&doc).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("scoreboard: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = diff(&base, &new, t);
    for msg in &report.incomparable {
        println!("INCOMPARABLE  {msg}");
    }
    for a in &report.added {
        println!("ADDED         {a} (no baseline entry)");
    }
    for r in &report.regressions {
        println!(
            "REGRESSION    {}.{}  {:?}  {} -> {}",
            r.scenario, r.path, r.class, r.base, r.new
        );
    }
    println!(
        "scoreboard diff: {} compared, {} improved, {} regressed, {} incomparable",
        report.compared,
        report.improvements,
        report.regressions.len(),
        report.incomparable.len()
    );
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
