//! The `scoreboard` command line refuses what it cannot honour: an
//! unknown flag, a flag without a value, an `--only` name outside the
//! matrix, `--only` without `--out` and a non-numeric threshold each
//! print the usage and exit 1, so a typo can neither run on defaults
//! nor rewrite the committed baseline with part of the matrix.

use condep_bench::scenario::matrix;
use condep_bench::scoreboard::{parse_args, validate, Command, Thresholds};
use condep_telemetry::json::JsonValue;
use std::path::PathBuf;
use std::process::Command as Process;

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCOREBOARD.json");

fn parse(line: &str) -> Result<Command, String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    parse_args(&args)
}

#[test]
fn parse_args_refuses_bad_input() {
    for (line, why) in [
        ("run --only sigma_lint --ouT x.json", "unknown flag --ouT"),
        ("diff A B --latncy 5", "unknown flag --latncy"),
        ("run --only sigma_lint --out", "--out needs a value"),
        ("run --out --only sigma_lint", "--out needs a value"),
        ("diff A B --latency", "--latency needs a value"),
        (
            "run --only sigma_lint,sigma_lnt --out x.json",
            "no scenario named \"sigma_lnt\"",
        ),
        ("run --only sigma_lint", "--only needs --out"),
        (
            "diff A B --latency abc",
            "--latency needs a non-negative number",
        ),
        (
            "diff A B --counter -1",
            "--counter needs a non-negative number",
        ),
        (
            "diff A B --throughput NaN",
            "--throughput needs a non-negative number",
        ),
        ("run --out x.json --out y.json", "--out given twice"),
        ("run SCOREBOARD.json", "run takes no argument"),
        ("diff A", "diff takes two documents, got 1"),
        ("list all", "list takes no arguments"),
        ("", "missing command"),
        ("rnu", "unknown command"),
    ] {
        let err = parse(line).expect_err(line);
        assert!(err.contains(why), "{line:?}: {err:?} does not say {why:?}");
    }
}

#[test]
fn parse_args_reads_good_input() {
    assert_eq!(
        parse("run"),
        Ok(Command::Run {
            out: None,
            only: None
        })
    );
    assert_eq!(
        parse("run --only wide_sigma,sigma_lint --out target/SB.json"),
        Ok(Command::Run {
            out: Some(PathBuf::from("target/SB.json")),
            only: Some(vec!["wide_sigma", "sigma_lint"]),
        })
    );
    assert_eq!(
        parse("diff A B --latency 5.0 --latency-floor-us 100000 --throughput 0.95 --counter 0"),
        Ok(Command::Diff {
            base: PathBuf::from("A"),
            new: PathBuf::from("B"),
            thresholds: Thresholds {
                latency_frac: 5.0,
                latency_floor_us: 100_000.0,
                throughput_frac: 0.95,
                counter_frac: 0.0,
            },
        })
    );
    assert_eq!(parse("list"), Ok(Command::List));
}

/// The binary itself: usage on stderr, exit 1, nothing written. Each
/// input here either names its own `--out` or is a `diff`, so no
/// regression of the parser can touch the committed baseline.
#[test]
fn scoreboard_binary_exits_1_with_usage_on_bad_input() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scoreboard_cli_refused.json");
    let _ = std::fs::remove_file(&out);
    let out_arg = out.to_str().expect("utf-8 path");
    for args in [
        vec!["diff", BASELINE, BASELINE, "--latncy", "5"],
        vec!["diff", BASELINE, BASELINE, "--latency"],
        vec!["run", "--only", "sigma_lint,sigma_lnt", "--out", out_arg],
        vec!["diff", BASELINE, BASELINE, "--latency", "abc"],
    ] {
        let run = Process::new(env!("CARGO_BIN_EXE_scoreboard"))
            .args(&args)
            .output()
            .expect("scoreboard runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: scoreboard run"),
            "{args:?}: {stderr}"
        );
        assert!(!out.exists(), "{args:?} wrote {}", out.display());
    }
}

/// The committed baseline gates every matrix scenario: it names
/// exactly the scenarios of [`matrix`], in matrix order.
#[test]
fn committed_scoreboard_names_exactly_the_matrix() {
    let doc = std::fs::read_to_string(BASELINE).expect("SCOREBOARD.json is committed");
    let tree = validate(&doc).expect("the baseline satisfies its schema");
    let committed: Vec<&str> = tree
        .at("scenarios")
        .and_then(JsonValue::as_object)
        .expect("scenarios object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let names: Vec<&str> = matrix().iter().map(|s| s.name).collect();
    assert_eq!(committed, names);
}
