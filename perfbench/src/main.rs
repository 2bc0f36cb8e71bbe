//! Runs one benchmark workload, or all of them, and prints the result.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload monitor_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; untraced runs print the
//! workload-specific figures on the lines before it. `--workload all`
//! runs every workload in a process of its own, prefixes each result line
//! with the workload, and exits non-zero unless all ran correct.

use perfbench::{run, Config, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "{err}\nusage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).map_err(|_| ()),
            "--seconds" => value.parse().map(|v| cfg.seconds = v).map_err(|_| ()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.trace = value == "1";
                    Ok(())
                }
                _ => Err(()),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if parsed.is_err() {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(&cfg);
    }
    let Some(report) = run(&workload, &cfg) else {
        return usage(&format!("unknown workload {workload}"));
    };
    for m in &report.detail {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own, one after the
/// other, so that each one's peak resident set is its own.
fn run_all(cfg: &Config) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        let out = match child.output() {
            Ok(out) if out.status.success() => out,
            _ => {
                eprintln!("{workload}: the run failed");
                all_correct = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        println!("{workload} {result}");
        all_correct &=
            result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
