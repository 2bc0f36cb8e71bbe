#![warn(missing_docs)]

//! # condep-bench
//!
//! The in-repo benchmark harness, in two parts:
//!
//! - **The figure/table benches** (`fig10a` … `fig11d`,
//!   `table1_table2`, `ablation`) reproduce the paper's Section 6
//!   experiments; `micro` times the core operations they rest on. Each
//!   is a `harness = false` binary that sweeps the paper's parameters,
//!   prints the series as an aligned table (the "rows the paper
//!   reports") and writes a CSV under `target/figures/`
//!   ([`FigureTable`]).
//! - **The scoreboard** ([`scenario`], [`scoreboard`] and the
//!   `scoreboard` binary) runs the engine's seeded workload matrix into
//!   one `SCOREBOARD.json` document and diffs two such documents:
//!   counters exactly, wall time with slack.
//!
//! Full-size engine timings live in the standalone `perfbench/`
//! package that `BENCHMARK.json` declares, not here.
//!
//! Scale control: the figure/table benches default to a reduced sweep
//! so `cargo bench` finishes quickly; set `CONDEP_BENCH_SCALE=full` to
//! run the paper-size sweeps (20 relations × up to 20K constraints,
//! 100-relation scaling).

pub mod scenario;
pub mod scoreboard;

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Sweep scale selected via `CONDEP_BENCH_SCALE`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Reduced sweep (default): minutes, same shapes.
    Quick,
    /// Paper-scale sweep.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("CONDEP_BENCH_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between the quick and full variant of a parameter.
    pub fn pick<T: Copy>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Times one run of `f`.
pub fn time_once<F: FnOnce() -> R, R>(f: F) -> (Duration, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Milliseconds as a printable f64.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// A rendered results table that also lands in `target/figures/`.
pub struct FigureTable {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl FigureTable {
    /// Starts a table for figure/table `name` with the given column
    /// headers.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        FigureTable {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table (aligned) and writes the CSV.
    pub fn finish(self, title: &str) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n=== {title} ===");
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        // CSV.
        let dir = figures_dir();
        if fs::create_dir_all(&dir).is_ok() {
            let mut csv = String::new();
            csv.push_str(&self.headers.join(","));
            csv.push('\n');
            for row in &self.rows {
                csv.push_str(&row.join(","));
                csv.push('\n');
            }
            let path = dir.join(format!("{}.csv", self.name));
            if fs::write(&path, csv).is_ok() {
                println!("(csv: {})", path.display());
            }
        }
    }
}

/// `target/figures/` relative to the workspace.
pub fn figures_dir() -> PathBuf {
    // CARGO_TARGET_DIR may relocate the target directory.
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    PathBuf::from(target).join("figures")
}

/// Percentage formatting helper.
pub fn pct(hits: usize, total: usize) -> f64 {
    if total == 0 {
        100.0
    } else {
        100.0 * hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 10), 1);
        assert_eq!(Scale::Full.pick(1, 10), 10);
    }

    #[test]
    fn pct_handles_zero() {
        assert_eq!(pct(0, 0), 100.0);
        assert_eq!(pct(1, 2), 50.0);
    }

    #[test]
    fn table_rows_render() {
        let mut t = FigureTable::new("smoke_test", &["x", "y"]);
        t.row(&[&1, &2.5]);
        t.finish("smoke");
    }
}
