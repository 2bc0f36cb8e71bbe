//! Micro-bench: per-CFD violation detection vs the batched `Validator`.
//!
//! Workload: one 8-attribute relation whose columns embed three clean
//! FDs (`a1 → a2`, `a3 → a4`, `a5 → a6`) plus a unique id and a free
//! column, with a small corrupted fraction so detectors have real
//! violations to report. Σ is 200 normal CFDs arranged in three shapes
//! (2, 10, and 50 distinct LHS attribute sets) over two instance sizes
//! (10K and 100K tuples).
//!
//! The per-CFD baseline validates with one single-CFD `Validator` per
//! constraint, compiled outside the timed loop (one symbolization and
//! one index build per constraint); the batched engine runs
//! `Validator::validate` over all of Σ (one shared index per LHS set,
//! one symbolization, parallel sweep). Results print as a table and are
//! recorded in `BENCH_validator.json` at the repository root.

use condep_bench::{best_of, ms, xorshift, FigureTable};
use condep_cfd::NormalCfd;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, Schema};
use condep_telemetry::{Export, MetricsSnapshot};
use condep_validate::Validator;
use std::fmt::Write as _;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("a0", Domain::string()),
                    ("a1", Domain::string()),
                    ("a2", Domain::string()),
                    ("a3", Domain::string()),
                    ("a4", Domain::string()),
                    ("a5", Domain::string()),
                    ("a6", Domain::string()),
                    ("a7", Domain::string()),
                ],
            )
            .finish(),
    )
}

/// `n` tuples honoring the embedded FDs, with ~0.1% corrupted `a2`.
fn instance(schema: &Arc<Schema>, n: usize) -> Database {
    let mut db = Database::empty(schema.clone());
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for i in 0..n {
        let h1 = xorshift(&mut state) % 64;
        let h2 = xorshift(&mut state) % 512;
        let h3 = xorshift(&mut state) % 4096;
        let w = xorshift(&mut state) % 8;
        let a2 = if i % 1024 == 1023 {
            "CORRUPT".to_string()
        } else {
            format!("c{h1}")
        };
        db.insert_into(
            "r",
            tuple![
                format!("id{i}").as_str(),
                format!("b{h1}").as_str(),
                a2.as_str(),
                format!("d{h2}").as_str(),
                format!("e{h2}").as_str(),
                format!("f{h3}").as_str(),
                format!("g{h3}").as_str(),
                format!("w{w}").as_str()
            ],
        )
        .unwrap();
    }
    db
}

/// The RHS attribute functionally determined by an LHS set (`a0`/`a1 →
/// a2`, `a3 → a4`, `a5 → a6` by construction of [`instance`]).
fn rhs_for(lhs: &[&str]) -> &'static str {
    if lhs.contains(&"a0") || lhs.contains(&"a1") {
        "a2"
    } else if lhs.contains(&"a3") {
        "a4"
    } else {
        "a6"
    }
}

/// `total` normal CFDs spread round-robin over `lhs_sets`, mixing
/// all-wildcard FD rows, constant-LHS rows, and constant-RHS rows.
fn sigma(schema: &Arc<Schema>, lhs_sets: &[Vec<&str>], total: usize) -> Vec<NormalCfd> {
    let mut cfds = Vec::with_capacity(total);
    let mut j = 0usize;
    while cfds.len() < total {
        for lhs in lhs_sets {
            if cfds.len() >= total {
                break;
            }
            let rhs = rhs_for(lhs);
            let member = j % 16;
            let (lhs_pat, rhs_pat) = match member {
                // The plain embedded FD.
                0 => (PatternRow::all_any(lhs.len()), PValue::Any),
                // Constant-RHS rows pinning one consistent pair.
                m if m >= 12 => {
                    let cells: Vec<PValue> = lhs
                        .iter()
                        .map(|a| match *a {
                            "a1" => PValue::constant(format!("b{m}")),
                            _ => PValue::Any,
                        })
                        .collect();
                    let rhs_c = if rhs == "a2" && lhs.contains(&"a1") {
                        PValue::constant(format!("c{m}"))
                    } else {
                        PValue::Any
                    };
                    (PatternRow::new(cells), rhs_c)
                }
                // Constant-LHS rows selecting one key slice.
                m => {
                    let cells: Vec<PValue> = lhs
                        .iter()
                        .enumerate()
                        .map(|(i, a)| {
                            if i == 0 {
                                match *a {
                                    "a1" => PValue::constant(format!("b{m}")),
                                    "a3" => PValue::constant(format!("d{m}")),
                                    "a5" => PValue::constant(format!("f{m}")),
                                    "a7" => PValue::constant(format!("w{}", m % 8)),
                                    _ => PValue::Any,
                                }
                            } else {
                                PValue::Any
                            }
                        })
                        .collect();
                    (PatternRow::new(cells), PValue::Any)
                }
            };
            cfds.push(NormalCfd::parse(schema, "r", lhs, lhs_pat, rhs, rhs_pat).unwrap());
            j += 1;
        }
    }
    cfds
}

/// The three Σ-shapes, in descending index-sharing order.
fn shapes() -> Vec<(&'static str, Vec<Vec<&'static str>>)> {
    let two = vec![vec!["a1"], vec!["a3"]];
    let ten = vec![
        vec!["a1"],
        vec!["a3"],
        vec!["a5"],
        vec!["a1", "a3"],
        vec!["a1", "a5"],
        vec!["a3", "a5"],
        vec!["a1", "a3", "a5"],
        vec!["a0"],
        vec!["a0", "a7"],
        vec!["a7", "a1"],
    ];
    // 50 distinct sets: {a1} ∪ one subset of {a0, a3, a4, a5, a6, a7}
    // (all determine a2 through a1) — minimal index sharing.
    let pool = ["a0", "a3", "a4", "a5", "a6", "a7"];
    let mut fifty = Vec::new();
    for mask in 0u32..64 {
        if fifty.len() == 50 {
            break;
        }
        let mut set = vec!["a1"];
        for (i, a) in pool.iter().enumerate() {
            if mask >> i & 1 == 1 {
                set.push(a);
            }
        }
        fifty.push(set);
    }
    vec![
        ("2-lhs-sets", two),
        ("10-lhs-sets", ten),
        ("50-lhs-sets", fifty),
    ]
}

fn main() {
    // Smoke mode (CI): one iteration at reduced size, JSON untouched —
    // exercises the full code path without disturbing the recorded
    // baseline.
    let smoke = std::env::var("CONDEP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let schema = schema();
    let sizes: &[usize] = if smoke { &[10_000] } else { &[10_000, 100_000] };
    let runs = if smoke { 1 } else { 3 };
    let mut table = FigureTable::new(
        "validator",
        &[
            "shape",
            "tuples",
            "cfds",
            "lhs_sets",
            "violations",
            "per_cfd_ms",
            "batched_ms",
            "speedup",
        ],
    );
    let mut json_rows = String::new();
    let mut headline_speedup = 0.0f64;
    let mut headline_metrics: Option<MetricsSnapshot> = None;

    for &n in sizes {
        let db = instance(&schema, n);
        for (shape, lhs_sets) in shapes() {
            let cfds = sigma(&schema, &lhs_sets, 200);
            let validator = Validator::new(cfds.clone(), vec![]);
            let singles: Vec<Validator> = cfds
                .iter()
                .map(|c| Validator::new(vec![c.clone()], vec![]))
                .collect();

            let (per_cfd, v1) =
                best_of(runs, || singles.iter().map(|v| v.validate(&db).len()).sum());
            let (batched, v2) = best_of(runs, || validator.validate(&db).len());
            assert_eq!(v1, v2, "detectors disagree on violation count");

            let speedup = ms(per_cfd) / ms(batched).max(1e-9);
            if shape == "10-lhs-sets" && n == *sizes.last().unwrap() {
                headline_speedup = speedup;
                let mut m = MetricsSnapshot::default();
                validator
                    .compile_stats()
                    .export("validator.compile", &mut m);
                validator.cover_stats().export("validator.cover", &mut m);
                headline_metrics = Some(m);
            }
            table.row(&[
                &shape,
                &n,
                &cfds.len(),
                &lhs_sets.len(),
                &v1,
                &format!("{:.1}", ms(per_cfd)),
                &format!("{:.1}", ms(batched)),
                &format!("{:.1}x", speedup),
            ]);
            let _ = writeln!(
                json_rows,
                "    {{\"shape\": \"{shape}\", \"tuples\": {n}, \"cfds\": {}, \
                 \"lhs_sets\": {}, \"violations\": {v1}, \"per_cfd_ms\": {:.2}, \
                 \"batched_ms\": {:.2}, \"speedup\": {:.2}}},",
                cfds.len(),
                lhs_sets.len(),
                ms(per_cfd),
                ms(batched),
                speedup,
            );
        }
    }
    table.finish("Validator micro-bench: per-CFD loop vs batched sweep");

    // Telemetry gate (both modes): the headline validator's compile +
    // cover stats must export and serialize to valid json.
    let headline_metrics = headline_metrics.expect("10-lhs-sets shape ran");
    let metrics_json = headline_metrics.to_json();
    assert!(
        condep_telemetry::json::is_valid(&metrics_json),
        "validator MetricsSnapshot did not serialize to valid json:\n{metrics_json}"
    );
    for key in [
        "validator.compile.compile_us",
        "validator.compile.cfd_groups",
        "validator.compile.cfd_members",
        "validator.cover.cfd_merged",
    ] {
        assert!(
            headline_metrics.get(key).is_some(),
            "validator MetricsSnapshot is missing required key {key}"
        );
    }

    if smoke {
        println!("(smoke mode: BENCH_validator.json not rewritten)");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"validator\",\n  \"baseline\": \"one single-CFD Validator::validate per constraint\",\n  \
         \"contender\": \"condep_validate::Validator::validate (shared group-by indexes, interned keys, parallel sweep)\",\n  \
         \"runs_per_point\": {runs},\n  \"timing\": \"best of {runs}\",\n  \
         \"headline\": {{\"shape\": \"10-lhs-sets\", \"tuples\": 100000, \"cfds\": 200, \"speedup\": {headline_speedup:.2}}},\n  \
         \"metrics\": {metrics_json},\n  \
         \"results\": [\n{}  ]\n}}\n",
        json_rows.trim_end_matches(",\n").to_string() + "\n",
    );
    let path = format!("{}/../../BENCH_validator.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(json: {path})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!("headline speedup (100K tuples, 200 CFDs, 10 LHS sets): {headline_speedup:.1}x");
}
