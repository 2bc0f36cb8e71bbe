//! Micro-bench: end-to-end cost-based repair of a dirtied instance.
//!
//! The data-cleaning workload the repair engine was built for: a 100K
//! tuple instance satisfying the validator bench's headline Σ (200 CFDs
//! over 10 LHS sets, plus a CIND into a partner relation) is corrupted
//! by `condep_gen::dirtied_database` at a 1% error rate (typos against
//! constant patterns, orphaned CIND sources, duplicate-key conflicts)
//! and then repaired by `condep_repair::repair` — every fix applied
//! through the `ValidatorStream` delta engine and kept only when its
//! `SigmaDelta`s prove it net-negative.
//!
//! The run doubles as the end-to-end acceptance gate: after repair the
//! instance must have **zero residual CFD violations** (CIND residual is
//! tolerated only when the cascade budget was exhausted, which this
//! workload never hits).
//!
//! Results are recorded in `BENCH_repair.json` at the repository root
//! (skipped in `CONDEP_BENCH_SMOKE=1` mode, which CI uses to exercise
//! the path at reduced size).

use condep_bench::{ms, time_once, xorshift, FigureTable};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_gen::dirtied_database;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, Schema, Tuple};
use condep_repair::{repair, RepairBudget, RepairCost};
use condep_validate::Validator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Duration;

fn schema() -> std::sync::Arc<Schema> {
    std::sync::Arc::new(
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
            .relation("partner", &[("p", Domain::string())])
            .finish(),
    )
}

/// One pseudo-random **clean** `r` tuple honoring the embedded FDs
/// (`a1 → a2`, `a3 → a4`, `a5 → a6`) and the constant patterns.
fn random_tuple(i: usize, state: &mut u64) -> Tuple {
    let h1 = xorshift(state) % 64;
    let h2 = xorshift(state) % 512;
    let h3 = xorshift(state) % 4096;
    let w = xorshift(state) % 8;
    tuple![
        format!("id{i}").as_str(),
        format!("b{h1}").as_str(),
        format!("c{h1}").as_str(),
        format!("d{h2}").as_str(),
        format!("e{h2}").as_str(),
        format!("f{h3}").as_str(),
        format!("g{h3}").as_str(),
        format!("w{w}").as_str()
    ]
}

/// The validator bench's 10-LHS-set shape: 200 CFDs sharing 10 distinct
/// LHS attribute lists (mixed wildcard and constant patterns).
fn sigma_cfds(schema: &std::sync::Arc<Schema>) -> Vec<NormalCfd> {
    let lhs_sets: Vec<Vec<&str>> = vec![
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
    let rhs_for = |lhs: &[&str]| {
        if lhs.contains(&"a0") || lhs.contains(&"a1") {
            "a2"
        } else if lhs.contains(&"a3") {
            "a4"
        } else {
            "a6"
        }
    };
    let mut cfds = Vec::with_capacity(200);
    let mut j = 0usize;
    while cfds.len() < 200 {
        for lhs in &lhs_sets {
            if cfds.len() >= 200 {
                break;
            }
            let rhs = rhs_for(lhs);
            let member = j % 16;
            let (lhs_pat, rhs_pat) = match member {
                0 => (PatternRow::all_any(lhs.len()), PValue::Any),
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

fn build_clean(schema: &std::sync::Arc<Schema>, n: usize) -> Database {
    let mut db = Database::empty(schema.clone());
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for i in 0..n {
        db.insert_into("r", random_tuple(i, &mut state)).unwrap();
    }
    for h in 0..64u64 {
        db.insert_into("partner", tuple![format!("b{h}").as_str()])
            .unwrap();
    }
    db
}

fn main() {
    let smoke = std::env::var("CONDEP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n, runs) = if smoke { (10_000, 1) } else { (100_000, 3) };
    let schema = schema();
    let cfds = sigma_cfds(&schema);
    // Forward CIND only: `r[a1] ⊆ partner[p]`. (The dirtifier corrupts
    // source keys; corrupting the 64-row partner side would orphan whole
    // reference cohorts and turn 1% dirt into a different workload.)
    let cinds: Vec<NormalCind> =
        vec![NormalCind::parse(&schema, "r", &["a1"], &[], "partner", &["p"], &[]).unwrap()];
    let validator = Validator::new(cfds.clone(), cinds.clone());

    let clean = build_clean(&schema, n);
    assert!(
        validator.validate(&clean).is_empty(),
        "the base instance must satisfy Σ"
    );
    let dirtied = dirtied_database(&clean, &cfds, &cinds, 0.01, &mut StdRng::seed_from_u64(42));
    let injected = dirtied.injected.len();
    let initial_violations = validator.validate_sorted(&dirtied.db).len();

    let mut repair_time = Duration::MAX;
    let mut best = None;
    for _ in 0..runs {
        let (elapsed, (repaired_db, report)) = time_once(|| {
            repair(
                validator.clone(),
                dirtied.db.clone(),
                &RepairCost::uniform(),
                &RepairBudget::default(),
            )
            .expect("bench sigmas are satisfiable by construction")
        });
        // Acceptance gate: zero residual CFD violations, CIND residual
        // only with an exhausted cascade budget; and the repaired
        // database really re-validates to the reported residual.
        assert!(
            report.residual.cfd.is_empty(),
            "residual CFD violations: {:?}",
            report.residual.cfd.len()
        );
        assert!(
            report.residual.cind.is_empty() || report.budget_exhausted,
            "CIND residual without budget exhaustion"
        );
        assert_eq!(
            validator.validate_sorted(&repaired_db),
            report.residual,
            "reported residual must match a fresh sweep"
        );
        for a in &report.log.applied {
            assert!(a.net_change() < 0, "kept fix not net-negative");
        }
        if elapsed < repair_time {
            repair_time = elapsed;
            best = Some(report);
        }
    }
    let report = best.expect("at least one run");
    let fixes = report.fixes_applied();
    let us_per_fix = ms(repair_time) * 1000.0 / (fixes.max(1) as f64);

    let mut table = FigureTable::new(
        "repair",
        &[
            "tuples",
            "injected",
            "initial_violations",
            "fixes",
            "cells_edited",
            "deleted",
            "inserted",
            "rounds",
            "repair_ms",
            "us_per_fix",
            "residual",
        ],
    );
    table.row(&[
        &n,
        &injected,
        &initial_violations,
        &fixes,
        &report.cells_edited,
        &report.tuples_deleted,
        &report.tuples_inserted,
        &report.log.rounds,
        &format!("{:.2}", ms(repair_time)),
        &format!("{:.1}", us_per_fix),
        &report.residual.len(),
    ]);
    table.finish("Cost-based repair of a 1%-dirty instance through the delta engine");

    // Telemetry gate (both modes): the run's RepairReport::metrics must
    // serialize to valid json and carry the round/fix summary keys.
    let metrics_json = report.metrics.to_json();
    assert!(
        condep_telemetry::json::is_valid(&metrics_json),
        "repair MetricsSnapshot did not serialize to valid json:\n{metrics_json}"
    );
    for key in [
        "repair.rounds",
        "repair.fixes.accepted",
        "repair.fixes.rejected",
        "repair.violations.initial",
        "repair.violations.residual",
        "repair.total_cost",
    ] {
        assert!(
            report.metrics.get(key).is_some(),
            "repair MetricsSnapshot is missing required key {key}"
        );
    }

    if smoke {
        println!("(smoke mode: BENCH_repair.json not rewritten)");
        return;
    }
    let mut json_rows = String::new();
    let _ = writeln!(
        json_rows,
        "    {{\"tuples\": {n}, \"injected\": {injected}, \
         \"initial_violations\": {initial_violations}, \"fixes\": {fixes}, \
         \"cells_edited\": {}, \"deleted\": {}, \"inserted\": {}, \
         \"rounds\": {}, \"repair_ms\": {:.2}, \"us_per_fix\": {:.2}, \
         \"residual\": {}, \"total_cost\": {:.1}}}",
        report.cells_edited,
        report.tuples_deleted,
        report.tuples_inserted,
        report.log.rounds,
        ms(repair_time),
        us_per_fix,
        report.residual.len(),
        report.total_cost,
    );
    let json = format!(
        "{{\n  \"bench\": \"repair\",\n  \"workload\": \"100K-tuple clean instance, 1% injected dirt (typos, CIND orphans, duplicate keys), repaired to zero residual CFD violations\",\n  \
         \"engine\": \"condep-repair greedy equivalence-class repair; every fix delta-verified net-negative through ValidatorStream\",\n  \
         \"runs_per_point\": {runs},\n  \"timing\": \"best of {runs}\",\n  \
         \"headline\": {{\"tuples\": {n}, \"dirt\": \"1%\", \"cfds\": 200, \"cinds\": 1, \"fixes\": {fixes}, \"us_per_fix\": {us_per_fix:.1}}},\n  \
         \"metrics\": {metrics_json},\n  \
         \"results\": [\n{json_rows}  ]\n}}\n",
    );
    let path = format!("{}/../../BENCH_repair.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(json: {path})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!(
        "headline: {n} tuples, 1% dirt -> {fixes} fixes in {:.2} ms ({us_per_fix:.1} us/fix), residual {}",
        ms(repair_time),
        report.residual.len()
    );
}
