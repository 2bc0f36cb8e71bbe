//! The full discover → validate → monitor → repair loop, with **no**
//! hand-written constraints anywhere.
//!
//! A clean database is generated around a hidden planted Σ
//! (`condep_gen::clean_database_with_hidden_sigma`), corrupted with a
//! controlled error fraction, and then *profiled*: the discovery miners
//! recover a ranked Σ′ from the dirty instance itself (mining at a
//! tolerance below 1.0, so genuine dependencies survive the noise).
//! The recovered suite is checked against the planted ground truth via
//! the exact implication machinery, used to validate the dirty data,
//! and finally handed to the cost-based repair engine.
//!
//! Run with `cargo run --release --example profile_and_clean`.

use condep::cfd::implication::Implication as CfdImplication;
use condep::cind::implication::{Implication as CindImplication, ImplicationConfig};
use condep::discover::DiscoveryConfig;
use condep::gen::{clean_database_with_hidden_sigma, dirtied_database, PlantedSigmaConfig};
use condep::prelude::*;
use condep::report::QualitySuite;
use condep::telemetry::MetricValue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let seed = 2007;
    // A hidden Σ: 4 value-locked column pairs (4 variable FDs + 16
    // constant tableau rows) and 2 reference inclusions.
    let cfg = PlantedSigmaConfig {
        fd_pairs: 4,
        pair_cardinality: 8,
        constant_rows_per_pair: 4,
        cind_count: 2,
        tuples: 20_000,
        ..PlantedSigmaConfig::default()
    };
    let planted = clean_database_with_hidden_sigma(&cfg, &mut StdRng::seed_from_u64(seed));
    println!(
        "=== Planted: {} CFDs + {} CINDs, {} clean tuples ===",
        planted.cfds.len(),
        planted.cinds.len(),
        planted.db.total_tuples()
    );

    // Corrupt 1% of the instance: typos on constant patterns, orphaned
    // inclusion sources, duplicate-key conflicts.
    let dirty = dirtied_database(
        &planted.db,
        &planted.cfds,
        &planted.cinds,
        0.01,
        &mut StdRng::seed_from_u64(seed + 1),
    );
    println!(
        "=== Dirtied: {} injected errors ===\n",
        dirty.injected.len()
    );

    // Profile the DIRTY data. A 98% confidence floor tolerates the
    // noise; every planted dependency still clears it.
    let start = Instant::now();
    let (suite, found) = QualitySuite::discover(
        &dirty.db,
        &DiscoveryConfig {
            min_confidence: 0.98,
            ..DiscoveryConfig::default()
        },
    );
    println!(
        "=== Discovery ({:.1?}): {} CFDs + {} CINDs recovered ===",
        start.elapsed(),
        found.cfds.len(),
        found.cinds.len()
    );
    println!(
        "    {} lattice nodes, {} CFD candidates, {} pruned as implied, {} capped",
        found.stats.lattice_nodes,
        found.stats.cfd_candidates,
        found.stats.pruned_implied,
        found.stats.pruned_capped
    );
    for d in found.cfds.iter().take(3) {
        println!(
            "    e.g. {}  (support {}, confidence {:.3})",
            d.cfd.display(dirty.db.schema()),
            d.support,
            d.confidence
        );
    }

    // Ground truth: the recovered Σ′ implies every planted dependency.
    let schema = dirty.db.schema();
    let sigma_cfds = found.cfds_normal();
    let implied_cfds = planted
        .cfds
        .iter()
        .filter(|c| {
            condep::cfd::implication::implies(
                schema,
                &sigma_cfds,
                c,
                condep::cfd::implication::ImplicationConfig::unbounded(),
            ) == CfdImplication::Implied
        })
        .count();
    let sigma_cinds = found.cinds_normal();
    let implied_cinds = planted
        .cinds
        .iter()
        .filter(|c| {
            condep::cind::implication::implies(
                schema,
                &sigma_cinds,
                c,
                ImplicationConfig::default(),
            ) == CindImplication::Implied
        })
        .count();
    println!(
        "=== Ground truth: Σ' implies {implied_cfds}/{} planted CFDs, {implied_cinds}/{} planted CINDs ===",
        planted.cfds.len(),
        planted.cinds.len()
    );
    assert_eq!(implied_cfds, planted.cfds.len(), "every planted CFD");
    assert_eq!(implied_cinds, planted.cinds.len(), "every planted CIND");

    // Validate the dirty instance against the *recovered* suite.
    let start = Instant::now();
    let report = suite.check(&dirty.db);
    println!(
        "=== Validation ({:.1?}): {} violations of the recovered Σ' ===",
        start.elapsed(),
        report.summary.total()
    );
    assert!(
        !report.summary.is_clean(),
        "the injected dirt must violate the recovered dependencies"
    );

    // Repair through the cost-based engine — every fix delta-verified.
    let start = Instant::now();
    let (repaired, fix_report) = suite
        .repair(
            dirty.db.clone(),
            &RepairCost::uniform(),
            &RepairBudget::default(),
        )
        .expect("the example sigma is satisfiable");
    println!("=== Repair ({:.1?}): {fix_report} ===", start.elapsed());
    let after = suite.check(&repaired);
    println!(
        "=== After repair: {} violations remain (was {}) ===",
        after.summary.total(),
        report.summary.total()
    );
    assert!(
        after.summary.total() < report.summary.total() / 10,
        "repair must eliminate at least 90% of the violations"
    );

    // Keep monitoring the cleaned instance: churn a few windows of
    // mutations through the delta engine, then poll the operator-facing
    // health snapshot — the activity journal tail and the full metric
    // set (live violation counters, window latency percentiles, the
    // journal's lifetime event count), all in one JSON document.
    let (mut monitor, _) = suite.monitor(repaired.clone());
    let fact = repaired.schema().rel_id("fact").unwrap();
    let sample: Vec<Tuple> = repaired
        .relation(fact)
        .tuples()
        .iter()
        .take(40)
        .cloned()
        .collect();
    for window in sample.chunks(10) {
        let mut muts: Vec<Mutation> = window
            .iter()
            .map(|t| Mutation::Delete {
                rel: fact,
                tuple: t.clone(),
            })
            .collect();
        muts.extend(window.iter().map(|t| Mutation::Insert {
            rel: fact,
            tuple: t.clone(),
        }));
        monitor.ingest_batch(&muts).unwrap();
    }
    let health = monitor.health();
    let count = |name: &str| match health.metrics.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let Some(MetricValue::Histogram(window)) = health.metrics.get("stream.apply.window_us") else {
        panic!("the stream exports its window latency");
    };
    println!(
        "\n=== Health: {} live violations, {} windows journaled, window p50 {} µs / p99 {} µs ===",
        count("monitor.violations.cfd") + count("monitor.violations.cind"),
        count("monitor.journal.events"),
        window.p50_us,
        window.p99_us
    );
    println!("{}", health.to_json());

    // Close with one scoreboard scenario: the same pipeline this
    // example walked by hand, driven by the scenario-matrix harness
    // (`cargo run -p condep-bench --bin scoreboard -- run`) and scored
    // into a diffable entry.
    let scenario = condep_bench::scenario::by_name("adversarial_dirt").unwrap();
    let result = condep_bench::scenario::run_scenario(&scenario);
    let count = |name: &str| result.count(name).expect("the scenario runs a repair pass");
    println!(
        "\n=== Scoreboard scenario '{}': {} rows, violations {} -> {}, repair {}+/{}-, \
         poisoned classes {}: {} restored, {} flipped, {} untouched ===",
        result.name,
        result.rows,
        count("scenario.violations.initial"),
        count("repair.violations.residual"),
        count("repair.fixes.accepted"),
        count("repair.fixes.rejected"),
        count("scenario.poisoned.classes"),
        count("scenario.poisoned.restored"),
        count("scenario.poisoned.flipped"),
        count("scenario.poisoned.untouched"),
    );
    println!("{}", condep_bench::scoreboard::emit(&[result]));

    println!(
        "\nProfile → discover → validate → repair → monitor, closed without a hand-written rule."
    );
}
