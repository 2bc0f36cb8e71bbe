//! Property suite of the **sampled** discovery path
//! ([`DiscoveryConfig::sample`]): across 64 reservoir seeds the quoted
//! [`EvidenceInterval`]s must contain the exact (support, confidence)
//! figures at the configured `(ε, δ)` rate, the realized half-width
//! must honour the request, and the whole budgeted pipeline must stay
//! deterministic.

use condep_discover::{discover, DiscoveryConfig, SampleConfig};
use condep_gen::{clean_database_with_hidden_sigma, PlantedSigmaConfig};
use condep_telemetry::MetricValue;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn planted() -> condep_gen::PlantedDatabase {
    clean_database_with_hidden_sigma(
        &PlantedSigmaConfig {
            fd_pairs: 3,
            pair_cardinality: 6,
            constant_rows_per_pair: 3,
            cind_count: 2,
            tuples: 10_000,
            ..PlantedSigmaConfig::default()
        },
        &mut StdRng::seed_from_u64(4242),
    )
}

fn sampled_config(seed: u64) -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 8,
        ..DiscoveryConfig::default()
    }
    .sample(SampleConfig {
        budget_rows: 1_000,
        epsilon: 0.05,
        delta: 0.05,
        seed,
    })
}

/// The headline property: emitted figures are exact (the confirmation
/// pass re-counted them), and the sampled interval that *selected* each
/// keep contains those exact figures — per interval with probability
/// `≥ 1 − δ`, so across 64 seeds the observed miss fraction must stay
/// within the Hoeffding budget (we allow `2δ` against binomial noise).
#[test]
fn intervals_contain_the_exact_figures_across_64_seeds() {
    let planted = planted();
    let mut intervals = 0usize;
    let mut misses = 0usize;
    for seed in 0..64 {
        let found = discover(&planted.db, &sampled_config(seed));
        assert!(!found.is_empty(), "seed {seed}: sampling found nothing");
        let sampling = found
            .stats
            .sampling
            .expect("a sampled run records its sampling stats");
        assert!(
            sampling.relations_downsampled >= 1,
            "seed {seed}: the 10K fact relation must be downsampled at a 1K budget"
        );
        assert!(
            sampling.epsilon <= 0.05 + 1e-9,
            "seed {seed}: realized ε {} looser than requested",
            sampling.epsilon
        );
        for d in &found.cfds {
            let iv = d.interval.expect("sampled keeps carry their interval");
            intervals += 1;
            if !iv.contains(d.support, d.confidence) {
                misses += 1;
            }
        }
        for d in &found.cinds {
            let iv = d.interval.expect("sampled keeps carry their interval");
            intervals += 1;
            if !iv.contains(d.support, d.confidence) {
                misses += 1;
            }
        }
    }
    assert!(
        intervals >= 64,
        "the sweep must quote intervals: {intervals}"
    );
    let budget = (2.0 * 0.05 * intervals as f64).ceil() as usize;
    assert!(
        misses <= budget,
        "interval misses {misses}/{intervals} exceed the 2δ budget {budget}"
    );
}

/// Budgeted mining is still **sound** end-to-end: whatever the sample
/// kept, the confirmation pass made exact, so every emitted dependency
/// genuinely meets the floors on the full instance.
#[test]
fn confirmed_keeps_meet_the_floors_exactly() {
    let planted = planted();
    let found = discover(&planted.db, &sampled_config(7));
    for d in &found.cfds {
        assert!(
            d.support >= 8,
            "{}: support {}",
            d.cfd.display(planted.db.schema()),
            d.support
        );
        assert!(d.confidence >= 1.0 - 1e-9);
        assert!(condep_cfd::satisfy::satisfies_normal(&planted.db, &d.cfd));
    }
    for d in &found.cinds {
        assert!(d.support >= 8);
        assert!(d.confidence >= 1.0 - 1e-9);
        assert!(condep_core::satisfy::satisfies_normal(&planted.db, &d.cind));
    }
}

/// A sampled run's metrics export as valid JSON with the kept counts,
/// the lattice size and the phase timings.
#[test]
fn sampled_run_metrics_export_as_valid_json() {
    let planted = planted();
    let found = discover(&planted.db, &sampled_config(7));
    let m = found.metrics();
    let doc = m.to_json();
    assert!(
        condep_telemetry::json::is_valid(&doc),
        "not valid JSON:\n{doc}"
    );
    assert_eq!(condep_telemetry::misnamed_keys(&m), Vec::<&str>::new());
    assert_eq!(
        m.get("discover.kept.cfds"),
        Some(&MetricValue::Counter(found.cfds.len() as u64))
    );
    assert_eq!(
        m.get("discover.kept.cinds"),
        Some(&MetricValue::Counter(found.cinds.len() as u64))
    );
    for key in [
        "discover.stats.lattice_nodes",
        "discover.timings.mine_ms",
        "discover.timings.confirm_ms",
    ] {
        assert!(m.get(key).is_some(), "metrics missing {key}");
    }
}

/// One `(db, config)` pair, one answer: the reservoir is seeded and the
/// pipeline never iterates a hash map into its output.
#[test]
fn sampled_discovery_is_deterministic() {
    let planted = planted();
    let a = discover(&planted.db, &sampled_config(13));
    let b = discover(&planted.db, &sampled_config(13));
    assert_eq!(a.cfds.len(), b.cfds.len());
    assert_eq!(a.cinds.len(), b.cinds.len());
    for (x, y) in a.cfds.iter().zip(&b.cfds) {
        assert_eq!(x.cfd, y.cfd);
        assert_eq!((x.support, x.confidence), (y.support, y.confidence));
        assert_eq!(x.interval, y.interval);
    }
    for (x, y) in a.cinds.iter().zip(&b.cinds) {
        assert_eq!(x.cind, y.cind);
        assert_eq!((x.support, x.confidence), (y.support, y.confidence));
        assert_eq!(x.interval, y.interval);
    }
    assert_eq!(a.stats.sampling, b.stats.sampling);
}
