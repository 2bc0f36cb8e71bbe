//! End-to-end recovery: discovery on a database generated from a hidden
//! planted Σ must return a Σ′ that **implies** every planted dependency
//! (checked with the exact implication machinery), both from the full
//! lattice and from a reservoir sample confirmed on the full instance.

use condep_cfd::implication::Implication as CfdImplication;
use condep_core::implication::{Implication as CindImplication, ImplicationConfig};
use condep_discover::{discover, DiscoveryConfig, SampleConfig};
use condep_gen::{clean_database_with_hidden_sigma, PlantedSigmaConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn recovered_sigma_implies_the_planted_one() {
    let cfg = PlantedSigmaConfig {
        fd_pairs: 3,
        pair_cardinality: 6,
        constant_rows_per_pair: 3,
        cind_count: 2,
        tuples: 1_500,
        ..PlantedSigmaConfig::default()
    };
    let planted = clean_database_with_hidden_sigma(&cfg, &mut StdRng::seed_from_u64(4242));
    let schema = planted.db.schema();
    // The sampled run mines a reservoir of half the instance.
    let sampled = DiscoveryConfig::default().sample(SampleConfig {
        budget_rows: cfg.tuples / 2,
        epsilon: 0.05,
        delta: 0.01,
        seed: 2007,
    });

    for (mode, config) in [("exact", DiscoveryConfig::default()), ("sampled", sampled)] {
        let found = discover(&planted.db, &config);
        if config.sample.is_some() {
            let sampling = found
                .stats
                .sampling
                .expect("a sampled run records its stats");
            assert!(
                sampling.relations_downsampled >= 1,
                "{mode}: nothing sampled"
            );
        }

        let sigma_cfds = found.cfds_normal();
        for cfd in &planted.cfds {
            assert_eq!(
                condep_cfd::implication::implies(
                    schema,
                    &sigma_cfds,
                    cfd,
                    ImplicationConfig::unbounded()
                ),
                CfdImplication::Implied,
                "{mode}: planted CFD not implied by the recovered sigma: {}",
                cfd.display(schema)
            );
        }
        let sigma_cinds = found.cinds_normal();
        for cind in &planted.cinds {
            assert_eq!(
                condep_core::implication::implies(
                    schema,
                    &sigma_cinds,
                    cind,
                    ImplicationConfig::default()
                ),
                CindImplication::Implied,
                "{mode}: planted CIND not implied by the recovered sigma: {}",
                cind.display(schema)
            );
        }

        // The recovery is not vacuous: the planted variable FDs are found
        // with full support, the constants with class-level support.
        assert!(found.cfds.len() >= planted.cfds.len(), "{mode}");
        assert!(found.cinds.len() >= planted.cinds.len(), "{mode}");
    }
}
