//! Deterministic reservoir sampling for budgeted discovery.
//!
//! Sampling happens **before** symbolization: at 10M rows the dominant
//! cost of a full [`crate::discover`] run is `SymTables::build` (one
//! [`condep_model::Dict`] acquire per cell) plus
//! the level-1 index builds, all linear in the instance. Feeding the
//! lattice walk a bounded sample caps that whole pipeline at the
//! budget, and the (cheap, streaming) confirmation pass in
//! [`crate::confirm`] is the only full-data work left.
//!
//! The sample is Algorithm R per relation, driven by an
//! [`rand::rngs::StdRng`] seeded from [`SampleConfig::seed`] and the
//! relation index — deterministic for a fixed `(db, config)`, and
//! stable per relation (adding a relation never reshuffles another's
//! sample). Sampled positions are re-sorted ascending before the rows
//! are copied, so the sampled instance preserves the source's relative
//! tuple order (the miners' tie-breaks stay position-deterministic).

use crate::config::SampleConfig;
use condep_model::{Database, RelId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sampled snapshot plus enough bookkeeping to scale estimates
/// back to the full instance.
pub(crate) struct SampleOutcome {
    /// The sampled database (relations at or under budget are whole).
    pub db: Database,
    /// Full-instance row count per relation.
    pub full_rows: Vec<usize>,
    /// Sampled row count per relation.
    pub sampled_rows: Vec<usize>,
    /// Was this relation actually downsampled?
    pub downsampled: Vec<bool>,
}

impl SampleOutcome {
    /// Did any relation get downsampled? (If not, the exact path is
    /// strictly better — same cost, no estimation.)
    pub fn any_downsampled(&self) -> bool {
        self.downsampled.iter().any(|&d| d)
    }

    /// `(sampled, full)` row counts for one relation.
    pub fn rows(&self, rel: RelId) -> (usize, usize) {
        (self.sampled_rows[rel.index()], self.full_rows[rel.index()])
    }
}

/// Draws the per-relation reservoir sample of at most `budget` rows.
pub(crate) fn reservoir_sample(db: &Database, config: &SampleConfig) -> SampleOutcome {
    let budget = config.effective_budget();
    let mut out = SampleOutcome {
        db: Database::empty(db.schema().clone()),
        full_rows: Vec::new(),
        sampled_rows: Vec::new(),
        downsampled: Vec::new(),
    };
    for (rel, relation) in db.iter() {
        let n = relation.len();
        out.full_rows.push(n);
        if n <= budget {
            // Whole relation: exact counts for free.
            for t in relation.iter() {
                out.db.insert(rel, t.clone()).expect("same schema");
            }
            out.sampled_rows.push(n);
            out.downsampled.push(false);
            continue;
        }
        // Algorithm R over positions; per-relation stream so samples
        // are independent and stable across schema growth.
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_add((rel.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        let mut reservoir: Vec<u32> = (0..budget as u32).collect();
        for pos in budget..n {
            let j = rng.gen_range(0..=pos);
            if j < budget {
                reservoir[j] = pos as u32;
            }
        }
        reservoir.sort_unstable();
        for &pos in &reservoir {
            let t = relation.get(pos as usize).expect("sampled in range");
            out.db.insert(rel, t.clone()).expect("same schema");
        }
        out.sampled_rows.push(budget);
        out.downsampled.push(true);
    }
    out
}

/// The mining configuration used **on the sample**: support floors are
/// scaled to the sampled fraction (halved again, so a borderline class
/// that under-samples is not lost before confirmation can count it
/// exactly) and the confidence floor is relaxed by the realized
/// Hoeffding half-width — candidates whose interval still reaches the
/// requested floor survive to the exact confirmation pass, which
/// re-applies the caller's original floors.
pub(crate) fn sampled_mining_config(
    config: &crate::DiscoveryConfig,
    sampled_fraction: f64,
    epsilon: f64,
) -> crate::DiscoveryConfig {
    let scaled_support = (config.support_floor() as f64 * sampled_fraction * 0.5).floor() as usize;
    crate::DiscoveryConfig {
        min_support: scaled_support.max(2),
        min_confidence: (config.confidence_floor() - epsilon).max(0.0),
        sample: None,
        ..*config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{tuple, Domain, Schema};
    use std::sync::Arc;

    fn db(n: usize) -> Database {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("id", Domain::string()), ("v", Domain::string())])
                .relation("small", &[("v", Domain::string())])
                .finish(),
        );
        let mut db = Database::empty(schema);
        for i in 0..n {
            db.insert_into(
                "r",
                tuple![format!("t{i}").as_str(), format!("v{}", i % 7).as_str()],
            )
            .unwrap();
        }
        for i in 0..3 {
            db.insert_into("small", tuple![format!("v{i}").as_str()])
                .unwrap();
        }
        db
    }

    #[test]
    fn sample_is_deterministic_and_respects_the_budget() {
        let db = db(500);
        let cfg = SampleConfig {
            budget_rows: 64,
            epsilon: 0.2,
            delta: 0.1,
            seed: 7,
        };
        let a = reservoir_sample(&db, &cfg);
        let b = reservoir_sample(&db, &cfg);
        assert_eq!(a.sampled_rows, vec![cfg.effective_budget().min(500), 3]);
        assert_eq!(a.downsampled, vec![true, false]);
        assert!(a.any_downsampled());
        let r = db.schema().rel_id("r").unwrap();
        assert_eq!(a.db.relation(r).len(), b.db.relation(r).len());
        for (x, y) in a.db.relation(r).iter().zip(b.db.relation(r).iter()) {
            assert_eq!(x, y, "reservoir must be deterministic");
        }
        // Every sampled tuple is a real source tuple.
        for t in a.db.relation(r).iter() {
            assert!(db.relation(r).iter().any(|s| s == t));
        }
    }

    #[test]
    fn small_relations_are_taken_whole() {
        let db = db(10);
        let out = reservoir_sample(&db, &SampleConfig::default());
        assert!(!out.any_downsampled());
        assert_eq!(out.db.total_tuples(), db.total_tuples());
    }

    #[test]
    fn requested_epsilon_raises_an_undersized_budget() {
        let cfg = SampleConfig {
            budget_rows: 10,
            epsilon: 0.05,
            delta: 0.01,
            seed: 0,
        };
        // ln(200) / (2 · 0.0025) ≈ 1060 rows needed for ε = 0.05.
        assert!(cfg.effective_budget() >= 1_000);
        assert!(cfg.epsilon_for(cfg.effective_budget()) <= cfg.epsilon + 1e-9);
    }
}
