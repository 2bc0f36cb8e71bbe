//! A golden digest of repair's decisions.
//!
//! Twelve seeded planted instances, each with two CINDs, carry
//! majority-flipping dirt (per poisoned class, a block of identical
//! copies below, equal to or above the class's clean support) and
//! uniform dirt on top, and are repaired under uniform costs. Per seed the test appends, one line each:
//! the round, rejection and stale counts and whether the budget ran
//! out; every kept fix (`AppliedFix`'s `Debug` form); every residual
//! violation; and every tuple of the repaired database, relation by
//! relation in position order. The line count and the fx hash of the
//! whole text are pinned: a change to planning, candidate order, the
//! keep-or-revert decision or the stream's swap renumbering moves a
//! fix, a counter or a tuple position, and fails here.
//!
//! The inputs are chosen so the dump covers what matters: classes
//! holding many pair violations against one witness, a run of three or
//! more rounds, and CIND orphans repaired by insertion or deletion.

use condep_gen::{
    adversarial_majority_dirt, clean_database_with_hidden_sigma, dirtied_database,
    AdversarialDirtConfig, PlantedSigmaConfig,
};
use condep_model::fxhash::fx_hash_one;
use condep_repair::{repair, Motive, RepairBudget, RepairCost, RepairReport};
use condep_validate::Validator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// Lines of the dump over the twelve seeds.
const GOLDEN_LINES: usize = 15_220;
/// `fx_hash_one` of the dump's text.
const GOLDEN_DIGEST: u64 = 0x595f_e486_dd2d_e68d;

#[test]
fn repair_decisions_match_the_golden_digest() {
    let mut text = String::new();
    let mut most_rounds = 0;
    let mut cind_fixes = 0;
    for seed in 1..=12 {
        let report = dump_repair(seed, &mut text);
        most_rounds = most_rounds.max(report.log.rounds);
        cind_fixes += report
            .log
            .applied
            .iter()
            .filter(|a| matches!(a.motive, Motive::Cind(_)))
            .count();
    }
    assert!(most_rounds >= 3, "no seed ran three rounds");
    assert!(cind_fixes > 0, "no seed repaired a CIND orphan");
    let lines = text.lines().count();
    let digest = fx_hash_one(&text);
    assert_eq!(
        (lines, digest),
        (GOLDEN_LINES, GOLDEN_DIGEST),
        "repair output moved: {lines} lines, digest {digest:#x}"
    );
}

/// Repairs one seeded dirty instance, appends its dump to `out` and
/// returns the report.
fn dump_repair(seed: u64, out: &mut String) -> RepairReport {
    let sigma = PlantedSigmaConfig {
        fd_pairs: 3,
        pair_cardinality: 16,
        constant_rows_per_pair: 2,
        cind_count: 2,
        tuples: 800,
        drift_pairs: 0,
        drift_onset: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let planted = clean_database_with_hidden_sigma(&sigma, &mut rng);
    let poisoned = adversarial_majority_dirt(
        &planted,
        &sigma,
        &AdversarialDirtConfig {
            classes: 4,
            copies: 40 + 10 * (seed % 3) as usize,
        },
        &mut rng,
    );
    // 1% to 5.5% uniform dirt, by seed.
    let rate = 0.01 + 0.015 * (seed % 4) as f64;
    let dirty = dirtied_database(&poisoned.db, &planted.cfds, &planted.cinds, rate, &mut rng);
    let validator = Validator::new(planted.cfds, planted.cinds);
    let (repaired, report) = repair(
        validator,
        dirty.db,
        &RepairCost::uniform(),
        &RepairBudget::default(),
    )
    .expect("planted Σ is satisfiable");

    let log = &report.log;
    writeln!(
        out,
        "{seed} rounds {} rejected {} stale {} budget_exhausted {}",
        log.rounds, log.rejected, log.stale, report.budget_exhausted
    )
    .unwrap();
    for a in &log.applied {
        writeln!(out, "{seed} fix {a:?}").unwrap();
    }
    for (ci, v) in &report.residual.cfd {
        writeln!(out, "{seed} residual cfd {ci} {v:?}").unwrap();
    }
    for (ci, v) in &report.residual.cind {
        writeln!(out, "{seed} residual cind {ci} {v:?}").unwrap();
    }
    let schema = repaired.schema().clone();
    for (rel, inst) in repaired.iter() {
        let name = schema.relation(rel).unwrap().name();
        for (pos, t) in inst.iter().enumerate() {
            writeln!(out, "{seed} {name} {pos} {t:?}").unwrap();
        }
    }
    report
}
