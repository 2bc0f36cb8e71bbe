//! A golden digest of the Section 5 decisions.
//!
//! Seeded random schemas with small finite domains (2–4 values) carry
//! generated Σ, alternately consistent around a hidden witness and
//! unconstrained. Each instance goes through three entry points:
//!
//! * `chase` with [`ChaseConfig::default`], seeded once in every
//!   relation: defined with its template, or undefined with its
//!   `UndefinedReason`;
//! * `random_checking`: the witness database, or none;
//! * `checking` with both [`CfdCheckerKind`]s: the witness, or none.
//!
//! The line count and the fx hash of the whole text are pinned. Any
//! change to the chase's candidate check, its candidate order or its
//! RNG draws that moves one decision, one template cell or one witness
//! tuple fails here.

use condep_chase::ops::seed_tuple;
use condep_chase::{chase, ChaseConfig, ChaseOutcome, TemplateDb};
use condep_consistency::checking::CfdCheckerKind;
use condep_consistency::{
    checking, random_checking, CheckingConfig, ConstraintSet, RandomCheckingConfig,
};
use condep_gen::{generate_sigma, random_schema, SchemaGenConfig, SigmaGenConfig};
use condep_model::fxhash::fx_hash_one;
use condep_model::{Database, RelId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// Lines of the dump over every instance.
const GOLDEN_LINES: usize = 5_134;
/// `fx_hash_one` of the dump's text.
const GOLDEN_DIGEST: u64 = 0x1868_2fa7_a9fe_aa01;

/// Seeded instances.
const INSTANCES: u64 = 128;

#[test]
fn section_5_decisions_match_the_golden_digest() {
    let mut text = String::new();
    for seed in 0..INSTANCES {
        dump_instance(seed, &mut text);
    }
    let lines = text.lines().count();
    let digest = fx_hash_one(&text);
    assert_eq!(
        (lines, digest),
        (GOLDEN_LINES, GOLDEN_DIGEST),
        "Section 5 decisions moved: {lines} lines, digest {digest:#x}"
    );
}

/// Generates one instance and appends every entry point's outcome.
fn dump_instance(seed: u64, out: &mut String) {
    let schema = random_schema(
        &SchemaGenConfig {
            relations: 2 + (seed % 3) as usize,
            attrs_min: 2,
            attrs_max: 4,
            finite_ratio: 0.8,
            finite_dom_min: 2,
            finite_dom_max: 4,
        },
        &mut StdRng::seed_from_u64(seed),
    );
    let consistent = seed.is_multiple_of(2);
    let (cfds, cinds, _) = generate_sigma(
        &schema,
        &SigmaGenConfig {
            cardinality: 8 + 6 * (seed % 5) as usize,
            cfd_fraction: 0.75,
            consistent,
            constant_pool: 2,
            // Scattered conclusions make near-traps that the candidate
            // check must step around.
            witness_bias: 0.5,
        },
        &mut StdRng::seed_from_u64(seed + 1_000),
    );
    let sigma = ConstraintSet::new(schema.clone(), cfds, cinds);
    writeln!(
        out,
        "instance {seed} consistent={consistent} cfds={} cinds={}",
        sigma.cfds().len(),
        sigma.cinds().len()
    )
    .unwrap();

    for (rel, rs) in schema.iter() {
        let mut db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut db, rel);
        let mut rng = StdRng::seed_from_u64(seed * 31 + u64::from(rel.0));
        let outcome = chase(
            db,
            sigma.cfds(),
            sigma.cinds(),
            &ChaseConfig::default(),
            &mut rng,
        );
        write!(out, "chase from {}: ", rs.name()).unwrap();
        match outcome {
            ChaseOutcome::Defined(template) => writeln!(out, "defined\n{template}"),
            ChaseOutcome::Undefined(reason) => writeln!(out, "undefined {reason:?}"),
        }
        .unwrap();
    }

    let random = RandomCheckingConfig {
        k: 6,
        seed: seed + 2_000,
        ..RandomCheckingConfig::default()
    };
    dump_witness(
        out,
        "random_checking",
        random_checking(&sigma, &random, None),
    );
    let seeds: Vec<RelId> = schema.iter().map(|(r, _)| r).take(2).collect();
    dump_witness(
        out,
        "random_checking seeded",
        random_checking(&sigma, &random, Some(&seeds)),
    );
    for kind in [CfdCheckerKind::Chase, CfdCheckerKind::Sat] {
        let cfg = CheckingConfig {
            random: random.clone(),
            checker: kind,
            ..CheckingConfig::default()
        };
        dump_witness(out, &format!("checking {kind:?}"), checking(&sigma, &cfg));
    }
}

fn dump_witness(out: &mut String, label: &str, witness: Option<Database>) {
    match witness {
        Some(db) => writeln!(out, "{label}: witness\n{db}"),
        None => writeln!(out, "{label}: none"),
    }
    .unwrap();
}
