//! A golden digest of batch discovery's observable output.
//!
//! Planted instances and one hand-built database run through
//! [`discover`]: three 400-row planted seeds exactly (the default
//! config) and approximately (`min_confidence` 0.9, `max_lhs` 3); a
//! 10,006-row planted seed sampled at a 2,000-row budget under both
//! configs, so the confirmation pass re-counts a downsampled keep-set
//! over the full data; and the hand-built database exactly,
//! approximately, at a 0.5 confidence floor (where a class split evenly
//! between two RHS values is a constant row whose RHS is the tally's
//! tie-break) and sampled at both floors. Each run appends, one line
//! each, every kept CFD and CIND (its `Debug` form, its support, its
//! `confidence.to_bits()` and its interval's bits), then the run's
//! `DiscoveryStats` with its `SamplingStats`; phase timings are left
//! out.
//!
//! The planted key columns have three values and one pair drifts, so
//! classes are impure and constant rows tie on `(support,
//! confidence)`: tied rows rank in generation order, which follows the
//! partitions' class order within a lattice node. The hand-built
//! database mixes `Int`, `Bool` and string columns, and its string
//! columns `a` and `b` share values that the interner numbered in a
//! different order than either column first meets them, so a partition
//! that orders classes by symbol where it should follow first sight, or
//! the reverse, moves the dump. The line count and the fx hash of the
//! whole text are pinned.

use condep_discover::{discover, DiscoveryConfig, EvidenceInterval, SampleConfig};
use condep_gen::{clean_database_with_hidden_sigma, PlantedSigmaConfig};
use condep_model::fxhash::fx_hash_one;
use condep_model::{Database, Domain, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::sync::Arc;

/// Lines of the dump over every instance and mode.
const GOLDEN_LINES: usize = 345;
/// `fx_hash_one` of the dump's text.
const GOLDEN_DIGEST: u64 = 0xe5b6_8483_07b5_453f;

#[test]
fn discovered_sigma_matches_the_golden_digest() {
    let mut text = String::new();
    let approximate = DiscoveryConfig {
        min_confidence: 0.9,
        max_lhs: 3,
        ..DiscoveryConfig::default()
    };
    for seed in 1..=3 {
        let db = planted(seed, 400);
        dump(
            &format!("planted {seed} exact"),
            &db,
            &DiscoveryConfig::default(),
            &mut text,
        );
        dump(
            &format!("planted {seed} approximate"),
            &db,
            &approximate,
            &mut text,
        );
    }
    let sampled = DiscoveryConfig::default().sample(SampleConfig {
        budget_rows: 2_000,
        ..SampleConfig::default()
    });
    let db = planted(4, 10_000);
    dump("planted 4 sampled", &db, &sampled, &mut text);
    let sampled_approximate = DiscoveryConfig {
        sample: sampled.sample,
        ..approximate
    };
    dump(
        "planted 4 sampled approximate",
        &db,
        &sampled_approximate,
        &mut text,
    );

    let db = mixed();
    dump("mixed exact", &db, &DiscoveryConfig::default(), &mut text);
    dump("mixed approximate", &db, &approximate, &mut text);
    // At a 0.5 floor, a class split evenly between two RHS values
    // yields a constant row: its RHS is the tally's tie-break.
    let loose = DiscoveryConfig {
        min_confidence: 0.5,
        ..DiscoveryConfig::default()
    };
    dump("mixed loose", &db, &loose, &mut text);
    // ε = δ = 0.5 lets a 24-row reservoir stand: `r` is downsampled, `s`
    // is taken whole.
    let sampled = DiscoveryConfig::default().sample(SampleConfig {
        budget_rows: 24,
        epsilon: 0.5,
        delta: 0.5,
        seed: 7,
    });
    dump("mixed sampled", &db, &sampled, &mut text);
    // The sampled walk at a 0.33 floor keeps rows the exact 0.5 floor
    // drops: confirmation re-counts and drops them.
    let sampled_loose = DiscoveryConfig {
        sample: sampled.sample,
        ..loose
    };
    dump("mixed sampled loose", &db, &sampled_loose, &mut text);

    let lines = text.lines().count();
    let digest = fx_hash_one(&text);
    assert_eq!(
        (lines, digest),
        (GOLDEN_LINES, GOLDEN_DIGEST),
        "discovery output moved: {lines} lines, digest {digest:#x}"
    );
}

/// A planted instance: three two-column pairs over three values each,
/// the last drifting from 70% of the rows on.
fn planted(seed: u64, tuples: usize) -> Database {
    clean_database_with_hidden_sigma(
        &PlantedSigmaConfig {
            fd_pairs: 3,
            pair_cardinality: 3,
            constant_rows_per_pair: 2,
            cind_count: 2,
            tuples,
            drift_pairs: 1,
            drift_onset: 0.7,
        },
        &mut StdRng::seed_from_u64(seed),
    )
    .db
}

/// `r(id, a, b, n, f, m, c)` and `s(v, w)`: every `(a, b)` pair of
/// three `a` and four `b` values occurs on eight rows, shuffled, so the
/// classes of `a`, `b` and `(a, b)` tie on size. `id` is an integer key,
/// `a → n` holds on about 95% of the rows, `b → f` exactly, `c` is `a`
/// or `b` as `f` says (so `(a, b) → c` holds and `a → c`, `b → c` do
/// not), `m` is noise over negative integers. The first three rows fix
/// the interner's order `z < y < x < w` while `a` first meets `z, x, y`
/// and `b` first meets `y, z, x`.
fn mixed() -> Database {
    let schema = Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("id", Domain::integer()),
                    ("a", Domain::string()),
                    ("b", Domain::string()),
                    ("n", Domain::integer()),
                    ("f", Domain::boolean()),
                    ("m", Domain::integer()),
                    ("c", Domain::string()),
                ],
            )
            .relation("s", &[("v", Domain::string()), ("w", Domain::integer())])
            .finish(),
    );
    let mut db = Database::empty(schema);
    let mut rng = StdRng::seed_from_u64(2007);
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for _ in 0..8 {
        for a in ["x", "y", "z"] {
            for b in ["z", "w", "x", "y"] {
                pairs.push((a, b));
            }
        }
    }
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    for (i, first) in [("z", "y"), ("x", "z"), ("y", "x")].into_iter().enumerate() {
        let at = i + pairs[i..].iter().position(|&p| p == first).unwrap();
        pairs.swap(i, at);
    }
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let n: i64 = if rng.gen_range(0..20) == 0 {
            99
        } else {
            match a {
                "x" => 30,
                "y" => -4,
                _ => 7,
            }
        };
        let f = b == "z" || b == "x";
        let m = -rng.gen_range(0..3i64);
        let c = if f { a } else { b };
        db.insert_into(
            "r",
            Tuple::new(vec![
                Value::int(3 * i as i64 - 50),
                Value::str(a),
                Value::str(b),
                Value::int(n),
                Value::bool(f),
                Value::int(m),
                Value::str(c),
            ]),
        )
        .unwrap();
    }
    for (v, w) in [
        ("x", 30),
        ("y", -4),
        ("z", 7),
        ("w", 99),
        ("extra", 5),
        ("x", 0),
        ("y", -1),
        ("z", -2),
        ("w", 30),
        ("x", 7),
        ("y", 99),
        ("z", -4),
    ] {
        db.insert_into("s", Tuple::new(vec![Value::str(v), Value::int(w)]))
            .unwrap();
    }
    db
}

/// Appends one run's kept dependencies and counters to `out`.
fn dump(label: &str, db: &Database, config: &DiscoveryConfig, out: &mut String) {
    let found = discover(db, config);
    writeln!(out, "== {label}").unwrap();
    for d in &found.cfds {
        writeln!(
            out,
            "cfd {:?} support {} confidence {:#x} interval {}",
            d.cfd,
            d.support,
            d.confidence.to_bits(),
            interval(d.interval)
        )
        .unwrap();
    }
    for d in &found.cinds {
        writeln!(
            out,
            "cind {:?} support {} confidence {:#x} interval {}",
            d.cind,
            d.support,
            d.confidence.to_bits(),
            interval(d.interval)
        )
        .unwrap();
    }
    writeln!(out, "stats {:?}", found.stats).unwrap();
}

/// An interval's bounds, floats as bits.
fn interval(iv: Option<EvidenceInterval>) -> String {
    match iv {
        None => "-".into(),
        Some(iv) => format!(
            "{}..{} {:#x}..{:#x}",
            iv.support.0,
            iv.support.1,
            iv.confidence.0.to_bits(),
            iv.confidence.1.to_bits()
        ),
    }
}
