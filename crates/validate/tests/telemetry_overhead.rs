//! Telemetry overhead guard: `apply_deltas` with the stream's
//! instrumentation recording must stay within a few percent of the
//! same stream with recording switched off at runtime
//! ([`ValidatorStream::set_telemetry_enabled`]).
//!
//! The workload: a 10K-tuple instance under ~40 CFDs + 2 CINDs,
//! churned in delete/reinsert window pairs that leave the database
//! unchanged — every round does byte-identical work, so the two
//! streams are directly comparable.
//!
//! Wall-clock comparisons on shared hardware are inherently noisy, so
//! the guard interleaves the A/B measurements, keeps the best-of-N
//! round per side, and retries the whole experiment a few times before
//! failing: a genuine regression (say, an accidental allocation or
//! syscall on the per-mutation path) fails every attempt, while
//! scheduler noise does not survive five.

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, Schema, Tuple};
use condep_validate::{Mutation, Validator, ValidatorStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TUPLES: usize = 10_000;
const WINDOW: usize = 100; // 50 deletes + 50 reinserts per window
const WINDOWS_PER_ROUND: usize = 8;
const ROUNDS: usize = 5;
const ATTEMPTS: usize = 5;
/// Relative headroom: instrumented best-of must come in under
/// `disabled * (1 + 5%) + EPSILON_ABS`. The absolute term absorbs
/// timer granularity on rounds that finish in a few milliseconds.
const RELATIVE_HEADROOM: f64 = 0.05;
const EPSILON_ABS: Duration = Duration::from_millis(2);

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

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
            .relation("partner", &[("p", Domain::string())])
            .relation("refs", &[("q", Domain::string())])
            .finish(),
    )
}

/// One clean tuple honoring the embedded FDs `a1 → a2`, `a3 → a4`,
/// `a5 → a6`, a unique id in `a0` and a free column `a7`.
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

/// ~40 CFDs over five LHS sets (wildcard FD rows, constant-LHS rows,
/// constant-RHS rows) + 2 CINDs referencing the side relations.
fn sigma(schema: &Arc<Schema>) -> (Vec<NormalCfd>, Vec<NormalCind>) {
    let lhs_sets: Vec<Vec<&str>> = vec![
        vec!["a1"],
        vec!["a3"],
        vec!["a5"],
        vec!["a1", "a3"],
        vec!["a7", "a1"],
    ];
    let rhs_for = |lhs: &[&str]| {
        if lhs.contains(&"a1") {
            "a2"
        } else if lhs.contains(&"a3") {
            "a4"
        } else {
            "a6"
        }
    };
    let mut cfds = Vec::new();
    let mut j = 0usize;
    while cfds.len() < 40 {
        for lhs in &lhs_sets {
            if cfds.len() >= 40 {
                break;
            }
            let rhs = rhs_for(lhs);
            let member = j % 8;
            let (lhs_pat, rhs_pat) = match member {
                0 => (PatternRow::all_any(lhs.len()), PValue::Any),
                m if m >= 6 => {
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
    let cinds = vec![
        NormalCind::parse(schema, "r", &["a1"], &[], "partner", &["p"], &[]).unwrap(),
        NormalCind::parse(schema, "r", &["a7"], &[], "refs", &["q"], &[]).unwrap(),
    ];
    (cfds, cinds)
}

fn build_db(schema: &Arc<Schema>) -> Database {
    let mut db = Database::empty(schema.clone());
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for i in 0..TUPLES {
        db.insert_into("r", random_tuple(i, &mut state)).unwrap();
    }
    for h in 0..64u64 {
        db.insert_into("partner", tuple![format!("b{h}").as_str()])
            .unwrap();
    }
    for w in 0..8u64 {
        db.insert_into("refs", tuple![format!("w{w}").as_str()])
            .unwrap();
    }
    db
}

/// The round's churn: `WINDOWS_PER_ROUND` windows, each deleting
/// `WINDOW / 2` resident tuples and reinserting them in the same
/// window — every mutation effective, the database unchanged after.
fn round_windows(db: &Database) -> Vec<Vec<Mutation>> {
    let rel = db.schema().rel_id("r").unwrap();
    let tuples = db.relation(rel).tuples();
    let mut windows = Vec::with_capacity(WINDOWS_PER_ROUND);
    for w in 0..WINDOWS_PER_ROUND {
        let chunk: Vec<Tuple> = tuples
            .iter()
            .skip(w * (WINDOW / 2))
            .take(WINDOW / 2)
            .cloned()
            .collect();
        let mut muts: Vec<Mutation> = chunk
            .iter()
            .map(|t| Mutation::Delete {
                rel,
                tuple: t.clone(),
            })
            .collect();
        muts.extend(
            chunk
                .into_iter()
                .map(|tuple| Mutation::Insert { rel, tuple }),
        );
        windows.push(muts);
    }
    windows
}

fn run_round(stream: &mut ValidatorStream, windows: &[Vec<Mutation>]) -> Duration {
    let start = Instant::now();
    for window in windows {
        let deltas = stream.apply_deltas(window).expect("well-typed mutations");
        assert_eq!(deltas.len(), WINDOW, "every mutation must be effective");
    }
    start.elapsed()
}

#[test]
fn instrumented_apply_deltas_stays_within_headroom_of_disabled() {
    let schema = schema();
    let (cfds, cinds) = sigma(&schema);
    let validator = Validator::new(cfds, cinds);
    let db = build_db(&schema);
    let windows = round_windows(&db);

    let (mut on, _) = ValidatorStream::new_validated(validator.clone(), db.clone());
    let (mut off, _) = ValidatorStream::new_validated(validator, db);
    off.set_telemetry_enabled(false);
    assert!(!off.telemetry().is_enabled());

    let mut last = (Duration::ZERO, Duration::ZERO);
    for attempt in 0..ATTEMPTS {
        let mut best_on = Duration::MAX;
        let mut best_off = Duration::MAX;
        for _ in 0..ROUNDS {
            best_off = best_off.min(run_round(&mut off, &windows));
            best_on = best_on.min(run_round(&mut on, &windows));
        }
        let bound = best_off.mul_f64(1.0 + RELATIVE_HEADROOM) + EPSILON_ABS;
        if best_on <= bound {
            println!(
                "attempt {attempt}: instrumented {best_on:?} vs disabled {best_off:?} \
                 (bound {bound:?}) — ok"
            );
            // The instrumented stream really recorded the churn.
            let lat = on.telemetry().window_latency();
            assert!(lat.count > 0, "instrumented stream recorded no windows");
            return;
        }
        last = (best_on, best_off);
    }
    panic!(
        "telemetry overhead guard: instrumented apply_deltas at {:?} exceeded \
         disabled {:?} by more than {}% (+{:?}) in all {ATTEMPTS} attempts",
        last.0,
        last.1,
        (RELATIVE_HEADROOM * 100.0) as u32,
        EPSILON_ABS,
    );
}
