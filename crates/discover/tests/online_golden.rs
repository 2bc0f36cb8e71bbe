//! A golden digest of the online miner's observable output.
//!
//! Four seeded planted-drift instances stream through an
//! [`OnlineMiner`] as inserts, with a random delete after about one
//! insert in three (some deleted tuples arrive again later). Every 50
//! steps the test appends, one line each, the current proposals (the
//! dependency's `Debug` form, its support and `confidence.to_bits()`)
//! and the answer of every level-1 CFD probe and every unary CIND
//! probe. Each planted pair has two classes and the confidence floor is
//! 0.5, so constant rows whose two RHS values tie are proposed, and the
//! majority tie-break shows in the dump. The line count and the fx hash
//! of the whole text are pinned: any change to the sketches that moves
//! a proposal, its order, its evidence or a probe answer by one bit
//! fails here.

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_discover::online::{OnlineConfig, OnlineMiner};
use condep_gen::{clean_database_with_hidden_sigma, PlantedSigmaConfig};
use condep_model::fxhash::fx_hash_one;
use condep_model::{AttrId, Database, PValue, PatternRow, RelId, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::fmt::Write;

/// Lines of the dump over the four streams.
const GOLDEN_LINES: usize = 167_412;
/// `fx_hash_one` of the dump's text.
const GOLDEN_DIGEST: u64 = 0x50fa_cefb_d32f_2063;

/// Steps between two dumps.
const EVERY: usize = 50;

#[test]
fn proposals_and_probes_match_the_golden_digest() {
    let mut text = String::new();
    for seed in 1..=4 {
        dump_stream(seed, &mut text);
    }
    let lines = text.lines().count();
    let digest = fx_hash_one(&text);
    assert_eq!(
        (lines, digest),
        (GOLDEN_LINES, GOLDEN_DIGEST),
        "online miner output moved: {lines} lines, digest {digest:#x}"
    );
}

/// Streams one planted-drift instance and appends its dumps to `out`.
fn dump_stream(seed: u64, out: &mut String) {
    let planted = clean_database_with_hidden_sigma(
        &PlantedSigmaConfig {
            fd_pairs: 3,
            pair_cardinality: 2,
            constant_rows_per_pair: 2,
            cind_count: 2,
            tuples: 3_000,
            drift_pairs: 1,
            drift_onset: 0.5,
        },
        &mut StdRng::seed_from_u64(seed),
    );
    let schema = planted.db.schema().clone();
    let mut miner = OnlineMiner::new(
        schema.clone(),
        OnlineConfig {
            min_support: 4,
            min_confidence: 0.5,
            ..OnlineConfig::default()
        },
    );
    // Seed the dimension tables and the first 500 fact rows; the rest
    // arrives as stream traffic.
    let fact = schema.rel_id("fact").unwrap();
    let mut seeded = Database::empty(schema.clone());
    let mut live: Vec<(RelId, Tuple)> = Vec::new();
    let mut pending: VecDeque<(RelId, Tuple)> = VecDeque::new();
    for (rel, inst) in planted.db.iter() {
        for (i, t) in inst.iter().enumerate() {
            if rel != fact || i < 500 {
                seeded.insert(rel, t.clone()).unwrap();
                live.push((rel, t.clone()));
            } else {
                pending.push_back((rel, t.clone()));
            }
        }
    }
    miner.seed(&seeded);

    let mut probes = Probes::new(&schema);
    let mut checkpoint = |step: usize, miner: &OnlineMiner| {
        if step.is_multiple_of(EVERY) {
            dump(seed, step, miner, &mut probes, out);
        }
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let mut step = 0;
    while let Some((rel, t)) = pending.pop_front() {
        miner.observe_insert(rel, &t);
        live.push((rel, t));
        step += 1;
        checkpoint(step, &miner);
        if rng.gen_range(0..3) == 0 {
            let (rel, t) = live.swap_remove(rng.gen_range(0..live.len()));
            miner.observe_delete(rel, &t);
            if rng.gen_range(0..2) == 0 {
                pending.push_back((rel, t));
            }
            step += 1;
            checkpoint(step, &miner);
        }
    }
}

/// What a checkpoint probes: every variable level-1 CFD and every
/// unary CIND over the schema, a constant row whose LHS value no cell
/// holds for every attribute pair, and each constant row once proposed
/// (kept after it fades). Each probe carries its `Debug` text,
/// formatted once.
struct Probes {
    cfds: Vec<(NormalCfd, String)>,
    cinds: Vec<(NormalCind, String)>,
    known: HashSet<NormalCfd>,
}

/// `t` with its `Debug` text.
fn with_debug<T: std::fmt::Debug>(t: T) -> (T, String) {
    let text = format!("{t:?}");
    (t, text)
}

impl Probes {
    fn new(schema: &Schema) -> Self {
        let mut cfds = Vec::new();
        for (rel, rs) in schema.iter() {
            for x in 0..rs.arity() {
                for y in (0..rs.arity()).filter(|&y| y != x) {
                    let (x, y) = (AttrId(x as u32), AttrId(y as u32));
                    cfds.push(with_debug(NormalCfd::new(
                        rel,
                        vec![x],
                        PatternRow::all_any(1),
                        y,
                        PValue::Any,
                    )));
                    cfds.push(with_debug(NormalCfd::new(
                        rel,
                        vec![x],
                        PatternRow::new(vec![PValue::Const(absent())]),
                        y,
                        PValue::Const(absent()),
                    )));
                }
            }
        }
        let columns: Vec<(RelId, AttrId)> = schema
            .iter()
            .flat_map(|(rel, rs)| (0..rs.arity()).map(move |a| (rel, AttrId(a as u32))))
            .collect();
        let mut cinds = Vec::new();
        for &(src_rel, src_attr) in &columns {
            for &(dst_rel, dst_attr) in &columns {
                cinds.push(with_debug(NormalCind::new(
                    src_rel,
                    dst_rel,
                    vec![src_attr],
                    vec![dst_attr],
                    Vec::new(),
                    Vec::new(),
                )));
            }
        }
        Probes {
            cfds,
            cinds,
            known: HashSet::new(),
        }
    }

    /// Probes a newly proposed constant row from now on: as proposed,
    /// with its own LHS value as the RHS constant (a value the miner
    /// knows but the class lacks), and with a value no cell holds as
    /// the RHS constant.
    fn learn(&mut self, cfd: &NormalCfd) {
        let PValue::Const(xv) = cfd.lhs_pat().cell(0) else {
            return;
        };
        if !self.known.insert(cfd.clone()) {
            return;
        }
        self.cfds.push(with_debug(cfd.clone()));
        for rhs in [xv.clone(), absent()] {
            self.cfds.push(with_debug(NormalCfd::new(
                cfd.rel(),
                cfd.lhs().to_vec(),
                cfd.lhs_pat().clone(),
                cfd.rhs(),
                PValue::Const(rhs),
            )));
        }
    }
}

/// A value no cell of the planted instances holds.
fn absent() -> Value {
    Value::str("absent")
}

/// Appends one checkpoint: proposals, then every probe's answer.
fn dump(seed: u64, step: usize, miner: &OnlineMiner, probes: &mut Probes, out: &mut String) {
    let props = miner.proposals();
    for d in &props.cfds {
        writeln!(
            out,
            "{seed} {step} cfd {:?} {} {:#x}",
            d.cfd,
            d.support,
            d.confidence.to_bits()
        )
        .unwrap();
        probes.learn(&d.cfd);
    }
    for d in &props.cinds {
        writeln!(
            out,
            "{seed} {step} cind {:?} {} {:#x}",
            d.cind,
            d.support,
            d.confidence.to_bits()
        )
        .unwrap();
    }
    for (cfd, text) in &probes.cfds {
        let answer = miner.confidence_of_cfd(cfd).map(|(s, c)| (s, c.to_bits()));
        writeln!(out, "{seed} {step} probe {text} {answer:?}").unwrap();
    }
    for (cind, text) in &probes.cinds {
        let answer = miner
            .confidence_of_cind(cind)
            .map(|(s, c)| (s, c.to_bits()));
        writeln!(out, "{seed} {step} probe {text} {answer:?}").unwrap();
    }
}
