//! `repair_coordinated`: `QualitySuite::repair` of a planted instance
//! carrying majority-flipping dirt on top of uniform dirt.

use crate::data::{majority_flips, Rows};
use crate::stats::{median_of, setups, timed, ClosedLoop, Samples};
use crate::{
    counter, overhead_pct, ratio, stream_counters, unattributed_pct, Config, Report, CHECKS, REPS,
};
use condep::report::QualitySuite;
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_gen::{
    adversarial_majority_dirt, clean_database_with_hidden_sigma, dirtied_database,
    AdversarialDirtConfig, PlantedSigmaConfig, PoisonedClass,
};
use condep_model::Database;
use condep_repair::{RepairBudget, RepairCost, RepairReport};
use condep_validate::{Validator, ValidatorStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

struct Params {
    sigma: PlantedSigmaConfig,
    poison: AdversarialDirtConfig,
    dirt_rate: f64,
    min_repairs: usize,
}

impl Params {
    fn new(small: bool) -> Self {
        Params {
            sigma: PlantedSigmaConfig {
                fd_pairs: 3,
                pair_cardinality: if small { 64 } else { 1024 },
                constant_rows_per_pair: 3,
                cind_count: 2,
                tuples: if small { 4_000 } else { 100_000 },
                drift_pairs: 0,
                drift_onset: 0.5,
            },
            poison: AdversarialDirtConfig {
                classes: if small { 8 } else { 64 },
                copies: if small { 20 } else { 110 },
            },
            dirt_rate: 0.005,
            min_repairs: 3,
        }
    }
}

#[derive(Clone)]
struct Input {
    rows: Rows,
    cfds: Vec<NormalCfd>,
    cinds: Vec<NormalCind>,
}

impl Input {
    /// The instance and Σ, with the classes the majority dirt poisoned.
    fn generate(p: &Params, seed: u64) -> (Self, Vec<PoisonedClass>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let planted = clean_database_with_hidden_sigma(&p.sigma, &mut rng);
        let poisoned = adversarial_majority_dirt(&planted, &p.sigma, &p.poison, &mut rng);
        let dirty = dirtied_database(
            &poisoned.db,
            &planted.cfds,
            &planted.cinds,
            p.dirt_rate,
            &mut rng,
        );
        let input = Input {
            rows: Rows::of(&dirty.db),
            cfds: planted.cfds,
            cinds: planted.cinds,
        };
        (input, poisoned.poisoned)
    }

    /// Rows and Σ to a loaded database and a compiled suite.
    fn build(self) -> (QualitySuite, Database) {
        let db = self.rows.load();
        let suite = QualitySuite::from_normal(db.schema().clone(), self.cfds, self.cinds);
        (suite, db)
    }
}

/// One `QualitySuite::repair` of a copy of `db`, with its gates: the
/// residual equals a fresh sweep and every kept fix is net-negative.
fn repair_once(
    suite: &QualitySuite,
    db: &Database,
    rep: &mut Report,
) -> Option<(Duration, Database, RepairReport)> {
    let db = db.clone();
    let (d, out) = timed(|| suite.repair(db, &RepairCost::uniform(), &RepairBudget::default()));
    rep.op(out.is_ok());
    let (repaired, report) = out.ok()?;
    rep.gate(
        suite.validator().validate_sorted(&repaired) == report.residual,
        "repair_coordinated: residual equals a fresh sweep",
    );
    rep.gate(
        report.log.applied.iter().all(|a| a.net_change() < 0),
        "repair_coordinated: every kept fix is net-negative",
    );
    Some((d, repaired, report))
}

pub fn run(cfg: &Config, rep: &mut Report) {
    let p = Params::new(cfg.small);
    let (input, poisoned) = Input::generate(&p, cfg.seed);
    if cfg.trace {
        trace(&input, rep);
    } else {
        end_to_end(cfg, &p, input, &poisoned, rep);
    }
}

fn end_to_end(
    cfg: &Config,
    p: &Params,
    input: Input,
    poisoned: &[PoisonedClass],
    rep: &mut Report,
) {
    let (setup, (suite, db)) = setups(input, Input::build);
    let validate_s = median_of(CHECKS, || (), |()| suite.check(&db));

    let mut repairs = Samples::new();
    let mut outcome = None;
    let mut closed = ClosedLoop::new(cfg.seconds, p.min_repairs);
    while closed.keep_going(&repairs) {
        let Some((d, repaired, report)) = repair_once(&suite, &db, rep) else {
            break;
        };
        repairs.push(d);
        outcome = Some((report.residual.len(), majority_flips(&repaired, poisoned)));
    }

    rep.metric("setup_s", setup.median());
    rep.detail("validate_s", validate_s);
    rep.detail("op_p50_ms", repairs.median() * 1e3);
    rep.metric("op_mean_ms", repairs.mean() * 1e3);
    rep.metric("peak_rss_mb", closed.peak_rss_mb());
    rep.detail("repair_s", repairs.median());
    rep.detail("repairs", repairs.len() as f64);
    if let Some((residual, flips)) = outcome {
        rep.detail("repair_residual", residual as f64);
        rep.detail("repair_majority_flips", flips as f64);
    }
}

fn trace(input: &Input, rep: &mut Report) {
    // Inner layers alone, on the inputs `repair` receives.
    let load_s = median_of(REPS, || input.rows.clone(), Rows::load);
    let compile_s = median_of(
        REPS,
        || (input.cfds.clone(), input.cinds.clone()),
        |(c, i)| Validator::new(c, i),
    );
    let db = input.rows.clone().load();
    let validator = Validator::new(input.cfds.clone(), input.cinds.clone());
    let sweep_s = median_of(REPS, || (), |()| validator.validate_sorted(&db));
    let preflight_s = median_of(REPS, || (), |()| validator.analysis(db.schema()));
    let initial = validator.validate_sorted(&db);
    let materialize_s = median_of(
        REPS,
        || (validator.clone(), db.clone(), initial.clone()),
        |(v, d, r)| ValidatorStream::with_report(v, d, r),
    );

    // Set-up, check and one repair, untraced and then traced.
    let pass = |rep: &mut Report| {
        let start = Instant::now();
        let (suite, db) = input.clone().build();
        drop(suite.check(&db));
        let repaired = repair_once(&suite, &db, rep);
        (start.elapsed().as_secs_f64(), repaired)
    };
    let (untraced_wall, _) = pass(rep);
    let (wall, repaired) = pass(rep);
    let Some((repair_d, _, report)) = repaired else {
        return;
    };
    let repair_s = repair_d.as_secs_f64();
    let fixloop_s = repair_s - sweep_s - preflight_s - materialize_s;
    let accepted = counter(rep, &report.metrics, "repair.fixes.accepted");
    let rejected = counter(rep, &report.metrics, "repair.fixes.rejected");
    let stale = counter(rep, &report.metrics, "repair.fixes.stale");
    let rounds = counter(rep, &report.metrics, "repair.rounds");
    stream_counters(rep, &report.metrics);

    rep.metric("model.load_s", load_s);
    rep.metric("validator.compile_s", compile_s);
    rep.metric("validator.sweep_s", sweep_s);
    rep.metric("validator.groups", validator.group_count() as f64);
    rep.metric("validator.members", validator.compiled_cfd_members() as f64);
    rep.metric("analyze.preflight_s", preflight_s);
    rep.metric("stream.materialize_s", materialize_s);
    rep.metric("repair.fixloop_s", fixloop_s);
    rep.metric(
        "repair.us_per_accepted_fix",
        ratio(fixloop_s * 1e6, accepted),
    );
    rep.metric("repair.fixes.accepted", accepted);
    rep.metric("repair.fixes.rejected", rejected);
    rep.metric("repair.fixes.stale", stale);
    rep.metric("repair.rounds", rounds);
    rep.metric("repair.accept_ratio", ratio(accepted, accepted + rejected));
    // The pass's check is one sweep; its repair is fully attributed by
    // construction (the fix loop is the remainder).
    let attributed = load_s + compile_s + sweep_s + repair_s;
    rep.metric("unattributed_pct", unattributed_pct(wall, attributed));
    rep.metric("trace.overhead_pct", overhead_pct(untraced_wall, wall));
}
