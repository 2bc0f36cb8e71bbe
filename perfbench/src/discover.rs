//! `discover_1m`: sampled `discover` over a 1M-row planted instance.

use crate::data::Rows;
use crate::stats::{median_of, setups, timed, ClosedLoop, Samples};
use crate::{overhead_pct, unattributed_pct, Config, Report, REPS};
use condep::report::QualitySuite;
use condep_cfd::NormalCfd;
use condep_core::implication::ImplicationConfig;
use condep_core::NormalCind;
use condep_discover::{discover, DiscoveredSigma, DiscoveryConfig, SampleConfig};
use condep_gen::{clean_database_with_hidden_sigma, PlantedSigmaConfig};
use condep_model::{Database, Schema};
use condep_validate::Validator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Params {
    sigma: PlantedSigmaConfig,
    min_discovers: usize,
}

impl Params {
    fn new(small: bool) -> Self {
        Params {
            sigma: PlantedSigmaConfig {
                fd_pairs: 4,
                pair_cardinality: 8,
                constant_rows_per_pair: 4,
                cind_count: 2,
                tuples: if small { 20_000 } else { 1_000_000 },
                drift_pairs: 0,
                drift_onset: 0.5,
            },
            min_discovers: 3,
        }
    }
}

/// The hidden Σ the generated rows were drawn from.
struct Hidden {
    cfds: Vec<NormalCfd>,
    cinds: Vec<NormalCind>,
}

fn config() -> DiscoveryConfig {
    DiscoveryConfig::default().sample(SampleConfig::default())
}

/// The share of the hidden Σ that the discovered Σ′ implies.
fn planted_implied(schema: &Arc<Schema>, hidden: &Hidden, found: &DiscoveredSigma) -> f64 {
    let (cfds, cinds) = (found.cfds_normal(), found.cinds_normal());
    let implied_cfds = hidden
        .cfds
        .iter()
        .filter(|cfd| {
            condep_cfd::implication::implies(schema, &cfds, cfd, ImplicationConfig::unbounded())
                == condep_cfd::implication::Implication::Implied
        })
        .count();
    let implied_cinds = hidden
        .cinds
        .iter()
        .filter(|cind| {
            condep_core::implication::implies(schema, &cinds, cind, ImplicationConfig::default())
                == condep_core::implication::Implication::Implied
        })
        .count();
    let total = hidden.cfds.len() + hidden.cinds.len();
    (implied_cfds + implied_cinds) as f64 / total.max(1) as f64
}

/// One `discover` run and its implication gate.
fn discover_once(
    hidden: &Hidden,
    db: &Database,
    rep: &mut Report,
) -> (Duration, DiscoveredSigma, f64) {
    let (d, found) = timed(|| discover(db, &config()));
    rep.op(true);
    let implied = planted_implied(db.schema(), hidden, &found);
    rep.gate(
        implied == 1.0,
        "discover_1m: every hidden dependency is implied",
    );
    (d, found, implied)
}

const KEEPS_HOLD: &str = "discover_1m: every kept dependency holds on the instance";

pub fn run(cfg: &Config, rep: &mut Report) {
    let p = Params::new(cfg.small);
    let planted = clean_database_with_hidden_sigma(&p.sigma, &mut StdRng::seed_from_u64(cfg.seed));
    let rows = Rows::of(&planted.db);
    let hidden = Hidden {
        cfds: planted.cfds,
        cinds: planted.cinds,
    };
    drop(planted.db);
    if cfg.trace {
        trace(&rows, &hidden, rep);
    } else {
        end_to_end(cfg, &p, rows, &hidden, rep);
    }
}

fn end_to_end(cfg: &Config, p: &Params, rows: Rows, hidden: &Hidden, rep: &mut Report) {
    let (setup, db) = setups(rows, Rows::load);

    let mut discovers = Samples::new();
    let mut last = None;
    let mut closed = ClosedLoop::new(cfg.seconds, p.min_discovers);
    while closed.keep_going(&discovers) {
        let (d, found, implied) = discover_once(hidden, &db, rep);
        discovers.push(d);
        last = Some((found, implied));
    }
    let (found, implied) = last.expect("at least one discover");
    // The check of Σ′ is also the gate that every kept dependency holds
    // on the instance; at a few seconds a run, it is timed once.
    let suite = QualitySuite::from_normal(
        db.schema().clone(),
        found.cfds_normal(),
        found.cinds_normal(),
    );
    let (validate, report) = timed(|| suite.check(&db));
    rep.gate(report.summary.is_clean(), KEEPS_HOLD);

    rep.metric("setup_s", setup.median());
    rep.detail("validate_s", validate.as_secs_f64());
    rep.detail("op_p50_ms", discovers.median() * 1e3);
    rep.metric("op_mean_ms", discovers.mean() * 1e3);
    rep.metric("peak_rss_mb", closed.peak_rss_mb());
    rep.detail("discover_s", discovers.median());
    rep.detail("discovers", discovers.len() as f64);
    rep.detail("discover_planted_implied", implied);
}

fn trace(rows: &Rows, hidden: &Hidden, rep: &mut Report) {
    let load_s = median_of(REPS, || rows.clone(), Rows::load);

    // Set-up and one discover, untraced and then traced.
    let pass = |rep: &mut Report| {
        let start = Instant::now();
        let db = rows.clone().load();
        let (_, found, _) = discover_once(hidden, &db, rep);
        (start.elapsed().as_secs_f64(), found, db)
    };
    let (untraced_wall, ..) = pass(rep);
    let (wall, found, db) = pass(rep);

    // The keep check's layers alone, on Σ′; its sweep is also the gate.
    let compile_s = median_of(
        REPS,
        || (found.cfds_normal(), found.cinds_normal()),
        |(c, i)| Validator::new(c, i),
    );
    let validator = Validator::new(found.cfds_normal(), found.cinds_normal());
    let (sweep, swept) = timed(|| validator.validate_sorted(&db));
    rep.gate(swept.is_empty(), KEEPS_HOLD);
    let sweep_s = sweep.as_secs_f64();

    let t = &found.timings;
    let (sample_s, mine_s, confirm_s) = (t.sample_ms / 1e3, t.mine_ms / 1e3, t.confirm_ms / 1e3);
    let sampling = found.stats.sampling.unwrap_or_default();
    rep.metric("model.load_s", load_s);
    rep.metric("validator.compile_s", compile_s);
    rep.metric("validator.sweep_s", sweep_s);
    rep.metric("validator.groups", validator.group_count() as f64);
    rep.metric("validator.members", validator.compiled_cfd_members() as f64);
    rep.metric("discover.sample_s", sample_s);
    rep.metric("discover.mine_s", mine_s);
    rep.metric("discover.confirm_s", confirm_s);
    rep.metric(
        "discover.confirm_us_per_row",
        confirm_s * 1e6 / sampling.full_rows.max(1) as f64,
    );
    rep.metric("discover.kept.cfds", found.cfds.len() as f64);
    rep.metric("discover.kept.cinds", found.cinds.len() as f64);
    rep.metric("discover.sampled_rows", sampling.sampled_rows as f64);
    rep.metric("discover.confirm_dropped", sampling.confirm_dropped as f64);
    // The pass: load and discover (its phases; the rest is unattributed).
    let attributed = load_s + sample_s + mine_s + confirm_s;
    rep.metric("unattributed_pct", unattributed_pct(wall, attributed));
    rep.metric("trace.overhead_pct", overhead_pct(untraced_wall, wall));
}
