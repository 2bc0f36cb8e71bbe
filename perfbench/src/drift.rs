//! `drift_online`: a monitor with online discovery on, seeded on a clean
//! prefix and streaming a drifting suffix in small windows.

use crate::data::Rows;
use crate::stats::{median_of, setups, timed, ClosedLoop, Samples};
use crate::{
    monitor_matches_sweep, overhead_pct, ratio, stream_counters, unattributed_pct, Config, Report,
    CHECKS, REPS,
};
use condep::report::{QualityMonitor, QualitySuite};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_discover::online::{OnlineConfig, OnlineMiner};
use condep_gen::{clean_database_with_hidden_sigma, PlantedSigmaConfig};
use condep_validate::{Mutation, SigmaCover, Validator, ValidatorStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ONLINE: OnlineConfig = OnlineConfig {
    min_support: 16,
    min_confidence: 0.98,
    retire_confidence: 0.9,
    window: 256,
};

struct Params {
    sigma: PlantedSigmaConfig,
    window: usize,
    /// Passes over the suffix a run makes at least: the host's speed
    /// drifts over tens of seconds, so one pass of a few is too short.
    min_passes: usize,
}

impl Params {
    fn new(small: bool) -> Self {
        Params {
            sigma: PlantedSigmaConfig {
                fd_pairs: 3,
                pair_cardinality: 16,
                constant_rows_per_pair: 3,
                cind_count: 2,
                tuples: if small { 4_000 } else { 40_000 },
                drift_pairs: 1,
                drift_onset: 0.5,
            },
            window: 16,
            min_passes: 2,
        }
    }
}

/// What a set-up hands the engine: the clean prefix the monitor is
/// seeded on, and Σ.
#[derive(Clone)]
struct Seed {
    prefix: Rows,
    cfds: Vec<NormalCfd>,
    cinds: Vec<NormalCind>,
}

impl Seed {
    /// Prefix rows and Σ to a monitor with online discovery on.
    fn build(self) -> (QualitySuite, QualityMonitor) {
        let db = self.prefix.load();
        let suite = QualitySuite::from_normal(db.schema().clone(), self.cfds, self.cinds);
        let (monitor, _initial) = suite.monitor(db);
        (suite, monitor.with_online_discovery(ONLINE))
    }
}

struct Input {
    seed: Seed,
    /// The drifted suffix, as insert windows.
    windows: Vec<Vec<Mutation>>,
}

impl Input {
    fn generate(p: &Params, seed: u64) -> Self {
        let planted = clean_database_with_hidden_sigma(&p.sigma, &mut StdRng::seed_from_u64(seed));
        let fact = planted.db.schema().rel_id("fact").expect("planted shape");
        let mut prefix = Rows::of(&planted.db);
        let (_, fact_rows) = prefix
            .relations
            .iter_mut()
            .find(|(rel, _)| *rel == fact)
            .expect("fact rows");
        let suffix = fact_rows.split_off(planted.drift_onset_row);
        let windows = suffix
            .chunks(p.window)
            .map(|c| {
                c.iter()
                    .map(|t| Mutation::Insert {
                        rel: fact,
                        tuple: t.clone(),
                    })
                    .collect()
            })
            .collect();
        let mut cfds = planted.cfds;
        cfds.extend(planted.drifted_cfds);
        let seed = Seed {
            prefix,
            cfds,
            cinds: planted.cinds,
        };
        Input { seed, windows }
    }
}

/// Streams every window through `monitor`; the client reads `summary()`
/// after each. `on_window` sees each window's ingest time, outside the
/// clock.
fn stream_suffix(
    monitor: &mut QualityMonitor,
    windows: &[Vec<Mutation>],
    steps: &mut Samples,
    ingest: &mut Samples,
    rep: &mut Report,
    mut on_window: impl FnMut(&QualityMonitor, Duration),
) {
    for window in windows {
        let t0 = Instant::now();
        let ok = monitor.ingest_batch(window).is_ok();
        let t1 = Instant::now();
        black_box(monitor.summary());
        steps.push(t0.elapsed());
        ingest.push(t1 - t0);
        rep.op(ok);
        on_window(monitor, t1 - t0);
    }
}

pub fn run(cfg: &Config, rep: &mut Report) {
    let p = Params::new(cfg.small);
    let input = Input::generate(&p, cfg.seed);
    if cfg.trace {
        trace(&input, rep);
    } else {
        end_to_end(cfg, &p, &input, rep);
    }
}

fn end_to_end(cfg: &Config, p: &Params, input: &Input, rep: &mut Report) {
    let (mut setup, first) = setups(input.seed.clone(), Seed::build);
    let mut built = Some(first);

    // Each pass streams the whole suffix into a freshly set-up monitor.
    let (mut steps, mut ingest) = (Samples::new(), Samples::new());
    let mut passes = Samples::new();
    let mut validate_s = None;
    let mut closed = ClosedLoop::new(cfg.seconds, p.min_passes);
    while closed.keep_going(&passes) {
        if !passes.is_empty() {
            drop(built.take());
            let seed = input.seed.clone();
            let (d, out) = timed(|| seed.build());
            setup.push(d);
            built = Some(out);
        }
        let (suite, monitor) = built.as_mut().expect("a set-up monitor");
        let t0 = Instant::now();
        stream_suffix(
            monitor,
            &input.windows,
            &mut steps,
            &mut ingest,
            rep,
            |_, _| {},
        );
        passes.push(t0.elapsed());
        rep.gate(
            monitor_matches_sweep(monitor),
            "drift_online: live report equals a fresh sweep",
        );
        validate_s.get_or_insert_with(|| median_of(CHECKS, || (), |()| suite.check(monitor.db())));
    }
    let mutations = passes.len() * input.windows.iter().map(Vec::len).sum::<usize>();

    rep.metric("setup_s", setup.median());
    rep.detail("validate_s", validate_s.unwrap_or_default());
    rep.detail("op_p50_ms", steps.median() * 1e3);
    rep.metric("op_mean_ms", steps.mean() * 1e3);
    rep.metric("peak_rss_mb", closed.peak_rss_mb());
    rep.detail(
        "ingest_us_per_mut",
        ingest.sum() * 1e6 / mutations.max(1) as f64,
    );
    rep.detail("window_p50_us", ingest.median() * 1e6);
    if let Some(p99) = ingest.percentile(0.99) {
        rep.detail("window_p99_us", p99 * 1e6);
    }
    rep.detail("windows", ingest.len() as f64);
}

/// Per-poll timings of the online loop's inner calls, replayed on the
/// state each poll saw.
#[derive(Default)]
struct Polls {
    poll_windows: Samples,
    quiet_windows: Samples,
    proposals: Samples,
    /// Σ-cover dedup time summed over polls (a poll with no proposals
    /// runs no dedup).
    dedup_total: f64,
    /// Time spent replaying, which the traced pass adds.
    replay_total: f64,
    seen_polls: usize,
    seen_promoted: (usize, usize),
}

impl Polls {
    fn observe(&mut self, monitor: &QualityMonitor, ingest: Duration) {
        let polls = monitor.online_activity().map_or(0, |a| a.polls);
        let (promoted_cfds, promoted_cinds) = monitor.online_promoted().unwrap_or_default();
        let fresh = (self.seen_promoted.0, self.seen_promoted.1);
        self.seen_promoted = (promoted_cfds.len(), promoted_cinds.len());
        if polls == self.seen_polls {
            self.quiet_windows.push(ingest);
            return;
        }
        self.seen_polls = polls;
        self.poll_windows.push(ingest);
        let replay = Instant::now();
        let miner = monitor.online_miner().expect("online discovery is on");
        let (d, proposals) = timed(|| miner.proposals());
        self.proposals.push(d);
        if !proposals.is_empty() {
            // The cover the poll computed: the Σ active before this
            // poll's promotions, plus the proposals.
            let v = monitor.validator();
            let new_cfds = &promoted_cfds[fresh.0..];
            let new_cinds = &promoted_cinds[fresh.1..];
            let mut cfds: Vec<NormalCfd> = (0..v.cfds().len())
                .filter(|i| !v.is_cfd_retired(*i) && !new_cfds.contains(i))
                .map(|i| v.cfds()[i].clone())
                .collect();
            cfds.extend(proposals.cfds.iter().map(|d| d.cfd.clone()));
            let mut cinds: Vec<NormalCind> = (0..v.cinds().len())
                .filter(|i| !v.is_cind_retired(*i) && !new_cinds.contains(i))
                .map(|i| v.cinds()[i].clone())
                .collect();
            cinds.extend(proposals.cinds.iter().map(|d| d.cind.clone()));
            let (d, cover) = timed(|| SigmaCover::exact(&cfds, &cinds));
            black_box(cover);
            self.dedup_total += d.as_secs_f64();
        }
        self.replay_total += replay.elapsed().as_secs_f64();
    }
}

fn trace(input: &Input, rep: &mut Report) {
    // Inner layers alone, on the set-up's inputs.
    let load_s = median_of(REPS, || input.seed.prefix.clone(), Rows::load);
    let compile_s = median_of(
        REPS,
        || (input.seed.cfds.clone(), input.seed.cinds.clone()),
        |(c, i)| Validator::new(c, i),
    );
    let db = input.seed.prefix.clone().load();
    let validator = Validator::new(input.seed.cfds.clone(), input.seed.cinds.clone());
    let sweep_s = median_of(REPS, || (), |()| validator.validate_sorted(&db));
    let initial = validator.validate_sorted(&db);
    let materialize_s = median_of(
        REPS,
        || (validator.clone(), db.clone(), initial.clone()),
        |(v, d, r)| ValidatorStream::with_report(v, d, r),
    );
    let seed_s = median_of(
        REPS,
        || OnlineMiner::new(db.schema().clone(), ONLINE),
        |mut miner| {
            miner.seed(&db);
            miner
        },
    );

    // The untraced pass, then the traced one replaying every poll.
    let untraced_wall = {
        let start = Instant::now();
        let (_suite, mut monitor) = input.seed.clone().build();
        let (mut steps, mut ingest) = (Samples::new(), Samples::new());
        stream_suffix(
            &mut monitor,
            &input.windows,
            &mut steps,
            &mut ingest,
            rep,
            |_, _| {},
        );
        start.elapsed().as_secs_f64()
    };
    let start = Instant::now();
    let (_suite, mut monitor) = input.seed.clone().build();
    let (mut steps, mut ingest) = (Samples::new(), Samples::new());
    let mut polls = Polls::default();
    stream_suffix(
        &mut monitor,
        &input.windows,
        &mut steps,
        &mut ingest,
        rep,
        |m, d| polls.observe(m, d),
    );
    let wall = start.elapsed().as_secs_f64();
    rep.gate(
        monitor_matches_sweep(&monitor),
        "drift_online: live report equals a fresh sweep",
    );
    let activity = monitor.online_activity().unwrap_or_default();
    stream_counters(rep, &monitor.health().metrics);
    drop(monitor);

    // The suffix replayed through a bare stream under the seed Σ.
    let mut stream = ValidatorStream::with_report(validator.clone(), db.clone(), initial);
    let mut apply = Samples::new();
    for window in &input.windows {
        let (d, res) = timed(|| stream.apply_deltas(window));
        apply.push(d);
        rep.op(res.is_ok());
    }
    let mutations: usize = input.windows.iter().map(Vec::len).sum();
    let apply_us_per_mut = apply.sum() * 1e6 / mutations.max(1) as f64;
    let ingest_us_per_mut = ingest.sum() * 1e6 / mutations.max(1) as f64;

    let n_polls = polls.poll_windows.len();
    let proposals_us = polls.proposals.mean() * 1e6;
    let dedup_us = ratio(polls.dedup_total, n_polls as f64) * 1e6;
    let poll_residual_us =
        (polls.poll_windows.mean() - polls.quiet_windows.mean()) * 1e6 - proposals_us - dedup_us;

    rep.metric("model.load_s", load_s);
    rep.metric("validator.compile_s", compile_s);
    rep.metric("validator.sweep_s", sweep_s);
    rep.metric("validator.groups", validator.group_count() as f64);
    rep.metric("validator.members", validator.compiled_cfd_members() as f64);
    rep.metric("stream.materialize_s", materialize_s);
    rep.metric("stream.apply_us_per_mut", apply_us_per_mut);
    rep.metric(
        "monitor.self_us_per_mut",
        ingest_us_per_mut - apply_us_per_mut,
    );
    rep.metric("monitor.poll_residual_us", poll_residual_us);
    rep.metric("online.seed_s", seed_s);
    rep.metric("online.polls", activity.polls as f64);
    rep.metric("online.proposed", activity.proposed as f64);
    rep.metric("online.promoted", activity.promoted as f64);
    rep.metric("online.retired", activity.retired as f64);
    rep.metric(
        "online.promote_ratio",
        ratio(activity.promoted as f64, activity.proposed as f64),
    );
    rep.metric("online.poll_window_us", polls.poll_windows.mean() * 1e6);
    rep.metric("online.quiet_window_us", polls.quiet_windows.mean() * 1e6);
    rep.metric("online.proposals_us", proposals_us);
    rep.metric("cover.dedup_us", dedup_us);
    // Wall of the workload itself: the traced pass minus its replays.
    let workload_wall = wall - polls.replay_total;
    let attributed = load_s + compile_s + sweep_s + materialize_s + seed_s + ingest.sum();
    rep.metric(
        "unattributed_pct",
        unattributed_pct(workload_wall, attributed),
    );
    rep.metric("trace.overhead_pct", overhead_pct(untraced_wall, wall));
}
