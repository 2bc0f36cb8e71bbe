//! `monitor_churn`: a `QualityMonitor` over the stream/batch bench shape
//! ingesting windows of deletes and inserts, with dashboard reads beside
//! the writes.

use crate::data::{churn_cfds, churn_cinds, churn_rows, churn_schema, ChurnWindows, Rows};
use crate::stats::{median_of, setups, timed, ClosedLoop, Samples};
use crate::{
    monitor_matches_sweep, overhead_pct, stream_counters, unattributed_pct, Config, Report, CHECKS,
    REPS,
};
use condep::report::{QualityMonitor, QualitySuite};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_validate::{Mutation, Validator, ValidatorStream};
use std::hint::black_box;
use std::time::Instant;

struct Params {
    tuples: usize,
    /// Ids beyond the initial tuples that inserted tuples are drawn from.
    spare: usize,
    window: usize,
    /// Every `report_every`-th window the client also reads `report()`.
    report_every: usize,
    min_windows: usize,
    trace_windows: usize,
}

impl Params {
    fn new(small: bool) -> Self {
        Params {
            tuples: if small { 4_000 } else { 100_000 },
            spare: if small { 512 } else { 4_096 },
            window: 128,
            report_every: 16,
            min_windows: 1_000,
            trace_windows: if small { 64 } else { 1_024 },
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
    /// Rows and Σ to a monitor ready to ingest.
    fn build(self) -> (QualitySuite, QualityMonitor) {
        let db = self.rows.load();
        let suite = QualitySuite::from_normal(db.schema().clone(), self.cfds, self.cinds);
        let (monitor, _initial) = suite.monitor(db);
        (suite, monitor)
    }
}

/// The client's per-window timings.
#[derive(Default)]
struct Client {
    /// One whole step: ingest plus the reads.
    step: Samples,
    ingest: Samples,
    report: Samples,
    mutations: usize,
}

impl Client {
    fn step(
        &mut self,
        monitor: &mut QualityMonitor,
        window: &[Mutation],
        every: usize,
        rep: &mut Report,
    ) {
        let t0 = Instant::now();
        let ok = monitor.ingest_batch(window).is_ok();
        let t1 = Instant::now();
        black_box(monitor.summary());
        if self.step.len() % every == every - 1 {
            let t2 = Instant::now();
            black_box(monitor.report());
            self.report.push(t2.elapsed());
        }
        self.step.push(t0.elapsed());
        self.ingest.push(t1 - t0);
        self.mutations += window.len();
        rep.op(ok);
    }

    fn ingest_us_per_mut(&self) -> f64 {
        self.ingest.sum() * 1e6 / self.mutations.max(1) as f64
    }
}

pub fn run(cfg: &Config, rep: &mut Report) {
    let p = Params::new(cfg.small);
    let schema = churn_schema();
    let input = Input {
        rows: churn_rows(&schema, p.tuples, cfg.seed),
        cfds: churn_cfds(&schema),
        cinds: churn_cinds(&schema),
    };
    let windows = ChurnWindows::new(schema.rel_id("r").expect("r"), p.tuples, p.spare, cfg.seed);
    if cfg.trace {
        trace(&p, &input, windows, rep);
    } else {
        end_to_end(cfg, &p, input, windows, rep);
    }
}

fn end_to_end(cfg: &Config, p: &Params, input: Input, mut windows: ChurnWindows, rep: &mut Report) {
    let (setup, (suite, mut monitor)) = setups(input, Input::build);
    let validate_s = median_of(CHECKS, || (), |()| suite.check(monitor.db()));

    let mut client = Client::default();
    let mut closed = ClosedLoop::new(cfg.seconds, p.min_windows);
    while closed.keep_going(&client.step) {
        let window = windows.next_window(p.window);
        client.step(&mut monitor, &window, p.report_every, rep);
    }
    rep.gate(
        monitor_matches_sweep(&monitor),
        "monitor_churn: live report equals a fresh sweep",
    );

    rep.metric("setup_s", setup.median());
    rep.detail("validate_s", validate_s);
    rep.detail("op_p50_ms", client.step.median() * 1e3);
    rep.metric("op_mean_ms", client.step.mean() * 1e3);
    rep.metric("peak_rss_mb", closed.peak_rss_mb());
    rep.detail("ingest_us_per_mut", client.ingest_us_per_mut());
    rep.detail("window_p50_us", client.ingest.median() * 1e6);
    if let Some(p99) = client.ingest.percentile(0.99) {
        rep.detail("window_p99_us", p99 * 1e6);
    }
    rep.detail("windows", client.ingest.len() as f64);
    rep.detail("report_read_us", client.report.median() * 1e6);
    rep.detail("report_reads", client.report.len() as f64);
}

fn trace(p: &Params, input: &Input, mut gen: ChurnWindows, rep: &mut Report) {
    let windows: Vec<Vec<Mutation>> = (0..p.trace_windows)
        .map(|_| gen.next_window(p.window))
        .collect();

    // Inner layers alone, on the set-up's inputs.
    let load_s = median_of(REPS, || input.rows.clone(), Rows::load);
    let compile_s = median_of(
        REPS,
        || (input.cfds.clone(), input.cinds.clone()),
        |(c, i)| Validator::new(c, i),
    );
    let db = input.rows.clone().load();
    let validator = Validator::new(input.cfds.clone(), input.cinds.clone());
    let sweep_s = median_of(REPS, || (), |()| validator.validate_sorted(&db));
    let initial = validator.validate_sorted(&db);
    let materialize_s = median_of(
        REPS,
        || (validator.clone(), db.clone(), initial.clone()),
        |(v, d, r)| ValidatorStream::with_report(v, d, r),
    );

    // The same set-up and windows untraced, then traced.
    let pass = |rep: &mut Report| {
        let start = Instant::now();
        let (_suite, mut monitor) = input.clone().build();
        let mut client = Client::default();
        for window in &windows {
            client.step(&mut monitor, window, p.report_every, rep);
        }
        (start.elapsed().as_secs_f64(), client, monitor)
    };
    let (untraced_wall, _, untraced_monitor) = pass(rep);
    drop(untraced_monitor);
    let (wall, client, monitor) = pass(rep);
    rep.gate(
        monitor_matches_sweep(&monitor),
        "monitor_churn: live report equals a fresh sweep",
    );
    stream_counters(rep, &monitor.health().metrics);
    drop(monitor);

    // The monitor's windows replayed through a bare stream.
    let mut stream = ValidatorStream::with_report(validator.clone(), db.clone(), initial);
    let mut apply = Samples::new();
    for window in &windows {
        let (d, res) = timed(|| stream.apply_deltas(window));
        apply.push(d);
        rep.op(res.is_ok());
    }
    let apply_us_per_mut = apply.sum() * 1e6 / client.mutations.max(1) as f64;

    rep.metric("model.load_s", load_s);
    rep.metric("validator.compile_s", compile_s);
    rep.metric("validator.sweep_s", sweep_s);
    rep.metric("validator.groups", validator.group_count() as f64);
    rep.metric("validator.members", validator.compiled_cfd_members() as f64);
    rep.metric("stream.materialize_s", materialize_s);
    rep.metric("stream.apply_us_per_mut", apply_us_per_mut);
    rep.metric(
        "monitor.self_us_per_mut",
        client.ingest_us_per_mut() - apply_us_per_mut,
    );
    rep.metric("monitor.report_us", client.report.median() * 1e6);
    let attributed =
        load_s + compile_s + sweep_s + materialize_s + client.ingest.sum() + client.report.sum();
    rep.metric("unattributed_pct", unattributed_pct(wall, attributed));
    rep.metric("trace.overhead_pct", overhead_pct(untraced_wall, wall));
}
