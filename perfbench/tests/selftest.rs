//! Reduced-size self-test: every workload runs small, untraced and
//! traced, and must report exactly the declared metrics with their
//! units, run its correctness gates and fail no operation. The declared
//! lists must match `BENCHMARK.json`.

use perfbench::{run, Config, Metric, Report, DETAIL, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;

fn config(trace: bool) -> Config {
    Config {
        seed: 7,
        seconds: 0.05,
        trace,
        small: true,
    }
}

fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

fn assert_metrics(report: &Report, spec: &[(&str, &str)], what: &str) {
    let got: BTreeSet<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: BTreeSet<(&str, &str)> = spec.iter().copied().collect();
    assert_eq!(
        report.metrics.len(),
        spec.len(),
        "{what}: a metric is reported twice"
    );
    assert_eq!(got, want, "{what}: metric names or units differ");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{what}: {} is not finite", m.name);
    }
}

/// The figures each workload prints; `window_p99_us` comes on top
/// wherever at least 1,000 windows ran.
fn expected_detail(workload: &str) -> &'static [&'static str] {
    match workload {
        "monitor_churn" => &[
            "validate_s",
            "op_p50_ms",
            "ingest_us_per_mut",
            "window_p50_us",
            "windows",
            "report_read_us",
            "report_reads",
        ],
        "repair_coordinated" => &[
            "validate_s",
            "op_p50_ms",
            "repair_s",
            "repairs",
            "repair_residual",
            "repair_majority_flips",
        ],
        "drift_online" => &[
            "validate_s",
            "op_p50_ms",
            "ingest_us_per_mut",
            "window_p50_us",
            "windows",
        ],
        "discover_1m" => &[
            "validate_s",
            "op_p50_ms",
            "discover_s",
            "discovers",
            "discover_planted_implied",
        ],
        _ => unreachable!("unknown workload {workload}"),
    }
}

/// Layer metrics that must read non-zero in a traced run of the
/// workload, because the workload calls the layer. A key the engine no
/// longer exports under its old name then shows here.
fn busy_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "monitor_churn" => &[
            "stream.mutations.inserts",
            "stream.mutations.deletes",
            "stream.probes.hash",
            "stream.probes.slot",
            "monitor.report_us",
        ],
        "repair_coordinated" => &[
            "stream.mutations.inserts",
            "stream.mutations.deletes",
            "stream.probes.hash",
            "stream.probes.slot",
            "repair.fixes.accepted",
            "repair.rounds",
        ],
        "drift_online" => &[
            "stream.mutations.inserts",
            "stream.probes.hash",
            "online.polls",
            "online.proposed",
        ],
        "discover_1m" => &["discover.mine_s", "discover.kept.cfds"],
        _ => unreachable!("unknown workload {workload}"),
    }
}

#[test]
fn every_workload_reports_its_metrics_and_passes_its_gates() {
    for workload in WORKLOADS {
        let e2e = run(workload, &config(false)).expect("known workload");
        assert_eq!(
            e2e.failed, 0,
            "{workload}: {} of {} failed",
            e2e.failed, e2e.attempted
        );
        assert!(
            e2e.correct() && e2e.attempted > 1,
            "{workload}: gates must run"
        );
        assert_metrics(&e2e, END_TO_END, workload);
        for m in &e2e.metrics {
            assert!(m.value > 0.0, "{workload}: end-to-end {} reads 0", m.name);
        }
        let mut want: BTreeSet<&str> = expected_detail(workload).iter().copied().collect();
        if find(&e2e.detail, "windows").is_some_and(|m| m.value >= 1000.0) {
            want.insert("window_p99_us");
        }
        let got: BTreeSet<&str> = e2e.detail.iter().map(|m| m.name).collect();
        assert_eq!(got, want, "{workload}: workload figures differ");
        for m in &e2e.detail {
            let unit = DETAIL.iter().find(|(n, _)| *n == m.name).map(|(_, u)| *u);
            assert_eq!(Some(m.unit), unit, "{workload}: unit of {}", m.name);
        }

        let traced = run(workload, &config(true)).expect("known workload");
        assert_eq!(traced.failed, 0, "{workload}: traced run failed");
        assert!(traced.correct() && traced.attempted > 1);
        assert_metrics(&traced, PER_LAYER, &format!("{workload} (traced)"));
        let always = ["model.load_s", "validator.sweep_s", "unattributed_pct"];
        for layer in always.iter().chain(busy_layers(workload)) {
            let m = find(&traced.metrics, layer).expect("declared");
            assert!(m.value != 0.0, "{workload}: {layer} was not measured");
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("no_such_workload", &config(false)).is_none());
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let json = run("repair_coordinated", &config(false))
        .expect("known workload")
        .to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(
        json.contains(", \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
        "{json}"
    );
    assert!(!json.contains('\n'));
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let section = |key: &str| -> BTreeSet<String> {
        let body = &json[json.find(&format!("\"{key}\"")).expect("section present")..];
        body[..body.find(']').expect("section ends")]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let names = |spec: &[(&str, &str)]| {
        spec.iter()
            .map(|(n, _)| n.to_string())
            .collect::<BTreeSet<_>>()
    };
    assert_eq!(
        section("workloads"),
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    );
    assert_eq!(section("end_to_end"), names(END_TO_END));
    assert_eq!(section("per_layer"), names(PER_LAYER));
}
