//! The validator's compile and cover statistics, and a stream's
//! telemetry after a batched window, export as valid JSON that carries
//! the keys dashboards read, with counts that match the work done.

#![cfg(feature = "telemetry")]

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{prow, tuple, Database, Domain, PValue, Schema, Value};
use condep_telemetry::{json, Export, MetricValue, MetricsSnapshot};
use condep_validate::{Mutation, Validator, ValidatorStream};
use std::sync::Arc;

/// `r(a, b, c)`, `s(x)`; Σ = `a → b` stated twice, `(a = a0) → c = c0`,
/// `b → c` and `r[a] ⊆ s[x]`: two CFD groups, three members after the
/// cover merges the duplicate.
fn validator() -> (Arc<Schema>, Validator) {
    let schema = Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("a", Domain::string()),
                    ("b", Domain::string()),
                    ("c", Domain::string()),
                ],
            )
            .relation("s", &[("x", Domain::string())])
            .finish(),
    );
    let fd = || NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
    let cfds = vec![
        fd(),
        fd(),
        NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            prow!["a0"],
            "c",
            PValue::Const(Value::str("c0")),
        )
        .unwrap(),
        NormalCfd::parse(&schema, "r", &["b"], prow![_], "c", PValue::Any).unwrap(),
    ];
    let cinds = vec![NormalCind::parse(&schema, "r", &["a"], &[], "s", &["x"], &[]).unwrap()];
    (schema, Validator::new(cfds, cinds))
}

fn counter(m: &MetricsSnapshot, key: &str) -> u64 {
    match m.get(key) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{key}: expected a counter, got {other:?}"),
    }
}

#[test]
fn validator_compile_and_cover_stats_export_as_valid_json() {
    let (_, v) = validator();
    let mut m = MetricsSnapshot::default();
    v.compile_stats().export("validator.compile", &mut m);
    v.cover_stats().export("validator.cover", &mut m);
    let doc = m.to_json();
    assert!(json::is_valid(&doc), "not valid JSON:\n{doc}");
    assert!(m.get("validator.compile.compile_us").is_some());
    assert_eq!(counter(&m, "validator.compile.cfd_groups"), 2);
    assert_eq!(counter(&m, "validator.compile.cfd_members"), 3);
    assert_eq!(counter(&m, "validator.cover.cfd_merged"), 1);
}

#[test]
fn stream_window_metrics_export_as_valid_json() {
    let (schema, v) = validator();
    let r = schema.rel_id("r").unwrap();
    let mut db = Database::empty(schema.clone());
    for i in 0..40 {
        db.insert_into("r", tuple![format!("a{i}").as_str(), "b", "c0"])
            .unwrap();
        db.insert_into("s", tuple![format!("a{i}").as_str()])
            .unwrap();
    }
    let (mut stream, _) = ValidatorStream::new_validated(v, db.clone());
    // One window: delete 16 residents, insert 16 fresh tuples whose
    // `a` has no `s` partner.
    let window: Vec<Mutation> = db
        .relation(r)
        .iter()
        .take(16)
        .cloned()
        .map(|tuple| Mutation::Delete { rel: r, tuple })
        .chain((0..16).map(|i| Mutation::Insert {
            rel: r,
            tuple: tuple![format!("new{i}").as_str(), "b", "c0"],
        }))
        .collect();
    stream.apply_deltas(&window).unwrap();
    assert_eq!(stream.current_report().cind.len(), 16);

    let m = stream.telemetry().snapshot();
    let doc = m.to_json();
    assert!(json::is_valid(&doc), "not valid JSON:\n{doc}");
    for key in [
        "stream.materialize_us",
        "stream.apply.window_us",
        "stream.probes.hash",
        "stream.probes.slot",
    ] {
        assert!(m.get(key).is_some(), "snapshot missing {key}");
    }
    assert_eq!(counter(&m, "stream.apply.windows"), 1);
    assert_eq!(counter(&m, "stream.mutations.inserts"), 16);
    assert_eq!(counter(&m, "stream.mutations.deletes"), 16);
}
