//! The validator's compile and cover statistics, and a stream's
//! telemetry after a batched window, export as valid JSON that carries
//! the keys dashboards read, with counts that match the work done,
//! under names the telemetry README's naming table documents.

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{prow, tuple, Database, Domain, PValue, Schema, Value};
use condep_telemetry::{json, misnamed_keys, Export, MetricValue, MetricsSnapshot};
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
    assert_eq!(misnamed_keys(&m), Vec::<&str>::new());
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
    assert_eq!(misnamed_keys(&m), Vec::<&str>::new());
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

fn histogram_count(m: &MetricsSnapshot, key: &str) -> u64 {
    match m.get(key) {
        Some(MetricValue::Histogram(h)) => h.count,
        other => panic!("{key}: expected a histogram, got {other:?}"),
    }
}

/// A stream over `r(a0, b, c0)` and its `s(a0)` partner.
fn small_stream() -> (ValidatorStream, condep_model::RelId) {
    let (schema, v) = validator();
    let r = schema.rel_id("r").unwrap();
    let mut db = Database::empty(schema);
    db.insert_into("r", tuple!["a0", "b", "c0"]).unwrap();
    db.insert_into("s", tuple!["a0"]).unwrap();
    (ValidatorStream::new_validated(v, db).0, r)
}

#[test]
fn mutations_that_change_nothing_count_as_noops_only() {
    let (mut stream, r) = small_stream();
    let resident = tuple!["a0", "b", "c0"];
    let absent = tuple!["a9", "b", "c0"];
    let window = [
        Mutation::Insert {
            rel: r,
            tuple: resident.clone(),
        },
        Mutation::Delete {
            rel: r,
            tuple: absent.clone(),
        },
        Mutation::Update {
            rel: r,
            old: absent,
            new: tuple!["a1", "b", "c0"],
        },
        Mutation::Update {
            rel: r,
            old: resident.clone(),
            new: resident,
        },
    ];
    let deltas = stream.apply_deltas(&window).unwrap();
    assert_eq!(
        deltas.len(),
        6,
        "one slot per insert or delete, two per update"
    );
    assert!(deltas.iter().all(|d| *d == Default::default()));

    let m = stream.telemetry().snapshot();
    assert_eq!(counter(&m, "stream.mutations.noops"), 4);
    assert_eq!(counter(&m, "stream.mutations.inserts"), 0);
    assert_eq!(counter(&m, "stream.mutations.deletes"), 0);
    assert_eq!(counter(&m, "stream.apply.windows"), 1);
}

#[test]
fn a_rejected_window_records_no_latency_sample() {
    let (mut stream, r) = small_stream();
    let missing = condep_model::RelId(r.0 + 2);
    let rejected = [
        Mutation::Insert {
            rel: r,
            tuple: tuple!["a1", "b", "c0"],
        },
        Mutation::Delete {
            rel: missing,
            tuple: tuple!["x"],
        },
    ];
    assert!(stream.apply_deltas(&rejected).is_err());
    stream.apply_deltas(&rejected[..1]).unwrap();

    let m = stream.telemetry().snapshot();
    assert_eq!(counter(&m, "stream.apply.windows"), 1);
    assert_eq!(histogram_count(&m, "stream.apply.window_us"), 1);
    assert_eq!(stream.telemetry().journal().total(), 1);
}

/// Is `value` the zero of its kind?
fn is_zero(value: &MetricValue) -> bool {
    match value {
        MetricValue::Counter(v) => *v == 0,
        MetricValue::Gauge(v) => *v == 0,
        MetricValue::Float(v) => *v == 0.0,
        MetricValue::Histogram(h) => *h == Default::default(),
    }
}

#[test]
fn a_disabled_stream_exports_every_key_at_zero() {
    let (schema, v) = validator();
    let r = schema.rel_id("r").unwrap();
    let mut db = Database::empty(schema.clone());
    for i in 0..20 {
        db.insert_into("r", tuple![format!("a{i}").as_str(), "b", "c0"])
            .unwrap();
        db.insert_into("s", tuple![format!("a{i}").as_str()])
            .unwrap();
    }
    let (mut on, _) = ValidatorStream::new_validated(v.clone(), db.clone());
    let (mut off, _) = ValidatorStream::new_validated(v, db.clone());
    off.set_telemetry_enabled(false);
    // Deletes, fresh orphans, a resident re-insert (a no-op) and an
    // update, over three windows.
    let residents: Vec<_> = db.relation(r).iter().take(6).cloned().collect();
    let windows: Vec<Vec<Mutation>> = vec![
        residents[..3]
            .iter()
            .cloned()
            .map(|tuple| Mutation::Delete { rel: r, tuple })
            .collect(),
        (0..4)
            .map(|i| Mutation::Insert {
                rel: r,
                tuple: tuple![format!("new{i}").as_str(), "b", "c1"],
            })
            .chain([Mutation::Insert {
                rel: r,
                tuple: residents[4].clone(),
            }])
            .collect(),
        vec![Mutation::Update {
            rel: r,
            old: residents[5].clone(),
            new: tuple!["a0", "b2", "c0"],
        }],
    ];
    for window in &windows {
        assert_eq!(
            on.apply_deltas(window).unwrap(),
            off.apply_deltas(window).unwrap()
        );
    }
    assert_eq!(on.current_report(), off.current_report());

    let (m_on, m_off) = (on.telemetry().snapshot(), off.telemetry().snapshot());
    let keys = |m: &MetricsSnapshot| m.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>();
    assert_eq!(keys(&m_on), keys(&m_off));
    assert_eq!(counter(&m_on, "stream.apply.windows"), 3);
    assert!(!off.telemetry().is_enabled());
    for (key, value) in m_off.iter() {
        assert!(is_zero(value), "{key} reads {value:?} with recording off");
    }
    assert_eq!(off.telemetry().journal().total(), 0);
    assert!(off.telemetry().journal_tail(usize::MAX).is_empty());
    assert!(!on.telemetry().journal_tail(usize::MAX).is_empty());
}
