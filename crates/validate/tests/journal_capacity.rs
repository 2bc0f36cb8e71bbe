//! The stream's journal capacity is runtime-configurable
//! ([`ValidatorStream::set_journal_capacity`]): long scenario runs
//! retain a full event tail, the default stays at 256, and shrinking
//! evicts only the oldest retained events.

use condep_cfd::NormalCfd;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, Schema, Tuple};
use condep_validate::{Validator, ValidatorStream};
use std::sync::Arc;

fn stream_with_tuples(n: usize) -> ValidatorStream {
    let schema = Arc::new(
        Schema::builder()
            .relation("r", &[("k", Domain::string()), ("d", Domain::string())])
            .finish(),
    );
    let rel = schema.rel_id("r").unwrap();
    let mut db = Database::empty(schema);
    for i in 0..n {
        db.insert(rel, tuple![format!("k{i}").as_str(), "v"])
            .unwrap();
    }
    let validator = Validator::new(
        vec![NormalCfd::new(
            rel,
            vec![condep_model::AttrId(0)],
            PatternRow::all_any(1),
            condep_model::AttrId(1),
            PValue::Any,
        )],
        Vec::new(),
    );
    ValidatorStream::new_validated(validator, db).0
}

#[test]
fn journal_capacity_defaults_to_256_and_rebounds_at_runtime() {
    let mut stream = stream_with_tuples(0);
    let rel = stream.db().schema().rel_id("r").unwrap();
    assert_eq!(stream.telemetry().journal().capacity(), 256);

    // 300 effective inserts: the default ring forgets the oldest 44.
    for i in 0..300usize {
        let t: Tuple = tuple![format!("n{i}").as_str(), "v"];
        stream.insert_tuple(rel, t).unwrap();
    }
    assert_eq!(stream.telemetry().journal().total(), 300);
    assert_eq!(stream.telemetry().journal().len(), 256);

    // Grow: everything new is retained, history already evicted stays
    // gone, totals keep counting.
    stream.set_journal_capacity(1024);
    for i in 300..400usize {
        let t: Tuple = tuple![format!("n{i}").as_str(), "v"];
        stream.insert_tuple(rel, t).unwrap();
    }
    let journal = stream.telemetry().journal();
    assert_eq!(journal.capacity(), 1024);
    assert_eq!(journal.total(), 400);
    assert_eq!(journal.len(), 256 + 100);
    // Seqs are contiguous and end at the newest event.
    let tail = journal.tail(journal.len());
    assert_eq!(tail.first().unwrap().seq, 400 - journal.len() as u64);
    assert_eq!(tail.last().unwrap().seq, 399);

    // Shrink: only the newest 8 survive.
    stream.set_journal_capacity(8);
    let journal = stream.telemetry().journal();
    assert_eq!((journal.capacity(), journal.len()), (8, 8));
    assert_eq!(journal.tail(8).first().unwrap().seq, 392);
    assert_eq!(journal.total(), 400);
}
