//! The stream's journal keeps the newest 256 events: older ones are
//! evicted, while the lifetime total and the sequence numbers keep
//! counting.

use condep_cfd::NormalCfd;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, Schema, Tuple};
use condep_validate::{Mutation, Validator, ValidatorStream};
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
fn journal_capacity_is_256_and_evicts_the_oldest() {
    let mut stream = stream_with_tuples(0);
    let rel = stream.db().schema().rel_id("r").unwrap();
    assert_eq!(stream.telemetry().journal().capacity(), 256);

    // 300 effective inserts: the ring forgets the oldest 44.
    for i in 0..300usize {
        let tuple: Tuple = tuple![format!("n{i}").as_str(), "v"];
        stream.apply(Mutation::Insert { rel, tuple }).unwrap();
    }
    let journal = stream.telemetry().journal();
    assert_eq!(journal.total(), 300);
    assert_eq!(journal.len(), 256);
    // Seqs are contiguous and end at the newest event.
    let tail = journal.tail(journal.len());
    assert_eq!(tail.first().unwrap().seq, 44);
    assert_eq!(tail.last().unwrap().seq, 299);
}
