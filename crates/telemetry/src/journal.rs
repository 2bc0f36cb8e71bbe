//! The bounded event journal: a ring buffer of per-window stream
//! activity.
//!
//! Histograms answer "how slow", the journal answers "what happened
//! just now": each [`StreamEvent`] summarizes one unit of stream work
//! (a mutation window, an online promote/retire). The
//! buffer is bounded — a monitor that runs for months keeps only the
//! newest `capacity` events — and sequence numbers stay monotone
//! across wraparound, so consumers can detect gaps.

use crate::json::JsonWriter;
use std::collections::VecDeque;

/// One unit of stream activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// One `apply_deltas` window (an `apply` call is a window of one)
    /// finished.
    Window {
        /// Effective inserts plus deletes (an update counts its delete
        /// and, unless it merged, its insert; no-ops count nothing).
        mutations: u32,
        /// Distinct dependency-group probes the window performed.
        groups_touched: u32,
        /// Violations the window introduced.
        introduced: u32,
        /// Violations the window resolved.
        resolved: u32,
    },
    /// Dependencies were added live (e.g. an online-miner promotion).
    Promote {
        /// CFDs added.
        cfds: u32,
        /// CINDs added.
        cinds: u32,
        /// Violations the new dependencies introduced.
        introduced: u32,
    },
    /// Dependencies were retired live (e.g. decay retirement).
    Retire {
        /// CFDs retired.
        cfds: u32,
        /// CINDs retired.
        cinds: u32,
        /// Violations that retired with them.
        resolved: u32,
    },
}

impl StreamEvent {
    /// The event's kind label as it appears in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            StreamEvent::Window { .. } => "window",
            StreamEvent::Promote { .. } => "promote",
            StreamEvent::Retire { .. } => "retire",
        }
    }
}

/// A [`StreamEvent`] plus its position in the journal's history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// 0-based monotone sequence number; never reused, survives
    /// wraparound.
    pub seq: u64,
    /// What happened.
    pub event: StreamEvent,
}

impl JournalEvent {
    /// Writes the event as one flat JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("seq");
        w.value_u64(self.seq);
        w.key("kind");
        w.value_str(self.event.kind());
        match self.event {
            StreamEvent::Window {
                mutations,
                groups_touched,
                introduced,
                resolved,
            } => {
                w.key("mutations");
                w.value_u64(mutations as u64);
                w.key("groups_touched");
                w.value_u64(groups_touched as u64);
                w.key("introduced");
                w.value_u64(introduced as u64);
                w.key("resolved");
                w.value_u64(resolved as u64);
            }
            StreamEvent::Promote {
                cfds,
                cinds,
                introduced,
            } => {
                w.key("cfds");
                w.value_u64(cfds as u64);
                w.key("cinds");
                w.value_u64(cinds as u64);
                w.key("introduced");
                w.value_u64(introduced as u64);
            }
            StreamEvent::Retire {
                cfds,
                cinds,
                resolved,
            } => {
                w.key("cfds");
                w.value_u64(cfds as u64);
                w.key("cinds");
                w.value_u64(cinds as u64);
                w.key("resolved");
                w.value_u64(resolved as u64);
            }
        }
        w.end_object();
    }
}

/// A bounded ring buffer of [`JournalEvent`]s.
///
/// `push` is O(1): once full, the oldest event is overwritten.
/// All mutation goes through `&mut self` — the journal is owned by
/// its stream, not shared, so no locking is involved.
#[derive(Clone, Debug)]
pub struct Journal {
    cap: usize,
    next_seq: u64,
    ring: VecDeque<JournalEvent>,
}

impl Journal {
    /// A journal keeping the newest `cap` events (min 1).
    pub fn with_capacity(cap: usize) -> Journal {
        let cap = cap.max(1);
        Journal {
            cap,
            next_seq: 0,
            ring: VecDeque::with_capacity(cap),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: StreamEvent) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(JournalEvent {
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events ever pushed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// The newest `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<JournalEvent> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring.iter().skip(skip).copied().collect()
    }

    /// Iterates retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &JournalEvent> {
        self.ring.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(mutations: u32) -> StreamEvent {
        StreamEvent::Window {
            mutations,
            groups_touched: 0,
            introduced: 0,
            resolved: 0,
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_events_and_monotone_seqs() {
        let mut j = Journal::with_capacity(4);
        for i in 0..10 {
            j.push(window(i));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.total(), 10);
        let tail = j.tail(100);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        assert_eq!(tail[0].event, window(6));
        assert_eq!(tail[3].event, window(9));
    }

    #[test]
    fn tail_returns_the_newest_n_oldest_first() {
        let mut j = Journal::with_capacity(8);
        for i in 0..5 {
            j.push(window(i));
        }
        let tail = j.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 3);
        assert_eq!(tail[1].seq, 4);
        assert!(j.tail(0).is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut j = Journal::with_capacity(0);
        j.push(window(1));
        j.push(window(2));
        assert_eq!(j.len(), 1);
        assert_eq!(j.tail(5)[0].seq, 1);
    }

    #[test]
    fn events_render_as_valid_json() {
        let events = [
            StreamEvent::Window {
                mutations: 1,
                groups_touched: 2,
                introduced: 3,
                resolved: 4,
            },
            StreamEvent::Promote {
                cfds: 1,
                cinds: 0,
                introduced: 2,
            },
            StreamEvent::Retire {
                cfds: 0,
                cinds: 1,
                resolved: 2,
            },
        ];
        let mut j = Journal::with_capacity(8);
        for e in events {
            j.push(e);
        }
        let mut w = JsonWriter::new();
        w.begin_array();
        for e in j.iter() {
            e.write_json(&mut w);
        }
        w.end_array();
        let json = w.finish();
        assert!(crate::json::is_valid(&json), "invalid JSON:\n{json}");
        for kind in ["window", "promote", "retire"] {
            assert!(json.contains(kind));
        }
    }
}
