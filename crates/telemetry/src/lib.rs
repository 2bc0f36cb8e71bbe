#![warn(missing_docs)]

//! # condep-telemetry — the engine's instrument panel
//!
//! A dependency-free, deterministic metrics core shared by every layer
//! of the condep engine: validation streams, the batch validator,
//! repair, discovery, the quality monitor and the bench harness all
//! record into the same small vocabulary of instruments and export
//! through the same snapshot type.
//!
//! ## The pieces
//!
//! | Type | Role |
//! |---|---|
//! | [`Histogram`] | log2-bucket µs latency distribution, a plain value its owner records into; deterministic p50/p90/p99/max summaries |
//! | [`Stopwatch`] | a started wall clock whose readings the caller stores itself (phase timings, compile stats, histogram samples) |
//! | [`Journal`] | bounded ring buffer of [`StreamEvent`]s: per-window mutations, online promote/retire |
//! | [`MetricsSnapshot`] | sorted `dotted.name → value` map; the unit of exchange, rendered to JSON deterministically |
//! | [`Export`] | one trait every stats struct implements to render itself into a snapshot subtree |
//! | [`misnamed_keys`] | the naming rule: the keys of a snapshot that break the README's naming table |
//! | [`json`] | the hand-rolled JSON writer and parser behind every report the engine emits |
//!
//! There is one way to record a figure: its owner keeps it in a plain
//! field (an integer counter, a [`Histogram`], a [`Stopwatch`] reading)
//! and writes it into a [`MetricsSnapshot`] when read, through
//! [`Export`] or the snapshot's setters. Nothing is shared between
//! owners and nothing is process-wide.

mod journal;
pub mod json;
mod metrics;
mod naming;
mod snapshot;

pub use journal::{Journal, JournalEvent, StreamEvent};
pub use metrics::{Histogram, Stopwatch};
pub use naming::misnamed_keys;
pub use snapshot::{Export, HistogramSnapshot, MetricValue, MetricsSnapshot};

/// Joins a dotted `prefix` and a metric `name` (`""` prefix = verbatim).
pub fn key(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}
