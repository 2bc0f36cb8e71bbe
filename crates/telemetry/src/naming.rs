//! The metric-naming rule: every exported key is a dotted lowercase
//! path whose first segment is a `` `prefix.*` `` row of the naming
//! table in this crate's README.
//!
//! Tests that read an engine snapshot assert [`misnamed_keys`] is
//! empty, so the rule runs over the names the engine actually exports.

use crate::snapshot::MetricsSnapshot;

/// The crate README; its naming table is the list of blessed prefixes.
const README: &str = include_str!("../README.md");

/// Every key of `snapshot` that breaks the naming rule: not
/// dot-lowercase, or led by a prefix the README's table does not
/// document. Empty when every key conforms.
pub fn misnamed_keys(snapshot: &MetricsSnapshot) -> Vec<&str> {
    let prefixes = documented_prefixes(README);
    snapshot
        .iter()
        .map(|(name, _)| name)
        .filter(|name| {
            let layer = name.split('.').next().unwrap_or("");
            !dot_lowercase(name) || !prefixes.iter().any(|p| p == layer)
        })
        .collect()
}

/// Is `name` a dotted lowercase metric path (`layer.what[_us]`)?
fn dot_lowercase(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Every `` `<prefix>.*` `` the README's naming table blesses.
fn documented_prefixes(readme: &str) -> Vec<String> {
    let mut prefixes = Vec::new();
    for line in readme.lines() {
        let mut rest = line;
        while let Some(start) = rest.find('`') {
            let tail = &rest[start + 1..];
            let Some(end) = tail.find('`') else { break };
            let span = &tail[..end];
            if let Some(prefix) = span.strip_suffix(".*") {
                if dot_lowercase(&format!("{prefix}.x")) {
                    prefixes.push(prefix.to_string());
                }
            }
            rest = &tail[end + 1..];
        }
    }
    prefixes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_lowercase_accepts_metric_paths_only() {
        assert!(dot_lowercase("discover.sample_us"));
        assert!(dot_lowercase("stream.probes.slot"));
        assert!(!dot_lowercase("Discover.sample"));
        assert!(!dot_lowercase("flat"));
        assert!(!dot_lowercase("a..b"));
        assert!(!dot_lowercase("a.b-c"));
    }

    #[test]
    fn prefixes_come_from_backticked_star_rows() {
        let readme = "| `stream.*` | stream |\n| `validator.*` | v |\nplain text";
        assert_eq!(documented_prefixes(readme), vec!["stream", "validator"]);
    }

    #[test]
    fn misnamed_keys_names_each_offender() {
        let mut s = MetricsSnapshot::new();
        s.counter("stream.probes.hash", 1);
        s.counter("Stream.probes", 1);
        s.counter("flat", 1);
        s.counter("ledger.rows", 1);
        assert_eq!(misnamed_keys(&s), ["Stream.probes", "flat", "ledger.rows"]);
    }
}
