//! Aggregated span statistics.
//!
//! Every ended span folds its `(path, duration)` into a global registry
//! keyed by the full `/`-joined path — the same collapsing a flamegraph
//! performs. [`span_stats`] exposes the flat view and [`span_tree`]
//! rebuilds the hierarchy (the run manifest's stage tree).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

#[derive(Debug, Default, Clone, Copy)]
struct PathTotals {
    count: u64,
    total_ns: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

static SPANS: Mutex<BTreeMap<String, PathTotals>> = Mutex::new(BTreeMap::new());

fn spans() -> std::sync::MutexGuard<'static, BTreeMap<String, PathTotals>> {
    SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn record_span(path: &str, dur: Duration, alloc_count: u64, alloc_bytes: u64) {
    let mut map = spans();
    let entry = map.entry(path.to_string()).or_default();
    entry.count += 1;
    entry.total_ns += dur.as_nanos() as u64;
    entry.alloc_count += alloc_count;
    entry.alloc_bytes += alloc_bytes;
}

/// Aggregate statistics for one collapsed span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanPathStats {
    /// Full `/`-joined path, e.g. `study/run/timing`.
    pub path: String,
    /// Number of spans that ended on this path.
    pub count: u64,
    /// Summed duration across those spans, in nanoseconds.
    pub total_ns: u64,
    /// Heap allocations attributed to those spans (their own thread,
    /// entry-to-exit; zero unless allocation tracking was on).
    pub alloc_count: u64,
    /// Heap bytes allocated by those spans (same attribution rule).
    pub alloc_bytes: u64,
}

/// Flat per-path totals, sorted by path.
#[must_use]
pub fn span_stats() -> Vec<SpanPathStats> {
    spans()
        .iter()
        .map(|(path, t)| SpanPathStats {
            path: path.clone(),
            count: t.count,
            total_ns: t.total_ns,
            alloc_count: t.alloc_count,
            alloc_bytes: t.alloc_bytes,
        })
        .collect()
}

/// One node of the reconstructed span hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Leaf name (last path segment).
    pub name: String,
    /// Full `/`-joined path.
    pub path: String,
    /// Number of spans collapsed into this node.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Heap allocations attributed to this node's spans (zero unless
    /// allocation tracking was on; inclusive of same-thread children).
    pub alloc_count: u64,
    /// Heap bytes allocated by this node's spans.
    pub alloc_bytes: u64,
    /// Child nodes, sorted by path.
    pub children: Vec<SpanNode>,
}

/// Rebuilds the span hierarchy from the collapsed paths. Parents that
/// never ended as spans themselves (possible when workers re-root under a
/// synthetic path) appear with `count == 0`.
#[must_use]
pub fn span_tree() -> Vec<SpanNode> {
    let flat = span_stats();
    let mut roots: Vec<SpanNode> = Vec::new();
    for stat in &flat {
        insert(&mut roots, "", &stat.path, stat);
    }
    roots
}

fn insert(nodes: &mut Vec<SpanNode>, parent_path: &str, rest: &str, stat: &SpanPathStats) {
    let (head, tail) = match rest.split_once('/') {
        Some((h, t)) => (h, Some(t)),
        None => (rest, None),
    };
    let path = if parent_path.is_empty() {
        head.to_string()
    } else {
        format!("{parent_path}/{head}")
    };
    let node = match nodes.iter_mut().find(|n| n.name == head) {
        Some(n) => n,
        None => {
            nodes.push(SpanNode {
                name: head.to_string(),
                path: path.clone(),
                count: 0,
                total_ns: 0,
                alloc_count: 0,
                alloc_bytes: 0,
                children: Vec::new(),
            });
            nodes.last_mut().expect("just pushed") // ramp-lint:allow(panic-hygiene) -- push on the line above guarantees a last element
        }
    };
    match tail {
        None => {
            node.count += stat.count;
            node.total_ns += stat.total_ns;
            node.alloc_count += stat.alloc_count;
            node.alloc_bytes += stat.alloc_bytes;
        }
        Some(tail) => insert(&mut node.children, &path, tail, stat),
    }
}

/// Clears the aggregated span registry (tests and repeated runs).
pub fn reset_spans() {
    spans().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span registry is global; exercise it through unique path prefixes so
    // parallel tests cannot interfere.
    #[test]
    fn collapsed_paths_rebuild_into_a_tree() {
        record_span("ptest/run/timing", Duration::from_millis(2), 3, 300);
        record_span("ptest/run/timing", Duration::from_millis(3), 2, 200);
        record_span("ptest/run", Duration::from_millis(10), 0, 0);
        record_span("ptest", Duration::from_millis(11), 0, 0);
        let tree = span_tree();
        let root = tree.iter().find(|n| n.name == "ptest").unwrap();
        assert_eq!(root.count, 1);
        let run = root.children.iter().find(|n| n.name == "run").unwrap();
        assert_eq!(run.count, 1);
        assert_eq!(run.total_ns, 10_000_000);
        let timing = run.children.iter().find(|n| n.name == "timing").unwrap();
        assert_eq!(timing.count, 2);
        assert_eq!(timing.total_ns, 5_000_000);
        assert_eq!(timing.alloc_count, 5, "alloc counts aggregate per path");
        assert_eq!(timing.alloc_bytes, 500);
    }

    #[test]
    fn synthetic_parents_get_zero_count() {
        record_span("stest/worker/job", Duration::from_millis(4), 0, 0);
        let tree = span_tree();
        let root = tree.iter().find(|n| n.name == "stest").unwrap();
        assert_eq!(root.count, 0);
        let worker = root.children.iter().find(|n| n.name == "worker").unwrap();
        assert_eq!(worker.count, 0);
        assert_eq!(worker.children[0].count, 1);
    }
}
