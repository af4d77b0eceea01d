//! Run manifests: a serializable record of *how* a study executed.
//!
//! [`StudyResults`] deliberately contains only simulation outcomes — its
//! bytes are identical for any thread count or logging configuration. The
//! complementary [`RunManifest`] captures the execution side: a digest of
//! the configuration, the thread count, the per-stage wall-clock tree
//! aggregated from `ramp-obs` spans, cache statistics, a snapshot of
//! every registered metric, and the path of the JSONL event file (when
//! one was written). Bench binaries emit it as a JSON file next to the
//! study results.

use crate::error::RampError;
use crate::pipeline::PipelineConfig;
use crate::results::StudyResults;
use crate::study::StudyConfig;
use ramp_microarch::timing_cache_stats;
use ramp_obs::{MetricValue, SpanNode};
use serde::{Deserialize, Serialize};

/// Manifest schema version, bumped on incompatible field changes.
///
/// v2 added execution provenance (host, OS, CPU count, git revision) and
/// an optional benchmark-harness section; v3 removed that section again.
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// Where and on what a run executed — enough to interpret wall-clock
/// numbers later. Captured once per process and cached.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// Hostname (from `$HOSTNAME` or `/etc/hostname`; `"unknown"` when
    /// neither is available).
    pub host: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available hardware parallelism at capture time.
    pub cpus: u64,
    /// Short git revision of the working tree, when `git` resolves one.
    pub git_rev: Option<String>,
}

impl Provenance {
    /// Captures (or returns the cached) provenance for this process.
    #[must_use]
    pub fn capture() -> Self {
        static CACHED: std::sync::OnceLock<Provenance> = std::sync::OnceLock::new();
        CACHED
            .get_or_init(|| Provenance {
                host: hostname(),
                os: std::env::consts::OS.to_string(),
                arch: std::env::consts::ARCH.to_string(),
                cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
                git_rev: git_rev(),
            })
            .clone()
    }
}

fn hostname() -> String {
    if let Ok(host) = std::env::var("HOSTNAME") {
        if !host.trim().is_empty() {
            return host.trim().to_string();
        }
    }
    if let Ok(host) = std::fs::read_to_string("/etc/hostname") {
        if !host.trim().is_empty() {
            return host.trim().to_string();
        }
    }
    "unknown".to_string()
}

fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!rev.is_empty()).then_some(rev)
}

/// One node of the per-stage wall-clock tree (aggregated spans).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageNode {
    /// Stage name (span name), e.g. `"first_pass"`.
    pub name: String,
    /// Full `/`-joined span path, e.g. `"study/run/first_pass"`.
    pub path: String,
    /// Spans collapsed into this node (0 for synthetic parents).
    pub count: u64,
    /// Summed wall-clock across those spans, seconds.
    pub total_seconds: f64,
    /// Heap allocations attributed to this stage's spans (own thread,
    /// entry-to-exit). Zero unless `RAMP_ALLOC` tracking was on; absent
    /// in pre-observatory manifests.
    #[serde(default)]
    pub alloc_count: u64,
    /// Heap bytes allocated by this stage's spans (same attribution).
    #[serde(default)]
    pub alloc_bytes: u64,
    /// Child stages.
    pub children: Vec<StageNode>,
}

impl StageNode {
    fn from_span(node: &SpanNode) -> Self {
        StageNode {
            name: node.name.clone(),
            path: node.path.clone(),
            count: node.count,
            total_seconds: node.total_ns as f64 / 1e9,
            alloc_count: node.alloc_count,
            alloc_bytes: node.alloc_bytes,
            children: node.children.iter().map(Self::from_span).collect(),
        }
    }

    /// Finds a stage by its full `/`-joined path in this subtree.
    #[must_use]
    pub fn find(&self, path: &str) -> Option<&StageNode> {
        if self.path == path {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(path))
    }
}

/// A snapshot of one metric, flattened for serialization (the vendored
/// serde stub has no map support, so metrics are a named list).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Registered metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter/gauge value; for histograms, the observation count.
    pub value: f64,
    /// Histogram sum of observed values (0 for counters and gauges).
    pub sum: f64,
}

/// Hit/miss counters for one timing-cache key class (the normalized key
/// with the machine/profile fingerprints dropped, e.g. `len=i5000/ic=1100`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CacheClassEntry {
    /// Key class label.
    pub class: String,
    /// Hits recorded against this class.
    pub hits: u64,
    /// Misses recorded against this class.
    pub misses: u64,
}

/// Timing-cache effectiveness at manifest-capture time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ManifestCacheStats {
    /// Process-lifetime cache hits.
    pub hits: u64,
    /// Process-lifetime cache misses.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Per-key-class hit/miss breakdown (absent in pre-tracing manifests).
    #[serde(default)]
    pub key_classes: Vec<CacheClassEntry>,
}

/// Process-wide heap-allocation counters at manifest-capture time
/// (present only when `RAMP_ALLOC` tracking was on; see
/// [`ramp_obs::alloc_stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ManifestAllocStats {
    /// Total allocations recorded.
    pub allocs: u64,
    /// Total frees recorded.
    pub frees: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total bytes freed.
    pub free_bytes: u64,
    /// Bytes live at capture time (clamped at zero).
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_live_bytes: u64,
}

/// Execution record emitted alongside [`StudyResults`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Wall-clock capture time, Unix milliseconds.
    pub created_unix_ms: u64,
    /// FNV-1a digest (hex) of the study configuration.
    pub config_digest: String,
    /// Host/OS/git provenance of the capturing process.
    pub provenance: Provenance,
    /// Worker threads the sweep used.
    pub threads: u64,
    /// (benchmark, node) runs evaluated.
    pub runs: u64,
    /// Total study wall-clock, seconds.
    pub wall_seconds: f64,
    /// Per-stage wall-clock tree aggregated from spans.
    pub stages: Vec<StageNode>,
    /// Snapshot of every registered metric.
    pub metrics: Vec<MetricEntry>,
    /// Timing-cache counters.
    pub cache: ManifestCacheStats,
    /// Heap-allocation ledger, when `RAMP_ALLOC` tracking was on (the
    /// per-stage tree carries the span-attributed breakdown).
    #[serde(default)]
    pub alloc: Option<ManifestAllocStats>,
    /// Path of the JSONL event file, when a sink was installed.
    pub event_file: Option<String>,
}

/// Owned, serializable view of the configuration, hashed for the digest.
/// Thread count and worst-case labels that do not change simulation
/// output are excluded so the digest identifies the *science*, not the
/// execution.
#[derive(Debug, Serialize)]
struct ConfigDigestView {
    pipeline: PipelineConfig,
    benchmarks: Vec<String>,
    nodes: Vec<String>,
    worst_case: String,
}

/// FNV-1a over a canonical string encoding, rendered as 16 hex digits.
/// Used for configuration and results digests; collision-resistant enough
/// for drift *detection* (a digest mismatch is definitive, a match is
/// backed by the byte-identity determinism tests).
#[must_use]
pub fn fnv1a_hex(json: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Digest of a study configuration (stable across thread counts).
#[must_use]
pub fn config_digest(config: &StudyConfig) -> String {
    let view = ConfigDigestView {
        pipeline: config.pipeline.clone(),
        benchmarks: config.benchmarks.iter().map(|p| p.name.clone()).collect(),
        nodes: config.nodes.iter().map(|n| n.label().to_string()).collect(),
        worst_case: config.worst_case.label().to_string(),
    };
    let json = serde_json::to_string(&view).expect("config digest view serializes"); // ramp-lint:allow(panic-hygiene) -- digest view is plain data, always serializable
    fnv1a_hex(&json)
}

/// Digest of a study's numerical outputs: FNV-1a over the serialized
/// [`StudyResults`]. Because the results JSON is byte-identical across
/// thread counts and observability configurations (a tested contract),
/// two equal digests mean the *science* matched exactly; any numerical
/// drift — however small — changes the digest.
#[must_use]
pub fn results_digest(results: &StudyResults) -> String {
    let json = serde_json::to_string(results).expect("study results serialize"); // ramp-lint:allow(panic-hygiene) -- results schema is plain data, always serializable
    fnv1a_hex(&json)
}

/// Flattens live [`ramp_obs::MetricSnapshot`]s into the BENCH-compatible
/// [`MetricEntry`] shape used by manifests, snapshots, and the serve
/// `metrics` endpoint: counters/gauges carry their value, histograms
/// their observation count and sum.
#[must_use]
pub fn metric_entries_from_snapshot(snapshot: &[ramp_obs::MetricSnapshot]) -> Vec<MetricEntry> {
    snapshot
        .iter()
        .map(|snap| match &snap.value {
            MetricValue::Counter(v) => MetricEntry {
                name: snap.name.clone(),
                kind: "counter".to_string(),
                value: *v as f64,
                sum: 0.0,
            },
            MetricValue::Gauge(v) => MetricEntry {
                name: snap.name.clone(),
                kind: "gauge".to_string(),
                value: *v,
                sum: 0.0,
            },
            MetricValue::Histogram { count, sum, .. } => MetricEntry {
                name: snap.name.clone(),
                kind: "histogram".to_string(),
                value: *count as f64,
                sum: *sum,
            },
        })
        .collect()
}

impl RunManifest {
    /// Captures a manifest for a study that just ran: snapshots the span
    /// tree, the metric registry, and the timing cache, and records the
    /// JSONL event file the sinks are writing to (if any).
    ///
    /// Call after [`crate::run_study`] returns, before resetting spans.
    #[must_use]
    pub fn capture(config: &StudyConfig, results: &StudyResults) -> Self {
        let metrics = results.metrics();
        let cache = timing_cache_stats();
        let created_unix_ms = std::time::SystemTime::now() // ramp-lint:allow(determinism) -- execution metadata only, never in results
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            created_unix_ms,
            config_digest: config_digest(config),
            provenance: Provenance::capture(),
            threads: metrics.threads as u64,
            runs: metrics.runs,
            wall_seconds: metrics.wall_seconds,
            stages: ramp_obs::span_tree().iter().map(StageNode::from_span).collect(),
            metrics: metric_entries_from_snapshot(&ramp_obs::metrics_snapshot()),
            cache: ManifestCacheStats {
                hits: cache.hits,
                misses: cache.misses,
                entries: cache.entries as u64,
                key_classes: ramp_microarch::timing_cache_class_stats()
                    .into_iter()
                    .map(|c| CacheClassEntry {
                        class: c.class,
                        hits: c.hits,
                        misses: c.misses,
                    })
                    .collect(),
            },
            alloc: ramp_obs::alloc_tracking_enabled().then(|| {
                let stats = ramp_obs::alloc_stats();
                ManifestAllocStats {
                    allocs: stats.allocs,
                    frees: stats.frees,
                    alloc_bytes: stats.alloc_bytes,
                    free_bytes: stats.free_bytes,
                    live_bytes: stats.live_bytes,
                    peak_live_bytes: stats.peak_live_bytes,
                }
            }),
            event_file: ramp_obs::event_file_path()
                .map(|p| p.display().to_string()),
        }
    }

    /// Serializes this manifest and writes it to `path` as one JSON
    /// document.
    ///
    /// # Errors
    ///
    /// Returns [`RampError::Serialize`] if the manifest cannot be encoded
    /// and [`RampError::Io`] (with the path and OS error) if the write
    /// fails.
    pub fn write_json(&self, path: &std::path::Path) -> Result<(), RampError> {
        let json = serde_json::to_string(self)
            .map_err(|e| RampError::Serialize(format!("run manifest: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| RampError::Io(format!("{}: {e}", path.display())))?;
        Ok(())
    }

    /// Finds a stage by its full `/`-joined path anywhere in the tree.
    #[must_use]
    pub fn find_stage(&self, path: &str) -> Option<&StageNode> {
        self.stages.iter().find_map(|s| s.find(path))
    }

    /// Summed wall-clock of the stage at `path`, seconds (0 if absent).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- telemetry seconds, not a model quantity
    pub fn stage_seconds(&self, path: &str) -> f64 {
        self.find_stage(path).map_or(0.0, |s| s.total_seconds)
    }

    /// Short human-readable summary (for bench binaries' stderr).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "manifest: config {} | {} runs on {} threads in {:.2}s",
            self.config_digest, self.runs, self.threads, self.wall_seconds
        );
        let _ = writeln!(
            out,
            "  host: {} ({}/{}, {} cpus, rev {})",
            self.provenance.host,
            self.provenance.os,
            self.provenance.arch,
            self.provenance.cpus,
            self.provenance.git_rev.as_deref().unwrap_or("<none>"),
        );
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses ({} resident)",
            self.cache.hits, self.cache.misses, self.cache.entries
        );
        if let Some(alloc) = &self.alloc {
            let _ = writeln!(
                out,
                "  alloc: {} allocs / {:.1} MiB allocated, peak live {:.1} MiB",
                alloc.allocs,
                alloc.alloc_bytes as f64 / (1024.0 * 1024.0),
                alloc.peak_live_bytes as f64 / (1024.0 * 1024.0),
            );
        }
        match &self.event_file {
            Some(path) => {
                let _ = writeln!(out, "  events: {path}");
            }
            None => {
                let _ = writeln!(out, "  events: <no JSONL sink installed>");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn digest_is_stable_and_thread_independent() {
        let a = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
        let mut b = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
        b.threads = a.threads + 7;
        assert_eq!(config_digest(&a), config_digest(&b));
    }

    #[test]
    fn digest_tracks_configuration_changes() {
        let base = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
        let other_bench = StudyConfig::quick().with_benchmarks(&["vpr"]).unwrap();
        assert_ne!(config_digest(&base), config_digest(&other_bench));

        let mut other_nodes = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
        other_nodes.nodes = vec![NodeId::N180, NodeId::N90];
        assert_ne!(config_digest(&base), config_digest(&other_nodes));

        let mut other_pipeline = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
        other_pipeline.pipeline.trace_repeats += 1;
        assert_ne!(config_digest(&base), config_digest(&other_pipeline));
    }

    #[test]
    fn digest_tracks_worst_case_mode() {
        let base = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
        let mut other = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
        other.worst_case = crate::WorstCaseMode::GlobalPeak;
        assert_ne!(config_digest(&base), config_digest(&other));
    }

    #[test]
    fn provenance_captures_this_machine() {
        let p = Provenance::capture();
        assert!(!p.host.is_empty());
        assert!(!p.os.is_empty());
        assert!(!p.arch.is_empty());
        assert!(p.cpus >= 1);
        // Captures are cached: a second call is identical.
        assert_eq!(p, Provenance::capture());
    }

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("abc"), fnv1a_hex("abc"));
        assert_ne!(fnv1a_hex("abc"), fnv1a_hex("abd"));
    }

    fn tiny_manifest() -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            created_unix_ms: 0,
            config_digest: "deadbeefdeadbeef".to_string(),
            provenance: Provenance::capture(),
            threads: 1,
            runs: 1,
            wall_seconds: 0.5,
            stages: vec![],
            metrics: vec![],
            cache: ManifestCacheStats::default(),
            alloc: None,
            event_file: None,
        }
    }

    #[test]
    fn write_json_roundtrips_through_file() {
        let path = std::env::temp_dir().join("ramp-manifest-write-test.json");
        let manifest = tiny_manifest();
        manifest.write_json(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let back: RunManifest = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, manifest);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_json_reports_path_on_failure() {
        let manifest = tiny_manifest();
        let path = std::path::Path::new("/nonexistent-dir-ramp/m.json");
        let err = manifest.write_json(path).unwrap_err();
        assert!(matches!(err, crate::RampError::Io(_)));
        assert!(err.to_string().contains("nonexistent-dir-ramp"));
    }

    #[test]
    fn cache_key_classes_roundtrip_and_default() {
        let mut manifest = tiny_manifest();
        manifest.cache.key_classes.push(CacheClassEntry {
            class: "len=i5000/ic=1100".to_string(),
            hits: 3,
            misses: 1,
        });
        let json = serde_json::to_string(&manifest).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, manifest);
        // Pre-tracing manifests have no key_classes field; it defaults.
        let old: ManifestCacheStats =
            serde_json::from_str(r#"{"hits":4,"misses":2,"entries":1}"#).unwrap();
        assert_eq!(old.hits, 4);
        assert!(old.key_classes.is_empty());
    }

    #[test]
    fn stage_nodes_roundtrip_through_json() {
        let node = StageNode {
            name: "study".to_string(),
            path: "study".to_string(),
            count: 1,
            total_seconds: 1.5,
            alloc_count: 12,
            alloc_bytes: 4096,
            children: vec![StageNode {
                name: "run".to_string(),
                path: "study/run".to_string(),
                count: 10,
                total_seconds: 1.4,
                alloc_count: 0,
                alloc_bytes: 0,
                children: vec![],
            }],
        };
        let json = serde_json::to_string(&node).unwrap();
        let back: StageNode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, node);
        assert_eq!(back.find("study/run").unwrap().count, 10);
        assert_eq!(back.alloc_bytes, 4096);
    }

    #[test]
    fn alloc_section_roundtrips_and_defaults() {
        let mut manifest = tiny_manifest();
        manifest.alloc = Some(ManifestAllocStats {
            allocs: 100,
            frees: 90,
            alloc_bytes: 65536,
            free_bytes: 60000,
            live_bytes: 5536,
            peak_live_bytes: 40000,
        });
        let json = serde_json::to_string(&manifest).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, manifest);
        // Pre-observatory manifests have no alloc section or per-stage
        // alloc fields: both default cleanly.
        let old: StageNode = serde_json::from_str(
            r#"{"name":"study","path":"study","count":1,"total_seconds":1.0,"children":[]}"#,
        )
        .unwrap();
        assert_eq!(old.alloc_count, 0);
        assert_eq!(old.alloc_bytes, 0);
        let plain = tiny_manifest();
        let json = serde_json::to_string(&plain).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert!(back.alloc.is_none());
    }
}
