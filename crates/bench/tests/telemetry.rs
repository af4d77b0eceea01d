//! Telemetry-harness contract tests.
//!
//! The load-bearing one: the serialized `StudyResults` produced *inside*
//! the telemetry harness (spans, metrics, manifests, K samples) are
//! byte-identical to a bare `run_study` with no telemetry collection —
//! which is what makes exact digest comparison a valid drift detector.

use ramp_bench::telemetry::{
    capture_snapshot, compare, load_snapshot, reference_workload, run_harness, save_snapshot,
    snapshot_file_name, GateConfig, HarnessOptions, BENCH_SCHEMA_VERSION, REFERENCE_BENCHMARKS,
};
use ramp_core::{fnv1a_hex, run_study, StudyConfig};

/// Serializes the tests that run studies: the harness clears the
/// process-wide timing cache and span registry before each sample, so a
/// concurrent study would take over its cold-start misses and stages.
fn study_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A reduced workload so the harness runs twice in a debug-build test.
fn small_config() -> StudyConfig {
    StudyConfig::quick()
        .with_benchmarks(&["gzip", "ammp"])
        .expect("known benchmarks")
}

#[test]
fn results_bytes_identical_with_telemetry_on_and_off() {
    let _serial = study_lock();
    // Telemetry off: a bare study, no harness, no spans reset, no
    // manifests. This is the reference byte stream.
    let config = small_config();
    let bare = run_study(&config).expect("bare study runs");
    let expected = serde_json::to_string(&bare).expect("results serialize");

    // Telemetry on: the full harness with two measured samples (which
    // also makes the harness verify sample-to-sample identity itself).
    let opts = HarnessOptions {
        samples: 2,
        warmup: false,
        fleet_chips: 0,
        alloc_pass: false,
    };
    let measurement = run_harness(&config, &opts).expect("harness runs");

    assert_eq!(
        measurement.results_json, expected,
        "telemetry collection changed the serialized StudyResults bytes"
    );
    // The digest stored in the snapshot is the digest of those bytes.
    assert_eq!(
        measurement.numerics.results_digest,
        fnv1a_hex(&expected),
        "numerics.results_digest is not the digest of the results bytes"
    );
}

#[test]
fn harness_produces_complete_telemetry() {
    let _serial = study_lock();
    let opts = HarnessOptions {
        samples: 2,
        warmup: false,
        fleet_chips: 2_000,
        alloc_pass: true,
    };
    let m = run_harness(&small_config(), &opts).expect("harness runs");

    // Per-sample manifests carry the benchmark section.
    assert_eq!(m.manifests.len(), 2);
    for (i, manifest) in m.manifests.iter().enumerate() {
        let bench = manifest.benchmark.as_ref().expect("benchmark section");
        assert_eq!(bench.sample as usize, i + 1);
        assert_eq!(bench.samples, 2);
    }

    // The stage table covers the study pipeline.
    for path in ["study", "study/reference/worker/run/timing"] {
        assert!(
            m.stages.iter().any(|s| s.path == path),
            "stage {path} missing from {:?}",
            m.stages.iter().map(|s| s.path.clone()).collect::<Vec<_>>()
        );
    }
    // Stage timings are internally consistent.
    for s in &m.stages {
        assert!(s.timing.min_seconds <= s.timing.median_seconds);
        assert!(s.timing.median_seconds <= s.timing.max_seconds);
        assert!((0.0..=1.0).contains(&s.share), "share {}", s.share);
    }
    assert!(m.total.median_seconds > 0.0);

    // The harness clears the timing cache before each sample, so the
    // measured cache traffic reflects a cold start: every (profile, node)
    // pair misses once and repeats hit.
    assert!(m.cache.misses > 0, "cold-start sample recorded no misses");
    assert!((0.0..=1.0).contains(&m.cache.hit_rate));

    // Histograms observed during the window surface with percentiles.
    for h in &m.histograms {
        assert!(h.count > 0);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99, "{h:?}");
    }

    // Numerics cover every (node, mechanism) cell.
    assert_eq!(m.numerics.nodes.len(), small_config().nodes.len());
    assert_eq!(
        m.numerics.mechanisms.len(),
        small_config().nodes.len() * 4
    );

    // The fleet telemetry pass ran and pinned a population digest.
    let fleet = m.fleet.as_ref().expect("fleet section");
    assert_eq!(fleet.chips_per_node, 2_000);
    assert!(fleet.chips_per_sec > 0.0);
    assert_eq!(fleet.population_digest.len(), 16);

    // The alloc pass ran single-threaded, attributed real allocations to
    // the pipeline stages, and pinned an exact stage digest.
    let alloc = m.alloc.as_ref().expect("alloc section");
    assert_eq!(alloc.threads, 1);
    assert!(alloc.allocs > 0, "tracking allocator saw no allocations");
    assert!(alloc.alloc_bytes > 0);
    assert!(alloc.peak_live_bytes > 0);
    assert_eq!(alloc.stage_digest.len(), 16);
    let study = alloc
        .stages
        .iter()
        .find(|s| s.path == "study")
        .expect("study stage in alloc table");
    assert!(study.allocs > 0, "study span attributed no allocations");
}

#[test]
fn snapshot_survives_disk_roundtrip_and_gates_against_itself() {
    let _serial = study_lock();
    let opts = HarnessOptions::smoke();
    let m = run_harness(&small_config(), &opts).expect("harness runs");
    let snapshot = capture_snapshot(&m, 7);
    assert_eq!(snapshot.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(snapshot.seq, 7);

    let dir = std::env::temp_dir().join(format!("ramp-telemetry-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(snapshot_file_name(7));
    save_snapshot(&snapshot, &path).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    assert_eq!(loaded, snapshot);
    std::fs::remove_dir_all(&dir).ok();

    // A measurement gated against its own snapshot always passes: zero
    // timing delta and exact digest equality.
    let report = compare(&loaded, &m, &GateConfig::smoke());
    assert!(report.passed(), "self-gate failed");
    assert!(report.digest_match);
}

#[test]
fn reference_workload_shape_is_stable() {
    let config = reference_workload();
    let names: Vec<_> = config.benchmarks.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, REFERENCE_BENCHMARKS);
    assert_eq!(config.nodes.len(), 5);
    assert!(config.pipeline.record_thermal_trace);
}
