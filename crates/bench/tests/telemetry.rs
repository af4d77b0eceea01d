//! Telemetry-harness contract tests.
//!
//! The load-bearing ones: the serialized `StudyResults` produced *inside*
//! the harness (spans, fleet pass, tracked alloc pass) are byte-identical
//! to a bare `run_study` with no telemetry collection — which is what
//! makes exact digest comparison a valid drift detector — and the
//! reference workload still reproduces the digests of the latest
//! checked-in `BENCH_<seq>.json`.

use ramp_bench::telemetry::{
    compare, fleet_section, latest_snapshot, load_snapshot, reference_workload, run_harness,
    save_snapshot, snapshot_file_name, BenchSnapshot, BENCH_SCHEMA_VERSION, FLEET_CHIPS,
    REFERENCE_BENCHMARKS,
};
use ramp_core::{config_digest, fnv1a_hex, results_digest, run_study, StudyConfig};
use std::path::Path;
use std::sync::OnceLock;

/// Serializes the tests that run studies: the harness clears the
/// process-wide timing cache and span registry and reads process-wide
/// allocation counters, so a concurrent study would leak into them.
fn study_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A reduced workload so the harness runs quickly in a debug-build test.
fn small_config() -> StudyConfig {
    StudyConfig::quick()
        .with_benchmarks(&["gzip", "ammp"])
        .expect("known benchmarks")
}

/// One harness run over [`small_config`], shared by the tests below.
/// Call with [`study_lock`] held.
fn small_run() -> &'static (BenchSnapshot, String) {
    static RUN: OnceLock<(BenchSnapshot, String)> = OnceLock::new();
    RUN.get_or_init(|| run_harness(&small_config()).expect("harness runs"))
}

#[test]
fn results_bytes_identical_with_telemetry_on_and_off() {
    let _serial = study_lock();
    // Telemetry off: a bare study, no harness, no spans reset. This is
    // the reference byte stream.
    let bare = run_study(&small_config()).expect("bare study runs");
    let expected = serde_json::to_string(&bare).expect("results serialize");

    // Telemetry on: the harness (whose alloc pass also checks its own
    // threads=1, tracking-on bytes against the study's).
    let (snapshot, results_json) = small_run();
    assert_eq!(
        *results_json, expected,
        "telemetry collection changed the serialized StudyResults bytes"
    );
    // The digest stored in the snapshot is the digest of those bytes.
    assert_eq!(
        snapshot.numerics.results_digest,
        fnv1a_hex(&expected),
        "numerics.results_digest is not the digest of the results bytes"
    );
}

#[test]
fn harness_produces_complete_telemetry() {
    let _serial = study_lock();
    let (s, _) = small_run();
    assert_eq!(s.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(s.seq, 0);

    // Numerics cover every (node, mechanism) cell.
    let nodes = small_config().nodes.len();
    assert_eq!(s.numerics.nodes.len(), nodes);
    assert_eq!(s.numerics.mechanisms.len(), nodes * 4);

    // The fleet pass ran at the constant size and pinned a digest.
    assert_eq!(s.fleet.benchmark, "gzip");
    assert_eq!(s.fleet.chips_per_node, FLEET_CHIPS);
    assert_eq!(s.fleet.population_digest.len(), 16);

    // The alloc pass attributed real allocations to the pipeline stages
    // and pinned an exact stage digest.
    assert!(s.alloc.allocs > 0, "tracking allocator saw no allocations");
    assert!(s.alloc.alloc_bytes > 0);
    assert!(s.alloc.peak_live_bytes > 0);
    assert_eq!(s.alloc.stage_digest.len(), 16);
    for path in ["study", "study/reference/worker/run/timing"] {
        let stage = s
            .alloc
            .stages
            .iter()
            .find(|st| st.path == path)
            .unwrap_or_else(|| panic!("stage {path} missing from the alloc table"));
        assert!(stage.allocs > 0, "{path} attributed no allocations");
    }
}

#[test]
fn snapshot_survives_disk_roundtrip_and_gates_against_itself() {
    let _serial = study_lock();
    let mut snapshot = small_run().0.clone();
    snapshot.seq = 7;

    let dir = std::env::temp_dir().join(format!("ramp-telemetry-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(snapshot_file_name(7));
    save_snapshot(&snapshot, &path).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    assert_eq!(loaded, snapshot);
    std::fs::remove_dir_all(&dir).ok();

    // A run gated against its own snapshot always passes.
    let report = compare(&loaded, &small_run().0);
    assert!(report.passed(), "self-gate failed");
    assert!(report.digest_match && report.fleet_digest_match && report.alloc_digest_match);
}

/// Tier-1 pin of the latest checked-in baseline: the reference workload's
/// config and results digests and the fleet pass's population digest.
/// The alloc digest stays with `benchgate`, which runs in release: LLVM
/// may elide allocations there, so a debug-build count is another
/// quantity.
#[test]
fn reference_workload_reproduces_the_latest_bench_digests() {
    let _serial = study_lock();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (_, path) = latest_snapshot(&root).expect("a BENCH_<seq>.json at the repository root");
    let baseline = load_snapshot(&path).expect("the latest snapshot loads");

    let config = reference_workload();
    assert_eq!(config_digest(&config), baseline.numerics.config_digest);
    let results = run_study(&config).expect("reference study runs");
    assert_eq!(
        results_digest(&results),
        baseline.numerics.results_digest,
        "the reference study's results drifted from {}",
        path.display()
    );
    let fleet = fleet_section(&config).expect("fleet pass runs");
    assert_eq!(
        fleet,
        baseline.fleet,
        "the fleet population drifted from {}",
        path.display()
    );
}

#[test]
fn reference_workload_shape_is_stable() {
    let config = reference_workload();
    let names: Vec<_> = config.benchmarks.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, REFERENCE_BENCHMARKS);
    assert_eq!(config.nodes.len(), 5);
    assert!(config.pipeline.record_thermal_trace);
}
