//! Benchmark telemetry: versioned `BENCH_<seq>.json` snapshots of the
//! reference study workload and an exact gate over them.
//!
//! # Snapshot model
//!
//! A [`BenchSnapshot`] freezes what one harness run computed, never how
//! long it took: the study's numerical outputs (per-node and
//! per-mechanism FIT plus an FNV-1a digest of the full serialized
//! [`StudyResults`]), the digest of a fixed-seed fleet population of
//! [`FLEET_CHIPS`] chips per node, and the per-stage allocation counts of
//! a single-threaded pass. Snapshots are append-only files named
//! `BENCH_0001.json`, `BENCH_0002.json`, … at the repository root.
//!
//! # Gate semantics
//!
//! [`compare`] checks only what it can check exactly. The results
//! digest, the population digest and the alloc stage digest must match
//! *bit for bit*: the study and the fleet are byte-deterministic across
//! thread counts and observability configurations (a tested contract),
//! and single-threaded allocation counts are reproducible, so any
//! difference is real drift, not noise. The one budget is the peak live
//! heap, held to [`PEAK_LIVE_SLACK`] × the baseline's. Wall-clock speed
//! is measured by the separate `benchmark/` package, not here.
//!
//! A baseline taken under a different study configuration (different
//! config digest) fails fast with a "re-baseline" message rather than
//! producing meaningless deltas.

use ramp_core::{
    config_digest, fnv1a_hex, results_digest, run_study, Provenance, StudyConfig, StudyResults,
};
use ramp_core::mechanisms::MechanismKind;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Snapshot schema version, bumped on incompatible field changes.
///
/// v2 dropped the wall-clock sections (total, stages, cache, executor,
/// histograms) and made the fleet and alloc sections mandatory.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Benchmarks of the reference workload: two per suite, matching the
/// `profile` binary's quick subset so snapshots and obs-smoke output
/// describe the same work.
pub const REFERENCE_BENCHMARKS: [&str; 4] = ["gzip", "vpr", "ammp", "apsi"];

/// Label stamped into snapshots.
pub const REFERENCE_LABEL: &str = "reference_workload";

/// Chips per node of the fleet pass. Constant, so every snapshot's
/// population digest describes the same population.
pub const FLEET_CHIPS: u64 = 100_000;

/// Multiplier on the baseline peak live bytes the current peak is held
/// to. Allocation *counts* are exact; the live-byte high-water mark can
/// shift slightly with allocator growth policy, so it gets a budget
/// instead of an exact match.
pub const PEAK_LIVE_SLACK: f64 = 1.5;

/// The study configuration the harness measures: the quick pipeline over
/// [`REFERENCE_BENCHMARKS`] with the thermal trace recorded (same shape
/// as the obs-smoke run).
#[must_use]
pub fn reference_workload() -> StudyConfig {
    let mut cfg = StudyConfig::quick()
        .with_benchmarks(&REFERENCE_BENCHMARKS)
        .expect("reference benchmark subset is valid");
    cfg.pipeline.record_thermal_trace = true;
    cfg.pipeline.thermal_trace_stride = 50;
    cfg
}

// ---------------------------------------------------------------------------
// Snapshot schema
// ---------------------------------------------------------------------------

/// What the harness ran (the workload identity, not its outputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSection {
    /// Harness label (see [`REFERENCE_LABEL`]).
    pub label: String,
    /// Benchmark names, in run order.
    pub benchmarks: Vec<String>,
    /// Node labels, in run order.
    pub nodes: Vec<String>,
    /// Worker threads the study used.
    pub threads: u64,
}

/// One node's headline FIT numbers (exact-match gated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFit {
    /// Node label.
    pub node: String,
    /// Mean total FIT over the workload's benchmarks.
    pub avg_fit: f64,
    /// Highest single-benchmark total FIT.
    pub max_fit: f64,
}

/// Mean FIT of one mechanism on one node (exact-match gated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MechanismFit {
    /// Node label.
    pub node: String,
    /// Mechanism label (`"EM"`, `"SM"`, `"TDDB"`, `"TC"`).
    pub mechanism: String,
    /// Mean FIT over the workload's benchmarks.
    pub avg_fit: f64,
}

/// The study's numerical outputs: digests plus a human-readable FIT
/// table so a failed gate can say *where* the numbers moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumericsSection {
    /// FNV-1a digest of the study configuration — identifies the workload.
    pub config_digest: String,
    /// FNV-1a digest of the serialized [`StudyResults`] — identifies the
    /// exact numerical outcome.
    pub results_digest: String,
    /// Per-node headline FIT.
    pub nodes: Vec<NodeFit>,
    /// Per-(node, mechanism) mean FIT.
    pub mechanisms: Vec<MechanismFit>,
}

/// The fleet pass: a fixed-seed population of [`FLEET_CHIPS`] chips per
/// node, pinned by its canonical population digest (exact-match gated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSection {
    /// Benchmark the fleet was anchored on.
    pub benchmark: String,
    /// Chips simulated per node.
    pub chips_per_node: u64,
    /// Master seed of the population run.
    pub seed: u64,
    /// FNV-1a digest of the canonical population JSON
    /// ([`ramp_fleet::FleetResults::population_digest`]).
    pub population_digest: String,
}

/// Heap allocations attributed to one span path during the allocation
/// telemetry pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocStageStat {
    /// Full `/`-joined span path.
    pub path: String,
    /// Heap allocations attributed to the path (own-thread, entry-to-exit).
    pub allocs: u64,
    /// Heap bytes allocated by the path's spans.
    pub bytes: u64,
}

/// Allocation telemetry from a dedicated single-threaded pass over the
/// workload with the tracking allocator on. Allocation *counts* are
/// deterministic at one thread (the digest is exact-match gated);
/// `peak_live_bytes` is a high-water gauge held to a budget rather than
/// an exact match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocSection {
    /// Total heap allocations during the pass.
    pub allocs: u64,
    /// Total heap bytes allocated during the pass.
    pub alloc_bytes: u64,
    /// High-water live heap bytes observed by the tracking allocator.
    pub peak_live_bytes: u64,
    /// FNV-1a digest of the canonical per-stage allocation-count
    /// rendering (`path=count` lines, path-sorted) — exact-match gated.
    pub stage_digest: String,
    /// Per-stage allocation attribution, path-sorted.
    pub stages: Vec<AllocStageStat>,
}

/// One versioned benchmark snapshot (`BENCH_<seq>.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Snapshot schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Monotonic sequence number (1-based, from the file name; 0 for a
    /// candidate that was never written as a baseline).
    pub seq: u32,
    /// Wall-clock capture time, Unix milliseconds.
    pub created_unix_ms: u64,
    /// Host/OS/git provenance of the capturing process.
    pub provenance: Provenance,
    /// What ran.
    pub workload: WorkloadSection,
    /// Exact-match numerical outputs.
    pub numerics: NumericsSection,
    /// Fleet population digest.
    pub fleet: FleetSection,
    /// Allocation telemetry.
    pub alloc: AllocSection,
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Runs `config` once and captures a snapshot with sequence number 0.
///
/// The study runs at the configured thread count from a cold timing
/// cache; then the fleet pass ([`fleet_section`]); then the
/// single-threaded allocation pass, whose result bytes must equal the
/// study's. Returns the snapshot and those serialized [`StudyResults`]
/// bytes, which are also identical to a run without telemetry (the
/// byte-determinism contract).
///
/// # Errors
///
/// Returns a message when a pass fails, serialization fails, or the
/// allocation pass's results differ from the study's.
pub fn run_harness(config: &StudyConfig) -> Result<(BenchSnapshot, String), String> {
    crate::init_obs();
    ramp_microarch::clear_timing_cache();
    let results = run_study(config).map_err(|e| format!("study failed: {e}"))?;
    let results_json =
        serde_json::to_string(&results).map_err(|e| format!("results do not serialize: {e}"))?;
    let fleet = fleet_section(config)?;
    let alloc = alloc_section(config, &results_json)?;
    let snapshot = BenchSnapshot {
        schema_version: BENCH_SCHEMA_VERSION,
        seq: 0,
        created_unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        provenance: Provenance::capture(),
        workload: WorkloadSection {
            label: REFERENCE_LABEL.to_string(),
            benchmarks: config.benchmarks.iter().map(|p| p.name.clone()).collect(),
            nodes: config.nodes.iter().map(|n| n.label().to_string()).collect(),
            threads: results.metrics().threads as u64,
        },
        numerics: numerics_section(config, &results),
        fleet,
        alloc,
    };
    Ok((snapshot, results_json))
}

/// Canonical rendering the alloc digest is taken over: one
/// `path=count` line per stage, path-sorted. Counts only — byte totals
/// can legitimately vary with allocator growth policy, counts cannot.
fn alloc_stage_canonical(stages: &[AllocStageStat]) -> String {
    let mut out = String::new();
    for s in stages {
        out.push_str(&s.path);
        out.push('=');
        out.push_str(&s.allocs.to_string());
        out.push('\n');
    }
    out
}

/// Runs the allocation telemetry pass: the same workload, one worker
/// thread, tracking allocator on. Single-threaded execution makes the
/// per-stage allocation *counts* exactly reproducible, so the section's
/// digest can be gated like the results digest. The pass also re-checks
/// the byte-determinism contract: its results must match the study's
/// bit for bit even though the thread count and the allocator
/// instrumentation differ.
fn alloc_section(config: &StudyConfig, expected_json: &str) -> Result<AllocSection, String> {
    let mut cfg = config.clone();
    cfg.threads = 1;
    ramp_microarch::clear_timing_cache();
    ramp_obs::reset_spans();
    let before = ramp_obs::alloc_stats();
    ramp_obs::set_alloc_tracking(true);
    let outcome = run_study(&cfg);
    ramp_obs::set_alloc_tracking(false);
    let after = ramp_obs::alloc_stats();
    let results = outcome.map_err(|e| format!("alloc pass failed: {e}"))?;

    let json = serde_json::to_string(&results)
        .map_err(|e| format!("alloc pass: results do not serialize: {e}"))?;
    if json != expected_json {
        return Err(format!(
            "determinism violation: the alloc pass (threads=1, tracking on) produced \
             different result bytes than the study ({} vs {} bytes)",
            json.len(),
            expected_json.len()
        ));
    }

    let delta = after.delta_since(&before);
    let stages: Vec<AllocStageStat> = ramp_obs::span_stats()
        .into_iter()
        .map(|s| AllocStageStat {
            path: s.path,
            allocs: s.alloc_count,
            bytes: s.alloc_bytes,
        })
        .collect();
    Ok(AllocSection {
        allocs: delta.allocs,
        alloc_bytes: delta.alloc_bytes,
        peak_live_bytes: after.peak_live_bytes,
        stage_digest: fnv1a_hex(&alloc_stage_canonical(&stages)),
        stages,
    })
}

/// Runs the fleet pass: a [`FLEET_CHIPS`]-chip population per node with
/// the default seed, over the workload's first benchmark and all its
/// nodes, reported as its canonical population digest.
///
/// # Errors
///
/// Returns a message when the workload has no benchmark or calibration
/// or the fleet run fails.
pub fn fleet_section(config: &StudyConfig) -> Result<FleetSection, String> {
    let benchmark = config
        .benchmarks
        .first()
        .map(|p| p.name.clone())
        .ok_or_else(|| "fleet telemetry needs at least one benchmark".to_string())?;
    let engine = ramp_core::QueryEngine::calibrate(config)
        .map_err(|e| format!("fleet calibration failed: {e}"))?;
    let fleet_config = ramp_fleet::FleetConfig {
        benchmark: benchmark.clone(),
        nodes: config.nodes.clone(),
        chips: FLEET_CHIPS,
        threads: Some(config.threads),
        ..ramp_fleet::FleetConfig::default()
    };
    let results = ramp_fleet::run_fleet(&engine, &fleet_config)
        .map_err(|e| format!("fleet telemetry run failed: {e}"))?;
    Ok(FleetSection {
        benchmark,
        chips_per_node: results.chips_per_node,
        seed: results.seed,
        population_digest: results.population_digest(),
    })
}

fn numerics_section(config: &StudyConfig, results: &StudyResults) -> NumericsSection {
    let mut nodes = Vec::new();
    let mut mechanisms = Vec::new();
    for &node in &config.nodes {
        nodes.push(NodeFit {
            node: node.label().to_string(),
            avg_fit: results.overall_average_fit(node).value(),
            max_fit: results.max_app_fit(node).value(),
        });
        for mech in MechanismKind::ALL {
            let rs: Vec<_> = results
                .app_results()
                .iter()
                .filter(|r| r.node == node)
                .collect();
            let mean = rs
                .iter()
                .map(|r| r.fit.mechanism_total(mech).value())
                .sum::<f64>()
                / rs.len() as f64;
            mechanisms.push(MechanismFit {
                node: node.label().to_string(),
                mechanism: mech.label().to_string(),
                avg_fit: mean,
            });
        }
    }
    NumericsSection {
        config_digest: config_digest(config),
        results_digest: results_digest(results),
        nodes,
        mechanisms,
    }
}

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

/// Full outcome of a gate comparison.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Baseline snapshot sequence number.
    pub baseline_seq: u32,
    /// Whether the two runs measured the same workload (config digests
    /// match). When false every other field is advisory.
    pub config_match: bool,
    /// Whether the numerical outputs matched exactly.
    pub digest_match: bool,
    /// Human-readable localization of numerical drift (empty when
    /// `digest_match`).
    pub numeric_diffs: Vec<String>,
    /// Whether the fleet population digests matched.
    pub fleet_digest_match: bool,
    /// The fleet population of the current run, and on a mismatch the
    /// baseline's (`"<baseline> -> <current>"`).
    pub fleet_line: String,
    /// Whether the per-stage allocation-count digests matched.
    pub alloc_digest_match: bool,
    /// Whether the current peak live bytes sat within the baseline
    /// budget (`peak × PEAK_LIVE_SLACK`).
    pub alloc_peak_ok: bool,
    /// Human-readable allocation drift localization (empty when both
    /// alloc checks passed).
    pub alloc_diffs: Vec<String>,
}

impl GateReport {
    /// Whether the gate passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.config_match
            && self.digest_match
            && self.fleet_digest_match
            && self.alloc_digest_match
            && self.alloc_peak_ok
    }
}

fn fleet_label(f: &FleetSection) -> String {
    format!(
        "population digest {} ({}, {} chips/node, seed {})",
        f.population_digest, f.benchmark, f.chips_per_node, f.seed
    )
}

/// Compares a current snapshot against a baseline snapshot.
#[must_use]
pub fn compare(baseline: &BenchSnapshot, current: &BenchSnapshot) -> GateReport {
    let config_match = baseline.numerics.config_digest == current.numerics.config_digest;
    let digest_match = baseline.numerics.results_digest == current.numerics.results_digest;

    let mut numeric_diffs = Vec::new();
    if !digest_match {
        numeric_diffs.push(format!(
            "results digest {} -> {}",
            baseline.numerics.results_digest, current.numerics.results_digest
        ));
        for b in &baseline.numerics.nodes {
            if let Some(c) = current.numerics.nodes.iter().find(|n| n.node == b.node) {
                if c.avg_fit != b.avg_fit || c.max_fit != b.max_fit {
                    numeric_diffs.push(format!(
                        "{}: avg FIT {:.6} -> {:.6}, max FIT {:.6} -> {:.6}",
                        b.node, b.avg_fit, c.avg_fit, b.max_fit, c.max_fit
                    ));
                }
            }
        }
        for b in &baseline.numerics.mechanisms {
            if let Some(c) = current
                .numerics
                .mechanisms
                .iter()
                .find(|m| m.node == b.node && m.mechanism == b.mechanism)
            {
                if c.avg_fit != b.avg_fit {
                    numeric_diffs.push(format!(
                        "{} {}: avg FIT {:.6} -> {:.6}",
                        b.node, b.mechanism, b.avg_fit, c.avg_fit
                    ));
                }
            }
        }
    }

    // The population digest covers the population's benchmark, size and
    // seed, so a run with other fleet parameters fails here too.
    let fleet_digest_match = baseline.fleet == current.fleet;
    let fleet_line = if fleet_digest_match {
        fleet_label(&current.fleet)
    } else {
        format!(
            "{} -> {}",
            fleet_label(&baseline.fleet),
            fleet_label(&current.fleet)
        )
    };

    // The alloc digest is exact (single-threaded counts are
    // deterministic); the peak-live high-water mark gets a budget.
    let (b, c) = (&baseline.alloc, &current.alloc);
    let mut alloc_diffs = Vec::new();
    let alloc_digest_match = b.stage_digest == c.stage_digest;
    if !alloc_digest_match {
        alloc_diffs.push(format!(
            "alloc stage digest {} -> {} ({} -> {} total allocations)",
            b.stage_digest, c.stage_digest, b.allocs, c.allocs
        ));
        for bs in &b.stages {
            match c.stages.iter().find(|cs| cs.path == bs.path) {
                Some(cs) if cs.allocs != bs.allocs => {
                    alloc_diffs.push(format!(
                        "  {}: {} -> {} allocs",
                        bs.path, bs.allocs, cs.allocs
                    ));
                }
                Some(_) => {}
                None => alloc_diffs.push(format!("  {}: stage vanished", bs.path)),
            }
        }
        for cs in &c.stages {
            if !b.stages.iter().any(|bs| bs.path == cs.path) {
                alloc_diffs.push(format!(
                    "  {}: new stage ({} allocs)",
                    cs.path, cs.allocs
                ));
            }
        }
    }
    let peak_budget = (b.peak_live_bytes as f64 * PEAK_LIVE_SLACK) as u64;
    let alloc_peak_ok = c.peak_live_bytes <= peak_budget;
    if !alloc_peak_ok {
        alloc_diffs.push(format!(
            "peak live bytes {} exceeds budget {} ({} baseline x {:.1})",
            c.peak_live_bytes, peak_budget, b.peak_live_bytes, PEAK_LIVE_SLACK
        ));
    }

    GateReport {
        baseline_seq: baseline.seq,
        config_match,
        digest_match,
        numeric_diffs,
        fleet_digest_match,
        fleet_line,
        alloc_digest_match,
        alloc_peak_ok,
        alloc_diffs,
    }
}

/// Renders a gate report for humans (what CI prints on failure).
#[must_use]
pub fn render_report(report: &GateReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "benchgate vs BENCH_{:04}: {}",
        report.baseline_seq,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    if !report.config_match {
        let _ = writeln!(
            out,
            "  workload mismatch: the baseline was captured under a different study \
             configuration; its digests are not comparable. \
             Re-baseline with `benchgate --update`."
        );
        return out;
    }
    if report.digest_match {
        let _ = writeln!(out, "  numerics: exact match (results digest unchanged)");
    } else {
        let _ = writeln!(out, "  numerics: DRIFT DETECTED");
        for d in &report.numeric_diffs {
            let _ = writeln!(out, "    {d}");
        }
    }
    if report.fleet_digest_match {
        let _ = writeln!(out, "  fleet: {} matches", report.fleet_line);
    } else {
        let _ = writeln!(out, "  fleet: POPULATION DRIFT");
        let _ = writeln!(out, "    {}", report.fleet_line);
    }
    if report.alloc_digest_match && report.alloc_peak_ok {
        let _ = writeln!(out, "  alloc: stage digest and peak budget ok");
    } else {
        let _ = writeln!(out, "  alloc: ALLOCATION DRIFT");
        for d in &report.alloc_diffs {
            let _ = writeln!(out, "    {d}");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// File name of snapshot `seq` (`BENCH_0001.json`).
#[must_use]
pub fn snapshot_file_name(seq: u32) -> String {
    format!("BENCH_{seq:04}.json")
}

/// All `BENCH_<seq>.json` files in `dir`, sorted by sequence number.
#[must_use]
pub fn find_snapshots(dir: &Path) -> Vec<(u32, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|(seq, _)| *seq);
    found
}

/// The highest-sequence snapshot in `dir`, if any.
#[must_use]
pub fn latest_snapshot(dir: &Path) -> Option<(u32, PathBuf)> {
    find_snapshots(dir).into_iter().next_back()
}

/// The sequence number the next snapshot in `dir` should use.
#[must_use]
pub fn next_seq(dir: &Path) -> u32 {
    latest_snapshot(dir).map_or(1, |(seq, _)| seq + 1)
}

/// Loads and validates a snapshot file.
///
/// # Errors
///
/// Returns a message when the file is unreadable, not valid snapshot
/// JSON, or from a different schema version.
pub fn load_snapshot(path: &Path) -> Result<BenchSnapshot, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let snap: BenchSnapshot = serde_json::from_str(&raw)
        .map_err(|e| format!("{} is not a BENCH snapshot: {e}", path.display()))?;
    if snap.schema_version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "{}: schema version {} (this binary understands {})",
            path.display(),
            snap.schema_version,
            BENCH_SCHEMA_VERSION
        ));
    }
    Ok(snap)
}

/// Writes a snapshot as pretty-stable JSON.
///
/// # Errors
///
/// Returns a message when serialization or the write fails.
pub fn save_snapshot(snapshot: &BenchSnapshot, path: &Path) -> Result<(), String> {
    let json = serde_json::to_string(snapshot)
        .map_err(|e| format!("snapshot does not serialize: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_fixture() -> BenchSnapshot {
        BenchSnapshot {
            schema_version: BENCH_SCHEMA_VERSION,
            seq: 1,
            created_unix_ms: 0,
            provenance: Provenance::capture(),
            workload: WorkloadSection {
                label: REFERENCE_LABEL.to_string(),
                benchmarks: vec!["gzip".into()],
                nodes: vec!["180nm".into()],
                threads: 1,
            },
            numerics: NumericsSection {
                config_digest: "c".into(),
                results_digest: "r".into(),
                nodes: vec![NodeFit {
                    node: "180nm".into(),
                    avg_fit: 4000.0,
                    max_fit: 4400.0,
                }],
                mechanisms: vec![MechanismFit {
                    node: "180nm".into(),
                    mechanism: "EM".into(),
                    avg_fit: 1000.0,
                }],
            },
            fleet: FleetSection {
                benchmark: "gzip".into(),
                chips_per_node: FLEET_CHIPS,
                seed: 42,
                population_digest: "f".into(),
            },
            alloc: alloc_fixture(),
        }
    }

    fn alloc_fixture() -> AllocSection {
        let stages = vec![
            AllocStageStat {
                path: "study".into(),
                allocs: 100,
                bytes: 10_000,
            },
            AllocStageStat {
                path: "study/run".into(),
                allocs: 80,
                bytes: 8_000,
            },
        ];
        AllocSection {
            allocs: 200,
            alloc_bytes: 20_000,
            peak_live_bytes: 1_000_000,
            stage_digest: fnv1a_hex(&alloc_stage_canonical(&stages)),
            stages,
        }
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let base = snapshot_fixture();
        let report = compare(&base, &base.clone());
        let rendered = render_report(&report);
        assert!(report.passed(), "{rendered}");
        assert!(report.digest_match);
        assert!(
            rendered.contains("fleet: population digest f (gzip, 100000 chips/node, seed 42) matches"),
            "{rendered}"
        );
    }

    #[test]
    fn digest_mismatch_fails_regardless_of_timing() {
        let base = snapshot_fixture();
        let mut cur = base.clone();
        cur.numerics.results_digest = "drifted".into();
        cur.numerics.nodes[0].avg_fit += 1e-9;
        let report = compare(&base, &cur);
        assert!(!report.passed());
        assert!(!report.digest_match);
        assert!(!report.numeric_diffs.is_empty());
        assert!(render_report(&report).contains("DRIFT"));
    }

    #[test]
    fn population_digest_mismatch_fails_the_gate() {
        let base = snapshot_fixture();
        let mut cur = base.clone();
        cur.fleet.population_digest = "g".into();
        let report = compare(&base, &cur);
        assert!(!report.passed());
        assert!(report.digest_match && report.alloc_digest_match && report.alloc_peak_ok);
        assert!(!report.fleet_digest_match);
        let rendered = render_report(&report);
        assert!(rendered.contains("POPULATION DRIFT"), "{rendered}");
        assert!(rendered.contains("population digest f (gzip"), "{rendered}");
        assert!(rendered.contains("-> population digest g (gzip"), "{rendered}");
    }

    #[test]
    fn config_mismatch_asks_for_rebaseline() {
        let base = snapshot_fixture();
        let mut cur = base.clone();
        cur.numerics.config_digest = "other".into();
        let report = compare(&base, &cur);
        assert!(!report.passed());
        assert!(!report.config_match);
        assert!(render_report(&report).contains("Re-baseline"));
    }

    #[test]
    fn missing_baseline_stage_fails() {
        let base = snapshot_fixture();
        let mut cur = base.clone();
        cur.alloc.stages.remove(1);
        cur.alloc.stage_digest = fnv1a_hex(&alloc_stage_canonical(&cur.alloc.stages));
        let report = compare(&base, &cur);
        assert!(!report.passed());
        assert!(!report.alloc_digest_match);
        let rendered = render_report(&report);
        assert!(rendered.contains("study/run: stage vanished"), "{rendered}");
    }

    #[test]
    fn alloc_count_drift_fails_the_gate() {
        let base = snapshot_fixture();
        let mut cur = base.clone();
        let alloc = &mut cur.alloc;
        alloc.stages[1].allocs += 1;
        alloc.stage_digest = fnv1a_hex(&alloc_stage_canonical(&alloc.stages));
        let report = compare(&base, &cur);
        assert!(!report.passed());
        assert!(!report.alloc_digest_match);
        assert!(report.alloc_peak_ok);
        let rendered = render_report(&report);
        assert!(rendered.contains("ALLOCATION DRIFT"), "{rendered}");
        assert!(rendered.contains("study/run: 80 -> 81 allocs"), "{rendered}");
    }

    #[test]
    fn peak_live_bytes_over_budget_fails_the_gate() {
        let base = snapshot_fixture();
        let mut cur = base.clone();
        // 1.5x slack on a 1 MB baseline: 1.5 MB is in budget, 2 MB is not.
        cur.alloc.peak_live_bytes = 1_500_000;
        assert!(compare(&base, &cur).passed());
        cur.alloc.peak_live_bytes = 2_000_000;
        let report = compare(&base, &cur);
        assert!(!report.passed());
        assert!(report.alloc_digest_match);
        assert!(!report.alloc_peak_ok);
        assert!(render_report(&report).contains("peak live bytes"));
    }

    #[test]
    fn alloc_canonical_rendering_is_stable() {
        let stages = vec![
            AllocStageStat {
                path: "a".into(),
                allocs: 1,
                bytes: 10,
            },
            AllocStageStat {
                path: "b".into(),
                allocs: 2,
                bytes: 99,
            },
        ];
        // Counts only: byte totals must not move the digest.
        assert_eq!(alloc_stage_canonical(&stages), "a=1\nb=2\n");
        let mut fatter = stages.clone();
        fatter[0].bytes = 1_000_000;
        assert_eq!(
            fnv1a_hex(&alloc_stage_canonical(&stages)),
            fnv1a_hex(&alloc_stage_canonical(&fatter))
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = snapshot_fixture();
        let json = serde_json::to_string(&snap).unwrap();
        let back: BenchSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_files_are_discovered_in_sequence_order() {
        let dir = std::env::temp_dir().join(format!("ramp-bench-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = snapshot_fixture();
        for seq in [3u32, 1, 2] {
            snap.seq = seq;
            save_snapshot(&snap, &dir.join(snapshot_file_name(seq))).unwrap();
        }
        std::fs::write(dir.join("BENCH_bogus.json"), "{}").unwrap();
        let found = find_snapshots(&dir);
        assert_eq!(
            found.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(latest_snapshot(&dir).unwrap().0, 3);
        assert_eq!(next_seq(&dir), 4);
        let loaded = load_snapshot(&found[0].1).unwrap();
        assert_eq!(loaded.seq, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let dir = std::env::temp_dir().join(format!("ramp-bench-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = snapshot_fixture();
        snap.schema_version = BENCH_SCHEMA_VERSION + 1;
        let path = dir.join(snapshot_file_name(9));
        save_snapshot(&snap, &path).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
