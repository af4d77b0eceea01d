//! Experiment harness for regenerating every table and figure of the
//! paper's evaluation.
//!
//! One binary, `report`, prints the evaluation, one [`report::Section`]
//! each for the headline claims, Tables 1–4 and Figures 2–5, from one
//! in-process run of the 16-benchmark × 5-node study (~20 s on 2 vCPUs);
//! `table1` and `table2` alone run none. The paper's values it compares
//! against are [`claims::PAPER_CLAIMS`].
//!
//! ```text
//! cargo run --release -p ramp-bench --bin report -- [--plot] [--csv DIR] [SECTION...]
//! ```
//!
//! The other binaries: `ablations` (design-choice ablations, DESIGN.md
//! §6), `sensitivity`, `calibrate` (refit the workload-profile knobs),
//! `trace`, `benchgate` (the exact digest gate over `BENCH_<seq>.json`,
//! see [`telemetry`]) and `fleet`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod claims;
pub mod plot;
pub mod report;
pub mod telemetry;

use ramp_core::{run_study, RampError, RunManifest, StudyConfig, StudyResults};
use std::path::PathBuf;

/// Initialises `ramp-obs` from the environment: a stderr sink gated by
/// `RAMP_LOG` (default `info`) plus a JSONL sink when `RAMP_EVENTS` names
/// a file. Every bench binary calls this first; repeated calls are no-ops.
pub fn init_obs() {
    ramp_obs::init_from_env();
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Writes the run manifest of a study that just ran to
/// `target/ramp-run-manifest.json`. A failure is logged, not fatal: the
/// manifest is diagnostics, never an input.
fn write_manifest(config: &StudyConfig, results: &StudyResults) {
    let path = target_dir().join("ramp-run-manifest.json");
    match RunManifest::capture(config, results).write_json(&path) {
        Ok(()) => ramp_obs::debug!("manifest written to {}", path.display()),
        Err(e) => ramp_obs::warn!("could not write manifest: {e}"),
    }
}

/// Runs the full-length study (16 benchmarks × 5 nodes, ~20 s on 2
/// vCPUs), logs its execution metrics, writes the run manifest and
/// flushes the trace and event sinks.
///
/// # Errors
///
/// Whatever [`run_study`] returns.
pub fn run_full_study() -> Result<StudyResults, RampError> {
    let config = StudyConfig::default();
    ramp_obs::info!(
        "running full study (16 benchmarks x 5 nodes, {} threads)...",
        config.threads
    );
    let results = run_study(&config)?;
    print_study_metrics(&results);
    write_manifest(&config, &results);
    // Make the study's spans durable: rewrites the RAMP_TRACE Chrome
    // trace file (when configured) and flushes buffered sinks.
    ramp_obs::flush();
    Ok(results)
}

/// Prints the study's execution metrics (per-stage wall clock, throughput,
/// timing-cache effectiveness) to stderr.
pub fn print_study_metrics(results: &StudyResults) {
    for line in results.metrics().report().lines() {
        ramp_obs::info!("{line}");
    }
}
