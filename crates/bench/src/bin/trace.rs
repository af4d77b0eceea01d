//! Causal-trace driver: runs a traced study, exports the Chrome Trace
//! Event JSON (loadable in Perfetto / `chrome://tracing`), and prints the
//! critical-path attribution report.
//!
//! Flags:
//!
//! * `--out <path>` — trace JSON destination (default: `RAMP_TRACE` when
//!   set, else `target/ramp-trace.json`)
//! * `--top <n>` — attribution rows to print (default 12)
//! * `--capacity <n>` — span-ring capacity (default:
//!   `RAMP_TRACE_CAPACITY` or 65 536)
//! * `--full` — run the full 16 × 5 study instead of the quick subset
//! * `--check` — validate the exported trace (well-formed complete and
//!   counter events, monotone timestamps, cache-outcome args, ≥ 90 %
//!   critical-path coverage, ≥ 90 % of allocated bytes attributed to
//!   spans) and the JSONL event stream against the manifest (every line
//!   parses, one `span_end` per run for each pipeline stage, a `study`
//!   root, stage tree within 10 % of wall-clock); non-zero exit on any
//!   failure
//!
//! The study runs with the tracking allocator on, so the attribution
//! report carries self-alloc columns, the trace JSON carries a
//! `memory.live_bytes` counter track, and the run manifest (written next
//! to the trace as `<out>-manifest.json`) carries the per-stage
//! allocation tree. Events go to `RAMP_EVENTS` when set, else next to the
//! trace as `<out>-events.jsonl`.
//!
//! The exit code is 0 on success and 1 when `--check` finds a violation,
//! so CI can gate on it directly.

use ramp_core::{run_study, RunManifest, StudyConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn main() -> ExitCode {
    ramp_bench::init_obs();
    let out = flag_value("--out")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os(ramp_obs::TRACE_ENV).map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target/ramp-trace.json"));
    let capacity = flag_value("--capacity")
        .and_then(|v| v.parse::<usize>().ok())
        .or_else(|| {
            std::env::var(ramp_obs::TRACE_CAPACITY_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .filter(|&n| n >= 1)
        .unwrap_or(ramp_obs::DEFAULT_RING_CAPACITY);
    let top = flag_value("--top").and_then(|v| v.parse().ok()).unwrap_or(12);
    ramp_obs::install_trace(Some(&out), capacity);
    // Always write an event stream: `--check` validates it against the
    // manifest.
    if ramp_obs::event_file_path().is_none() {
        let filter = ramp_obs::Filter::from_env()
            .with_default_at_least(ramp_obs::Level::Debug);
        ramp_obs::install_jsonl(&sibling(&out, "events.jsonl"), filter)
            .expect("create JSONL event file");
    }
    ramp_obs::reset_spans();

    let config = if has_flag("--full") {
        StudyConfig::default()
    } else {
        // The quick config walks the same stages over every node with a
        // reduced instruction budget: enough spans for a representative
        // critical path in a few seconds.
        StudyConfig::quick()
    };
    ramp_obs::info!(
        "tracing study ({} benchmarks x {} nodes) into {} (ring capacity {capacity})",
        config.benchmarks.len(),
        config.nodes.len(),
        out.display()
    );
    // Track every heap allocation of the traced study so spans carry
    // self-alloc attribution and the export gets live-byte samples.
    let alloc_before = ramp_obs::alloc_stats();
    ramp_obs::set_alloc_tracking(true);
    let results = run_study(&config).expect("traced study should run");

    // The manifest rides along as a CI artifact: its stage tree carries
    // the per-stage allocation attribution of this run, and its global
    // ledger section only exists while tracking is still on — capture
    // before the toggle flips back.
    let manifest = RunManifest::capture(&config, &results);

    ramp_obs::set_alloc_tracking(false);
    let alloc_after = ramp_obs::alloc_stats();
    let alloc_delta = alloc_after.delta_since(&alloc_before);
    ramp_bench::print_study_metrics(&results);
    ramp_obs::flush();

    let spans = ramp_obs::ring_snapshot();
    let stats = ramp_obs::ring_stats();
    let report = ramp_obs::critical_path_report(&spans, top);

    let manifest_path = sibling(&out, "manifest.json");
    if let Err(e) = manifest.write_json(&manifest_path) {
        eprintln!("trace: manifest write failed: {e}");
    }

    println!("--- trace ---");
    println!(
        "ring: {} spans recorded, {} dropped (capacity {})",
        stats.recorded, stats.dropped, stats.capacity
    );
    println!("trace file: {}", out.display());
    println!("manifest: {}", manifest_path.display());
    println!();
    println!("--- allocations ---");
    println!(
        "study allocated {} blocks / {:.1} MiB, peak live {:.1} MiB",
        alloc_delta.allocs,
        alloc_delta.alloc_bytes as f64 / (1024.0 * 1024.0),
        alloc_after.peak_live_bytes as f64 / (1024.0 * 1024.0),
    );
    println!(
        "span-attributed: {} blocks / {:.1} MiB ({:.1}% of allocated bytes)",
        report.attributed_alloc_count,
        report.attributed_alloc_bytes as f64 / (1024.0 * 1024.0),
        alloc_share(&report, alloc_delta.alloc_bytes) * 100.0,
    );
    println!();
    println!("--- critical path (self time) ---");
    println!(
        "root wall-clock {:.2} ms, coverage {:.1}%",
        report.total_ns as f64 / 1e6,
        report.coverage * 100.0
    );
    print!("{}", report.attribution_table());
    println!();
    println!("--- flamegraph (self time by span path) ---");
    print!("{}", report.flame);

    if has_flag("--check") {
        return check(&out, &manifest, &report, &spans, alloc_delta.alloc_bytes);
    }
    ExitCode::SUCCESS
}

/// `target/ramp-trace.json` + `manifest.json` →
/// `target/ramp-trace-manifest.json`.
fn sibling(out: &std::path::Path, suffix: &str) -> PathBuf {
    let stem = out
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("ramp-trace");
    out.with_file_name(format!("{stem}-{suffix}"))
}

/// Fraction of the study's allocated bytes the report attributed to
/// spans (1.0 when nothing was allocated).
fn alloc_share(report: &ramp_obs::CriticalPathReport, allocated: u64) -> f64 {
    if allocated == 0 {
        return 1.0;
    }
    report.attributed_alloc_bytes as f64 / allocated as f64
}

/// Validates the exported trace end to end; prints one line per check.
fn check(
    out: &std::path::Path,
    manifest: &RunManifest,
    report: &ramp_obs::CriticalPathReport,
    spans: &[ramp_obs::CompletedSpan],
    allocated_bytes: u64,
) -> ExitCode {
    let mut failures = 0u32;
    let mut assert_that = |ok: bool, what: &str| {
        println!("check: {} {}", if ok { "PASS" } else { "FAIL" }, what);
        if !ok {
            failures += 1;
        }
    };

    let json = match std::fs::read_to_string(out) {
        Ok(json) => json,
        Err(e) => {
            println!("check: FAIL trace file {} unreadable: {e}", out.display());
            return ExitCode::FAILURE;
        }
    };
    match serde_json::from_str::<serde::Value>(&json) {
        Ok(doc) => {
            let events = doc
                .field("traceEvents")
                .and_then(serde::Value::elements)
                .map(<[serde::Value]>::to_vec)
                .unwrap_or_default();
            assert_that(!events.is_empty(), "trace file has events");
            let mut complete = true;
            let mut monotone = true;
            let mut counters = 0u64;
            let mut last_ts = 0u64;
            for event in &events {
                let ph = event.field("ph").and_then(serde::Value::str).unwrap_or("");
                let ts = match event.field("ts") {
                    Ok(&serde::Value::UInt(ts)) => ts,
                    _ => {
                        complete = false;
                        continue;
                    }
                };
                complete &= match ph {
                    // Complete (duration) events: one per span.
                    "X" => {
                        event.field("dur").is_ok()
                            && event.field("name").is_ok()
                            && event.field("pid").is_ok()
                            && event.field("tid").is_ok()
                    }
                    // Counter events: the memory track's samples.
                    "C" => {
                        counters += 1;
                        event.field("name").and_then(serde::Value::str).unwrap_or("")
                            == "memory.live_bytes"
                            && event.field("pid").is_ok()
                            && event
                                .field("args")
                                .and_then(|a| a.field("live_bytes"))
                                .is_ok()
                    }
                    _ => false,
                };
                monotone &= ts >= last_ts;
                last_ts = ts;
            }
            assert_that(complete, "every event is a complete (ph=X) or counter (ph=C) event");
            assert_that(monotone, "event timestamps are monotone");
            assert_that(counters > 0, "memory counter track has samples");
        }
        Err(e) => assert_that(false, &format!("trace file parses as JSON ({e})")),
    }
    assert_that(
        spans
            .iter()
            .any(|s| ramp_obs::arg_value(&s.args, "cache").is_some()),
        "timing spans carry cache-outcome args",
    );
    assert_that(
        report.coverage >= 0.90,
        &format!(
            "critical path attributes >=90% of study wall-clock (got {:.1}%)",
            report.coverage * 100.0
        ),
    );
    let share = alloc_share(report, allocated_bytes);
    assert_that(
        share >= 0.90,
        &format!(
            "spans attribute >=90% of allocated bytes (got {:.1}% of {:.1} MiB)",
            share * 100.0,
            allocated_bytes as f64 / (1024.0 * 1024.0)
        ),
    );
    match validate_events(manifest) {
        Ok(summary) => assert_that(true, &summary),
        Err(err) => assert_that(false, &err),
    }
    if failures == 0 {
        println!("check: all trace checks passed");
        ExitCode::SUCCESS
    } else {
        println!("check: {failures} trace check(s) FAILED");
        ExitCode::FAILURE
    }
}

/// The manifest must reference a real, well-formed JSONL event file whose
/// span coverage matches the runs that executed, and the manifest's stage
/// tree must account for the study wall-clock.
fn validate_events(manifest: &RunManifest) -> Result<String, String> {
    let path = manifest
        .event_file
        .as_ref()
        .ok_or("manifest has no event_file")?;
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read event file {path}: {e}"))?;

    let mut lines = 0u64;
    for (i, line) in raw.lines().enumerate() {
        serde_json::from_str::<serde::Value>(line)
            .map_err(|e| format!("line {} is not valid JSON: {e}: {line}", i + 1))?;
        lines += 1;
    }
    if lines == 0 {
        return Err("event file is empty".into());
    }

    // One span per pipeline stage per (app, node) run. The encoder is ours,
    // so exact substring matching on the key fields is reliable.
    let span_ends = |name: &str| -> u64 {
        let needle = format!("\"name\":\"{name}\"");
        raw.lines()
            .filter(|l| l.contains("\"type\":\"span_end\"") && l.contains(&needle))
            .count() as u64
    };
    for stage in ["run", "timing", "first_pass", "second_pass"] {
        let got = span_ends(stage);
        if got < manifest.runs {
            return Err(format!(
                "only {got} span_end events for stage {stage:?}, expected >= {} (one per run)",
                manifest.runs
            ));
        }
    }
    if span_ends("study") < 1 {
        return Err("no span_end event for the study root".into());
    }

    // The aggregated stage tree must account for the study wall-clock.
    let study_seconds = manifest.stage_seconds("study");
    let wall = manifest.wall_seconds;
    if wall <= 0.0 {
        return Err("manifest wall_seconds is not positive".into());
    }
    let rel_err = (study_seconds - wall).abs() / wall;
    if rel_err > 0.10 {
        return Err(format!(
            "stage tree root ({study_seconds:.3}s) disagrees with wall-clock ({wall:.3}s) \
             by {:.1}% (> 10%)",
            rel_err * 100.0
        ));
    }

    Ok(format!(
        "validated {lines} JSONL lines; {} runs with full stage coverage; \
         stage tree within {:.1}% of {wall:.2}s wall",
        manifest.runs,
        rel_err * 100.0
    ))
}
