//! The repository's benchmark: four workloads of the RAMP reproduction,
//! measured end to end, and a traced mode that measures each layer from
//! outside.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Prints a report, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. Writes
//! `target/benchmark/<workload>.run.json`, and with `--trace 1` also
//! `<workload>.trace.json` (Chrome Trace Event format, opens in Perfetto)
//! and `<workload>.layers.json`. See README.md for the workloads and
//! metrics.

mod fleet;
mod host;
mod layers;
mod serve;
mod stats;
mod study;
mod tracer;
mod workload;

use serde::Value;
use std::path::Path;
use std::process::ExitCode;
use tracer::Tracer;
use workload::{Measured, Traced, THREADS};

/// The workloads, with why each was chosen.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "study_5node",
        "16 benchmarks x 5 nodes from a cold timing cache: nodes share timing work (16 of 80 lookups hit)",
    ),
    (
        "study_1node_long",
        "16 benchmarks at 180 nm, 4x longer traces: every timing key is distinct, per-instruction cost shows",
    ),
    (
        "fleet_population",
        "200k chips x 5 nodes of population Monte Carlo: the fleet sampler works, the timing engine does not",
    ),
    (
        "serve_mix",
        "closed-loop caller: 95% cached base queries (Zipf), 5% what-if queries that miss the result cache",
    ),
];

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("throughput_per_s", "items/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 24] = [
    ("microarch.timing_cache.misses", "count", "lower"),
    ("microarch.timing_cache.hit_rate", "ratio", "higher"),
    ("microarch.timing_phase_s", "s", "lower"),
    ("op.warm_phase_s", "s", "lower"),
    ("op.cpu_util", "ratio", "higher"),
    ("op.trace_coverage", "ratio", "higher"),
    ("trace.gen_minstr_per_s", "Minstr/s", "higher"),
    ("microarch.engine_minstr_per_s", "Minstr/s", "higher"),
    ("microarch.timing_minstr_per_s", "Minstr/s", "higher"),
    ("core.passes_us_per_interval", "us", "lower"),
    ("core.rate_observe_ns", "ns", "lower"),
    ("power.sample_ns", "ns", "lower"),
    ("thermal.step_ns", "ns", "lower"),
    ("thermal.steady_solve_us", "us", "lower"),
    ("fleet.sample_chip_ns", "ns", "lower"),
    ("fleet.record_ns", "ns", "lower"),
    ("fleet.merge_us", "us", "lower"),
    ("fleet.anchor_ms", "ms", "lower"),
    ("serve.hit_us", "us", "lower"),
    ("serve.whatif_ms", "ms", "lower"),
    ("obs.span_ns", "ns", "lower"),
    ("obs.counter_ns", "ns", "lower"),
    ("obs.alloc_ns", "ns", "lower"),
    ("host.canary_ms", "ms", "lower"),
];

/// Chips per node in each `fleet_population` operation.
const FLEET_CHIPS: u64 = 200_000;

/// Seeded request lines per serve caller: more than a timed run sends.
const SERVE_RUN_LINES: usize = 30_000;

/// Request lines per serve caller in each traced loop.
const SERVE_TRACE_LINES: usize = 1_500;

/// Traced decompositions must account for at least this share of the
/// untraced operation.
const MIN_COVERAGE: f64 = 0.9;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: "",
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    parsed.workload = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(parsed)
}

fn measure(args: &Args) -> Result<Measured, String> {
    match args.workload {
        "study_5node" => study::run(&study::StudySize::five_node(), args.seconds),
        "study_1node_long" => study::run(&study::StudySize::one_node_long(), args.seconds),
        "fleet_population" => fleet::run(FLEET_CHIPS, args.seed, args.seconds),
        _ => serve::run(&serve_size(SERVE_RUN_LINES), args.seed, args.seconds),
    }
}

fn trace(args: &Args, tracer: &Tracer) -> Result<Traced, String> {
    match args.workload {
        "study_5node" => study::trace(&study::StudySize::five_node(), tracer),
        "study_1node_long" => study::trace(&study::StudySize::one_node_long(), tracer),
        "fleet_population" => fleet::trace(FLEET_CHIPS, args.seed, tracer),
        _ => serve::trace(&serve_size(SERVE_TRACE_LINES), args.seed, tracer),
    }
}

fn serve_size(lines_per_caller: usize) -> serve::ServeSize {
    serve::ServeSize {
        benchmarks: Vec::new(),
        lines_per_caller,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .expect("every reported metric is declared")
}

/// The end-to-end metrics of an untraced run, with report lines.
fn end_to_end(m: &Measured, peak_rss_mb: f64) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let p50 = stats::median(&m.latencies_ms);
    let (tail, tail_label) = stats::tail(&m.latencies_ms);
    let n = m.latencies_ms.len();
    let metrics = vec![
        ("throughput_per_s", stats::median(&m.rates)),
        ("latency_p50_ms", p50),
        ("latency_tail_ms", tail),
        ("setup_s", stats::median(&m.setup_s)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let lines = vec![
        format!(
            "throughput_per_s  {:.6e} items/s (median of {} rates; {} {} in {:.3} s)",
            metrics[0].1,
            m.rates.len(),
            m.items,
            m.item,
            m.wall_s
        ),
        format!("latency_p50_ms    {p50:.6} ms (median of n = {n})"),
        format!("latency_tail_ms   {tail:.6} ms ({tail_label} of n = {n})"),
        format!(
            "setup_s           {:.6} s (median of {} set-ups)",
            metrics[3].1,
            m.setup_s.len()
        ),
        format!("peak_rss_mb       {peak_rss_mb:.1} MB (VmHWM)"),
    ];
    (metrics, lines)
}

/// The per-layer metrics of a traced run: the decomposition of the
/// workload's operation, then the kernels, then the canary.
fn per_layer(
    t: &Traced,
    kernels: Vec<(&'static str, f64)>,
    canary_ms: f64,
) -> Vec<(&'static str, f64)> {
    let mut metrics = vec![
        ("microarch.timing_cache.misses", t.timing_misses as f64),
        (
            "microarch.timing_cache.hit_rate",
            (t.timing_lookups - t.timing_misses) as f64 / t.timing_lookups.max(1) as f64,
        ),
        ("microarch.timing_phase_s", t.timing_phase_s),
        ("op.warm_phase_s", t.warm_phase_s),
        (
            "op.cpu_util",
            t.untraced_cpu_s / (t.untraced_s * THREADS as f64),
        ),
        ("op.trace_coverage", t.coverage()),
    ];
    metrics.extend(kernels);
    metrics.push(("host.canary_ms", canary_ms));
    metrics
}

fn metrics_value(metrics: &[(&'static str, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(unit_of(name).to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn pairs(items: &[(String, String)]) -> Value {
    Value::Object(
        items
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().cloned().map(Value::Str).collect())
}

fn write_json(dir: &Path, file: &str, value: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn execute(args: &Args) -> Result<(), String> {
    let cpus = host::cpus();
    let pinned = host::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("benchmark: could not pin to one CPU (taskset); timings will be noisier");
    }
    let canary_start = host::canary_ms();
    let tracer = Tracer::default();
    let mut report = Vec::new();
    let (metrics, checks, digests) = if args.trace {
        let mut t = trace(args, &tracer)?;
        let kernels = layers::measure(layers::KernelSize::FULL)?;
        let metrics = per_layer(&t, kernels, canary_start);
        let coverage = t.coverage();
        t.checks.check(coverage >= MIN_COVERAGE, || {
            format!("traced phases cover {coverage:.3} of the untraced operation")
        });
        report.push(format!(
            "untraced {:.3} s; traced: timing phase {:.3} s ({} lookups, {} misses) + warm phase {:.3} s",
            t.untraced_s, t.timing_phase_s, t.timing_lookups, t.timing_misses, t.warm_phase_s
        ));
        report.push(format!(
            "coverage {coverage:.3} (need >= {MIN_COVERAGE}); tracing overhead {:+.1}%",
            (coverage - 1.0) * 100.0
        ));
        for (name, value) in &metrics {
            report.push(format!("{name:<34} {value:>14.6} {}", unit_of(name)));
        }
        (metrics, t.checks, t.digests)
    } else {
        let m = measure(args)?;
        let peak = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let (metrics, lines) = end_to_end(&m, peak);
        report.extend(lines);
        report.extend(m.notes.iter().cloned());
        for (name, digest) in &m.digests {
            report.push(format!("{name}: {digest}"));
        }
        (metrics, m.checks, m.digests)
    };
    let canary_end = host::canary_ms();
    let drift = host::drift(canary_start, canary_end);

    let mode = if args.trace { "trace" } else { "run" };
    println!(
        "benchmark {} ({mode}), seed {}, {} s, {THREADS} load thread, {cpus} cpus, pinned to cpu {}",
        args.workload,
        args.seed,
        args.seconds,
        pinned.map_or("none".to_string(), |c| c.to_string())
    );
    for line in &report {
        println!("  {line}");
    }
    println!("  canary {canary_start:.3} ms -> {canary_end:.3} ms");
    if drift > host::DRIFT_LIMIT {
        eprintln!(
            "HOST DRIFT: canary moved {:.0}% during the run; compare its numbers with care",
            drift * 100.0
        );
    }
    println!(
        "  checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for failure in &checks.failures {
        eprintln!("  FAILED: {failure}");
    }

    let dir = Path::new("target/benchmark");
    let metrics_json = metrics_value(&metrics);
    let run = Value::Object(vec![
        (
            "workload".to_string(),
            Value::Str(args.workload.to_string()),
        ),
        ("mode".to_string(), Value::Str(mode.to_string())),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("metrics".to_string(), metrics_json.clone()),
        ("digests".to_string(), pairs(&digests)),
        ("report".to_string(), strings(&report)),
        ("attempted".to_string(), Value::UInt(checks.attempted)),
        ("failed".to_string(), Value::UInt(checks.failed)),
        ("failures".to_string(), strings(&checks.failures)),
        (
            "host".to_string(),
            Value::Object(vec![
                ("cpus".to_string(), Value::UInt(cpus as u64)),
                (
                    "pinned_cpu".to_string(),
                    pinned.map_or(Value::Null, |c| Value::UInt(c as u64)),
                ),
                (
                    "git_rev".to_string(),
                    host::git_rev().map_or(Value::Null, Value::Str),
                ),
                ("threads".to_string(), Value::UInt(THREADS as u64)),
                ("canary_start_ms".to_string(), Value::Float(canary_start)),
                ("canary_end_ms".to_string(), Value::Float(canary_end)),
            ]),
        ),
    ]);
    write_json(dir, &format!("{}.run.json", args.workload), &run)?;
    if args.trace {
        write_json(
            dir,
            &format!("{}.trace.json", args.workload),
            &tracer.chrome_trace(),
        )?;
        let layers = Value::Object(vec![
            (
                "workload".to_string(),
                Value::Str(args.workload.to_string()),
            ),
            ("seed".to_string(), Value::UInt(args.seed)),
            ("metrics".to_string(), metrics_json.clone()),
        ]);
        write_json(dir, &format!("{}.layers.json", args.workload), &layers)?;
    }

    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(checks.failed == 0)),
        ("attempted".to_string(), Value::UInt(checks.attempted)),
        ("failed".to_string(), Value::UInt(checks.failed)),
        ("metrics".to_string(), metrics_json),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_core::NodeId;
    use std::sync::{Mutex, PoisonError};

    /// The workloads share the process-wide timing cache, which they
    /// clear and count: run them one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(value: &Value, key: &str) -> Vec<(String, String, String)> {
        let field = |v: &Value, k: &str| v.field(k).and_then(Value::str).unwrap_or("").to_string();
        value
            .field(key)
            .and_then(Value::elements)
            .expect("BENCHMARK.json lists the metric kind")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn names_are_valid_and_match_benchmark_json() {
        let names = WORKLOADS.iter().map(|(n, _)| *n).chain(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .map(|(n, _, _)| *n),
        );
        for name in names {
            assert!(valid_name(name), "{name}");
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<(String, String)> = json
            .field("workloads")
            .and_then(Value::elements)
            .expect("workloads listed")
            .iter()
            .map(|w| {
                let get = |k| w.field(k).and_then(Value::str).unwrap_or("").to_string();
                (get("name"), get("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let args = parse("--workload serve_mix --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (args.workload, args.seed, args.trace),
            ("serve_mix", 7, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_mix --trace 2").is_err());
        assert!(parse("--workload serve_mix --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
    }

    fn emitted(metrics: &[(&'static str, f64)]) -> Vec<&'static str> {
        metrics.iter().map(|(n, _)| *n).collect()
    }

    fn names(table: &[(&'static str, &str, &str)]) -> Vec<&'static str> {
        table.iter().map(|(n, _, _)| *n).collect()
    }

    fn assert_clean(checks: &workload::Checks) {
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        assert!(checks.attempted > 0);
    }

    /// Every workload at toy size through the same code paths as a run:
    /// the checks pass, the reports carry every declared metric, and the
    /// traced study decomposition covers the untraced study.
    #[test]
    fn workloads_pass_their_checks_at_toy_size() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let study = study::StudySize {
            benchmarks: vec!["gzip", "ammp"],
            nodes: NodeId::ALL.to_vec(),
            instructions: 200_000,
        };
        let serve = serve::ServeSize {
            benchmarks: vec!["gzip", "ammp"],
            lines_per_caller: 500,
        };
        let runs = [
            study::run(&study, 0.0),
            fleet::run(2_000, 7, 0.0),
            serve::run(&serve, 7, 60.0),
        ];
        for m in runs {
            let m = m.expect("workload runs");
            assert_clean(&m.checks);
            assert!(m.items > 0 && m.wall_s > 0.0);
            let (metrics, _) = end_to_end(&m, 1.0);
            assert_eq!(emitted(&metrics), names(&END_TO_END));
            assert!(metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
        }

        let tracer = Tracer::default();
        let t = study::trace(&study, &tracer).expect("traced study runs");
        assert_clean(&t.checks);
        assert_eq!((t.timing_lookups, t.timing_misses), (10, 8));
        assert!(t.coverage() >= MIN_COVERAGE, "coverage {}", t.coverage());
        assert!(tracer.spans().iter().any(|s| s.name == "warm_phase"));
        for warm in [
            fleet::trace(2_000, 7, &tracer).expect("traced fleet runs"),
            serve::trace(&serve, 7, &tracer).expect("traced serve runs"),
        ] {
            assert_clean(&warm.checks);
            assert_eq!(warm.timing_misses, 0, "set-up warmed the timing cache");
        }

        let toy = layers::KernelSize {
            records: 20_000,
            calls: 1_000,
        };
        let kernels = layers::measure(toy).expect("kernels run");
        let metrics = per_layer(&t, kernels, 1.0);
        assert_eq!(emitted(&metrics), names(&PER_LAYER));
        assert!(metrics.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
    }
}
