//! Bit-reproducibility of the entire stack: identical inputs must give
//! identical outputs across runs, threads, observability settings and
//! crate boundaries.
//!
//! The core is one matrix: worker threads {1, 2, 8} × observability
//! {off, log, alloc, trace} × product {study results JSON, fleet
//! population JSON, serve response bytes}. Every cell must reproduce its
//! product's off, 1-thread bytes: `RAMP_THREADS` and every observability
//! switch are pure performance and diagnostics knobs, never inputs.
//!
//! Observability state (sinks, the allocation-tracking flag, the span
//! ring, the `serve.*` counters) is process-global, so every test that
//! touches it or runs a study or fleet serializes on [`obs_lock`]. The
//! span ring is first-call-wins and cannot be uninstalled, so the whole
//! matrix runs once, in row order with the trace cells last, and each
//! test named after a row and product asserts its cells of that run.

use ramp_core::mechanisms::{MechanismSet, PerMechanism};
use ramp_core::{
    run_app_on_node, run_study, NodeId, PipelineConfig, Qualification, QueryEngine, RunManifest,
    StudyConfig, TechNode,
};
use ramp_fleet::{run_fleet, FleetConfig};
use ramp_microarch::{simulate, MachineConfig, SimulationLength};
use ramp_serve::protocol::encode_ok;
use ramp_serve::{CacheConfig, Request, Response, ServeOptions, Server};
use ramp_trace::{spec, TraceGenerator, TraceStats};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

#[test]
fn trace_generation_is_bit_reproducible() {
    for profile in spec::all_profiles() {
        let a: Vec<_> = TraceGenerator::new(&profile).take(10_000).collect();
        let b: Vec<_> = TraceGenerator::new(&profile).take(10_000).collect();
        assert_eq!(a, b, "{}", profile.name);
    }
}

#[test]
fn timing_simulation_is_deterministic() {
    let cfg = MachineConfig::power4_180nm();
    let p = spec::profile("mesa").unwrap();
    let run = || {
        simulate(
            &cfg,
            TraceGenerator::new(&p),
            SimulationLength::Instructions(100_000),
            1_100,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.activity, b.activity);
}

#[test]
fn pipeline_is_deterministic_across_nodes() {
    let models = MechanismSet::default();
    let p = spec::profile("sixtrack").unwrap();
    for id in [NodeId::N180, NodeId::N65HighV] {
        let run = |reference| {
            run_app_on_node(
                &p,
                &TechNode::get(id),
                &PipelineConfig::quick(),
                &models,
                reference,
            )
            .unwrap()
        };
        let reference = if id == NodeId::N180 {
            None
        } else {
            Some(ramp_units::Watts::new(29.0).unwrap())
        };
        let a = run(reference);
        let b = run(reference);
        assert_eq!(a.rates, b.rates, "{id}");
        assert_eq!(a.avg_dynamic, b.avg_dynamic, "{id}");
        assert_eq!(a.sink_temperature, b.sink_temperature, "{id}");
    }
}

#[test]
fn study_is_deterministic_regardless_of_thread_count() {
    let _guard = obs_lock();
    let mk = |threads| {
        let mut cfg = StudyConfig::quick().with_benchmarks(&["gzip", "vpr"]).unwrap();
        cfg.threads = threads;
        run_study(&cfg).unwrap()
    };
    let serial = mk(1);
    let parallel = mk(8);
    assert_eq!(serial.app_results().len(), parallel.app_results().len());
    for (a, b) in serial.app_results().iter().zip(parallel.app_results()) {
        assert_eq!(a.app, b.app);
        assert_eq!(a.node, b.node);
        assert_eq!(
            a.fit.total().value(),
            b.fit.total().value(),
            "{} @ {}",
            a.app,
            a.node
        );
    }
}

#[test]
fn sampled_traces_stay_representative() {
    // End-to-end version of the paper's trace-validation methodology.
    use ramp_trace::{validate_sample, SamplingPlan};
    for name in ["gcc", "applu"] {
        let p = spec::profile(name).unwrap();
        let full = TraceStats::from_records(TraceGenerator::new(&p).take(400_000));
        let plan = SamplingPlan::new(5_000, 50_000).unwrap();
        let sampled =
            TraceStats::from_records(plan.sample(TraceGenerator::new(&p).take(400_000)));
        let v = validate_sample(&full, &sampled, 0.02);
        assert!(v.representative, "{name}: {v:?}");
    }
}

// ---------------------------------------------------------------------
// The threads × observability × product matrix.
// ---------------------------------------------------------------------

/// Serializes every test that touches process-global observability state
/// or the `serve.executions` counter, so per-test counter deltas, the
/// tracking flag and the sink set are attributable to one test.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Worker-thread counts of every matrix row.
const THREADS: [usize; 3] = [1, 2, 8];

/// Benchmarks of the study product: two per suite.
const STUDY_BENCHMARKS: [&str; 4] = ["gzip", "vpr", "ammp", "apsi"];

/// Small on purpose: a quick study records more spans than this, so the
/// bounded-memory path (overwrite + drop counter) is exercised for real.
const RING_CAPACITY: usize = 2048;

/// Observability rows, in the order the matrix runs them. Trace is last:
/// the span ring is permanent once installed.
#[derive(Debug, Clone, Copy)]
enum Obs {
    Off,
    Log,
    Alloc,
    Trace,
}

/// Products of one cell, indexing [`PRODUCTS`] and [`Matrix::reference`].
const STUDY: usize = 0;
const FLEET: usize = 1;
const SERVE: usize = 2;

const PRODUCTS: [&str; 3] = ["study JSON", "fleet population JSON", "serve response"];

/// Turns allocation tracking on for its lifetime, off again on drop (also
/// when an assertion unwinds).
struct AllocTracking;

impl AllocTracking {
    fn on() -> Self {
        ramp_obs::set_alloc_tracking(true);
        AllocTracking
    }
}

impl Drop for AllocTracking {
    fn drop(&mut self) {
        ramp_obs::set_alloc_tracking(false);
    }
}

fn study_json(threads: usize, benchmarks: &[&str], quick: bool) -> String {
    let base = if quick {
        StudyConfig::quick()
    } else {
        StudyConfig::default()
    };
    let mut cfg = base.with_benchmarks(benchmarks).unwrap();
    cfg.threads = threads;
    let results = run_study(&cfg).unwrap();
    assert_eq!(
        results.metrics().threads,
        threads,
        "metrics must record the thread count actually used"
    );
    serde_json::to_string(&results).unwrap()
}

/// Calibrated once per test binary (quick config, one benchmark); clones
/// are a few pointer copies.
fn serve_engine() -> QueryEngine {
    static ENGINE: OnceLock<QueryEngine> = OnceLock::new();
    ENGINE
        .get_or_init(|| {
            let config = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
            QueryEngine::calibrate(&config).unwrap()
        })
        .clone()
}

fn fleet_engine() -> QueryEngine {
    QueryEngine::with_qualification(
        Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap(),
        PipelineConfig::quick(),
        "fleet-determinism-tests",
    )
}

fn base_fleet_config() -> FleetConfig {
    FleetConfig {
        benchmark: "gzip".to_string(),
        nodes: vec![NodeId::N180, NodeId::N90, NodeId::N65HighV],
        chips: 5_000,
        seed: 20_260_808,
        chunk: 512,
        threads: Some(2),
        ..FleetConfig::default()
    }
}

fn serve_options(threads: usize) -> ServeOptions {
    ServeOptions {
        threads,
        ..ServeOptions::default()
    }
}

/// The three products of one matrix cell, in [`PRODUCTS`] order. Each
/// serve cell starts a fresh server, so its answer is a real execution,
/// not a cache replay.
fn products(threads: usize, fleet: &QueryEngine) -> [String; 3] {
    let study = study_json(threads, &STUDY_BENCHMARKS, true);
    let config = FleetConfig {
        threads: Some(threads),
        ..base_fleet_config()
    };
    let population = run_fleet(fleet, &config).unwrap().population_json();
    let server = Server::start(serve_engine(), serve_options(threads));
    let line = Request::query(11, "gzip", "90nm").to_line();
    let response = server.handle_line(&line);
    [study, population, response]
}

/// In-memory sink accepting everything at trace level: exercises the full
/// event pipeline (span dispatch, message formatting) without touching
/// stderr or disk.
#[derive(Debug, Default)]
struct CollectingSink {
    events: Mutex<Vec<String>>,
}

impl ramp_obs::Sink for CollectingSink {
    fn enabled(&self, _level: ramp_obs::Level, _target: &str) -> bool {
        true
    }
    fn max_level(&self) -> Option<ramp_obs::Level> {
        Some(ramp_obs::Level::Trace)
    }
    fn on_event(&self, event: &ramp_obs::Event<'_>) {
        self.events
            .lock()
            .unwrap()
            .push(format!("{:?}:{}", event.kind, event.path));
    }
}

fn trace_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "ramp-trace-determinism-{}.json",
        std::process::id()
    ))
}

/// Enables tracing exactly the way the binaries do: through the
/// `RAMP_TRACE` / `RAMP_TRACE_CAPACITY` environment and `init_from_env`.
fn init_tracing() {
    std::env::set_var(ramp_obs::TRACE_ENV, trace_path());
    std::env::set_var(ramp_obs::TRACE_CAPACITY_ENV, RING_CAPACITY.to_string());
    ramp_obs::init_from_env();
    assert!(
        ramp_obs::tracing_enabled(),
        "RAMP_TRACE in the environment must enable span recording"
    );
}

/// One run of every matrix cell, plus what the log and trace rows saw of
/// the observability machinery itself.
struct Matrix {
    /// The off, 1-thread products every cell must reproduce.
    reference: [String; 3],
    /// `cells[row as usize][i]` holds the products at `THREADS[i]` threads.
    cells: [[[String; 3]; 3]; 4],
    /// The log row's collecting sink saw a timing span end.
    sink_saw_timing: bool,
    /// The log row's JSONL file held a span end.
    jsonl_had_span_end: bool,
    /// Spans recorded by the end of the trace row.
    trace_recorded: u64,
    /// Distinct trace ids of the `study` root spans after the trace row.
    study_traces: BTreeSet<u64>,
}

/// Runs the whole matrix once per test binary, row by row in [`Obs`]
/// order, and hands every test the same result. The tests named after a
/// row and product assert their cells; together they cover all 36.
fn matrix() -> &'static Matrix {
    static MATRIX: OnceLock<Matrix> = OnceLock::new();
    MATRIX.get_or_init(run_matrix)
}

fn run_matrix() -> Matrix {
    let _guard = obs_lock();
    let fleet = fleet_engine();
    let row = || THREADS.map(|threads| products(threads, &fleet));

    // Off: no sinks at all.
    ramp_obs::reset_sinks();
    let reference = products(1, &fleet);
    let off = row();

    // Log: the maximum sink configuration, a trace-level in-memory sink
    // plus a trace-level JSONL sink.
    let sink = Arc::new(CollectingSink::default());
    ramp_obs::add_sink(sink.clone());
    let jsonl_path = std::env::temp_dir().join(format!(
        "ramp-determinism-events-{}.jsonl",
        std::process::id()
    ));
    ramp_obs::install_jsonl(&jsonl_path, ramp_obs::Filter::at(ramp_obs::Level::Trace))
        .expect("create temp JSONL sink");
    let log = row();
    ramp_obs::flush();
    let sink_saw_timing = sink
        .events
        .lock()
        .unwrap()
        .iter()
        .any(|e| e.starts_with("SpanEnd") && e.ends_with("/timing"));
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("read JSONL");
    let jsonl_had_span_end = jsonl.lines().any(|l| l.contains("\"type\":\"span_end\""));
    ramp_obs::reset_sinks();
    let _ = std::fs::remove_file(&jsonl_path);

    // Alloc: the tracking allocator counts every heap operation.
    let alloc = {
        let _tracking = AllocTracking::on();
        row()
    };

    // Trace: installed last, because the span ring is permanent.
    init_tracing();
    let trace = row();
    let study_traces = ramp_obs::ring_snapshot()
        .iter()
        .filter(|s| s.name == "study")
        .map(|s| s.trace)
        .collect();

    Matrix {
        reference,
        cells: [off, log, alloc, trace],
        sink_saw_timing,
        jsonl_had_span_end,
        trace_recorded: ramp_obs::ring_stats().recorded,
        study_traces,
    }
}

/// Asserts the three thread counts of one row for one product against
/// the off, 1-thread reference.
fn assert_cells(obs: Obs, product: usize) {
    let m = matrix();
    let want = &m.reference[product];
    for (threads, cell) in THREADS.iter().zip(&m.cells[obs as usize]) {
        let got = &cell[product];
        assert!(
            got == want,
            "{} diverged from the off, 1-thread reference at {threads} threads \
             with observability {obs:?} (lengths {} vs {})",
            PRODUCTS[product],
            got.len(),
            want.len()
        );
    }
}

#[test]
fn quick_study_json_is_byte_identical_across_thread_counts() {
    assert_cells(Obs::Off, STUDY);
}

#[test]
fn population_json_is_byte_identical_across_thread_counts() {
    assert!(!matrix().reference[FLEET].is_empty());
    assert_cells(Obs::Off, FLEET);
}

/// The serve column of every row: the reference is checked against a
/// direct engine run, and each cell against the reference.
#[test]
fn responses_match_a_direct_engine_run_at_any_thread_count() {
    let response = &matrix().reference[SERVE];
    // The ground truth: a direct ramp_core evaluation, enveloped exactly
    // as the server envelopes it.
    let engine = serve_engine();
    let outcome = engine
        .evaluate(&engine.query("gzip", NodeId::N90).unwrap())
        .unwrap();
    let expected = encode_ok(11, &serde_json::to_string(&outcome).unwrap());
    assert!(
        response == &expected,
        "served response diverged from the direct run (lengths {} vs {})",
        response.len(),
        expected.len()
    );
    for obs in [Obs::Off, Obs::Log, Obs::Alloc, Obs::Trace] {
        assert_cells(obs, SERVE);
    }
}

#[test]
fn execution_metrics_stay_out_of_the_serialized_form() {
    let json = &matrix().reference[STUDY];
    for leak in ["wall_seconds", "cache_hits", "structure_updates"] {
        assert!(
            !json.contains(leak),
            "thread-dependent metric field {leak:?} leaked into the JSON"
        );
    }
}

/// The log row's study and fleet cells, and proof that the sinks really
/// observed the runs.
#[test]
fn study_json_is_byte_identical_with_logging_enabled() {
    let m = matrix();
    assert!(m.sink_saw_timing, "collecting sink saw no timing span ends");
    assert!(m.jsonl_had_span_end, "JSONL sink captured no span ends");
    assert_cells(Obs::Log, STUDY);
    assert_cells(Obs::Log, FLEET);
}

#[test]
fn study_json_is_byte_identical_with_tracking_on_at_any_thread_count() {
    assert_cells(Obs::Alloc, STUDY);
}

#[test]
fn fleet_population_json_is_byte_identical_with_tracking_on() {
    assert_cells(Obs::Alloc, FLEET);
}

#[test]
fn study_json_is_byte_identical_with_tracing_on() {
    let m = matrix();
    assert_cells(Obs::Trace, STUDY);
    assert!(
        m.trace_recorded > 0,
        "the traced studies must actually have recorded spans"
    );
    // The study root trace id is derived from the config digest, which
    // deliberately ignores the thread count: every run above belongs to
    // the *same* deterministic trace.
    assert_eq!(
        m.study_traces.len(),
        1,
        "identical configs must map to one deterministic trace id, got {:?}",
        m.study_traces
    );
}

#[test]
fn population_json_is_byte_identical_with_tracing_on() {
    assert_cells(Obs::Trace, FLEET);
}

/// Needs the ring the trace row installed.
#[test]
fn span_ring_is_bounded_and_counts_drops() {
    matrix();
    let _guard = obs_lock();
    let before = ramp_obs::ring_stats();
    assert_eq!(before.capacity, RING_CAPACITY as u64);
    let _trace = ramp_obs::adopt_trace(Some(ramp_obs::trace_root("ring-bound-test")));
    let pushes = (RING_CAPACITY * 3) as u64;
    for _ in 0..pushes {
        ramp_obs::span!("ring_filler").finish();
    }
    let after = ramp_obs::ring_stats();
    assert!(
        after.recorded >= before.recorded + pushes,
        "every finished span must count as recorded"
    );
    assert_eq!(
        after.dropped,
        after.recorded.saturating_sub(after.capacity),
        "drops are exactly the overwritten overflow"
    );
    assert!(
        ramp_obs::ring_snapshot().len() <= RING_CAPACITY,
        "snapshot can never exceed the installed capacity"
    );
}

/// Needs the `RAMP_TRACE` file the trace row configured.
#[test]
fn exported_trace_file_is_valid_chrome_trace_json() {
    matrix();
    let _guard = obs_lock();
    {
        let _trace = ramp_obs::adopt_trace(Some(ramp_obs::trace_root("export-check")));
        ramp_obs::span!("export_probe").finish();
    }
    ramp_obs::flush();
    let json = std::fs::read_to_string(trace_path()).expect("RAMP_TRACE file written on flush");
    let doc: serde::Value = serde_json::from_str(&json).expect("trace file parses as JSON");
    let events = doc
        .field("traceEvents")
        .and_then(serde::Value::elements)
        .map(<[serde::Value]>::to_vec)
        .unwrap_or_default();
    assert!(!events.is_empty(), "flushed trace must contain events");
    for event in &events {
        assert_eq!(
            event.field("ph").and_then(serde::Value::str).unwrap_or(""),
            "X",
            "every exported span is a complete event"
        );
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(
                event.field(key).is_ok(),
                "complete events carry {key:?}: {event:?}"
            );
        }
    }
}

#[test]
#[ignore = "runs the production-length study three times (several minutes)"]
fn full_study_json_is_byte_identical_across_thread_counts() {
    let _guard = obs_lock();
    let benchmarks = ramp_trace::spec::all_profiles();
    let names: Vec<&str> = benchmarks.iter().map(|p| p.name.as_str()).collect();
    let serial = study_json(1, &names, false);
    for threads in [2, 8] {
        assert!(
            serial == study_json(threads, &names, false),
            "full study diverged at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------
// Checks beyond the matrix cells.
// ---------------------------------------------------------------------

#[test]
fn manifest_carries_the_allocation_tree_when_tracking_is_on() {
    let mut config = StudyConfig::quick()
        .with_benchmarks(&["gzip", "ammp"])
        .unwrap();
    config.threads = 1;

    let _guard = obs_lock();
    let tracking = AllocTracking::on();
    ramp_obs::reset_spans();
    let results = run_study(&config).unwrap();
    let manifest = RunManifest::capture(&config, &results);
    drop(tracking);

    let alloc = manifest.alloc.as_ref().expect("alloc section captured");
    assert!(alloc.allocs > 0, "ledger saw no allocations");
    assert!(alloc.alloc_bytes > 0);
    assert!(alloc.peak_live_bytes > 0);

    // The stage tree attributes real allocations to the study span.
    let study = manifest
        .stages
        .iter()
        .find(|s| s.path == "study")
        .expect("study stage present");
    assert!(
        study.alloc_count > 0,
        "study stage attributed no allocations"
    );
    assert!(study.alloc_bytes > 0);

    // And the summary mentions the allocation line.
    assert!(
        manifest.summary().contains("alloc:"),
        "summary omits the alloc line:\n{}",
        manifest.summary()
    );
}

#[test]
fn population_json_is_chunking_invariant() {
    let _guard = obs_lock();
    let engine = fleet_engine();
    let reference_json = run_fleet(&engine, &base_fleet_config()).unwrap().population_json();
    // One chip per task, coarse chunks, and "unchunked" (a single chunk
    // spanning the whole population) must all merge to the same bytes.
    for chunk in [1, 1_000, 5_000, u64::MAX] {
        let config = FleetConfig {
            chunk,
            ..base_fleet_config()
        };
        let run = run_fleet(&engine, &config).unwrap();
        assert!(
            run.population_json() == reference_json,
            "population diverged at chunk size {chunk} (digest {})",
            run.population_digest(),
        );
    }
}

#[test]
fn reruns_on_a_fresh_engine_reproduce_the_digest() {
    let _guard = obs_lock();
    let first = run_fleet(&fleet_engine(), &base_fleet_config()).unwrap();
    let second = run_fleet(&fleet_engine(), &base_fleet_config()).unwrap();
    assert_eq!(first.population_digest(), second.population_digest());
    assert_eq!(first.population_json(), second.population_json());
    // Wall-clock fields are the one permitted difference between runs and
    // must therefore live outside the canonical surface.
    assert!(!first.population_json().contains("chips_per_sec"));
    assert!(!first.population_json().contains("elapsed_seconds"));
}

#[test]
fn seed_and_population_changes_move_the_digest() {
    let _guard = obs_lock();
    let engine = fleet_engine();
    let reference = run_fleet(&engine, &base_fleet_config()).unwrap();
    let reseeded = run_fleet(
        &engine,
        &FleetConfig {
            seed: 1,
            ..base_fleet_config()
        },
    )
    .unwrap();
    assert_ne!(reference.population_digest(), reseeded.population_digest());
    let grown = run_fleet(
        &engine,
        &FleetConfig {
            chips: 5_001,
            ..base_fleet_config()
        },
    )
    .unwrap();
    assert_ne!(reference.population_digest(), grown.population_digest());
}

fn executions_counter() -> u64 {
    ramp_obs::counter_value("serve.executions").unwrap_or(0)
}

#[test]
fn identical_concurrent_queries_cost_exactly_one_execution() {
    let _guard = obs_lock();
    let obs_before = executions_counter();
    let server = Server::start(serve_engine(), serve_options(2));

    // Eight client threads, all issuing the same line (same id, so the
    // full response envelope must match byte for byte).
    let line = Request::query(7, "gzip", "65nm (1.0V)").to_line();
    let responses: Vec<String> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| scope.spawn(|| server.handle_line(&line)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("client thread completes"))
            .collect()
    });

    for response in &responses {
        let parsed = Response::parse(response).unwrap();
        assert!(parsed.is_ok(), "query failed: {response}");
        assert_eq!(parsed.id, 7);
        assert_eq!(
            response, &responses[0],
            "responses to identical queries must be byte-identical"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.queries, 8);
    assert_eq!(
        stats.executions, 1,
        "8 identical concurrent queries must coalesce to one execution"
    );
    assert_eq!(
        stats.coalesced + stats.cache_served,
        7,
        "the other 7 join the flight or hit the cache"
    );
    assert_eq!(stats.overloaded, 0);
    assert_eq!(stats.errors, 0);
    // Proven through the obs counter as well.
    assert_eq!(
        executions_counter() - obs_before,
        1,
        "serve.executions must record exactly one pipeline execution"
    );
}

#[test]
fn cached_replays_skip_the_executor() {
    let _guard = obs_lock();
    let server = Server::start(serve_engine(), serve_options(2));

    let line = Request::query(3, "gzip", "130nm").to_line();
    let first = server.handle_line(&line);
    assert!(Response::parse(&first).unwrap().is_ok());
    assert_eq!(server.stats().executions, 1);

    let obs_before = executions_counter();
    for _ in 0..5 {
        let replay = server.handle_line(&line);
        assert_eq!(replay, first, "cache replays must be byte-identical");
    }
    let stats = server.stats();
    assert_eq!(stats.executions, 1, "replays must not reach the executor");
    assert_eq!(stats.cache_served, 5);
    assert_eq!(
        executions_counter(),
        obs_before,
        "serve.executions must not move during cached replays"
    );
}

#[test]
fn uncoalesced_reexecutions_stay_byte_identical() {
    let _guard = obs_lock();
    // Cache disabled and strictly sequential queries: nothing coalesces,
    // every query re-executes — and the bytes still cannot change.
    let server = Server::start(
        serve_engine(),
        ServeOptions {
            threads: 2,
            cache: CacheConfig::disabled(),
            ..ServeOptions::default()
        },
    );
    let line = Request::query(5, "gzip", "180nm").to_line();
    let first = server.handle_line(&line);
    assert!(Response::parse(&first).unwrap().is_ok());
    for _ in 0..2 {
        let again = server.handle_line(&line);
        assert_eq!(again, first, "re-executions must be byte-identical");
    }
    let stats = server.stats();
    assert_eq!(
        stats.executions, 3,
        "with the cache disabled every sequential query re-executes"
    );
    assert_eq!(stats.cache_served, 0);
}
