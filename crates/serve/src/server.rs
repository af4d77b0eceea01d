//! The server core: admission control, the batching dispatcher, and the
//! request handler.
//!
//! Life of a query:
//!
//! 1. [`Server::handle_line`] parses the request and resolves it to a
//!    [`ReliabilityQuery`] + config digest (under a `ramp-obs` span);
//! 2. the result cache is consulted — a hit is returned immediately,
//!    byte-identical to the originally computed response;
//! 3. otherwise the request joins the coalescing broker: followers block
//!    on the in-flight leader's [`crate::Flight`]; the leader enqueues a
//!    [`Job`] on the **bounded** admission queue. A full queue sheds the
//!    whole coalesced group with a typed `overloaded` response;
//! 4. the dispatcher thread drains the queue in batches and runs each
//!    batch on one [`ramp_core::Executor`] (the same deterministic pool
//!    the study uses), inserts results into the cache, **then** retires
//!    the flight — so late arrivals either joined the flight or will hit
//!    the cache, and each digest is executed exactly once.

use crate::broker::{Broker, Role};
use crate::cache::{CacheConfig, ShardedCache};
use crate::protocol::{
    encode_failure, encode_fleet, encode_metrics, encode_ok, encode_pong, encode_trace,
    FleetBody, LatencyExemplar, LatencySummary, MetricsBody, Request, RequestTrace, ServerStats,
    TraceBody, TraceSpanBody, PROTOCOL_VERSION, STATUS_ERROR, STATUS_OVERLOADED,
};
use crate::ServeError;
use ramp_core::{
    metric_entries_from_snapshot, Executor, NodeId, QueryEngine, ReliabilityQuery,
};
use ramp_fleet::{run_fleet, FleetConfig, FleetResults};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Fixed seed of every server-side population run: fleet answers are a
/// deterministic function of `(benchmark, node, chips)`.
const FLEET_SEED: u64 = 42;

/// Default population size for `fleet` requests.
const FLEET_DEFAULT_CHIPS: u64 = 100_000;

/// Server-side bounds on requested population size: enough chips for a
/// stable DPPM estimate, few enough that one run stays interactive.
/// Requests outside the range get an `error` response.
const FLEET_MIN_CHIPS: u64 = 1_000;
/// See [`FLEET_MIN_CHIPS`].
const FLEET_MAX_CHIPS: u64 = 2_000_000;

/// Upper bound on a query's `instructions` override: the paper's trace
/// length. One request may not pin a worker for longer than that.
const QUERY_MAX_INSTRUCTIONS: u64 = 100_000_000;
/// Upper bound on a query's `trace_repeats` override.
const QUERY_MAX_TRACE_REPEATS: u32 = 1_024;

/// Default survival horizon for `fleet` requests, years.
const FLEET_DEFAULT_YEARS: u32 = 7;

/// Default and maximum number of completed request traces a `trace`
/// request returns (bounds the response line and the retained ids).
const TRACE_DEFAULT_LAST: u64 = 4;
/// See [`TRACE_DEFAULT_LAST`].
const TRACE_MAX_LAST: u64 = 16;

/// `serve.latency_us` histogram bucket upper bounds, microseconds:
/// 100 µs to 10 min, one decade (plus a 1-minute mark) apart.
const LATENCY_BUCKETS_US: [f64; 8] = [
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
    60_000_000.0,
    600_000_000.0,
];

/// Tuning of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Admission-queue depth; beyond this, queries are shed with an
    /// `overloaded` response.
    pub queue_capacity: usize,
    /// Maximum queries the dispatcher folds into one executor batch.
    pub batch_max: usize,
    /// Worker threads for batch execution (results are identical for
    /// any value, per the [`Executor`] contract).
    pub threads: usize,
    /// Result-cache sizing.
    pub cache: CacheConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_capacity: 64,
            batch_max: 8,
            threads: Executor::from_env().threads(),
            cache: CacheConfig::default(),
        }
    }
}

/// One unit of admitted work: a digest, the query that leads it, and the
/// leading request's causal trace (so the execution's spans link back to
/// the request even though they run on the dispatcher's executor).
#[derive(Debug)]
struct Job {
    digest: String,
    query: ReliabilityQuery,
    trace: Option<ramp_obs::TraceCtx>,
}

/// Monotone server counters (mirrored to `serve.*` obs counters).
#[derive(Debug, Default)]
struct Stats { // ramp-lint:allow(atomic-ordering) -- monotone Relaxed counters, mirrored to obs at snapshot time
    requests: AtomicU64,
    queries: AtomicU64,
    cache_served: AtomicU64,
    coalesced: AtomicU64,
    executions: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    fleet_queries: AtomicU64,
    fleet_cached: AtomicU64,
    trace_requests: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        ramp_obs::counter(name).incr(); // ramp-lint:allow(span-hygiene) -- every caller passes a static dot-separated literal
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            cache_served: self.cache_served.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            executions: self.executions.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            fleet_queries: self.fleet_queries.load(Ordering::Relaxed),
            fleet_cached: self.fleet_cached.load(Ordering::Relaxed),
            trace_requests: self.trace_requests.load(Ordering::Relaxed),
        }
    }
}

/// Per-request latency instrumentation: the `serve.latency_us` histogram
/// plus the most recent traced request per bucket (exemplars), so the
/// `metrics` endpoint can hand an operator a trace id for its p99.
#[derive(Debug)]
struct LatencyRecorder {
    hist: Arc<ramp_obs::Histogram>,
    exemplars: Mutex<BTreeMap<usize, LatencyExemplar>>,
}

impl LatencyRecorder {
    fn new() -> Self {
        LatencyRecorder {
            hist: ramp_obs::histogram("serve.latency_us", &LATENCY_BUCKETS_US),
            exemplars: Mutex::new(BTreeMap::new()),
        }
    }

    fn record(&self, latency_us: f64, trace_hex: Option<&str>) {
        self.hist.observe(latency_us);
        let Some(trace) = trace_hex else { return };
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| latency_us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len() - 1);
        self.exemplars
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(
                bucket,
                LatencyExemplar {
                    bucket_us: LATENCY_BUCKETS_US[bucket], // ramp-lint:allow(panic-reach) -- `bucket` is below the fixed bucket-table length by construction
                    trace: trace.to_string(),
                    latency_us,
                },
            );
    }

    fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.hist.count(),
            p50_us: self.hist.percentile(0.50),
            p95_us: self.hist.percentile(0.95),
            p99_us: self.hist.percentile(0.99),
            exemplars: self
                .exemplars
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .values()
                .cloned()
                .collect(),
        }
    }
}

/// Shared state behind every caller and the dispatcher.
#[derive(Debug)]
struct ServerState {
    engine: QueryEngine,
    cache: ShardedCache,
    broker: Broker,
    stats: Stats,
    queue_capacity: usize,
    jobs: Mutex<Option<SyncSender<Job>>>,
    /// Completed population runs, keyed by `(anchor cache key, chips)`.
    /// Populations are expensive (seconds) but deterministic, so each is
    /// simulated once and every later `fleet` request — any horizon —
    /// reads the cached run. The Mutex is held across a miss's
    /// simulation, deliberately serializing population builds as a crude
    /// admission control for these heavyweight requests; regular queries
    /// never touch it.
    fleet_runs: Mutex<BTreeMap<(String, u64), Arc<FleetResults>>>,
    /// Request-latency histogram + exemplar trace ids.
    latency: LatencyRecorder,
    /// Trace ids of the most recently completed requests (newest last),
    /// bounded to [`TRACE_MAX_LAST`]; feeds the `trace` endpoint.
    recent_traces: Mutex<VecDeque<u64>>,
}

impl ServerState {
    fn new(engine: QueryEngine, options: &ServeOptions, jobs: SyncSender<Job>) -> Self {
        ServerState {
            engine,
            cache: ShardedCache::new(options.cache),
            broker: Broker::new(),
            stats: Stats::default(),
            queue_capacity: options.queue_capacity,
            jobs: Mutex::new(Some(jobs)),
            fleet_runs: Mutex::new(BTreeMap::new()),
            latency: LatencyRecorder::new(),
            recent_traces: Mutex::new(VecDeque::new()),
        }
    }

    fn try_admit(&self, job: Job) -> Result<(), ServeError> {
        let guard = self
            .jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(sender) = guard.as_ref() else {
            return Err(ServeError::Shutdown);
        };
        match sender.try_send(job) {
            Ok(()) => {
                ramp_obs::gauge("serve.queue_depth").add(1.0);
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(ServeError::Overloaded {
                queue_capacity: self.queue_capacity,
            }),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Shutdown),
        }
    }

    /// Handles one query request end to end, returning the serialized
    /// result payload (not yet enveloped).
    fn handle_query(&self, request: &Request) -> Result<Arc<str>, ServeError> {
        Stats::bump(&self.stats.queries, "serve.queries");
        let benchmark = request
            .benchmark
            .as_deref()
            .ok_or_else(|| ServeError::Protocol("query needs a `benchmark`".into()))?;
        let node_label = request
            .node
            .as_deref()
            .ok_or_else(|| ServeError::Protocol("query needs a `node`".into()))?;
        let node = NodeId::from_label(node_label).ok_or_else(|| {
            ServeError::Protocol(format!("unknown node label `{node_label}`"))
        })?;
        let mut query = self.engine.query(benchmark, node)?;
        if let Some(instructions) = request.instructions {
            if instructions > QUERY_MAX_INSTRUCTIONS {
                return Err(ServeError::Protocol(format!(
                    "`instructions` must be at most {QUERY_MAX_INSTRUCTIONS} (got {instructions})"
                )));
            }
            query.pipeline.instructions = instructions;
        }
        if let Some(repeats) = request.trace_repeats {
            if repeats > QUERY_MAX_TRACE_REPEATS {
                return Err(ServeError::Protocol(format!(
                    "`trace_repeats` must be at most {QUERY_MAX_TRACE_REPEATS} (got {repeats})"
                )));
            }
            query.pipeline.trace_repeats = repeats;
        }
        query.pipeline.validate()?;
        let digest = self.engine.cache_key(&query);

        if let Some(hit) = self.cache.get(&digest) {
            Stats::bump(&self.stats.cache_served, "serve.cache_served");
            return Ok(hit);
        }
        let (flight, follower) = match self.broker.join_or_lead(&digest) {
            Role::Follower(flight) => {
                Stats::bump(&self.stats.coalesced, "serve.coalesced");
                (flight, true)
            }
            Role::Leader(flight) => {
                // Late cache check under flight ownership: if the result
                // landed between our miss and taking leadership, serve it
                // and retire the flight we just created.
                if let Some(hit) = self.cache.get(&digest) {
                    self.broker.complete(&digest, Ok(Arc::clone(&hit)));
                    Stats::bump(&self.stats.cache_served, "serve.cache_served");
                    return Ok(hit);
                }
                if let Err(shed) = self.try_admit(Job {
                    digest: digest.clone(),
                    query,
                    trace: ramp_obs::current_trace(),
                }) {
                    if matches!(shed, ServeError::Overloaded { .. }) {
                        Stats::bump(&self.stats.overloaded, "serve.overloaded");
                    }
                    // Fail the whole coalesced group through the flight so
                    // followers don't hang.
                    self.broker.complete(&digest, Err(shed));
                }
                (flight, false)
            }
        };
        ramp_obs::gauge("serve.in_flight").set(self.broker.in_flight() as f64);
        if follower {
            // A follower's own trace records only the wait; the span names
            // the leader's trace id so the two traces can be joined up in
            // the exported timeline.
            let wait_span = ramp_obs::span!(
                "serve_coalesce_wait",
                "leader_trace={:016x}",
                flight.leader_trace()
            );
            let outcome = flight.wait();
            wait_span.finish();
            outcome
        } else {
            flight.wait()
        }
    }

    /// Handles one `fleet` request: simulates (or replays) the population
    /// for `(benchmark, node, chips)` and answers the survival question
    /// at the requested horizon.
    fn handle_fleet(&self, request: &Request) -> Result<FleetBody, ServeError> {
        Stats::bump(&self.stats.fleet_queries, "serve.fleet_queries");
        let benchmark = request
            .benchmark
            .as_deref()
            .ok_or_else(|| ServeError::Protocol("fleet needs a `benchmark`".into()))?;
        let node_label = request
            .node
            .as_deref()
            .ok_or_else(|| ServeError::Protocol("fleet needs a `node`".into()))?;
        let node = NodeId::from_label(node_label).ok_or_else(|| {
            ServeError::Protocol(format!("unknown node label `{node_label}`"))
        })?;
        let years = request.years.unwrap_or(FLEET_DEFAULT_YEARS);
        if !(1..=ramp_fleet::YEAR_MARKS as u32).contains(&years) {
            return Err(ServeError::Protocol(format!(
                "`years` must be in 1..={} (got {years})",
                ramp_fleet::YEAR_MARKS
            )));
        }
        let chips = request.chips.unwrap_or(FLEET_DEFAULT_CHIPS);
        if !(FLEET_MIN_CHIPS..=FLEET_MAX_CHIPS).contains(&chips) {
            return Err(ServeError::Protocol(format!(
                "`chips` must be in {FLEET_MIN_CHIPS}..={FLEET_MAX_CHIPS} (got {chips})"
            )));
        }
        // The anchor cache key pins everything the population depends on
        // (calibration, benchmark content, node, pipeline config).
        let query = self.engine.query(benchmark, node)?;
        let key = (self.engine.cache_key(&query), chips);

        let mut runs = self
            .fleet_runs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let results = if let Some(hit) = runs.get(&key) {
            Stats::bump(&self.stats.fleet_cached, "serve.fleet_cached");
            Arc::clone(hit)
        } else {
            let config = FleetConfig {
                benchmark: benchmark.to_string(),
                nodes: vec![node],
                chips,
                seed: FLEET_SEED,
                ..FleetConfig::default()
            };
            let results = Arc::new(run_fleet(&self.engine, &config)?);
            runs.insert(key, Arc::clone(&results));
            results
        };
        drop(runs);

        let population = results
            .populations
            .first()
            .ok_or_else(|| ServeError::Protocol("fleet run produced no population".into()))?;
        let dppm = population.summary.dppm_by_year[years as usize - 1];
        Ok(FleetBody {
            benchmark: benchmark.to_string(),
            node: node_label.to_string(),
            chips,
            seed: FLEET_SEED,
            years,
            survival_probability: 1.0 - dppm / 1.0e6,
            dppm,
            p1_years: population.summary.p1_years,
            p50_years: population.summary.p50_years,
            population_digest: results.population_digest(),
        })
    }

    /// The request handler: one request line in, one response line out.
    /// When causal tracing is on, the whole request runs under
    /// a fresh per-request trace (seeded from the arrival sequence number
    /// and the request bytes) whose id is recorded as a latency exemplar
    /// and retained for the `trace` endpoint.
    fn handle_line(&self, line: &str) -> String {
        let req_seq = self.stats.requests.fetch_add(1, Ordering::Relaxed);
        ramp_obs::counter("serve.requests").incr();
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(message) => {
                Stats::bump(&self.stats.errors, "serve.errors");
                return encode_failure(0, STATUS_ERROR, &message);
            }
        };
        // Latency telemetry lives outside every canonical output surface.
        let started = std::time::Instant::now(); // ramp-lint:allow(determinism) -- request latency telemetry only, never in responses
        let trace_ctx = if ramp_obs::tracing_enabled() {
            Some(ramp_obs::trace_root(&format!(
                "serve|{req_seq}|{:016x}",
                ramp_obs::fnv1a_64(line)
            )))
        } else {
            None
        };
        let trace_id = trace_ctx.as_ref().map(|c| c.trace_id());
        let _trace = ramp_obs::adopt_trace(trace_ctx);
        let span = ramp_obs::span!("serve_request", "kind={} id={}", request.kind, request.id);
        let response = match request.kind.as_str() {
            "query" => match self.handle_query(&request) {
                Ok(payload) => encode_ok(request.id, &payload),
                Err(ServeError::Overloaded { queue_capacity }) => {
                    let message = ServeError::Overloaded { queue_capacity }.to_string();
                    encode_failure(request.id, STATUS_OVERLOADED, &message)
                }
                Err(error) => {
                    Stats::bump(&self.stats.errors, "serve.errors");
                    encode_failure(request.id, STATUS_ERROR, &error.to_string())
                }
            },
            "fleet" => match self.handle_fleet(&request) {
                Ok(body) => encode_fleet(request.id, &body),
                Err(error) => {
                    Stats::bump(&self.stats.errors, "serve.errors");
                    encode_failure(request.id, STATUS_ERROR, &error.to_string())
                }
            },
            "metrics" => encode_metrics(request.id, &self.metrics_body()),
            "trace" => {
                Stats::bump(&self.stats.trace_requests, "serve.trace_requests");
                match self.trace_body(&request) {
                    Ok(body) => encode_trace(request.id, &body),
                    Err(error) => {
                        Stats::bump(&self.stats.errors, "serve.errors");
                        encode_failure(request.id, STATUS_ERROR, &error.to_string())
                    }
                }
            }
            "ping" => encode_pong(request.id),
            other => {
                Stats::bump(&self.stats.errors, "serve.errors");
                encode_failure(
                    request.id,
                    STATUS_ERROR,
                    &format!("unknown request kind `{other}`"),
                )
            }
        };
        span.finish();
        let latency_us = started.elapsed().as_secs_f64() * 1.0e6; // ramp-lint:allow(determinism) -- request latency telemetry only, never in responses
        let trace_hex = trace_id.map(|t| t.to_hex());
        self.latency.record(latency_us, trace_hex.as_deref());
        if let Some(trace) = trace_id {
            // `trace` requests are excluded so introspection does not
            // evict the request traces it exists to report.
            if request.kind != "trace" {
                let mut recent = self
                    .recent_traces
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                recent.push_back(trace.as_u64());
                while recent.len() > TRACE_MAX_LAST as usize {
                    recent.pop_front();
                }
            }
        }
        response
    }

    fn metrics_body(&self) -> MetricsBody {
        // Refresh the allocator and span-ring gauges right before the
        // snapshot so every metrics response reports current values, not
        // whatever the last request left behind. The allocator gauges
        // read zero unless `RAMP_ALLOC` enabled the tracking allocator.
        let alloc = ramp_obs::alloc_stats();
        ramp_obs::gauge("alloc.live_bytes").set(alloc.live_bytes as f64);
        ramp_obs::gauge("alloc.peak_live_bytes").set(alloc.peak_live_bytes as f64);
        ramp_obs::gauge("alloc.total_allocs").set(alloc.allocs as f64);
        ramp_obs::gauge("obs.trace_spans_dropped").set(ramp_obs::ring_stats().dropped as f64);
        MetricsBody {
            schema_version: PROTOCOL_VERSION,
            calibration_digest: self.engine.calibration_digest().to_string(),
            server: self.stats.snapshot(),
            cache: self.cache.stats(),
            metrics: metric_entries_from_snapshot(&ramp_obs::metrics_snapshot()),
            latency: Some(self.latency.summary()),
        }
    }

    /// Assembles the `trace` response: the last `request.last` completed
    /// request traces (oldest first), each with every one of its spans
    /// still resident in the bounded ring. A `last` outside
    /// 1..=[`TRACE_MAX_LAST`] is a protocol error.
    fn trace_body(&self, request: &Request) -> Result<TraceBody, ServeError> {
        let last = request.last.unwrap_or(TRACE_DEFAULT_LAST);
        if !(1..=TRACE_MAX_LAST).contains(&last) {
            return Err(ServeError::Protocol(format!(
                "`last` must be in 1..={TRACE_MAX_LAST} (got {last})"
            )));
        }
        let last = last as usize;
        let stats = ramp_obs::ring_stats();
        let wanted: Vec<u64> = {
            let recent = self
                .recent_traces
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let skip = recent.len().saturating_sub(last);
            recent.iter().skip(skip).copied().collect()
        };
        let snapshot = ramp_obs::ring_snapshot();
        let traces = wanted
            .iter()
            .map(|&id| RequestTrace {
                trace: format!("{id:016x}"),
                spans: snapshot
                    .iter()
                    .filter(|s| s.trace == id)
                    .map(|s| TraceSpanBody {
                        name: s.name.to_string(),
                        target: s.target.to_string(),
                        span: format!("{:016x}", s.span),
                        parent: format!("{:016x}", s.parent),
                        start_us: s.start_us,
                        dur_ns: s.dur_ns,
                        args: s.args.clone(),
                    })
                    .collect(),
            })
            .collect();
        Ok(TraceBody {
            enabled: ramp_obs::tracing_enabled(),
            ring_capacity: stats.capacity,
            spans_recorded: stats.recorded,
            spans_dropped: stats.dropped,
            traces,
        })
    }

    /// Dispatcher loop: drain → batch → execute on the shared executor →
    /// cache → retire flights. Runs until the admission sender is gone.
    fn dispatch(self: &Arc<Self>, jobs: Receiver<Job>, options: &ServeOptions) {
        let executor = Executor::new(options.threads);
        let batch_max = options.batch_max.max(1);
        let batch_hist = ramp_obs::histogram("serve.batch_size", &[1.0, 2.0, 4.0, 8.0, 16.0]);
        while let Ok(first) = jobs.recv() {
            let mut batch = vec![first];
            while batch.len() < batch_max {
                match jobs.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            ramp_obs::gauge("serve.queue_depth").add(-(batch.len() as f64));
            batch_hist.observe(batch.len() as f64);
            let span = ramp_obs::span!("serve_batch", "jobs={}", batch.len());
            let results: Vec<Result<Arc<str>, ServeError>> =
                executor.map(&batch, |job| self.execute(job));
            for (job, result) in batch.iter().zip(results) {
                if let Ok(payload) = &result {
                    // Cache first, then retire the flight: a request that
                    // misses the flight must find the cache populated.
                    self.cache.insert(&job.digest, Arc::clone(payload));
                }
                self.broker.complete(&job.digest, result);
            }
            ramp_obs::gauge("serve.in_flight").set(self.broker.in_flight() as f64);
            span.finish();
        }
    }

    fn execute(&self, job: &Job) -> Result<Arc<str>, ServeError> {
        // Run the evaluation under the leading request's trace, so its
        // pipeline spans land in that request's causal tree rather than
        // in a dispatcher-local orphan.
        let _trace = ramp_obs::adopt_trace(job.trace.clone());
        Stats::bump(&self.stats.executions, "serve.executions");
        let outcome = self.engine.evaluate(&job.query)?;
        let json = serde_json::to_string(&outcome)
            .map_err(|e| ServeError::Protocol(format!("result serialization failed: {e}")))?;
        Ok(Arc::from(json.as_str()))
    }

    fn close_admission(&self) {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
    }
}

/// A running reliability query server.
///
/// Owns the dispatcher thread; dropping the server (or calling
/// [`Server::shutdown`]) closes admission, drains the queue, and joins
/// the dispatcher. Callers reach it only through
/// [`Server::handle_line`], from as many threads of their own as they
/// like.
///
/// # Examples
///
/// ```no_run
/// use ramp_core::{QueryEngine, StudyConfig};
/// use ramp_serve::{Request, Response, ServeOptions, Server};
///
/// let config = StudyConfig::quick().with_benchmarks(&["gzip"])?;
/// let engine = QueryEngine::calibrate(&config)?;
/// let server = Server::start(engine, ServeOptions::default());
/// let line = server.handle_line(&Request::query(1, "gzip", "180nm").to_line());
/// let response = Response::parse(&line)?;
/// assert!(response.is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over a calibrated engine.
    #[must_use]
    pub fn start(engine: QueryEngine, options: ServeOptions) -> Self {
        let (tx, rx) = sync_channel(options.queue_capacity.max(1));
        let state = Arc::new(ServerState::new(engine, &options, tx));
        let dispatcher_state = Arc::clone(&state);
        let dispatcher = std::thread::Builder::new()
            .name("ramp-serve-dispatch".to_string())
            .spawn(move || dispatcher_state.dispatch(rx, &options))
            .expect("spawning the dispatcher thread succeeds"); // ramp-lint:allow(panic-hygiene) -- thread spawn fails only on resource exhaustion at startup
        Server {
            state,
            dispatcher: Some(dispatcher),
        }
    }

    /// Handles one raw request line and returns the response line. Safe
    /// to call from any number of threads at once.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        self.state.handle_line(line)
    }

    /// Current server counters (same numbers the `metrics` endpoint
    /// reports).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.state.stats.snapshot()
    }

    /// Stops accepting work, drains in-flight batches, and joins the
    /// dispatcher. Equivalent to dropping the server, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.state.close_admission();
        if let Some(handle) = self.dispatcher.take() {
            if handle.join().is_err() {
                ramp_obs::warn!("serve: dispatcher thread panicked during shutdown");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use ramp_core::mechanisms::PerMechanism;
    use ramp_core::{PipelineConfig, Qualification};

    fn test_engine() -> QueryEngine {
        let qualification =
            Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap();
        QueryEngine::with_qualification(qualification, PipelineConfig::quick(), "server-tests")
    }

    fn tiny_options() -> ServeOptions {
        ServeOptions {
            queue_capacity: 2,
            batch_max: 2,
            threads: 1,
            cache: CacheConfig::default(),
        }
    }

    #[test]
    fn ping_and_unknown_kind() {
        let server = Server::start(test_engine(), tiny_options());
        let pong = Response::parse(&server.handle_line(&Request::ping(5).to_line())).unwrap();
        assert!(pong.is_ok());
        assert_eq!(pong.id, 5);
        let bad =
            Response::parse(&server.handle_line(r#"{"id":6,"kind":"frobnicate"}"#)).unwrap();
        assert_eq!(bad.status, STATUS_ERROR);
        assert!(bad.error.unwrap().contains("frobnicate"));
        assert_eq!(server.stats().requests, 2);
        assert_eq!(server.stats().errors, 1);
    }

    #[test]
    fn malformed_and_incomplete_queries_error_without_executing() {
        let server = Server::start(test_engine(), tiny_options());
        for line in [
            "not json at all",
            r#"{"id":1,"kind":"query"}"#,
            r#"{"id":2,"kind":"query","benchmark":"gzip"}"#,
            r#"{"id":3,"kind":"query","benchmark":"gzip","node":"7nm"}"#,
            r#"{"id":4,"kind":"query","benchmark":"nonesuch","node":"180nm"}"#,
        ] {
            let response = Response::parse(&server.handle_line(line)).unwrap();
            assert_eq!(response.status, STATUS_ERROR, "line: {line}");
        }
        assert_eq!(server.stats().executions, 0);
        assert_eq!(server.stats().errors, 5);
    }

    #[test]
    fn a_deeply_nested_line_errors_and_the_server_keeps_serving() {
        let server = Server::start(test_engine(), tiny_options());
        // An unbounded recursive-descent parser overflows a 2 MB stack
        // long before 100,000 levels, which aborts the whole process.
        let hostile = "[".repeat(100_000);
        let line = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(scope, || server.handle_line(&hostile))
                .unwrap()
                .join()
                .unwrap()
        });
        let response = Response::parse(&line).unwrap();
        assert_eq!(response.status, STATUS_ERROR);
        assert!(response.error.unwrap().contains("nesting"));
        let pong = Response::parse(&server.handle_line(&Request::ping(2).to_line())).unwrap();
        assert!(pong.is_ok());
        assert_eq!(server.stats().executions, 0);
    }

    #[test]
    fn oversized_what_ifs_error_promptly_and_the_server_keeps_serving() {
        let server = Server::start(test_engine(), tiny_options());
        let base = Request::query(1, "gzip", "180nm");
        let too_long = Request {
            instructions: Some(u64::MAX),
            ..base.clone()
        };
        let too_many = Request {
            trace_repeats: Some(QUERY_MAX_TRACE_REPEATS + 1),
            ..base.clone()
        };
        for (request, field) in [(too_long, "instructions"), (too_many, "trace_repeats")] {
            // An unbounded request would pin the worker, so wait for the
            // answer on a deadline instead of blocking the test forever.
            let state = Arc::clone(&server.state);
            let (tx, rx) = std::sync::mpsc::channel();
            let caller =
                std::thread::spawn(move || tx.send(state.handle_line(&request.to_line())));
            let Ok(line) = rx.recv_timeout(std::time::Duration::from_secs(10)) else {
                // The worker is pinned: dropping the server would join it.
                std::mem::forget(server);
                panic!("an oversized `{field}` request must be rejected promptly");
            };
            caller.join().expect("caller thread completes").unwrap();
            let response = Response::parse(&line).unwrap();
            assert_eq!(response.status, STATUS_ERROR);
            let error = response.error.unwrap();
            assert!(error.contains(field), "error names the field: {error}");
        }
        assert_eq!(server.stats().executions, 0);
        let answer = Response::parse(&server.handle_line(&base.to_line())).unwrap();
        assert!(answer.is_ok(), "the same server answers a valid query");
        assert_eq!(server.stats().executions, 1);
    }

    #[test]
    fn overload_sheds_with_typed_response() {
        // A state with no dispatcher: admitted jobs stay queued, so the
        // queue fills deterministically.
        let options = ServeOptions {
            queue_capacity: 1,
            ..tiny_options()
        };
        let (tx, _rx) = sync_channel(options.queue_capacity);
        let state = ServerState::new(test_engine(), &options, tx);
        let first = Request::query(1, "gzip", "180nm").to_line();
        let second = Request::query(2, "vpr", "180nm").to_line();
        // First query leads and occupies the queue's only slot, then would
        // block on its flight — run it from a helper thread and let it
        // block there while we overload from this one.
        let state = Arc::new(state);
        let background = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.handle_line(&first))
        };
        // Wait until the first job is actually admitted.
        while ramp_obs::gauge("serve.queue_depth").get() < 1.0
            && state.stats.overloaded.load(Ordering::Relaxed) == 0
        {
            std::thread::yield_now();
        }
        let response = Response::parse(&state.handle_line(&second)).unwrap();
        assert_eq!(response.status, STATUS_OVERLOADED);
        assert!(response.error.unwrap().contains("admission queue"));
        assert_eq!(state.stats.overloaded.load(Ordering::Relaxed), 1);
        // Unblock the first request so the helper thread exits.
        state
            .broker
            .complete(&state.engine.cache_key(&state.engine.query("gzip", NodeId::N180).unwrap()),
                Err(ServeError::Shutdown));
        let first_response = Response::parse(&background.join().unwrap()).unwrap();
        assert_eq!(first_response.status, STATUS_ERROR);
    }

    #[test]
    fn shutdown_rejects_new_queries() {
        let options = tiny_options();
        let (tx, rx) = sync_channel::<Job>(1);
        let state = ServerState::new(test_engine(), &options, tx);
        drop(rx);
        state.close_admission();
        let response = Response::parse(
            &state.handle_line(&Request::query(9, "gzip", "180nm").to_line()),
        )
        .unwrap();
        assert_eq!(response.status, STATUS_ERROR);
        assert!(response.error.unwrap().contains("shutting down"));
    }

    #[test]
    fn fleet_requests_are_answered_and_cached() {
        let server = Server::start(test_engine(), tiny_options());
        let mut request = Request::fleet(1, "gzip", "180nm", Some(5));
        request.chips = Some(2_000);
        let line = server.handle_line(&request.to_line());
        let response = Response::parse(&line).unwrap();
        assert!(response.is_ok(), "{line}");
        let body = response.fleet.expect("fleet body present");
        assert_eq!(body.node, "180nm");
        assert_eq!(body.chips, 2_000);
        assert_eq!(body.years, 5);
        assert!((0.0..=1.0).contains(&body.survival_probability));
        assert!(
            (body.survival_probability - (1.0 - body.dppm / 1.0e6)).abs() < 1e-12,
            "survival and dppm must agree"
        );
        assert!(body.p1_years <= body.p50_years);

        // Same population, different horizon: answered from the cached
        // run, with the same digest and monotonically lower survival.
        let mut later = Request::fleet(2, "gzip", "180nm", Some(20));
        later.chips = Some(2_000);
        let second = Response::parse(&server.handle_line(&later.to_line()))
            .unwrap()
            .fleet
            .expect("fleet body present");
        assert_eq!(second.population_digest, body.population_digest);
        assert!(second.survival_probability <= body.survival_probability);
        let stats = server.stats();
        assert_eq!(stats.fleet_queries, 2);
        assert_eq!(stats.fleet_cached, 1);
    }

    #[test]
    fn fleet_requests_validate_their_inputs() {
        let server = Server::start(test_engine(), tiny_options());
        for line in [
            r#"{"id":1,"kind":"fleet"}"#.to_string(),
            r#"{"id":2,"kind":"fleet","benchmark":"gzip"}"#.to_string(),
            r#"{"id":3,"kind":"fleet","benchmark":"gzip","node":"7nm"}"#.to_string(),
            Request::fleet(4, "gzip", "180nm", Some(0)).to_line(),
            Request::fleet(5, "gzip", "180nm", Some(31)).to_line(),
        ] {
            let response = Response::parse(&server.handle_line(&line)).unwrap();
            assert_eq!(response.status, STATUS_ERROR, "{line}");
        }
        // An out-of-range population is rejected, not silently resized.
        for chips in [0, FLEET_MAX_CHIPS + 1] {
            let mut request = Request::fleet(6, "gzip", "180nm", Some(5));
            request.chips = Some(chips);
            let response = Response::parse(&server.handle_line(&request.to_line())).unwrap();
            assert_eq!(response.status, STATUS_ERROR, "chips {chips}");
            let error = response.error.unwrap();
            assert!(error.contains("`chips`"), "error names the field: {error}");
            assert!(error.contains(&FLEET_MAX_CHIPS.to_string()), "error names the range: {error}");
        }
    }

    #[test]
    fn metrics_endpoint_reports_counters() {
        let server = Server::start(test_engine(), tiny_options());
        let _ = server.handle_line(&Request::ping(1).to_line());
        let line = server.handle_line(&Request::metrics(2).to_line());
        let response = Response::parse(&line).unwrap();
        assert!(response.is_ok());
        let body = response.metrics.expect("metrics body present");
        assert_eq!(body.schema_version, PROTOCOL_VERSION);
        assert!(body.server.requests >= 2);
        assert_eq!(body.calibration_digest, server.state.engine.calibration_digest());
        assert!(body.metrics.iter().any(|m| m.name == "serve.requests"));
        // Allocator and span-ring observability travels over the wire:
        // the gauges are always present (zero when tracking is off).
        for gauge in [
            "alloc.live_bytes",
            "alloc.peak_live_bytes",
            "alloc.total_allocs",
            "obs.trace_spans_dropped",
        ] {
            assert!(
                body.metrics.iter().any(|m| m.name == gauge),
                "gauge {gauge} missing from metrics body"
            );
        }
    }

    #[test]
    fn metrics_endpoint_tracks_live_allocator_state() {
        // With tracking enabled, the gauges must reflect real allocator
        // traffic by the time the response is assembled.
        let server = Server::start(test_engine(), tiny_options());
        ramp_obs::set_alloc_tracking(true);
        // black_box keeps the buffer observable: the optimizer is allowed
        // to elide an unused heap allocation outright, which would leave
        // the peak gauge below the asserted size.
        let held: Vec<u8> = std::hint::black_box(vec![7; 64 * 1024]);
        let line = server.handle_line(&Request::metrics(3).to_line());
        ramp_obs::set_alloc_tracking(false);
        drop(std::hint::black_box(held));
        let response = Response::parse(&line).unwrap();
        let body = response.metrics.expect("metrics body present");
        let value = |name: &str| {
            body.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or_default()
        };
        assert!(
            value("alloc.total_allocs") >= 1.0,
            "tracking allocator saw no allocations"
        );
        assert!(
            value("alloc.peak_live_bytes") >= 64.0 * 1024.0,
            "peak gauge below the held buffer size"
        );
    }

    #[test]
    fn metrics_endpoint_reports_latency_percentiles() {
        let server = Server::start(test_engine(), tiny_options());
        for id in 0..5 {
            let _ = server.handle_line(&Request::ping(id).to_line());
        }
        let response = Response::parse(&server.handle_line(&Request::metrics(9).to_line()))
            .unwrap();
        let latency = response
            .metrics
            .expect("metrics body present")
            .latency
            .expect("latency summary present");
        assert!(latency.count >= 5);
        assert!(latency.p50_us >= 0.0);
        assert!(latency.p50_us <= latency.p95_us);
        assert!(latency.p95_us <= latency.p99_us);
    }

    #[test]
    fn trace_endpoint_returns_recent_request_traces() {
        // Tracing shares one process-wide ring across tests; install it
        // and drive enough requests that ours are the newest.
        ramp_obs::install_trace(None, 65_536);
        let server = Server::start(test_engine(), tiny_options());
        let query = Request::query(1, "gzip", "180nm").to_line();
        assert!(Response::parse(&server.handle_line(&query)).unwrap().is_ok());
        let _ = server.handle_line(&Request::ping(2).to_line());
        let line = server.handle_line(&Request::trace(3, Some(8)).to_line());
        let response = Response::parse(&line).unwrap();
        assert!(response.is_ok(), "{line}");
        let body = response.trace.expect("trace body present");
        assert!(body.enabled);
        assert!(body.ring_capacity >= 1);
        assert!(body.spans_recorded > 0);
        // The query and the ping both completed with a trace.
        assert_eq!(body.traces.len(), 2);
        let query_trace = &body.traces[0];
        assert!(
            query_trace.spans.iter().any(|s| s.name == "serve_request"),
            "query trace carries its request span: {query_trace:?}"
        );
        assert!(
            query_trace.spans.iter().any(|s| s.name == "query_evaluate"),
            "the dispatcher execution joined the request trace: {query_trace:?}"
        );
        // Every non-root span links to a parent within the same trace.
        for t in &body.traces {
            for s in &t.spans {
                if s.parent != "0000000000000000" {
                    assert!(
                        t.spans.iter().any(|p| p.span == s.parent)
                            || s.parent.len() == 16,
                        "parent ids are well-formed"
                    );
                }
            }
        }
        assert_eq!(server.stats().trace_requests, 1);
        // An out-of-range `last` is rejected, not silently clamped, and the
        // server keeps serving.
        for last in [0, TRACE_MAX_LAST + 1] {
            let line = Request::trace(4, Some(last)).to_line();
            let response = Response::parse(&server.handle_line(&line)).unwrap();
            assert_eq!(response.status, STATUS_ERROR, "last {last}");
            let error = response.error.unwrap();
            assert!(error.contains("`last`"), "error names the field: {error}");
            assert!(error.contains(&TRACE_MAX_LAST.to_string()), "error names the limit: {error}");
        }
        let ok = server.handle_line(&Request::trace(5, Some(TRACE_MAX_LAST)).to_line());
        assert!(Response::parse(&ok).unwrap().is_ok());
    }

    #[test]
    fn trace_endpoint_reports_disabled_when_tracing_off() {
        // `install_trace` may already have run in this process (tests
        // share it); only assert the shape, not `enabled` itself.
        let server = Server::start(test_engine(), tiny_options());
        let response = Response::parse(&server.handle_line(&Request::trace(1, None).to_line()))
            .unwrap();
        assert!(response.is_ok());
        let body = response.trace.expect("trace body present");
        assert_eq!(body.enabled, ramp_obs::tracing_enabled());
    }
}
