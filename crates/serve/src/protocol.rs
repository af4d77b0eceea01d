//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request. Five request
//! kinds:
//!
//! * `query` — evaluate a `(benchmark, node)` pair; answers with the
//!   serialized [`ramp_core::QueryOutcome`] under `"result"`.
//! * `fleet` — population question "what fraction of a fleet of chips at
//!   `(benchmark, node)` survives at least `years` years?"; answers with
//!   a [`FleetBody`] under `"fleet"`, computed from a cached Monte Carlo
//!   population run.
//! * `metrics` — introspection; answers with a [`MetricsBody`] (live
//!   metric snapshot plus cache/server stats and request-latency
//!   percentiles) under `"metrics"`.
//! * `trace` — causal-trace introspection; answers with a [`TraceBody`]
//!   (the last K completed request traces, read from the bounded span
//!   ring) under `"trace"`.
//! * `ping` — liveness; answers with a bare `ok` envelope.
//!
//! Responses carry the request's `id` back, `"status"` of `"ok"`,
//! `"overloaded"`, or `"error"`, and exactly one payload key. The ok
//! envelope for queries is assembled by splicing the cached result bytes
//! verbatim (see [`encode_ok`]), which is what makes computed, coalesced,
//! and cache-replayed responses byte-identical.

use ramp_core::{MetricEntry, QueryOutcome};
use serde::{Deserialize, Serialize};

/// Wire protocol version, echoed in [`MetricsBody`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Request status: success.
pub const STATUS_OK: &str = "ok";
/// Request status: shed by admission control; safe to retry later.
pub const STATUS_OVERLOADED: &str = "overloaded";
/// Request status: failed (protocol or evaluation error).
pub const STATUS_ERROR: &str = "error";

/// One request line.
///
/// Flat on the wire (the vendored serde subset has no tagged enums):
/// `kind` selects the operation, the optional fields apply to `query`.
/// Missing optional fields default to `None`/`0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    #[serde(default)]
    pub id: u64,
    /// `"query"`, `"metrics"`, or `"ping"`.
    pub kind: String,
    /// Benchmark name (required for `query`).
    #[serde(default)]
    pub benchmark: Option<String>,
    /// Node label as printed by `NodeId::label()`, e.g. `"65nm (1.0V)"`
    /// (required for `query`).
    #[serde(default)]
    pub node: Option<String>,
    /// Override of the engine's base instruction budget per run (at
    /// most 100 000 000; larger values are rejected).
    #[serde(default)]
    pub instructions: Option<u64>,
    /// Override of the engine's base trace-repeat count (at most 1 024;
    /// larger values are rejected).
    #[serde(default)]
    pub trace_repeats: Option<u32>,
    /// Survival horizon in whole years (for `fleet`; defaults to 7,
    /// 1–30; other values are rejected).
    #[serde(default)]
    pub years: Option<u32>,
    /// Population size for `fleet` (defaults to 100 000, 1 000 to
    /// 2 000 000; other values are rejected).
    #[serde(default)]
    pub chips: Option<u64>,
    /// How many recent request traces a `trace` request returns
    /// (defaults to 4, 1 to 16; other values are rejected).
    #[serde(default)]
    pub last: Option<u64>,
}

impl Request {
    /// A `query` request against the engine's base pipeline config.
    #[must_use]
    pub fn query(id: u64, benchmark: &str, node_label: &str) -> Self {
        Request {
            id,
            kind: "query".to_string(),
            benchmark: Some(benchmark.to_string()),
            node: Some(node_label.to_string()),
            instructions: None,
            trace_repeats: None,
            years: None,
            chips: None,
            last: None,
        }
    }

    /// A `fleet` survival request: "what fraction of `chips` chips at
    /// `(benchmark, node)` survives at least `years` years?". `None`
    /// fields take the server defaults.
    #[must_use]
    pub fn fleet(id: u64, benchmark: &str, node_label: &str, years: Option<u32>) -> Self {
        Request {
            id,
            kind: "fleet".to_string(),
            benchmark: Some(benchmark.to_string()),
            node: Some(node_label.to_string()),
            instructions: None,
            trace_repeats: None,
            years,
            chips: None,
            last: None,
        }
    }

    /// A `metrics` introspection request.
    #[must_use]
    pub fn metrics(id: u64) -> Self {
        Request {
            id,
            kind: "metrics".to_string(),
            benchmark: None,
            node: None,
            instructions: None,
            trace_repeats: None,
            years: None,
            chips: None,
            last: None,
        }
    }

    /// A `trace` introspection request for the `last` most recent
    /// completed request traces (server default when `None`).
    #[must_use]
    pub fn trace(id: u64, last: Option<u64>) -> Self {
        Request {
            id,
            kind: "trace".to_string(),
            benchmark: None,
            node: None,
            instructions: None,
            trace_repeats: None,
            years: None,
            chips: None,
            last,
        }
    }

    /// A `ping` liveness request.
    #[must_use]
    pub fn ping(id: u64) -> Self {
        Request {
            id,
            kind: "ping".to_string(),
            benchmark: None,
            node: None,
            instructions: None,
            trace_repeats: None,
            years: None,
            chips: None,
            last: None,
        }
    }

    /// Serializes the request to one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self)
            .expect("request is plain data, always serializable") // ramp-lint:allow(panic-hygiene) -- schema has no fallible serialize cases
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformation.
    pub fn parse(line: &str) -> Result<Request, String> {
        serde_json::from_str(line).map_err(|e| format!("malformed request: {e}"))
    }
}

/// One response line, as decoded by clients.
///
/// Exactly one of `result` / `metrics` / `error` is populated, matching
/// `status` and the request kind.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Response {
    /// Correlation id echoed from the request.
    #[serde(default)]
    pub id: u64,
    /// `"ok"`, `"overloaded"`, or `"error"`.
    pub status: String,
    /// Query answer (for `kind = "query"`, `status = "ok"`).
    #[serde(default)]
    pub result: Option<QueryOutcome>,
    /// Introspection answer (for `kind = "metrics"`).
    #[serde(default)]
    pub metrics: Option<MetricsBody>,
    /// Population answer (for `kind = "fleet"`, `status = "ok"`).
    #[serde(default)]
    pub fleet: Option<FleetBody>,
    /// Causal-trace answer (for `kind = "trace"`).
    #[serde(default)]
    pub trace: Option<TraceBody>,
    /// Failure description (for non-`ok` statuses).
    #[serde(default)]
    pub error: Option<String>,
}

impl Response {
    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformation.
    pub fn parse(line: &str) -> Result<Response, String> {
        serde_json::from_str(line).map_err(|e| format!("malformed response: {e}"))
    }

    /// True when the request succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == STATUS_OK
    }
}

/// Server-side counters reported by the `metrics` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Total request lines handled (all kinds).
    pub requests: u64,
    /// Query requests among them.
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_served: u64,
    /// Queries that joined another request's in-flight execution.
    pub coalesced: u64,
    /// Pipeline executions actually performed.
    pub executions: u64,
    /// Queries shed by admission control.
    pub overloaded: u64,
    /// Requests that failed (protocol or evaluation).
    pub errors: u64,
    /// Fleet population requests handled.
    #[serde(default)]
    pub fleet_queries: u64,
    /// Fleet requests answered from an already-simulated population.
    #[serde(default)]
    pub fleet_cached: u64,
    /// `trace` introspection requests handled.
    #[serde(default)]
    pub trace_requests: u64,
}

/// Body of a `fleet` response: the survival answer plus enough population
/// context to interpret it. Derived from a cached deterministic
/// population run, so repeated questions about the same `(benchmark,
/// node, chips)` population are answered without re-simulating.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBody {
    /// Benchmark the population was anchored on.
    pub benchmark: String,
    /// Node label.
    pub node: String,
    /// Chips simulated.
    pub chips: u64,
    /// Master seed of the population run (fixed server-side, so answers
    /// are reproducible).
    pub seed: u64,
    /// The survival horizon the answer is for, whole years.
    pub years: u32,
    /// P(chip survives ≥ `years` years) over the population.
    pub survival_probability: f64,
    /// Cumulative failures at `years`, in defective parts per million.
    pub dppm: f64,
    /// 1st-percentile chip lifetime, years.
    pub p1_years: f64,
    /// Median chip lifetime, years.
    pub p50_years: f64,
    /// FNV-1a digest of the canonical population content this answer was
    /// read from.
    pub population_digest: String,
}

/// One latency exemplar: the most recent request that landed in a
/// histogram bucket, identified by its causal trace id so an operator
/// can pivot from "p99 is slow" straight to a concrete trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyExemplar {
    /// Upper bound of the bucket the request landed in, microseconds.
    pub bucket_us: f64,
    /// Trace id of the exemplar request, 16 hex digits.
    pub trace: String,
    /// Measured latency of that request, microseconds.
    pub latency_us: f64,
}

/// Request-latency summary for the `metrics` endpoint: percentiles from
/// the `serve.latency_us` histogram plus per-bucket exemplar trace ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: u64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Most recent traced request per occupied bucket, slowest last.
    pub exemplars: Vec<LatencyExemplar>,
}

/// Body of a `metrics` response: live metric snapshot plus cache and
/// server stats, in the same [`MetricEntry`] shape BENCH snapshots use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Wire protocol version ([`PROTOCOL_VERSION`]).
    pub schema_version: u32,
    /// Digest of the calibration the server answers under.
    pub calibration_digest: String,
    /// Server-side request counters.
    pub server: ServerStats,
    /// Result-cache hit/miss/eviction counters and occupancy.
    pub cache: crate::cache::CacheStats,
    /// Every registered metric, BENCH-compatible.
    pub metrics: Vec<MetricEntry>,
    /// Request-latency percentiles with exemplar trace ids (absent in
    /// pre-tracing servers).
    #[serde(default)]
    pub latency: Option<LatencySummary>,
}

/// One completed span inside a [`RequestTrace`], in ring order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpanBody {
    /// Span name (static, dot-free, e.g. `"query_evaluate"`).
    pub name: String,
    /// Module path that opened the span.
    pub target: String,
    /// Span id, 16 hex digits.
    pub span: String,
    /// Parent span id, 16 hex digits (`"0"` for the trace root span).
    pub parent: String,
    /// Start offset since process start, microseconds.
    pub start_us: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Free-form `key=value` span detail (cache outcome, node label…).
    pub args: String,
}

/// One completed request trace: every span still resident in the
/// bounded ring that belongs to the request's trace id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Trace id, 16 hex digits.
    pub trace: String,
    /// Spans of this trace, in completion order.
    pub spans: Vec<TraceSpanBody>,
}

/// Body of a `trace` response: the last K completed request traces plus
/// ring health, so clients can tell "no spans" from "tracing disabled"
/// from "spans overwritten".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceBody {
    /// Whether causal tracing is enabled in this server process.
    pub enabled: bool,
    /// Span-ring capacity (slots).
    pub ring_capacity: u64,
    /// Spans recorded into the ring since startup.
    pub spans_recorded: u64,
    /// Spans overwritten (lost to the bounded ring) since startup.
    pub spans_dropped: u64,
    /// The requested number of most recent completed request traces,
    /// oldest first.
    pub traces: Vec<RequestTrace>,
}

/// JSON-quotes `text` (used for error messages inside spliced envelopes).
fn json_string(text: &str) -> String {
    serde_json::to_string(&text.to_string())
        .expect("strings always serialize") // ramp-lint:allow(panic-hygiene) -- string serialization is infallible
}

/// Builds the ok envelope for a query by splicing the already-serialized
/// result bytes verbatim. Every path to an answer (fresh execution,
/// coalesced join, cache replay) goes through this function with the
/// same stored bytes, so the full response line is byte-identical.
#[must_use]
pub fn encode_ok(id: u64, result_json: &str) -> String {
    format!("{{\"id\":{id},\"status\":\"ok\",\"result\":{result_json}}}")
}

/// Builds the ok envelope for a `metrics` request.
#[must_use]
pub fn encode_metrics(id: u64, body: &MetricsBody) -> String {
    let body_json = serde_json::to_string(body)
        .expect("metrics body is plain data, always serializable"); // ramp-lint:allow(panic-hygiene) -- schema has no fallible serialize cases
    format!("{{\"id\":{id},\"status\":\"ok\",\"metrics\":{body_json}}}")
}

/// Builds the ok envelope for a `fleet` request.
#[must_use]
pub fn encode_fleet(id: u64, body: &FleetBody) -> String {
    let body_json = serde_json::to_string(body)
        .expect("fleet body is plain data, always serializable"); // ramp-lint:allow(panic-hygiene) -- schema has no fallible serialize cases
    format!("{{\"id\":{id},\"status\":\"ok\",\"fleet\":{body_json}}}")
}

/// Builds the ok envelope for a `trace` request.
#[must_use]
pub fn encode_trace(id: u64, body: &TraceBody) -> String {
    let body_json = serde_json::to_string(body)
        .expect("trace body is plain data, always serializable"); // ramp-lint:allow(panic-hygiene) -- schema has no fallible serialize cases
    format!("{{\"id\":{id},\"status\":\"ok\",\"trace\":{body_json}}}")
}

/// Builds the ok envelope for a `ping`.
#[must_use]
pub fn encode_pong(id: u64) -> String {
    format!("{{\"id\":{id},\"status\":\"ok\"}}")
}

/// Builds a non-ok envelope (`status` of `"error"` or `"overloaded"`).
#[must_use]
pub fn encode_failure(id: u64, status: &str, message: &str) -> String {
    format!(
        "{{\"id\":{id},\"status\":{},\"error\":{}}}",
        json_string(status),
        json_string(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::query(7, "gzip", "180nm"),
            Request::metrics(8),
            Request::ping(9),
        ] {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn request_defaults_fill_missing_fields() {
        let req = Request::parse(r#"{"kind":"ping"}"#).unwrap();
        assert_eq!(req.id, 0);
        assert_eq!(req.kind, "ping");
        assert_eq!(req.benchmark, None);
    }

    #[test]
    fn malformed_request_is_an_error() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"id":1}"#).is_err(), "kind is required");
    }

    #[test]
    fn failure_envelope_escapes_messages() {
        let line = encode_failure(3, STATUS_ERROR, "bad \"quote\"\nnewline");
        let resp = Response::parse(&line).unwrap();
        assert_eq!(resp.id, 3);
        assert_eq!(resp.status, STATUS_ERROR);
        assert_eq!(resp.error.as_deref(), Some("bad \"quote\"\nnewline"));
        assert!(resp.result.is_none());
    }

    #[test]
    fn pong_envelope_parses() {
        let resp = Response::parse(&encode_pong(12)).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.id, 12);
        assert!(resp.result.is_none() && resp.metrics.is_none());
    }

    #[test]
    fn spliced_ok_envelope_is_exact() {
        // The envelope must not re-serialize or reformat the payload.
        let payload = r#"{"x":1.5,"y":"z"}"#;
        let line = encode_ok(4, payload);
        assert_eq!(line, r#"{"id":4,"status":"ok","result":{"x":1.5,"y":"z"}}"#);
    }
}
