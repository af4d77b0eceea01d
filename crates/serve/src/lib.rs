//! `ramp-serve`: a long-running reliability query service over the RAMP
//! pipeline.
//!
//! The batch binaries answer the paper's question — *what does scaling do
//! to this chip's lifetime?* — once, for a whole benchmark grid. ROADMAP
//! item 1 asks for the operational version: a fleet of schedulers asking
//! "FIT / expected lifetime / qualification margin for *this* workload at
//! *this* node" continuously. This crate is that server:
//!
//! * **Protocol** ([`protocol`]): newline-delimited JSON requests and
//!   responses. One request per line, one response line per request.
//! * **One entry point**: [`Server::handle_line`] takes a request line
//!   and returns the response line. The server is in-process only; a
//!   caller that wants concurrency calls it from its own threads.
//! * **Coalescing broker** ([`broker`]): requests sharing a config
//!   digest (see [`ramp_core::QueryEngine::cache_key`]) join the same
//!   in-flight pipeline execution instead of recomputing — N identical
//!   concurrent queries cost exactly one evaluation.
//! * **Sharded result cache** ([`cache`]): completed answers are kept in
//!   a two-level LRU (small per-shard L1s over a larger shared L2) keyed
//!   by the same digest, so replays skip the executor entirely.
//! * **Admission control** ([`server`]): a bounded queue in front of the
//!   batching dispatcher; when it is full the server sheds load with a
//!   typed `overloaded` response instead of building unbounded backlog.
//! * **Introspection**: every request runs under a `ramp-obs` span, all
//!   decision points tick counters, and a `metrics` request returns the
//!   live metric snapshot plus cache/server stats in BENCH-compatible
//!   JSON.
//!
//! Determinism is load-bearing: the response body for a query is the
//! serialized [`ramp_core::QueryOutcome`] and is byte-identical whether
//! it was computed, coalesced onto another request's execution, or
//! replayed from cache — the cache stores the serialized bytes and the
//! envelope is spliced around them unchanged.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broker;
pub mod cache;
pub mod protocol;
pub mod server;

pub use broker::{Broker, Flight, Role};
pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use protocol::{
    FleetBody, LatencyExemplar, LatencySummary, MetricsBody, Request, RequestTrace, Response,
    ServerStats, TraceBody, TraceSpanBody, PROTOCOL_VERSION,
};
pub use server::{Server, ServeOptions};

use ramp_core::RampError;

/// Errors a request can fail with on the serving path.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue was full; the request was shed. Retry later.
    Overloaded {
        /// Capacity of the queue that rejected the request.
        queue_capacity: usize,
    },
    /// The pipeline evaluation itself failed.
    Engine(RampError),
    /// The request line was not a valid protocol message.
    Protocol(String),
    /// The server is shutting down and no longer accepts work.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_capacity } => write!(
                f,
                "server overloaded: admission queue of {queue_capacity} is full"
            ),
            ServeError::Engine(e) => write!(f, "evaluation failed: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RampError> for ServeError {
    fn from(e: RampError) -> Self {
        ServeError::Engine(e)
    }
}
