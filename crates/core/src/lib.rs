//! RAMP lifetime-reliability model with technology-scaling extensions —
//! the primary contribution of *“The Impact of Technology Scaling on
//! Lifetime Reliability”* (DSN 2004), reproduced as a library.
//!
//! # What this crate does
//!
//! It models four intrinsic hard-failure mechanisms — electromigration,
//! stress migration, time-dependent dielectric breakdown, and thermal
//! cycling ([`mechanisms`]) — at the granularity of seven
//! microarchitectural structures, combines them under the
//! sum-of-failure-rates model ([`FitReport`]), calibrates their unknown
//! proportionality constants by reliability qualification
//! ([`Qualification`]: 4000 FIT total at 180 nm), and evaluates how the
//! failure rate of one POWER4-like design evolves as it is remapped from
//! 180 nm down to 65 nm ([`TechNode`], [`run_study`]).
//!
//! The full evaluation pipeline (timing → power → temperature →
//! reliability) is wired together in [`run_app_on_node`] using the
//! workspace's substrate crates.
//!
//! # Quick start
//!
//! ```
//! use ramp_core::{run_app_on_node, NodeId, PipelineConfig, TechNode};
//! use ramp_core::mechanisms::MechanismSet;
//! use ramp_trace::spec;
//!
//! let models = MechanismSet::default();
//! let run = run_app_on_node(
//!     &spec::profile("gzip")?,
//!     &TechNode::get(NodeId::N180),
//!     &PipelineConfig::quick(),
//!     &models,
//!     None,
//! )?;
//! println!("gzip @180nm: IPC {:.2}, {:.1} max junction temperature",
//!          run.ipc, run.max_temperature());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For the complete 16-benchmark × 5-node study, see [`run_study`] and
//! the experiment binaries in the `ramp-bench` crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod drm;
mod error;
mod executor;
mod export;
pub mod lifetime;
mod manifest;
pub mod mechanisms;
mod operating;
mod pipeline;
mod qualification;
mod query;
mod rates;
mod results;
pub mod sensitivity;
mod study;
mod tech;

pub use error::RampError;
pub use executor::{Executor, THREADS_ENV};
pub use manifest::{
    config_digest, fnv1a_hex, metric_entries_from_snapshot, results_digest,
    CacheClassEntry, ManifestCacheStats, MetricEntry, Provenance, RunManifest, StageNode,
    MANIFEST_SCHEMA_VERSION,
};
pub use operating::OperatingPoint;
pub use pipeline::{run_app_on_node, AppNodeRun, PipelineConfig, StageTimings};
pub use qualification::{FitReport, Qualification, FIT_PER_MECHANISM};
pub use query::{PopulationAnchor, QueryEngine, QueryOutcome, ReliabilityQuery};
pub use rates::{AveragedRates, RateAccumulator};
pub use results::{AppNodeResult, StudyMetrics, StudyResults, WorstCaseResult};
pub use study::{run_study, StudyConfig, WorstCaseMode};
pub use tech::{NodeId, TechNode};
