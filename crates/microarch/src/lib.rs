//! Trace-driven out-of-order superscalar timing simulator (Turandot-like).
//!
//! This crate stands in for IBM's Turandot performance model in the paper's
//! pipeline. It consumes [`ramp_trace`] instruction streams, models the
//! Table-2 POWER4-like 8-way machine, and produces both aggregate
//! statistics (IPC, miss rates, mispredict rate) and — the output the rest
//! of the stack actually needs — per-interval **activity factors** for the
//! seven tracked microarchitectural structures.
//!
//! # Quick start
//!
//! ```
//! use ramp_microarch::{simulate, MachineConfig, SimulationLength, Structure};
//! use ramp_trace::{spec, TraceGenerator};
//!
//! let cfg = MachineConfig::power4_180nm();
//! let profile = spec::profile("gzip").unwrap();
//! let out = simulate(&cfg, TraceGenerator::new(&profile),
//!                    SimulationLength::Instructions(20_000), 1_100);
//! println!("IPC = {:.2}", out.stats.ipc());
//! println!("LSU activity = {:.2}", out.activity.average()[Structure::Lsu].value());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activity;
mod bpred;
mod cache;
mod config;
mod engine;
mod stats;
mod structures;
mod timing_cache;

pub use activity::{default_capacities, ActivityCollector, ActivityRecord, ActivityTrace};
pub use bpred::GsharePredictor;
pub use cache::{Cache, DataHierarchy, HitLevel};
pub use config::{CacheConfig, MachineConfig};
pub use engine::{simulate, simulate_grouped, Engine, SimulationLength, SimulationOutput};
pub use stats::SimStats;
pub use structures::{PerStructure, Structure};
pub use timing_cache::{
    clear_timing_cache, simulate_profile_cached, simulate_profile_cached_grouped,
    simulate_profile_cached_traced,
    timing_cache_class_stats, timing_cache_stats, CacheOutcome, TimingCacheClassStats,
    TimingCacheStats, TIMING_CACHE_CAPACITY,
};
