//! Population Monte Carlo fleet simulator.
//!
//! The paper models one *average* chip per technology node. Real
//! deployments care about the population: across process variation, when
//! does the 1st-percentile chip fail, what is the cumulative return rate
//! (DPPM) at each warranty year, and how do those curves move from
//! 180 nm to 65 nm? This crate answers that by Monte Carlo over the
//! qualified FIT models in `ramp_core`:
//!
//! 1. **Anchor** — one real pipeline run per (benchmark, node)
//!    ([`ramp_core::QueryEngine::population_anchor`]) prices the average
//!    chip and freezes the per-structure operating points.
//! 2. **Sample** — each chip draws process variation (gate-oxide
//!    thickness, operating temperature, interconnect geometry; module
//!    [`variation`]) from an independent counter-based stream (module
//!    [`rng`]), is re-priced by rate-ratio transfer (module [`chip`]),
//!    and draws per-mechanism lifetimes: lognormal for EM/SM/TDDB,
//!    Coffin–Manson/Weibull for TC (module [`sampler`]). The chip fails
//!    at the earliest mechanism (series system, matching SOFR).
//! 3. **Reduce** — per-chunk [`PopulationAccumulator`]s (module
//!    [`accumulator`]) hold integer-only merge-invariant state, so the
//!    parallel reduction is byte-identical for any `RAMP_THREADS` and
//!    any chunk size; memory stays O(bins), not O(fleet).
//!
//! # Determinism contract
//!
//! For a fixed [`FleetConfig`], [`run_fleet`]'s
//! [`FleetResults::population_json`] is byte-identical across thread
//! counts, chunk sizes, and reruns. Enforced by
//! `tests/determinism.rs` and the `fleet-smoke` CI job.
//!
//! # Examples
//!
//! ```no_run
//! use ramp_core::{QueryEngine, StudyConfig};
//! use ramp_fleet::{run_fleet, FleetConfig};
//!
//! let config = StudyConfig::quick().with_benchmarks(&["gzip"])?;
//! let engine = QueryEngine::calibrate(&config)?;
//! let fleet = FleetConfig { chips: 100_000, ..FleetConfig::default() };
//! let results = run_fleet(&engine, &fleet)?;
//! for pop in &results.populations {
//!     println!("{}: p1={:.1}y dppm@5y={:.0}", pop.label,
//!              pop.summary.p1_years, pop.summary.dppm_by_year[4]);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod accumulator;
pub mod chip;
pub mod population;
pub mod rng;
pub mod sampler;
pub mod variation;

pub use accumulator::{PopulationAccumulator, PopulationSummary, YEAR_MARKS};
pub use chip::{ChipOutcome, ChipSampler};
pub use population::{run_fleet, FleetConfig, FleetResults, NodePopulation};
pub use rng::{chip_rng, open_unit};
pub use sampler::{inverse_normal_cdf, CoffinManson, Lognormal, TruncatedNormal};
pub use variation::{ChipVariation, VariationModel};
