//! Structure-level dynamic and leakage power model (PowerTimer-like).
//!
//! This crate stands in for IBM's PowerTimer in the paper's pipeline. It
//! turns the timing simulator's per-interval activity factors into
//! per-structure power, modelling:
//!
//! * **Dynamic power** — unconstrained per-structure budgets with a
//!   realistic clock-gating floor, scaled across technology nodes by
//!   `C·V²·f` ([`DynamicScaling`]).
//! * **Leakage power** — area-proportional density specified at 383 K with
//!   exponential temperature dependence `e^{β(T−383)}`, β = 0.017
//!   ([`LeakageModel`]), closing the leakage↔temperature feedback loop.
//!
//! # Quick start
//!
//! ```
//! use ramp_power::{DynamicPowerModel, DynamicScaling, LeakageModel, PowerModel, StructureBudgets};
//! use ramp_microarch::PerStructure;
//! use ramp_units::{ActivityFactor, Kelvin, PowerDensity, SquareMillimeters};
//!
//! let model = PowerModel::new(
//!     DynamicPowerModel::new(StructureBudgets::power4_reference(), DynamicScaling::REFERENCE),
//!     LeakageModel::new(PowerDensity::new(0.04)?, SquareMillimeters::new(81.0)?, 0.017).unwrap(),
//!     1.0,
//! ).unwrap();
//! let activity = PerStructure::from_fn(|_| ActivityFactor::new(0.4).unwrap());
//! let temps = PerStructure::from_fn(|_| Kelvin::new(355.0).unwrap());
//! println!("{:.1}", model.sample(&activity, &temps).total());
//! # Ok::<(), ramp_units::UnitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod dynamic;
mod feedback;
mod leakage;
mod model;

pub use budget::StructureBudgets;
pub use feedback::FeedbackTracker;
pub use dynamic::{DynamicPowerModel, DynamicScaling};
pub use leakage::{LeakageModel, PreparedLeakage, DEFAULT_BETA, LEAKAGE_REFERENCE_TEMP};
pub use model::{DynamicSample, PowerModel, PowerSample};
