//! Dynamic reliability management (DRM).
//!
//! The paper's conclusion: worst-case reliability qualification over-designs
//! processors for most workloads, and the gap widens with scaling. The
//! remedy it proposes (from Srinivasan et al., ISCA 2004) is *dynamic
//! reliability management* — qualify for the expected case and respond at
//! run time when a workload pushes the failure rate above budget, using
//! actuators like dynamic voltage/frequency scaling.
//!
//! This module implements that control loop on top of the pipeline:
//! [`DrmController`] tracks the running-average FIT of the executing
//! workload and moves between [`DvsLevel`]s to keep the long-run average
//! within a FIT budget, trading performance only when reliability demands
//! it. [`run_with_drm`]`(engine, profile, node, policy, ladder)` runs the
//! ordinary pipeline of a [`QueryEngine`] with the controller choosing
//! each second-pass interval's level, and reports both the reliability
//! outcome and the performance cost. Its unmanaged baseline is the
//! engine's anchored run ([`QueryEngine::run_anchored`]).

use crate::pipeline::{power_model, run_app_filling_intervals, LevelPolicy};
use crate::rates::RateAccumulator;
use crate::{OperatingPoint, Qualification, QueryEngine, RampError, TechNode};
use ramp_microarch::PerStructure;
use ramp_power::PowerModel;
use ramp_trace::BenchmarkProfile;
use ramp_units::{Fit, Gigahertz, Volts};
use serde::{Deserialize, Serialize};

/// One dynamic voltage/frequency operating level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvsLevel {
    /// Supply voltage at this level.
    pub voltage: Volts,
    /// Clock frequency at this level.
    pub frequency: Gigahertz,
}

impl DvsLevel {
    /// The node's nominal operating level.
    #[must_use]
    pub fn nominal(node: &TechNode) -> Self {
        DvsLevel {
            voltage: node.vdd,
            frequency: node.frequency,
        }
    }

    /// A standard three-level ladder for a node: nominal, −8 % V / −15 % f,
    /// and −15 % V / −30 % f (coarse but representative of early-2000s DVS).
    #[must_use]
    pub fn standard_ladder(node: &TechNode) -> Vec<DvsLevel> {
        let v = node.vdd.value();
        let f = node.frequency.value();
        let mk = |vr: f64, fr: f64| DvsLevel {
            voltage: Volts::new(v * vr).expect("scaled voltage in range"), // ramp-lint:allow(panic-hygiene) -- scale factors are validated fractions
            frequency: Gigahertz::new(f * fr).expect("scaled frequency in range"), // ramp-lint:allow(panic-hygiene) -- scale factors are validated fractions
        };
        vec![mk(1.0, 1.0), mk(0.92, 0.85), mk(0.85, 0.70)]
    }

    /// Dynamic-power multiplier of this level relative to nominal
    /// (`(V/V₀)²·(f/f₀)`).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless power multiplier
    pub fn power_factor(&self, node: &TechNode) -> f64 {
        let vr = self.voltage.ratio_to(node.vdd);
        let fr = self.frequency.ratio_to(node.frequency);
        vr * vr * fr
    }

    /// Throughput multiplier relative to nominal (≈ frequency ratio; the
    /// cycles-per-instruction of the fixed pipeline are unchanged).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless throughput multiplier
    pub fn performance_factor(&self, node: &TechNode) -> f64 {
        self.frequency.ratio_to(node.frequency)
    }
}

/// Policy for the DRM control loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrmPolicy {
    /// Long-run-average FIT target the controller enforces.
    pub fit_budget: Fit,
    /// Decision period, in 1 µs sampling intervals.
    pub decision_intervals: u32,
    /// Hysteresis band: step back up only when the running average falls
    /// below `fit_budget × (1 − hysteresis)`.
    pub hysteresis: f64,
}

impl DrmPolicy {
    /// A policy enforcing the paper's 4000-FIT (≈30-year) qualification
    /// budget with a 5 % hysteresis band and millisecond-scale decisions.
    #[must_use]
    pub fn qualified_budget() -> Self {
        DrmPolicy {
            fit_budget: Fit::new(4000.0).expect("static budget"), // ramp-lint:allow(panic-hygiene) -- constant is in range
            decision_intervals: 1000,
            hysteresis: 0.05,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.fit_budget.value() <= 0.0 {
            return Err("fit_budget must be positive".into());
        }
        if self.decision_intervals == 0 {
            return Err("decision_intervals must be positive".into());
        }
        if !(0.0..1.0).contains(&self.hysteresis) {
            return Err("hysteresis must be in [0, 1)".into());
        }
        Ok(())
    }
}

/// The DRM state machine: consumes running-average FIT observations and
/// selects a DVS level.
///
/// # Examples
///
/// ```
/// use ramp_core::drm::{DrmController, DrmPolicy, DvsLevel};
/// use ramp_core::{NodeId, TechNode};
/// use ramp_units::Fit;
///
/// let node = TechNode::get(NodeId::N65HighV);
/// let mut ctl = DrmController::new(
///     DrmPolicy::qualified_budget(),
///     DvsLevel::standard_ladder(&node),
/// ).unwrap();
/// // Over budget → throttle down.
/// let before = ctl.level_index();
/// ctl.decide(Fit::new(12_000.0)?);
/// assert!(ctl.level_index() > before);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DrmController {
    policy: DrmPolicy,
    levels: Vec<DvsLevel>,
    current: usize,
    transitions: u64,
}

impl DrmController {
    /// Creates a controller over a ladder of levels ordered from fastest
    /// (index 0) to slowest.
    ///
    /// # Errors
    ///
    /// Returns an error description if the policy is invalid or the ladder
    /// is empty.
    pub fn new(policy: DrmPolicy, levels: Vec<DvsLevel>) -> Result<Self, String> {
        policy.validate()?;
        if levels.is_empty() {
            return Err("DVS ladder must not be empty".into());
        }
        Ok(DrmController {
            policy,
            levels,
            current: 0,
            transitions: 0,
        })
    }

    /// The currently selected level.
    #[must_use]
    pub fn level(&self) -> DvsLevel {
        // ramp-lint:allow(panic-reach) -- `current` is kept below `levels.len()` by every mutation
        self.levels[self.current]
    }

    /// Index of the current level within the ladder (0 = fastest).
    #[must_use]
    pub fn level_index(&self) -> usize {
        self.current
    }

    /// Number of level changes so far.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// One control decision from the current running-average FIT: throttle
    /// down when over budget, relax up when comfortably under.
    pub fn decide(&mut self, running_average: Fit) {
        self.decide_average(running_average.value());
    }

    /// [`DrmController::decide`] on a running average in FIT.
    fn decide_average(&mut self, avg: f64) {
        let budget = self.policy.fit_budget.value();
        if avg > budget && self.current + 1 < self.levels.len() {
            self.current += 1;
            self.transitions += 1;
        } else if avg < budget * (1.0 - self.policy.hysteresis) && self.current > 0 {
            self.current -= 1;
            self.transitions += 1;
        }
    }
}

/// Outcome of a DRM-managed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrmOutcome {
    /// Long-run average FIT under the controller.
    pub managed_fit: Fit,
    /// FIT the same workload reaches with DRM disabled (nominal level).
    pub unmanaged_fit: Fit,
    /// Average throughput relative to nominal (1.0 = no slowdown).
    pub relative_performance: f64,
    /// Fraction of intervals spent at each ladder level.
    pub level_residency: Vec<f64>,
    /// Controller transitions taken.
    pub transitions: u64,
}

impl DrmOutcome {
    /// Whether the controller held the long-run average within `budget`
    /// (with a small numerical allowance for quantised decisions).
    #[must_use]
    pub fn met_budget(&self, budget: Fit) -> bool {
        self.managed_fit.value() <= budget.value() * 1.02
    }
}

/// The DRM controller as the second pass's per-interval level policy: it
/// hands the pipeline the current level's power model and supply, and
/// feeds each interval's instantaneous FIT into the controller's running
/// average.
struct ManagedLevels {
    controller: DrmController,
    /// One power model per ladder level, in ladder order.
    powers: Vec<PowerModel>,
    /// An accumulator with nothing observed, prepared for the node once
    /// per run; each interval prices its rates on a copy.
    empty: RateAccumulator,
    node: TechNode,
    qualification: Qualification,
    fit_sum: f64,
    intervals: u64,
    residency: Vec<u64>,
    performance_sum: f64,
}

impl LevelPolicy for ManagedLevels {
    fn level(&self) -> (&PowerModel, Volts) {
        let power = &self.powers[self.controller.level_index()]; // ramp-lint:allow(panic-reach) -- `powers` has one entry per ladder level and `level_index()` is bounded by the ladder length
        (power, self.controller.level().voltage)
    }

    fn observe(&mut self, ops: &PerStructure<OperatingPoint>) {
        let mut instantaneous = self.empty.clone();
        instantaneous.observe(ops, 1.0);
        let report = self.qualification.fit_report(&instantaneous.finish());
        self.fit_sum += report.total().value();
        self.residency[self.controller.level_index()] += 1; // ramp-lint:allow(panic-reach) -- `residency` has one entry per ladder level and `level_index()` is bounded by the ladder length
        self.performance_sum += self.controller.level().performance_factor(&self.node);
        self.intervals += 1;
        let period = u64::from(self.controller.policy.decision_intervals);
        if self.intervals.is_multiple_of(period) {
            let average = self.fit_sum / self.intervals as f64;
            self.controller.decide_average(average);
        }
    }
}

/// Runs a workload on a node under DRM control and reports the outcome.
///
/// The managed figures come from one ordinary pipeline run of `engine`
/// (its base pipeline, qualification and constant-sink anchor) whose
/// second pass takes each interval's DVS level from a [`DrmController`]
/// over `ladder`. The controller decides every
/// [`DrmPolicy::decision_intervals`]; the first pass runs at the nominal
/// level. The timing pass comes from the timing cache: a workload's
/// activity per cycle is frequency-independent for the fixed pipeline.
/// The unmanaged baseline is the run [`QueryEngine::run_anchored`] makes,
/// so `unmanaged_fit` is exactly what [`QueryEngine::evaluate`] answers
/// for the same workload and node. Both runs share one constant-sink
/// anchor, from one 180 nm reference run that computes only its power.
///
/// # Errors
///
/// Returns [`RampError`] for an invalid policy, ladder or configuration,
/// or a failed thermal solve.
///
/// # Examples
///
/// ```
/// use ramp_core::drm::{run_with_drm, DrmPolicy, DvsLevel};
/// use ramp_core::{NodeId, QueryEngine, StudyConfig, TechNode};
/// use ramp_trace::spec;
///
/// // Qualify at 180 nm as usual…
/// let engine = QueryEngine::calibrate(&StudyConfig::quick().with_benchmarks(&["crafty"])?)?;
/// // …then manage the 65 nm run against the 4000-FIT budget.
/// let node = TechNode::get(NodeId::N65HighV);
/// let outcome = run_with_drm(
///     &engine,
///     &spec::profile("crafty")?,
///     &node,
///     DrmPolicy::qualified_budget(),
///     DvsLevel::standard_ladder(&node),
/// )?;
/// assert!(outcome.managed_fit.value() <= outcome.unmanaged_fit.value());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_with_drm(
    engine: &QueryEngine,
    profile: &BenchmarkProfile,
    node: &TechNode,
    policy: DrmPolicy,
    ladder: Vec<DvsLevel>,
) -> Result<DrmOutcome, RampError> {
    let controller = DrmController::new(policy, ladder).map_err(RampError::InvalidConfiguration)?;
    let cfg = engine.base_pipeline();
    let qualification = engine.qualification();
    // One power-only 180 nm reference run anchors both runs.
    let anchor = engine.reference_power(profile, node, cfg)?;
    let managed_levels = |_nominal| {
        let powers = controller
            .levels
            .iter()
            .map(|&level| power_model(profile, node, cfg, level))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ManagedLevels {
            residency: vec![0; powers.len()],
            controller,
            powers,
            empty: RateAccumulator::new(&engine.models, *node),
            node: *node,
            qualification,
            fit_sum: 0.0,
            intervals: 0,
            performance_sum: 0.0,
        })
    };
    let (managed, levels) =
        run_app_filling_intervals(profile, node, cfg, &engine.models, anchor, &[], managed_levels)?;
    let unmanaged = engine.run(profile, node, cfg, anchor, &[])?;
    let intervals = levels.intervals as f64;
    Ok(DrmOutcome {
        managed_fit: qualification.fit_report(&managed.rates).total(),
        unmanaged_fit: qualification.fit_report(&unmanaged.rates).total(),
        relative_performance: levels.performance_sum / intervals,
        level_residency: levels
            .residency
            .iter()
            .map(|&n| n as f64 / intervals)
            .collect(),
        transitions: levels.controller.transitions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, StudyConfig};
    use ramp_trace::spec;

    /// An engine qualified on crafty alone.
    fn engine() -> QueryEngine {
        let config = StudyConfig::quick().with_benchmarks(&["crafty"]).unwrap();
        QueryEngine::calibrate(&config).unwrap()
    }

    /// Crafty at `node` under `policy` on the standard ladder.
    fn crafty(engine: &QueryEngine, node: NodeId, policy: DrmPolicy) -> DrmOutcome {
        let node = TechNode::get(node);
        let profile = spec::profile("crafty").unwrap();
        let ladder = DvsLevel::standard_ladder(&node);
        run_with_drm(engine, &profile, &node, policy, ladder).unwrap()
    }

    #[test]
    fn ladder_is_ordered_fast_to_slow() {
        let node = TechNode::get(NodeId::N65HighV);
        let ladder = DvsLevel::standard_ladder(&node);
        assert_eq!(ladder.len(), 3);
        for w in ladder.windows(2) {
            assert!(w[1].frequency.value() < w[0].frequency.value());
            assert!(w[1].voltage.value() < w[0].voltage.value());
            assert!(w[1].power_factor(&node) < w[0].power_factor(&node));
        }
        assert!((ladder[0].performance_factor(&node) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controller_throttles_and_relaxes_with_hysteresis() {
        let node = TechNode::get(NodeId::N65HighV);
        let mut ctl = DrmController::new(
            DrmPolicy::qualified_budget(),
            DvsLevel::standard_ladder(&node),
        )
        .unwrap();
        ctl.decide(Fit::new(9000.0).unwrap());
        assert_eq!(ctl.level_index(), 1);
        ctl.decide(Fit::new(9000.0).unwrap());
        assert_eq!(ctl.level_index(), 2);
        // Saturates at the slowest level.
        ctl.decide(Fit::new(9000.0).unwrap());
        assert_eq!(ctl.level_index(), 2);
        // Inside the hysteresis band: hold.
        ctl.decide(Fit::new(3900.0).unwrap());
        assert_eq!(ctl.level_index(), 2);
        // Comfortably under budget: relax.
        ctl.decide(Fit::new(3000.0).unwrap());
        assert_eq!(ctl.level_index(), 1);
        assert_eq!(ctl.transitions(), 3);
    }

    #[test]
    fn policy_validation() {
        assert!(DrmPolicy {
            fit_budget: Fit::ZERO,
            decision_intervals: 10,
            hysteresis: 0.1
        }
        .validate()
        .is_err());
        assert!(DrmPolicy {
            hysteresis: 1.5,
            ..DrmPolicy::qualified_budget()
        }
        .validate()
        .is_err());
        let node = TechNode::reference();
        assert!(DrmController::new(DrmPolicy::qualified_budget(), vec![]).is_err());
        assert!(
            DrmController::new(DrmPolicy::qualified_budget(), vec![DvsLevel::nominal(&node)])
                .is_ok()
        );
    }

    #[test]
    fn drm_reduces_fit_on_an_over_budget_node() {
        // Short traces in the quick config → decide every 10 intervals so
        // the controller actually gets to act.
        let policy = DrmPolicy {
            decision_intervals: 10,
            ..DrmPolicy::qualified_budget()
        };
        let outcome = crafty(&engine(), NodeId::N65HighV, policy);
        assert!(
            outcome.managed_fit.value() < outcome.unmanaged_fit.value(),
            "managed {} vs unmanaged {}",
            outcome.managed_fit,
            outcome.unmanaged_fit
        );
        assert!(outcome.relative_performance < 1.0);
        assert!(outcome.relative_performance > 0.5);
        let total: f64 = outcome.level_residency.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The controller must actually leave the nominal level.
        assert!(outcome.level_residency[0] < 1.0);
    }

    #[test]
    fn managed_outcome_of_the_example_case_is_pinned() {
        // `examples/drm_throttling.rs`: crafty at 65 nm (1.0 V) against a
        // 6000-FIT budget, deciding every 10 intervals.
        let policy = DrmPolicy {
            fit_budget: Fit::new(6000.0).unwrap(),
            decision_intervals: 10,
            hysteresis: 0.05,
        };
        let outcome = crafty(&engine(), NodeId::N65HighV, policy);
        let managed = outcome.managed_fit.value();
        assert_eq!(managed.to_bits(), 0x40c4_807c_b384_eb0e); // 10496.974228491566
        let performance = outcome.relative_performance;
        assert_eq!(performance.to_bits(), 0x3fe7_d70a_3d70_a3e5); // 0.7450000000000015
        assert_eq!(outcome.level_residency, vec![0.1, 0.1, 0.8]);
        assert_eq!(outcome.transitions, 2);
    }

    #[test]
    fn a_one_level_ladder_is_the_plain_evaluation() {
        let engine = engine();
        let node = TechNode::get(NodeId::N65HighV);
        let ladder = vec![DvsLevel::nominal(&node)];
        let profile = spec::profile("crafty").unwrap();
        let policy = DrmPolicy::qualified_budget();
        let outcome = run_with_drm(&engine, &profile, &node, policy, ladder).unwrap();
        let query = engine.query("crafty", NodeId::N65HighV).unwrap();
        let evaluated = engine.evaluate(&query).unwrap().total_fit;
        let managed = outcome.managed_fit.value().to_bits();
        assert_eq!(managed, outcome.unmanaged_fit.value().to_bits());
        assert_eq!(managed, evaluated.value().to_bits());
    }

    #[test]
    fn drm_is_a_no_op_when_already_under_budget() {
        // 180 nm runs at ~4000 FIT; a generous budget keeps DRM idle.
        let policy = DrmPolicy {
            fit_budget: Fit::new(100_000.0).unwrap(),
            ..DrmPolicy::qualified_budget()
        };
        let outcome = crafty(&engine(), NodeId::N180, policy);
        assert_eq!(outcome.transitions, 0);
        assert!((outcome.relative_performance - 1.0).abs() < 1e-9);
        // With no transition the managed run is the plain run.
        assert_eq!(
            outcome.managed_fit.value().to_bits(),
            outcome.unmanaged_fit.value().to_bits()
        );
    }
}
