//! The combined power model: dynamic + leakage per structure.

use crate::{DynamicPowerModel, LeakageModel};
use ramp_microarch::PerStructure;
use ramp_units::{ActivityFactor, Kelvin, Watts};
use serde::{Deserialize, Serialize};

/// One interval's power result, per structure and in aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Dynamic power per structure.
    pub dynamic: PerStructure<Watts>,
    /// Leakage power per structure.
    pub leakage: PerStructure<Watts>,
}

impl PowerSample {
    /// Total (dynamic + leakage) power of one structure.
    #[must_use]
    pub fn structure_total(&self, s: ramp_microarch::Structure) -> Watts {
        // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
        self.dynamic[s] + self.leakage[s]
    }

    /// Per-structure total power.
    #[must_use]
    pub fn per_structure_total(&self) -> PerStructure<Watts> {
        PerStructure::from_fn(|s| self.structure_total(s))
    }

    /// Total dynamic power.
    #[must_use]
    pub fn dynamic_total(&self) -> Watts {
        total(&self.dynamic)
    }

    /// Total leakage power.
    #[must_use]
    pub fn leakage_total(&self) -> Watts {
        total(&self.leakage)
    }

    /// Total chip power.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.dynamic_total() + self.leakage_total()
    }
}

/// The sum of per-structure powers, in structure order.
fn total(powers: &PerStructure<Watts>) -> Watts {
    powers.as_array().iter().copied().sum()
}

/// The activity-only half of a [`PowerSample`]: one interval's dynamic
/// power per structure and its total ([`PowerModel::dynamic_sample`]).
/// It depends on the model and the activity factors alone, so a run that
/// replays an activity trace can build it once per trace interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicSample {
    per_structure: PerStructure<Watts>,
    total: Watts,
}

impl DynamicSample {
    /// Dynamic power per structure: [`PowerSample::dynamic`].
    #[must_use]
    pub fn per_structure(&self) -> &PerStructure<Watts> {
        &self.per_structure
    }

    /// Total dynamic power: [`PowerSample::dynamic_total`].
    #[must_use]
    pub fn total(&self) -> Watts {
        self.total
    }
}

/// Full power model for one technology node: dynamic + leakage, with an
/// optional benchmark-specific residual multiplier applied to the dynamic
/// component (see `ramp_trace::spec::power_residual`).
///
/// # Examples
///
/// ```
/// use ramp_power::{DynamicPowerModel, DynamicScaling, LeakageModel, PowerModel, StructureBudgets};
/// use ramp_microarch::PerStructure;
/// use ramp_units::{ActivityFactor, Kelvin, PowerDensity, SquareMillimeters};
///
/// let model = PowerModel::new(
///     DynamicPowerModel::new(StructureBudgets::power4_reference(), DynamicScaling::REFERENCE),
///     LeakageModel::new(PowerDensity::new(0.04)?, SquareMillimeters::new(81.0)?, 0.017).unwrap(),
///     1.0,
/// ).unwrap();
/// let activity = PerStructure::from_fn(|_| ActivityFactor::new(0.35).unwrap());
/// let temps = PerStructure::from_fn(|_| Kelvin::new(355.0).unwrap());
/// let sample = model.sample(&activity, &temps);
/// assert!(sample.total().value() > 20.0);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    dynamic: DynamicPowerModel,
    leakage: LeakageModel,
    residual: f64,
}

impl PowerModel {
    /// Creates the combined model. `residual` multiplies the dynamic power
    /// (1.0 = structural model used as-is).
    ///
    /// # Errors
    ///
    /// Returns an error description if `residual` is not finite and
    /// positive.
    // ramp-lint:allow(unit-safety) -- residual is a dimensionless multiplier
    pub fn new(
        dynamic: DynamicPowerModel,
        leakage: LeakageModel,
        residual: f64,
    ) -> Result<Self, String> {
        if !residual.is_finite() || residual <= 0.0 {
            return Err(format!(
                "power residual must be finite and positive, got {residual}"
            ));
        }
        Ok(PowerModel {
            dynamic,
            leakage,
            residual,
        })
    }

    /// Computes one interval's power from activity factors and the
    /// structure temperatures of the *previous* interval (the
    /// leakage-temperature feedback loop of the paper's methodology).
    ///
    /// It is the two halves a replaying run can split: the dynamic half
    /// ([`PowerModel::dynamic_sample`]) depends on activity alone, and
    /// the leakage half on temperature alone ([`LeakageModel::power`],
    /// or [`crate::PreparedLeakage::power`] with the constant term
    /// computed once).
    #[must_use]
    pub fn sample(
        &self,
        activity: &PerStructure<ActivityFactor>,
        temps: &PerStructure<Kelvin>,
    ) -> PowerSample {
        PowerSample {
            dynamic: self.dynamic_power(activity),
            leakage: self.leakage.power(temps),
        }
    }

    /// The dynamic half of [`PowerModel::sample`] with its total, the
    /// same bits as the sample's `dynamic` and `dynamic_total()`.
    #[must_use]
    pub fn dynamic_sample(&self, activity: &PerStructure<ActivityFactor>) -> DynamicSample {
        let per_structure = self.dynamic_power(activity);
        DynamicSample {
            total: total(&per_structure),
            per_structure,
        }
    }

    /// Per-structure dynamic power, the residual applied.
    fn dynamic_power(&self, activity: &PerStructure<ActivityFactor>) -> PerStructure<Watts> {
        let mut dynamic = self.dynamic.power(activity);
        for p in &mut dynamic.0 {
            *p = p.scaled(self.residual);
        }
        dynamic
    }

    /// The dynamic sub-model.
    #[must_use]
    pub fn dynamic(&self) -> &DynamicPowerModel {
        &self.dynamic
    }

    /// The leakage sub-model.
    #[must_use]
    pub fn leakage(&self) -> &LeakageModel {
        &self.leakage
    }

    /// The benchmark residual multiplier.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless multiplier
    pub fn residual(&self) -> f64 {
        self.residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicScaling, StructureBudgets};
    use ramp_microarch::Structure;
    use ramp_units::{PowerDensity, SquareMillimeters};

    fn model(residual: f64) -> PowerModel {
        PowerModel::new(
            DynamicPowerModel::new(
                StructureBudgets::power4_reference(),
                DynamicScaling::REFERENCE,
            ),
            LeakageModel::new(
                PowerDensity::new(0.04).unwrap(),
                SquareMillimeters::new(81.0).unwrap(),
                0.017,
            )
            .unwrap(),
            residual,
        )
        .unwrap()
    }

    fn uniform_activity(p: f64) -> PerStructure<ActivityFactor> {
        PerStructure::from_fn(|_| ActivityFactor::new(p).unwrap())
    }

    fn uniform_temp(t: f64) -> PerStructure<Kelvin> {
        PerStructure::from_fn(|_| Kelvin::new(t).unwrap())
    }

    #[test]
    fn totals_decompose() {
        let s = model(1.0).sample(&uniform_activity(0.5), &uniform_temp(360.0));
        let total: f64 = Structure::ALL
            .iter()
            .map(|&st| s.structure_total(st).value())
            .sum();
        assert!((total - s.total().value()).abs() < 1e-9);
        assert!((s.total().value() - s.dynamic_total().value() - s.leakage_total().value()).abs() < 1e-9);
    }

    #[test]
    fn residual_scales_dynamic_only() {
        let a = uniform_activity(0.5);
        let t = uniform_temp(360.0);
        let base = model(1.0).sample(&a, &t);
        let scaled = model(0.8).sample(&a, &t);
        assert!((scaled.dynamic_total().value() / base.dynamic_total().value() - 0.8).abs() < 1e-12);
        assert_eq!(scaled.leakage_total(), base.leakage_total());
    }

    #[test]
    fn leakage_feedback_visible_in_sample() {
        let a = uniform_activity(0.3);
        let cool = model(1.0).sample(&a, &uniform_temp(340.0));
        let hot = model(1.0).sample(&a, &uniform_temp(380.0));
        assert!(hot.leakage_total().value() > cool.leakage_total().value());
        assert_eq!(hot.dynamic_total(), cool.dynamic_total());
    }

    #[test]
    fn split_halves_rebuild_the_sample_bit_for_bit() {
        let m = model(0.93);
        let a = PerStructure::from_fn(|s| ActivityFactor::new(0.05 + 0.13 * s.index() as f64).unwrap());
        let t = PerStructure::from_fn(|s| Kelvin::new(341.0 + 3.7 * s.index() as f64).unwrap());
        let sample = m.sample(&a, &t);
        let dynamic = m.dynamic_sample(&a);
        let rebuilt = PowerSample {
            dynamic: *dynamic.per_structure(),
            leakage: m.leakage().prepare().power(&t),
        };
        assert_eq!(rebuilt, sample);
        assert_eq!(dynamic.total().value().to_bits(), sample.dynamic_total().value().to_bits());
    }

    #[test]
    fn rejects_bad_residual() {
        let d = DynamicPowerModel::new(
            StructureBudgets::power4_reference(),
            DynamicScaling::REFERENCE,
        );
        let l = LeakageModel::new(
            PowerDensity::new(0.04).unwrap(),
            SquareMillimeters::new(81.0).unwrap(),
            0.017,
        )
        .unwrap();
        assert!(PowerModel::new(d, l, 0.0).is_err());
    }
}
