//! Stress migration (SM): thermo-mechanical stress voiding.
//!
//! Paper Eq. 2: `MTTF_SM ∝ |T₀ − T|^{−m} e^{Ea/kT}` with m = 2.5 and
//! Ea = 0.9 eV for sputtered copper, and T₀ = 500 K (the metal deposition
//! temperature). Rising temperature pulls the rate in two directions: the
//! Arrhenius term accelerates failure exponentially while the shrinking
//! |T₀ − T| stress term slows it; the exponential wins at operating
//! temperatures, so hotter structures fail sooner — just less steeply than
//! under electromigration. Scaling touches SM only through temperature.

use super::{FailureModel, MechanismKernel, MechanismKind};
use crate::{OperatingPoint, TechNode};
use ramp_units::{ActivityFactor, Kelvin, Volts, BOLTZMANN_EV_PER_K};
use serde::{Deserialize, Serialize};

/// Stress-migration failure model.
///
/// # Examples
///
/// ```
/// use ramp_core::mechanisms::{FailureModel, StressMigration};
/// use ramp_core::{OperatingPoint, TechNode};
/// use ramp_units::{ActivityFactor, Kelvin, Volts};
///
/// let sm = StressMigration::default();
/// let op = OperatingPoint::new(Kelvin::new(360.0)?, Volts::new(1.3)?,
///                              ActivityFactor::new(0.5)?);
/// assert!(sm.relative_rate(&op, &TechNode::reference()) > 0.0);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StressMigration {
    /// Stress exponent m (2.5 for copper).
    pub stress_exponent: f64,
    /// Activation energy Ea in eV (0.9).
    pub activation_energy_ev: f64,
    /// Stress-free (deposition) temperature T₀ (500 K for sputtering).
    pub stress_free_temp: Kelvin,
}

impl Default for StressMigration {
    fn default() -> Self {
        StressMigration {
            stress_exponent: 2.5,
            activation_energy_ev: 0.9,
            stress_free_temp: Kelvin::new_const(500.0),
        }
    }
}

impl StressMigration {
    /// This model's kernel. No node parameter enters stress migration, so
    /// the model is its own kernel.
    #[must_use]
    pub fn prepare(&self, _node: &TechNode) -> StressMigration {
        *self
    }
}

impl MechanismKernel for StressMigration {
    type Hoisted = ();

    fn hoist(&self, _voltage: Volts, _activity: ActivityFactor) {}

    fn rate_at(&self, (): (), temperature: Kelvin) -> f64 {
        let t = temperature.value();
        let stress = (self.stress_free_temp.value() - t).abs();
        let arrhenius = (-self.activation_energy_ev / (BOLTZMANN_EV_PER_K * t)).exp();
        stress.powf(self.stress_exponent) * arrhenius
    }
}

impl FailureModel for StressMigration {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Sm
    }

    fn relative_rate(&self, op: &OperatingPoint, node: &TechNode) -> f64 {
        self.prepare(node).rate(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::test_support::typical_op;
    use crate::NodeId;

    fn rate(t: f64) -> f64 {
        StressMigration::default().relative_rate(&typical_op(t), &TechNode::reference())
    }

    #[test]
    fn exponential_term_beats_stress_term() {
        // Despite |T0 − T| shrinking, the rate must rise with temperature
        // throughout the operating range.
        let mut prev = 0.0;
        for t in [330.0, 345.0, 360.0, 375.0, 390.0] {
            let r = rate(t);
            assert!(r > prev, "rate fell at {t} K");
            prev = r;
        }
    }

    #[test]
    fn matches_hand_computation() {
        let t = 360.0_f64;
        let expect = (500.0_f64 - t).powf(2.5) * (-0.9 / (BOLTZMANN_EV_PER_K * t)).exp();
        assert!((rate(t) - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn growth_is_gentler_than_em_between_nodes() {
        // The paper observes SM's 65 nm jump is smaller than EM's because
        // of the |T0−T|^{-m} MTTF term. Compare pure temperature response.
        let sm_ratio = rate(371.0) / rate(356.0);
        let em = super::super::Electromigration::default();
        let em_hot = em.relative_rate(&typical_op(371.0), &TechNode::get(NodeId::N180));
        let em_cool = em.relative_rate(&typical_op(356.0), &TechNode::get(NodeId::N180));
        assert!(sm_ratio < em_hot / em_cool);
        assert!(sm_ratio > 1.0);
    }

    #[test]
    fn independent_of_node_parameters() {
        let sm = StressMigration::default();
        let op = typical_op(360.0);
        let r1 = sm.relative_rate(&op, &TechNode::get(NodeId::N180));
        let r2 = sm.relative_rate(&op, &TechNode::get(NodeId::N65LowV));
        assert_eq!(r1, r2);
    }
}
