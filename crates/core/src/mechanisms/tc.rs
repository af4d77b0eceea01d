//! Thermal cycling (TC): fatigue at the package / die interface.
//!
//! Coffin–Manson form (paper Eq. 4):
//! `MTTF_TC ∝ (1 / (T_average − T_ambient))^q` with q = 2.35 for the
//! package. RAMP models only the *large* low-frequency cycles (power
//! up/down between the ambient baseline and the structure's average
//! operating temperature); validated models for small high-frequency
//! cycles do not exist. Scaling affects TC only through temperature, and
//! with a power-law rather than exponential dependence its growth is the
//! gentlest of the four mechanisms.

use super::MechanismKernel;
use crate::TechNode;
use ramp_units::{ActivityFactor, Kelvin, Volts};
use serde::{Deserialize, Serialize};

/// Thermal-cycling failure model.
///
/// # Examples
///
/// ```
/// use ramp_core::mechanisms::{MechanismKernel, ThermalCycling};
/// use ramp_core::{OperatingPoint, TechNode};
/// use ramp_units::{ActivityFactor, Kelvin, Volts};
///
/// let tc = ThermalCycling::default();
/// let op = OperatingPoint::new(Kelvin::new(356.0)?, Volts::new(1.3)?,
///                              ActivityFactor::new(0.5)?);
/// assert!(tc.prepare(&TechNode::reference()).rate(&op) > 0.0);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalCycling {
    /// Coffin–Manson exponent q (2.35 for the package).
    pub coffin_manson_exponent: f64,
    /// Ambient temperature the large cycle swings down to.
    pub ambient: Kelvin,
}

impl Default for ThermalCycling {
    fn default() -> Self {
        ThermalCycling {
            coffin_manson_exponent: 2.35,
            ambient: Kelvin::new_const(318.15),
        }
    }
}

impl ThermalCycling {
    /// This model's kernel. No node parameter enters thermal cycling, so
    /// the model is its own kernel.
    #[must_use]
    pub fn prepare(&self, _node: &TechNode) -> ThermalCycling {
        *self
    }
}

impl MechanismKernel for ThermalCycling {
    type Hoisted = ();

    fn hoist(&self, _voltage: Volts, _activity: ActivityFactor) {}

    fn rate_at(&self, (): (), temperature: Kelvin) -> f64 {
        // The engine feeds the running-average temperature through the
        // operating point; a structure cooler than ambient never cycles.
        let swing = (temperature - self.ambient).max(0.0);
        swing.powf(self.coffin_manson_exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::test_support::typical_op;
    use crate::NodeId;

    fn rate(t: f64) -> f64 {
        ThermalCycling::default().rate(&typical_op(t))
    }

    #[test]
    fn power_law_in_the_swing() {
        let r1 = rate(338.15); // swing 20 K
        let r2 = rate(358.15); // swing 40 K
        assert!(((r2 / r1) - 2.0f64.powf(2.35)).abs() < 1e-9);
    }

    #[test]
    fn below_ambient_is_zero() {
        assert_eq!(rate(300.0), 0.0);
    }

    #[test]
    fn gentlest_mechanism_between_nodes() {
        // +10 K on a ~38 K swing: TC grows by (48/38)^2.35 ≈ 1.73, far
        // below the exponential mechanisms' growth over the same ΔT.
        let ratio = rate(366.0) / rate(356.0);
        assert!((1.3..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn node_independent_at_fixed_temperature() {
        let tc = ThermalCycling::default();
        let op = typical_op(356.0);
        assert_eq!(
            tc.prepare(&TechNode::get(NodeId::N180)).rate(&op),
            tc.prepare(&TechNode::get(NodeId::N65HighV)).rate(&op),
        );
    }
}
