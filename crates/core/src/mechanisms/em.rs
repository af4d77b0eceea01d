//! Electromigration (EM) in copper interconnects.
//!
//! Black's-equation form (paper Eq. 1): `MTTF_EM ∝ J^{−n} e^{Ea/kT}` with
//! n = 1.1 and Ea = 0.9 eV for the damascene copper process RAMP models.
//! The structure's current density is `J = p · J_max(node)`, the activity
//! factor times the node's maximum allowed interconnect current density
//! (Table 4).
//!
//! Scaling (paper §3): electromigration in copper is dominated by the
//! interface between the line's top surface and the dielectric cap; the
//! relative flux through that interface grows as δ/h while the failure
//! void size shrinks with the via width w, so applying a linear scaling
//! factor κ multiplies lifetime by κ² (both w and h shrink; the interface
//! thickness δ does not). The failure-rate multiplier is therefore
//! `1/κ²`.

use super::MechanismKernel;
use crate::TechNode;
use ramp_units::{ActivityFactor, CurrentDensity, Kelvin, Volts};
use serde::{Deserialize, Serialize};

/// Electromigration failure model.
///
/// # Examples
///
/// ```
/// use ramp_core::mechanisms::{Electromigration, MechanismKernel};
/// use ramp_core::{NodeId, OperatingPoint, TechNode};
/// use ramp_units::{ActivityFactor, Kelvin, Volts};
///
/// let em = Electromigration::default();
/// let op = OperatingPoint::new(Kelvin::new(356.0)?, Volts::new(1.3)?,
///                              ActivityFactor::new(0.5)?);
/// let rate = em.prepare(&TechNode::get(NodeId::N180)).rate(&op);
/// assert!(rate > 0.0);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Electromigration {
    /// Current-density exponent n (1.1 for copper).
    pub current_exponent: f64,
    /// Activation energy Ea in eV (0.9 for copper).
    pub activation_energy_ev: f64,
    /// Geometry exponent g: lifetime scales as κ^g under a linear scaling
    /// factor κ. The paper's derivation gives g = 2 (via width × line
    /// height); measured via-limited copper lifetimes scale between κ¹ and
    /// κ², and reproducing the paper's own reported EM trends alongside
    /// its SM-implied temperature trajectory requires an effective
    /// g ≈ 1.6 (DESIGN.md §5). [`Electromigration::published`] keeps g = 2.
    pub geometry_exponent: f64,
}

impl Default for Electromigration {
    /// Calibrated parameter set (g = 1.6; see `geometry_exponent`).
    fn default() -> Self {
        Electromigration {
            geometry_exponent: 1.6,
            ..Self::published()
        }
    }
}

impl Electromigration {
    /// The parameter set exactly as derived in the paper: n = 1.1,
    /// Ea = 0.9 eV, and the full κ² interface-flux geometry penalty.
    #[must_use]
    pub fn published() -> Self {
        Electromigration {
            current_exponent: 1.1,
            activation_energy_ev: 0.9,
            geometry_exponent: 2.0,
        }
    }

    /// This model with `node`'s geometry penalty `κ^{−g}` evaluated.
    #[must_use]
    pub fn prepare(&self, node: &TechNode) -> EmKernel {
        EmKernel {
            model: *self,
            j_max: node.j_max,
            geometry: node.scale_factor.powf(-self.geometry_exponent),
        }
    }
}

/// [`Electromigration`] prepared for one node. Hoists `J^n`, the
/// current-density term at one activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmKernel {
    model: Electromigration,
    j_max: CurrentDensity,
    geometry: f64,
}

impl EmKernel {
    /// The activation energy Eₐ (eV) of the Arrhenius term.
    pub(crate) fn activation_energy_ev(&self) -> f64 {
        self.model.activation_energy_ev
    }

    /// `J^n` at `activity`: the only term that depends on neither the
    /// supply nor the temperature.
    pub(crate) fn current_term(&self, activity: ActivityFactor) -> f64 {
        let j = self.j_max.at_activity(activity).value();
        j.powf(self.model.current_exponent)
    }

    /// The rate from its current term and its Arrhenius factor
    /// ([`super::arrhenius`] at this kernel's Eₐ).
    pub(crate) fn rate_from(&self, current_term: f64, arrhenius: f64) -> f64 {
        current_term * arrhenius * self.geometry
    }
}

impl MechanismKernel for EmKernel {
    type Hoisted = f64;

    fn hoist(&self, _voltage: Volts, activity: ActivityFactor) -> f64 {
        self.current_term(activity)
    }

    fn rate_at(&self, current_term: f64, temperature: Kelvin) -> f64 {
        let arrhenius = super::arrhenius(self.model.activation_energy_ev, temperature);
        self.rate_from(current_term, arrhenius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::test_support::typical_op;
    use crate::NodeId;
    use ramp_units::{ActivityFactor, BOLTZMANN_EV_PER_K};

    fn rate(em: &Electromigration, temp: f64, act: f64, id: NodeId) -> f64 {
        let mut op = typical_op(temp);
        op.activity = ActivityFactor::new(act).unwrap();
        em.prepare(&TechNode::get(id)).rate(&op)
    }

    #[test]
    fn rate_grows_with_activity() {
        let em = Electromigration::default();
        let low = rate(&em, 356.0, 0.2, NodeId::N180);
        let high = rate(&em, 356.0, 0.8, NodeId::N180);
        // J^1.1: quadrupling J should roughly quadruple the rate.
        assert!((high / low - 4.0f64.powf(1.1)).abs() < 1e-9);
    }

    #[test]
    fn arrhenius_factor_matches_hand_computation() {
        let em = Electromigration::default();
        let r1 = rate(&em, 356.0, 0.5, NodeId::N180);
        let r2 = rate(&em, 366.0, 0.5, NodeId::N180);
        let expect = (0.9 / BOLTZMANN_EV_PER_K * (1.0 / 356.0 - 1.0 / 366.0)).exp();
        assert!(((r2 / r1) - expect).abs() < 1e-9);
    }

    #[test]
    fn published_geometry_penalty_is_inverse_kappa_squared() {
        let em = Electromigration::published();
        // Same temperature and activity; isolate geometry + J_max changes.
        let r180 = rate(&em, 356.0, 0.5, NodeId::N180);
        let r65 = rate(&em, 356.0, 0.5, NodeId::N65HighV);
        let j_term = (4.0f64 / 9.0).powf(1.1);
        let geo_term = 1.0 / (0.392f64 * 0.392);
        assert!(((r65 / r180) - j_term * geo_term).abs() < 1e-9);
    }

    #[test]
    fn calibrated_geometry_penalty_is_softer_but_real() {
        let published = Electromigration::published();
        let calibrated = Electromigration::default();
        let ratio = |em: &Electromigration| {
            rate(em, 356.0, 0.5, NodeId::N65HighV) / rate(em, 356.0, 0.5, NodeId::N180)
        };
        let r_pub = ratio(&published);
        let r_cal = ratio(&calibrated);
        assert!(r_cal > 1.0, "scaling must still hurt EM: {r_cal}");
        assert!(r_cal < r_pub, "calibrated penalty below published κ²");
    }

    #[test]
    fn lower_jmax_at_scaled_nodes_partially_compensates() {
        let em = Electromigration::default();
        let r180 = rate(&em, 356.0, 0.5, NodeId::N180);
        let r130 = rate(&em, 356.0, 0.5, NodeId::N130);
        // At equal temperature the 130 nm rate rises less than the bare κ²
        // penalty (2.04×) because J_max drops from 9.0 to 6.0.
        let ratio = r130 / r180;
        assert!(ratio > 1.0 && ratio < 2.04, "ratio {ratio}");
    }

    #[test]
    fn idle_structure_still_has_finite_rate() {
        let em = Electromigration::default();
        let r = rate(&em, 356.0, 0.0, NodeId::N180);
        assert!(r.is_finite() && r > 0.0);
    }
}
