//! Time-dependent dielectric breakdown (TDDB, gate-oxide breakdown).
//!
//! Base model (paper Eq. 3, after Wu et al., IBM):
//! `MTTF_TDDB ∝ (1/V)^{a−bT} · e^{(X + Y/T + Z·T)/kT}`
//! with fitting constants a = 78, b = −0.081, X = 0.759 eV,
//! Y = −66.8 eV·K, Z = −8.37e−4 eV/K.
//!
//! Scaling (paper Eq. 5) multiplies in:
//!
//! * **Oxide thinning** — gate tunnelling current grows one decade per
//!   0.22 nm of thinning, and wear-out accelerates proportionally, so
//!   MTTF shrinks by `10^{Δt_ox / s}`. The paper's §3 states s = 0.22 nm
//!   per decade of `I_leak`; combined with the published (a, b) voltage
//!   exponent the paper's own Figure-5 trends are only reproduced with an
//!   *effective* MTTF sensitivity of s ≈ 0.11–0.14 nm/decade (see
//!   DESIGN.md §5). We default to the calibrated 0.1172 and expose the
//!   knob.
//! * **Gate area** — breakdown is a weakest-link process, so MTTF scales
//!   inversely with total gate-oxide area. We implement the physical
//!   direction (smaller scaled area ⇒ longer life); the paper's Eq. 5
//!   prints the ratio inverted (DESIGN.md §5).

use super::MechanismKernel;
use crate::TechNode;
use ramp_units::{ActivityFactor, Kelvin, Volts, BOLTZMANN_EV_PER_K};
use serde::{Deserialize, Serialize};

/// Gate-oxide breakdown failure model.
///
/// # Examples
///
/// ```
/// use ramp_core::mechanisms::{DielectricBreakdown, MechanismKernel};
/// use ramp_core::{NodeId, OperatingPoint, TechNode};
/// use ramp_units::{ActivityFactor, Kelvin, Volts};
///
/// let tddb = DielectricBreakdown::default();
/// let op = OperatingPoint::new(Kelvin::new(356.0)?, Volts::new(1.3)?,
///                              ActivityFactor::new(0.5)?);
/// assert!(tddb.prepare(&TechNode::get(NodeId::N180)).rate(&op) > 0.0);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DielectricBreakdown {
    /// Voltage-exponent constant a.
    pub a: f64,
    /// Voltage-exponent temperature coefficient b (1/K).
    pub b: f64,
    /// Arrhenius fitting constant X (eV).
    pub x_ev: f64,
    /// Arrhenius fitting constant Y (eV·K).
    pub y_ev_k: f64,
    /// Arrhenius fitting constant Z (eV/K).
    pub z_ev_per_k: f64,
    /// Oxide-thickness MTTF sensitivity: nanometres of thinning per decade
    /// of lifetime reduction.
    pub nm_per_decade: f64,
}

impl Default for DielectricBreakdown {
    /// The **calibrated** constant set (see module docs): the published
    /// Arrhenius constants, with the voltage-exponent slope `b` and the
    /// oxide sensitivity `nm_per_decade` refitted so that the model
    /// reproduces the paper's own reported 180 nm → 65 nm TDDB trends at
    /// both supply points (+106/127 % at 0.9 V, +667/812 % at 1.0 V) —
    /// which the published `(a, b, 0.22)` set cannot (it predicts a
    /// 10⁵–10¹²× swing; DESIGN.md §5).
    fn default() -> Self {
        DielectricBreakdown {
            a: 11.5, // effective voltage exponent implied by the paper's
            b: 0.0,  // own 65 nm claims at both supply points
            nm_per_decade: 0.5525,
            ..Self::published_wu()
        }
    }
}

impl DielectricBreakdown {
    /// The constant set exactly as printed in the paper (Wu et al. fit):
    /// a = 78, b = −0.081, X = 0.759 eV, Y = −66.8 eV·K, Z = −8.37e−4
    /// eV/K, and one decade of lifetime per 0.22 nm of oxide thinning.
    ///
    /// Provided for reference and sensitivity studies; with these
    /// constants the voltage term alone spans ~12 orders of magnitude
    /// between 1.3 V and 0.9 V, which contradicts the paper's own Figure-5
    /// trends (see module docs).
    #[must_use]
    pub fn published_wu() -> Self {
        DielectricBreakdown {
            a: 78.0,
            b: -0.081,
            x_ev: 0.759,
            y_ev_k: -66.8,
            z_ev_per_k: -8.37e-4,
            nm_per_decade: 0.22,
        }
    }

    /// The dimensionless voltage exponent `a − b·T` at temperature `t`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless exponent; no newtype applies
    pub fn voltage_exponent(&self, t: Kelvin) -> f64 {
        self.a - self.b * t.value()
    }

    /// The dimensionless Arrhenius exponent `(X + Y/T + Z·T)/(kT)` at
    /// temperature `t`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless exponent; no newtype applies
    pub fn arrhenius_exponent(&self, t: Kelvin) -> f64 {
        let t = t.value();
        (self.x_ev + self.y_ev_k / t + self.z_ev_per_k * t) / (BOLTZMANN_EV_PER_K * t)
    }

    /// This model with `node`'s oxide term `ln 10^{Δtox/s}` and gate-area
    /// term `ln A_rel` evaluated.
    #[must_use]
    pub fn prepare(&self, node: &TechNode) -> TddbKernel {
        TddbKernel {
            model: *self,
            ln_tox: node.tox_reduction_nm() / self.nm_per_decade * std::f64::consts::LN_10,
            ln_area: node.area_rel.ln(),
        }
    }
}

/// [`DielectricBreakdown`] prepared for one node. Hoists `ln V`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TddbKernel {
    model: DielectricBreakdown,
    ln_tox: f64,
    ln_area: f64,
}

impl MechanismKernel for TddbKernel {
    type Hoisted = f64;

    fn hoist(&self, voltage: Volts, _activity: ActivityFactor) -> f64 {
        voltage.value().ln()
    }

    fn rate_at(&self, ln_v: f64, t: Kelvin) -> f64 {
        // Rate = 1/MTTF: V^{a−bT} · e^{−(X+Y/T+ZT)/kT} · 10^{Δtox/s} · A_rel.
        let ln_voltage = self.model.voltage_exponent(t) * ln_v;
        let ln_arrhenius = -self.model.arrhenius_exponent(t);
        (ln_voltage + ln_arrhenius + self.ln_tox + self.ln_area).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::test_support::typical_op;
    use crate::NodeId;
    use ramp_units::Volts;

    fn rate(t: f64, v: f64, id: NodeId) -> f64 {
        let mut op = typical_op(t);
        op.voltage = Volts::new(v).unwrap();
        DielectricBreakdown::default()
            .prepare(&TechNode::get(id))
            .rate(&op)
    }

    #[test]
    fn temperature_response_matches_constants() {
        // The model couples temperature into both exponents; the
        // 340 → 380 K ratio must equal the hand-computed value (≈4 with
        // the calibrated set, i.e. an effective activation energy near
        // 0.45 eV from the published Arrhenius constants).
        let m = DielectricBreakdown::default();
        let r1 = rate(340.0, 1.3, NodeId::N180);
        let r2 = rate(380.0, 1.3, NodeId::N180);
        let k = |v| Kelvin::new(v).unwrap();
        let expect = ((m.voltage_exponent(k(380.0)) - m.voltage_exponent(k(340.0)))
            * 1.3f64.ln()
            + m.arrhenius_exponent(k(340.0))
            - m.arrhenius_exponent(k(380.0)))
        .exp();
        assert!(((r2 / r1) / expect - 1.0).abs() < 1e-9);
        assert!(r2 / r1 > 3.0, "strongly temperature-accelerated");
    }

    #[test]
    fn voltage_raises_rate_steeply() {
        let m = DielectricBreakdown::default();
        let low = rate(356.0, 1.0, NodeId::N180);
        let high = rate(356.0, 1.3, NodeId::N180);
        let expect = (1.3f64 / 1.0).powf(m.voltage_exponent(Kelvin::new(356.0).unwrap()));
        assert!(((high / low) / expect - 1.0).abs() < 1e-9);
        assert!(high / low > 10.0, "voltage leverage {}", high / low);
    }

    #[test]
    fn oxide_thinning_dominates_scaling() {
        // Pure t_ox effect at fixed voltage and temperature: 65 nm must be
        // far above 180 nm even after the beneficial gate-area shrink.
        let r180 = rate(356.0, 1.0, NodeId::N180);
        let r65 = rate(356.0, 1.0, NodeId::N65HighV);
        assert!(r65 / r180 > 50.0, "tox term should dominate, got {}", r65 / r180);
    }

    #[test]
    fn published_constants_have_enormous_voltage_swing() {
        // Documents why the published set needs recalibration: its voltage
        // term alone spans many orders of magnitude over 0.9 → 1.3 V.
        let m = DielectricBreakdown::published_wu();
        let op_low = {
            let mut op = typical_op(356.0);
            op.voltage = Volts::new(0.9).unwrap();
            op
        };
        let op_high = {
            let mut op = typical_op(356.0);
            op.voltage = Volts::new(1.3).unwrap();
            op
        };
        let kernel = m.prepare(&TechNode::get(NodeId::N180));
        let swing = kernel.rate(&op_high) / kernel.rate(&op_low);
        assert!(swing > 1e10, "published-set voltage swing only {swing}");
    }

    #[test]
    fn area_term_follows_physical_direction() {
        let m = DielectricBreakdown::default();
        let mut n65 = TechNode::get(NodeId::N65HighV);
        let op = typical_op(356.0);
        let r_small = m.prepare(&n65).rate(&op);
        n65.area_rel = 1.0; // counterfactual: no area shrink
        let r_big = m.prepare(&n65).rate(&op);
        assert!(
            r_big > r_small,
            "more gate-oxide area must mean more weakest links"
        );
        assert!(((r_big / r_small) - 1.0 / 0.16).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_65nm_ratio_is_in_paper_band() {
        // With the node's own voltages and the observed ~+10 K average
        // temperature rise, the 180 → 65 nm (1.0 V) TDDB rate ratio must
        // land near the paper's +667 % (FP) / +812 % (INT) band.
        let r180 = rate(356.0, 1.3, NodeId::N180);
        let r65 = rate(366.0, 1.0, NodeId::N65HighV);
        let ratio = r65 / r180;
        assert!(
            (4.0..20.0).contains(&ratio),
            "ratio {ratio} outside the plausible paper band"
        );
    }

    #[test]
    fn intermediate_node_shape_is_a_documented_deviation() {
        // The paper's Figure 5 shows TDDB *dipping* from 180 to 130 nm.
        // No constant set can produce that dip while also matching the
        // paper's two explicit 65 nm claims (DESIGN.md §5): the dip needs
        // a voltage exponent ≥ ~18, the 0.9 V point needs ≤ ~12. The
        // calibrated set prioritises the quantitative 65 nm claims, so at
        // 130 nm it rises moderately instead of dipping — assert that the
        // deviation stays moderate (well under the 65 nm growth).
        let r180 = rate(356.0, 1.3, NodeId::N180);
        let r130 = rate(359.0, 1.1, NodeId::N130);
        let r65 = rate(366.0, 1.0, NodeId::N65HighV);
        assert!(r130 / r180 < 3.0, "130 nm ratio {}", r130 / r180);
        assert!(r130 < r65, "130 nm must stay well below 65 nm");
    }
}
