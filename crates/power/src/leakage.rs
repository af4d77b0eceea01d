//! Leakage power with exponential temperature dependence.
//!
//! The paper models leakage as an area-proportional density, specified at
//! 383 K, that grows exponentially with temperature:
//! `P(T) = P(383 K) · e^{β (T − 383)}` with β = 0.017 (from Heo et al.).
//! Table 4 gives the per-node density under aggressive leakage control
//! (0.04 W/mm² at 180 nm up to 0.60 W/mm² at 65 nm / 1.0 V).

use ramp_microarch::{PerStructure, Structure};
use ramp_units::{Kelvin, PowerDensity, SquareMillimeters, Watts};
use serde::{Deserialize, Serialize};

/// Reference temperature at which leakage densities are specified.
pub const LEAKAGE_REFERENCE_TEMP: Kelvin = Kelvin::new_const(383.0);

/// The paper's leakage-temperature curve-fitting constant β (1/K).
pub const DEFAULT_BETA: f64 = 0.017;

/// Leakage-power model for one technology node.
///
/// # Examples
///
/// ```
/// use ramp_power::LeakageModel;
/// use ramp_units::{Kelvin, PowerDensity, SquareMillimeters};
///
/// let m = LeakageModel::new(
///     PowerDensity::new(0.04)?,            // 180 nm density at 383 K
///     SquareMillimeters::new(81.0)?,       // 9 mm × 9 mm core
///     0.017,
/// ).unwrap();
/// let at_ref = m.total(Kelvin::new(383.0)?);
/// assert!((at_ref.value() - 3.24).abs() < 1e-9); // 0.04 × 81
/// let hotter = m.total(Kelvin::new(393.0)?);
/// assert!(hotter.value() > at_ref.value());
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakageModel {
    density_at_ref: PowerDensity,
    core_area: SquareMillimeters,
    beta: f64,
}

impl LeakageModel {
    /// Creates a model from a node's leakage density (at 383 K), the node's
    /// core area, and the temperature coefficient β.
    ///
    /// # Errors
    ///
    /// Returns an error description if β is not finite and non-negative.
    // ramp-lint:allow(unit-safety) -- beta is an empirical exponent coefficient; no newtype applies
    pub fn new(
        density_at_ref: PowerDensity,
        core_area: SquareMillimeters,
        beta: f64,
    ) -> Result<Self, String> {
        if !beta.is_finite() || beta < 0.0 {
            return Err(format!("beta must be finite and non-negative, got {beta}"));
        }
        Ok(LeakageModel {
            density_at_ref,
            core_area,
            beta,
        })
    }

    /// Temperature multiplier `e^{β (T − 383)}`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless leakage multiplier
    pub fn temperature_factor(&self, t: Kelvin) -> f64 {
        temperature_factor(self.beta, t)
    }

    /// Leakage power of one structure at the reference temperature: the
    /// density times the structure's floorplan share of the core area.
    fn at_reference(&self, s: Structure) -> Watts {
        self.density_at_ref * self.core_area.scaled(s.area_fraction())
    }

    /// Leakage power of one structure at temperature `t`, using the
    /// floorplan area fractions.
    #[must_use]
    pub fn structure_power(&self, s: Structure, t: Kelvin) -> Watts {
        self.at_reference(s).scaled(self.temperature_factor(t))
    }

    /// Per-structure leakage for a full temperature map.
    #[must_use]
    pub fn power(&self, temps: &PerStructure<Kelvin>) -> PerStructure<Watts> {
        self.prepare().power(temps)
    }

    /// The model with its temperature-independent term computed once:
    /// each structure's leakage at the reference temperature.
    #[must_use]
    pub fn prepare(&self) -> PreparedLeakage {
        PreparedLeakage {
            at_reference: PerStructure::from_fn(|s| self.at_reference(s)),
            beta: self.beta,
        }
    }

    /// Total leakage at a uniform temperature.
    #[must_use]
    pub fn total(&self, t: Kelvin) -> Watts {
        (self.density_at_ref * self.core_area).scaled(self.temperature_factor(t))
    }

    /// The core area this model integrates over.
    #[must_use]
    pub fn core_area(&self) -> SquareMillimeters {
        self.core_area
    }
}

/// `e^{β (T − 383)}`, the one leakage-temperature formula.
fn temperature_factor(beta: f64, t: Kelvin) -> f64 {
    (beta * (t - LEAKAGE_REFERENCE_TEMP)).exp()
}

/// A [`LeakageModel`] whose temperature-independent term, each
/// structure's `density × area` at the reference temperature, is computed
/// once ([`LeakageModel::prepare`]). Only the temperature factor is left
/// per call, so a run that samples leakage every interval pays the seven
/// products once. [`PreparedLeakage::power`] multiplies the same products
/// by the same factors as [`LeakageModel::structure_power`], so the bits
/// are the model's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedLeakage {
    at_reference: PerStructure<Watts>,
    beta: f64,
}

impl PreparedLeakage {
    /// Per-structure leakage for a full temperature map.
    #[must_use]
    pub fn power(&self, temps: &PerStructure<Kelvin>) -> PerStructure<Watts> {
        let mut power = self.at_reference;
        for (p, &t) in power.0.iter_mut().zip(temps.as_array()) {
            *p = p.scaled(temperature_factor(self.beta, t));
        }
        power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LeakageModel {
        LeakageModel::new(
            PowerDensity::new(0.04).unwrap(),
            SquareMillimeters::new(81.0).unwrap(),
            DEFAULT_BETA,
        )
        .unwrap()
    }

    #[test]
    fn reference_temperature_factor_is_one() {
        assert!((model().temperature_factor(LEAKAGE_REFERENCE_TEMP) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ten_kelvin_raises_leakage_by_e_to_017() {
        let m = model();
        let f = m.temperature_factor(Kelvin::new(393.0).unwrap());
        assert!((f - (0.17f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn structure_powers_sum_to_total_at_uniform_temp() {
        let m = model();
        let t = Kelvin::new(360.0).unwrap();
        let temps = PerStructure::from_fn(|_| t);
        let sum: Watts = m.power(&temps).as_array().iter().copied().sum();
        assert!((sum.value() - m.total(t).value()).abs() < 1e-9);
    }

    #[test]
    fn prepared_power_is_the_models_bit_for_bit() {
        let m = model();
        let prepared = m.prepare();
        let temps = PerStructure::from_fn(|s| Kelvin::new(330.0 + 7.3 * s.index() as f64).unwrap());
        let power = prepared.power(&temps);
        for (s, p) in power.iter() {
            assert_eq!(p.value().to_bits(), m.structure_power(s, temps[s]).value().to_bits());
        }
        assert_eq!(m.power(&temps), power);
    }

    #[test]
    fn hotter_structures_leak_more() {
        let m = model();
        let cool = m.structure_power(Structure::Fpu, Kelvin::new(350.0).unwrap());
        let hot = m.structure_power(Structure::Fpu, Kelvin::new(380.0).unwrap());
        assert!(hot.value() > cool.value() * 1.5);
    }

    #[test]
    fn rejects_negative_beta() {
        assert!(LeakageModel::new(
            PowerDensity::new(0.04).unwrap(),
            SquareMillimeters::new(81.0).unwrap(),
            -0.01
        )
        .is_err());
    }
}
