//! Distribution-parameter types for population (fleet) simulation.
//!
//! The fleet simulator samples per-chip lifetimes from parameterised
//! distributions (lognormal for EM/SM/TDDB, Weibull-shaped Coffin–Manson
//! for TC) around the qualified FIT models. The shape parameters of those
//! distributions are dimensionless but *not* interchangeable with other
//! raw `f64`s — a lognormal sigma confused with a survival probability is
//! exactly the class of bug the unit layer exists to prevent — so they
//! get the same checked-newtype treatment as the physical quantities.

use crate::macros::quantity;

quantity! {
    /// A dimensionless standard deviation / scatter parameter (σ ≥ 0),
    /// e.g. the log-domain sigma of a lognormal lifetime distribution or
    /// the fractional sigma of a process-variation draw.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::Sigma;
    /// let s = Sigma::new(0.5)?;
    /// assert_eq!(s.value(), 0.5);
    /// assert!(Sigma::new(-0.1).is_err());
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    Sigma, unit = "sigma", allowed = ">= 0",
    valid = |v| v >= 0.0
}

impl Sigma {
    /// No scatter: every draw collapses to the distribution's median.
    pub const ZERO: Sigma = Sigma(0.0);

    /// Const constructor for compile-time-known sigmas.
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const` context) unless the
    /// value is finite and `>= 0`.
    #[must_use]
    pub const fn new_const(value: f64) -> Sigma {
        assert!(value >= 0.0 && value < f64::INFINITY, "sigma out of range");
        Sigma(value)
    }
}

quantity! {
    /// A probability in `[0, 1]` — survival probabilities, fractions of a
    /// population, truncation mass.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::Probability;
    /// let p = Probability::new(0.25)?;
    /// assert!((p.complement().value() - 0.75).abs() < 1e-12);
    /// assert!(Probability::new(1.5).is_err());
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    Probability, unit = "p", allowed = "0 ..= 1",
    valid = |v| (0.0..=1.0).contains(&v)
}

impl Probability {
    /// The impossible event.
    pub const ZERO: Probability = Probability(0.0);

    /// The certain event.
    pub const ONE: Probability = Probability(1.0);

    /// `1 − p`.
    #[must_use]
    pub fn complement(self) -> Probability {
        Probability(1.0 - self.0)
    }

    /// The probability expressed as defective parts per million — the
    /// reporting unit of fleet failure fractions (DPPM).
    #[must_use]
    pub fn dppm(self) -> f64 {
        self.0 * 1e6
    }

    /// Builds a probability from an exact count out of a total
    /// (`0/0 → 0`). Counts are how the fleet accumulator stores failure
    /// fractions, so this is the only constructor its reports need.
    #[must_use]
    pub fn from_counts(events: u64, total: u64) -> Probability {
        if total == 0 {
            Probability::ZERO
        } else {
            Probability((events as f64 / total as f64).clamp(0.0, 1.0))
        }
    }
}

quantity! {
    /// A Weibull shape parameter β > 0 (the Coffin–Manson TC lifetime
    /// draw uses a Weibull with this shape around its characteristic
    /// life). β < 1 is infant mortality, β = 1 memoryless, β > 1 wearout.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::WeibullShape;
    /// let wearout = WeibullShape::new(2.0)?;
    /// assert!(wearout.value() > 1.0);
    /// assert!(WeibullShape::new(0.0).is_err());
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    WeibullShape, unit = "beta", allowed = "> 0",
    valid = |v| v > 0.0
}

impl WeibullShape {
    /// Const constructor for compile-time-known shapes.
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const` context) unless the
    /// value is finite and `> 0`.
    #[must_use]
    pub const fn new_const(value: f64) -> WeibullShape {
        assert!(
            value > 0.0 && value < f64::INFINITY,
            "Weibull shape out of range"
        );
        WeibullShape(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_zero_and_bounds() {
        assert_eq!(Sigma::ZERO.value(), 0.0);
        assert!(Sigma::new(f64::NAN).is_err());
        assert!(Sigma::new(f64::INFINITY).is_err());
        assert!((Sigma::new(0.3).unwrap().value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn probability_complement_and_dppm() {
        let p = Probability::new(0.004).unwrap();
        assert!((p.dppm() - 4000.0).abs() < 1e-9);
        assert!((p.complement().value() - 0.996).abs() < 1e-12);
        assert_eq!(Probability::ONE.complement(), Probability::ZERO);
    }

    #[test]
    fn probability_from_counts() {
        assert_eq!(Probability::from_counts(0, 0), Probability::ZERO);
        assert_eq!(Probability::from_counts(5, 5), Probability::ONE);
        assert!((Probability::from_counts(1, 4).value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn const_constructors_match_the_checked_ones() {
        const SIGMA: Sigma = Sigma::new_const(0.02);
        const SHAPE: WeibullShape = WeibullShape::new_const(2.0);
        assert_eq!(SIGMA, Sigma::new(0.02).unwrap());
        assert_eq!(SHAPE, WeibullShape::new(2.0).unwrap());
        assert_eq!(Sigma::new_const(0.0), Sigma::ZERO);
    }

    #[test]
    #[should_panic(expected = "sigma out of range")]
    fn sigma_const_rejects_negative() {
        let _ = Sigma::new_const(-0.1);
    }

    #[test]
    #[should_panic(expected = "Weibull shape out of range")]
    fn weibull_shape_const_rejects_zero() {
        let _ = WeibullShape::new_const(0.0);
    }

    #[test]
    fn weibull_shape_must_be_positive() {
        assert!(WeibullShape::new(0.0).is_err());
        assert!(WeibullShape::new(-1.0).is_err());
        assert!((WeibullShape::new(1.5).unwrap().value() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_carries_unit_suffix() {
        assert_eq!(format!("{}", Sigma::new(0.5).unwrap()), "0.5 sigma");
        assert_eq!(format!("{:.2}", Probability::new(0.25).unwrap()), "0.25 p");
    }
}
