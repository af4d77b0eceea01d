//! Dimensionless bounded ratios.

/// A structure's activity factor `p ∈ [0, 1]`: the fraction of cycles (or
/// of peak switching capacity) in which the structure is active.
///
/// The timing simulator produces one activity factor per structure per
/// sampling interval; the power model and the electromigration model both
/// consume it.
///
/// # Examples
///
/// ```
/// use ramp_units::ActivityFactor;
/// let p = ActivityFactor::new(0.4)?;
/// assert_eq!(p.value(), 0.4);
/// assert!(ActivityFactor::new(1.2).is_err());
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, serde::Serialize, serde::Deserialize)]
#[serde(transparent)]
pub struct ActivityFactor(f64);

impl ActivityFactor {
    /// A fully idle structure.
    pub const IDLE: ActivityFactor = ActivityFactor(0.0);

    /// A fully busy structure (the worst case used for qualification).
    pub const FULL: ActivityFactor = ActivityFactor(1.0);

    /// Creates an activity factor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::UnitError`] unless `value` is finite and in `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, crate::UnitError> {
        crate::error::check("ActivityFactor", value, "0 <= p <= 1", |v| {
            (0.0..=1.0).contains(&v)
        })
        .map(Self)
    }

    /// Const constructor for compile-time-known activity factors.
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const` context) unless the
    /// value is in `[0, 1]`.
    #[must_use]
    pub const fn new_const(value: f64) -> ActivityFactor {
        assert!(value >= 0.0 && value <= 1.0, "activity factor out of range");
        ActivityFactor(value)
    }

    /// Creates an activity factor from an event count over a capacity,
    /// clamping to `[0, 1]`.
    ///
    /// This is the constructor the timing simulator uses: `events` is how
    /// many times the structure did useful work during an interval and
    /// `capacity` the maximum it could have done.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn from_events(events: u64, capacity: u64) -> Self {
        assert!(capacity > 0, "activity capacity must be positive");
        ActivityFactor((events as f64 / capacity as f64).clamp(0.0, 1.0))
    }

    /// Raw value in `[0, 1]`.
    #[inline]
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Pointwise maximum of two activity factors (used to build the
    /// worst-case operating point across applications).
    #[must_use]
    pub fn max(self, other: ActivityFactor) -> ActivityFactor {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl std::fmt::Display for ActivityFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}", prec, self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_unit_interval() {
        assert!(ActivityFactor::new(-0.1).is_err());
        assert!(ActivityFactor::new(1.1).is_err());
        assert!(ActivityFactor::new(f64::NAN).is_err());
    }

    #[test]
    fn new_const_matches_new() {
        const HALF: ActivityFactor = ActivityFactor::new_const(0.5);
        assert_eq!(HALF, ActivityFactor::new(0.5).unwrap());
    }

    #[test]
    fn from_events_clamps() {
        assert_eq!(ActivityFactor::from_events(5, 10).value(), 0.5);
        assert_eq!(ActivityFactor::from_events(20, 10).value(), 1.0);
        assert_eq!(ActivityFactor::from_events(0, 10).value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn from_events_zero_capacity_panics() {
        let _ = ActivityFactor::from_events(1, 0);
    }

    #[test]
    fn max_picks_larger() {
        let a = ActivityFactor::new(0.3).unwrap();
        let b = ActivityFactor::new(0.7).unwrap();
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
