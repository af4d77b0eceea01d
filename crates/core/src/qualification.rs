//! Reliability qualification: fixing the proportionality constants.
//!
//! The analytic failure models carry unknown material/cost-dependent
//! proportionality constants. Following the paper (§4.4): current
//! processors target an MTTF of ~30 years ⇒ ~4000 FIT total, and each of
//! the four mechanisms is assumed to contribute equally at qualification.
//! So the constants are chosen such that, *averaged over the 16-benchmark
//! workload at 180 nm*, each mechanism's processor-wide FIT is 1000. The
//! same constants then yield absolute FIT values at every other node.

use crate::mechanisms::{MechanismKind, PerMechanism};
use crate::rates::AveragedRates;
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{Fit, Mttf, Years};
use serde::{Deserialize, Serialize};

/// The paper's per-mechanism FIT budget at qualification.
pub const FIT_PER_MECHANISM: f64 = 1000.0;

/// Calibrated proportionality constants, one per mechanism.
///
/// # Examples
///
/// ```no_run
/// use ramp_core::Qualification;
/// # let reference_runs: Vec<ramp_core::AveragedRates> = vec![];
/// let qual = Qualification::from_reference_runs(&reference_runs).unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Qualification {
    constants: PerMechanism<f64>,
}

impl Qualification {
    /// Derives constants from the 180 nm reference runs (one
    /// [`AveragedRates`] per benchmark): `K_m = 1000 / mean_app(Σ_s r_{m,s})`.
    ///
    /// # Errors
    ///
    /// Returns an error description if `runs` is empty or any mechanism
    /// has a zero average rate (nothing to normalise).
    pub fn from_reference_runs(runs: &[AveragedRates]) -> Result<Self, String> {
        let budget = Fit::new(FIT_PER_MECHANISM)
            .expect("paper budget constant is finite and positive"); // ramp-lint:allow(panic-hygiene) -- compile-time constant
        Self::with_budget(runs, budget)
    }

    /// Like [`Qualification::from_reference_runs`] but with an explicit
    /// per-mechanism FIT budget — e.g. a cheaper part qualified for a
    /// 15-year MTTF, or a server part for 50 years.
    ///
    /// # Errors
    ///
    /// Returns an error description if `runs` is empty, the budget is zero,
    /// or any mechanism has a zero average rate.
    pub fn with_budget(
        runs: &[AveragedRates],
        fit_per_mechanism: Fit,
    ) -> Result<Self, String> {
        if runs.is_empty() {
            return Err("qualification needs at least one reference run".to_string());
        }
        if fit_per_mechanism.value() <= 0.0 {
            return Err(format!(
                "per-mechanism budget must be positive, got {fit_per_mechanism}"
            ));
        }
        let mut constants = PerMechanism::from_fn(|_| 0.0);
        for m in MechanismKind::ALL {
            let mean: f64 = runs.iter().map(|r| r.mechanism_total(m)).sum::<f64>()
                / runs.len() as f64;
            if !(mean.is_finite() && mean > 0.0) {
                return Err(format!("mechanism {m} has degenerate mean rate {mean}"));
            }
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism` is total
            constants[m] = fit_per_mechanism.value() / mean;
        }
        Ok(Qualification { constants })
    }

    /// Qualification for an explicit MTTF target, with the paper's
    /// equal-split-per-mechanism assumption.
    ///
    /// # Errors
    ///
    /// Returns an error description if `runs` is empty or `target` is
    /// zero.
    pub fn for_mttf_years(runs: &[AveragedRates], target: Years) -> Result<Self, String> {
        if target.value() <= 0.0 {
            return Err(format!("MTTF target must be positive, got {target}"));
        }
        let total_fit = Fit::from(
            Mttf::from_hours(target.hours())
                .map_err(|e| format!("invalid MTTF target: {e}"))?,
        );
        let per_mechanism = Fit::new(total_fit.value() / MechanismKind::COUNT as f64)
            .map_err(|e| format!("invalid MTTF target: {e}"))?;
        Self::with_budget(runs, per_mechanism)
    }

    /// Builds a qualification from explicit constants (for tests and
    /// what-if studies).
    ///
    /// # Errors
    ///
    /// Returns an error description if any constant is not finite and
    /// positive.
    pub fn from_constants(constants: PerMechanism<f64>) -> Result<Self, String> {
        for (m, &k) in constants.iter() {
            if !k.is_finite() || k <= 0.0 {
                return Err(format!("constant for {m} must be positive, got {k}"));
            }
        }
        Ok(Qualification { constants })
    }

    /// The constant for one mechanism.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless calibration constant
    pub fn constant(&self, m: MechanismKind) -> f64 {
        // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism` is total
        self.constants[m]
    }

    /// Converts a run's averaged relative rates into absolute FIT values.
    #[must_use]
    pub fn fit_report(&self, rates: &AveragedRates) -> FitReport {
        FitReport {
            fits: PerMechanism::from_fn(|m| {
                PerStructure::from_fn(|s| {
                    // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
                    Fit::new(self.constants[m] * rates.rate(m, s))
                        .expect("calibrated rate is non-negative and finite") // ramp-lint:allow(panic-hygiene) -- calibration keeps rates finite and non-negative
                })
            }),
        }
    }
}

/// Absolute FIT values for one run, per mechanism and structure, combined
/// under the sum-of-failure-rates (SOFR) model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    fits: PerMechanism<PerStructure<Fit>>,
}

impl FitReport {
    /// FIT of one (mechanism, structure) pair.
    #[must_use]
    pub fn fit(&self, m: MechanismKind, s: Structure) -> Fit {
        // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        self.fits[m][s]
    }

    /// Processor-wide FIT of one mechanism (sum over structures — the
    /// series-system assumption).
    #[must_use]
    pub fn mechanism_total(&self, m: MechanismKind) -> Fit {
        Structure::ALL.iter().map(|&s| self.fit(m, s)).sum()
    }

    /// FIT of one structure summed over mechanisms.
    #[must_use]
    pub fn structure_total(&self, s: Structure) -> Fit {
        MechanismKind::ALL.iter().map(|&m| self.fit(m, s)).sum()
    }

    /// Total processor FIT (the SOFR double sum).
    #[must_use]
    pub fn total(&self) -> Fit {
        MechanismKind::ALL
            .iter()
            .map(|&m| self.mechanism_total(m))
            .sum()
    }

    /// Processor MTTF implied by the total FIT (`MTTF = 10⁹/FIT` hours).
    #[must_use]
    pub fn mttf(&self) -> Mttf {
        Mttf::from(self.total())
    }

    /// Per-mechanism totals in canonical order (EM, SM, TDDB, TC).
    #[must_use]
    pub fn per_mechanism(&self) -> PerMechanism<Fit> {
        PerMechanism::from_fn(|m| self.mechanism_total(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::MechanismSet;
    use crate::rates::RateAccumulator;
    use crate::{OperatingPoint, TechNode};
    use ramp_units::{ActivityFactor, Kelvin, Volts};

    fn reference_run(temp: f64, activity: f64) -> AveragedRates {
        let models = MechanismSet::default();
        let mut acc = RateAccumulator::new(&models, TechNode::reference());
        let ops = PerStructure::from_fn(|_| {
            OperatingPoint::new(
                Kelvin::new(temp).unwrap(),
                Volts::new(1.3).unwrap(),
                ActivityFactor::new(activity).unwrap(),
            )
        });
        acc.observe(&ops, 1.0);
        acc.finish()
    }

    #[test]
    fn calibration_normalises_to_1000_fit_per_mechanism() {
        let runs: Vec<_> = [(350.0, 0.3), (356.0, 0.4), (362.0, 0.5)]
            .iter()
            .map(|&(t, a)| reference_run(t, a))
            .collect();
        let qual = Qualification::from_reference_runs(&runs).unwrap();
        for m in MechanismKind::ALL {
            let mean: f64 = runs
                .iter()
                .map(|r| qual.fit_report(r).mechanism_total(m).value())
                .sum::<f64>()
                / runs.len() as f64;
            assert!(
                (mean - 1000.0).abs() < 1e-6,
                "{m}: mean FIT {mean} after calibration"
            );
        }
    }

    #[test]
    fn total_is_4000_at_qualification() {
        let runs = vec![reference_run(356.0, 0.4)];
        let qual = Qualification::from_reference_runs(&runs).unwrap();
        let total = qual.fit_report(&runs[0]).total();
        assert!((total.value() - 4000.0).abs() < 1e-6);
        // ≈ 28.5-year MTTF, the paper's ~30-year ballpark.
        let years = qual.fit_report(&runs[0]).mttf().years();
        assert!((25.0..35.0).contains(&years), "MTTF {years} years");
    }

    #[test]
    fn sofr_decompositions_agree() {
        let runs = vec![reference_run(356.0, 0.4)];
        let qual = Qualification::from_reference_runs(&runs).unwrap();
        let rep = qual.fit_report(&runs[0]);
        let by_mechanism: f64 = MechanismKind::ALL
            .iter()
            .map(|&m| rep.mechanism_total(m).value())
            .sum();
        let by_structure: f64 = Structure::ALL
            .iter()
            .map(|&s| rep.structure_total(s).value())
            .sum();
        assert!((by_mechanism - by_structure).abs() < 1e-9);
        assert!((by_mechanism - rep.total().value()).abs() < 1e-9);
    }

    #[test]
    fn hotter_run_exceeds_qualified_fit() {
        let reference = vec![reference_run(356.0, 0.4)];
        let qual = Qualification::from_reference_runs(&reference).unwrap();
        let hot = reference_run(370.0, 0.6);
        assert!(qual.fit_report(&hot).total().value() > 4000.0);
    }

    #[test]
    fn empty_reference_rejected() {
        assert!(Qualification::from_reference_runs(&[]).is_err());
    }

    #[test]
    fn mttf_target_qualification() {
        let runs = vec![reference_run(356.0, 0.4)];
        // 15-year target doubles the FIT budget of the ~30-year default.
        let q15 = Qualification::for_mttf_years(&runs, Years::new(15.0).unwrap()).unwrap();
        let total = q15.fit_report(&runs[0]).total();
        let implied = ramp_units::Mttf::from(total).years();
        assert!((implied - 15.0).abs() < 0.01, "implied MTTF {implied}");
        assert!(Qualification::for_mttf_years(&runs, Years::ZERO).is_err());
        assert!(Qualification::with_budget(&runs, Fit::ZERO).is_err());
        // Negative budgets are unrepresentable: `Fit::new` rejects them.
        assert!(Fit::new(-5.0).is_err());
    }

    #[test]
    fn explicit_constants_validated() {
        let ok = PerMechanism::from_fn(|_| 1.0);
        assert!(Qualification::from_constants(ok).is_ok());
        let bad = PerMechanism::from_fn(|m| if m == MechanismKind::Sm { -1.0 } else { 1.0 });
        assert!(Qualification::from_constants(bad).is_err());
    }
}
