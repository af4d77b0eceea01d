//! Lifetime distributions implied by the SOFR model.
//!
//! The SOFR assumption — constant failure rates, series system — implies
//! an exponential processor lifetime: `R(t) = e^{−λt}` with λ the summed
//! FIT rate. This module makes those consequences first-class: survival
//! and failure-probability curves, percentile lifetimes, fleet
//! expectations, and a Monte Carlo sampler that *validates* the analytic
//! SOFR combination by simulating each (structure, mechanism) pair as an
//! independent exponential and taking the minimum.

use crate::mechanisms::MechanismKind;
use crate::FitReport;
use ramp_microarch::Structure;
use ramp_trace::Rng;
use ramp_units::{Fit, Mttf, Years, HOURS_PER_YEAR};
use serde::{Deserialize, Serialize};

/// The exponential lifetime distribution of a SOFR-combined system.
///
/// # Examples
///
/// ```
/// use ramp_core::lifetime::LifetimeDistribution;
/// use ramp_units::{Fit, Years};
///
/// let d = LifetimeDistribution::from_total_fit(Fit::new(4000.0)?);
/// assert!((d.mttf_years().value() - 28.5).abs() < 0.1);
/// // ~3.4% of parts fail in the first year at 4000 FIT.
/// assert!((d.failure_probability_by_years(Years::new(1.0)?) - 0.0344).abs() < 0.001);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifetimeDistribution {
    total_fit: Fit,
}

impl LifetimeDistribution {
    /// Builds the distribution from a total failure rate.
    #[must_use]
    pub fn from_total_fit(total_fit: Fit) -> Self {
        LifetimeDistribution { total_fit }
    }

    /// Builds the distribution from a full SOFR report.
    #[must_use]
    pub fn from_report(report: &FitReport) -> Self {
        Self::from_total_fit(report.total())
    }

    /// Failure rate per hour (λ).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- reciprocal hours (a rate, not a duration); no newtype exists for 1/h
    pub fn lambda_per_hour(&self) -> f64 {
        self.total_fit.value() / 1e9
    }

    /// Mean time to failure.
    #[must_use]
    pub fn mttf_years(&self) -> Years {
        Years::from(Mttf::from(self.total_fit))
    }

    /// Probability the part survives past `age`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless probability in [0, 1]
    pub fn survival_at_years(&self, age: Years) -> f64 {
        (-self.lambda_per_hour() * age.hours()).exp()
    }

    /// Probability the part has failed by `age`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless probability in [0, 1]
    pub fn failure_probability_by_years(&self, age: Years) -> f64 {
        1.0 - self.survival_at_years(age)
    }

    /// The lifetime percentile: the age by which a fraction `q` of parts
    /// has failed (e.g. `q = 0.01` gives the 1 % fallout age the industry
    /// quotes).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- q is a dimensionless probability in (0, 1)
    pub fn percentile_years(&self, q: f64) -> Years {
        assert!(q > 0.0 && q < 1.0, "percentile must be in (0, 1), got {q}");
        Years::saturating(-(1.0 - q).ln() / (self.lambda_per_hour() * HOURS_PER_YEAR))
    }

    /// Expected fraction of a fleet failed after `age` of continuous
    /// operation — identical to [`failure_probability_by_years`] for
    /// exponential lifetimes, provided for API clarity.
    ///
    /// [`failure_probability_by_years`]:
    ///     LifetimeDistribution::failure_probability_by_years
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless fleet fraction in [0, 1]
    pub fn fleet_fallout(&self, age: Years) -> f64 {
        self.failure_probability_by_years(age)
    }
}

/// One Monte Carlo outcome: which pair failed first, and when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampledFailure {
    /// Age at the first failure.
    pub years: Years,
    /// The failing mechanism.
    pub mechanism: MechanismKind,
    /// The failing structure.
    pub structure: Structure,
}

/// Monte Carlo lifetime sampler over a SOFR report: every
/// (structure, mechanism) pair is an independent exponential clock; the
/// processor fails at the earliest one.
///
/// Besides validating the analytic combination, the sampler answers a
/// question the aggregate FIT cannot: *what breaks first, and where* —
/// which is what a designer hardening specific structures needs.
///
/// # Examples
///
/// ```
/// # use ramp_core::lifetime::MonteCarloLifetime;
/// # use ramp_core::mechanisms::{MechanismSet, PerMechanism};
/// # use ramp_core::{OperatingPoint, Qualification, RateAccumulator, TechNode};
/// # use ramp_microarch::PerStructure;
/// # use ramp_units::{ActivityFactor, Kelvin, Volts};
/// # let models = MechanismSet::default();
/// # let mut acc = RateAccumulator::new(&models, TechNode::reference());
/// # let ops = PerStructure::from_fn(|_| OperatingPoint::new(
/// #     Kelvin::new(356.0).unwrap(), Volts::new(1.3).unwrap(),
/// #     ActivityFactor::new(0.4).unwrap()));
/// # acc.observe(&ops, 1.0);
/// # let rates = acc.finish();
/// # let qual = Qualification::from_reference_runs(&[rates]).unwrap();
/// # let report = qual.fit_report(&rates);
/// let mut mc = MonteCarloLifetime::new(&report, 42);
/// let sample = mc.sample().unwrap();
/// assert!(sample.years.value() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarloLifetime {
    /// λ per hour for each (mechanism, structure) pair, flattened.
    lambdas: Vec<(MechanismKind, Structure, f64)>,
    rng: Rng,
}

impl MonteCarloLifetime {
    /// Creates a sampler over the report, seeded deterministically.
    #[must_use]
    pub fn new(report: &FitReport, seed: u64) -> Self {
        let mut lambdas = Vec::with_capacity(MechanismKind::COUNT * Structure::COUNT);
        for m in MechanismKind::ALL {
            for s in Structure::ALL {
                let lambda = report.fit(m, s).value() / 1e9;
                if lambda > 0.0 {
                    lambdas.push((m, s, lambda));
                }
            }
        }
        MonteCarloLifetime {
            lambdas,
            rng: Rng::seed_from(seed),
        }
    }

    /// Draws one processor lifetime; `None` if every rate is zero (the
    /// part never fails).
    pub fn sample(&mut self) -> Option<SampledFailure> {
        let mut best: Option<SampledFailure> = None;
        for &(m, s, lambda) in &self.lambdas {
            let u = self.rng.next_f64().max(1e-300);
            let hours = -u.ln() / lambda;
            let years = Years::saturating(hours / HOURS_PER_YEAR);
            if best.map(|b| years < b.years).unwrap_or(true) {
                best = Some(SampledFailure {
                    years,
                    mechanism: m,
                    structure: s,
                });
            }
        }
        best
    }

    /// Draws `n` lifetimes and returns their mean. A report with every
    /// rate zero ("never fails") yields [`Years::MAX`].
    pub fn mean_lifetime_years(&mut self, n: u32) -> Years {
        assert!(n > 0, "need at least one sample");
        let mut sum = 0.0;
        for _ in 0..n {
            sum += self
                .sample()
                .map(|s| s.years.value())
                .unwrap_or(f64::INFINITY);
        }
        Years::saturating(sum / f64::from(n))
    }

    /// Draws `n` lifetimes and returns, per mechanism, the fraction of
    /// failures it caused — the mechanism "blame" histogram.
    pub fn blame_histogram(&mut self, n: u32) -> crate::mechanisms::PerMechanism<f64> {
        assert!(n > 0, "need at least one sample");
        let mut counts = [0u32; MechanismKind::COUNT];
        for _ in 0..n {
            if let Some(s) = self.sample() {
                // ramp-lint:allow(panic-reach) -- `Mechanism::index()` is below the mechanism count by definition
                counts[s.mechanism.index()] += 1;
            }
        }
        crate::mechanisms::PerMechanism::from_fn(|m| {
            f64::from(counts[m.index()]) / f64::from(n) // ramp-lint:allow(panic-reach) -- `Mechanism::index()` is below the mechanism count by definition
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::{MechanismSet, PerMechanism};
    use crate::{OperatingPoint, Qualification, RateAccumulator, TechNode};
    use ramp_microarch::PerStructure;
    use ramp_units::{ActivityFactor, Kelvin, Volts};

    fn report() -> FitReport {
        let models = MechanismSet::default();
        let mut acc = RateAccumulator::new(&models, TechNode::reference());
        let ops = PerStructure::from_fn(|s| {
            OperatingPoint::new(
                Kelvin::new(345.0 + 3.0 * s.index() as f64).unwrap(),
                Volts::new(1.3).unwrap(),
                ActivityFactor::new(0.4).unwrap(),
            )
        });
        acc.observe(&ops, 1.0);
        let rates = acc.finish();
        Qualification::from_reference_runs(&[rates])
            .unwrap()
            .fit_report(&rates)
    }

    #[test]
    fn thirty_year_budget_arithmetic() {
        let d = LifetimeDistribution::from_total_fit(Fit::new(4000.0).unwrap());
        assert!((d.mttf_years().value() - 28.54).abs() < 0.05);
        // Survival at the MTTF of an exponential is 1/e.
        let s = d.survival_at_years(d.mttf_years());
        assert!((s - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn survival_is_monotone_decreasing_from_one() {
        let d = LifetimeDistribution::from_total_fit(Fit::new(8000.0).unwrap());
        assert!((d.survival_at_years(Years::ZERO) - 1.0).abs() < 1e-12);
        let mut prev = 1.0;
        for y in [1.0, 3.0, 10.0, 30.0, 100.0] {
            let s = d.survival_at_years(Years::new(y).unwrap());
            assert!(s < prev);
            prev = s;
        }
    }

    #[test]
    fn percentile_inverts_failure_probability() {
        let d = LifetimeDistribution::from_total_fit(Fit::new(5000.0).unwrap());
        for q in [0.001, 0.01, 0.5, 0.99] {
            let t = d.percentile_years(q);
            assert!((d.failure_probability_by_years(t) - q).abs() < 1e-9, "q={q}");
        }
    }

    #[test]
    fn scaling_fit_down_scales_lifetimes_up() {
        let base = LifetimeDistribution::from_total_fit(Fit::new(4000.0).unwrap());
        let worse = LifetimeDistribution::from_total_fit(Fit::new(16_640.0).unwrap());
        // +316% FIT (the paper's headline) cuts the 1%-fallout age ~4.2x.
        let ratio = base.percentile_years(0.01).ratio_to(worse.percentile_years(0.01));
        assert!((ratio - 4.16).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_mttf() {
        let rep = report();
        let analytic = LifetimeDistribution::from_report(&rep).mttf_years().value();
        let mut mc = MonteCarloLifetime::new(&rep, 7);
        let sampled = mc.mean_lifetime_years(20_000).value();
        assert!(
            (sampled - analytic).abs() / analytic < 0.03,
            "MC {sampled} vs analytic {analytic}"
        );
    }

    #[test]
    fn blame_histogram_matches_fit_shares() {
        let rep = report();
        let total = rep.total().value();
        let mut mc = MonteCarloLifetime::new(&rep, 11);
        let blame = mc.blame_histogram(40_000);
        let mut blame_sum = 0.0;
        for m in MechanismKind::ALL {
            let share = rep.mechanism_total(m).value() / total;
            assert!(
                (blame[m] - share).abs() < 0.02,
                "{m}: blamed {} vs FIT share {share}",
                blame[m]
            );
            blame_sum += blame[m];
        }
        assert!((blame_sum - 1.0).abs() < 1e-9);
        let _ = PerMechanism::from_fn(|_| 0.0);
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let rep = report();
        let a = MonteCarloLifetime::new(&rep, 5).sample().unwrap();
        let b = MonteCarloLifetime::new(&rep, 5).sample().unwrap();
        assert_eq!(a, b);
        let c = MonteCarloLifetime::new(&rep, 6).sample().unwrap();
        assert!(a != c);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_domain_checked() {
        let d = LifetimeDistribution::from_total_fit(Fit::new(4000.0).unwrap());
        let _ = d.percentile_years(1.0);
    }
}
