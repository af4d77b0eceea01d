//! Time-averaging of instantaneous failure rates over a workload run.
//!
//! RAMP evaluates each failure model at every sampling interval and keeps
//! a running average of the instantaneous rates (paper §2, "Combining the
//! models"): the average over *time* mirrors the SOFR sum over *space*.
//! Thermal cycling is the exception — its damage law is a function of the
//! run's average temperature swing (Eq. 4 uses `T_average`), so the
//! accumulator tracks average temperature and evaluates TC once at the
//! end.

use crate::mechanisms::{MechanismKernel, MechanismKind, MechanismSet, PerMechanism, PreparedSet};
use crate::{OperatingPoint, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{ActivityFactor, Kelvin, Volts};

/// Time-averaged relative failure rates, per mechanism and structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragedRates {
    per_mechanism: PerMechanism<PerStructure<f64>>,
    average_temperature: PerStructure<Kelvin>,
    peak_temperature: PerStructure<Kelvin>,
}

impl AveragedRates {
    /// Mean relative rate of one (mechanism, structure) pair.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- relative failure rate, dimensionless
    pub fn rate(&self, m: MechanismKind, s: Structure) -> f64 {
        // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        self.per_mechanism[m][s]
    }

    /// Sum of a mechanism's mean rates over all structures (the quantity
    /// qualification normalises).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- relative failure rate, dimensionless
    pub fn mechanism_total(&self, m: MechanismKind) -> f64 {
        Structure::ALL.iter().map(|&s| self.rate(m, s)).sum()
    }

    /// Time-average temperature per structure.
    #[must_use]
    pub fn average_temperature(&self) -> &PerStructure<Kelvin> {
        &self.average_temperature
    }

    /// Peak temperature per structure over the run.
    #[must_use]
    pub fn peak_temperature(&self) -> &PerStructure<Kelvin> {
        &self.peak_temperature
    }

    /// Hottest structure temperature seen at any point in the run (the
    /// quantity Figure 2 plots).
    #[must_use]
    pub fn max_temperature(&self) -> Kelvin {
        *Structure::ALL
            .iter()
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            .map(|&s| &self.peak_temperature[s])
            .max_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("non-empty structure set") // ramp-lint:allow(panic-hygiene) -- structures are a non-empty static enum
    }
}

/// Accumulates instantaneous rates across a run on one node.
#[derive(Debug, Clone)]
pub struct RateAccumulator {
    prepared: PreparedSet,
    vdd: Volts,
    rate_sums: PerMechanism<PerStructure<f64>>,
    temp_sums: PerStructure<f64>,
    temp_peaks: PerStructure<f64>,
    weight: f64,
}

impl RateAccumulator {
    /// Creates an accumulator for `node`, preparing `models` for it once.
    #[must_use]
    pub fn new(models: &MechanismSet, node: TechNode) -> Self {
        RateAccumulator {
            prepared: models.prepare(&node),
            vdd: node.vdd,
            rate_sums: PerMechanism::from_fn(|_| PerStructure::from_fn(|_| 0.0)),
            temp_sums: PerStructure::from_fn(|_| 0.0),
            temp_peaks: PerStructure::from_fn(|_| 0.0),
            weight: 0.0,
        }
    }

    /// Observes one sampling interval: an operating point per structure,
    /// weighted by the interval duration (relative weights suffice).
    ///
    /// # Panics
    ///
    /// Panics if `dt_weight` is not finite and positive, or a mechanism
    /// produces a non-finite rate.
    // ramp-lint:allow(unit-safety) -- dt_weight is a dimensionless quadrature weight
    pub fn observe(&mut self, ops: &PerStructure<OperatingPoint>, dt_weight: f64) {
        assert!(
            dt_weight.is_finite() && dt_weight > 0.0,
            "interval weight must be positive"
        );
        // Thermal cycling is evaluated on the average temperature at finish.
        for kind in [MechanismKind::Em, MechanismKind::Sm, MechanismKind::Tddb] {
            for s in Structure::ALL {
                // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                let r = self.prepared.rate(kind, &ops[s]);
                assert!(
                    r.is_finite() && r >= 0.0,
                    "{kind} produced invalid rate {r}"
                );
                self.rate_sums[kind][s] += r * dt_weight; // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
            }
        }
        for s in Structure::ALL {
            let t = ops[s].temperature.value(); // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
            self.temp_sums[s] += t * dt_weight;
            if t > self.temp_peaks[s] { // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
                self.temp_peaks[s] = t;
            }
        }
        self.weight += dt_weight;
    }

    /// Finalises into time-averaged rates.
    ///
    /// # Panics
    ///
    /// Panics if nothing was observed.
    #[must_use]
    pub fn finish(self) -> AveragedRates {
        assert!(self.weight > 0.0, "no intervals observed");
        let avg_temp = PerStructure::from_fn(|s| {
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            Kelvin::new(self.temp_sums[s] / self.weight)
                .expect("average of valid temperatures is valid") // ramp-lint:allow(panic-hygiene) -- mean of valid temperatures stays valid
        });
        let mut per_mechanism =
            PerMechanism::from_fn(|m| PerStructure::from_fn(|s| self.rate_sums[m][s] / self.weight)); // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        // Thermal cycling: one evaluation at the average temperature.
        for s in Structure::ALL {
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            let op = OperatingPoint::new(avg_temp[s], self.vdd, ActivityFactor::IDLE);
            per_mechanism[MechanismKind::Tc][s] = self.prepared.tc.rate(&op); // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        }
        AveragedRates {
            per_mechanism,
            average_temperature: avg_temp,
            peak_temperature: PerStructure::from_fn(|s| {
                Kelvin::new(self.temp_peaks[s].max(1e-6)) // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
                    .expect("peak of valid temperatures is valid") // ramp-lint:allow(panic-hygiene) -- max of valid temperatures stays valid
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(t: f64) -> PerStructure<OperatingPoint> {
        PerStructure::from_fn(|_| {
            OperatingPoint::new(
                Kelvin::new(t).unwrap(),
                Volts::new(1.3).unwrap(),
                ActivityFactor::new(0.4).unwrap(),
            )
        })
    }

    #[test]
    fn constant_conditions_average_to_instantaneous() {
        let models = MechanismSet::default();
        let node = TechNode::reference();
        let mut acc = RateAccumulator::new(&models, node);
        for _ in 0..100 {
            acc.observe(&ops(356.0), 1.0);
        }
        let avg = acc.finish();
        let expect = models.em.prepare(&node).rate(&ops(356.0)[Structure::Ifu]);
        assert!((avg.rate(MechanismKind::Em, Structure::Ifu) - expect).abs() / expect < 1e-12);
        assert!((avg.average_temperature()[Structure::Fpu].value() - 356.0).abs() < 1e-9);
        assert!((avg.max_temperature().value() - 356.0).abs() < 1e-9);
    }

    #[test]
    fn weights_respected() {
        let models = MechanismSet::default();
        let node = TechNode::reference();
        let mut acc = RateAccumulator::new(&models, node);
        acc.observe(&ops(340.0), 3.0);
        acc.observe(&ops(380.0), 1.0);
        let avg = acc.finish();
        let t = avg.average_temperature()[Structure::Lsu].value();
        assert!((t - (3.0 * 340.0 + 380.0) / 4.0).abs() < 1e-9);
        assert!((avg.peak_temperature()[Structure::Lsu].value() - 380.0).abs() < 1e-9);
    }

    #[test]
    fn tc_uses_average_not_average_of_rates() {
        // Half the time at ambient (zero swing), half at +40 K: the TC rate
        // must equal the rate at +20 K, not the mean of the two rates.
        let models = MechanismSet::default();
        let node = TechNode::reference();
        let mut acc = RateAccumulator::new(&models, node);
        acc.observe(&ops(318.15), 1.0);
        acc.observe(&ops(358.15), 1.0);
        let avg = acc.finish();
        let got = avg.rate(MechanismKind::Tc, Structure::Ifu);
        let at_mean = 20.0f64.powf(2.35);
        let mean_of_rates = 40.0f64.powf(2.35) / 2.0;
        assert!((got - at_mean).abs() / at_mean < 1e-9);
        assert!(got < mean_of_rates);
    }

    #[test]
    fn fluctuating_temperature_beats_constant_mean_for_exponential_mechanisms() {
        // Jensen's inequality: averaging instantaneous exponential rates
        // over a fluctuating temperature exceeds the rate at the mean
        // temperature — the reason RAMP averages rates, not temperatures.
        let models = MechanismSet::default();
        let node = TechNode::reference();
        let mut fluct = RateAccumulator::new(&models, node);
        fluct.observe(&ops(336.0), 1.0);
        fluct.observe(&ops(376.0), 1.0);
        let mut steady = RateAccumulator::new(&models, node);
        steady.observe(&ops(356.0), 2.0);
        let f = fluct.finish();
        let s = steady.finish();
        assert!(
            f.rate(MechanismKind::Em, Structure::Ifu) > s.rate(MechanismKind::Em, Structure::Ifu)
        );
        assert!(
            f.rate(MechanismKind::Tddb, Structure::Ifu)
                > s.rate(MechanismKind::Tddb, Structure::Ifu)
        );
    }

    #[test]
    #[should_panic(expected = "no intervals")]
    fn empty_accumulator_panics() {
        let models = MechanismSet::default();
        let acc = RateAccumulator::new(&models, TechNode::reference());
        let _ = acc.finish();
    }
}
