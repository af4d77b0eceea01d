//! Time-averaging of instantaneous failure rates over a workload run.
//!
//! RAMP evaluates each failure model at every sampling interval and keeps
//! a running average of the instantaneous rates (paper §2, "Combining the
//! models"): the average over *time* mirrors the SOFR sum over *space*.
//! Thermal cycling is the exception — its damage law is a function of the
//! run's average temperature swing (Eq. 4 uses `T_average`), so the
//! accumulator tracks average temperature and evaluates TC once at the
//! end.

use crate::mechanisms::{
    ActivityTerms, IntervalRates, MechanismKernel, MechanismKind, MechanismSet, PerMechanism,
    PreparedSet, ThermalCycling,
};
use crate::{OperatingPoint, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::Kelvin;

/// Time-averaged relative failure rates, per mechanism and structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragedRates {
    per_mechanism: PerMechanism<PerStructure<f64>>,
    average_temperature: PerStructure<Kelvin>,
    peak_temperature: PerStructure<Kelvin>,
}

impl AveragedRates {
    /// The interval mechanisms' mean `rates`, with thermal cycling priced
    /// by `tc` once at each structure's average temperature.
    fn from_means(
        rates: &IntervalRates,
        average_temperature: PerStructure<Kelvin>,
        peak_temperature: PerStructure<Kelvin>,
        tc: &ThermalCycling,
    ) -> Self {
        let tc_rates = PerStructure(average_temperature.0.map(|t| tc.rate_at((), t)));
        AveragedRates {
            per_mechanism: PerMechanism::from_fn(|m| *rates.get(m).unwrap_or(&tc_rates)),
            average_temperature,
            peak_temperature,
        }
    }

    /// The averages of a run of the one interval whose `rates` and
    /// structure `temperature`s are given: bit-equal to a
    /// [`RateAccumulator`] that observed only that interval at weight 1
    /// (`r·1/1 = r`), without pricing it again.
    pub(crate) fn instantaneous(
        rates: &IntervalRates,
        temperature: &PerStructure<Kelvin>,
        tc: &ThermalCycling,
    ) -> Self {
        Self::from_means(rates, *temperature, *temperature, tc)
    }

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
    rate_sums: IntervalRates,
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
            rate_sums: IntervalRates::ZERO,
            temp_sums: PerStructure::from_fn(|_| 0.0),
            temp_peaks: PerStructure::from_fn(|_| 0.0),
            weight: 0.0,
        }
    }

    /// The mechanisms prepared for this accumulator's node.
    pub(crate) fn prepared(&self) -> &PreparedSet {
        &self.prepared
    }

    /// Observes one sampling interval: an operating point per structure,
    /// weighted by the interval duration (relative weights suffice). The
    /// interval is priced by [`PreparedSet::price_interval`].
    ///
    /// # Panics
    ///
    /// Panics if `dt_weight` is not finite and positive, or a mechanism
    /// produces a non-finite or negative rate. (The pipeline checks the
    /// same rates and returns a [`crate::RampError`] instead.)
    // ramp-lint:allow(unit-safety) -- dt_weight is a dimensionless quadrature weight
    pub fn observe(&mut self, ops: &PerStructure<OperatingPoint>, dt_weight: f64) {
        assert!(
            dt_weight.is_finite() && dt_weight > 0.0,
            "interval weight must be positive"
        );
        let activity = PerStructure(ops.0.map(|op| op.activity));
        let supply = PerStructure(ops.0.map(|op| op.voltage));
        let temperature = PerStructure(ops.0.map(|op| op.temperature));
        let terms = ActivityTerms::new(&self.prepared, &activity);
        let rates = self.prepared.price_interval(&terms, &supply, &temperature);
        if let Some((kind, s, r)) = rates.first_invalid() {
            panic!("{kind} produced invalid rate {r} at {s}"); // ramp-lint:allow(panic-hygiene) -- the documented panic of this `()`-returning API
        }
        self.accumulate(&rates, &temperature, dt_weight);
    }

    /// Adds one priced interval at `dt_weight`: its rates, and its
    /// structure temperatures to the average and the peak.
    // ramp-lint:allow(unit-safety) -- dt_weight is a dimensionless quadrature weight
    pub(crate) fn accumulate(
        &mut self,
        rates: &IntervalRates,
        temperature: &PerStructure<Kelvin>,
        dt_weight: f64,
    ) {
        for (sums, rates) in self.rate_sums.0.iter_mut().zip(&rates.0) {
            for (sum, r) in sums.0.iter_mut().zip(&rates.0) {
                *sum += r * dt_weight;
            }
        }
        let temps = self.temp_sums.0.iter_mut().zip(&mut self.temp_peaks.0);
        for ((sum, peak), t) in temps.zip(&temperature.0) {
            let t = t.value();
            *sum += t * dt_weight;
            if t > *peak {
                *peak = t;
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
        let mean = |sum: f64| sum / self.weight;
        let means = IntervalRates(self.rate_sums.0.map(|sums| PerStructure(sums.0.map(mean))));
        let average_temperature = PerStructure(self.temp_sums.0.map(|sum| {
            // ramp-lint:allow(panic-hygiene) -- mean of valid temperatures stays valid
            Kelvin::new(mean(sum)).expect("average of valid temperatures is valid")
        }));
        let peak_temperature = PerStructure(self.temp_peaks.0.map(|peak| {
            // ramp-lint:allow(panic-hygiene) -- max of valid temperatures stays valid
            Kelvin::new(peak.max(1e-6)).expect("peak of valid temperatures is valid")
        }));
        AveragedRates::from_means(
            &means,
            average_temperature,
            peak_temperature,
            self.prepared.tc(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_units::{ActivityFactor, Volts};

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
