//! The paper's published numbers, in one table.
//!
//! Each row of [`PAPER_CLAIMS`] names a number the paper reports, its
//! published value, the band a reproduction is accepted in and, where
//! EXPERIMENTS.md documents a known miss, that deviation's number. The
//! report prints every "paper:" value from here, and
//! `crates/bench/tests/paper_headlines.rs` asserts every band without a
//! deviation against the full-length study.

use ramp_core::mechanisms::MechanismKind;
use ramp_core::{AppNodeResult, NodeId, RampError, StudyResults, TechNode};
use ramp_trace::Suite;
use MechanismKind::{Em, Sm, Tc, Tddb};
use Metric::*;
use NodeId::{N65HighV, N65LowV, N130, N180, N90};
use Suite::{Fp, Int};

/// A number the study produces, measured the way the paper reports it.
/// "Growth" is the percentage increase over the 180 nm value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Average total FIT of all benchmarks at 180 nm: the qualified budget.
    QualifiedFit,
    /// Growth of a suite's average total FIT at a node, %.
    Growth(Suite, NodeId),
    /// A suite's 65 nm (0.9 V) growth over its 65 nm (1.0 V) growth.
    LowVoltageShare(Suite),
    /// Growth of a suite's average FIT of one mechanism at a node, %.
    MechanismGrowth(MechanismKind, Suite, NodeId),
    /// Growth of one mechanism's FIT summed over both suites at 65 nm
    /// (1.0 V), %.
    BothSuitesGrowth(MechanismKind),
    /// Smallest step of TDDB > EM > SM > TC in [`BothSuitesGrowth`],
    /// percentage points (negative when the order breaks).
    MechanismOrder,
    /// Average heat-sink temperature change 180 nm → 65 nm (1.0 V), K.
    SinkDrift,
    /// Rise of a suite's average hottest-structure temperature 180 nm →
    /// 65 nm (1.0 V), K.
    MaxTemperatureRise(Suite),
    /// Worst-case FIT over the hottest application's at a node, %.
    MarginOverMax(NodeId),
    /// Worst-case FIT over the average application's at a node, %.
    MarginOverAverage(NodeId),
    /// Spread of total FIT across applications at a node.
    FitRange(NodeId),
    /// [`FitRange`] as a share of the node's average FIT, %.
    FitRangeShare(NodeId),
    /// A suite's average IPC at 180 nm (Table 3).
    Ipc(Suite),
    /// A suite's average total power at 180 nm, W (Table 3).
    SuitePower(Suite),
    /// Average total power of all benchmarks at a node, W (Table 4).
    NodePower(NodeId),
    /// Average power density at a node over 180 nm's (Table 4).
    RelativeDensity(NodeId),
}

impl Metric {
    /// Measures the metric on a study's results.
    ///
    /// # Errors
    ///
    /// [`RampError::MissingResult`] when a margin's node has no worst case.
    pub fn measure(self, r: &StudyResults) -> Result<f64, RampError> {
        let growth = |s, n| {
            r.average_total_fit(s, n)
                .percent_increase_over(r.average_total_fit(s, N180))
        };
        let worst = |margin: Option<f64>, n: NodeId| {
            margin.ok_or_else(|| RampError::MissingResult(format!("worst case at {}", n.label())))
        };
        let suite_mean = |s, value: fn(&AppNodeResult) -> f64| {
            let rs = r.suite_results(s, N180);
            rs.iter().map(|a| value(a)).sum::<f64>() / rs.len() as f64
        };
        let power = |n| {
            let rs: Vec<_> = r.app_results().iter().filter(|a| a.node == n).collect();
            rs.iter().map(|a| a.avg_total_power().value()).sum::<f64>() / rs.len() as f64
        };
        let both_suites = |m| {
            let both = |n| {
                r.average_mechanism_fit(Fp, n, m).value()
                    + r.average_mechanism_fit(Int, n, m).value()
            };
            (both(N65HighV) - both(N180)) / both(N180) * 100.0
        };
        Ok(match self {
            QualifiedFit => r.overall_average_fit(N180).value(),
            Growth(s, n) => growth(s, n),
            LowVoltageShare(s) => growth(s, N65LowV) / growth(s, N65HighV),
            MechanismGrowth(m, s, n) => r
                .average_mechanism_fit(s, n, m)
                .percent_increase_over(r.average_mechanism_fit(s, N180, m)),
            BothSuitesGrowth(m) => both_suites(m),
            MechanismOrder => {
                let [em, sm, tddb, tc] = [Em, Sm, Tddb, Tc].map(both_suites);
                (tddb - em).min(em - sm).min(sm - tc)
            }
            SinkDrift => r.average_sink_temperature(N65HighV) - r.average_sink_temperature(N180),
            MaxTemperatureRise(s) => {
                r.average_max_temperature(s, N65HighV) - r.average_max_temperature(s, N180)
            }
            MarginOverMax(n) => worst(r.worst_case_margin_over_max(n), n)?,
            MarginOverAverage(n) => worst(r.worst_case_margin_over_average(n), n)?,
            FitRange(n) => r.fit_range(n),
            FitRangeShare(n) => r.fit_range(n) / r.overall_average_fit(n).value() * 100.0,
            Ipc(s) => suite_mean(s, |a| a.ipc),
            SuitePower(s) => suite_mean(s, |a| a.avg_total_power().value()),
            NodePower(n) => power(n),
            RelativeDensity(n) => {
                let density = |n| power(n) / TechNode::get(n).core_area().value();
                density(n) / density(N180)
            }
        })
    }
}

/// One published number and what a reproduction of it must show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// What is measured.
    pub metric: Metric,
    /// The paper's value.
    pub published: f64,
    /// Open interval `(low, high)` the measured value is accepted in.
    pub band: (f64, f64),
    /// The EXPERIMENTS.md "Documented deviations" entry that explains a
    /// known miss; such a row is printed, not asserted.
    pub deviation: Option<u8>,
}

impl Claim {
    const fn band(metric: Metric, published: f64, low: f64, high: f64) -> Claim {
        Claim {
            metric,
            published,
            band: (low, high),
            deviation: None,
        }
    }

    /// Within a factor of two: the figures promise the shape and the rough
    /// factor, not the digits.
    const fn shape(metric: Metric, published: f64) -> Claim {
        Claim::band(metric, published, published / 2.0, published * 2.0)
    }

    /// Within 5 %, the accuracy EXPERIMENTS.md reports for Table 4.
    const fn table4(metric: Metric, published: f64) -> Claim {
        Claim::band(metric, published, published * 0.95, published * 1.05)
    }

    const fn deviation(self, number: u8) -> Claim {
        Claim {
            deviation: Some(number),
            ..self
        }
    }

    /// Whether `measured` lies inside the band.
    #[must_use]
    pub fn accepts(&self, measured: f64) -> bool {
        self.band.0 < measured && measured < self.band.1
    }

    /// `ok`, `OUT OF BAND`, or the deviation that explains the row.
    #[must_use]
    pub fn verdict(&self, measured: f64) -> String {
        match self.deviation {
            Some(n) => format!("deviation {n}"),
            None if self.accepts(measured) => "ok".into(),
            None => "OUT OF BAND".into(),
        }
    }
}

/// The published value of `metric`, or NaN if the table has no row for it.
#[must_use]
pub fn published(metric: Metric) -> f64 {
    PAPER_CLAIMS
        .iter()
        .find(|c| c.metric == metric)
        .map_or(f64::NAN, |c| c.published)
}

/// The paper-claims table: every number of the paper that the report
/// prints or the headline test checks, with its accepted band.
pub static PAPER_CLAIMS: &[Claim] = &[
    Claim::band(QualifiedFit, 4000.0, 3999.0, 4001.0),
    Claim::band(Growth(Fp, N65HighV), 274.0, 250.0, 420.0),
    Claim::band(Growth(Int, N65HighV), 357.0, 250.0, 420.0),
    Claim::shape(Growth(Fp, N65LowV), 70.0),
    Claim::shape(Growth(Int, N65LowV), 86.0),
    Claim::band(LowVoltageShare(Fp), 70.0 / 274.0, f64::NEG_INFINITY, 0.5),
    Claim::band(LowVoltageShare(Int), 86.0 / 357.0, f64::NEG_INFINITY, 0.5),
    Claim::shape(MechanismGrowth(Em, Fp, N65LowV), 97.0).deviation(2),
    Claim::shape(MechanismGrowth(Em, Int, N65LowV), 128.0).deviation(2),
    Claim::shape(MechanismGrowth(Em, Fp, N65HighV), 303.0),
    Claim::shape(MechanismGrowth(Em, Int, N65HighV), 447.0),
    Claim::shape(MechanismGrowth(Sm, Fp, N65LowV), 43.0),
    Claim::shape(MechanismGrowth(Sm, Int, N65LowV), 52.0),
    Claim::shape(MechanismGrowth(Sm, Fp, N65HighV), 76.0),
    Claim::shape(MechanismGrowth(Sm, Int, N65HighV), 106.0),
    Claim::shape(MechanismGrowth(Tddb, Fp, N65LowV), 106.0),
    Claim::shape(MechanismGrowth(Tddb, Int, N65LowV), 127.0),
    Claim::shape(MechanismGrowth(Tddb, Fp, N65HighV), 667.0),
    Claim::shape(MechanismGrowth(Tddb, Int, N65HighV), 812.0),
    Claim::shape(MechanismGrowth(Tc, Fp, N65LowV), 32.0),
    Claim::shape(MechanismGrowth(Tc, Int, N65LowV), 36.0),
    Claim::shape(MechanismGrowth(Tc, Fp, N65HighV), 52.0),
    Claim::shape(MechanismGrowth(Tc, Int, N65HighV), 66.0),
    // The paper gives each suite's growth only: "published" is their mean.
    Claim::band(BothSuitesGrowth(Tddb), (667.0 + 812.0) / 2.0, 600.0, 1000.0),
    Claim::band(BothSuitesGrowth(Em), (303.0 + 447.0) / 2.0, 250.0, 500.0),
    // The smallest step among the paper's 1.0 V growths: SpecFP SM 76 − TC 52.
    Claim::band(MechanismOrder, 24.0, 0.0, f64::INFINITY),
    Claim::band(SinkDrift, 0.0, -0.5, 0.5),
    Claim::band(MaxTemperatureRise(Fp), 15.0, 8.0, 18.0),
    Claim::band(MaxTemperatureRise(Int), 15.0, 8.0, 18.0),
    Claim::band(MarginOverMax(N180), 25.0, 10.0, 60.0),
    Claim::shape(MarginOverMax(N65HighV), 90.0).deviation(3),
    Claim::shape(MarginOverAverage(N180), 67.0),
    Claim::shape(MarginOverAverage(N65HighV), 206.0).deviation(3),
    Claim::shape(FitRange(N180), 2479.0),
    Claim::shape(FitRange(N65HighV), 17272.0),
    Claim::shape(FitRangeShare(N180), 62.0),
    Claim::shape(FitRangeShare(N65HighV), 104.0).deviation(3),
    Claim::band(Ipc(Fp), 1.52, 1.50, 1.54),
    Claim::band(Ipc(Int), 1.79, 1.77, 1.81),
    Claim::band(SuitePower(Fp), 28.51, 28.31, 28.71),
    Claim::band(SuitePower(Int), 29.66, 29.46, 29.86),
    Claim::table4(NodePower(N180), 29.1),
    Claim::table4(NodePower(N130), 19.0),
    Claim::table4(NodePower(N90), 14.7),
    Claim::table4(NodePower(N65LowV), 14.4),
    Claim::table4(NodePower(N65HighV), 16.9),
    Claim::table4(RelativeDensity(N180), 1.0),
    Claim::table4(RelativeDensity(N130), 1.31),
    Claim::table4(RelativeDensity(N90), 2.02),
    Claim::table4(RelativeDensity(N65LowV), 3.09),
    Claim::table4(RelativeDensity(N65HighV), 3.63),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_metric_has_one_row_whose_band_holds_the_paper() {
        for (i, c) in PAPER_CLAIMS.iter().enumerate() {
            assert!(
                PAPER_CLAIMS[..i].iter().all(|d| d.metric != c.metric),
                "{c:?} twice"
            );
            assert!(c.accepts(c.published), "{c:?}");
        }
        assert!(published(NodePower(NodeId::N45Projected)).is_nan());
    }

    #[test]
    fn bands_are_open_and_deviations_are_not_verdicts() {
        let c = Claim::band(SinkDrift, 0.0, -0.5, 0.5);
        assert!(c.accepts(0.49) && !c.accepts(0.5) && !c.accepts(-0.5) && !c.accepts(f64::NAN));
        assert_eq!([c.verdict(0.0), c.verdict(1.0)], ["ok", "OUT OF BAND"]);
        assert_eq!(c.deviation(4).verdict(1.0), "deviation 4");
    }
}
