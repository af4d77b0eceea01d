//! Property-based tests over the failure models and the SOFR combination,
//! exercised through the public cross-crate API.

use proptest::prelude::*;
use ramp_core::mechanisms::{MechanismKernel, MechanismKind, MechanismSet, PerMechanism};
use ramp_core::{NodeId, OperatingPoint, Qualification, RateAccumulator, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{ActivityFactor, Kelvin, Volts};

fn op(t: f64, v: f64, p: f64) -> OperatingPoint {
    OperatingPoint::new(
        Kelvin::new(t).unwrap(),
        Volts::new(v).unwrap(),
        ActivityFactor::new(p).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every mechanism's rate is finite, non-negative, and monotone in
    /// temperature over the whole operating envelope, on every node.
    #[test]
    fn rates_finite_and_temperature_monotone(
        t in 320.0f64..390.0,
        v in 0.85f64..1.35,
        p in 0.0f64..1.0,
        node_idx in 0usize..5,
    ) {
        let prepared = MechanismSet::default().prepare(&TechNode::get(NodeId::ALL[node_idx]));
        for kind in MechanismKind::ALL {
            let r = prepared.rate(kind, &op(t, v, p));
            prop_assert!(r.is_finite() && r >= 0.0, "{kind}: {r}");
            let hotter = prepared.rate(kind, &op(t + 5.0, v, p));
            prop_assert!(hotter >= r, "{kind} not monotone at {t}K");
        }
    }

    /// Electromigration is monotone in activity; TDDB in voltage.
    #[test]
    fn em_activity_and_tddb_voltage_monotonicity(
        t in 330.0f64..380.0,
        p in 0.05f64..0.9,
        v in 0.9f64..1.25,
    ) {
        let prepared = MechanismSet::default().prepare(&TechNode::reference());
        prop_assert!(prepared.em().rate(&op(t, 1.3, p + 0.1)) > prepared.em().rate(&op(t, 1.3, p)));
        prop_assert!(
            prepared.tddb().rate(&op(t, v + 0.05, 0.5)) > prepared.tddb().rate(&op(t, v, 0.5))
        );
    }

    /// The SOFR combination is additive: the total FIT equals both the sum
    /// over mechanisms of structure sums and the sum over structures of
    /// mechanism sums, for arbitrary operating conditions.
    #[test]
    fn sofr_double_sum_consistency(
        temps in proptest::collection::vec(325.0f64..385.0, 7),
        acts in proptest::collection::vec(0.0f64..1.0, 7),
    ) {
        let models = MechanismSet::default();
        let node = TechNode::reference();
        let mut acc = RateAccumulator::new(&models, node);
        let ops = PerStructure::from_fn(|s| op(temps[s.index()], 1.3, acts[s.index()]));
        acc.observe(&ops, 1.0);
        let rates = acc.finish();
        let qual = Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap();
        let report = qual.fit_report(&rates);
        let by_mech: f64 = MechanismKind::ALL
            .iter()
            .map(|&m| report.mechanism_total(m).value())
            .sum();
        let by_struct: f64 = Structure::ALL
            .iter()
            .map(|&s| report.structure_total(s).value())
            .sum();
        prop_assert!((by_mech - by_struct).abs() < 1e-9 * by_mech.max(1.0));
        prop_assert!((by_mech - report.total().value()).abs() < 1e-9 * by_mech.max(1.0));
    }

    /// Time-averaging: observing the same operating point with arbitrary
    /// positive weights must give exactly the instantaneous rates, and a
    /// mixture must lie between the pointwise extremes.
    #[test]
    fn rate_averaging_is_a_convex_combination(
        t1 in 330.0f64..355.0,
        t2 in 355.0f64..385.0,
        w1 in 0.1f64..10.0,
        w2 in 0.1f64..10.0,
    ) {
        let models = MechanismSet::default();
        let node = TechNode::reference();
        let uniform = |t: f64| PerStructure::from_fn(|_| op(t, 1.3, 0.5));

        let rate_at = |t: f64| {
            let mut acc = RateAccumulator::new(&models, node);
            acc.observe(&uniform(t), 1.0);
            acc.finish().rate(MechanismKind::Em, Structure::Lsu)
        };
        let lo = rate_at(t1);
        let hi = rate_at(t2);

        let mut acc = RateAccumulator::new(&models, node);
        acc.observe(&uniform(t1), w1);
        acc.observe(&uniform(t2), w2);
        let mixed = acc.finish().rate(MechanismKind::Em, Structure::Lsu);
        prop_assert!(mixed >= lo - 1e-12 && mixed <= hi + 1e-12,
            "mixture {mixed} outside [{lo}, {hi}]");
        // Exact convex combination for the linear (EM) accumulator path.
        let expect = (lo * w1 + hi * w2) / (w1 + w2);
        prop_assert!((mixed - expect).abs() < 1e-9 * expect);
    }

    /// After qualification, the total FIT — and every per-mechanism
    /// contribution — is monotone non-decreasing in a uniform junction
    /// temperature rise at fixed voltage and activity, on every node.
    #[test]
    fn qualified_fit_monotone_in_temperature(
        t in 325.0f64..378.0,
        dt in 0.0f64..10.0,
        v in 0.9f64..1.3,
        p in 0.05f64..0.95,
        node_idx in 0usize..5,
    ) {
        let models = MechanismSet::default();
        let node = TechNode::get(NodeId::ALL[node_idx]);
        let rates_at = |t: f64| {
            let mut acc = RateAccumulator::new(&models, node);
            acc.observe(&PerStructure::from_fn(|_| op(t, v, p)), 1.0);
            acc.finish()
        };
        let cool = rates_at(t);
        let hot = rates_at(t + dt);
        let qual = Qualification::from_reference_runs(&[cool]).unwrap();
        let cool_report = qual.fit_report(&cool);
        let hot_report = qual.fit_report(&hot);
        prop_assert!(
            hot_report.total().value() >= cool_report.total().value() * (1.0 - 1e-12),
            "total FIT fell from {} to {} for +{dt} K at {t} K",
            cool_report.total(),
            hot_report.total()
        );
        for m in MechanismKind::ALL {
            prop_assert!(
                hot_report.mechanism_total(m).value()
                    >= cool_report.mechanism_total(m).value() * (1.0 - 1e-12),
                "{m} FIT fell for +{dt} K at {t} K"
            );
        }
    }

    /// Qualification scale-invariance: scaling all reference rates by a
    /// common factor leaves qualified FIT reports unchanged.
    #[test]
    fn qualification_is_scale_invariant(scale in 0.01f64..100.0) {
        let models = MechanismSet::default();
        let node = TechNode::reference();
        let ops = PerStructure::from_fn(|s| op(340.0 + 5.0 * s.index() as f64, 1.3, 0.4));

        let mut acc = RateAccumulator::new(&models, node);
        acc.observe(&ops, 1.0);
        let rates = acc.finish();
        let qual = Qualification::from_reference_runs(&[rates]).unwrap();
        let baseline = qual.fit_report(&rates).total().value();

        // Rebuild qualification from constants scaled both ways; the FIT
        // report of the *same* rates must scale linearly, confirming the
        // constants are pure linear gains.
        let scaled_qual = Qualification::from_constants(PerMechanism::from_fn(|m| {
            qual.constant(m) * scale
        }))
        .unwrap();
        let scaled_total = scaled_qual.fit_report(&rates).total().value();
        prop_assert!((scaled_total / baseline - scale).abs() < 1e-9 * scale);
    }
}
