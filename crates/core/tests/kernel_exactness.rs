//! The prepared mechanism kernels reproduce the rate formulas bit for bit.
//!
//! Each mechanism's `prepare(node)` hoists the node's invariant factors.
//! This test holds the kernel (through `rate`, through `hoist` +
//! `rate_at`, through `PreparedSet::rate` and through the fused
//! `PreparedSet::price_interval`) to a copy of each formula as it read
//! before the kernels existed, compared with `to_bits`, and a
//! `RateAccumulator` to the same accumulation of those formula copies.
//! Nodes range over all six `NodeId`s, with `t_ox` and κ perturbed the
//! way the fleet perturbs a chip's node.

use proptest::prelude::*;
use ramp_core::mechanisms::{
    ActivityTerms, DielectricBreakdown, Electromigration, IntervalRates, MechanismKernel,
    MechanismKind, MechanismSet, StressMigration, ThermalCycling,
};
use ramp_core::{NodeId, OperatingPoint, RateAccumulator, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{ActivityFactor, Angstroms, Kelvin, Volts, BOLTZMANN_EV_PER_K};

/// Every node, the projected 45 nm point included.
const NODES: [NodeId; 6] = [
    NodeId::N180,
    NodeId::N130,
    NodeId::N90,
    NodeId::N65LowV,
    NodeId::N65HighV,
    NodeId::N45Projected,
];

/// `id`'s node with `t_ox` and κ scaled as the fleet scales a chip's.
fn perturbed(id: NodeId, tox_factor: f64, geometry_factor: f64) -> TechNode {
    let mut node = TechNode::get(id);
    node.tox = Angstroms::new(node.tox.value() * tox_factor).unwrap_or(node.tox);
    node.scale_factor *= geometry_factor;
    node
}

fn em_formula(m: &Electromigration, op: &OperatingPoint, node: &TechNode) -> f64 {
    let j = node.j_max.at_activity(op.activity).value();
    let arrhenius = (-m.activation_energy_ev / (BOLTZMANN_EV_PER_K * op.temperature.value())).exp();
    let geometry = node.scale_factor.powf(-m.geometry_exponent);
    j.powf(m.current_exponent) * arrhenius * geometry
}

fn sm_formula(m: &StressMigration, op: &OperatingPoint) -> f64 {
    let t = op.temperature.value();
    let stress = (m.stress_free_temp.value() - t).abs();
    let arrhenius = (-m.activation_energy_ev / (BOLTZMANN_EV_PER_K * t)).exp();
    stress.powf(m.stress_exponent) * arrhenius
}

fn tddb_formula(m: &DielectricBreakdown, op: &OperatingPoint, node: &TechNode) -> f64 {
    let t = op.temperature;
    let ln_voltage = m.voltage_exponent(t) * op.voltage.value().ln();
    let ln_arrhenius = -m.arrhenius_exponent(t);
    let ln_tox = node.tox_reduction_nm() / m.nm_per_decade * std::f64::consts::LN_10;
    let ln_area = node.area_rel.ln();
    (ln_voltage + ln_arrhenius + ln_tox + ln_area).exp()
}

fn tc_formula(m: &ThermalCycling, op: &OperatingPoint) -> f64 {
    let swing = (op.temperature - m.ambient).max(0.0);
    swing.powf(m.coffin_manson_exponent)
}

/// Panics unless the kernel's two evaluation paths give `want`'s bits.
fn check<K: MechanismKernel>(label: &str, kernel: K, want: f64, op: &OperatingPoint) {
    let want = want.to_bits();
    assert_eq!(kernel.rate(op).to_bits(), want, "{label} rate at {op:?}");
    let hoisted = kernel.hoist(op.voltage, op.activity);
    let rate_at = kernel.rate_at(hoisted, op.temperature).to_bits();
    assert_eq!(rate_at, want, "{label} rate_at at {op:?}");
}

/// Every mechanism of both parameter sets, through each kernel and
/// through `PreparedSet::rate`.
fn check_all(op: &OperatingPoint, node: &TechNode) {
    for set in sets() {
        let prepared = set.prepare(node);
        let want = |kind| formula(&set, kind, op, node);
        check("EM", *prepared.em(), want(MechanismKind::Em), op);
        check("SM", *prepared.sm(), want(MechanismKind::Sm), op);
        check("TDDB", *prepared.tddb(), want(MechanismKind::Tddb), op);
        check("TC", *prepared.tc(), want(MechanismKind::Tc), op);
        for kind in MechanismKind::ALL {
            let (got, want) = (prepared.rate(kind, op), want(kind));
            let context = format!("{kind} at {op:?} on {:?}", node.id);
            assert_eq!(got.to_bits(), want.to_bits(), "{context}");
        }
    }
}

/// The default set, the one with each mechanism's published parameters
/// (SM and TC have one parameter set), and one whose SM activation energy
/// differs from EM's, so EM and SM cannot share an Arrhenius factor.
fn sets() -> [MechanismSet; 3] {
    let published = MechanismSet {
        em: Electromigration::published(),
        tddb: DielectricBreakdown::published_wu(),
        ..MechanismSet::default()
    };
    let split_activation = MechanismSet {
        sm: StressMigration {
            activation_energy_ev: 0.85,
            ..StressMigration::default()
        },
        ..MechanismSet::default()
    };
    [MechanismSet::default(), published, split_activation]
}

/// `kind`'s formula copy with `set`'s parameters.
fn formula(set: &MechanismSet, kind: MechanismKind, op: &OperatingPoint, node: &TechNode) -> f64 {
    match kind {
        MechanismKind::Em => em_formula(&set.em, op, node),
        MechanismKind::Sm => sm_formula(&set.sm, op),
        MechanismKind::Tddb => tddb_formula(&set.tddb, op, node),
        MechanismKind::Tc => tc_formula(&set.tc, op),
    }
}

/// `RateAccumulator`'s average of `kind` at `s` over `intervals`, on
/// the formula copies: the weighted mean rate for EM, SM and TDDB, and
/// TC once at the weighted mean temperature.
fn accumulated(
    set: &MechanismSet,
    node: &TechNode,
    intervals: &[(PerStructure<OperatingPoint>, f64)],
    kind: MechanismKind,
    s: Structure,
) -> f64 {
    let weight: f64 = intervals.iter().map(|(_, w)| w).sum();
    let mean = |f: &dyn Fn(&OperatingPoint) -> f64| {
        intervals.iter().map(|(ops, w)| f(&ops[s]) * w).sum::<f64>() / weight
    };
    if kind == MechanismKind::Tc {
        let t = Kelvin::new(mean(&|op| op.temperature.value())).unwrap();
        let op = OperatingPoint::new(t, node.vdd, ActivityFactor::IDLE);
        tc_formula(&set.tc, &op)
    } else {
        mean(&|op| formula(set, kind, op, node))
    }
}

fn op(t: f64, v: f64, p: f64) -> OperatingPoint {
    OperatingPoint::new(
        Kelvin::new(t).unwrap(),
        Volts::new(v).unwrap(),
        ActivityFactor::new(p).unwrap(),
    )
}

/// Picks `pinned[i]` for an index inside it, else the drawn value: a
/// strategy that covers the named points and the range between them.
fn pick(pinned: &[f64], i: usize, drawn: f64) -> f64 {
    pinned.get(i).copied().unwrap_or(drawn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prepared_kernels_match_the_formulas_bit_for_bit(
        t in 300.0f64..420.0,
        v_pick in 0usize..12,
        v_drawn in 0.7f64..1.4,
        p_pick in 0usize..4,
        p_drawn in 0.0f64..=1.0,
        node_idx in 0usize..NODES.len(),
        tox_pick in 0usize..4,
        tox_drawn in 0.94f64..1.06,
        geometry_pick in 0usize..4,
        geometry_drawn in 0.91f64..1.09,
    ) {
        let supplies = NODES.map(|id| TechNode::get(id).vdd.value());
        let node = perturbed(
            NODES[node_idx],
            pick(&[1.0], tox_pick, tox_drawn),
            pick(&[1.0], geometry_pick, geometry_drawn),
        );
        let op = op(
            t,
            pick(&supplies, v_pick, v_drawn),
            pick(&[0.0, 1.0], p_pick, p_drawn),
        );
        check_all(&op, &node);
    }
}

/// The grid corners: every node and supply, idle and full activity, at
/// the ends of the temperature range, with and without perturbation.
#[test]
fn prepared_kernels_match_on_the_grid_corners() {
    for id in NODES {
        for (tox_factor, geometry_factor) in [(1.0, 1.0), (0.94, 1.09), (1.06, 0.91)] {
            let node = perturbed(id, tox_factor, geometry_factor);
            for supply in NODES.map(|n| TechNode::get(n).vdd.value()) {
                for activity in [0.0, 0.5, 1.0] {
                    for t in [300.0, 318.15, 360.0, 420.0] {
                        check_all(&op(t, supply, activity), &node);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accumulator_matches_the_formula_accumulation_bit_for_bit(
        temps in proptest::collection::vec(300.0f64..420.0, 4 * Structure::COUNT),
        activities in proptest::collection::vec(0.0f64..=1.0, 4 * Structure::COUNT),
        supplies in proptest::collection::vec(0.7f64..1.4, 4),
        weights in proptest::collection::vec(0.1f64..10.0, 4),
    ) {
        let intervals: Vec<(PerStructure<OperatingPoint>, f64)> = (0..4)
            .map(|i| {
                let ops = PerStructure::from_fn(|s| {
                    let cell = i * Structure::COUNT + s.index();
                    op(temps[cell], supplies[i], activities[cell])
                });
                (ops, weights[i])
            })
            .collect();
        for id in NODES {
            let node = TechNode::get(id);
            for set in sets() {
                let mut acc = RateAccumulator::new(&set, node);
                for (ops, w) in &intervals {
                    acc.observe(ops, *w);
                }
                let got = acc.finish();
                for kind in MechanismKind::ALL {
                    for s in Structure::ALL {
                        let want = accumulated(&set, &node, &intervals, kind, s);
                        let context = format!("{kind} {s:?} on {id:?}");
                        prop_assert_eq!(got.rate(kind, s).to_bits(), want.to_bits(), "{context}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_interval_pricing_matches_the_formulas_bit_for_bit(
        temps in proptest::collection::vec(300.0f64..420.0, Structure::COUNT),
        activities in proptest::collection::vec(0.0f64..=1.0, Structure::COUNT),
        supply_picks in proptest::collection::vec(0usize..4, Structure::COUNT),
        supply_drawn in 0.7f64..1.4,
        node_idx in 0usize..NODES.len(),
    ) {
        // Per-structure supplies: runs of one supply and changes between
        // neighbours both occur, so `ln V` reuse is exercised both ways.
        let supplies = [0.9, 1.0, 1.3];
        let ops = PerStructure::from_fn(|s| {
            let i = s.index();
            op(temps[i], pick(&supplies, supply_picks[i], supply_drawn), activities[i])
        });
        let node = TechNode::get(NODES[node_idx]);
        for set in sets() {
            let prepared = set.prepare(&node);
            let activity = PerStructure::from_fn(|s| ops[s].activity);
            let supply = PerStructure::from_fn(|s| ops[s].voltage);
            let temperature = PerStructure::from_fn(|s| ops[s].temperature);
            let terms = ActivityTerms::new(&prepared, &activity);
            let rates = prepared.price_interval(&terms, &supply, &temperature);
            prop_assert!(rates.get(MechanismKind::Tc).is_none());
            for kind in IntervalRates::MECHANISMS {
                for s in Structure::ALL {
                    let got = rates.get(kind).unwrap()[s];
                    let want = formula(&set, kind, &ops[s], &node);
                    let context = format!("{kind} {s:?} at {:?} on {:?}", ops[s], node.id);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", context);
                }
            }
        }
    }
}
