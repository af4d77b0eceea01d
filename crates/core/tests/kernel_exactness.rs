//! The prepared mechanism kernels reproduce the rate formulas bit for bit.
//!
//! Each mechanism's `prepare(node)` hoists the node's invariant factors,
//! and `relative_rate` is now that kernel's evaluation. This test holds
//! three evaluations to one set of bits, compared with `to_bits`: the
//! kernel (through `rate` and through `hoist` + `rate_at`),
//! `FailureModel::relative_rate`, and a copy of each formula as it read
//! before the kernels existed. Nodes range over all six `NodeId`s, with
//! `t_ox` and κ perturbed the way the fleet perturbs a chip's node.

use proptest::prelude::*;
use ramp_core::mechanisms::{
    DielectricBreakdown, Electromigration, FailureModel, MechanismKernel, MechanismSet,
    StressMigration, ThermalCycling,
};
use ramp_core::{NodeId, OperatingPoint, TechNode};
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

/// Panics unless the kernel's two evaluation paths, the trait and the
/// formula agree bit for bit.
fn check<K: MechanismKernel>(
    label: &str,
    model: &dyn FailureModel,
    kernel: K,
    formula: f64,
    op: &OperatingPoint,
    node: &TechNode,
) {
    let want = formula.to_bits();
    let context = || format!("{label} at {op:?} on {:?}", node.id);
    prop_assert_eq!(
        model.relative_rate(op, node).to_bits(),
        want,
        "trait: {}",
        context()
    );
    prop_assert_eq!(kernel.rate(op).to_bits(), want, "rate: {}", context());
    let hoisted = kernel.hoist(op.voltage, op.activity);
    prop_assert_eq!(
        kernel.rate_at(hoisted, op.temperature).to_bits(),
        want,
        "rate_at: {}",
        context()
    );
}

/// Every mechanism, both parameter sets where there are two.
fn check_all(op: &OperatingPoint, node: &TechNode) {
    for em in [Electromigration::default(), Electromigration::published()] {
        check(
            "EM",
            &em,
            em.prepare(node),
            em_formula(&em, op, node),
            op,
            node,
        );
    }
    let sm = StressMigration::default();
    check("SM", &sm, sm.prepare(node), sm_formula(&sm, op), op, node);
    for tddb in [
        DielectricBreakdown::default(),
        DielectricBreakdown::published_wu(),
    ] {
        let formula = tddb_formula(&tddb, op, node);
        check("TDDB", &tddb, tddb.prepare(node), formula, op, node);
    }
    let tc = ThermalCycling::default();
    check("TC", &tc, tc.prepare(node), tc_formula(&tc, op), op, node);

    // The set prepares each member exactly as the member prepares itself.
    let set = MechanismSet::default();
    let prepared = set.prepare(node);
    prop_assert_eq!(prepared.em, set.em.prepare(node));
    prop_assert_eq!(prepared.sm, set.sm.prepare(node));
    prop_assert_eq!(prepared.tddb, set.tddb.prepare(node));
    prop_assert_eq!(prepared.tc, set.tc.prepare(node));
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
    fn prepared_kernels_match_relative_rate_bit_for_bit(
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
