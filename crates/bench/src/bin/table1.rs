//! Table 1: the qualitative scaling-dependence summary, made quantitative.
//!
//! The paper's Table 1 lists which parameters each mechanism depends on.
//! This binary evaluates each dependence numerically: the multiplicative
//! change in failure rate per +10 K of temperature, per 0.1 V of supply,
//! and per technology-node step of the feature-size terms — at a
//! representative operating point.

use ramp_core::mechanisms::{MechanismKind, MechanismSet};
use ramp_core::{NodeId, OperatingPoint, TechNode};
use ramp_units::{ActivityFactor, Kelvin, Volts};

fn op(t: f64, v: f64) -> OperatingPoint {
    OperatingPoint::new(
        Kelvin::new(t).expect("valid test temperature"),
        Volts::new(v).expect("valid test voltage"),
        ActivityFactor::new(0.4).expect("valid activity"),
    )
}

fn main() {
    ramp_bench::init_obs();
    let models = MechanismSet::default();
    let n180 = models.prepare(&TechNode::reference());
    let n65 = models.prepare(&TechNode::get(NodeId::N65HighV));
    let t0 = 356.0;
    let v0 = 1.3;

    println!("Table 1 (quantified): sensitivity of each failure-rate model");
    println!("at T = {t0} K, V = {v0} V, p = 0.4, 180nm reference.");
    println!();
    println!(
        "{:<6} {:>14} {:>14} {:>18}",
        "mech", "x per +10K", "x per +0.1V", "x feature terms*"
    );
    for kind in MechanismKind::ALL {
        let base = n180.rate(kind, &op(t0, v0));
        let hot = n180.rate(kind, &op(t0 + 10.0, v0));
        let volt = n180.rate(kind, &op(t0, v0 + 0.1));
        // Feature-size terms isolated: same op point, 65 nm node.
        let scaled = n65.rate(kind, &op(t0, v0));
        println!(
            "{:<6} {:>14.3} {:>14.3} {:>18.3}",
            kind.label(),
            hot / base,
            volt / base,
            scaled / base,
        );
    }
    println!();
    println!("*feature terms = rate at 65nm (1.0V node parameters) / rate at 180nm,");
    println!(" holding temperature, voltage, and activity fixed — i.e. the w·h (EM),");
    println!(" t_ox & gate-area (TDDB) columns of the paper's Table 1. SM and TC");
    println!(" show 1.0 there, exactly as the paper's empty cells indicate.");
    println!();
    println!("Temperature column ordering check (paper: TDDB strongest, then EM/SM, TC gentlest):");
    let mut temp_sens = MechanismKind::ALL.map(|kind| {
        let base = n180.rate(kind, &op(t0, v0));
        (kind, n180.rate(kind, &op(t0 + 10.0, v0)) / base)
    });
    temp_sens.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (kind, s) in temp_sens {
        println!("  {kind}: x{s:.3} per +10K");
    }
}
