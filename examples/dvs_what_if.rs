//! Dynamic-voltage-scaling what-if: the TDDB model keeps its voltage
//! dependence precisely so DVS-style studies are possible (paper §2,
//! footnote 1). This example sweeps the 65 nm supply between the paper's
//! two design points and beyond, showing the reliability cliff that makes
//! the 1.0 V "realistic" variant so much worse than the 0.9 V one.
//!
//! ```text
//! cargo run --example dvs_what_if --release
//! ```

use ramp_core::mechanisms::MechanismKind;
use ramp_core::{NodeId, QueryEngine, StudyConfig, TechNode};
use ramp_trace::spec;
use ramp_units::Volts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Qualify at the 180 nm reference as usual.
    let engine = QueryEngine::calibrate(&StudyConfig::quick().with_benchmarks(&["apsi"])?)?;
    let profile = spec::profile("apsi")?;

    println!("apsi @ 65nm: supply-voltage sweep (DVS what-if)");
    println!(
        "{:<8} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "Vdd", "power W", "maxT K", "TDDB FIT", "EM FIT", "total FIT"
    );
    for millivolts in (850..=1100).step_by(50) {
        let vdd = Volts::new(f64::from(millivolts) / 1000.0)?;
        // Build a custom 65 nm operating point: same silicon, DVS'd rail.
        // Leakage density interpolates between the two published 65 nm
        // variants (0.54 W/mm² at 0.9 V, 0.60 at 1.0 V).
        let mut node = TechNode::get(NodeId::N65HighV);
        node.vdd = vdd;
        node.leakage_density = ramp_units::PowerDensity::new(
            0.54 + (vdd.value() - 0.9) * 0.6,
        )?;
        // Anchored to apsi's 180 nm power (constant-sink rule).
        let run = engine.run_anchored(&profile, &node)?;
        let report = engine.qualification().fit_report(&run.rates);
        println!(
            "{:<8} {:>9.1} {:>8.1} {:>9.0} {:>9.0} {:>9.0}",
            format!("{:.2} V", vdd.value()),
            run.avg_total().value(),
            run.max_temperature().value(),
            report.mechanism_total(MechanismKind::Tddb).value(),
            report.mechanism_total(MechanismKind::Em).value(),
            report.total().value(),
        );
    }
    println!();
    println!("Raising the rail costs reliability twice: directly through the TDDB");
    println!("voltage term, and indirectly because V² dynamic power heats the die.");
    Ok(())
}
