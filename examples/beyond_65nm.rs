//! Beyond the paper's horizon: project the study one generation further,
//! to a 45 nm point that continues the paper's scaling assumptions
//! (supply pinned at the 1.0 V noise floor, J_max at its floor, leakage
//! density still climbing). The paper's §6 warns of "potentially large and
//! sharp drops in long-term reliability, especially beyond 90 nm" — this
//! extrapolation shows how sharp.
//!
//! ```text
//! cargo run --example beyond_65nm --release
//! ```

use ramp_core::mechanisms::MechanismKind;
use ramp_core::{NodeId, QueryEngine, StudyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = QueryEngine::calibrate(&StudyConfig::quick().with_benchmarks(&["facerec"])?)?;

    println!("facerec: extending the scaling study one generation past the paper");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "node", "power W", "maxT K", "EM", "SM", "TDDB", "total FIT", "MTTF (yr)"
    );
    for id in [
        NodeId::N180,
        NodeId::N90,
        NodeId::N65HighV,
        NodeId::N45Projected,
    ] {
        let outcome = engine.evaluate(&engine.query("facerec", id)?)?;
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>8.0} {:>8.0} {:>8.0} {:>9.0} {:>10.1}",
            id.label(),
            outcome.avg_power.value(),
            outcome.max_temperature.value(),
            outcome.mechanism_fit[MechanismKind::Em].value(),
            outcome.mechanism_fit[MechanismKind::Sm].value(),
            outcome.mechanism_fit[MechanismKind::Tddb].value(),
            outcome.total_fit.value(),
            outcome.expected_lifetime.value(),
        );
    }
    println!();
    println!("Every assumption in the 45nm row continues a published trend (see");
    println!("NodeId::N45Projected); the collapse in MTTF is the paper's warning,");
    println!("one generation louder. This is a projection, not a Table-4 datum.");
    Ok(())
}
