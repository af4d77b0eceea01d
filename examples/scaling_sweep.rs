//! Scaling sweep: take one benchmark and remap it across all five
//! technology points, reproducing a single line of the paper's Figure 3.
//!
//! Demonstrates the constant-sink-temperature methodology: the 180 nm run
//! anchors each scaled node's heat-sink resistance.
//!
//! ```text
//! cargo run --example scaling_sweep --release [benchmark]
//! ```

use ramp_core::mechanisms::MechanismKind;
use ramp_core::{NodeId, QueryEngine, StudyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "wupwise".into());
    // Calibrated on this benchmark alone: its 180 nm run anchors both the
    // qualification and each scaled node's constant-sink-temperature rule.
    let engine = QueryEngine::calibrate(&StudyConfig::quick().with_benchmarks(&[&name])?)?;

    println!("{name}: lifetime reliability across technology generations");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>9} | {:>7} {:>7} {:>7} {:>7} {:>8}",
        "node", "power W", "sink K", "maxT K", "ΔFIT/180", "EM", "SM", "TDDB", "TC", "total"
    );

    let base_fit = engine
        .evaluate(&engine.query(&name, NodeId::N180)?)?
        .total_fit;
    for id in NodeId::ALL {
        let outcome = engine.evaluate(&engine.query(&name, id)?)?;
        print!(
            "{:<12} {:>8.1} {:>8.1} {:>8.1} {:>+8.0}% |",
            id.label(),
            outcome.avg_power.value(),
            outcome.sink_temperature.value(),
            outcome.max_temperature.value(),
            outcome.total_fit.percent_increase_over(base_fit),
        );
        for m in MechanismKind::ALL {
            print!(" {:>7.0}", outcome.mechanism_fit[m].value());
        }
        println!(" {:>8.0}", outcome.total_fit.value());
    }
    println!();
    println!("Expected shape (paper): FIT roughly flat to 130nm, then a sharp rise");
    println!("beyond 90nm, dominated by TDDB and EM; the 1.0V 65nm variant is far");
    println!("worse than the 0.9V one.");
    Ok(())
}
