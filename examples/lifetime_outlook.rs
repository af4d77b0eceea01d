//! Lifetime outlook: translate FIT rates into the numbers a product team
//! actually reasons about — fleet fallout over a service life, the 1 %
//! fallout age, and which mechanism/structure breaks first (Monte Carlo).
//!
//! ```text
//! cargo run --example lifetime_outlook --release
//! ```

use ramp_core::lifetime::{LifetimeDistribution, MonteCarloLifetime};
use ramp_core::mechanisms::MechanismKind;
use ramp_core::{NodeId, QueryEngine, StudyConfig};
use ramp_units::Years;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = QueryEngine::calibrate(&StudyConfig::quick().with_benchmarks(&["gap"])?)?;

    println!("gap: lifetime outlook per technology node");
    println!(
        "{:<12} {:>9} {:>11} {:>14} {:>14}",
        "node", "FIT", "MTTF (yr)", "1% fallout yr", "fail @ 7 yr"
    );
    let mut reports = Vec::new();
    for id in NodeId::ALL {
        let report = engine.population_anchor(&engine.query("gap", id)?)?.report;
        let dist = LifetimeDistribution::from_report(&report);
        println!(
            "{:<12} {:>9.0} {:>11.1} {:>14.2} {:>13.1}%",
            id.label(),
            report.total().value(),
            dist.mttf_years().value(),
            dist.percentile_years(0.01).value(),
            dist.failure_probability_by_years(Years::new(7.0)?) * 100.0,
        );
        reports.push((id, report));
    }

    // Who breaks first? Monte Carlo over the 65 nm (1.0 V) report.
    let (_, report65) = reports
        .iter()
        .find(|(id, _)| *id == NodeId::N65HighV)
        .expect("65 nm evaluated above");
    let mut mc = MonteCarloLifetime::new(report65, 2004);
    let blame = mc.blame_histogram(50_000);
    println!();
    println!("first-failure blame at 65nm (1.0V), 50k Monte Carlo lifetimes:");
    for m in MechanismKind::ALL {
        println!("  {:<5} {:>5.1}%", m.label(), blame[m] * 100.0);
    }
    println!();
    println!("The 30-year MTTF intuition hides how quickly the 1% fallout age —");
    println!("what warranty planning actually uses — collapses with scaling.");
    Ok(())
}
