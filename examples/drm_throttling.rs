//! Dynamic reliability management: the paper's proposed answer to the
//! widening worst-case/typical gap. Qualify for the expected case, then
//! let a run-time controller throttle voltage/frequency whenever the
//! executing workload pushes the running-average failure rate over budget.
//!
//! This example manages a hot workload (crafty) on the 65 nm (1.0 V) node
//! against the 4000-FIT qualification budget and prints the reliability /
//! performance trade the controller found.
//!
//! ```text
//! cargo run --example drm_throttling --release
//! ```

use ramp_core::drm::{run_with_drm, DrmPolicy, DvsLevel};
use ramp_core::{NodeId, QueryEngine, StudyConfig, TechNode};
use ramp_trace::spec;
use ramp_units::Fit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Qualify at 180 nm: 4000 FIT total across the four mechanisms.
    let engine = QueryEngine::calibrate(&StudyConfig::quick().with_benchmarks(&["crafty"])?)?;
    let profile = spec::profile("crafty")?;

    let node = TechNode::get(NodeId::N65HighV);
    let ladder = DvsLevel::standard_ladder(&node);
    println!("DVS ladder at {}:", node.id);
    for (i, l) in ladder.iter().enumerate() {
        println!(
            "  level {i}: {:.2} V / {:.2} GHz  (power x{:.2}, performance x{:.2})",
            l.voltage.value(),
            l.frequency.value(),
            l.power_factor(&node),
            l.performance_factor(&node),
        );
    }

    let policy = DrmPolicy {
        fit_budget: Fit::new(6000.0)?,
        decision_intervals: 10,
        hysteresis: 0.05,
    };
    let outcome = run_with_drm(&engine, &profile, &node, policy, ladder)?;

    println!();
    println!("crafty @ {} under a {:.0}-FIT budget:", node.id, policy.fit_budget.value());
    println!("  unmanaged FIT       : {:>8.0}", outcome.unmanaged_fit.value());
    println!("  DRM-managed FIT     : {:>8.0}", outcome.managed_fit.value());
    println!(
        "  performance retained: {:>7.1}%",
        outcome.relative_performance * 100.0
    );
    println!("  level residency     : {:?}",
        outcome
            .level_residency
            .iter()
            .map(|r| format!("{:.0}%", r * 100.0))
            .collect::<Vec<_>>());
    println!("  level transitions   : {}", outcome.transitions);
    println!();
    println!("A design qualified for this workload's worst case would give up that");
    println!("performance *permanently*; DRM pays it only while the budget demands.");
    Ok(())
}
