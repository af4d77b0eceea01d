//! Quickstart: evaluate the lifetime reliability of one benchmark on the
//! 180 nm base processor and print the per-mechanism FIT breakdown.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use ramp_core::mechanisms::{MechanismKind, MechanismSet};
use ramp_core::{
    run_app_on_node, NodeId, PipelineConfig, Qualification, TechNode,
};
use ramp_microarch::Structure;
use ramp_trace::spec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a workload and a technology node.
    let profile = spec::profile("gzip")?;
    let node = TechNode::get(NodeId::N180);

    // 2. Run the full pipeline: trace → timing → power → temperature →
    //    failure-rate accumulation. `quick()` keeps the run short; use
    //    `PipelineConfig::default()` for production-length runs.
    let models = MechanismSet::default();
    let run = run_app_on_node(&profile, &node, &PipelineConfig::quick(), &models, None)?;

    println!("workload          : {} ({})", profile.name, profile.suite);
    println!("node              : {}", node.id);
    println!("IPC               : {:.2}", run.ipc);
    println!("average power     : {:.1} (dynamic {:.1} + leakage {:.1})",
             run.avg_total(), run.avg_dynamic, run.avg_leakage);
    println!("heat sink         : {:.1}", run.sink_temperature);
    println!("hottest structure : {:.1}", run.max_temperature());

    // 3. Qualify: fix the proportionality constants so this workload sees
    //    the paper's 4000-FIT (≈30-year) budget, split equally across the
    //    four mechanisms. A real study qualifies over all 16 benchmarks —
    //    see `ramp_core::run_study`.
    let qualification = Qualification::from_reference_runs(&[run.rates])
        .map_err(ramp_core::RampError::Qualification)?;
    let report = qualification.fit_report(&run.rates);

    println!();
    println!("FIT breakdown (qualified to 4000 FIT total):");
    for m in MechanismKind::ALL {
        println!("  {:<5} {:>8.1} FIT", m.label(), report.mechanism_total(m).value());
    }
    println!("  total {:>8.1} FIT  (MTTF {})", report.total().value(), report.mttf());

    println!();
    println!("per-structure totals:");
    for s in Structure::ALL {
        println!(
            "  {:<4} {:>8.1} FIT   avg T {:.1}   activity {:.2}",
            s.mnemonic(),
            report.structure_total(s).value(),
            run.rates.average_temperature()[s],
            run.avg_activity[s],
        );
    }
    Ok(())
}
