//! Custom workload: the trace crate is not limited to the paper's SPEC2K
//! profiles — any statistical profile can be evaluated. This example
//! builds a synthetic streaming workload (long sequential scans, almost no
//! branches, poor cache locality) and compares its reliability profile
//! against a pointer-chasing workload on the 90 nm node.
//!
//! ```text
//! cargo run --example custom_workload --release
//! ```

use ramp_core::mechanisms::{MechanismKind, MechanismSet};
use ramp_core::{run_app_on_node, NodeId, PipelineConfig, Qualification, TechNode};
use ramp_trace::{
    BenchmarkProfile, BranchModel, InstructionMix, MemoryModel, PhaseModel, PublishedStats,
    Suite,
};

fn streaming() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "streamer".into(),
        suite: Suite::Fp,
        mix: InstructionMix {
            int_alu: 0.25,
            int_mul: 0.01,
            int_div: 0.0,
            fp_add: 0.20,
            fp_mul: 0.18,
            fp_div: 0.01,
            load: 0.22,
            store: 0.10,
            branch: 0.02,
            cond_reg: 0.01,
        },
        mean_dep_distance: 24.0,
        memory: MemoryModel {
            hot_fraction: 0.10,
            warm_fraction: 0.05,
            hot_bytes: 16 << 10,
            warm_bytes: 768 << 10,
            cold_bytes: 256 << 20,
            sequential_fraction: 0.97, // pure streaming
        },
        branches: BranchModel {
            static_sites: 64,
            random_fraction: 0.01,
            taken_bias: 0.98,
        },
        code_bytes: 8 << 10,
        phases: PhaseModel::steady(),
        published: PublishedStats {
            ipc: 1.0,
            power_w: 1.0,
        }, // no published reference: custom workload
        seed: 0xBEEF,
    }
}

fn pointer_chaser() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "chaser".into(),
        suite: Suite::Int,
        mix: InstructionMix {
            int_alu: 0.40,
            int_mul: 0.0,
            int_div: 0.0,
            fp_add: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            load: 0.38,
            store: 0.04,
            branch: 0.16,
            cond_reg: 0.02,
        },
        mean_dep_distance: 1.6, // serial: each load feeds the next address
        memory: MemoryModel {
            hot_fraction: 0.55,
            warm_fraction: 0.25,
            hot_bytes: 16 << 10,
            warm_bytes: 768 << 10,
            cold_bytes: 128 << 20,
            sequential_fraction: 0.02, // random walks
        },
        branches: BranchModel {
            static_sites: 256,
            random_fraction: 0.20,
            taken_bias: 0.90,
        },
        code_bytes: 16 << 10,
        phases: PhaseModel::steady(),
        published: PublishedStats {
            ipc: 1.0,
            power_w: 1.0,
        },
        seed: 0xF00D,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = PipelineConfig::quick();
    let models = MechanismSet::default();
    let node = TechNode::get(NodeId::N90);

    println!("custom workloads on the 90nm node");
    println!();

    let mut runs = Vec::new();
    for profile in [streaming(), pointer_chaser()] {
        let run = run_app_on_node(&profile, &node, &cfg, &models, None)?;
        println!(
            "{:<10} IPC {:.2}  power {:.1}  hottest {:.1}  FPU act {:.2}  LSU act {:.2}",
            run.app,
            run.ipc,
            run.avg_total(),
            run.max_temperature(),
            run.avg_activity[ramp_microarch::Structure::Fpu],
            run.avg_activity[ramp_microarch::Structure::Lsu],
        );
        runs.push(run);
    }

    // Qualify over this two-workload "suite" and compare FIT signatures.
    let rates: Vec<_> = runs.iter().map(|r| r.rates).collect();
    let qual = Qualification::from_reference_runs(&rates)
        .map_err(ramp_core::RampError::Qualification)?;
    println!();
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "workload", "EM", "SM", "TDDB", "TC", "total"
    );
    for run in &runs {
        let report = qual.fit_report(&run.rates);
        print!("{:<10}", run.app);
        for m in MechanismKind::ALL {
            print!(" {:>7.0}", report.mechanism_total(m).value());
        }
        println!(" {:>8.0}", report.total().value());
    }
    println!();
    println!("The hot, busy streamer ages fastest through EM (activity-driven");
    println!("current density), while the stalled chaser runs cooler everywhere.");
    Ok(())
}
