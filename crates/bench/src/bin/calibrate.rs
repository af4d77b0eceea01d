//! Calibration fitter: finds, for each of the 16 SPEC2K profiles, the
//! `mean_dep_distance` at which the timing simulator reproduces the
//! benchmark's published Table-3 IPC, and (once the pipeline is up) the
//! per-benchmark `power_residual` matching Table-3 power.
//!
//! Output is a table of fitted knobs that is pasted back into
//! `crates/trace/src/spec.rs` (`ROWS`). Run with:
//!
//! ```text
//! cargo run -p ramp-bench --bin calibrate --release
//! ```

use ramp_microarch::{simulate, MachineConfig, SimulationLength};
use ramp_trace::{spec, BenchmarkProfile, TraceGenerator};

const INTERVAL_CYCLES: u64 = 1_100;

/// Measures IPC under exactly the study's conditions (one full phase
/// cycle at the production dwell), so the fitted knob transfers 1:1.
fn measure_ipc(profile: &BenchmarkProfile) -> f64 {
    let cfg = MachineConfig::power4_180nm();
    let instructions =
        profile.phases.dwell_instructions * profile.phases.phases.len() as u64;
    let out = simulate(
        &cfg,
        TraceGenerator::new(profile),
        SimulationLength::Instructions(instructions),
        INTERVAL_CYCLES,
    );
    out.stats.ipc()
}

/// Bisection on `mean_dep_distance`; IPC is monotone in ILP.
fn fit_dep(profile: &BenchmarkProfile) -> (f64, f64) {
    let target = profile.published.ipc;
    let (mut lo, mut hi) = (1.05_f64, 250.0_f64);
    let mut p = profile.clone();

    p.mean_dep_distance = lo;
    let ipc_lo = measure_ipc(&p);
    p.mean_dep_distance = hi;
    let ipc_hi = measure_ipc(&p);
    if target <= ipc_lo {
        return (lo, ipc_lo);
    }
    if target >= ipc_hi {
        return (hi, ipc_hi);
    }

    let mut mid = 0.5 * (lo + hi);
    let mut got = 0.0;
    for _ in 0..18 {
        mid = 0.5 * (lo + hi);
        p.mean_dep_distance = mid;
        got = measure_ipc(&p);
        if (got - target).abs() / target < 0.004 {
            break;
        }
        if got < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (mid, got)
}

/// Fits the per-benchmark dynamic-power residual: runs the full 180 nm
/// pipeline and solves for the multiplier that lands the benchmark on its
/// Table-3 average power (leakage is temperature-coupled, so iterate).
fn fit_power_residual(profile: &ramp_trace::BenchmarkProfile) -> (f64, f64) {
    use ramp_core::mechanisms::MechanismSet;
    use ramp_core::{run_app_on_node, PipelineConfig, TechNode};
    let models = MechanismSet::default();
    let cfg = PipelineConfig::default();
    let old = spec::power_residual(&profile.name).unwrap_or(1.0);
    let mut residual = old;
    let mut measured = 0.0;
    for _ in 0..3 {
        let run = run_app_on_node(profile, &TechNode::reference(), &cfg, &models, None)
            .expect("reference run");
        // The pipeline reads the residual from the baked table; correct
        // for the delta between baked and candidate values analytically.
        let dynamic = run.avg_dynamic.value() / old * residual;
        measured = dynamic + run.avg_leakage.value();
        let target_dynamic = profile.published.power_w - run.avg_leakage.value();
        residual *= target_dynamic / dynamic;
    }
    (residual, measured)
}

fn main() {
    ramp_bench::init_obs();
    // Each profile's fit is independent, so both modes fan out over the
    // shared executor; `map` returns in input order, so the printed table
    // is identical to the serial one for any RAMP_THREADS.
    let executor = ramp_core::Executor::from_env();
    let profiles = spec::all_profiles();
    let fit_power = std::env::args().any(|a| a == "--power");
    ramp_obs::info!(
        "calibrating {} profiles ({}) on {} threads",
        profiles.len(),
        if fit_power { "power residuals" } else { "dep distances" },
        executor.threads()
    );
    if fit_power {
        println!("benchmark   target_W  residual");
        let fits = executor.map(&profiles, fit_power_residual);
        for (profile, (residual, _)) in profiles.iter().zip(fits) {
            println!(
                "{:<10}  {:>7.2}  {:.4}",
                profile.name, profile.published.power_w, residual
            );
        }
        return;
    }
    println!("benchmark   suite  target  fitted_dep  achieved  err%");
    let fits = executor.map(&profiles, fit_dep);
    let mut worst = 0.0_f64;
    for (profile, (dep, ipc)) in profiles.iter().zip(fits) {
        let err = (ipc - profile.published.ipc) / profile.published.ipc * 100.0;
        worst = worst.max(err.abs());
        println!(
            "{:<10}  {:<5}  {:>5.2}  dep: {:>8.4}  {:>7.3}  {:>+5.1}",
            profile.name,
            format!("{}", profile.suite),
            profile.published.ipc,
            dep,
            ipc,
            err
        );
    }
    println!("worst |err| = {worst:.2}%");
}
