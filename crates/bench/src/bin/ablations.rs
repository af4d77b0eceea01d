//! Design-choice ablations (DESIGN.md §6): quantifies the modelling
//! decisions the paper (and RAMP) bake in.
//!
//! 1. SOFR vs MIN-of-MTTF combination of failure mechanisms.
//! 2. Running-average instantaneous FIT vs FIT at time-average conditions.
//! 3. Worst-case vs expected-case qualification margin. This one runs
//!    the full-length study (~20 s on 2 vCPUs); the others take under a
//!    second together.
//! 4. Two-pass heat-sink initialisation vs cold-start transients.
//! 5. Thermal integration time-step sensitivity.
//!
//! ```text
//! cargo run -p ramp-bench --bin ablations --release
//! ```

use ramp_core::mechanisms::{MechanismKind, MechanismSet};
use ramp_core::{
    run_app_on_node, NodeId, OperatingPoint, PipelineConfig, Qualification, RateAccumulator,
    TechNode,
};
use ramp_microarch::{PerStructure, Structure};
use ramp_thermal::{ThermalParams, ThermalSimulator, ThermalState};
use ramp_units::{ActivityFactor, Kelvin, Mttf, Seconds, SquareMillimeters, Watts};

fn main() {
    ramp_bench::init_obs();
    sofr_vs_min_mttf();
    averaging_vs_mean_conditions();
    qualification_margin();
    two_pass_vs_cold_start();
    time_step_sensitivity();
}

/// Ablation 1: the SOFR model adds failure rates; a common alternative
/// takes the minimum MTTF over (structure, mechanism) pairs. SOFR is the
/// more pessimistic (correct for a series system with exponential
/// lifetimes); MIN ignores every contributor but the worst.
fn sofr_vs_min_mttf() {
    println!("=== ablation 1: SOFR vs MIN-of-MTTF combination ===");
    let models = MechanismSet::default();
    let cfg = PipelineConfig::quick();
    let run = run_app_on_node(
        &ramp_trace::spec::profile("gzip").expect("known benchmark"),
        &TechNode::reference(),
        &cfg,
        &models,
        None,
    )
    .expect("pipeline run");
    let qual = Qualification::from_reference_runs(&[run.rates]).expect("qualification");
    let report = qual.fit_report(&run.rates);

    let sofr_mttf = report.mttf();
    let min_mttf = MechanismKind::ALL
        .iter()
        .flat_map(|&m| Structure::ALL.iter().map(move |&s| (m, s)))
        .map(|(m, s)| Mttf::from(report.fit(m, s)))
        .min_by(|a, b| a.hours().total_cmp(&b.hours()))
        .expect("non-empty model set");
    println!("  SOFR processor MTTF          : {sofr_mttf}");
    println!("  MIN-of-MTTF (single worst)   : {min_mttf}");
    println!(
        "  MIN underestimates the failure rate by {:.1}x — every other",
        min_mttf.hours() / sofr_mttf.hours()
    );
    println!("  structure and mechanism still contributes to a series system.");
    println!();
}

/// Ablation 2: RAMP averages instantaneous failure rates over time.
/// Evaluating the models once at the *average* temperature/activity
/// underestimates wear-out because the rates are convex in temperature
/// (Jensen's inequality). Quantify on a hot/cold square wave.
fn averaging_vs_mean_conditions() {
    println!("=== ablation 2: rate averaging vs average conditions ===");
    let models = MechanismSet::default();
    let node = TechNode::reference();
    let op = |t: f64| {
        PerStructure::from_fn(|_| {
            OperatingPoint::new(
                Kelvin::new(t).expect("valid temperature"),
                node.vdd,
                ActivityFactor::new(0.5).expect("valid activity"),
            )
        })
    };
    let swings = [5.0, 15.0, 30.0];
    let rows = ramp_core::Executor::from_env().map(&swings, |&swing| {
        let mid = 355.0;
        let mut correct = RateAccumulator::new(&models, node);
        correct.observe(&op(mid - swing), 1.0);
        correct.observe(&op(mid + swing), 1.0);
        let mut naive = RateAccumulator::new(&models, node);
        naive.observe(&op(mid), 2.0);
        let qual = Qualification::from_reference_runs(&[naive.finish()])
            .expect("qualification");
        let mut naive2 = RateAccumulator::new(&models, node);
        naive2.observe(&op(mid), 2.0);
        (
            qual.fit_report(&correct.finish()).total(),
            qual.fit_report(&naive2.finish()).total(),
        )
    });
    for (swing, (correct_fit, naive_fit)) in swings.iter().zip(rows) {
        println!(
            "  ±{swing:>4.1} K square wave: averaged-rates {:.0} FIT vs at-mean {:.0} FIT ({:+.0}%)",
            correct_fit.value(),
            naive_fit.value(),
            correct_fit.percent_increase_over(naive_fit)
        );
    }
    println!("  Temporal variation must be integrated, not averaged away.");
    println!();
}

/// Ablation 3: qualifying for the worst case vs the expected case. If the
/// design must meet 4000 FIT *at the worst-case operating point*, how much
/// reliability budget does the average application actually use?
fn qualification_margin() {
    println!("=== ablation 3: worst-case vs expected-case qualification ===");
    let results = ramp_bench::run_full_study().expect("full study should run");
    for node in [NodeId::N180, NodeId::N65HighV] {
        let wc = results
            .worst_case(node)
            .expect("worst case per node")
            .fit
            .total();
        let avg = results.overall_average_fit(node);
        let utilisation = avg.value() / wc.value() * 100.0;
        println!(
            "  {:<12} worst-case {:.0} FIT, average app {:.0} FIT → typical workload uses {:.0}% of a worst-case budget",
            node.label(),
            wc.value(),
            avg.value(),
            utilisation
        );
    }
    println!("  Worst-case qualification over-designs for every real workload —");
    println!("  the paper's case for dynamic reliability management.");
    println!();
}

/// Ablation 4: the paper's two-pass heat-sink initialisation vs naively
/// starting the transient from ambient.
fn two_pass_vs_cold_start() {
    println!("=== ablation 4: two-pass sink initialisation vs cold start ===");
    let sim = ThermalSimulator::new(
        SquareMillimeters::new(81.0).expect("valid area"),
        ThermalParams::reference(),
    )
    .expect("valid params");
    let powers = PerStructure::from_fn(|_| Watts::new(29.1 / 7.0).expect("valid power"));
    let correct = sim.initial_state(&powers).expect("steady state");

    // Cold start: everything at ambient, sink pinned at ambient — the
    // mistake the two-pass methodology exists to avoid. Simulate 5 ms.
    let mut cold = ThermalState::uniform(Kelvin::new(318.15).expect("ambient"));
    let dt = Seconds::MICROSECOND;
    for _ in 0..5_000 {
        cold = sim.step(&cold, &powers, dt);
    }
    let correct_max = correct.hottest().1;
    let cold_max = cold.hottest().1;
    println!("  steady-state (two-pass) hottest structure : {correct_max:.1}");
    println!("  cold-start after 5 ms                     : {cold_max:.1}");
    println!(
        "  cold start underestimates junction temperature by {:.1} K, because the",
        correct_max.value() - cold_max.value()
    );
    println!("  sink's time constant is far beyond any affordable simulation.");
    println!();
}

/// Ablation 5: transient integration step sensitivity.
fn time_step_sensitivity() {
    println!("=== ablation 5: thermal time-step sensitivity ===");
    let sim = ThermalSimulator::new(
        SquareMillimeters::new(81.0 * 0.16).expect("valid area"),
        ThermalParams::reference(),
    )
    .expect("valid params");
    let low = PerStructure::from_fn(|_| Watts::new(1.5).expect("valid power"));
    let high = PerStructure::from_fn(|_| Watts::new(3.5).expect("valid power"));
    let start = sim.initial_state(&low).expect("steady state");
    println!(
        "  (stability limit for this die: {:.1} µs)",
        sim.network().max_stable_step().value() * 1e6
    );
    let steps_us = [1.0, 8.0, 64.0];
    let temps = ramp_core::Executor::from_env().map(&steps_us, |&dt_us| {
        let dt = Seconds::new(dt_us * 1e-6).expect("valid step");
        let steps = (2_000.0 / dt_us) as usize; // 2 ms of heating
        let mut state = start;
        for _ in 0..steps {
            state = sim.step(&state, &high, dt);
        }
        state.hottest().1.value()
    });
    let reference_temp = temps[0];
    for (dt_us, t) in steps_us.iter().zip(temps) {
        let err = t - reference_temp;
        println!("  dt = {dt_us:>5.1} µs → hottest {t:.3} K (Δ vs 1 µs: {err:+.3} K)");
    }
    println!("  The 1 µs step the paper uses is comfortably inside the stable,");
    println!("  accuracy-insensitive regime; the pipeline sub-steps automatically");
    println!("  when time compression would exceed the stability limit.");
}
