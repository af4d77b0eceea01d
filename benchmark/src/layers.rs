//! Per-layer kernels: each times public calls into one crate,
//! single-threaded at a fixed size, from outside the program.

use crate::stats::median;
use crate::workload::THREADS;
use ramp_core::mechanisms::standard_models;
use ramp_core::{
    run_app_on_node, NodeId, OperatingPoint, PipelineConfig, QueryEngine, RateAccumulator,
    StudyConfig, TechNode,
};
use ramp_fleet::{chip_rng, ChipSampler, PopulationAccumulator};
use ramp_microarch::{simulate, MachineConfig, PerStructure, SimulationLength};
use ramp_power::{DynamicPowerModel, DynamicScaling, LeakageModel, PowerModel, StructureBudgets};
use ramp_serve::{Request, Response, ServeOptions, Server};
use ramp_thermal::{ThermalParams, ThermalSimulator};
use ramp_trace::{spec, TraceGenerator, TraceRecord};
use ramp_units::{ActivityFactor, Kelvin, Watts};
use std::hint::black_box;
use std::time::Instant;

/// How much work each kernel times.
#[derive(Debug, Clone, Copy)]
pub struct KernelSize {
    /// Trace records per benchmark in the trace-generation and timing
    /// kernels.
    pub records: u64,
    /// Calls per repetition of the per-call kernels.
    pub calls: u64,
}

impl KernelSize {
    /// The size the benchmark reports: each kernel takes 0.1-1 s.
    pub const FULL: KernelSize = KernelSize {
        records: 1_000_000,
        calls: 100_000,
    };
}

/// Repetitions of each kernel; the median is reported.
const REPEATS: usize = 5;

/// Interval length of the 180 nm node, cycles.
const INTERVAL_180NM: u64 = 1100;

fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Median over [`REPEATS`] of the time per call of `calls` calls, in ns.
fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| seconds(|| (0..calls).for_each(&mut f)) * 1e9 / calls as f64)
        .collect();
    median(&samples)
}

/// Median over [`REPEATS`] of `f`'s wall, in seconds.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| seconds(&mut f)).collect();
    median(&samples)
}

/// Every kernel, as `(metric name, value)` in declaration order.
pub fn measure(size: KernelSize) -> Result<Vec<(&'static str, f64)>, String> {
    let profiles = [
        spec::profile("gzip").map_err(|e| e.to_string())?,
        spec::profile("ammp").map_err(|e| e.to_string())?,
    ];
    let machine = MachineConfig::power4_180nm();
    let records = size.records;
    let length = SimulationLength::Instructions(records);
    let minstr = |s: f64| (records * profiles.len() as u64) as f64 / s / 1e6;

    let gen = minstr(median_seconds(|| {
        for p in &profiles {
            black_box(
                TraceGenerator::new(p)
                    .take(records as usize)
                    .fold(0, |a, r| a ^ r.pc()),
            );
        }
    }));
    let timing = minstr(median_seconds(|| {
        for p in &profiles {
            black_box(simulate(
                &machine,
                TraceGenerator::new(p),
                length,
                INTERVAL_180NM,
            ));
        }
    }));
    let traces: Vec<Vec<TraceRecord>> = profiles
        .iter()
        .map(|p| TraceGenerator::new(p).take(records as usize).collect())
        .collect();
    let engine = minstr(median_seconds(|| {
        for t in &traces {
            black_box(simulate(
                &machine,
                t.iter().copied(),
                length,
                INTERVAL_180NM,
            ));
        }
    }));
    drop(traces);

    let node = TechNode::reference();
    let models = standard_models();
    let passes = {
        let cfg = PipelineConfig {
            trace_repeats: 64,
            ..PipelineConfig::quick()
        };
        let node90 = TechNode::get(NodeId::N90);
        let run = || run_app_on_node(&profiles[0], &node90, &cfg, &models, None);
        let intervals = run().map_err(|e| e.to_string())?.timings.intervals;
        median_seconds(|| {
            black_box(run().expect("the same run succeeded above"));
        }) * 1e6
            / intervals as f64
    };

    let activity = PerStructure::from_fn(|_| ActivityFactor::new(0.3).expect("valid activity"));
    let temps = PerStructure::from_fn(|_| Kelvin::new(355.0).expect("valid temperature"));
    let ops = PerStructure::from_fn(|s| OperatingPoint::new(temps[s], node.vdd, activity[s]));
    let mut acc = RateAccumulator::new(&models, node);
    let calls = size.calls;
    let observe = ns_per_call(calls, |_| acc.observe(black_box(&ops), 1.0));

    let leakage = LeakageModel::new(
        node.leakage_density,
        node.core_area(),
        ramp_power::DEFAULT_BETA,
    )?;
    let dynamic = DynamicPowerModel::new(
        StructureBudgets::power4_reference(),
        DynamicScaling::REFERENCE,
    );
    let power = PowerModel::new(dynamic, leakage, 1.0)?;
    let sample = ns_per_call(calls, |_| {
        black_box(power.sample(black_box(&activity), black_box(&temps)));
    });

    let sim = ThermalSimulator::new(node.core_area(), ThermalParams::reference())?;
    let powers = PerStructure::from_fn(|_| Watts::new(4.0).expect("valid power"));
    let mut state = sim.initial_state(&powers)?;
    let dt = sim.network().max_stable_step();
    let step = ns_per_call(calls, |_| {
        state = sim.step_many(&state, black_box(&powers), dt, 1)
    });
    let solve = ns_per_call(calls, |_| {
        black_box(sim.initial_state(black_box(&powers)).expect("solved above"));
    }) / 1e3;

    let fleet = fleet_kernels(size)?;
    let serve = serve_kernels(size)?;

    let span = ns_per_call(calls, |_| {
        drop(black_box(ramp_obs::span!("benchmark_probe")))
    });
    let counter = ns_per_call(calls, |_| ramp_obs::counter("benchmark.probe").incr());
    let alloc = ns_per_call(calls, |i| drop(black_box(Box::new(i))));

    let mut out = vec![
        ("trace.gen_minstr_per_s", gen),
        ("microarch.engine_minstr_per_s", engine),
        ("microarch.timing_minstr_per_s", timing),
        ("core.passes_us_per_interval", passes),
        ("core.rate_observe_ns", observe),
        ("power.sample_ns", sample),
        ("thermal.step_ns", step),
        ("thermal.steady_solve_us", solve),
    ];
    out.extend(fleet);
    out.extend(serve);
    out.extend([
        ("obs.span_ns", span),
        ("obs.counter_ns", counter),
        ("obs.alloc_ns", alloc),
    ]);
    Ok(out)
}

/// An engine calibrated on quick `gzip`, as the fleet and serve kernels
/// use.
fn gzip_engine() -> Result<QueryEngine, String> {
    let mut config = StudyConfig::quick()
        .with_benchmarks(&["gzip"])
        .map_err(|e| e.to_string())?;
    config.threads = THREADS;
    QueryEngine::calibrate(&config).map_err(|e| e.to_string())
}

fn fleet_kernels(size: KernelSize) -> Result<Vec<(&'static str, f64)>, String> {
    let engine = gzip_engine()?;
    let anchor = |node| {
        let query = engine.query("gzip", node).map_err(|e| e.to_string())?;
        engine.population_anchor(&query).map_err(|e| e.to_string())
    };
    for node in NodeId::ALL {
        anchor(node)?; // fills the timing cache: anchors are timed warm
    }
    let anchor_ms = median_seconds(|| {
        for node in NodeId::ALL {
            black_box(anchor(node).expect("evaluated above"));
        }
    }) * 1e3
        / NodeId::ALL.len() as f64;

    let sampler = ChipSampler::new(&anchor(NodeId::N65HighV)?, Default::default());
    let sample_ns = ns_per_call(size.calls, |i| {
        black_box(sampler.sample_chip(&mut chip_rng(42, 0, i)));
    });
    let outcomes: Vec<_> = (0..size.calls)
        .map(|i| sampler.sample_chip(&mut chip_rng(42, 0, i)))
        .collect();
    let mut acc = PopulationAccumulator::new();
    let record_ns = ns_per_call(outcomes.len() as u64, |i| {
        let o = outcomes[i as usize];
        acc.record(o.failure_years, o.killer);
    });
    let merge_us = ns_per_call(size.calls, |_| {
        let mut merged = PopulationAccumulator::new();
        merged.merge(black_box(&acc));
        black_box(merged);
    }) / 1e3;

    Ok(vec![
        ("fleet.sample_chip_ns", sample_ns),
        ("fleet.record_ns", record_ns),
        ("fleet.merge_us", merge_us),
        ("fleet.anchor_ms", anchor_ms),
    ])
}

fn serve_kernels(size: KernelSize) -> Result<Vec<(&'static str, f64)>, String> {
    let options = ServeOptions {
        threads: THREADS,
        ..ServeOptions::default()
    };
    let server = Server::start(gzip_engine()?, options);
    let hit = Request::query(1, "gzip", "180nm").to_line();
    let base = Request::query(2, "gzip", "90nm").to_line();
    for line in [&hit, &base] {
        let response = server.handle_line(line);
        if !Response::parse(&response).is_ok_and(|r| r.is_ok()) {
            return Err(format!("serve kernel warm-up failed: {response}"));
        }
    }
    // A hit costs ~10 µs, 50 times a typical per-call kernel.
    let hit_us = ns_per_call(size.calls / 50, |_| {
        drop(black_box(server.handle_line(&hit)))
    }) / 1e3;
    // Distinct repeat counts: each what-if misses the result cache and
    // hits the timing cache warmed by `base`.
    let whatif: Vec<f64> = (64..72)
        .map(|repeats| {
            let mut request = Request::query(3, "gzip", "90nm");
            request.trace_repeats = Some(repeats);
            let line = request.to_line();
            seconds(|| drop(black_box(server.handle_line(&line)))) * 1e3
        })
        .collect();
    Ok(vec![
        ("serve.hit_us", hit_us),
        ("serve.whatif_ms", median(&whatif)),
    ])
}
