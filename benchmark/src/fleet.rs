//! The fleet workload: population Monte Carlo over a calibrated engine.

use crate::tracer::Tracer;
use crate::workload::{
    resolve_timing, timing_keys, trace_operation, Checks, Digest, Measured, Operation, TimingKey,
    Traced, THREADS,
};
use ramp_core::{NodeId, QueryEngine, StudyConfig};
use ramp_fleet::{run_fleet, FleetConfig};
use ramp_microarch::clear_timing_cache;
use ramp_trace::spec;
use std::time::Instant;

/// Set-up repetitions per run; the median is reported.
const SETUP_REPEATS: usize = 9;

/// The benchmark every chip's anchor is evaluated on.
const BENCHMARK: &str = "gzip";

fn fleet_config(chips: u64, seed: u64) -> FleetConfig {
    FleetConfig {
        benchmark: BENCHMARK.to_string(),
        nodes: NodeId::ALL.to_vec(),
        chips,
        seed,
        threads: Some(THREADS),
        ..FleetConfig::default()
    }
}

/// The timing lookups of the five anchors.
fn anchor_keys(engine: &QueryEngine) -> Result<Vec<TimingKey>, String> {
    let profile = spec::profile(BENCHMARK).map_err(|e| e.to_string())?;
    Ok(timing_keys(
        &[profile],
        &NodeId::ALL,
        engine.base_pipeline().instructions,
    ))
}

/// Calibrates an engine on quick `gzip` and fills the timing cache for
/// the anchors, so the timed fleets exercise the sampler, not the engine.
fn setup() -> Result<QueryEngine, String> {
    clear_timing_cache();
    let mut config = StudyConfig::quick()
        .with_benchmarks(&[BENCHMARK])
        .map_err(|e| e.to_string())?;
    config.threads = THREADS;
    let engine = QueryEngine::calibrate(&config).map_err(|e| e.to_string())?;
    resolve_timing(&anchor_keys(&engine)?, None);
    Ok(engine)
}

/// Runs `chips`-per-node fleets over all five nodes until `seconds` have
/// passed.
pub fn run(chips: u64, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured {
        item: "chips",
        ..Measured::default()
    };
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        engine = Some(setup()?);
        m.setup_s.push(started.elapsed().as_secs_f64());
    }
    let engine = engine.expect("set-up ran at least once");
    let config = fleet_config(chips, seed);

    let mut first: Option<String> = None;
    let started = Instant::now();
    let mut iteration = 0;
    while iteration == 0 || started.elapsed().as_secs_f64() < seconds {
        iteration += 1;
        let op = Instant::now();
        match run_fleet(&engine, &config) {
            Ok(results) => {
                let wall = op.elapsed().as_secs_f64();
                let simulated = chips * config.nodes.len() as u64;
                m.latencies_ms.push(wall * 1e3);
                m.rates.push(simulated as f64 / wall);
                m.items += simulated;
                let digest = results.population_digest();
                let reference = first.get_or_insert_with(|| digest.clone());
                m.checks.check(digest == *reference, || {
                    format!("iteration {iteration}: population_digest {digest} != {reference}")
                });
            }
            Err(e) => m
                .checks
                .check(false, || format!("iteration {iteration}: {e}")),
        }
    }
    m.wall_s = started.elapsed().as_secs_f64();
    let digest = first.ok_or_else(|| format!("every fleet failed: {:?}", m.checks.failures))?;
    m.digests.push(("population_digest".to_string(), digest));
    Ok(m)
}

/// A fleet over a calibrated engine, as the traced mode runs it.
struct Fleet {
    engine: QueryEngine,
    config: FleetConfig,
}

impl Operation for Fleet {
    /// Set-up filled the timing cache; every fleet starts from it.
    fn prepare(&mut self) {}

    fn timing_sweeps(&self) -> Result<Vec<Vec<TimingKey>>, String> {
        Ok(vec![anchor_keys(&self.engine)?])
    }

    fn run(&mut self, _: Option<(&Tracer, u64)>) -> Result<Option<Digest>, String> {
        let results = run_fleet(&self.engine, &self.config).map_err(|e| e.to_string())?;
        Ok(Some(("population_digest", results.population_digest())))
    }

    fn finish(&mut self) -> Checks {
        Checks::default()
    }
}

/// Fleets split into their anchors' timing lookups and the fleet run on
/// the warm cache.
pub fn trace(chips: u64, seed: u64, tracer: &Tracer) -> Result<Traced, String> {
    let mut fleet = Fleet {
        engine: setup()?,
        config: fleet_config(chips, seed),
    };
    trace_operation(&mut fleet, "fleet", tracer)
}
