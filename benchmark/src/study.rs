//! The scaling-study workloads: `run_study` from a cold timing cache.

use crate::tracer::Tracer;
use crate::workload::{
    timing_keys, trace_operation, Checks, Digest, Measured, Operation, TimingKey, Traced, THREADS,
};
use ramp_core::{results_digest, run_study, NodeId, StudyConfig, StudyResults};
use ramp_microarch::clear_timing_cache;
use std::time::Instant;

/// The paper's average-FIT rise from 180 nm to 65 nm at 1.0 V.
const PAPER_FIT_RISE_PERCENT: f64 = 316.0;

/// Set-up repetitions per block. A block runs before the first timed
/// study and after each one, and the median over all blocks is reported:
/// set-up takes ~15 µs, so one block sees a single momentary host state,
/// and some blocks read 25 µs.
const SETUP_REPEATS: usize = 21;

/// The size of one study.
#[derive(Debug, Clone)]
pub struct StudySize {
    /// Benchmarks by name; empty means the paper's 16.
    pub benchmarks: Vec<&'static str>,
    /// Technology nodes.
    pub nodes: Vec<NodeId>,
    /// Simulated instructions per benchmark.
    pub instructions: u64,
}

impl StudySize {
    /// 16 benchmarks × 5 nodes at 250k instructions: nodes share timing
    /// work (16 of 80 lookups hit).
    pub fn five_node() -> Self {
        StudySize {
            benchmarks: Vec::new(),
            nodes: NodeId::ALL.to_vec(),
            instructions: 250_000,
        }
    }

    /// 16 benchmarks at 180 nm only, with 4× longer traces: every timing
    /// key is distinct, so cross-node reuse has nothing to share.
    pub fn one_node_long() -> Self {
        StudySize {
            benchmarks: Vec::new(),
            nodes: vec![NodeId::N180],
            instructions: 1_000_000,
        }
    }

    fn config(&self) -> Result<StudyConfig, String> {
        let mut config = StudyConfig::default();
        if !self.benchmarks.is_empty() {
            config = config
                .with_benchmarks(&self.benchmarks)
                .map_err(|e| e.to_string())?;
        }
        config.nodes.clone_from(&self.nodes);
        config.pipeline.instructions = self.instructions;
        config.threads = THREADS;
        Ok(config)
    }
}

/// The user's set-up: build the configuration and start from a cold
/// timing cache, as a fresh process does.
fn setup(size: &StudySize) -> Result<StudyConfig, String> {
    let config = size.config()?;
    clear_timing_cache();
    Ok(config)
}

/// Times [`SETUP_REPEATS`] set-ups into `setup_s`; returns the last
/// configuration.
fn setup_block(size: &StudySize, setup_s: &mut Vec<f64>) -> Result<StudyConfig, String> {
    let mut config = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        config = Some(setup(size)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    Ok(config.expect("a block has at least one set-up"))
}

/// One cold-cache study: its wall in seconds, the results and their
/// digest.
fn cold_study(config: &StudyConfig) -> Result<(f64, StudyResults, String), String> {
    clear_timing_cache();
    let started = Instant::now();
    let results = run_study(config).map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    let digest = results_digest(&results);
    Ok((wall, results, digest))
}

/// Runs cold studies until `seconds` have passed.
pub fn run(size: &StudySize, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured {
        item: "app-node runs",
        ..Measured::default()
    };
    let config = setup_block(size, &mut m.setup_s)?;
    let runs = (config.benchmarks.len() * config.nodes.len()) as u64;

    let mut first: Option<String> = None;
    let started = Instant::now();
    let mut iteration = 0;
    while iteration == 0 || started.elapsed().as_secs_f64() < seconds {
        iteration += 1;
        match cold_study(&config) {
            Ok((wall, results, digest)) => {
                m.latencies_ms.push(wall * 1e3);
                m.rates.push(runs as f64 / wall);
                m.items += runs;
                let reference = first.get_or_insert_with(|| {
                    m.notes.extend(describe(&results));
                    digest.clone()
                });
                m.checks.check(digest == *reference, || {
                    format!("iteration {iteration}: results_digest {digest} != {reference}")
                });
            }
            Err(e) => m
                .checks
                .check(false, || format!("iteration {iteration}: {e}")),
        }
        setup_block(size, &mut m.setup_s)?;
    }
    m.wall_s = started.elapsed().as_secs_f64();
    let digest = first.ok_or_else(|| format!("every study failed: {:?}", m.checks.failures))?;
    m.digests.push(("results_digest".to_string(), digest));
    Ok(m)
}

/// Report lines for one study: timing-cache use and, when the study spans
/// 180 nm to 65 nm at 1.0 V, the simulated average-FIT rise beside the
/// paper's.
fn describe(results: &StudyResults) -> Vec<String> {
    let metrics = results.metrics();
    let mut notes = vec![format!(
        "timing cache per study: {} hits / {} misses",
        metrics.cache_hits, metrics.cache_misses
    )];
    let has = |node| results.app_results().iter().any(|r| r.node == node);
    if has(NodeId::N180) && has(NodeId::N65HighV) {
        let rise = results.overall_average_fit(NodeId::N65HighV).value()
            / results.overall_average_fit(NodeId::N180).value()
            - 1.0;
        notes.push(format!(
            "accuracy: average FIT 180nm -> 65nm (1.0V) {:+.0}% (paper {:+.0}%), not gated",
            rise * 100.0,
            PAPER_FIT_RISE_PERCENT
        ));
    }
    notes
}

/// A cold study, as the traced mode runs it.
struct ColdStudy(StudyConfig);

impl Operation for ColdStudy {
    fn prepare(&mut self) {
        clear_timing_cache();
    }

    /// Two sweeps, as `run_study` makes them: the 180 nm reference runs,
    /// then the scaled nodes.
    fn timing_sweeps(&self) -> Result<Vec<Vec<TimingKey>>, String> {
        let (reference, scaled): (Vec<NodeId>, Vec<NodeId>) =
            self.0.nodes.iter().partition(|&&n| n == NodeId::N180);
        let instructions = self.0.pipeline.instructions;
        Ok([reference, scaled]
            .iter()
            .map(|nodes| timing_keys(&self.0.benchmarks, nodes, instructions))
            .collect())
    }

    fn run(&mut self, _: Option<(&Tracer, u64)>) -> Result<Option<Digest>, String> {
        let results = run_study(&self.0).map_err(|e| e.to_string())?;
        Ok(Some(("results_digest", results_digest(&results))))
    }

    fn finish(&mut self) -> Checks {
        Checks::default()
    }
}

/// Cold studies split into their timing phase and their passes on the
/// warm cache.
pub fn trace(size: &StudySize, tracer: &Tracer) -> Result<Traced, String> {
    trace_operation(&mut ColdStudy(setup(size)?), "study", tracer)
}
