//! The full scaling study: 16 benchmarks × 5 technology points, plus
//! worst-case operating-point analysis and reliability qualification.
//!
//! This is the driver behind every figure in the paper's evaluation. It
//! is a client of [`QueryEngine`], which owns the recipe:
//!
//! 1. calibrate the engine: run all benchmarks at 180 nm and qualify
//!    (each mechanism → 1000 FIT average across benchmarks);
//! 2. run every benchmark at every scaled node through the engine, with
//!    the constant-sink-temperature rule anchored to its 180 nm power
//!    from step 1;
//! 3. per node, synthesise the worst-case run (highest per-structure
//!    temperature and activity seen by any benchmark, held steady).

use crate::executor::Executor;
use crate::pipeline::{AppNodeRun, PipelineConfig, StageTimings};
use crate::rates::RateAccumulator;
use crate::results::{AppNodeResult, StudyMetrics, StudyResults, WorstCaseResult};
use crate::{NodeId, OperatingPoint, QueryEngine, RampError, TechNode};
use ramp_microarch::{timing_cache_stats, PerStructure, Structure};
use ramp_trace::{spec, BenchmarkProfile};
use ramp_units::ActivityFactor;

/// How the per-node worst-case operating point is synthesised from the
/// application runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorstCaseMode {
    /// The paper's literal construction (§5.2): *the* highest temperature
    /// and *the* highest activity factor observed by any structure of any
    /// application, applied uniformly to every structure. Produces large
    /// margins because cool structures are evaluated at hot-spot
    /// temperatures.
    GlobalPeak,
    /// A structure-aware refinement: each structure gets its own maximum
    /// temperature and activity across applications. Strictly tighter
    /// (lower) than [`WorstCaseMode::GlobalPeak`]; its 180 nm margins
    /// reproduce the paper's best, so it is the default.
    #[default]
    PerStructurePeak,
}

impl WorstCaseMode {
    /// Stable lower-snake name (used in config digests and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorstCaseMode::GlobalPeak => "global_peak",
            WorstCaseMode::PerStructurePeak => "per_structure_peak",
        }
    }
}

/// Configuration of the scaling study.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Per-run pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Benchmarks to run (defaults to the paper's 16).
    pub benchmarks: Vec<BenchmarkProfile>,
    /// Nodes to evaluate (defaults to all five Table-4 points).
    pub nodes: Vec<NodeId>,
    /// Worker threads for the app×node sweep. Defaults to the
    /// `RAMP_THREADS` environment variable when set, otherwise the
    /// machine's available parallelism; results are identical for any
    /// value (see [`Executor`]).
    pub threads: usize,
    /// Worst-case synthesis mode.
    pub worst_case: WorstCaseMode,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            pipeline: PipelineConfig::default(),
            benchmarks: spec::all_profiles(),
            nodes: NodeId::ALL.to_vec(),
            threads: Executor::from_env().threads(),
            worst_case: WorstCaseMode::default(),
        }
    }
}

impl StudyConfig {
    /// A reduced-cost configuration for tests and examples.
    #[must_use]
    pub fn quick() -> Self {
        StudyConfig {
            pipeline: PipelineConfig::quick(),
            ..Self::default()
        }
    }

    /// Restricts the study to the named benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`RampError::UnknownBenchmark`] for an unrecognised name.
    pub fn with_benchmarks(mut self, names: &[&str]) -> Result<Self, RampError> {
        self.benchmarks = names
            .iter()
            .map(|n| spec::profile(n).map_err(RampError::from))
            .collect::<Result<_, _>>()?;
        Ok(self)
    }
}

/// Runs the complete scaling study.
///
/// # Errors
///
/// Returns the first [`RampError`] encountered by any run.
///
/// # Examples
///
/// ```no_run
/// use ramp_core::{run_study, StudyConfig};
/// let results = run_study(&StudyConfig::default())?;
/// println!("{}", results.summary());
/// # Ok::<(), ramp_core::RampError>(())
/// ```
pub fn run_study(config: &StudyConfig) -> Result<StudyResults, RampError> {
    if !config.nodes.contains(&NodeId::N180) {
        return Err(RampError::InvalidConfiguration(
            "study must include the 180 nm reference node for qualification".into(),
        ));
    }
    let executor = Executor::new(config.threads);
    // Root a causal trace on the config digest: the same study config
    // always yields the same trace id, so traces are comparable across
    // runs. Free when tracing is off (no ring installed).
    let _trace = ramp_obs::adopt_trace(if ramp_obs::tracing_enabled() {
        Some(ramp_obs::trace_root(&format!(
            "study|{}",
            crate::manifest::config_digest(config)
        )))
    } else {
        None
    });
    let study_span = ramp_obs::span!(
        "study",
        "benchmarks={} nodes={} threads={}",
        config.benchmarks.len(),
        config.nodes.len(),
        executor.threads()
    );
    ramp_obs::info!(
        "study: {} benchmarks x {} nodes on {} threads",
        config.benchmarks.len(),
        config.nodes.len(),
        executor.threads()
    );
    let cache_before = timing_cache_stats();

    // Phase 1: calibration (180 nm reference runs, then qualification).
    let (engine, ref_runs) = QueryEngine::calibrate_runs(config, &executor)?;

    // Phase 2: scaled nodes, anchored to each benchmark's 180 nm power.
    let mut jobs: Vec<(&BenchmarkProfile, NodeId, &AppNodeRun)> = Vec::new();
    for (profile, ref_run) in config.benchmarks.iter().zip(&ref_runs) {
        for &node in &config.nodes {
            if node != NodeId::N180 {
                jobs.push((profile, node, ref_run));
            }
        }
    }
    let scaled_span = ramp_obs::span!("scaled", "jobs={}", jobs.len());
    let scaled: Vec<Result<AppNodeRun, RampError>> =
        executor.map(&jobs, |(profile, node, ref_run)| {
            engine.run(
                profile,
                &TechNode::get(*node),
                &config.pipeline,
                Some(ref_run.avg_total()),
            )
        });
    let scaled: Vec<AppNodeRun> = scaled.into_iter().collect::<Result<_, _>>()?;
    scaled_span.finish();

    // Collect all runs into results.
    let qualification = engine.qualification();
    let app_results: Vec<AppNodeResult> = config
        .benchmarks
        .iter()
        .zip(&ref_runs)
        .chain(jobs.iter().map(|(profile, ..)| *profile).zip(&scaled))
        .map(|(profile, run)| {
            AppNodeResult::from_run(run, profile.suite, qualification.fit_report(&run.rates))
        })
        .collect();

    // Phase 3: per-node worst case.
    let worst_span = ramp_obs::span!("worst_case");
    let worst = config
        .nodes
        .iter()
        .map(|&node| worst_case_for_node(node, &app_results, &engine, config.worst_case))
        .collect();
    worst_span.finish();

    // Execution metrics: summed stage costs vs wall-clock, plus cache
    // effectiveness over this study. Kept out of the serialized results
    // so the output bytes stay independent of thread count.
    let mut stages = StageTimings::default();
    for run in ref_runs.iter().chain(scaled.iter()) {
        stages.accumulate(&run.timings);
    }
    let cache_after = timing_cache_stats();
    let wall = study_span.finish();
    let metrics = StudyMetrics {
        threads: executor.threads(),
        wall_seconds: wall.as_secs_f64(),
        timing_seconds: stages.timing.as_secs_f64(),
        first_pass_seconds: stages.first_pass.as_secs_f64(),
        second_pass_seconds: stages.second_pass.as_secs_f64(),
        runs: (ref_runs.len() + scaled.len()) as u64,
        intervals: stages.intervals,
        structure_updates: stages.structure_updates,
        cache_hits: cache_after.hits.saturating_sub(cache_before.hits),
        cache_misses: cache_after.misses.saturating_sub(cache_before.misses),
    };
    metrics.publish();
    ramp_obs::info!(
        "study complete: {} runs in {:.2}s ({} cache hits / {} misses)",
        metrics.runs,
        metrics.wall_seconds,
        metrics.cache_hits,
        metrics.cache_misses
    );

    let mut results = StudyResults::new(app_results, worst, qualification);
    results.set_metrics(metrics);
    Ok(results)
}

/// Synthesises the paper's worst-case operating point for a node (see
/// [`WorstCaseMode`]), held steady for an entire run.
fn worst_case_for_node(
    node: NodeId,
    results: &[AppNodeResult],
    engine: &QueryEngine,
    mode: WorstCaseMode,
) -> WorstCaseResult {
    let tech = TechNode::get(node);
    let node_results: Vec<_> = results.iter().filter(|r| r.node == node).collect();
    assert!(
        !node_results.is_empty(),
        "worst case requested for a node with no runs"
    );
    let per_structure_temp = PerStructure::from_fn(|s| {
        node_results
            .iter()
            .map(|r| r.peak_temperature[s]) // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            .max_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("non-empty results") // ramp-lint:allow(panic-hygiene) -- a study always produces at least one run
    });
    let per_structure_activity = PerStructure::from_fn(|s| {
        node_results
            .iter()
            .map(|r| r.peak_activity[s]) // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            .fold(ActivityFactor::IDLE, ActivityFactor::max)
    });
    let (worst_temp, worst_activity) = match mode {
        WorstCaseMode::PerStructurePeak => (per_structure_temp, per_structure_activity),
        WorstCaseMode::GlobalPeak => {
            let t_max = *Structure::ALL
                .iter()
                .map(|&s| &per_structure_temp[s]) // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                .max_by(|a, b| a.value().total_cmp(&b.value()))
                .expect("non-empty structure set"); // ramp-lint:allow(panic-hygiene) -- structures are a non-empty static enum
            let p_max = Structure::ALL
                .iter()
                .map(|&s| per_structure_activity[s]) // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                .fold(ActivityFactor::IDLE, ActivityFactor::max);
            (
                PerStructure::from_fn(|_| t_max),
                PerStructure::from_fn(|_| p_max),
            )
        }
    };
    let ops = PerStructure::from_fn(|s| {
        OperatingPoint::new(worst_temp[s], tech.vdd, worst_activity[s]) // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
    });
    let mut acc = RateAccumulator::new(&engine.models, tech);
    acc.observe(&ops, 1.0);
    let rates = acc.finish();
    WorstCaseResult {
        node,
        max_temperature: rates.max_temperature(),
        fit: engine.qualification().fit_report(&rates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_requires_reference_node() {
        let mut cfg = StudyConfig::quick();
        cfg.nodes = vec![NodeId::N90];
        assert!(matches!(
            run_study(&cfg),
            Err(RampError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn small_study_end_to_end() {
        let cfg = StudyConfig::quick()
            .with_benchmarks(&["gzip", "ammp"])
            .unwrap();
        let results = run_study(&cfg).unwrap();
        // 2 apps × 5 nodes, 5 worst-case entries.
        assert_eq!(results.app_results().len(), 10);
        assert_eq!(results.worst_cases().len(), 5);
        // Metrics describe the sweep that just ran.
        let metrics = results.metrics();
        assert_eq!(metrics.runs, 10);
        assert!(metrics.wall_seconds > 0.0);
        assert!(metrics.intervals > 0);
        assert_eq!(
            metrics.structure_updates,
            metrics.intervals * Structure::COUNT as u64
        );
        // Scaling must raise the total FIT for every app.
        for app in ["gzip", "ammp"] {
            let base = results.result(app, NodeId::N180).unwrap().fit.total();
            let scaled = results.result(app, NodeId::N65HighV).unwrap().fit.total();
            assert!(
                scaled.value() > base.value() * 1.5,
                "{app}: {scaled} vs {base}"
            );
        }
        // Worst case dominates every individual app at each node.
        for &node in &[NodeId::N180, NodeId::N65HighV] {
            let wc = results.worst_case(node).unwrap().fit.total();
            for app in ["gzip", "ammp"] {
                let app_fit = results.result(app, node).unwrap().fit.total();
                assert!(
                    wc.value() >= app_fit.value(),
                    "worst case {wc} below {app} {app_fit} at {node}"
                );
            }
        }
    }

    #[test]
    fn unknown_benchmark_rejected() {
        let err = StudyConfig::quick().with_benchmarks(&["dhrystone"]);
        assert!(matches!(err, Err(RampError::UnknownBenchmark(_))));
    }
}
