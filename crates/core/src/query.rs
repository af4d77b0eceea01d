//! Reentrant reliability queries: the serving-path view of the pipeline.
//!
//! The paper's recipe lives here, once: calibrate at 180 nm (every
//! mechanism at 1000 FIT averaged over the benchmarks), then run each
//! scaled node under the constant-sink-temperature rule anchored to the
//! same workload's 180 nm power. The batch study ([`crate::run_study`])
//! is a client of [`QueryEngine`] and applies that recipe to a whole
//! benchmark × node grid at once; `ramp-serve` and `ramp-fleet` apply it
//! one `(workload, node)` pair at a time, against a fixed qualification.
//! This module packages that shape:
//!
//! * [`ReliabilityQuery`] — one serialisable question with a stable
//!   content digest (the cache/coalescing key used by `ramp-serve`);
//! * [`QueryOutcome`] — the answer: absolute FIT, expected lifetime, and
//!   qualification margin;
//! * [`QueryEngine`] — the one owner of calibration and of the anchored
//!   pipeline run; a calibrated, cheap-to-clone evaluator. It holds
//!   only immutable state (the `Copy` model set and qualification, the
//!   base pipeline and a digest string), so [`QueryEngine::evaluate`] takes
//!   `&self` and may run concurrently from any number of threads, and
//!   abandoning a caller mid-evaluation cannot corrupt anything
//!   (cancellation safety: there is no partial mutable state to unwind).

use crate::manifest::{config_digest, fnv1a_hex};
use crate::mechanisms::{MechanismKind, MechanismSet, PerMechanism};
use crate::pipeline::{
    average_power, interval_cycles, run_app_filling_intervals, AppNodeRun, PipelineConfig,
};
use crate::qualification::FitReport;
use crate::rates::AveragedRates;
use crate::study::StudyConfig;
use crate::{Executor, NodeId, Qualification, RampError, TechNode, FIT_PER_MECHANISM};
use ramp_trace::{spec, BenchmarkProfile};
use ramp_units::{Fit, Kelvin, Mttf, Watts, Years};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One reliability question: *what does this workload cost in lifetime at
/// this node, under this pipeline configuration?*
///
/// Serialisable so that its canonical JSON can be digested; two queries
/// with the same digest are interchangeable and a server may answer one
/// with the other's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityQuery {
    /// Benchmark name (one of the paper's 16 SPEC2K programs).
    pub benchmark: String,
    /// Technology point to evaluate at.
    pub node: NodeId,
    /// Pipeline configuration for the run.
    pub pipeline: PipelineConfig,
}

impl ReliabilityQuery {
    /// Content digest of the query alone (FNV-1a over its canonical
    /// JSON). Engine-independent; see [`QueryEngine::cache_key`] for the
    /// digest that also pins the calibration.
    #[must_use]
    pub fn digest(&self) -> String {
        let json = serde_json::to_string(self)
            .expect("query is plain data, always serializable"); // ramp-lint:allow(panic-hygiene) -- schema has no fallible serialize cases
        fnv1a_hex(&json)
    }
}

/// The answer to a [`ReliabilityQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Benchmark the query named.
    pub benchmark: String,
    /// Node the query named.
    pub node: NodeId,
    /// The engine's cache key for this query (calibration + query digest).
    pub config_digest: String,
    /// Instructions per cycle achieved by the timing pass.
    pub ipc: f64,
    /// Average total (dynamic + leakage) power.
    pub avg_power: Watts,
    /// Heat-sink temperature the run settled at.
    pub sink_temperature: Kelvin,
    /// Hottest structure temperature observed.
    pub max_temperature: Kelvin,
    /// Total processor failure rate under SOFR.
    pub total_fit: Fit,
    /// Per-mechanism failure rates in canonical order (EM, SM, TDDB, TC).
    pub mechanism_fit: PerMechanism<Fit>,
    /// Mean time to failure implied by the total FIT.
    pub mttf: Mttf,
    /// Expected lifetime in years (the MTTF, year-denominated).
    pub expected_lifetime: Years,
    /// Qualified budget ÷ achieved FIT: ≥ 1 means the part operates
    /// within its qualification, < 1 means it exceeds the budget.
    pub qualification_margin: f64,
}

/// The per-node state a population (fleet) simulation fans out from: one
/// fully evaluated average chip, with everything a per-chip Monte Carlo
/// perturbation needs to re-price the qualified FIT budget without
/// re-running the timing/power/thermal pipeline.
///
/// Produced by [`QueryEngine::population_anchor`]. Every field except the
/// two strings is `Copy`, so cloning an anchor into a million worker
/// closures costs a couple of pointer-sized copies per chip batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationAnchor {
    /// Benchmark the anchor was evaluated on.
    pub benchmark: String,
    /// Node the anchor was evaluated at.
    pub node_id: NodeId,
    /// The node's full technology parameters (the baseline every per-chip
    /// process-variation draw perturbs).
    pub node: TechNode,
    /// Qualification constants in force (fixes the FIT scale).
    pub qualification: Qualification,
    /// Time-averaged relative rates and per-structure temperatures from
    /// the real pipeline run — per-chip evaluation re-anchors on the
    /// per-structure average temperatures in here.
    pub rates: AveragedRates,
    /// Qualified per-(mechanism, structure) FIT of the average chip; the
    /// quantity per-chip rate ratios transfer.
    pub report: FitReport,
    /// The engine's cache key for the underlying query (pins calibration +
    /// query content, so two identically configured fleets share anchors).
    pub cache_key: String,
}

/// A calibrated reliability evaluator for the serving path.
///
/// Built once from a [`StudyConfig`] by the same calibration the batch
/// study runs (180 nm reference runs averaged over the configured
/// benchmarks), then shared/cloned freely across server threads.
///
/// # Examples
///
/// ```no_run
/// use ramp_core::{NodeId, QueryEngine, StudyConfig};
/// let config = StudyConfig::quick().with_benchmarks(&["gzip"])?;
/// let engine = QueryEngine::calibrate(&config)?;
/// let outcome = engine.evaluate(&engine.query("gzip", NodeId::N65HighV)?)?;
/// println!("65nm gzip: {} ({:.2}x margin)", outcome.total_fit, outcome.qualification_margin);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    pub(crate) models: MechanismSet,
    qualification: Qualification,
    base: PipelineConfig,
    calibration_digest: String,
    budget: Fit,
}

impl QueryEngine {
    /// Calibrates an engine by running the 180 nm reference pass of
    /// `config` (in parallel on `config.threads` workers) and deriving
    /// the qualification constants from it; the calibration is shared
    /// with [`crate::run_study`].
    ///
    /// # Errors
    ///
    /// Returns [`RampError::InvalidConfiguration`] for an empty benchmark
    /// list, or any error the reference runs / qualification produce.
    pub fn calibrate(config: &StudyConfig) -> Result<Self, RampError> {
        let executor = Executor::new(config.threads);
        let span = ramp_obs::span!(
            "query_calibrate",
            "benchmarks={} threads={}",
            config.benchmarks.len(),
            executor.threads()
        );
        let (engine, _) = Self::calibrate_runs(config, &executor)?;
        span.finish();
        Ok(engine)
    }

    /// The calibration itself: the 180 nm reference runs of `config` on
    /// `executor` (in benchmark order, under a `reference` span), then
    /// the qualification derived from them (under a `qualify` span).
    /// Returns the calibrated engine together with the reference runs.
    pub(crate) fn calibrate_runs(
        config: &StudyConfig,
        executor: &Executor,
    ) -> Result<(Self, Vec<AppNodeRun>), RampError> {
        if config.benchmarks.is_empty() {
            return Err(RampError::InvalidConfiguration(
                "calibration needs at least one benchmark".into(),
            ));
        }
        // The reference runs need only the models; the unit constants are
        // replaced by the qualification the runs produce.
        let mut engine = Self::new(
            Qualification::from_constants(PerMechanism::from_fn(|_| 1.0))
                .map_err(RampError::Qualification)?,
            config.pipeline.clone(),
            config_digest(config),
        );
        let reference_span = ramp_obs::span!("reference");
        let reference_node = TechNode::reference();
        // Each reference run's engine run also buckets activity at every
        // other interval length of the study's nodes, so the scaled runs
        // replay it from the timing cache.
        let extra_intervals: Vec<u64> = config
            .nodes
            .iter()
            .map(|&node| interval_cycles(&TechNode::get(node)))
            .filter(|&ic| ic != interval_cycles(&reference_node))
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();
        let runs: Vec<Result<AppNodeRun, RampError>> =
            executor.map(&config.benchmarks, |profile| {
                engine.run(profile, &reference_node, &config.pipeline, None, &extra_intervals)
            });
        let runs: Vec<AppNodeRun> = runs.into_iter().collect::<Result<_, _>>()?;
        reference_span.finish();

        let qualify_span = ramp_obs::span!("qualify");
        let rates: Vec<_> = runs.iter().map(|r| r.rates).collect();
        engine.qualification =
            Qualification::from_reference_runs(&rates).map_err(RampError::Qualification)?;
        qualify_span.finish();
        Ok((engine, runs))
    }

    /// Builds an engine from an existing qualification and pipeline
    /// configuration (for tests and what-if studies; skips the reference
    /// runs). `calibration_tag` distinguishes this engine's cache keys.
    pub fn with_qualification(
        qualification: Qualification,
        pipeline: PipelineConfig,
        calibration_tag: &str,
    ) -> Self {
        Self::new(qualification, pipeline, fnv1a_hex(calibration_tag))
    }

    fn new(qualification: Qualification, base: PipelineConfig, calibration_digest: String) -> Self {
        QueryEngine {
            models: MechanismSet::default(),
            qualification,
            base,
            calibration_digest,
            budget: Fit::new(FIT_PER_MECHANISM * MechanismKind::COUNT as f64)
                .expect("paper budget constant is finite and positive"), // ramp-lint:allow(panic-hygiene) -- compile-time constant
        }
    }

    /// The pipeline configuration queries default to.
    #[must_use]
    pub fn base_pipeline(&self) -> &PipelineConfig {
        &self.base
    }

    /// Digest of the calibration this engine answers under.
    #[must_use]
    pub fn calibration_digest(&self) -> &str {
        &self.calibration_digest
    }

    /// The qualification constants in force.
    #[must_use]
    pub fn qualification(&self) -> Qualification {
        self.qualification
    }

    /// Builds a query against this engine's base pipeline configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RampError::UnknownBenchmark`] for an unrecognised name
    /// (checked eagerly so malformed queries fail before they are
    /// enqueued anywhere).
    pub fn query(&self, benchmark: &str, node: NodeId) -> Result<ReliabilityQuery, RampError> {
        let profile = spec::profile(benchmark)?;
        Ok(ReliabilityQuery {
            benchmark: profile.name,
            node,
            pipeline: self.base.clone(),
        })
    }

    /// The full cache/coalescing key for `query` under this engine:
    /// FNV-1a over the calibration digest and the query digest. Two
    /// engines calibrated from identical configs produce identical keys.
    #[must_use]
    pub fn cache_key(&self, query: &ReliabilityQuery) -> String {
        fnv1a_hex(&format!("{}|{}", self.calibration_digest, query.digest()))
    }

    /// Answers one query. Pure with respect to the engine: takes `&self`,
    /// touches no engine state, and is safe to call concurrently; the
    /// result is byte-identical for byte-identical queries.
    ///
    /// Scaled (non-180 nm) nodes are evaluated under the paper's
    /// constant-sink-temperature rule, anchored to the same workload's
    /// 180 nm power — computed here as part of the query so the answer
    /// never depends on what else the server happens to have run. That
    /// 180 nm reference run computes only its average power: it steps the
    /// same power samples and thermal states as a full run, so the anchor
    /// is the full run's bit for bit, but prices no failure rates.
    ///
    /// # Errors
    ///
    /// Returns [`RampError::UnknownBenchmark`] for an unrecognised
    /// benchmark, or any error the pipeline run produces.
    pub fn evaluate(&self, query: &ReliabilityQuery) -> Result<QueryOutcome, RampError> {
        // Standalone evaluations (no server in front of us) still get a
        // causal trace, rooted on the cache key so identical queries map
        // to identical trace ids. Callers that already carry a trace —
        // the serve dispatcher — keep theirs.
        let _trace = ramp_obs::adopt_trace(
            if ramp_obs::tracing_enabled() && ramp_obs::current_trace().is_none() {
                Some(ramp_obs::trace_root(&format!(
                    "query|{}",
                    self.cache_key(query)
                )))
            } else {
                None
            },
        );
        let span = ramp_obs::span!(
            "query_evaluate",
            "benchmark={} node={}",
            query.benchmark,
            query.node
        );
        let run = self.run_query(query)?;
        let report = self.qualification.fit_report(&run.rates);
        let total_fit = report.total();
        let mttf = report.mttf();
        let qualification_margin = if total_fit.value() > 0.0 {
            self.budget.value() / total_fit.value()
        } else {
            f64::MAX
        };
        span.finish();
        Ok(QueryOutcome {
            benchmark: query.benchmark.clone(),
            node: query.node,
            config_digest: self.cache_key(query),
            ipc: run.ipc,
            avg_power: run.avg_total(),
            sink_temperature: run.sink_temperature,
            max_temperature: run.max_temperature(),
            total_fit,
            mechanism_fit: report.per_mechanism(),
            mttf,
            expected_lifetime: Years::from(mttf),
            qualification_margin,
        })
    }

    /// Runs the pipeline for one query under the study recipe (see
    /// [`QueryEngine::run_anchored`]) and the query's own pipeline
    /// configuration.
    fn run_query(&self, query: &ReliabilityQuery) -> Result<AppNodeRun, RampError> {
        let profile = spec::profile(&query.benchmark)?;
        let node = TechNode::get(query.node);
        self.run_anchored_under(&profile, &node, &query.pipeline)
    }

    /// One pipeline run of `profile` at `node` under the study recipe and
    /// this engine's base pipeline: the 180 nm node runs directly, any
    /// other node under the constant-sink rule, anchored to the same
    /// workload's 180 nm power. `node` may be a custom operating point
    /// (say, a 65 nm node with a what-if supply); only its `id` decides
    /// whether it is anchored. [`QueryEngine::evaluate`] answers a query
    /// on the base pipeline from exactly this run.
    ///
    /// # Errors
    ///
    /// Returns [`RampError`] for an invalid profile or configuration, or
    /// a failed thermal solve.
    pub fn run_anchored(
        &self,
        profile: &BenchmarkProfile,
        node: &TechNode,
    ) -> Result<AppNodeRun, RampError> {
        self.run_anchored_under(profile, node, &self.base)
    }

    /// The anchored run under `pipeline`: the run at `node` with the
    /// constant-sink anchor [`QueryEngine::reference_power`] gives it. Of
    /// the two runs only this one is priced; the 180 nm reference run
    /// computes its average power and nothing else.
    fn run_anchored_under(
        &self,
        profile: &BenchmarkProfile,
        node: &TechNode,
        pipeline: &PipelineConfig,
    ) -> Result<AppNodeRun, RampError> {
        let anchor = self.reference_power(profile, node, pipeline)?;
        self.run(profile, node, pipeline, anchor, &[])
    }

    /// The constant-sink anchor of a run of `profile` at `node` under
    /// `pipeline`: `None` at 180 nm, and otherwise the same workload's
    /// 180 nm average power under the same pipeline. That reference run
    /// prices nothing ([`average_power`]): it takes the same timing
    /// lookup, first pass, power samples and thermal steps as a full
    /// 180 nm run, so its power is the full run's bit for bit, but builds
    /// no operating points and accumulates no rates.
    pub(crate) fn reference_power(
        &self,
        profile: &BenchmarkProfile,
        node: &TechNode,
        pipeline: &PipelineConfig,
    ) -> Result<Option<Watts>, RampError> {
        if node.id == NodeId::N180 {
            return Ok(None);
        }
        average_power(profile, &TechNode::reference(), pipeline).map(Some)
    }

    /// One pipeline run of `profile` at `node` with this engine's models.
    /// `reference_power` is the workload's 180 nm power for a scaled node
    /// (constant-sink rule) and `None` for the reference node itself.
    /// `extra_intervals` (cycles) are filled into the timing cache by the
    /// same engine run; see [`run_app_filling_intervals`].
    pub(crate) fn run(
        &self,
        profile: &BenchmarkProfile,
        node: &TechNode,
        pipeline: &PipelineConfig,
        reference_power: Option<Watts>,
        extra_intervals: &[u64],
    ) -> Result<AppNodeRun, RampError> {
        let nominal = |power| Ok((power, node.vdd));
        run_app_filling_intervals(
            profile,
            node,
            pipeline,
            &self.models,
            reference_power,
            extra_intervals,
            nominal,
        )
        .map(|(run, _)| run)
    }

    /// Evaluates the average chip for `query` and packages everything a
    /// population Monte Carlo needs to perturb it: the node parameters,
    /// the qualified per-(mechanism, structure) FIT report, and the
    /// per-structure average temperatures the per-chip operating points
    /// re-anchor on. One anchor per (benchmark, node) amortises the full
    /// pipeline run across millions of sampled chips.
    ///
    /// # Errors
    ///
    /// Returns [`RampError::UnknownBenchmark`] for an unrecognised
    /// benchmark, or any error the pipeline run produces.
    pub fn population_anchor(
        &self,
        query: &ReliabilityQuery,
    ) -> Result<PopulationAnchor, RampError> {
        let span = ramp_obs::span!(
            "population_anchor",
            "benchmark={} node={}",
            query.benchmark,
            query.node
        );
        let run = self.run_query(query)?;
        let report = self.qualification.fit_report(&run.rates);
        span.finish();
        Ok(PopulationAnchor {
            benchmark: query.benchmark.clone(),
            node_id: query.node,
            node: TechNode::get(query.node),
            qualification: self.qualification,
            rates: run.rates,
            report,
            cache_key: self.cache_key(query),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_engine() -> QueryEngine {
        let config = StudyConfig::quick()
            .with_benchmarks(&["gzip"])
            .expect("known benchmark");
        QueryEngine::calibrate(&config).expect("calibration succeeds")
    }

    #[test]
    fn calibration_rejects_empty_benchmarks() {
        let mut config = StudyConfig::quick();
        config.benchmarks.clear();
        assert!(matches!(
            QueryEngine::calibrate(&config),
            Err(RampError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn query_rejects_unknown_benchmark() {
        let engine = quick_engine();
        assert!(matches!(
            engine.query("nonesuch", NodeId::N180),
            Err(RampError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn reference_node_sits_at_qualification() {
        let engine = quick_engine();
        let outcome = engine
            .evaluate(&engine.query("gzip", NodeId::N180).unwrap())
            .unwrap();
        // Calibrated on gzip alone, the gzip 180 nm run is at budget.
        assert!((outcome.total_fit.value() - 4000.0).abs() < 1e-6);
        assert!((outcome.qualification_margin - 1.0).abs() < 1e-9);
        assert!((outcome.expected_lifetime.value() - outcome.mttf.years()).abs() < 1e-12);
    }

    #[test]
    fn scaled_node_loses_margin() {
        let engine = quick_engine();
        let base = engine
            .evaluate(&engine.query("gzip", NodeId::N180).unwrap())
            .unwrap();
        let scaled = engine
            .evaluate(&engine.query("gzip", NodeId::N65HighV).unwrap())
            .unwrap();
        // The paper's headline: scaling costs reliability.
        assert!(scaled.total_fit.value() > base.total_fit.value());
        assert!(scaled.qualification_margin < base.qualification_margin);
        assert!(scaled.expected_lifetime < base.expected_lifetime);
    }

    #[test]
    fn evaluation_is_deterministic_and_reentrant() {
        let engine = quick_engine();
        let query = engine.query("gzip", NodeId::N130).unwrap();
        let direct = serde_json::to_string(&engine.evaluate(&query).unwrap()).unwrap();
        let clones: Vec<QueryEngine> = (0..4).map(|_| engine.clone()).collect();
        let results: Vec<String> = std::thread::scope(|scope| {
            clones
                .iter()
                .map(|e| {
                    let q = query.clone();
                    scope.spawn(move || {
                        serde_json::to_string(&e.evaluate(&q).unwrap()).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in &results {
            assert_eq!(r, &direct);
        }
    }

    #[test]
    fn cache_key_pins_calibration_and_query() {
        let engine = quick_engine();
        let a = engine.query("gzip", NodeId::N180).unwrap();
        let b = engine.query("gzip", NodeId::N130).unwrap();
        assert_ne!(engine.cache_key(&a), engine.cache_key(&b));
        assert_eq!(engine.cache_key(&a), engine.cache_key(&a.clone()));
        // A different calibration changes every key.
        let other = QueryEngine::with_qualification(
            engine.qualification(),
            engine.base_pipeline().clone(),
            "other-tag",
        );
        assert_ne!(engine.cache_key(&a), other.cache_key(&a));
    }

    #[test]
    fn population_anchor_matches_evaluate() {
        let engine = quick_engine();
        let query = engine.query("gzip", NodeId::N65HighV).unwrap();
        let outcome = engine.evaluate(&query).unwrap();
        let anchor = engine.population_anchor(&query).unwrap();
        assert_eq!(anchor.benchmark, "gzip");
        assert_eq!(anchor.node_id, NodeId::N65HighV);
        assert_eq!(anchor.cache_key, engine.cache_key(&query));
        // Same pipeline run underneath: the anchor's report must price the
        // average chip exactly as evaluate() does.
        assert_eq!(anchor.report.total(), outcome.total_fit);
        assert_eq!(anchor.report.per_mechanism(), outcome.mechanism_fit);
        // Average temperatures are plausible operating temperatures.
        for s in ramp_microarch::Structure::ALL {
            let t = anchor.rates.average_temperature()[s].value();
            assert!((300.0..450.0).contains(&t), "avg temp {t} out of range");
        }
    }

    #[test]
    fn reference_runs_fill_every_node_interval() {
        // A length no other test uses keeps these cache classes this
        // test's own.
        let mut config = StudyConfig::quick()
            .with_benchmarks(&["gzip", "vpr"])
            .unwrap();
        config.pipeline.instructions = 30_011;
        crate::run_study(&config).unwrap();
        let class = |ic: u64| {
            ramp_microarch::timing_cache_class_stats()
                .into_iter()
                .find(|c| c.class == format!("len=i30011/ic={ic}"))
                .map(|c| (c.hits, c.misses))
        };
        assert_eq!(class(1_100), Some((0, 2)), "one engine run per benchmark");
        assert_eq!(class(1_350), Some((2, 0)));
        assert_eq!(class(1_650), Some((2, 0)));
        assert_eq!(class(2_000), Some((4, 0)), "both 65 nm points replay");
    }

    #[test]
    fn study_and_engine_agree() {
        // The study is a client of the engine: every (app, node) cell it
        // reports must be bit-identical to a standalone evaluation.
        let config = StudyConfig::quick()
            .with_benchmarks(&["gzip", "ammp"])
            .unwrap();
        let results = crate::run_study(&config).unwrap();
        let engine = QueryEngine::calibrate(&config).unwrap();
        assert_eq!(*results.qualification(), engine.qualification());
        assert_eq!(results.app_results().len(), 10);
        for app in ["gzip", "ammp"] {
            for node in NodeId::ALL {
                let c = results.result(app, node).unwrap();
                let o = engine.evaluate(&engine.query(app, node).unwrap()).unwrap();
                let mut quantities = vec![
                    ("total FIT", c.fit.total().value(), o.total_fit.value()),
                    (
                        "max temp",
                        c.max_temperature().value(),
                        o.max_temperature.value(),
                    ),
                    ("power", c.avg_total_power().value(), o.avg_power.value()),
                ];
                for m in MechanismKind::ALL {
                    let fit = o.mechanism_fit[m]; // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism` is total
                    quantities.push((m.label(), c.fit.mechanism_total(m).value(), fit.value()));
                }
                for (quantity, study, evaluated) in quantities {
                    assert_eq!(
                        study.to_bits(),
                        evaluated.to_bits(),
                        "{app} {node}: {quantity}"
                    );
                }
            }
        }
    }
}
