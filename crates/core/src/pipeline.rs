//! The end-to-end RAMP evaluation pipeline for one (benchmark, node) pair.
//!
//! This reproduces the paper's simulation flow (§4):
//!
//! 1. **Timing** — the Turandot-like simulator runs the benchmark trace on
//!    the Table-2 machine, producing activity factors per 1 µs interval
//!    (the interval length in cycles follows the node's frequency).
//! 2. **First pass (power/thermal)** — average activity feeds a
//!    power↔steady-state-temperature fixed point, yielding the heat-sink
//!    temperature used to initialise the transient run. When a 180 nm
//!    reference power is supplied, the sink resistance is rescaled so the
//!    application's sink temperature stays constant across nodes.
//! 3. **Second pass** — the activity trace is replayed (several times) at
//!    1 µs steps with the leakage↔temperature feedback closed, and RAMP
//!    accumulates instantaneous failure rates per structure. Each interval
//!    runs at the DVS level a crate-private `LevelPolicy` hands back (its
//!    power model and supply voltage), and the policy then observes the
//!    rates priced for the interval. A plain run's policy is the node's own
//!    nominal level; [`crate::drm::run_with_drm`] passes the DRM
//!    controller. The first pass always runs at the nominal level.

use crate::drm::DvsLevel;
use crate::mechanisms::{ActivityTerms, IntervalRates, MechanismSet};
use crate::rates::{AveragedRates, RateAccumulator};
use crate::{RampError, TechNode};
use ramp_microarch::{
    simulate_profile_cached_grouped, ActivityTrace, MachineConfig, PerStructure,
    SimulationLength, Structure,
};
use ramp_power::{
    DynamicPowerModel, DynamicSample, DynamicScaling, FeedbackTracker, LeakageModel, PowerModel,
    PowerSample, PreparedLeakage, StructureBudgets,
};
use ramp_thermal::{ThermalParams, ThermalSimulator, ThermalState};
use ramp_trace::BenchmarkProfile;
use ramp_units::{ActivityFactor, Kelvin, KelvinDelta, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Convergence tolerance (kelvin) reported for the first-pass fixed point.
/// The loop runs a fixed iteration count; the tracker only classifies
/// whether the final sweep still moved temperatures by more than this.
const FEEDBACK_TOLERANCE: KelvinDelta = KelvinDelta::new_const(0.05);

/// Configuration of the evaluation pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Instructions simulated per benchmark.
    pub instructions: u64,
    /// How many times the activity trace is replayed in the second pass
    /// (extends simulated wall-clock so silicon transients develop).
    pub trace_repeats: u32,
    /// Package/thermal-stack parameters.
    pub thermal: ThermalParams,
    /// Per-structure dynamic power budgets.
    pub budgets: StructureBudgets,
    /// Leakage-temperature coefficient β.
    pub leakage_beta: f64,
    /// Fixed-point iterations for the first (steady-state) pass.
    pub first_pass_iterations: u32,
    /// Record the per-interval structure temperatures of the second pass
    /// into [`AppNodeRun::thermal_trace`] (off by default: a production
    /// run stores tens of thousands of intervals).
    pub record_thermal_trace: bool,
    /// Downsampling stride for the recorded thermal trace: every
    /// `thermal_trace_stride`-th interval is kept (1 = every interval).
    /// Long runs can set e.g. 100 to bound trace memory and the volume of
    /// per-interval trace events emitted through the obs sinks.
    pub thermal_trace_stride: u32,
    /// Thermal time-compression factor: silicon/spreader transients run
    /// this many times faster than wall-clock. Our traces compress the
    /// paper's 100 M-instruction runs ~8×; compressing the thermal time
    /// constants by the same factor preserves the ratio of program-phase
    /// dwell to thermal τ, and therefore the transient temperature swings
    /// the worst-case analysis depends on. Steady-state temperatures are
    /// unaffected (capacitance cancels at equilibrium). Set to 1.0 for
    /// uncompressed physics.
    pub time_compression: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            instructions: 12_000_000,
            trace_repeats: 2,
            thermal: ThermalParams::reference(),
            budgets: StructureBudgets::power4_reference(),
            leakage_beta: ramp_power::DEFAULT_BETA,
            first_pass_iterations: 8,
            record_thermal_trace: false,
            thermal_trace_stride: 1,
            time_compression: 8.0,
        }
    }
}

impl PipelineConfig {
    /// A reduced-cost configuration for tests and examples.
    #[must_use]
    pub fn quick() -> Self {
        PipelineConfig {
            instructions: 200_000,
            trace_repeats: 2,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RampError::InvalidConfiguration`] on the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), RampError> {
        if self.instructions == 0 {
            return Err(RampError::InvalidConfiguration(
                "instructions must be positive".into(),
            ));
        }
        if self.trace_repeats == 0 {
            return Err(RampError::InvalidConfiguration(
                "trace_repeats must be positive".into(),
            ));
        }
        if self.first_pass_iterations == 0 {
            return Err(RampError::InvalidConfiguration(
                "first_pass_iterations must be positive".into(),
            ));
        }
        if self.thermal_trace_stride == 0 {
            return Err(RampError::InvalidConfiguration(
                "thermal_trace_stride must be positive".into(),
            ));
        }
        if !self.time_compression.is_finite() || self.time_compression < 1.0 {
            return Err(RampError::InvalidConfiguration(
                "time_compression must be >= 1".into(),
            ));
        }
        self.thermal
            .validate()
            .map_err(RampError::InvalidConfiguration)?;
        Ok(())
    }
}

/// Wall-clock and work counters for the three pipeline stages of one run.
///
/// `timing` measures what this run actually spent in the timing stage:
/// on a timing-cache hit it is the (near-zero) lookup cost, not the cost
/// of the original simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Timing pass (trace-driven simulation or cache lookup).
    pub timing: Duration,
    /// First pass: power ↔ steady-state-temperature fixed point.
    pub first_pass: Duration,
    /// Second pass: transient thermal walk + rate accumulation.
    pub second_pass: Duration,
    /// Activity intervals observed by the second pass.
    pub intervals: u64,
    /// Per-structure operating points evaluated (intervals × structures).
    pub structure_updates: u64,
}

impl StageTimings {
    /// Total wall-clock across the three stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.timing + self.first_pass + self.second_pass
    }

    /// Accumulates another run's timings into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.timing += other.timing;
        self.first_pass += other.first_pass;
        self.second_pass += other.second_pass;
        self.intervals += other.intervals;
        self.structure_updates += other.structure_updates;
    }
}

/// Raw (pre-qualification) outcome of one benchmark on one node.
#[derive(Debug, Clone)]
pub struct AppNodeRun {
    /// Benchmark name.
    pub app: String,
    /// Node simulated.
    pub node: TechNode,
    /// IPC measured by the timing pass.
    pub ipc: f64,
    /// Average dynamic power over the run.
    pub avg_dynamic: Watts,
    /// Average leakage power over the run.
    pub avg_leakage: Watts,
    /// Heat-sink temperature (constant over the second pass).
    pub sink_temperature: Kelvin,
    /// Time-averaged failure rates and temperature statistics.
    pub rates: AveragedRates,
    /// Time-average activity factor per structure.
    pub avg_activity: PerStructure<ActivityFactor>,
    /// Peak interval activity factor per structure.
    pub peak_activity: PerStructure<ActivityFactor>,
    /// Per-interval structure temperatures of the second pass, recorded
    /// only when [`PipelineConfig::record_thermal_trace`] is set.
    pub thermal_trace: Option<Vec<PerStructure<Kelvin>>>,
    /// Per-stage wall-clock and throughput counters for this run.
    pub timings: StageTimings,
}

impl AppNodeRun {
    /// Average total (dynamic + leakage) power.
    #[must_use]
    pub fn avg_total(&self) -> Watts {
        self.avg_dynamic + self.avg_leakage
    }

    /// Maximum temperature reached by any structure (Figure 2's metric).
    #[must_use]
    pub fn max_temperature(&self) -> Kelvin {
        self.rates.max_temperature()
    }
}

/// Cycles per 1 µs sampling interval at the node's clock.
pub(crate) fn interval_cycles(node: &TechNode) -> u64 {
    node.frequency.cycles_in(Seconds::MICROSECOND)
}

/// Builds the node's power model for a benchmark running at `level`.
pub(crate) fn power_model(
    profile: &BenchmarkProfile,
    node: &TechNode,
    cfg: &PipelineConfig,
    level: DvsLevel,
) -> Result<PowerModel, RampError> {
    let reference = TechNode::reference();
    let scaling = DynamicScaling::new(
        node.capacitance_rel,
        level.voltage.ratio_to(reference.vdd),
        level.frequency.ratio_to(reference.frequency),
    )
    .map_err(RampError::InvalidConfiguration)?;
    let leakage = LeakageModel::new(
        node.leakage_density,
        node.core_area(),
        cfg.leakage_beta,
    )
    .map_err(RampError::InvalidConfiguration)?;
    let residual =
        ramp_trace::spec::power_residual(&profile.name).unwrap_or(1.0);
    PowerModel::new(
        DynamicPowerModel::new(cfg.budgets.clone(), scaling),
        leakage,
        residual,
    )
    .map_err(RampError::InvalidConfiguration)
}

/// The second pass's per-interval DVS level hook.
pub(crate) trait LevelPolicy {
    /// The power models of the policy's levels, in ladder order. The run
    /// reads them once, before its first interval.
    fn models(&self) -> &[PowerModel];
    /// The next interval's level, as an index into
    /// [`LevelPolicy::models`], and its supply voltage.
    fn level(&self) -> (usize, Volts);
    /// Observes the rates the run priced for the interval and the
    /// structure temperatures its thermal step reached.
    fn observe(&mut self, _rates: &IntervalRates, _temperature: &PerStructure<Kelvin>) {}
}

/// A plain run's policy: one power model and supply voltage (the node's
/// own) in every interval.
impl LevelPolicy for (PowerModel, Volts) {
    fn models(&self) -> &[PowerModel] {
        std::slice::from_ref(&self.0)
    }

    fn level(&self) -> (usize, Volts) {
        (0, self.1)
    }
}

/// What the second pass does with an interval besides the power sample
/// and thermal step every run takes. The interval loop is generic over
/// it, so a run that prices nothing ([`Unpriced`]) is compiled without
/// the pricing, not branched around it.
trait IntervalObserver {
    /// What the observer hands back once the last interval is observed.
    type Output;
    /// What the observer needs of one trace interval's activity. It is
    /// built once per trace interval, before the first one is stepped,
    /// and read on every repeat.
    type Terms: Copy;
    /// The power models of the run's levels, in ladder order.
    fn models(&self) -> &[PowerModel];
    /// The next interval's level, as an index into
    /// [`IntervalObserver::models`], and its supply voltage.
    fn level(&self) -> (usize, Volts);
    /// The terms of a trace interval whose activity is `factors`.
    fn terms(&self, factors: &PerStructure<ActivityFactor>) -> Self::Terms;
    /// Observes interval `index` (counted across trace repeats): its
    /// supply, its activity's terms, and the structure temperatures its
    /// thermal step reached.
    ///
    /// # Errors
    ///
    /// [`RampError::InvalidRate`] when a priced rate is not finite and
    /// non-negative.
    fn observe(
        &mut self,
        index: u64,
        vdd: Volts,
        terms: &Self::Terms,
        temps: &PerStructure<Kelvin>,
    ) -> Result<(), RampError>;
    /// Ends the second pass.
    fn finish(self) -> Self::Output;
}

/// A priced run's observer: each interval is priced once, its rates go
/// to the rate accumulator and the level policy, and every `stride`-th
/// interval's temperatures to the thermal trace when one is recorded.
/// Its terms are EM's activity terms of each trace interval.
struct Priced<P> {
    policy: P,
    rates: RateAccumulator,
    thermal_trace: Option<Vec<PerStructure<Kelvin>>>,
    stride: u64,
}

impl<P: LevelPolicy> IntervalObserver for Priced<P> {
    type Output = (AveragedRates, Option<Vec<PerStructure<Kelvin>>>, P);
    type Terms = ActivityTerms;

    fn models(&self) -> &[PowerModel] {
        self.policy.models()
    }

    fn level(&self) -> (usize, Volts) {
        self.policy.level()
    }

    fn terms(&self, factors: &PerStructure<ActivityFactor>) -> ActivityTerms {
        ActivityTerms::new(self.rates.prepared(), factors)
    }

    fn observe(
        &mut self,
        index: u64,
        vdd: Volts,
        terms: &ActivityTerms,
        temps: &PerStructure<Kelvin>,
    ) -> Result<(), RampError> {
        let prepared = self.rates.prepared();
        let rates = prepared.price_interval(terms, &PerStructure([vdd; Structure::COUNT]), temps);
        if let Some((mechanism, structure, rate)) = rates.first_invalid() {
            return Err(RampError::InvalidRate {
                mechanism,
                structure,
                interval: index,
                rate,
            });
        }
        self.rates.accumulate(&rates, temps, 1.0);
        self.policy.observe(&rates, temps);
        if let Some(trace) = self.thermal_trace.as_mut() {
            if index.is_multiple_of(self.stride) {
                trace.push(*temps);
            }
        }
        Ok(())
    }

    fn finish(self) -> Self::Output {
        (self.rates.finish(), self.thermal_trace, self.policy)
    }
}

/// A power-only run's observer: the node's nominal level in every
/// interval, and nothing observed.
struct Unpriced((PowerModel, Volts));

impl IntervalObserver for Unpriced {
    type Output = ();
    type Terms = ();

    fn models(&self) -> &[PowerModel] {
        self.0.models()
    }

    fn level(&self) -> (usize, Volts) {
        self.0.level()
    }

    fn terms(&self, _factors: &PerStructure<ActivityFactor>) {}

    fn observe(
        &mut self,
        _index: u64,
        _vdd: Volts,
        _terms: &(),
        _temps: &PerStructure<Kelvin>,
    ) -> Result<(), RampError> {
        Ok(())
    }

    fn finish(self) {}
}

/// One trace interval at one level: what the second pass reads of it on
/// every repeat. Both parts depend on the level and the interval's
/// activity alone, never on a temperature, which is what lets a run
/// build them before its first interval.
struct IntervalRecord<T> {
    /// The dynamic half of the interval's power sample at the level.
    dynamic: DynamicSample,
    /// The observer's terms of the interval's activity.
    terms: T,
}

/// The per-run table of the second pass: what every interval reads
/// instead of recomputing it on each trace repeat.
///
/// Only (level, activity) can enter it. Its records are built from a
/// level's power model and a trace interval's activity factors, and its
/// leakage models hold each structure's temperature-independent term; no
/// temperature, supply or interval index reaches either. So a record is
/// valid on every repeat and under any sequence of levels, and an
/// interval's power is the bits of its level's `PowerModel::sample`. The
/// table lives and dies with one run.
struct RunTable<T> {
    /// Each level's leakage model with its constant term computed.
    leakage: Vec<PreparedLeakage>,
    /// One record per level for each trace interval, in trace order,
    /// each interval's in level order.
    records: Vec<IntervalRecord<T>>,
}

impl<T: Copy> RunTable<T> {
    /// The table of `observer`'s levels over `activity`.
    ///
    /// # Errors
    ///
    /// [`RampError::InvalidConfiguration`] when the observer has no
    /// level.
    fn build<O: IntervalObserver<Terms = T>>(
        observer: &O,
        activity: &ActivityTrace,
    ) -> Result<Self, RampError> {
        let models = observer.models();
        if models.is_empty() {
            return Err(RampError::InvalidConfiguration(
                "a level policy needs at least one level".into(),
            ));
        }
        let mut records = Vec::with_capacity(activity.intervals().len() * models.len());
        for interval in activity.intervals() {
            let terms = observer.terms(&interval.factors);
            records.extend(models.iter().map(|model| IntervalRecord {
                dynamic: model.dynamic_sample(&interval.factors),
                terms,
            }));
        }
        Ok(RunTable {
            leakage: models.iter().map(|model| model.leakage().prepare()).collect(),
            records,
        })
    }

    /// One trace's records, one level-ordered slice per trace interval.
    fn intervals(&self) -> std::slice::ChunksExact<'_, IntervalRecord<T>> {
        self.records.chunks_exact(self.leakage.len())
    }

    /// The power sample of the trace interval whose records are
    /// `records` at `level`, with the structures at `temps`, and the
    /// interval's record at that level: the bits of the level's
    /// [`PowerModel::sample`]. `None` when `level` is not one of the
    /// table's.
    fn sample<'a>(
        &self,
        records: &'a [IntervalRecord<T>],
        level: usize,
        temps: &PerStructure<Kelvin>,
    ) -> Option<(PowerSample, &'a IntervalRecord<T>)> {
        let leakage = self.leakage.get(level)?;
        let record = records.get(level)?;
        let sample = PowerSample {
            dynamic: *record.dynamic.per_structure(),
            leakage: leakage.power(temps),
        };
        Some((sample, record))
    }
}

/// First pass: power ↔ steady-state-temperature fixed point. Returns the
/// initial thermal state and the converged average power sample.
fn first_pass(
    sim_builder: impl Fn(Watts) -> Result<ThermalSimulator, RampError>,
    power: &PowerModel,
    avg_activity: &PerStructure<ActivityFactor>,
    iterations: u32,
) -> Result<(ThermalSimulator, ThermalState), RampError> {
    let mut temps = PerStructure::from_fn(|_| Kelvin::new_const(345.0));
    let mut sim = sim_builder(Watts::new(1.0).expect("literal"))?; // ramp-lint:allow(panic-hygiene) -- literal is in range
    let mut state = ThermalState::uniform(Kelvin::new_const(345.0));
    let mut tracker = FeedbackTracker::new(FEEDBACK_TOLERANCE);
    for _ in 0..iterations {
        let sample = power.sample(avg_activity, &temps);
        sim = sim_builder(sample.total())?;
        state = sim
            .initial_state(&sample.per_structure_total())
            .map_err(RampError::ThermalSolve)?;
        let max_delta = Structure::ALL
            .iter()
            .map(|&s| state.structures[s].abs_diff(temps[s])) // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            .fold(KelvinDelta::ZERO, KelvinDelta::max);
        tracker.observe(max_delta);
        temps = state.structures;
    }
    tracker.finish();
    Ok((sim, state))
}

/// Runs the full pipeline for one benchmark on one node.
///
/// `reference_power` is the benchmark's average total power at 180 nm; when
/// provided, the heat-sink resistance is rescaled so the sink temperature
/// matches the 180 nm run (the paper's constant-sink rule). Pass `None`
/// for the 180 nm run itself.
///
/// # Errors
///
/// Returns [`RampError`] if the configuration is invalid or a thermal
/// solve fails.
///
/// # Examples
///
/// ```
/// use ramp_core::{run_app_on_node, NodeId, PipelineConfig, TechNode};
/// use ramp_core::mechanisms::MechanismSet;
/// use ramp_trace::spec;
///
/// let models = MechanismSet::default();
/// let run = run_app_on_node(
///     &spec::profile("gzip")?,
///     &TechNode::get(NodeId::N180),
///     &PipelineConfig::quick(),
///     &models,
///     None,
/// )?;
/// assert!(run.ipc > 1.0);
/// assert!(run.max_temperature().value() > run.sink_temperature.value());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_app_on_node(
    profile: &BenchmarkProfile,
    node: &TechNode,
    cfg: &PipelineConfig,
    models: &MechanismSet,
    reference_power: Option<Watts>,
) -> Result<AppNodeRun, RampError> {
    let nominal = |power| Ok((power, node.vdd));
    run_app_filling_intervals(profile, node, cfg, models, reference_power, &[], nominal)
        .map(|(run, _)| run)
}

/// [`run_app_on_node`] whose timing stage also fills the timing cache at
/// `extra_intervals` (cycles), in the same engine run, for later runs of
/// the same benchmark at nodes with those interval lengths, and whose
/// second pass runs each interval at the level of the policy `levels`
/// builds from the node's nominal power model (the first pass's). Returns
/// the policy with the run, so the caller can read what it observed.
pub(crate) fn run_app_filling_intervals<P: LevelPolicy>(
    profile: &BenchmarkProfile,
    node: &TechNode,
    cfg: &PipelineConfig,
    models: &MechanismSet,
    reference_power: Option<Watts>,
    extra_intervals: &[u64],
    levels: impl FnOnce(PowerModel) -> Result<P, RampError>,
) -> Result<(AppNodeRun, P), RampError> {
    let stride = u64::from(cfg.thermal_trace_stride);
    let priced = |power, trace_intervals: usize| {
        let intervals = trace_intervals * cfg.trace_repeats as usize;
        Ok(Priced {
            policy: levels(power)?,
            rates: RateAccumulator::new(models, *node),
            thermal_trace: cfg
                .record_thermal_trace
                .then(|| Vec::with_capacity(intervals.div_ceil(stride as usize))),
            stride,
        })
    };
    let (stages, (rates, thermal_trace, policy)) =
        run_stages(profile, node, cfg, reference_power, extra_intervals, priced)?;
    let run = AppNodeRun {
        app: profile.name.clone(),
        node: *node,
        ipc: stages.ipc,
        avg_dynamic: stages.avg_dynamic,
        avg_leakage: stages.avg_leakage,
        sink_temperature: stages.sink_temperature,
        rates,
        avg_activity: stages.avg_activity,
        peak_activity: stages.peak_activity,
        thermal_trace,
        timings: stages.timings,
    };
    Ok((run, policy))
}

/// The average total power [`run_app_on_node`] reports for `profile` at
/// `node` without a reference power, bit for bit, from a run that prices
/// nothing: the same timing lookup, first pass, power samples and thermal
/// steps in the same order, but no interval pricing, rate accumulation,
/// level policy or thermal trace. The constant-sink rule needs only this
/// of a scaled run's 180 nm reference run.
pub(crate) fn average_power(
    profile: &BenchmarkProfile,
    node: &TechNode,
    cfg: &PipelineConfig,
) -> Result<Watts, RampError> {
    let nominal = |power, _intervals| Ok(Unpriced((power, node.vdd)));
    run_stages(profile, node, cfg, None, &[], nominal)
        .map(|(stages, ())| stages.avg_dynamic + stages.avg_leakage)
}

/// What every run measures, priced or not.
struct Stages {
    ipc: f64,
    avg_dynamic: Watts,
    avg_leakage: Watts,
    sink_temperature: Kelvin,
    avg_activity: PerStructure<ActivityFactor>,
    peak_activity: PerStructure<ActivityFactor>,
    timings: StageTimings,
}

/// The three stages of one run. The second pass takes each interval's
/// level from, and hands what the interval produced to, the observer
/// `observer` builds from the node's nominal power model (the first
/// pass's) and the number of intervals in one repeat of the trace.
fn run_stages<O: IntervalObserver>(
    profile: &BenchmarkProfile,
    node: &TechNode,
    cfg: &PipelineConfig,
    reference_power: Option<Watts>,
    extra_intervals: &[u64],
    observer: impl FnOnce(PowerModel, usize) -> Result<O, RampError>,
) -> Result<(Stages, O::Output), RampError> {
    cfg.validate()?;
    profile
        .validate()
        .map_err(RampError::InvalidConfiguration)?;
    let run_span = ramp_obs::span!("run", "app={} node={}", profile.name, node.id.label());

    // ---- Timing pass ----------------------------------------------------
    // Cached: the engine's events are the same at every node, only the
    // interval length differs. A run that names `extra_intervals` (a
    // study's 180 nm reference run names every other node's) buckets them
    // all in one engine run, and the later runs at those intervals replay
    // it instead of re-simulating.
    let mut timing_span = ramp_obs::span!("timing");
    let machine = MachineConfig::power4_180nm();
    let (out, cache_outcome, cache_key) = simulate_profile_cached_grouped(
        &machine,
        profile,
        SimulationLength::Instructions(cfg.instructions),
        interval_cycles(node),
        extra_intervals,
    );
    timing_span.set_detail(format!(
        "node={} cache={} key={cache_key}",
        node.id.label(),
        cache_outcome.as_str()
    ));
    let timing_elapsed = timing_span.finish();
    let activity: &ActivityTrace = &out.activity;
    if activity.intervals().is_empty() {
        return Err(RampError::InvalidConfiguration(
            "simulation produced no complete activity interval".into(),
        ));
    }
    let avg_activity = activity.average();
    let peak_activity = activity.peak();

    // ---- First pass: steady state / sink initialisation ------------------
    let first_pass_span = ramp_obs::span!("first_pass");
    let power = power_model(profile, node, cfg, DvsLevel::nominal(node))?;
    let thermal_params = cfg.thermal;
    let area = node.core_area();
    let sim_builder = |avg_power: Watts| -> Result<ThermalSimulator, RampError> {
        match reference_power {
            Some(ref_p) => ThermalSimulator::with_constant_sink_temperature(
                area,
                thermal_params,
                ref_p,
                avg_power,
            )
            .map_err(RampError::InvalidConfiguration),
            None => ThermalSimulator::new(area, thermal_params)
                .map_err(RampError::InvalidConfiguration),
        }
    };
    let (sim, initial) = first_pass(
        sim_builder,
        &power,
        &avg_activity,
        cfg.first_pass_iterations,
    )?;
    let first_pass_elapsed = first_pass_span.finish();

    // ---- Second pass: transient + the observer's per-interval work -------
    let second_pass_span = ramp_obs::span!("second_pass");
    let mut observer = observer(power, activity.intervals().len())?;
    let table = RunTable::build(&observer, activity)?;
    let mut state = initial;
    let mut dyn_sum = 0.0;
    let mut leak_sum = 0.0;
    let mut samples = 0u64;
    let mut stepped = 0u64;
    let stride = u64::from(cfg.thermal_trace_stride);
    let trace_events = ramp_obs::enabled(ramp_obs::Level::Trace, "ramp_core::pipeline::thermal");
    // Time compression: each 1 µs sampling interval advances the thermal
    // state by `time_compression` µs, split into explicitly stable
    // sub-steps.
    let total_dt = 1e-6 * cfg.time_compression;
    let stable = sim.network().max_stable_step().value();
    let substeps = (total_dt / stable).ceil().max(1.0) as u32;
    let dt = Seconds::new(total_dt / f64::from(substeps))
        .expect("positive sub-step duration"); // ramp-lint:allow(panic-hygiene) -- substeps >= 1 keeps dt positive
    // Each interval's power is its level's table record plus the leakage
    // at the temperatures the previous interval reached: the bits of
    // `PowerModel::sample`. The thermal metrics are recorded once, for
    // every interval stepped, also when an interval's rates are invalid.
    let mut walk = || -> Result<(), RampError> {
        for _ in 0..cfg.trace_repeats {
            for records in table.intervals() {
                let (level, vdd) = observer.level();
                let Some((sample, record)) = table.sample(records, level, &state.structures)
                else {
                    return Err(RampError::InvalidConfiguration(format!(
                        "level {level} is outside the policy's {} levels",
                        table.leakage.len()
                    )));
                };
                state = sim.advance(&state, &sample.per_structure_total(), dt, substeps);
                stepped += 1;
                observer.observe(samples, vdd, &record.terms, &state.structures)?;
                if trace_events && samples.is_multiple_of(stride) {
                    let (hot, hot_temp) = state.hottest();
                    ramp_obs::trace!(
                        target: "ramp_core::pipeline::thermal",
                        "interval={samples} hottest={hot} t_hot={:.3}K sink={:.3}K",
                        hot_temp.value(),
                        state.sink.value()
                    );
                }
                dyn_sum += record.dynamic.total().value();
                leak_sum += sample.leakage_total().value();
                samples += 1;
            }
        }
        Ok(())
    };
    let walked = walk();
    sim.record_intervals(stepped, substeps);
    walked?;
    let observed = observer.finish();
    let second_pass_elapsed = second_pass_span.finish();
    let timings = StageTimings {
        timing: timing_elapsed,
        first_pass: first_pass_elapsed,
        second_pass: second_pass_elapsed,
        intervals: samples,
        structure_updates: samples * Structure::COUNT as u64,
    };
    let mut run_span = run_span;
    run_span.set_detail(format!(
        "app={} node={} intervals={samples}",
        profile.name,
        node.id.label()
    ));
    drop(run_span);

    let stages = Stages {
        ipc: out.stats.ipc(),
        avg_dynamic: Watts::new(dyn_sum / samples as f64)
            .expect("mean of valid powers is valid"), // ramp-lint:allow(panic-hygiene) -- mean of valid powers is valid
        avg_leakage: Watts::new(leak_sum / samples as f64)
            .expect("mean of valid powers is valid"), // ramp-lint:allow(panic-hygiene) -- mean of valid powers is valid
        sink_temperature: state.sink,
        avg_activity,
        peak_activity,
        timings,
    };
    Ok((stages, observed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::MechanismSet;
    use crate::NodeId;
    use ramp_microarch::Structure;
    use ramp_trace::spec;

    fn quick_run(app: &str, node: NodeId, reference: Option<Watts>) -> AppNodeRun {
        let models = MechanismSet::default();
        run_app_on_node(
            &spec::profile(app).unwrap(),
            &TechNode::get(node),
            &PipelineConfig::quick(),
            &models,
            reference,
        )
        .unwrap()
    }

    #[test]
    fn base_run_produces_sane_physics() {
        let run = quick_run("gzip", NodeId::N180, None);
        assert!(run.ipc > 1.0 && run.ipc < 3.0, "ipc {}", run.ipc);
        let total = run.avg_total().value();
        assert!((15.0..45.0).contains(&total), "power {total} W");
        let sink = run.sink_temperature.value();
        assert!((330.0..355.0).contains(&sink), "sink {sink} K");
        let max = run.max_temperature().value();
        assert!(max > sink && max < 400.0, "max temp {max} K");
    }

    #[test]
    fn interval_cycles_follow_frequency() {
        assert_eq!(interval_cycles(&TechNode::get(NodeId::N180)), 1100);
        assert_eq!(interval_cycles(&TechNode::get(NodeId::N90)), 1650);
        assert_eq!(interval_cycles(&TechNode::get(NodeId::N65HighV)), 2000);
    }

    #[test]
    fn scaled_node_runs_hotter_with_constant_sink() {
        let base = quick_run("wupwise", NodeId::N180, None);
        let scaled = quick_run("wupwise", NodeId::N65HighV, Some(base.avg_total()));
        // Constant-sink rule: sink temperatures match across nodes.
        assert!(
            (scaled.sink_temperature.value() - base.sink_temperature.value()).abs() < 1.5,
            "sink moved: {} vs {}",
            base.sink_temperature,
            scaled.sink_temperature
        );
        // Junctions run hotter on the smaller die.
        assert!(
            scaled.max_temperature().value() > base.max_temperature().value() + 4.0,
            "65 nm {} should exceed 180 nm {}",
            scaled.max_temperature(),
            base.max_temperature()
        );
        // Total power drops with scaling (Table 4).
        assert!(scaled.avg_total().value() < base.avg_total().value());
    }

    #[test]
    fn thermal_trace_recording_is_opt_in() {
        let models = MechanismSet::default();
        let profile = spec::profile("mesa").unwrap();
        let off = run_app_on_node(
            &profile,
            &TechNode::reference(),
            &PipelineConfig::quick(),
            &models,
            None,
        )
        .unwrap();
        assert!(off.thermal_trace.is_none());
        let cfg = PipelineConfig {
            record_thermal_trace: true,
            ..PipelineConfig::quick()
        };
        let on =
            run_app_on_node(&profile, &TechNode::reference(), &cfg, &models, None).unwrap();
        let trace = on.thermal_trace.as_ref().expect("trace recorded");
        assert!(!trace.is_empty());
        // Trace peak must agree with the run's reported peak temperature.
        let traced_peak = trace
            .iter()
            .flat_map(|t| Structure::ALL.iter().map(move |&s| t[s].value()))
            .fold(f64::MIN, f64::max);
        assert!((traced_peak - on.max_temperature().value()).abs() < 1e-9);
    }

    #[test]
    fn thermal_trace_stride_downsamples() {
        let models = MechanismSet::default();
        let profile = spec::profile("mesa").unwrap();
        let full_cfg = PipelineConfig {
            record_thermal_trace: true,
            ..PipelineConfig::quick()
        };
        let full = run_app_on_node(&profile, &TechNode::reference(), &full_cfg, &models, None)
            .unwrap();
        let full_len = full.thermal_trace.as_ref().unwrap().len();

        let strided_cfg = PipelineConfig {
            record_thermal_trace: true,
            thermal_trace_stride: 7,
            ..PipelineConfig::quick()
        };
        let strided =
            run_app_on_node(&profile, &TechNode::reference(), &strided_cfg, &models, None)
                .unwrap();
        let trace = strided.thermal_trace.as_ref().unwrap();
        assert_eq!(trace.len(), full_len.div_ceil(7), "every 7th interval kept");
        // Downsampling must not perturb the simulation itself.
        assert_eq!(full.rates, strided.rates);
        // Kept samples are exactly the 0th, 7th, 14th... of the full trace.
        let full_trace = full.thermal_trace.as_ref().unwrap();
        for (i, t) in trace.iter().enumerate() {
            assert_eq!(*t, full_trace[i * 7]);
        }
    }

    #[test]
    fn zero_stride_rejected() {
        let mut cfg = PipelineConfig::quick();
        cfg.thermal_trace_stride = 0;
        assert!(matches!(
            cfg.validate(),
            Err(RampError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn determinism() {
        let a = quick_run("twolf", NodeId::N130, None);
        let b = quick_run("twolf", NodeId::N130, None);
        assert_eq!(a.rates, b.rates);
        assert_eq!(a.avg_dynamic, b.avg_dynamic);
    }

    #[test]
    fn an_overflowing_rate_is_an_error_not_a_panic() {
        // J = 9·p exceeds 1 for any activity above 1/9, so J^n is ∞.
        let mut models = MechanismSet::default();
        models.em.current_exponent = 1e6;
        let err = run_app_on_node(
            &spec::profile("gzip").unwrap(),
            &TechNode::reference(),
            &PipelineConfig::quick(),
            &models,
            None,
        )
        .unwrap_err();
        let RampError::InvalidRate {
            mechanism, rate, ..
        } = err
        else {
            panic!("expected an invalid-rate error, got {err}");
        };
        assert_eq!(mechanism, crate::mechanisms::MechanismKind::Em);
        assert!(rate.is_infinite());
        assert!(err.to_string().contains("EM rate of"), "{err}");
    }

    /// A three-level policy that stays at its fastest level.
    struct Ladder(Vec<PowerModel>, Volts);

    impl LevelPolicy for Ladder {
        fn models(&self) -> &[PowerModel] {
            &self.0
        }

        fn level(&self) -> (usize, Volts) {
            (0, self.1)
        }
    }

    /// gzip's activity at 90 nm, the nominal power model, a priced
    /// observer over the standard DVS ladder, and its run table.
    fn gzip_table() -> (ActivityTrace, Priced<Ladder>, RunTable<ActivityTerms>) {
        let node = TechNode::get(NodeId::N90);
        let cfg = PipelineConfig::quick();
        let profile = spec::profile("gzip").unwrap();
        let activity = ramp_microarch::simulate(
            &MachineConfig::power4_180nm(),
            ramp_trace::TraceGenerator::new(&profile),
            SimulationLength::Instructions(20_000),
            interval_cycles(&node),
        )
        .activity;
        let models = DvsLevel::standard_ladder(&node)
            .into_iter()
            .map(|level| power_model(&profile, &node, &cfg, level).unwrap())
            .collect();
        let observer = Priced {
            policy: Ladder(models, node.vdd),
            rates: RateAccumulator::new(&MechanismSet::default(), node),
            thermal_trace: None,
            stride: 1,
        };
        let table = RunTable::build(&observer, &activity).unwrap();
        (activity, observer, table)
    }

    #[test]
    fn run_table_samples_are_each_levels_model_samples() {
        let (activity, observer, table) = gzip_table();
        let models = observer.models();
        assert_eq!(table.intervals().len(), activity.intervals().len());
        for (records, interval) in table.intervals().zip(activity.intervals()) {
            let terms = ActivityTerms::new(observer.rates.prepared(), &interval.factors);
            let temps = PerStructure::from_fn(|s| {
                Kelvin::new(340.0 + 2.5 * s.index() as f64 + interval.retired as f64 * 1e-3)
                    .unwrap()
            });
            for (level, model) in models.iter().enumerate() {
                let (sample, record) = table.sample(records, level, &temps).unwrap();
                let expected = model.sample(&interval.factors, &temps);
                assert_eq!(sample, expected, "level {level}");
                assert_eq!(
                    record.dynamic.total().value().to_bits(),
                    expected.dynamic_total().value().to_bits()
                );
                assert_eq!(record.terms, terms);
            }
            assert!(table.sample(records, models.len(), &temps).is_none());
        }
    }

    #[test]
    fn warm_table_reads_and_steps_allocate_nothing() {
        let (_activity, mut observer, table) = gzip_table();
        let node = TechNode::get(NodeId::N90);
        let sim = ThermalSimulator::new(node.core_area(), PipelineConfig::quick().thermal).unwrap();
        let dt = Seconds::new(1e-6).unwrap();
        let mut state = ThermalState::uniform(Kelvin::new_const(345.0));
        let mut index = 0;
        let mut repeat = |state: &mut ThermalState, observer: &mut Priced<Ladder>| {
            for records in table.intervals() {
                let level = index as usize % table.leakage.len();
                let (sample, record) = table.sample(records, level, &state.structures).unwrap();
                *state = sim.advance(state, &sample.per_structure_total(), dt, 3);
                observer.observe(index, node.vdd, &record.terms, &state.structures).unwrap();
                index += 1;
            }
        };
        repeat(&mut state, &mut observer);

        ramp_obs::set_alloc_tracking(true);
        let before = ramp_obs::thread_alloc_snapshot();
        repeat(&mut state, &mut observer);
        let after = ramp_obs::thread_alloc_snapshot();
        ramp_obs::set_alloc_tracking(false);

        let allocs = after.allocs.saturating_sub(before.allocs);
        assert_eq!(allocs, 0, "a warm repeat allocated {allocs} times");
        assert!(index > 2 * table.leakage.len() as u64);
    }

    #[test]
    fn zero_instruction_config_rejected() {
        let mut cfg = PipelineConfig::quick();
        cfg.instructions = 0;
        let models = MechanismSet::default();
        let err = run_app_on_node(
            &spec::profile("gcc").unwrap(),
            &TechNode::reference(),
            &cfg,
            &models,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RampError::InvalidConfiguration(_)));
    }
}
