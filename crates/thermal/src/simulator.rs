//! The paper's two-pass thermal simulation methodology.
//!
//! The heat sink's RC time constant is far larger than any simulation we
//! can afford, so (following §4.3 of the paper) every workload is run
//! twice:
//!
//! 1. a first pass collects each structure's **average power**, from which
//!    a steady-state solve yields the sink (and initial silicon)
//!    temperatures;
//! 2. the second pass integrates the silicon transient at microsecond
//!    granularity with the sink pinned at its steady-state temperature.
//!
//! [`ThermalSimulator`] packages this workflow. It also implements the
//! paper's cross-technology rule: when scaling the die, the sink's
//! convection resistance is rescaled so each application's sink
//! temperature stays constant across nodes.

use crate::network::{RcNetwork, ThermalParams, ThermalState};
use crate::Floorplan;
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{Kelvin, KelvinPerWatt, Seconds, SquareMillimeters, Watts};
use std::sync::Arc;

/// Bucket bounds for the per-interval substep-count histogram: substeps
/// are `ceil(interval / max_stable_step)`, typically single digits for
/// the default intervals but growing with finer floorplans.
const SUBSTEP_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Two-pass thermal simulator for one die size.
///
/// # Examples
///
/// ```
/// use ramp_thermal::{ThermalParams, ThermalSimulator};
/// use ramp_microarch::PerStructure;
/// use ramp_units::{Seconds, SquareMillimeters, Watts};
///
/// let sim = ThermalSimulator::new(
///     SquareMillimeters::new(81.0)?, ThermalParams::reference()).unwrap();
/// let avg = PerStructure::from_fn(|_| Watts::new(4.0).unwrap());
/// let mut state = sim.initial_state(&avg).unwrap();
/// // Second pass: step with (time-varying) powers.
/// state = sim.step(&state, &avg, Seconds::MICROSECOND);
/// assert!(state.sink.value() > 318.0);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThermalSimulator {
    network: RcNetwork,
    steady_solves: Arc<ramp_obs::Counter>,
    transient_steps: Arc<ramp_obs::Counter>,
    substeps_hist: Arc<ramp_obs::Histogram>,
}

impl ThermalSimulator {
    /// Builds a simulator for a POWER4-like floorplan of the given die
    /// area.
    ///
    /// # Errors
    ///
    /// Returns an error description if `params` is invalid.
    pub fn new(die_area: SquareMillimeters, params: ThermalParams) -> Result<Self, String> {
        let fp = Floorplan::power4(die_area);
        let network = RcNetwork::build(&fp, params)?;
        Ok(Self::from_network(network))
    }

    fn from_network(network: RcNetwork) -> Self {
        // Metric handles are resolved once per simulator so the per-step
        // hot path touches only atomics, never the registry lock.
        ThermalSimulator {
            network,
            steady_solves: ramp_obs::counter("thermal.steady_solves"),
            transient_steps: ramp_obs::counter("thermal.transient_steps"),
            substeps_hist: ramp_obs::histogram("thermal.substeps_per_interval", &SUBSTEP_BOUNDS),
        }
    }

    /// Builds a simulator whose sink resistance has been rescaled so that
    /// the sink temperature under `avg_power_here` equals the temperature
    /// the reference node reaches under `avg_power_reference` with the
    /// reference resistance — the paper's constant-sink-temperature rule.
    ///
    /// # Errors
    ///
    /// Returns an error description if `params` is invalid or either power
    /// is zero.
    pub fn with_constant_sink_temperature(
        die_area: SquareMillimeters,
        params: ThermalParams,
        avg_power_reference: Watts,
        avg_power_here: Watts,
    ) -> Result<Self, String> {
        if avg_power_reference.value() <= 0.0 || avg_power_here.value() <= 0.0 {
            return Err("average powers must be positive for sink rescaling".to_string());
        }
        let sim = Self::new(die_area, params)?;
        // ΔT_sink = P · R must match: R' = R · P_ref / P_here.
        let r = KelvinPerWatt::new(
            params.sink_resistance * avg_power_reference.value() / avg_power_here.value(),
        )
        .map_err(|e| format!("rescaled sink resistance invalid: {e}"))?;
        Ok(Self::from_network(sim.network.with_sink_resistance(r)))
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &RcNetwork {
        &self.network
    }

    /// First pass: steady state for the run's average powers. The result
    /// initialises the second pass.
    ///
    /// # Errors
    ///
    /// Returns an error string if the steady-state solve fails (degenerate
    /// network).
    pub fn initial_state(
        &self,
        average_powers: &PerStructure<Watts>,
    ) -> Result<ThermalState, String> {
        self.steady_solves.incr();
        self.network
            .steady_state(average_powers)
            .map_err(|e| e.to_string())
    }

    /// Second pass: one transient step of `dt` under `powers`, sink held
    /// at its initialised temperature.
    #[must_use]
    pub fn step(
        &self,
        state: &ThermalState,
        powers: &PerStructure<Watts>,
        dt: Seconds,
    ) -> ThermalState {
        self.transient_steps.incr();
        self.network.step(state, powers, dt)
    }

    /// Integrates one activity interval as `substeps` equal transient
    /// steps of `dt` each, recording the substep count in the
    /// `thermal.substeps_per_interval` histogram. Equivalent to calling
    /// [`ThermalSimulator::step`] `substeps` times.
    #[must_use]
    pub fn step_many(
        &self,
        state: &ThermalState,
        powers: &PerStructure<Watts>,
        dt: Seconds,
        substeps: u32,
    ) -> ThermalState {
        self.record_intervals(1, substeps);
        self.advance(state, powers, dt, substeps)
    }

    /// [`ThermalSimulator::step_many`] without its metric writes: the
    /// same `substeps` transient steps, bit for bit, recording nothing. A
    /// caller that steps many intervals records them all at once with
    /// [`ThermalSimulator::record_intervals`].
    #[must_use]
    pub fn advance(
        &self,
        state: &ThermalState,
        powers: &PerStructure<Watts>,
        dt: Seconds,
        substeps: u32,
    ) -> ThermalState {
        let mut current = *state;
        for _ in 0..substeps {
            current = self.network.step(&current, powers, dt);
        }
        current
    }

    /// Records `intervals` intervals of `substeps` steps each: the
    /// metrics `intervals` calls of [`ThermalSimulator::step_many`] would
    /// record, with the same totals (the values are integers, so one
    /// `substeps × intervals` addition is exact).
    pub fn record_intervals(&self, intervals: u64, substeps: u32) {
        self.substeps_hist.observe_n(f64::from(substeps), intervals);
        self.transient_steps.add(intervals * u64::from(substeps));
    }

    /// Convenience: the sink temperature the first pass would produce.
    ///
    /// # Errors
    ///
    /// Returns an error string if the steady-state solve fails.
    pub fn steady_sink_temperature(
        &self,
        average_powers: &PerStructure<Watts>,
    ) -> Result<Kelvin, String> {
        Ok(self.initial_state(average_powers)?.sink)
    }

    /// Convenience: the hottest structure in steady state.
    ///
    /// # Errors
    ///
    /// Returns an error string if the steady-state solve fails.
    pub fn steady_hottest(
        &self,
        average_powers: &PerStructure<Watts>,
    ) -> Result<(Structure, Kelvin), String> {
        Ok(self.initial_state(average_powers)?.hottest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watts(v: f64) -> Watts {
        Watts::new(v).unwrap()
    }

    fn uniform(w: f64) -> PerStructure<Watts> {
        PerStructure::from_fn(|_| watts(w))
    }

    #[test]
    fn two_pass_initialisation_is_self_consistent() {
        let sim = ThermalSimulator::new(
            SquareMillimeters::new(81.0).unwrap(),
            ThermalParams::reference(),
        )
        .unwrap();
        let avg = uniform(4.0);
        let init = sim.initial_state(&avg).unwrap();
        // Stepping from the steady state with the same powers stays put.
        let stepped = sim.step(&init, &avg, Seconds::MICROSECOND);
        for s in Structure::ALL {
            assert!(
                (stepped.structures[s] - init.structures[s]).abs() < 1e-6,
                "{s} drifted"
            );
        }
    }

    #[test]
    fn constant_sink_rule_holds_sink_temperature() {
        let params = ThermalParams::reference();
        let reference = ThermalSimulator::new(
            SquareMillimeters::new(81.0).unwrap(),
            params,
        )
        .unwrap();
        let p180 = uniform(29.1 / 7.0);
        let sink_180 = reference.steady_sink_temperature(&p180).unwrap();

        // 65 nm: 0.16× area, lower total power.
        let p65 = uniform(16.9 / 7.0);
        let scaled = ThermalSimulator::with_constant_sink_temperature(
            SquareMillimeters::new(81.0 * 0.16).unwrap(),
            params,
            watts(29.1),
            watts(16.9),
        )
        .unwrap();
        let sink_65 = scaled.steady_sink_temperature(&p65).unwrap();
        assert!(
            (sink_180 - sink_65).abs() < 0.01,
            "sink must stay constant: {sink_180} vs {sink_65}"
        );
        // ... while the junctions run hotter on the smaller die.
        let hot_180 = reference.steady_hottest(&p180).unwrap().1;
        let hot_65 = scaled.steady_hottest(&p65).unwrap().1;
        assert!(hot_65.value() > hot_180.value() + 3.0);
    }

    #[test]
    fn transient_tracks_power_phase_change() {
        let sim = ThermalSimulator::new(
            SquareMillimeters::new(81.0).unwrap(),
            ThermalParams::reference(),
        )
        .unwrap();
        let low = uniform(2.0);
        let high = uniform(6.0);
        let mut state = sim.initial_state(&low).unwrap();
        let t0 = state.hottest().1;
        // Burst of high power for 20 ms.
        for _ in 0..20_000 {
            state = sim.step(&state, &high, Seconds::MICROSECOND);
        }
        let t1 = state.hottest().1;
        assert!(t1.value() > t0.value() + 1.0, "heating visible: {t0} → {t1}");
        // And cooling back down.
        for _ in 0..20_000 {
            state = sim.step(&state, &low, Seconds::MICROSECOND);
        }
        let t2 = state.hottest().1;
        assert!(t2.value() < t1.value());
    }

    #[test]
    fn step_many_matches_repeated_single_steps() {
        let sim = ThermalSimulator::new(
            SquareMillimeters::new(81.0).unwrap(),
            ThermalParams::reference(),
        )
        .unwrap();
        let avg = uniform(3.0);
        let hot = uniform(6.5);
        let init = sim.initial_state(&avg).unwrap();
        let mut manual = init;
        for _ in 0..7 {
            manual = sim.step(&manual, &hot, Seconds::MICROSECOND);
        }
        let batched = sim.step_many(&init, &hot, Seconds::MICROSECOND, 7);
        for s in Structure::ALL {
            assert_eq!(
                manual.structures[s].value().to_bits(),
                batched.structures[s].value().to_bits(),
                "{s} must be bit-identical"
            );
        }
    }

    #[test]
    fn rejects_zero_reference_power() {
        let r = ThermalSimulator::with_constant_sink_temperature(
            SquareMillimeters::new(81.0).unwrap(),
            ThermalParams::reference(),
            Watts::ZERO,
            watts(10.0),
        );
        assert!(r.is_err());
    }
}
