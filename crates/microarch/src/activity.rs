//! Per-structure activity-factor collection.
//!
//! The timing simulator records discrete work events (instructions fetched,
//! issued, executed per unit) tagged with the cycle they occur in. The
//! collector buckets them into fixed-length cycle intervals and normalises
//! each bucket by the structure's per-cycle event capacity, yielding the
//! activity factor `p ∈ [0, 1]` that both the power model and the
//! electromigration model consume.

use crate::{PerStructure, Structure};
use ramp_units::ActivityFactor;
use serde::{Deserialize, Serialize};

/// Per-cycle event capacity of each structure on the Table-2 machine.
///
/// IFU can fetch 8 instructions; IDU dispatches a 5-wide group; ISU issues
/// up to the total FU issue width (8); FXU/FPU/LSU have two pipes each; BXU
/// one branch plus one CR op.
#[must_use]
pub fn default_capacities(config: &crate::MachineConfig) -> PerStructure<u64> {
    let issue_width = u64::from(
        config.int_units + config.fp_units + config.ls_units + config.branch_units
            + config.cr_units,
    );
    PerStructure::from_fn(|s| match s {
        Structure::Ifu => u64::from(config.fetch_width),
        Structure::Idu => u64::from(config.dispatch_width),
        Structure::Isu => issue_width,
        Structure::Fxu => u64::from(config.int_units),
        Structure::Fpu => u64::from(config.fp_units),
        Structure::Lsu => u64::from(config.ls_units),
        Structure::Bxu => u64::from(config.branch_units + config.cr_units),
    })
}

/// One interval's activity factors plus utilisation metadata.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityRecord {
    /// Activity factor per structure.
    pub factors: PerStructure<ActivityFactor>,
    /// Instructions retired in the interval.
    pub retired: u64,
}

impl ActivityRecord {
    /// IPC over the interval, given its length in cycles.
    #[must_use]
    pub fn ipc(&self, interval_cycles: u64) -> f64 {
        self.retired as f64 / interval_cycles as f64
    }
}

/// The full activity trace of one simulation: a sequence of equal-length
/// intervals.
///
/// # Examples
///
/// ```
/// use ramp_microarch::{simulate, MachineConfig, SimulationLength, Structure};
/// use ramp_trace::{spec, TraceGenerator};
/// let cfg = MachineConfig::power4_180nm();
/// let profile = spec::profile("gzip").unwrap();
/// let out = simulate(&cfg, TraceGenerator::new(&profile),
///                    SimulationLength::Instructions(20_000), 1_000);
/// let trace = &out.activity;
/// assert!(trace.intervals().len() > 1);
/// let avg = trace.average();
/// assert!(avg[Structure::Ifu].value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityTrace {
    interval_cycles: u64,
    intervals: Vec<ActivityRecord>,
}

impl ActivityTrace {
    /// Interval length in cycles.
    #[must_use]
    pub fn interval_cycles(&self) -> u64 {
        self.interval_cycles
    }

    /// The recorded intervals in time order.
    #[must_use]
    pub fn intervals(&self) -> &[ActivityRecord] {
        &self.intervals
    }

    /// Time-average activity factor per structure over the whole trace.
    #[must_use]
    pub fn average(&self) -> PerStructure<ActivityFactor> {
        if self.intervals.is_empty() {
            return PerStructure::from_fn(|_| ActivityFactor::IDLE);
        }
        PerStructure::from_fn(|s| {
            let sum: f64 = self
                .intervals
                .iter()
                // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                .map(|r| r.factors[s].value())
                .sum();
            ActivityFactor::new(sum / self.intervals.len() as f64)
                .expect("mean of unit-interval values is in the unit interval") // ramp-lint:allow(panic-hygiene) -- mean of unit-interval samples stays in the unit interval
        })
    }

    /// Pointwise-maximum activity factor per structure over the trace —
    /// one ingredient of the paper's worst-case operating point.
    #[must_use]
    pub fn peak(&self) -> PerStructure<ActivityFactor> {
        PerStructure::from_fn(|s| {
            self.intervals
                .iter()
                // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                .map(|r| r.factors[s])
                .fold(ActivityFactor::IDLE, ActivityFactor::max)
        })
    }
}

/// The work one instruction leaves on the machine's structures, as the
/// engine hands it to every collector in one call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstructionActivity {
    /// Cycle of the fetch.
    pub fetch: u64,
    /// IFU events at `fetch`: the instruction plus any wrong-path
    /// fetches behind a mispredict.
    pub fetched: u64,
    /// Cycle of the dispatch.
    pub dispatch: u64,
    /// IDU events at `dispatch`.
    pub dispatched: u64,
    /// Cycle of the issue: one event on `unit` and one on the ISU.
    pub issue: u64,
    /// The functional-unit structure that executes the instruction.
    pub unit: Structure,
    /// Cycle of the retirement.
    pub retire: u64,
}

/// Accumulates raw events and produces an [`ActivityTrace`].
///
/// Consecutive events almost always fall in the same interval, so the
/// collector keeps the bucket it last wrote and divides a cycle by the
/// interval length only when an event lands outside that bucket.
#[derive(Debug, Clone)]
pub struct ActivityCollector {
    interval_cycles: u64,
    capacities: PerStructure<u64>,
    /// events[bucket][structure]
    events: Vec<PerStructure<u64>>,
    retired: Vec<u64>,
    /// Index of the bucket written last.
    current: usize,
    /// Cycles `[current_start, current_end)` of bucket `current`; empty
    /// until the first event.
    current_start: u64,
    current_end: u64,
}

impl ActivityCollector {
    /// Creates a collector bucketing by `interval_cycles`, normalising by
    /// `capacities` events/cycle.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero or any capacity is zero.
    #[must_use]
    pub fn new(interval_cycles: u64, capacities: PerStructure<u64>) -> Self {
        assert!(interval_cycles > 0, "interval must be positive");
        assert!(
            capacities.as_array().iter().all(|&c| c > 0),
            "capacities must be positive"
        );
        ActivityCollector {
            interval_cycles,
            capacities,
            events: Vec::new(),
            retired: Vec::new(),
            current: 0,
            current_start: 0,
            current_end: 0,
        }
    }

    /// Index of the bucket holding `cycle`.
    #[inline]
    fn bucket_mut(&mut self, cycle: u64) -> usize {
        if (self.current_start..self.current_end).contains(&cycle) {
            self.current
        } else {
            self.enter_bucket(cycle)
        }
    }

    /// Divides `cycle` into its bucket, grows the buckets to reach it and
    /// makes it the current bucket.
    fn enter_bucket(&mut self, cycle: u64) -> usize {
        let index = cycle / self.interval_cycles;
        let bucket = index as usize;
        if bucket >= self.events.len() {
            self.events.resize(bucket + 1, PerStructure::default());
            self.retired.resize(bucket + 1, 0);
        }
        self.current = bucket;
        self.current_start = index * self.interval_cycles;
        self.current_end = self.current_start.saturating_add(self.interval_cycles);
        bucket
    }

    /// Records `count` work events on `structure` at `cycle`.
    #[inline]
    pub fn record(&mut self, structure: Structure, cycle: u64, count: u64) {
        let b = self.bucket_mut(cycle);
        // ramp-lint:allow(panic-reach) -- the bucket index is clamped to the bucket count
        self.events[b][structure] += count;
    }

    /// Records an instruction retirement at `cycle`.
    #[inline]
    pub fn record_retire(&mut self, cycle: u64, count: u64) {
        let b = self.bucket_mut(cycle);
        // ramp-lint:allow(panic-reach) -- the bucket index is clamped to the bucket count
        self.retired[b] += count;
    }

    /// Records one instruction's events. The buckets are visited in the
    /// order the instruction met them (fetch, dispatch, issue, retire),
    /// so they grow exactly as under the equivalent `record` calls.
    #[inline]
    pub(crate) fn record_instruction(&mut self, a: &InstructionActivity) {
        self.record(Structure::Ifu, a.fetch, a.fetched);
        self.record(Structure::Idu, a.dispatch, a.dispatched);
        self.record(a.unit, a.issue, 1);
        self.record(Structure::Isu, a.issue, 1);
        self.record_retire(a.retire, 1);
    }

    /// Finalises into an [`ActivityTrace`], truncating the (partial) last
    /// bucket if `end_cycle` does not fall on an interval boundary.
    #[must_use]
    pub fn finish(self, end_cycle: u64) -> ActivityTrace {
        let full_buckets = (end_cycle / self.interval_cycles) as usize;
        let n = full_buckets.min(self.events.len()).max(
            // Keep at least one bucket for very short runs so downstream
            // consumers always see a non-empty trace.
            usize::from(!self.events.is_empty()),
        );
        let denom = self.interval_cycles;
        let intervals = self
            .events
            .iter()
            .take(n)
            .zip(self.retired.iter())
            .map(|(ev, &ret)| ActivityRecord {
                factors: PerStructure::from_fn(|s| {
                    // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                    ActivityFactor::from_events(ev[s], self.capacities[s] * denom)
                }),
                retired: ret,
            })
            .collect();
        ActivityTrace {
            interval_cycles: denom,
            intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn caps() -> PerStructure<u64> {
        default_capacities(&MachineConfig::power4_180nm())
    }

    #[test]
    fn capacities_match_machine_widths() {
        let c = caps();
        assert_eq!(c[Structure::Ifu], 8);
        assert_eq!(c[Structure::Idu], 5);
        assert_eq!(c[Structure::Isu], 8);
        assert_eq!(c[Structure::Fxu], 2);
        assert_eq!(c[Structure::Lsu], 2);
        assert_eq!(c[Structure::Bxu], 2);
    }

    #[test]
    fn buckets_and_normalises() {
        let mut col = ActivityCollector::new(100, caps());
        // 100 int ops in the first interval: 100 / (2*100) = 0.5.
        for cyc in 0..100 {
            col.record(Structure::Fxu, cyc, 1);
        }
        col.record(Structure::Fxu, 150, 60); // second interval: 60/200 = 0.3
        let trace = col.finish(200);
        assert_eq!(trace.intervals().len(), 2);
        assert!((trace.intervals()[0].factors[Structure::Fxu].value() - 0.5).abs() < 1e-12);
        assert!((trace.intervals()[1].factors[Structure::Fxu].value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn clamps_overflow_to_one() {
        let mut col = ActivityCollector::new(10, caps());
        col.record(Structure::Bxu, 5, 1000);
        let trace = col.finish(10);
        assert_eq!(trace.intervals()[0].factors[Structure::Bxu].value(), 1.0);
    }

    #[test]
    fn average_and_peak() {
        let mut col = ActivityCollector::new(10, caps());
        col.record(Structure::Lsu, 0, 20); // interval 0: 20/20 = 1.0
        col.record(Structure::Lsu, 10, 10); // interval 1: 0.5
        let trace = col.finish(20);
        assert!((trace.average()[Structure::Lsu].value() - 0.75).abs() < 1e-12);
        assert_eq!(trace.peak()[Structure::Lsu].value(), 1.0);
    }

    #[test]
    fn partial_last_bucket_dropped() {
        let mut col = ActivityCollector::new(100, caps());
        col.record(Structure::Ifu, 0, 10);
        col.record(Structure::Ifu, 150, 10);
        let trace = col.finish(150); // second bucket incomplete
        assert_eq!(trace.intervals().len(), 1);
    }

    #[test]
    fn retire_and_ipc() {
        let mut col = ActivityCollector::new(100, caps());
        col.record_retire(50, 150);
        let trace = col.finish(100);
        assert!((trace.intervals()[0].ipc(100) - 1.5).abs() < 1e-12);
    }
}
