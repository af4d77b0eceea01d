//! The trace-driven out-of-order timing model.
//!
//! # Modelling approach
//!
//! Like Turandot, the engine consumes a dynamic instruction trace and
//! computes when each instruction would fetch, dispatch, issue, complete,
//! and retire on the Table-2 machine. Rather than simulating every cycle,
//! it advances per-instruction *timestamps* under the machine's resource
//! constraints (a standard interval/timestamp formulation that is
//! equivalent for latency/occupancy modelling and considerably faster):
//!
//! * **Fetch** — `fetch_width` per cycle, broken by taken branches,
//!   stalled by L1I misses and by branch-mispredict redirects; backpressure
//!   from a finite fetch buffer.
//! * **Dispatch** — one `dispatch_width` group per cycle; blocked until a
//!   ROB slot, a rename register of the right class, and (for memory ops) a
//!   memory-queue slot are free, all released at the retirement of the
//!   holder.
//! * **Issue** — when sources are ready and a functional unit of the right
//!   class is free; divides occupy their unit non-pipelined.
//! * **Loads** — probe the L1D/L2/memory hierarchy; off-chip misses also
//!   occupy one of a finite set of miss registers, bounding memory-level
//!   parallelism.
//! * **Retire** — in order, one `retire_width` group per cycle.
//!
//! Each micro-event (fetch, dispatch, issue, per-unit execute) is recorded
//! in an [`ActivityCollector`](crate::ActivityCollector) bucket, producing
//! the per-interval activity factors the power model consumes. Wrong-path
//! work after a mispredict is charged to the front-end structures (IFU,
//! IDU) at the machine's fetch rate for the duration of the redirect
//! shadow, which is what makes low-IPC, mispredict-heavy codes (e.g. gcc)
//! hot in the fetch engine even though little of their work retires.
//!
//! The interval length only sets where events are cut into buckets, so
//! an engine may hold several collectors, one per interval length, and
//! feed each one every event: one run yields the trace of every requested
//! interval exactly as a run at that interval alone would
//! ([`simulate_grouped`]).

use crate::activity::{default_capacities, ActivityCollector, ActivityTrace, InstructionActivity};
use crate::cache::{Cache, DataHierarchy, HitLevel};
use crate::bpred::GsharePredictor;
use crate::{MachineConfig, SimStats, Structure};
use ramp_trace::{OpClass, TraceRecord};

/// How long to run a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimulationLength {
    /// Run until this many instructions retire (or the trace ends).
    Instructions(u64),
    /// Run until the simulated cycle count reaches this bound.
    Cycles(u64),
}

/// Result of a timing simulation: summary statistics plus the per-interval
/// activity trace.
#[derive(Debug, Clone)]
pub struct SimulationOutput {
    /// Aggregate statistics.
    pub stats: SimStats,
    /// Per-interval activity factors.
    pub activity: ActivityTrace,
}

/// A fixed ring of timestamps read and written at one wrap-around
/// cursor. Each write replaces the value written `len` writes earlier,
/// so the slot under the cursor always holds the oldest value (0 until
/// the ring first wraps).
///
/// Window resources (ROB, rename registers, memory queue) write each
/// holder's release time, so the oldest value is when the next
/// allocation may proceed; the fetch buffer writes dispatch times.
#[derive(Debug, Clone)]
struct TimestampRing {
    slots: Vec<u64>,
    cursor: usize,
}

impl TimestampRing {
    /// A ring of `len` slots; the machine configuration keeps `len > 0`.
    fn new(len: u32) -> Self {
        TimestampRing {
            slots: vec![0; len as usize],
            cursor: 0,
        }
    }

    fn head(&mut self) -> &mut u64 {
        // ramp-lint:allow(panic-reach) -- `cursor < slots.len()`: the ring is never empty and `replace_oldest` wraps the cursor at the length
        &mut self.slots[self.cursor]
    }

    /// The value written `len` writes ago, or 0 before the ring wraps.
    fn oldest(&mut self) -> u64 {
        *self.head()
    }

    /// Overwrites the oldest value and moves the cursor past it.
    fn replace_oldest(&mut self, value: u64) {
        *self.head() = value;
        self.cursor += 1;
        if self.cursor == self.slots.len() {
            self.cursor = 0;
        }
    }
}

/// A pool of `k` identical units modelled as per-cycle issue capacity.
///
/// True out-of-order issue means a unit is occupied only while an operation
/// actually executes on it, never while an instruction *waits* for
/// operands. The pool therefore tracks, per future cycle, how many of the
/// `k` units are in use, in a sliding ring window; claiming searches for
/// the earliest cycle ≥ `ready` with a free unit for `occupancy`
/// consecutive cycles (non-pipelined ops like divides occupy > 1).
#[derive(Debug, Clone)]
struct UnitPool {
    units: u8,
    counts: Vec<u8>,
    /// Cycles below `floor` are in the past; `counts[c % len]`
    /// holds cycle `c`'s usage for `c ∈ [floor, floor + len)`.
    floor: u64,
}

/// Ring window size; larger than any realisable issue-time spread within
/// the ROB window (max chain ≈ memory latency + divide latency + queueing).
const POOL_WINDOW: usize = 8192;

impl UnitPool {
    fn new(count: u32) -> Self {
        UnitPool {
            units: count.min(255) as u8,
            counts: vec![0; POOL_WINDOW],
            floor: 0,
        }
    }

    fn slot(&self, cycle: u64) -> usize {
        (cycle % POOL_WINDOW as u64) as usize
    }

    /// Advances the window floor to `new_floor`, clearing expired entries.
    /// Safe whenever no future claim can target a cycle below `new_floor`.
    fn advance_floor(&mut self, new_floor: u64) {
        if new_floor <= self.floor {
            return;
        }
        // The expired cycles fill `expired` ring slots from `start`,
        // wrapping past the end of the ring at most once.
        let expired = (new_floor - self.floor).min(POOL_WINDOW as u64) as usize;
        let start = self.slot(self.floor);
        let before_wrap = expired.min(POOL_WINDOW - start);
        for range in [start..start + before_wrap, 0..expired - before_wrap] {
            // ramp-lint:allow(panic-reach) -- both ranges lie in the ring: `start + before_wrap <= POOL_WINDOW`, and the wrapped part ends by `start` as `expired <= POOL_WINDOW`
            self.counts[range].fill(0);
        }
        self.floor = new_floor;
    }

    /// Claims a unit for `occupancy` consecutive cycles starting at the
    /// earliest cycle ≥ `ready` where one is free; returns that cycle.
    fn claim(&mut self, ready: u64, occupancy: u64) -> u64 {
        let mut t = ready.max(self.floor);
        loop {
            // Beyond the window we stop tracking and grant optimistically;
            // unreachable in practice (window ≫ ROB-bounded spread).
            if t + occupancy >= self.floor + POOL_WINDOW as u64 {
                return t;
            }
            let conflict = (t..t + occupancy)
                .find(|&c| self.counts[self.slot(c)] >= self.units); // ramp-lint:allow(panic-reach) -- register and ring indices are bounded by the machine configuration
            match conflict {
                Some(c) => t = c + 1,
                None => {
                    for c in t..t + occupancy {
                        let idx = self.slot(c);
                        self.counts[idx] += 1; // ramp-lint:allow(panic-reach) -- register and ring indices are bounded by the machine configuration
                    }
                    return t;
                }
            }
        }
    }
}

/// In-order retirement: at most `width` per cycle, monotone non-decreasing.
#[derive(Debug, Clone)]
struct RetireStage {
    width: u32,
    cycle: u64,
    used_this_cycle: u32,
}

impl RetireStage {
    fn new(width: u32) -> Self {
        RetireStage {
            width,
            cycle: 0,
            used_this_cycle: 0,
        }
    }

    /// Retires an instruction whose execution completes at `complete`;
    /// returns its retirement cycle.
    fn retire(&mut self, complete: u64) -> u64 {
        let earliest = complete + 1;
        if earliest > self.cycle {
            self.cycle = earliest;
            self.used_this_cycle = 0;
        } else if self.used_this_cycle >= self.width {
            self.cycle += 1;
            self.used_this_cycle = 0;
        }
        self.used_this_cycle += 1;
        self.cycle
    }
}

/// The simulation engine. Prefer the [`simulate`] convenience function; use
/// the engine directly to feed instructions incrementally.
#[derive(Debug)]
pub struct Engine {
    config: MachineConfig,
    icache: Cache,
    dcache: DataHierarchy,
    bpred: GsharePredictor,
    collector: ActivityCollector,
    /// One collector per extra interval length, fed the same events.
    extra_collectors: Vec<ActivityCollector>,

    reg_ready: [u64; ramp_trace::TOTAL_REGS as usize],
    /// Release times of the window resources' holders.
    rob: TimestampRing,
    int_rename: TimestampRing,
    fp_rename: TimestampRing,
    mem_queue: TimestampRing,

    int_units: UnitPool,
    fp_units: UnitPool,
    ls_units: UnitPool,
    br_units: UnitPool,
    cr_units: UnitPool,
    miss_regs: UnitPool,

    retire: RetireStage,
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    last_fetch_line: u64,
    last_fetch_pc: Option<u64>,
    /// Dispatch times of the last `fetch_buffer` instructions.
    dispatch_ring: TimestampRing,
    dispatch_cycle: u64,
    dispatched_this_cycle: u32,

    stats: SimStats,
    last_retire_cycle: u64,
}

impl Engine {
    /// Creates an engine for `config`, bucketing activity every
    /// `interval_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`] or
    /// `interval_cycles` is zero.
    #[must_use]
    pub fn new(config: &MachineConfig, interval_cycles: u64) -> Self {
        Self::with_extra_intervals(config, interval_cycles, &[])
    }

    /// Creates an engine for `config` that buckets the same activity
    /// every `interval_cycles` and, in addition, every one of
    /// `extra_intervals`; see [`Engine::finish_grouped`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`] or
    /// any interval is zero.
    #[must_use]
    pub(crate) fn with_extra_intervals(
        config: &MachineConfig,
        interval_cycles: u64,
        extra_intervals: &[u64],
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid machine configuration: {e}"); // ramp-lint:allow(panic-hygiene) -- documented constructor contract for invalid configs
        }
        Engine {
            icache: Cache::new(&config.l1i),
            dcache: DataHierarchy::new(config),
            // Bimodal: synthetic traces visit branch sites in statistically
            // independent order, so global history is pure index noise.
            bpred: GsharePredictor::bimodal(14),
            collector: ActivityCollector::new(interval_cycles, default_capacities(config)),
            extra_collectors: extra_intervals
                .iter()
                .map(|&ic| ActivityCollector::new(ic, default_capacities(config)))
                .collect(),
            reg_ready: [0; ramp_trace::TOTAL_REGS as usize],
            rob: TimestampRing::new(config.rob_entries),
            int_rename: TimestampRing::new(config.int_rename_regs()),
            fp_rename: TimestampRing::new(config.fp_rename_regs()),
            mem_queue: TimestampRing::new(config.mem_queue),
            int_units: UnitPool::new(config.int_units),
            fp_units: UnitPool::new(config.fp_units),
            ls_units: UnitPool::new(config.ls_units),
            br_units: UnitPool::new(config.branch_units),
            cr_units: UnitPool::new(config.cr_units),
            miss_regs: UnitPool::new(config.miss_registers),
            retire: RetireStage::new(config.retire_width),
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            last_fetch_line: u64::MAX,
            last_fetch_pc: None,
            dispatch_ring: TimestampRing::new(config.fetch_buffer),
            dispatch_cycle: 0,
            dispatched_this_cycle: 0,
            stats: SimStats::default(),
            last_retire_cycle: 0,
            config: config.clone(),
        }
    }

    /// Current simulated cycle (the cycle of the latest retirement).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.last_retire_cycle
    }

    /// Executes one trace record through the model.
    pub fn step(&mut self, rec: &TraceRecord) {
        // ---------------- Fetch ------------------------------------------
        // Backpressure: fetch may run at most `fetch_buffer` instructions
        // ahead of dispatch (the ring reads 0, no limit, until it fills).
        let limit = self.dispatch_ring.oldest();
        if limit > self.fetch_cycle {
            self.fetch_cycle = limit;
            self.fetched_this_cycle = 0;
        }
        // I-cache probe on line crossings. A sequential crossing is covered
        // by the next-line prefetcher (a miss costs one bubble); a redirect
        // (taken branch or mispredict repair) pays the full L2 fill.
        let line = rec.pc() >> self.config.l1i.line_bytes.trailing_zeros();
        if line != self.last_fetch_line {
            let sequential = self
                .last_fetch_pc
                .map(|p| rec.pc() == p + 4)
                .unwrap_or(false);
            self.last_fetch_line = line;
            if !self.icache.access(rec.pc()) {
                self.stats.l1i_misses += 1;
                let penalty = if sequential {
                    1
                } else {
                    u64::from(self.config.l2.hit_latency)
                };
                self.fetch_cycle += penalty;
                self.stats.icache_stall_cycles += penalty;
                self.fetched_this_cycle = 0;
            }
        }
        self.last_fetch_pc = Some(rec.pc());
        if self.fetched_this_cycle >= self.config.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        let fetch_time = self.fetch_cycle;
        self.fetched_this_cycle += 1;

        // ---------------- Dispatch ---------------------------------------
        let frontend_ready = fetch_time + u64::from(self.config.frontend_depth);
        let mut earliest_dispatch = frontend_ready;
        let rob_ready = self.rob.oldest();
        if rob_ready > earliest_dispatch {
            earliest_dispatch = rob_ready;
            self.stats.rob_stalls += 1;
        }
        let writes_int = rec
            .dest()
            .map(|d| d < ramp_trace::FP_REG_BASE)
            .unwrap_or(false);
        let writes_fp = rec
            .dest()
            .map(|d| {
                (ramp_trace::FP_REG_BASE..ramp_trace::CR_REG_BASE).contains(&d)
            })
            .unwrap_or(false);
        if writes_int || writes_fp {
            let rename_ready = if writes_int {
                self.int_rename.oldest()
            } else {
                self.fp_rename.oldest()
            };
            if rename_ready > earliest_dispatch {
                earliest_dispatch = rename_ready;
                self.stats.rename_stalls += 1;
            }
        }
        if rec.op().is_memory() {
            let memq_ready = self.mem_queue.oldest();
            if memq_ready > earliest_dispatch {
                earliest_dispatch = memq_ready;
                self.stats.memq_stalls += 1;
            }
        }
        if earliest_dispatch > self.dispatch_cycle {
            self.dispatch_cycle = earliest_dispatch;
            self.dispatched_this_cycle = 0;
        } else if self.dispatched_this_cycle >= self.config.dispatch_width {
            self.dispatch_cycle += 1;
            self.dispatched_this_cycle = 0;
        }
        let dispatch_time = self.dispatch_cycle;
        self.dispatched_this_cycle += 1;

        // ---------------- Issue / execute --------------------------------
        // Dispatch is monotone and every later issue happens after its own
        // dispatch, so cycles before `dispatch_time` can be expired from
        // the unit-pool windows.
        self.int_units.advance_floor(dispatch_time);
        self.fp_units.advance_floor(dispatch_time);
        self.ls_units.advance_floor(dispatch_time);
        self.br_units.advance_floor(dispatch_time);
        self.cr_units.advance_floor(dispatch_time);
        self.miss_regs.advance_floor(dispatch_time);

        let mut ready = dispatch_time + 1;
        for src in rec.sources().into_iter().flatten() {
            ready = ready.max(self.reg_ready[src as usize]); // ramp-lint:allow(panic-reach) -- register indices are below the architected register count
        }

        // Front-end work on the wrong path after a mispredict.
        let mut wrong_path = 0;
        let (issue, complete, unit) = match rec.op() {
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                let latency = match rec.op() {
                    OpClass::IntAlu => self.config.int_alu_latency,
                    OpClass::IntMul => self.config.int_mul_latency,
                    _ => self.config.int_div_latency,
                };
                // Divides are not pipelined.
                let occupancy = if rec.op() == OpClass::IntDiv {
                    u64::from(latency)
                } else {
                    1
                };
                let issue = self.int_units.claim(ready, occupancy);
                (issue, issue + u64::from(latency), Structure::Fxu)
            }
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => {
                let latency = if rec.op() == OpClass::FpDiv {
                    self.config.fp_div_latency
                } else {
                    self.config.fp_latency
                };
                let occupancy = if rec.op() == OpClass::FpDiv {
                    u64::from(latency)
                } else {
                    1
                };
                let issue = self.fp_units.claim(ready, occupancy);
                (issue, issue + u64::from(latency), Structure::Fpu)
            }
            OpClass::Load => {
                let issue = self.ls_units.claim(ready, 1);
                let addr = rec.mem().expect("load carries an address").addr; // ramp-lint:allow(panic-hygiene) -- decoder guarantees loads carry addresses
                let level = self.dcache.access(addr);
                let mut latency = u64::from(self.dcache.latency(level));
                match level {
                    HitLevel::L1 => {}
                    HitLevel::L2 => self.stats.l1d_misses += 1,
                    HitLevel::Memory => {
                        self.stats.l1d_misses += 1;
                        self.stats.l2_misses += 1;
                        // A finite number of outstanding off-chip misses
                        // bounds memory-level parallelism.
                        let occupancy =
                            u64::from(self.config.memory_latency - self.config.l2.hit_latency);
                        let start = self.miss_regs.claim(issue, occupancy);
                        latency += start - issue;
                    }
                }
                self.stats.loads += 1;
                (issue, issue + latency, Structure::Lsu)
            }
            OpClass::Store => {
                let issue = self.ls_units.claim(ready, 1);
                let addr = rec.mem().expect("store carries an address").addr; // ramp-lint:allow(panic-hygiene) -- decoder guarantees stores carry addresses
                let level = self.dcache.access(addr);
                match level {
                    HitLevel::L1 => {}
                    HitLevel::L2 => self.stats.l1d_misses += 1,
                    HitLevel::Memory => {
                        self.stats.l1d_misses += 1;
                        self.stats.l2_misses += 1;
                    }
                }
                self.stats.stores += 1;
                // Stores complete into the store queue; the write drains in
                // the background and does not stall retirement.
                (issue, issue + 1, Structure::Lsu)
            }
            OpClass::Branch => {
                let issue = self.br_units.claim(ready, 1);
                let complete = issue + u64::from(self.config.branch_latency);
                let info = rec.branch().expect("branch carries an outcome"); // ramp-lint:allow(panic-hygiene) -- decoder guarantees branches carry outcomes
                let correct = self.bpred.update(rec.pc(), info.taken);
                self.stats.branches += 1;
                if !correct {
                    self.stats.mispredicts += 1;
                    let redirect =
                        complete + u64::from(self.config.mispredict_penalty);
                    // Wrong-path shadow: the front end kept running from the
                    // fetch of this branch until the redirect.
                    let shadow = redirect.saturating_sub(fetch_time);
                    let wrong =
                        (shadow * u64::from(self.config.fetch_width)).min(256);
                    self.stats.wrong_path_fetches += wrong;
                    wrong_path = wrong;
                    if redirect > self.fetch_cycle {
                        self.stats.redirect_stall_cycles += redirect - self.fetch_cycle;
                        self.fetch_cycle = redirect;
                        self.fetched_this_cycle = 0;
                        self.last_fetch_line = u64::MAX;
                    }
                } else if info.taken {
                    // Correctly predicted taken branch still ends the
                    // current fetch group.
                    self.fetch_cycle += 1;
                    self.fetched_this_cycle = 0;
                    self.last_fetch_line = u64::MAX;
                }
                (issue, complete, Structure::Bxu)
            }
            OpClass::CondReg => {
                let issue = self.cr_units.claim(ready, 1);
                (issue, issue + u64::from(self.config.branch_latency), Structure::Bxu)
            }
        };

        if let Some(dst) = rec.dest() {
            self.reg_ready[dst as usize] = complete; // ramp-lint:allow(panic-reach) -- register indices are below the architected register count
        }

        // ---------------- Retire -----------------------------------------
        let retire_time = self.retire.retire(complete);
        self.rob.replace_oldest(retire_time);
        if writes_int {
            self.int_rename.replace_oldest(retire_time);
        }
        if writes_fp {
            self.fp_rename.replace_oldest(retire_time);
        }
        if rec.op().is_memory() {
            self.mem_queue.replace_oldest(retire_time);
        }
        self.dispatch_ring.replace_oldest(dispatch_time);

        let activity = InstructionActivity {
            fetch: fetch_time,
            fetched: 1 + wrong_path,
            dispatch: dispatch_time,
            dispatched: 1 + wrong_path / 2,
            issue,
            unit,
            retire: retire_time,
        };
        self.collector.record_instruction(&activity);
        for collector in &mut self.extra_collectors {
            collector.record_instruction(&activity);
        }
        self.stats.instructions += 1;
        self.last_retire_cycle = retire_time;
    }

    /// Finalises the run, returning statistics and the activity trace at
    /// the engine's own interval length.
    #[must_use]
    pub fn finish(self) -> SimulationOutput {
        self.finish_grouped().0
    }

    /// Finalises the run once per interval length: the output at the
    /// engine's own interval, then one per extra interval in the order
    /// they were given. Every output carries the same statistics.
    #[must_use]
    pub(crate) fn finish_grouped(mut self) -> (SimulationOutput, Vec<SimulationOutput>) {
        self.stats.cycles = self.last_retire_cycle;
        let (stats, end_cycle) = (self.stats, self.last_retire_cycle);
        let output = |collector: ActivityCollector| SimulationOutput {
            stats,
            activity: collector.finish(end_cycle),
        };
        let extras = self.extra_collectors.into_iter().map(output).collect();
        (output(self.collector), extras)
    }
}

/// Runs a trace through the Table-2 machine until `length` is reached (or
/// the trace ends), collecting activity at `interval_cycles` granularity.
///
/// # Examples
///
/// ```
/// use ramp_microarch::{simulate, MachineConfig, SimulationLength};
/// use ramp_trace::{spec, TraceGenerator};
/// let cfg = MachineConfig::power4_180nm();
/// let p = spec::profile("ammp").unwrap();
/// let out = simulate(&cfg, TraceGenerator::new(&p),
///                    SimulationLength::Instructions(10_000), 1_100);
/// assert_eq!(out.stats.instructions, 10_000);
/// ```
pub fn simulate<I>(
    config: &MachineConfig,
    trace: I,
    length: SimulationLength,
    interval_cycles: u64,
) -> SimulationOutput
where
    I: IntoIterator<Item = TraceRecord>,
{
    simulate_grouped(config, trace, length, interval_cycles, &[]).0
}

/// [`simulate`] at several interval lengths in one engine run: returns
/// the output at `interval_cycles`, then one output per entry of
/// `extra_intervals` (duplicates included), each equal to what
/// `simulate` at that interval alone returns.
///
/// # Examples
///
/// ```
/// use ramp_microarch::{simulate, simulate_grouped, MachineConfig, SimulationLength};
/// use ramp_trace::{spec, TraceGenerator};
/// let cfg = MachineConfig::power4_180nm();
/// let p = spec::profile("gzip").unwrap();
/// let length = SimulationLength::Instructions(10_000);
/// let (at_1100, extra) =
///     simulate_grouped(&cfg, TraceGenerator::new(&p), length, 1_100, &[2_000]);
/// let alone = simulate(&cfg, TraceGenerator::new(&p), length, 2_000);
/// assert_eq!(extra[0].activity, alone.activity);
/// assert_eq!(at_1100.stats, alone.stats);
/// ```
pub fn simulate_grouped<I>(
    config: &MachineConfig,
    trace: I,
    length: SimulationLength,
    interval_cycles: u64,
    extra_intervals: &[u64],
) -> (SimulationOutput, Vec<SimulationOutput>)
where
    I: IntoIterator<Item = TraceRecord>,
{
    let mut engine = Engine::with_extra_intervals(config, interval_cycles, extra_intervals);
    for rec in trace {
        engine.step(&rec);
        match length {
            SimulationLength::Instructions(n) if engine.stats.instructions >= n => break,
            SimulationLength::Cycles(c) if engine.cycle() >= c => break,
            _ => {}
        }
    }
    engine.finish_grouped()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_trace::{spec, TraceGenerator};

    fn run(name: &str, n: u64) -> SimulationOutput {
        let cfg = MachineConfig::power4_180nm();
        let p = spec::profile(name).unwrap();
        simulate(
            &cfg,
            TraceGenerator::new(&p),
            SimulationLength::Instructions(n),
            1_100,
        )
    }

    #[test]
    fn ipc_is_plausible_and_bounded() {
        for name in ["gzip", "ammp", "crafty"] {
            let out = run(name, 50_000);
            let ipc = out.stats.ipc();
            assert!(ipc > 0.2, "{name}: ipc {ipc} too low");
            assert!(ipc <= 5.0, "{name}: ipc {ipc} exceeds retire width");
        }
    }

    #[test]
    fn deterministic() {
        let a = run("twolf", 20_000);
        let b = run("twolf", 20_000);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.activity, b.activity);
    }

    #[test]
    fn high_ilp_app_beats_low_ilp_app() {
        let fast = run("crafty", 100_000).stats.ipc();
        let slow = run("ammp", 100_000).stats.ipc();
        assert!(
            fast > slow + 0.3,
            "crafty {fast} should be well above ammp {slow}"
        );
    }

    #[test]
    fn cache_hungry_app_misses_more() {
        let hungry = run("ammp", 100_000).stats;
        let friendly = run("crafty", 100_000).stats;
        assert!(hungry.l2_mpki() > friendly.l2_mpki());
    }

    #[test]
    fn mispredict_rate_tracks_profile() {
        // mgrid executes few branches (2 % of its mix), so the predictor
        // needs a long stream to exit warm-up; 1 M instructions suffices.
        let noisy = run("gcc", 1_000_000).stats; // random_fraction 0.14
        let clean = run("mgrid", 1_000_000).stats; // random_fraction 0.01
        assert!(noisy.mispredict_rate() > clean.mispredict_rate());
        assert!(noisy.mispredict_rate() > 0.03);
        assert!(clean.mispredict_rate() < 0.06);
    }

    #[test]
    fn activity_factors_populated_and_bounded() {
        let out = run("wupwise", 50_000);
        let avg = out.activity.average();
        for (s, p) in avg.iter() {
            assert!(
                (0.0..=1.0).contains(&p.value()),
                "{s}: activity {p} out of range"
            );
        }
        // An FP benchmark must exercise the FPU.
        assert!(avg[Structure::Fpu].value() > 0.05);
        assert!(avg[Structure::Ifu].value() > 0.05);
    }

    #[test]
    fn fp_app_loads_fpu_more_than_int_app() {
        let fp = run("applu", 50_000).activity.average()[Structure::Fpu].value();
        let int = run("bzip2", 50_000).activity.average()[Structure::Fpu].value();
        assert!(fp > int * 3.0, "fp {fp} vs int {int}");
    }

    #[test]
    fn stall_attribution_is_populated_and_consistent() {
        // gcc: big code footprint and noisy branches → both front-end
        // stall classes must be visible; the fraction stays below 1.
        let out = run("gcc", 200_000);
        assert!(out.stats.icache_stall_cycles > 0);
        assert!(out.stats.redirect_stall_cycles > 0);
        let f = out.stats.frontend_stall_fraction();
        assert!((0.0..1.0).contains(&f), "stall fraction {f}");
        // A serial memory-hungry app exercises the back-end windows.
        let ammp = run("ammp", 200_000);
        assert!(
            ammp.stats.rob_stalls + ammp.stats.rename_stalls + ammp.stats.memq_stalls > 0,
            "window stalls should appear for a long-latency workload"
        );
    }

    #[test]
    fn cycle_length_bound_respected() {
        let cfg = MachineConfig::power4_180nm();
        let p = spec::profile("gap").unwrap();
        let out = simulate(
            &cfg,
            TraceGenerator::new(&p),
            SimulationLength::Cycles(5_000),
            1_100,
        );
        assert!(out.stats.cycles >= 5_000);
        assert!(out.stats.cycles < 5_000 + 1_000, "should stop promptly");
    }

    #[test]
    fn serial_dependency_chain_bounds_ipc() {
        // A synthetic fully-serial trace cannot exceed IPC 1.
        use ramp_trace::{OpClass, TraceRecord};
        let cfg = MachineConfig::power4_180nm();
        let mut engine = Engine::new(&cfg, 1_000);
        for i in 0..10_000u64 {
            let rec = TraceRecord::new(0x1000 + i * 4, OpClass::IntAlu)
                .with_sources([Some(1), None])
                .with_dest(Some(1));
            engine.step(&rec);
        }
        let out = engine.finish();
        let ipc = out.stats.ipc();
        assert!(ipc <= 1.05, "serial chain ipc {ipc}");
    }

    #[test]
    fn wide_independent_stream_approaches_machine_limits() {
        // Independent single-source ALU ops: bounded by 2 int units → IPC≈2,
        // but dispatch width 5 and FXU count 2 mean IPC must sit near 2.
        use ramp_trace::{OpClass, TraceRecord};
        let cfg = MachineConfig::power4_180nm();
        let mut engine = Engine::new(&cfg, 1_000);
        for i in 0..20_000u64 {
            let dst = (i % 24) as u8;
            let rec = TraceRecord::new(0x1000 + (i % 512) * 4, OpClass::IntAlu)
                .with_sources([None, None])
                .with_dest(Some(dst));
            engine.step(&rec);
        }
        let ipc = engine.finish().stats.ipc();
        assert!(
            (1.6..=2.2).contains(&ipc),
            "independent ALU stream should saturate the 2 integer units, ipc {ipc}"
        );
    }
}
