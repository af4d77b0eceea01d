//! Synthetic trace generation from a [`BenchmarkProfile`].
//!
//! The generator is an [`Iterator`] over [`TraceRecord`]s. It maintains a
//! small amount of program state (recent register writers, per-region
//! memory cursors, a static branch-site pool) so that the emitted stream
//! has realistic register dependences, spatial/temporal memory locality,
//! and learnable vs. unlearnable branches — the properties the timing
//! simulator's IPC actually responds to.

use crate::profile::BenchmarkProfile;
use crate::record::{
    ArchReg, BranchInfo, MemRef, CR_REGS, CR_REG_BASE, FP_REGS, FP_REG_BASE, INT_REGS,
};
use crate::{OpClass, Rng, TraceRecord};
use std::sync::Arc;

/// Base virtual address of the synthetic code segment.
const CODE_BASE: u64 = 0x0010_0000;
/// Base virtual address of the synthetic data segment.
const DATA_BASE: u64 = 0x1000_0000;
/// Gap between data regions so they never alias in the caches.
const REGION_GAP: u64 = 0x1000_0000;
/// Instruction size in bytes (fixed-width PowerPC-like ISA).
const INSN_BYTES: u64 = 4;

/// Slots in the recent-writer ring: larger than the ROB so any realisable
/// dependency distance exists, and a power of two so ring positions wrap
/// with a mask.
const WRITER_WINDOW: usize = 256;
const _: () = assert!(WRITER_WINDOW.is_power_of_two());

/// Ring buffer of recent destination registers, used to realise a sampled
/// dependency distance as a concrete register name.
#[derive(Debug, Clone)]
struct RecentWriters {
    ring: Vec<Option<ArchReg>>,
    head: usize,
}

impl RecentWriters {
    fn new() -> Self {
        RecentWriters {
            ring: vec![None; WRITER_WINDOW],
            head: 0,
        }
    }

    fn push(&mut self, reg: Option<ArchReg>) {
        self.ring[self.head] = reg;
        self.head = (self.head + 1) & (WRITER_WINDOW - 1);
    }

    /// Register written `distance` instructions ago (1 = previous), walking
    /// forward until a writer is found.
    fn writer_at(&self, distance: u64) -> Option<ArchReg> {
        let cap = WRITER_WINDOW as u64;
        let mut d = distance.clamp(1, cap);
        while d <= cap {
            let idx = (self.head as u64 + cap - d) & (cap - 1);
            if let Some(reg) = self.ring[idx as usize] {
                return Some(reg);
            }
            d += 1;
        }
        None
    }
}

/// How many generated records accumulate locally before being folded into
/// the shared per-profile instruction counter. Keeps the per-record cost
/// of instrumentation to one branch + one local increment.
const TALLY_BATCH: u64 = 4096;

/// Batched handle on the `trace.instructions.<profile>` counter.
///
/// Clones start with an empty pending batch (the original flushes its
/// own), and drops flush the remainder, so the counter converges to the
/// exact number of records emitted whatever mix of clones and partial
/// iterations produced them.
#[derive(Debug)]
struct InsnTally {
    counter: Arc<ramp_obs::Counter>,
    pending: u64,
}

impl InsnTally {
    fn new(profile_name: &str) -> Self {
        InsnTally {
            // ramp-lint:allow(span-hygiene) -- one name per benchmark profile; the profile set is the fixed paper suite
            counter: ramp_obs::counter(&format!("trace.instructions.{profile_name}")),
            pending: 0,
        }
    }

    #[inline]
    fn record(&mut self) {
        self.pending += 1;
        if self.pending >= TALLY_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending > 0 {
            self.counter.add(self.pending);
            self.pending = 0;
        }
    }
}

impl Clone for InsnTally {
    fn clone(&self) -> Self {
        InsnTally {
            counter: Arc::clone(&self.counter),
            // The original still owns (and will flush) its pending batch.
            pending: 0,
        }
    }
}

impl Drop for InsnTally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A static branch site in the synthetic program.
#[derive(Debug, Clone, Copy)]
struct BranchSite {
    pc: u64,
    target: u64,
    /// Taken probability for this site (0.5 for unlearnable sites).
    taken_prob: f64,
}

/// Synthetic trace generator; see the module docs.
///
/// # Examples
///
/// ```
/// use ramp_trace::{spec, TraceGenerator};
/// let profile = spec::profile("gzip").unwrap();
/// let trace: Vec<_> = TraceGenerator::new(&profile).take(1000).collect();
/// assert_eq!(trace.len(), 1000);
/// // Deterministic: regenerating yields the identical stream.
/// let again: Vec<_> = TraceGenerator::new(&profile).take(1000).collect();
/// assert_eq!(trace, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    rng: Rng,
    cumulative_mix: [f64; 10],
    writers: RecentWriters,
    /// Round-robin cursors for allocating destination registers.
    next_int_dst: u8,
    next_fp_dst: u8,
    next_cr_dst: u8,
    /// Current fetch PC within the code segment.
    pc: u64,
    branch_sites: Vec<BranchSite>,
    /// Number of leading (hot-region) sites that receive most executions.
    hot_sites: u64,
    /// Sequential cursors per data region (hot, warm, cold).
    seq_cursor: [u64; 3],
    emitted: u64,
    /// Records left before the next phase switch (0: switch now).
    until_phase_switch: u64,
    /// Per-phase effective (dep distance, hot fraction, warm fraction).
    phase_params: Vec<(f64, f64, f64)>,
    current_phase: usize,
    /// Batched `trace.instructions.<profile>` counter.
    tally: InsnTally,
}

impl TraceGenerator {
    /// Creates a generator for the given profile, seeded from
    /// `profile.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`]; invalid
    /// profiles are a programming error in the caller, not a runtime
    /// condition.
    #[must_use]
    pub fn new(profile: &BenchmarkProfile) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid benchmark profile {:?}: {e}", profile.name); // ramp-lint:allow(panic-hygiene) -- documented constructor contract for invalid profiles
        }
        let _setup = ramp_obs::span!("trace_setup", "app={}", profile.name);
        let mut rng = Rng::seed_from(profile.seed);
        let code_insns = (profile.code_bytes / INSN_BYTES).max(64);
        // Spread sites evenly so no two static branches share a PC (two
        // opposite-bias sites at one address would alias in any real
        // predictor and thrash it, which no compiled program does).
        let n_sites = u64::from(profile.branches.static_sites);
        let sites = (0..n_sites)
            .map(|i| {
                let slot = (i * code_insns) / n_sites.max(1);
                let pc = CODE_BASE + slot * INSN_BYTES;
                // Compiled control flow is overwhelmingly local (loops and
                // if/else within a function); only a small fraction of
                // transfers are far calls across the code image.
                let target_slot = if rng.chance(0.05) {
                    rng.below(code_insns)
                } else {
                    let span = 512.min(code_insns); // ±1 KiB neighbourhood
                    let delta = rng.below(span) as i64 - (span / 2) as i64;
                    (slot as i64 + delta).rem_euclid(code_insns as i64) as u64
                };
                let target = CODE_BASE + target_slot * INSN_BYTES;
                let taken_prob = if rng.chance(profile.branches.random_fraction) {
                    0.5
                } else if rng.chance(0.5) {
                    profile.branches.taken_bias
                } else {
                    1.0 - profile.branches.taken_bias
                };
                BranchSite {
                    pc,
                    target,
                    taken_prob,
                }
            })
            .collect();
        TraceGenerator {
            cumulative_mix: profile.mix.cumulative(),
            profile: profile.clone(),
            rng,
            writers: RecentWriters::new(),
            next_int_dst: 0,
            next_fp_dst: 0,
            next_cr_dst: 0,
            pc: CODE_BASE,
            hot_sites: {
                // Dynamic execution concentrates in a hot code region of at
                // most 16 KiB (the 90/10 rule); sites are evenly spaced, so
                // the leading fraction of the site list covers it.
                let hot_code = (16u64 << 10).min(profile.code_bytes);
                let n = u64::from(profile.branches.static_sites);
                ((n * hot_code) / profile.code_bytes).clamp(8.min(n), n)
            },
            branch_sites: sites,
            seq_cursor: [0, 0, 0],
            emitted: 0,
            until_phase_switch: profile.phases.dwell_instructions,
            phase_params: profile
                .phases
                .phases
                .iter()
                .map(|spec| {
                    let m = &profile.memory;
                    // Rescale the cold fraction, shrinking hot+warm
                    // proportionally to keep the fractions normalised.
                    let cold = (m.cold_fraction() * spec.cold_multiplier)
                        .max(spec.cold_floor)
                        .min(0.25);
                    let hw = m.hot_fraction + m.warm_fraction;
                    let scale = if hw > 0.0 { (1.0 - cold) / hw } else { 0.0 };
                    (
                        (profile.mean_dep_distance * spec.dep_multiplier).max(1.0),
                        m.hot_fraction * scale,
                        m.warm_fraction * scale,
                    )
                })
                .collect(),
            current_phase: 0,
            tally: InsnTally::new(&profile.name),
        }
    }

    /// Number of records emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The profile this generator was built from.
    #[must_use]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    fn pick_class(&mut self) -> OpClass {
        let u = self.rng.next_f64();
        for (i, &c) in self.cumulative_mix.iter().enumerate() {
            if u < c {
                return crate::ALL_OP_CLASSES[i];
            }
        }
        crate::ALL_OP_CLASSES[9]
    }

    fn alloc_dest(&mut self, op: OpClass) -> ArchReg {
        if op.is_float() {
            let r = FP_REG_BASE + self.next_fp_dst;
            self.next_fp_dst = (self.next_fp_dst + 1) % FP_REGS;
            r
        } else if op == OpClass::CondReg {
            let r = CR_REG_BASE + self.next_cr_dst;
            self.next_cr_dst = (self.next_cr_dst + 1) % CR_REGS;
            r
        } else {
            let r = self.next_int_dst;
            self.next_int_dst = (self.next_int_dst + 1) % INT_REGS;
            r
        }
    }

    fn sample_source(&mut self) -> Option<ArchReg> {
        let dep = self.phase_params[self.current_phase].0;
        let d = self.rng.geometric(dep);
        self.writers.writer_at(d)
    }

    /// Generates an effective address according to the memory model,
    /// with region fractions adjusted for the current phase.
    fn gen_address(&mut self) -> u64 {
        let m = &self.profile.memory;
        let (_, hot, warm) = self.phase_params[self.current_phase];
        let u = self.rng.next_f64();
        let (region, bytes) = if u < hot {
            (0usize, m.hot_bytes)
        } else if u < hot + warm {
            (1usize, m.warm_bytes)
        } else {
            (2usize, m.cold_bytes)
        };
        let base = DATA_BASE + region as u64 * REGION_GAP;
        let offset = if self.rng.chance(m.sequential_fraction) {
            // Stride walk with cache-line-friendly steps.
            let cur = self.seq_cursor[region];
            let next = cur + 8;
            self.seq_cursor[region] = if next < bytes { next } else { next % bytes };
            cur
        } else {
            self.rng.below(bytes / 8) * 8
        };
        base + offset
    }

    fn advance_pc(&mut self) {
        self.pc += INSN_BYTES;
        let end = CODE_BASE + self.profile.code_bytes;
        if self.pc >= end {
            self.pc = CODE_BASE;
        }
    }

    fn gen_branch(&mut self) -> TraceRecord {
        // 92 % of dynamic branches come from the hot code region.
        let site_idx = if self.rng.chance(0.92) {
            self.rng.below(self.hot_sites) as usize
        } else {
            self.rng.below(self.branch_sites.len() as u64) as usize
        };
        let site = self.branch_sites[site_idx];
        let taken = self.rng.chance(site.taken_prob);
        let src = self.sample_source();
        let rec = TraceRecord::new(site.pc, OpClass::Branch)
            .with_sources([src, None])
            .with_branch(BranchInfo {
                taken,
                target: site.target,
            });
        // Control flow: continue fetching from target or fall-through.
        self.pc = if taken {
            site.target
        } else {
            site.pc + INSN_BYTES
        };
        rec
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        // Phase switch after every `dwell_instructions` records. A steady
        // program's `u64::MAX` dwell never runs out.
        if self.until_phase_switch == 0 {
            self.current_phase = (self.current_phase + 1) % self.phase_params.len();
            self.until_phase_switch = self.profile.phases.dwell_instructions;
        }
        self.until_phase_switch -= 1;
        let op = self.pick_class();
        let rec = match op {
            OpClass::Branch => self.gen_branch(),
            OpClass::Load => {
                let addr = self.gen_address();
                let src = self.sample_source();
                let dst = self.alloc_dest(op);
                let pc = self.pc;
                self.advance_pc();
                TraceRecord::new(pc, op)
                    .with_sources([src, None])
                    .with_dest(Some(dst))
                    .with_mem(MemRef { addr, size: 8 })
            }
            OpClass::Store => {
                let addr = self.gen_address();
                let data = self.sample_source();
                let base = self.sample_source();
                let pc = self.pc;
                self.advance_pc();
                TraceRecord::new(pc, op)
                    .with_sources([data, base])
                    .with_mem(MemRef { addr, size: 8 })
            }
            _ => {
                let a = self.sample_source();
                let b = if self.rng.chance(0.6) {
                    self.sample_source()
                } else {
                    None
                };
                let dst = self.alloc_dest(op);
                let pc = self.pc;
                self.advance_pc();
                TraceRecord::new(pc, op)
                    .with_sources([a, b])
                    .with_dest(Some(dst))
            }
        };
        self.writers.push(rec.dest());
        self.emitted += 1;
        self.tally.record();
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn take(name: &str, n: usize) -> Vec<TraceRecord> {
        let p = spec::profile(name).unwrap();
        TraceGenerator::new(&p).take(n).collect()
    }

    #[test]
    fn deterministic_stream() {
        let a = take("gcc", 5_000);
        let b = take("gcc", 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = take("gcc", 1_000);
        let b = take("ammp", 1_000);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_converges_to_profile() {
        let p = spec::profile("gzip").unwrap();
        let n = 200_000;
        let trace = take("gzip", n);
        let loads = trace.iter().filter(|r| r.op() == OpClass::Load).count();
        let expect = p.mix.probability_of(OpClass::Load);
        let got = loads as f64 / n as f64;
        assert!(
            (got - expect).abs() < 0.01,
            "load fraction {got} vs profile {expect}"
        );
    }

    #[test]
    fn branch_records_have_outcomes_and_others_do_not() {
        for rec in take("crafty", 10_000) {
            assert_eq!(rec.branch().is_some(), rec.op() == OpClass::Branch);
            assert_eq!(rec.mem().is_some(), rec.op().is_memory());
        }
    }

    #[test]
    fn pcs_stay_inside_code_segment() {
        let p = spec::profile("mesa").unwrap();
        for rec in take("mesa", 50_000) {
            assert!(rec.pc() >= CODE_BASE);
            assert!(rec.pc() < CODE_BASE + p.code_bytes);
        }
    }

    #[test]
    fn addresses_respect_region_bounds() {
        let p = spec::profile("mcf_like_ammp");
        assert!(p.is_err() || p.is_ok()); // name probe, not a real assert
        let p = spec::profile("ammp").unwrap();
        for rec in take("ammp", 50_000) {
            if let Some(m) = rec.mem() {
                assert!(m.addr >= DATA_BASE);
                assert!(m.addr < DATA_BASE + 2 * REGION_GAP + p.memory.cold_bytes);
            }
        }
    }

    #[test]
    fn sources_reference_previous_writers() {
        // Every non-None source register must have been written earlier in
        // the stream (within the ring-buffer window) or belong to the
        // initial live-in set (None here, since the ring starts empty).
        let trace = take("applu", 20_000);
        let mut written = std::collections::HashSet::new();
        for rec in trace {
            for s in rec.sources().into_iter().flatten() {
                assert!(
                    written.contains(&s),
                    "source {s} read before any write at pc {:#x}",
                    rec.pc()
                );
            }
            if let Some(d) = rec.dest() {
                written.insert(d);
            }
        }
    }

    #[test]
    fn emitted_counter_tracks() {
        let p = spec::profile("vpr").unwrap();
        let mut g = TraceGenerator::new(&p);
        for _ in 0..123 {
            g.next();
        }
        assert_eq!(g.emitted(), 123);
    }

    // The tally tests below claim profiles no other test in this crate
    // touches ("wupwise", "facerec"), so the exact-count assertions hold
    // even with the test harness running modules concurrently.

    #[test]
    fn instruction_counter_converges_after_drop() {
        let metric = ramp_obs::counter("trace.instructions.wupwise");
        let before = metric.get();
        let p = spec::profile("wupwise").unwrap();
        {
            let mut g = TraceGenerator::new(&p);
            // More than one TALLY_BATCH plus a remainder, so both the
            // in-loop flush and the drop flush are exercised.
            for _ in 0..(TALLY_BATCH + 100) {
                g.next();
            }
        }
        assert_eq!(metric.get() - before, TALLY_BATCH + 100);
    }

    #[test]
    fn cloned_generator_does_not_double_count() {
        let metric = ramp_obs::counter("trace.instructions.facerec");
        let before = metric.get();
        let p = spec::profile("facerec").unwrap();
        {
            let mut g = TraceGenerator::new(&p);
            for _ in 0..10 {
                g.next();
            }
            // Clone mid-batch: the clone must not re-flush the original's
            // 10 pending records on drop.
            let mut h = g.clone();
            for _ in 0..7 {
                h.next();
            }
        }
        assert_eq!(metric.get() - before, 17);
    }

    #[test]
    fn setup_span_is_recorded() {
        let p = spec::profile("wupwise").unwrap();
        let _ = TraceGenerator::new(&p);
        let stats = ramp_obs::span_stats();
        assert!(
            stats.iter().any(|s| s.path.ends_with("trace_setup")),
            "trace_setup span missing from {:?}",
            stats.iter().map(|s| s.path.clone()).collect::<Vec<_>>()
        );
    }
}
