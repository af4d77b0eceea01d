//! Property-based tests of the timing simulator's architectural
//! invariants over randomly generated instruction streams.

use proptest::prelude::*;
use ramp_microarch::{
    simulate, simulate_grouped, simulate_profile_cached, Engine, MachineConfig, SimulationLength,
    SimulationOutput, Structure,
};
use ramp_trace::{BranchInfo, MemRef, TraceRecord, ALL_OP_CLASSES};

/// Strategy: a random but architecturally well-formed trace record.
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0usize..ALL_OP_CLASSES.len(),
        0u64..4096,
        proptest::option::of(0u8..72),
        proptest::option::of(0u8..72),
        0u8..72,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(op_idx, pc_slot, src0, src1, dst, addr, taken)| {
            let op = ALL_OP_CLASSES[op_idx];
            let pc = 0x10_0000 + pc_slot * 4;
            let mut rec = TraceRecord::new(pc, op).with_sources([src0, src1]);
            if op.writes_register() {
                rec = rec.with_dest(Some(dst));
            }
            if op.is_memory() {
                rec = rec.with_mem(MemRef {
                    addr: 0x1000_0000 + (addr % (1 << 22)),
                    size: 8,
                });
            }
            if op.is_branch() {
                rec = rec.with_branch(BranchInfo {
                    taken,
                    target: 0x10_0000 + (addr % 4096) * 4,
                });
            }
            rec
        })
}

/// Source registers must have been written earlier for the run to be
/// architecturally sensible; rewrite sources to a previously written
/// register (or drop them).
fn close_dataflow(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    let mut written: Vec<u8> = Vec::new();
    for rec in &mut records {
        let fix = |src: Option<u8>, written: &Vec<u8>| -> Option<u8> {
            src.and_then(|s| {
                if written.is_empty() {
                    None
                } else {
                    Some(written[s as usize % written.len()])
                }
            })
        };
        let srcs = rec.sources();
        *rec = rec.with_sources([fix(srcs[0], &written), fix(srcs[1], &written)]);
        if let Some(d) = rec.dest() {
            written.push(d);
        }
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine never panics, retires everything, and respects the
    /// machine's architectural throughput bound on any well-formed trace.
    #[test]
    fn engine_total_on_arbitrary_traces(
        raw in proptest::collection::vec(arb_record(), 200..2_000)
    ) {
        let records = close_dataflow(raw);
        let cfg = MachineConfig::power4_180nm();
        let mut engine = Engine::new(&cfg, 1_000);
        for rec in &records {
            engine.step(rec);
        }
        let out = engine.finish();
        prop_assert_eq!(out.stats.instructions, records.len() as u64);
        let ipc = out.stats.ipc();
        prop_assert!(ipc > 0.0);
        prop_assert!(
            ipc <= f64::from(cfg.retire_width),
            "ipc {ipc} exceeds retire width"
        );
        // Activity factors are always within the unit interval.
        for record in out.activity.intervals() {
            for s in Structure::ALL {
                let p = record.factors[s].value();
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    /// Cutting a trace short never increases total cycles: simulation
    /// progress is monotone in trace length.
    #[test]
    fn cycles_monotone_in_trace_length(
        raw in proptest::collection::vec(arb_record(), 400..800)
    ) {
        let records = close_dataflow(raw);
        let cfg = MachineConfig::power4_180nm();
        let run = |n: usize| {
            let mut engine = Engine::new(&cfg, 1_000);
            for rec in &records[..n] {
                engine.step(rec);
            }
            engine.finish().stats.cycles
        };
        let half = run(records.len() / 2);
        let full = run(records.len());
        prop_assert!(full >= half);
    }

    /// Doubling every functional unit and width can only help (or leave
    /// unchanged) any workload's cycle count.
    #[test]
    fn wider_machine_is_never_slower(
        raw in proptest::collection::vec(arb_record(), 300..900)
    ) {
        let records = close_dataflow(raw);
        let base = MachineConfig::power4_180nm();
        let mut wide = base.clone();
        wide.int_units *= 2;
        wide.fp_units *= 2;
        wide.ls_units *= 2;
        wide.branch_units *= 2;
        wide.cr_units *= 2;
        wide.dispatch_width *= 2;
        wide.retire_width *= 2;
        wide.rob_entries *= 2;
        wide.int_regs = 32 + (wide.int_regs - 32) * 2;
        wide.fp_regs = 32 + (wide.fp_regs - 32) * 2;
        wide.mem_queue *= 2;
        wide.miss_registers *= 2;
        let run = |cfg: &MachineConfig| {
            let mut engine = Engine::new(cfg, 1_000);
            for rec in &records {
                engine.step(rec);
            }
            engine.finish().stats.cycles
        };
        let slow = run(&base);
        let fast = run(&wide);
        prop_assert!(fast <= slow, "wider machine took {fast} vs {slow}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The timing cache is an invisible optimisation: for any profile,
    /// budget, and interval length it returns exactly the trace a fresh
    /// simulation produces, and repeated lookups share one result.
    #[test]
    fn cached_timing_equals_fresh_simulation(
        bench_idx in 0usize..16,
        instructions in 5_000u64..40_000,
        interval_idx in 0usize..3,
    ) {
        let interval_cycles = [1_100u64, 1_650, 2_000][interval_idx];
        let profiles = ramp_trace::spec::all_profiles();
        let profile = &profiles[bench_idx % profiles.len()];
        let cfg = MachineConfig::power4_180nm();
        let length = SimulationLength::Instructions(instructions);

        let cached = simulate_profile_cached(&cfg, profile, length, interval_cycles);
        let fresh = simulate(
            &cfg,
            ramp_trace::TraceGenerator::new(profile),
            length,
            interval_cycles,
        );
        prop_assert_eq!(&cached.stats, &fresh.stats, "{}", profile.name);
        prop_assert_eq!(&cached.activity, &fresh.activity, "{}", profile.name);

        // A repeat lookup is a hit on the very same shared output.
        let again = simulate_profile_cached(&cfg, profile, length, interval_cycles);
        prop_assert!(std::sync::Arc::ptr_eq(&cached, &again));
    }
}

/// Asserts `grouped` is bit-for-bit the direct run `direct`: equal
/// statistics, the same interval length and count, equal retirements and
/// every activity factor equal by `f64::to_bits`.
fn assert_bit_identical(grouped: &SimulationOutput, direct: &SimulationOutput, what: &str) {
    assert_eq!(grouped.stats, direct.stats, "{what}: stats");
    let (g, d) = (&grouped.activity, &direct.activity);
    assert_eq!(g.interval_cycles(), d.interval_cycles(), "{what}: interval");
    assert_eq!(g.intervals().len(), d.intervals().len(), "{what}: bucket count");
    for (i, (gr, dr)) in g.intervals().iter().zip(d.intervals()).enumerate() {
        assert_eq!(gr.retired, dr.retired, "{what}: bucket {i} retired");
        for s in Structure::ALL {
            assert_eq!(
                gr.factors[s].value().to_bits(),
                dr.factors[s].value().to_bits(),
                "{what}: bucket {i} {s}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One engine run bucketed at several intervals is exactly one direct
    /// run per interval, for both kinds of run length. The intervals
    /// include duplicates and, for these short runs, often exceed the
    /// whole run, where the collector keeps its one partial bucket.
    #[test]
    fn grouped_intervals_equal_direct_runs(
        bench_idx in 0usize..64,
        by_cycles in any::<bool>(),
        budget in 100u64..6_000,
        drawn in proptest::collection::vec(1u64..=4_000, 1..5),
        duplicate in any::<bool>(),
    ) {
        let profiles = ramp_trace::spec::all_profiles();
        let profile = &profiles[bench_idx % profiles.len()];
        let cfg = MachineConfig::power4_180nm();
        let length = if by_cycles {
            SimulationLength::Cycles(budget)
        } else {
            SimulationLength::Instructions(budget)
        };
        let mut intervals = drawn;
        if duplicate {
            intervals.push(intervals[intervals.len() - 1]);
        }
        let (first, rest) = simulate_grouped(
            &cfg,
            ramp_trace::TraceGenerator::new(profile),
            length,
            intervals[0],
            &intervals[1..],
        );
        prop_assert_eq!(rest.len(), intervals.len() - 1);
        for (out, &ic) in std::iter::once(&first).chain(&rest).zip(&intervals) {
            let direct = simulate(&cfg, ramp_trace::TraceGenerator::new(profile), length, ic);
            assert_bit_identical(
                out,
                &direct,
                &format!("{} {length:?} ic={ic} of {intervals:?}", profile.name),
            );
        }
    }
}

#[test]
fn simulate_respects_instruction_budget_exactly() {
    let cfg = MachineConfig::power4_180nm();
    let p = ramp_trace::spec::profile("gzip").unwrap();
    for n in [1u64, 7, 1_000, 12_345] {
        let out = simulate(
            &cfg,
            ramp_trace::TraceGenerator::new(&p),
            SimulationLength::Instructions(n),
            1_000,
        );
        assert_eq!(out.stats.instructions, n);
    }
}
