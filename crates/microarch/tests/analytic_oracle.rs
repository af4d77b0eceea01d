//! Analytic oracle for the timing engine.
//!
//! Hand-made traces whose throughput follows from the machine
//! configuration alone, so the engine is checked against arithmetic
//! rather than against an earlier version of itself. Every trace keeps
//! its PCs inside one 256-byte loop (two L1I lines, always hits after the
//! first pass) and takes no branches or memory operations, so the only
//! limit left is the one the trace is built to expose. The tolerance
//! covers the pipeline fill at the start of the run, nothing more.

use ramp_microarch::{simulate, MachineConfig, SimulationLength};
use ramp_trace::{OpClass, TraceRecord, FP_REGS, FP_REG_BASE, INT_REGS};

const N: u64 = 200_000;
const TOLERANCE: f64 = 1e-3;
const LOOP_BASE: u64 = 0x0010_0000;

/// PC of the `i`-th instruction: a 64-instruction (256-byte) loop.
fn pc(i: u64) -> u64 {
    LOOP_BASE + (i % 64) * 4
}

fn ipc_of(trace: Vec<TraceRecord>) -> f64 {
    let cfg = MachineConfig::power4_180nm();
    let out = simulate(&cfg, trace, SimulationLength::Instructions(N), 1_000);
    assert_eq!(out.stats.instructions, N);
    out.stats.ipc()
}

#[test]
fn independent_int_ops_issue_at_the_int_unit_count() {
    let cfg = MachineConfig::power4_180nm();
    let trace = (0..N)
        .map(|i| {
            let dst = (i % u64::from(INT_REGS)) as u8;
            TraceRecord::new(pc(i), OpClass::IntAlu).with_dest(Some(dst))
        })
        .collect();
    let ipc = ipc_of(trace);
    let expect = f64::from(cfg.int_units);
    assert!(
        (ipc - expect).abs() < TOLERANCE,
        "independent IntAlu IPC {ipc}, expected int_units = {expect}"
    );
}

#[test]
fn a_dependent_fp_chain_runs_at_one_over_the_fp_latency() {
    let cfg = MachineConfig::power4_180nm();
    let fp_reg = |i: u64| FP_REG_BASE + (i % u64::from(FP_REGS)) as u8;
    let trace = (0..N)
        .map(|i| {
            let src = i.checked_sub(1).map(fp_reg);
            TraceRecord::new(pc(i), OpClass::FpAdd)
                .with_sources([src, None])
                .with_dest(Some(fp_reg(i)))
        })
        .collect();
    let ipc = ipc_of(trace);
    let expect = 1.0 / f64::from(cfg.fp_latency);
    assert!(
        (ipc - expect).abs() < TOLERANCE,
        "dependent FpAdd chain IPC {ipc}, expected 1/fp_latency = {expect}"
    );
}
