//! Zero-allocation regression test for the thermal hot path.
//!
//! `ThermalSimulator::advance` is the innermost loop of the whole study
//! — the pipeline's second pass runs it once per activity interval per
//! (benchmark, node) pair and records the thermal metrics once per run —
//! and `step_many` is the same loop with its per-call metric writes.
//! Their contract is that after construction-time warmup they touch
//! only stack state, pre-sized buffers, and atomic metric handles:
//! **zero** heap allocations per step. This test pins that contract
//! with the tracking allocator, so any future `clone()`, `format!`, or
//! `Vec` growth sneaking into the loop fails CI instead of silently
//! taxing every simulated microsecond.
//!
//! The test reads only the *calling thread's* allocation counters, so
//! concurrent test threads cannot contaminate the measurement. The
//! tracking switch itself is process-wide, so the tests hold one lock
//! around their windows: otherwise the first to finish would turn
//! tracking off under the other and it would under-count.

use ramp_microarch::PerStructure;
use ramp_thermal::{ThermalParams, ThermalSimulator};
use ramp_units::{Seconds, SquareMillimeters, Watts};

/// Serializes the tracked windows (see the module docs).
fn tracking_lock() -> std::sync::MutexGuard<'static, ()> {
    static TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TOGGLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn step_many_performs_zero_heap_allocations_after_warmup() {
    let sim = ThermalSimulator::new(
        SquareMillimeters::new(81.0).expect("valid area"),
        ThermalParams::reference(),
    )
    .expect("reference simulator builds");
    let powers: PerStructure<Watts> =
        PerStructure::from_fn(|_| Watts::new(4.0).expect("valid power"));
    let dt = Seconds::new(3.3e-6).expect("valid dt");
    let mut state = sim.initial_state(&powers).expect("steady state solves");

    // Warmup: pay one-time costs (histogram bucket registration, lazy
    // metric handles, any allocator pool growth) outside the window.
    for _ in 0..8 {
        state = sim.step_many(&state, &powers, dt, 4);
    }

    let _tracking = tracking_lock();
    ramp_obs::set_alloc_tracking(true);
    let before = ramp_obs::thread_alloc_snapshot();
    for _ in 0..128 {
        state = sim.step_many(&state, &powers, dt, 4);
    }
    let after = ramp_obs::thread_alloc_snapshot();
    ramp_obs::set_alloc_tracking(false);

    let allocs = after.allocs.saturating_sub(before.allocs);
    let bytes = after.bytes.saturating_sub(before.bytes);
    assert_eq!(
        allocs, 0,
        "step_many allocated {allocs} times ({bytes} bytes) in 128 warm intervals; \
         the thermal hot path must stay allocation-free"
    );

    // The state kept evolving — the loop above really did the work.
    assert!(state.sink.value() > 0.0);
}

#[test]
fn advance_and_recording_perform_zero_heap_allocations_after_warmup() {
    let sim = ThermalSimulator::new(
        SquareMillimeters::new(81.0).expect("valid area"),
        ThermalParams::reference(),
    )
    .expect("reference simulator builds");
    let powers: PerStructure<Watts> =
        PerStructure::from_fn(|_| Watts::new(4.0).expect("valid power"));
    let dt = Seconds::new(3.3e-6).expect("valid dt");
    let mut state = sim.initial_state(&powers).expect("steady state solves");
    for _ in 0..8 {
        state = sim.advance(&state, &powers, dt, 4);
    }
    sim.record_intervals(8, 4);

    let _tracking = tracking_lock();
    ramp_obs::set_alloc_tracking(true);
    let before = ramp_obs::thread_alloc_snapshot();
    for _ in 0..128 {
        state = sim.advance(&state, &powers, dt, 4);
    }
    sim.record_intervals(128, 4);
    let after = ramp_obs::thread_alloc_snapshot();
    ramp_obs::set_alloc_tracking(false);

    let allocs = after.allocs.saturating_sub(before.allocs);
    let bytes = after.bytes.saturating_sub(before.bytes);
    assert_eq!(
        allocs, 0,
        "advance allocated {allocs} times ({bytes} bytes) in 128 warm intervals; \
         the thermal hot path must stay allocation-free"
    );
    assert!(state.sink.value() > 0.0);
}
