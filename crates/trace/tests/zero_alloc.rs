//! Zero-allocation regression test for the trace generator.
//!
//! `TraceGenerator::next` feeds the timing engine one record per
//! simulated instruction, so it sits on the hottest loop of a study.
//! Its contract is that once constructed it touches only its own
//! pre-sized state and atomic metric handles: **zero** heap allocations
//! per record. The test reads only the calling thread's allocation
//! counters, so concurrent test threads cannot contaminate it.

use ramp_trace::{spec, TraceGenerator};

#[test]
fn warm_generator_performs_zero_heap_allocations() {
    let profile = spec::profile("gcc").expect("paper profile");
    let mut generator = TraceGenerator::new(&profile);

    // Warmup: pay one-time costs (metric registration on the first tally
    // flush, lazy handles) outside the measured window.
    let mut checksum = 0u64;
    for rec in generator.by_ref().take(10_000) {
        checksum ^= rec.pc();
    }

    ramp_obs::set_alloc_tracking(true);
    let before = ramp_obs::thread_alloc_snapshot();
    for rec in generator.by_ref().take(100_000) {
        checksum ^= rec.pc();
    }
    let after = ramp_obs::thread_alloc_snapshot();
    ramp_obs::set_alloc_tracking(false);

    let allocs = after.allocs.saturating_sub(before.allocs);
    let bytes = after.bytes.saturating_sub(before.bytes);
    assert_eq!(
        allocs, 0,
        "TraceGenerator::next allocated {allocs} times ({bytes} bytes) in 100k warm \
         records; trace generation must stay allocation-free"
    );

    // The loop really generated the records.
    assert_eq!(generator.emitted(), 110_000);
    assert_ne!(checksum, 0);
}
