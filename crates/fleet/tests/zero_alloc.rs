//! Zero-allocation regression test for the fleet's inner loop.
//!
//! `ChipSampler::sample_chip` runs once per simulated chip, millions of
//! times per fleet. Its contract is that after construction it touches
//! only stack state and the sampler's precomputed tables: **zero** heap
//! allocations per chip. This test pins that contract with the tracking
//! allocator, reading only the calling thread's counters so concurrent
//! test threads cannot contaminate the measurement.

use ramp_core::mechanisms::PerMechanism;
use ramp_core::{NodeId, PipelineConfig, Qualification, QueryEngine};
use ramp_fleet::{chip_rng, ChipSampler, VariationModel};

/// Chips sampled inside the measured window.
const CHIPS: u64 = 10_000;

#[test]
fn sample_chip_performs_zero_heap_allocations_after_warmup() {
    let engine = QueryEngine::with_qualification(
        Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).expect("unit constants"),
        PipelineConfig::quick(),
        "zero-alloc",
    );
    let query = engine
        .query("gzip", NodeId::N90)
        .expect("gzip is a known benchmark");
    let anchor = engine
        .population_anchor(&query)
        .expect("anchor run succeeds");
    let sampler = ChipSampler::new(&anchor, VariationModel::default());

    // Warmup: pay any one-time costs outside the window.
    for chip in 0..64 {
        let _ = sampler.sample_chip(&mut chip_rng(5, 0, chip));
    }

    ramp_obs::set_alloc_tracking(true);
    let before = ramp_obs::thread_alloc_snapshot();
    let mut total_years = 0.0;
    for chip in 0..CHIPS {
        total_years += sampler.sample_chip(&mut chip_rng(5, 1, chip)).failure_years;
    }
    let after = ramp_obs::thread_alloc_snapshot();
    ramp_obs::set_alloc_tracking(false);

    let allocs = after.allocs.saturating_sub(before.allocs);
    let bytes = after.bytes.saturating_sub(before.bytes);
    assert_eq!(
        allocs, 0,
        "sample_chip allocated {allocs} times ({bytes} bytes) over {CHIPS} chips; \
         the fleet's inner loop must stay allocation-free"
    );
    // The loop really sampled chips.
    assert!(total_years.is_finite() && total_years > 0.0);
}
