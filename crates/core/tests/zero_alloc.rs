//! Zero-allocation regression test for rate observation.
//!
//! `RateAccumulator::observe` prices every structure's EM, SM and TDDB
//! rates through `PreparedSet::price_interval` once per second-pass
//! interval. Once the accumulator exists, an observation must touch only
//! stack state and the accumulator's own fields. The test reads only the
//! calling thread's allocation counters, so concurrent test threads
//! cannot contaminate the measurement.

use ramp_core::mechanisms::{MechanismKind, MechanismSet};
use ramp_core::{NodeId, OperatingPoint, RateAccumulator, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{ActivityFactor, Kelvin};

#[test]
fn observe_performs_zero_heap_allocations_after_warmup() {
    let node = TechNode::get(NodeId::N65HighV);
    let mut acc = RateAccumulator::new(&MechanismSet::default(), node);
    let ops = |i: usize| {
        PerStructure::from_fn(|s| {
            let t = 340.0 + (i % 17) as f64 + s.index() as f64;
            OperatingPoint::new(
                Kelvin::new(t).expect("valid temperature"),
                node.vdd,
                ActivityFactor::new(0.1 * (s.index() % 10) as f64).expect("valid activity"),
            )
        })
    };
    for i in 0..8 {
        acc.observe(&ops(i), 1.0);
    }

    ramp_obs::set_alloc_tracking(true);
    let before = ramp_obs::thread_alloc_snapshot();
    for i in 0..128 {
        acc.observe(&ops(i), 1.0);
    }
    let after = ramp_obs::thread_alloc_snapshot();
    ramp_obs::set_alloc_tracking(false);

    let allocs = after.allocs.saturating_sub(before.allocs);
    let bytes = after.bytes.saturating_sub(before.bytes);
    assert_eq!(
        allocs, 0,
        "observe allocated {allocs} times ({bytes} bytes) in 128 warm intervals; \
         rate observation must stay allocation-free"
    );

    // The observations really were priced.
    let rates = acc.finish();
    assert!(rates.rate(MechanismKind::Em, Structure::Fpu) > 0.0);
}
