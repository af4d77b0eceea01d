//! Zero-allocation regression test for the per-interval power halves.
//!
//! A second-pass interval reads its dynamic power from a table built
//! once per run (`PowerModel::dynamic_sample`) and computes only the
//! leakage at the interval's temperatures from a `PreparedLeakage`.
//! Once both exist, an interval must touch only stack state. The test
//! reads only the calling thread's allocation counters, so concurrent
//! test threads cannot contaminate the measurement.

use ramp_microarch::PerStructure;
use ramp_power::{
    DynamicPowerModel, DynamicScaling, LeakageModel, PowerModel, PowerSample, StructureBudgets,
};
use ramp_units::{ActivityFactor, Kelvin, PowerDensity, SquareMillimeters};

#[test]
fn prepared_leakage_and_table_reads_perform_zero_heap_allocations() {
    let model = PowerModel::new(
        DynamicPowerModel::new(StructureBudgets::power4_reference(), DynamicScaling::REFERENCE),
        LeakageModel::new(
            PowerDensity::new(0.04).expect("valid density"),
            SquareMillimeters::new(81.0).expect("valid area"),
            0.017,
        )
        .expect("valid beta"),
        0.95,
    )
    .expect("valid residual");
    let table: Vec<_> = (0..16)
        .map(|i| {
            let activity = PerStructure::from_fn(|s| {
                ActivityFactor::new(0.05 * ((i + s.index()) % 20) as f64).expect("valid activity")
            });
            model.dynamic_sample(&activity)
        })
        .collect();
    let leakage = model.leakage().prepare();
    let temps = |i: usize| {
        PerStructure::from_fn(|s| {
            Kelvin::new(340.0 + (i % 13) as f64 + s.index() as f64).expect("valid temperature")
        })
    };
    let mut total = 0.0;
    let mut interval = |i: usize| {
        let dynamic = &table[i % table.len()];
        let sample = PowerSample {
            dynamic: *dynamic.per_structure(),
            leakage: leakage.power(&temps(i)),
        };
        total += dynamic.total().value() + sample.leakage_total().value();
        sample.per_structure_total()
    };
    for i in 0..8 {
        let _ = interval(i);
    }

    ramp_obs::set_alloc_tracking(true);
    let before = ramp_obs::thread_alloc_snapshot();
    for i in 0..128 {
        let _ = interval(i);
    }
    let after = ramp_obs::thread_alloc_snapshot();
    ramp_obs::set_alloc_tracking(false);

    let allocs = after.allocs.saturating_sub(before.allocs);
    let bytes = after.bytes.saturating_sub(before.bytes);
    assert_eq!(
        allocs, 0,
        "a warm power interval allocated {allocs} times ({bytes} bytes) in 128 intervals"
    );
    assert!(total > 0.0);
}
