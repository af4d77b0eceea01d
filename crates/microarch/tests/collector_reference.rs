//! Reference check of `ActivityCollector`'s bucketing.
//!
//! The collector keeps the bucket it last wrote and divides only when an
//! event falls outside it. The grouped-vs-single engine tests cannot see a
//! bug in that shortcut, since both sides go through the same collector,
//! so this test replays random event streams into the collector and into
//! a naive reference that divides on every event, and requires identical
//! traces. The streams are non-monotone: they step back before the
//! cached bucket, jump over empty buckets, and end at a cycle that may
//! truncate, extend or empty the last bucket.

use proptest::prelude::*;
use ramp_microarch::{ActivityCollector, ActivityRecord, PerStructure, Structure};
use ramp_units::ActivityFactor;

/// Capacities large enough that no factor clamps at 1, so every count
/// difference shows in the output.
fn capacities() -> PerStructure<u64> {
    PerStructure::from_fn(|s| 1_000_000 + s.index() as u64)
}

/// One event: `structure == None` records a retirement.
#[derive(Debug, Clone, Copy)]
struct Event {
    structure: Option<Structure>,
    cycle: u64,
    count: u64,
}

/// Divides every event's cycle by the interval, as the collector did
/// before it cached its current bucket.
struct NaiveCollector {
    interval_cycles: u64,
    events: Vec<PerStructure<u64>>,
    retired: Vec<u64>,
}

impl NaiveCollector {
    fn bucket(&mut self, cycle: u64) -> usize {
        let b = (cycle / self.interval_cycles) as usize;
        if b >= self.events.len() {
            self.events.resize(b + 1, PerStructure::default());
            self.retired.resize(b + 1, 0);
        }
        b
    }

    fn apply(&mut self, e: Event) {
        let b = self.bucket(e.cycle);
        match e.structure {
            Some(s) => self.events[b][s] += e.count,
            None => self.retired[b] += e.count,
        }
    }

    fn finish(self, end_cycle: u64) -> Vec<ActivityRecord> {
        let full = (end_cycle / self.interval_cycles) as usize;
        let n = full
            .min(self.events.len())
            .max(usize::from(!self.events.is_empty()));
        let caps = capacities();
        (0..n)
            .map(|b| ActivityRecord {
                factors: PerStructure::from_fn(|s| {
                    ActivityFactor::from_events(self.events[b][s], caps[s] * self.interval_cycles)
                }),
                retired: self.retired[b],
            })
            .collect()
    }
}

/// Turns raw draws into a non-monotone event stream: each step moves the
/// cycle back a little, forward a little, or far ahead over empty buckets.
fn events_from(interval: u64, steps: &[(u8, u64, u8, u64)]) -> Vec<Event> {
    let mut cycle = 0u64;
    steps
        .iter()
        .map(|&(kind, magnitude, which, count)| {
            cycle = match kind % 4 {
                // Back, possibly before the cached bucket.
                0 => cycle.saturating_sub(magnitude % (3 * interval + 1)),
                // Forward a jump of several (empty) buckets.
                1 => cycle + interval * (2 + magnitude % 6) + magnitude % interval,
                // Forward within about one bucket, or stay put.
                _ => cycle + magnitude % (interval + 1),
            };
            let structure = match which % 8 {
                7 => None,
                i => Some(Structure::ALL[usize::from(i)]),
            };
            Event {
                structure,
                cycle,
                count,
            }
        })
        .collect()
}

fn check(interval: u64, steps: &[(u8, u64, u8, u64)], end_shift: i64) {
    let events = events_from(interval, steps);
    let mut fast = ActivityCollector::new(interval, capacities());
    let mut naive = NaiveCollector {
        interval_cycles: interval,
        events: Vec::new(),
        retired: Vec::new(),
    };
    for &e in &events {
        match e.structure {
            Some(s) => fast.record(s, e.cycle, e.count),
            None => fast.record_retire(e.cycle, e.count),
        }
        naive.apply(e);
    }
    let last = events.iter().map(|e| e.cycle).max().unwrap_or(0);
    let end_cycle = last.saturating_add_signed(end_shift);
    let trace = fast.finish(end_cycle);
    assert_eq!(trace.interval_cycles(), interval);
    assert_eq!(trace.intervals(), naive.finish(end_cycle).as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn collector_matches_a_dividing_reference(
        interval in 1u64..40,
        steps in proptest::collection::vec((any::<u8>(), 0u64..400, any::<u8>(), 0u64..50), 0..300),
        end_shift in -120i64..120,
    ) {
        check(interval, &steps, end_shift);
    }

    #[test]
    fn collector_matches_at_one_cycle_intervals(
        steps in proptest::collection::vec((any::<u8>(), 0u64..8, any::<u8>(), 0u64..50), 1..300),
        end_shift in -4i64..4,
    ) {
        check(1, &steps, end_shift);
    }

    #[test]
    fn collector_matches_at_study_intervals(
        interval_pick in 0usize..4,
        steps in proptest::collection::vec((any::<u8>(), 0u64..5_000, any::<u8>(), 0u64..50), 1..200),
        end_shift in -3_000i64..3_000,
    ) {
        let interval = [1_100, 1_350, 1_650, 2_000][interval_pick];
        check(interval, &steps, end_shift);
    }
}

#[test]
fn an_empty_stream_finishes_empty() {
    check(7, &[], 0);
    check(7, &[], 100);
}
