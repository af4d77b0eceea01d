//! Absolute pins of `run_with_drm`'s outcome across trace repeats.
//!
//! A DRM run changes its DVS level between second-pass intervals, so
//! anything the second pass builds once per trace interval and reads on
//! every repeat has to be told apart by level as well. The FNV-1a digest
//! of each `DrmOutcome`'s JSON is pinned for cases whose controller
//! leaves the nominal level inside a trace repeat (and, in the gzip
//! cases, comes back), at `trace_repeats` {1, 2, 3}. A mismatch prints
//! the whole table as this run computes it.

use ramp_core::drm::{run_with_drm, DrmPolicy, DvsLevel};
use ramp_core::{NodeId, QueryEngine, StudyConfig, TechNode};
use ramp_trace::spec;
use ramp_units::Fit;

const REPEATS: [u32; 3] = [1, 2, 3];

/// `(benchmark, FIT budget, decision period, trace_repeats, transitions,
/// digest of the outcome JSON)`. Recorded before the second pass read
/// any per-level work from a table.
const PINNED: &[(&str, u32, u32, u32, u64, u64)] = &[
    ("crafty", 6000, 10, 1, 2, 0x67d40182740d0be2),
    ("gzip", 9000, 5, 1, 6, 0xcdd4b67a3cb0d657),
    ("gzip", 10000, 3, 1, 12, 0x9084bfa76153059a),
    ("crafty", 6000, 10, 2, 2, 0x4ac2a33e225e26d1),
    ("gzip", 9000, 5, 2, 7, 0x875cce9690e555c5),
    ("gzip", 10000, 3, 2, 18, 0xa1e8a57163d7ebad),
    ("crafty", 6000, 10, 3, 2, 0x3bd6b56782131af1),
    ("gzip", 9000, 5, 3, 7, 0x7848a83ce0548101),
    ("gzip", 10000, 3, 3, 22, 0xd1e9fc44e1c0f961),
];

/// `(benchmark, FIT budget, decision period)` at 65 nm (1.0 V) on the
/// standard ladder. Crafty is the `drm_throttling` example's case: it
/// throttles twice in its first repeat and stays down. The gzip cases
/// move up and down the ladder within and across repeats.
const CASES: [(&str, u32, u32); 3] = [("crafty", 6000, 10), ("gzip", 9000, 5), ("gzip", 10000, 3)];

#[test]
fn drm_outcomes_hold_their_recorded_digests() {
    let config = StudyConfig::quick()
        .with_benchmarks(&["crafty", "gzip"])
        .unwrap();
    let node = TechNode::get(NodeId::N65HighV);
    let mut computed = Vec::new();
    for trace_repeats in REPEATS {
        let mut config = config.clone();
        config.pipeline.trace_repeats = trace_repeats;
        let engine = QueryEngine::calibrate(&config).unwrap();
        for (benchmark, budget, period) in CASES {
            let policy = DrmPolicy {
                fit_budget: Fit::new(f64::from(budget)).unwrap(),
                decision_intervals: period,
                hysteresis: 0.05,
            };
            let profile = spec::profile(benchmark).unwrap();
            let ladder = DvsLevel::standard_ladder(&node);
            let outcome = run_with_drm(&engine, &profile, &node, policy, ladder).unwrap();
            let json = serde_json::to_string(&outcome).unwrap();
            computed.push((
                benchmark,
                budget,
                period,
                trace_repeats,
                outcome.transitions,
                ramp_obs::fnv1a_64(&json),
            ));
        }
    }
    let table: String = computed
        .iter()
        .map(|(b, f, p, r, t, d)| format!("    ({b:?}, {f}, {p}, {r}, {t}, 0x{d:016x}),\n"))
        .collect();
    assert!(
        computed == PINNED,
        "DRM digests moved; this run computes:\n{table}"
    );
}
