//! The second pass's thermal metrics keep their totals.
//!
//! The pipeline steps each interval without per-interval metric writes
//! and records `thermal.transient_steps` and the
//! `thermal.substeps_per_interval` histogram once per run. The totals
//! must be what one recording per interval gives: every interval takes
//! the same substep count, so `intervals × substeps` steps and
//! `intervals` observations of `substeps`. A run that stops on an
//! invalid rate records the intervals it stepped, the failing one
//! included.
//!
//! The registry is process-wide, so this file holds a single test: no
//! other test in the binary can move the metrics between the snapshots.

use ramp_core::mechanisms::MechanismSet;
use ramp_core::{run_app_on_node, NodeId, PipelineConfig, RampError, TechNode};
use ramp_obs::{metrics_snapshot, MetricValue};
use ramp_thermal::ThermalSimulator;
use ramp_trace::spec;

/// `(transient steps, histogram count, histogram sum, histogram bucket
/// counts)` as the registry holds them now.
fn thermal_metrics() -> (u64, u64, f64, Vec<u64>) {
    let mut steps = 0;
    let mut histogram = (0, 0.0, Vec::new());
    for metric in metrics_snapshot() {
        match (metric.name.as_str(), metric.value) {
            ("thermal.transient_steps", MetricValue::Counter(n)) => steps = n,
            (
                "thermal.substeps_per_interval",
                MetricValue::Histogram {
                    counts, count, sum, ..
                },
            ) => histogram = (count, sum, counts),
            _ => {}
        }
    }
    (steps, histogram.0, histogram.1, histogram.2)
}

/// The substep count the pipeline takes per interval at `node` (no
/// constant-sink rescaling), computed as it does.
fn substeps(node: &TechNode, cfg: &PipelineConfig) -> u64 {
    let sim = ThermalSimulator::new(node.core_area(), cfg.thermal).unwrap();
    let total_dt = 1e-6 * cfg.time_compression;
    (total_dt / sim.network().max_stable_step().value()).ceil().max(1.0) as u64
}

/// The histogram bucket `substeps` lands in: the first bound at or above
/// it (the bounds are the simulator's substep bounds).
fn bucket(substeps: u64) -> usize {
    [1, 2, 4, 8, 16, 32, 64]
        .iter()
        .position(|&b| substeps <= b)
        .unwrap_or(7)
}

#[test]
fn thermal_metrics_count_every_stepped_interval() {
    let node = TechNode::get(NodeId::N90);
    let cfg = PipelineConfig {
        trace_repeats: 3,
        ..PipelineConfig::quick()
    };
    let profile = spec::profile("gzip").unwrap();
    let substeps = substeps(&node, &cfg);
    assert!(substeps >= 1);

    // A complete run.
    let (steps0, count0, sum0, buckets0) = thermal_metrics();
    let run = run_app_on_node(&profile, &node, &cfg, &MechanismSet::default(), None).unwrap();
    let (steps1, count1, sum1, buckets1) = thermal_metrics();
    let intervals = run.timings.intervals;
    assert!(intervals > 0);
    assert_eq!(steps1 - steps0, intervals * substeps, "transient steps");
    assert_eq!(count1 - count0, intervals, "histogram count");
    assert_eq!(sum1 - sum0, (intervals * substeps) as f64, "histogram sum");
    let moved: Vec<u64> = buckets1.iter().zip(&buckets0).map(|(a, b)| a - b).collect();
    let mut expected = vec![0; moved.len()];
    expected[bucket(substeps)] = intervals;
    assert_eq!(moved, expected, "every interval lands in the substep count's bucket");

    // A run that stops on an invalid rate: J = 9·p exceeds 1 for any
    // activity above 1/9, so J^n overflows at the first busy interval.
    let mut models = MechanismSet::default();
    models.em.current_exponent = 1e6;
    let err = run_app_on_node(&profile, &node, &cfg, &models, None).unwrap_err();
    let (steps2, count2, sum2, _) = thermal_metrics();
    let RampError::InvalidRate { interval, .. } = err else {
        panic!("expected an invalid-rate error, got {err}");
    };
    let stepped = interval + 1;
    assert_eq!(steps2 - steps1, stepped * substeps, "steps of the failed run");
    assert_eq!(count2 - count1, stepped, "histogram count of the failed run");
    assert_eq!(sum2 - sum1, (stepped * substeps) as f64, "histogram sum of the failed run");
}
