//! Golden-value regression tests over a fixed, deterministic fleet run.
//!
//! The fleet is byte-reproducible (see `determinism.rs`), so the
//! population statistics of a fixed `(engine, FleetConfig)` are stable
//! numbers. These tests pin the physics inside bands rather than to exact
//! bytes, so they survive intended calibration tweaks while catching
//! real model breakage — mirroring `tests/golden_values.rs`. Run the
//! ignored `print_current_fleet_values` helper with `--nocapture` to
//! re-measure after an intended change.

use ramp_core::{NodeId, QueryEngine, StudyConfig};
use ramp_fleet::{run_fleet, FleetConfig, FleetResults, VariationModel};

/// The five Table-4 nodes in scaling order.
const NODES_IN_ORDER: [NodeId; 5] = [
    NodeId::N180,
    NodeId::N130,
    NodeId::N90,
    NodeId::N65LowV,
    NodeId::N65HighV,
];

/// Hours in a (Julian) year, matching `ramp_units::Mttf::years`.
const HOURS_PER_YEAR: f64 = 24.0 * 365.25;

/// A properly calibrated engine: gzip's 180 nm reference run defines the
/// 4000-FIT qualification, exactly as the `fleet` binary does.
fn golden_engine() -> QueryEngine {
    let config = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
    QueryEngine::calibrate(&config).unwrap()
}

fn golden_fleet(engine: &QueryEngine, variation: VariationModel) -> FleetResults {
    run_fleet(
        engine,
        &FleetConfig {
            benchmark: "gzip".to_string(),
            nodes: NODES_IN_ORDER.to_vec(),
            chips: 20_000,
            seed: 42,
            variation,
            ..FleetConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn ten_year_dppm_rises_monotonically_with_scaling() {
    let results = golden_fleet(&golden_engine(), VariationModel::default());
    let dppm: Vec<f64> = results
        .populations
        .iter()
        .map(|p| p.summary.dppm_by_year[9])
        .collect();
    for window in dppm.windows(2) {
        assert!(
            window[1] > window[0],
            "10-year DPPM must rise with scaling: {dppm:?}"
        );
    }
    // The paper's headline in population terms: scaling 180 nm → 65 nm at
    // constant voltage turns a qualified part into a warranty problem.
    assert!(
        dppm[4] > 20.0 * dppm[0],
        "65nm(1.0V) must fail at >20x the 180nm rate ({:.0} vs {:.0} DPPM)",
        dppm[4],
        dppm[0]
    );
}

#[test]
fn qualified_180nm_median_lifetime_sits_in_the_golden_band() {
    // With the default variation model the 180 nm population's median
    // failure time is a stable number (measured 58.4 years at the pinned
    // seed): each mechanism is qualified to 1000 FIT (~114-year mean
    // lifetime) and the series minimum of the four scattered draws lands
    // near half that. The band is wide enough for sampling noise at other
    // seeds and small calibration tweaks, narrow enough to catch a
    // misplaced unit or a broken ratio transfer.
    let results = golden_fleet(&golden_engine(), VariationModel::default());
    let p50 = results.populations[0].summary.p50_years;
    assert!(
        (50.0..=67.0).contains(&p50),
        "180nm median lifetime {p50} years outside golden band [50, 67]"
    );
}

#[test]
fn degenerate_variation_collapses_onto_the_anchor() {
    // With all variation off, every chip is the paper's average chip: the
    // whole population fails at min over per-mechanism mean lifetimes,
    // which at the 4000-FIT qualified anchor is an analytic number.
    let engine = golden_engine();
    let results = golden_fleet(&engine, VariationModel::degenerate());
    let anchor = engine
        .population_anchor(&engine.query("gzip", NodeId::N180).unwrap())
        .unwrap();
    let expected = anchor
        .report
        .per_mechanism()
        .0
        .iter()
        .map(|&fit| 1.0e9 / fit.value() / HOURS_PER_YEAR)
        .fold(f64::MAX, f64::min);
    let summary = &results.populations[0].summary;
    for quantile in [summary.p1_years, summary.p50_years, summary.p99_years] {
        assert!(
            (quantile / expected - 1.0).abs() < 2e-2,
            "degenerate population quantile {quantile} vs analytic {expected}"
        );
    }
}

/// Re-measurement helper: `cargo test --test fleet_goldens -- --ignored --nocapture`.
#[test]
#[ignore = "prints current values for re-measuring the golden bands"]
fn print_current_fleet_values() {
    let results = golden_fleet(&golden_engine(), VariationModel::default());
    for pop in &results.populations {
        println!(
            "{:<12} p1={:.2} p50={:.2} p99={:.2} dppm@5y={:.0} dppm@10y={:.0}",
            pop.label,
            pop.summary.p1_years,
            pop.summary.p50_years,
            pop.summary.p99_years,
            pop.summary.dppm_by_year[4],
            pop.summary.dppm_by_year[9],
        );
    }
}
