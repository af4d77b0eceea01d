//! Full-fidelity reproduction checks of the paper's headline numbers.
//!
//! These run the production-length study (30–40 s in release on a
//! 2-vCPU host) and are therefore `#[ignore]`d in the debug tier-1
//! `cargo test`; `scripts/verify.sh` and CI run them explicitly with
//!
//! ```text
//! cargo test --release --locked --test paper_headlines -- --ignored
//! ```
//!
//! The asserted bands are deliberately generous: EXPERIMENTS.md records
//! the precise measured-vs-published numbers; these tests guard against
//! regressions that would break the *shape* of the reproduction.

use ramp_core::mechanisms::MechanismKind;
use ramp_core::{run_study, NodeId, StudyConfig};
use ramp_trace::Suite;

fn growth(results: &ramp_core::StudyResults, suite: Suite, node: NodeId) -> f64 {
    results
        .average_total_fit(suite, node)
        .percent_increase_over(results.average_total_fit(suite, NodeId::N180))
}

#[test]
#[ignore = "runs the full-length 16x5 study; release only"]
fn full_study_reproduces_headline_bands() {
    let results = run_study(&StudyConfig::default()).expect("full study");

    // Qualification anchor: 4000 FIT average at 180 nm by construction.
    let base = results.overall_average_fit(NodeId::N180).value();
    assert!((base - 4000.0).abs() < 1.0, "reference average {base}");

    // Headline: total FIT growth to 65 nm (1.0 V). Paper: +274 % (FP) /
    // +357 % (INT), overall +316 %. Accept the 250–420 % band.
    for suite in [Suite::Fp, Suite::Int] {
        let g = growth(&results, suite, NodeId::N65HighV);
        assert!((250.0..420.0).contains(&g), "{suite}: 1.0 V growth {g}%");
        let g09 = growth(&results, suite, NodeId::N65LowV);
        assert!(
            g09 < g * 0.5,
            "{suite}: 0.9 V growth {g09}% must be far below the 1.0 V {g}%"
        );
    }

    // Mechanism ordering at 65 nm (1.0 V): TDDB > EM > SM > TC in growth.
    let mech_growth = |m: MechanismKind| {
        let b = results
            .average_mechanism_fit(Suite::Fp, NodeId::N180, m)
            .value()
            + results
                .average_mechanism_fit(Suite::Int, NodeId::N180, m)
                .value();
        let s = results
            .average_mechanism_fit(Suite::Fp, NodeId::N65HighV, m)
            .value()
            + results
                .average_mechanism_fit(Suite::Int, NodeId::N65HighV, m)
                .value();
        (s - b) / b * 100.0
    };
    let tddb = mech_growth(MechanismKind::Tddb);
    let em = mech_growth(MechanismKind::Em);
    let sm = mech_growth(MechanismKind::Sm);
    let tc = mech_growth(MechanismKind::Tc);
    assert!(tddb > em && em > sm && sm > tc, "{tddb} > {em} > {sm} > {tc}");
    assert!((600.0..1000.0).contains(&tddb), "TDDB growth {tddb}%");
    assert!((250.0..500.0).contains(&em), "EM growth {em}%");

    // Temperature: sink constant, hottest structure up ~10–16 K.
    let sink_180 = results.average_sink_temperature(NodeId::N180);
    let sink_65 = results.average_sink_temperature(NodeId::N65HighV);
    assert!((sink_180 - sink_65).abs() < 0.5);
    for suite in [Suite::Fp, Suite::Int] {
        let dt = results.average_max_temperature(suite, NodeId::N65HighV)
            - results.average_max_temperature(suite, NodeId::N180);
        assert!((8.0..18.0).contains(&dt), "{suite}: ΔT {dt} K");
    }

    // Worst case dominates; its 180 nm margin sits near the paper's 25 %.
    let margin = results
        .worst_case_margin_over_max(NodeId::N180)
        .expect("worst case present");
    assert!((10.0..60.0).contains(&margin), "180 nm margin {margin}%");

    // Table 3 anchors: per-suite power averages within 0.2 W of published.
    let power_avg = |suite: Suite| {
        let rs = results.suite_results(suite, NodeId::N180);
        rs.iter()
            .map(|r| r.avg_total_power().value())
            .sum::<f64>()
            / rs.len() as f64
    };
    assert!((power_avg(Suite::Fp) - 28.51).abs() < 0.2);
    assert!((power_avg(Suite::Int) - 29.66).abs() < 0.2);
}
