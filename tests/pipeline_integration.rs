//! End-to-end integration tests across all workspace crates: trace →
//! timing → power → thermal → RAMP.

use ramp_core::mechanisms::{MechanismKind, MechanismSet};
use ramp_core::{run_app_on_node, NodeId, PipelineConfig, Qualification, TechNode};
use ramp_microarch::Structure;
use ramp_trace::spec;

fn quick() -> PipelineConfig {
    PipelineConfig::quick()
}

#[test]
fn full_pipeline_produces_physical_results_for_every_benchmark() {
    let models = MechanismSet::default();
    let node = TechNode::reference();
    for profile in spec::all_profiles() {
        let run = run_app_on_node(&profile, &node, &quick(), &models, None)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
        assert!(
            run.ipc > 0.3 && run.ipc < 4.0,
            "{}: ipc {}",
            profile.name,
            run.ipc
        );
        let power = run.avg_total().value();
        assert!(
            (10.0..50.0).contains(&power),
            "{}: power {power} W",
            profile.name
        );
        // Thermal sanity: ambient < sink < hottest junction < 400 K.
        assert!(run.sink_temperature.value() > 318.15);
        assert!(run.max_temperature().value() > run.sink_temperature.value());
        assert!(run.max_temperature().value() < 400.0, "{}", profile.name);
        // Activity factors in range, with at least the IFU busy.
        for s in Structure::ALL {
            let p = run.avg_activity[s].value();
            assert!((0.0..=1.0).contains(&p), "{}: {s} {p}", profile.name);
        }
        assert!(run.avg_activity[Structure::Ifu].value() > 0.02);
    }
}

#[test]
fn qualification_budget_splits_equally_across_mechanisms() {
    let models = MechanismSet::default();
    let node = TechNode::reference();
    let runs: Vec<_> = ["gzip", "ammp", "mesa", "crafty"]
        .iter()
        .map(|n| {
            run_app_on_node(&spec::profile(n).unwrap(), &node, &quick(), &models, None).unwrap()
        })
        .collect();
    let rates: Vec<_> = runs.iter().map(|r| r.rates).collect();
    let qual = Qualification::from_reference_runs(&rates).unwrap();
    for m in MechanismKind::ALL {
        let mean: f64 = rates
            .iter()
            .map(|r| qual.fit_report(r).mechanism_total(m).value())
            .sum::<f64>()
            / rates.len() as f64;
        assert!((mean - 1000.0).abs() < 1e-6, "{m}: {mean}");
    }
}

#[test]
fn fp_and_int_workloads_stress_different_structures() {
    let models = MechanismSet::default();
    let node = TechNode::reference();
    let fp = run_app_on_node(
        &spec::profile("applu").unwrap(),
        &node,
        &quick(),
        &models,
        None,
    )
    .unwrap();
    let int = run_app_on_node(
        &spec::profile("bzip2").unwrap(),
        &node,
        &quick(),
        &models,
        None,
    )
    .unwrap();
    assert!(
        fp.avg_activity[Structure::Fpu].value() > 3.0 * int.avg_activity[Structure::Fpu].value(),
        "FP app must load the FPU harder: {} vs {}",
        fp.avg_activity[Structure::Fpu].value(),
        int.avg_activity[Structure::Fpu].value()
    );
    assert!(int.avg_activity[Structure::Fxu].value() > fp.avg_activity[Structure::Fxu].value());
}

#[test]
fn hotter_structures_fail_faster_within_a_run() {
    let models = MechanismSet::default();
    let node = TechNode::reference();
    let run = run_app_on_node(
        &spec::profile("crafty").unwrap(),
        &node,
        &quick(),
        &models,
        None,
    )
    .unwrap();
    let qual = Qualification::from_reference_runs(&[run.rates]).unwrap();
    let report = qual.fit_report(&run.rates);
    // Find the hottest and coolest structures; SM (pure temperature) must
    // order the same way.
    let (hot, _) = run.rates.average_temperature().iter().fold(
        (Structure::Ifu, 0.0),
        |(bs, bt), (s, t)| {
            if t.value() > bt {
                (s, t.value())
            } else {
                (bs, bt)
            }
        },
    );
    let (cool, _) = run.rates.average_temperature().iter().fold(
        (Structure::Ifu, f64::MAX),
        |(bs, bt), (s, t)| {
            if t.value() < bt {
                (s, t.value())
            } else {
                (bs, bt)
            }
        },
    );
    assert!(
        report.fit(MechanismKind::Sm, hot) > report.fit(MechanismKind::Sm, cool),
        "SM FIT must track structure temperature"
    );
}

#[test]
fn constant_sink_rule_anchors_scaled_runs() {
    let models = MechanismSet::default();
    let profile = spec::profile("facerec").unwrap();
    let base = run_app_on_node(
        &profile,
        &TechNode::reference(),
        &quick(),
        &models,
        None,
    )
    .unwrap();
    for id in [NodeId::N130, NodeId::N90, NodeId::N65LowV, NodeId::N65HighV] {
        let run = run_app_on_node(
            &profile,
            &TechNode::get(id),
            &quick(),
            &models,
            Some(base.avg_total()),
        )
        .unwrap();
        assert!(
            (run.sink_temperature.value() - base.sink_temperature.value()).abs() < 2.0,
            "{id}: sink {} vs reference {}",
            run.sink_temperature,
            base.sink_temperature
        );
    }
}

#[test]
fn leakage_grows_with_scaling_while_dynamic_shrinks() {
    let models = MechanismSet::default();
    let profile = spec::profile("gap").unwrap();
    let base = run_app_on_node(
        &profile,
        &TechNode::reference(),
        &quick(),
        &models,
        None,
    )
    .unwrap();
    let scaled = run_app_on_node(
        &profile,
        &TechNode::get(NodeId::N65HighV),
        &quick(),
        &models,
        Some(base.avg_total()),
    )
    .unwrap();
    assert!(scaled.avg_dynamic.value() < base.avg_dynamic.value());
    assert!(scaled.avg_leakage.value() > base.avg_leakage.value());
    // Leakage fraction grows dramatically with scaling (Table 4's story).
    let f_base = base.avg_leakage.value() / base.avg_total().value();
    let f_scaled = scaled.avg_leakage.value() / scaled.avg_total().value();
    assert!(f_scaled > 2.0 * f_base, "{f_base} → {f_scaled}");
}
