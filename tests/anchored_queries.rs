//! A scaled-node query is the paper's two-run recipe: the workload's
//! 180 nm run gives the average power, and the scaled run holds the sink
//! temperature that power sets. `QueryEngine::evaluate` computes that
//! 180 nm power from a run that prices no failure rates; these tests pin
//! its answers, byte for byte, to the recipe spelled out through the
//! public API with two full runs, and a served what-if to `evaluate`.

use ramp_core::mechanisms::MechanismSet;
use ramp_core::{
    run_app_on_node, NodeId, QueryEngine, QueryOutcome, ReliabilityQuery, StudyConfig, TechNode,
    FIT_PER_MECHANISM,
};
use ramp_serve::protocol::encode_ok;
use ramp_serve::{Request, ServeOptions, Server};
use ramp_trace::spec;
use ramp_units::Years;

const BENCHMARKS: [&str; 3] = ["gzip", "ammp", "mesa"];
const SCALED: [NodeId; 4] = [NodeId::N130, NodeId::N90, NodeId::N65LowV, NodeId::N65HighV];

/// An engine calibrated on [`BENCHMARKS`] with traces short enough for a
/// debug build.
fn engine() -> QueryEngine {
    let mut config = StudyConfig::quick().with_benchmarks(&BENCHMARKS).unwrap();
    config.pipeline.instructions = 24_007;
    QueryEngine::calibrate(&config).unwrap()
}

/// The answer to `query` by the recipe itself: a full 180 nm run, then
/// the scaled run anchored to its average power, qualified by `engine`.
fn two_run_recipe(engine: &QueryEngine, query: &ReliabilityQuery) -> QueryOutcome {
    let profile = spec::profile(&query.benchmark).unwrap();
    let models = MechanismSet::default();
    let pipeline = &query.pipeline;
    let reference = run_app_on_node(&profile, &TechNode::reference(), pipeline, &models, None)
        .unwrap();
    let node = TechNode::get(query.node);
    let run = run_app_on_node(&profile, &node, pipeline, &models, Some(reference.avg_total()))
        .unwrap();
    let report = engine.qualification().fit_report(&run.rates);
    let total_fit = report.total();
    assert!(total_fit.value() > 0.0);
    let mttf = report.mttf();
    QueryOutcome {
        benchmark: query.benchmark.clone(),
        node: query.node,
        config_digest: engine.cache_key(query),
        ipc: run.ipc,
        avg_power: run.avg_total(),
        sink_temperature: run.sink_temperature,
        max_temperature: run.max_temperature(),
        total_fit,
        mechanism_fit: report.per_mechanism(),
        mttf,
        expected_lifetime: Years::from(mttf),
        qualification_margin: 4.0 * FIT_PER_MECHANISM / total_fit.value(),
    }
}

#[test]
fn scaled_queries_match_the_two_run_recipe_byte_for_byte() {
    let engine = engine();
    for benchmark in BENCHMARKS {
        for node in SCALED {
            for trace_repeats in [1, 3] {
                for record_thermal_trace in [false, true] {
                    let mut query = engine.query(benchmark, node).unwrap();
                    query.pipeline.trace_repeats = trace_repeats;
                    query.pipeline.record_thermal_trace = record_thermal_trace;
                    let evaluated = serde_json::to_string(&engine.evaluate(&query).unwrap());
                    let recipe = serde_json::to_string(&two_run_recipe(&engine, &query));
                    assert_eq!(
                        evaluated.unwrap(),
                        recipe.unwrap(),
                        "{benchmark} {node} repeats={trace_repeats} \
                         thermal_trace={record_thermal_trace}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_served_what_if_matches_evaluate_on_a_clone_taken_before_start() {
    let engine = engine();
    let reference = engine.clone();
    let options = ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    };
    let server = Server::start(engine, options);
    let mut request = Request::query(7, "ammp", NodeId::N65HighV.label());
    request.trace_repeats = Some(3);
    let served = server.handle_line(&request.to_line());
    server.shutdown();

    let mut query = reference.query("ammp", NodeId::N65HighV).unwrap();
    query.pipeline.trace_repeats = 3;
    let outcome = reference.evaluate(&query).unwrap();
    assert_eq!(served, encode_ok(7, &serde_json::to_string(&outcome).unwrap()));
}
