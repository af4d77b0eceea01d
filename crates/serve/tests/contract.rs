//! The serving contract under concurrent load.
//!
//! `CLIENTS` threads send `QUERIES` queries over `UNIQUE` distinct
//! `(benchmark, node)` pairs through [`Server::handle_line`], then each
//! pair is replayed once. Every pair must execute exactly once: every
//! other query, replays included, is coalesced onto an in-flight
//! execution or served from the result cache. Nothing is shed, nothing
//! errors, and every replay is byte-identical to the first answer its
//! pair received.

use ramp_core::mechanisms::PerMechanism;
use ramp_core::{PipelineConfig, Qualification, QueryEngine};
use ramp_serve::{Request, Response, ServeOptions, Server};

const CLIENTS: usize = 8;
const QUERIES: usize = 48;
const PAIRS: [(&str, &str); 4] = [
    ("gzip", "180nm"),
    ("ammp", "180nm"),
    ("gzip", "130nm"),
    ("ammp", "130nm"),
];
const UNIQUE: usize = PAIRS.len();

fn engine() -> QueryEngine {
    let qualification = Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap();
    QueryEngine::with_qualification(qualification, PipelineConfig::quick(), "serve-contract")
}

#[test]
fn each_pair_executes_once_and_replays_byte_identically() {
    let server = Server::start(engine(), ServeOptions::default());
    // Query i (id i + 1) asks pair i % UNIQUE; client k sends the queries
    // with i % CLIENTS == k. So ids 1..=UNIQUE carry each pair's first
    // answer.
    let ask = |i: usize| {
        let (benchmark, node) = PAIRS[i % UNIQUE];
        server.handle_line(&Request::query(i as u64 + 1, benchmark, node).to_line())
    };
    let mut answers: Vec<(usize, String)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || {
                    (k..QUERIES)
                        .step_by(CLIENTS)
                        .map(|i| (i, ask(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread completes"))
            .collect()
    });
    answers.sort_unstable_by_key(|(i, _)| *i);
    assert_eq!(answers.len(), QUERIES);
    for (i, line) in &answers {
        let response = Response::parse(line).unwrap();
        assert!(
            response.is_ok() && response.id == *i as u64 + 1,
            "query {i}: {line}"
        );
    }

    for (u, (benchmark, node)) in PAIRS.iter().enumerate() {
        assert_eq!(
            ask(u),
            answers[u].1,
            "the replay of {benchmark}@{node} must be byte-identical to its first answer"
        );
    }

    let stats = server.stats();
    assert_eq!(
        stats.executions, UNIQUE as u64,
        "one execution per distinct pair: {stats:?}"
    );
    assert_eq!(
        stats.coalesced + stats.cache_served,
        QUERIES as u64,
        "the other {} queries and the {UNIQUE} replays are coalesced or cache-served: {stats:?}",
        QUERIES - UNIQUE
    );
    assert_eq!(stats.overloaded, 0, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
}
