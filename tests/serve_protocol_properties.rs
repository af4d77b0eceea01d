//! Never-panic properties of the `ramp-serve` wire protocol: the request
//! and response decoders return `Ok` or `Err` on any string, and the
//! server answers any line that asks for no work with one parseable
//! response, without starting a pipeline execution.

use proptest::collection::vec;
use proptest::prelude::*;
use ramp_core::mechanisms::PerMechanism;
use ramp_core::{PipelineConfig, Qualification, QueryEngine};
use ramp_serve::{Request, Response, ServeOptions, Server};
use std::sync::OnceLock;

/// Pieces that steer the JSON parser into its interesting branches:
/// structure, escapes, number edge cases, literals and protocol words.
#[rustfmt::skip]
const PIECES: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\u", "\\u00", "\\ud800", "\\n", "-", "+",
    ".", "0", "7", "e", "E", "1e999", "-0", "18446744073709551616", "-9223372036854775809",
    "null", "true", "false", "\"id\"", "\"kind\"", "\"query\"", "\"ping\"", "\"metrics\"",
    "\"trace\"", "\"last\"", "\n", "\u{0}", "é", "\u{1F600}",
];

/// One drawn piece: mostly from [`PIECES`], otherwise any one scalar.
fn drawn_piece((pick, raw): (usize, u32)) -> String {
    match PIECES.get(pick) {
        Some(piece) => (*piece).to_string(),
        None => char::from_u32(raw % 0x11_0000).map_or("\u{fffd}".into(), String::from),
    }
}

fn piece() -> impl Strategy<Value = (usize, u32)> {
    (0usize..48, any::<u32>())
}

fn arbitrary_line() -> impl Strategy<Value = String> {
    vec(piece(), 0..64).prop_map(|pieces| pieces.into_iter().map(drawn_piece).collect())
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, (usize, u32))>> {
    vec((0u8..4, any::<usize>(), piece()), 1..4)
}

/// Applies `edits` to `line`: each deletes one character, inserts or
/// overwrites one with a drawn piece, or truncates the line, at a drawn
/// position.
fn mutate(line: &str, edits: Vec<(u8, usize, (usize, u32))>) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for (op, at, draw) in edits {
        let at = at % (chars.len() + 1);
        let end = match op {
            0 | 2 => (at + 1).min(chars.len()),
            3 => chars.len(),
            _ => at,
        };
        let insert = if op == 1 || op == 2 {
            drawn_piece(draw)
        } else {
            String::new()
        };
        chars.splice(at..end, insert.chars());
    }
    chars.into_iter().collect()
}

/// Valid request lines of every kind, the seeds the mutations start from.
const VALID_REQUESTS: [&str; 6] = [
    r#"{"id":1,"kind":"query","benchmark":"gzip","node":"180nm"}"#,
    r#"{"id":2,"kind":"ping","benchmark":null,"last":null}"#,
    r#"{"id":3,"kind":"metrics"}"#,
    r#"{"id":4,"kind":"query","benchmark":"gzip","node":"65nm (1.0V)","instructions":200000,"trace_repeats":2}"#,
    r#"{"id":5,"kind":"fleet","benchmark":"ammp","node":"90nm","years":7,"chips":5000}"#,
    r#"{"id":6,"kind":"trace","last":4}"#,
];

fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let qualification = Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap();
        let engine =
            QueryEngine::with_qualification(qualification, PipelineConfig::quick(), "properties");
        Server::start(engine, ServeOptions::default())
    })
}

/// Real response lines of every kind but `fleet`, plus an error. Their
/// two query executions happen once, before any property reads
/// [`server`]'s execution count.
fn valid_responses() -> &'static [String] {
    static RESPONSES: OnceLock<Vec<String>> = OnceLock::new();
    RESPONSES.get_or_init(|| {
        let mut requests = VALID_REQUESTS;
        requests[4] = r#"{"kind":"frobnicate"}"#;
        requests.map(|line| server().handle_line(line)).to_vec()
    })
}

/// Whether a line is a well-formed request that starts work: a query
/// executes the pipeline, a fleet request simulates a population.
fn starts_work(line: &str) -> bool {
    Request::parse(line).is_ok_and(|r| r.kind == "query" || r.kind == "fleet")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_never_panic(
        arbitrary in arbitrary_line(),
        pick in 0usize..6,
        request_edits in edits(),
        response_edits in edits(),
    ) {
        let request = mutate(VALID_REQUESTS[pick], request_edits);
        let response = mutate(&valid_responses()[pick], response_edits);
        for line in [arbitrary, request, response] {
            let _ = Request::parse(&line);
            let _ = Response::parse(&line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn workless_lines_get_one_parseable_response_and_no_execution(
        arbitrary in arbitrary_line(),
        pick in 0usize..6,
        edits in edits(),
    ) {
        let _ = valid_responses(); // their executions come first
        let executions = server().stats().executions;
        let mutated = mutate(VALID_REQUESTS[pick], edits);
        for line in [arbitrary, mutated] {
            if starts_work(&line) {
                continue;
            }
            let response = server().handle_line(&line);
            prop_assert!(!response.contains('\n'), "one response line: {response:?}");
            let parsed = Response::parse(&response);
            prop_assert!(parsed.is_ok(), "{line:?} -> {response:?}: {parsed:?}");
            prop_assert_eq!(server().stats().executions, executions, "{:?} executed", line);
        }
    }
}
