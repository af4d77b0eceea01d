//! The serve workload: a closed loop of callers sending seeded base and
//! what-if queries through `Server::handle_line`.
//!
//! Base queries name one of the (benchmark, node) keys warmed in set-up
//! and hit the result cache. What-if queries override `trace_repeats`, so
//! they miss the result cache but hit the timing cache: their cost is the
//! power, thermal and rate passes. `handle_line` is called directly
//! because a transport in front of it measures thread wake-ups rather
//! than the server.

use crate::tracer::Tracer;
use crate::workload::{
    timing_keys, trace_operation, Checks, Digest, Measured, Operation, TimingKey, Traced, THREADS,
};
use ramp_core::{fnv1a_hex, NodeId, QueryEngine, StudyConfig};
use ramp_microarch::clear_timing_cache;
use ramp_serve::{Request, Response, ServeOptions, Server, ServerStats};
use std::time::Instant;

/// Set-up repetitions per run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// One request in this many is a what-if query.
const WHATIF_EVERY: usize = 20;

/// What-if `trace_repeats` of the timed loop span this range (the base
/// pipeline uses 2).
const REPEATS: std::ops::RangeInclusive<u32> = 8..=256;

/// `trace_repeats` of the cheap what-ifs that fill the result cache in
/// set-up, disjoint from [`REPEATS`].
const FILL_REPEATS: std::ops::RangeInclusive<u32> = 3..=7;

/// What-if queries re-checked against a direct evaluation after the loop.
const WHATIF_CHECKS: usize = 8;

/// Requests per throughput window: a multiple of [`WHATIF_EVERY`], so
/// every window carries the same mix.
const WINDOW: usize = 20 * WHATIF_EVERY;

/// The size of the serve workload.
#[derive(Debug, Clone)]
pub struct ServeSize {
    /// Calibration benchmarks by name; empty means the paper's 16. The
    /// base keys are these benchmarks at all five nodes.
    pub benchmarks: Vec<&'static str>,
    /// Pre-generated request lines per caller.
    pub lines_per_caller: usize,
}

/// One pre-generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// The request, as sent.
    pub text: String,
    /// Whether it is a what-if query.
    pub whatif: bool,
}

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the program's generators change.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The (benchmark, node label) keys: every benchmark at every node.
fn base_keys(config: &StudyConfig) -> Vec<(String, &'static str)> {
    config
        .benchmarks
        .iter()
        .flat_map(|p| NodeId::ALL.iter().map(|n| (p.name.clone(), n.label())))
        .collect()
}

/// Caller `caller`'s request stream under `seed`.
///
/// Base queries draw seeded Zipf(s = 1) ranks over one fixed ranking of
/// `keys`, so every seed and caller has the same hot keys. Each block of
/// [`WHATIF_EVERY`] lines holds exactly one what-if query at a seeded
/// position; what-ifs cycle through a seeded permutation of the keys, and
/// their `trace_repeats` follow a golden-ratio sequence over [`REPEATS`]
/// from a seeded start. The mix, the hot set and the what-if cost are so
/// the same for every seed; only which requests come when changes.
pub fn request_lines(
    seed: u64,
    caller: u64,
    count: usize,
    keys: &[(String, &'static str)],
) -> Vec<Line> {
    let hot = SplitMix::new(0, 0).permutation(keys.len());
    let mut rng = SplitMix::new(seed, caller + 1);
    let whatif_keys = rng.permutation(keys.len());
    let zipf: Vec<f64> = (1..=keys.len())
        .scan(0.0, |sum, k| {
            *sum += 1.0 / k as f64;
            Some(*sum)
        })
        .collect();
    let span = f64::from(REPEATS.end() - REPEATS.start() + 1);
    let mut phase = rng.unit();
    let mut whatif_at = 0;
    let mut whatifs = 0;
    (0..count)
        .map(|i| {
            if i % WHATIF_EVERY == 0 {
                whatif_at = i + rng.below(WHATIF_EVERY);
            }
            let id = (caller + 1) * 1_000_000_000 + i as u64;
            if i == whatif_at {
                let (benchmark, node) = &keys[whatif_keys[whatifs % keys.len()]];
                phase = (phase + 0.618_033_988_749_894_9) % 1.0;
                let mut request = Request::query(id, benchmark, node);
                request.trace_repeats = Some(REPEATS.start() + (phase * span) as u32);
                whatifs += 1;
                Line {
                    text: request.to_line(),
                    whatif: true,
                }
            } else {
                let u = rng.unit() * zipf[zipf.len() - 1];
                let rank = zipf.partition_point(|&c| c < u).min(keys.len() - 1);
                let (benchmark, node) = &keys[hot[rank]];
                Line {
                    text: Request::query(id, benchmark, node).to_line(),
                    whatif: false,
                }
            }
        })
        .collect()
}

/// A warmed server and what the checks compare against.
struct Ready {
    server: Server,
    /// A clone of the engine taken before the server started.
    reference: QueryEngine,
    keys: Vec<(String, &'static str)>,
    /// Each base key's warm-up response, sent with id = key index + 1.
    warm: Vec<String>,
}

/// Calibrates on the quick pipeline, starts a server and warms every
/// base key, from a cold timing cache.
fn setup(size: &ServeSize) -> Result<Ready, String> {
    clear_timing_cache();
    let mut config = StudyConfig::quick();
    if !size.benchmarks.is_empty() {
        config = config
            .with_benchmarks(&size.benchmarks)
            .map_err(|e| e.to_string())?;
    }
    config.threads = THREADS;
    let engine = QueryEngine::calibrate(&config).map_err(|e| e.to_string())?;
    let reference = engine.clone();
    let options = ServeOptions {
        threads: THREADS,
        ..ServeOptions::default()
    };
    let server = Server::start(engine, options);
    let keys = base_keys(&config);
    let warm: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(i, (benchmark, node))| {
            server.handle_line(&Request::query(i as u64 + 1, benchmark, node).to_line())
        })
        .collect();
    // A long-running server's result cache is full of earlier what-ifs;
    // the base keys compete with them for slots. Reach that state now, or
    // hits get slower through the timed loop as the cache fills.
    let fill = FILL_REPEATS.flat_map(|repeats| {
        keys.iter().map(move |(benchmark, node)| {
            let mut request = Request::query(0, benchmark, node);
            request.trace_repeats = Some(repeats);
            request.to_line()
        })
    });
    let filled: Vec<String> = fill.map(|line| server.handle_line(&line)).collect();
    if let Some(bad) = warm
        .iter()
        .chain(&filled)
        .find(|r| !Response::parse(r).is_ok_and(|r| r.is_ok()))
    {
        return Err(format!("warm-up query failed: {bad}"));
    }
    Ok(Ready {
        server,
        reference,
        keys,
        warm,
    })
}

/// What one closed loop produced.
#[derive(Debug, Default)]
struct LoopOutcome {
    latencies_ms: Vec<f64>,
    whatif_ms: Vec<f64>,
    /// Completion time of each request, seconds after the loop started.
    done_s: Vec<f64>,
    /// Every response must parse and be OK (`overloaded` counts as
    /// failed); each is checked as it arrives and then dropped, so the
    /// loop's memory does not grow with the requests it sends.
    checks: Checks,
    wall_s: f64,
}

impl LoopOutcome {
    /// Requests per second in each consecutive window of [`WINDOW`]
    /// completions.
    fn window_rates(&self) -> Vec<f64> {
        let mut done = self.done_s.clone();
        done.sort_by(f64::total_cmp);
        let ends: Vec<f64> = done
            .iter()
            .skip(WINDOW - 1)
            .step_by(WINDOW)
            .copied()
            .collect();
        std::iter::once(0.0)
            .chain(ends.iter().copied())
            .zip(&ends)
            .map(|(start, end)| WINDOW as f64 / (end - start))
            .collect()
    }
}

/// Each caller sends its lines one after another, waiting for every
/// reply, until its lines run out or `deadline` passes.
fn drive(
    server: &Server,
    streams: &[Vec<Line>],
    deadline: Option<Instant>,
    tracer: Option<(&Tracer, u64)>,
) -> LoopOutcome {
    let started = Instant::now();
    let per_caller: Vec<LoopOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(caller, lines)| {
                scope.spawn(move || {
                    let mut out = LoopOutcome::default();
                    for line in lines {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let span = tracer.map(|(t, parent)| t.open("request", parent));
                        let sent = Instant::now();
                        let response = server.handle_line(&line.text);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        let done = started.elapsed().as_secs_f64();
                        if let Some(mut span) = span {
                            span.arg("caller", caller);
                            span.arg("kind", if line.whatif { "whatif" } else { "base" });
                            span.close();
                        }
                        out.latencies_ms.push(ms);
                        out.done_s.push(done);
                        if line.whatif {
                            out.whatif_ms.push(ms);
                        }
                        let ok = Response::parse(&response).is_ok_and(|r| r.is_ok());
                        out.checks.check(ok, || format!("bad response: {response}"));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread does not panic"))
            .collect()
    });
    let mut outcome = LoopOutcome {
        wall_s: started.elapsed().as_secs_f64(),
        ..LoopOutcome::default()
    };
    for caller in per_caller {
        outcome.latencies_ms.extend(caller.latencies_ms);
        outcome.whatif_ms.extend(caller.whatif_ms);
        outcome.done_s.extend(caller.done_s);
        outcome.checks.absorb(caller.checks);
    }
    outcome
}

/// After the loop: every base key replays byte-identical to its warm-up
/// response, and the first what-if queries of caller 0 answer exactly
/// what the engine computes directly.
fn check_answers(checks: &mut Checks, ready: &Ready, stream: &[Line]) {
    for (i, (benchmark, node)) in ready.keys.iter().enumerate() {
        let replay = ready
            .server
            .handle_line(&Request::query(i as u64 + 1, benchmark, node).to_line());
        checks.check(replay == ready.warm[i], || {
            format!("replay of {benchmark}@{node} differs from its warm-up response")
        });
    }
    for line in stream.iter().filter(|l| l.whatif).take(WHATIF_CHECKS) {
        let result = whatif_matches(ready, &line.text);
        checks.check(result.is_ok(), || {
            format!("what-if {}: {result:?}", line.text)
        });
    }
}

fn whatif_matches(ready: &Ready, text: &str) -> Result<(), String> {
    let request = Request::parse(text)?;
    let label = request.node.as_deref().unwrap_or_default();
    let node = NodeId::from_label(label).ok_or_else(|| format!("unknown node {label}"))?;
    let mut query = ready
        .reference
        .query(request.benchmark.as_deref().unwrap_or_default(), node)
        .map_err(|e| e.to_string())?;
    if let Some(repeats) = request.trace_repeats {
        query.pipeline.trace_repeats = repeats;
    }
    let direct = ready
        .reference
        .evaluate(&query)
        .map_err(|e| e.to_string())?;
    let served = Response::parse(&ready.server.handle_line(text))?
        .result
        .ok_or("response has no result")?;
    let (direct, served) = (
        serde_json::to_string(&direct).map_err(|e| e.to_string())?,
        serde_json::to_string(&served).map_err(|e| e.to_string())?,
    );
    if direct == served {
        Ok(())
    } else {
        Err(format!("served {served} != direct {direct}"))
    }
}

/// Digest of the warm-up responses: the base answers every later replay
/// must match.
fn warm_digest(ready: &Ready) -> (String, String) {
    ("warm_digest".to_string(), fnv1a_hex(&ready.warm.join("\n")))
}

fn streams(seed: u64, first_caller: u64, size: &ServeSize, ready: &Ready) -> Vec<Vec<Line>> {
    (first_caller..first_caller + THREADS as u64)
        .map(|caller| request_lines(seed, caller, size.lines_per_caller, &ready.keys))
        .collect()
}

fn stats_note(before: ServerStats, after: ServerStats, whatif_ms: &[f64]) -> String {
    let queries = after.queries - before.queries;
    let served = after.cache_served - before.cache_served;
    format!(
        "serve: {queries} queries, result-cache hit rate {:.3}, executions {}, coalesced {}, \
         overloaded {}, what-if p50 {:.1} ms over {}",
        served as f64 / queries.max(1) as f64,
        after.executions - before.executions,
        after.coalesced - before.coalesced,
        after.overloaded - before.overloaded,
        if whatif_ms.is_empty() {
            0.0
        } else {
            crate::stats::median(whatif_ms)
        },
        whatif_ms.len()
    )
}

/// Runs the closed loop for `seconds`.
pub fn run(size: &ServeSize, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured {
        item: "queries",
        ..Measured::default()
    };
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(setup(size)?);
        m.setup_s.push(started.elapsed().as_secs_f64());
    }
    let ready = ready.expect("set-up ran at least once");
    let streams = streams(seed, 0, size, &ready);

    let before = ready.server.stats();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let outcome = drive(&ready.server, &streams, Some(deadline), None);
    let after = ready.server.stats();

    m.rates = outcome.window_rates();
    if m.rates.is_empty() {
        return Err(format!("the loop finished fewer than {WINDOW} requests"));
    }
    m.notes.push(stats_note(before, after, &outcome.whatif_ms));
    m.digests.push(warm_digest(&ready));
    m.items = outcome.checks.attempted - outcome.checks.failed;
    m.checks = outcome.checks;
    check_answers(&mut m.checks, &ready, &streams[0]);
    m.latencies_ms = outcome.latencies_ms;
    m.wall_s = outcome.wall_s;
    Ok(m)
}

/// Closed loops over fresh lines of the same mix, as the traced mode runs
/// them.
struct Loops<'a> {
    ready: Ready,
    seed: u64,
    size: &'a ServeSize,
    /// First caller number of the next loop's streams.
    next_caller: u64,
    checks: Checks,
}

impl Operation for Loops<'_> {
    /// Set-up warmed the caches; every loop starts from them.
    fn prepare(&mut self) {}

    fn timing_sweeps(&self) -> Result<Vec<Vec<TimingKey>>, String> {
        let benchmarks: Vec<_> = self
            .ready
            .keys
            .iter()
            .step_by(NodeId::ALL.len())
            .map(|(b, _)| ramp_trace::spec::profile(b).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let instructions = self.ready.reference.base_pipeline().instructions;
        Ok(vec![timing_keys(&benchmarks, &NodeId::ALL, instructions)])
    }

    fn run(&mut self, tracer: Option<(&Tracer, u64)>) -> Result<Option<Digest>, String> {
        let lines = streams(self.seed, self.next_caller, self.size, &self.ready);
        self.next_caller += THREADS as u64;
        let outcome = drive(&self.ready.server, &lines, None, tracer);
        self.checks.absorb(outcome.checks);
        Ok(None)
    }

    fn finish(&mut self) -> Checks {
        let first = streams(self.seed, 0, self.size, &self.ready);
        check_answers(&mut self.checks, &self.ready, &first[0]);
        std::mem::take(&mut self.checks)
    }
}

/// Loops split into the timing lookups of the base keys and the loop
/// itself.
pub fn trace(size: &ServeSize, seed: u64, tracer: &Tracer) -> Result<Traced, String> {
    let mut loops = Loops {
        ready: setup(size)?,
        seed,
        size,
        next_caller: 0,
        checks: Checks::default(),
    };
    let mut t = trace_operation(&mut loops, "serve", tracer)?;
    t.digests.push(warm_digest(&loops.ready));
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn keys() -> Vec<(String, &'static str)> {
        base_keys(&StudyConfig::default())
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        let keys = keys();
        let a = request_lines(42, 0, 2000, &keys);
        assert_eq!(a, request_lines(42, 0, 2000, &keys));
        assert_ne!(a, request_lines(43, 0, 2000, &keys));
        assert_ne!(a, request_lines(42, 1, 2000, &keys));
    }

    #[test]
    fn mix_is_95_5_and_outgrows_the_result_cache() {
        let keys = keys();
        assert_eq!(keys.len(), 80);
        let lines: Vec<Line> = (0..2)
            .flat_map(|caller| request_lines(7, caller, 4000, &keys))
            .collect();
        let whatifs = lines.iter().filter(|l| l.whatif).count();
        let share = whatifs as f64 / lines.len() as f64;
        assert!((share - 0.05).abs() < 0.005, "what-if share {share}");

        let distinct: BTreeSet<(String, String, Option<u32>)> = lines
            .iter()
            .map(|l| {
                let r = Request::parse(&l.text).expect("generated lines parse");
                (r.benchmark.unwrap(), r.node.unwrap(), r.trace_repeats)
            })
            .collect();
        let cache = ramp_serve::CacheConfig::default();
        let capacity = cache.shards * cache.l1_per_shard + cache.l2_capacity;
        assert!(
            distinct.len() > capacity,
            "{} distinct keys",
            distinct.len()
        );

        for l in lines.iter().filter(|l| l.whatif) {
            let repeats = Request::parse(&l.text).unwrap().trace_repeats.unwrap();
            assert!(REPEATS.contains(&repeats));
        }
    }

    #[test]
    fn windows_divide_completions_evenly() {
        let outcome = LoopOutcome {
            done_s: (1..=2 * WINDOW + 7).map(|i| i as f64 * 0.001).collect(),
            ..LoopOutcome::default()
        };
        let rates = outcome.window_rates();
        assert_eq!(rates.len(), 2);
        assert!(rates.iter().all(|r| (r - 1000.0).abs() < 1e-6), "{rates:?}");
    }

    #[test]
    fn base_queries_favour_the_hot_keys() {
        let lines = request_lines(3, 0, 8000, &keys());
        let mut counts = std::collections::BTreeMap::new();
        for l in lines.iter().filter(|l| !l.whatif) {
            let r = Request::parse(&l.text).unwrap();
            *counts.entry((r.benchmark, r.node)).or_insert(0u32) += 1;
        }
        let mut sorted: Vec<u32> = counts.into_values().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1) over 80 keys: the top key takes ~20% of base queries.
        let base = (8000 - 400) as f64;
        assert!(
            (f64::from(sorted[0]) / base - 0.201).abs() < 0.03,
            "{sorted:?}"
        );
    }
}
