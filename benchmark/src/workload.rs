//! What every workload reports, and the timing phase shared by their
//! traced runs.

use crate::host;
use crate::stats::median;
use crate::tracer::Tracer;
use ramp_core::{Executor, NodeId, TechNode};
use ramp_microarch::{
    simulate_profile_cached_traced, timing_cache_stats, MachineConfig, SimulationLength,
};
use ramp_trace::BenchmarkProfile;
use ramp_units::Seconds;
use std::time::Instant;

/// Threads of load: the study executor, the fleet executor, the serve
/// dispatcher and the serve callers each use this many. One, because two
/// busy threads on a 2-vCPU host contend with each other: fleet runs at
/// two threads drifted over 28% (quartile spread) within minutes, at one
/// thread 7%.
pub const THREADS: usize = 1;

/// Output checks of one run: each check is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `describe` runs only when it failed.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(describe());
            }
        }
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each repetition of the workload's set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Work items per second of each timed operation, or of each window of
    /// operations; the median is reported, so one stalled operation does
    /// not move it.
    pub rates: Vec<f64>,
    /// Work items completed in the timed part.
    pub items: u64,
    /// What one work item is, for the report.
    pub item: &'static str,
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    /// Output checks.
    pub checks: Checks,
    /// Output digests, for the run record.
    pub digests: Vec<(String, String)>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

/// Rounds of the traced mode. Each runs the operation untraced, then
/// traced, and medians are reported: one operation against one other
/// differed by up to 22% on a noisy host.
pub const TRACE_ROUNDS: usize = 3;

/// A named output digest, such as `("results_digest", "874190a1…")`.
pub type Digest = (&'static str, String);

/// A workload operation that the traced mode splits into layers from the
/// outside.
///
/// The traced operation starts from the same timing-cache state as the
/// untraced one. Phase 1 resolves, through the timing layer, every timing
/// key the operation will look up; phase 2 runs the operation itself,
/// which must then find every key cached.
pub trait Operation {
    /// Restores the state the operation starts from.
    fn prepare(&mut self);
    /// The timing lookups the operation makes, in the sweeps it makes
    /// them.
    fn timing_sweeps(&self) -> Result<Vec<Vec<TimingKey>>, String>;
    /// Runs the operation once, with spans under the given parent when
    /// traced; returns its output digest when it has one.
    fn run(&mut self, tracer: Option<(&Tracer, u64)>) -> Result<Option<Digest>, String>;
    /// Checks made along the way and after the last run.
    fn finish(&mut self) -> Checks;
}

/// Alternates [`TRACE_ROUNDS`] untraced and traced runs of `op`, with the
/// traced runs recorded under root spans named `name`.
pub fn trace_operation(
    op: &mut impl Operation,
    name: &str,
    tracer: &Tracer,
) -> Result<Traced, String> {
    let mut t = Traced::default();
    let (mut walls, mut cpu, mut timing, mut warm) = (vec![], vec![], vec![], vec![]);
    for _ in 0..TRACE_ROUNDS {
        op.prepare();
        let cpu_before = host::cpu_seconds().unwrap_or(0.0);
        let started = Instant::now();
        let digest = op.run(None)?;
        walls.push(started.elapsed().as_secs_f64());
        cpu.push(host::cpu_seconds().unwrap_or(0.0) - cpu_before);

        op.prepare();
        let root = tracer.open(name, 0);
        let phase = tracer.open("timing_phase", root.id());
        (t.timing_lookups, t.timing_misses) = (0, 0);
        for keys in op.timing_sweeps()? {
            let (lookups, misses) = resolve_timing(&keys, Some((tracer, phase.id())));
            t.timing_lookups += lookups;
            t.timing_misses += misses;
        }
        timing.push(phase.close());
        let mut phase = tracer.open("warm_phase", root.id());
        let before = timing_cache_stats();
        let warm_digest = op.run(Some((tracer, phase.id())));
        let warm_misses = misses_since(before);
        phase.arg("timing_misses", warm_misses);
        warm.push(phase.close());
        root.close();
        check_warm(&mut t.checks, warm_digest, &digest, warm_misses);
        t.digests = digest
            .into_iter()
            .map(|(n, d)| (n.to_string(), d))
            .collect();
    }
    t.untraced_s = median(&walls);
    t.untraced_cpu_s = median(&cpu);
    t.timing_phase_s = median(&timing);
    t.warm_phase_s = median(&warm);
    t.checks.absorb(op.finish());
    Ok(t)
}

/// One operation of a workload split into layers from the outside, as
/// medians over [`TRACE_ROUNDS`]; see [`Operation`].
#[derive(Debug, Default)]
pub struct Traced {
    /// Wall of the untraced operation, seconds.
    pub untraced_s: f64,
    /// CPU seconds the process used during the untraced operation.
    pub untraced_cpu_s: f64,
    /// Phase 1 wall, seconds.
    pub timing_phase_s: f64,
    /// Phase 2 wall, seconds.
    pub warm_phase_s: f64,
    /// Timing-cache lookups in phase 1 (the same every round).
    pub timing_lookups: u64,
    /// Timing-cache misses in phase 1 (the same every round).
    pub timing_misses: u64,
    /// Output checks of every run.
    pub checks: Checks,
    /// Output digests of the untraced operation, for the run record.
    pub digests: Vec<(String, String)>,
}

impl Traced {
    /// Share of the untraced operation's wall the two phases account for.
    pub fn coverage(&self) -> f64 {
        (self.timing_phase_s + self.warm_phase_s) / self.untraced_s
    }
}

/// One timing-layer lookup: a benchmark at a node's interval length.
#[derive(Debug, Clone)]
pub struct TimingKey {
    /// Benchmark profile.
    pub profile: BenchmarkProfile,
    /// Activity interval, cycles (1 µs at the node's clock).
    pub interval_cycles: u64,
    /// Simulated instructions.
    pub instructions: u64,
}

/// The timing lookups of `benchmarks` × `nodes`, as the pipeline makes
/// them.
pub fn timing_keys(
    benchmarks: &[BenchmarkProfile],
    nodes: &[NodeId],
    instructions: u64,
) -> Vec<TimingKey> {
    benchmarks
        .iter()
        .flat_map(|profile| {
            nodes.iter().map(move |&node| TimingKey {
                profile: profile.clone(),
                interval_cycles: TechNode::get(node)
                    .frequency
                    .cycles_in(Seconds::MICROSECOND),
                instructions,
            })
        })
        .collect()
}

/// Resolves `keys` through the timing cache on [`THREADS`] workers, one
/// span per lookup under `parent`. Returns `(lookups, misses)`.
pub fn resolve_timing(keys: &[TimingKey], tracer: Option<(&Tracer, u64)>) -> (u64, u64) {
    let machine = MachineConfig::power4_180nm();
    let before = timing_cache_stats();
    Executor::new(THREADS).map(keys, |key| {
        let span = tracer.map(|(t, parent)| t.open("timing", parent));
        let (_, outcome, _) = simulate_profile_cached_traced(
            &machine,
            &key.profile,
            SimulationLength::Instructions(key.instructions),
            key.interval_cycles,
        );
        if let Some(mut span) = span {
            span.arg("benchmark", &key.profile.name);
            span.arg("interval_cycles", key.interval_cycles);
            span.arg("cache", outcome.as_str());
            span.close();
        }
    });
    let after = timing_cache_stats();
    (
        (after.hits + after.misses) - (before.hits + before.misses),
        after.misses - before.misses,
    )
}

/// Timing-cache misses since `before` was read.
fn misses_since(before: ramp_microarch::TimingCacheStats) -> u64 {
    timing_cache_stats().misses - before.misses
}

/// Phase 2 must find every timing key cached and reproduce the untraced
/// operation's output digest; anything else means the traced operation
/// did different work, for instance because the key derivation drifted.
fn check_warm(
    checks: &mut Checks,
    warm: Result<Option<Digest>, String>,
    digest: &Option<Digest>,
    misses: u64,
) {
    checks.check(misses == 0, || {
        format!("warm phase missed the timing cache {misses} times")
    });
    match warm {
        Ok(warm) => checks.check(warm == *digest, || {
            format!("warm phase digest {warm:?} != untraced {digest:?}")
        }),
        Err(e) => checks.check(false, || format!("warm phase failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_digest_mismatch_is_a_failure() {
        let digest = |d: &str| Some(("results_digest", d.to_string()));
        let mut checks = Checks::default();
        check_warm(&mut checks, Ok(digest("aaaa")), &digest("aaaa"), 0);
        assert_eq!((checks.attempted, checks.failed), (2, 0));
        check_warm(&mut checks, Ok(digest("bbbb")), &digest("aaaa"), 0);
        assert_eq!((checks.attempted, checks.failed), (4, 1));
        check_warm(&mut checks, Ok(digest("aaaa")), &digest("aaaa"), 3);
        assert_eq!((checks.attempted, checks.failed), (6, 2));
        check_warm(&mut checks, Err("boom".to_string()), &digest("aaaa"), 0);
        assert_eq!((checks.attempted, checks.failed), (8, 3));
        check_warm(&mut checks, Ok(None), &None, 0);
        assert_eq!((checks.attempted, checks.failed), (10, 3));
    }
}
