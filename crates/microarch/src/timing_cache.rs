//! Process-wide cache of timing-pass results.
//!
//! The timing simulation of a benchmark depends only on the machine
//! configuration, the benchmark profile (trace generation is a pure
//! function of the profile, seed included), the simulation length, and
//! the activity-sampling interval. Study sweeps evaluate the same
//! benchmark at several technology nodes, and the nodes differ only in
//! the interval length: the engine's events are the same at every node,
//! and the interval merely sets where they are cut into buckets.
//!
//! So one lookup may name extra intervals. One engine run then buckets
//! the same events at the lookup's interval and at every extra interval
//! that is not yet resident (one [`ActivityCollector`](crate::ActivityCollector)
//! per interval, see [`simulate_grouped`]), and the cache inserts one
//! entry per key. A study's 180 nm reference lookup names the interval of
//! every other node, so the scaled nodes replay its run.
//!
//! The cache is keyed by fingerprints of the serialized machine config
//! and profile plus the two scalar parameters, holds results behind
//! `Arc` so hits are O(1) clones, evicts least-recently-used entries
//! beyond a fixed capacity, and deduplicates in-flight computations:
//! every entry points at the engine run that fills it, and a lookup of a
//! key whose run is still in flight blocks on that run's [`OnceLock`]
//! rather than simulating again. An entry shares its run's outputs with
//! the other entries of that run, which are freed with the last of them.
//! Results are bit-identical to a fresh [`simulate`](crate::simulate)
//! call at the key's interval by construction — the cache stores, it
//! never recomputes or approximates.

use crate::engine::{simulate_grouped, SimulationLength, SimulationOutput};
use crate::MachineConfig;
use ramp_trace::{BenchmarkProfile, TraceGenerator};
use std::collections::BTreeMap;
use std::collections::HashMap; // ramp-lint:allow(determinism) -- keyed lookup only; iteration order never reaches output
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Maximum retained entries. A full 16-benchmark × 5-node study touches
/// 64 distinct keys (the two 65 nm points share a frequency) filled by 16
/// engine runs, so the whole sweep fits with room for ablation variants.
pub const TIMING_CACHE_CAPACITY: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    machine: u64,
    profile: u64,
    length: (bool, u64),
    interval_cycles: u64,
}

impl Key {
    /// Canonical printable form of the full key: the two config
    /// fingerprints plus the scalar parameters. This is what run
    /// manifests record so a surprising hit rate can be traced back to
    /// the exact lookups that produced it.
    fn normalized(&self) -> String {
        format!(
            "m={:016x}/p={:016x}/{}/ic={}",
            self.machine,
            self.profile,
            length_label(self.length),
            self.interval_cycles
        )
    }

    /// The key *class*: the scalar parameters with the per-config
    /// fingerprints dropped. Lookups in one class differ only by machine
    /// or profile, so per-class hit/miss counters show which simulation
    /// shapes share work and which never can.
    fn class(&self) -> String {
        format!("{}/ic={}", length_label(self.length), self.interval_cycles)
    }

    /// The same key at another interval length.
    fn at(self, interval_cycles: u64) -> Key {
        Key {
            interval_cycles,
            ..self
        }
    }
}

fn length_label(length: (bool, u64)) -> String {
    let (cycles, n) = length;
    format!("len={}{n}", if cycles { "c" } else { "i" })
}

/// FNV-1a over the canonical JSON encoding; collisions are astronomically
/// unlikely across the handful of configs a process ever touches.
fn fingerprint<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("config types serialize infallibly"); // ramp-lint:allow(panic-hygiene) -- config types contain no non-serializable values
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One engine run and the entries it fills: slot 0 is `interval_cycles`,
/// slot `i + 1` is `extra_intervals[i]`.
struct Run {
    interval_cycles: u64,
    extra_intervals: Vec<u64>,
    /// One output per slot, set once by whichever caller runs the engine.
    outputs: OnceLock<Vec<Arc<SimulationOutput>>>,
}

impl Run {
    /// The run's outputs, simulating them first if no caller has yet;
    /// concurrent callers block on the one in-flight simulation. All the
    /// run's keys share `machine`, `profile` and `length`.
    fn outputs(
        &self,
        machine: &MachineConfig,
        profile: &BenchmarkProfile,
        length: SimulationLength,
    ) -> &[Arc<SimulationOutput>] {
        self.outputs.get_or_init(|| {
            let in_flight = ramp_obs::gauge("timing_cache.in_flight");
            in_flight.add(1.0);
            let ic = self.interval_cycles;
            let span = if self.extra_intervals.is_empty() {
                ramp_obs::span!("timing_sim", "interval_cycles={ic}")
            } else {
                let extra = &self.extra_intervals;
                ramp_obs::span!("timing_sim", "interval_cycles={ic} extra_intervals={extra:?}")
            };
            let (first, rest) = simulate_grouped(
                machine,
                TraceGenerator::new(profile),
                length,
                ic,
                &self.extra_intervals,
            );
            drop(span);
            in_flight.add(-1.0);
            std::iter::once(first).chain(rest).map(Arc::new).collect()
        })
    }
}

struct Entry {
    run: Arc<Run>,
    /// This key's slot in `run`.
    slot: usize,
    last_used: u64,
}

struct CacheState {
    map: HashMap<Key, Entry>, // ramp-lint:allow(determinism) -- keyed lookup only; iteration order never reaches output
    tick: u64,
}

impl CacheState {
    /// Starts a run over `interval_cycles` and `extra_intervals` of `key`
    /// and inserts one in-flight entry per interval.
    fn start_run(
        &mut self,
        key: Key,
        interval_cycles: u64,
        extra_intervals: Vec<u64>,
        tick: u64,
    ) -> Arc<Run> {
        let run = Arc::new(Run {
            interval_cycles,
            extra_intervals,
            outputs: OnceLock::new(),
        });
        let intervals = std::iter::once(interval_cycles).chain(run.extra_intervals.iter().copied());
        for (slot, ic) in intervals.enumerate() {
            let entry = Entry {
                run: Arc::clone(&run),
                slot,
                last_used: tick,
            };
            self.map.insert(key.at(ic), entry);
        }
        run
    }
}

/// The cache map. Its lock guards bookkeeping only (no simulation runs
/// under it), so a poisoned lock still holds a consistent map.
static CACHE: Mutex<Option<CacheState>> = Mutex::new(None);
static HITS: AtomicU64 = AtomicU64::new(0); // ramp-lint:allow(atomic-ordering) -- monotone Relaxed telemetry counters
static MISSES: AtomicU64 = AtomicU64::new(0); // ramp-lint:allow(atomic-ordering) -- monotone Relaxed telemetry counters
/// Per-key-class (hits, misses), keyed by [`Key::class`]. BTreeMap so
/// snapshots come out in a stable order.
static CLASS_STATS: Mutex<BTreeMap<String, (u64, u64)>> = Mutex::new(BTreeMap::new());

fn cache() -> MutexGuard<'static, Option<CacheState>> {
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a [`simulate_profile_cached_traced`] lookup was served from
/// the cache or had to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Every requested key was already resident (or in flight on another
    /// worker).
    Hit,
    /// This lookup started an engine run.
    Miss,
}

impl CacheOutcome {
    /// Stable lowercase label (`"hit"` / `"miss"`), as used in span args.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One key class's cache counters (see [`timing_cache_class_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingCacheClassStats {
    /// The class label: simulation length + interval cycles, e.g.
    /// `len=i200000/ic=1100`.
    pub class: String,
    /// Lookups in this class served from the cache.
    pub hits: u64,
    /// Lookups in this class that started an engine run.
    pub misses: u64,
}

/// Per-key-class hit/miss counters, in stable (sorted) class order.
/// A class groups lookups by simulation length and by the interval the
/// lookup asked for (extra intervals are not counted), so a low
/// aggregate hit rate decomposes into "which shapes never coalesce".
pub fn timing_cache_class_stats() -> Vec<TimingCacheClassStats> {
    let guard = CLASS_STATS.lock().unwrap_or_else(PoisonError::into_inner);
    guard
        .iter()
        .map(|(class, &(hits, misses))| TimingCacheClassStats {
            class: class.clone(),
            hits,
            misses,
        })
        .collect()
}

/// Counters describing cache effectiveness, for study summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingCacheStats {
    /// Lookups that started no engine run: every key they named was
    /// already resident (possibly in flight).
    pub hits: u64,
    /// Lookups that started an engine run; equal to the number of runs.
    pub misses: u64,
    /// Entries currently retained.
    pub entries: usize,
}

/// Current process-wide cache counters.
pub fn timing_cache_stats() -> TimingCacheStats {
    let guard = cache();
    TimingCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: guard.as_ref().map_or(0, |s| s.map.len()),
    }
}

/// Empties the cache and zeroes the counters (tests, benchmarks).
pub fn clear_timing_cache() {
    let mut guard = cache();
    *guard = None;
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    CLASS_STATS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Runs (or replays) the timing pass for a benchmark profile.
///
/// Returns exactly what
/// `simulate(machine, TraceGenerator::new(profile), length, interval_cycles)`
/// would, behind an `Arc`; the first caller per key simulates and later
/// callers share the stored result. Concurrent callers with the same key
/// block on the in-flight computation instead of duplicating it.
pub fn simulate_profile_cached(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    length: SimulationLength,
    interval_cycles: u64,
) -> Arc<SimulationOutput> {
    simulate_profile_cached_traced(machine, profile, length, interval_cycles).0
}

/// [`simulate_profile_cached`] plus cache visibility: also returns
/// whether this lookup hit, and the normalized cache key it resolved to
/// (for span args and run-manifest cache stats).
pub fn simulate_profile_cached_traced(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    length: SimulationLength,
    interval_cycles: u64,
) -> (Arc<SimulationOutput>, CacheOutcome, String) {
    simulate_profile_cached_grouped(machine, profile, length, interval_cycles, &[])
}

/// [`simulate_profile_cached_traced`] that also fills the cache at
/// `extra_intervals`: every requested key that is not resident joins one
/// engine run, which inserts one entry per key. When every key is
/// resident the lookup runs nothing. Returns the output at
/// `interval_cycles`, as [`simulate_profile_cached_traced`] does; it is
/// [`CacheOutcome::Miss`] exactly when this lookup started a run.
pub fn simulate_profile_cached_grouped(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    length: SimulationLength,
    interval_cycles: u64,
    extra_intervals: &[u64],
) -> (Arc<SimulationOutput>, CacheOutcome, String) {
    let key = Key {
        machine: fingerprint(machine),
        profile: fingerprint(profile),
        length: match length {
            SimulationLength::Instructions(n) => (false, n),
            SimulationLength::Cycles(c) => (true, c),
        },
        interval_cycles,
    };

    let (run, slot, started, outcome) = {
        let mut guard = cache();
        let state = guard.get_or_insert_with(|| CacheState {
            map: HashMap::new(), // ramp-lint:allow(determinism) -- keyed lookup only; iteration order never reaches output
            tick: 0,
        });
        state.tick += 1;
        let tick = state.tick;
        let resident = state.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            (Arc::clone(&entry.run), entry.slot)
        });
        let mut fresh: Vec<u64> = Vec::new();
        for &ic in extra_intervals {
            match state.map.get_mut(&key.at(ic)) {
                Some(entry) => entry.last_used = tick,
                None if ic != interval_cycles && !fresh.contains(&ic) => fresh.push(ic),
                None => {}
            }
        }
        let (run, slot, started) = match (resident, fresh.split_first()) {
            (Some((run, slot)), None) => (run, slot, None),
            (Some((run, slot)), Some((&first, rest))) => {
                let started = state.start_run(key, first, rest.to_vec(), tick);
                (run, slot, Some(started))
            }
            (None, _) => {
                let started = state.start_run(key, interval_cycles, fresh, tick);
                (Arc::clone(&started), 0, Some(started))
            }
        };
        let outcome = if started.is_some() {
            MISSES.fetch_add(1, Ordering::Relaxed);
            ramp_obs::counter("timing_cache.misses").incr();
            CacheOutcome::Miss
        } else {
            HITS.fetch_add(1, Ordering::Relaxed);
            ramp_obs::counter("timing_cache.hits").incr();
            CacheOutcome::Hit
        };
        {
            let mut classes = CLASS_STATS.lock().unwrap_or_else(PoisonError::into_inner);
            let counts = classes.entry(key.class()).or_insert((0, 0));
            match outcome {
                CacheOutcome::Hit => counts.0 += 1,
                CacheOutcome::Miss => counts.1 += 1,
            }
        }
        while state.map.len() > TIMING_CACHE_CAPACITY {
            // Evict the least-recently-used completed entry; in-flight
            // entries survive because their run is still to finish.
            let victim = state
                .map
                .iter()
                .filter(|(k, e)| e.run.outputs.get().is_some() && **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    state.map.remove(&k);
                }
                None => break,
            }
        }
        ramp_obs::gauge("timing_cache.entries").set(state.map.len() as f64);
        (run, slot, started, outcome)
    };

    // Simulations run outside the map lock so other keys proceed in
    // parallel; each run's `OnceLock` serializes the callers of its keys.
    // A run this lookup started executes here even when the requested key
    // was resident already, so its extra keys are filled eagerly.
    if let Some(started) = started {
        started.outputs(machine, profile, length);
    }
    let outputs = run.outputs(machine, profile, length);
    let output = Arc::clone(&outputs[slot]); // ramp-lint:allow(panic-reach) -- a run holds one output per slot and `slot` is one of its slots
    (output, outcome, key.normalized())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use ramp_trace::spec;

    /// Serializes access across the tests in this module: they observe
    /// and reset process-global counters.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn hit_returns_identical_output() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gzip").unwrap();
        let fresh = simulate(
            &machine,
            TraceGenerator::new(&profile),
            SimulationLength::Instructions(20_000),
            1_100,
        );
        let a = simulate_profile_cached(
            &machine,
            &profile,
            SimulationLength::Instructions(20_000),
            1_100,
        );
        let b = simulate_profile_cached(
            &machine,
            &profile,
            SimulationLength::Instructions(20_000),
            1_100,
        );
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the stored Arc");
        assert_eq!(format!("{:?}", *a), format!("{fresh:?}"));
        let stats = timing_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_interval_lengths_are_distinct_keys() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("ammp").unwrap();
        let a = simulate_profile_cached(
            &machine,
            &profile,
            SimulationLength::Instructions(10_000),
            1_100,
        );
        let b = simulate_profile_cached(
            &machine,
            &profile,
            SimulationLength::Instructions(10_000),
            1_650,
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(timing_cache_stats().misses, 2);
    }

    #[test]
    fn concurrent_same_key_simulates_once() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gcc").unwrap();
        let outputs: Vec<Arc<SimulationOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        simulate_profile_cached(
                            &machine,
                            &profile,
                            SimulationLength::Instructions(15_000),
                            2_000,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in &outputs[1..] {
            assert!(Arc::ptr_eq(&outputs[0], out));
        }
        let stats = timing_cache_stats();
        assert_eq!(stats.misses, 1, "one thread simulated");
        assert_eq!(stats.hits, 7, "the rest shared it");
    }

    #[test]
    fn traced_lookup_reports_outcome_key_and_classes() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gzip").unwrap();
        let (_, first, key_a) = simulate_profile_cached_traced(
            &machine,
            &profile,
            SimulationLength::Instructions(5_000),
            1_100,
        );
        let (_, second, key_b) = simulate_profile_cached_traced(
            &machine,
            &profile,
            SimulationLength::Instructions(5_000),
            1_100,
        );
        assert_eq!(first, CacheOutcome::Miss);
        assert_eq!(second, CacheOutcome::Hit);
        assert_eq!(first.as_str(), "miss");
        assert_eq!(key_a, key_b, "same lookup normalizes to the same key");
        assert!(key_a.contains("/len=i5000/ic=1100"), "{key_a}");
        // A different interval is a different class.
        let (_, _, key_c) = simulate_profile_cached_traced(
            &machine,
            &profile,
            SimulationLength::Instructions(5_000),
            1_650,
        );
        assert_ne!(key_a, key_c);
        let classes = timing_cache_class_stats();
        assert_eq!(classes.len(), 2);
        let c1100 = classes
            .iter()
            .find(|c| c.class == "len=i5000/ic=1100")
            .expect("class present");
        assert_eq!((c1100.hits, c1100.misses), (1, 1));
        let c1650 = classes
            .iter()
            .find(|c| c.class == "len=i5000/ic=1650")
            .expect("class present");
        assert_eq!((c1650.hits, c1650.misses), (0, 1));
    }

    #[test]
    fn eviction_keeps_recently_used_entries() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("mesa").unwrap();
        // Fill past capacity using distinct interval lengths as keys.
        for i in 0..(TIMING_CACHE_CAPACITY as u64 + 8) {
            simulate_profile_cached(
                &machine,
                &profile,
                SimulationLength::Instructions(2_000),
                1_000 + i,
            );
        }
        let stats = timing_cache_stats();
        assert!(stats.entries <= TIMING_CACHE_CAPACITY);
        // The most recent key must still be resident: re-requesting it is
        // a hit, not a re-simulation.
        let misses_before = stats.misses;
        simulate_profile_cached(
            &machine,
            &profile,
            SimulationLength::Instructions(2_000),
            1_000 + TIMING_CACHE_CAPACITY as u64 + 7,
        );
        assert_eq!(timing_cache_stats().misses, misses_before);
    }

    /// The study's interval lengths (1 µs at the four node clocks).
    const NODE_INTERVALS: [u64; 4] = [1_100, 1_350, 1_650, 2_000];

    #[test]
    fn grouped_lookup_runs_once_under_concurrent_single_lookups() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gcc").unwrap();
        let length = SimulationLength::Instructions(60_000);
        let (grouped, singles) = std::thread::scope(|scope| {
            let grouped = scope.spawn(|| {
                simulate_profile_cached_grouped(
                    &machine,
                    &profile,
                    length,
                    NODE_INTERVALS[0],
                    &NODE_INTERVALS[1..],
                )
            });
            let singles: Vec<_> = (1..8)
                .map(|i| {
                    let ic = NODE_INTERVALS[i % NODE_INTERVALS.len()];
                    let (machine, profile) = (&machine, &profile);
                    scope.spawn(move || {
                        // Look up only once the grouped lookup has entered
                        // its keys, so each single lookup finds its key in
                        // flight (or done) and must not simulate again.
                        while timing_cache_stats().entries < NODE_INTERVALS.len() {
                            std::thread::yield_now();
                        }
                        (ic, simulate_profile_cached(machine, profile, length, ic))
                    })
                })
                .collect();
            (
                grouped.join().unwrap(),
                singles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>(),
            )
        });
        assert_eq!(grouped.1, CacheOutcome::Miss);
        let stats = timing_cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 7), "one engine run for all 8 lookups");
        assert_eq!(stats.entries, NODE_INTERVALS.len());
        for ic in NODE_INTERVALS {
            let resident = simulate_profile_cached(&machine, &profile, length, ic);
            if ic == NODE_INTERVALS[0] {
                assert!(Arc::ptr_eq(&resident, &grouped.0));
            }
            for (_, out) in singles.iter().filter(|(single_ic, _)| *single_ic == ic) {
                assert!(Arc::ptr_eq(&resident, out), "ic={ic}: one shared output per key");
            }
            assert_eq!(resident.activity.interval_cycles(), ic);
        }
        assert_eq!(timing_cache_stats().misses, 1);
    }

    #[test]
    fn grouped_lookup_of_resident_keys_runs_nothing() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("ammp").unwrap();
        let length = SimulationLength::Instructions(8_000);
        let singles: Vec<_> = NODE_INTERVALS
            .iter()
            .map(|&ic| simulate_profile_cached(&machine, &profile, length, ic))
            .collect();
        assert_eq!(timing_cache_stats().misses, 4);
        let (out, outcome, _) = simulate_profile_cached_grouped(
            &machine,
            &profile,
            length,
            NODE_INTERVALS[2],
            &NODE_INTERVALS,
        );
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&out, &singles[2]));
        let stats = timing_cache_stats();
        assert_eq!((stats.misses, stats.hits), (4, 1), "no engine run");
    }

    #[test]
    fn grouped_lookup_runs_only_the_missing_keys() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gzip").unwrap();
        let length = SimulationLength::Instructions(8_000);
        let primary = simulate_profile_cached(&machine, &profile, length, 1_100);
        // The primary is resident, 1650 is named twice: one run fills the
        // three missing keys, once each.
        let (out, outcome, _) = simulate_profile_cached_grouped(
            &machine,
            &profile,
            length,
            1_100,
            &[1_650, 2_000, 1_650, 1_350, 1_100],
        );
        assert_eq!(outcome, CacheOutcome::Miss);
        assert!(Arc::ptr_eq(&out, &primary));
        let stats = timing_cache_stats();
        assert_eq!((stats.misses, stats.entries), (2, 4));
        for ic in [1_350, 1_650, 2_000] {
            let cached = simulate_profile_cached(&machine, &profile, length, ic);
            let fresh = simulate(&machine, TraceGenerator::new(&profile), length, ic);
            assert_eq!(cached.stats, fresh.stats);
            assert_eq!(cached.activity, fresh.activity);
        }
        assert_eq!(timing_cache_stats().misses, 2, "the extra keys were filled eagerly");
    }
}
