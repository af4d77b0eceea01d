//! `Cache::access` against a reference LRU model that keeps each set as a
//! list and moves tags with `remove` + `insert`: the two must agree on
//! every hit or miss and on the order of every set after every access.

use proptest::prelude::*;
use ramp_microarch::{Cache, CacheConfig};

/// The straightforward LRU: each set most recently used first, a hit
/// moved to the front, a miss inserted at the front and the last way
/// dropped when the set is full.
struct ReferenceLru {
    sets: Vec<Vec<u64>>,
    set_mask: u64,
    line_shift: u32,
    ways: usize,
}

impl ReferenceLru {
    fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        ReferenceLru {
            sets: vec![Vec::new(); sets as usize],
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            ways: config.ways as usize,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let tag = line >> self.set_mask.count_ones();
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, tag);
            false
        }
    }

    fn resident_tags(&self, addr: u64) -> &[u64] {
        &self.sets[((addr >> self.line_shift) & self.set_mask) as usize]
    }
}

/// Geometries from direct-mapped to 8-way, with 2 to 8 sets so that a
/// short stream revisits every set many times.
fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (0u32..4, 1u32..4).prop_map(|(ways_log2, sets_log2)| {
        let ways = 1u32 << ways_log2;
        CacheConfig {
            bytes: (64 * u64::from(ways)) << sets_log2,
            line_bytes: 64,
            ways,
            hit_latency: 1,
        }
    })
}

/// Addresses drawn from a small pool of lines (at most 3x the cache's
/// capacity), so the stream mixes cold fills, hits on every way and
/// evictions from full sets.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u64..96, 0u64..64), 1..600)
        .prop_map(|v| v.into_iter().map(|(line, byte)| line * 64 + byte).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn access_matches_the_remove_insert_reference(
        config in arb_config(),
        stream in arb_stream(),
    ) {
        let mut cache = Cache::new(&config);
        let mut reference = ReferenceLru::new(&config);
        for (i, &addr) in stream.iter().enumerate() {
            let hit = cache.access(addr);
            prop_assert_eq!(hit, reference.access(addr), "access {} to {:#x}", i, addr);
            prop_assert_eq!(cache.resident_tags(addr), reference.resident_tags(addr));
        }
        let hits = stream.len() as u64 - cache.misses();
        prop_assert_eq!(cache.hits(), hits);
    }
}

#[test]
fn every_way_of_a_full_set_hits_and_moves_to_mru() {
    // One set of four ways: fill it, then hit each way from LRU to MRU.
    let config = CacheConfig {
        bytes: 256,
        line_bytes: 64,
        ways: 4,
        hit_latency: 1,
    };
    let mut cache = Cache::new(&config);
    let mut reference = ReferenceLru::new(&config);
    let lines: Vec<u64> = (0..4).map(|l| l * 64).collect();
    for &addr in &lines {
        assert!(!cache.access(addr));
        assert!(!reference.access(addr));
    }
    assert_eq!(cache.resident_tags(0), [3, 2, 1, 0]);
    for _ in 0..2 {
        for way in (0..4).rev() {
            let addr = cache.resident_tags(0)[way] * 64;
            assert!(cache.access(addr), "hit on way {way}");
            assert!(reference.access(addr));
            assert_eq!(cache.resident_tags(0), reference.resident_tags(0));
            assert_eq!(cache.resident_tags(0)[0] * 64, addr);
        }
    }
    // A fifth line evicts the LRU way.
    let lru = cache.resident_tags(0)[3];
    assert!(!cache.access(4 * 64));
    assert!(!reference.access(4 * 64));
    assert_eq!(cache.resident_tags(0), reference.resident_tags(0));
    assert!(!cache.resident_tags(0).contains(&lru));
}
