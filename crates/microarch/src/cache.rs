//! Set-associative cache models with true LRU replacement.

use crate::config::CacheConfig;

/// Outcome level of a memory-hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Hit in the first-level cache probed.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed the entire hierarchy; served from main memory.
    Memory,
}

/// A single set-associative cache with LRU replacement.
///
/// Tags are stored per set, most-recently-used first, so a hit is a linear
/// probe over `ways` entries (small constants: 2–8 ways here).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<u64>>,
    set_mask: u64,
    line_shift: u32,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]).
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            sets: vec![Vec::with_capacity(config.ways as usize); sets as usize],
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            ways: config.ways as usize,
            hits: 0,
            misses: 0,
        }
    }

    /// Probes and updates the cache for `addr`; returns `true` on hit.
    ///
    /// On a miss the line is filled, evicting the LRU way if the set is
    /// full.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        // ramp-lint:allow(panic-reach) -- `set_idx` is masked by the set count
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Rotate the ways up to the hit one round, so it lands at MRU
            // and the more recent ones each move down a way.
            if let Some(ways) = set.get_mut(..=pos) {
                ways.rotate_right(1);
            }
            self.hits += 1;
            true
        } else {
            if set.len() < self.ways {
                // Cold fill, at most `ways` per set: the set was reserved
                // at `ways`, so this shifts but never reallocates.
                set.insert(0, tag);
            } else if let Some(lru) = set.last_mut() {
                // Overwrite the LRU way and rotate it round to MRU.
                *lru = tag;
                set.rotate_right(1);
            }
            self.misses += 1;
            false
        }
    }

    /// Tags resident in the set that `addr` maps to, most recently used
    /// first.
    #[must_use]
    pub fn resident_tags(&self, addr: u64) -> &[u64] {
        let line = addr >> self.line_shift;
        self.sets
            .get((line & self.set_mask) as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Total hits since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all accesses so far (0 if never accessed).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// The data-side hierarchy: L1D backed by the unified L2.
///
/// # Examples
///
/// ```
/// use ramp_microarch::{DataHierarchy, MachineConfig, HitLevel};
/// let cfg = MachineConfig::power4_180nm();
/// let mut h = DataHierarchy::new(&cfg);
/// assert_eq!(h.access(0x1000), HitLevel::Memory); // cold miss
/// assert_eq!(h.access(0x1000), HitLevel::L1);     // now resident
/// ```
#[derive(Debug, Clone)]
pub struct DataHierarchy {
    l1: Cache,
    l2: Cache,
    l1_latency: u32,
    l2_latency: u32,
    memory_latency: u32,
}

impl DataHierarchy {
    /// Builds the hierarchy from a machine configuration.
    #[must_use]
    pub fn new(config: &crate::MachineConfig) -> Self {
        DataHierarchy {
            l1: Cache::new(&config.l1d),
            l2: Cache::new(&config.l2),
            l1_latency: config.l1d.hit_latency,
            l2_latency: config.l2.hit_latency,
            memory_latency: config.memory_latency,
        }
    }

    /// Accesses `addr`, updating both levels, and reports where it hit.
    pub fn access(&mut self, addr: u64) -> HitLevel {
        if self.l1.access(addr) {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else {
            HitLevel::Memory
        }
    }

    /// Load-to-use latency for a given hit level.
    #[must_use]
    pub fn latency(&self, level: HitLevel) -> u32 {
        match level {
            HitLevel::L1 => self.l1_latency,
            HitLevel::L2 => self.l2_latency,
            HitLevel::Memory => self.memory_latency,
        }
    }

    /// L1D statistics `(hits, misses)`.
    #[must_use]
    pub fn l1_stats(&self) -> (u64, u64) {
        (self.l1.hits(), self.l1.misses())
    }

    /// L2 statistics `(hits, misses)` — L2 sees only L1 misses.
    #[must_use]
    pub fn l2_stats(&self) -> (u64, u64) {
        (self.l2.hits(), self.l2.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn small() -> CacheConfig {
        CacheConfig {
            bytes: 1024,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(&small());
        assert!(!c.access(0x0));
        assert!(c.access(0x0));
        assert!(c.access(0x3f)); // same line
        assert!(!c.access(0x40)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let cfg = small(); // 8 sets, 2 ways
        let mut c = Cache::new(&cfg);
        let set_stride = 64 * 8; // same set every 512 bytes
        let a = 0u64;
        let b = a + set_stride;
        let d = b + set_stride;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is MRU now
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn miss_rate_accounting() {
        let mut c = Cache::new(&small());
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(4096 * 64);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_latencies_match_table2() {
        let h = DataHierarchy::new(&MachineConfig::power4_180nm());
        assert_eq!(h.latency(HitLevel::L1), 2);
        assert_eq!(h.latency(HitLevel::L2), 20);
        assert_eq!(h.latency(HitLevel::Memory), 102);
    }

    #[test]
    fn l2_catches_l1_capacity_misses() {
        let cfg = MachineConfig::power4_180nm();
        let mut h = DataHierarchy::new(&cfg);
        // Touch 64 KiB (2× L1D) twice: second pass should hit L2, not memory.
        let lines = (64 << 10) / u64::from(cfg.l1d.line_bytes);
        for i in 0..lines {
            h.access(i * u64::from(cfg.l1d.line_bytes));
        }
        let mut l2_hits = 0;
        for i in 0..lines {
            if h.access(i * u64::from(cfg.l1d.line_bytes)) == HitLevel::L2 {
                l2_hits += 1;
            }
        }
        assert!(
            l2_hits > lines / 2,
            "expected most second-pass accesses to hit L2, got {l2_hits}/{lines}"
        );
    }

    #[test]
    fn working_set_in_l1_stays_in_l1() {
        let cfg = MachineConfig::power4_180nm();
        let mut h = DataHierarchy::new(&cfg);
        let lines = (16 << 10) / u64::from(cfg.l1d.line_bytes);
        for pass in 0..3 {
            for i in 0..lines {
                let lvl = h.access(i * u64::from(cfg.l1d.line_bytes));
                if pass > 0 {
                    assert_eq!(lvl, HitLevel::L1);
                }
            }
        }
    }
}
