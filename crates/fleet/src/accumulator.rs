//! Streaming, merge-invariant population statistics.
//!
//! A million-chip fleet cannot keep a million failure times around just to
//! sort them — and more subtly, it cannot keep *floating-point sums* in
//! its mergeable state, because float addition is not associative and the
//! chunked/unchunked and 1-thread/8-thread reductions would then differ in
//! the last bits, breaking the byte-identity contract. The accumulator
//! therefore stores only:
//!
//! * integer counts in log-spaced failure-time bins (quantile estimation),
//! * exact integer failure counts at whole-year marks (DPPM and warranty
//!   curves),
//! * integer per-mechanism kill counts,
//! * order-invariant `f64` min/max.
//!
//! Every piece of state is merge-invariant: merging per-chunk accumulators
//! in any grouping yields bit-identical state to one accumulator fed every
//! chip, so the reduction order genuinely cannot matter. Memory is
//! O(bins), independent of fleet size.
//!
//! Quantile accuracy: bins are log-spaced at [`BINS_PER_DECADE`] per
//! decade over [`MIN_YEARS`, `MAX_YEARS`], so a reported quantile is exact
//! in rank and within a bin width (~2.3 %) in value, with deterministic
//! within-bin geometric interpolation and clamping to the exact observed
//! min/max.

use ramp_core::mechanisms::MechanismKind;
use ramp_units::Probability;
use serde::{Deserialize, Serialize};

/// Lower edge of the binned range (≈ 9 hours).
pub const MIN_YEARS: f64 = 1e-3;
/// Upper edge of the binned range (10 000 years; beyond it, overflow).
pub const MAX_YEARS: f64 = 1e4;
/// Log-resolution of the quantile bins.
pub const BINS_PER_DECADE: usize = 100;
/// Total number of finite bins (7 decades).
pub const BIN_COUNT: usize = 7 * BINS_PER_DECADE;
/// Warranty horizon: exact failure counts at years 1..=[`YEAR_MARKS`].
pub const YEAR_MARKS: usize = 30;

/// Streaming population accumulator. See the module docs for the
/// merge-invariance design.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationAccumulator {
    bins: Vec<u64>,
    below: u64,
    above: u64,
    total: u64,
    /// `year_buckets[i]` counts failures in years `(i, i+1]` (index 30
    /// collects everything past the warranty horizon).
    year_buckets: [u64; YEAR_MARKS + 1],
    killer_counts: [u64; MechanismKind::COUNT],
    min_years: f64,
    max_years: f64,
}

impl Default for PopulationAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl PopulationAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        PopulationAccumulator {
            bins: vec![0; BIN_COUNT],
            below: 0,
            above: 0,
            total: 0,
            year_buckets: [0; YEAR_MARKS + 1],
            killer_counts: [0; MechanismKind::COUNT],
            min_years: f64::INFINITY,
            max_years: f64::NEG_INFINITY,
        }
    }

    /// The log-spaced bin index for a failure time, or `None` when it
    /// falls outside the binned range.
    fn bin_index(years: f64) -> Option<usize> {
        if !(MIN_YEARS..MAX_YEARS).contains(&years) {
            return None;
        }
        let idx = ((years / MIN_YEARS).log10() * BINS_PER_DECADE as f64) as usize;
        Some(idx.min(BIN_COUNT - 1))
    }

    /// The lower edge of bin `i`, in years.
    fn bin_lower(i: usize) -> f64 {
        MIN_YEARS * 10f64.powf(i as f64 / BINS_PER_DECADE as f64)
    }

    /// Records one chip.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite-negative failure time (`f64::MAX`, meaning
    /// "never fails", is accepted and lands in the overflow region).
    pub fn record(&mut self, failure_years: f64, killer: MechanismKind) {
        assert!(
            failure_years >= 0.0 && !failure_years.is_nan(),
            "failure time must be non-negative, got {failure_years}"
        );
        self.total += 1;
        // ramp-lint:allow(panic-reach) -- `MechanismKind::index()` is below the mechanism count by definition
        self.killer_counts[killer.index()] += 1;
        match Self::bin_index(failure_years) {
            Some(i) => self.bins[i] += 1, // ramp-lint:allow(panic-reach) -- `bin_index` only returns in-range bins
            None if failure_years < MIN_YEARS => self.below += 1,
            None => self.above += 1,
        }
        let year = failure_years.ceil().max(1.0);
        let bucket = if year > YEAR_MARKS as f64 {
            YEAR_MARKS
        } else {
            year as usize - 1
        };
        self.year_buckets[bucket] += 1; // ramp-lint:allow(panic-reach) -- `bin_index` only returns in-range bins
        self.min_years = self.min_years.min(failure_years);
        self.max_years = self.max_years.max(failure_years);
    }

    /// Merges another accumulator into this one. Associative and
    /// commutative over the full state, which is what makes chunked
    /// parallel reduction byte-identical to a serial pass.
    pub fn merge(&mut self, other: &PopulationAccumulator) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.below += other.below;
        self.above += other.above;
        self.total += other.total;
        for (a, b) in self.year_buckets.iter_mut().zip(&other.year_buckets) {
            *a += b;
        }
        for (a, b) in self.killer_counts.iter_mut().zip(&other.killer_counts) {
            *a += b;
        }
        self.min_years = self.min_years.min(other.min_years);
        self.max_years = self.max_years.max(other.max_years);
    }

    /// Number of recorded chips.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The earliest recorded failure, in years (`None` when empty).
    #[must_use]
    pub fn min_years(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min_years)
    }

    /// The latest recorded failure, in years (`None` when empty).
    #[must_use]
    pub fn max_years(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max_years)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the failure-time
    /// distribution, in years. Rank-exact; within the located bin the
    /// value is geometrically interpolated (log-linear, matching the bin
    /// spacing) and clamped to the exact observed min/max. Returns `None`
    /// when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min_years);
        }
        // Rank-1 semantics: rank r means "the r-th smallest chip".
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = self.below;
        let value = if rank <= cumulative {
            // All below-range chips are indistinguishable to the bins;
            // the exact observed min is the honest representative.
            self.min_years
        } else {
            let mut found = None;
            for (i, &n) in self.bins.iter().enumerate() {
                let before = cumulative;
                cumulative += n;
                if n > 0 && rank <= cumulative {
                    let lower = Self::bin_lower(i);
                    let upper = Self::bin_lower(i + 1);
                    // Geometric (log-linear) interpolation at the rank's
                    // position within the bin — deterministic: integers in,
                    // one expression out.
                    let frac = (rank - before) as f64 / n as f64;
                    found = Some(lower * (upper / lower).powf(frac));
                    break;
                }
            }
            found.unwrap_or(self.max_years)
        };
        Some(value.clamp(self.min_years, self.max_years))
    }

    /// Fraction of the population failed at or before `years` (whole
    /// years, clamped to the warranty horizon). Exact — computed from the
    /// integer year-mark counters, not the bins.
    #[must_use]
    pub fn failed_by_year(&self, years: usize) -> Probability {
        if self.total == 0 {
            return Probability::ZERO;
        }
        let years = years.min(YEAR_MARKS);
        // ramp-lint:allow(panic-reach) -- `years` is clamped to the bucket count above
        let failed: u64 = self.year_buckets[..years].iter().sum();
        Probability::from_counts(failed, self.total)
    }

    /// P(chip survives at least `years` whole years) — the complement of
    /// [`PopulationAccumulator::failed_by_year`].
    #[must_use]
    pub fn survival_at_year(&self, years: usize) -> Probability {
        self.failed_by_year(years).complement()
    }

    /// Defective parts per million at or before `years` whole years.
    #[must_use]
    pub fn dppm_at_year(&self, years: usize) -> f64 {
        self.failed_by_year(years).dppm()
    }

    /// Share of failures attributed to each mechanism, as exact counts.
    #[must_use]
    pub fn killer_counts(&self) -> [u64; MechanismKind::COUNT] {
        self.killer_counts
    }

    /// Renders the summary snapshot used by reports and the serve layer.
    #[must_use]
    pub fn summary(&self) -> PopulationSummary {
        let q = |level: f64| self.quantile(level).unwrap_or(0.0);
        PopulationSummary {
            chips: self.total,
            p1_years: q(0.01),
            p10_years: q(0.10),
            p50_years: q(0.50),
            p90_years: q(0.90),
            p99_years: q(0.99),
            min_years: self.min_years().unwrap_or(0.0),
            max_years: self.max_years().unwrap_or(0.0),
            dppm_by_year: (1..=YEAR_MARKS).map(|y| self.dppm_at_year(y)).collect(),
            killer_counts: self.killer_counts,
        }
    }
}

/// Serializable population summary: the canonical fleet output per node.
///
/// Every field derives deterministically from the accumulator's
/// merge-invariant state, so the JSON rendering of a summary is
/// byte-identical across thread counts and chunkings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSummary {
    /// Number of simulated chips.
    pub chips: u64,
    /// 1st percentile of failure time (early-failure tail), years.
    pub p1_years: f64,
    /// 10th percentile of failure time, years.
    pub p10_years: f64,
    /// Median failure time, years.
    pub p50_years: f64,
    /// 90th percentile of failure time, years.
    pub p90_years: f64,
    /// 99th percentile of failure time, years.
    pub p99_years: f64,
    /// Earliest observed failure, years.
    pub min_years: f64,
    /// Latest observed failure, years.
    pub max_years: f64,
    /// Cumulative defective parts per million at years 1..=30.
    pub dppm_by_year: Vec<f64>,
    /// Failure counts per mechanism, in `MechanismKind::ALL` order.
    pub killer_counts: [u64; MechanismKind::COUNT],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_uniform(acc: &mut PopulationAccumulator, n: u64) {
        // n chips failing at 1..=n years (shifted a touch off the integer
        // marks so bucket edges are unambiguous).
        for i in 0..n {
            acc.record(0.5 + i as f64, MechanismKind::Em);
        }
    }

    #[test]
    fn quantiles_are_rank_exact_within_bin_resolution() {
        let mut acc = PopulationAccumulator::new();
        record_uniform(&mut acc, 100);
        // The median chip is the 50th smallest: fails at 49.5 years.
        let p50 = acc.quantile(0.5).unwrap();
        assert!((p50 / 49.5 - 1.0).abs() < 0.03, "p50 {p50} vs exact 49.5");
        let p1 = acc.quantile(0.01).unwrap();
        assert!((p1 / 0.5 - 1.0).abs() < 0.03, "p1 {p1} vs exact 0.5");
        // q=0 clamps to the exact min, q=1 to the exact max.
        assert_eq!(acc.quantile(0.0).unwrap(), 0.5);
        assert_eq!(acc.quantile(1.0).unwrap(), 99.5);
    }

    #[test]
    fn merge_any_grouping_is_bit_identical() {
        let outcomes: Vec<f64> = (0..1000)
            .map(|i| 0.01 + (i as f64) * 0.037)
            .collect();
        let mut serial = PopulationAccumulator::new();
        for &y in &outcomes {
            serial.record(y, MechanismKind::Tddb);
        }
        for chunk_size in [1, 7, 100, 1000] {
            let mut merged = PopulationAccumulator::new();
            for chunk in outcomes.chunks(chunk_size) {
                let mut part = PopulationAccumulator::new();
                for &y in chunk {
                    part.record(y, MechanismKind::Tddb);
                }
                merged.merge(&part);
            }
            assert_eq!(merged, serial, "chunk size {chunk_size} diverged");
            assert_eq!(
                serde_json::to_string(&merged.summary()).unwrap(),
                serde_json::to_string(&serial.summary()).unwrap(),
            );
        }
    }

    #[test]
    fn year_marks_are_exact() {
        let mut acc = PopulationAccumulator::new();
        // 3 chips fail within year 1, 1 more within year 2, 6 survive 30+.
        for y in [0.2, 0.5, 1.0, 1.7] {
            acc.record(y, MechanismKind::Tc);
        }
        for _ in 0..6 {
            acc.record(500.0, MechanismKind::Sm);
        }
        assert_eq!(acc.dppm_at_year(1), 300_000.0);
        assert_eq!(acc.dppm_at_year(2), 400_000.0);
        assert_eq!(acc.dppm_at_year(30), 400_000.0);
        assert!((acc.survival_at_year(2).value() - 0.6).abs() < 1e-12);
        assert_eq!(acc.killer_counts()[MechanismKind::Tc.index()], 4);
        assert_eq!(acc.killer_counts()[MechanismKind::Sm.index()], 6);
    }

    #[test]
    fn out_of_range_failures_are_counted_not_lost() {
        let mut acc = PopulationAccumulator::new();
        acc.record(1e-6, MechanismKind::Em); // below the binned range
        acc.record(f64::MAX, MechanismKind::Sm); // "never fails"
        assert_eq!(acc.total(), 2);
        assert_eq!(acc.quantile(0.0).unwrap(), 1e-6);
        assert_eq!(acc.quantile(1.0).unwrap(), f64::MAX);
        assert_eq!(acc.dppm_at_year(1), 500_000.0);
    }

    #[test]
    fn empty_accumulator_reports_none() {
        let acc = PopulationAccumulator::new();
        assert_eq!(acc.quantile(0.5), None);
        assert_eq!(acc.min_years(), None);
        assert_eq!(acc.failed_by_year(10), Probability::ZERO);
    }
}
