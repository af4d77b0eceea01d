//! Lifetime and process-variation samplers.
//!
//! Three distribution families cover the fleet's needs:
//!
//! * [`Lognormal`] — the standard wearout lifetime model for EM, SM, and
//!   TDDB (JEDEC JEP122: log-domain scatter around a median life);
//! * [`TruncatedNormal`] — per-chip process-variation multipliers
//!   (t_ox, geometry) and additive offsets (temperature), truncated so a
//!   tail draw can never produce an unphysical parameter;
//! * [`CoffinManson`] — thermal-cycling fatigue life: Weibull-distributed
//!   draws around a characteristic life that follows the Coffin–Manson
//!   power law in the temperature swing ΔT.
//!
//! All samplers consume randomness exclusively through a caller-provided
//! [`ramp_trace::Rng`], so a chip's draws depend only on its own stream.

use crate::rng::open_unit;
use ramp_trace::Rng;
use ramp_units::{Sigma, WeibullShape};

/// Inverse of the standard normal CDF (the probit function), evaluated
/// with Acklam's rational approximation (relative error < 1.15e-9 over
/// the open unit interval — far below the Monte Carlo noise floor of any
/// feasible fleet size).
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`; draws from
/// [`crate::rng::open_unit`] never are.
#[must_use]
// ramp-lint:allow(unit-safety) -- probability in, standard-normal deviate out; both dimensionless
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit argument {p} outside (0,1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        // ramp-lint:allow(panic-reach) -- constant indices into a fixed-size coefficient array
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0) // ramp-lint:allow(panic-reach) -- constant indices into a fixed-size coefficient array
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q // ramp-lint:allow(panic-reach) -- constant indices into a fixed-size coefficient array
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5]) // ramp-lint:allow(panic-reach) -- constant indices into a fixed-size coefficient array
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// One standard-normal deviate via inverse-CDF transform (exactly one
/// `u64` of the stream per draw, which keeps per-chip draw budgets fixed).
#[must_use]
// ramp-lint:allow(unit-safety) -- standard-normal deviate is dimensionless
pub fn standard_normal(rng: &mut Rng) -> f64 {
    inverse_normal_cdf(open_unit(rng))
}

/// A lognormal distribution parameterised by its median and log-domain
/// sigma.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lognormal {
    ln_median: f64,
    sigma: Sigma,
}

impl Lognormal {
    /// From a median and log-sigma.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not finite and positive.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- median carries the caller's unit; sampler is unit-agnostic
    pub fn from_median(median: f64, sigma: Sigma) -> Self {
        assert!(
            median.is_finite() && median > 0.0,
            "lognormal median must be positive, got {median}"
        );
        Lognormal {
            ln_median: median.ln(),
            sigma,
        }
    }

    /// Mean-preserving construction: picks the median so that the
    /// distribution's *mean* equals `mean` (`median = mean·e^{−σ²/2}`).
    /// This is the right anchoring for FIT-derived lifetimes: the
    /// qualified FIT fixes the expected failure rate, i.e. the mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- mean carries the caller's unit; sampler is unit-agnostic
    pub fn from_mean(mean: f64, sigma: Sigma) -> Self {
        let s = sigma.value();
        Lognormal::from_median(mean * (-0.5 * s * s).exp(), sigma)
    }

    /// The distribution's median.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- returns the caller's unit
    pub fn median(&self) -> f64 {
        self.ln_median.exp()
    }

    /// The distribution's mean.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- returns the caller's unit
    pub fn mean(&self) -> f64 {
        let s = self.sigma.value();
        (self.ln_median + 0.5 * s * s).exp()
    }

    /// One draw. Strictly positive by construction.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- returns the caller's unit
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        (self.ln_median + self.sigma.value() * standard_normal(rng)).exp()
    }
}

/// A normal distribution truncated to `[lo, hi]`.
///
/// Sampled by rejection (deterministic per stream: the same seed always
/// rejects the same draws); after 64 consecutive rejections — impossible
/// in practice for the ±3σ windows the fleet uses, but reachable with a
/// pathological window — the draw clamps to the nearer bound so sampling
/// always terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mean: f64,
    sigma: Sigma,
    lo: f64,
    hi: f64,
}

impl TruncatedNormal {
    /// Maximum rejection attempts before clamping.
    const MAX_REJECTS: u32 = 64;

    /// A normal with the given mean/sigma truncated to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= mean <= hi` (the window must contain the
    /// mean, otherwise rejection is hopeless and the model is misspecified
    /// anyway).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- mean/bounds carry the caller's unit; sampler is unit-agnostic
    pub fn new(mean: f64, sigma: Sigma, lo: f64, hi: f64) -> Self {
        assert!(
            lo <= mean && mean <= hi,
            "truncation window [{lo}, {hi}] must contain the mean {mean}"
        );
        TruncatedNormal { mean, sigma, lo, hi }
    }

    /// The symmetric ±`k`σ window around `mean`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- mean carries the caller's unit; k is a dimensionless multiple
    pub fn symmetric(mean: f64, sigma: Sigma, k: f64) -> Self {
        let half = k * sigma.value();
        TruncatedNormal::new(mean, sigma, mean - half, mean + half)
    }

    /// Lower truncation bound.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- returns the caller's unit
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- returns the caller's unit
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// One draw, always inside `[lo, hi]`.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- returns the caller's unit
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        for _ in 0..Self::MAX_REJECTS {
            let v = self.mean + self.sigma.value() * standard_normal(rng);
            if v >= self.lo && v <= self.hi {
                return v;
            }
        }
        self.mean.clamp(self.lo, self.hi)
    }
}

/// Γ(x) for x > 0 via the Lanczos approximation (g = 7, n = 9); relative
/// error ~1e-13 in the x ∈ (1, 2] range the Weibull mean needs.
#[must_use]
// ramp-lint:allow(unit-safety) -- pure math on dimensionless arguments
pub fn gamma_fn(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "gamma_fn domain is x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the Lanczos series in its happy range.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        // ramp-lint:allow(panic-reach) -- constant indices into a fixed-size coefficient array
        let mut a = COEF[0];
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        let t = x + G + 0.5;
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Thermal-cycling (Coffin–Manson) fatigue-life sampler.
///
/// The Coffin–Manson law fixes the *characteristic* (mean) life as a
/// power of the thermal swing, `N_f ∝ ΔT^{−q}`; around it, cycles-to-
/// failure scatter follows a Weibull with wearout slope β > 1. Draws are
/// by inversion, `t = scale · (−ln(1−u))^{1/β}` with `u ∈ (0, 1)` open,
/// so every draw is finite and strictly positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoffinManson {
    scale_years: f64,
    shape: WeibullShape,
}

impl CoffinManson {
    /// The Coffin–Manson mean life at swing `delta_t`, transferred from a
    /// known mean at a reference swing: `mean · (ΔT_ref / ΔT)^{exponent}`.
    /// Strictly decreasing in `delta_t` — hotter cycling fails sooner.
    ///
    /// # Panics
    ///
    /// Panics unless both swings are positive.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- Kelvin swings documented in the names; returns years
    pub fn mean_years_at_swing(
        reference_mean_years: f64,
        reference_delta_t: f64,
        delta_t: f64,
        exponent: f64,
    ) -> f64 {
        assert!(
            reference_delta_t > 0.0 && delta_t > 0.0,
            "Coffin–Manson swings must be positive"
        );
        reference_mean_years * (reference_delta_t / delta_t).powf(exponent)
    }

    /// The Weibull scale (characteristic life), in years.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- year-denominated, documented in the name
    pub fn scale_years(&self) -> f64 {
        self.scale_years
    }

    /// One lifetime draw in years. Strictly positive and finite.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- year-denominated, documented in the name
    pub fn sample_years(&self, rng: &mut Rng) -> f64 {
        let u = open_unit(rng);
        self.scale_years * (-(1.0 - u).ln()).powf(1.0 / self.shape.value())
    }
}

/// A Weibull shape with its mean-to-scale divisor Γ(1 + 1/β) evaluated
/// once, for building many [`CoffinManson`] samplers of one shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoffinMansonShape {
    shape: WeibullShape,
    gamma: f64,
}

impl CoffinMansonShape {
    /// Evaluates Γ(1 + 1/β) for `shape`.
    #[must_use]
    pub fn new(shape: WeibullShape) -> Self {
        CoffinMansonShape {
            shape,
            gamma: gamma_fn(1.0 + 1.0 / shape.value()),
        }
    }

    /// The sampler of this shape whose *mean* lifetime is `mean_years`
    /// (`scale = mean / Γ(1 + 1/β)`).
    ///
    /// # Panics
    ///
    /// Panics if `mean_years` is not finite and positive.
    #[must_use]
    pub fn with_mean_years(&self, mean_years: f64) -> CoffinManson {
        assert!(
            mean_years.is_finite() && mean_years > 0.0,
            "Coffin–Manson mean life must be positive, got {mean_years}"
        );
        CoffinManson {
            scale_years: mean_years / self.gamma,
            shape: self.shape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::chip_rng;

    #[test]
    fn probit_hits_known_quantiles() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959_964).abs() < 1e-4);
        // Symmetry deep in the tails.
        assert!((inverse_normal_cdf(1e-6) + inverse_normal_cdf(1.0 - 1e-6)).abs() < 1e-6);
    }

    #[test]
    fn gamma_matches_known_values() {
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma_fn(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma_fn(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        // Γ(1.5) = √π/2, the value the default Weibull shape exercises.
        assert!((gamma_fn(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
    }

    #[test]
    fn lognormal_mean_anchoring_is_exact() {
        let sigma = Sigma::new(0.7).unwrap();
        let d = Lognormal::from_mean(28.5, sigma);
        assert!((d.mean() - 28.5).abs() < 1e-9);
        assert!(d.median() < d.mean(), "lognormal median sits below the mean");
    }

    #[test]
    fn truncated_normal_clamps_after_max_rejects() {
        // A window that excludes virtually all probability mass still
        // terminates, at the clamped mean.
        let tn = TruncatedNormal::new(0.0, Sigma::new(1.0).unwrap(), -1e-12, 1e-12);
        let mut rng = chip_rng(9, 0, 0);
        let v = tn.sample(&mut rng);
        assert!(v.abs() <= 1e-12);
    }

    #[test]
    fn coffin_manson_mean_transfer_is_monotone() {
        let base = CoffinManson::mean_years_at_swing(30.0, 40.0, 40.0, 2.35);
        assert!((base - 30.0).abs() < 1e-12);
        let hotter = CoffinManson::mean_years_at_swing(30.0, 40.0, 60.0, 2.35);
        let cooler = CoffinManson::mean_years_at_swing(30.0, 40.0, 20.0, 2.35);
        assert!(hotter < base && base < cooler);
    }
}
