//! Property-based tests for the fleet's distribution samplers.
//!
//! These are the statistical proofs behind the population simulator: the
//! lognormal actually has the median and log-sigma it was built with, the
//! truncated normal never escapes its window, and the Coffin–Manson
//! thermal-cycling lifetime behaves physically (strictly positive,
//! monotone in the temperature swing).

use proptest::prelude::*;
use ramp_fleet::{
    chip_rng, inverse_normal_cdf, CoffinManson, CoffinMansonShape, Lognormal, TruncatedNormal,
};
use ramp_units::{Sigma, WeibullShape};

/// Draws `n` lognormal samples from a deterministic stream.
fn lognormal_samples(dist: &Lognormal, seed: u64, n: usize) -> Vec<f64> {
    let mut rng = chip_rng(seed, 0, 0);
    (0..n).map(|_| dist.sample(&mut rng)).collect()
}

proptest! {
    // Statistical recovery at n = 100_000 is slow per case; a handful of
    // well-spread cases is plenty.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lognormal_recovers_median_and_sigma(
        median in 0.5f64..200.0,
        sigma in 0.1f64..1.2,
        seed in 0u64..1_000,
    ) {
        let dist = Lognormal::from_median(median, Sigma::new(sigma).unwrap());
        let mut samples = lognormal_samples(&dist, seed, 100_000);
        samples.sort_by(f64::total_cmp);

        // Sample median → distribution median. The sample median of a
        // lognormal has relative standard error ~ sigma·sqrt(π/2n); at
        // n=1e5, sigma=1.2 that is ~0.5%, so 3% is a >5σ band.
        let sample_median = samples[samples.len() / 2];
        prop_assert!(
            (sample_median / median - 1.0).abs() < 0.03,
            "sample median {sample_median} vs {median}"
        );

        // Sample sd of ln(x) → sigma. Standard error ~ sigma/sqrt(2n).
        let logs: Vec<f64> = samples.iter().map(|&x| x.ln()).collect();
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>()
            / (logs.len() - 1) as f64;
        let sample_sigma = var.sqrt();
        prop_assert!(
            (sample_sigma / sigma - 1.0).abs() < 0.02,
            "sample sigma {sample_sigma} vs {sigma}"
        );
    }
}

proptest! {
    #[test]
    fn truncated_normal_never_escapes_its_window(
        mean in -50.0f64..50.0,
        sigma in 0.0f64..10.0,
        width in 0.5f64..4.0,
        seed in 0u64..10_000,
    ) {
        let dist = TruncatedNormal::symmetric(mean, Sigma::new(sigma).unwrap(), width);
        let mut rng = chip_rng(seed, 1, 0);
        for _ in 0..64 {
            let x = dist.sample(&mut rng);
            prop_assert!(
                (dist.lo()..=dist.hi()).contains(&x),
                "draw {x} outside [{}, {}]",
                dist.lo(),
                dist.hi()
            );
        }
    }

    #[test]
    fn coffin_manson_draws_are_strictly_positive(
        mean_years in 0.1f64..500.0,
        shape in 0.5f64..8.0,
        seed in 0u64..10_000,
    ) {
        let dist = CoffinMansonShape::new(WeibullShape::new(shape).unwrap())
            .with_mean_years(mean_years);
        let mut rng = chip_rng(seed, 2, 0);
        for _ in 0..64 {
            let years = dist.sample_years(&mut rng);
            prop_assert!(years > 0.0 && years.is_finite(), "drew {years}");
        }
    }

    #[test]
    fn coffin_manson_life_is_monotone_in_swing(
        ref_mean in 1.0f64..100.0,
        ref_dt in 5.0f64..40.0,
        factor in 1.01f64..4.0,
        exponent in 1.5f64..3.0,
    ) {
        // A larger thermal swing must never lengthen cycling life, and
        // the scaling is the paper's inverse power law.
        let small = CoffinManson::mean_years_at_swing(ref_mean, ref_dt, ref_dt, exponent);
        let large =
            CoffinManson::mean_years_at_swing(ref_mean, ref_dt, ref_dt * factor, exponent);
        prop_assert!(large < small, "ΔT×{factor}: {large} !< {small}");
        let expected = ref_mean * factor.powf(-exponent);
        prop_assert!(
            (large / expected - 1.0).abs() < 1e-9,
            "power law violated: {large} vs {expected}"
        );
    }

    #[test]
    fn inverse_normal_cdf_is_monotone_and_symmetric(
        a in 1e-6f64..0.999_999,
        b in 1e-6f64..0.999_999,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(inverse_normal_cdf(lo) <= inverse_normal_cdf(hi));
        // Φ⁻¹(1−p) = −Φ⁻¹(p) up to the approximation's error.
        prop_assert!(
            (inverse_normal_cdf(a) + inverse_normal_cdf(1.0 - a)).abs() < 1e-7,
            "asymmetric at {a}"
        );
    }
}
