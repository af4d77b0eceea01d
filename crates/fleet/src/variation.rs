//! Per-chip process-variation model.
//!
//! Three physical knobs move per chip, each a truncated-normal draw so no
//! tail sample can leave the physical regime:
//!
//! * **gate-oxide thickness** — a multiplicative factor on the node's
//!   `t_ox`. Thinner oxide accelerates TDDB exponentially (one decade of
//!   lifetime per ~0.55 nm on the calibrated model), making this the
//!   highest-leverage variation source.
//! * **operating temperature** — an additive per-chip offset in Kelvin,
//!   standing in for the V_th/leakage spread: a leaky chip runs hotter at
//!   the same workload, accelerating every Arrhenius mechanism and
//!   widening its thermal-cycling swing.
//! * **interconnect geometry** — a multiplicative factor on the node's
//!   cumulative scale factor κ; thinner wires raise electromigration
//!   current-density stress via the κ^{-g} term.
//!
//! On top of the parametric variation, each mechanism's lifetime is a
//! distribution even for identical parameters (grain structure, local
//! defects): [`VariationModel::lifetime_sigma`] sets the log-domain
//! scatter of the EM/SM/TDDB lognormals and
//! [`VariationModel::tc_shape`] the Weibull slope of thermal cycling.

use crate::sampler::TruncatedNormal;
use ramp_trace::Rng;
use ramp_units::{Sigma, WeibullShape};
use serde::{Deserialize, Serialize};

/// Truncation half-width for all process draws, in sigmas.
pub const TRUNCATION_SIGMAS: f64 = 3.0;

/// Fleet-wide distribution parameters for per-chip variation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Fractional sigma of the gate-oxide thickness factor (ITRS-class
    /// within-wafer control: ~2 %).
    pub tox_fraction_sigma: Sigma,
    /// Sigma of the per-chip operating-temperature offset, in Kelvin.
    pub temperature_sigma_kelvin: Sigma,
    /// Fractional sigma of the interconnect geometry (κ) factor.
    pub geometry_fraction_sigma: Sigma,
    /// Log-domain sigma of the EM/SM/TDDB lifetime lognormals (JEDEC-
    /// typical wearout scatter).
    pub lifetime_sigma: Sigma,
    /// Weibull slope of the thermal-cycling lifetime (β > 1: wearout).
    pub tc_shape: WeibullShape,
}

impl Default for VariationModel {
    fn default() -> Self {
        VariationModel {
            tox_fraction_sigma: Sigma::new_const(0.02),
            temperature_sigma_kelvin: Sigma::new_const(3.0),
            geometry_fraction_sigma: Sigma::new_const(0.03),
            lifetime_sigma: Sigma::new_const(0.5),
            tc_shape: WeibullShape::new_const(2.0),
        }
    }
}

impl VariationModel {
    /// A model with all process variation and lifetime scatter switched
    /// off: every chip is the paper's average chip. Useful as a test
    /// baseline — the population's every quantile must then collapse onto
    /// deterministic per-mechanism lifetimes.
    #[must_use]
    pub fn degenerate() -> Self {
        VariationModel {
            tox_fraction_sigma: Sigma::ZERO,
            temperature_sigma_kelvin: Sigma::ZERO,
            geometry_fraction_sigma: Sigma::ZERO,
            lifetime_sigma: Sigma::ZERO,
            tc_shape: WeibullShape::new_const(1e6),
        }
    }
}

/// One chip's sampled process parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipVariation {
    /// Multiplicative factor on the node's gate-oxide thickness.
    pub tox_factor: f64,
    /// Additive offset on every structure's average temperature (K).
    pub temperature_offset_kelvin: f64,
    /// Multiplicative factor on the node's cumulative scale factor κ.
    pub geometry_factor: f64,
}

/// The three process-variation draws of one [`VariationModel`], with
/// their truncation windows built once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSampler {
    tox: TruncatedNormal,
    temperature: TruncatedNormal,
    geometry: TruncatedNormal,
}

impl VariationSampler {
    /// The ±[`TRUNCATION_SIGMAS`]σ windows of `model`'s three draws.
    #[must_use]
    pub fn new(model: &VariationModel) -> Self {
        let factor = |sigma| TruncatedNormal::symmetric(1.0, sigma, TRUNCATION_SIGMAS);
        VariationSampler {
            tox: factor(model.tox_fraction_sigma),
            temperature: TruncatedNormal::symmetric(
                0.0,
                model.temperature_sigma_kelvin,
                TRUNCATION_SIGMAS,
            ),
            geometry: factor(model.geometry_fraction_sigma),
        }
    }

    /// Draws one chip's variation. Consumes the stream in a fixed order
    /// (t_ox, temperature, geometry) so the draw layout is part of the
    /// fleet's determinism contract.
    #[must_use]
    pub fn sample(&self, rng: &mut Rng) -> ChipVariation {
        // A multiplicative factor can never reach 0 inside a ±3σ window
        // for any sane sigma, but the floor makes the guarantee
        // unconditional.
        let tox_factor = self.tox.sample(rng).max(0.05);
        let temperature_offset_kelvin = self.temperature.sample(rng);
        let geometry_factor = self.geometry.sample(rng).max(0.05);
        ChipVariation {
            tox_factor,
            temperature_offset_kelvin,
            geometry_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::chip_rng;

    #[test]
    fn draws_respect_truncation_windows() {
        let draws = VariationSampler::new(&VariationModel::default());
        for chip in 0..10_000 {
            let mut rng = chip_rng(3, 0, chip);
            let v = draws.sample(&mut rng);
            assert!((v.tox_factor - 1.0).abs() <= 3.0 * 0.02 + 1e-12);
            assert!(v.temperature_offset_kelvin.abs() <= 9.0 + 1e-12);
            assert!((v.geometry_factor - 1.0).abs() <= 3.0 * 0.03 + 1e-12);
        }
    }

    #[test]
    fn degenerate_model_produces_the_average_chip() {
        let draws = VariationSampler::new(&VariationModel::degenerate());
        let mut rng = chip_rng(4, 0, 0);
        let v = draws.sample(&mut rng);
        assert_eq!(v.tox_factor, 1.0);
        assert_eq!(v.temperature_offset_kelvin, 0.0);
        assert_eq!(v.geometry_factor, 1.0);
    }
}
