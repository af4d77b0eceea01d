//! Per-chip reliability evaluation by ratio transfer.
//!
//! A full pipeline run (timing → power → thermal → rates) per chip would
//! cap the fleet at a few chips per second. Instead the fleet runs the
//! pipeline **once** per (benchmark, node) — the
//! [`ramp_core::PopulationAnchor`] — and re-prices each sampled chip by
//! *rate ratio transfer*: for every (mechanism, structure) cell, the
//! anchored qualified FIT is scaled by the ratio of the mechanism's
//! analytic rate at the chip's perturbed parameters to the rate at the
//! anchor's parameters, both evaluated at the structure's time-average
//! operating point. The transfer is exact for parameter changes whose
//! rate effect is multiplicative and temperature-independent (t_ox,
//! geometry) and first-order accurate for the per-chip temperature
//! offset (it shifts the whole profile rather than re-solving thermals);
//! with offsets of a few Kelvin the induced error is far below the
//! lifetime scatter being modelled.
//!
//! Per-chip work: 3 variation draws; one preparation of the four
//! mechanism kernels for the chip's perturbed node (EM's `κ^{−g}`, TDDB's
//! oxide and gate-area logs); one pass over the 7 structures that
//! evaluates the 28 (mechanism, structure) rates on those kernels and
//! fills all four FIT sums; and 4 lifetime draws. Every term no chip
//! moves (truncation windows, Γ(1 + 1/β), EM's `J^n`, TDDB's `ln V`) is
//! evaluated once in [`ChipSampler::new`]. Measured: ~870 ns per chip
//! (`fleet.sample_chip_ns` in a traced `fleet_population` benchmark run,
//! one pinned core of a 2-vCPU Xeon), down from ~1.76 µs when each cell
//! went through `Box<dyn FailureModel>` on the perturbed node.

use crate::sampler::{CoffinMansonShape, Lognormal};
use crate::variation::{ChipVariation, VariationModel, VariationSampler};
use ramp_core::mechanisms::{
    MechanismKernel, MechanismKind, MechanismSet, PerMechanism, PreparedSet,
};
use ramp_core::{PopulationAnchor, TechNode};
use ramp_microarch::PerStructure;
use ramp_trace::Rng;
use ramp_units::{ActivityFactor, Angstroms, Kelvin};

/// Hours in a (Julian) year, matching `ramp_units::Mttf::years`.
const HOURS_PER_YEAR: f64 = 24.0 * 365.25;

/// Representative activity for rate evaluation. The choice cancels out of
/// every rate ratio (activity enters only EM's `J = p·J_max`, identically
/// in numerator and denominator), so any interior value works; 0.5 keeps
/// clear of the idle floor in `CurrentDensity::at_activity`.
const REFERENCE_ACTIVITY: ActivityFactor = ActivityFactor::new_const(0.5);

/// The outcome of one simulated chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipOutcome {
    /// Years until the chip's first mechanism failure (series system).
    pub failure_years: f64,
    /// The mechanism that failed first.
    pub killer: MechanismKind,
}

/// One structure of the anchor: its time-average temperature and, per
/// mechanism in canonical order, its analytic rate and qualified FIT.
#[derive(Debug, Clone, Copy)]
struct AnchorCell {
    temperature: Kelvin,
    base_rate: [f64; MechanismKind::COUNT],
    base_fit: [f64; MechanismKind::COUNT],
}

/// The supply and activity terms of the rate expressions, which no chip
/// moves: [`MechanismKernel::hoist`] at the anchor supply and
/// [`REFERENCE_ACTIVITY`]. They read only the supply, the activity and
/// J_max, and a chip's perturbed node moves only t_ox and κ.
#[derive(Debug, Clone, Copy)]
struct SharedTerms {
    /// EM's `J^n`.
    em_current: f64,
    /// TDDB's `ln V`.
    tddb_ln_vdd: f64,
}

impl SharedTerms {
    /// The four mechanism rates at `temperature` on the prepared node, in
    /// canonical order.
    fn rates_at(&self, kernels: &PreparedSet, temperature: Kelvin) -> [f64; MechanismKind::COUNT] {
        [
            kernels.em.rate_at(self.em_current, temperature),
            kernels.sm.rate_at((), temperature),
            kernels.tddb.rate_at(self.tddb_ln_vdd, temperature),
            kernels.tc.rate_at((), temperature),
        ]
    }
}

/// A reusable per-(benchmark, node) chip evaluator.
///
/// Construction precomputes the anchor's per-structure temperatures, base
/// analytic rates and base qualified FITs, plus every term that no chip
/// moves: the variation draws' truncation windows, the TC Weibull's
/// Γ(1 + 1/β), EM's `J^n` at the reference activity and TDDB's `ln V` at
/// the anchor supply. After that, [`ChipSampler::sample_chip`] is
/// allocation-free.
#[derive(Debug)]
pub struct ChipSampler {
    node: TechNode,
    variation: VariationModel,
    draws: VariationSampler,
    tc_shape: CoffinMansonShape,
    mechanisms: MechanismSet,
    shared: SharedTerms,
    cells: PerStructure<AnchorCell>,
}

impl ChipSampler {
    /// Builds the evaluator for one anchor under one variation model.
    #[must_use]
    pub fn new(anchor: &PopulationAnchor, variation: VariationModel) -> Self {
        let mechanisms = MechanismSet::default();
        let kernels = mechanisms.prepare(&anchor.node);
        let shared = SharedTerms {
            em_current: kernels.em.hoist(anchor.node.vdd, REFERENCE_ACTIVITY),
            tddb_ln_vdd: kernels.tddb.hoist(anchor.node.vdd, REFERENCE_ACTIVITY),
        };
        let cells = PerStructure::from_fn(|s| {
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            let temperature = anchor.rates.average_temperature()[s];
            AnchorCell {
                temperature,
                base_rate: shared.rates_at(&kernels, temperature),
                base_fit: MechanismKind::ALL.map(|m| anchor.report.fit(m, s).value()),
            }
        });
        ChipSampler {
            node: anchor.node,
            variation,
            draws: VariationSampler::new(&variation),
            tc_shape: CoffinMansonShape::new(variation.tc_shape),
            mechanisms,
            shared,
            cells,
        }
    }

    /// The variation model in force.
    #[must_use]
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// The perturbed copy of the node for one chip's process draw.
    fn perturbed_node(&self, v: &ChipVariation) -> TechNode {
        let mut node = self.node;
        node.tox = Angstroms::new(self.node.tox.value() * v.tox_factor)
            .unwrap_or(self.node.tox);
        node.scale_factor = self.node.scale_factor * v.geometry_factor;
        node
    }

    /// This chip's expected (mean) lifetime per mechanism, in years: base
    /// FIT per cell × rate ratio, summed over structures (SOFR), then
    /// FIT → MTTF. One pass over the structures fills all four sums, each
    /// in structure order.
    fn mean_years(&self, chip_node: &TechNode, temp_offset: f64) -> PerMechanism<f64> {
        let kernels = self.mechanisms.prepare(chip_node);
        let mut chip_fit = [0.0; MechanismKind::COUNT];
        for cell in self.cells.as_array() {
            let temperature =
                Kelvin::new(cell.temperature.value() + temp_offset).unwrap_or(cell.temperature);
            let rates = self.shared.rates_at(&kernels, temperature);
            for (fit, ((&rate, &base), &base_fit)) in chip_fit
                .iter_mut()
                .zip(rates.iter().zip(&cell.base_rate).zip(&cell.base_fit))
            {
                if base > 0.0 {
                    *fit += base_fit * (rate / base);
                }
            }
        }
        PerMechanism(chip_fit.map(|fit| {
            if fit <= 0.0 {
                f64::MAX
            } else {
                // FIT = failures per 1e9 device-hours ⇒ MTTF = 1e9/FIT hours.
                1.0e9 / fit / HOURS_PER_YEAR
            }
        }))
    }

    /// One mechanism's entry of [`ChipSampler::mean_years`].
    #[cfg(test)]
    fn mechanism_mean_years(
        &self,
        m: MechanismKind,
        chip_node: &TechNode,
        temp_offset: f64,
    ) -> f64 {
        self.mean_years(chip_node, temp_offset)[m]
    }

    /// Simulates one chip: draws its process variation, re-prices every
    /// mechanism, draws the four mechanism lifetimes, and reports the
    /// earliest failure. The stream consumption order (variation, then
    /// EM, SM, TDDB, TC draws) is fixed and part of the determinism
    /// contract.
    #[must_use]
    pub fn sample_chip(&self, rng: &mut Rng) -> ChipOutcome {
        let variation = self.draws.sample(rng);
        let chip_node = self.perturbed_node(&variation);
        let mean_years = self.mean_years(&chip_node, variation.temperature_offset_kelvin);
        let mut failure_years = f64::MAX;
        let mut killer = MechanismKind::Em;
        for (m, &mean_years) in mean_years.iter() {
            let drawn = if mean_years == f64::MAX {
                f64::MAX
            } else if m == MechanismKind::Tc {
                self.tc_shape.with_mean_years(mean_years).sample_years(rng)
            } else {
                Lognormal::from_mean(mean_years, self.variation.lifetime_sigma).sample(rng)
            };
            // Strict < keeps the tie-break deterministic: first mechanism
            // in canonical order wins.
            if drawn < failure_years {
                failure_years = drawn;
                killer = m;
            }
        }
        ChipOutcome {
            failure_years,
            killer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::chip_rng;
    use ramp_core::{NodeId, PipelineConfig, QueryEngine, Qualification};
    use ramp_microarch::Structure;

    fn test_anchor(node: NodeId) -> PopulationAnchor {
        let engine = QueryEngine::with_qualification(
            Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap(),
            PipelineConfig::quick(),
            "chip-tests",
        );
        engine
            .population_anchor(&engine.query("gzip", node).unwrap())
            .unwrap()
    }

    #[test]
    fn degenerate_variation_reproduces_the_anchor_mttf() {
        let anchor = test_anchor(NodeId::N180);
        let sampler = ChipSampler::new(&anchor, VariationModel::degenerate());
        let mut rng = chip_rng(1, 0, 0);
        let chip = sampler.sample_chip(&mut rng);
        // With zero variation and zero scatter, the chip's failure time is
        // min over the per-mechanism mean lifetimes, each of which matches
        // the anchor's per-mechanism FIT (ratio transfer at ratio 1). The
        // TC Weibull at its degenerate shape contributes ~1e-4 relative
        // wobble, hence the loose band.
        let min_mech_years = MechanismKind::ALL
            .iter()
            .map(|&m| {
                let fit: f64 = Structure::ALL
                    .iter()
                    .map(|&s| anchor.report.fit(m, s).value())
                    .sum();
                1.0e9 / fit / HOURS_PER_YEAR
            })
            .fold(f64::MAX, f64::min);
        assert!(
            (chip.failure_years / min_mech_years - 1.0).abs() < 1e-2,
            "degenerate chip {} vs analytic {}",
            chip.failure_years,
            min_mech_years
        );
    }

    #[test]
    fn chips_are_reproducible_from_their_stream() {
        let anchor = test_anchor(NodeId::N130);
        let sampler = ChipSampler::new(&anchor, VariationModel::default());
        let a = sampler.sample_chip(&mut chip_rng(7, 1, 99));
        let b = sampler.sample_chip(&mut chip_rng(7, 1, 99));
        assert_eq!(a, b);
        let c = sampler.sample_chip(&mut chip_rng(7, 1, 100));
        assert_ne!(a, c);
    }

    #[test]
    fn thinner_oxide_shortens_tddb_life() {
        let anchor = test_anchor(NodeId::N65HighV);
        let sampler = ChipSampler::new(&anchor, VariationModel::default());
        let base = sampler.node;
        let thin = sampler.perturbed_node(&ChipVariation {
            tox_factor: 0.95,
            temperature_offset_kelvin: 0.0,
            geometry_factor: 1.0,
        });
        let years_base = sampler.mechanism_mean_years(MechanismKind::Tddb, &base, 0.0);
        let years_thin = sampler.mechanism_mean_years(MechanismKind::Tddb, &thin, 0.0);
        assert!(
            years_thin < years_base,
            "thinner oxide must shorten TDDB life ({years_thin} vs {years_base})"
        );
    }

    #[test]
    fn hotter_chip_fails_every_thermal_mechanism_sooner() {
        let anchor = test_anchor(NodeId::N90);
        let sampler = ChipSampler::new(&anchor, VariationModel::default());
        let node = sampler.node;
        for m in [MechanismKind::Em, MechanismKind::Tddb, MechanismKind::Tc] {
            let cool = sampler.mechanism_mean_years(m, &node, 0.0);
            let hot = sampler.mechanism_mean_years(m, &node, 8.0);
            assert!(hot < cool, "{m}: +8K must shorten life ({hot} vs {cool})");
        }
    }
}
