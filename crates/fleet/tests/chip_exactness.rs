//! `ChipSampler::sample_chip` reproduces the per-mechanism evaluation it
//! replaced, bit for bit.
//!
//! The sampler prices a chip with node-prepared mechanism kernels and
//! hoists every term no chip moves. The reference below is the loop it
//! replaced, kept here verbatim in behaviour: the variation windows are
//! rebuilt per chip, each (mechanism, structure) cell prepares the
//! perturbed node afresh and evaluates its one mechanism there, each
//! mechanism sums its own structures, and the TC Weibull recomputes
//! Γ(1 + 1/β) per chip. Every chip's `failure_years` must agree to the
//! bit and its killer must match, at every study node, under the default
//! and the degenerate variation model.

use ramp_core::mechanisms::{MechanismKind, MechanismSet, PerMechanism};
use ramp_core::{NodeId, OperatingPoint, PopulationAnchor, QueryEngine, StudyConfig, TechNode};
use ramp_fleet::{
    chip_rng, ChipOutcome, ChipSampler, CoffinMansonShape, Lognormal, TruncatedNormal,
    VariationModel,
};
use ramp_microarch::{PerStructure, Structure};
use ramp_trace::Rng;
use ramp_units::{ActivityFactor, Angstroms, Kelvin};

/// Chip streams compared per (node, variation model).
const CHIPS: u64 = 2_000;

/// The per-mechanism, per-cell chip evaluator.
struct Reference {
    node: TechNode,
    variation: VariationModel,
    models: MechanismSet,
    base_ops: PerStructure<OperatingPoint>,
    base_rate: PerMechanism<PerStructure<f64>>,
    base_fit: PerMechanism<PerStructure<f64>>,
}

impl Reference {
    fn new(anchor: &PopulationAnchor, variation: VariationModel) -> Self {
        let models = MechanismSet::default();
        let activity = ActivityFactor::new(0.5).unwrap();
        let base_ops = PerStructure::from_fn(|s| {
            OperatingPoint::new(
                anchor.rates.average_temperature()[s],
                anchor.node.vdd,
                activity,
            )
        });
        let base_rate = PerMechanism::from_fn(|m| {
            PerStructure::from_fn(|s| models.prepare(&anchor.node).rate(m, &base_ops[s]))
        });
        let base_fit =
            PerMechanism::from_fn(|m| PerStructure::from_fn(|s| anchor.report.fit(m, s).value()));
        Reference {
            node: anchor.node,
            variation,
            models,
            base_ops,
            base_rate,
            base_fit,
        }
    }

    fn mechanism_mean_years(&self, m: MechanismKind, chip_node: &TechNode, offset: f64) -> f64 {
        let mut chip_fit = 0.0;
        for s in Structure::ALL {
            let base = self.base_rate[m][s];
            if base <= 0.0 {
                continue;
            }
            let mut op = self.base_ops[s];
            op.temperature = Kelvin::new(op.temperature.value() + offset).unwrap_or(op.temperature);
            let ratio = self.models.prepare(chip_node).rate(m, &op) / base;
            chip_fit += self.base_fit[m][s] * ratio;
        }
        if chip_fit <= 0.0 {
            return f64::MAX;
        }
        1.0e9 / chip_fit / (24.0 * 365.25)
    }

    fn sample_chip(&self, rng: &mut Rng) -> ChipOutcome {
        let v = &self.variation;
        let factor = |sigma, rng: &mut Rng| {
            TruncatedNormal::symmetric(1.0, sigma, 3.0)
                .sample(rng)
                .max(0.05)
        };
        let tox_factor = factor(v.tox_fraction_sigma, rng);
        let offset = TruncatedNormal::symmetric(0.0, v.temperature_sigma_kelvin, 3.0).sample(rng);
        let geometry_factor = factor(v.geometry_fraction_sigma, rng);
        let mut chip_node = self.node;
        chip_node.tox = Angstroms::new(self.node.tox.value() * tox_factor).unwrap_or(self.node.tox);
        chip_node.scale_factor = self.node.scale_factor * geometry_factor;

        let mut failure_years = f64::MAX;
        let mut killer = MechanismKind::Em;
        for m in MechanismKind::ALL {
            let mean_years = self.mechanism_mean_years(m, &chip_node, offset);
            let drawn = if mean_years == f64::MAX {
                f64::MAX
            } else if m == MechanismKind::Tc {
                CoffinMansonShape::new(v.tc_shape)
                    .with_mean_years(mean_years)
                    .sample_years(rng)
            } else {
                Lognormal::from_mean(mean_years, v.lifetime_sigma).sample(rng)
            };
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

#[test]
fn sample_chip_matches_the_per_mechanism_loop_bit_for_bit() {
    let config = StudyConfig::quick().with_benchmarks(&["gzip"]).unwrap();
    let engine = QueryEngine::calibrate(&config).unwrap();
    for (n, id) in NodeId::ALL.into_iter().enumerate() {
        let anchor = engine
            .population_anchor(&engine.query("gzip", id).unwrap())
            .unwrap();
        for variation in [VariationModel::default(), VariationModel::degenerate()] {
            let sampler = ChipSampler::new(&anchor, variation);
            let reference = Reference::new(&anchor, variation);
            let mut killers = PerMechanism::<u64>::default();
            for chip in 0..CHIPS {
                let mut fast_rng = chip_rng(42, n as u64, chip);
                let mut slow_rng = chip_rng(42, n as u64, chip);
                let fast = sampler.sample_chip(&mut fast_rng);
                let slow = reference.sample_chip(&mut slow_rng);
                assert_eq!(
                    fast.failure_years.to_bits(),
                    slow.failure_years.to_bits(),
                    "{id:?} chip {chip}: {} vs {} years",
                    fast.failure_years,
                    slow.failure_years
                );
                assert_eq!(fast.killer, slow.killer, "{id:?} chip {chip}");
                // Both consumed the same draws.
                assert_eq!(
                    fast_rng.next_u64(),
                    slow_rng.next_u64(),
                    "{id:?} chip {chip}"
                );
                killers[fast.killer] += 1;
            }
            if variation == VariationModel::default() {
                // More than one mechanism kills chips, so the killer
                // comparison is not vacuous.
                let distinct = killers.iter().filter(|(_, &k)| k > 0).count();
                assert!(distinct > 1, "{id:?}: one mechanism killed every chip");
            }
        }
    }
}
