//! Parameter-sensitivity analysis for the failure models.
//!
//! Several of the paper's model constants are empirical fits with real
//! uncertainty (activation energies, the Coffin–Manson exponent, the
//! oxide-thinning sensitivity). This module quantifies how much each
//! constant moves the study's headline number — the 180 nm → 65 nm (1.0 V)
//! FIT growth — producing the data for a tornado chart and making explicit
//! which conclusions are robust to the fits and which are not.

use crate::executor::Executor;
use crate::mechanisms::{
    DielectricBreakdown, Electromigration, MechanismKind, MechanismSet, StressMigration,
    ThermalCycling,
};
use crate::{NodeId, OperatingPoint, TechNode};
use ramp_units::{ActivityFactor, Kelvin};
use serde::{Deserialize, Serialize};

/// One parameter's sensitivity result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// Mechanism the parameter belongs to.
    pub mechanism: MechanismKind,
    /// Human-readable parameter name.
    pub parameter: String,
    /// Nominal value.
    pub nominal: f64,
    /// The headline ratio (65 nm rate ÷ 180 nm rate) with the parameter at
    /// `nominal × (1 − spread)`.
    pub ratio_low: f64,
    /// The headline ratio at the nominal value.
    pub ratio_nominal: f64,
    /// The headline ratio with the parameter at `nominal × (1 + spread)`.
    pub ratio_high: f64,
}

impl SensitivityRow {
    /// Total swing of the headline ratio across the parameter's range,
    /// normalised by the nominal ratio — the tornado-chart bar length.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless swing ratio
    pub fn relative_swing(&self) -> f64 {
        (self.ratio_high - self.ratio_low).abs() / self.ratio_nominal
    }
}

/// The representative operating points used for the headline ratio: the
/// study's FIT-weighted average conditions at 180 nm and 65 nm (1.0 V).
fn probe_points() -> (OperatingPoint, TechNode, OperatingPoint, TechNode) {
    let n180 = TechNode::reference();
    let n65 = TechNode::get(NodeId::N65HighV);
    let p = ActivityFactor::new(0.4).expect("static probe activity"); // ramp-lint:allow(panic-hygiene) -- 0.4 is a valid activity factor
    (
        OperatingPoint::new(Kelvin::new_const(356.0), n180.vdd, p),
        n180,
        OperatingPoint::new(Kelvin::new_const(366.0), n65.vdd, p),
        n65,
    )
}

/// `kind`'s 65 nm rate over its 180 nm rate at the probe points.
fn headline_ratio(models: &MechanismSet, kind: MechanismKind) -> f64 {
    let (op180, n180, op65, n65) = probe_points();
    models.prepare(&n65).rate(kind, &op65) / models.prepare(&n180).rate(kind, &op180)
}

/// Computes the sensitivity table: every fitted constant perturbed by
/// ±`spread` (fractional, e.g. 0.1 for ±10 %).
///
/// # Panics
///
/// Panics if `spread` is not within `(0, 0.9)` — larger perturbations push
/// some constants out of their physical domain.
///
/// # Examples
///
/// ```
/// use ramp_core::sensitivity::sensitivity_table;
/// let rows = sensitivity_table(0.1);
/// assert!(rows.len() >= 8);
/// // The oxide-thinning sensitivity dominates everything else.
/// let top = rows.iter().max_by(|a, b| {
///     a.relative_swing().total_cmp(&b.relative_swing())
/// }).unwrap();
/// assert_eq!(top.parameter, "TDDB nm per decade");
/// ```
#[must_use]
// ramp-lint:allow(unit-safety) -- spread is a dimensionless perturbation fraction
pub fn sensitivity_table(spread: f64) -> Vec<SensitivityRow> {
    assert!(
        spread > 0.0 && spread < 0.9,
        "spread must be a small positive fraction, got {spread}"
    );
    // Each perturbed parameter is an independent probe, so the table fans
    // out over the shared executor like every other sweep in the
    // workspace; `Executor::map` keeps the rows in declaration order.
    let specs = parameter_specs();
    Executor::from_env().map(&specs, |spec| {
        let ratio_at = |v: f64| {
            let mut models = MechanismSet::default();
            (spec.set)(&mut models, v);
            headline_ratio(&models, spec.mechanism)
        };
        SensitivityRow {
            mechanism: spec.mechanism,
            parameter: spec.parameter.to_string(),
            nominal: spec.nominal,
            ratio_low: ratio_at(spec.nominal * (1.0 - spread)),
            ratio_nominal: ratio_at(spec.nominal),
            ratio_high: ratio_at(spec.nominal * (1.0 + spread)),
        }
    })
}

/// One fitted constant and how to set it in a model set.
struct ParameterSpec {
    mechanism: MechanismKind,
    parameter: &'static str,
    nominal: f64,
    set: fn(&mut MechanismSet, f64),
}

/// The spec of field `$field` of mechanism `$mech`: its default value as
/// the nominal, and a setter of that same field.
macro_rules! spec {
    ($kind:ident, $parameter:literal, $mech:ident . $field:ident) => {
        ParameterSpec {
            mechanism: MechanismKind::$kind,
            parameter: $parameter,
            nominal: MechanismSet::default().$mech.$field,
            set: |models, v| models.$mech.$field = v,
        }
    };
}

fn parameter_specs() -> Vec<ParameterSpec> {
    vec![
        spec!(Em, "EM current exponent n", em.current_exponent),
        spec!(Em, "EM activation energy (eV)", em.activation_energy_ev),
        spec!(Em, "EM geometry exponent", em.geometry_exponent),
        spec!(Sm, "SM stress exponent m", sm.stress_exponent),
        spec!(Sm, "SM activation energy (eV)", sm.activation_energy_ev),
        spec!(Tddb, "TDDB voltage exponent a", tddb.a),
        spec!(Tddb, "TDDB nm per decade", tddb.nm_per_decade),
        spec!(Tddb, "TDDB X (eV)", tddb.x_ev),
        spec!(Tc, "TC Coffin-Manson exponent q", tc.coffin_manson_exponent),
    ]
}

/// Convenience: checks whether the paper's qualitative conclusion — TDDB
/// and EM dominate the 65 nm increase — survives a ±`spread` perturbation
/// of **every** fitted constant simultaneously in its least favourable
/// direction.
#[must_use]
// ramp-lint:allow(unit-safety) -- spread is a dimensionless perturbation fraction
pub fn ordering_is_robust(spread: f64) -> bool {
    // Weakest TDDB & EM vs strongest SM & TC.
    let d = MechanismSet::default();
    let models = MechanismSet {
        em: Electromigration {
            geometry_exponent: d.em.geometry_exponent * (1.0 - spread),
            activation_energy_ev: d.em.activation_energy_ev * (1.0 - spread),
            ..d.em
        },
        sm: StressMigration {
            activation_energy_ev: d.sm.activation_energy_ev * (1.0 + spread),
            ..d.sm
        },
        tddb: DielectricBreakdown {
            nm_per_decade: d.tddb.nm_per_decade * (1.0 + spread),
            a: d.tddb.a * (1.0 + spread),
            ..d.tddb
        },
        tc: ThermalCycling {
            coffin_manson_exponent: d.tc.coffin_manson_exponent * (1.0 + spread),
            ..d.tc
        },
    };
    let [r_em, r_sm, r_tddb, r_tc] = MechanismKind::ALL.map(|kind| headline_ratio(&models, kind));
    r_tddb > r_sm && r_tddb > r_tc && r_em > r_sm && r_em > r_tc
}

/// The voltage exponent is sampled through `OperatingPoint`, so keep the
/// probe's voltage wiring honest.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_all_mechanisms() {
        let rows = sensitivity_table(0.1);
        for m in MechanismKind::ALL {
            assert!(
                rows.iter().any(|r| r.mechanism == m),
                "{m} missing from sensitivity table"
            );
        }
    }

    #[test]
    fn nominal_ratios_are_consistent_within_a_mechanism() {
        let rows = sensitivity_table(0.05);
        for m in MechanismKind::ALL {
            let ratios: Vec<f64> = rows
                .iter()
                .filter(|r| r.mechanism == m)
                .map(|r| r.ratio_nominal)
                .collect();
            for r in &ratios {
                assert!((r - ratios[0]).abs() < 1e-9 * ratios[0]);
            }
        }
    }

    #[test]
    fn tddb_tox_sensitivity_dominates() {
        let rows = sensitivity_table(0.1);
        let top = rows
            .iter()
            .max_by(|a, b| a.relative_swing().total_cmp(&b.relative_swing()))
            .unwrap();
        assert_eq!(top.parameter, "TDDB nm per decade");
    }

    #[test]
    fn low_nominal_high_are_ordered_for_monotone_parameters() {
        let rows = sensitivity_table(0.1);
        // EM activation energy: higher Ea ⇒ smaller rate at both nodes, but
        // ratio moves monotonically; check the bracket actually brackets.
        for row in rows {
            let lo = row.ratio_low.min(row.ratio_high);
            let hi = row.ratio_low.max(row.ratio_high);
            assert!(
                row.ratio_nominal >= lo * 0.999 && row.ratio_nominal <= hi * 1.001,
                "{}: nominal outside bracket",
                row.parameter
            );
        }
    }

    #[test]
    fn headline_ordering_robust_to_ten_percent() {
        assert!(ordering_is_robust(0.10));
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn rejects_out_of_domain_spread() {
        let _ = sensitivity_table(1.5);
    }
}
