//! The four intrinsic hard-failure mechanisms modelled by RAMP.
//!
//! Each mechanism is a concrete parameter set whose `prepare(&TechNode)`
//! builds a [`MechanismKernel`]: the node's invariant factors evaluated
//! once. Given a structure's instantaneous [`OperatingPoint`], the kernel
//! returns a *relative* failure rate — the full analytic rate expression
//! with the unknown material/yield proportionality constant factored out.
//! [`crate::Qualification`] later fixes those constants so that each
//! mechanism contributes 1000 FIT on average across the workload at
//! 180 nm (a 30-year, 4000-FIT processor), exactly the paper's
//! reliability-qualification procedure.
//!
//! Summary of scaling dependences (Table 1 of the paper):
//!
//! | Mechanism | temperature | voltage | feature size |
//! |---|---|---|---|
//! | EM   | `e^{−Ea/kT}` (rate) | — | `1/(w·h)` via κ², plus J_max |
//! | SM   | `\|T−T₀\|^m e^{−Ea/kT}` (rate) | — | — |
//! | TDDB | super-exponential | `V^{a−bT}` (rate) | `10^{Δt_ox/s}`, gate area |
//! | TC   | `(T−T_ambient)^q` (rate) | — | — |
//!
//! [`MechanismSet`] names the four models, one concrete field each, and
//! [`MechanismSet::prepare`] builds all four kernels of a node at once.
//! Each rate formula exists once, in its kernel.

mod em;
mod sm;
mod tc;
mod tddb;

pub use em::{Electromigration, EmKernel};
pub use sm::StressMigration;
pub use tc::ThermalCycling;
pub use tddb::{DielectricBreakdown, TddbKernel};

use crate::{OperatingPoint, TechNode};
use ramp_units::{ActivityFactor, Kelvin, Volts};
use serde::{Deserialize, Serialize};

/// Identifies one of the four modelled failure mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MechanismKind {
    /// Electromigration in copper interconnects.
    Em,
    /// Stress migration (thermo-mechanical stress voiding).
    Sm,
    /// Time-dependent dielectric (gate-oxide) breakdown.
    Tddb,
    /// Thermal-cycling fatigue (package / die interface).
    Tc,
}

impl MechanismKind {
    /// All mechanisms, in the paper's reporting order.
    pub const ALL: [MechanismKind; 4] = [
        MechanismKind::Em,
        MechanismKind::Sm,
        MechanismKind::Tddb,
        MechanismKind::Tc,
    ];

    /// Number of modelled mechanisms.
    pub const COUNT: usize = 4;

    /// Dense index within [`MechanismKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            MechanismKind::Em => 0,
            MechanismKind::Sm => 1,
            MechanismKind::Tddb => 2,
            MechanismKind::Tc => 3,
        }
    }

    /// Short uppercase label as used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MechanismKind::Em => "EM",
            MechanismKind::Sm => "SM",
            MechanismKind::Tddb => "TDDB",
            MechanismKind::Tc => "TC",
        }
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One mechanism's rate expression with a node's invariant factors
/// already evaluated (built by the mechanism's `prepare`).
///
/// Kernels are pure functions of the operating point: the reliability
/// engine evaluates them once per structure per microsecond interval.
///
/// The per-operating-point inputs split once more. Temperature moves on
/// every evaluation; the supply and activity terms can be evaluated once
/// with [`MechanismKernel::hoist`] by a caller that prices many
/// temperatures at one supply and activity.
pub trait MechanismKernel: Copy {
    /// The evaluated supply and activity terms (`()` for a mechanism that
    /// depends on neither).
    type Hoisted: Copy;

    /// Evaluates the supply and activity terms.
    fn hoist(&self, voltage: Volts, activity: ActivityFactor) -> Self::Hoisted;

    /// Relative rate at `temperature`, given the hoisted terms.
    fn rate_at(&self, hoisted: Self::Hoisted, temperature: Kelvin) -> f64;

    /// Relative instantaneous failure rate (reciprocal of relative MTTF)
    /// at one operating point on the prepared node. Dimensionless up to
    /// the calibration constant; finite and non-negative.
    fn rate(&self, op: &OperatingPoint) -> f64 {
        self.rate_at(self.hoist(op.voltage, op.activity), op.temperature)
    }
}

/// The four mechanisms as concrete types, one of each. `Default` is the
/// standard (paper/calibrated) parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MechanismSet {
    /// Electromigration.
    pub em: Electromigration,
    /// Stress migration.
    pub sm: StressMigration,
    /// Gate-oxide breakdown.
    pub tddb: DielectricBreakdown,
    /// Thermal cycling.
    pub tc: ThermalCycling,
}

impl MechanismSet {
    /// Every mechanism prepared for `node`.
    #[must_use]
    pub fn prepare(&self, node: &TechNode) -> PreparedSet {
        PreparedSet {
            em: self.em.prepare(node),
            sm: self.sm.prepare(node),
            tddb: self.tddb.prepare(node),
            tc: self.tc.prepare(node),
        }
    }
}

/// The four kernels of one node (see [`MechanismSet::prepare`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedSet {
    /// Electromigration kernel.
    pub em: EmKernel,
    /// Stress migration (its own kernel).
    pub sm: StressMigration,
    /// Gate-oxide breakdown kernel.
    pub tddb: TddbKernel,
    /// Thermal cycling (its own kernel).
    pub tc: ThermalCycling,
}

impl PreparedSet {
    /// Relative rate of mechanism `kind` at one operating point (see
    /// [`MechanismKernel::rate`]).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- relative failure rate, dimensionless
    pub fn rate(&self, kind: MechanismKind, op: &OperatingPoint) -> f64 {
        match kind {
            MechanismKind::Em => self.em.rate(op),
            MechanismKind::Sm => self.sm.rate(op),
            MechanismKind::Tddb => self.tddb.rate(op),
            MechanismKind::Tc => self.tc.rate(op),
        }
    }
}

/// The standard model set, [`MechanismSet::default`].
#[must_use]
pub fn standard_models() -> MechanismSet {
    MechanismSet::default()
}

/// A dense per-mechanism map, indexed by [`MechanismKind`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerMechanism<T>(pub [T; MechanismKind::COUNT]);

impl<T: Default + Copy> Default for PerMechanism<T> {
    fn default() -> Self {
        PerMechanism([T::default(); MechanismKind::COUNT])
    }
}

impl<T> PerMechanism<T> {
    /// Builds a map by evaluating `f` for each mechanism.
    pub fn from_fn(mut f: impl FnMut(MechanismKind) -> T) -> Self {
        PerMechanism(MechanismKind::ALL.map(&mut f))
    }

    /// Iterates `(mechanism, &value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (MechanismKind, &T)> {
        MechanismKind::ALL
            .iter()
            .map(move |&m| (m, &self.0[m.index()]))
    }

    /// The underlying array in canonical order.
    #[must_use]
    pub fn as_array(&self) -> &[T; MechanismKind::COUNT] {
        &self.0
    }
}

impl<T> std::ops::Index<MechanismKind> for PerMechanism<T> {
    type Output = T;
    fn index(&self, m: MechanismKind) -> &T {
        &self.0[m.index()]
    }
}

impl<T> std::ops::IndexMut<MechanismKind> for PerMechanism<T> {
    fn index_mut(&mut self, m: MechanismKind) -> &mut T {
        &mut self.0[m.index()]
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use ramp_units::{ActivityFactor, Kelvin, Volts};

    /// A representative 180 nm operating point for mechanism unit tests.
    pub fn typical_op(temp_k: f64) -> OperatingPoint {
        OperatingPoint::new(
            Kelvin::new(temp_k).unwrap(),
            Volts::new(1.3).unwrap(),
            ActivityFactor::new(0.4).unwrap(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use test_support::typical_op;

    #[test]
    fn kinds_are_dense() {
        for (i, &m) in MechanismKind::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn all_rates_finite_positive_and_temperature_monotone() {
        let prepared = MechanismSet::default().prepare(&TechNode::reference());
        for kind in MechanismKind::ALL {
            let cool = prepared.rate(kind, &typical_op(340.0));
            let hot = prepared.rate(kind, &typical_op(380.0));
            assert!(cool.is_finite() && cool > 0.0, "{kind}");
            assert!(
                hot > cool,
                "{kind} must degrade with temperature: {cool} vs {hot}"
            );
        }
    }

    #[test]
    fn scaling_to_65nm_raises_every_mechanism() {
        // At equal temperature, voltage effects can offset others; compare
        // at the realistic 65 nm point (1.0 V) with its observed ~+10 K.
        let n180 = TechNode::reference();
        let n65 = TechNode::get(NodeId::N65HighV);
        let set = MechanismSet::default();
        for kind in MechanismKind::ALL {
            let mut op180 = typical_op(356.0);
            let mut op65 = typical_op(366.0);
            op180.voltage = n180.vdd;
            op65.voltage = n65.vdd;
            let r180 = set.prepare(&n180).rate(kind, &op180);
            let r65 = set.prepare(&n65).rate(kind, &op65);
            assert!(
                r65 > r180,
                "{kind}: 65 nm rate {r65} not above 180 nm rate {r180}"
            );
        }
    }

    #[test]
    fn per_mechanism_indexing() {
        let m = PerMechanism::from_fn(|k| k.index() * 10);
        assert_eq!(m[MechanismKind::Tddb], 20);
        assert_eq!(m.iter().count(), 4);
    }
}
