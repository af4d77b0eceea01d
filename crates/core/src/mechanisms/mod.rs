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
//!
//! The second pass prices a whole interval at once:
//! [`PreparedSet::price_interval`] returns EM, SM and TDDB for all seven
//! structures ([`IntervalRates`]) and evaluates each term two rates share
//! only once. Its activity-only term comes in as [`ActivityTerms`], which
//! a run replaying one activity trace builds once per trace interval.

mod em;
mod sm;
mod tc;
mod tddb;

pub use em::{Electromigration, EmKernel};
pub use sm::StressMigration;
pub use tc::ThermalCycling;
pub use tddb::{DielectricBreakdown, TddbKernel};

use crate::{OperatingPoint, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{ActivityFactor, Kelvin, Volts, BOLTZMANN_EV_PER_K};
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
        let em = self.em.prepare(node);
        let sm = self.sm.prepare(node);
        PreparedSet {
            shared_arrhenius: em.activation_energy_ev().to_bits()
                == sm.activation_energy_ev.to_bits(),
            em,
            sm,
            tddb: self.tddb.prepare(node),
            tc: self.tc.prepare(node),
        }
    }
}

/// The Arrhenius factor `exp(−Eₐ/(k·T))` that EM and SM share in form.
fn arrhenius(activation_energy_ev: f64, temperature: Kelvin) -> f64 {
    (-activation_energy_ev / (BOLTZMANN_EV_PER_K * temperature.value())).exp()
}

/// The four kernels of one node (see [`MechanismSet::prepare`]).
///
/// The kernels are read-only once prepared: whether EM and SM share one
/// Arrhenius factor is decided in `prepare` from their activation
/// energies, and nothing can change either energy afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedSet {
    em: EmKernel,
    sm: StressMigration,
    tddb: TddbKernel,
    tc: ThermalCycling,
    /// EM's and SM's Eₐ are bit-equal, so one `exp` serves both.
    shared_arrhenius: bool,
}

impl PreparedSet {
    /// Electromigration kernel.
    #[must_use]
    pub fn em(&self) -> &EmKernel {
        &self.em
    }

    /// Stress migration (its own kernel).
    #[must_use]
    pub fn sm(&self) -> &StressMigration {
        &self.sm
    }

    /// Gate-oxide breakdown kernel.
    #[must_use]
    pub fn tddb(&self) -> &TddbKernel {
        &self.tddb
    }

    /// Thermal cycling (its own kernel).
    #[must_use]
    pub fn tc(&self) -> &ThermalCycling {
        &self.tc
    }

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

    /// EM, SM and TDDB for every structure of one interval, each rate
    /// bit-equal to [`PreparedSet::rate`] at that structure's operating
    /// point (its `terms` activity, `supply` and `temperature`).
    ///
    /// Terms two rates share are evaluated once: per structure, one
    /// `exp(−Eₐ/(k·T))` serves EM and SM when their activation energies
    /// are bit-equal (decided in [`MechanismSet::prepare`]), and TDDB's
    /// `ln V` is taken again only when the supply differs from the
    /// previous structure's, so an interval at one supply takes one `ln`.
    /// EM's `J^n` comes precomputed in `terms`, which must have been
    /// built from this set.
    #[must_use]
    pub fn price_interval(
        &self,
        terms: &ActivityTerms,
        supply: &PerStructure<Volts>,
        temperature: &PerStructure<Kelvin>,
    ) -> IntervalRates {
        let mut rates = IntervalRates::ZERO;
        let [em, sm, tddb] = &mut rates.0;
        let outputs = em.0.iter_mut().zip(&mut sm.0).zip(&mut tddb.0);
        let inputs = terms.em_current.0.iter().zip(&supply.0).zip(&temperature.0);
        let mut ln_supply: Option<(Volts, f64)> = None;
        for (((em, sm), tddb), ((&current, &v), &t)) in outputs.zip(inputs) {
            let em_arrhenius = arrhenius(self.em.activation_energy_ev(), t);
            let sm_arrhenius = if self.shared_arrhenius {
                em_arrhenius
            } else {
                arrhenius(self.sm.activation_energy_ev, t)
            };
            *em = self.em.rate_from(current, em_arrhenius);
            *sm = self.sm.rate_from(t, sm_arrhenius);
            let ln_v = match ln_supply {
                Some((last, ln_v)) if last.value().to_bits() == v.value().to_bits() => ln_v,
                _ => self.tddb.hoist(v, ActivityFactor::IDLE),
            };
            ln_supply = Some((v, ln_v));
            *tddb = self.tddb.rate_at(ln_v, t);
        }
        rates
    }
}

/// The terms of an interval's rates that depend only on the node and the
/// structures' activity factors: EM's current term `J^n` per structure.
///
/// Its one constructor takes the activity and no supply or temperature,
/// so nothing else can enter it. That is what lets a run replaying one
/// activity trace build it once per trace interval and reuse it on every
/// repeat, even when the supply changes from interval to interval (a
/// DRM-managed run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityTerms {
    em_current: PerStructure<f64>,
}

impl ActivityTerms {
    /// The activity terms of `prepared`'s node at `activity`.
    #[must_use]
    pub fn new(prepared: &PreparedSet, activity: &PerStructure<ActivityFactor>) -> Self {
        ActivityTerms {
            em_current: PerStructure(activity.0.map(|a| prepared.em.current_term(a))),
        }
    }
}

/// EM, SM and TDDB rates of every structure in one interval (see
/// [`PreparedSet::price_interval`]). Thermal cycling is not an interval
/// rate: it is priced on a run's average temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalRates(pub(crate) [PerStructure<f64>; 3]);

impl IntervalRates {
    /// The mechanisms an interval prices, in storage order.
    pub const MECHANISMS: [MechanismKind; 3] =
        [MechanismKind::Em, MechanismKind::Sm, MechanismKind::Tddb];

    /// Every rate zero.
    pub(crate) const ZERO: IntervalRates =
        IntervalRates([PerStructure([0.0; Structure::COUNT]); 3]);

    /// `kind`'s rate per structure; `None` for thermal cycling.
    #[must_use]
    pub fn get(&self, kind: MechanismKind) -> Option<&PerStructure<f64>> {
        Self::MECHANISMS
            .iter()
            .zip(&self.0)
            .find_map(|(&m, rates)| (m == kind).then_some(rates))
    }

    /// The first rate, in [`IntervalRates::MECHANISMS`] then structure
    /// order, that is not finite and non-negative, or `None` when every
    /// rate is.
    #[must_use]
    pub(crate) fn first_invalid(&self) -> Option<(MechanismKind, Structure, f64)> {
        Self::MECHANISMS
            .iter()
            .zip(&self.0)
            .find_map(|(&m, rates)| {
                rates
                    .iter()
                    .find(|&(_, &r)| !(0.0..f64::INFINITY).contains(&r))
                    .map(|(s, &r)| (m, s, r))
            })
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
