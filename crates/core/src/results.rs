//! Result containers for the scaling study, with the aggregate views the
//! paper's tables and figures report.

use crate::mechanisms::MechanismKind;
use crate::pipeline::AppNodeRun;
use crate::{FitReport, NodeId, Qualification};
use ramp_microarch::PerStructure;
use ramp_trace::Suite;
use ramp_units::{ActivityFactor, Fit, Kelvin, Watts};
use serde::{Deserialize, Serialize};

/// One benchmark's outcome on one node, with qualified FIT values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppNodeResult {
    /// Benchmark name.
    pub app: String,
    /// Suite membership.
    pub suite: Suite,
    /// Node simulated.
    pub node: NodeId,
    /// Measured IPC.
    pub ipc: f64,
    /// Average dynamic power.
    pub avg_dynamic: Watts,
    /// Average leakage power.
    pub avg_leakage: Watts,
    /// Heat-sink temperature.
    pub sink_temperature: Kelvin,
    /// Per-structure peak temperature over the run.
    pub peak_temperature: PerStructure<Kelvin>,
    /// Per-structure time-average temperature.
    pub avg_temperature: PerStructure<Kelvin>,
    /// Per-structure peak interval activity.
    pub peak_activity: PerStructure<ActivityFactor>,
    /// Per-structure average activity.
    pub avg_activity: PerStructure<ActivityFactor>,
    /// Qualified FIT values.
    pub fit: FitReport,
}

impl AppNodeResult {
    /// Assembles a result from a raw run plus its qualified FIT report.
    #[must_use]
    pub fn from_run(run: &AppNodeRun, suite: Suite, fit: FitReport) -> Self {
        AppNodeResult {
            app: run.app.clone(),
            suite,
            node: run.node.id,
            ipc: run.ipc,
            avg_dynamic: run.avg_dynamic,
            avg_leakage: run.avg_leakage,
            sink_temperature: run.sink_temperature,
            peak_temperature: *run.rates.peak_temperature(),
            avg_temperature: *run.rates.average_temperature(),
            peak_activity: run.peak_activity,
            avg_activity: run.avg_activity,
            fit,
        }
    }

    /// Average total power (dynamic + leakage).
    #[must_use]
    pub fn avg_total_power(&self) -> Watts {
        self.avg_dynamic + self.avg_leakage
    }

    /// Maximum temperature reached by any structure (Figure 2's metric).
    #[must_use]
    pub fn max_temperature(&self) -> Kelvin {
        *ramp_microarch::Structure::ALL
            .iter()
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            .map(|&s| &self.peak_temperature[s])
            .max_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("non-empty structure set") // ramp-lint:allow(panic-hygiene) -- structures are a non-empty static enum
    }
}

/// The worst-case (max temperature & activity) synthetic run for one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorstCaseResult {
    /// Node this worst case belongs to.
    pub node: NodeId,
    /// The worst-case maximum temperature.
    pub max_temperature: Kelvin,
    /// Qualified FIT report at the worst-case operating point.
    pub fit: FitReport,
}

/// Wall-clock, throughput, and cache counters for one study execution.
///
/// Deliberately **not serialized**: the same study produces the same
/// `StudyResults` bytes whatever the thread count or cache state, and
/// metrics would break that. They travel alongside the results in memory
/// and are reported separately (see [`StudyMetrics::report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StudyMetrics {
    /// Worker threads the sweep fanned out over.
    pub threads: usize,
    /// Wall-clock of the whole study.
    pub wall_seconds: f64,
    /// Summed per-run timing-stage wall-clock (cache lookups count what
    /// they actually cost, so hits appear as ≈0).
    pub timing_seconds: f64,
    /// Summed per-run first-pass (power/steady-state) wall-clock.
    pub first_pass_seconds: f64,
    /// Summed per-run second-pass (transient + rates) wall-clock.
    pub second_pass_seconds: f64,
    /// (benchmark, node) runs evaluated.
    pub runs: u64,
    /// Activity intervals observed across all runs.
    pub intervals: u64,
    /// Per-structure operating points evaluated across all runs.
    pub structure_updates: u64,
    /// Timing-cache hits during the study.
    pub cache_hits: u64,
    /// Timing-cache misses during the study.
    pub cache_misses: u64,
}

impl StudyMetrics {
    /// Summed per-run wall-clock across all stages — the serial-equivalent
    /// cost of the sweep.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- telemetry seconds, not a model quantity
    pub fn cpu_seconds(&self) -> f64 {
        self.timing_seconds + self.first_pass_seconds + self.second_pass_seconds
    }

    /// Ratio of serial-equivalent cost to wall-clock: the measured
    /// speedup over running the same sweep on one thread.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless speedup ratio
    pub fn parallel_speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.cpu_seconds() / self.wall_seconds
        } else {
            1.0
        }
    }

    /// Completed (benchmark, node) runs per wall-clock second.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- telemetry rate, not a model quantity
    pub fn runs_per_second(&self) -> f64 {
        self.per_wall_second(self.runs)
    }

    /// Activity intervals simulated per wall-clock second.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- telemetry rate, not a model quantity
    pub fn intervals_per_second(&self) -> f64 {
        self.per_wall_second(self.intervals)
    }

    /// Structure operating points evaluated per wall-clock second.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- telemetry rate, not a model quantity
    pub fn structure_updates_per_second(&self) -> f64 {
        self.per_wall_second(self.structure_updates)
    }

    fn per_wall_second(&self, count: u64) -> f64 {
        if self.wall_seconds > 0.0 {
            count as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Publishes the metrics into the `ramp-obs` registry (gauges under
    /// `study.*`), so snapshots taken for run manifests include them
    /// alongside the live pipeline counters.
    pub fn publish(&self) {
        ramp_obs::gauge("study.threads").set(self.threads as f64);
        ramp_obs::gauge("study.wall_seconds").set(self.wall_seconds);
        ramp_obs::gauge("study.timing_seconds").set(self.timing_seconds);
        ramp_obs::gauge("study.first_pass_seconds").set(self.first_pass_seconds);
        ramp_obs::gauge("study.second_pass_seconds").set(self.second_pass_seconds);
        ramp_obs::gauge("study.runs").set(self.runs as f64);
        ramp_obs::gauge("study.intervals").set(self.intervals as f64);
        ramp_obs::gauge("study.structure_updates").set(self.structure_updates as f64);
        ramp_obs::gauge("study.cache_hits").set(self.cache_hits as f64);
        ramp_obs::gauge("study.cache_misses").set(self.cache_misses as f64);
    }

    /// Multi-line human-readable report, printed by the study binaries.
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "study executor: {} threads, {:.2} s wall ({:.2} s serial-equivalent, {:.2}x speedup)",
            self.threads,
            self.wall_seconds,
            self.cpu_seconds(),
            self.parallel_speedup(),
        );
        let _ = writeln!(
            out,
            "  stages: timing {:.2} s, first pass {:.2} s, second pass {:.2} s",
            self.timing_seconds, self.first_pass_seconds, self.second_pass_seconds,
        );
        let _ = writeln!(
            out,
            "  throughput: {:.1} runs/s, {:.0} intervals/s, {:.0} structure-updates/s",
            self.runs_per_second(),
            self.intervals_per_second(),
            self.structure_updates_per_second(),
        );
        let _ = writeln!(
            out,
            "  timing cache: {} hits, {} misses over {} runs",
            self.cache_hits, self.cache_misses, self.runs,
        );
        out
    }
}

/// Complete output of a scaling study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyResults {
    apps: Vec<AppNodeResult>,
    worst: Vec<WorstCaseResult>,
    qualification: Qualification,
    #[serde(skip)]
    metrics: StudyMetrics,
}

impl StudyResults {
    /// Packs results (used by [`crate::run_study`]).
    #[must_use]
    pub fn new(
        apps: Vec<AppNodeResult>,
        worst: Vec<WorstCaseResult>,
        qualification: Qualification,
    ) -> Self {
        StudyResults {
            apps,
            worst,
            qualification,
            metrics: StudyMetrics::default(),
        }
    }

    /// Execution metrics of the study that produced these results
    /// (zeroed when the results were deserialized from a cache file).
    #[must_use]
    pub fn metrics(&self) -> &StudyMetrics {
        &self.metrics
    }

    /// Attaches execution metrics (used by [`crate::run_study`]).
    pub fn set_metrics(&mut self, metrics: StudyMetrics) {
        self.metrics = metrics;
    }

    /// Every (benchmark, node) result.
    #[must_use]
    pub fn app_results(&self) -> &[AppNodeResult] {
        &self.apps
    }

    /// Every per-node worst case.
    #[must_use]
    pub fn worst_cases(&self) -> &[WorstCaseResult] {
        &self.worst
    }

    /// The qualification constants derived at 180 nm.
    #[must_use]
    pub fn qualification(&self) -> &Qualification {
        &self.qualification
    }

    /// Looks up one benchmark's result on one node.
    #[must_use]
    pub fn result(&self, app: &str, node: NodeId) -> Option<&AppNodeResult> {
        self.apps.iter().find(|r| r.app == app && r.node == node)
    }

    /// Looks up one node's worst case.
    #[must_use]
    pub fn worst_case(&self, node: NodeId) -> Option<&WorstCaseResult> {
        self.worst.iter().find(|w| w.node == node)
    }

    /// Results of one suite on one node.
    #[must_use]
    pub fn suite_results(&self, suite: Suite, node: NodeId) -> Vec<&AppNodeResult> {
        self.apps
            .iter()
            .filter(|r| r.suite == suite && r.node == node)
            .collect()
    }

    /// Mean total FIT of a suite on a node (a bar of Figure 4).
    #[must_use]
    pub fn average_total_fit(&self, suite: Suite, node: NodeId) -> Fit {
        let rs = self.suite_results(suite, node);
        let mean = rs.iter().map(|r| r.fit.total().value()).sum::<f64>() / rs.len() as f64;
        Fit::new(mean).expect("mean of valid FITs is valid") // ramp-lint:allow(panic-hygiene) -- mean of valid FITs stays valid
    }

    /// Mean per-mechanism FIT of a suite on a node (Figure 4 breakdown,
    /// Figure 5 series).
    #[must_use]
    pub fn average_mechanism_fit(
        &self,
        suite: Suite,
        node: NodeId,
        mechanism: MechanismKind,
    ) -> Fit {
        let rs = self.suite_results(suite, node);
        let mean = rs
            .iter()
            .map(|r| r.fit.mechanism_total(mechanism).value())
            .sum::<f64>()
            / rs.len() as f64;
        Fit::new(mean).expect("mean of valid FITs is valid") // ramp-lint:allow(panic-hygiene) -- mean of valid FITs stays valid
    }

    /// Mean total FIT over every benchmark on a node.
    #[must_use]
    pub fn overall_average_fit(&self, node: NodeId) -> Fit {
        let rs: Vec<_> = self.apps.iter().filter(|r| r.node == node).collect();
        let mean = rs.iter().map(|r| r.fit.total().value()).sum::<f64>() / rs.len() as f64;
        Fit::new(mean).expect("mean of valid FITs is valid") // ramp-lint:allow(panic-hygiene) -- mean of valid FITs stays valid
    }

    /// Highest single-benchmark total FIT on a node.
    #[must_use]
    pub fn max_app_fit(&self, node: NodeId) -> Fit {
        self.apps
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.fit.total())
            .fold(Fit::ZERO, |a, b| if b > a { b } else { a })
    }

    /// Range (max − min) of total FIT across benchmarks on a node — the
    /// spread §5.2 reports growing from 2479 FIT to 17272 FIT.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- FIT spread can be zero, which the Fit newtype rejects
    pub fn fit_range(&self, node: NodeId) -> f64 {
        let values: Vec<f64> = self
            .apps
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.fit.total().value())
            .collect();
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    /// Mean maximum temperature across a suite (Figure 2 aggregate).
    #[must_use]
    pub fn average_max_temperature(&self, suite: Suite, node: NodeId) -> Kelvin {
        let rs = self.suite_results(suite, node);
        let mean = rs
            .iter()
            .map(|r| r.max_temperature().value())
            .sum::<f64>()
            / rs.len() as f64;
        Kelvin::new(mean).expect("mean of valid temperatures is valid") // ramp-lint:allow(panic-hygiene) -- mean of valid temperatures stays valid
    }

    /// Mean heat-sink temperature across every benchmark on a node.
    #[must_use]
    pub fn average_sink_temperature(&self, node: NodeId) -> Kelvin {
        let rs: Vec<_> = self.apps.iter().filter(|r| r.node == node).collect();
        let mean = rs
            .iter()
            .map(|r| r.sink_temperature.value())
            .sum::<f64>()
            / rs.len() as f64;
        Kelvin::new(mean).expect("mean of valid temperatures is valid") // ramp-lint:allow(panic-hygiene) -- mean of valid temperatures stays valid
    }

    /// Worst-case margin over the hottest benchmark, as a percentage of
    /// the hottest benchmark's FIT (§5.2: 25 % at 180 nm → 90 % at 65 nm).
    #[must_use]
    pub fn worst_case_margin_over_max(&self, node: NodeId) -> Option<f64> {
        let wc = self.worst_case(node)?.fit.total().value();
        let max = self.max_app_fit(node).value();
        Some((wc - max) / max * 100.0)
    }

    /// Worst-case margin over the average benchmark, as a percentage of
    /// the average (§5.2: 67 % at 180 nm → 206 % at 65 nm).
    #[must_use]
    pub fn worst_case_margin_over_average(&self, node: NodeId) -> Option<f64> {
        let wc = self.worst_case(node)?.fit.total().value();
        let avg = self.overall_average_fit(node).value();
        Some((wc - avg) / avg * 100.0)
    }

    /// One-screen textual summary (nodes × headline numbers).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
            "node", "avgFIT", "maxFIT", "worstFIT", "range", "maxT(K)", "sinkT(K)"
        );
        let nodes: Vec<NodeId> = {
            let mut seen = Vec::new();
            for r in &self.apps {
                if !seen.contains(&r.node) {
                    seen.push(r.node);
                }
            }
            seen
        };
        for node in nodes {
            let max_t = self
                .apps
                .iter()
                .filter(|r| r.node == node)
                .map(|r| r.max_temperature().value())
                .fold(f64::MIN, f64::max);
            let _ = writeln!(
                out,
                "{:<12} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>8.1} {:>8.1}",
                node.label(),
                self.overall_average_fit(node).value(),
                self.max_app_fit(node).value(),
                self.worst_case(node)
                    .map(|w| w.fit.total().value())
                    .unwrap_or(f64::NAN),
                self.fit_range(node),
                max_t,
                self.average_sink_temperature(node).value(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::PerMechanism;
    use crate::{run_app_on_node, PipelineConfig, TechNode};
    use ramp_core_test_helpers::*;

    /// Minimal helpers local to this test module.
    mod ramp_core_test_helpers {
        pub use crate::mechanisms::MechanismSet;
        pub use ramp_trace::spec;
    }

    fn mini_results() -> StudyResults {
        let models = MechanismSet::default();
        let cfg = PipelineConfig::quick();
        let apps = ["gzip", "ammp"];
        let mut runs = Vec::new();
        for app in apps {
            runs.push(
                run_app_on_node(
                    &spec::profile(app).unwrap(),
                    &TechNode::reference(),
                    &cfg,
                    &models,
                    None,
                )
                .unwrap(),
            );
        }
        let rates: Vec<_> = runs.iter().map(|r| r.rates).collect();
        let qual = Qualification::from_reference_runs(&rates).unwrap();
        let apps: Vec<_> = runs
            .iter()
            .map(|r| {
                let suite = spec::profile(&r.app).unwrap().suite;
                AppNodeResult::from_run(r, suite, qual.fit_report(&r.rates))
            })
            .collect();
        StudyResults::new(apps, vec![], qual)
    }

    #[test]
    fn qualification_average_is_4000_at_reference() {
        let results = mini_results();
        let avg = results.overall_average_fit(NodeId::N180).value();
        assert!(
            (avg - 4000.0).abs() < 1.0,
            "reference average {avg} FIT (should be 4000 by construction)"
        );
    }

    #[test]
    fn per_mechanism_average_is_1000_at_reference() {
        let results = mini_results();
        for m in MechanismKind::ALL {
            let fp = results.average_mechanism_fit(Suite::Fp, NodeId::N180, m);
            let int = results.average_mechanism_fit(Suite::Int, NodeId::N180, m);
            let overall = (fp.value() + int.value()) / 2.0;
            assert!(
                (overall - 1000.0).abs() < 1.0,
                "{m}: overall {overall} (suites {fp} / {int})"
            );
        }
    }

    #[test]
    fn lookups_work() {
        let results = mini_results();
        assert!(results.result("gzip", NodeId::N180).is_some());
        assert!(results.result("gzip", NodeId::N90).is_none());
        assert!(results.result("nonexistent", NodeId::N180).is_none());
        assert!(results.worst_case(NodeId::N180).is_none());
    }

    #[test]
    fn summary_renders() {
        let results = mini_results();
        let text = results.summary();
        assert!(text.contains("180nm"));
        assert!(text.contains("avgFIT"));
    }

    #[test]
    fn fit_range_is_max_minus_min() {
        let results = mini_results();
        let vals: Vec<f64> = results
            .app_results()
            .iter()
            .map(|r| r.fit.total().value())
            .collect();
        let expect = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!((results.fit_range(NodeId::N180) - expect).abs() < 1e-9);
        let _ = PerMechanism::from_fn(|_| 0.0); // silence unused import lint paths
    }
}
