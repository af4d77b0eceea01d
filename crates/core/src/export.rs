//! Machine-readable exports of study results (CSV), for plotting the
//! paper's figures with external tools.

use crate::error::RampError;
use crate::mechanisms::MechanismKind;
use crate::results::StudyResults;
use crate::NodeId;
use std::fmt::Write as _;
use std::path::Path;

/// Escapes a CSV field (quotes fields containing separators or quotes).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl StudyResults {
    /// Per-(benchmark, node) results as CSV: identification, performance,
    /// power, temperatures, and FIT totals per mechanism.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # let results: ramp_core::StudyResults = unimplemented!();
    /// let csv = results.to_csv();
    /// assert!(csv.starts_with("benchmark,suite,node"));
    /// ```
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "benchmark,suite,node,ipc,dynamic_w,leakage_w,total_w,sink_k,max_temp_k,\
             fit_em,fit_sm,fit_tddb,fit_tc,fit_total\n",
        );
        for r in self.app_results() {
            let _ = write!(
                out,
                "{},{},{},{:.4},{:.3},{:.3},{:.3},{:.2},{:.2}",
                csv_field(&r.app),
                r.suite,
                csv_field(r.node.label()),
                r.ipc,
                r.avg_dynamic.value(),
                r.avg_leakage.value(),
                r.avg_total_power().value(),
                r.sink_temperature.value(),
                r.max_temperature().value(),
            );
            for m in MechanismKind::ALL {
                let _ = write!(out, ",{:.2}", r.fit.mechanism_total(m).value());
            }
            let _ = writeln!(out, ",{:.2}", r.fit.total().value());
        }
        out
    }

    /// Per-node worst-case rows as CSV.
    #[must_use]
    pub fn worst_case_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("node,max_temp_k,fit_em,fit_sm,fit_tddb,fit_tc,fit_total\n");
        for w in self.worst_cases() {
            let _ = write!(
                out,
                "{},{:.2}",
                csv_field(w.node.label()),
                w.max_temperature.value()
            );
            for m in MechanismKind::ALL {
                let _ = write!(out, ",{:.2}", w.fit.mechanism_total(m).value());
            }
            let _ = writeln!(out, ",{:.2}", w.fit.total().value());
        }
        out
    }

    /// The node-level aggregate view (one row per node) as CSV — the data
    /// behind the `study` binary's summary table.
    #[must_use]
    pub fn node_summary_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("node,avg_fit,max_app_fit,worst_case_fit,fit_range,avg_sink_k\n");
        let mut nodes: Vec<NodeId> = Vec::new();
        for r in self.app_results() {
            if !nodes.contains(&r.node) {
                nodes.push(r.node);
            }
        }
        for node in nodes {
            let _ = writeln!(
                out,
                "{},{:.2},{:.2},{},{:.2},{:.2}",
                csv_field(node.label()),
                self.overall_average_fit(node).value(),
                self.max_app_fit(node).value(),
                self.worst_case(node)
                    .map(|w| format!("{:.2}", w.fit.total().value()))
                    .unwrap_or_default(),
                self.fit_range(node),
                self.average_sink_temperature(node).value(),
            );
        }
        out
    }

    /// Writes the three CSV exports (`apps.csv`, `worst_case.csv`,
    /// `nodes.csv`) into `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns [`RampError::Io`] carrying the offending path and the OS
    /// error if the directory cannot be created or any file write fails.
    pub fn write_csv(&self, dir: &Path) -> Result<(), RampError> {
        let io = |path: &Path| {
            let shown = path.display().to_string();
            move |e: std::io::Error| RampError::Io(format!("{shown}: {e}"))
        };
        std::fs::create_dir_all(dir).map_err(io(dir))?;
        for (name, contents) in [
            ("apps.csv", self.to_csv()),
            ("worst_case.csv", self.worst_case_csv()),
            ("nodes.csv", self.node_summary_csv()),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, contents).map_err(io(&path))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::MechanismSet;
    use crate::{run_app_on_node, AppNodeResult, PipelineConfig, Qualification, TechNode};
    use ramp_trace::spec;

    fn tiny_results() -> StudyResults {
        let models = MechanismSet::default();
        let run = run_app_on_node(
            &spec::profile("gzip").unwrap(),
            &TechNode::reference(),
            &PipelineConfig::quick(),
            &models,
            None,
        )
        .unwrap();
        let qual = Qualification::from_reference_runs(&[run.rates]).unwrap();
        let result = AppNodeResult::from_run(
            &run,
            ramp_trace::Suite::Int,
            qual.fit_report(&run.rates),
        );
        StudyResults::new(vec![result], vec![], qual)
    }

    #[test]
    fn csv_has_header_and_one_row_per_result() {
        let results = tiny_results();
        let csv = results.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("benchmark,suite,node"));
        assert!(lines[1].starts_with("gzip,SpecInt,180nm,"));
        // Column count matches the header.
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count()
        );
    }

    #[test]
    fn csv_fit_total_matches_report() {
        let results = tiny_results();
        let csv = results.to_csv();
        let row = csv.trim().lines().nth(1).unwrap();
        let total: f64 = row.rsplit(',').next().unwrap().parse().unwrap();
        let expect = results.app_results()[0].fit.total().value();
        assert!((total - expect).abs() < 0.01);
    }

    #[test]
    fn node_summary_csv_renders() {
        let results = tiny_results();
        let csv = results.node_summary_csv();
        assert!(csv.contains("180nm"));
        assert!(csv.starts_with("node,avg_fit"));
    }

    #[test]
    fn worst_case_csv_is_empty_without_worst_cases() {
        let results = tiny_results();
        let csv = results.worst_case_csv();
        assert_eq!(csv.trim().lines().count(), 1); // header only
    }

    #[test]
    fn write_csv_creates_all_three_files() {
        let results = tiny_results();
        let dir = std::env::temp_dir().join("ramp-export-write-test");
        results.write_csv(&dir).unwrap();
        for name in ["apps.csv", "worst_case.csv", "nodes.csv"] {
            let contents = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(contents.contains("node"), "{name} missing header");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_csv_surfaces_io_errors() {
        let results = tiny_results();
        // A directory path that collides with a regular file cannot be
        // created; the error must carry the path.
        let file = std::env::temp_dir().join("ramp-export-collision");
        std::fs::write(&file, b"occupied").unwrap();
        let err = results.write_csv(&file).unwrap_err();
        assert!(matches!(err, crate::RampError::Io(_)));
        assert!(err.to_string().contains("ramp-export-collision"));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn field_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
