//! `ramp-analyze`: a dependency-light static analyzer that enforces the
//! workspace's cross-cutting invariants, from token-level hygiene to
//! cross-file dataflow.
//!
//! The simulation stack's guarantees — unit-safe public APIs,
//! byte-identical results across thread counts, observability routed
//! through `ramp-obs`, non-panicking library paths — are easy to erode
//! one innocuous edit at a time. The `ramp-lint` binary in this crate
//! walks every first-party crate and checks ten named rules:
//!
//! | rule | severity | scope | what it catches |
//! |---|---|---|---|
//! | `unit-safety` | error | token | raw `f64` in `pub fn` signatures of the model crates |
//! | `determinism` | error | token | wall clocks, OS entropy, hash-order iteration in simulation code |
//! | `obs-hygiene` | warning | token | `println!`/`eprintln!`/`dbg!` bypassing the sinks |
//! | `panic-hygiene` | warning | token | `unwrap()`/`expect()`/`panic!` on library paths |
//! | `span-hygiene` | warning | token | dynamic or malformed span/metric names |
//! | `panic-reach` | error | cross-file | `pub` model-crate APIs transitively reaching a panic site |
//! | `float-determinism` | error | structural | float accumulation in `Executor` closures / merge callbacks |
//! | `atomic-ordering` | warning | cross-file | Relaxed stores paired with Acquire loads; stray atomics |
//! | `alloc-hygiene` | warning | cross-file | allocations in declared hot paths |
//! | `allow-hygiene` | warning | token | inline allows naming an unknown rule or one that never runs on the file |
//!
//! The token rules are lexical ([`lexer`]); the v2 rules add a total
//! item-level parser ([`parse`]), per-file summaries ([`summary`]), a
//! conservative workspace call graph ([`callgraph`]), and the
//! cross-file pass ([`xrules`]). Analysis is parallelized over
//! `ramp_core::Executor` and per-file results are cached under
//! `target/ramp-lint-cache/` ([`cache`]) so unchanged files skip
//! re-analysis.
//!
//! Two escape hatches keep the gate honest instead of noisy: an inline
//! `ramp-lint:allow` comment naming the rule, on (or directly above) a
//! line, documents an individual exception in place (only plain `//`
//! comments carry one; `allow-hygiene` rejects one that suppresses
//! nothing), and `lint-baseline.toml` accepts
//! pre-existing findings by `(rule, file, symbol)` so the gate can be
//! introduced into a living codebase and burned down over time.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod cache;
pub mod callgraph;
pub mod context;
pub mod findings;
pub mod hotpaths;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod summary;
pub mod workspace;
pub mod xrules;

pub use baseline::{Baseline, BaselineEntry, BaselineError};
pub use context::{FileContext, FileKind};
pub use findings::{Finding, Severity};
pub use hotpaths::HotManifest;

use std::path::Path;

/// Everything one analysis run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived inline allows and the baseline — these
    /// fail the run.
    pub findings: Vec<Finding>,
    /// Findings accepted by the checked-in baseline.
    pub baselined: usize,
    /// Findings suppressed by inline `ramp-lint:allow` comments.
    pub suppressed: usize,
    /// Source files analyzed.
    pub files_scanned: usize,
    /// Files whose summary came from the incremental cache.
    pub cache_hits: usize,
    /// Files that were (re-)analyzed this run.
    pub cache_misses: usize,
    /// Baseline entries that matched nothing (candidates for pruning).
    pub stale_baseline: Vec<BaselineEntry>,
}

impl Report {
    /// True when the run found nothing new.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the whole report as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(Finding::to_json).collect();
        let stale: Vec<String> = self
            .stale_baseline
            .iter()
            .map(|e| {
                format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"symbol\":\"{}\"}}",
                    findings::json_escape(&e.rule),
                    findings::json_escape(&e.file),
                    findings::json_escape(&e.symbol),
                )
            })
            .collect();
        format!(
            "{{\"findings\":[{}],\"total\":{},\"baselined\":{},\"suppressed_inline\":{},\"files_scanned\":{},\"cache_hits\":{},\"cache_misses\":{},\"stale_baseline\":[{}]}}",
            findings.join(","),
            self.findings.len(),
            self.baselined,
            self.suppressed,
            self.files_scanned,
            self.cache_hits,
            self.cache_misses,
            stale.join(","),
        )
    }

    /// Renders the human-readable report (one line per finding plus a
    /// summary line).
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        for e in &self.stale_baseline {
            out.push_str(&format!(
                "note[stale-baseline] {} / {} / {} matches nothing — prune it\n",
                e.rule, e.file, e.symbol
            ));
        }
        out.push_str(&format!(
            "ramp-lint: {} finding(s) ({} baselined, {} inline-suppressed) across {} files ({} cached, {} analyzed)\n",
            self.findings.len(),
            self.baselined,
            self.suppressed,
            self.files_scanned,
            self.cache_hits,
            self.cache_misses
        ));
        out
    }
}

/// Renders the report as a SARIF 2.1.0 document (see [`sarif`]).
#[must_use]
pub fn to_sarif(report: &Report) -> String {
    sarif::render(report)
}

/// Analyzes one in-memory source file with the token-local rules only.
/// This is the composition point the single-file fixture tests drive
/// directly; [`analyze_sources`] adds the structural and cross-file
/// rules, and [`analyze_workspace`] is the same thing fed from disk.
#[must_use]
pub fn analyze_source(
    crate_name: &str,
    kind: FileKind,
    rel_path: &str,
    source: &str,
) -> Vec<Finding> {
    rules::check_file(&FileContext::new(crate_name, kind, rel_path, source))
}

/// Analyzes a set of in-memory source files with the *full* rule set —
/// local rules plus the cross-file pass — without baseline or cache.
/// This is the composition point the cross-file fixture tests drive:
/// each entry is `(crate_name, kind, rel_path, source)`.
#[must_use]
pub fn analyze_sources(
    files: &[(&str, FileKind, &str, &str)],
    hot: &HotManifest,
) -> Vec<Finding> {
    let summaries: Vec<summary::FileSummary> = files
        .iter()
        .map(|(crate_name, kind, rel_path, source)| {
            summary::summarize(&FileContext::new(crate_name, *kind, rel_path, source))
        })
        .collect();
    let mut findings: Vec<Finding> =
        summaries.iter().flat_map(|s| s.findings.clone()).collect();
    findings.extend(xrules::cross_file(&summaries, hot));
    findings
}

/// Per-run analysis options beyond the baseline.
#[derive(Debug)]
pub struct AnalyzeOptions {
    /// The incremental cache to consult (see [`cache::Cache`]).
    pub cache: cache::Cache,
}

impl AnalyzeOptions {
    /// Default options for a workspace at `root`: cache enabled under
    /// `target/ramp-lint-cache`.
    #[must_use]
    pub fn for_root(root: &Path) -> AnalyzeOptions {
        AnalyzeOptions {
            cache: cache::Cache::at(root.join("target").join("ramp-lint-cache")),
        }
    }

    /// Options with the cache disabled (every file re-analyzed).
    #[must_use]
    pub fn uncached() -> AnalyzeOptions {
        AnalyzeOptions {
            cache: cache::Cache::disabled(),
        }
    }
}

/// Walks the workspace at `root`, runs every rule over every first-party
/// file, and applies `baseline`. Uses the default on-disk cache; see
/// [`analyze_workspace_with`] to control caching.
///
/// # Errors
///
/// Returns [`std::io::Error`] if the workspace cannot be walked, a
/// source file cannot be read, or `lint-hotpaths.toml` is malformed.
pub fn analyze_workspace(root: &Path, baseline: &Baseline) -> std::io::Result<Report> {
    analyze_workspace_with(root, baseline, &AnalyzeOptions::for_root(root))
}

/// [`analyze_workspace`] with explicit [`AnalyzeOptions`].
///
/// Per-file summarization (lex, parse, local rules) runs in parallel
/// over `ramp_core::Executor` — honoring `RAMP_THREADS` like every
/// other parallel stage in the workspace — and consults the incremental
/// cache per file. The cross-file pass then runs once over the
/// summaries.
///
/// # Errors
///
/// Returns [`std::io::Error`] if the workspace cannot be walked, a
/// source file cannot be read, or `lint-hotpaths.toml` is malformed.
pub fn analyze_workspace_with(
    root: &Path,
    baseline: &Baseline,
    opts: &AnalyzeOptions,
) -> std::io::Result<Report> {
    let hot = load_hot_manifest(root)?;
    let files = workspace::discover(root)?;
    let sources: Vec<(workspace::SourceFile, String)> = files
        .into_iter()
        .map(|file| {
            let source = std::fs::read_to_string(&file.abs_path)?;
            Ok((file, source))
        })
        .collect::<std::io::Result<_>>()?;
    let executor = ramp_core::Executor::from_env();
    let summarized: Vec<(summary::FileSummary, bool)> =
        executor.map(&sources, |(file, source)| {
            if let Some(cached) = opts.cache.load(&file.rel_path, source) {
                return (cached, true);
            }
            let ctx = FileContext::new(&file.crate_name, file.kind, &file.rel_path, source);
            let fresh = summary::summarize(&ctx);
            opts.cache.store(&file.rel_path, source, &fresh);
            (fresh, false)
        });
    let mut report = Report::default();
    let mut summaries: Vec<summary::FileSummary> = Vec::with_capacity(summarized.len());
    for (summary, hit) in summarized {
        report.files_scanned += 1;
        if hit {
            report.cache_hits += 1;
        } else {
            report.cache_misses += 1;
        }
        report.suppressed += summary.suppressed;
        summaries.push(summary);
    }
    let mut all_raw: Vec<Finding> = summaries
        .iter()
        .flat_map(|s| s.findings.clone())
        .collect();
    all_raw.extend(xrules::cross_file(&summaries, &hot));
    report.stale_baseline = baseline.stale(&all_raw).into_iter().cloned().collect();
    for finding in all_raw {
        if baseline.covers(&finding) {
            report.baselined += 1;
        } else {
            report.findings.push(finding);
        }
    }
    Ok(report)
}

/// Loads `lint-hotpaths.toml` from the workspace root; a missing file
/// is an empty manifest, a malformed one is an error.
fn load_hot_manifest(root: &Path) -> std::io::Result<HotManifest> {
    let path = root.join("lint-hotpaths.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => HotManifest::parse(&text).map_err(|(line, message)| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}:{line}: {message}", path.display()),
            )
        }),
        Err(_) => Ok(HotManifest::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let report = Report {
            findings: vec![Finding {
                rule: "determinism",
                severity: Severity::Error,
                file: "f.rs".to_string(),
                line: 3,
                col: 1,
                symbol: "g".to_string(),
                message: "m".to_string(),
            }],
            baselined: 2,
            suppressed: 1,
            files_scanned: 10,
            cache_hits: 7,
            cache_misses: 3,
            stale_baseline: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"total\":1"));
        assert!(json.contains("\"baselined\":2"));
        assert!(json.contains("\"files_scanned\":10"));
        assert!(json.contains("\"cache_hits\":7"));
        assert!(!report.is_clean());
    }

    #[test]
    fn human_report_summarises() {
        let report = Report {
            files_scanned: 4,
            ..Report::default()
        };
        assert!(report.is_clean());
        assert!(report.to_human().contains("0 finding(s)"));
    }

    #[test]
    fn analyze_sources_combines_local_and_cross_file_rules() {
        let files = [
            (
                "thermal",
                FileKind::Lib,
                "crates/thermal/src/a.rs",
                "pub fn api() { helper(); }\nfn helper(x: Option<u32>) { x.unwrap(); }\n",
            ),
            (
                "thermal",
                FileKind::Lib,
                "crates/thermal/src/b.rs",
                "fn quiet() {}\n",
            ),
        ];
        let findings = analyze_sources(&files, &HotManifest::default());
        // panic-hygiene (local, on the unwrap) + panic-reach (cross-file,
        // on the pub API).
        assert!(findings.iter().any(|f| f.rule == "panic-hygiene"));
        assert!(findings.iter().any(|f| f.rule == "panic-reach"));
    }
}
