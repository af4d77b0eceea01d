//! The full-length study against the paper, from one study run: every
//! band of the claims table, and every generated block of EXPERIMENTS.md
//! against a fresh render.
//!
//! The study takes ~20 s in release on 2 vCPUs, so the test is
//! `#[ignore]`d in the debug test run; `scripts/verify.sh` and CI run it
//! with
//!
//! ```text
//! cargo test --release --locked -p ramp-bench --test paper_headlines -- --ignored
//! ```

use ramp_bench::{claims::PAPER_CLAIMS, report::blocks};
use ramp_core::{run_study, StudyConfig};

#[test]
#[ignore = "runs the full-length 16x5 study; release only"]
fn full_study_matches_the_claims_and_experiments_md() {
    let results = run_study(&StudyConfig::default()).expect("full study");
    let mut failures = Vec::new();
    for c in PAPER_CLAIMS.iter().filter(|c| c.deviation.is_none()) {
        let measured = c.metric.measure(&results).expect("measurable");
        if !c.accepts(measured) {
            failures.push(format!(
                "{:?}: measured {measured}, accepted {:?}",
                c.metric, c.band
            ));
        }
    }
    let doc = include_str!("../../../EXPERIMENTS.md");
    let found = blocks(doc).expect("well-formed report blocks");
    assert_eq!(
        found.len(),
        9,
        "EXPERIMENTS.md should hold every section once"
    );
    for (section, block) in found {
        let fresh = section.render(Some(&results), false).expect("render");
        if block != fresh {
            let (name, at) = (
                section.name(),
                block
                    .lines()
                    .zip(fresh.lines())
                    .take_while(|(a, b)| a == b)
                    .count(),
            );
            failures.push(format!("EXPERIMENTS.md block `{name}` is stale at line {}; `report {name}` prints:\n{fresh}", at + 1));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
