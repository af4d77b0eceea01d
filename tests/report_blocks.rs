//! The study-free report sections in EXPERIMENTS.md against a fresh
//! render, so a change to a model constant or the machine configuration
//! fails the ordinary test run, not only the full-length release check
//! (`crates/bench/tests/paper_headlines.rs`).

use ramp_bench::report::{blocks, table1, table2, Section};

#[test]
fn table1_and_table2_blocks_match_a_fresh_render() {
    let found = blocks(include_str!("../EXPERIMENTS.md")).expect("well-formed report blocks");
    for (section, fresh) in [(Section::Table1, table1()), (Section::Table2, table2())] {
        let block = found
            .iter()
            .find(|(s, _)| *s == section)
            .map(|(_, block)| block);
        assert_eq!(
            block,
            Some(&fresh),
            "EXPERIMENTS.md `{}` block",
            section.name()
        );
    }
}
