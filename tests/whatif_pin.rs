//! Absolute pins of `QueryEngine::evaluate`'s answers across trace
//! repeats.
//!
//! Every repeat of the second pass replays the same activity trace, so
//! a change that reuses per-interval work across repeats can only be
//! checked against answers recorded before it: the FNV-1a digest of each
//! `QueryOutcome`'s JSON for 3 benchmarks × the paper's 5 nodes ×
//! `trace_repeats` {1, 2, 3, 8}. A mismatch prints the whole table as
//! this run computes it.

use ramp_core::{NodeId, QueryEngine, StudyConfig};

const BENCHMARKS: [&str; 3] = ["gzip", "ammp", "mesa"];
const REPEATS: [u32; 4] = [1, 2, 3, 8];

/// `(benchmark, node label, trace_repeats, digest of the outcome JSON)`.
/// Recorded before the second pass reused any work across repeats.
const PINNED: &[(&str, &str, u32, u64)] = &[
    ("gzip", "180nm", 1, 0x0ceeff2fa9f156d3),
    ("gzip", "180nm", 2, 0x67dc007d96b09111),
    ("gzip", "180nm", 3, 0x07cd98121d126804),
    ("gzip", "180nm", 8, 0xb0e393ea365f8a7c),
    ("gzip", "130nm", 1, 0x703545fb3ac62089),
    ("gzip", "130nm", 2, 0x3b032edc14698ec7),
    ("gzip", "130nm", 3, 0xd86c17deeef59c91),
    ("gzip", "130nm", 8, 0xede328d1f101d95a),
    ("gzip", "90nm", 1, 0x147e4e289e1de32a),
    ("gzip", "90nm", 2, 0x6406e9ef890c1446),
    ("gzip", "90nm", 3, 0x96346adb976f1c37),
    ("gzip", "90nm", 8, 0xbf35e2079ac71f9f),
    ("gzip", "65nm (0.9V)", 1, 0x8980ec0ec57e0b3b),
    ("gzip", "65nm (0.9V)", 2, 0x5733e55d5adca264),
    ("gzip", "65nm (0.9V)", 3, 0x7c1b79b6698b632d),
    ("gzip", "65nm (0.9V)", 8, 0xe1ae732758c0ede5),
    ("gzip", "65nm (1.0V)", 1, 0x265ee17b296e0935),
    ("gzip", "65nm (1.0V)", 2, 0x61fef656da3ef754),
    ("gzip", "65nm (1.0V)", 3, 0x1a54c530fcd8ea39),
    ("gzip", "65nm (1.0V)", 8, 0x988d508266803ea5),
    ("ammp", "180nm", 1, 0xd49966000ee61975),
    ("ammp", "180nm", 2, 0x361f1226b9c4e95d),
    ("ammp", "180nm", 3, 0xc70e3027d1e9567c),
    ("ammp", "180nm", 8, 0xf58d4b91901c5b82),
    ("ammp", "130nm", 1, 0xfb5da28d3ed18e12),
    ("ammp", "130nm", 2, 0x3b18c04e84802325),
    ("ammp", "130nm", 3, 0x5fdc44ae35f2a45c),
    ("ammp", "130nm", 8, 0xdc1faf714f1594cb),
    ("ammp", "90nm", 1, 0x62190a999768f278),
    ("ammp", "90nm", 2, 0x78a3e17ff3da81b9),
    ("ammp", "90nm", 3, 0x8e086caea11dca89),
    ("ammp", "90nm", 8, 0x8d0ddecb7f10f6a5),
    ("ammp", "65nm (0.9V)", 1, 0xadf6378ad15566dc),
    ("ammp", "65nm (0.9V)", 2, 0x62f30aa129afd5ee),
    ("ammp", "65nm (0.9V)", 3, 0x42ec17cc32304b16),
    ("ammp", "65nm (0.9V)", 8, 0x87cb88c203a8eb94),
    ("ammp", "65nm (1.0V)", 1, 0x3ff38f9ff558ddf3),
    ("ammp", "65nm (1.0V)", 2, 0xece5e93c7249dc70),
    ("ammp", "65nm (1.0V)", 3, 0x1488e47a08b3c5e0),
    ("ammp", "65nm (1.0V)", 8, 0x8efff6060c30a590),
    ("mesa", "180nm", 1, 0x3db2d616c205c5c9),
    ("mesa", "180nm", 2, 0x6b7aa25ef5d2b28d),
    ("mesa", "180nm", 3, 0xc1d4f5297c7844e2),
    ("mesa", "180nm", 8, 0x0956ac6eb7ca14d4),
    ("mesa", "130nm", 1, 0x64a7ebb05a09b693),
    ("mesa", "130nm", 2, 0x3c5a32ff4af864ed),
    ("mesa", "130nm", 3, 0x14ffa2927e74ab00),
    ("mesa", "130nm", 8, 0x656f5678af8485bb),
    ("mesa", "90nm", 1, 0xe3f048721e92f9c1),
    ("mesa", "90nm", 2, 0x6635118aa5ad4fe4),
    ("mesa", "90nm", 3, 0x4607776b76d7a414),
    ("mesa", "90nm", 8, 0xad8d924186889458),
    ("mesa", "65nm (0.9V)", 1, 0x0cf3de15b784434a),
    ("mesa", "65nm (0.9V)", 2, 0xfb7a390a654935eb),
    ("mesa", "65nm (0.9V)", 3, 0x80331991c3b12b6f),
    ("mesa", "65nm (0.9V)", 8, 0xdc925055d12e802e),
    ("mesa", "65nm (1.0V)", 1, 0x351f2567c93a4992),
    ("mesa", "65nm (1.0V)", 2, 0x787d1ab0f6a6f796),
    ("mesa", "65nm (1.0V)", 3, 0x3afe4cd435a46758),
    ("mesa", "65nm (1.0V)", 8, 0x32d4453fbbaee6ed),
];

#[test]
fn what_if_answers_hold_their_recorded_digests() {
    let config = StudyConfig::quick().with_benchmarks(&BENCHMARKS).unwrap();
    let engine = QueryEngine::calibrate(&config).unwrap();
    let mut computed = Vec::new();
    for benchmark in BENCHMARKS {
        for node in NodeId::ALL {
            for trace_repeats in REPEATS {
                let mut query = engine.query(benchmark, node).unwrap();
                query.pipeline.trace_repeats = trace_repeats;
                let json = serde_json::to_string(&engine.evaluate(&query).unwrap()).unwrap();
                computed.push((
                    benchmark,
                    node.label(),
                    trace_repeats,
                    ramp_obs::fnv1a_64(&json),
                ));
            }
        }
    }
    let table: String = computed
        .iter()
        .map(|(b, n, r, d)| format!("    ({b:?}, {n:?}, {r}, 0x{d:016x}),\n"))
        .collect();
    assert!(
        computed == PINNED,
        "what-if digests moved; this run computes:\n{table}"
    );
}
