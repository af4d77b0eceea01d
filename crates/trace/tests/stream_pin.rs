//! Pins the generated instruction stream bit for bit.
//!
//! Every study result is keyed off the generator's output, so a rewrite
//! of the generator's internals (ring indexing, phase bookkeeping, memory
//! cursors) must reproduce the stream exactly. Each digest is an FNV-1a
//! hash over every field of the first 200k records of one profile; the
//! expected values were recorded from the generator before any such
//! rewrite.

use ramp_trace::{spec, BenchmarkProfile, PhaseModel, TraceGenerator, TraceRecord};

const RECORDS: usize = 200_000;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A register slot: 0xFF stands for "none" (every id is below 72).
    fn reg(&mut self, r: Option<u8>) {
        self.bytes(&[r.unwrap_or(0xFF)]);
    }

    fn record(&mut self, rec: &TraceRecord) {
        self.u64(rec.pc());
        self.bytes(&[rec.op().index() as u8]);
        let [a, b] = rec.sources();
        self.reg(a);
        self.reg(b);
        self.reg(rec.dest());
        match rec.mem() {
            Some(m) => {
                self.bytes(&[1, m.size]);
                self.u64(m.addr);
            }
            None => self.bytes(&[0]),
        }
        match rec.branch() {
            Some(br) => {
                self.bytes(&[1, u8::from(br.taken)]);
                self.u64(br.target);
            }
            None => self.bytes(&[0]),
        }
    }
}

fn digest(profile: &BenchmarkProfile) -> u64 {
    let mut h = Fnv1a::new();
    for rec in TraceGenerator::new(profile).take(RECORDS) {
        h.record(&rec);
    }
    h.0
}

/// gzip with a 1000-instruction phase dwell and a 100-byte hot region
/// that is mostly walked sequentially: the phase switch fires 200 times
/// and the hot cursor wraps (at a size that is not a multiple of its
/// 8-byte stride) thousands of times.
fn short_dwell_profile() -> BenchmarkProfile {
    let mut p = spec::profile("gzip").expect("gzip is a paper profile");
    p.name = "gzip_short_dwell".into();
    p.phases = PhaseModel {
        dwell_instructions: 1_000,
        ..PhaseModel::standard()
    };
    p.memory.hot_bytes = 100;
    p.memory.sequential_fraction = 0.9;
    p.validate().expect("the custom profile is valid");
    p
}

#[test]
fn paper_profile_streams_are_pinned() {
    let expected: [(&str, u64); 16] = [
        ("ammp", 0xfd7b3cdb432a7c35),
        ("applu", 0x353245193a92f8a1),
        ("sixtrack", 0xb507cbb19db111ff),
        ("mgrid", 0x8a722084197a526e),
        ("mesa", 0x8d4be425763cb49b),
        ("facerec", 0xd3ea59f36f684a5d),
        ("wupwise", 0x598e265745b37f94),
        ("apsi", 0x9be4e516ed06b823),
        ("vpr", 0xaab112d80e66a611),
        ("bzip2", 0xf2fd79ea81473f62),
        ("twolf", 0x9cfb5ed10599d00c),
        ("gzip", 0x631ff1a146642f7c),
        ("perlbmk", 0xea6bc7636d1446d4),
        ("gap", 0x080c5c690e989a00),
        ("gcc", 0x151d5a7475caab6a),
        ("crafty", 0x8db21506cc16cfef),
    ];
    let got: Vec<(&str, u64)> = expected
        .iter()
        .map(|&(name, _)| {
            let p = spec::profile(name).expect("paper profile");
            (name, digest(&p))
        })
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn short_dwell_stream_is_pinned() {
    assert_eq!(digest(&short_dwell_profile()), 0xbba6_581b_1ee8_491e);
}
