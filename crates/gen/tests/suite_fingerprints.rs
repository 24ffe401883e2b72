//! Pins every paper-suite instance the generator emits. Each entry is an
//! FNV-1a fingerprint of one `build_instance_with_witness` output: sizes,
//! names, wires with weights, timing constraints, capacities and the planted
//! witness. A generator change that moves a single RNG draw, neighbor-pool
//! entry or tie-break changes a fingerprint, so the suite, Tables I–III and
//! the benchmark workloads stay byte-identical while this test passes.
//!
//! The hash is written out here rather than taken from std's
//! `DefaultHasher`, whose algorithm is unspecified across releases.

use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};

/// 64-bit FNV-1a.
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

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fingerprint(name: &str, scale: f64, seed: u64) -> u64 {
    let spec = PAPER_SUITE
        .iter()
        .find(|s| s.name == name)
        .expect("suite circuit");
    let options = SuiteOptions {
        seed,
        ..SuiteOptions::default()
    };
    let (problem, witness) =
        build_instance_with_witness(&scaled_spec(spec, scale), &options).expect("instance builds");
    let mut h = Fnv1a::new();
    h.u64(problem.n() as u64);
    h.u64(problem.m() as u64);
    for (_, component) in problem.circuit().iter() {
        h.bytes(component.name().as_bytes());
        h.u64(0xff); // name terminator
        h.u64(component.size());
    }
    for (a, b, w) in problem.circuit().edges() {
        h.u64(a.index() as u64);
        h.u64(b.index() as u64);
        h.i64(w);
    }
    h.u64(problem.timing().len() as u64);
    for (a, b, limit) in problem.timing().iter() {
        h.u64(a.index() as u64);
        h.u64(b.index() as u64);
        h.i64(limit);
    }
    for &capacity in problem.topology().capacities() {
        h.u64(capacity);
    }
    for &part in witness.as_slice() {
        h.u64(u64::from(part));
    }
    h.0
}

/// `(circuit, scale, seed, fingerprint)`.
const PINNED: [(&str, f64, u64, u64); 63] = [
    ("ckta", 0.05, 1993, 0x21398c234f6b2145),
    ("ckta", 0.05, 4242, 0xa1e9510fbdb0d176),
    ("ckta", 0.05, 60607, 0xd4cf00ebb5adfba3),
    ("ckta", 0.3, 1993, 0xf99e0ead4da41fc5),
    ("ckta", 0.3, 4242, 0x141a7cbe13348356),
    ("ckta", 0.3, 60607, 0x0117dd738e3c773e),
    ("ckta", 1.0, 1993, 0x9883dfe57da28fed),
    ("ckta", 1.0, 4242, 0x3e46ff740f2b2844),
    ("ckta", 1.0, 60607, 0x90362d88d5de8f14),
    ("cktb", 0.05, 1993, 0x14be0d89e226c66d),
    ("cktb", 0.05, 4242, 0x4eb0892fcb45ce0d),
    ("cktb", 0.05, 60607, 0x0c55f92ed5fcdb7f),
    ("cktb", 0.3, 1993, 0xe2de561231b82b9a),
    ("cktb", 0.3, 4242, 0xc9f6634c5ece10ed),
    ("cktb", 0.3, 60607, 0x6b511ef9354580fa),
    ("cktb", 1.0, 1993, 0xd666afbe25d9a728),
    ("cktb", 1.0, 4242, 0x5d55011a3a8e0c42),
    ("cktb", 1.0, 60607, 0x659bbfb86b1f37d3),
    ("cktc", 0.05, 1993, 0x4b986380d76a69bf),
    ("cktc", 0.05, 4242, 0x2ff10769969f0537),
    ("cktc", 0.05, 60607, 0x931ae78e88dba9b3),
    ("cktc", 0.3, 1993, 0x2d630f5a659c2150),
    ("cktc", 0.3, 4242, 0xf6c0ff46bb315b0e),
    ("cktc", 0.3, 60607, 0x3f7bcc04132d51fd),
    ("cktc", 1.0, 1993, 0x34cda8e9a62cec1c),
    ("cktc", 1.0, 4242, 0x657992f844952d0d),
    ("cktc", 1.0, 60607, 0xe625684016338279),
    ("cktd", 0.05, 1993, 0xb70373339cff960c),
    ("cktd", 0.05, 4242, 0x7868b7faad314463),
    ("cktd", 0.05, 60607, 0x3fb02a24fe400bed),
    ("cktd", 0.3, 1993, 0x019e94055e833efd),
    ("cktd", 0.3, 4242, 0x57fbe3e5d331b520),
    ("cktd", 0.3, 60607, 0x8f577bed2554f661),
    ("cktd", 1.0, 1993, 0x6aaec6850b1a51e1),
    ("cktd", 1.0, 4242, 0xaadc1c6cc1c52237),
    ("cktd", 1.0, 60607, 0xf11c77358f7054bf),
    ("ckte", 0.05, 1993, 0x453c952720a289f6),
    ("ckte", 0.05, 4242, 0x1fe4597ab5f53a9b),
    ("ckte", 0.05, 60607, 0xb6e7cf9de862094d),
    ("ckte", 0.3, 1993, 0x0be8f6a8f4826da4),
    ("ckte", 0.3, 4242, 0x7f28237720d009fc),
    ("ckte", 0.3, 60607, 0xd18804ea065bb510),
    ("ckte", 1.0, 1993, 0x8b0aa41b42c47af4),
    ("ckte", 1.0, 4242, 0x4cb39c870e778b65),
    ("ckte", 1.0, 60607, 0x35c6ed8df5c0cbde),
    ("cktf", 0.05, 1993, 0x82566c09dca4476e),
    ("cktf", 0.05, 4242, 0x1871683bc6e5b277),
    ("cktf", 0.05, 60607, 0xc8c895bd709b4fde),
    ("cktf", 0.3, 1993, 0xaae42f90d6450bd9),
    ("cktf", 0.3, 4242, 0x502edf1d23800de2),
    ("cktf", 0.3, 60607, 0xb5be60dc6ce0a963),
    ("cktf", 1.0, 1993, 0x5ea1543a951c0e13),
    ("cktf", 1.0, 4242, 0xb4533860feda44a9),
    ("cktf", 1.0, 60607, 0xb071d658586be07c),
    ("cktg", 0.05, 1993, 0xfaad8869d88f893f),
    ("cktg", 0.05, 4242, 0x9fef790a4008a5b6),
    ("cktg", 0.05, 60607, 0x8579dff8d6de9e7a),
    ("cktg", 0.3, 1993, 0x13750067bc8944e9),
    ("cktg", 0.3, 4242, 0xf1a9ac86b35bb347),
    ("cktg", 0.3, 60607, 0xe2252b4b605319df),
    ("cktg", 1.0, 1993, 0xb7d9e6a25ff6be6f),
    ("cktg", 1.0, 4242, 0xdf1bbe9e854d0d24),
    ("cktg", 1.0, 60607, 0x29f520efffe8a817),
];

#[test]
fn suite_instances_match_pinned_fingerprints() {
    let mut mismatches = Vec::new();
    for &(name, scale, seed, expected) in &PINNED {
        let got = fingerprint(name, scale, seed);
        if got != expected {
            mismatches.push(format!("{name} scale {scale} seed {seed}: {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "changed instances:\n{}",
        mismatches.join("\n")
    );
}

/// Prints the table with today's fingerprints, for a generator change that
/// means to change the instances: `cargo test -p qbp-gen --test
/// suite_fingerprints -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_fingerprint_table() {
    for &(name, scale, seed, _) in &PINNED {
        let fp = fingerprint(name, scale, seed);
        println!("    (\"{name}\", {scale:?}, {seed}, {fp:#018x}),");
    }
}
