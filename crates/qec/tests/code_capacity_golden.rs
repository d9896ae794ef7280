//! Golden pin for the code-capacity estimate behind decoder synthesis.
//!
//! Each `p_logical` below is the value of decoding every trial separately
//! (a full `Decoder::decode` per trial, then a logical check on the
//! corrected pattern). `code_capacity_experiment` packs its state and
//! memoizes corrections per syndrome, and must reproduce every value bit
//! for bit: same RNG draws, same deterministic decoder outputs. The d = 9
//! and d = 13 rows span more than one 64-bit word of data qubits, and
//! d = 13 also of syndrome bits.

use qec::agent_iface::{synthesize, CodeFamily, DecoderSpec};
use qec::memory::{code_capacity_experiment, DecoderKind};
use qec::topology::Topology;

/// Trials per configuration: fewer at large distance to keep the test fast.
fn trials_for(d: usize) -> usize {
    match d {
        3 | 5 => 2000,
        7 => 1000,
        9 => 300,
        _ => 120,
    }
}

/// `(d, p, decoder, seed, p_logical.to_bits())`.
const GOLDEN: &[(usize, f64, DecoderKind, u64, u64)] = {
    use DecoderKind::{Greedy, Lookup, UnionFind};
    &[
        (3, 0.005, Lookup, 1, 0x3f50624dd2f1a9fc),
        (3, 0.005, Lookup, 2, 0x0000000000000000),
        (3, 0.005, Greedy, 1, 0x3f50624dd2f1a9fc),
        (3, 0.005, Greedy, 2, 0x0000000000000000),
        (3, 0.005, UnionFind, 1, 0x3f50624dd2f1a9fc),
        (3, 0.005, UnionFind, 2, 0x0000000000000000),
        (3, 0.02, Lookup, 1, 0x3f7cac083126e979),
        (3, 0.02, Lookup, 2, 0x3f7a9fbe76c8b439),
        (3, 0.02, Greedy, 1, 0x3f7cac083126e979),
        (3, 0.02, Greedy, 2, 0x3f7a9fbe76c8b439),
        (3, 0.02, UnionFind, 1, 0x3f80624dd2f1a9fc),
        (3, 0.02, UnionFind, 2, 0x3f7eb851eb851eb8),
        (3, 0.1, Lookup, 1, 0x3fbd70a3d70a3d71),
        (3, 0.1, Lookup, 2, 0x3fbd2f1a9fbe76c9),
        (3, 0.1, Greedy, 1, 0x3fbd70a3d70a3d71),
        (3, 0.1, Greedy, 2, 0x3fbd2f1a9fbe76c9),
        (3, 0.1, UnionFind, 1, 0x3fc04189374bc6a8),
        (3, 0.1, UnionFind, 2, 0x3fc072b020c49ba6),
        (3, 0.35, Lookup, 1, 0x3fde04189374bc6a),
        (3, 0.35, Lookup, 2, 0x3fddcac083126e98),
        (3, 0.35, Greedy, 1, 0x3fde04189374bc6a),
        (3, 0.35, Greedy, 2, 0x3fddcac083126e98),
        (3, 0.35, UnionFind, 1, 0x3fded916872b020c),
        (3, 0.35, UnionFind, 2, 0x3fddcac083126e98),
        (5, 0.005, Greedy, 1, 0x0000000000000000),
        (5, 0.005, Greedy, 2, 0x0000000000000000),
        (5, 0.005, UnionFind, 1, 0x0000000000000000),
        (5, 0.005, UnionFind, 2, 0x0000000000000000),
        (5, 0.02, Greedy, 1, 0x3f589374bc6a7efa),
        (5, 0.02, Greedy, 2, 0x3f647ae147ae147b),
        (5, 0.02, UnionFind, 1, 0x3f647ae147ae147b),
        (5, 0.02, UnionFind, 2, 0x3f689374bc6a7efa),
        (5, 0.1, Greedy, 1, 0x3fbf1a9fbe76c8b4),
        (5, 0.1, Greedy, 2, 0x3fbef9db22d0e560),
        (5, 0.1, UnionFind, 1, 0x3fc147ae147ae148),
        (5, 0.1, UnionFind, 2, 0x3fc26e978d4fdf3b),
        (5, 0.35, Greedy, 1, 0x3fe004189374bc6a),
        (5, 0.35, Greedy, 2, 0x3fdfb645a1cac083),
        (5, 0.35, UnionFind, 1, 0x3fe049ba5e353f7d),
        (5, 0.35, UnionFind, 2, 0x3fdfced916872b02),
        (7, 0.005, Greedy, 1, 0x0000000000000000),
        (7, 0.005, Greedy, 2, 0x0000000000000000),
        (7, 0.005, UnionFind, 1, 0x0000000000000000),
        (7, 0.005, UnionFind, 2, 0x0000000000000000),
        (7, 0.02, Greedy, 1, 0x3f50624dd2f1a9fc),
        (7, 0.02, Greedy, 2, 0x3f689374bc6a7efa),
        (7, 0.02, UnionFind, 1, 0x3f50624dd2f1a9fc),
        (7, 0.02, UnionFind, 2, 0x3f689374bc6a7efa),
        (7, 0.1, Greedy, 1, 0x3fbced916872b021),
        (7, 0.1, Greedy, 2, 0x3fc2b020c49ba5e3),
        (7, 0.1, UnionFind, 1, 0x3fc20c49ba5e353f),
        (7, 0.1, UnionFind, 2, 0x3fc45a1cac083127),
        (7, 0.35, Greedy, 1, 0x3fdf6c8b43958106),
        (7, 0.35, Greedy, 2, 0x3fdfced916872b02),
        (7, 0.35, UnionFind, 1, 0x3fdf0a3d70a3d70a),
        (7, 0.35, UnionFind, 2, 0x3fdfdf3b645a1cac),
        (9, 0.005, Greedy, 1, 0x0000000000000000),
        (9, 0.005, Greedy, 2, 0x0000000000000000),
        (9, 0.005, UnionFind, 1, 0x0000000000000000),
        (9, 0.005, UnionFind, 2, 0x0000000000000000),
        (9, 0.02, Greedy, 1, 0x0000000000000000),
        (9, 0.02, Greedy, 2, 0x0000000000000000),
        (9, 0.02, UnionFind, 1, 0x3f6b4e81b4e81b4f),
        (9, 0.02, UnionFind, 2, 0x0000000000000000),
        (9, 0.1, Greedy, 1, 0x3fc3a06d3a06d3a0),
        (9, 0.1, Greedy, 2, 0x3fc0a3d70a3d70a4),
        (9, 0.1, UnionFind, 1, 0x3fc7e4b17e4b17e5),
        (9, 0.1, UnionFind, 2, 0x3fc5c28f5c28f5c3),
        (9, 0.35, Greedy, 1, 0x3fdc962fc962fc96),
        (9, 0.35, Greedy, 2, 0x3fde147ae147ae14),
        (9, 0.35, UnionFind, 1, 0x3fdf258bf258bf26),
        (9, 0.35, UnionFind, 2, 0x3fe06d3a06d3a06d),
        (13, 0.005, Greedy, 1, 0x0000000000000000),
        (13, 0.005, Greedy, 2, 0x0000000000000000),
        (13, 0.005, UnionFind, 1, 0x0000000000000000),
        (13, 0.005, UnionFind, 2, 0x0000000000000000),
        (13, 0.02, Greedy, 1, 0x0000000000000000),
        (13, 0.02, Greedy, 2, 0x0000000000000000),
        (13, 0.02, UnionFind, 1, 0x0000000000000000),
        (13, 0.02, UnionFind, 2, 0x0000000000000000),
        (13, 0.1, Greedy, 1, 0x3fc8888888888889),
        (13, 0.1, Greedy, 2, 0x3fd0000000000000),
        (13, 0.1, UnionFind, 1, 0x3fbdddddddddddde),
        (13, 0.1, UnionFind, 2, 0x3fc999999999999a),
        (13, 0.35, Greedy, 1, 0x3fe0888888888889),
        (13, 0.35, Greedy, 2, 0x3fe0888888888889),
        (13, 0.35, UnionFind, 1, 0x3fe0444444444444),
        (13, 0.35, UnionFind, 2, 0x3fe0000000000000),
    ]
};

#[test]
fn code_capacity_grid_is_bit_identical() {
    let mut mismatches = Vec::new();
    for &(d, p, kind, seed, bits) in GOLDEN {
        let r = code_capacity_experiment(d, p, kind, trials_for(d), seed);
        assert_eq!(r.distance, d);
        assert_eq!(r.trials, trials_for(d));
        if r.p_logical.to_bits() != bits {
            mismatches.push(format!(
                "d={d} p={p} {kind:?} seed={seed}: got {} (0x{:016x}), want {} (0x{bits:016x})",
                r.p_logical,
                r.p_logical.to_bits(),
                f64::from_bits(bits)
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

fn spec(
    device: &str,
    family: CodeFamily,
    decoder: DecoderKind,
    native_layout: bool,
    extension_bits: u64,
) -> DecoderSpec {
    DecoderSpec {
        device: device.to_string(),
        family,
        decoder,
        native_layout,
        estimated_lifetime_extension: f64::from_bits(extension_bits),
        calibration_rate: 0.02,
    }
}

#[test]
fn synthesized_specs_are_bit_identical() {
    let cases = [
        (
            Topology::grid(7, 7),
            3,
            spec(
                "grid-7x7",
                CodeFamily::Surface { distance: 3 },
                DecoderKind::Lookup,
                true,
                0x4005d1745d1745d2,
            ),
        ),
        (
            Topology::grid(7, 7),
            5,
            spec(
                "grid-7x7",
                CodeFamily::Surface { distance: 5 },
                DecoderKind::UnionFind,
                true,
                0x4021249249249249,
            ),
        ),
        (
            Topology::ibm_brisbane_like(),
            5,
            spec(
                "ibm-brisbane-like",
                CodeFamily::Surface { distance: 3 },
                DecoderKind::Lookup,
                false,
                0x4005d1745d1745d2,
            ),
        ),
        (
            Topology::line(7),
            5,
            spec(
                "line-7",
                CodeFamily::Repetition { distance: 3 },
                DecoderKind::Greedy,
                true,
                0x4030e45306eb3e45,
            ),
        ),
    ];
    for (device, max_distance, want) in cases {
        let got = synthesize(&device, 0.02, max_distance, 1).expect("synthesis");
        assert_eq!(
            got,
            want,
            "{} at max_distance {max_distance}",
            device.name()
        );
    }
}
