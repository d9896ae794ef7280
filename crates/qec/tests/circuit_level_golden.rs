//! Golden pin for the circuit-level surface-code memory experiment.
//!
//! Each row is a `circuit_level_experiment_threaded` result recorded from
//! the implementation that decoded every distinct outcome word
//! separately. Any later implementation must reproduce it bit for bit:
//! the shots make the same RNG draws in the same order, and the greedy
//! decoder is a deterministic function of the detection events. Every row
//! runs on one and on two simulator threads.
//!
//! The first four rates are perfbench's `qec_memory` ladder; 0.005 and
//! 0.01 make d = 7 fail often enough to pin its decoding too. d = 7 needs
//! 97 qubits, 97 classical bits and 72 detectors plus one observable, so
//! it crosses the 64-bit word boundary of the Pauli frame, the outcome
//! register and the projected detector word.

use qec::memory::circuit_level_experiment_threaded;
use qsim::noise::NoiseModel;

const ROUNDS: usize = 2;

/// Shots per point: more than one 1,024-shot executor chunk, so two
/// threads really split the work.
fn trials_for(d: usize) -> u64 {
    match d {
        3 | 5 => 1536,
        _ => 1100,
    }
}

/// `(d, p, seed, failures, p_logical.to_bits())`.
const GOLDEN: &[(usize, f64, u64, u64, u64)] = &[
    (3, 0.0005, 1, 3, 0x3f60000000000000),
    (3, 0.0005, 2, 1, 0x3f45555555555555),
    (3, 0.0005, 3, 9, 0x3f78000000000000),
    (3, 0.001, 1, 6, 0x3f70000000000000),
    (3, 0.001, 2, 11, 0x3f7d555555555555),
    (3, 0.001, 3, 9, 0x3f78000000000000),
    (3, 0.0015, 1, 11, 0x3f7d555555555555),
    (3, 0.0015, 2, 11, 0x3f7d555555555555),
    (3, 0.0015, 3, 17, 0x3f86aaaaaaaaaaab),
    (3, 0.002, 1, 19, 0x3f89555555555555),
    (3, 0.002, 2, 22, 0x3f8d555555555555),
    (3, 0.002, 3, 31, 0x3f94aaaaaaaaaaab),
    (3, 0.005, 1, 42, 0x3f9c000000000000),
    (3, 0.005, 2, 67, 0x3fa6555555555555),
    (3, 0.005, 3, 46, 0x3f9eaaaaaaaaaaab),
    (3, 0.01, 1, 103, 0x3fb12aaaaaaaaaab),
    (3, 0.01, 2, 111, 0x3fb2800000000000),
    (3, 0.01, 3, 118, 0x3fb3aaaaaaaaaaab),
    (5, 0.0005, 1, 0, 0x0000000000000000),
    (5, 0.0005, 2, 0, 0x0000000000000000),
    (5, 0.0005, 3, 0, 0x0000000000000000),
    (5, 0.001, 1, 1, 0x3f45555555555555),
    (5, 0.001, 2, 0, 0x0000000000000000),
    (5, 0.001, 3, 0, 0x0000000000000000),
    (5, 0.0015, 1, 4, 0x3f65555555555555),
    (5, 0.0015, 2, 4, 0x3f65555555555555),
    (5, 0.0015, 3, 1, 0x3f45555555555555),
    (5, 0.002, 1, 3, 0x3f60000000000000),
    (5, 0.002, 2, 5, 0x3f6aaaaaaaaaaaab),
    (5, 0.002, 3, 4, 0x3f65555555555555),
    (5, 0.005, 1, 28, 0x3f92aaaaaaaaaaab),
    (5, 0.005, 2, 35, 0x3f97555555555555),
    (5, 0.005, 3, 18, 0x3f88000000000000),
    (5, 0.01, 1, 103, 0x3fb12aaaaaaaaaab),
    (5, 0.01, 2, 81, 0x3fab000000000000),
    (5, 0.01, 3, 101, 0x3fb0d55555555555),
    (7, 0.0005, 1, 0, 0x0000000000000000),
    (7, 0.0005, 2, 0, 0x0000000000000000),
    (7, 0.0005, 3, 0, 0x0000000000000000),
    (7, 0.001, 1, 0, 0x0000000000000000),
    (7, 0.001, 2, 0, 0x0000000000000000),
    (7, 0.001, 3, 0, 0x0000000000000000),
    (7, 0.0015, 1, 0, 0x0000000000000000),
    (7, 0.0015, 2, 0, 0x0000000000000000),
    (7, 0.0015, 3, 0, 0x0000000000000000),
    (7, 0.002, 1, 0, 0x0000000000000000),
    (7, 0.002, 2, 0, 0x0000000000000000),
    (7, 0.002, 3, 1, 0x3f4dca01dca01dca),
    (7, 0.005, 1, 6, 0x3f76578165781658),
    (7, 0.005, 2, 7, 0x3f7a10c1a10c1a11),
    (7, 0.005, 3, 10, 0x3f829e4129e4129e),
    (7, 0.01, 1, 34, 0x3f9fa6a1fa6a1fa7),
    (7, 0.01, 2, 51, 0x3fa7bcf97bcf97bd),
    (7, 0.01, 3, 56, 0x3faa10c1a10c1a11),
];

#[test]
fn circuit_level_ladder_is_bit_identical() {
    let mut mismatches = Vec::new();
    for &(d, p, seed, failures, bits) in GOLDEN {
        let noise = NoiseModel::uniform_depolarizing(p);
        for threads in [1, 2] {
            let r =
                circuit_level_experiment_threaded(d, &noise, ROUNDS, trials_for(d), seed, threads)
                    .expect("memory circuits run on the tableau");
            assert_eq!(r.distance, d);
            assert_eq!(r.trials as u64, trials_for(d));
            let got = (r.p_logical * trials_for(d) as f64).round() as u64;
            if got != failures || r.p_logical.to_bits() != bits {
                mismatches.push(format!(
                    "d={d} p={p} seed={seed} threads={threads}: got {got} failures, p_logical {} \
                     (0x{:016x}); want {failures}, {} (0x{bits:016x})",
                    r.p_logical,
                    r.p_logical.to_bits(),
                    f64::from_bits(bits)
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
