//! Property tests: every specialized kernel agrees with the generic dense
//! reference path on random states, gates, and operand orders, to 1e-12.

use proptest::prelude::*;
use qcir::gate::Gate;
use qcir::math::{Matrix, C64};
use qsim::kernels;
use qsim::state::StateVector;

const N: usize = 5;

/// Strategy: an arbitrary gate covering every dispatch tier (identity,
/// diagonal, permutation, butterfly, controlled, three-qubit).
fn arb_gate() -> impl Strategy<Value = Gate> {
    prop_oneof![
        Just(Gate::Id),
        Just(Gate::H),
        Just(Gate::X),
        Just(Gate::Y),
        Just(Gate::Z),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::T),
        Just(Gate::Tdg),
        Just(Gate::SX),
        (-6.3f64..6.3).prop_map(Gate::RX),
        (-6.3f64..6.3).prop_map(Gate::RY),
        (-6.3f64..6.3).prop_map(Gate::RZ),
        (-6.3f64..6.3).prop_map(Gate::P),
        (-3.2f64..3.2, -3.2f64..3.2, -3.2f64..3.2).prop_map(|(t, p, l)| Gate::U(t, p, l)),
        Just(Gate::CX),
        Just(Gate::CY),
        Just(Gate::CZ),
        Just(Gate::CH),
        Just(Gate::SWAP),
        (-6.3f64..6.3).prop_map(Gate::CRX),
        (-6.3f64..6.3).prop_map(Gate::CRY),
        (-6.3f64..6.3).prop_map(Gate::CRZ),
        (-6.3f64..6.3).prop_map(Gate::CP),
        Just(Gate::CCX),
        Just(Gate::CSWAP),
    ]
}

/// Strategy: a random (unnormalized) amplitude vector over `N` qubits; the
/// `StateVector` constructor normalizes it.
fn arb_amps() -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| C64::new(re, im)),
        1 << N,
    )
}

/// Strategy: a permutation seed used to pick distinct operand qubits.
fn arb_operands() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..N, 3)
}

/// Builds distinct operand qubits from the raw draw, wrapping duplicates to
/// the next free qubit so every draw yields a valid operand list.
fn distinct_operands(raw: &[usize], arity: usize) -> Vec<usize> {
    let mut qubits: Vec<usize> = Vec::with_capacity(arity);
    for &r in raw.iter().take(arity) {
        let mut q = r;
        while qubits.contains(&q) {
            q = (q + 1) % N;
        }
        qubits.push(q);
    }
    qubits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tentpole invariant: kernel dispatch and the full-scan dense
    /// oracle produce identical amplitudes (1e-12) for every gate, state,
    /// and operand order.
    #[test]
    fn kernels_agree_with_dense_reference(
        gate in arb_gate(),
        amps in arb_amps(),
        raw_ops in arb_operands(),
    ) {
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        prop_assume!(norm_sqr > 1e-6);
        let qubits = distinct_operands(&raw_ops, gate.num_qubits());

        let mut fast = StateVector::from_amplitudes(amps.clone());
        fast.apply_gate(gate, &qubits);

        let mut oracle = StateVector::from_amplitudes(amps);
        oracle.apply_matrix_reference(&gate.matrix(), &qubits);

        for (i, (a, b)) in fast
            .amplitudes()
            .iter()
            .zip(oracle.amplitudes())
            .enumerate()
        {
            prop_assert!(
                a.approx_eq(*b, 1e-12),
                "{gate:?} on {qubits:?}: amplitude {i} diverged: {a} vs {b}"
            );
        }
    }

    /// The `Dense3` superblock kernel agrees with the dense reference for
    /// arbitrary (possibly sparse) 8x8 products of single-qubit factors on
    /// every sorted qubit triple — covering both AVX2 variants (`q0 == 0`
    /// tiles and `q0 >= 1` lanes) and the scalar zero-skipping fallback.
    #[test]
    fn dense3_kernel_agrees_with_dense_reference(
        g2 in arb_gate(),
        g1 in arb_gate(),
        g0 in arb_gate(),
        amps in arb_amps(),
        raw_ops in arb_operands(),
    ) {
        prop_assume!(g2.num_qubits() == 1 && g1.num_qubits() == 1 && g0.num_qubits() == 1);
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        prop_assume!(norm_sqr > 1e-6);
        let mut qubits = distinct_operands(&raw_ops, 3);
        qubits.sort_unstable_by(|a, b| b.cmp(a)); // q2 > q1 > q0
        let (q2, q1, q0) = (qubits[0], qubits[1], qubits[2]);
        let matrix = g2.matrix().kron(&g1.matrix()).kron(&g0.matrix());
        let mut m = [C64::ZERO; 64];
        for (i, mi) in m.iter_mut().enumerate() {
            *mi = matrix.get(i / 8, i % 8);
        }

        let mut fast = StateVector::from_amplitudes(amps.clone()).amplitudes().to_vec();
        kernels::apply_dense3(&mut fast, q2, q1, q0, &m);

        let mut oracle = StateVector::from_amplitudes(amps);
        oracle.apply_matrix_reference(&matrix, &[q2, q1, q0]);

        for (i, (a, b)) in fast.iter().zip(oracle.amplitudes()).enumerate() {
            prop_assert!(
                a.approx_eq(*b, 1e-12),
                "dense3 on ({q2},{q1},{q0}): amplitude {i} diverged: {a} vs {b}"
            );
        }
    }

    /// `apply_diag1` with arbitrary (non-gate) diagonal factors agrees with
    /// the dense reference — exercising both the phase-only (`d0 == 1`)
    /// skip path and the general two-factor path in each dispatch tier.
    #[test]
    fn diag1_kernel_agrees_with_dense_reference(
        amps in arb_amps(),
        qubit in 0..N,
        d in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        phase_only in (0usize..2).prop_map(|b| b == 1),
    ) {
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        prop_assume!(norm_sqr > 1e-6);
        let d0 = if phase_only { C64::ONE } else { C64::new(d.0, d.1) };
        let d1 = C64::new(d.2, 1.0 - d.2);
        let z = C64::ZERO;
        let matrix = Matrix::from_rows(2, &[d0, z, z, d1]);

        let mut fast = StateVector::from_amplitudes(amps.clone()).amplitudes().to_vec();
        kernels::apply_diag1(&mut fast, qubit, d0, d1);

        let mut oracle = StateVector::from_amplitudes(amps);
        oracle.apply_matrix_reference(&matrix, &[qubit]);

        for (a, b) in fast.iter().zip(oracle.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    /// `apply_diag2` with arbitrary four-factor diagonals (including exact
    /// ones, which the scalar tier skips) agrees with the dense reference
    /// for both operand orders.
    #[test]
    fn diag2_kernel_agrees_with_dense_reference(
        amps in arb_amps(),
        raw_ops in arb_operands(),
        raw_d in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0usize..2), 4),
    ) {
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        prop_assume!(norm_sqr > 1e-6);
        let qubits = distinct_operands(&raw_ops, 2);
        let (hi, lo) = (qubits[0], qubits[1]);
        let mut d = [C64::ZERO; 4];
        for (dk, &(re, im, one)) in d.iter_mut().zip(&raw_d) {
            *dk = if one == 1 { C64::ONE } else { C64::new(re, im) };
        }
        let z = C64::ZERO;
        #[rustfmt::skip]
        let matrix = Matrix::from_rows(4, &[
            d[0], z, z, z,
            z, d[1], z, z,
            z, z, d[2], z,
            z, z, z, d[3],
        ]);

        let mut fast = StateVector::from_amplitudes(amps.clone()).amplitudes().to_vec();
        kernels::apply_diag2(&mut fast, hi, lo, &d);

        let mut oracle = StateVector::from_amplitudes(amps);
        // Big-endian reference operands: `hi` is the matrix MSB, matching
        // the kernel's `d[(hi_bit << 1) | lo_bit]` convention.
        oracle.apply_matrix_reference(&matrix, &[hi, lo]);

        for (a, b) in fast.iter().zip(oracle.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-12), "diag2 on ({hi},{lo}): {a} vs {b}"
            );
        }
    }

    /// prob_one's strided sum matches a naive full-vector filter.
    #[test]
    fn prob_one_matches_naive_filter(amps in arb_amps(), qubit in 0..N) {
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        prop_assume!(norm_sqr > 1e-6);
        let sv = StateVector::from_amplitudes(amps);
        let naive: f64 = sv
            .amplitudes()
            .iter()
            .enumerate()
            .filter(|(i, _)| i & (1 << qubit) != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        prop_assert!((sv.prob_one(qubit) - naive).abs() < 1e-12);
    }
}
