//! Dense state-vector simulation.
//!
//! Qubit `i` corresponds to bit `i` of the basis-state index (little-endian
//! state indexing). Gate matrices from [`qcir::gate::Gate::matrix`] put the
//! gate's first operand in the most significant matrix-bit, and
//! [`StateVector::apply_gate`] performs the index bookkeeping between the
//! two conventions.
//!
//! Gate application runs the per-gate lowering [`crate::plan::lower`]
//! onto the specialized kernels in [`crate::kernels`]; the naive full-scan
//! formulation is kept as [`StateVector::apply_matrix_reference`] and serves
//! as the correctness oracle in tests and benches.

use crate::kernels;
use crate::noise::Pauli;
use qcir::gate::Gate;
use qcir::math::{Matrix, C64};
use rand::Rng;

/// A pure quantum state over `n` qubits.
///
/// ```
/// use qsim::state::StateVector;
/// use qcir::gate::Gate;
///
/// let mut psi = StateVector::zero(2);
/// psi.apply_gate(Gate::H, &[0]);
/// psi.apply_gate(Gate::CX, &[0, 1]);
/// let probs = psi.probabilities();
/// assert!((probs[0b00] - 0.5).abs() < 1e-12);
/// assert!((probs[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state |0...0>.
    ///
    /// # Panics
    ///
    /// Panics when `num_qubits > 26` (the dense representation would exceed
    /// a gigabyte of amplitudes).
    pub fn zero(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= crate::backend::DENSE_QUBIT_CAP,
            "dense simulation capped at {} qubits",
            crate::backend::DENSE_QUBIT_CAP
        );
        let mut amps = vec![C64::ZERO; 1 << num_qubits];
        amps[0] = C64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Builds a state from an explicit amplitude vector, normalizing it.
    ///
    /// # Panics
    ///
    /// Panics when the length is not a power of two, exceeds the dense
    /// qubit cap, or the vector has (numerically) zero norm.
    pub fn from_amplitudes(mut amps: Vec<C64>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "amplitude count must be a power of two"
        );
        let num_qubits = amps.len().trailing_zeros() as usize;
        assert!(
            num_qubits <= crate::backend::DENSE_QUBIT_CAP,
            "dense simulation capped at {} qubits",
            crate::backend::DENSE_QUBIT_CAP
        );
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(norm_sqr > 1e-300, "cannot normalize a zero vector");
        let scale = 1.0 / norm_sqr.sqrt();
        for a in &mut amps {
            *a = *a * scale;
        }
        StateVector { num_qubits, amps }
    }

    /// Resets the state to |0…0> in place, reusing the allocation (the
    /// trajectory executor calls this once per shot).
    pub fn reinit(&mut self) {
        self.amps.fill(C64::ZERO);
        self.amps[0] = C64::ONE;
    }

    /// A specific computational basis state.
    ///
    /// # Panics
    ///
    /// Panics when `basis >= 2^num_qubits`.
    pub fn basis(num_qubits: usize, basis: usize) -> Self {
        let mut sv = StateVector::zero(num_qubits);
        assert!(basis < sv.amps.len(), "basis index out of range");
        sv.amps[0] = C64::ZERO;
        sv.amps[basis] = C64::ONE;
        sv
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Amplitude vector (little-endian basis indexing).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable amplitude access for the plan executor, which drives the
    /// kernel layer directly from precompiled ops. Callers must preserve
    /// normalization (plans only apply unitaries).
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Applies a gate to the given qubits (gate operand order).
    ///
    /// Runs the op [`crate::plan::lower`] selects from [`Gate::kind`] —
    /// diagonal gates become pure phase multiplies, permutation gates index
    /// swaps, dense single-qubit blocks a butterfly update — and performs no
    /// heap allocation for any gate with a specialized kernel.
    ///
    /// # Panics
    ///
    /// Panics when operand count mismatches the gate arity or indices are
    /// out of range / duplicated.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(qubits.len(), gate.num_qubits(), "gate arity mismatch");
        self.check_operands(qubits);
        if let Some(op) = crate::plan::lower(gate, qubits) {
            op.apply(self);
        }
    }

    /// Applies a single-qubit Pauli directly (the noise-injection hot path:
    /// no gate classification, no matrix).
    ///
    /// # Panics
    ///
    /// Panics when `qubit` is out of range.
    pub fn apply_pauli(&mut self, qubit: usize, pauli: Pauli) {
        assert!(qubit < self.num_qubits, "qubit index out of range");
        match pauli {
            Pauli::X => kernels::apply_x(&mut self.amps, qubit),
            Pauli::Y => kernels::apply_y(&mut self.amps, qubit),
            Pauli::Z => kernels::apply_diag1(&mut self.amps, qubit, C64::ONE, -C64::ONE),
        }
    }

    /// The original full-scan dense implementation, kept verbatim as the
    /// reference oracle: tests and benches compare the kernel layer against
    /// it (bit-exact up to 1e-12) and it is the baseline the ≥5x speedup is
    /// measured from.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, out-of-range or duplicate qubits.
    pub fn apply_matrix_reference(&mut self, matrix: &Matrix, qubits: &[usize]) {
        let k = qubits.len();
        assert_eq!(matrix.dim(), 1 << k, "matrix dimension mismatch");
        self.check_operands(qubits);
        let n = self.amps.len();
        let dim = 1 << k;
        // Masks for the target bits, in gate order (qubits[0] = MSB).
        let shifts: Vec<usize> = qubits.to_vec();
        let mut scratch = vec![C64::ZERO; dim];

        // Iterate over all basis indices with the target bits cleared.
        let target_mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
        let mut base = 0usize;
        loop {
            if base & target_mask == 0 {
                // Gather.
                for (row, amp) in scratch.iter_mut().enumerate() {
                    let mut idx = base;
                    for (j, &q) in shifts.iter().enumerate() {
                        if (row >> (k - 1 - j)) & 1 == 1 {
                            idx |= 1 << q;
                        }
                    }
                    *amp = self.amps[idx];
                }
                // Multiply and scatter.
                for row in 0..dim {
                    let mut acc = C64::ZERO;
                    for (col, &amp) in scratch.iter().enumerate() {
                        let m = matrix.get(row, col);
                        if m != C64::ZERO {
                            acc += m * amp;
                        }
                    }
                    let mut idx = base;
                    for (j, &q) in shifts.iter().enumerate() {
                        if (row >> (k - 1 - j)) & 1 == 1 {
                            idx |= 1 << q;
                        }
                    }
                    self.amps[idx] = acc;
                }
            }
            base += 1;
            if base >= n {
                break;
            }
        }
    }

    /// Validates operand indices: in range and mutually distinct.
    fn check_operands(&self, qubits: &[usize]) {
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.num_qubits, "qubit index out of range");
            assert!(!qubits[..i].contains(&q), "duplicate qubit operand");
        }
    }

    /// The probability of measuring `1` on `qubit`.
    ///
    /// Iterates only the `2^(n-1)` set-bit indices by stride arithmetic
    /// rather than filtering the whole vector.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        let step = 1usize << qubit;
        let mut total = 0.0;
        for block in self.amps.chunks_exact(step << 1) {
            for a in &block[step..] {
                total += a.norm_sqr();
            }
        }
        total
    }

    /// Measures `qubit` in the computational basis, collapsing the state.
    pub fn measure(&mut self, qubit: usize, rng: &mut impl Rng) -> bool {
        let p1 = self.prob_one(qubit);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.collapse(qubit, outcome);
        outcome
    }

    /// Projects `qubit` onto `outcome` and renormalizes.
    pub fn collapse(&mut self, qubit: usize, outcome: bool) {
        let mask = 1usize << qubit;
        let mut norm = 0.0;
        for (i, amp) in self.amps.iter_mut().enumerate() {
            if ((i & mask) != 0) != outcome {
                *amp = C64::ZERO;
            } else {
                norm += amp.norm_sqr();
            }
        }
        if norm > 0.0 {
            let scale = 1.0 / norm.sqrt();
            for amp in &mut self.amps {
                *amp = *amp * scale;
            }
        }
    }

    /// Resets `qubit` to |0> (measure + conditional X, without recording).
    pub fn reset(&mut self, qubit: usize, rng: &mut impl Rng) {
        let outcome = self.measure(qubit, rng);
        if outcome {
            self.apply_pauli(qubit, Pauli::X);
        }
    }

    /// Probability of every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Samples a basis state index from the current distribution.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, amp) in self.amps.iter().enumerate() {
            acc += amp.norm_sqr();
            if r < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }

    /// `|<self|other>|^2`.
    ///
    /// # Panics
    ///
    /// Panics when qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        let mut ip = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            ip += a.conj() * *b;
        }
        ip.norm_sqr()
    }

    /// Squared norm (should be 1 up to numerical error).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }
}

/// Computes the full unitary of a measurement-free circuit by applying it to
/// every basis state. Used by the grader for unitary-equivalence checks on
/// small circuits.
///
/// # Panics
///
/// Panics when the circuit contains non-unitary operations or has more than
/// 12 qubits (the dense unitary would be too large).
pub fn circuit_unitary(circuit: &qcir::circuit::Circuit) -> Matrix {
    assert!(
        circuit.is_unitary_only(),
        "circuit_unitary requires a measurement-free circuit"
    );
    let n = circuit.num_qubits();
    assert!(n <= 12, "unitary extraction capped at 12 qubits");
    let dim = 1 << n;
    let mut u = Matrix::zeros(dim);
    for col in 0..dim {
        let mut sv = StateVector::basis(n, col);
        for op in circuit.ops() {
            if let qcir::circuit::Op::Gate { gate, qubits } = op {
                sv.apply_gate(*gate, qubits);
            }
        }
        for row in 0..dim {
            u[(row, col)] = sv.amps[row];
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_is_normalized() {
        let sv = StateVector::zero(3);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(sv.amplitudes()[0], C64::ONE);
    }

    #[test]
    fn x_flips_basis_state() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::X, &[1]);
        assert!(sv.amplitudes()[0b10].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn bell_state_probabilities() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::CX, &[0, 1]);
        let p = sv.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01].abs() < 1e-12);
        assert!(p[0b10].abs() < 1e-12);
    }

    #[test]
    fn cx_control_order_matters() {
        // Control qubit 1 (|0>), target 0: no flip.
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::X, &[0]); // |01> (qubit0 = 1)
        sv.apply_gate(Gate::CX, &[0, 1]); // control=qubit0 set -> flips qubit1
        assert!(sv.amplitudes()[0b11].approx_eq(C64::ONE, 1e-12));
        let mut sv2 = StateVector::zero(2);
        sv2.apply_gate(Gate::X, &[0]);
        sv2.apply_gate(Gate::CX, &[1, 0]); // control=qubit1 clear -> no-op
        assert!(sv2.amplitudes()[0b01].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn ccx_truth_table() {
        for input in 0..8usize {
            let mut sv = StateVector::basis(3, input);
            sv.apply_gate(Gate::CCX, &[0, 1, 2]);
            let expected = if input & 0b011 == 0b011 {
                input ^ 0b100
            } else {
                input
            };
            assert!(
                sv.amplitudes()[expected].approx_eq(C64::ONE, 1e-12),
                "input {input}"
            );
        }
    }

    #[test]
    fn measure_collapses() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::CX, &[0, 1]);
        let m0 = sv.measure(0, &mut rng);
        let m1 = sv.measure(1, &mut rng);
        assert_eq!(m0, m1, "bell state measurements must correlate");
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prob_one_after_h() {
        let mut sv = StateVector::zero(1);
        sv.apply_gate(Gate::H, &[0]);
        assert!((sv.prob_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sv = StateVector::zero(1);
        sv.apply_gate(Gate::X, &[0]);
        sv.reset(0, &mut rng);
        assert!(sv.amplitudes()[0].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut a = StateVector::zero(2);
        a.apply_gate(Gate::H, &[0]);
        let b = a.clone();
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = StateVector::basis(1, 0);
        let b = StateVector::basis(1, 1);
        assert!(a.fidelity(&b) < 1e-12);
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        let mut sv = StateVector::zero(4);
        let gates = [
            (Gate::H, vec![0]),
            (Gate::T, vec![1]),
            (Gate::CX, vec![0, 2]),
            (Gate::RZ(0.7), vec![3]),
            (Gate::CCX, vec![0, 1, 3]),
            (Gate::SWAP, vec![2, 3]),
            (Gate::U(0.3, 1.1, -0.4), vec![1]),
        ];
        for (g, qs) in gates {
            sv.apply_gate(g, &qs);
        }
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut sv = StateVector::basis(2, 0b01);
        sv.apply_gate(Gate::SWAP, &[0, 1]);
        assert!(sv.amplitudes()[0b10].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn unitary_of_bell_preparation() {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let u = circuit_unitary(&qc);
        assert!(u.is_unitary(1e-10));
        // Column 0 (input |00>) is the Bell state.
        assert!((u.get(0b00, 0).abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((u.get(0b11, 0).abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn every_gate_roundtrips_with_its_inverse() {
        // Start from a non-trivial product state so phases matter, apply each
        // gate followed by its inverse, and require the state back exactly.
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::X, vec![1]),
            (Gate::Y, vec![2]),
            (Gate::Z, vec![0]),
            (Gate::S, vec![1]),
            (Gate::Sdg, vec![2]),
            (Gate::T, vec![0]),
            (Gate::Tdg, vec![1]),
            (Gate::SX, vec![2]),
            (Gate::RX(0.83), vec![0]),
            (Gate::RY(-1.2), vec![1]),
            (Gate::RZ(2.9), vec![2]),
            (Gate::P(0.4), vec![0]),
            (Gate::U(0.3, -0.8, 1.7), vec![1]),
            (Gate::CX, vec![0, 2]),
            (Gate::CY, vec![2, 1]),
            (Gate::CZ, vec![1, 0]),
            (Gate::CH, vec![0, 1]),
            (Gate::SWAP, vec![1, 2]),
            (Gate::CRZ(0.6), vec![2, 0]),
            (Gate::CP(-0.9), vec![0, 1]),
            (Gate::CCX, vec![0, 1, 2]),
            (Gate::CSWAP, vec![2, 0, 1]),
        ];
        for (gate, qubits) in gates {
            let mut sv = StateVector::zero(3);
            for q in 0..3 {
                sv.apply_gate(Gate::H, &[q]);
                sv.apply_gate(Gate::T, &[q]);
            }
            let before = sv.clone();
            sv.apply_gate(gate, &qubits);
            sv.apply_gate(gate.inverse(), &qubits);
            assert!(
                (sv.fidelity(&before) - 1.0).abs() < 1e-10,
                "{gate:?} on {qubits:?} did not roundtrip"
            );
            assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn apply_matrix_reference_is_big_endian_over_operands() {
        // X ⊗ I applied to qubits [0, 1]: operand 0 is the matrix MSB, so
        // the X must act on qubit 0 (bit 0 of the little-endian state index).
        let x = Gate::X.matrix();
        let id = qcir::math::Matrix::identity(2);
        let xi = x.kron(&id);
        let mut sv = StateVector::zero(2);
        sv.apply_matrix_reference(&xi, &[0, 1]);
        assert!(sv.amplitudes()[0b01].approx_eq(C64::ONE, 1e-12));
        // Same matrix on reversed operands flips qubit 1 instead.
        let mut sv = StateVector::zero(2);
        sv.apply_matrix_reference(&xi, &[1, 0]);
        assert!(sv.amplitudes()[0b10].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn apply_gate_agrees_with_dense_unitary() {
        // Evolving |basis> through the circuit must match the column of the
        // extracted dense unitary for every basis state.
        let mut qc = Circuit::new(3, 0);
        qc.h(0).cx(0, 1).t(1).swap(1, 2).cz(0, 2);
        let u = circuit_unitary(&qc);
        for col in 0..8 {
            let mut sv = StateVector::basis(3, col);
            for op in qc.ops() {
                if let qcir::circuit::Op::Gate { gate, qubits } = op {
                    sv.apply_gate(*gate, qubits);
                }
            }
            for row in 0..8 {
                assert!(
                    sv.amplitudes()[row].approx_eq(u.get(row, col), 1e-10),
                    "mismatch at ({row}, {col})"
                );
            }
        }
    }

    #[test]
    fn long_random_gate_sequence_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut sv = StateVector::zero(5);
        for _ in 0..200 {
            match rng.gen_range(0..6) {
                0 => sv.apply_gate(Gate::H, &[rng.gen_range(0..5)]),
                1 => sv.apply_gate(Gate::T, &[rng.gen_range(0..5)]),
                2 => sv.apply_gate(Gate::RY(rng.gen_range(-3.0..3.0)), &[rng.gen_range(0..5)]),
                3 => {
                    let a = rng.gen_range(0..5);
                    let b = (a + rng.gen_range(1..5)) % 5;
                    sv.apply_gate(Gate::CX, &[a, b]);
                }
                4 => {
                    let a = rng.gen_range(0..5);
                    let b = (a + rng.gen_range(1..5)) % 5;
                    sv.apply_gate(Gate::CP(rng.gen_range(-3.0..3.0)), &[a, b]);
                }
                _ => sv.apply_gate(Gate::SX, &[rng.gen_range(0..5)]),
            }
        }
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn global_phase_does_not_change_fidelity() {
        let mut a = StateVector::zero(1);
        a.apply_gate(Gate::X, &[0]);
        let mut b = a.clone();
        b.apply_gate(Gate::P(1.3), &[0]); // phases the |1> component only
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_respects_support() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::CX, &[0, 1]);
        let mut seen = [0usize; 4];
        for _ in 0..2000 {
            seen[sv.sample(&mut rng)] += 1;
        }
        assert_eq!(seen[0b01], 0);
        assert_eq!(seen[0b10], 0);
        let frac = seen[0b00] as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "bell sampling skewed: {frac}");
    }

    #[test]
    fn measurement_statistics_on_plus_state() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut ones = 0;
        for _ in 0..2000 {
            let mut sv = StateVector::zero(1);
            sv.apply_gate(Gate::H, &[0]);
            if sv.measure(0, &mut rng) {
                ones += 1;
            }
        }
        let frac = ones as f64 / 2000.0;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "plus-state measurement skewed: {frac}"
        );
    }

    #[test]
    fn collapse_renormalizes_partial_superposition() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::H, &[1]);
        sv.collapse(0, true);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);
        assert!((sv.prob_one(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "basis index out of range")]
    fn basis_checks_range() {
        StateVector::basis(2, 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn apply_gate_checks_arity() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::CX, &[0]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn apply_gate_checks_duplicates() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(Gate::CX, &[1, 1]);
    }
}
