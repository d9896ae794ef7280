//! Bit-identity tests for the column-major stabilizer tableau.
//!
//! * `RowMajorChp` below is the textbook row-major Aaronson–Gottesman CHP
//!   simulator the production tableau replaced, kept verbatim as a test
//!   oracle. Given the same seed, the production simulator must return the
//!   same outcome word shot by shot on random Clifford circuits (all
//!   supported gates, mid-circuit measurement, reset and classically
//!   conditioned gates), and afterwards agree on which qubits are
//!   determined and what they read. Qubit counts straddle the 64-generator
//!   word boundaries (63/64/65, 130), where a packing bug would show.
//!   Outcomes can match only if both simulators decide "random vs.
//!   determined" from the state alone and draw exactly one
//!   `gen_bool(0.5)` per random measurement.
//! * `surface_memory_counts_are_pinned` pins a digest of the executor's
//!   counts for distance-3/5/7 surface-code memory circuits at four noise
//!   levels. The digests were recorded with the row-major simulator, so
//!   they hold the whole executor path (noise sampling included) to the
//!   old outcomes.

use proptest::prelude::*;
use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use qec::SurfaceCode;
use qsim::backend::BackendChoice;
use qsim::exec::ExecutorConfig;
use qsim::noise::NoiseModel;
use qsim::stabilizer::StabilizerSim;
use qsim::word::OutcomeWord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The row-major CHP simulator: `2n + 1` rows (destabilizers, stabilizers,
/// scratch) of bit-packed X and Z columns plus a phase byte per row.
#[derive(Debug, Clone, PartialEq)]
struct RowMajorChp {
    n: usize,
    words: usize,
    /// X bit-matrix: rows `0..2n+1`, columns packed into `words` u64s.
    xs: Vec<Vec<u64>>,
    /// Z bit-matrix.
    zs: Vec<Vec<u64>>,
    /// Phase bits (0 => +1, 1 => -1).
    rs: Vec<u8>,
}

impl RowMajorChp {
    /// The |0...0> state on `n` qubits.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let rows = 2 * n + 1;
        let mut sim = RowMajorChp {
            n,
            words,
            xs: vec![vec![0u64; words]; rows],
            zs: vec![vec![0u64; words]; rows],
            rs: vec![0u8; rows],
        };
        for i in 0..n {
            sim.set_x(i, i, true); // destabilizer i = X_i
            sim.set_z(n + i, i, true); // stabilizer i = Z_i
        }
        sim
    }

    /// Resets the tableau to |0…0> in place, reusing the allocation.
    fn reinit(&mut self) {
        for row in 0..2 * self.n + 1 {
            self.xs[row].iter_mut().for_each(|w| *w = 0);
            self.zs[row].iter_mut().for_each(|w| *w = 0);
            self.rs[row] = 0;
        }
        for i in 0..self.n {
            self.set_x(i, i, true);
            self.set_z(self.n + i, i, true);
        }
    }

    #[inline]
    fn x(&self, row: usize, col: usize) -> bool {
        (self.xs[row][col / 64] >> (col % 64)) & 1 == 1
    }

    #[inline]
    fn z(&self, row: usize, col: usize) -> bool {
        (self.zs[row][col / 64] >> (col % 64)) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, row: usize, col: usize, v: bool) {
        let w = col / 64;
        let b = col % 64;
        if v {
            self.xs[row][w] |= 1 << b;
        } else {
            self.xs[row][w] &= !(1 << b);
        }
    }

    #[inline]
    fn set_z(&mut self, row: usize, col: usize, v: bool) {
        let w = col / 64;
        let b = col % 64;
        if v {
            self.zs[row][w] |= 1 << b;
        } else {
            self.zs[row][w] &= !(1 << b);
        }
    }

    /// Hadamard on `q`.
    fn h(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let x = self.x(row, q);
            let z = self.z(row, q);
            if x && z {
                self.rs[row] ^= 1;
            }
            self.set_x(row, q, z);
            self.set_z(row, q, x);
        }
    }

    /// Phase gate S on `q`.
    fn s(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let x = self.x(row, q);
            let z = self.z(row, q);
            if x && z {
                self.rs[row] ^= 1;
            }
            self.set_z(row, q, z ^ x);
        }
    }

    /// S-dagger on `q` (three applications of S).
    fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// CNOT with control `a`, target `b`.
    fn cx(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "cx control and target must differ");
        for row in 0..2 * self.n {
            let xa = self.x(row, a);
            let xb = self.x(row, b);
            let za = self.z(row, a);
            let zb = self.z(row, b);
            if xa && zb && (xb == za) {
                self.rs[row] ^= 1;
            }
            self.set_x(row, b, xb ^ xa);
            self.set_z(row, a, za ^ zb);
        }
    }

    /// Controlled-Z via `H(b); CX(a,b); H(b)`.
    fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    /// Swap via three CNOTs.
    fn swap(&mut self, a: usize, b: usize) {
        self.cx(a, b);
        self.cx(b, a);
        self.cx(a, b);
    }

    /// Pauli-X on `q`.
    fn x_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            if self.z(row, q) {
                self.rs[row] ^= 1;
            }
        }
    }

    /// Pauli-Z on `q`.
    fn z_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            if self.x(row, q) {
                self.rs[row] ^= 1;
            }
        }
    }

    /// Pauli-Y on `q`.
    fn y_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            if self.x(row, q) ^ self.z(row, q) {
                self.rs[row] ^= 1;
            }
        }
    }

    /// Phase contribution g(x1,z1,x2,z2) of multiplying two Paulis,
    /// in {-1, 0, +1} (mod 4 arithmetic over 2 bits).
    #[inline]
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => (z2 as i32) - (x2 as i32),
            (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
            (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
        }
    }

    /// Row `h` *= row `i` (Pauli product with phase tracking).
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut phase = 2 * (self.rs[h] as i32) + 2 * (self.rs[i] as i32);
        for q in 0..self.n {
            phase += Self::g(self.x(i, q), self.z(i, q), self.x(h, q), self.z(h, q));
        }
        let phase = phase.rem_euclid(4);
        debug_assert!(phase == 0 || phase == 2, "rowsum produced odd phase");
        self.rs[h] = (phase == 2) as u8;
        for w in 0..self.words {
            self.xs[h][w] ^= self.xs[i][w];
            self.zs[h][w] ^= self.zs[i][w];
        }
    }

    /// Returns `Some(v)` when a Z-measurement of `q` is deterministic.
    fn measure_determined(&mut self, q: usize) -> Option<bool> {
        let n = self.n;
        if (n..2 * n).any(|row| self.x(row, q)) {
            return None;
        }
        // Deterministic: accumulate into the scratch row.
        let scratch = 2 * n;
        self.xs[scratch].iter_mut().for_each(|w| *w = 0);
        self.zs[scratch].iter_mut().for_each(|w| *w = 0);
        self.rs[scratch] = 0;
        for i in 0..n {
            if self.x(i, q) {
                self.rowsum(scratch, i + n);
            }
        }
        Some(self.rs[scratch] == 1)
    }

    /// Measures qubit `q` in the Z basis, collapsing the state.
    fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        if let Some(v) = self.measure_determined(q) {
            return v;
        }
        let n = self.n;
        // Random outcome: find the first stabilizer anticommuting with Z_q.
        let p = (n..2 * n)
            .find(|&row| self.x(row, q))
            .expect("non-deterministic measurement must have such a row");
        // Aaronson–Gottesman step: rowsum every anticommuting row EXCEPT
        // `p` and `p - n`. Including `p - n` is tempting (it is overwritten
        // two lines below anyway) but wrong: its product with row `p` can
        // carry an imaginary phase, which violates the rowsum invariant.
        for row in 0..2 * n {
            if row != p && row != p - n && self.x(row, q) {
                self.rowsum(row, p);
            }
        }
        // Destabilizer p-n <- old stabilizer p.
        self.xs[p - n] = self.xs[p].clone();
        self.zs[p - n] = self.zs[p].clone();
        self.rs[p - n] = self.rs[p];
        // New stabilizer p = +/- Z_q with random sign.
        let outcome = rng.gen_bool(0.5);
        self.xs[p].iter_mut().for_each(|w| *w = 0);
        self.zs[p].iter_mut().for_each(|w| *w = 0);
        self.set_z(p, q, true);
        self.rs[p] = outcome as u8;
        outcome
    }

    /// Resets `q` to |0> (measure, then X if the result was 1).
    fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure(q, rng) {
            self.x_gate(q);
        }
    }

    /// Applies a Clifford gate from the shared gate set.
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        match gate {
            Gate::Id => {}
            Gate::H => self.h(qubits[0]),
            Gate::S => self.s(qubits[0]),
            Gate::Sdg => self.sdg(qubits[0]),
            Gate::X => self.x_gate(qubits[0]),
            Gate::Y => self.y_gate(qubits[0]),
            Gate::Z => self.z_gate(qubits[0]),
            // SX = H S H up to global phase (phase is unobservable here).
            Gate::SX => {
                self.h(qubits[0]);
                self.s(qubits[0]);
                self.h(qubits[0]);
            }
            Gate::CX => self.cx(qubits[0], qubits[1]),
            Gate::CZ => self.cz(qubits[0], qubits[1]),
            // CY = Sdg(t); CX; S(t).
            Gate::CY => {
                self.sdg(qubits[1]);
                self.cx(qubits[0], qubits[1]);
                self.s(qubits[1]);
            }
            Gate::SWAP => self.swap(qubits[0], qubits[1]),
            other => panic!("gate {other} is not Clifford"),
        }
    }

    /// One trajectory of a Clifford circuit, writing measurement results
    /// into `clbits`.
    fn run_circuit_into(
        &mut self,
        circuit: &Circuit,
        rng: &mut impl Rng,
        clbits: &mut OutcomeWord,
    ) {
        self.reinit();
        clbits.clear();
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => self.apply_gate(*gate, qubits),
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    if clbits.bit(*clbit) == *value {
                        self.apply_gate(*gate, qubits);
                    }
                }
                Op::Measure { qubit, clbit } => {
                    let outcome = self.measure(*qubit, rng);
                    clbits.set_bit(*clbit, outcome);
                }
                Op::Reset { qubit } => self.reset(*qubit, rng),
                Op::Barrier { .. } => {}
            }
        }
    }
}

/// Classical register width of the random circuits: past one word, so
/// conditionals read spilled bits too.
const CLBITS: usize = 70;

/// One raw op: `(kind, a, b, clbit, flag)`, reduced modulo the circuit
/// shape by [`build_circuit`].
type RawOp = (u8, usize, usize, usize, bool);

/// Qubit counts hugging the 64-generator word boundaries.
fn arb_qubits() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=5,
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(130usize)
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (
            0u8..16,
            0usize..1 << 16,
            0usize..1 << 16,
            0usize..CLBITS,
            0u8..2,
        )
            .prop_map(|(k, a, b, c, f)| (k, a, b, c, f == 1)),
        0..120,
    )
}

const ONE_QUBIT: [Gate; 7] = [
    Gate::H,
    Gate::S,
    Gate::Sdg,
    Gate::SX,
    Gate::X,
    Gate::Y,
    Gate::Z,
];
const TWO_QUBIT: [Gate; 4] = [Gate::CX, Gate::CZ, Gate::CY, Gate::SWAP];

/// Lowers raw ops onto `n` qubits. Two-qubit gates fall back to a
/// one-qubit gate on a single-qubit circuit. Measurements and resets are
/// weighted up so most circuits mix random and determined outcomes.
fn build_circuit(n: usize, raw: &[RawOp]) -> Circuit {
    let mut qc = Circuit::new(n, CLBITS);
    for &(kind, a, b, clbit, flag) in raw {
        let a = a % n;
        let b = if n > 1 { (a + 1 + b % (n - 1)) % n } else { a };
        match kind {
            0..=6 => {
                qc.push_gate(ONE_QUBIT[kind as usize], &[a]);
            }
            7..=10 if n > 1 => {
                qc.push_gate(TWO_QUBIT[kind as usize - 7], &[a, b]);
            }
            7..=10 => {
                qc.push_gate(ONE_QUBIT[kind as usize - 7], &[a]);
            }
            11 | 12 => {
                qc.measure(a, clbit);
            }
            13 => {
                qc.reset(a);
            }
            _ if flag && n > 1 => {
                qc.cond_gate(TWO_QUBIT[b % TWO_QUBIT.len()], &[a, b], clbit, flag);
            }
            _ => {
                qc.cond_gate(ONE_QUBIT[b % ONE_QUBIT.len()], &[a], clbit, flag);
            }
        }
    }
    qc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Shot by shot, the column-major tableau reproduces the row-major
    /// oracle's outcome words from the same seed, and both end each shot
    /// in states that agree on every qubit's Z-basis determinism and value.
    #[test]
    fn column_major_tableau_matches_row_major_oracle(
        n in arb_qubits(),
        raw in arb_ops(),
        seed in 0u64..u64::MAX,
    ) {
        let qc = build_circuit(n, &raw);
        let mut fast = StabilizerSim::new(n);
        let mut oracle = RowMajorChp::new(n);
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let mut fast_word = OutcomeWord::zero();
        let mut oracle_word = OutcomeWord::zero();
        for shot in 0..3 {
            fast.run_circuit_into(&qc, &mut fast_rng, &mut fast_word);
            oracle.run_circuit_into(&qc, &mut oracle_rng, &mut oracle_word);
            prop_assert_eq!(&fast_word, &oracle_word, "n={} shot {}", n, shot);
            for q in 0..n {
                prop_assert_eq!(
                    fast.measure_determined(q),
                    oracle.measure_determined(q),
                    "n={} shot {} qubit {}", n, shot, q
                );
            }
        }
        // Both consumed the same random draws.
        prop_assert_eq!(fast_rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }
}

/// Gate-level agreement without the circuit layer: every supported gate
/// on every qubit (pair) of a scrambled 65-qubit state, then a full
/// Z-basis readout that mixes random and determined measurements.
#[test]
fn every_gate_matches_the_oracle_across_the_word_boundary() {
    let n = 65;
    let mut rng = StdRng::seed_from_u64(0x7ab1e);
    let mut fast = StabilizerSim::new(n);
    let mut oracle = RowMajorChp::new(n);
    for round in 0..4 {
        for q in 0..n {
            let gate = ONE_QUBIT[(q + round) % ONE_QUBIT.len()];
            fast.apply_gate(gate, &[q]);
            oracle.apply_gate(gate, &[q]);
            let b = (q * 7 + round * 13 + 1) % n;
            if b != q {
                let gate = TWO_QUBIT[(q + round) % TWO_QUBIT.len()];
                fast.apply_gate(gate, &[q, b]);
                oracle.apply_gate(gate, &[q, b]);
            }
        }
    }
    let seed = rng.gen::<u64>();
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    for q in (0..n).rev() {
        assert_eq!(
            fast.measure_determined(q),
            oracle.measure_determined(q),
            "qubit {q}"
        );
        assert_eq!(
            fast.measure(q, &mut fast_rng),
            oracle.measure(q, &mut oracle_rng),
            "qubit {q}"
        );
    }
}

/// FNV-1a over the rendered `(outcome, count)` table.
fn counts_digest(counts: &qsim::dist::Counts, width: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (word, count) in counts.iter() {
        for b in format!("{}:{count}\n", word.bitstring(width)).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Executor counts of two-round surface-code memory circuits on the
/// tableau backend, digested per `(distance, noise)`. The digests were
/// recorded with the row-major simulator; any change to measurement
/// outcomes or random-draw order moves them.
#[test]
fn surface_memory_counts_are_pinned() {
    const PINNED: [(usize, f64, u64, u64); 12] = [
        (3, 0.0, 512, 0x19deefd6657f51a6),
        (3, 0.0005, 512, 0x3e44f75c33624063),
        (3, 0.002, 512, 0x35e73eadc496d6d8),
        (3, 0.01, 512, 0x85cd6a12e2109f97),
        (5, 0.0, 128, 0xcafbbc12e6ca1acd),
        (5, 0.0005, 128, 0x919a4873ba316caa),
        (5, 0.002, 128, 0x113d37d54e363ca2),
        (5, 0.01, 128, 0xed03cedf3d6581a5),
        (7, 0.0, 32, 0xa4067a564e7f468d),
        (7, 0.0005, 32, 0x852039604dcb9c94),
        (7, 0.002, 32, 0x72f9d2d0ebf17415),
        (7, 0.01, 32, 0xd95da27f967959f4),
    ];
    let mut seen = Vec::new();
    for &(d, p, shots, _) in &PINNED {
        let mem = SurfaceCode::new(d).memory_circuit(2);
        let noise = if p == 0.0 {
            NoiseModel::ideal()
        } else {
            NoiseModel::uniform_depolarizing(p)
        };
        let counts = ExecutorConfig::new()
            .noise(noise)
            .backend(BackendChoice::Tableau)
            .threads(2)
            .build()
            .try_run(&mem.circuit, shots, 1000 + d as u64)
            .expect("memory circuits are Clifford");
        assert_eq!(counts.shots(), shots);
        seen.push(counts_digest(&counts, mem.circuit.num_clbits()));
    }
    for (i, &(d, p, _, digest)) in PINNED.iter().enumerate() {
        assert_eq!(seen[i], digest, "d={d} p={p}: counts digest moved");
    }
}
