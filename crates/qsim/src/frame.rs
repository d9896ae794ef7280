//! Pauli-frame shot sampling for noisy Clifford circuits.
//!
//! A tableau shot costs `O(n²/64)` per measurement. Stim's method (C.
//! Gidney, "Stim: a fast stabilizer circuit simulator", Quantum 5, 497
//! (2021)) runs the tableau once per job for a *reference sample* and then
//! propagates only a Pauli frame per shot, at `O(1)` per gate and
//! `O(n/64)` per random measurement.
//!
//! # Why it is exact
//!
//! Pauli noise and classically conditioned Paulis change only the signs of
//! a tableau, never its X and Z bits, so *which* measurements are random
//! is the same in every shot. A shot's state is therefore `F|ψ_ref⟩`: the
//! reference state under a Pauli frame `F`.
//!
//! * A measurement that is determined in the reference reads the
//!   reference outcome flipped by `F`'s X bit on the qubit, and leaves the
//!   state alone.
//! * A random one collapses `F|ψ_ref⟩` onto outcome `b` as `F·S^k` times
//!   the reference's outcome-0 branch, where `S` is the pivot stabilizer
//!   the tableau collapses on and `k = b ⊕ F_x[q]`.
//!
//! # Bit-identity contract
//!
//! Each shot makes exactly the RNG draws of a tableau shot, in the same
//! order: the noise draws of [`NoiseModel::for_each_gate_error`] and
//! [`NoiseModel::for_each_idle_error`], one `gen_bool(0.5)` per random
//! measurement (taken as the outcome), and the readout draw of
//! [`NoiseModel::sample_readout`]. So outcomes equal the tableau's shot by
//! shot, not just in distribution. This holds for every circuit
//! [`FrameProgram::compile`] accepts: Clifford gates, measurement, reset,
//! barriers, and conditionals on Paulis or the identity.
//!
//! # Frame storage
//!
//! A frame is one X and one Z bit per qubit ([`FrameBits`]). Programs of
//! up to 64 qubits run on a [`WordFrame`]: two `u64`s that stay in
//! registers through the shot, so a gate is a few register operations
//! rather than loads and stores of heap words. Wider programs run on a
//! [`PauliFrame`] of `n.div_ceil(64)` words per Pauli type.
//! [`FrameProgram::run_shot`] is one body generic over the storage, so
//! both take the same steps and make the same draws: the outcome words and
//! the RNG stream are identical whichever storage a shot runs on.

use crate::noise::{NoiseModel, Pauli};
use crate::stabilizer::StabilizerSim;
use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use rand::Rng;

/// How the reference pass found a measured qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Collapse {
    /// The outcome is determined; the reference read this value.
    Determined(bool),
    /// The outcome is random; the pivot stabilizer's X and Z words start
    /// at this offset of [`FrameProgram::pivots`].
    Random(usize),
}

/// One step of a [`FrameProgram`].
#[derive(Debug, Clone, PartialEq)]
enum FrameOp {
    /// A Clifford gate, as its [`conjugation_table`], and its
    /// depolarizing draws. One-qubit gates repeat their operand.
    Gate {
        gate: Gate,
        table: u64,
        qubits: [usize; 2],
    },
    /// A Pauli or identity conditioned on a classical bit; it draws noise
    /// only when it fires.
    Cond {
        gate: Gate,
        qubit: usize,
        clbit: usize,
        value: bool,
    },
    /// A Z-basis measurement with readout error.
    Measure {
        qubit: usize,
        clbit: usize,
        collapse: Collapse,
    },
    /// A reset to `|0⟩`.
    Reset { qubit: usize, collapse: Collapse },
    /// A barrier moment's idle-noise draws.
    Idle,
}

/// A Clifford circuit compiled against its reference sample: the shot
/// program of the Pauli-frame sampler. Immutable once compiled, so
/// workers share it read-only.
///
/// ```
/// use qcir::circuit::Circuit;
/// use qsim::frame::FrameProgram;
/// use qsim::noise::NoiseModel;
/// use qsim::word::OutcomeWord;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut bell = Circuit::new(2, 2);
/// bell.h(0).cx(0, 1).measure_all();
/// let program = FrameProgram::compile(&bell).expect("Bell is Clifford");
/// let mut frame = program.frame();
/// let (mut rng, mut word) = (StdRng::seed_from_u64(1), OutcomeWord::zero());
/// for _ in 0..16 {
///     program.run_shot(&mut frame, &NoiseModel::ideal(), &mut rng, &mut word);
///     assert!(word == 0b00 || word == 0b11);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameProgram {
    num_qubits: usize,
    ops: Vec<FrameOp>,
    /// Pivot stabilizers of the random collapses, each `2 * words` long:
    /// X words, then Z words.
    pivots: Vec<u64>,
}

/// The bit storage of a shot's Pauli frame: one X and one Z bit per qubit.
/// Signs are global phases and are not kept.
///
/// [`FrameProgram::run_shot`] is one body generic over it, so both
/// storages take the same steps and make the same RNG draws:
/// [`WordFrame`] keeps up to 64 qubits in two `u64`s that stay in
/// registers through a shot, and [`PauliFrame`] keeps any width in words.
/// The trait is sealed; those two are its only implementations.
pub trait FrameBits: sealed::Sealed {
    /// Whether the storage holds frames of `num_qubits` qubits.
    fn holds(&self, num_qubits: usize) -> bool;
    /// The X bit of qubit `q`.
    fn x(&self, q: usize) -> bool;
    /// The Z bit of qubit `q`.
    fn z(&self, q: usize) -> bool;
    /// Sets the X bit of qubit `q`.
    fn set_x(&mut self, q: usize, on: bool);
    /// Sets the Z bit of qubit `q`.
    fn set_z(&mut self, q: usize, on: bool);
    /// Multiplies the frame by `pauli` on `q`.
    fn flip(&mut self, q: usize, pauli: Pauli);
    /// Multiplies the frame by a Pauli string given as its X words, then
    /// its Z words (`n.div_ceil(64)` each), when `on` is set. Masked
    /// rather than branched: `on` is a coin flip per random measurement.
    fn mul_if(&mut self, on: bool, pauli: &[u64]);
    /// Resets the frame to the identity.
    fn clear(&mut self);

    /// Conjugates the frame by a Clifford gate on `a` and `b` (`b = a`
    /// for a one-qubit gate), given as its conjugation table: the 4 bits
    /// at `4 * i` are the image of frame bits `i = xa | za << 1 | xb << 2
    /// | zb << 3`, packed the same way. One lookup and no branch on the
    /// gate kind, so a shot's gate sequence costs no branch mispredictions.
    #[inline(always)]
    fn conjugate(&mut self, table: u64, a: usize, b: usize) {
        let index = u64::from(self.x(a))
            | u64::from(self.z(a)) << 1
            | u64::from(self.x(b)) << 2
            | u64::from(self.z(b)) << 3;
        let out = table >> (4 * index);
        self.set_x(a, out & 1 != 0);
        self.set_z(a, out >> 1 & 1 != 0);
        self.set_x(b, out >> 2 & 1 != 0);
        self.set_z(b, out >> 3 & 1 != 0);
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::WordFrame {}
    impl Sealed for super::PauliFrame {}
}

/// A frame of up to 64 qubits, qubit `q` at bit `q` of two `u64`s: the
/// storage the executor uses for programs of that width. Get one from
/// [`FrameProgram::word_frame`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordFrame {
    x: u64,
    z: u64,
}

impl FrameBits for WordFrame {
    #[inline(always)]
    fn holds(&self, num_qubits: usize) -> bool {
        num_qubits <= 64
    }

    #[inline(always)]
    fn x(&self, q: usize) -> bool {
        self.x >> q & 1 != 0
    }

    #[inline(always)]
    fn z(&self, q: usize) -> bool {
        self.z >> q & 1 != 0
    }

    #[inline(always)]
    fn set_x(&mut self, q: usize, on: bool) {
        self.x = self.x & !(1 << q) | u64::from(on) << q;
    }

    #[inline(always)]
    fn set_z(&mut self, q: usize, on: bool) {
        self.z = self.z & !(1 << q) | u64::from(on) << q;
    }

    #[inline(always)]
    fn flip(&mut self, q: usize, pauli: Pauli) {
        self.x ^= u64::from(pauli != Pauli::Z) << q;
        self.z ^= u64::from(pauli != Pauli::X) << q;
    }

    #[inline(always)]
    fn mul_if(&mut self, on: bool, pauli: &[u64]) {
        let mask = u64::from(on).wrapping_neg();
        self.x ^= pauli[0] & mask;
        self.z ^= pauli[1] & mask;
    }

    #[inline(always)]
    fn clear(&mut self) {
        *self = WordFrame::default();
    }
}

/// A frame of any width: X and Z bits of `n` qubits in `n.div_ceil(64)`
/// words each, qubit `q` at bit `q % 64` of word `q / 64`.
#[derive(Debug, Clone, PartialEq)]
pub struct PauliFrame {
    x: Vec<u64>,
    z: Vec<u64>,
}

#[inline(always)]
fn bit(v: &[u64], q: usize) -> bool {
    v[q / 64] >> (q % 64) & 1 != 0
}

/// Sets bit `q` of `v` to `on`.
#[inline(always)]
fn assign(v: &mut [u64], q: usize, on: bool) {
    let word = &mut v[q / 64];
    *word = *word & !(1 << (q % 64)) | u64::from(on) << (q % 64);
}

/// XORs `on` into bit `q` of `v`.
#[inline(always)]
fn toggle(v: &mut [u64], q: usize, on: bool) {
    v[q / 64] ^= u64::from(on) << (q % 64);
}

impl PauliFrame {
    /// The identity frame on `n` qubits.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        PauliFrame {
            x: vec![0; words],
            z: vec![0; words],
        }
    }
}

impl FrameBits for PauliFrame {
    #[inline(always)]
    fn holds(&self, num_qubits: usize) -> bool {
        self.x.len() == num_qubits.div_ceil(64)
    }

    #[inline(always)]
    fn x(&self, q: usize) -> bool {
        bit(&self.x, q)
    }

    #[inline(always)]
    fn z(&self, q: usize) -> bool {
        bit(&self.z, q)
    }

    #[inline(always)]
    fn set_x(&mut self, q: usize, on: bool) {
        assign(&mut self.x, q, on);
    }

    #[inline(always)]
    fn set_z(&mut self, q: usize, on: bool) {
        assign(&mut self.z, q, on);
    }

    #[inline(always)]
    fn flip(&mut self, q: usize, pauli: Pauli) {
        toggle(&mut self.x, q, pauli != Pauli::Z);
        toggle(&mut self.z, q, pauli != Pauli::X);
    }

    #[inline(always)]
    fn mul_if(&mut self, on: bool, pauli: &[u64]) {
        let mask = u64::from(on).wrapping_neg();
        let (px, pz) = pauli.split_at(self.x.len());
        for (w, p) in self.x.iter_mut().zip(px) {
            *w ^= p & mask;
        }
        for (w, p) in self.z.iter_mut().zip(pz) {
            *w ^= p & mask;
        }
    }

    #[inline(always)]
    fn clear(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
    }

    /// The default body on split borrows of the two word slices, so the
    /// `Vec` headers are read once per gate rather than once per bit.
    #[inline(always)]
    fn conjugate(&mut self, table: u64, a: usize, b: usize) {
        let (x, z) = (&mut self.x[..], &mut self.z[..]);
        let index = u64::from(bit(x, a))
            | u64::from(bit(z, a)) << 1
            | u64::from(bit(x, b)) << 2
            | u64::from(bit(z, b)) << 3;
        let out = table >> (4 * index);
        assign(x, a, out & 1 != 0);
        assign(z, a, out >> 1 & 1 != 0);
        assign(x, b, out >> 2 & 1 != 0);
        assign(z, b, out >> 3 & 1 != 0);
    }
}

/// A Clifford gate's action on the frame bits `(xa, za, xb, zb)` of its
/// operands `a` and `b` (signs dropped, so the Paulis act as the
/// identity). Entry `xa | za << 1 | xb << 2 | zb << 3` of the table is the
/// 4-bit result, packed the same way, at bits `4 * entry..`. A one-qubit
/// gate runs with `b = a`, so its `b` half repeats the `a` half.
fn conjugation_table(gate: Gate) -> u64 {
    let mut table = 0;
    for entry in 0..16 {
        let [xa, za, xb, zb] = [0, 1, 2, 3].map(|k| entry >> k & 1);
        let out = match gate {
            Gate::H => [za, xa, za, xa],
            Gate::S | Gate::Sdg => [xa, za ^ xa, xa, za ^ xa],
            Gate::SX => [xa ^ za, za, xa ^ za, za],
            Gate::Id | Gate::X | Gate::Y | Gate::Z => [xa, za, xa, za],
            Gate::CX => [xa, za ^ zb, xb ^ xa, zb],
            Gate::CZ => [xa, za ^ xb, xb, zb ^ xa],
            Gate::CY => [xa, za ^ xb ^ zb, xb ^ xa, zb ^ xa],
            Gate::SWAP => [xb, zb, xa, za],
            other => unreachable!("gate {other} was refused at compile time"),
        };
        let packed = out[0] | out[1] << 1 | out[2] << 2 | out[3] << 3;
        table |= packed << (4 * entry);
    }
    table
}

/// The Pauli a conditioned gate multiplies the frame by (`None` for the
/// identity and for gates the frame cannot condition).
fn pauli_of(gate: Gate) -> Option<Pauli> {
    match gate {
        Gate::X => Some(Pauli::X),
        Gate::Y => Some(Pauli::Y),
        Gate::Z => Some(Pauli::Z),
        _ => None,
    }
}

/// Measures `q` on the reference tableau, taking outcome 0 when it is
/// random and recording the pivot stabilizer it collapsed on.
fn collapse(reference: &mut StabilizerSim, q: usize, pivots: &mut Vec<u64>) -> Collapse {
    let at = pivots.len();
    let random = reference.push_pivot(q, pivots);
    let outcome = reference.measure_with(q, || false);
    if random {
        Collapse::Random(at)
    } else {
        Collapse::Determined(outcome)
    }
}

impl FrameProgram {
    /// Compiles `circuit` with one noiseless reference pass over the
    /// tableau. Returns `None` when the circuit has a non-Clifford gate or
    /// conditions a gate other than a Pauli or the identity: such a gate
    /// can change which measurements are random, so those circuits keep
    /// the per-shot tableau.
    pub fn compile(circuit: &Circuit) -> Option<FrameProgram> {
        if !circuit.is_clifford() {
            return None;
        }
        let mut reference = StabilizerSim::new(circuit.num_qubits());
        let mut pivots = Vec::new();
        let mut ops = Vec::with_capacity(circuit.ops().len());
        for op in circuit.ops() {
            ops.push(match op {
                Op::Gate { gate, qubits } => {
                    reference.apply_gate(*gate, qubits);
                    FrameOp::Gate {
                        gate: *gate,
                        table: conjugation_table(*gate),
                        qubits: [qubits[0], *qubits.last().expect("gates have operands")],
                    }
                }
                // Conditioned Paulis change only signs, so the reference
                // leaves them out and each shot folds them into its frame.
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    if *gate != Gate::Id && pauli_of(*gate).is_none() {
                        return None;
                    }
                    FrameOp::Cond {
                        gate: *gate,
                        qubit: qubits[0],
                        clbit: *clbit,
                        value: *value,
                    }
                }
                Op::Measure { qubit, clbit } => FrameOp::Measure {
                    qubit: *qubit,
                    clbit: *clbit,
                    collapse: collapse(&mut reference, *qubit, &mut pivots),
                },
                Op::Reset { qubit } => {
                    let collapse = collapse(&mut reference, *qubit, &mut pivots);
                    if collapse == Collapse::Determined(true) {
                        reference.x_gate(*qubit);
                    }
                    FrameOp::Reset {
                        qubit: *qubit,
                        collapse,
                    }
                }
                Op::Barrier { .. } => FrameOp::Idle,
            });
        }
        Some(FrameProgram {
            num_qubits: circuit.num_qubits(),
            ops,
            pivots,
        })
    }

    /// A fresh multi-word frame sized for this program: the storage for
    /// programs of any width.
    pub fn frame(&self) -> PauliFrame {
        PauliFrame::new(self.num_qubits)
    }

    /// A fresh register-resident frame, for programs of at most 64 qubits
    /// (`None` for wider ones). Shots on it are bit-identical to shots on
    /// [`FrameProgram::frame`], RNG stream included.
    pub fn word_frame(&self) -> Option<WordFrame> {
        (self.num_qubits <= 64).then_some(WordFrame::default())
    }

    /// Runs one shot under `noise`, writing the classical outcome into
    /// `clbits` (cleared first). Bit-identical, RNG stream included, to a
    /// tableau shot of the compiled circuit, on either frame storage; see
    /// the module docs. A warm shot allocates nothing for registers of up
    /// to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics when `frame` was not sized for this program.
    pub fn run_shot<F: FrameBits>(
        &self,
        frame: &mut F,
        noise: &NoiseModel,
        rng: &mut impl Rng,
        clbits: &mut OutcomeWord,
    ) {
        assert!(
            frame.holds(self.num_qubits),
            "frame storage does not fit {} qubits",
            self.num_qubits
        );
        frame.clear();
        clbits.clear();
        for op in &self.ops {
            match *op {
                FrameOp::Gate {
                    gate,
                    table,
                    ref qubits,
                } => {
                    frame.conjugate(table, qubits[0], qubits[1]);
                    let operands = &qubits[..gate.num_qubits()];
                    noise.for_each_gate_error(&gate, operands, rng, |q, p| frame.flip(q, p));
                }
                FrameOp::Cond {
                    gate,
                    qubit,
                    clbit,
                    value,
                } => {
                    if clbits.bit(clbit) == value {
                        if let Some(pauli) = pauli_of(gate) {
                            frame.flip(qubit, pauli);
                        }
                        noise.for_each_gate_error(&gate, &[qubit], rng, |q, p| frame.flip(q, p));
                    }
                }
                FrameOp::Measure {
                    qubit,
                    clbit,
                    collapse,
                } => {
                    let raw = self.measure(frame, qubit, collapse, rng);
                    clbits.set_bit(clbit, noise.sample_readout(raw, rng));
                }
                FrameOp::Reset { qubit, collapse } => {
                    self.measure(frame, qubit, collapse, rng);
                    // The qubit is |0⟩ in both the shot and the reference.
                    frame.set_x(qubit, false);
                }
                FrameOp::Idle => {
                    noise.for_each_idle_error(self.num_qubits, rng, |q, p| frame.flip(q, p));
                }
            }
        }
    }

    /// A shot's outcome for a measurement of `q` the reference found as
    /// `collapse`, updating the frame to the post-measurement state.
    #[inline(always)]
    fn measure(
        &self,
        frame: &mut impl FrameBits,
        q: usize,
        collapse: Collapse,
        rng: &mut impl Rng,
    ) -> bool {
        match collapse {
            Collapse::Determined(outcome) => outcome ^ frame.x(q),
            Collapse::Random(at) => {
                let outcome = rng.gen_bool(0.5);
                let pivot = &self.pivots[at..][..2 * self.num_qubits.div_ceil(64)];
                frame.mul_if(frame.x(q) != outcome, pivot);
                outcome
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::math::Matrix;

    /// `X^x Z^z` as a 2×2 matrix (phase dropped).
    fn pauli(x: u64, z: u64) -> Matrix {
        let mut m = Matrix::identity(2);
        if x == 1 {
            m = m.matmul(&Gate::X.matrix());
        }
        if z == 1 {
            m = m.matmul(&Gate::Z.matrix());
        }
        m
    }

    /// Every table entry of every Clifford gate is `U P U†` up to phase,
    /// checked on the gate's own matrix.
    #[test]
    fn conjugation_tables_match_the_gate_matrices() {
        use Gate::*;
        let bits = |v: u64| [0, 1, 2, 3].map(|k| v >> k & 1);
        for gate in [Id, H, S, Sdg, SX, X, Y, Z, CX, CZ, CY, SWAP] {
            let (table, u) = (conjugation_table(gate), gate.matrix());
            for entry in 0..16 {
                let [xa, za, xb, zb] = bits(entry);
                let out = bits(table >> (4 * entry) & 0xF);
                let (p, expected) = if gate.num_qubits() == 1 {
                    // `b` aliases `a`: only consistent entries occur.
                    if (xb, zb) != (xa, za) {
                        continue;
                    }
                    assert_eq!(out[2..], out[..2], "{gate} entry {entry}");
                    (pauli(xa, za), pauli(out[0], out[1]))
                } else {
                    (
                        pauli(xa, za).kron(&pauli(xb, zb)),
                        pauli(out[0], out[1]).kron(&pauli(out[2], out[3])),
                    )
                };
                let conjugated = u.matmul(&p).matmul(&u.dagger());
                assert!(
                    conjugated.approx_eq_up_to_phase(&expected, 1e-12),
                    "{gate} entry {entry}"
                );
            }
        }
    }
}
