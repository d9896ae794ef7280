//! Aaronson–Gottesman stabilizer tableau simulator, stored column-major.
//!
//! Simulates Clifford circuits (H, S, CX and Paulis) plus computational
//! basis measurement, which is what makes distance-5/7 surface-code
//! syndrome extraction tractable where the dense simulator is not.
//!
//! The tableau is qubit-major and bit-packed, after Stim: for each qubit
//! it keeps the X bits and the Z bits of all `n` destabilizers and all `n`
//! stabilizers as `u64` words over generators, and the generator signs are
//! a bit-vector too. A gate touches only its qubits' columns, word-parallel
//! across generators, so it costs `O(n/64)`; a measurement costs
//! `O(n²/64)`.
//!
//! The tableau is the reference engine for Clifford jobs. The executor
//! runs it once per job to compile a [`crate::frame::FrameProgram`], whose
//! shots propagate only a Pauli frame and are bit-identical to running
//! every shot here. Jobs the frame sampler cannot take (a classically
//! conditioned non-Pauli gate) still run every shot on the tableau, and
//! the tableau stays the oracle the frame path is tested against.
//!
//! References: S. Aaronson and D. Gottesman, "Improved simulation of
//! stabilizer circuits", Phys. Rev. A 70, 052328 (2004); C. Gidney, "Stim:
//! a fast stabilizer circuit simulator", Quantum 5, 497 (2021).

use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use rand::Rng;

/// Stabilizer state of `n` qubits: a tableau of `2n` generators
/// (destabilizers `0..n`, then stabilizers `n..2n`) stored one qubit
/// column at a time.
///
/// Each column holds `2 * block` words: destabilizer `i` is bit `i % 64`
/// of word `i / 64`, and stabilizer `n + i` is the same bit of word
/// `block + i / 64`. Because the two halves align, "stabilizer paired with
/// destabilizer `i`" is the same bit one block further on.
#[derive(Debug, Clone)]
pub struct StabilizerSim {
    n: usize,
    /// Words per generator half, `ceil(n / 64)`.
    block: usize,
    /// X bits: column `q` is `xs[q * 2 * block..][..2 * block]`.
    xs: Vec<u64>,
    /// Z bits, laid out like `xs`.
    zs: Vec<u64>,
    /// Sign bits of the generators (1 => -1), laid out like one column.
    rs: Vec<u64>,
    /// Measurement scratch, one column each: the generators a random
    /// measurement multiplies by its pivot, and the low and high bits of
    /// their mod-4 phase counters.
    mask: Vec<u64>,
    lo: Vec<u64>,
    hi: Vec<u64>,
}

/// Tableaus are equal when their generators and signs are; measurement
/// scratch is not state.
impl PartialEq for StabilizerSim {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.xs == other.xs && self.zs == other.zs && self.rs == other.rs
    }
}

/// The two columns `a != b` of a qubit-major matrix with `stride` words
/// per column, borrowed together.
fn column_pair(v: &mut [u64], a: usize, b: usize, stride: usize) -> (&mut [u64], &mut [u64]) {
    assert_ne!(a, b, "two-qubit gate operands must differ");
    if a < b {
        let (head, tail) = v.split_at_mut(b * stride);
        (&mut head[a * stride..][..stride], &mut tail[..stride])
    } else {
        let (head, tail) = v.split_at_mut(a * stride);
        (&mut tail[..stride], &mut head[b * stride..][..stride])
    }
}

/// Sets `bit` (a one-bit mask) of `word` to `v`.
#[inline]
fn put(word: &mut u64, bit: u64, v: bool) {
    *word = (*word & !bit) | if v { bit } else { 0 };
}

/// Inclusive prefix parity: bit `i` of the result is the XOR of bits
/// `0..=i` of `v`.
#[inline]
fn prefix_parity(mut v: u64) -> u64 {
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^= v << 32;
    v
}

/// Multiplies the generators in `mask` by a pivot whose Pauli on this
/// column is `(XP, ZP)` (not both false): XORs the pivot's bits into
/// `x`/`z` and adds each product's `i`-exponent, in {-1, 0, +1}, to the
/// bit-sliced mod-4 counters `lo`/`hi`. This is the Aaronson–Gottesman
/// `g` function evaluated for 64 generators at once.
#[inline]
fn mul_column<const XP: bool, const ZP: bool>(
    x: &mut [u64],
    z: &mut [u64],
    mask: &[u64],
    lo: &mut [u64],
    hi: &mut [u64],
) {
    for w in 0..mask.len() {
        let m = mask[w];
        if m == 0 {
            continue;
        }
        let (gx, gz) = (x[w], z[w]);
        let (plus, minus) = match (XP, ZP) {
            (true, true) => (gz & !gx, gx & !gz),
            (true, false) => (gz & gx, gz & !gx),
            _ => (gx & !gz, gx & gz),
        };
        let (plus, minus) = (plus & m, minus & m);
        // +1 carries out of lo where lo was set; -1 borrows where it was clear.
        hi[w] ^= (lo[w] & plus) | (!lo[w] & minus);
        lo[w] ^= plus | minus;
        if XP {
            x[w] ^= m;
        }
        if ZP {
            z[w] ^= m;
        }
    }
}

impl StabilizerSim {
    /// The |0...0> state on `n` qubits.
    pub fn new(n: usize) -> Self {
        let block = n.div_ceil(64);
        let stride = 2 * block;
        let mut sim = StabilizerSim {
            n,
            block,
            xs: vec![0; n * stride],
            zs: vec![0; n * stride],
            rs: vec![0; stride],
            mask: vec![0; stride],
            lo: vec![0; stride],
            hi: vec![0; stride],
        };
        sim.reinit();
        sim
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Resets the tableau to |0…0> in place, reusing the allocation (the
    /// trajectory executor calls this once per shot).
    pub fn reinit(&mut self) {
        self.xs.fill(0);
        self.zs.fill(0);
        self.rs.fill(0);
        let stride = 2 * self.block;
        for i in 0..self.n {
            let bit = 1u64 << (i % 64);
            // Destabilizer i = X_i, stabilizer i = Z_i.
            self.xs[i * stride + i / 64] |= bit;
            self.zs[i * stride + self.block + i / 64] |= bit;
        }
    }

    /// Applies `f(x, z, r)` to every word of column `q`.
    #[inline]
    fn update1(&mut self, q: usize, f: impl Fn(&mut u64, &mut u64, &mut u64)) {
        let stride = 2 * self.block;
        let x = &mut self.xs[q * stride..][..stride];
        let z = &mut self.zs[q * stride..][..stride];
        for ((x, z), r) in x.iter_mut().zip(z.iter_mut()).zip(self.rs.iter_mut()) {
            f(x, z, r);
        }
    }

    /// Applies `f(xa, za, xb, zb, r)` to every word of columns `a` and `b`.
    #[inline]
    fn update2(
        &mut self,
        a: usize,
        b: usize,
        f: impl Fn(&mut u64, &mut u64, &mut u64, &mut u64, &mut u64),
    ) {
        let stride = 2 * self.block;
        let (xa, xb) = column_pair(&mut self.xs, a, b, stride);
        let (za, zb) = column_pair(&mut self.zs, a, b, stride);
        for w in 0..stride {
            f(
                &mut xa[w],
                &mut za[w],
                &mut xb[w],
                &mut zb[w],
                &mut self.rs[w],
            );
        }
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        self.update1(q, |x, z, r| {
            *r ^= *x & *z;
            std::mem::swap(x, z);
        });
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        self.update1(q, |x, z, r| {
            *r ^= *x & *z;
            *z ^= *x;
        });
    }

    /// S-dagger on `q`: X → -Y, Y → X.
    pub fn sdg(&mut self, q: usize) {
        self.update1(q, |x, z, r| {
            *r ^= *x & !*z;
            *z ^= *x;
        });
    }

    /// √X on `q` (= H S H up to global phase): Z → -Y, Y → Z.
    fn sx(&mut self, q: usize) {
        self.update1(q, |x, z, r| {
            *r ^= *z & !*x;
            *x ^= *z;
        });
    }

    /// CNOT with control `a`, target `b`.
    ///
    /// # Panics
    ///
    /// Panics when `a == b`.
    pub fn cx(&mut self, a: usize, b: usize) {
        self.update2(a, b, |xa, za, xb, zb, r| {
            *r ^= *xa & *zb & !(*xb ^ *za);
            *xb ^= *xa;
            *za ^= *zb;
        });
    }

    /// Controlled-Z (equal to `H(b); CX(a,b); H(b)`).
    pub fn cz(&mut self, a: usize, b: usize) {
        self.update2(a, b, |xa, za, xb, zb, r| {
            *r ^= *xa & *xb & (*za ^ *zb);
            *za ^= *xb;
            *zb ^= *xa;
        });
    }

    /// Controlled-Y with control `a`, target `b` (equal to
    /// `Sdg(b); CX(a,b); S(b)`).
    fn cy(&mut self, a: usize, b: usize) {
        self.update2(a, b, |xa, za, xb, zb, r| {
            *r ^= *xa & (*xb ^ *zb) & (*xb ^ *za);
            *za ^= *xb ^ *zb;
            *xb ^= *xa;
            *zb ^= *xa;
        });
    }

    /// Swap: exchanges the two columns (no sign changes).
    pub fn swap(&mut self, a: usize, b: usize) {
        let stride = 2 * self.block;
        let (xa, xb) = column_pair(&mut self.xs, a, b, stride);
        xa.swap_with_slice(xb);
        let (za, zb) = column_pair(&mut self.zs, a, b, stride);
        za.swap_with_slice(zb);
    }

    /// Pauli-X on `q`.
    pub fn x_gate(&mut self, q: usize) {
        self.update1(q, |_, z, r| *r ^= *z);
    }

    /// Pauli-Z on `q`.
    pub fn z_gate(&mut self, q: usize) {
        self.update1(q, |x, _, r| *r ^= *x);
    }

    /// Pauli-Y on `q`.
    pub fn y_gate(&mut self, q: usize) {
        self.update1(q, |x, z, r| *r ^= *x ^ *z);
    }

    /// Returns `Some(v)` when a Z-measurement of `q` is deterministic.
    pub fn measure_determined(&self, q: usize) -> Option<bool> {
        let stride = 2 * self.block;
        let xq = &self.xs[q * stride..][..stride];
        if xq[self.block..].iter().any(|&w| w != 0) {
            return None;
        }
        Some(self.determined_outcome(q))
    }

    /// The outcome of measuring `q` when no stabilizer anticommutes with
    /// Z_q: the sign of the product of the stabilizers paired with the
    /// destabilizers that have X on `q`, a product equal to ±Z_q.
    ///
    /// Writing the product in generator order, each column contributes the
    /// `i`-exponent `popcount(x & z) + 2·Σ_l x_l·parity(z_{<l}) − X·Z`
    /// (mod 4), where `X`/`Z` are the parities of the column's X/Z bits:
    /// the first term converts CHP's Y = iXZ into X·Z, the second counts
    /// the Z-before-X swaps that bring the product into X…Z order, and the
    /// third converts the result back. The product is ±Z_q, so every
    /// column's `X` is 0 and the third term vanishes. Stabilizers commute,
    /// so the order is immaterial and no scratch row is needed.
    fn determined_outcome(&self, q: usize) -> bool {
        let (block, stride) = (self.block, 2 * self.block);
        let selected = &self.xs[q * stride..][..block];
        let mut phase = 0u32;
        let mut factors = 0u32;
        for (w, &m) in selected.iter().enumerate() {
            phase += 2 * (self.rs[block + w] & m).count_ones();
            factors += m.count_ones();
        }
        if factors == 1 {
            // A lone stabilizer is ±Z_q itself: its sign is the outcome.
            return phase == 2;
        }
        for j in 0..self.n {
            let x = &self.xs[j * stride + block..][..block];
            let z = &self.zs[j * stride + block..][..block];
            // All-ones when the selected Z bits in earlier words have odd parity.
            let mut z_carry = 0u64;
            for (w, &m) in selected.iter().enumerate() {
                let (gx, gz) = (x[w] & m, z[w] & m);
                if gx | gz == 0 {
                    continue;
                }
                let z_before = (prefix_parity(gz) << 1) ^ z_carry;
                phase += (gx & gz).count_ones() + 2 * (gx & z_before).count_ones();
                z_carry ^= 0u64.wrapping_sub(u64::from(gz.count_ones() & 1));
            }
        }
        debug_assert!(
            phase.is_multiple_of(2),
            "stabilizer product has an imaginary sign"
        );
        phase % 4 == 2
    }

    /// The pivot of a Z-measurement of `q`: the first stabilizer
    /// anticommuting with Z_q, as its generator word and bit, or `None`
    /// when the outcome is determined.
    fn pivot(&self, q: usize) -> Option<(usize, u64)> {
        let (block, stride) = (self.block, 2 * self.block);
        let xq = &self.xs[q * stride..][..stride];
        let pw = (block..stride).find(|&w| xq[w] != 0)?;
        Some((pw, 1u64 << xq[pw].trailing_zeros()))
    }

    /// Appends the Pauli part of the stabilizer a Z-measurement of `q`
    /// would collapse on to `out`: `ceil(n / 64)` X words, then as many Z
    /// words, with qubit `j` at bit `j % 64` of word `j / 64`. Returns
    /// `false`, appending nothing, when the outcome is determined.
    ///
    /// The Pauli-frame sampler ([`crate::frame`]) multiplies a shot's frame
    /// by this stabilizer to turn the reference outcome into a drawn one.
    pub(crate) fn push_pivot(&self, q: usize, out: &mut Vec<u64>) -> bool {
        let Some((pw, bit)) = self.pivot(q) else {
            return false;
        };
        let (start, stride) = (out.len(), 2 * self.block);
        out.resize(start + stride, 0);
        let (x, z) = out[start..].split_at_mut(self.block);
        for j in 0..self.n {
            let column = j * stride + pw;
            let at = 1u64 << (j % 64);
            if self.xs[column] & bit != 0 {
                x[j / 64] |= at;
            }
            if self.zs[column] & bit != 0 {
                z[j / 64] |= at;
            }
        }
        true
    }

    /// Measures qubit `q` in the Z basis, collapsing the state.
    ///
    /// A random outcome draws exactly one `gen_bool(0.5)`; a deterministic
    /// one draws nothing.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        self.measure_with(q, || rng.gen_bool(0.5))
    }

    /// Measures qubit `q` in the Z basis, collapsing the state. A random
    /// outcome is `draw()`, called once after the collapse; a
    /// deterministic outcome never calls it.
    pub(crate) fn measure_with(&mut self, q: usize, draw: impl FnOnce() -> bool) -> bool {
        let (n, block, stride) = (self.n, self.block, 2 * self.block);
        // The pivot p is the first stabilizer anticommuting with Z_q.
        let Some((pw, bit)) = self.pivot(q) else {
            return self.determined_outcome(q);
        };
        // Destabilizer p - n is the same bit one block earlier.
        let dw = pw - block;
        // Aaronson–Gottesman step: multiply every anticommuting generator
        // EXCEPT p and p - n by p. Including p - n is tempting (it is
        // overwritten below anyway) but wrong: its product with p can carry
        // an imaginary phase.
        self.mask.copy_from_slice(&self.xs[q * stride..][..stride]);
        self.mask[pw] &= !bit;
        self.mask[dw] &= !bit;
        self.lo.fill(0);
        self.hi.fill(0);
        let pivot_sign = self.rs[pw] & bit != 0;
        for j in 0..n {
            let x = &mut self.xs[j * stride..][..stride];
            let z = &mut self.zs[j * stride..][..stride];
            let (xp, zp) = (x[pw] & bit != 0, z[pw] & bit != 0);
            // Destabilizer p - n <- old stabilizer p; stabilizer p is
            // cleared here and becomes ±Z_q below.
            put(&mut x[dw], bit, xp);
            put(&mut z[dw], bit, zp);
            x[pw] &= !bit;
            z[pw] &= !bit;
            let (mask, lo, hi) = (&self.mask[..], &mut self.lo[..], &mut self.hi[..]);
            match (xp, zp) {
                (false, false) => {}
                (true, true) => mul_column::<true, true>(x, z, mask, lo, hi),
                (true, false) => mul_column::<true, false>(x, z, mask, lo, hi),
                (false, true) => mul_column::<false, true>(x, z, mask, lo, hi),
            }
        }
        // Each product's sign: 2·r_g + 2·r_p + exponent, where the exponent
        // sum is even, so the new sign bit is r_g ^ r_p ^ hi.
        let flip = if pivot_sign { !0 } else { 0 };
        for w in 0..stride {
            debug_assert_eq!(
                self.lo[w] & self.mask[w],
                0,
                "odd phase in generator product"
            );
            self.rs[w] ^= self.mask[w] & (self.hi[w] ^ flip);
        }
        put(&mut self.rs[dw], bit, pivot_sign);
        // New stabilizer p = ±Z_q with a random sign.
        let outcome = draw();
        self.zs[q * stride + pw] |= bit;
        put(&mut self.rs[pw], bit, outcome);
        outcome
    }

    /// Resets `q` to |0> (measure, then X if the result was 1).
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure(q, rng) {
            self.x_gate(q);
        }
    }

    /// Applies a Clifford gate from the shared gate set.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        match gate {
            Gate::Id => {}
            Gate::H => self.h(qubits[0]),
            Gate::S => self.s(qubits[0]),
            Gate::Sdg => self.sdg(qubits[0]),
            Gate::X => self.x_gate(qubits[0]),
            Gate::Y => self.y_gate(qubits[0]),
            Gate::Z => self.z_gate(qubits[0]),
            Gate::SX => self.sx(qubits[0]),
            Gate::CX => self.cx(qubits[0], qubits[1]),
            Gate::CZ => self.cz(qubits[0], qubits[1]),
            Gate::CY => self.cy(qubits[0], qubits[1]),
            Gate::SWAP => self.swap(qubits[0], qubits[1]),
            other => panic!("gate {other} is not Clifford"),
        }
    }

    /// One trajectory of a pre-validated Clifford circuit, writing
    /// measurement results into `clbits`. Both the tableau and the outcome
    /// word are reset first, so calling this in a shot loop is safe without
    /// further ceremony (the allocations are reused either way).
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates; validate with
    /// [`crate::backend::first_non_clifford`] first.
    pub fn run_circuit_into(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Counts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_state_measures_zero() {
        let mut sim = StabilizerSim::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        for q in 0..4 {
            assert_eq!(sim.measure_determined(q), Some(false));
            assert!(!sim.measure(q, &mut rng));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut sim = StabilizerSim::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        sim.x_gate(1);
        assert!(!sim.measure(0, &mut rng));
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn h_gives_random_outcomes_then_collapses() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ones = 0;
        for _ in 0..200 {
            let mut sim = StabilizerSim::new(1);
            sim.h(0);
            assert_eq!(sim.measure_determined(0), None);
            let first = sim.measure(0, &mut rng);
            // Second measurement must repeat the first.
            assert_eq!(sim.measure_determined(0), Some(first));
            ones += first as usize;
        }
        assert!((50..150).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn bell_pair_correlates() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mut sim = StabilizerSim::new(2);
            sim.h(0);
            sim.cx(0, 1);
            let a = sim.measure(0, &mut rng);
            let b = sim.measure(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ghz_three_way_correlation() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let mut sim = StabilizerSim::new(3);
            sim.h(0);
            sim.cx(0, 1);
            sim.cx(1, 2);
            let a = sim.measure(0, &mut rng);
            assert_eq!(sim.measure(1, &mut rng), a);
            assert_eq!(sim.measure(2, &mut rng), a);
        }
    }

    #[test]
    fn z_error_detected_by_x_basis() {
        // |+> with a Z error measures |-> in the X basis: H then measure = 1.
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = StabilizerSim::new(1);
        sim.h(0); // |+>
        sim.z_gate(0); // |->
        sim.h(0); // |1>
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn s_gate_squared_is_z() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sim = StabilizerSim::new(1);
        sim.h(0);
        sim.s(0);
        sim.s(0); // = Z|+> = |->
        sim.h(0);
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn sdg_inverts_s() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sim = StabilizerSim::new(1);
        sim.h(0);
        sim.s(0);
        sim.sdg(0);
        sim.h(0);
        assert!(!sim.measure(0, &mut rng));
    }

    #[test]
    fn cz_phase_kickback() {
        // CZ between |+>|1> gives |->|1>.
        let mut rng = StdRng::seed_from_u64(8);
        let mut sim = StabilizerSim::new(2);
        sim.h(0);
        sim.x_gate(1);
        sim.cz(0, 1);
        sim.h(0);
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn swap_moves_excitation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sim = StabilizerSim::new(2);
        sim.x_gate(0);
        sim.swap(0, 1);
        assert!(!sim.measure(0, &mut rng));
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn reset_clears_qubit() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut sim = StabilizerSim::new(1);
        sim.h(0);
        sim.reset(0, &mut rng);
        assert_eq!(sim.measure_determined(0), Some(false));
    }

    #[test]
    fn agrees_with_state_vector_on_random_clifford_circuits() {
        use crate::state::StateVector;
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..25 {
            // Build a random 4-qubit Clifford circuit (unitary portion).
            let mut qc = Circuit::new(4, 4);
            for _ in 0..20 {
                match rng.gen_range(0..5) {
                    0 => {
                        qc.h(rng.gen_range(0..4));
                    }
                    1 => {
                        qc.s(rng.gen_range(0..4));
                    }
                    2 => {
                        let a = rng.gen_range(0..4);
                        let b = (a + rng.gen_range(1..4)) % 4;
                        qc.cx(a, b);
                    }
                    3 => {
                        qc.x(rng.gen_range(0..4));
                    }
                    _ => {
                        qc.z(rng.gen_range(0..4));
                    }
                }
            }
            // Compare marginal probabilities of each qubit being 1.
            let mut sv = StateVector::zero(4);
            for op in qc.ops() {
                if let Op::Gate { gate, qubits } = op {
                    sv.apply_gate(*gate, qubits);
                }
            }
            for q in 0..4 {
                let p1 = sv.prob_one(q);
                let mut sim = StabilizerSim::new(4);
                for op in qc.ops() {
                    if let Op::Gate { gate, qubits } = op {
                        sim.apply_gate(*gate, qubits);
                    }
                }
                match sim.measure_determined(q) {
                    Some(v) => {
                        let expected = if v { 1.0 } else { 0.0 };
                        assert!(
                            (p1 - expected).abs() < 1e-9,
                            "trial {trial} qubit {q}: sv={p1}, tableau={expected}"
                        );
                    }
                    None => {
                        assert!(
                            (p1 - 0.5).abs() < 1e-9,
                            "trial {trial} qubit {q}: sv={p1}, tableau=random"
                        );
                    }
                }
            }
        }
    }

    /// One [`StabilizerSim::run_circuit_into`] shot on a fresh tableau.
    fn run_once(circuit: &Circuit, rng: &mut StdRng) -> OutcomeWord {
        let mut word = OutcomeWord::zero();
        StabilizerSim::new(circuit.num_qubits()).run_circuit_into(circuit, rng, &mut word);
        word
    }

    #[test]
    fn run_circuit_handles_conditionals() {
        let mut qc = Circuit::new(2, 2);
        qc.x(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.measure(1, 1);
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(run_once(&qc, &mut rng), 0b11);
    }

    #[test]
    #[should_panic(expected = "not Clifford")]
    fn rejects_t_gate() {
        let mut sim = StabilizerSim::new(1);
        sim.apply_gate(Gate::T, &[0]);
    }

    #[test]
    fn run_circuit_records_past_64_clbits() {
        // 65 clbits: bit 64 of a u64 word does not exist, so before the
        // multi-word register layer this circuit was refused outright. Now
        // the outcome spills into a second word.
        let mut qc = Circuit::new(2, 65);
        qc.x(0).measure(0, 64).measure(1, 0);
        let mut rng = StdRng::seed_from_u64(20);
        let word = run_once(&qc, &mut rng);
        assert!(word.bit(64));
        assert!(!word.bit(0));
        assert_eq!(word, OutcomeWord::from_words(&[0, 1]));
        // Conditionals read the spilled bits too.
        let mut qc = Circuit::new(2, 70);
        qc.x(0).measure(0, 69);
        qc.cond_gate(Gate::X, &[1], 69, true);
        qc.measure(1, 0);
        let word = run_once(&qc, &mut rng);
        assert!(word.bit(69));
        assert!(word.bit(0));
    }

    #[test]
    fn reused_tableau_shots_match_bell_statistics() {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        let mut rng = StdRng::seed_from_u64(22);
        let mut counts = Counts::new(2);
        let mut sim = StabilizerSim::new(2);
        let mut word = OutcomeWord::zero();
        for _ in 0..2000 {
            sim.run_circuit_into(&qc, &mut rng, &mut word);
            counts.record_word(&word);
        }
        assert_eq!(counts.shots(), 2000);
        assert_eq!(counts.count(0b01) + counts.count(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn measurement_preserves_phase_invariant_with_y_and_sx() {
        // Regression: Y;SX leaves the destabilizer with a sign such that
        // multiplying generator p-n by the pivot during measurement
        // produced an imaginary intermediate phase (debug assert). The AG
        // update must skip p-n.
        let mut rng = StdRng::seed_from_u64(19);
        let mut sim = StabilizerSim::new(1);
        sim.y_gate(0);
        sim.apply_gate(Gate::SX, &[0]);
        // SX Y |0> measures deterministically after collapse; the first
        // measurement is random and must not panic.
        let first = sim.measure(0, &mut rng);
        assert_eq!(sim.measure_determined(0), Some(first));
    }

    #[test]
    fn reinit_restores_the_zero_state() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut sim = StabilizerSim::new(3);
        sim.h(0);
        sim.cx(0, 1);
        sim.x_gate(2);
        sim.measure(0, &mut rng);
        sim.reinit();
        assert_eq!(sim, StabilizerSim::new(3));
        for q in 0..3 {
            assert_eq!(sim.measure_determined(q), Some(false));
        }
    }

    #[test]
    fn large_tableau_smoke() {
        // 150 qubits crosses the one-word boundary (>64 columns).
        let mut rng = StdRng::seed_from_u64(13);
        let mut sim = StabilizerSim::new(150);
        sim.h(0);
        for q in 0..149 {
            sim.cx(q, q + 1);
        }
        let first = sim.measure(0, &mut rng);
        assert_eq!(sim.measure(149, &mut rng), first);
    }
}
