//! Specialized gate-application kernels for the dense state vector.
//!
//! Every kernel here enumerates only the `2^(n-k)` base indices it actually
//! touches — via [`insert_zero_bit`] stride expansion — instead of filtering
//! all `2^n` basis states, and updates amplitudes in place:
//!
//! * **Diagonal tier** ([`apply_diag1`], [`apply_controlled_diag1`]) — pure
//!   phase multiplies, no gather/scatter at all; phase-only gates (Z, S, T,
//!   P, CZ, CP) touch just the set-bit half/quarter of the vector.
//! * **Permutation tier** ([`apply_x`], [`apply_cx`], [`apply_swap`],
//!   [`apply_ccx`], [`apply_cswap`]) — index swaps, no arithmetic.
//! * **Butterfly tier** ([`apply_1q`], [`apply_controlled_1q`],
//!   [`apply_y`]) — closed-form 2x2 updates over index pairs, no matrix
//!   lookup in the inner loop.
//! * **Superblock tier** ([`apply_dense2`], [`apply_dense3`]) — the 4x4 and
//!   8x8 blocks the plan's fusion pass builds, each applied in one sweep.
//!
//! Every built-in gate falls in the first three tiers, so there is no
//! general `2^k x 2^k` kernel. [`crate::plan::lower`] picks a gate's tier
//! from [`qcir::gate::Gate::kind`], and the full-scan
//! [`crate::state::StateVector::apply_matrix_reference`] stays only as the
//! test oracle. These functions are also public so other hot paths (noise
//! injection, observables) can call them directly.
//!
//! All kernels require the bit positions to be in range for the amplitude
//! slice (whose length must be a power of two) and mutually distinct; the
//! state-vector wrapper validates once per gate application.

use qcir::math::C64;
use qugen_telemetry::metrics::{self, Counter};
use std::sync::OnceLock;

/// Interned dispatch-tier counters for the runtime-dispatched kernels:
/// how many calls of each vectorizable kernel took the AVX2+FMA path vs
/// the portable scalar fallback. One relaxed `fetch_add` per kernel
/// call — amortized over the `2^n`-amplitude sweep each call performs.
struct TierCounters {
    butterfly1_avx2: &'static Counter,
    butterfly1_scalar: &'static Counter,
    dense2_avx2: &'static Counter,
    dense2_scalar: &'static Counter,
    diag1_avx2: &'static Counter,
    diag1_scalar: &'static Counter,
    diag2_avx2: &'static Counter,
    diag2_scalar: &'static Counter,
    dense3_avx2: &'static Counter,
    dense3_scalar: &'static Counter,
}

fn tiers() -> &'static TierCounters {
    static COUNTERS: OnceLock<TierCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| TierCounters {
        butterfly1_avx2: metrics::counter("kernels.butterfly1_avx2"),
        butterfly1_scalar: metrics::counter("kernels.butterfly1_scalar"),
        dense2_avx2: metrics::counter("kernels.dense2_avx2"),
        dense2_scalar: metrics::counter("kernels.dense2_scalar"),
        diag1_avx2: metrics::counter("kernels.diag1_avx2"),
        diag1_scalar: metrics::counter("kernels.diag1_scalar"),
        diag2_avx2: metrics::counter("kernels.diag2_avx2"),
        diag2_scalar: metrics::counter("kernels.diag2_scalar"),
        dense3_avx2: metrics::counter("kernels.dense3_avx2"),
        dense3_scalar: metrics::counter("kernels.dense3_scalar"),
    })
}

/// Returns `x` with a zero bit inserted at position `bit`: bits below `bit`
/// stay, bits at or above shift up by one. Iterating `x` over `0..2^(n-1)`
/// therefore enumerates exactly the indices with bit `bit` clear, in order.
#[inline(always)]
pub fn insert_zero_bit(x: usize, bit: usize) -> usize {
    let low = x & ((1 << bit) - 1);
    low | ((x ^ low) << 1)
}

/// Applies a dense single-qubit unitary `m = [m00, m01, m10, m11]`
/// (row-major) to `qubit` via a butterfly update over index pairs.
///
/// The inner loop walks the low/high halves in explicit 2-wide lane chunks
/// (two independent butterflies per iteration, straight-line) so the
/// compiler can keep both lanes in registers and autovectorize the
/// multiply-adds; `qubit == 0`, whose pairs are adjacent, gets its own
/// 4-amplitude chunking. On x86-64 with runtime-detected AVX2+FMA the
/// update takes the packed-lane path instead (same dispatch shape as
/// [`apply_dense2`]); the scalar loops below remain the portable fallback.
pub fn apply_1q(amps: &mut [C64], qubit: usize, m: &[C64; 4]) {
    let step = 1usize << qubit;
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_fma_available() {
        tiers().butterfly1_avx2.inc();
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe {
            if step >= 2 {
                simd::butterfly1_lanes_avx(amps, step, m);
            } else {
                simd::butterfly1_tiles_avx(amps, m);
            }
        }
        return;
    }
    tiers().butterfly1_scalar.inc();
    if step == 1 {
        let mut quads = amps.chunks_exact_mut(4);
        for quad in &mut quads {
            let (x0, y0, x1, y1) = (quad[0], quad[1], quad[2], quad[3]);
            quad[0] = m[0] * x0 + m[1] * y0;
            quad[1] = m[2] * x0 + m[3] * y0;
            quad[2] = m[0] * x1 + m[1] * y1;
            quad[3] = m[2] * x1 + m[3] * y1;
        }
        for pair in quads.into_remainder().chunks_exact_mut(2) {
            let (x, y) = (pair[0], pair[1]);
            pair[0] = m[0] * x + m[1] * y;
            pair[1] = m[2] * x + m[3] * y;
        }
        return;
    }
    // step >= 2, so both halves split evenly into 2-wide lane chunks.
    for block in amps.chunks_exact_mut(step << 1) {
        let (lo, hi) = block.split_at_mut(step);
        for (l, h) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
            let (x0, y0, x1, y1) = (l[0], h[0], l[1], h[1]);
            l[0] = m[0] * x0 + m[1] * y0;
            h[0] = m[2] * x0 + m[3] * y0;
            l[1] = m[0] * x1 + m[1] * y1;
            h[1] = m[2] * x1 + m[3] * y1;
        }
    }
}

/// Multiplies the `|0>` / `|1>` components of `qubit` by `d0` / `d1`.
///
/// When `d0 == 1` (Z, S, T, P, ...) only the set-bit half of the vector is
/// touched. On x86-64 with runtime-detected AVX2+FMA each half scan runs
/// as packed two-amplitude complex products (same dispatch shape as
/// [`apply_1q`]); the scalar loops below — explicit 2-wide lane chunks for
/// autovectorization — remain the portable fallback.
pub fn apply_diag1(amps: &mut [C64], qubit: usize, d0: C64, d1: C64) {
    let step = 1usize << qubit;
    let phase_only = d0 == C64::ONE;
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_fma_available() {
        tiers().diag1_avx2.inc();
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe {
            if step >= 2 {
                simd::diag1_lanes_avx(amps, step, d0, d1, phase_only);
            } else {
                simd::scale_pairs_avx(amps, d0, d1);
            }
        }
        return;
    }
    tiers().diag1_scalar.inc();
    if step == 1 {
        let mut quads = amps.chunks_exact_mut(4);
        for quad in &mut quads {
            if !phase_only {
                quad[0] *= d0;
                quad[2] *= d0;
            }
            quad[1] *= d1;
            quad[3] *= d1;
        }
        for pair in quads.into_remainder().chunks_exact_mut(2) {
            if !phase_only {
                pair[0] *= d0;
            }
            pair[1] *= d1;
        }
        return;
    }
    for block in amps.chunks_exact_mut(step << 1) {
        let (lo, hi) = block.split_at_mut(step);
        if !phase_only {
            for l in lo.chunks_exact_mut(2) {
                l[0] *= d0;
                l[1] *= d0;
            }
        }
        for h in hi.chunks_exact_mut(2) {
            h[0] *= d1;
            h[1] *= d1;
        }
    }
}

/// Applies a dense two-qubit unitary (`m` row-major, 4x4; `hi` is the most
/// significant matrix bit) over the four-amplitude groups it couples.
///
/// This is the fused-superblock kernel the compiled-plan layer emits: one
/// pass over the state applies what was a run of adjacent 1q/2q gates.
/// Instead of scatter/gathering via per-group index arithmetic, the loop
/// nest walks the two qubit strides so the innermost loop advances four
/// *contiguous* lanes in lockstep — streaming access the compiler
/// autovectorizes. When the smaller qubit is bit 0 (contiguous runs of
/// length one) the groups are adjacent 2x2 tiles and get their own
/// flat-chunk loop.
///
/// # Panics
///
/// Debug-asserts that `hi != lo`; the plan compiler guarantees it.
pub fn apply_dense2(amps: &mut [C64], hi: usize, lo: usize, m: &[C64; 16]) {
    debug_assert_ne!(hi, lo);
    // Work on a matrix oriented so the *higher bit position* is the matrix
    // MSB; when the caller's matrix MSB sits on the lower position, permute
    // the matrix entries once (exact bit-role transposition) instead of
    // paying index arithmetic per group.
    let mut oriented = *m;
    if hi < lo {
        for r in 0..4 {
            for c in 0..4 {
                oriented[(swap_bits2(r) << 2) | swap_bits2(c)] = m[(r << 2) | c];
            }
        }
    }
    let m = &oriented;
    let (qlow, qhigh) = sort2(hi, lo);
    let s = 1usize << qlow;
    let t = 1usize << qhigh;
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_fma_available() {
        tiers().dense2_avx2.inc();
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe {
            if s >= 2 {
                simd::dense2_lanes_avx(amps, s, t, m);
            } else {
                simd::dense2_tiles_avx(amps, t, m);
            }
        }
        return;
    }
    tiers().dense2_scalar.inc();
    if s == 1 {
        // Adjacent pairs: each 2t-block splits into a low/high half whose
        // elements interleave as (x0, x1) / (x2, x3) tiles.
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo_half, hi_half) = block.split_at_mut(t);
            for (l, h) in lo_half.chunks_exact_mut(2).zip(hi_half.chunks_exact_mut(2)) {
                let (x0, x1, x2, x3) = (l[0], l[1], h[0], h[1]);
                l[0] = m[0] * x0 + m[1] * x1 + m[2] * x2 + m[3] * x3;
                l[1] = m[4] * x0 + m[5] * x1 + m[6] * x2 + m[7] * x3;
                h[0] = m[8] * x0 + m[9] * x1 + m[10] * x2 + m[11] * x3;
                h[1] = m[12] * x0 + m[13] * x1 + m[14] * x2 + m[15] * x3;
            }
        }
        return;
    }
    for block in amps.chunks_exact_mut(t << 1) {
        let (lo_half, hi_half) = block.split_at_mut(t);
        for (lo_sub, hi_sub) in lo_half
            .chunks_exact_mut(s << 1)
            .zip(hi_half.chunks_exact_mut(s << 1))
        {
            let (a0, a1) = lo_sub.split_at_mut(s);
            let (a2, a3) = hi_sub.split_at_mut(s);
            // s >= 2 is even, so the four lanes advance in 2-wide chunks:
            // two independent 4-point updates per iteration for ILP.
            for j in (0..s).step_by(2) {
                let (x0, x1, x2, x3) = (a0[j], a1[j], a2[j], a3[j]);
                let (y0, y1, y2, y3) = (a0[j + 1], a1[j + 1], a2[j + 1], a3[j + 1]);
                a0[j] = m[0] * x0 + m[1] * x1 + m[2] * x2 + m[3] * x3;
                a1[j] = m[4] * x0 + m[5] * x1 + m[6] * x2 + m[7] * x3;
                a2[j] = m[8] * x0 + m[9] * x1 + m[10] * x2 + m[11] * x3;
                a3[j] = m[12] * x0 + m[13] * x1 + m[14] * x2 + m[15] * x3;
                a0[j + 1] = m[0] * y0 + m[1] * y1 + m[2] * y2 + m[3] * y3;
                a1[j + 1] = m[4] * y0 + m[5] * y1 + m[6] * y2 + m[7] * y3;
                a2[j + 1] = m[8] * y0 + m[9] * y1 + m[10] * y2 + m[11] * y3;
                a3[j + 1] = m[12] * y0 + m[13] * y1 + m[14] * y2 + m[15] * y3;
            }
        }
    }
}

/// Multiplies the four `(hi, lo)` bit-combination quarters of the vector by
/// `d[0..4]` (`d[(hi_bit << 1) | lo_bit]`), skipping quarters whose factor
/// is exactly 1 — so a fused CZ/CP-style block still touches only the
/// quarter it phases.
///
/// Like [`apply_dense2`], the sweep walks the two qubit strides so every
/// quarter is visited as contiguous runs (streaming access instead of the
/// gathered four-index hops the naive formulation does), and on x86-64
/// with runtime-detected AVX2+FMA each run is scaled as packed
/// two-amplitude complex products.
pub fn apply_diag2(amps: &mut [C64], hi: usize, lo: usize, d: &[C64; 4]) {
    debug_assert_ne!(hi, lo);
    // Orient the diagonal so index bit 1 is the *higher* qubit position
    // (exact entry permutation, mirroring apply_dense2).
    let mut oriented = *d;
    if hi < lo {
        for (k, &dk) in d.iter().enumerate() {
            oriented[swap_bits2(k)] = dk;
        }
    }
    let d = &oriented;
    let (qlow, qhigh) = sort2(hi, lo);
    let s = 1usize << qlow;
    let t = 1usize << qhigh;
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_fma_available() {
        tiers().diag2_avx2.inc();
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe {
            if s >= 2 {
                simd::diag2_lanes_avx(amps, s, t, d);
            } else {
                simd::diag2_tiles_avx(amps, t, d);
            }
        }
        return;
    }
    tiers().diag2_scalar.inc();
    let skip = [
        d[0] == C64::ONE,
        d[1] == C64::ONE,
        d[2] == C64::ONE,
        d[3] == C64::ONE,
    ];
    if s == 1 {
        // Adjacent pairs: quarters interleave as (even, odd) lanes of each
        // half, so the factor pair is applied per 2-amplitude tile.
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo_half, hi_half) = block.split_at_mut(t);
            for pair in lo_half.chunks_exact_mut(2) {
                if !skip[0] {
                    pair[0] *= d[0];
                }
                if !skip[1] {
                    pair[1] *= d[1];
                }
            }
            for pair in hi_half.chunks_exact_mut(2) {
                if !skip[2] {
                    pair[0] *= d[2];
                }
                if !skip[3] {
                    pair[1] *= d[3];
                }
            }
        }
        return;
    }
    for block in amps.chunks_exact_mut(t << 1) {
        let (lo_half, hi_half) = block.split_at_mut(t);
        for sub in lo_half.chunks_exact_mut(s << 1) {
            let (a0, a1) = sub.split_at_mut(s);
            if !skip[0] {
                for a in a0 {
                    *a *= d[0];
                }
            }
            if !skip[1] {
                for a in a1 {
                    *a *= d[1];
                }
            }
        }
        for sub in hi_half.chunks_exact_mut(s << 1) {
            let (a2, a3) = sub.split_at_mut(s);
            if !skip[2] {
                for a in a2 {
                    *a *= d[2];
                }
            }
            if !skip[3] {
                for a in a3 {
                    *a *= d[3];
                }
            }
        }
    }
}

/// Pauli-X on `qubit`: swaps paired amplitudes (a pure index permutation).
pub fn apply_x(amps: &mut [C64], qubit: usize) {
    let step = 1usize << qubit;
    for block in amps.chunks_exact_mut(step << 1) {
        let (lo, hi) = block.split_at_mut(step);
        lo.swap_with_slice(hi);
    }
}

/// Pauli-Y on `qubit`: the X swap fused with the `±i` phases, written as
/// component shuffles so the inner loop has no complex multiplies.
pub fn apply_y(amps: &mut [C64], qubit: usize) {
    let step = 1usize << qubit;
    for block in amps.chunks_exact_mut(step << 1) {
        let (lo, hi) = block.split_at_mut(step);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let x = *a0;
            let y = *a1;
            *a0 = C64::new(y.im, -y.re); // -i * y
            *a1 = C64::new(-x.im, x.re); // i * x
        }
    }
}

/// Applies a dense single-qubit unitary to `target` on the subspace where
/// `control` is set.
pub fn apply_controlled_1q(amps: &mut [C64], control: usize, target: usize, m: &[C64; 4]) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    let (lo, hi) = sort2(control, target);
    for c in 0..amps.len() >> 2 {
        let base = insert_zero_bit(insert_zero_bit(c, lo), hi);
        let i0 = base | cbit;
        let i1 = i0 | tbit;
        let x = amps[i0];
        let y = amps[i1];
        amps[i0] = m[0] * x + m[1] * y;
        amps[i1] = m[2] * x + m[3] * y;
    }
}

/// Multiplies the target's `|0>` / `|1>` components by `d0` / `d1` where
/// `control` is set. When `d0 == 1` (CZ, CP) only indices with both bits set
/// are touched — a quarter of the vector.
pub fn apply_controlled_diag1(amps: &mut [C64], control: usize, target: usize, d0: C64, d1: C64) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    let (lo, hi) = sort2(control, target);
    let phase_only = d0 == C64::ONE;
    for c in 0..amps.len() >> 2 {
        let base = insert_zero_bit(insert_zero_bit(c, lo), hi);
        if !phase_only {
            amps[base | cbit] *= d0;
        }
        amps[base | cbit | tbit] *= d1;
    }
}

/// CX: swaps the target pair where `control` is set (index permutation).
///
/// The walk is structured as a stride nest so every exchanged run is
/// contiguous (`swap_with_slice` over whole subruns, which lowers to block
/// memory moves) instead of the per-index gathered `swap` the naive
/// formulation does. A permutation needs no arithmetic, so there is no
/// vectorized tier — the block moves already saturate memory bandwidth.
pub fn apply_cx(amps: &mut [C64], control: usize, target: usize) {
    let (qlow, qhigh) = sort2(control, target);
    let s = 1usize << qlow;
    let t = 1usize << qhigh;
    if control > target {
        // Control is the outer stride: the whole upper half of each block
        // swaps its target subrun pairs.
        for block in amps.chunks_exact_mut(t << 1) {
            let (_, hi_half) = block.split_at_mut(t);
            for sub in hi_half.chunks_exact_mut(s << 1) {
                let (t0, t1) = sub.split_at_mut(s);
                t0.swap_with_slice(t1);
            }
        }
    } else {
        // Control is the inner stride: control-set subruns of the two
        // target halves exchange.
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo_half, hi_half) = block.split_at_mut(t);
            for (ls, hs) in lo_half
                .chunks_exact_mut(s << 1)
                .zip(hi_half.chunks_exact_mut(s << 1))
            {
                let (_, l1) = ls.split_at_mut(s);
                let (_, h1) = hs.split_at_mut(s);
                l1.swap_with_slice(h1);
            }
        }
    }
}

/// SWAP: exchanges the amplitudes of `a` and `b` (index permutation over the
/// `01`/`10` pairs). Streaming stride nest like [`apply_cx`]: the `01`
/// subruns of the upper half exchange with the `10` subruns of the lower
/// half as contiguous block moves.
pub fn apply_swap(amps: &mut [C64], a: usize, b: usize) {
    let (qlow, qhigh) = sort2(a, b);
    let s = 1usize << qlow;
    let t = 1usize << qhigh;
    for block in amps.chunks_exact_mut(t << 1) {
        let (lo_half, hi_half) = block.split_at_mut(t);
        for (ls, hs) in lo_half
            .chunks_exact_mut(s << 1)
            .zip(hi_half.chunks_exact_mut(s << 1))
        {
            let (_, l1) = ls.split_at_mut(s);
            let (h0, _) = hs.split_at_mut(s);
            l1.swap_with_slice(h0);
        }
    }
}

/// Toffoli: flips `target` where both controls are set.
pub fn apply_ccx(amps: &mut [C64], control1: usize, control2: usize, target: usize) {
    let c1bit = 1usize << control1;
    let c2bit = 1usize << control2;
    let tbit = 1usize << target;
    let [b0, b1, b2] = sort3(control1, control2, target);
    for c in 0..amps.len() >> 3 {
        let base = insert_zero_bit(insert_zero_bit(insert_zero_bit(c, b0), b1), b2);
        amps.swap(base | c1bit | c2bit, base | c1bit | c2bit | tbit);
    }
}

/// Fredkin: exchanges `a` and `b` where `control` is set.
pub fn apply_cswap(amps: &mut [C64], control: usize, a: usize, b: usize) {
    let cbit = 1usize << control;
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let [b0, b1, b2] = sort3(control, a, b);
    for c in 0..amps.len() >> 3 {
        let base = insert_zero_bit(insert_zero_bit(insert_zero_bit(c, b0), b1), b2);
        amps.swap(base | cbit | abit, base | cbit | bbit);
    }
}

/// Applies a dense three-qubit unitary (`m` row-major, 8x8) over the
/// eight-amplitude groups it couples. `q2 > q1 > q0` is required and `q2`
/// is the most significant matrix bit — the plan layer always builds its
/// 8x8 superblocks already oriented to the sorted qubit positions.
///
/// This is the `Dense3` superblock kernel the compiled-plan fuser emits:
/// one pass over the state applies what was a run of gates across a qubit
/// triple, halving sweep count (and therefore memory traffic, the binding
/// cost now that the arithmetic is vectorized) relative to two `Dense2`
/// sweeps. On x86-64 with runtime-detected AVX2+FMA the update runs as
/// packed two-amplitude complex products (lane variant for `q0 >= 1`,
/// adjacent-pair tile variant for `q0 == 0`); the scalar gather/scatter
/// loop with zero-entry skipping is the portable fallback.
///
/// # Panics
///
/// Debug-asserts `q2 > q1 > q0`; the plan compiler guarantees it.
pub fn apply_dense3(amps: &mut [C64], q2: usize, q1: usize, q0: usize, m: &[C64; 64]) {
    debug_assert!(q2 > q1 && q1 > q0);
    let s0 = 1usize << q0;
    let s1 = 1usize << q1;
    let s2 = 1usize << q2;
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_fma_available() {
        tiers().dense3_avx2.inc();
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe {
            if s0 >= 2 {
                simd::dense3_lanes_avx(amps, q0, q1, q2, m);
            } else {
                simd::dense3_tiles_avx(amps, q1, q2, m);
            }
        }
        return;
    }
    tiers().dense3_scalar.inc();
    let offs = [0, s0, s1, s1 | s0, s2, s2 | s0, s2 | s1, s2 | s1 | s0];
    for c in 0..amps.len() >> 3 {
        let base = insert_zero_bit(insert_zero_bit(insert_zero_bit(c, q0), q1), q2);
        let mut x = [C64::ZERO; 8];
        for (xi, &off) in x.iter_mut().zip(&offs) {
            *xi = amps[base | off];
        }
        for (row, &off) in offs.iter().enumerate() {
            let mrow = &m[row * 8..row * 8 + 8];
            let mut acc = C64::ZERO;
            // Fused 8x8 blocks are often structurally sparse (permutation
            // or controlled factors), so skipping exact zeros pays.
            for (mk, &xk) in mrow.iter().zip(&x) {
                if *mk != C64::ZERO {
                    acc += *mk * xk;
                }
            }
            amps[base | off] = acc;
        }
    }
}

#[inline(always)]
fn sort2(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Swaps the two bits of a 2-bit index (the bit-role transposition used to
/// reorient 4x4 matrices).
#[inline(always)]
fn swap_bits2(i: usize) -> usize {
    ((i & 1) << 1) | (i >> 1)
}

#[inline(always)]
fn sort3(a: usize, b: usize, c: usize) -> [usize; 3] {
    let mut v = [a, b, c];
    v.sort_unstable();
    v
}

/// Runtime-dispatched AVX2+FMA lane kernels.
///
/// The scalar dense updates are arithmetic-bound (two complex
/// multiply-adds per amplitude for the 1q butterfly, four for fused 4x4
/// blocks) — so these paths pack two adjacent complex amplitudes per
/// 256-bit vector and issue each complex product as one `vfmaddsub` plus
/// one multiply, cutting the instruction count per amplitude by roughly
/// 2x and pushing the sweep toward memory bandwidth. Both the shared 1q
/// butterfly ([`super::apply_1q`]) and the two-qubit superblock kernel
/// ([`super::apply_dense2`]) dispatch here.
///
/// Baseline builds (or non-x86 targets) keep the portable scalar loops;
/// detection is cached so the dispatch check is a relaxed load.
#[cfg(target_arch = "x86_64")]
mod simd {
    use qcir::math::C64;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Cached `avx2 && fma` CPUID probe.
    pub fn avx2_fma_available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// One complex product of the two packed amplitudes in `y` by the
    /// broadcast scalar `(mr, mi)`, sign-folded into interleaved
    /// `[re, im, re, im]` form: even lanes get `yr*mr - yi*mi`, odd lanes
    /// `yi*mr + yr*mi`. `ys` must be `y` with each (re, im) pair swapped.
    #[inline(always)]
    unsafe fn cmul2(y: __m256d, ys: __m256d, mr: __m256d, mi: __m256d) -> __m256d {
        _mm256_fmaddsub_pd(y, mr, _mm256_mul_pd(ys, mi))
    }

    /// The `s >= 2` stride walk of [`super::apply_dense2`] with each
    /// 4-point update running over two adjacent complex amplitudes per
    /// vector. `amps` layout guarantees (`C64` is `repr(C)`) make a lane a
    /// plain `[re0, im0, re1, im1]` load.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dense2_lanes_avx(amps: &mut [C64], s: usize, t: usize, m: &[C64; 16]) {
        debug_assert!(s >= 2);
        // Broadcast every matrix entry's real and imaginary part once.
        let mut mr = [_mm256_setzero_pd(); 16];
        let mut mi = [_mm256_setzero_pd(); 16];
        for k in 0..16 {
            mr[k] = _mm256_set1_pd(m[k].re);
            mi[k] = _mm256_set1_pd(m[k].im);
        }
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo_half, hi_half) = block.split_at_mut(t);
            for (lo_sub, hi_sub) in lo_half
                .chunks_exact_mut(s << 1)
                .zip(hi_half.chunks_exact_mut(s << 1))
            {
                let (a0, a1) = lo_sub.split_at_mut(s);
                let (a2, a3) = hi_sub.split_at_mut(s);
                for j in (0..s).step_by(2) {
                    let p0 = a0.as_mut_ptr().add(j).cast::<f64>();
                    let p1 = a1.as_mut_ptr().add(j).cast::<f64>();
                    let p2 = a2.as_mut_ptr().add(j).cast::<f64>();
                    let p3 = a3.as_mut_ptr().add(j).cast::<f64>();
                    let y0 = _mm256_loadu_pd(p0);
                    let y1 = _mm256_loadu_pd(p1);
                    let y2 = _mm256_loadu_pd(p2);
                    let y3 = _mm256_loadu_pd(p3);
                    // Pair-swapped copies feed the imaginary half of each
                    // complex product; computed once, shared by all rows.
                    let ys0 = _mm256_permute_pd(y0, 0b0101);
                    let ys1 = _mm256_permute_pd(y1, 0b0101);
                    let ys2 = _mm256_permute_pd(y2, 0b0101);
                    let ys3 = _mm256_permute_pd(y3, 0b0101);
                    let r0 = _mm256_add_pd(
                        _mm256_add_pd(cmul2(y0, ys0, mr[0], mi[0]), cmul2(y1, ys1, mr[1], mi[1])),
                        _mm256_add_pd(cmul2(y2, ys2, mr[2], mi[2]), cmul2(y3, ys3, mr[3], mi[3])),
                    );
                    let r1 = _mm256_add_pd(
                        _mm256_add_pd(cmul2(y0, ys0, mr[4], mi[4]), cmul2(y1, ys1, mr[5], mi[5])),
                        _mm256_add_pd(cmul2(y2, ys2, mr[6], mi[6]), cmul2(y3, ys3, mr[7], mi[7])),
                    );
                    let r2 = _mm256_add_pd(
                        _mm256_add_pd(cmul2(y0, ys0, mr[8], mi[8]), cmul2(y1, ys1, mr[9], mi[9])),
                        _mm256_add_pd(
                            cmul2(y2, ys2, mr[10], mi[10]),
                            cmul2(y3, ys3, mr[11], mi[11]),
                        ),
                    );
                    let r3 = _mm256_add_pd(
                        _mm256_add_pd(
                            cmul2(y0, ys0, mr[12], mi[12]),
                            cmul2(y1, ys1, mr[13], mi[13]),
                        ),
                        _mm256_add_pd(
                            cmul2(y2, ys2, mr[14], mi[14]),
                            cmul2(y3, ys3, mr[15], mi[15]),
                        ),
                    );
                    _mm256_storeu_pd(p0, r0);
                    _mm256_storeu_pd(p1, r1);
                    _mm256_storeu_pd(p2, r2);
                    _mm256_storeu_pd(p3, r3);
                }
            }
        }
    }

    /// The `step >= 2` half walk of [`super::apply_1q`]: each iteration
    /// loads two adjacent complex amplitudes from the low half and their
    /// partners from the high half, and issues the 2x2 butterfly as four
    /// packed complex products.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn butterfly1_lanes_avx(amps: &mut [C64], step: usize, m: &[C64; 4]) {
        debug_assert!(step >= 2);
        let mut mr = [_mm256_setzero_pd(); 4];
        let mut mi = [_mm256_setzero_pd(); 4];
        for k in 0..4 {
            mr[k] = _mm256_set1_pd(m[k].re);
            mi[k] = _mm256_set1_pd(m[k].im);
        }
        for block in amps.chunks_exact_mut(step << 1) {
            let (lo, hi) = block.split_at_mut(step);
            for j in (0..step).step_by(2) {
                let pl = lo.as_mut_ptr().add(j).cast::<f64>();
                let ph = hi.as_mut_ptr().add(j).cast::<f64>();
                let x = _mm256_loadu_pd(pl);
                let y = _mm256_loadu_pd(ph);
                let xs = _mm256_permute_pd(x, 0b0101);
                let ys = _mm256_permute_pd(y, 0b0101);
                let rl = _mm256_add_pd(cmul2(x, xs, mr[0], mi[0]), cmul2(y, ys, mr[1], mi[1]));
                let rh = _mm256_add_pd(cmul2(x, xs, mr[2], mi[2]), cmul2(y, ys, mr[3], mi[3]));
                _mm256_storeu_pd(pl, rl);
                _mm256_storeu_pd(ph, rh);
            }
        }
    }

    /// The `step == 1` tile walk of [`super::apply_1q`]: pairs are
    /// adjacent, so the 2x2 matrix is repacked into column vectors
    /// (`[m[0], m[2]]`, `[m[1], m[3]]`) and each input amplitude is
    /// broadcast against them — one 256-bit vector per butterfly.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn butterfly1_tiles_avx(amps: &mut [C64], m: &[C64; 4]) {
        let col0 = _mm256_setr_pd(m[0].re, m[0].im, m[2].re, m[2].im);
        let col1 = _mm256_setr_pd(m[1].re, m[1].im, m[3].re, m[3].im);
        let col0_s = _mm256_permute_pd(col0, 0b0101);
        let col1_s = _mm256_permute_pd(col1, 0b0101);
        for pair in amps.chunks_exact_mut(2) {
            let p = pair.as_mut_ptr().cast::<f64>();
            let (x, y) = (pair[0], pair[1]);
            let r = _mm256_add_pd(
                cmul2(col0, col0_s, _mm256_set1_pd(x.re), _mm256_set1_pd(x.im)),
                cmul2(col1, col1_s, _mm256_set1_pd(y.re), _mm256_set1_pd(y.im)),
            );
            _mm256_storeu_pd(p, r);
        }
    }

    /// The `s == 1` tile walk of [`super::apply_dense2`]: the four points of
    /// each update sit as adjacent pairs `(x0, x1)` / `(x2, x3)`, so the
    /// matrix is repacked into column vectors (`[m[l], m[4+l]]` for the low
    /// output pair, `[m[8+l], m[12+l]]` for the high one) and each input
    /// amplitude is broadcast against them.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dense2_tiles_avx(amps: &mut [C64], t: usize, m: &[C64; 16]) {
        // col_lo[l] packs rows 0 and 1 of column l; col_hi[l] rows 2 and 3.
        // The pair-swapped copies feed the imaginary half of each product.
        // The swaps are computed in this body, not in closures: a closure
        // does not inherit the target features, so whether its intrinsic
        // inlines would hinge on codegen-unit partitioning.
        let mut col_lo = [_mm256_setzero_pd(); 4];
        let mut col_hi = [_mm256_setzero_pd(); 4];
        let mut col_lo_s = [_mm256_setzero_pd(); 4];
        let mut col_hi_s = [_mm256_setzero_pd(); 4];
        for l in 0..4 {
            col_lo[l] = _mm256_setr_pd(m[l].re, m[l].im, m[4 + l].re, m[4 + l].im);
            col_hi[l] = _mm256_setr_pd(m[8 + l].re, m[8 + l].im, m[12 + l].re, m[12 + l].im);
            col_lo_s[l] = _mm256_permute_pd(col_lo[l], 0b0101);
            col_hi_s[l] = _mm256_permute_pd(col_hi[l], 0b0101);
        }
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo_half, hi_half) = block.split_at_mut(t);
            for (l_pair, h_pair) in lo_half.chunks_exact_mut(2).zip(hi_half.chunks_exact_mut(2)) {
                let pl = l_pair.as_mut_ptr().cast::<f64>();
                let ph = h_pair.as_mut_ptr().cast::<f64>();
                let x = [l_pair[0], l_pair[1], h_pair[0], h_pair[1]];
                let mut r_lo = _mm256_setzero_pd();
                let mut r_hi = _mm256_setzero_pd();
                for l in 0..4 {
                    let xr = _mm256_set1_pd(x[l].re);
                    let xi = _mm256_set1_pd(x[l].im);
                    r_lo = _mm256_add_pd(r_lo, cmul2(col_lo[l], col_lo_s[l], xr, xi));
                    r_hi = _mm256_add_pd(r_hi, cmul2(col_hi[l], col_hi_s[l], xr, xi));
                }
                _mm256_storeu_pd(pl, r_lo);
                _mm256_storeu_pd(ph, r_hi);
            }
        }
    }

    /// Scales a contiguous even-length run by one broadcast complex factor,
    /// two amplitudes per product. Shared by the diagonal lane kernels.
    #[inline(always)]
    unsafe fn scale_run_avx(run: &mut [C64], dr: __m256d, di: __m256d) {
        for pair in run.chunks_exact_mut(2) {
            let p = pair.as_mut_ptr().cast::<f64>();
            let y = _mm256_loadu_pd(p);
            let ys = _mm256_permute_pd(y, 0b0101);
            _mm256_storeu_pd(p, cmul2(y, ys, dr, di));
        }
    }

    /// Scales adjacent `(even, odd)` amplitude pairs by the packed factor
    /// pair in `(mr, mi)`, blending the original bits back over any lane
    /// pair whose factor is exactly 1 so skipped amplitudes stay untouched
    /// bit for bit (matching the scalar tier's skip semantics).
    #[inline(always)]
    unsafe fn scale_pairs_masked(
        half: &mut [C64],
        mr: __m256d,
        mi: __m256d,
        skip_a: bool,
        skip_b: bool,
    ) {
        for pair in half.chunks_exact_mut(2) {
            let p = pair.as_mut_ptr().cast::<f64>();
            let y = _mm256_loadu_pd(p);
            let ys = _mm256_permute_pd(y, 0b0101);
            let mut r = cmul2(y, ys, mr, mi);
            if skip_a {
                r = _mm256_blend_pd(r, y, 0b0011);
            } else if skip_b {
                r = _mm256_blend_pd(r, y, 0b1100);
            }
            _mm256_storeu_pd(p, r);
        }
    }

    /// The `step == 1` walk of [`super::apply_diag1`]: pairs are adjacent,
    /// so both diagonal factors ride in one packed vector.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn scale_pairs_avx(amps: &mut [C64], da: C64, db: C64) {
        let skip_a = da == C64::ONE;
        let skip_b = db == C64::ONE;
        if skip_a && skip_b {
            return;
        }
        let mr = _mm256_setr_pd(da.re, da.re, db.re, db.re);
        let mi = _mm256_setr_pd(da.im, da.im, db.im, db.im);
        scale_pairs_masked(amps, mr, mi, skip_a, skip_b);
    }

    /// The `step >= 2` half walk of [`super::apply_diag1`]: each half is a
    /// contiguous run scaled by one broadcast factor.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn diag1_lanes_avx(
        amps: &mut [C64],
        step: usize,
        d0: C64,
        d1: C64,
        phase_only: bool,
    ) {
        debug_assert!(step >= 2);
        let d0r = _mm256_set1_pd(d0.re);
        let d0i = _mm256_set1_pd(d0.im);
        let d1r = _mm256_set1_pd(d1.re);
        let d1i = _mm256_set1_pd(d1.im);
        for block in amps.chunks_exact_mut(step << 1) {
            let (lo, hi) = block.split_at_mut(step);
            if !phase_only {
                scale_run_avx(lo, d0r, d0i);
            }
            scale_run_avx(hi, d1r, d1i);
        }
    }

    /// The `s >= 2` stride walk of [`super::apply_diag2`]: every quarter is
    /// visited as contiguous subruns, each scaled by its broadcast factor;
    /// exact-1 quarters are skipped whole.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn diag2_lanes_avx(amps: &mut [C64], s: usize, t: usize, d: &[C64; 4]) {
        debug_assert!(s >= 2);
        let mut dr = [_mm256_setzero_pd(); 4];
        let mut di = [_mm256_setzero_pd(); 4];
        let mut skip = [false; 4];
        for k in 0..4 {
            dr[k] = _mm256_set1_pd(d[k].re);
            di[k] = _mm256_set1_pd(d[k].im);
            skip[k] = d[k] == C64::ONE;
        }
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo_half, hi_half) = block.split_at_mut(t);
            for sub in lo_half.chunks_exact_mut(s << 1) {
                let (a0, a1) = sub.split_at_mut(s);
                if !skip[0] {
                    scale_run_avx(a0, dr[0], di[0]);
                }
                if !skip[1] {
                    scale_run_avx(a1, dr[1], di[1]);
                }
            }
            for sub in hi_half.chunks_exact_mut(s << 1) {
                let (a2, a3) = sub.split_at_mut(s);
                if !skip[2] {
                    scale_run_avx(a2, dr[2], di[2]);
                }
                if !skip[3] {
                    scale_run_avx(a3, dr[3], di[3]);
                }
            }
        }
    }

    /// The `s == 1` tile walk of [`super::apply_diag2`]: the low-qubit pair
    /// interleaves as the `(even, odd)` lanes of each half, so each half is
    /// scaled by its packed factor pair.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn diag2_tiles_avx(amps: &mut [C64], t: usize, d: &[C64; 4]) {
        let mr_lo = _mm256_setr_pd(d[0].re, d[0].re, d[1].re, d[1].re);
        let mi_lo = _mm256_setr_pd(d[0].im, d[0].im, d[1].im, d[1].im);
        let mr_hi = _mm256_setr_pd(d[2].re, d[2].re, d[3].re, d[3].re);
        let mi_hi = _mm256_setr_pd(d[2].im, d[2].im, d[3].im, d[3].im);
        let skip = [
            d[0] == C64::ONE,
            d[1] == C64::ONE,
            d[2] == C64::ONE,
            d[3] == C64::ONE,
        ];
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo_half, hi_half) = block.split_at_mut(t);
            if !(skip[0] && skip[1]) {
                scale_pairs_masked(lo_half, mr_lo, mi_lo, skip[0], skip[1]);
            }
            if !(skip[2] && skip[3]) {
                scale_pairs_masked(hi_half, mr_hi, mi_hi, skip[2], skip[3]);
            }
        }
    }

    /// The `q0 >= 1` walk of [`super::apply_dense3`]: bases advance two at
    /// a time (the low stride keeps adjacent bases adjacent), so each
    /// 8-point update runs over two complex amplitudes per vector.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dense3_lanes_avx(
        amps: &mut [C64],
        q0: usize,
        q1: usize,
        q2: usize,
        m: &[C64; 64],
    ) {
        debug_assert!(q0 >= 1);
        let s0 = 1usize << q0;
        let s1 = 1usize << q1;
        let s2 = 1usize << q2;
        let mut mr = [_mm256_setzero_pd(); 64];
        let mut mi = [_mm256_setzero_pd(); 64];
        for k in 0..64 {
            mr[k] = _mm256_set1_pd(m[k].re);
            mi[k] = _mm256_set1_pd(m[k].im);
        }
        let offs = [0, s0, s1, s1 | s0, s2, s2 | s0, s2 | s1, s2 | s1 | s0];
        let ptr = amps.as_mut_ptr();
        // q0 >= 1 forces at least a 4-qubit state, so the base count is
        // even and every even base's successor is also a valid base.
        for c in (0..amps.len() >> 3).step_by(2) {
            let base = super::insert_zero_bit(
                super::insert_zero_bit(super::insert_zero_bit(c, q0), q1),
                q2,
            );
            let mut p = [ptr.cast::<f64>(); 8];
            let mut y = [_mm256_setzero_pd(); 8];
            let mut ys = [_mm256_setzero_pd(); 8];
            for k in 0..8 {
                p[k] = ptr.add(base | offs[k]).cast::<f64>();
                y[k] = _mm256_loadu_pd(p[k]);
                ys[k] = _mm256_permute_pd(y[k], 0b0101);
            }
            for row in 0..8 {
                let mut r = cmul2(y[0], ys[0], mr[row * 8], mi[row * 8]);
                for k in 1..8 {
                    r = _mm256_add_pd(r, cmul2(y[k], ys[k], mr[row * 8 + k], mi[row * 8 + k]));
                }
                _mm256_storeu_pd(p[row], r);
            }
        }
    }

    /// The `q0 == 0` tile walk of [`super::apply_dense3`]: the eight points
    /// of each update sit as four adjacent pairs, so the 8x8 matrix is
    /// repacked into row-pair column vectors and each input amplitude is
    /// broadcast against them (same shape as [`dense2_tiles_avx`]).
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dense3_tiles_avx(amps: &mut [C64], q1: usize, q2: usize, m: &[C64; 64]) {
        let s1 = 1usize << q1;
        let s2 = 1usize << q2;
        // col[v][k] packs rows 2v and 2v+1 of column k.
        // Swapped copies computed inline, not in closures (see
        // `dense2_tiles_avx`).
        let mut col = [[_mm256_setzero_pd(); 8]; 4];
        let mut col_s = [[_mm256_setzero_pd(); 8]; 4];
        for v in 0..4 {
            for k in 0..8 {
                col[v][k] = _mm256_setr_pd(
                    m[2 * v * 8 + k].re,
                    m[2 * v * 8 + k].im,
                    m[(2 * v + 1) * 8 + k].re,
                    m[(2 * v + 1) * 8 + k].im,
                );
                col_s[v][k] = _mm256_permute_pd(col[v][k], 0b0101);
            }
        }
        let offs = [0usize, s1, s2, s2 | s1];
        let ptr = amps.as_mut_ptr();
        for c in 0..amps.len() >> 3 {
            let base = super::insert_zero_bit(super::insert_zero_bit(c << 1, q1), q2);
            let mut x = [C64::ZERO; 8];
            for g in 0..4 {
                x[2 * g] = *ptr.add(base | offs[g]);
                x[2 * g + 1] = *ptr.add((base | offs[g]) + 1);
            }
            for v in 0..4 {
                let mut r = _mm256_setzero_pd();
                for k in 0..8 {
                    let xr = _mm256_set1_pd(x[k].re);
                    let xi = _mm256_set1_pd(x[k].im);
                    r = _mm256_add_pd(r, cmul2(col[v][k], col_s[v][k], xr, xi));
                }
                _mm256_storeu_pd(ptr.add(base | offs[v]).cast::<f64>(), r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::gate::Gate;
    use qcir::math::Matrix;

    /// Random-ish but deterministic normalized amplitudes.
    fn test_amps(n: usize) -> Vec<C64> {
        let len = 1usize << n;
        let mut amps: Vec<C64> = (0..len)
            .map(|i| {
                let x = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                let y = ((i * 40503 + 7) % 1000) as f64 / 1000.0 - 0.5;
                C64::new(x, y)
            })
            .collect();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = *a / norm;
        }
        amps
    }

    /// Oracle: run the same update through the full-scan reference path.
    fn reference(amps: &[C64], matrix: &Matrix, qubits: &[usize]) -> Vec<C64> {
        let mut sv = crate::state::StateVector::from_amplitudes(amps.to_vec());
        sv.apply_matrix_reference(matrix, qubits);
        sv.amplitudes().to_vec()
    }

    fn assert_close(a: &[C64], b: &[C64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.approx_eq(*y, 1e-12), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn insert_zero_bit_enumerates_cleared_indices() {
        // Inserting at bit 1 over 0..4 must yield exactly {0,1,4,5}.
        let got: Vec<usize> = (0..4).map(|x| insert_zero_bit(x, 1)).collect();
        assert_eq!(got, vec![0, 1, 4, 5]);
        // Bit 0: evens.
        let got: Vec<usize> = (0..4).map(|x| insert_zero_bit(x, 0)).collect();
        assert_eq!(got, vec![0, 2, 4, 6]);
    }

    #[test]
    fn butterfly_matches_reference_on_each_qubit() {
        for q in 0..4 {
            for gate in [Gate::H, Gate::SX, Gate::U(0.3, -0.8, 1.7)] {
                let mut a = test_amps(4);
                let b = reference(&a, &gate.matrix(), &[q]);
                let m = match gate.kind() {
                    qcir::gate::GateKind::Dense1 { m } => m,
                    _ => unreachable!(),
                };
                apply_1q(&mut a, q, &m);
                assert_close(&a, &b);
            }
        }
    }

    #[test]
    fn diagonal_and_permutation_kernels_match_reference() {
        for q in 0..4 {
            let mut a = test_amps(4);
            let b = reference(&a, &Gate::P(0.9).matrix(), &[q]);
            apply_diag1(&mut a, q, C64::ONE, C64::cis(0.9));
            assert_close(&a, &b);

            let mut a = test_amps(4);
            let b = reference(&a, &Gate::X.matrix(), &[q]);
            apply_x(&mut a, q);
            assert_close(&a, &b);

            let mut a = test_amps(4);
            let b = reference(&a, &Gate::Y.matrix(), &[q]);
            apply_y(&mut a, q);
            assert_close(&a, &b);
        }
    }

    #[test]
    fn two_qubit_kernels_match_reference_on_all_operand_orders() {
        for c in 0..4 {
            for t in 0..4 {
                if c == t {
                    continue;
                }
                let mut a = test_amps(4);
                let b = reference(&a, &Gate::CX.matrix(), &[c, t]);
                apply_cx(&mut a, c, t);
                assert_close(&a, &b);

                let mut a = test_amps(4);
                let b = reference(&a, &Gate::SWAP.matrix(), &[c, t]);
                apply_swap(&mut a, c, t);
                assert_close(&a, &b);

                let mut a = test_amps(4);
                let b = reference(&a, &Gate::CRZ(0.7).matrix(), &[c, t]);
                apply_controlled_diag1(&mut a, c, t, C64::cis(-0.35), C64::cis(0.35));
                assert_close(&a, &b);

                let mut a = test_amps(4);
                let b = reference(&a, &Gate::CH.matrix(), &[c, t]);
                let m = match Gate::CH.kind() {
                    qcir::gate::GateKind::ControlledDense1 { m } => m,
                    _ => unreachable!(),
                };
                apply_controlled_1q(&mut a, c, t, &m);
                assert_close(&a, &b);
            }
        }
    }

    #[test]
    fn three_qubit_kernels_match_reference_on_all_operand_orders() {
        for q0 in 0..4 {
            for q1 in 0..4 {
                for q2 in 0..4 {
                    if q0 == q1 || q0 == q2 || q1 == q2 {
                        continue;
                    }
                    let mut a = test_amps(4);
                    let b = reference(&a, &Gate::CCX.matrix(), &[q0, q1, q2]);
                    apply_ccx(&mut a, q0, q1, q2);
                    assert_close(&a, &b);

                    let mut a = test_amps(4);
                    let b = reference(&a, &Gate::CSWAP.matrix(), &[q0, q1, q2]);
                    apply_cswap(&mut a, q0, q1, q2);
                    assert_close(&a, &b);
                }
            }
        }
    }

    #[test]
    fn dense2_kernel_matches_reference_on_all_operand_orders() {
        // Full 4x4 unitaries (entangling and product-form) on every ordered
        // qubit pair, against the full-scan oracle.
        let matrices: Vec<Matrix> = vec![
            Gate::CX.matrix(),
            Gate::SWAP.matrix(),
            Gate::CRY(0.9).matrix(),
            Gate::H.matrix().kron(&Gate::U(0.3, -0.8, 1.7).matrix()),
            Gate::CX
                .matrix()
                .matmul(&Gate::SX.matrix().kron(&Gate::T.matrix())),
        ];
        for hi in 0..4 {
            for lo in 0..4 {
                if hi == lo {
                    continue;
                }
                for matrix in &matrices {
                    let mut m = [C64::ZERO; 16];
                    for r in 0..4 {
                        for c in 0..4 {
                            m[r * 4 + c] = matrix.get(r, c);
                        }
                    }
                    let mut a = test_amps(4);
                    let b = reference(&a, matrix, &[hi, lo]);
                    apply_dense2(&mut a, hi, lo, &m);
                    assert_close(&a, &b);
                }
            }
        }
    }

    #[test]
    fn diag2_kernel_matches_reference_on_all_operand_orders() {
        // A fully general two-qubit diagonal (no entry equal to 1, plus the
        // phase-only CP shape) against the oracle.
        let full = [C64::cis(0.3), C64::cis(-0.7), C64::cis(1.9), C64::cis(0.4)];
        let cp = [C64::ONE, C64::ONE, C64::ONE, C64::cis(0.8)];
        for hi in 0..4 {
            for lo in 0..4 {
                if hi == lo {
                    continue;
                }
                for d in [full, cp] {
                    let mut matrix = Matrix::zeros(4);
                    for (k, &dk) in d.iter().enumerate() {
                        matrix[(k, k)] = dk;
                    }
                    let mut a = test_amps(4);
                    let b = reference(&a, &matrix, &[hi, lo]);
                    apply_diag2(&mut a, hi, lo, &d);
                    assert_close(&a, &b);
                }
            }
        }
    }

    #[test]
    fn lane_chunked_kernels_handle_the_minimal_state() {
        // A 1-qubit state exercises the remainder path of the 2-wide lane
        // chunking in apply_1q / apply_diag1.
        let mut a = test_amps(1);
        let b = reference(&a, &Gate::H.matrix(), &[0]);
        let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        apply_1q(&mut a, 0, &[h, h, h, -h]);
        assert_close(&a, &b);
        let mut a = test_amps(1);
        let b = reference(&a, &Gate::RZ(0.7).matrix(), &[0]);
        apply_diag1(&mut a, 0, C64::cis(-0.35), C64::cis(0.35));
        assert_close(&a, &b);
    }

    #[test]
    fn dense3_kernel_matches_reference_on_all_sorted_triples() {
        // Structurally sparse (CCX), product-form, and fully dense 8x8
        // unitaries on every sorted qubit triple of a 5-qubit state — this
        // covers both the q0 == 0 tile path and the q0 >= 1 lane path.
        let matrices: Vec<Matrix> = vec![
            Gate::CCX.matrix(),
            Gate::H.matrix().kron(&Gate::CX.matrix()),
            Gate::CRY(0.9)
                .matrix()
                .kron(&Gate::U(0.3, -0.8, 1.7).matrix()),
            Gate::CCX
                .matrix()
                .matmul(&Gate::H.matrix().kron(&Gate::CRZ(0.4).matrix())),
        ];
        for q2 in 0..5 {
            for q1 in 0..q2 {
                for q0 in 0..q1 {
                    for matrix in &matrices {
                        let mut m = [C64::ZERO; 64];
                        for r in 0..8 {
                            for c in 0..8 {
                                m[r * 8 + c] = matrix.get(r, c);
                            }
                        }
                        let mut a = test_amps(5);
                        let b = reference(&a, matrix, &[q2, q1, q0]);
                        apply_dense3(&mut a, q2, q1, q0, &m);
                        assert_close(&a, &b);
                    }
                }
            }
        }
    }
}
