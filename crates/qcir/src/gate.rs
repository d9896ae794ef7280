//! The QasmLite gate set.
//!
//! Each [`Gate`] knows its arity, parameters, canonical (current-version)
//! name, inverse and unitary matrix. The set mirrors the Qiskit standard
//! library closely enough that the corruption channels in `qlm` can emit the
//! same class of mistakes an LLM makes against Qiskit (deprecated aliases,
//! wrong parameter counts, bad arity).

use crate::math::{Matrix, C64, FRAC_1_SQRT_2};
use std::fmt;

/// A quantum gate with bound parameters.
///
/// ```
/// use qcir::gate::Gate;
/// assert_eq!(Gate::H.num_qubits(), 1);
/// assert_eq!(Gate::CX.num_qubits(), 2);
/// assert_eq!(Gate::RZ(0.5).inverse(), Gate::RZ(-0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit no-op; kept because noise attaches to it).
    Id,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = sqrt(Z).
    S,
    /// S-dagger.
    Sdg,
    /// T = sqrt(S).
    T,
    /// T-dagger.
    Tdg,
    /// sqrt(X).
    SX,
    /// X-rotation by the given angle.
    RX(f64),
    /// Y-rotation by the given angle.
    RY(f64),
    /// Z-rotation by the given angle.
    RZ(f64),
    /// Phase rotation `diag(1, e^{i lambda})`.
    P(f64),
    /// General single-qubit unitary `U(theta, phi, lambda)`.
    U(f64, f64, f64),
    /// Controlled-X.
    CX,
    /// Controlled-Y.
    CY,
    /// Controlled-Z.
    CZ,
    /// Controlled-H.
    CH,
    /// Swap.
    SWAP,
    /// Controlled RX.
    CRX(f64),
    /// Controlled RY.
    CRY(f64),
    /// Controlled RZ.
    CRZ(f64),
    /// Controlled phase.
    CP(f64),
    /// Toffoli (CCX).
    CCX,
    /// Controlled swap (Fredkin).
    CSWAP,
}

impl Gate {
    /// Number of qubits this gate acts on.
    pub fn num_qubits(&self) -> usize {
        use Gate::*;
        match self {
            Id | H | X | Y | Z | S | Sdg | T | Tdg | SX | RX(_) | RY(_) | RZ(_) | P(_) | U(..) => 1,
            CX | CY | CZ | CH | SWAP | CRX(_) | CRY(_) | CRZ(_) | CP(_) => 2,
            CCX | CSWAP => 3,
        }
    }

    /// Number of angle parameters the gate carries.
    pub fn num_params(&self) -> usize {
        use Gate::*;
        match self {
            RX(_) | RY(_) | RZ(_) | P(_) | CRX(_) | CRY(_) | CRZ(_) | CP(_) => 1,
            U(..) => 3,
            _ => 0,
        }
    }

    /// The gate's parameters in declaration order.
    pub fn params(&self) -> Vec<f64> {
        use Gate::*;
        match *self {
            RX(a) | RY(a) | RZ(a) | P(a) | CRX(a) | CRY(a) | CRZ(a) | CP(a) => vec![a],
            U(t, p, l) => vec![t, p, l],
            _ => Vec::new(),
        }
    }

    /// Canonical (current library version) lowercase name.
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            Id => "id",
            H => "h",
            X => "x",
            Y => "y",
            Z => "z",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            SX => "sx",
            RX(_) => "rx",
            RY(_) => "ry",
            RZ(_) => "rz",
            P(_) => "p",
            U(..) => "u",
            CX => "cx",
            CY => "cy",
            CZ => "cz",
            CH => "ch",
            SWAP => "swap",
            CRX(_) => "crx",
            CRY(_) => "cry",
            CRZ(_) => "crz",
            CP(_) => "cp",
            CCX => "ccx",
            CSWAP => "cswap",
        }
    }

    /// Constructs a gate from a library name ([`crate::api::GATES`]) and
    /// parameter list, whatever the name's lifecycle: a legacy name builds
    /// its replacement's gate.
    ///
    /// Returns `None` for unknown names or wrong parameter counts.
    pub fn from_name(name: &str, params: &[f64]) -> Option<Gate> {
        crate::api::lookup(name)?.build(params)
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Gate {
        use Gate::*;
        match *self {
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            // SX^dagger equals U(pi/2, pi/2, -pi/2) up to global phase.
            SX => U(
                std::f64::consts::FRAC_PI_2,
                std::f64::consts::FRAC_PI_2,
                -std::f64::consts::FRAC_PI_2,
            ),
            RX(a) => RX(-a),
            RY(a) => RY(-a),
            RZ(a) => RZ(-a),
            P(a) => P(-a),
            U(t, p, l) => U(-t, -l, -p),
            CRX(a) => CRX(-a),
            CRY(a) => CRY(-a),
            CRZ(a) => CRZ(-a),
            CP(a) => CP(-a),
            g => g, // self-inverse: Id, H, X, Y, Z, CX, CY, CZ, CH, SWAP, CCX, CSWAP
        }
    }

    /// `true` when the gate is in the Clifford group (stabilizer-simulable).
    pub fn is_clifford(&self) -> bool {
        use Gate::*;
        matches!(
            self,
            Id | H | X | Y | Z | S | Sdg | SX | CX | CY | CZ | SWAP
        )
    }

    /// The gate's unitary as a dense matrix over its own qubits.
    ///
    /// Qubit 0 of the gate is the **most significant** bit of the matrix
    /// index (big-endian), matching the convention used by the executor.
    pub fn matrix(&self) -> Matrix {
        use Gate::*;
        let z = C64::ZERO;
        let o = C64::ONE;
        let i = C64::I;
        let h = C64::real(FRAC_1_SQRT_2);
        match *self {
            Id => Matrix::identity(2),
            H => Matrix::from_rows(2, &[h, h, h, -h]),
            X => Matrix::from_rows(2, &[z, o, o, z]),
            Y => Matrix::from_rows(2, &[z, -i, i, z]),
            Z => Matrix::from_rows(2, &[o, z, z, -o]),
            S => Matrix::from_rows(2, &[o, z, z, i]),
            Sdg => Matrix::from_rows(2, &[o, z, z, -i]),
            T => Matrix::from_rows(2, &[o, z, z, C64::cis(std::f64::consts::FRAC_PI_4)]),
            Tdg => Matrix::from_rows(2, &[o, z, z, C64::cis(-std::f64::consts::FRAC_PI_4)]),
            SX => {
                let a = C64::new(0.5, 0.5);
                let b = C64::new(0.5, -0.5);
                Matrix::from_rows(2, &[a, b, b, a])
            }
            RX(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                Matrix::from_rows(2, &[c, s, s, c])
            }
            RY(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::real((t / 2.0).sin());
                Matrix::from_rows(2, &[c, -s, s, c])
            }
            RZ(t) => Matrix::from_rows(2, &[C64::cis(-t / 2.0), z, z, C64::cis(t / 2.0)]),
            P(l) => Matrix::from_rows(2, &[o, z, z, C64::cis(l)]),
            U(t, p, l) => {
                let ct = C64::real((t / 2.0).cos());
                let st = (t / 2.0).sin();
                Matrix::from_rows(
                    2,
                    &[
                        ct,
                        C64::cis(l) * (-st),
                        C64::cis(p) * st,
                        C64::cis(p + l) * ct,
                    ],
                )
            }
            CX | CY | CZ | CH | CRX(_) | CRY(_) | CRZ(_) | CP(_) => {
                let target = match *self {
                    CX => X,
                    CY => Y,
                    CZ => Z,
                    CH => H,
                    CRX(a) => RX(a),
                    CRY(a) => RY(a),
                    CRZ(a) => RZ(a),
                    CP(a) => P(a),
                    _ => unreachable!(),
                };
                controlled(&target.matrix())
            }
            SWAP => {
                let mut m = Matrix::zeros(4);
                m[(0, 0)] = o;
                m[(1, 2)] = o;
                m[(2, 1)] = o;
                m[(3, 3)] = o;
                m
            }
            CCX => {
                let mut m = Matrix::identity(8);
                m[(6, 6)] = z;
                m[(7, 7)] = z;
                m[(6, 7)] = o;
                m[(7, 6)] = o;
                m
            }
            CSWAP => {
                let mut m = Matrix::identity(8);
                m[(5, 5)] = z;
                m[(6, 6)] = z;
                m[(5, 6)] = o;
                m[(6, 5)] = o;
                m
            }
        }
    }
}

/// Structural classification of a gate's unitary, used by simulators to
/// dispatch to specialized kernels instead of dense matrix multiplication.
///
/// The variants mirror how the amplitudes actually move: diagonal gates are
/// pure phase multiplies, `FlipX`-shaped gates are index permutations, and
/// only genuinely dense 2x2 blocks need a butterfly update. Operand roles
/// follow the gate's own operand order: for controlled variants operand 0 is
/// the control, and for [`GateKind::ControlledSwap`] operands 1 and 2 are
/// exchanged.
///
/// ```
/// use qcir::gate::{Gate, GateKind};
/// assert!(matches!(Gate::CX.kind(), GateKind::ControlledFlipX));
/// assert!(matches!(Gate::Z.kind(), GateKind::Diagonal1 { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateKind {
    /// The identity: nothing to do.
    Identity,
    /// `diag(d0, d1)` on one qubit (Z, S, T, P, RZ and their inverses).
    Diagonal1 {
        /// Phase on the |0> component.
        d0: C64,
        /// Phase on the |1> component.
        d1: C64,
    },
    /// Pauli-X: swaps the |0> and |1> amplitudes of one qubit.
    FlipX,
    /// A dense single-qubit unitary, row-major `[m00, m01, m10, m11]`.
    Dense1 {
        /// Row-major 2x2 matrix entries.
        m: [C64; 4],
    },
    /// `diag(d0, d1)` on operand 1, applied when operand 0 is set
    /// (CZ, CP, CRZ).
    ControlledDiagonal1 {
        /// Phase on the target's |0> component within the control subspace.
        d0: C64,
        /// Phase on the target's |1> component within the control subspace.
        d1: C64,
    },
    /// CX: flips operand 1 when operand 0 is set.
    ControlledFlipX,
    /// A dense single-qubit unitary on operand 1 when operand 0 is set
    /// (CY, CH, CRX, CRY).
    ControlledDense1 {
        /// Row-major 2x2 matrix entries of the target unitary.
        m: [C64; 4],
    },
    /// Exchanges the amplitudes of operands 0 and 1.
    Swap,
    /// Toffoli: flips operand 2 when operands 0 and 1 are both set.
    DoublyControlledFlipX,
    /// Fredkin: exchanges operands 1 and 2 when operand 0 is set.
    ControlledSwap,
}

/// Test-only instrumentation counting [`Gate::kind`] calls (debug builds
/// only; compiled out of release binaries so the hot path pays nothing).
///
/// The compiled-plan layer in `qsim` promises that warm cached-plan runs
/// perform **zero** `kind()` calls — classification happens once at plan
/// compile time, never per gate application. These counters let an
/// integration test pin that promise: [`kind_stats::reset`] before the warm
/// run, [`kind_stats::calls`] after, assert zero. The counter is a single
/// relaxed atomic shared by all threads, so tests that read it must run in
/// their own test binary (no concurrent `kind()` callers).
#[cfg(debug_assertions)]
pub mod kind_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static CALLS: AtomicU64 = AtomicU64::new(0);

    /// Number of [`super::Gate::kind`] calls since the last [`reset`].
    pub fn calls() -> u64 {
        CALLS.load(Ordering::Relaxed)
    }

    /// Zeroes the call counter.
    pub fn reset() {
        CALLS.store(0, Ordering::Relaxed);
    }

    pub(super) fn record() {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

impl Gate {
    /// Classifies the gate's unitary structure for kernel dispatch.
    ///
    /// Allocation-free (returns matrix entries inline), so simulators can
    /// call it per gate application. The returned entries agree exactly with
    /// [`Gate::matrix`].
    pub fn kind(&self) -> GateKind {
        use Gate::*;
        #[cfg(debug_assertions)]
        kind_stats::record();
        let o = C64::ONE;
        let i = C64::I;
        let h = C64::real(FRAC_1_SQRT_2);
        match *self {
            Id => GateKind::Identity,
            X => GateKind::FlipX,
            Z => GateKind::Diagonal1 { d0: o, d1: -o },
            S => GateKind::Diagonal1 { d0: o, d1: i },
            Sdg => GateKind::Diagonal1 { d0: o, d1: -i },
            T => GateKind::Diagonal1 {
                d0: o,
                d1: C64::cis(std::f64::consts::FRAC_PI_4),
            },
            Tdg => GateKind::Diagonal1 {
                d0: o,
                d1: C64::cis(-std::f64::consts::FRAC_PI_4),
            },
            P(l) => GateKind::Diagonal1 {
                d0: o,
                d1: C64::cis(l),
            },
            RZ(t) => GateKind::Diagonal1 {
                d0: C64::cis(-t / 2.0),
                d1: C64::cis(t / 2.0),
            },
            H => GateKind::Dense1 { m: [h, h, h, -h] },
            Y => GateKind::Dense1 {
                m: [C64::ZERO, -i, i, C64::ZERO],
            },
            SX => {
                let a = C64::new(0.5, 0.5);
                let b = C64::new(0.5, -0.5);
                GateKind::Dense1 { m: [a, b, b, a] }
            }
            RX(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                GateKind::Dense1 { m: [c, s, s, c] }
            }
            RY(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::real((t / 2.0).sin());
                GateKind::Dense1 { m: [c, -s, s, c] }
            }
            U(t, p, l) => {
                let ct = C64::real((t / 2.0).cos());
                let st = (t / 2.0).sin();
                GateKind::Dense1 {
                    m: [
                        ct,
                        C64::cis(l) * (-st),
                        C64::cis(p) * st,
                        C64::cis(p + l) * ct,
                    ],
                }
            }
            CX => GateKind::ControlledFlipX,
            CZ => GateKind::ControlledDiagonal1 { d0: o, d1: -o },
            CP(l) => GateKind::ControlledDiagonal1 {
                d0: o,
                d1: C64::cis(l),
            },
            CRZ(t) => GateKind::ControlledDiagonal1 {
                d0: C64::cis(-t / 2.0),
                d1: C64::cis(t / 2.0),
            },
            CY | CH | CRX(_) | CRY(_) => {
                let target = match *self {
                    CY => Y,
                    CH => H,
                    CRX(a) => RX(a),
                    CRY(a) => RY(a),
                    _ => unreachable!(),
                };
                match target.kind() {
                    GateKind::Dense1 { m } => GateKind::ControlledDense1 { m },
                    _ => unreachable!("controlled targets above are all dense"),
                }
            }
            SWAP => GateKind::Swap,
            CCX => GateKind::DoublyControlledFlipX,
            CSWAP => GateKind::ControlledSwap,
        }
    }
}

/// Embeds a single-qubit unitary as a controlled two-qubit unitary, control
/// on the first (most significant) qubit.
fn controlled(u: &Matrix) -> Matrix {
    assert_eq!(u.dim(), 2);
    let mut m = Matrix::identity(4);
    for r in 0..2 {
        for c in 0..2 {
            m[(2 + r, 2 + c)] = u.get(r, c);
        }
    }
    m[(2, 3)] = u.get(0, 1);
    m[(3, 2)] = u.get(1, 0);
    m[(2, 2)] = u.get(0, 0);
    m[(3, 3)] = u.get(1, 1);
    m
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format!("{p}")).collect();
            write!(f, "{}({})", self.name(), rendered.join(", "))
        }
    }
}

/// Iterates over every parameterless gate (used by property tests and the
/// corruption channels to pick substitutes).
pub fn all_parameterless() -> Vec<Gate> {
    use Gate::*;
    vec![
        Id, H, X, Y, Z, S, Sdg, T, Tdg, SX, CX, CY, CZ, CH, SWAP, CCX, CSWAP,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_matrix_is_unitary() {
        let mut gates = all_parameterless();
        gates.extend([
            Gate::RX(0.3),
            Gate::RY(1.1),
            Gate::RZ(-0.7),
            Gate::P(2.2),
            Gate::U(0.4, 1.3, -0.9),
            Gate::CRX(0.3),
            Gate::CRY(0.5),
            Gate::CRZ(-1.3),
            Gate::CP(0.8),
        ]);
        for g in gates {
            let m = g.matrix();
            assert!(m.is_unitary(1e-10), "{g} is not unitary");
            assert_eq!(m.dim(), 1 << g.num_qubits());
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let gates = [
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::SX,
            Gate::RX(0.37),
            Gate::RZ(-1.2),
            Gate::U(0.4, 1.3, -0.9),
            Gate::CX,
            Gate::CRZ(0.6),
            Gate::CCX,
            Gate::CSWAP,
        ];
        for g in gates {
            let m = g.matrix().matmul(&g.inverse().matrix());
            let id = Matrix::identity(m.dim());
            assert!(
                m.approx_eq_up_to_phase(&id, 1e-9),
                "{g} * inverse != identity"
            );
        }
    }

    #[test]
    fn name_round_trips() {
        let mut gates = all_parameterless();
        gates.extend([
            Gate::RX(0.3),
            Gate::RY(1.1),
            Gate::RZ(-0.7),
            Gate::P(2.2),
            Gate::U(0.4, 1.3, -0.9),
            Gate::CRX(0.3),
            Gate::CRY(0.5),
            Gate::CRZ(-1.3),
            Gate::CP(0.8),
        ]);
        for g in gates {
            assert_eq!(Gate::from_name(g.name(), &g.params()), Some(g));
        }
        assert_eq!(Gate::from_name("rz", &[]), None);
        assert_eq!(Gate::from_name("nope", &[]), None);
        // Every library row builds a gate named by the row, or by the row's
        // replacement for a legacy name.
        for row in &crate::api::GATES {
            let gate = row.build(&[0.3, 1.1, -0.9][..row.params]).unwrap();
            assert_eq!(gate.name(), row.replacement.unwrap_or(row.name));
            if row.replacement.is_none() {
                assert_eq!(gate.num_params(), row.params, "{}", row.name);
            }
        }
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H.is_clifford());
        assert!(Gate::CX.is_clifford());
        assert!(Gate::S.is_clifford());
        assert!(!Gate::T.is_clifford());
        assert!(!Gate::CCX.is_clifford());
        assert!(!Gate::RZ(0.1).is_clifford());
    }

    #[test]
    fn ccx_flips_target_only_when_both_controls_set() {
        let m = Gate::CCX.matrix();
        // |110> -> |111>
        assert!(m.get(7, 6).approx_eq(C64::ONE, 1e-12));
        // |100> unchanged
        assert!(m.get(4, 4).approx_eq(C64::ONE, 1e-12));
    }

    /// Rebuilds the dense unitary a [`GateKind`] describes, for checking the
    /// classification against [`Gate::matrix`].
    fn kind_matrix(gate: Gate) -> Matrix {
        let o = C64::ONE;
        let z = C64::ZERO;
        let embed_controlled = |m: [C64; 4]| {
            let mut u = Matrix::identity(4);
            u[(2, 2)] = m[0];
            u[(2, 3)] = m[1];
            u[(3, 2)] = m[2];
            u[(3, 3)] = m[3];
            u
        };
        match gate.kind() {
            GateKind::Identity => Matrix::identity(2),
            GateKind::Diagonal1 { d0, d1 } => Matrix::from_rows(2, &[d0, z, z, d1]),
            GateKind::FlipX => Matrix::from_rows(2, &[z, o, o, z]),
            GateKind::Dense1 { m } => Matrix::from_rows(2, &m),
            GateKind::ControlledDiagonal1 { d0, d1 } => embed_controlled([d0, z, z, d1]),
            GateKind::ControlledFlipX => embed_controlled([z, o, o, z]),
            GateKind::ControlledDense1 { m } => embed_controlled(m),
            GateKind::Swap | GateKind::DoublyControlledFlipX | GateKind::ControlledSwap => {
                gate.matrix()
            }
        }
    }

    #[test]
    fn kind_agrees_with_matrix_for_every_gate() {
        let mut gates = all_parameterless();
        gates.extend([
            Gate::RX(0.3),
            Gate::RY(1.1),
            Gate::RZ(-0.7),
            Gate::P(2.2),
            Gate::U(0.4, 1.3, -0.9),
            Gate::CRX(0.3),
            Gate::CRY(0.5),
            Gate::CRZ(-1.3),
            Gate::CP(0.8),
        ]);
        for g in gates {
            assert!(
                kind_matrix(g).approx_eq(&g.matrix(), 0.0),
                "{g} kind disagrees with matrix"
            );
        }
    }

    #[test]
    fn kind_structural_buckets() {
        assert_eq!(Gate::Id.kind(), GateKind::Identity);
        assert!(matches!(Gate::T.kind(), GateKind::Diagonal1 { .. }));
        assert!(matches!(Gate::RZ(0.5).kind(), GateKind::Diagonal1 { .. }));
        assert_eq!(Gate::X.kind(), GateKind::FlipX);
        assert!(matches!(Gate::H.kind(), GateKind::Dense1 { .. }));
        assert!(matches!(
            Gate::CZ.kind(),
            GateKind::ControlledDiagonal1 { .. }
        ));
        assert_eq!(Gate::CX.kind(), GateKind::ControlledFlipX);
        assert!(matches!(Gate::CH.kind(), GateKind::ControlledDense1 { .. }));
        assert_eq!(Gate::SWAP.kind(), GateKind::Swap);
        assert_eq!(Gate::CCX.kind(), GateKind::DoublyControlledFlipX);
        assert_eq!(Gate::CSWAP.kind(), GateKind::ControlledSwap);
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert_eq!(Gate::RZ(0.5).to_string(), "rz(0.5)");
    }
}
