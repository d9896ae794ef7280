//! The [`Circuit`] intermediate representation.
//!
//! A circuit is an ordered list of operations over `num_qubits` qubits and
//! `num_clbits` classical bits. The builder API mirrors Qiskit's
//! `QuantumCircuit` closely (`h`, `cx`, `measure`, …) so that reference
//! algorithms in `qalgo` read like their Qiskit counterparts.

use crate::gate::Gate;
use std::collections::BTreeMap;
use std::fmt;

/// A single circuit operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Apply `gate` to the listed qubits (control(s) first, target last).
    Gate { gate: Gate, qubits: Vec<usize> },
    /// Measure a qubit into a classical bit (computational basis).
    Measure { qubit: usize, clbit: usize },
    /// Reset a qubit to |0>.
    Reset { qubit: usize },
    /// Scheduling barrier over the listed qubits (semantics: no-op).
    Barrier { qubits: Vec<usize> },
    /// Classically-controlled gate: applied iff `clbit` last measured `value`.
    CondGate {
        gate: Gate,
        qubits: Vec<usize>,
        clbit: usize,
        value: bool,
    },
}

impl Op {
    /// Qubits touched by this operation.
    pub fn qubits(&self) -> &[usize] {
        match self {
            Op::Gate { qubits, .. } | Op::Barrier { qubits } | Op::CondGate { qubits, .. } => {
                qubits
            }
            Op::Measure { qubit, .. } | Op::Reset { qubit } => std::slice::from_ref(qubit),
        }
    }

    /// `true` for measurement operations.
    pub fn is_measure(&self) -> bool {
        matches!(self, Op::Measure { .. })
    }
}

/// An error produced by fallible circuit construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A qubit index was out of range.
    QubitOutOfRange { index: usize, num_qubits: usize },
    /// A classical bit index was out of range.
    ClbitOutOfRange { index: usize, num_clbits: usize },
    /// The same qubit appeared twice in one multi-qubit gate.
    DuplicateQubit { index: usize },
    /// The gate arity did not match the number of qubit operands.
    ArityMismatch { expected: usize, got: usize },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { index, num_qubits } => {
                write!(
                    f,
                    "qubit index {index} out of range for {num_qubits} qubits"
                )
            }
            CircuitError::ClbitOutOfRange { index, num_clbits } => {
                write!(
                    f,
                    "classical bit index {index} out of range for {num_clbits} bits"
                )
            }
            CircuitError::DuplicateQubit { index } => {
                write!(f, "qubit {index} used more than once in a single gate")
            }
            CircuitError::ArityMismatch { expected, got } => {
                write!(f, "gate expects {expected} qubits but {got} were given")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A quantum circuit: qubits, classical bits and an ordered operation list.
///
/// ```
/// use qcir::circuit::Circuit;
/// let mut qc = Circuit::new(3, 3);
/// qc.h(0).cx(0, 1).cx(1, 2);
/// qc.measure_all();
/// assert_eq!(qc.len(), 6);
/// assert_eq!(qc.count_gate("cx"), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit with the given register sizes.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Operation list, in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates and appends an operation.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when indices are out of range, duplicated
    /// within one gate, or the operand count does not match the gate arity.
    pub fn try_push(&mut self, op: Op) -> Result<(), CircuitError> {
        match &op {
            Op::Gate { gate, qubits } | Op::CondGate { gate, qubits, .. } => {
                if qubits.len() != gate.num_qubits() {
                    return Err(CircuitError::ArityMismatch {
                        expected: gate.num_qubits(),
                        got: qubits.len(),
                    });
                }
                for (i, &q) in qubits.iter().enumerate() {
                    if q >= self.num_qubits {
                        return Err(CircuitError::QubitOutOfRange {
                            index: q,
                            num_qubits: self.num_qubits,
                        });
                    }
                    if qubits[..i].contains(&q) {
                        return Err(CircuitError::DuplicateQubit { index: q });
                    }
                }
                if let Op::CondGate { clbit, .. } = &op {
                    if *clbit >= self.num_clbits {
                        return Err(CircuitError::ClbitOutOfRange {
                            index: *clbit,
                            num_clbits: self.num_clbits,
                        });
                    }
                }
            }
            Op::Measure { qubit, clbit } => {
                if *qubit >= self.num_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        index: *qubit,
                        num_qubits: self.num_qubits,
                    });
                }
                if *clbit >= self.num_clbits {
                    return Err(CircuitError::ClbitOutOfRange {
                        index: *clbit,
                        num_clbits: self.num_clbits,
                    });
                }
            }
            Op::Reset { qubit } => {
                if *qubit >= self.num_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        index: *qubit,
                        num_qubits: self.num_qubits,
                    });
                }
            }
            Op::Barrier { qubits } => {
                for &q in qubits {
                    if q >= self.num_qubits {
                        return Err(CircuitError::QubitOutOfRange {
                            index: q,
                            num_qubits: self.num_qubits,
                        });
                    }
                }
            }
        }
        self.ops.push(op);
        Ok(())
    }

    /// Appends a gate, panicking on invalid operands.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions [`Circuit::try_push`] errors; the
    /// builder methods below are intended for statically-known-good circuits
    /// (reference algorithms), while generated code goes through `try_push`.
    pub fn push_gate(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.try_push(Op::Gate {
            gate,
            qubits: qubits.to_vec(),
        })
        .expect("invalid gate operands");
        self
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::H, &[q])
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::X, &[q])
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Y, &[q])
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Z, &[q])
    }

    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::S, &[q])
    }

    /// S-dagger on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Sdg, &[q])
    }

    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::T, &[q])
    }

    /// T-dagger on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Tdg, &[q])
    }

    /// X-rotation on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::RX(theta), &[q])
    }

    /// Y-rotation on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::RY(theta), &[q])
    }

    /// Z-rotation on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::RZ(theta), &[q])
    }

    /// Phase gate on `q`.
    pub fn p(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::P(lambda), &[q])
    }

    /// General single-qubit unitary on `q`.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::U(theta, phi, lambda), &[q])
    }

    /// CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push_gate(Gate::CX, &[control, target])
    }

    /// Controlled-Y.
    pub fn cy(&mut self, control: usize, target: usize) -> &mut Self {
        self.push_gate(Gate::CY, &[control, target])
    }

    /// Controlled-Z.
    pub fn cz(&mut self, control: usize, target: usize) -> &mut Self {
        self.push_gate(Gate::CZ, &[control, target])
    }

    /// Controlled-H.
    pub fn ch(&mut self, control: usize, target: usize) -> &mut Self {
        self.push_gate(Gate::CH, &[control, target])
    }

    /// Swap two qubits.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::SWAP, &[a, b])
    }

    /// Controlled phase.
    pub fn cp(&mut self, lambda: f64, control: usize, target: usize) -> &mut Self {
        self.push_gate(Gate::CP(lambda), &[control, target])
    }

    /// Controlled RZ.
    pub fn crz(&mut self, theta: f64, control: usize, target: usize) -> &mut Self {
        self.push_gate(Gate::CRZ(theta), &[control, target])
    }

    /// Toffoli gate.
    pub fn ccx(&mut self, c0: usize, c1: usize, target: usize) -> &mut Self {
        self.push_gate(Gate::CCX, &[c0, c1, target])
    }

    /// Fredkin gate.
    pub fn cswap(&mut self, control: usize, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::CSWAP, &[control, a, b])
    }

    /// Measures `qubit` into `clbit`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> &mut Self {
        self.try_push(Op::Measure { qubit, clbit })
            .expect("invalid measure operands");
        self
    }

    /// Measures qubit `i` into classical bit `i` for all qubits.
    ///
    /// # Panics
    ///
    /// Panics when `num_clbits < num_qubits`.
    pub fn measure_all(&mut self) -> &mut Self {
        assert!(
            self.num_clbits >= self.num_qubits,
            "measure_all needs at least as many classical bits as qubits"
        );
        for q in 0..self.num_qubits {
            self.measure(q, q);
        }
        self
    }

    /// Resets `qubit` to |0>.
    pub fn reset(&mut self, qubit: usize) -> &mut Self {
        self.try_push(Op::Reset { qubit }).expect("invalid reset");
        self
    }

    /// Barrier across all qubits.
    pub fn barrier_all(&mut self) -> &mut Self {
        let qubits: Vec<usize> = (0..self.num_qubits).collect();
        self.try_push(Op::Barrier { qubits }).expect("barrier");
        self
    }

    /// Classically-conditioned gate: applies `gate` when `clbit == value`.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn cond_gate(
        &mut self,
        gate: Gate,
        qubits: &[usize],
        clbit: usize,
        value: bool,
    ) -> &mut Self {
        self.try_push(Op::CondGate {
            gate,
            qubits: qubits.to_vec(),
            clbit,
            value,
        })
        .expect("invalid conditional gate");
        self
    }

    /// Appends all operations of `other` (registers must be compatible).
    ///
    /// # Panics
    ///
    /// Panics when `other` uses more qubits or clbits than `self` has.
    pub fn compose(&mut self, other: &Circuit) -> &mut Self {
        assert!(other.num_qubits <= self.num_qubits);
        assert!(other.num_clbits <= self.num_clbits);
        self.ops.extend(other.ops.iter().cloned());
        self
    }

    /// Returns the inverse of the unitary portion of this circuit.
    ///
    /// Measurements, resets and conditionals are skipped (they have no
    /// inverse); barriers are preserved in reversed position.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.num_qubits, self.num_clbits);
        for op in self.ops.iter().rev() {
            match op {
                Op::Gate { gate, qubits } => {
                    inv.ops.push(Op::Gate {
                        gate: gate.inverse(),
                        qubits: qubits.clone(),
                    });
                }
                Op::Barrier { qubits } => inv.ops.push(Op::Barrier {
                    qubits: qubits.clone(),
                }),
                _ => {}
            }
        }
        inv
    }

    /// Circuit depth: longest chain of operations per qubit/clbit timeline.
    /// Barriers synchronise but do not add depth.
    pub fn depth(&self) -> usize {
        let mut qdepth = vec![0usize; self.num_qubits];
        let mut cdepth = vec![0usize; self.num_clbits];
        for op in &self.ops {
            match op {
                Op::Barrier { qubits } => {
                    let level = qubits.iter().map(|&q| qdepth[q]).max().unwrap_or(0);
                    for &q in qubits {
                        qdepth[q] = level;
                    }
                }
                Op::Measure { qubit, clbit } => {
                    let level = qdepth[*qubit].max(cdepth[*clbit]) + 1;
                    qdepth[*qubit] = level;
                    cdepth[*clbit] = level;
                }
                Op::Reset { qubit } => {
                    qdepth[*qubit] += 1;
                }
                Op::Gate { qubits, .. } => {
                    let level = qubits.iter().map(|&q| qdepth[q]).max().unwrap_or(0) + 1;
                    for &q in qubits {
                        qdepth[q] = level;
                    }
                }
                Op::CondGate { qubits, clbit, .. } => {
                    let level = qubits
                        .iter()
                        .map(|&q| qdepth[q])
                        .max()
                        .unwrap_or(0)
                        .max(cdepth[*clbit])
                        + 1;
                    for &q in qubits {
                        qdepth[q] = level;
                    }
                    cdepth[*clbit] = level;
                }
            }
        }
        qdepth.into_iter().chain(cdepth).max().unwrap_or(0)
    }

    /// Per-gate-name operation counts (measure/reset/barrier excluded).
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for op in &self.ops {
            if let Op::Gate { gate, .. } | Op::CondGate { gate, .. } = op {
                *counts.entry(gate.name()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Count of a specific gate by canonical name.
    pub fn count_gate(&self, name: &str) -> usize {
        self.gate_counts().get(name).copied().unwrap_or(0)
    }

    /// Number of measurement operations.
    pub fn num_measurements(&self) -> usize {
        self.ops.iter().filter(|op| op.is_measure()).count()
    }

    /// `true` when every operation is Clifford (plus measure/reset/barrier),
    /// so the circuit is stabilizer-simulable.
    pub fn is_clifford(&self) -> bool {
        self.ops.iter().all(|op| match op {
            Op::Gate { gate, .. } | Op::CondGate { gate, .. } => gate.is_clifford(),
            _ => true,
        })
    }

    /// `true` when the circuit contains no measurement into classical bits,
    /// i.e. it is a pure unitary (barriers/resets excluded too).
    pub fn is_unitary_only(&self) -> bool {
        self.ops
            .iter()
            .all(|op| matches!(op, Op::Gate { .. } | Op::Barrier { .. }))
    }
}

impl Extend<Op> for Circuit {
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        for op in iter {
            self.try_push(op).expect("invalid op in extend");
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::fmt::to_qasmlite(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        assert_eq!(qc.len(), 4);
        assert_eq!(qc.num_measurements(), 2);
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut qc = Circuit::new(2, 1);
        let err = qc
            .try_push(Op::Gate {
                gate: Gate::H,
                qubits: vec![5],
            })
            .unwrap_err();
        assert_eq!(
            err,
            CircuitError::QubitOutOfRange {
                index: 5,
                num_qubits: 2
            }
        );
    }

    #[test]
    fn try_push_rejects_duplicate_qubits() {
        let mut qc = Circuit::new(2, 0);
        let err = qc
            .try_push(Op::Gate {
                gate: Gate::CX,
                qubits: vec![1, 1],
            })
            .unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit { index: 1 });
    }

    #[test]
    fn try_push_rejects_arity_mismatch() {
        let mut qc = Circuit::new(3, 0);
        let err = qc
            .try_push(Op::Gate {
                gate: Gate::CX,
                qubits: vec![0, 1, 2],
            })
            .unwrap_err();
        assert_eq!(
            err,
            CircuitError::ArityMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn try_push_rejects_bad_clbit() {
        let mut qc = Circuit::new(1, 1);
        let err = qc.try_push(Op::Measure { qubit: 0, clbit: 3 }).unwrap_err();
        assert_eq!(
            err,
            CircuitError::ClbitOutOfRange {
                index: 3,
                num_clbits: 1
            }
        );
    }

    #[test]
    fn depth_counts_parallel_gates_once() {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).h(1); // parallel layer
        assert_eq!(qc.depth(), 1);
        qc.cx(0, 1);
        assert_eq!(qc.depth(), 2);
    }

    #[test]
    fn depth_of_bell_with_measures() {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut qc = Circuit::new(1, 0);
        qc.h(0).s(0).t(0);
        let inv = qc.inverse();
        let names: Vec<&str> = inv
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate { gate, .. } => gate.name(),
                _ => "?",
            })
            .collect();
        assert_eq!(names, vec!["tdg", "sdg", "h"]);
    }

    #[test]
    fn gate_counts_and_clifford() {
        let mut qc = Circuit::new(3, 0);
        qc.h(0).cx(0, 1).cx(1, 2).t(2);
        assert_eq!(qc.count_gate("cx"), 2);
        assert_eq!(qc.count_gate("h"), 1);
        assert!(!qc.is_clifford());
        let mut cliff = Circuit::new(2, 0);
        cliff.h(0).cx(0, 1).s(1);
        assert!(cliff.is_clifford());
        // Measurement and classical control stay Clifford; a conditioned
        // non-Clifford gate does not.
        let mut dynamic = Circuit::new(1, 1);
        dynamic.measure(0, 0);
        dynamic.cond_gate(Gate::X, &[0], 0, true);
        assert!(dynamic.is_clifford());
        dynamic.cond_gate(Gate::T, &[0], 0, true);
        assert!(!dynamic.is_clifford());
    }

    #[test]
    fn compose_appends() {
        let mut a = Circuit::new(2, 2);
        a.h(0);
        let mut b = Circuit::new(2, 2);
        b.cx(0, 1);
        a.compose(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "measure_all")]
    fn measure_all_requires_clbits() {
        let mut qc = Circuit::new(3, 1);
        qc.measure_all();
    }
}
