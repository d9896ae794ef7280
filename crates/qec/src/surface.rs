//! The rotated surface code.
//!
//! Distance-`d` rotated surface code on a `d x d` data-qubit grid. X-type
//! plaquettes (yellow in the paper's Figure 2) detect Z errors; Z-type
//! plaquettes (blue) detect X errors. Weight-2 boundary stabilizers sit on
//! the top/bottom rows (X-type) and left/right columns (Z-type).
//!
//! [`SurfaceCode::memory_circuit`] lowers the code to an executable
//! Clifford [`Circuit`] (one ancilla per stabilizer, repeated
//! syndrome-extraction rounds, transversal data readout) so logical-memory
//! experiments can run through `qsim`'s tableau backend at distances where
//! dense simulation is impossible.

use qcir::circuit::Circuit;
use qsim::word::{OutcomeWord, ParityMap};
use std::fmt;

/// Which Pauli type a stabilizer measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StabKind {
    /// X-type plaquette: product of X on its data qubits; detects Z errors.
    X,
    /// Z-type plaquette: product of Z on its data qubits; detects X errors.
    Z,
}

/// One stabilizer generator: its type and data-qubit support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stabilizer {
    /// X or Z type.
    pub kind: StabKind,
    /// Data-qubit indices (2 on the boundary, 4 in the bulk).
    pub support: Vec<usize>,
    /// Plaquette anchor in the vertex grid (row, col), for rendering.
    pub anchor: (usize, usize),
}

/// A rotated surface code lattice.
///
/// ```
/// use qec::surface::SurfaceCode;
/// let code = SurfaceCode::new(5);
/// assert_eq!(code.num_data(), 25);
/// assert_eq!(code.num_stabilizers(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceCode {
    d: usize,
    stabilizers: Vec<Stabilizer>,
}

impl SurfaceCode {
    /// Builds the distance-`d` code.
    ///
    /// # Panics
    ///
    /// Panics unless `d` is odd and at least 3.
    pub fn new(d: usize) -> Self {
        assert!(d >= 3 && d % 2 == 1, "distance must be odd and >= 3");
        let mut stabilizers = Vec::new();
        // Vertex grid (d+1) x (d+1); plaquette (r, c) touches data qubits
        // (r-1, c-1), (r-1, c), (r, c-1), (r, c) clipped to the lattice.
        for r in 0..=d {
            for c in 0..=d {
                let mut support = Vec::new();
                for (dr, dc) in [(0i64, 0i64), (0, -1), (-1, 0), (-1, -1)] {
                    let rr = r as i64 + dr;
                    let cc = c as i64 + dc;
                    if (0..d as i64).contains(&rr) && (0..d as i64).contains(&cc) {
                        support.push((rr as usize) * d + cc as usize);
                    }
                }
                if support.len() < 2 {
                    continue; // corners
                }
                let kind = if (r + c) % 2 == 0 {
                    StabKind::Z
                } else {
                    StabKind::X
                };
                // Boundary rule: weight-2 plaquettes survive only on the
                // matching boundary (X on top/bottom, Z on left/right).
                if support.len() == 2 {
                    let on_top_bottom = r == 0 || r == d;
                    let on_left_right = c == 0 || c == d;
                    let keep = match kind {
                        StabKind::X => on_top_bottom && !on_left_right,
                        StabKind::Z => on_left_right && !on_top_bottom,
                    };
                    if !keep {
                        continue;
                    }
                }
                support.sort_unstable();
                stabilizers.push(Stabilizer {
                    kind,
                    support,
                    anchor: (r, c),
                });
            }
        }
        let code = SurfaceCode { d, stabilizers };
        debug_assert_eq!(code.num_stabilizers(), d * d - 1);
        code
    }

    /// Code distance.
    pub fn distance(&self) -> usize {
        self.d
    }

    /// Number of data qubits (`d^2`).
    pub fn num_data(&self) -> usize {
        self.d * self.d
    }

    /// Total stabilizer generators (`d^2 - 1`).
    pub fn num_stabilizers(&self) -> usize {
        self.stabilizers.len()
    }

    /// All stabilizers.
    pub fn stabilizers(&self) -> &[Stabilizer] {
        &self.stabilizers
    }

    /// X-type stabilizers only.
    pub fn x_stabilizers(&self) -> Vec<&Stabilizer> {
        self.stabilizers
            .iter()
            .filter(|s| s.kind == StabKind::X)
            .collect()
    }

    /// Z-type stabilizers only.
    pub fn z_stabilizers(&self) -> Vec<&Stabilizer> {
        self.stabilizers
            .iter()
            .filter(|s| s.kind == StabKind::Z)
            .collect()
    }

    /// Data-qubit index at grid position `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn data_at(&self, row: usize, col: usize) -> usize {
        assert!(row < self.d && col < self.d);
        row * self.d + col
    }

    /// Support of the logical Z operator: the middle row.
    ///
    /// Interior rows overlap every bulk X plaquette in exactly 0 or 2
    /// qubits and never touch the top/bottom X bumps, so a horizontal Z
    /// string there commutes with the whole stabilizer group. (The
    /// staggered boundary bumps of the rotated layout make the *edge*
    /// rows/columns invalid as straight logicals.)
    pub fn logical_z(&self) -> Vec<usize> {
        let r = self.d / 2;
        (0..self.d).map(|c| self.data_at(r, c)).collect()
    }

    /// Support of the logical X operator: the middle column (overlaps the
    /// logical Z in exactly one qubit, so they anticommute).
    pub fn logical_x(&self) -> Vec<usize> {
        let c = self.d / 2;
        (0..self.d).map(|r| self.data_at(r, c)).collect()
    }

    /// Computes the Z-stabilizer syndrome of an X-error pattern
    /// (bit `i` of the result = parity of errors on Z-stabilizer `i`'s
    /// support, indexing [`SurfaceCode::z_stabilizers`] order).
    pub fn z_syndrome(&self, x_errors: &[bool]) -> Vec<bool> {
        self.z_stabilizers()
            .iter()
            .map(|s| s.support.iter().filter(|&&q| x_errors[q]).count() % 2 == 1)
            .collect()
    }

    /// Whether an X-error pattern (after correction) implements a logical X
    /// flip: odd overlap with the logical Z support.
    pub fn is_logical_x_flip(&self, x_errors: &[bool]) -> bool {
        self.logical_z().iter().filter(|&&q| x_errors[q]).count() % 2 == 1
    }

    /// Lowers the code to an executable syndrome-extraction memory circuit
    /// over `num_data + num_stabilizers` qubits (data qubits first, one
    /// ancilla per stabilizer): `rounds` rounds of stabilizer measurement
    /// followed by a transversal Z-basis data readout.
    ///
    /// Per round, every Z-type ancilla is reset, accumulates its support's
    /// X-error parity through data→ancilla CNOTs and is measured into a
    /// classical bit; every X-type ancilla runs the Hadamard-conjugated
    /// extraction and is projected by an unrecorded reset (this experiment
    /// decodes X errors only, but the X-type extraction still participates
    /// so circuit-level noise propagates realistically). The circuit is
    /// Clifford throughout, so the tableau backend simulates it in
    /// polynomial time — a distance-5 circuit needs 49 qubits, far past any
    /// dense cap.
    ///
    /// # Panics
    ///
    /// Panics when `rounds == 0`. The classical register is unbounded —
    /// outcomes travel as multi-word [`OutcomeWord`]s, so distance-7
    /// circuits (97+ classical bits at two rounds) lower like any other;
    /// the pre-multi-word layer refused anything past 64 bits here.
    pub fn memory_circuit(&self, rounds: usize) -> MemoryCircuit {
        assert!(rounds >= 1, "need at least one extraction round");
        let num_data = self.num_data();
        let num_z = self.z_stabilizers().len();
        let num_clbits = rounds * num_z + num_data;
        let mut qc = Circuit::new(num_data + self.num_stabilizers(), num_clbits);
        for t in 0..rounds {
            qc.barrier_all();
            let mut z_idx = 0usize;
            for (i, s) in self.stabilizers.iter().enumerate() {
                let anc = num_data + i;
                match s.kind {
                    StabKind::Z => {
                        qc.reset(anc);
                        for &q in &s.support {
                            qc.cx(q, anc);
                        }
                        qc.measure(anc, t * num_z + z_idx);
                        z_idx += 1;
                    }
                    StabKind::X => {
                        qc.reset(anc);
                        qc.h(anc);
                        for &q in &s.support {
                            qc.cx(anc, q);
                        }
                        qc.h(anc);
                        // Project the X parity without recording it.
                        qc.reset(anc);
                    }
                }
            }
        }
        for q in 0..num_data {
            qc.measure(q, rounds * num_z + q);
        }
        MemoryCircuit {
            circuit: qc,
            rounds,
            num_z,
            num_data,
        }
    }

    /// Renders the lattice with an error/correction overlay for terminal
    /// output (the Figure 2 illustration). `marks[q]`, when set, draws the
    /// given character at data qubit `q`.
    pub fn render(&self, marks: &[Option<char>]) -> String {
        let mut out = String::new();
        for r in 0..self.d {
            for c in 0..self.d {
                let q = self.data_at(r, c);
                let ch = marks.get(q).copied().flatten().unwrap_or('·');
                out.push(ch);
                if c + 1 < self.d {
                    out.push_str("──");
                }
            }
            out.push('\n');
            if r + 1 < self.d {
                for c in 0..self.d {
                    out.push('│');
                    if c + 1 < self.d {
                        out.push_str("  ");
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

/// An executable memory circuit plus its classical-bit layout, from
/// which it declares its detectors and its logical observable.
///
/// Outcome words pack, low bits first, the per-round Z-stabilizer readouts
/// (`rounds * num_z` bits, in [`SurfaceCode::z_stabilizers`] order) and
/// then the transversal data readout (`d^2` bits).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryCircuit {
    /// The lowered Clifford circuit.
    pub circuit: Circuit,
    /// Syndrome-extraction rounds.
    pub rounds: usize,
    num_z: usize,
    num_data: usize,
}

impl MemoryCircuit {
    /// Classical bit holding round `t`'s readout of Z stabilizer `s`.
    pub fn z_syndrome_bit(&self, round: usize, stab: usize) -> usize {
        assert!(round < self.rounds && stab < self.num_z);
        round * self.num_z + stab
    }

    /// Classical bit holding data qubit `q`'s final readout.
    pub fn data_bit(&self, q: usize) -> usize {
        assert!(q < self.num_data);
        self.rounds * self.num_z + q
    }

    /// Unpacks the per-round measured Z syndromes from an outcome word.
    pub fn z_syndromes(&self, word: &OutcomeWord) -> Vec<Vec<bool>> {
        (0..self.rounds)
            .map(|t| {
                (0..self.num_z)
                    .map(|s| word.bit(self.z_syndrome_bit(t, s)))
                    .collect()
            })
            .collect()
    }

    /// Unpacks the final transversal data readout from an outcome word.
    pub fn data_readout(&self, word: &OutcomeWord) -> Vec<bool> {
        (0..self.num_data)
            .map(|q| word.bit(self.data_bit(q)))
            .collect()
    }

    /// The detectors of this circuit of `code`, as the clbits whose parity
    /// each one is, in the node order of
    /// [`crate::decoder::DecodingGraph::spacetime_x`] over `rounds + 1`
    /// layers: detector `t * num_z + s` is round `t`'s readout of Z
    /// stabilizer `s` XOR round `t - 1`'s (round 0 alone), and the final
    /// layer XORs the last round with the data bits of the stabilizer's
    /// support. A noiseless shot fires none of them, and the detectors
    /// that fire are exactly [`MemoryCircuit::detection_events`].
    pub fn detectors(&self, code: &SurfaceCode) -> Vec<Vec<usize>> {
        let mut detectors = Vec::with_capacity((self.rounds + 1) * self.num_z);
        for t in 0..self.rounds {
            for s in 0..self.num_z {
                let mut clbits = vec![self.z_syndrome_bit(t, s)];
                if t > 0 {
                    clbits.push(self.z_syndrome_bit(t - 1, s));
                }
                detectors.push(clbits);
            }
        }
        for (s, stab) in code.z_stabilizers().iter().enumerate() {
            let mut clbits = vec![self.z_syndrome_bit(self.rounds - 1, s)];
            clbits.extend(stab.support.iter().map(|&q| self.data_bit(q)));
            detectors.push(clbits);
        }
        detectors
    }

    /// The logical observable of this circuit of `code`, as clbits: the
    /// data bits of [`SurfaceCode::logical_z`]. Its parity is the shot's
    /// logical outcome before correction, 0 in a noiseless shot.
    pub fn observable(&self, code: &SurfaceCode) -> Vec<usize> {
        code.logical_z()
            .into_iter()
            .map(|q| self.data_bit(q))
            .collect()
    }

    /// The projection the circuit-level experiment tallies shots by: the
    /// [`MemoryCircuit::observable`] at bit 0, then detector `i` of
    /// [`MemoryCircuit::detectors`] at bit `1 + i`.
    pub fn parity_map(&self, code: &SurfaceCode) -> ParityMap {
        let parities: Vec<Vec<usize>> = std::iter::once(self.observable(code))
            .chain(self.detectors(code))
            .collect();
        ParityMap::new(self.circuit.num_clbits(), &parities)
    }

    /// Detection events for space-time decoding of one outcome word:
    /// round-over-round Z-syndrome differences, with a final layer computed
    /// from the data readout's syndrome (node flattening matches
    /// [`crate::decoder::DecodingGraph::spacetime_x`] over `rounds + 1`
    /// layers).
    pub fn detection_events(&self, code: &SurfaceCode, word: &OutcomeWord) -> Vec<usize> {
        let final_syndrome = code.z_syndrome(&self.data_readout(word));
        let mut events = Vec::new();
        let mut prev = vec![false; self.num_z];
        for (t, cur) in self
            .z_syndromes(word)
            .iter()
            .chain(std::iter::once(&final_syndrome))
            .enumerate()
        {
            for (s, &bit) in cur.iter().enumerate() {
                if bit != prev[s] {
                    events.push(t * self.num_z + s);
                }
            }
            prev.clone_from_slice(cur);
        }
        events
    }
}

impl fmt::Display for SurfaceCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rotated surface code d={} ({} data, {} stabilizers)",
            self.d,
            self.num_data(),
            self.num_stabilizers()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilizer_counts_for_small_distances() {
        for d in [3usize, 5, 7] {
            let code = SurfaceCode::new(d);
            assert_eq!(code.num_stabilizers(), d * d - 1, "d = {d}");
            let x = code.x_stabilizers().len();
            let z = code.z_stabilizers().len();
            assert_eq!(x, z, "d = {d}: balanced types");
            assert_eq!(x + z, d * d - 1);
        }
    }

    #[test]
    fn bulk_stabilizers_have_weight_four() {
        let code = SurfaceCode::new(5);
        let bulk = code
            .stabilizers()
            .iter()
            .filter(|s| s.support.len() == 4)
            .count();
        let boundary = code
            .stabilizers()
            .iter()
            .filter(|s| s.support.len() == 2)
            .count();
        assert_eq!(bulk + boundary, code.num_stabilizers());
        // d=5: 2*(d-1)/2 per boundary side * 2 sides per type = 2(d-1) total.
        assert_eq!(boundary, 2 * (5 - 1));
    }

    #[test]
    fn every_data_qubit_is_covered() {
        let code = SurfaceCode::new(3);
        let mut covered = vec![false; code.num_data()];
        for s in code.stabilizers() {
            for &q in &s.support {
                covered[q] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    fn logical_operators_commute_with_stabilizers() {
        // Logical Z (Z on a column) must share an even number of qubits
        // with every X stabilizer; logical X likewise with Z stabilizers.
        for d in [3usize, 5] {
            let code = SurfaceCode::new(d);
            let lz: std::collections::BTreeSet<usize> = code.logical_z().into_iter().collect();
            for s in code.x_stabilizers() {
                let overlap = s.support.iter().filter(|q| lz.contains(q)).count();
                assert_eq!(
                    overlap % 2,
                    0,
                    "d={d}: logical Z vs X stabilizer {:?}",
                    s.anchor
                );
            }
            let lx: std::collections::BTreeSet<usize> = code.logical_x().into_iter().collect();
            for s in code.z_stabilizers() {
                let overlap = s.support.iter().filter(|q| lx.contains(q)).count();
                assert_eq!(
                    overlap % 2,
                    0,
                    "d={d}: logical X vs Z stabilizer {:?}",
                    s.anchor
                );
            }
        }
    }

    #[test]
    fn logical_operators_anticommute_with_each_other() {
        for d in [3usize, 5, 7] {
            let code = SurfaceCode::new(d);
            let lz: std::collections::BTreeSet<usize> = code.logical_z().into_iter().collect();
            let overlap = code.logical_x().iter().filter(|q| lz.contains(q)).count();
            assert_eq!(overlap % 2, 1, "d={d}");
        }
    }

    #[test]
    fn single_x_error_flags_adjacent_z_stabilizers() {
        let code = SurfaceCode::new(3);
        let mut errors = vec![false; code.num_data()];
        errors[code.data_at(1, 1)] = true; // bulk qubit
        let syndrome = code.z_syndrome(&errors);
        let flagged = syndrome.iter().filter(|&&b| b).count();
        // A bulk qubit touches exactly 2 Z-type plaquettes.
        assert_eq!(flagged, 2);
    }

    #[test]
    fn stabilizer_pattern_of_x_errors_has_zero_syndrome() {
        // Applying X on a Z-stabilizer support is... wrong test; use an
        // X-stabilizer support: X errors matching an X stabilizer are a
        // stabilizer action and must be syndrome-free AND not logical.
        let code = SurfaceCode::new(3);
        let xs = code.x_stabilizers();
        let s = xs
            .iter()
            .find(|s| s.support.len() == 4)
            .expect("bulk X stab");
        let mut errors = vec![false; code.num_data()];
        for &q in &s.support {
            errors[q] = true;
        }
        let syndrome = code.z_syndrome(&errors);
        assert!(
            syndrome.iter().all(|&b| !b),
            "stabilizer has trivial syndrome"
        );
        assert!(!code.is_logical_x_flip(&errors));
    }

    #[test]
    fn logical_x_support_is_undetected_and_flips() {
        let code = SurfaceCode::new(3);
        let mut errors = vec![false; code.num_data()];
        for q in code.logical_x() {
            errors[q] = true; // X errors along the vertical logical-X string
        }
        let syndrome = code.z_syndrome(&errors);
        assert!(syndrome.iter().all(|&b| !b), "logical op is undetectable");
        assert!(code.is_logical_x_flip(&errors));
    }

    #[test]
    fn any_interior_column_is_an_equivalent_logical_x() {
        let code = SurfaceCode::new(5);
        for col in 1..4 {
            let mut errors = vec![false; code.num_data()];
            for r in 0..5 {
                errors[code.data_at(r, col)] = true;
            }
            let syndrome = code.z_syndrome(&errors);
            assert!(
                syndrome.iter().all(|&b| !b),
                "column {col} should be undetected"
            );
            assert!(code.is_logical_x_flip(&errors), "column {col}");
        }
    }

    #[test]
    fn render_marks_positions() {
        let code = SurfaceCode::new(3);
        let mut marks = vec![None; code.num_data()];
        marks[code.data_at(1, 1)] = Some('X');
        let art = code.render(&marks);
        assert!(art.contains('X'));
        assert!(art.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_distance() {
        SurfaceCode::new(4);
    }

    #[test]
    fn memory_circuit_layout_is_consistent() {
        for d in [3usize, 5] {
            let code = SurfaceCode::new(d);
            let rounds = 2;
            let mem = code.memory_circuit(rounds);
            assert_eq!(
                mem.circuit.num_qubits(),
                code.num_data() + code.num_stabilizers(),
                "d = {d}: data + one ancilla per stabilizer"
            );
            let num_z = code.z_stabilizers().len();
            assert_eq!(
                mem.circuit.num_clbits(),
                rounds * num_z + code.num_data(),
                "d = {d}"
            );
            assert_eq!(mem.data_bit(0), rounds * num_z);
            assert_eq!(mem.z_syndrome_bit(1, 0), num_z);
            // Clifford throughout: tableau-simulable at any distance.
            assert!(mem.circuit.is_clifford());
        }
        // Distance 5 is the headline: 49 qubits in one Clifford circuit.
        assert_eq!(
            SurfaceCode::new(5).memory_circuit(2).circuit.num_qubits(),
            49
        );
    }

    #[test]
    fn memory_circuit_word_unpacking_round_trips() {
        let code = SurfaceCode::new(3);
        let mem = code.memory_circuit(2);
        let num_z = code.z_stabilizers().len();
        // Set round-1 syndrome bit 2 and data bit 4.
        let mut word = OutcomeWord::zero();
        word.set_bit(num_z + 2, true);
        word.set_bit(mem.data_bit(4), true);
        let syndromes = mem.z_syndromes(&word);
        assert!(!syndromes[0].iter().any(|&b| b));
        assert!(syndromes[1][2]);
        assert_eq!(syndromes[1].iter().filter(|&&b| b).count(), 1);
        let data = mem.data_readout(&word);
        assert!(data[4]);
        assert_eq!(data.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn memory_circuit_detection_events_flag_syndrome_changes() {
        let code = SurfaceCode::new(3);
        let mem = code.memory_circuit(2);
        let num_z = code.z_stabilizers().len();
        // Clean word: no events.
        assert!(mem.detection_events(&code, &OutcomeWord::zero()).is_empty());
        // A measurement flip in round 0 only: events in layers 0 and 1
        // (appears, then disappears).
        let mut word = OutcomeWord::zero();
        word.set_bit(mem.z_syndrome_bit(0, 1), true);
        assert_eq!(mem.detection_events(&code, &word), vec![1, num_z + 1]);
    }

    #[test]
    fn memory_circuit_crosses_the_64_bit_register_boundary() {
        // d=5 at 4 rounds needs 73 classical bits, d=7 at 2 rounds needs
        // 97 — both refused before the multi-word register layer.
        let mem = SurfaceCode::new(5).memory_circuit(4);
        assert_eq!(mem.circuit.num_clbits(), 73);
        let code = SurfaceCode::new(7);
        let mem = code.memory_circuit(2);
        assert_eq!(mem.circuit.num_clbits(), 2 * 24 + 49);
        assert_eq!(mem.circuit.num_qubits(), 49 + code.num_stabilizers());
        assert!(mem.circuit.is_clifford());
        // Spilled bits round-trip through the unpackers.
        let mut word = OutcomeWord::zero();
        word.set_bit(mem.data_bit(48), true);
        assert!(mem.data_bit(48) > 64);
        let data = mem.data_readout(&word);
        assert!(data[48]);
        assert_eq!(data.iter().filter(|&&b| b).count(), 1);
        assert!(mem.z_syndromes(&word).iter().flatten().all(|&b| !b));
    }
}
