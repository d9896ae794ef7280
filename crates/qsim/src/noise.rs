//! Monte-Carlo noise channels.
//!
//! Noise is modelled the way hardware calibration data reports it: a
//! depolarizing probability per one- and two-qubit gate, an idle decay
//! probability, and a readout (measurement assignment) error. Channels are
//! sampled per trajectory — with probability `p` a uniformly random
//! non-identity Pauli is applied to the gate's qubits — which converges to
//! the depolarizing channel in the shot average.

use qcir::gate::Gate;
use rand::Rng;

/// Which Pauli error was injected (for syndrome bookkeeping in `qec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Both.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All three non-identity Paulis.
    pub const ALL: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// The corresponding gate.
    pub fn gate(self) -> Gate {
        match self {
            Pauli::X => Gate::X,
            Pauli::Y => Gate::Y,
            Pauli::Z => Gate::Z,
        }
    }

    /// Applies this Pauli to `qubit` of `state` through the specialized
    /// kernels (X/Y are index swaps, Z a phase multiply) — the error
    /// injection hot path in the trajectory executor.
    pub fn apply(self, state: &mut crate::state::StateVector, qubit: usize) {
        state.apply_pauli(qubit, self);
    }

    /// Samples a uniformly random non-identity Pauli.
    pub fn random(rng: &mut impl Rng) -> Pauli {
        Pauli::ALL[rng.gen_range(0..3)]
    }
}

/// An aggregate noise model.
///
/// ```
/// use qsim::noise::NoiseModel;
/// let nm = NoiseModel::uniform_depolarizing(1e-3);
/// assert!(nm.is_noisy());
/// assert!(!NoiseModel::ideal().is_noisy());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after each one-qubit gate.
    pub one_qubit_depol: f64,
    /// Depolarizing probability (per qubit) after each two-qubit gate.
    pub two_qubit_depol: f64,
    /// Probability a measured bit is reported flipped.
    pub readout_error: f64,
    /// Per-moment idle decay: probability of an X or Z error on every qubit
    /// per barrier-delimited moment (coarse T1/T2 proxy).
    pub idle_error: f64,
    /// Human-readable profile name.
    pub label: String,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::ideal()
    }
}

impl NoiseModel {
    /// The noiseless model.
    pub fn ideal() -> Self {
        NoiseModel {
            one_qubit_depol: 0.0,
            two_qubit_depol: 0.0,
            readout_error: 0.0,
            idle_error: 0.0,
            label: "ideal".to_string(),
        }
    }

    /// Uniform depolarizing noise: the same rate everywhere, no readout
    /// error. Standard for QEC threshold studies.
    pub fn uniform_depolarizing(p: f64) -> Self {
        NoiseModel {
            one_qubit_depol: p,
            two_qubit_depol: p,
            readout_error: 0.0,
            idle_error: 0.0,
            label: format!("depolarizing(p={p})"),
        }
    }

    /// `true` when any channel has a non-zero rate.
    pub fn is_noisy(&self) -> bool {
        self.one_qubit_depol > 0.0
            || self.two_qubit_depol > 0.0
            || self.readout_error > 0.0
            || self.idle_error > 0.0
    }

    /// Returns a copy with every rate multiplied by `factor` (clamped to
    /// [0, 1]). The QEC agent uses this to express "error rate after
    /// correction", mirroring the paper's Figure 4(c) methodology of
    /// re-simulating with a reduced rate.
    pub fn scaled(&self, factor: f64) -> NoiseModel {
        let clamp = |x: f64| (x * factor).clamp(0.0, 1.0);
        NoiseModel {
            one_qubit_depol: clamp(self.one_qubit_depol),
            two_qubit_depol: clamp(self.two_qubit_depol),
            readout_error: clamp(self.readout_error),
            idle_error: clamp(self.idle_error),
            label: format!("{} x{factor:.3}", self.label),
        }
    }

    /// Samples the post-gate error Paulis for a gate over `qubits`, calling
    /// `f(qubit, pauli)` for each one in operand order.
    ///
    /// This is the gate-error draw order every trajectory engine shares: one
    /// `gen_bool(p)` per operand at the gate's arity-class rate, then one
    /// `gen_range(0..3)` for each hit. A zero rate draws nothing.
    pub fn for_each_gate_error(
        &self,
        gate: &Gate,
        qubits: &[usize],
        rng: &mut impl Rng,
        mut f: impl FnMut(usize, Pauli),
    ) {
        let p = match gate.num_qubits() {
            1 => self.one_qubit_depol,
            _ => self.two_qubit_depol,
        };
        if p == 0.0 {
            return;
        }
        for &q in qubits {
            if rng.gen_bool(p) {
                f(q, Pauli::random(rng));
            }
        }
    }

    /// Samples whether a readout of `value` is flipped.
    pub fn sample_readout(&self, value: bool, rng: &mut impl Rng) -> bool {
        if self.readout_error > 0.0 && rng.gen_bool(self.readout_error) {
            !value
        } else {
            value
        }
    }

    /// Samples idle errors across `num_qubits` qubits for one moment,
    /// calling `f(qubit, pauli)` for each one in qubit order: one
    /// `gen_bool(idle_error)` per qubit, then one `gen_bool(0.75)` for each
    /// hit. A zero rate draws nothing.
    pub fn for_each_idle_error(
        &self,
        num_qubits: usize,
        rng: &mut impl Rng,
        mut f: impl FnMut(usize, Pauli),
    ) {
        if self.idle_error == 0.0 {
            return;
        }
        for q in 0..num_qubits {
            if rng.gen_bool(self.idle_error) {
                // Idle noise is dephasing-dominated on hardware: bias to Z.
                let pauli = if rng.gen_bool(0.75) {
                    Pauli::Z
                } else {
                    Pauli::X
                };
                f(q, pauli);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_model_samples_nothing() {
        let nm = NoiseModel::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        let mut hits = 0;
        for _ in 0..100 {
            nm.for_each_gate_error(&Gate::H, &[0], &mut rng, |_, _| hits += 1);
            assert!(nm.sample_readout(true, &mut rng));
            nm.for_each_idle_error(5, &mut rng, |_, _| hits += 1);
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn depolarizing_rate_is_respected() {
        let nm = NoiseModel::uniform_depolarizing(0.25);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 40_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            nm.for_each_gate_error(&Gate::H, &[0], &mut rng, |_, _| hits += 1);
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn two_qubit_gates_use_two_qubit_rate() {
        let nm = NoiseModel {
            one_qubit_depol: 0.0,
            two_qubit_depol: 0.5,
            readout_error: 0.0,
            idle_error: 0.0,
            label: "test".into(),
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = 0usize;
        for _ in 0..10_000 {
            nm.for_each_gate_error(&Gate::CX, &[0, 1], &mut rng, |_, _| hits += 1);
        }
        // Expect ~0.5 errors per qubit x 2 qubits = ~1.0 per gate.
        let per_gate = hits as f64 / 10_000.0;
        assert!((per_gate - 1.0).abs() < 0.05, "observed {per_gate}");
    }

    #[test]
    fn readout_flip_rate() {
        let nm = NoiseModel {
            one_qubit_depol: 0.0,
            two_qubit_depol: 0.0,
            readout_error: 0.1,
            idle_error: 0.0,
            label: "test".into(),
        };
        let mut rng = StdRng::seed_from_u64(3);
        let flips = (0..50_000)
            .filter(|_| !nm.sample_readout(true, &mut rng))
            .count();
        let rate = flips as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn scaling_clamps_to_unit_interval() {
        let nm = NoiseModel::uniform_depolarizing(0.4).scaled(10.0);
        assert_eq!(nm.one_qubit_depol, 1.0);
        let small = NoiseModel::uniform_depolarizing(0.4).scaled(0.1);
        assert!((small.one_qubit_depol - 0.04).abs() < 1e-12);
    }

    #[test]
    fn pauli_random_covers_all() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(Pauli::random(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }
}
