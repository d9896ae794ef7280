//! The QEC decoder-generation agent (agent #3 of Figure 1).
//!
//! Synthesizes a decoder from the device topology, then quantifies the
//! effect on a program's measured distribution. Mirroring the paper's
//! Figure 4 methodology: corrections cannot be applied to physical qubits
//! on IBM hardware, so the "after QEC" run re-simulates under the reduced
//! effective error rate implied by the decoder's measured lifetime
//! extension.

use qcir::circuit::Circuit;
use qec::agent_iface::{synthesize, DecoderSpec, SynthesisError};
use qec::topology::Topology;
use qsim::backend::SimError;
use qsim::dist::Counts;
use qsim::exec::{Executor, ExecutorConfig};
use qsim::noise::NoiseModel;
use std::fmt;

/// The QEC agent: holds the target device.
#[derive(Debug, Clone)]
pub struct QecAgent {
    topology: Topology,
    physical_rate: f64,
}

/// Why a QEC comparison could not be produced: either the decoder could
/// not be synthesized for the device, or the circuit is not simulable
/// (backend capacity / classical-register caps).
#[derive(Debug, Clone, PartialEq)]
pub enum QecAgentError {
    /// Decoder synthesis failed.
    Synthesis(SynthesisError),
    /// The before/after simulation failed with a typed backend error.
    Sim(SimError),
}

impl fmt::Display for QecAgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QecAgentError::Synthesis(e) => write!(f, "decoder synthesis failed: {e}"),
            QecAgentError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for QecAgentError {}

impl From<SynthesisError> for QecAgentError {
    fn from(e: SynthesisError) -> Self {
        QecAgentError::Synthesis(e)
    }
}

impl From<SimError> for QecAgentError {
    fn from(e: SimError) -> Self {
        QecAgentError::Sim(e)
    }
}

/// Before/after comparison for one circuit (the Figure 4 artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct QecComparison {
    /// The synthesized decoder.
    pub spec: DecoderSpec,
    /// Ideal (noiseless) distribution reference.
    pub ideal: qsim::dist::Distribution,
    /// Counts under the raw device noise (Figure 4b).
    pub noisy: Counts,
    /// Counts under the post-QEC effective noise (Figure 4c).
    pub corrected: Counts,
}

impl QecComparison {
    /// TVD of the noisy run from ideal.
    pub fn noisy_tvd(&self) -> f64 {
        self.noisy.to_distribution().tvd(&self.ideal)
    }

    /// TVD of the corrected run from ideal.
    pub fn corrected_tvd(&self) -> f64 {
        self.corrected.to_distribution().tvd(&self.ideal)
    }

    /// Error reduction: how much closer to ideal the corrected run is.
    pub fn improvement(&self) -> f64 {
        self.noisy_tvd() - self.corrected_tvd()
    }
}

impl QecAgent {
    /// Creates the agent for a device with a calibration error rate.
    pub fn new(topology: Topology, physical_rate: f64) -> Self {
        QecAgent {
            topology,
            physical_rate,
        }
    }

    /// The target device.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Synthesizes the decoder spec for the device.
    ///
    /// # Errors
    ///
    /// Propagates [`SynthesisError`] for unusable devices.
    pub fn synthesize_decoder(&self, seed: u64) -> Result<DecoderSpec, SynthesisError> {
        synthesize(&self.topology, self.physical_rate, 5, seed)
    }

    /// Runs `circuit` with and without the decoder's noise reduction.
    ///
    /// Simulation goes through the fallible backend-dispatch API: Clifford
    /// circuits past the dense cap run on the tableau, shots fan out over
    /// the host's cores (deterministically — results do not depend on the
    /// thread count), and unsimulable circuits surface as
    /// [`QecAgentError::Sim`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Propagates decoder-synthesis failures and backend [`SimError`]s.
    pub fn compare(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: u64,
        seed: u64,
    ) -> Result<QecComparison, QecAgentError> {
        let spec = self.synthesize_decoder(seed)?;
        let threads = qsim::exec::recommended_threads();
        let ideal = Executor::try_ideal_distribution_threaded(circuit, seed, threads)?;
        let noisy = ExecutorConfig::new()
            .noise(noise.clone())
            .threads(threads)
            .build()
            .try_run(circuit, shots, seed)?;
        let corrected_noise = noise.scaled(spec.noise_reduction_factor());
        let corrected = ExecutorConfig::new()
            .noise(corrected_noise)
            .threads(threads)
            .build()
            .try_run(circuit, shots, seed ^ 0xC0DE)?;
        Ok(QecComparison {
            spec,
            ideal,
            noisy,
            corrected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::profiles;

    #[test]
    fn agent_synthesizes_for_grid_device() {
        let agent = QecAgent::new(Topology::grid(7, 7), 0.02);
        let spec = agent.synthesize_decoder(1).expect("synthesis");
        assert!(spec.estimated_lifetime_extension > 1.0, "{spec}");
    }

    #[test]
    fn qec_improves_dj_distribution() {
        let agent = QecAgent::new(Topology::grid(7, 7), 0.02);
        let circuit = qalgo::dj::figure4_circuit();
        let cmp = agent
            .compare(&circuit, &profiles::noisy_nisq(), 4000, 11)
            .expect("comparison");
        assert!(
            cmp.corrected_tvd() < cmp.noisy_tvd(),
            "corrected {} vs noisy {}",
            cmp.corrected_tvd(),
            cmp.noisy_tvd()
        );
        // The expected |000> outcome should gain probability.
        let p_noisy = cmp.noisy.probability(0);
        let p_corrected = cmp.corrected.probability(0);
        assert!(
            p_corrected > p_noisy,
            "p(000): corrected {p_corrected} vs noisy {p_noisy}"
        );
    }

    #[test]
    fn disconnected_device_fails_synthesis() {
        let t = Topology::new("split", 4, &[(0, 1), (2, 3)]);
        let agent = QecAgent::new(t, 0.02);
        assert!(agent.synthesize_decoder(0).is_err());
    }

    #[test]
    fn compare_handles_large_clifford_circuits_via_tableau() {
        // A 30-qubit GHZ circuit: far past the dense cap, fine under the
        // backend layer's tableau dispatch. Pre-backend-layer this panicked.
        let mut ghz = Circuit::new(30, 30);
        ghz.h(0);
        for q in 0..29 {
            ghz.cx(q, q + 1);
        }
        ghz.measure_all();
        let agent = QecAgent::new(Topology::grid(7, 7), 0.02);
        let cmp = agent
            .compare(
                &ghz,
                &qsim::noise::NoiseModel::uniform_depolarizing(0.002),
                512,
                17,
            )
            .expect("tableau-backed comparison");
        assert_eq!(cmp.noisy.shots(), 512);
        assert!(cmp.corrected_tvd() <= cmp.noisy_tvd() + 0.1);
    }

    #[test]
    fn compare_surfaces_sim_errors_instead_of_panicking() {
        // Non-Clifford past the dense cap: no admissible backend.
        let mut big = Circuit::new(30, 30);
        big.h(0).t(0).cp(0.4, 0, 29).measure_all();
        let agent = QecAgent::new(Topology::grid(7, 7), 0.02);
        match agent.compare(&big, &profiles::noisy_nisq(), 64, 3) {
            Err(QecAgentError::Sim(SimError::QubitCapExceeded { .. })) => {}
            other => panic!("expected a Sim capacity error, got {other:?}"),
        }
    }

    #[test]
    fn comparison_is_deterministic() {
        let agent = QecAgent::new(Topology::grid(5, 5), 0.02);
        let circuit = qalgo::basics::bell_pair();
        let a = agent
            .compare(&circuit, &profiles::ibm_brisbane_like(), 500, 3)
            .unwrap();
        let b = agent
            .compare(&circuit, &profiles::ibm_brisbane_like(), 500, 3)
            .unwrap();
        assert_eq!(a, b);
    }
}
