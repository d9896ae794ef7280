//! The interface the QEC Decoder Generation Agent consumes: synthesize a
//! [`DecoderSpec`] from a device [`Topology`], mirroring the paper's
//! "uses the topology of the quantum device to generate a decoder" (§III-A)
//! and its topology-specificity caveat (§IV-B).

use crate::memory::{self, DecoderKind};
use crate::topology::Topology;
use std::fmt;

/// Why decoder synthesis failed for a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// Device graph is disconnected.
    Disconnected,
    /// Device cannot host even the smallest surface code; the spec falls
    /// back to a repetition code when possible, otherwise this error.
    TooSmall { qubits: usize, needed: usize },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Disconnected => write!(f, "device coupling graph is disconnected"),
            SynthesisError::TooSmall { qubits, needed } => {
                write!(
                    f,
                    "device has {qubits} qubits but the smallest code needs {needed}"
                )
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Which code family the synthesized decoder protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeFamily {
    /// Rotated surface code at the given distance.
    Surface { distance: usize },
    /// Bit-flip repetition code at the given distance (fallback for
    /// devices without a grid region, e.g. heavy-hex).
    Repetition { distance: usize },
}

/// A synthesized decoder specification: what the QEC agent hands back to
/// the orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderSpec {
    /// Device the spec was synthesized for.
    pub device: String,
    /// Chosen code family and distance.
    pub family: CodeFamily,
    /// Decoder implementation.
    pub decoder: DecoderKind,
    /// Whether the device hosts the code natively or via SWAP-embedding
    /// (the paper's topology-specificity caveat: heavy-hex devices need
    /// embedding, captured here as `false`).
    pub native_layout: bool,
    /// Estimated lifetime-extension factor at the calibration rate.
    pub estimated_lifetime_extension: f64,
    /// Physical rate the estimate was computed at.
    pub calibration_rate: f64,
}

impl DecoderSpec {
    /// The effective noise-scaling factor to apply when re-simulating with
    /// corrections, mirroring the paper's Figure 4(c) methodology
    /// ("simulated our results using a lower error probability ...
    /// corresponding to the new error rate after QEC").
    pub fn noise_reduction_factor(&self) -> f64 {
        (1.0 / self.estimated_lifetime_extension).min(1.0)
    }
}

impl fmt::Display for DecoderSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let family = match self.family {
            CodeFamily::Surface { distance } => format!("surface(d={distance})"),
            CodeFamily::Repetition { distance } => format!("repetition(d={distance})"),
        };
        write!(
            f,
            "{family} + {} on {} ({}; ~{:.1}x lifetime at p={})",
            self.decoder.name(),
            self.device,
            if self.native_layout {
                "native"
            } else {
                "swap-embedded"
            },
            self.estimated_lifetime_extension,
            self.calibration_rate
        )
    }
}

/// Synthesizes a decoder spec for `device` at physical rate `p`.
///
/// Picks the largest surface-code distance (up to `max_distance`, odd)
/// that fits the device, falling back to a repetition code for devices
/// without a degree-4 grid region (heavy-hex). The lifetime-extension
/// estimate is measured by a short Monte-Carlo memory experiment, not
/// guessed: 3,000 trials of [`memory::code_capacity_experiment`], whose
/// packed, memoized loop makes the same RNG draws as decoding every trial
/// and returns the same estimate bit for bit. At d = 5 with union-find
/// (what the QEC agent asks for on a 7x7 grid) a call costs about 0.5 ms
/// on a 2-vCPU Xeon host (the `qec_decoder_synthesis_grid7_d5` bench).
///
/// # Errors
///
/// Returns [`SynthesisError::Disconnected`] for a disconnected device and
/// [`SynthesisError::TooSmall`] for one with fewer than five qubits (an
/// empty device included).
pub fn synthesize(
    device: &Topology,
    p: f64,
    max_distance: usize,
    seed: u64,
) -> Result<DecoderSpec, SynthesisError> {
    if !device.is_connected() {
        return Err(SynthesisError::Disconnected);
    }
    // Largest odd d with 2d^2-1 qubits available and native layout support.
    let mut chosen: Option<(usize, bool)> = None;
    let mut d = max_distance.max(3);
    if d.is_multiple_of(2) {
        d -= 1;
    }
    while d >= 3 {
        if device.supports_surface_code(d) {
            chosen = Some((d, true));
            break;
        }
        d -= 2;
    }
    if chosen.is_none() {
        // SWAP-embedded d=3 surface code still needs the raw qubit count.
        if device.num_qubits() >= 17 {
            chosen = Some((3, false));
        }
    }
    if let Some((d, native)) = chosen {
        let kind = if d == 3 {
            DecoderKind::Lookup
        } else {
            DecoderKind::UnionFind
        };
        let result = memory::code_capacity_experiment(d, p, kind, 3000, seed);
        return Ok(DecoderSpec {
            device: device.name().to_string(),
            family: CodeFamily::Surface { distance: d },
            decoder: kind,
            native_layout: native,
            estimated_lifetime_extension: result.lifetime_extension(),
            calibration_rate: p,
        });
    }
    // Repetition fallback: needs 2d-1 qubits (data + ancilla). The largest
    // odd distance that fits; zero for an empty device, which is too small.
    let d_rep = device.num_qubits().div_ceil(2).min(7);
    let d_rep = if d_rep.is_multiple_of(2) {
        d_rep.saturating_sub(1)
    } else {
        d_rep
    };
    if d_rep >= 3 {
        let code = crate::repetition::RepetitionCode::new(d_rep);
        let p_logical = code.analytic_error_rate(p);
        let extension = if p_logical > 0.0 {
            p / p_logical
        } else {
            f64::INFINITY
        };
        return Ok(DecoderSpec {
            device: device.name().to_string(),
            family: CodeFamily::Repetition { distance: d_rep },
            decoder: DecoderKind::Greedy,
            native_layout: true,
            estimated_lifetime_extension: extension,
            calibration_rate: p,
        });
    }
    Err(SynthesisError::TooSmall {
        qubits: device.num_qubits(),
        needed: 5,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_device_gets_native_surface_code() {
        let device = Topology::grid(7, 7);
        let spec = synthesize(&device, 0.02, 5, 1).expect("synthesis");
        match spec.family {
            CodeFamily::Surface { distance } => assert!(distance >= 3),
            other => panic!("expected surface code, got {other:?}"),
        }
        assert!(spec.native_layout);
        assert!(spec.estimated_lifetime_extension > 1.0, "{spec}");
    }

    #[test]
    fn heavy_hex_is_swap_embedded() {
        let device = Topology::ibm_brisbane_like();
        let spec = synthesize(&device, 0.02, 3, 2).expect("synthesis");
        assert!(
            !spec.native_layout,
            "heavy-hex must be flagged as embedded: {spec}"
        );
    }

    #[test]
    fn tiny_device_falls_back_to_repetition() {
        let device = Topology::line(7);
        let spec = synthesize(&device, 0.02, 3, 3).expect("synthesis");
        match spec.family {
            CodeFamily::Repetition { distance } => assert!(distance >= 3),
            other => panic!("expected repetition fallback, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_device_errors() {
        let device = Topology::new("split", 6, &[(0, 1), (2, 3), (4, 5)]);
        assert_eq!(
            synthesize(&device, 0.02, 3, 4),
            Err(SynthesisError::Disconnected)
        );
    }

    #[test]
    fn hopeless_device_errors() {
        // The empty device once underflowed the repetition distance (a
        // debug panic, and a hang in release builds).
        for device in [Topology::line(2), Topology::new("empty", 0, &[])] {
            let qubits = device.num_qubits();
            assert_eq!(
                synthesize(&device, 0.02, 3, 5),
                Err(SynthesisError::TooSmall { qubits, needed: 5 }),
                "{}",
                device.name()
            );
        }
    }

    #[test]
    fn noise_reduction_factor_inverts_extension() {
        let device = Topology::grid(5, 5);
        let spec = synthesize(&device, 0.03, 3, 6).expect("synthesis");
        let f = spec.noise_reduction_factor();
        assert!(f <= 1.0 && f > 0.0, "factor {f}");
    }
}
