//! Logical memory experiments: logical error rate vs physical rate and
//! distance, and the qubit-lifetime-extension factor the QEC agent reports.
//!
//! Three noise regimes, in increasing fidelity to hardware:
//! [`code_capacity_experiment`] (i.i.d. data errors, perfect syndrome),
//! [`phenomenological_experiment`] (noisy syndrome rounds, classical
//! sampling), and [`circuit_level_experiment`] — which lowers the code to
//! an executable Clifford circuit ([`SurfaceCode::memory_circuit`]) and
//! runs it through `qsim`'s [`qsim::exec::Executor`] on the
//! stabilizer-tableau backend,
//! so gate-level depolarizing noise propagates through the actual
//! extraction circuit. That path is polynomial in the distance, and
//! outcome words are multi-word, which together make distance-5 (49-qubit)
//! and distance-7 (97-qubit, 97-classical-bit) memory experiments
//! routine where dense simulation — or a one-word classical register — is
//! impossible.
//!
//! The circuit-level experiment samples at the detector level, as Stim
//! does: the simulator workers project each shot onto the circuit's
//! detectors and logical observable, the tally keeps one key per distinct
//! (detection events, observable) pair, and each distinct event set is
//! decoded once. The code-capacity estimate likewise decodes each
//! distinct syndrome once.

use crate::decoder::{
    Correction, Decoder, DecodingGraph, GreedyMatchingDecoder, LookupDecoder, UnionFindDecoder,
};
use crate::surface::SurfaceCode;
use crate::syndrome;
use qsim::backend::{BackendChoice, SimError};
use qsim::exec::ExecutorConfig;
use qsim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Which decoder implementation to use in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// Exact lookup (d = 3 only).
    Lookup,
    /// Greedy minimum-weight matching.
    Greedy,
    /// Union-find cluster decoder.
    UnionFind,
}

impl DecoderKind {
    /// All kinds, for sweeps.
    pub const ALL: [DecoderKind; 3] = [
        DecoderKind::Lookup,
        DecoderKind::Greedy,
        DecoderKind::UnionFind,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DecoderKind::Lookup => "lookup-exact",
            DecoderKind::Greedy => "greedy-matching",
            DecoderKind::UnionFind => "union-find",
        }
    }

    /// Instantiates the decoder for `code` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics when `Lookup` is requested for `d != 3`.
    pub fn build(&self, code: &SurfaceCode, graph: DecodingGraph) -> Box<dyn Decoder> {
        match self {
            DecoderKind::Lookup => Box::new(LookupDecoder::new(code)),
            DecoderKind::Greedy => Box::new(GreedyMatchingDecoder::new(graph)),
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(graph)),
        }
    }
}

/// Result of a logical-memory experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryResult {
    /// Code distance.
    pub distance: usize,
    /// Physical error probability per qubit (per round, if multi-round).
    pub p_physical: f64,
    /// Measured logical error probability.
    pub p_logical: f64,
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Decoder used.
    pub decoder: &'static str,
}

impl MemoryResult {
    /// The lifetime-extension factor: how much longer the logical qubit
    /// survives than a bare physical qubit at the same rate (ratio of
    /// error probabilities; >1 means QEC helps).
    pub fn lifetime_extension(&self) -> f64 {
        if self.p_logical <= 0.0 {
            // No observed failures: report the resolution limit.
            return self.p_physical * self.trials as f64;
        }
        self.p_physical / self.p_logical
    }
}

/// Code-capacity experiment: i.i.d. X errors with probability `p`, one
/// perfect syndrome measurement, decode, count logical X flips.
///
/// This is the estimate [`crate::agent_iface::synthesize`] runs for every
/// decoder it synthesizes, so the per-trial loop works on packed state:
/// the error pattern and its syndrome are `u64` words, built from one
/// precomputed syndrome mask per data qubit. A trial with an empty
/// syndrome needs no correction; any other syndrome is decoded once per
/// call and its correction memoized. The logical check is the parity of
/// `(error ^ correction) & logical_z`.
///
/// The result is bit-identical to decoding every trial separately: the RNG
/// makes the same `gen_bool(p)` draws in the same order (one per data
/// qubit), and every decoder is a deterministic function of the flagged
/// set, so a memoized correction is the correction a fresh decode would
/// return.
pub fn code_capacity_experiment(
    d: usize,
    p: f64,
    kind: DecoderKind,
    trials: usize,
    seed: u64,
) -> MemoryResult {
    let code = SurfaceCode::new(d);
    let graph = DecodingGraph::code_capacity_x(&code);
    let n = code.num_data();
    let err_words = n.div_ceil(64);
    let syn_words = graph.num_nodes().div_ceil(64);
    // Row `q` of `syn_masks` is the syndrome of a lone X error on qubit `q`.
    let mut syn_masks = vec![0u64; n * syn_words];
    for e in graph.edges() {
        let q = e.qubit.expect("code-capacity edges are data qubits");
        let row = &mut syn_masks[q * syn_words..(q + 1) * syn_words];
        for node in std::iter::once(e.a).chain(e.b) {
            row[node / 64] ^= 1 << (node % 64);
        }
    }
    let mut logical_z = vec![0u64; err_words];
    for q in code.logical_z() {
        logical_z[q / 64] |= 1 << (q % 64);
    }
    let decoder = kind.build(&code, graph);
    let mut memo: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
    let no_correction = vec![0u64; err_words];
    let mut err = vec![0u64; err_words];
    let mut syn = vec![0u64; syn_words];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0usize;
    for _ in 0..trials {
        err.fill(0);
        syn.fill(0);
        for q in 0..n {
            if rng.gen_bool(p) {
                err[q / 64] |= 1 << (q % 64);
                xor_into(&mut syn, &syn_masks[q * syn_words..(q + 1) * syn_words]);
            }
        }
        let flip = if syn.iter().all(|&w| w == 0) {
            logical_flip(&err, &no_correction, &logical_z)
        } else if let Some(corr) = memo.get(syn.as_slice()) {
            logical_flip(&err, corr, &logical_z)
        } else {
            let corr = decode_packed(decoder.as_ref(), &syn, err_words);
            debug_assert_eq!(
                packed_syndrome(&corr, &syn_masks, syn_words),
                syn,
                "correction must clear the syndrome"
            );
            let flip = logical_flip(&err, &corr, &logical_z);
            memo.insert(syn.clone(), corr);
            flip
        };
        failures += flip as usize;
    }
    MemoryResult {
        distance: d,
        p_physical: p,
        p_logical: failures as f64 / trials as f64,
        trials,
        decoder: kind.name(),
    }
}

/// Whether `err ^ corr` has odd overlap with the logical-Z support.
fn logical_flip(err: &[u64], corr: &[u64], logical_z: &[u64]) -> bool {
    let mut parity = 0;
    for ((e, c), z) in err.iter().zip(corr).zip(logical_z) {
        parity ^= ((e ^ c) & z).count_ones();
    }
    parity & 1 == 1
}

/// `acc ^= other`, word by word.
fn xor_into(acc: &mut [u64], other: &[u64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a ^= b;
    }
}

/// Decodes a packed syndrome: the flagged nodes in ascending order, as
/// [`DecodingGraph::syndrome_of`] lists them, and the correction packed
/// into `err_words` words (a repeated flip cancels, as in
/// [`Correction::apply`]).
fn decode_packed(decoder: &dyn Decoder, syn: &[u64], err_words: usize) -> Vec<u64> {
    let flagged: Vec<usize> = (0..syn.len() * 64)
        .filter(|&i| syn[i / 64] >> (i % 64) & 1 == 1)
        .collect();
    let mut corr = vec![0u64; err_words];
    for q in decoder.decode(&flagged).qubit_flips {
        corr[q / 64] ^= 1 << (q % 64);
    }
    corr
}

/// The syndrome of a packed X-error pattern.
fn packed_syndrome(err: &[u64], syn_masks: &[u64], syn_words: usize) -> Vec<u64> {
    let mut syn = vec![0u64; syn_words];
    for (q, mask) in syn_masks.chunks_exact(syn_words).enumerate() {
        if err[q / 64] >> (q % 64) & 1 == 1 {
            xor_into(&mut syn, mask);
        }
    }
    syn
}

/// Phenomenological experiment: `rounds` rounds of noisy syndrome
/// extraction (data rate `p`, measurement rate `q`), space-time decoding,
/// then a logical-flip check against the final perfect round.
pub fn phenomenological_experiment(
    d: usize,
    p: f64,
    q: f64,
    rounds: usize,
    trials: usize,
    seed: u64,
) -> MemoryResult {
    let code = SurfaceCode::new(d);
    // +1 node layer for the final perfect round.
    let graph = DecodingGraph::spacetime_x(&code, rounds + 1);
    let decoder = GreedyMatchingDecoder::new(graph);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0usize;
    for _ in 0..trials {
        let history = syndrome::extract(&code, p, q, rounds, &mut rng);
        let events = history.detection_events();
        let correction = decoder.decode(&events);
        let mut errors = history.final_errors.clone();
        correction.apply(&mut errors);
        if code.is_logical_x_flip(&errors) {
            failures += 1;
        }
    }
    MemoryResult {
        distance: d,
        p_physical: p,
        p_logical: failures as f64 / trials as f64,
        trials,
        decoder: "greedy-matching(spacetime)",
    }
}

/// Circuit-level experiment: lowers the code to its syndrome-extraction
/// circuit, executes `trials` shots on the tableau backend under the given
/// gate-level noise model, and space-time-decodes each distinct set of
/// detection events once.
///
/// The reported `p_physical` is the model's two-qubit depolarizing rate,
/// the dominant channel in the extraction circuit.
///
/// # Errors
///
/// Propagates [`SimError`] when the circuit cannot run on the tableau
/// backend (it always can for circuits produced by
/// [`SurfaceCode::memory_circuit`]; classical registers of any width are
/// recorded, so distance-7 and beyond work like distance-3).
pub fn circuit_level_experiment(
    d: usize,
    noise: &NoiseModel,
    rounds: usize,
    trials: u64,
    seed: u64,
) -> Result<MemoryResult, SimError> {
    circuit_level_experiment_threaded(
        d,
        noise,
        rounds,
        trials,
        seed,
        qsim::exec::recommended_threads(),
    )
}

/// [`circuit_level_experiment`] with an explicit simulator thread count.
///
/// Results are thread-count independent (the executor's determinism
/// contract); the knob exists so multi-process drivers like `qugen-shard`
/// can run each worker single-threaded and let process fan-out be the only
/// parallelism, instead of nesting a full-width shot pool per worker.
///
/// # Detector sampling
///
/// The shots run through [`qsim::exec::Executor::try_run_parities`],
/// which projects each outcome word, on the simulator workers, through
/// [`MemoryCircuit::parity_map`]: the logical observable at bit 0, and
/// detector `i` at bit `1 + i`, which is node `i` of
/// [`DecodingGraph::spacetime_x`]. So the tally holds one key per
/// distinct (events, observable) pair: a few hundred, where raw outcome
/// words number in the thousands. The two keys of one event set differ
/// only in bit 0, so they sit next to each other in the tally's numeric
/// order, and each event set is decoded once. A shot fails exactly when
/// its observable differs from the parity of the correction on
/// [`SurfaceCode::logical_z`].
///
/// This is bit-identical to decoding every outcome word through
/// [`MemoryCircuit::detection_events`] and
/// [`MemoryCircuit::data_readout`]: the shots are the same, the projected
/// events are those events, and the greedy decoder is a deterministic
/// function of them.
///
/// [`MemoryCircuit::parity_map`]: crate::surface::MemoryCircuit::parity_map
/// [`MemoryCircuit::detection_events`]: crate::surface::MemoryCircuit::detection_events
/// [`MemoryCircuit::data_readout`]: crate::surface::MemoryCircuit::data_readout
pub fn circuit_level_experiment_threaded(
    d: usize,
    noise: &NoiseModel,
    rounds: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Result<MemoryResult, SimError> {
    let code = SurfaceCode::new(d);
    let mem = code.memory_circuit(rounds);
    let parities = mem.parity_map(&code);
    let counts = ExecutorConfig::new()
        .noise(noise.clone())
        .backend(BackendChoice::Tableau)
        .threads(threads.max(1))
        .build()
        .try_run_parities(&mem.circuit, trials, seed, &parities)?;
    let decoder = GreedyMatchingDecoder::new(DecodingGraph::spacetime_x(&code, rounds + 1));
    let logical_z = code.logical_z();
    let num_detectors = parities.len() - 1;
    let (mut events, mut decoded) = (Vec::new(), None);
    let mut failures = 0u64;
    for (key, count) in counts.iter() {
        events.clear();
        events.extend((0..num_detectors).filter(|&i| key.bit(1 + i)));
        let flip = match &decoded {
            Some((last, flip)) if *last == events => *flip,
            _ => {
                let correction = decoder.decode(&events);
                let on_logical = correction
                    .qubit_flips
                    .iter()
                    .filter(|q| logical_z.contains(q))
                    .count();
                let flip = on_logical % 2 == 1;
                decoded = Some((events.clone(), flip));
                flip
            }
        };
        if key.bit(0) != flip {
            failures += count;
        }
    }
    Ok(MemoryResult {
        distance: d,
        p_physical: noise.two_qubit_depol,
        p_logical: failures as f64 / counts.shots().max(1) as f64,
        trials: trials as usize,
        decoder: "greedy-matching(circuit-level)",
    })
}

/// Applies a decoder end-to-end to one explicit error pattern (exposed for
/// the Figure 2 bench, which wants the per-piece artifacts).
pub fn decode_once(code: &SurfaceCode, kind: DecoderKind, errors: &[bool]) -> Correction {
    let graph = DecodingGraph::code_capacity_x(code);
    let decoder = kind.build(code, graph.clone());
    let flagged = graph.syndrome_of(errors);
    decoder.decode(&flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_threshold_logical_beats_physical() {
        let r = code_capacity_experiment(3, 0.03, DecoderKind::Lookup, 4000, 42);
        assert!(
            r.p_logical < r.p_physical,
            "p_L = {} should beat p = {}",
            r.p_logical,
            r.p_physical
        );
        assert!(r.lifetime_extension() > 1.0);
    }

    #[test]
    fn larger_distance_helps_below_threshold() {
        let d3 = code_capacity_experiment(3, 0.02, DecoderKind::UnionFind, 6000, 1);
        let d5 = code_capacity_experiment(5, 0.02, DecoderKind::UnionFind, 6000, 2);
        assert!(
            d5.p_logical <= d3.p_logical,
            "d5 ({}) should not exceed d3 ({})",
            d5.p_logical,
            d3.p_logical
        );
    }

    #[test]
    fn above_threshold_qec_hurts() {
        // Far above threshold the code amplifies errors.
        let r = code_capacity_experiment(3, 0.4, DecoderKind::Lookup, 3000, 3);
        assert!(r.p_logical > r.p_physical * 0.5, "p_L = {}", r.p_logical);
    }

    #[test]
    fn decoders_agree_on_low_rates() {
        let lookup = code_capacity_experiment(3, 0.01, DecoderKind::Lookup, 5000, 7);
        let greedy = code_capacity_experiment(3, 0.01, DecoderKind::Greedy, 5000, 7);
        let uf = code_capacity_experiment(3, 0.01, DecoderKind::UnionFind, 5000, 7);
        for r in [&greedy, &uf] {
            assert!(
                (r.p_logical - lookup.p_logical).abs() < 0.01,
                "{}: {} vs lookup {}",
                r.decoder,
                r.p_logical,
                lookup.p_logical
            );
        }
    }

    #[test]
    fn phenomenological_below_physical_at_low_noise() {
        let r = phenomenological_experiment(3, 0.004, 0.004, 3, 2000, 9);
        // Accumulated physical rate over the experiment is roughly
        // p * rounds; the decoder must do better than that.
        let accumulated = 0.004 * 3.0;
        assert!(
            r.p_logical < accumulated,
            "p_L = {} vs accumulated physical {}",
            r.p_logical,
            accumulated
        );
    }

    #[test]
    fn zero_noise_never_fails() {
        let r = code_capacity_experiment(3, 0.0, DecoderKind::Greedy, 500, 5);
        assert_eq!(r.p_logical, 0.0);
        let r2 = phenomenological_experiment(3, 0.0, 0.0, 4, 200, 6);
        assert_eq!(r2.p_logical, 0.0);
    }

    #[test]
    fn circuit_level_zero_noise_never_fails() {
        // Noiseless: every shot's detection events are empty and the data
        // readout carries no logical flip, whatever the stabilizer
        // randomness of the X-type projections.
        let r = circuit_level_experiment(3, &NoiseModel::ideal(), 2, 300, 7).unwrap();
        assert_eq!(r.p_logical, 0.0);
        assert_eq!(r.trials, 300);
    }

    #[test]
    fn circuit_level_low_noise_is_mostly_correctable() {
        let noise = NoiseModel::uniform_depolarizing(0.001);
        let r = circuit_level_experiment(3, &noise, 2, 2000, 8).unwrap();
        assert!(
            r.p_logical < 0.05,
            "p_L = {} at p = 0.001 should be small",
            r.p_logical
        );
    }

    #[test]
    fn circuit_level_distance7_crosses_the_word_boundary() {
        // 97 qubits and 97 classical bits at two rounds: the register
        // spans two outcome words, so this end-to-end run (tableau
        // execution, multi-threaded chunk merge, space-time decoding of
        // spilled syndrome bits) is the proof the multi-word register
        // layer works. It was refused outright at the 64-clbit cap.
        let code = SurfaceCode::new(7);
        let mem = code.memory_circuit(2);
        assert!(mem.circuit.num_clbits() > 64);
        let noise = NoiseModel::uniform_depolarizing(0.001);
        let r = circuit_level_experiment(7, &noise, 2, 300, 11).unwrap();
        assert_eq!(r.distance, 7);
        assert_eq!(r.trials, 300);
        assert!(r.p_logical < 0.1, "p_L = {}", r.p_logical);
        // Noiseless distance-7 never fails, whatever the word width.
        let clean = circuit_level_experiment(7, &NoiseModel::ideal(), 2, 100, 12).unwrap();
        assert_eq!(clean.p_logical, 0.0);
    }

    #[test]
    fn circuit_level_distance5_runs_on_the_tableau() {
        // 49 qubits: impossible on the dense backend (2^49 amplitudes), so
        // this test exercising Executor end-to-end is itself the proof that
        // the tableau dispatch works.
        let noise = NoiseModel::uniform_depolarizing(0.001);
        let r = circuit_level_experiment(5, &noise, 2, 400, 9).unwrap();
        assert_eq!(r.distance, 5);
        assert_eq!(r.trials, 400);
        assert!(r.p_logical < 0.1, "p_L = {}", r.p_logical);
    }
}
