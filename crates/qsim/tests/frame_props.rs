//! Bit-identity tests for the Pauli-frame sampler.
//!
//! The oracle is a per-shot `StabilizerSim` loop written here against the
//! public noise visitors: the same gate-error, idle-error, measurement and
//! readout draws, in circuit order. Given the same seed, a
//! `FrameProgram` must return the same outcome word shot by shot and leave
//! the RNG at the same point, on random noisy Clifford circuits whose
//! qubit counts straddle the 64-bit word boundaries of the frame.

use proptest::prelude::*;
use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use qec::SurfaceCode;
use qsim::backend::BackendChoice;
use qsim::dist::Counts;
use qsim::exec::{derive_seed, ExecutorConfig, SHOT_CHUNK};
use qsim::frame::FrameProgram;
use qsim::noise::{NoiseModel, Pauli};
use qsim::stabilizer::StabilizerSim;
use qsim::word::OutcomeWord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn apply_pauli(sim: &mut StabilizerSim, q: usize, pauli: Pauli) {
    sim.apply_gate(pauli.gate(), &[q]);
}

/// One noisy tableau shot, the executor's trajectory loop restated.
fn tableau_shot(
    circuit: &Circuit,
    noise: &NoiseModel,
    sim: &mut StabilizerSim,
    rng: &mut StdRng,
    clbits: &mut OutcomeWord,
) {
    sim.reinit();
    clbits.clear();
    for op in circuit.ops() {
        match op {
            Op::Gate { gate, qubits } => {
                sim.apply_gate(*gate, qubits);
                noise.for_each_gate_error(gate, qubits, rng, |q, p| apply_pauli(sim, q, p));
            }
            Op::CondGate {
                gate,
                qubits,
                clbit,
                value,
            } => {
                if clbits.bit(*clbit) == *value {
                    sim.apply_gate(*gate, qubits);
                    noise.for_each_gate_error(gate, qubits, rng, |q, p| apply_pauli(sim, q, p));
                }
            }
            Op::Measure { qubit, clbit } => {
                let raw = sim.measure(*qubit, rng);
                clbits.set_bit(*clbit, noise.sample_readout(raw, rng));
            }
            Op::Reset { qubit } => sim.reset(*qubit, rng),
            Op::Barrier { .. } => {
                let n = circuit.num_qubits();
                noise.for_each_idle_error(n, rng, |q, p| apply_pauli(sim, q, p));
            }
        }
    }
}

/// The executor's counts for `shots` shots of `circuit`, rebuilt from the
/// oracle loop with the executor's chunk seeding.
fn oracle_counts(circuit: &Circuit, noise: &NoiseModel, shots: u64, seed: u64) -> Counts {
    let mut counts = Counts::new(circuit.num_clbits());
    let mut sim = StabilizerSim::new(circuit.num_qubits());
    let mut word = OutcomeWord::zero();
    for chunk in 0..shots.div_ceil(SHOT_CHUNK) {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, chunk));
        for _ in 0..(shots - chunk * SHOT_CHUNK).min(SHOT_CHUNK) {
            tableau_shot(circuit, noise, &mut sim, &mut rng, &mut word);
            counts.record_word(&word);
        }
    }
    counts
}

fn tableau_counts(circuit: &Circuit, noise: &NoiseModel, shots: u64, seed: u64) -> Counts {
    ExecutorConfig::new()
        .noise(noise.clone())
        .backend(BackendChoice::Tableau)
        .threads(2)
        .build()
        .try_run(circuit, shots, seed)
        .expect("Clifford circuits run on the tableau backend")
}

/// Classical register width of the random circuits: past one word, so
/// conditionals read spilled bits too.
const CLBITS: usize = 70;

/// One raw op: `(kind, a, b, clbit, flag)`, reduced modulo the circuit
/// shape by [`build_circuit`].
type RawOp = (u8, usize, usize, usize, bool);

/// Qubit counts hugging the 64-bit word boundaries.
fn arb_qubits() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=5,
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(130usize)
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (
            0u8..18,
            0usize..1 << 16,
            0usize..1 << 16,
            0usize..CLBITS,
            0u8..2,
        )
            .prop_map(|(k, a, b, c, f)| (k, a, b, c, f == 1)),
        0..120,
    )
}

const ONE_QUBIT: [Gate; 8] = [
    Gate::Id,
    Gate::H,
    Gate::S,
    Gate::Sdg,
    Gate::SX,
    Gate::X,
    Gate::Y,
    Gate::Z,
];
const TWO_QUBIT: [Gate; 4] = [Gate::CX, Gate::CZ, Gate::CY, Gate::SWAP];
const PAULIS: [Gate; 4] = [Gate::Id, Gate::X, Gate::Y, Gate::Z];

/// Lowers raw ops onto `n` qubits: every supported gate, measurements and
/// resets weighted up so circuits mix random and determined outcomes,
/// Pauli conditionals, and barriers.
fn build_circuit(n: usize, raw: &[RawOp]) -> Circuit {
    let mut qc = Circuit::new(n, CLBITS);
    for &(kind, a, b, clbit, flag) in raw {
        let a = a % n;
        let b = if n > 1 { (a + 1 + b % (n - 1)) % n } else { a };
        match kind {
            0..=7 => {
                qc.push_gate(ONE_QUBIT[kind as usize], &[a]);
            }
            8..=11 if n > 1 => {
                qc.push_gate(TWO_QUBIT[kind as usize - 8], &[a, b]);
            }
            8..=11 => {
                qc.push_gate(ONE_QUBIT[kind as usize - 8], &[a]);
            }
            12 | 13 => {
                qc.measure(a, clbit);
            }
            14 => {
                qc.reset(a);
            }
            15 => {
                qc.barrier_all();
            }
            _ => {
                qc.cond_gate(PAULIS[b % PAULIS.len()], &[a], clbit, flag);
            }
        }
    }
    qc
}

/// Noise rates the proptest draws from: off, light and heavy.
const RATES: [f64; 3] = [0.0, 0.01, 0.2];

fn noise_model(rates: [usize; 4]) -> NoiseModel {
    NoiseModel {
        one_qubit_depol: RATES[rates[0]],
        two_qubit_depol: RATES[rates[1]],
        readout_error: RATES[rates[2]],
        idle_error: RATES[rates[3]],
        label: "frame-props".into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shot by shot, the frame program reproduces the tableau oracle's
    /// outcome words from the same seed and consumes the same draws.
    #[test]
    fn frame_shots_match_the_tableau_shot_by_shot(
        n in arb_qubits(),
        raw in arb_ops(),
        rates in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        seed in 0u64..u64::MAX,
    ) {
        let qc = build_circuit(n, &raw);
        let noise = noise_model([rates.0, rates.1, rates.2, rates.3]);
        let program = FrameProgram::compile(&qc).expect("Pauli conditionals compile");
        let mut frame = program.frame();
        let mut sim = StabilizerSim::new(n);
        let mut frame_rng = StdRng::seed_from_u64(seed);
        let mut tableau_rng = StdRng::seed_from_u64(seed);
        let mut frame_word = OutcomeWord::zero();
        let mut tableau_word = OutcomeWord::zero();
        for shot in 0..8 {
            program.run_shot(&mut frame, &noise, &mut frame_rng, &mut frame_word);
            tableau_shot(&qc, &noise, &mut sim, &mut tableau_rng, &mut tableau_word);
            prop_assert_eq!(&frame_word, &tableau_word, "n={} shot {}", n, shot);
        }
        prop_assert_eq!(frame_rng.gen::<u64>(), tableau_rng.gen::<u64>());
    }
}

/// The executor's tableau jobs: a Pauli-conditioned circuit takes the
/// frame path and a conditioned H keeps the per-shot tableau, and both
/// match the oracle's counts exactly, chunk seeding included.
#[test]
fn executor_tableau_jobs_match_the_oracle_on_either_path() {
    let noise = NoiseModel {
        readout_error: 0.02,
        idle_error: 0.01,
        ..NoiseModel::uniform_depolarizing(0.03)
    };
    let mut pauli_fixup = Circuit::new(3, 3);
    pauli_fixup.h(0).cx(0, 1).measure(0, 0);
    pauli_fixup.cond_gate(Gate::X, &[1], 0, true);
    pauli_fixup
        .barrier_all()
        .cx(1, 2)
        .reset(0)
        .h(0)
        .measure_all();
    let mut h_fixup = Circuit::new(3, 3);
    h_fixup.h(0).cx(0, 1).measure(0, 0);
    h_fixup.cond_gate(Gate::H, &[1], 0, true);
    h_fixup.barrier_all().cx(1, 2).reset(0).h(0).measure_all();

    assert!(FrameProgram::compile(&pauli_fixup).is_some());
    assert!(FrameProgram::compile(&h_fixup).is_none());
    let shots = SHOT_CHUNK + 77;
    for qc in [&pauli_fixup, &h_fixup] {
        assert_eq!(
            tableau_counts(qc, &noise, shots, 11),
            oracle_counts(qc, &noise, shots, 11)
        );
    }
}

/// Distance-7 memory (97 qubits, two frame words) through the executor
/// equals the oracle at a rate high enough that errors fire every shot.
#[test]
fn surface_memory_d7_matches_the_oracle() {
    let circuit = SurfaceCode::new(7).memory_circuit(2).circuit;
    assert_eq!(circuit.num_qubits(), 97);
    let noise = NoiseModel::uniform_depolarizing(0.02);
    assert_eq!(
        tableau_counts(&circuit, &noise, 64, 3),
        oracle_counts(&circuit, &noise, 64, 3)
    );
}

/// Every width the one-word storage holds.
fn arb_narrow_qubits() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=8, 9usize..=64, Just(64usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The register-resident one-word storage and the multi-word storage
    /// run the same shots: identical outcome words shot by shot, and the
    /// RNG left at the same draw.
    #[test]
    fn word_and_multi_word_frames_agree_shot_by_shot(
        n in arb_narrow_qubits(),
        raw in arb_ops(),
        rates in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        seed in 0u64..u64::MAX,
    ) {
        let qc = build_circuit(n, &raw);
        let noise = noise_model([rates.0, rates.1, rates.2, rates.3]);
        let program = FrameProgram::compile(&qc).expect("Pauli conditionals compile");
        let mut narrow = program.word_frame().expect("at most 64 qubits");
        let mut wide = program.frame();
        let mut narrow_rng = StdRng::seed_from_u64(seed);
        let mut wide_rng = StdRng::seed_from_u64(seed);
        let mut narrow_word = OutcomeWord::zero();
        let mut wide_word = OutcomeWord::zero();
        for shot in 0..8 {
            program.run_shot(&mut narrow, &noise, &mut narrow_rng, &mut narrow_word);
            program.run_shot(&mut wide, &noise, &mut wide_rng, &mut wide_word);
            prop_assert_eq!(&narrow_word, &wide_word, "n={} shot {}", n, shot);
        }
        prop_assert_eq!(narrow_rng.gen::<u64>(), wide_rng.gen::<u64>());
    }

    /// Past one word, the multi-word storage still matches the tableau at
    /// every width up to three words.
    #[test]
    fn multi_word_frames_match_the_tableau_past_one_word(
        n in 65usize..=130,
        raw in arb_ops(),
        rates in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        seed in 0u64..u64::MAX,
    ) {
        let qc = build_circuit(n, &raw);
        let noise = noise_model([rates.0, rates.1, rates.2, rates.3]);
        let program = FrameProgram::compile(&qc).expect("Pauli conditionals compile");
        prop_assert!(program.word_frame().is_none());
        let mut frame = program.frame();
        let mut sim = StabilizerSim::new(n);
        let mut frame_rng = StdRng::seed_from_u64(seed);
        let mut tableau_rng = StdRng::seed_from_u64(seed);
        let mut frame_word = OutcomeWord::zero();
        let mut tableau_word = OutcomeWord::zero();
        for shot in 0..4 {
            program.run_shot(&mut frame, &noise, &mut frame_rng, &mut frame_word);
            tableau_shot(&qc, &noise, &mut sim, &mut tableau_rng, &mut tableau_word);
            prop_assert_eq!(&frame_word, &tableau_word, "n={} shot {}", n, shot);
        }
        prop_assert_eq!(frame_rng.gen::<u64>(), tableau_rng.gen::<u64>());
    }
}

/// A frame sized for one program refuses a program it cannot hold.
#[test]
#[should_panic(expected = "frame storage does not fit")]
fn a_frame_of_the_wrong_width_is_refused() {
    let mut narrow = Circuit::new(2, 2);
    narrow.h(0).cx(0, 1).measure_all();
    let mut wide = Circuit::new(70, 1);
    wide.h(69).measure(69, 0);
    let mut frame = FrameProgram::compile(&narrow).unwrap().frame();
    let program = FrameProgram::compile(&wide).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    program.run_shot(
        &mut frame,
        &NoiseModel::ideal(),
        &mut rng,
        &mut OutcomeWord::zero(),
    );
}
