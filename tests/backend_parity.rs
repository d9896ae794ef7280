//! Backend-parity and parallel-determinism properties of the unified
//! simulation-backend layer.
//!
//! * The dense and tableau backends must agree on the circuit class they
//!   share, random Clifford circuits — exactly when every measurement is
//!   determined, and within sampling tolerance otherwise.
//! * Parallel shot execution with a fixed seed must reproduce the
//!   single-threaded `Counts` bit for bit, on every backend and path.

use proptest::prelude::*;
use qugen::qcir::circuit::Circuit;
use qugen::qcir::gate::Gate;
use qugen::qsim::backend::BackendChoice;
use qugen::qsim::dist::Counts;
use qugen::qsim::exec::ExecutorConfig;
use qugen::qsim::noise::NoiseModel;

const N: usize = 5;

/// Strategy: one random Clifford op (gate, measure or reset) over `N`
/// qubits, encoded as (selector, q, offset).
fn arb_clifford_op() -> impl Strategy<Value = (u8, usize, usize)> {
    (0u8..13, 0..N, 1..N)
}

/// Builds a Clifford circuit with interleaved measurement/reset from the
/// encoded op stream, ending in a full measurement so every qubit is read.
fn clifford_circuit(ops: &[(u8, usize, usize)]) -> Circuit {
    let mut qc = Circuit::new(N, N);
    for &(sel, q, off) in ops {
        let p = (q + off) % N;
        match sel {
            0 => {
                qc.h(q);
            }
            1 => {
                qc.s(q);
            }
            2 => {
                qc.sdg(q);
            }
            3 => {
                qc.x(q);
            }
            4 => {
                qc.y(q);
            }
            5 => {
                qc.z(q);
            }
            6 => {
                qc.push_gate(Gate::SX, &[q]);
            }
            7 => {
                qc.cx(q, p);
            }
            8 => {
                qc.cz(q, p);
            }
            9 => {
                qc.swap(q, p);
            }
            10 => {
                qc.measure(q, q);
            }
            11 => {
                qc.reset(q);
            }
            _ => {
                qc.cond_gate(Gate::X, &[p], q, true);
            }
        }
    }
    qc.measure_all();
    qc
}

fn run_forced(backend: BackendChoice, qc: &Circuit, shots: u64, seed: u64) -> Counts {
    ExecutorConfig::new()
        .backend(backend)
        .build()
        .try_run(qc, shots, seed)
        .expect("parity circuits fit every forced backend")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense and tableau sampled distributions agree on random Clifford
    /// circuits with mid-circuit measurement, reset and classical control.
    #[test]
    fn dense_and_tableau_agree_on_random_clifford_circuits(
        ops in prop::collection::vec(arb_clifford_op(), 0..30),
        seed in 0u64..1_000,
    ) {
        let qc = clifford_circuit(&ops);
        // Clifford distributions are uniform over up to 2^5 outcomes here;
        // at 8192 shots the empirical TVD between two independent samples
        // concentrates around 0.04, well inside the tolerance.
        let shots = 8192;
        let dense = run_forced(BackendChoice::Dense, &qc, shots, seed).to_distribution();
        let tableau = run_forced(BackendChoice::Tableau, &qc, shots, seed ^ 0xABCD).to_distribution();
        let tvd = dense.tvd(&tableau);
        prop_assert!(tvd < 0.12, "dense vs tableau tvd = {tvd}");
    }

    /// Determined circuits (no superposition before any measurement) must
    /// agree *exactly*: every shot yields the same word on both backends.
    #[test]
    fn backends_agree_exactly_on_determined_circuits(
        flips in prop::collection::vec(0u8..2, N),
        chain in 0u8..2,
    ) {
        let mut qc = Circuit::new(N, N);
        for (q, &flip) in flips.iter().enumerate() {
            if flip == 1 {
                qc.x(q);
            }
        }
        if chain == 1 {
            // CX ladder keeps the state classical (basis state in, basis
            // state out), so measurements stay determined.
            for q in 0..N - 1 {
                qc.cx(q, q + 1);
            }
        }
        qc.measure_all();
        let dense = run_forced(BackendChoice::Dense, &qc, 64, 5);
        let tableau = run_forced(BackendChoice::Tableau, &qc, 64, 99);
        prop_assert_eq!(dense.distinct_outcomes(), 1);
        prop_assert_eq!(&dense, &tableau);
    }

    /// Fixed-seed parallel execution reproduces the single-threaded counts
    /// bit for bit on both backends, with and without noise.
    #[test]
    fn parallel_execution_is_deterministic(
        ops in prop::collection::vec(arb_clifford_op(), 0..20),
        seed in 0u64..1_000,
        threads in 2usize..6,
        noisy in 0u8..2,
    ) {
        let qc = clifford_circuit(&ops);
        let noise = if noisy == 1 {
            NoiseModel::uniform_depolarizing(0.01)
        } else {
            NoiseModel::ideal()
        };
        for backend in [BackendChoice::Dense, BackendChoice::Tableau] {
            let config = ExecutorConfig::new().noise(noise.clone()).backend(backend);
            let serial = config.clone().build().try_run(&qc, 3000, seed).expect("runnable");
            let parallel = config
                .clone()
                .threads(threads)
                .build()
                .try_run(&qc, 3000, seed)
                .expect("runnable");
            prop_assert_eq!(&serial, &parallel, "backend {:?}", backend);
        }
    }
}

#[test]
fn distance5_memory_circuit_runs_end_to_end() {
    // The acceptance workload: a 49-qubit Clifford syndrome-extraction
    // circuit through the Executor — impossible before the backend layer.
    let code = qugen::qec::surface::SurfaceCode::new(5);
    let mem = code.memory_circuit(2);
    assert_eq!(mem.circuit.num_qubits(), 49);
    let counts = ExecutorConfig::new()
        .noise(NoiseModel::uniform_depolarizing(0.002))
        .threads(4)
        .build()
        .try_run(&mem.circuit, 200, 31)
        .expect("tableau dispatch handles 49-qubit Clifford circuits");
    assert_eq!(counts.shots(), 200);
}
