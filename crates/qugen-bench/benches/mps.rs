//! Criterion microbenches: the MPS backend.
//!
//! * `mps_brickwork` — a 1D brickwork circuit (per-qubit RY rotations +
//!   nearest-neighbor CP entanglers, non-Clifford throughout) run at sizes
//!   the dense engine can still handle (the MPS-vs-dense crossover rows)
//!   and at 30–40 qubits where only the MPS engine can run at all. The
//!   `dense_refused_30q` row pins down that the dense backend returns
//!   `SimError::QubitCapExceeded` for the same ≥30-qubit circuit the MPS
//!   rows complete — the acceptance evidence in `BENCH_mps.json`.
//! * `mps_env_backend` — the same workload at 20 qubits under auto
//!   dispatch, which routes this short-range general circuit densely.

use criterion::{criterion_group, criterion_main, Criterion};
use qcir::circuit::Circuit;
use qsim::backend::{BackendChoice, SimError};
use qsim::exec::{derive_seed, ExecutorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHOTS: u64 = 32;
const DEPTH: usize = 4;
const CHI: usize = 32;

/// A 1D brickwork circuit: `depth` alternating layers of per-qubit RY
/// rotations and nearest-neighbor CP entanglers, fully measured. General
/// class (non-Clifford), interaction range 1 — the low-entanglement regime
/// the MPS backend targets.
fn brickwork(n: usize, depth: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, n as u64));
    let mut qc = Circuit::new(n, n);
    for layer in 0..depth {
        for q in 0..n {
            qc.ry(rng.gen_range(-1.5..1.5), q);
        }
        let start = layer % 2;
        for q in (start..n - 1).step_by(2) {
            qc.cp(rng.gen_range(-1.5..1.5), q, q + 1);
        }
    }
    qc.measure_all();
    qc
}

fn bench_mps_brickwork(c: &mut Criterion) {
    let mut group = c.benchmark_group("mps_brickwork");
    // Crossover rows: sizes both engines can run.
    for &n in &[16usize, 20] {
        let qc = brickwork(n, DEPTH, 7);
        let dense = ExecutorConfig::new().backend(BackendChoice::Dense).build();
        group.bench_function(&format!("dense_{n}q"), |b| {
            b.iter(|| std::hint::black_box(dense.try_run(&qc, SHOTS, 1).unwrap()))
        });
        let mps = ExecutorConfig::new()
            .backend(BackendChoice::Mps { max_bond: CHI })
            .build();
        group.bench_function(&format!("mps_{n}q_chi{CHI}"), |b| {
            b.iter(|| std::hint::black_box(mps.try_run(&qc, SHOTS, 1).unwrap()))
        });
    }
    // Past the dense cap: MPS only.
    for &n in &[30usize, 36, 40] {
        let qc = brickwork(n, DEPTH, 7);
        let mps = ExecutorConfig::new()
            .backend(BackendChoice::Mps { max_bond: CHI })
            .build();
        group.bench_function(&format!("mps_{n}q_chi{CHI}"), |b| {
            b.iter(|| std::hint::black_box(mps.try_run(&qc, SHOTS, 1).unwrap()))
        });
    }
    // The same 30-qubit circuit is refused outright by the dense engine.
    let qc30 = brickwork(30, DEPTH, 7);
    let dense = ExecutorConfig::new().backend(BackendChoice::Dense).build();
    group.bench_function("dense_refused_30q", |b| {
        b.iter(|| {
            let err = dense.try_run(&qc30, SHOTS, 1).unwrap_err();
            assert!(matches!(err, SimError::QubitCapExceeded { .. }));
            std::hint::black_box(err)
        })
    });
    group.finish();
}

fn bench_auto_backend(c: &mut Criterion) {
    let choice = BackendChoice::Auto;
    let qc = brickwork(20, DEPTH, 7);
    let exec = ExecutorConfig::new().backend(choice).build();
    c.bench_function(&format!("mps_env_backend/brickwork_20q/{choice}"), |b| {
        b.iter(|| std::hint::black_box(exec.try_run(&qc, SHOTS, 1).unwrap()))
    });
}

criterion_group!(benches, bench_mps_brickwork, bench_auto_backend);
criterion_main!(benches);
