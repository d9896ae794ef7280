//! Criterion microbenches: the unified backend layer.
//!
//! * `clifford_surface_memory` — the same surface-code syndrome-extraction
//!   circuit through the tableau backend vs. the dense backend at the
//!   largest distance both can run (d = 3, 17 qubits), plus tableau-only
//!   distance 5 (49 qubits, impossible densely) and distance 7
//!   (`tableau_d7_wide_counts`: 97 qubits, 97-bit multi-word outcome
//!   registers — the wide-counts row CI watches so the spill
//!   representation stays cheap relative to the ≤ 64-bit rows). The
//!   tableau/dense ratio on the d = 3 rows is the speedup CI tracks.
//! * `parallel_exec` — a 10k-shot noisy GHZ workload at 1 vs. 8 worker
//!   threads (bit-identical results; the ratio is the wall-clock speedup).
//! * `memory_point` — one whole point of perfbench's `qec_memory` ladder:
//!   a `circuit_level_experiment_threaded` call at d = 5, two rounds,
//!   2,048 shots on two threads, simulation and decoding included.

use criterion::{criterion_group, criterion_main, Criterion};
use qcir::circuit::Circuit;
use qec::memory::circuit_level_experiment_threaded;
use qec::surface::SurfaceCode;
use qsim::backend::BackendChoice;
use qsim::exec::ExecutorConfig;
use qsim::noise::NoiseModel;

const MEMORY_SHOTS: u64 = 16;

fn bench_clifford_surface_memory(c: &mut Criterion) {
    let noise = NoiseModel::uniform_depolarizing(0.001);
    let d3 = SurfaceCode::new(3).memory_circuit(2).circuit;
    let d5 = SurfaceCode::new(5).memory_circuit(2).circuit;
    let mut group = c.benchmark_group("clifford_surface_memory");
    group.bench_function("tableau_d3", |b| {
        let exec = ExecutorConfig::new()
            .noise(noise.clone())
            .backend(BackendChoice::Tableau)
            .build();
        b.iter(|| std::hint::black_box(exec.try_run(&d3, MEMORY_SHOTS, 1).unwrap()))
    });
    group.bench_function("dense_d3", |b| {
        let exec = ExecutorConfig::new()
            .noise(noise.clone())
            .backend(BackendChoice::Dense)
            .build();
        b.iter(|| std::hint::black_box(exec.try_run(&d3, MEMORY_SHOTS, 1).unwrap()))
    });
    group.bench_function("tableau_d5", |b| {
        let exec = ExecutorConfig::new()
            .noise(noise.clone())
            .backend(BackendChoice::Tableau)
            .build();
        b.iter(|| std::hint::black_box(exec.try_run(&d5, MEMORY_SHOTS, 1).unwrap()))
    });
    // Wide-counts row: distance-7 memory records 97-bit outcome words, so
    // every shot exercises the multi-word spill path end to end (tableau
    // write → counts table → chunk merge).
    let d7 = SurfaceCode::new(7).memory_circuit(2).circuit;
    assert!(d7.num_clbits() > 64, "d7 must cross the one-word boundary");
    group.bench_function("tableau_d7_wide_counts", |b| {
        let exec = ExecutorConfig::new()
            .noise(noise.clone())
            .backend(BackendChoice::Tableau)
            .build();
        b.iter(|| std::hint::black_box(exec.try_run(&d7, MEMORY_SHOTS, 1).unwrap()))
    });
    group.finish();
}

fn bench_parallel_exec(c: &mut Criterion) {
    let mut ghz = Circuit::new(10, 10);
    ghz.h(0);
    for q in 0..9 {
        ghz.cx(q, q + 1);
    }
    ghz.measure_all();
    let noise = qsim::profiles::noisy_nisq();
    let choice = BackendChoice::Auto;
    let mut group = c.benchmark_group("parallel_exec");
    for &threads in &[1usize, 8] {
        let exec = ExecutorConfig::new()
            .noise(noise.clone())
            .backend(choice)
            .threads(threads)
            .build();
        let name = format!("ghz10_noisy_10k_shots/backend={choice}/threads={threads}");
        group.bench_function(&name, |b| {
            b.iter(|| std::hint::black_box(exec.try_run(&ghz, 10_000, 1).unwrap()))
        });
    }
    group.finish();
}

fn bench_memory_point(c: &mut Criterion) {
    let noise = NoiseModel::uniform_depolarizing(0.001);
    let mut group = c.benchmark_group("memory_point");
    group.bench_function("d5_r2_2048", |b| {
        b.iter(|| {
            std::hint::black_box(
                circuit_level_experiment_threaded(5, &noise, 2, 2048, 1, 2).unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clifford_surface_memory,
    bench_parallel_exec,
    bench_memory_point
);
criterion_main!(benches);
