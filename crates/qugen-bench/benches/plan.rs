//! Criterion benches: the compile step — fused cached plans vs the
//! per-gate kernel dispatch they replace.
//!
//! The headline `plan_fusion_20q` group runs the same 20-qubit random
//! circuit family as `sim_kernels`' `random_circuit_20q` through both
//! execution paths; the ratio between `per_gate_dispatch` and
//! `fused_plan_warm` is the fusion win CI tracks (acceptance floor: 1.5x).
//! `noisy_plan_suite` runs the QEC stage's noisy dense traffic — the 34
//! suite references at 4096 shots under `ibm_brisbane_like` — through
//! per-gate dispatch and through compiled noisy plans.

use criterion::{criterion_group, criterion_main, Criterion};
use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use qsim::dist::Counts;
use qsim::exec::Executor;
use qsim::noise::NoiseModel;
use qsim::plan::CircuitPlan;
use qsim::state::StateVector;
use qsim::word::OutcomeWord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The same deterministic random gate mix as `sim_kernels::random_gates`
/// (diagonal, permutation, butterfly and controlled tiers).
fn random_gates(n: usize, count: usize, seed: u64) -> Vec<(Gate, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gates = Vec::with_capacity(count);
    for _ in 0..count {
        let q = rng.gen_range(0..n);
        let p = (q + rng.gen_range(1..n)) % n;
        let gate: (Gate, Vec<usize>) = match rng.gen_range(0..8) {
            0 => (Gate::H, vec![q]),
            1 => (Gate::T, vec![q]),
            2 => (Gate::RZ(rng.gen_range(-3.0..3.0)), vec![q]),
            3 => (Gate::U(0.3, 1.1, -0.4), vec![q]),
            4 => (Gate::X, vec![q]),
            5 => (Gate::CX, vec![q, p]),
            6 => (Gate::CZ, vec![q, p]),
            _ => (Gate::SWAP, vec![q, p]),
        };
        gates.push(gate);
    }
    gates
}

fn circuit_from(n: usize, gates: &[(Gate, Vec<usize>)]) -> Circuit {
    let mut qc = Circuit::new(n, n);
    for (g, qs) in gates {
        qc.push_gate(*g, qs);
    }
    qc
}

/// The headline bench: the 20q random circuit through PR 2's per-gate
/// kernel dispatch vs a fused cached plan (and vs cold compile-and-run,
/// which bounds the amortized compile cost).
fn bench_plan_fusion_20q(c: &mut Criterion) {
    let n = 20;
    let gates = random_gates(n, 40, 99);
    let qc = circuit_from(n, &gates);
    let plan = CircuitPlan::compile(&qc);
    println!(
        "bench: plan_fusion_20q fused {} source gates into {} planned ops",
        plan.source_gate_ops(),
        plan.fused_unitaries()
    );
    let mut group = c.benchmark_group("plan_fusion_20q");
    let mut sv = StateVector::zero(n);
    group.bench_function("per_gate_dispatch", |b| {
        b.iter(|| {
            sv.reinit();
            for (g, qs) in &gates {
                sv.apply_gate(*g, qs);
            }
            std::hint::black_box(sv.amplitudes().len())
        })
    });
    group.bench_function("fused_plan_warm", |b| {
        b.iter(|| {
            sv.reinit();
            plan.apply_unitary(&mut sv);
            std::hint::black_box(sv.amplitudes().len())
        })
    });
    group.bench_function("fused_plan_cold_compile", |b| {
        b.iter(|| {
            let cold = CircuitPlan::compile(&qc);
            sv.reinit();
            cold.apply_unitary(&mut sv);
            std::hint::black_box(sv.amplitudes().len())
        })
    });
    group.finish();
}

/// A deterministic rotation-brickwork circuit: `layers` rounds of per-qubit
/// RX·RZ rotations followed by alternating nearest-neighbour CX bricks —
/// the deep-circuit shape whose qubit triples fuse into `Dense3`
/// superblocks.
fn brickwork(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qc = Circuit::new(n, n);
    for layer in 0..layers {
        for q in 0..n {
            qc.rx(rng.gen_range(-3.0..3.0), q)
                .rz(rng.gen_range(-3.0..3.0), q);
        }
        for q in ((layer % 2)..n - 1).step_by(2) {
            qc.cx(q, q + 1);
        }
    }
    qc
}

/// The deep-circuit rows CI gates on: 20q depth-100 brickwork through
/// per-gate dispatch vs the fused (Dense3-forming) warm plan. The
/// `fused_plan_warm`/`per_gate_dispatch` ratio is the superblock win the
/// bench-smoke job asserts at ≥1.3x.
fn bench_plan_deep_20q(c: &mut Criterion) {
    let n = 20;
    let qc = brickwork(n, 100, 11);
    let plan = CircuitPlan::compile(&qc);
    println!(
        "bench: plan_deep_20q fused {} source gates into {} planned ops ({} declined)",
        plan.source_gate_ops(),
        plan.fused_unitaries(),
        plan.fusion_declined()
    );
    let gates: Vec<(Gate, Vec<usize>)> = qc
        .ops()
        .iter()
        .filter_map(|op| match op {
            Op::Gate { gate, qubits } => Some((*gate, qubits.clone())),
            _ => None,
        })
        .collect();
    let mut group = c.benchmark_group("plan_deep_20q");
    let mut sv = StateVector::zero(n);
    group.bench_function("per_gate_dispatch", |b| {
        b.iter(|| {
            sv.reinit();
            for (g, qs) in &gates {
                sv.apply_gate(*g, qs);
            }
            std::hint::black_box(sv.amplitudes().len())
        })
    });
    group.bench_function("fused_plan_warm", |b| {
        b.iter(|| {
            sv.reinit();
            plan.apply_unitary(&mut sv);
            std::hint::black_box(sv.amplitudes().len())
        })
    });
    group.finish();
}

/// Diagonal-heavy circuit: long runs of phase gates the cost-model fuser
/// declines to densify, so the fused plan keeps the cheap `Diag1`/`Diag2`
/// sweeps instead of paying dense 4x4/8x8 blocks.
fn bench_plan_diag_heavy_18q(c: &mut Criterion) {
    let n = 18;
    let mut rng = StdRng::seed_from_u64(23);
    let mut qc = Circuit::new(n, n);
    for _ in 0..400 {
        let q = rng.gen_range(0..n);
        let p = (q + rng.gen_range(1..n)) % n;
        match rng.gen_range(0..5) {
            0 => qc.t(q),
            1 => qc.rz(rng.gen_range(-3.0..3.0), q),
            2 => qc.s(q),
            3 => qc.cz(q, p),
            _ => qc.push_gate(Gate::CP(rng.gen_range(-3.0..3.0)), &[q, p]),
        };
    }
    let plan = CircuitPlan::compile(&qc);
    println!(
        "bench: plan_diag_heavy_18q fused {} source gates into {} planned ops ({} declined)",
        plan.source_gate_ops(),
        plan.fused_unitaries(),
        plan.fusion_declined()
    );
    let gates: Vec<(Gate, Vec<usize>)> = qc
        .ops()
        .iter()
        .filter_map(|op| match op {
            Op::Gate { gate, qubits } => Some((*gate, qubits.clone())),
            _ => None,
        })
        .collect();
    let mut group = c.benchmark_group("plan_diag_heavy_18q");
    let mut sv = StateVector::zero(n);
    group.bench_function("per_gate_dispatch", |b| {
        b.iter(|| {
            sv.reinit();
            for (g, qs) in &gates {
                sv.apply_gate(*g, qs);
            }
            std::hint::black_box(sv.amplitudes().len())
        })
    });
    group.bench_function("fused_plan_warm", |b| {
        b.iter(|| {
            sv.reinit();
            plan.apply_unitary(&mut sv);
            std::hint::black_box(sv.amplitudes().len())
        })
    });
    group.finish();
}

/// Noisy 16q brickwork trajectories: per-gate dispatch
/// ([`per_gate_trajectory`]) vs walking the precompiled noisy plan
/// (`CircuitPlan::compile_noisy`). Both arms consume identical RNG streams
/// and produce identical outcomes.
fn bench_noisy_replay_16q(c: &mut Criterion) {
    let n = 16;
    let mut qc = brickwork(n, 12, 31);
    qc.measure_all();
    let mut noise = NoiseModel::uniform_depolarizing(0.002);
    noise.readout_error = 0.01;
    let plan = CircuitPlan::compile_noisy(&qc, &noise);
    const SHOTS: usize = 24;
    let mut group = c.benchmark_group("noisy_replay_16q");
    let mut sv = StateVector::zero(n);
    let mut word = OutcomeWord::zero();
    group.bench_function("per_gate_dispatch", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..SHOTS {
                per_gate_trajectory(&qc, &noise, &mut sv, &mut rng, &mut word);
                acc += word.bit(0) as usize;
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("segment_replay", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..SHOTS {
                plan.run_trajectory(&mut sv, &noise, &mut rng, &mut word);
                acc += word.bit(0) as usize;
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

/// One noisy trajectory dispatched gate by gate — `StateVector::apply_gate`
/// then the gate's error draws, idle draws at barriers, readout error at
/// measurements: the per-shot work a compiled noisy plan replaces.
fn per_gate_trajectory(
    qc: &Circuit,
    noise: &NoiseModel,
    sv: &mut StateVector,
    rng: &mut StdRng,
    word: &mut OutcomeWord,
) {
    sv.reinit();
    word.clear();
    for op in qc.ops() {
        match op {
            Op::Gate { gate, qubits } => {
                sv.apply_gate(*gate, qubits);
                noise.for_each_gate_error(gate, qubits, rng, |q, p| sv.apply_pauli(q, p));
            }
            Op::CondGate {
                gate,
                qubits,
                clbit,
                value,
            } => {
                if word.bit(*clbit) == *value {
                    sv.apply_gate(*gate, qubits);
                    noise.for_each_gate_error(gate, qubits, rng, |q, p| sv.apply_pauli(q, p));
                }
            }
            Op::Measure { qubit, clbit } => {
                let raw = sv.measure(*qubit, rng);
                word.set_bit(*clbit, noise.sample_readout(raw, rng));
            }
            Op::Reset { qubit } => sv.reset(*qubit, rng),
            Op::Barrier { .. } => {
                noise.for_each_idle_error(sv.num_qubits(), rng, |q, p| sv.apply_pauli(q, p));
            }
        }
    }
}

/// Runs every `(circuit, noisy plan, state)` job for 4096 shots from a
/// per-job seed, per gate or through the plan, returning each job's counts.
fn run_suite(
    jobs: &mut [(Circuit, CircuitPlan, StateVector)],
    noise: &NoiseModel,
    compiled: bool,
) -> Vec<Counts> {
    let mut word = OutcomeWord::zero();
    jobs.iter_mut()
        .enumerate()
        .map(|(i, (qc, plan, sv))| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut counts = Counts::new(qc.num_clbits());
            for _ in 0..4096 {
                if compiled {
                    plan.run_trajectory(sv, noise, &mut rng, &mut word);
                } else {
                    per_gate_trajectory(qc, noise, sv, &mut rng, &mut word);
                }
                counts.record_word(&word);
            }
            counts
        })
        .collect()
}

/// The QEC stage's noisy dense traffic: `QecAgent::compare` runs each
/// program at 4096 shots under `ibm_brisbane_like` (`QecStage::default()`).
/// Here the 34 suite references run through per-gate dispatch and through
/// warm compiled noisy plans; the arms' counts are checked identical
/// before timing. CI requires `compiled_plan` ≥ 1.3x faster.
fn bench_noisy_plan_suite(c: &mut Criterion) {
    let noise = qsim::profiles::ibm_brisbane_like();
    let mut jobs: Vec<(Circuit, CircuitPlan, StateVector)> = qeval::suite::test_suite()
        .iter()
        .map(|task| {
            let qc = task.spec.reference_circuit();
            let plan = CircuitPlan::compile_noisy(&qc, &noise);
            let sv = StateVector::zero(qc.num_qubits());
            (qc, plan, sv)
        })
        .collect();
    assert_eq!(
        run_suite(&mut jobs, &noise, false),
        run_suite(&mut jobs, &noise, true),
        "compiled noisy plans must reproduce per-gate dispatch exactly"
    );
    let mut group = c.benchmark_group("noisy_plan_suite");
    group.bench_function("per_gate_dispatch", |b| {
        b.iter(|| run_suite(&mut jobs, &noise, false))
    });
    group.bench_function("compiled_plan", |b| {
        b.iter(|| run_suite(&mut jobs, &noise, true))
    });
    group.finish();
}

/// Executor-level view: repeated `try_run` of one circuit hits the shared
/// plan cache (the grader's access pattern — fresh executor per call).
fn bench_executor_plan_cache(c: &mut Criterion) {
    let n = 16;
    let gates = random_gates(n, 48, 7);
    let mut qc = circuit_from(n, &gates);
    qc.measure_all();
    // Prime the shared cache once so the loop below is all warm hits.
    let _ = Executor::ideal().try_run(&qc, 1, 0).unwrap();
    c.bench_function("executor_cached_plan_16q_256_shots", |b| {
        b.iter(|| std::hint::black_box(Executor::ideal().try_run(&qc, 256, 1).unwrap()))
    });
    c.bench_function("plan_compile_only_16q", |b| {
        b.iter(|| std::hint::black_box(CircuitPlan::compile(&qc).fused_unitaries()))
    });
}

criterion_group!(
    benches,
    bench_plan_fusion_20q,
    bench_plan_deep_20q,
    bench_plan_diag_heavy_18q,
    bench_noisy_replay_16q,
    bench_noisy_plan_suite,
    bench_executor_plan_cache
);
criterion_main!(benches);
