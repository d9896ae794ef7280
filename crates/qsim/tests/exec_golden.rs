//! Golden counts for every executor shot source.
//!
//! The executor's other tests compare its paths with each other (batch vs
//! single job, replay vs per-gate dispatch, one thread vs many) inside one
//! build. This file pins their *absolute* output instead: each run's
//! sorted `(bitstring, count)` table is hashed into a fixed hex digest, so
//! a refactor of the lowering or the shot scheduler that changes a single
//! count, a chunk seed or the RNG consumption order fails here even when
//! every path moved together.
//!
//! One circuit per shot source — dense sampling, the planned dense
//! trajectory (mid-circuit measure, reset, conditional 1q and 2q gates),
//! noisy dense replay and the tableau engine (a noisy d=3 surface-code
//! memory circuit) — at `2 * SHOT_CHUNK + 37` shots (two full chunks and a
//! ragged tail), on 1, 2 and 4 worker threads, through both `try_run` and
//! one `try_run_batch` over all four circuits per noise model. Each case
//! keeps the seed it was recorded with, so its digest does not depend on
//! which other cases share the batch.

use qcir::circuit::Circuit;
use qcir::gate::Gate;
use qec::surface::SurfaceCode;
use qsim::backend::BackendChoice;
use qsim::dist::Counts;
use qsim::exec::{ExecutorConfig, SHOT_CHUNK};
use qsim::job::JobSpec;
use qsim::noise::NoiseModel;
use qsim::profiles;
use std::sync::Arc;

const SHOTS: u64 = 2 * SHOT_CHUNK + 37;

/// FNV-1a (64-bit) over the sorted `bitstring:count` lines of a run.
fn digest(counts: &Counts) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (word, count) in counts.iter() {
        for b in format!("{}:{count}\n", word.bitstring(counts.num_clbits())).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A measure-at-end circuit with non-Clifford gates: dense sampling.
fn sampling_circuit() -> Circuit {
    let mut qc = Circuit::new(5, 5);
    for q in 0..5 {
        qc.h(q).t(q);
    }
    qc.cx(0, 1)
        .cx(1, 2)
        .ry(0.7, 3)
        .cx(2, 3)
        .cp(0.4, 3, 4)
        .rx(1.1, 4);
    qc.measure_all();
    qc
}

/// Noiseless dense with mid-circuit measurement, a reset and conditional
/// one- and two-qubit gates: the planned trajectory path.
fn planned_circuit() -> Circuit {
    let mut qc = Circuit::new(4, 4);
    qc.h(0).t(0).h(2).cx(2, 3).measure(0, 0);
    qc.cond_gate(Gate::RY(0.4), &[1], 0, true);
    qc.cond_gate(Gate::CRY(0.7), &[1, 2], 0, true);
    qc.reset(0);
    qc.h(0).cp(0.3, 0, 3).cz(1, 2);
    qc.measure_all();
    qc
}

/// A dense circuit with every gate class and a barrier, run noisy: replay.
fn noisy_circuit() -> Circuit {
    let mut qc = Circuit::new(4, 4);
    qc.h(0).cx(0, 1).t(1).rz(0.4, 2).ch(1, 2).barrier_all();
    qc.swap(1, 3)
        .ccx(0, 1, 2)
        .cswap(3, 0, 1)
        .push_gate(Gate::Id, &[2]);
    qc.measure(0, 0);
    qc.cond_gate(Gate::X, &[2], 0, true);
    qc.h(0).cz(0, 2);
    qc.measure_all();
    qc
}

struct Case {
    name: &'static str,
    circuit: Arc<Circuit>,
    backend: BackendChoice,
    noisy: bool,
    seed: u64,
}

fn cases() -> Vec<Case> {
    let case = |name, circuit, backend, noisy, seed| Case {
        name,
        circuit: Arc::new(circuit),
        backend,
        noisy,
        seed,
    };
    vec![
        case(
            "dense_sampling",
            sampling_circuit(),
            BackendChoice::Dense,
            false,
            100,
        ),
        case(
            "planned_trajectory",
            planned_circuit(),
            BackendChoice::Dense,
            false,
            102,
        ),
        case(
            "noisy_replay",
            noisy_circuit(),
            BackendChoice::Dense,
            true,
            103,
        ),
        case(
            "tableau_memory",
            SurfaceCode::new(3).memory_circuit(2).circuit,
            BackendChoice::Tableau,
            true,
            104,
        ),
    ]
}

fn noise(noisy: bool) -> NoiseModel {
    if noisy {
        profiles::noisy_nisq()
    } else {
        NoiseModel::ideal()
    }
}

/// Digests recorded before the executor's lowering and scheduler were
/// unified; `(run, digest)` with `run` naming the path and circuit.
const PINNED: [(&str, &str); 12] = [
    ("try_run/dense_sampling", "962b9d0eee14b26d"),
    ("try_run/planned_trajectory", "487c282f7c9b5bed"),
    ("try_run/noisy_replay", "523c14249803bba1"),
    ("try_run/tableau_memory", "3be064bc9eceffbb"),
    ("batch_ideal/dense_sampling", "962b9d0eee14b26d"),
    ("batch_ideal/planned_trajectory", "487c282f7c9b5bed"),
    ("batch_ideal/noisy_replay", "729fa9ac43d2ad4f"),
    ("batch_ideal/tableau_memory", "7e07cccaff7eaa88"),
    ("batch_noisy/dense_sampling", "4faf780fbd2862e6"),
    ("batch_noisy/planned_trajectory", "327a45d9a5e7111f"),
    ("batch_noisy/noisy_replay", "523c14249803bba1"),
    ("batch_noisy/tableau_memory", "3be064bc9eceffbb"),
];

#[test]
fn executor_counts_match_the_pinned_digests() {
    let cases = cases();
    let mut seen: Vec<(String, String)> = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut run_digests = Vec::new();
        for case in &cases {
            let counts = ExecutorConfig::new()
                .noise(noise(case.noisy))
                .backend(case.backend)
                .threads(threads)
                .build()
                .try_run(&case.circuit, SHOTS, case.seed)
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            assert_eq!(counts.shots(), SHOTS, "{}", case.name);
            run_digests.push((format!("try_run/{}", case.name), digest(&counts)));
        }
        for noisy in [false, true] {
            let specs: Vec<JobSpec> = cases
                .iter()
                .map(|case| {
                    JobSpec::new(Arc::clone(&case.circuit), SHOTS, case.seed)
                        .with_backend(case.backend)
                })
                .collect();
            let batch = ExecutorConfig::new()
                .noise(noise(noisy))
                .threads(threads)
                .build()
                .try_run_batch(&specs);
            let label = if noisy { "noisy" } else { "ideal" };
            for (case, result) in cases.iter().zip(batch) {
                let counts = result.unwrap_or_else(|e| panic!("{}: {e}", case.name));
                let d = digest(&counts);
                if case.noisy == noisy {
                    // Same job, same noise: the batch must agree with the
                    // single run bit for bit.
                    let single = &run_digests
                        .iter()
                        .find(|(run, _)| *run == format!("try_run/{}", case.name))
                        .expect("every case ran alone")
                        .1;
                    assert_eq!(&d, single, "batch vs try_run: {}", case.name);
                }
                run_digests.push((format!("batch_{label}/{}", case.name), d));
            }
        }
        if seen.is_empty() {
            seen = run_digests;
        } else {
            assert_eq!(seen, run_digests, "counts moved at {threads} threads");
        }
    }
    let pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|&(run, d)| (run.to_string(), d.to_string()))
        .collect();
    assert_eq!(
        seen, pinned,
        "executor counts moved from the pinned digests"
    );
}
