//! Regression tests: warm cached-plan execution stays off the slow paths.
//!
//! Two properties of the compile step are pinned here, via a counting
//! global allocator and the debug-only [`Gate::kind`] call counter, for a
//! fused noiseless plan and for a noisy plan whose draw sites fire:
//!
//! 1. **Zero `kind()` calls on warm runs.** Gate classification (which
//!    recomputes `sin`/`cos`/`exp` matrix entries) happens once at plan
//!    compile time; replaying a cached plan performs no classification at
//!    all. This fails if noisy dense jobs are ever routed back through
//!    per-gate dispatch.
//! 2. **Zero heap allocations in the per-shot replay loop** for ≤ 64-clbit
//!    registers: the reused state vector, the precompiled op list and the
//!    inline outcome word mean a warm trajectory is pure arithmetic.
//!
//! Kept as its own integration binary (single test) so no concurrent test
//! thread can allocate — or classify gates — while the counters are read.

use qcir::circuit::Circuit;
use qcir::gate::Gate;
use qsim::dist::Counts;
use qsim::exec::{ExecutorConfig, PlanCacheMode};
use qsim::noise::NoiseModel;
use qsim::plan::CircuitPlan;
use qsim::state::StateVector;
use qsim::word::OutcomeWord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps the system allocator and counts allocation calls.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A mid-circuit-measurement workload (so executor runs take the per-shot
/// plan-replay path, not the sampling path) mixing every kernel tier.
fn workload() -> Circuit {
    let mut qc = Circuit::new(6, 6);
    qc.h(0).t(0).cx(0, 1).cz(1, 2).swap(2, 3);
    qc.rz(0.37, 3).push_gate(Gate::CH, &[3, 4]).ccx(0, 1, 5);
    qc.measure(0, 0);
    qc.cond_gate(Gate::X, &[1], 0, true);
    qc.h(4).cx(4, 5);
    for q in 0..6 {
        qc.measure(q, q);
    }
    qc
}

/// A 4-qubit noisy workload: every channel live at p = 0.05, so the noisy
/// plan's gate, idle and readout draws fire during the warm shots.
fn noisy_workload() -> (Circuit, NoiseModel) {
    let mut qc = Circuit::new(4, 4);
    qc.h(0).t(1).cx(0, 1).cz(1, 2).swap(2, 3).rz(0.37, 3);
    qc.barrier_all();
    qc.measure(0, 0);
    qc.cond_gate(Gate::X, &[1], 0, true);
    qc.ccx(0, 1, 2).push_gate(Gate::Id, &[3]);
    qc.measure_all();
    let mut noise = NoiseModel::uniform_depolarizing(0.05);
    noise.idle_error = 0.05;
    noise.readout_error = 0.05;
    (qc, noise)
}

#[test]
fn warm_cached_plan_runs_skip_classification_and_allocation() {
    // Telemetry fully on — metrics recording AND an active trace sink —
    // so the zero-allocation assertion below also pins the observability
    // layer's hot-path contract: kernel tier counters are relaxed
    // `fetch_add`s on preallocated atomics, and the shot loop contains
    // no span, so even a live sink costs it nothing.
    qugen_telemetry::metrics::set_enabled(true);
    let _trace_buffer = qugen_telemetry::trace::install_capture();

    for (qc, noise) in [(workload(), NoiseModel::ideal()), noisy_workload()] {
        let label = noise.label.clone();
        let exec = ExecutorConfig::new()
            .noise(noise.clone())
            .plan_cache(PlanCacheMode::Private)
            .build();

        // Cold: compiles the plan (classifying each gate exactly once there).
        let cold = exec.try_run(&qc, 64, 5).unwrap();
        assert_eq!(cold.shots(), 64);

        // Warm executor runs perform zero `Gate::kind` calls: every matrix
        // and kernel choice was frozen into the cached plan. (The counter
        // only exists in debug builds; release builds compile the shim
        // out.)
        #[cfg(debug_assertions)]
        {
            qcir::gate::kind_stats::reset();
            let warm = exec.try_run(&qc, 64, 6).unwrap();
            assert_eq!(warm.shots(), 64);
            assert_eq!(
                qcir::gate::kind_stats::calls(),
                0,
                "a warm cached-plan run re-classified gates under {label}"
            );
        }

        // The per-shot replay loop — reinit, replay precompiled ops (and
        // their noise draws), measure, record — allocates nothing once the
        // state, RNG chunk and counts table are warm. Drive the loop
        // exactly as the executor's `run_chunk` does, with the
        // executor-owned pieces preallocated.
        let plan = if noise.is_noisy() {
            Arc::new(CircuitPlan::compile_noisy(&qc, &noise))
        } else {
            exec.plan_for(&qc)
        };
        let mut sv = StateVector::zero(qc.num_qubits());
        let mut counts = Counts::new(qc.num_clbits());
        let mut word = OutcomeWord::zero();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..64 {
            plan.run_trajectory(&mut sv, &noise, &mut rng, &mut word);
            counts.record_word(&word);
        }

        // The harness's own runtime occasionally allocates on another
        // thread while we measure, so take the minimum over several
        // attempts: the loop is deterministic, so if ANY attempt observes
        // zero allocations the hot path itself is allocation-free.
        let mut min_allocs = usize::MAX;
        for _attempt in 0..8 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..64 {
                plan.run_trajectory(&mut sv, &noise, &mut rng, &mut word);
                counts.record_word(&word);
            }
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            min_allocs = min_allocs.min(after - before);
        }
        assert_eq!(
            min_allocs, 0,
            "warm cached-plan shots under {label} allocated {min_allocs} time(s) with \
             telemetry enabled"
        );
        assert_eq!(word.num_words(), 1, "inline outcome representation in play");
    }

    // The instrumentation was genuinely live while the loop ran, not
    // compiled away: the kernel dispatch-tier counters moved.
    let tier_counts: u64 = [
        "kernels.butterfly1_avx2",
        "kernels.butterfly1_scalar",
        "kernels.dense2_avx2",
        "kernels.dense2_scalar",
    ]
    .iter()
    .map(|name| qugen_telemetry::metrics::counter(name).get())
    .sum::<u64>();
    assert!(tier_counts > 0, "kernel tier counters never advanced");
    qugen_telemetry::trace::disable();
}
