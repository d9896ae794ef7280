//! Regression tests: the simulator hot paths perform zero heap
//! allocations once warm, via a counting global allocator.
//!
//! * Dense gate application: the specialized kernels never allocate (gate
//!   classification returns matrix entries inline), and neither does
//!   Pauli injection.
//! * Tableau shots: `StabilizerSim::run_circuit_into` keeps its measurement
//!   scratch in the tableau, so a warm distance-5 surface-code memory shot
//!   (49 qubits, 121 measurements and resets) allocates nothing.
//! * Pauli-frame shots: `FrameProgram::run_shot` draws its noise through
//!   the non-allocating visitors, so a warm distance-5 frame shot with
//!   errors firing allocates nothing either, on the multi-word storage
//!   and on the one-word storage, and neither does projecting its outcome
//!   through a `ParityMap` and tallying a key seen before.
//!
//! These pin the properties so a future refactor cannot quietly
//! reintroduce a per-gate or per-measurement allocation on a simulator hot
//! path. Kept as its own integration binary, with the tests serialized on
//! one lock, so no other test thread allocates while a counter is read.

use qcir::circuit::Op;
use qcir::gate::Gate;
use qec::SurfaceCode;
use qsim::dist::Counts;
use qsim::frame::FrameProgram;
use qsim::noise::{NoiseModel, Pauli};
use qsim::stabilizer::StabilizerSim;
use qsim::state::StateVector;
use qsim::word::OutcomeWord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Held by each test for its whole run, so the tests never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Fewest allocations `body` made over several attempts. The harness's own
/// runtime occasionally allocates on another thread while we measure, so
/// take the minimum: the body is deterministic, so if ANY attempt observes
/// zero allocations the hot path itself is allocation-free.
fn min_allocations(mut body: impl FnMut()) -> usize {
    let mut min_allocs = usize::MAX;
    for _attempt in 0..8 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        body();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_allocs = min_allocs.min(after - before);
    }
    min_allocs
}

#[test]
fn apply_gate_allocates_nothing_after_first_call() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 10;
    let gates: Vec<(Gate, Vec<usize>)> = vec![
        (Gate::Id, vec![0]),
        (Gate::H, vec![1]),
        (Gate::X, vec![2]),
        (Gate::Y, vec![3]),
        (Gate::Z, vec![4]),
        (Gate::S, vec![5]),
        (Gate::T, vec![6]),
        (Gate::SX, vec![7]),
        (Gate::RX(0.3), vec![8]),
        (Gate::RY(-1.2), vec![9]),
        (Gate::RZ(2.2), vec![0]),
        (Gate::P(0.7), vec![1]),
        (Gate::U(0.3, 1.1, -0.4), vec![2]),
        (Gate::CX, vec![3, 7]),
        (Gate::CY, vec![8, 2]),
        (Gate::CZ, vec![1, 6]),
        (Gate::CH, vec![5, 0]),
        (Gate::SWAP, vec![4, 9]),
        (Gate::CRX(0.5), vec![0, 3]),
        (Gate::CRY(-0.8), vec![6, 1]),
        (Gate::CRZ(1.4), vec![2, 8]),
        (Gate::CP(-0.6), vec![9, 5]),
        (Gate::CCX, vec![0, 4, 8]),
        (Gate::CSWAP, vec![7, 1, 5]),
    ];

    let mut sv = StateVector::zero(n);
    // Warm up once before counting.
    for (g, qs) in &gates {
        sv.apply_gate(*g, qs);
    }
    sv.apply_pauli(0, Pauli::X);
    sv.apply_pauli(1, Pauli::Y);
    sv.apply_pauli(2, Pauli::Z);

    let min_allocs = min_allocations(|| {
        for _ in 0..3 {
            for (g, qs) in &gates {
                sv.apply_gate(*g, qs);
            }
            sv.apply_pauli(0, Pauli::X);
            sv.apply_pauli(1, Pauli::Y);
            sv.apply_pauli(2, Pauli::Z);
        }
    });

    assert_eq!(
        min_allocs, 0,
        "gate application allocated {min_allocs} time(s) on the warm path"
    );
    // Sanity: the state is still normalized after all that churn.
    assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
}

#[test]
fn warm_tableau_memory_shot_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = SurfaceCode::new(5).memory_circuit(2).circuit;
    assert_eq!(circuit.num_qubits(), 49);
    let collapses = circuit
        .ops()
        .iter()
        .filter(|op| matches!(op, Op::Measure { .. } | Op::Reset { .. }))
        .count();
    assert_eq!(collapses, 121);

    let mut sim = StabilizerSim::new(circuit.num_qubits());
    let mut rng = StdRng::seed_from_u64(5);
    let mut word = OutcomeWord::zero();
    // Warm up: the first shot may size the outcome word.
    sim.run_circuit_into(&circuit, &mut rng, &mut word);

    let min_allocs = min_allocations(|| {
        for _ in 0..3 {
            sim.run_circuit_into(&circuit, &mut rng, &mut word);
        }
    });
    assert_eq!(
        min_allocs, 0,
        "a warm tableau memory shot allocated {min_allocs} time(s)"
    );
}

#[test]
fn warm_frame_memory_shot_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let code = SurfaceCode::new(5);
    let mem = code.memory_circuit(2);
    // High enough that several gate errors fire in every shot.
    let noise = NoiseModel::uniform_depolarizing(0.05);
    let program = FrameProgram::compile(&mem.circuit).expect("memory circuits are Clifford");
    let mut frame = program.frame();
    let mut rng = StdRng::seed_from_u64(6);
    let mut word = OutcomeWord::zero();
    // Warm up: the first shot may size the outcome word.
    program.run_shot(&mut frame, &noise, &mut rng, &mut word);

    let min_allocs = min_allocations(|| {
        for _ in 0..3 {
            program.run_shot(&mut frame, &noise, &mut rng, &mut word);
        }
    });
    assert_eq!(
        min_allocs, 0,
        "a warm frame memory shot allocated {min_allocs} time(s)"
    );

    // The executor's detector-sampling step on the register-resident
    // storage: a one-word shot, its projection onto the experiment's
    // observable and detectors, and the tally of a key seen before.
    let map = mem.parity_map(&code);
    let mut narrow = program.word_frame().expect("49 qubits fit one word");
    let mut projected = OutcomeWord::zero();
    let mut counts = Counts::new(map.len());
    // Replaying one RNG state makes the measured shot's key one the warm-up
    // already tallied, so `record_word` only bumps a count.
    let replay = rng.clone();
    let mut shot = |rng: &mut StdRng| {
        program.run_shot(&mut narrow, &noise, rng, &mut word);
        map.project(&word, &mut projected);
        counts.record_word(&projected);
    };
    shot(&mut replay.clone());
    let min_allocs = min_allocations(|| shot(&mut replay.clone()));
    assert_eq!(
        min_allocs, 0,
        "a warm one-word shot, projected and tallied, allocated {min_allocs} time(s)"
    );
}
