//! # qsim — quantum circuit simulators with noise
//!
//! Two complementary exact backends behind one dispatch layer, plus the
//! noise machinery the QEC experiments need:
//!
//! * [`backend`] — backend dispatch: the [`backend::BackendChoice`]
//!   selector, the auto-dispatch rules over circuit size and
//!   Clifford-ness, and the typed [`backend::SimError`] the fallible
//!   execution APIs return.
//! * [`state`] — a dense state-vector simulator (practical to ~20 qubits)
//!   used for semantic grading and the Deutsch–Jozsa noise experiments.
//! * [`kernels`] — the specialized gate-application kernels behind
//!   [`state::StateVector::apply_gate`]: strided base-index enumeration,
//!   diagonal/permutation fast paths, butterfly single-qubit updates, and
//!   the fused 4x4/8x8 superblock sweeps.
//! * [`stabilizer`] — an Aaronson–Gottesman tableau simulator for
//!   Clifford circuits, stored column-major and bit-packed so gates are
//!   word-parallel, used for surface-code syndrome extraction at
//!   distances where the dense simulator is infeasible.
//! * [`frame`] — Pauli-frame shot sampling: the tableau runs once per job
//!   for a reference sample, and each shot propagates only a Pauli frame,
//!   bit-identical to a full tableau shot.
//! * [`noise`] — Monte-Carlo Pauli/readout noise channels and the
//!   [`noise::NoiseModel`] aggregate.
//! * [`profiles`] — named noise profiles, including the IBM-Brisbane-like
//!   profile used by the Figure 4 reproduction.
//! * [`plan`] — the compile step: lowers a circuit once into a
//!   matrix-precomputed [`plan::CircuitPlan`] — fused (cost-model-gated up
//!   to 8×8 superblocks) when noiseless, unfused with its noise sites and
//!   bit-identical to per-gate dispatch when noisy — cached in a
//!   process-wide LRU keyed by circuit content hash, so repeated runs skip
//!   gate classification entirely.
//! * [`exec`] — the circuit executor: shot sampling, trajectories,
//!   conditionals and mid-circuit measurement, driven by cached plans on
//!   both the noiseless and the noisy dense paths and by the tableau
//!   directly otherwise. Configured through the typed
//!   [`exec::ExecutorConfig`].
//! * [`lru`] — the generic least-recently-used map with built-in hit,
//!   miss and eviction counters behind every cache in the workspace.
//! * [`job`] — the typed job vocabulary ([`job::JobSpec`] and its
//!   [`job::JobKey`] cache identity) shared by in-process batch calls,
//!   the grader's result memo and the `qugen-serve` daemon.
//! * [`dist`] — measurement-outcome distributions and distance metrics.
//! * [`word`] — the packed multi-word [`word::OutcomeWord`] classical
//!   registers those distributions are keyed on: allocation-free inline up
//!   to 64 bits, spilling to `[u64]` words beyond, so >64-clbit circuits
//!   (distance-7 QEC memory) record outcomes without a cap.
//!
//! # Example
//!
//! ```
//! use qcir::circuit::Circuit;
//! use qsim::exec::Executor;
//!
//! let mut bell = Circuit::new(2, 2);
//! bell.h(0).cx(0, 1).measure_all();
//!
//! let counts = Executor::ideal()
//!     .try_run(&bell, 4096, 7)
//!     .expect("2-qubit circuits always fit the dense backend");
//! // Only |00> and |11> appear.
//! assert_eq!(counts.distinct_outcomes(), 2);
//! ```

pub mod backend;
pub mod dist;
pub mod exec;
pub mod frame;
pub mod job;
pub mod kernels;
pub mod lru;
pub mod noise;
pub mod observable;
pub mod plan;
pub mod profiles;
pub mod stabilizer;
pub mod state;
pub mod word;

pub use backend::{BackendChoice, SimError};
pub use dist::Counts;
pub use exec::{Executor, ExecutorConfig};
pub use job::{JobKey, JobSpec};
pub use noise::NoiseModel;
pub use state::StateVector;
pub use word::OutcomeWord;
