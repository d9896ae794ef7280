//! The typed job vocabulary shared by in-process batch execution, the
//! grader's result memo and the `qugen-serve` daemon.
//!
//! A [`JobSpec`] replaces the ad-hoc `(&Circuit, u64, u64)` tuples the
//! batch API grew up on: one value that names everything a simulation job
//! is — the circuit, the shot count, the seed, and (optionally) a backend
//! override. [`JobKey`] is its cache identity.
//!
//! # Determinism contract
//!
//! A job is a *pure function of its spec*: running the same [`JobSpec`]
//! (same circuit content, shots, seed and effective backend) produces
//! bit-identical
//! [`Counts`](crate::dist::Counts) on every run, for every executor
//! worker-thread count, on every host — shot chunks are seeded from
//! `(seed, chunk index)` alone and merged by commutative outcome-wise
//! addition (see [`crate::exec`]). This is what makes result
//! caching by [`JobKey`] sound, and what lets a service or a shard
//! coordinator replay, dedupe, or relocate jobs freely.

use crate::backend::BackendChoice;
use crate::plan;
use qcir::circuit::Circuit;
use std::sync::Arc;

/// One simulation job: a circuit plus everything needed to reproduce its
/// counts exactly (see the module docs for the determinism contract).
///
/// The circuit is held behind an [`Arc`] so a spec is cheap to clone into
/// queues, worker threads and job tables without copying the op list.
/// `backend` is an *override*: `None` inherits the executing
/// [`crate::exec::Executor`]'s configured choice, so library callers that
/// configure the executor once keep their behavior, while services can pin
/// a per-job engine.
#[derive(Debug, Clone)]
pub struct JobSpec {
    circuit: Arc<Circuit>,
    shots: u64,
    seed: u64,
    backend: Option<BackendChoice>,
}

impl JobSpec {
    /// A job running `circuit` for `shots` shots from `seed`, inheriting
    /// the executor's backend choice.
    pub fn new(circuit: impl Into<Arc<Circuit>>, shots: u64, seed: u64) -> Self {
        JobSpec {
            circuit: circuit.into(),
            shots,
            seed,
            backend: None,
        }
    }

    /// Pins the job to a backend choice, overriding the executor's.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The circuit to simulate.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// Shots to run.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The deterministic base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The backend override, if any.
    pub fn backend(&self) -> Option<BackendChoice> {
        self.backend
    }

    /// The backend choice this job runs under, given an executor default.
    pub fn effective_backend(&self, default: BackendChoice) -> BackendChoice {
        self.backend.unwrap_or(default)
    }

    /// The job's cache identity under the given executor default backend:
    /// equal keys imply bit-identical counts (the determinism contract), so
    /// a result cache keyed on [`JobKey`] never has to re-execute a repeat.
    ///
    /// The circuit enters through its 128-bit structural fingerprint
    /// ([`crate::plan::fingerprint`]).
    pub fn key(&self, default_backend: BackendChoice) -> JobKey {
        JobKey {
            fingerprint: plan::fingerprint(&self.circuit),
            shots: self.shots,
            seed: self.seed,
            backend: self.effective_backend(default_backend),
        }
    }
}

/// The identity a job's counts depend on — and nothing more. See
/// [`JobSpec::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// 128-bit structural fingerprint of the circuit
    /// ([`crate::plan::fingerprint`]).
    pub fingerprint: u128,
    /// Shots requested.
    pub shots: u64,
    /// Base seed.
    pub seed: u64,
    /// Effective backend choice the job resolves under.
    pub backend: BackendChoice,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendChoice;

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    #[test]
    fn key_depends_on_every_field_and_nothing_else() {
        let spec = JobSpec::new(bell(), 100, 7);
        let base = spec.key(BackendChoice::Auto);
        // A structurally equal circuit in a different allocation: same key.
        let twin = JobSpec::new(bell(), 100, 7).key(BackendChoice::Auto);
        assert_eq!(base, twin);
        // Every field perturbs the key.
        assert_ne!(base, JobSpec::new(bell(), 101, 7).key(BackendChoice::Auto));
        assert_ne!(base, JobSpec::new(bell(), 100, 8).key(BackendChoice::Auto));
        assert_ne!(base, spec.key(BackendChoice::Dense));
        let mut other = bell();
        other.x(0);
        assert_ne!(base, JobSpec::new(other, 100, 7).key(BackendChoice::Auto));
    }

    #[test]
    fn overrides_beat_executor_defaults() {
        let spec = JobSpec::new(bell(), 10, 0).with_backend(BackendChoice::Tableau);
        assert_eq!(
            spec.effective_backend(BackendChoice::Auto),
            BackendChoice::Tableau
        );
        let plain = JobSpec::new(bell(), 10, 0);
        assert_eq!(
            plain.effective_backend(BackendChoice::Dense),
            BackendChoice::Dense
        );
    }
}
