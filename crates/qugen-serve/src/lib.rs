//! Simulation-as-a-service over the deterministic [`qsim`] executor.
//!
//! `qugen-serve` turns the library's batch execution API into a
//! long-running daemon: clients submit typed simulation jobs as
//! line-delimited JSON (over TCP or stdio), the server validates and
//! classifies each circuit *at submit time* (so refusals are immediate
//! and machine-readable, not deferred failures), and a worker pool drives
//! [`qsim::exec::Executor::try_run_job`] behind a bounded queue and a
//! process-wide result cache.
//!
//! The crate is deliberately layered so each policy is testable alone:
//!
//! * [`qugen_wire`] (a dependency, not a module) — the JSON wire layer
//!   `qugen-serve` and `qugen-shard` share; integers stay exact so `u64`
//!   seeds survive the wire, and serialization is canonical so replies
//!   compare byte-for-byte.
//! * [`proto`] — the typed request vocabulary and wire shapes.
//! * [`error`] — [`error::ServeError`], every refusal a client can see,
//!   each with a stable machine-readable code.
//! * [`queue`] — a bounded MPMC queue whose full-queue behavior is a
//!   typed refusal, never a blocked submitter.
//! * [`cache`] — an LRU result cache keyed by [`qsim::job::JobKey`]
//!   (a [`qsim::lru::Lru`]), sound because counts are a pure function of
//!   the key.
//! * [`server`] — the service itself: job table, worker pool, lifecycle.
//!
//! # Determinism contract
//!
//! The service adds *no* nondeterminism on top of the executor: a job's
//! counts depend only on its [`qsim::job::JobKey`] (circuit fingerprint,
//! shots, seed, effective backend), never on
//! submission order, worker count, queue pressure, or cache state. A
//! `qugen-serve` deployment therefore returns bit-identical counts to a
//! local [`qsim::exec::Executor`] run of the same spec — the property the
//! service-level tests assert over 64-way concurrent submissions.

pub mod cache;
pub mod error;
pub mod proto;
pub mod queue;
pub mod server;

pub use error::ServeError;
pub use proto::Request;
pub use server::{Server, ServerConfig};
