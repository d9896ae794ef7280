//! # qugen — multi-agent quantum code generation with QEC
//!
//! Facade crate for the [DAC'25 paper reproduction](https://arxiv.org/abs/2504.14557)
//! "Enhancing LLM-based Quantum Code Generation with Multi-Agent Optimization
//! and Quantum Error Correction". It re-exports every subsystem crate so that
//! examples and downstream users can depend on a single package.
//!
//! - [`qcir`] — circuit IR + the QasmLite DSL and versioned API registry
//! - [`qsim`] — state-vector & stabilizer simulators with noise models
//! - [`qec`] — surface/repetition codes, decoders, device topologies
//! - [`qalgo`] — reference quantum algorithm library
//! - [`qlm`] — mechanistic simulated code LLM (templates + corruption channels)
//! - [`qagents`] — the three-agent framework and multi-pass optimization loop
//! - [`qeval`] — evaluation suites, grader and pass@k
//! - [`qugen_serve`] — simulation-as-a-service job daemon over the executor
//! - [`qugen_shard`] — multi-process evaluation sharding with bit-identical merge
//! - [`qugen_wire`] — the line-delimited JSON codec serve and shard speak
//!
//! # Quickstart
//!
//! ```no_run
//! use qugen::qagents::orchestrator::{Orchestrator, PipelineConfig};
//! use qugen::qeval::suite::test_suite;
//!
//! let suite = test_suite();
//! let orchestrator = Orchestrator::new(PipelineConfig::default());
//! let report = orchestrator.run_task(&suite[0], 42);
//! println!("{}", report.summary());
//! ```

// The README's code blocks run as doctests, so its examples cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use qagents;
pub use qalgo;
pub use qcir;
pub use qec;
pub use qeval;
pub use qlm;
pub use qsim;
pub use qugen_serve;
pub use qugen_shard;
pub use qugen_wire;
