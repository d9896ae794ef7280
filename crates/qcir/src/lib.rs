//! # qcir — quantum circuit IR and the QasmLite language
//!
//! This crate is the "Qiskit substrate" of the qugen reproduction: it defines
//! the circuit intermediate representation that every other crate consumes,
//! plus **QasmLite**, the small Qiskit-flavoured textual language that the
//! simulated code LLM emits and the semantic-analyzer agent parses, checks
//! and repairs.
//!
//! The crate is organised as:
//!
//! * [`math`] — minimal complex-number and matrix helpers shared with `qsim`.
//! * [`gate`] — the gate set, with unitary matrices and inverses.
//! * [`circuit`] — the [`Circuit`] builder and its operations.
//! * [`dsl`] — lexer, AST and parser for QasmLite source text.
//! * [`api`] — a *versioned* API registry: which symbols exist, which are
//!   deprecated and which were removed in each library version. This powers
//!   the import/deprecation diagnostics that dominate the error traces in the
//!   reproduced paper.
//! * [`check`] — the semantic checker that turns a parsed program into either
//!   a [`Circuit`] or a structured list of [`Diagnostic`]s. Its [`compile`]
//!   is the front end's one entry: source text in, checked circuit or
//!   diagnostics out.
//! * [`fmt`] — the pretty-printer (round-trip tested against the parser).
//!
//! # Example
//!
//! ```
//! use qcir::circuit::Circuit;
//!
//! let mut bell = Circuit::new(2, 2);
//! bell.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! assert_eq!(bell.num_qubits(), 2);
//! assert_eq!(bell.depth(), 3);
//!
//! // The same circuit via QasmLite source:
//! let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n";
//! let built = qcir::compile(src).circuit.expect("checks");
//! assert_eq!(built.num_qubits(), 2);
//! ```

pub mod api;
pub mod check;
pub mod circuit;
pub mod diag;
pub mod draw;
pub mod dsl;
pub mod fmt;
pub mod gate;
pub mod math;
pub mod transpile;

pub use check::{compile, lower};
pub use circuit::{Circuit, Op};
pub use diag::{DiagCode, Diagnostic, Severity};
pub use dsl::parse;
pub use gate::Gate;
pub use math::C64;
