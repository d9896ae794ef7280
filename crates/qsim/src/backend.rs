//! Backend dispatch: which engine runs a circuit.
//!
//! Every way of executing a circuit in this workspace goes through one of
//! two engines: the dense state vector ([`crate::state::StateVector`],
//! exponential in qubit count, exact for arbitrary gates) or the
//! Aaronson–Gottesman tableau ([`crate::stabilizer::StabilizerSim`],
//! polynomial, Clifford-only). The executor drives them directly
//! ([`crate::exec`]); this module picks one:
//!
//! * [`Circuit::is_clifford`] decides tableau eligibility.
//! * [`BackendChoice`] — the caller-facing selector: [`BackendChoice::Auto`]
//!   (the default) picks the tableau for Clifford circuits too large for a
//!   comfortable dense run and the dense engine otherwise; `Dense` and
//!   `Tableau` force an engine and fail loudly when it cannot run the
//!   circuit.
//! * [`resolve`] — the dispatch rule itself, returning a [`BackendKind`] or
//!   a typed [`SimError`] instead of panicking at a capacity cap.
//!
//! # Dispatch rules (`BackendChoice::Auto`)
//!
//! | circuit | qubits | engine |
//! |---|---|---|
//! | Clifford (incl. measure/reset/conditionals) | ≤ [`AUTO_DENSE_MAX_QUBITS`] | dense |
//! | Clifford | > [`AUTO_DENSE_MAX_QUBITS`] | tableau |
//! | general | ≤ [`DENSE_QUBIT_CAP`] | dense |
//! | general | > [`DENSE_QUBIT_CAP`] | [`SimError::QubitCapExceeded`] |
//!
//! Both engines are exact: a circuit either runs with no approximation or
//! is refused with a typed error.
//!
//! Classical registers are unbounded on every engine: outcomes travel as
//! packed multi-word [`crate::word::OutcomeWord`]s through
//! [`crate::dist::Counts`], with registers of up to 64 bits staying on an
//! allocation-free inline representation. (The pre-multi-word layer
//! refused >64-clbit circuits with a `TooManyClbits` error; that cap and
//! the error variant are gone.)
//!
//! Pauli noise channels ([`crate::noise::NoiseModel`]) are
//! backend-agnostic: both engines apply Pauli errors, so depolarizing/idle
//! errors and classical readout flips work identically on either.

use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use std::fmt;
use std::str::FromStr;

/// Hard cap on dense simulation (the amplitude vector would exceed a
/// gigabyte past this). Mirrors the assertion in
/// [`crate::state::StateVector::zero`].
pub const DENSE_QUBIT_CAP: usize = 26;

/// Sanity cap on tableau simulation. Memory is quadratic in qubits (X and
/// Z bits for `2n` generators per qubit: 8 MiB at 4096 qubits), a gate
/// costs `O(n/64)` word operations and a measurement `O(n²/64)`; 4096 is
/// far beyond every workload here.
pub const TABLEAU_QUBIT_CAP: usize = 4096;

/// Under [`BackendChoice::Auto`], Clifford circuits at or below this many
/// qubits still run densely: at small sizes the state vector fits in cache,
/// and the dense engine keeps its exact-sampling fast path for noiseless
/// end-measured circuits.
pub const AUTO_DENSE_MAX_QUBITS: usize = 12;

/// A typed simulation failure, returned by the fallible execution entry
/// points ([`crate::exec::Executor::try_run`] and friends) instead of the
/// panics the pre-backend-layer API used.
///
/// Every variant carries a machine-readable payload: [`SimError::code`] is
/// a stable identifier for the failure class, and the fields name the
/// concrete limit in force (e.g. a general circuit past the dense cap
/// carries `backend: "dense", cap: 26` — the resolved backend and *its*
/// cap, not a generic message), so services can surface refusals over the
/// wire without string-matching [`fmt::Display`] output.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The circuit needs more qubits than the chosen engine can represent.
    QubitCapExceeded {
        /// Engine that refused, as a stable machine-readable identifier
        /// (`"dense"` / `"tableau"`; grading guards substitute their own
        /// label).
        backend: &'static str,
        /// Qubits the circuit declares.
        num_qubits: usize,
        /// The engine's cap.
        cap: usize,
    },
    /// The tableau engine was chosen (or forced) for a circuit containing a
    /// non-Clifford gate.
    NonCliffordGate {
        /// The first offending gate.
        gate: Gate,
    },
}

impl SimError {
    /// Stable machine-readable identifier for the failure class
    /// (`qubit_cap` / `non_clifford`) — the `code` field wire protocols key
    /// error handling on, so adding a message detail never breaks a client.
    pub fn code(&self) -> &'static str {
        match self {
            SimError::QubitCapExceeded { .. } => "qubit_cap",
            SimError::NonCliffordGate { .. } => "non_clifford",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::QubitCapExceeded {
                backend,
                num_qubits,
                cap,
            } => write!(
                f,
                "{backend} backend capped at {cap} qubits, circuit needs {num_qubits}"
            ),
            SimError::NonCliffordGate { gate } => {
                write!(f, "tableau backend cannot apply non-Clifford gate `{gate}`")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The first non-Clifford gate in program order, if any (for error
/// reporting).
pub fn first_non_clifford(circuit: &Circuit) -> Option<Gate> {
    circuit.ops().iter().find_map(|op| match op {
        Op::Gate { gate, .. } | Op::CondGate { gate, .. } if !gate.is_clifford() => Some(*gate),
        _ => None,
    })
}

/// Caller-facing backend selector.
///
/// Hashable so it can be part of a result-cache identity
/// ([`crate::job::JobKey`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Pick automatically from the circuit class and size (see the module
    /// docs for the dispatch table).
    #[default]
    Auto,
    /// Force the dense state-vector engine.
    Dense,
    /// Force the stabilizer-tableau engine (Clifford circuits only).
    Tableau,
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendChoice::Auto => f.write_str("auto"),
            BackendChoice::Dense => f.write_str("dense"),
            BackendChoice::Tableau => f.write_str("tableau"),
        }
    }
}

/// Why a backend-selector string failed to parse (the typed
/// [`FromStr`] error for [`BackendChoice`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendParseError {
    /// The backend name matched none of `auto|dense|tableau`.
    UnknownBackend {
        /// The offending (trimmed) input.
        value: String,
    },
}

impl fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendParseError::UnknownBackend { value } => {
                write!(f, "unknown backend `{value}` (expected auto|dense|tableau)")
            }
        }
    }
}

impl std::error::Error for BackendParseError {}

impl FromStr for BackendChoice {
    type Err = BackendParseError;

    /// Parses `auto`, `dense` or `tableau` (the format of the wire's
    /// per-job `backend` field). Surrounding whitespace is ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "auto" => Ok(BackendChoice::Auto),
            "dense" => Ok(BackendChoice::Dense),
            "tableau" => Ok(BackendChoice::Tableau),
            other => Err(BackendParseError::UnknownBackend {
                value: other.to_string(),
            }),
        }
    }
}

/// A concrete engine, after [`resolve`] has applied the dispatch rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Dense state-vector simulation.
    Dense,
    /// Stabilizer-tableau simulation.
    Tableau,
}

impl BackendKind {
    /// The engine's display name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Tableau => "tableau",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Applies the dispatch rules: which engine runs `circuit` under `choice`?
///
/// # Errors
///
/// [`SimError::NonCliffordGate`] when the tableau is forced on a general
/// circuit, and [`SimError::QubitCapExceeded`] when the circuit fits no
/// admissible engine. Classical-register width never refuses a circuit:
/// outcomes are multi-word.
pub fn resolve(choice: BackendChoice, circuit: &Circuit) -> Result<BackendKind, SimError> {
    let n = circuit.num_qubits();
    let dense_ok = |label| {
        if n <= DENSE_QUBIT_CAP {
            Ok(BackendKind::Dense)
        } else {
            Err(SimError::QubitCapExceeded {
                backend: label,
                num_qubits: n,
                cap: DENSE_QUBIT_CAP,
            })
        }
    };
    let tableau_ok = || {
        if let Some(gate) = first_non_clifford(circuit) {
            return Err(SimError::NonCliffordGate { gate });
        }
        if n <= TABLEAU_QUBIT_CAP {
            Ok(BackendKind::Tableau)
        } else {
            Err(SimError::QubitCapExceeded {
                backend: "tableau",
                num_qubits: n,
                cap: TABLEAU_QUBIT_CAP,
            })
        }
    };
    match choice {
        BackendChoice::Dense => dense_ok("dense"),
        BackendChoice::Tableau => tableau_ok(),
        BackendChoice::Auto => {
            if circuit.is_clifford() && n > AUTO_DENSE_MAX_QUBITS {
                tableau_ok()
            } else {
                dense_ok("dense")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n, n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    #[test]
    fn first_non_clifford_names_the_offending_gate() {
        assert_eq!(first_non_clifford(&ghz(3)), None);
        let mut general = Circuit::new(2, 2);
        general.h(0).t(0).cx(0, 1);
        assert_eq!(first_non_clifford(&general), Some(Gate::T));
    }

    #[test]
    fn auto_dispatch_follows_size_and_class() {
        assert_eq!(
            resolve(BackendChoice::Auto, &ghz(4)).unwrap(),
            BackendKind::Dense
        );
        assert_eq!(
            resolve(BackendChoice::Auto, &ghz(AUTO_DENSE_MAX_QUBITS + 1)).unwrap(),
            BackendKind::Tableau
        );
        // Long-range general circuit past the dense cap: no admissible
        // engine.
        let mut big_general = Circuit::new(30, 30);
        big_general.h(0).t(0).cp(0.3, 0, 29);
        assert_eq!(
            resolve(BackendChoice::Auto, &big_general),
            Err(SimError::QubitCapExceeded {
                backend: "dense",
                num_qubits: 30,
                cap: DENSE_QUBIT_CAP,
            })
        );
    }

    #[test]
    fn auto_refuses_short_range_general_circuits_past_the_dense_cap() {
        // 30 qubits, nearest-neighbor non-Clifford gates: over the dense
        // cap, and no other engine runs general circuits.
        let mut qc = Circuit::new(30, 30);
        for q in 0..29 {
            qc.t(q);
            qc.cx(q, q + 1);
        }
        assert!(!qc.is_clifford());
        assert_eq!(
            resolve(BackendChoice::Auto, &qc),
            Err(SimError::QubitCapExceeded {
                backend: "dense",
                num_qubits: 30,
                cap: 26,
            })
        );
        // Under the dense cap the dense engine runs it.
        let mut small = Circuit::new(5, 5);
        small.t(0).cx(0, 1);
        assert_eq!(
            resolve(BackendChoice::Auto, &small).unwrap(),
            BackendKind::Dense
        );
    }

    #[test]
    fn backend_choice_parses_the_env_format() {
        assert_eq!("auto".parse(), Ok(BackendChoice::Auto));
        assert_eq!("dense".parse(), Ok(BackendChoice::Dense));
        assert_eq!("tableau".parse(), Ok(BackendChoice::Tableau));
        // Errors are typed, so callers and tests can match on the cause.
        assert_eq!(
            "cuda".parse::<BackendChoice>(),
            Err(BackendParseError::UnknownBackend {
                value: "cuda".into()
            })
        );
        // Display round-trips through the same grammar.
        for choice in [
            BackendChoice::Auto,
            BackendChoice::Dense,
            BackendChoice::Tableau,
        ] {
            assert_eq!(choice.to_string().parse(), Ok(choice));
        }
    }

    #[test]
    fn mps_selectors_parse_as_unknown() {
        for value in ["mps", "mps:32"] {
            assert_eq!(
                value.parse::<BackendChoice>(),
                Err(BackendParseError::UnknownBackend {
                    value: value.into()
                })
            );
        }
    }

    #[test]
    fn backend_choice_parsing_ignores_surrounding_whitespace() {
        // Padding around the name is forgiven; the value inside must
        // still parse strictly.
        assert_eq!(" dense ".parse(), Ok(BackendChoice::Dense));
        assert_eq!("\ttableau\n".parse(), Ok(BackendChoice::Tableau));
        // Interior whitespace is not forgiven.
        assert!("de nse".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn forced_backends_validate() {
        let mut t = Circuit::new(1, 1);
        t.t(0).measure(0, 0);
        assert_eq!(
            resolve(BackendChoice::Tableau, &t),
            Err(SimError::NonCliffordGate { gate: Gate::T })
        );
        let big = ghz(49);
        assert_eq!(
            resolve(BackendChoice::Tableau, &big).unwrap(),
            BackendKind::Tableau
        );
        assert!(matches!(
            resolve(BackendChoice::Dense, &big),
            Err(SimError::QubitCapExceeded {
                backend: "dense",
                ..
            })
        ));
    }

    #[test]
    fn wide_classical_registers_resolve() {
        // Register width no longer refuses circuits: outcomes are
        // multi-word, so a 97-clbit register (distance-7 memory) resolves
        // like any other.
        let wide = Circuit::new(2, 97);
        assert_eq!(
            resolve(BackendChoice::Auto, &wide).unwrap(),
            BackendKind::Dense
        );
        assert_eq!(
            resolve(BackendChoice::Tableau, &wide).unwrap(),
            BackendKind::Tableau
        );
    }

    #[test]
    fn error_codes_and_payloads_are_machine_readable() {
        // A Clifford circuit past the tableau cap must name the resolved
        // backend ("tableau") and its cap in the payload — no string
        // matching needed to route the refusal.
        let huge = Circuit::new(TABLEAU_QUBIT_CAP + 1, 0);
        let err = resolve(BackendChoice::Auto, &huge).unwrap_err();
        assert_eq!(err.code(), "qubit_cap");
        assert!(matches!(
            err,
            SimError::QubitCapExceeded {
                backend: "tableau",
                cap: TABLEAU_QUBIT_CAP,
                num_qubits,
            } if num_qubits == TABLEAU_QUBIT_CAP + 1
        ));
        assert_eq!(
            SimError::NonCliffordGate { gate: Gate::T }.code(),
            "non_clifford"
        );
    }

    #[test]
    fn error_messages_render() {
        let e = SimError::NonCliffordGate { gate: Gate::T };
        assert!(e.to_string().contains("non-Clifford"));
        let e = SimError::QubitCapExceeded {
            backend: "dense",
            num_qubits: 30,
            cap: DENSE_QUBIT_CAP,
        };
        assert_eq!(
            e.to_string(),
            "dense backend capped at 26 qubits, circuit needs 30"
        );
    }
}
