//! The service's typed error vocabulary.
//!
//! Every refusal a client can see is a [`ServeError`] with a stable
//! machine-readable [`ServeError::code`], mirroring how
//! [`qsim::backend::SimError::code`] works one layer down. Clients key
//! their handling on the code; the human-readable message can grow detail
//! without breaking anyone.

use qcir::diag::Diagnostic;
use qsim::backend::SimError;
use qugen_wire::codec::{obj, Json, JsonError};
use std::fmt;

/// Why the service refused (or failed) a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The line was not valid JSON.
    Parse(JsonError),
    /// The line ran past [`crate::proto::MAX_LINE_BYTES`] bytes without a
    /// newline; the server skipped the rest of it unread.
    LineTooLong {
        /// The byte limit in force.
        limit: usize,
    },
    /// The line was not a well-formed request (not UTF-8, unknown op,
    /// missing, mistyped or retired field, …).
    BadRequest(String),
    /// The submitted program failed to parse or check; the diagnostics
    /// carry the compiler's line/column findings.
    Check(Vec<Diagnostic>),
    /// The circuit checked but the simulator refused it (qubit cap,
    /// non-Clifford gate on tableau, …).
    Sim(SimError),
    /// The bounded work queue is full; the job was **not** accepted.
    /// Back off and resubmit — this is load shedding, not failure.
    QueueFull {
        /// The queue's capacity, so clients can size their backoff.
        capacity: usize,
    },
    /// No job with this id exists on this server.
    UnknownJob {
        /// The id that missed.
        id: u64,
    },
    /// The server is draining; no new jobs are accepted.
    ShuttingDown,
}

impl ServeError {
    /// Stable machine-readable identifier for the failure class.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Parse(_) => "parse",
            ServeError::LineTooLong { .. } => "line_too_long",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Check(_) => "check",
            ServeError::Sim(_) => "sim",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::UnknownJob { .. } => "unknown_job",
            ServeError::ShuttingDown => "shutting_down",
        }
    }

    /// The error as a wire-ready JSON object:
    /// `{"ok":false,"error":<code>,"message":…,…payload}`.
    ///
    /// Structured payloads ride along per class — simulator refusals carry
    /// [`SimError::code`] plus its fields under `"sim"`, check failures
    /// carry a `"diagnostics"` array, `queue_full` carries `"capacity"`,
    /// `line_too_long` carries `"limit"` —
    /// so clients never have to parse the message text.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(self.code().to_string())),
            ("message", Json::Str(self.to_string())),
        ];
        match self {
            ServeError::Parse(e) => {
                fields.push(("offset", Json::Int(e.offset as i128)));
            }
            ServeError::LineTooLong { limit } => {
                fields.push(("limit", Json::Int(*limit as i128)));
            }
            ServeError::Check(diags) => {
                let rendered = diags
                    .iter()
                    .map(|d| {
                        obj([
                            ("code", Json::Str(d.code.ident().to_string())),
                            ("message", Json::Str(d.message.clone())),
                            ("line", Json::Int(d.span.line as i128)),
                            ("col", Json::Int(d.span.col as i128)),
                        ])
                    })
                    .collect();
                fields.push(("diagnostics", Json::Arr(rendered)));
            }
            ServeError::Sim(e) => {
                fields.push(("sim", sim_error_payload(e)));
            }
            ServeError::QueueFull { capacity } => {
                fields.push(("capacity", Json::Int(*capacity as i128)));
            }
            ServeError::UnknownJob { id } => {
                fields.push(("job", Json::Int(*id as i128)));
            }
            ServeError::BadRequest(_) | ServeError::ShuttingDown => {}
        }
        obj(fields)
    }
}

/// A [`SimError`]'s machine-readable payload as JSON: always a `"code"`,
/// plus the variant's own fields.
fn sim_error_payload(e: &SimError) -> Json {
    let mut fields = vec![("code", Json::Str(e.code().to_string()))];
    match e {
        SimError::QubitCapExceeded {
            backend,
            num_qubits,
            cap,
        } => {
            fields.push(("backend", Json::Str(backend.to_string())));
            fields.push(("num_qubits", Json::Int(*num_qubits as i128)));
            fields.push(("cap", Json::Int(*cap as i128)));
        }
        SimError::NonCliffordGate { gate } => {
            fields.push(("gate", Json::Str(gate.to_string())));
        }
    }
    obj(fields)
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "invalid JSON: {e}"),
            ServeError::LineTooLong { limit } => {
                write!(f, "request line longer than {limit} bytes; skipped")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Check(diags) => {
                let errors = diags.len();
                write!(
                    f,
                    "program failed to check ({errors} diagnostic{})",
                    if errors == 1 { "" } else { "s" }
                )
            }
            ServeError::Sim(e) => write!(f, "simulator refused: {e}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "work queue full (capacity {capacity}); resubmit later")
            }
            ServeError::UnknownJob { id } => write!(f, "no job with id {id}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let errors = [
            ServeError::Parse(JsonError {
                message: "x".into(),
                offset: 3,
            }),
            ServeError::LineTooLong { limit: 8 },
            ServeError::BadRequest("missing field".into()),
            ServeError::Check(vec![]),
            ServeError::Sim(SimError::QubitCapExceeded {
                backend: "dense",
                num_qubits: 30,
                cap: 26,
            }),
            ServeError::QueueFull { capacity: 4 },
            ServeError::UnknownJob { id: 9 },
            ServeError::ShuttingDown,
        ];
        let codes: Vec<_> = errors.iter().map(|e| e.code()).collect();
        assert_eq!(
            codes,
            [
                "parse",
                "line_too_long",
                "bad_request",
                "check",
                "sim",
                "queue_full",
                "unknown_job",
                "shutting_down"
            ]
        );
    }

    #[test]
    fn sim_refusals_keep_their_machine_readable_payload() {
        let e = ServeError::Sim(SimError::QubitCapExceeded {
            backend: "tableau",
            num_qubits: 5000,
            cap: 4096,
        });
        let json = e.to_json();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(json.get("error").unwrap().as_str(), Some("sim"));
        let sim = json.get("sim").unwrap();
        assert_eq!(sim.get("code").unwrap().as_str(), Some("qubit_cap"));
        assert_eq!(sim.get("backend").unwrap().as_str(), Some("tableau"));
        assert_eq!(sim.get("cap").unwrap().as_u64(), Some(4096));
    }

    #[test]
    fn queue_full_carries_capacity() {
        let json = ServeError::QueueFull { capacity: 256 }.to_json();
        assert_eq!(json.get("error").unwrap().as_str(), Some("queue_full"));
        assert_eq!(json.get("capacity").unwrap().as_u64(), Some(256));
    }
}
