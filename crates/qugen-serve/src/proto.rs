//! The wire protocol: typed requests and response shapes.
//!
//! Transport is line-delimited JSON — one request object per line, one
//! response object per line, over TCP or stdio. A line may hold at most
//! [`MAX_LINE_BYTES`] bytes before its newline; a longer one is answered
//! with a typed `line_too_long` refusal and the rest of it is skipped
//! unread, and a line that is not UTF-8 gets a `bad_request`. Every
//! request carries an `"op"` discriminant:
//!
//! | op | fields | reply |
//! |---|---|---|
//! | `submit` | `source` (≤ [`MAX_CLBITS`] clbits), `shots` (1 ..= [`MAX_SHOTS`]), `seed`, `backend?`, `tag?` | `{ok,job,status,cached}` |
//! | `status` | `job` | `{ok,job,status}` |
//! | `result` | `job`, `wait?` | `{ok,job,status,counts,backend,cached,shots,clbits}` |
//! | `stats` | — | queue/cache/worker gauges |
//! | `metrics` | — | `{ok,metrics}`: full process telemetry snapshot |
//! | `shutdown` | — | `{ok:true}` then drain |
//!
//! `backend` is the `auto|dense|tableau` selector [`BackendChoice`] parses
//! everywhere else; any other value, and a submit that still carries the
//! retired `budget` field, is refused with a `bad_request`. Counts are
//! rendered as a bitstring→count object in canonical (sorted) order, so
//! encoded replies compare byte-for-byte across clients and runs.

use crate::error::ServeError;
use qsim::backend::BackendChoice;
use qsim::dist::Counts;
use qugen_wire::codec::Json;
use std::collections::BTreeMap;

/// Longest request line the server reads (1 MiB, not counting the
/// newline). A line with no newline would otherwise be buffered without
/// bound; past this length the server refuses it with
/// [`ServeError::LineTooLong`] and discards the rest unbuffered.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest `shots` a submit may ask for (2^20). A job's run time grows
/// with its shot count, so an unbounded count would let one request pin a
/// worker, and with it shutdown's drain, indefinitely.
pub const MAX_SHOTS: u64 = 1 << 20;

/// Widest classical register a submitted program may declare (4096, the
/// widest engine's qubit cap, `qsim::backend::TABLEAU_QUBIT_CAP`). Every
/// rendered outcome is a bitstring of the register's full width, so an
/// unbounded `creg` would let one request exhaust the process's memory
/// when its result is read.
pub const MAX_CLBITS: usize = 4096;

/// A parsed, typed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Validate, classify, and enqueue a job.
    Submit {
        /// Program text in the circuit DSL.
        source: String,
        /// Shots to run.
        shots: u64,
        /// Deterministic base seed.
        seed: u64,
        /// Per-job backend override (`None` inherits the server's).
        backend: Option<BackendChoice>,
        /// Opaque client tag, echoed back in replies about this job.
        tag: Option<String>,
    },
    /// Where is this job in its lifecycle?
    Status {
        /// The job id a submit reply returned.
        job: u64,
    },
    /// Fetch a job's counts (optionally blocking until terminal).
    Result {
        /// The job id.
        job: u64,
        /// When `true`, block until the job is done or failed.
        wait: bool,
    },
    /// Queue/cache/worker gauges.
    Stats,
    /// Full process-wide telemetry registry snapshot (every
    /// `qugen-telemetry` counter, gauge, and histogram) — the superset of
    /// `stats` for scrapers; `stats` stays the small curated view.
    Metrics,
    /// Stop accepting work, drain, and exit the serve loop.
    Shutdown,
}

impl Request {
    /// Parses one request line's JSON into a typed request.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the missing or mistyped field —
    /// submit-time validation is the API's contract, so messages point at
    /// the exact field.
    pub fn from_json(value: &Json) -> Result<Request, ServeError> {
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field `op`"))?;
        match op {
            "submit" => {
                let source = require_str(value, "source")?.to_string();
                let shots = require_u64(value, "shots")?;
                if shots == 0 {
                    return Err(bad("`shots` must be at least 1"));
                }
                if shots > MAX_SHOTS {
                    return Err(ServeError::BadRequest(format!(
                        "`shots` must be at most {MAX_SHOTS}, got {shots}"
                    )));
                }
                let seed = require_u64(value, "seed")?;
                let backend =
                    match value.get("backend") {
                        None | Some(Json::Null) => None,
                        Some(Json::Str(s)) => Some(s.parse::<BackendChoice>().map_err(|e| {
                            ServeError::BadRequest(format!("invalid `backend`: {e}"))
                        })?),
                        Some(_) => return Err(bad("`backend` must be a string")),
                    };
                if value.get("budget").is_some() {
                    return Err(bad(
                        "`budget` is no longer accepted: both engines are exact, \
                         so there is no truncation to bound",
                    ));
                }
                let tag = match value.get("tag") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(_) => return Err(bad("`tag` must be a string")),
                };
                Ok(Request::Submit {
                    source,
                    shots,
                    seed,
                    backend,
                    tag,
                })
            }
            "status" => Ok(Request::Status {
                job: require_u64(value, "job")?,
            }),
            "result" => {
                let job = require_u64(value, "job")?;
                let wait = match value.get("wait") {
                    None | Some(Json::Null) => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err(bad("`wait` must be a boolean")),
                };
                Ok(Request::Result { job, wait })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::BadRequest(format!(
                "unknown op `{other}` (expected submit|status|result|stats|metrics|shutdown)"
            ))),
        }
    }
}

fn bad(msg: &str) -> ServeError {
    ServeError::BadRequest(msg.to_string())
}

fn require_str<'j>(value: &'j Json, field: &str) -> Result<&'j str, ServeError> {
    value
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest(format!("missing string field `{field}`")))
}

fn require_u64(value: &Json, field: &str) -> Result<u64, ServeError> {
    value.get(field).and_then(Json::as_u64).ok_or_else(|| {
        ServeError::BadRequest(format!("missing non-negative integer field `{field}`"))
    })
}

/// Counts as a canonical bitstring→count JSON object.
///
/// Keys sort lexicographically in the [`qugen_wire::Json::Obj`] map, so
/// the same counts always encode to the same bytes — the property the
/// cross-checking tests and example client compare on.
pub fn counts_to_json(counts: &Counts) -> Json {
    let map: BTreeMap<String, Json> = counts
        .iter()
        .map(|(outcome, n)| (counts.bitstring(outcome), Json::Int(n as i128)))
        .collect();
    Json::Obj(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Request, ServeError> {
        Request::from_json(&Json::parse(line).unwrap())
    }

    #[test]
    fn submit_parses_with_and_without_options() {
        let full = parse(
            "{\"op\":\"submit\",\"source\":\"qreg q[1];\",\"shots\":128,\"seed\":7,\
             \"backend\":\"tableau\",\"tag\":\"t0\"}",
        )
        .unwrap();
        assert_eq!(
            full,
            Request::Submit {
                source: "qreg q[1];".into(),
                shots: 128,
                seed: 7,
                backend: Some(BackendChoice::Tableau),
                tag: Some("t0".into()),
            }
        );
        let minimal = parse("{\"op\":\"submit\",\"source\":\"s\",\"shots\":1,\"seed\":0}").unwrap();
        assert_eq!(
            minimal,
            Request::Submit {
                source: "s".into(),
                shots: 1,
                seed: 0,
                backend: None,
                tag: None,
            }
        );
    }

    #[test]
    fn bad_submits_name_the_offending_field() {
        for (line, needle) in [
            ("{\"op\":\"submit\",\"shots\":1,\"seed\":0}", "`source`"),
            ("{\"op\":\"submit\",\"source\":\"s\",\"seed\":0}", "`shots`"),
            (
                "{\"op\":\"submit\",\"source\":\"s\",\"shots\":0,\"seed\":0}",
                "`shots`",
            ),
            // Regression: a u64::MAX shot count used to be accepted and
            // pinned a worker forever.
            (
                "{\"op\":\"submit\",\"source\":\"s\",\"shots\":18446744073709551615,\"seed\":0}",
                "`shots`",
            ),
            (
                "{\"op\":\"submit\",\"source\":\"s\",\"shots\":1,\"seed\":-1}",
                "`seed`",
            ),
            (
                "{\"op\":\"submit\",\"source\":\"s\",\"shots\":1,\"seed\":0,\
                 \"backend\":\"warp\"}",
                "`backend`",
            ),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{line}");
            assert!(err.to_string().contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn mps_backends_and_budgets_are_refused() {
        for (line, message) in [
            (
                "{\"op\":\"submit\",\"source\":\"s\",\"shots\":1,\"seed\":0,\
                 \"backend\":\"mps:32\"}",
                "bad request: invalid `backend`: unknown backend `mps:32` \
                 (expected auto|dense|tableau)",
            ),
            (
                "{\"op\":\"submit\",\"source\":\"s\",\"shots\":1,\"seed\":0,\
                 \"budget\":\"inf\"}",
                "bad request: `budget` is no longer accepted: both engines are exact, \
                 so there is no truncation to bound",
            ),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{line}");
            assert_eq!(err.to_string(), message);
        }
    }

    #[test]
    fn shot_cap_is_inclusive() {
        let submit = |shots: u64| {
            parse(&format!(
                "{{\"op\":\"submit\",\"source\":\"s\",\"shots\":{shots},\"seed\":0}}"
            ))
        };
        assert!(
            matches!(submit(MAX_SHOTS), Ok(Request::Submit { shots, .. }) if shots == MAX_SHOTS)
        );
        assert_eq!(submit(MAX_SHOTS + 1).unwrap_err().code(), "bad_request");
    }

    #[test]
    fn other_ops_parse() {
        assert_eq!(
            parse("{\"op\":\"status\",\"job\":3}").unwrap(),
            Request::Status { job: 3 }
        );
        assert_eq!(
            parse("{\"op\":\"result\",\"job\":3,\"wait\":true}").unwrap(),
            Request::Result { job: 3, wait: true }
        );
        assert_eq!(
            parse("{\"op\":\"result\",\"job\":3}").unwrap(),
            Request::Result {
                job: 3,
                wait: false
            }
        );
        assert_eq!(parse("{\"op\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse("{\"op\":\"metrics\"}").unwrap(), Request::Metrics);
        assert_eq!(parse("{\"op\":\"shutdown\"}").unwrap(), Request::Shutdown);
        assert_eq!(parse("{\"op\":\"fly\"}").unwrap_err().code(), "bad_request");
        assert_eq!(parse("{}").unwrap_err().code(), "bad_request");
    }

    #[test]
    fn full_range_seeds_survive_the_wire() {
        let line = format!(
            "{{\"op\":\"submit\",\"source\":\"s\",\"shots\":1,\"seed\":{}}}",
            u64::MAX
        );
        match parse(&line).unwrap() {
            Request::Submit { seed, .. } => assert_eq!(seed, u64::MAX),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn counts_render_canonically() {
        let mut counts = Counts::new(2);
        counts.record(0b10u64);
        counts.record(0b10u64);
        counts.record(0b01u64);
        let json = counts_to_json(&counts);
        assert_eq!(json.encode(), "{\"01\":1,\"10\":2}");
    }
}
