//! Golden wire replies: the exact bytes `qugen-serve` answers for three
//! jobs — a job that runs to `done`, a repeat of it served from the
//! result cache, and a job that fails at run time (an MPS truncation
//! budget of 0 at bond dimension 1 on an entangling circuit, which only
//! trips while executing). Job ids, counts and error payloads are all
//! deterministic, so any change in lifecycle bookkeeping, cache plumbing
//! or rendering that moves a byte shows up here.

use qugen_serve::server::{Server, ServerConfig};
use qugen_wire::Json;

const BELL: &str = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\n\
                    cx q[0], q[1];\nmeasure q -> c;\n";

const GHZ_T: &str = "import qasmlite 2.1;\nqreg q[3];\ncreg c[3];\nh q[0];\n\
                     cx q[0], q[1];\ncx q[1], q[2];\nt q[2];\nmeasure q -> c;\n";

fn submit(source: &str, extra: &str) -> String {
    format!(
        "{{\"op\":\"submit\",\"source\":{},{extra}}}",
        Json::Str(source.to_string()).encode()
    )
}

#[test]
fn done_cached_and_failed_replies_are_byte_stable() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let exchanges = [
        (
            submit(BELL, "\"shots\":256,\"seed\":11,\"tag\":\"bell\""),
            r#"{"cached":false,"job":1,"ok":true,"status":"queued","tag":"bell"}"#,
        ),
        (
            r#"{"op":"result","job":1,"wait":true}"#.to_string(),
            r#"{"backend":"dense","cached":false,"clbits":2,"counts":{"00":131,"11":125},"job":1,"ok":true,"shots":256,"status":"done","tag":"bell"}"#,
        ),
        (
            submit(BELL, "\"shots\":256,\"seed\":11,\"tag\":\"again\""),
            r#"{"cached":true,"job":2,"ok":true,"status":"done","tag":"again"}"#,
        ),
        (
            r#"{"op":"result","job":2,"wait":true}"#.to_string(),
            r#"{"backend":"dense","cached":true,"clbits":2,"counts":{"00":131,"11":125},"job":2,"ok":true,"shots":256,"status":"done","tag":"again"}"#,
        ),
        (
            r#"{"op":"status","job":2}"#.to_string(),
            r#"{"backend":"dense","job":2,"ok":true,"status":"done"}"#,
        ),
        (
            submit(
                GHZ_T,
                "\"shots\":16,\"seed\":3,\"backend\":\"mps:1\",\"budget\":0,\"tag\":\"doomed\"",
            ),
            r#"{"cached":false,"job":3,"ok":true,"status":"queued","tag":"doomed"}"#,
        ),
        (
            r#"{"op":"result","job":3,"wait":true}"#.to_string(),
            r#"{"error":"sim","job":3,"message":"simulator refused: mps run at bond dimension 1 reached a truncation-infidelity bound of 1.000e0, over the 0.000e0 truncation budget","ok":false,"sim":{"budget":0.0,"code":"truncation_budget","error_bound":1.0,"max_bond":1},"status":"failed","tag":"doomed"}"#,
        ),
        (
            r#"{"op":"status","job":3}"#.to_string(),
            r#"{"backend":"mps","job":3,"ok":true,"status":"failed"}"#,
        ),
    ];
    for (request, expected) in exchanges {
        assert_eq!(server.handle_line(&request), expected, "request: {request}");
    }
}
