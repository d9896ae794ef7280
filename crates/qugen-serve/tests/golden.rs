//! Golden wire replies: the exact bytes `qugen-serve` answers for a job
//! that runs to `done`, a repeat of it served from the result cache, and
//! two submits refused before they become jobs — one naming the retired
//! `mps` backend and one carrying the retired `budget` field. Job ids,
//! counts and error payloads are all deterministic, so any change in
//! lifecycle bookkeeping, cache plumbing or rendering that moves a byte
//! shows up here.

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
fn done_cached_and_refused_replies_are_byte_stable() {
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
            submit(GHZ_T, "\"shots\":16,\"seed\":3,\"backend\":\"mps:1\""),
            r#"{"error":"bad_request","message":"bad request: invalid `backend`: unknown backend `mps:1` (expected auto|dense|tableau)","ok":false}"#,
        ),
        (
            submit(GHZ_T, "\"shots\":16,\"seed\":3,\"budget\":0"),
            r#"{"error":"bad_request","message":"bad request: `budget` is no longer accepted: both engines are exact, so there is no truncation to bound","ok":false}"#,
        ),
    ];
    for (request, expected) in exchanges {
        assert_eq!(server.handle_line(&request), expected, "request: {request}");
    }
}
