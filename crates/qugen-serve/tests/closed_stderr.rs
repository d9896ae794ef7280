//! The daemon keeps serving when its stderr goes away.
//!
//! With `QUGEN_TRACE=1` every request emits a span to stderr. A client
//! that stops reading the daemon's stderr (a log pipe that closed, a
//! `head -c` in front of it) turns each of those writes into an error;
//! tracing must drop the line rather than panic, or the first failed
//! write takes the stdio loop down mid-stream.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

const BELL: &str = "import qasmlite 2.1;\\nqreg q[2];\\ncreg c[2];\\nh q[0];\\n\
                    cx q[0], q[1];\\nmeasure q -> c;\\n";

#[test]
fn traced_daemon_answers_every_request_after_stderr_closes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qugen-serve"))
        .args(["--stdio", "--workers", "1"])
        .env("QUGEN_TRACE", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qugen-serve");
    // Close the read end of the daemon's stderr before it writes a line.
    drop(child.stderr.take());

    let mut requests = String::new();
    for seed in 0..100 {
        requests.push_str(&format!(
            "{{\"op\":\"submit\",\"source\":\"{BELL}\",\"shots\":16,\"seed\":{seed}}}\n"
        ));
    }
    requests.push_str("{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(requests.as_bytes())
        .expect("write requests");
    drop(stdin);

    let mut replies = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut replies)
        .expect("read replies");
    let status = child.wait().expect("wait for qugen-serve");
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 102, "every request gets a reply: {replies}");
    assert!(lines.iter().all(|l| l.contains("\"ok\":true")), "{replies}");
    assert!(status.success(), "exit status {status}");
}
