//! Serving: a real TCP round trip against an in-process `qugen-serve`.
//!
//! ```text
//! cargo run --example serve_client
//! ```
//!
//! Starts the job service on an ephemeral local port, then acts as a
//! client over an actual `TcpStream`: submits a Bell-pair job, waits for
//! its counts, resubmits the same spec to show the cache hit, exercises
//! the typed refusals (malformed JSON, a program that fails the checker,
//! a circuit over the dense cap), and cross-checks the served counts
//! byte-for-byte against a direct [`Executor`] run of the same spec —
//! the determinism contract that makes serving (and caching) sound.

use qugen::qsim::exec::ExecutorConfig;
use qugen::qsim::job::JobSpec;
use qugen::qugen_serve::proto::counts_to_json;
use qugen::qugen_serve::server::{Server, ServerConfig};
use qugen::qugen_wire::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const BELL: &str = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\n\
                    cx q[0], q[1];\nmeasure q -> c;\n";
const SHOTS: u64 = 1024;
const SEED: u64 = 0xB0B;

/// One request line out, one response line back.
fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(stream, "{line}").expect("write request");
    stream.flush().expect("flush request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim_end()).expect("response is valid JSON")
}

pub fn main() {
    // Serve on an ephemeral port; the accept loop runs until shutdown.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = Arc::new(Server::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }));
    let accept_loop = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener))
    };

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    println!("connected to qugen-serve at {addr}");

    // Submit, then block on the result.
    let submit = format!(
        "{{\"op\":\"submit\",\"source\":{},\"shots\":{SHOTS},\"seed\":{SEED},\"tag\":\"bell\"}}",
        Json::Str(BELL.to_string()).encode()
    );
    let accepted = round_trip(&mut stream, &mut reader, &submit);
    assert_eq!(accepted.get("ok"), Some(&Json::Bool(true)));
    let id = accepted.get("job").unwrap().as_u64().expect("job id");
    println!("submitted job {id} ({} shots, seed {SEED:#x})", SHOTS);

    let result = round_trip(
        &mut stream,
        &mut reader,
        &format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"),
    );
    assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(result.get("cached"), Some(&Json::Bool(false)));
    let served_counts = result.get("counts").expect("counts").clone();
    println!("counts over the wire: {}", served_counts.encode());

    // Determinism contract: a direct executor run of the same spec is
    // bit-identical to what the service returned — any thread count.
    let circuit = qugen::qcir::compile(BELL).circuit.expect("bell checks");
    let exec = ExecutorConfig::new().threads(2).build();
    let direct = exec
        .try_run_job(&JobSpec::new(circuit, SHOTS, SEED))
        .expect("direct run");
    assert_eq!(
        served_counts.encode(),
        counts_to_json(&direct).encode(),
        "served counts must match direct execution byte-for-byte"
    );
    println!("direct executor run matches byte-for-byte");

    // Resubmitting the same spec is a cache hit: terminal immediately.
    let repeat = round_trip(&mut stream, &mut reader, &submit);
    assert_eq!(repeat.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(repeat.get("cached"), Some(&Json::Bool(true)));
    println!("resubmission served from cache (no re-execution)");

    // Typed refusals: malformed JSON, a program the checker rejects, and
    // a forced-dense circuit over the qubit cap.
    let parse_err = round_trip(&mut stream, &mut reader, "{not json");
    assert_eq!(parse_err.get("error").unwrap().as_str(), Some("parse"));
    let check_err = round_trip(
        &mut stream,
        &mut reader,
        "{\"op\":\"submit\",\"source\":\"import qasmlite 2.1;\\nfly q[0];\\n\",\
         \"shots\":1,\"seed\":0}",
    );
    assert_eq!(check_err.get("error").unwrap().as_str(), Some("check"));
    let too_big = format!(
        "{{\"op\":\"submit\",\"source\":{},\"shots\":1,\"seed\":0,\"backend\":\"dense\"}}",
        Json::Str(
            "import qasmlite 2.1;\nqreg q[40];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
                .to_string()
        )
        .encode()
    );
    let refused = round_trip(&mut stream, &mut reader, &too_big);
    assert_eq!(refused.get("error").unwrap().as_str(), Some("sim"));
    let sim = refused.get("sim").expect("sim payload");
    println!(
        "typed refusal: {} (backend {}, cap {})",
        sim.get("code").unwrap().as_str().unwrap(),
        sim.get("backend").unwrap().as_str().unwrap(),
        sim.get("cap").unwrap().as_u64().unwrap(),
    );

    // Drain and stop the accept loop.
    let bye = round_trip(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    drop(stream);
    accept_loop
        .join()
        .expect("accept loop joins")
        .expect("serve loop exits cleanly");
    println!("server drained and shut down");
}
