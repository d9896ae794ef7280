//! The `qugen-serve` binary: a line-delimited-JSON simulation job daemon.
//!
//! ```text
//! qugen-serve --listen 127.0.0.1:7878   # TCP transport
//! qugen-serve --stdio                   # one request per stdin line
//! ```
//!
//! Workers run [`ServerConfig::default`]'s executor (auto dispatch, one
//! simulator thread each); clients pin a backend per job with the wire's
//! `backend` field. Request lines are read under a 1 MiB cap
//! ([`qugen_serve::proto::MAX_LINE_BYTES`]). Flags shape the service
//! around it.

use qugen_serve::server::{Server, ServerConfig};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: qugen-serve [--stdio | --listen ADDR] \
                     [--workers N] [--queue N] [--cache N] [--retain N]";

enum Transport {
    Stdio,
    Tcp(String),
}

fn main() -> ExitCode {
    let mut transport = Transport::Stdio;
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => transport = Transport::Stdio,
            "--listen" => match args.next() {
                Some(addr) => transport = Transport::Tcp(addr),
                None => return usage_error("--listen needs an ADDR"),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.workers = n,
                None => return usage_error("--workers needs a number"),
            },
            "--queue" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.queue_capacity = n,
                None => return usage_error("--queue needs a number"),
            },
            "--cache" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.cache_capacity = n,
                None => return usage_error("--cache needs a number"),
            },
            "--retain" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.terminal_retention = n,
                None => return usage_error("--retain needs a number"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }

    let server = Arc::new(Server::new(config));
    let outcome = match transport {
        Transport::Stdio => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            server.serve_lines(stdin.lock(), stdout.lock())
        }
        Transport::Tcp(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                eprintln!("qugen-serve listening on {addr}");
                server.serve_tcp(listener)
            }
            Err(e) => {
                eprintln!("qugen-serve: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qugen-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("qugen-serve: {message}\n{USAGE}");
    ExitCode::FAILURE
}
