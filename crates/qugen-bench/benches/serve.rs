//! Criterion benches: the serve layer's overhead on top of raw execution.
//!
//! * `serve_request_path` — the same Bell-pair job measured three ways:
//!   raw `Executor::try_run_job` (the floor), a cold submit+wait through
//!   [`Server::handle_line`] (adds parse/check/resolve + queue + table
//!   bookkeeping), and a warm submit that hits the result cache (no
//!   execution at all — the payoff row: it should beat even the raw
//!   floor once shots are nontrivial).
//! * `serve_codec` — encode/decode of a counts-bearing result line, the
//!   per-reply wire cost.

use criterion::{criterion_group, criterion_main, Criterion};
use qsim::exec::ExecutorConfig;
use qsim::job::JobSpec;
use qugen_serve::server::{Server, ServerConfig};
use qugen_wire::Json;

const BELL: &str = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\n\
                    cx q[0], q[1];\nmeasure q -> c;\n";
const SHOTS: u64 = 4096;

fn submit_line(seed: u64) -> String {
    format!(
        "{{\"op\":\"submit\",\"source\":{},\"shots\":{SHOTS},\"seed\":{seed}}}",
        Json::Str(BELL.to_string()).encode()
    )
}

/// Submit one job and block until its counts come back; returns the
/// result line (so the whole request path stays on the measured path).
fn submit_and_wait(server: &Server, seed: u64) -> String {
    let reply = Json::parse(&server.handle_line(&submit_line(seed))).unwrap();
    let id = reply.get("job").unwrap().as_u64().unwrap();
    server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"))
}

fn bench_request_path(c: &mut Criterion) {
    let program = qcir::dsl::parse(BELL).unwrap();
    let circuit = qcir::check::lower(&program).unwrap();
    let exec = ExecutorConfig::new().build();
    let mut group = c.benchmark_group("serve_request_path");
    group.bench_function("raw_executor", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(
                exec.try_run_job(&JobSpec::new(circuit.clone(), SHOTS, seed))
                    .unwrap(),
            )
        })
    });
    group.bench_function("serve_cold_submit", |b| {
        let server = Server::new(ServerConfig {
            workers: 1,
            cache_capacity: 1, // every fresh seed evicts: always a miss
            ..ServerConfig::default()
        });
        let mut seed = 1_000_000u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(submit_and_wait(&server, seed))
        })
    });
    group.bench_function("serve_cache_hit", |b| {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // Prime the cache once; every measured iteration is a hit.
        let _ = submit_and_wait(&server, 7);
        b.iter(|| std::hint::black_box(submit_and_wait(&server, 7)))
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let result_line = submit_and_wait(&server, 3);
    let mut group = c.benchmark_group("serve_codec");
    group.bench_function("decode_result_line", |b| {
        b.iter(|| std::hint::black_box(Json::parse(&result_line).unwrap()))
    });
    let parsed = Json::parse(&result_line).unwrap();
    group.bench_function("encode_result_line", |b| {
        b.iter(|| std::hint::black_box(parsed.encode()))
    });
    group.finish();
}

criterion_group!(benches, bench_request_path, bench_codec);
criterion_main!(benches);
