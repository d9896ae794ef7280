//! Smoke tests: every example under `examples/` must run to completion.
//!
//! Each example file is compiled into this test target via `#[path]` and its
//! `main` invoked directly, so `cargo test` keeps the quickstart shown in the
//! `src/lib.rs` doc comments (and the rest of the examples) honest without
//! spawning `cargo run` subprocesses.

#[path = "../examples/quickstart.rs"]
mod quickstart;

#[path = "../examples/fault_tolerant_dj.rs"]
mod fault_tolerant_dj;

#[path = "../examples/surface_code_memory.rs"]
mod surface_code_memory;

#[path = "../examples/device_targeted_vqe.rs"]
mod device_targeted_vqe;

#[path = "../examples/technique_shootout.rs"]
mod technique_shootout;

#[path = "../examples/serve_client.rs"]
mod serve_client;

#[test]
fn quickstart_runs() {
    quickstart::main();
}

#[test]
fn fault_tolerant_dj_runs() {
    fault_tolerant_dj::main();
}

#[test]
fn surface_code_memory_runs() {
    surface_code_memory::main();
}

#[test]
fn device_targeted_vqe_runs() {
    device_targeted_vqe::main();
}

#[test]
fn technique_shootout_runs() {
    technique_shootout::main();
}

#[test]
fn serve_client_runs() {
    serve_client::main();
}
