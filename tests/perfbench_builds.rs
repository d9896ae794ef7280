//! The end-to-end benchmark under `perfbench/` is a workspace of its own, so
//! the root `cargo test` never compiles it. It calls the library crates'
//! public items directly (`qcir::dsl::parse`, `qcir::check::{check, lower}`,
//! `qsim::plan::PlanCache::capacity`, …), and a rename of any of them would
//! break the benchmark without failing a test. This test type-checks it.

use std::process::Command;

#[test]
fn perfbench_type_checks() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/perfbench/Cargo.toml");
    let output = Command::new(env!("CARGO"))
        .args(["check", "--offline", "--quiet", "--manifest-path", manifest])
        .output()
        .expect("cargo runs");
    assert!(
        output.status.success(),
        "perfbench no longer builds against the library crates:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
