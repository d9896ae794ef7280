//! Measures the traffic shares `serve_mixed` is built from.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin serve_traffic
//! ```
//!
//! Repeat share: one SCoT grid cell as `eval_grid` grades it (34 tasks, 6
//! samples each, the per-sample seeds `evaluate_task` uses) submits every
//! program that lowers for simulation under the grader's fixed seed. The
//! share of those programs whose source already appeared earlier in the
//! cell is the share of exact (source, shots, seed) repeats a result cache
//! in front of that traffic would answer. Printed per cell seed, then
//! their mean.
//!
//! Large-circuit share: the widest reference circuit of the suite, and the
//! share of suite tasks whose reference has 16 or more qubits.

use qeval::suite::test_suite;
use qlm::model::{CodeLlm, GenConfig};
use std::collections::BTreeSet;

const SAMPLES: usize = 6;
const CELL_SEEDS: u64 = 32;
const LARGE_QUBITS: usize = 16;

fn lowers(source: &str) -> bool {
    qcir::dsl::parse(source)
        .ok()
        .and_then(|p| qcir::check::check(&p, &qcir::api::ApiRegistry::standard()).circuit)
        .is_some()
}

fn main() {
    let llm = CodeLlm::new();
    let config = GenConfig::with_scot();
    let suite = test_suite();
    let mut shares = Vec::new();
    for seed in 1..=CELL_SEEDS {
        let mut seen = BTreeSet::new();
        let (mut lowered, mut repeats) = (0usize, 0usize);
        for (t, task) in suite.iter().enumerate() {
            for s in 0..SAMPLES {
                let sample_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((t * 1000 + s) as u64);
                let source = llm.generate(&task.spec, &config, sample_seed).source;
                if lowers(&source) {
                    lowered += 1;
                    repeats += !seen.insert(source) as usize;
                }
            }
        }
        let share = repeats as f64 / lowered as f64;
        println!("cell seed {seed:>2}: {lowered} programs lower, {repeats} repeat, share {share:.4}");
        shares.push(share);
    }
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    let (min, max) = shares
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    println!("repeat share: mean {mean:.4} min {min:.4} max {max:.4} over {CELL_SEEDS} cells");
    let widths: Vec<usize> = suite
        .iter()
        .map(|t| t.spec.reference_circuit().num_qubits())
        .collect();
    let large = widths.iter().filter(|&&q| q >= LARGE_QUBITS).count();
    println!(
        "suite references: widest {} qubits, {large} of {} tasks at {LARGE_QUBITS}+ qubits",
        widths.iter().max().copied().unwrap_or(0),
        widths.len()
    );
}
