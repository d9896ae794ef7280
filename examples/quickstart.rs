//! Quickstart: run the full three-agent pipeline on one task.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the default pipeline (fine-tuned simulated LLM, 3-pass semantic
//! repair loop, no QEC stage), asks it to generate a Bell-pair program,
//! and prints the inter-agent transcript plus the final verdict.

use qugen::qagents::orchestrator::{Orchestrator, PipelineConfig};
use qugen::qeval::suite::test_suite;

pub fn main() {
    let orchestrator = Orchestrator::new(PipelineConfig::default());
    let tasks = test_suite();
    let bell = &tasks[0];

    println!("prompt: {}\n", bell.spec.prompt_text());

    // Seeds are deterministic; sweep a few to show both a repair and a
    // first-pass success.
    for seed in [3u64, 5, 8] {
        let report = orchestrator.run_task(bell, seed);
        println!("--- seed {seed} ---");
        println!("{}", report.summary());
        let last = report.multipass.last();
        println!("final program:\n{}", last.generation.source);
        if let Some(circuit) = qugen::qcir::compile(&last.generation.source).circuit {
            println!("diagram:\n{}", qugen::qcir::draw::draw(&circuit));
        }
        if !last.analysis.error_trace.is_empty() {
            println!("last error trace:\n{}", last.analysis.error_trace);
        }
    }

    // Show one full transcript.
    let report = orchestrator.run_task(bell, 12);
    println!("=== full transcript (seed 12) ===\n{}", report.transcript);
}
