//! Criterion microbenches: end-to-end pipeline cost.

use criterion::{criterion_group, criterion_main, Criterion};
use qagents::orchestrator::{Orchestrator, PipelineConfig};
use qeval::grade::grade_source;
use qeval::suite::test_suite;
use qlm::model::{CodeLlm, GenConfig};

fn bench_generation(c: &mut Criterion) {
    let llm = CodeLlm::new();
    let config = GenConfig::with_scot();
    let spec = qlm::spec::TaskSpec::Grover { n: 3, marked: 5 };
    let mut seed = 0u64;
    c.bench_function("llm_generate_grover", |b| {
        b.iter(|| {
            seed += 1;
            std::hint::black_box(llm.generate(&spec, &config, seed))
        })
    });
}

/// The five Figure 3 presets.
fn presets() -> [GenConfig; 5] {
    [
        GenConfig::base(),
        GenConfig::fine_tuned(),
        GenConfig::with_rag(),
        GenConfig::with_cot(),
        GenConfig::with_scot(),
    ]
}

/// `llm_generate/<preset>`: one iteration generates every suite task once
/// (34 calls), on a fresh seed each time.
fn bench_generate_presets(c: &mut Criterion) {
    let llm = CodeLlm::new();
    let suite = test_suite();
    for config in presets() {
        let mut seed = 0u64;
        c.bench_function(&format!("llm_generate/{}", config.label), |b| {
            b.iter(|| {
                seed += 1;
                for task in &suite {
                    std::hint::black_box(llm.generate(&task.spec, &config, seed));
                }
            })
        });
    }
}

/// `grade_source/suite_mix`: one iteration parses, checks and grades a
/// fixed set of 102 generated sources, three per suite task (fine-tuned
/// preset, seeds 0..3), against their references.
fn bench_grade_mix(c: &mut Criterion) {
    let llm = CodeLlm::new();
    let config = GenConfig::fine_tuned();
    let mix: Vec<_> = test_suite()
        .into_iter()
        .flat_map(|task| {
            (0..3)
                .map(|seed| {
                    (
                        llm.generate(&task.spec, &config, seed).source,
                        task.spec.clone(),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    c.bench_function("grade_source/suite_mix", |b| {
        b.iter(|| {
            for (source, spec) in &mix {
                std::hint::black_box(grade_source(source, spec));
            }
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let orchestrator = Orchestrator::new(PipelineConfig::default());
    let task = test_suite().into_iter().next().expect("bell task");
    let mut seed = 0u64;
    c.bench_function("pipeline_bell_3_passes", |b| {
        b.iter(|| {
            seed += 1;
            std::hint::black_box(orchestrator.run_task(&task, seed))
        })
    });
}

fn bench_qec_synthesis(c: &mut Criterion) {
    use qec::agent_iface::synthesize;
    use qec::topology::Topology;
    let device = Topology::grid(7, 7);
    c.bench_function("qec_decoder_synthesis_grid7", |b| {
        b.iter(|| std::hint::black_box(synthesize(&device, 0.02, 3, 1).expect("synthesis")))
    });
    // The call `QecAgent` makes: max distance 5, union-find at d = 5.
    c.bench_function("qec_decoder_synthesis_grid7_d5", |b| {
        b.iter(|| std::hint::black_box(synthesize(&device, 0.02, 5, 1).expect("synthesis")))
    });
}

criterion_group!(
    benches,
    bench_generation,
    bench_generate_presets,
    bench_grade_mix,
    bench_pipeline,
    bench_qec_synthesis
);
criterion_main!(benches);
