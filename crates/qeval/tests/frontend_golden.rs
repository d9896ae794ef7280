//! Golden digests over the generation front end: what `CodeLlm::generate`
//! and `repair` emit for the suite under the five Figure 3 presets, what the
//! grader says about those sources, and what retrieval returns over every
//! corpus the staleness ablation builds. The digests were recorded before
//! the RAG index, the template memo and the borrowing lexer landed; any
//! change to a generated byte, a retrieved chunk id, a score-driven choice
//! or a diagnostic moves one of them.
//!
//! The generation/grading pair was re-recorded once, when the 1.x names
//! (`cnot`, `u1`, ...) started to lower under a 1.x import: a per-record
//! diff showed no generation changed, and every changed repair and grade
//! traced to a source that uses a 1.x name under `import qasmlite 1.0` or
//! `1.1`.
//!
//! On a mismatch the test prints the digest it computed. A change that is
//! meant to alter generation output must say so and re-record them.

use qcir::check;
use qcir::diag::DiagCode;
use qcir::dsl;
use qeval::grade::grade_source;
use qeval::suite::{test_suite, Task};
use qlm::model::{CodeLlm, GenConfig, Generation};
use qlm::rag::{retrieval_effect, CorpusConfig};
use qlm::template::gold_source;
use std::collections::BTreeSet;
use std::fmt::Write;

/// FNV-1a over everything written into it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

const SEEDS: u64 = 20;

fn presets() -> [GenConfig; 5] {
    [
        GenConfig::base(),
        GenConfig::fine_tuned(),
        GenConfig::with_rag(),
        GenConfig::with_cot(),
        GenConfig::with_scot(),
    ]
}

fn write_generation(h: &mut Digest, g: &Generation) {
    write!(
        h,
        "src={:?};applied={:?};known={};plan={:?};",
        g.source, g.applied, g.structure_known, g.plan
    )
    .unwrap();
    match &g.retrieval {
        Some(r) => write!(
            h,
            "rag={:?}/{}/{};",
            r.chunk_ids,
            r.current_api_fraction.to_bits(),
            r.matched_guide
        )
        .unwrap(),
        None => h.write_str("rag=none;").unwrap(),
    }
}

/// The diagnostic codes a parse-and-check of `source` reports, the trace
/// the repair pass is given.
fn trace_codes(source: &str) -> Vec<DiagCode> {
    match dsl::parse(source) {
        Err(d) => vec![d.code],
        Ok(program) => match check::lower(&program) {
            Ok(_) => Vec::new(),
            Err(diags) => diags.iter().map(|d| d.code).collect(),
        },
    }
}

/// Every generation (and one repair of it) over suite × presets × seeds,
/// plus the distinct sources it produced per task.
fn generation_digest(llm: &CodeLlm, suite: &[Task]) -> (u64, Vec<BTreeSet<String>>) {
    let mut h = Digest::new();
    let mut sources = vec![BTreeSet::new(); suite.len()];
    for config in presets() {
        for (t, task) in suite.iter().enumerate() {
            for seed in 0..SEEDS {
                let g = llm.generate(&task.spec, &config, seed);
                write_generation(&mut h, &g);
                let codes = trace_codes(&g.source);
                let r = llm.repair(&task.spec, &config, &g, &codes, seed % 2 == 0, seed + 1);
                write_generation(&mut h, &r);
                sources[t].insert(g.source);
                sources[t].insert(r.source);
            }
        }
    }
    (h.0, sources)
}

#[test]
fn generation_repair_and_grading_match_the_recorded_digests() {
    let llm = CodeLlm::new();
    let suite = test_suite();
    let (generated, sources) = generation_digest(&llm, &suite);

    let mut h = Digest::new();
    for (task, generated) in suite.iter().zip(&sources) {
        let gold = gold_source(&task.spec);
        for source in std::iter::once(&gold).chain(generated) {
            let d = grade_source(source, &task.spec);
            write!(
                h,
                "{}:{}/{}/{:?}/{:?};",
                task.id,
                d.syntactic_ok,
                d.semantic_ok,
                d.tvd.map(f64::to_bits),
                d.diagnostics
            )
            .unwrap();
        }
    }
    let graded = h.0;

    assert_eq!(
        (generated, graded),
        (0xd4bb_6e8d_4bae_2239, 0x20fd_6a2b_46dd_f49f),
        "generation or grading digest moved: (generated, graded) = ({generated:#018x}, {graded:#018x})"
    );
}

#[test]
fn retrieval_over_every_ablation_corpus_matches_the_recorded_digest() {
    let suite = test_suite();
    let mut h = Digest::new();
    for staleness in [0.0, 0.5, 1.0] {
        for include_guides in [false, true] {
            let llm = CodeLlm::with_corpus(&CorpusConfig {
                staleness,
                include_guides,
            });
            for task in &suite {
                for seed in 0..4 {
                    let g = llm.generate(&task.spec, &GenConfig::with_rag(), seed);
                    write_generation(&mut h, &g);
                }
            }
        }
    }
    // Retrieval depths the presets do not use, straight through the store.
    let store = qlm::rag::VectorStore::build(&CorpusConfig::default());
    for task in &suite {
        for k in [0, 1, 3, 80] {
            let r = retrieval_effect(&store, &task.spec.prompt_text(), task.spec.topic(), k);
            write!(
                h,
                "{:?}/{}/{};",
                r.chunk_ids,
                r.current_api_fraction.to_bits(),
                r.matched_guide
            )
            .unwrap();
        }
    }
    let retrieved = h.0;
    assert_eq!(
        retrieved, 0xe7ca_b6a1_4513_c423,
        "retrieval digest moved: {retrieved:#018x}"
    );
}
