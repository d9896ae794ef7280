//! The simulated code LLM: generation and trace-driven repair.

use crate::corrupt::{self, Channel, ChannelRates};
use crate::cot::{self, CotKind, Plan};
use crate::finetune::TrainingLevel;
use crate::knowledge::KnowledgeBase;
use crate::rag::{self, CorpusConfig, RetrievalEffect, VectorStore};
use crate::spec::TaskSpec;
use crate::template;
use qcir::diag::DiagCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Generation-time configuration: which techniques are active.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Base or fine-tuned model.
    pub training: TrainingLevel,
    /// RAG retrieval depth (`None` disables RAG).
    pub rag_top_k: Option<usize>,
    /// CoT flavour (`None` disables CoT).
    pub cot: Option<CotKind>,
    /// How API-specific the benchmark's tasks are: multiplies the
    /// import/deprecation/syntax channel rates. The Qiskit-HumanEval-like
    /// benchmark uses > 1 (library-heavy prompts), the custom suite 1.0
    /// (paper §V-C: QHE "tests Qiskit specific syntax").
    pub api_difficulty: f64,
    /// Model capability scale: 1.0 is StarCoder-class; larger means a
    /// stronger model (the Granite-20B comparison row of Table I).
    /// Scales down every channel rate and scales up familiarity.
    pub model_strength: f64,
    /// Label for reports.
    pub label: &'static str,
}

impl GenConfig {
    /// Pre-trained model only.
    pub fn base() -> Self {
        GenConfig {
            training: TrainingLevel::Base,
            rag_top_k: None,
            cot: None,
            api_difficulty: 1.0,
            model_strength: 1.0,
            label: "base",
        }
    }

    /// Fine-tuned model (the paper's `-QK` suffix).
    pub fn fine_tuned() -> Self {
        GenConfig {
            training: TrainingLevel::FineTuned,
            rag_top_k: None,
            cot: None,
            api_difficulty: 1.0,
            model_strength: 1.0,
            label: "fine-tuned",
        }
    }

    /// Fine-tuned + RAG.
    pub fn with_rag() -> Self {
        GenConfig {
            training: TrainingLevel::FineTuned,
            rag_top_k: Some(8),
            cot: None,
            api_difficulty: 1.0,
            model_strength: 1.0,
            label: "fine-tuned+rag",
        }
    }

    /// Fine-tuned + manual CoT.
    pub fn with_cot() -> Self {
        GenConfig {
            training: TrainingLevel::FineTuned,
            rag_top_k: None,
            cot: Some(CotKind::Manual),
            api_difficulty: 1.0,
            model_strength: 1.0,
            label: "fine-tuned+cot",
        }
    }

    /// Fine-tuned + structured CoT.
    pub fn with_scot() -> Self {
        GenConfig {
            training: TrainingLevel::FineTuned,
            rag_top_k: None,
            cot: Some(CotKind::Structured),
            api_difficulty: 1.0,
            model_strength: 1.0,
            label: "fine-tuned+scot",
        }
    }
}

/// One generated program plus the provenance the agents need.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// The emitted QasmLite source.
    pub source: String,
    /// Surface corruption channels that fired.
    pub applied: Vec<Channel>,
    /// Whether the model emitted the correct algorithm structure.
    pub structure_known: bool,
    /// The CoT plan used, when CoT was active.
    pub plan: Option<Plan>,
    /// Retrieval summary, when RAG was active.
    pub retrieval: Option<RetrievalEffect>,
    /// Seed for the corruption realization (repair re-renders with it).
    corruption_seed: u64,
}

/// The simulated LLM.
#[derive(Debug, Clone)]
pub struct CodeLlm {
    knowledge: KnowledgeBase,
    store: VectorStore,
}

impl Default for CodeLlm {
    fn default() -> Self {
        Self::new()
    }
}

impl CodeLlm {
    /// A model over the default documentation corpus (staleness 0.5 — the
    /// paper's "docs are not up to date" regime).
    pub fn new() -> Self {
        CodeLlm {
            knowledge: KnowledgeBase::new(),
            store: VectorStore::build(&CorpusConfig::default()),
        }
    }

    /// A model with a custom RAG corpus (used by the staleness ablation).
    pub fn with_corpus(config: &CorpusConfig) -> Self {
        CodeLlm {
            knowledge: KnowledgeBase::new(),
            store: VectorStore::build(config),
        }
    }

    /// Effective channel rates and structure probability for a task under
    /// a configuration (exposed for the ablation benches).
    pub fn effective_rates(
        &self,
        spec: &TaskSpec,
        config: &GenConfig,
        rng: &mut StdRng,
    ) -> (ChannelRates, f64, Option<Plan>, Option<RetrievalEffect>) {
        let mut rates = match config.training {
            TrainingLevel::Base => ChannelRates::base(),
            TrainingLevel::FineTuned => ChannelRates::fine_tuned(),
        };
        let mut structure_prob = self.knowledge.familiarity(spec, config.training);

        let retrieval = config
            .rag_top_k
            .map(|k| rag::retrieval_effect(&self.store, &spec.prompt_text(), spec.topic(), k));
        if let Some(effect) = &retrieval {
            let cf = effect.current_api_fraction;
            rates.scale(Channel::StaleImport, 1.0 - 0.80 * cf);
            rates.scale(Channel::DeprecatedApi, 1.0 - 0.70 * cf);
            rates.scale(Channel::ImportOmission, 1.0 - 0.70 * cf);
            if effect.matched_guide {
                // A thin guide paragraph nudges structure, nothing more —
                // the paper's "RAG shows limited improvement".
                structure_prob += 0.06 * (1.0 - structure_prob);
            }
        }

        let plan = config.cot.map(|kind| cot::synthesize_plan(spec, kind, rng));
        if let Some(p) = &plan {
            if p.correct {
                // The plan hands the model the structure outright.
                structure_prob = structure_prob.max(0.97);
            } else {
                // A wrong plan overrides the model's own knowledge: it
                // dutifully implements the bad plan (§V-E).
                structure_prob = 0.03;
            }
            let stab = p.kind.syntax_stabilization();
            rates.scale(Channel::SyntaxError, stab);
            rates.scale(Channel::Truncation, stab);
        }

        // Benchmark API-specificity: library-heavy prompts exercise more
        // of the (partly stale) API surface.
        if (config.api_difficulty - 1.0).abs() > 1e-12 {
            for ch in [
                Channel::ImportOmission,
                Channel::StaleImport,
                Channel::DeprecatedApi,
                Channel::SyntaxError,
            ] {
                rates.scale(ch, config.api_difficulty);
            }
        }
        // Model capability: a stronger model errs less everywhere and
        // knows more algorithms.
        if (config.model_strength - 1.0).abs() > 1e-12 {
            let s = config.model_strength.max(0.1);
            let rate_factor = 1.0 / (s * s);
            for ch in Channel::SURFACE {
                rates.scale(ch, rate_factor);
            }
            structure_prob = structure_prob.powf(1.0 / s);
        }

        (rates, structure_prob, plan, retrieval)
    }

    /// Generates a program for `spec` under `config`, deterministically in
    /// `seed`.
    pub fn generate(&self, spec: &TaskSpec, config: &GenConfig, seed: u64) -> Generation {
        let mut rng = StdRng::seed_from_u64(mix(seed, spec.topic()));
        let (rates, structure_prob, plan, retrieval) = self.effective_rates(spec, config, &mut rng);
        let structure_known = rng.gen_bool(structure_prob.clamp(0.0, 1.0));
        let applied = rates.sample(&mut rng);
        let corruption_seed = rng.r#gen();
        let source = render(spec, structure_known, &applied, corruption_seed);
        Generation {
            source,
            applied,
            structure_known,
            plan,
            retrieval,
            corruption_seed,
        }
    }

    /// Attempts a repair pass: given the previous generation and the
    /// diagnostic codes from its error trace, the model retries. Repair
    /// succeeds per-channel with a probability that reflects *why* the
    /// channel fired: syntax slips are easy to fix from a trace; stale
    /// API knowledge is not (the model re-emits the same deprecated
    /// symbol), which is exactly the saturation the paper reports in §V-D.
    pub fn repair(
        &self,
        spec: &TaskSpec,
        config: &GenConfig,
        prev: &Generation,
        trace_codes: &[DiagCode],
        semantic_feedback: bool,
        seed: u64,
    ) -> Generation {
        let mut rng = StdRng::seed_from_u64(mix(seed, "repair"));
        let addressed = channels_addressed(trace_codes);
        let mut applied: Vec<Channel> = Vec::new();
        for &ch in &prev.applied {
            let keep = if addressed.contains(&ch) {
                !rng.gen_bool(repair_success_probability(ch))
            } else {
                true
            };
            if keep {
                applied.push(ch);
            }
        }
        let mut structure_known = prev.structure_known;
        if !structure_known && semantic_feedback {
            // Semantic feedback ("output distribution wrong") rarely
            // teaches the model an algorithm it does not know; a CoT plan
            // gives it another chance at the structure.
            let p = match config.cot {
                Some(kind) => 0.22 * kind.plan_quality(),
                None => 0.03,
            };
            if rng.gen_bool(p) {
                structure_known = true;
            }
        }
        let source = render(spec, structure_known, &applied, prev.corruption_seed);
        Generation {
            source,
            applied,
            structure_known,
            plan: prev.plan.clone(),
            retrieval: prev.retrieval.clone(),
            corruption_seed: prev.corruption_seed,
        }
    }
}

/// Maps diagnostic codes in an error trace to the corruption channels the
/// model will try to address.
pub fn channels_addressed(codes: &[DiagCode]) -> BTreeSet<Channel> {
    let mut set = BTreeSet::new();
    for code in codes {
        match code {
            DiagCode::UnknownImport | DiagCode::MissingImport => {
                set.insert(Channel::StaleImport);
                set.insert(Channel::ImportOmission);
            }
            DiagCode::DeprecatedSymbol | DiagCode::RemovedSymbol | DiagCode::UnknownGate => {
                set.insert(Channel::DeprecatedApi);
            }
            DiagCode::LexError | DiagCode::ParseError => {
                set.insert(Channel::SyntaxError);
                set.insert(Channel::Truncation);
            }
            DiagCode::QubitOutOfRange
            | DiagCode::ClbitOutOfRange
            | DiagCode::UndeclaredRegister
            | DiagCode::DuplicateQubit => {
                set.insert(Channel::IndexError);
                set.insert(Channel::Truncation);
            }
            DiagCode::NoMeasurement | DiagCode::MeasureSizeMismatch => {
                set.insert(Channel::MissingMeasure);
                set.insert(Channel::Truncation);
            }
            DiagCode::ParamCountMismatch => {
                set.insert(Channel::WrongParams);
                set.insert(Channel::DeprecatedApi);
            }
            DiagCode::ArityMismatch
            | DiagCode::DuplicateRegister
            | DiagCode::SubroutineArityMismatch => {
                set.insert(Channel::SyntaxError);
            }
        }
    }
    set
}

/// Per-channel repair success probability given a pointed error trace.
pub fn repair_success_probability(channel: Channel) -> f64 {
    match channel {
        Channel::SyntaxError => 0.42,
        Channel::Truncation => 0.36,
        Channel::ImportOmission => 0.45,
        Channel::MissingMeasure => 0.38,
        Channel::IndexError => 0.30,
        // The model's knowledge is the bottleneck: it keeps producing the
        // same deprecated names / stale pins (§V-D).
        Channel::StaleImport => 0.11,
        Channel::DeprecatedApi => 0.09,
        Channel::WrongParams => 0.12,
        Channel::WrongStructure => 0.05,
    }
}

/// Deterministic render of a generation: gold or confabulated body, then
/// the corruption operators in canonical channel order.
fn render(
    spec: &TaskSpec,
    structure_known: bool,
    applied: &[Channel],
    corruption_seed: u64,
) -> String {
    let mut rng = StdRng::seed_from_u64(corruption_seed);
    let mut source = if structure_known {
        template::gold_source(spec)
    } else {
        template::confabulated_source(spec, &mut rng)
    };
    for ch in Channel::SURFACE {
        if applied.contains(&ch) {
            source = corrupt::apply(ch, &source, &mut rng);
        }
    }
    source
}

/// Mixes a seed with a string tag (stable across runs).
fn mix(seed: u64, tag: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in tag.bytes() {
        h = h.wrapping_mul(0x100000001B3).wrapping_add(b as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::check;
    use qcir::dsl;

    fn validity(config: &GenConfig, spec: &TaskSpec, trials: u64) -> f64 {
        let llm = CodeLlm::new();
        let mut ok = 0u64;
        for seed in 0..trials {
            let g = llm.generate(spec, config, seed);
            if let Ok(program) = dsl::parse(&g.source) {
                if check::lower(&program).is_ok() && g.structure_known {
                    ok += 1;
                }
            }
        }
        ok as f64 / trials as f64
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let llm = CodeLlm::new();
        let a = llm.generate(&TaskSpec::BellPair, &GenConfig::fine_tuned(), 5);
        let b = llm.generate(&TaskSpec::BellPair, &GenConfig::fine_tuned(), 5);
        assert_eq!(a, b);
        // Over many seeds the corruption realizations must vary.
        let distinct: std::collections::BTreeSet<String> = (0..50)
            .map(|s| {
                llm.generate(&TaskSpec::BellPair, &GenConfig::fine_tuned(), s)
                    .source
            })
            .collect();
        assert!(distinct.len() > 1, "seeds should vary the generation");
    }

    #[test]
    fn clean_generation_matches_gold() {
        let llm = CodeLlm::new();
        // Find a seed with no corruption and known structure.
        for seed in 0..200 {
            let g = llm.generate(&TaskSpec::BellPair, &GenConfig::with_scot(), seed);
            if g.applied.is_empty() && g.structure_known {
                assert_eq!(g.source, template::gold_source(&TaskSpec::BellPair));
                return;
            }
        }
        panic!("no clean generation in 200 seeds");
    }

    #[test]
    fn fine_tuning_beats_base() {
        let spec = TaskSpec::Ghz { n: 3 };
        let base = validity(&GenConfig::base(), &spec, 300);
        let tuned = validity(&GenConfig::fine_tuned(), &spec, 300);
        assert!(tuned > base + 0.05, "tuned {tuned} vs base {base}");
    }

    #[test]
    fn cot_rescues_unknown_algorithms() {
        let spec = TaskSpec::Walk { steps: 2 };
        let llm = CodeLlm::new();
        let mut known_ft = 0;
        let mut known_cot = 0;
        for seed in 0..400 {
            if llm
                .generate(&spec, &GenConfig::fine_tuned(), seed)
                .structure_known
            {
                known_ft += 1;
            }
            if llm
                .generate(&spec, &GenConfig::with_scot(), seed)
                .structure_known
            {
                known_cot += 1;
            }
        }
        assert!(
            known_cot > known_ft * 2,
            "scot structure {known_cot} vs ft {known_ft}"
        );
    }

    #[test]
    fn bad_plans_override_known_structure() {
        // On a topic the model knows well, CoT occasionally *hurts* via a
        // bad plan — the paper's observed failure mode.
        let llm = CodeLlm::new();
        let spec = TaskSpec::BellPair;
        let mut overridden = 0;
        for seed in 0..800 {
            let g = llm.generate(&spec, &GenConfig::with_cot(), seed);
            if let Some(plan) = &g.plan {
                if !plan.correct && !g.structure_known {
                    overridden += 1;
                }
            }
        }
        assert!(overridden > 0, "bad plans must sometimes override");
    }

    #[test]
    fn rag_reduces_api_error_channels() {
        let llm = CodeLlm::new();
        let spec = TaskSpec::BellPair;
        let mut rng = StdRng::seed_from_u64(0);
        let (ft_rates, ..) = llm.effective_rates(&spec, &GenConfig::fine_tuned(), &mut rng);
        let (rag_rates, ..) = llm.effective_rates(&spec, &GenConfig::with_rag(), &mut rng);
        assert!(rag_rates.rate(Channel::DeprecatedApi) < ft_rates.rate(Channel::DeprecatedApi));
        assert!(rag_rates.rate(Channel::StaleImport) < ft_rates.rate(Channel::StaleImport));
        // RAG does not touch the syntax channel.
        assert_eq!(
            rag_rates.rate(Channel::SyntaxError),
            ft_rates.rate(Channel::SyntaxError)
        );
    }

    #[test]
    fn repair_fixes_syntax_more_often_than_api_errors() {
        let llm = CodeLlm::new();
        let config = GenConfig::fine_tuned();
        let spec = TaskSpec::Ghz { n: 3 };
        let mut syntax_fixed = 0u32;
        let mut syntax_total = 0u32;
        let mut api_fixed = 0u32;
        let mut api_total = 0u32;
        for seed in 0..3000 {
            let g = llm.generate(&spec, &config, seed);
            if g.applied.contains(&Channel::SyntaxError) {
                syntax_total += 1;
                let r = llm.repair(&spec, &config, &g, &[DiagCode::ParseError], false, seed + 1);
                if !r.applied.contains(&Channel::SyntaxError) {
                    syntax_fixed += 1;
                }
            }
            if g.applied.contains(&Channel::DeprecatedApi) {
                api_total += 1;
                let r = llm.repair(
                    &spec,
                    &config,
                    &g,
                    &[DiagCode::RemovedSymbol],
                    false,
                    seed + 1,
                );
                if !r.applied.contains(&Channel::DeprecatedApi) {
                    api_fixed += 1;
                }
            }
        }
        assert!(
            syntax_total > 20 && api_total > 20,
            "{syntax_total}/{api_total}"
        );
        let syntax_rate = syntax_fixed as f64 / syntax_total as f64;
        let api_rate = api_fixed as f64 / api_total as f64;
        assert!(
            syntax_rate > api_rate + 0.2,
            "syntax {syntax_rate} vs api {api_rate}"
        );
    }

    #[test]
    fn repair_does_not_touch_unaddressed_channels() {
        let llm = CodeLlm::new();
        let config = GenConfig::base();
        let spec = TaskSpec::BellPair;
        for seed in 0..500 {
            let g = llm.generate(&spec, &config, seed);
            if g.applied.contains(&Channel::MissingMeasure) {
                // Trace about syntax only: measure channel must survive.
                let r = llm.repair(&spec, &config, &g, &[DiagCode::ParseError], false, seed);
                assert!(r.applied.contains(&Channel::MissingMeasure));
                return;
            }
        }
        panic!("no missing-measure generation found");
    }

    #[test]
    fn channels_addressed_mapping() {
        let set = channels_addressed(&[DiagCode::RemovedSymbol, DiagCode::ParseError]);
        assert!(set.contains(&Channel::DeprecatedApi));
        assert!(set.contains(&Channel::SyntaxError));
        assert!(!set.contains(&Channel::MissingMeasure));
    }
}
