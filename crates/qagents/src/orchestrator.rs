//! The orchestrator: wires the three agents into the Figure 1 pipeline.

use crate::agent::{AgentId, Transcript};
use crate::codegen::CodeGenAgent;
use crate::multipass::{run_multipass, MultiPassResult};
use crate::qec_agent::{QecAgent, QecComparison};
use crate::semantic::SemanticAnalyzerAgent;
use qec::topology::Topology;
use qeval::suite::Task;
use qlm::model::{CodeLlm, GenConfig};
use qsim::noise::NoiseModel;
use std::fmt::Write as _;
use std::sync::Arc;

/// QEC stage configuration.
#[derive(Debug, Clone)]
pub struct QecStage {
    /// Target device topology.
    pub topology: Topology,
    /// Calibration physical error rate.
    pub physical_rate: f64,
    /// Noise model used for the before/after runs.
    pub noise: NoiseModel,
    /// Shots per run.
    pub shots: u64,
}

impl Default for QecStage {
    fn default() -> Self {
        QecStage {
            topology: Topology::grid(7, 7),
            physical_rate: 0.02,
            noise: qsim::profiles::ibm_brisbane_like(),
            shots: 4096,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Generation technique configuration.
    pub gen: GenConfig,
    /// Multi-pass budget (>= 1).
    pub max_passes: usize,
    /// Optional QEC stage.
    pub qec: Option<QecStage>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            gen: GenConfig::fine_tuned(),
            max_passes: 3,
            qec: None,
        }
    }
}

/// The end-to-end report for one task.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Task identifier.
    pub task_id: String,
    /// The multi-pass result (generations + analyses).
    pub multipass: MultiPassResult,
    /// QEC comparison, when the stage ran and the final code compiled.
    pub qec: Option<QecComparison>,
    /// Full inter-agent transcript.
    pub transcript: Transcript,
}

impl PipelineReport {
    /// Whether the final program is fully correct.
    pub fn passed(&self) -> bool {
        self.multipass.passed()
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let last = self.multipass.last();
        let _ = write!(
            out,
            "task {}: {} after {} pass(es)",
            self.task_id,
            if self.passed() { "PASS" } else { "FAIL" },
            self.multipass.passes_used()
        );
        if let Some(tvd) = last.analysis.detail.tvd {
            let _ = write!(out, ", tvd {tvd:.3}");
        }
        if let Some(qec) = &self.qec {
            let _ = write!(
                out,
                "; qec: tvd {:.3} -> {:.3} ({})",
                qec.noisy_tvd(),
                qec.corrected_tvd(),
                qec.spec
            );
        }
        out
    }
}

/// The multi-agent pipeline.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    codegen: CodeGenAgent,
    analyzer: SemanticAnalyzerAgent,
    config: PipelineConfig,
}

impl Orchestrator {
    /// Builds the pipeline with a fresh LLM.
    pub fn new(config: PipelineConfig) -> Self {
        Orchestrator {
            codegen: CodeGenAgent::new(CodeLlm::new(), config.gen.clone()),
            analyzer: SemanticAnalyzerAgent::new(),
            config,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full pipeline on one task.
    pub fn run_task(&self, task: &Task, seed: u64) -> PipelineReport {
        let mut transcript = Transcript::new();
        transcript.push(AgentId::Orchestrator, "prompt", task.spec.prompt_text());

        let multipass = run_multipass(
            &self.codegen,
            &self.analyzer,
            &task.spec,
            self.config.max_passes,
            seed,
        );
        for record in &multipass.history {
            if let Some(plan) = &record.generation.plan {
                transcript.push(AgentId::CodeGen, "plan", qlm::cot::render_plan(plan));
            }
            transcript.push(AgentId::CodeGen, "code", record.generation.source.as_str());
            if record.analysis.passed() {
                transcript.push(AgentId::SemanticAnalyzer, "verdict", "pass");
            } else {
                // Shares the analysis's trace text rather than copying it.
                transcript.push(
                    AgentId::SemanticAnalyzer,
                    "trace",
                    Arc::clone(&record.analysis.error_trace),
                );
            }
        }

        // QEC stage: only meaningful when the final program lowered.
        let qec = match (
            &self.config.qec,
            multipass.last().analysis.detail.syntactic_ok,
        ) {
            (Some(stage), true) => {
                let circuit = qcir::compile(&multipass.last().generation.source).circuit;
                circuit.and_then(|c| {
                    let agent = QecAgent::new(stage.topology.clone(), stage.physical_rate);
                    match agent.compare(&c, &stage.noise, stage.shots, seed) {
                        Ok(cmp) => {
                            transcript.push(AgentId::Qec, "decoder", cmp.spec.to_string());
                            Some(cmp)
                        }
                        Err(e) => {
                            transcript.push(AgentId::Qec, "error", e.to_string());
                            None
                        }
                    }
                })
            }
            _ => None,
        };

        PipelineReport {
            task_id: task.id.to_string(),
            multipass,
            qec,
            transcript,
        }
    }

    /// Best-of-k sampling (the paper's §V-A pass@k methodology): runs the
    /// pipeline up to `k` times with derived seeds and returns the first
    /// passing report, or the last attempt when none passes.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn run_task_best_of(&self, task: &Task, k: usize, seed: u64) -> PipelineReport {
        assert!(k >= 1, "need at least one sample");
        let mut last = None;
        for i in 0..k {
            let report = self.run_task(task, seed.wrapping_add(i as u64 * 0x9E37_79B9));
            if report.passed() {
                return report;
            }
            last = Some(report);
        }
        last.expect("k >= 1 guarantees at least one attempt")
    }

    /// Runs the pipeline over a task list, returning per-task reports.
    pub fn run_suite(&self, tasks: &[Task], seed: u64) -> Vec<PipelineReport> {
        tasks
            .iter()
            .enumerate()
            .map(|(i, task)| self.run_task(task, seed.wrapping_add(i as u64 * 7919)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qeval::suite::test_suite;

    #[test]
    fn default_pipeline_runs_a_task() {
        let orchestrator = Orchestrator::new(PipelineConfig::default());
        let report = orchestrator.run_task(&test_suite()[0], 5);
        assert!(!report.transcript.is_empty());
        assert!(report.summary().contains("task basic/bell"));
    }

    #[test]
    fn transcript_contains_prompt_and_code() {
        let orchestrator = Orchestrator::new(PipelineConfig::default());
        let report = orchestrator.run_task(&test_suite()[0], 9);
        let kinds: Vec<&str> = report.transcript.entries().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"prompt"));
        assert!(kinds.contains(&"code"));
    }

    #[test]
    fn qec_stage_attaches_comparison() {
        let config = PipelineConfig {
            gen: GenConfig::with_scot(),
            max_passes: 3,
            qec: Some(QecStage {
                shots: 512,
                ..QecStage::default()
            }),
        };
        let orchestrator = Orchestrator::new(config);
        // Run the DJ task (the paper's Figure 4 workload) until the code
        // compiles so the QEC stage fires.
        let task = test_suite()
            .into_iter()
            .find(|t| t.id == "mid/dj-const")
            .expect("dj task");
        for seed in 0..30 {
            let report = orchestrator.run_task(&task, seed);
            if report.multipass.last().analysis.detail.syntactic_ok {
                let qec = report.qec.expect("qec comparison present");
                assert!(qec.spec.estimated_lifetime_extension > 0.0);
                return;
            }
        }
        panic!("no compiling generation in 30 seeds");
    }

    #[test]
    fn trace_entries_share_the_analysis_error_trace() {
        let orchestrator = Orchestrator::new(PipelineConfig {
            gen: GenConfig::with_scot(),
            max_passes: 3,
            qec: None,
        });
        let mut shared = 0;
        for (i, task) in test_suite().iter().enumerate().take(12) {
            let report = orchestrator.run_task(task, i as u64);
            let traces: Vec<_> = report
                .transcript
                .entries()
                .iter()
                .filter(|e| e.kind == "trace")
                .collect();
            let failed: Vec<_> = report
                .multipass
                .history
                .iter()
                .filter(|r| !r.analysis.passed())
                .collect();
            assert_eq!(traces.len(), failed.len(), "{}", task.id);
            for (entry, record) in traces.iter().zip(&failed) {
                assert!(
                    Arc::ptr_eq(&entry.content, &record.analysis.error_trace),
                    "{}: trace entry copies its pass's error trace",
                    task.id
                );
                shared += 1;
            }
        }
        assert!(shared > 0, "no failing pass in the sample");
    }

    #[test]
    fn transcript_display_is_unchanged() {
        let orchestrator = Orchestrator::new(PipelineConfig {
            gen: GenConfig::with_scot(),
            max_passes: 3,
            qec: None,
        });
        let task = test_suite()
            .into_iter()
            .find(|t| t.id == "basic/basis-2-1")
            .expect("basis task");
        let report = orchestrator.run_task(&task, 0);
        let expected = concat!(
            "[orchestrator / prompt]\n",
            "  Generate a quantum program encoding the basis state 1 on 2 qubits and measuring it.\n",
            "[code-gen / plan]\n",
            "  Let's think step by step:\n",
            "  1. allocate n qubits\n",
            "  2. x gates on set bits\n",
            "  3. measure all\n",
            "[code-gen / code]\n",
            "  import qasmlite 2.1;\n",
            "  qreg q[2];\n",
            "  creg c[2];\n",
            "  x q[0];\n",
            "  measure q[0] -> c[0];\n",
            "  measure q[2] -> c[1];\n",
            "[semantic-analyzer / trace]\n",
            "  Traceback (most recent failure):\n",
            "    error[E0202] at 6:9: index 2 out of range for register `q` of size 2\n",
            "[code-gen / plan]\n",
            "  Let's think step by step:\n",
            "  1. allocate n qubits\n",
            "  2. x gates on set bits\n",
            "  3. measure all\n",
            "[code-gen / code]\n",
            "  import qasmlite 2.1;\n",
            "  qreg q[2];\n",
            "  creg c[2];\n",
            "  x q[0];\n",
            "  measure q[0] -> c[0];\n",
            "  measure q[1] -> c[1];\n",
            "[semantic-analyzer / verdict]\n",
            "  pass\n",
        );
        assert_eq!(report.transcript.to_string(), expected);
    }

    #[test]
    fn empty_device_qec_stage_reports_an_error() {
        let config = PipelineConfig {
            gen: GenConfig::with_scot(),
            max_passes: 3,
            qec: Some(QecStage {
                topology: Topology::new("empty", 0, &[]),
                shots: 64,
                ..QecStage::default()
            }),
        };
        let orchestrator = Orchestrator::new(config);
        let task = &test_suite()[0];
        for seed in 0..30 {
            let report = orchestrator.run_task(task, seed);
            if !report.multipass.last().analysis.detail.syntactic_ok {
                continue;
            }
            assert!(report.qec.is_none());
            let errors: Vec<_> = report.transcript.from_agent(AgentId::Qec).collect();
            assert_eq!(errors.len(), 1);
            assert_eq!(errors[0].kind, "error");
            assert!(
                errors[0].content.contains("device has 0 qubits"),
                "{}",
                errors[0].content
            );
            return;
        }
        panic!("no compiling generation in 30 seeds");
    }

    #[test]
    fn best_of_k_beats_single_sample() {
        let orchestrator = Orchestrator::new(PipelineConfig {
            gen: GenConfig::fine_tuned(),
            max_passes: 1,
            qec: None,
        });
        let tasks: Vec<_> = test_suite().into_iter().take(6).collect();
        let mut single = 0usize;
        let mut best5 = 0usize;
        for (i, task) in tasks.iter().enumerate() {
            for s in 0..8u64 {
                let seed = (i as u64) * 977 + s;
                if orchestrator.run_task(task, seed).passed() {
                    single += 1;
                }
                if orchestrator.run_task_best_of(task, 5, seed).passed() {
                    best5 += 1;
                }
            }
        }
        assert!(best5 > single, "best-of-5 {best5} !> single {single}");
    }

    #[test]
    fn run_suite_covers_all_tasks() {
        let orchestrator = Orchestrator::new(PipelineConfig::default());
        let tasks: Vec<_> = test_suite().into_iter().take(4).collect();
        let reports = orchestrator.run_suite(&tasks, 1);
        assert_eq!(reports.len(), 4);
    }
}
