//! The semantic analyzer agent: grading plus error-trace production.

use qcir::diag::{render_trace, DiagCode, Severity};
use qeval::grade::{grade_source, GradeDetail};
use qlm::spec::TaskSpec;
use std::sync::Arc;

/// The analyzer's verdict on one generated program.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticAnalysis {
    /// Full grading detail (diagnostics, TVD).
    pub detail: GradeDetail,
    /// Rendered error trace (what the repair prompt embeds). Built once and
    /// shared: the orchestrator's transcript holds a clone of this `Arc`.
    pub error_trace: Arc<str>,
    /// Machine-readable diagnostic codes for the repair model.
    pub trace_codes: Vec<DiagCode>,
    /// `true` when the program ran but its behaviour was wrong — the
    /// analyzer then attaches behavioural feedback instead of a traceback.
    pub semantic_feedback: bool,
}

impl SemanticAnalysis {
    /// Whether the program is fully correct.
    pub fn passed(&self) -> bool {
        self.detail.passed()
    }
}

/// Agent #2 of Figure 1.
#[derive(Debug, Clone, Default)]
pub struct SemanticAnalyzerAgent {
    _private: (),
}

impl SemanticAnalyzerAgent {
    /// Creates the agent.
    pub fn new() -> Self {
        SemanticAnalyzerAgent { _private: () }
    }

    /// Analyzes a generated program against the task.
    pub fn analyze(&self, source: &str, spec: &TaskSpec) -> SemanticAnalysis {
        let detail = grade_source(source, spec);
        let error_diags: Vec<_> = detail
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect();
        let mut trace_codes: Vec<DiagCode> = error_diags.iter().map(|d| d.code).collect();
        let mut error_trace = if error_diags.is_empty() {
            String::new()
        } else {
            render_trace(&error_diags)
        };
        let semantic_feedback = detail.syntactic_ok && !detail.semantic_ok;
        if semantic_feedback {
            // Behavioural feedback: the program ran, the distribution is
            // off. Include measured evidence the way a test harness would.
            if detail.circuitless_semantic_failure() {
                error_trace.push_str(
                    "semantic check failed: program output interface does not match the task\n",
                );
                trace_codes.push(DiagCode::NoMeasurement);
            } else if let Some(tvd) = detail.tvd {
                error_trace.push_str(&format!(
                    "semantic check failed: output distribution deviates from the expected one (total variation distance {tvd:.3})\n"
                ));
            }
        }
        SemanticAnalysis {
            detail,
            error_trace: error_trace.into(),
            trace_codes,
            semantic_feedback,
        }
    }
}

/// Extension used above; kept on `GradeDetail` semantics.
trait GradeDetailExt {
    fn circuitless_semantic_failure(&self) -> bool;
}

impl GradeDetailExt for GradeDetail {
    fn circuitless_semantic_failure(&self) -> bool {
        self.syntactic_ok && !self.semantic_ok && self.tvd.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_code_yields_empty_trace() {
        let agent = SemanticAnalyzerAgent::new();
        let gold = qlm::template::gold_source(&TaskSpec::BellPair);
        let analysis = agent.analyze(&gold, &TaskSpec::BellPair);
        assert!(analysis.passed());
        assert!(analysis.error_trace.is_empty());
        assert!(analysis.trace_codes.is_empty());
    }

    #[test]
    fn syntax_failure_yields_traceback() {
        let agent = SemanticAnalyzerAgent::new();
        let analysis = agent.analyze("qreg q[2]\nh q[0];", &TaskSpec::BellPair);
        assert!(!analysis.passed());
        assert!(analysis.error_trace.contains("Traceback"));
        assert!(!analysis.trace_codes.is_empty());
        assert!(!analysis.semantic_feedback);
    }

    #[test]
    fn semantic_failure_yields_behavioural_feedback() {
        let agent = SemanticAnalyzerAgent::new();
        // Valid GHZ graded as superposition: runs, wrong distribution.
        let src = qlm::template::gold_source(&TaskSpec::Ghz { n: 3 });
        let analysis = agent.analyze(&src, &TaskSpec::Superposition { n: 3 });
        assert!(!analysis.passed());
        assert!(analysis.semantic_feedback);
        assert!(analysis.error_trace.contains("distribution"));
    }

    #[test]
    fn removed_symbol_trace_carries_the_code() {
        let agent = SemanticAnalyzerAgent::new();
        let src =
            "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\ncnot q[0], q[1];\nmeasure q -> c;\n";
        let analysis = agent.analyze(src, &TaskSpec::BellPair);
        assert!(analysis.trace_codes.contains(&DiagCode::RemovedSymbol));
        assert!(
            analysis.error_trace.contains("cx"),
            "{}",
            analysis.error_trace
        );
    }
}
