//! Two-stage grading of generated programs.
//!
//! Stage 1 (**syntactic**): the program must lex, parse and pass the
//! semantic checker against the versioned API registry — everything a
//! Python interpreter would reject at import/run time.
//!
//! Stage 2 (**semantic**): the lowered circuit is executed on the ideal
//! simulator and its outcome distribution compared to the reference
//! circuit's within a total-variation tolerance. This mirrors the paper's
//! "syntactically and semantically valid" criterion (Figure 3) and the
//! §V-C split between the two accuracies.

use qcir::circuit::Circuit;
use qcir::diag::Diagnostic;
use qlm::spec::TaskSpec;
use qsim::backend::{self, BackendChoice, SimError};
use qsim::dist::Distribution;
use qsim::exec::{Executor, ExecutorConfig};
use qsim::job::{JobKey, JobSpec};
use qsim::lru::lock;
use std::sync::Arc;

/// Total-variation tolerance for exact-distribution comparisons.
pub const TVD_TOLERANCE_EXACT: f64 = 0.05;
/// Tolerance for sampled comparisons (mid-circuit measurement paths).
pub const TVD_TOLERANCE_SAMPLED: f64 = 0.08;
/// Shots used when sampling is required.
pub const GRADING_SHOTS: u64 = 8192;
/// Shots for sampled comparisons of circuits past the dense grading cap
/// (per-shot tableau trajectories are pricier, and the statistical error at
/// 2048 shots is still well inside [`TVD_TOLERANCE_SAMPLED`]).
pub const GRADING_SHOTS_LARGE: u64 = 2048;
/// Fixed seed for sampled grading (determinism across runs).
pub const GRADING_SEED: u64 = 0xE7A1;

/// Resource guard for *general* (non-Clifford) generated circuits: the
/// grader refuses to allocate dense state vectors past this size for
/// arbitrary generated code, exactly like the pre-backend-layer 22-qubit
/// guard. Clifford circuits are exempt — they grade on the tableau backend
/// with classical registers of any width (outcomes are multi-word, so even
/// distance-7 surface-code tasks with 97+ classical bits are gradeable).
pub const GRADING_DENSE_QUBIT_CAP: usize = 22;

/// Checks that the grading executors can simulate `circuit`. The rule is
/// class-aware:
///
/// * Clifford circuits grade through auto dispatch (dense when small,
///   tableau when large), checked against the tableau's limits, with no
///   classical-register width limit;
/// * general circuits at or under [`GRADING_DENSE_QUBIT_CAP`] qubits grade
///   through auto dispatch on the dense engine, checked against its limits;
/// * general circuits over the cap are refused with the grading-guard
///   [`SimError::QubitCapExceeded`].
///
/// # Errors
///
/// The [`SimError`] of the first refusing rule.
pub fn grading_preflight(circuit: &Circuit) -> Result<(), SimError> {
    if circuit.is_clifford() {
        backend::resolve(BackendChoice::Tableau, circuit).map(|_| ())
    } else if circuit.num_qubits() <= GRADING_DENSE_QUBIT_CAP {
        backend::resolve(BackendChoice::Dense, circuit).map(|_| ())
    } else {
        Err(SimError::QubitCapExceeded {
            backend: "dense (grading guard)",
            num_qubits: circuit.num_qubits(),
            cap: GRADING_DENSE_QUBIT_CAP,
        })
    }
}

/// Grading outcome detail.
#[derive(Debug, Clone, PartialEq)]
pub struct GradeDetail {
    /// Parsed and checked successfully.
    pub syntactic_ok: bool,
    /// Behaviour matched the reference within tolerance.
    pub semantic_ok: bool,
    /// Diagnostics from the checker (errors and warnings).
    pub diagnostics: Vec<Diagnostic>,
    /// The measured total-variation distance, when both circuits ran.
    pub tvd: Option<f64>,
}

impl GradeDetail {
    /// Fully correct: both stages pass.
    pub fn passed(&self) -> bool {
        self.syntactic_ok && self.semantic_ok
    }

    /// A semantic failure with no measured distance.
    fn unmeasured(syntactic_ok: bool, diagnostics: Vec<Diagnostic>) -> Self {
        GradeDetail {
            syntactic_ok,
            semantic_ok: false,
            diagnostics,
            tvd: None,
        }
    }
}

/// Grades `source` against the task's reference circuit.
pub fn grade_source(source: &str, spec: &TaskSpec) -> GradeDetail {
    grade_source_with_threads(source, spec, qsim::exec::recommended_threads())
}

/// [`grade_source`] with an explicit simulator worker-thread count for the
/// sampled comparison path. Results are thread-count independent; callers
/// that already parallelize across tasks (e.g.
/// [`crate::report::evaluate_parallel`]) pass 1 here so worker pools do not
/// nest multiplicatively.
pub fn grade_source_with_threads(source: &str, spec: &TaskSpec, sim_threads: usize) -> GradeDetail {
    // Stage 1: parse, semantic check and lowering.
    let qcir::check::CheckOutcome {
        circuit,
        diagnostics,
    } = qcir::compile(source);
    let Some(circuit) = circuit else {
        return GradeDetail::unmeasured(false, diagnostics);
    };

    // Stage 2: behavioural comparison.
    let reference = spec.reference_circuit();
    if circuit.num_clbits() != reference.num_clbits()
        || (circuit.num_measurements() == 0 && reference.num_measurements() > 0)
    {
        return GradeDetail::unmeasured(true, diagnostics);
    }
    if grading_preflight(&circuit).is_err() || grading_preflight(&reference).is_err() {
        // No admissible backend (general circuits over the grading guard,
        // absurd sizes, …): grade as semantically wrong rather than
        // attempting to simulate. Clifford circuits sail through at any
        // classical-register width.
        return GradeDetail::unmeasured(true, diagnostics);
    }

    // The exact branch recomputes its distributions on every grade (they
    // are cheap, and circuit lowering is amortized by the process-wide
    // `qsim::plan` cache). The sampled branch memoizes whole results: see
    // `sampled_distributions`.
    let small = circuit.num_qubits() <= GRADING_DENSE_QUBIT_CAP
        && reference.num_qubits() <= GRADING_DENSE_QUBIT_CAP;
    let exact = small
        && qsim::exec::measures_only_at_end(&circuit)
        && qsim::exec::measures_only_at_end(&reference);
    let (tvd, tolerance) = if exact {
        let candidate = Executor::ideal_distribution(&circuit, GRADING_SEED);
        let reference = Executor::ideal_distribution(&reference, GRADING_SEED);
        (candidate.tvd(&reference), TVD_TOLERANCE_EXACT)
    } else {
        // Sampled path: auto dispatch routes each circuit to its class's
        // engine (tableau for large Clifford circuits, dense otherwise).
        let shots = if small {
            GRADING_SHOTS
        } else {
            GRADING_SHOTS_LARGE
        };
        let exec = ExecutorConfig::new().threads(sim_threads.max(1)).build();
        let jobs = [
            JobSpec::new(circuit, shots, GRADING_SEED),
            JobSpec::new(reference, shots, GRADING_SEED ^ 0x5555),
        ];
        let Some(dists) = sampled_distributions(&exec, &jobs) else {
            // A run-time refusal: grade as semantically wrong.
            return GradeDetail::unmeasured(true, diagnostics);
        };
        (dists[0].tvd(&dists[1]), TVD_TOLERANCE_SAMPLED)
    };
    GradeDetail {
        syntactic_ok: true,
        semantic_ok: tvd <= tolerance,
        diagnostics,
        tvd: Some(tvd),
    }
}

/// The distributions of sampled grading `jobs`, memoized by [`JobKey`] in
/// the shared plan cache ([`qsim::plan::PlanCache::results`]); a hit is
/// bit-identical to a re-run (the [`qsim::job`] determinism contract).
/// Only the misses run, through one [`Executor::try_run_batch`] with the
/// lock released, and only successes are remembered. `None` when any job
/// is refused at run time.
fn sampled_distributions(exec: &Executor, jobs: &[JobSpec]) -> Option<Vec<Arc<Distribution>>> {
    let cache = qsim::plan::shared_cache();
    let keys: Vec<JobKey> = jobs
        .iter()
        .map(|job| job.key(exec.config().backend))
        .collect();
    let mut found: Vec<_> = {
        let mut cache = lock(&cache);
        keys.iter().map(|key| cache.results().get(key)).collect()
    };
    let missed: Vec<usize> = (0..jobs.len()).filter(|&i| found[i].is_none()).collect();
    if !missed.is_empty() {
        let runs = exec.try_run_batch(&missed.iter().map(|&i| jobs[i].clone()).collect::<Vec<_>>());
        let runs: Vec<_> = runs
            .into_iter()
            .map(|run| run.ok().map(|counts| Arc::new(counts.to_distribution())))
            .collect();
        let mut cache = lock(&cache);
        for (&i, run) in missed.iter().zip(runs) {
            if let Some(dist) = &run {
                cache.results().insert(keys[i], Arc::clone(dist));
            }
            found[i] = run;
        }
    }
    found.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlm::template::gold_source;

    #[test]
    fn gold_sources_pass_for_representative_tasks() {
        let specs = [
            TaskSpec::BellPair,
            TaskSpec::Ghz { n: 4 },
            TaskSpec::Grover { n: 3, marked: 5 },
            TaskSpec::Shor,
            TaskSpec::Teleport {
                prep: qlm::spec::TeleportPrep::One,
            },
            TaskSpec::Walk { steps: 2 },
        ];
        for spec in specs {
            let detail = grade_source(&gold_source(&spec), &spec);
            assert!(
                detail.passed(),
                "{spec}: syn={} sem={} tvd={:?} diags={:?}",
                detail.syntactic_ok,
                detail.semantic_ok,
                detail.tvd,
                detail.diagnostics
            );
        }
    }

    #[test]
    fn parse_error_fails_syntactically() {
        let detail = grade_source("qreg q[2\nh q[0];", &TaskSpec::BellPair);
        assert!(!detail.syntactic_ok);
        assert!(!detail.passed());
        assert!(!detail.diagnostics.is_empty());
    }

    #[test]
    fn removed_symbol_fails_syntactically() {
        let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\ncnot q[0], q[1];\nmeasure q -> c;\n";
        let detail = grade_source(src, &TaskSpec::BellPair);
        assert!(!detail.syntactic_ok);
    }

    #[test]
    fn deprecated_on_old_import_is_syntactically_fine_and_semantically_right() {
        // cnot under the 2.0 import is only a warning; behaviour matches.
        let src = "import qasmlite 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncnot q[0], q[1];\nmeasure q -> c;\n";
        let detail = grade_source(src, &TaskSpec::BellPair);
        assert!(detail.syntactic_ok, "diags: {:?}", detail.diagnostics);
        assert!(detail.semantic_ok, "tvd: {:?}", detail.tvd);
        assert!(!detail.diagnostics.is_empty(), "warning should be present");
    }

    #[test]
    fn wrong_algorithm_fails_semantically_only() {
        // A GHZ program graded against the superposition task: valid code,
        // wrong distribution.
        let src = gold_source(&TaskSpec::Ghz { n: 3 });
        let detail = grade_source(&src, &TaskSpec::Superposition { n: 3 });
        assert!(detail.syntactic_ok);
        assert!(!detail.semantic_ok);
        assert!(detail.tvd.unwrap() > 0.5);
    }

    #[test]
    fn missing_measure_fails_semantically() {
        let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n";
        let detail = grade_source(src, &TaskSpec::BellPair);
        assert!(detail.syntactic_ok, "no-measure is only a warning");
        assert!(!detail.semantic_ok);
    }

    #[test]
    fn clbit_interface_mismatch_fails() {
        let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n";
        let detail = grade_source(src, &TaskSpec::BellPair);
        assert!(detail.syntactic_ok);
        assert!(!detail.semantic_ok);
    }

    #[test]
    fn small_angle_perturbations_within_tolerance_pass() {
        // rz on |0> state doesn't change the distribution at all.
        let src = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nrz(0.001) q[0];\nmeasure q -> c;\n";
        let detail = grade_source(src, &TaskSpec::BellPair);
        assert!(detail.passed(), "tvd {:?}", detail.tvd);
    }

    #[test]
    fn clifford_ghz49_grades_on_the_tableau_backend() {
        // 49 qubits: past every dense cap, but Clifford — the backend layer
        // routes grading onto the stabilizer tableau. Before the unified
        // backend layer this was refused at 22 qubits outright.
        let spec = TaskSpec::Ghz { n: 49 };
        let detail = grade_source(&gold_source(&spec), &spec);
        assert!(
            detail.passed(),
            "syn={} sem={} tvd={:?}",
            detail.syntactic_ok,
            detail.semantic_ok,
            detail.tvd
        );
    }

    #[test]
    fn large_longrange_general_circuit_still_refused() {
        // A non-Clifford 25-qubit program with a long-range entangler trips
        // the grading guard and fails semantically without being simulated.
        let mut src =
            String::from("import qasmlite 2.1;\nqreg q[25];\ncreg c[25];\nh q[0];\nt q[0];\n");
        src.push_str("cp(0.4) q[0], q[24];\nmeasure q -> c;\n");
        let detail = grade_source(&src, &TaskSpec::Ghz { n: 25 });
        assert!(detail.syntactic_ok);
        assert!(!detail.semantic_ok);
        assert_eq!(detail.tvd, None);
    }

    #[test]
    fn large_shortrange_general_circuit_is_refused_unmeasured() {
        // 25 non-Clifford qubits with single-qubit gates only: over the
        // dense grading cap, so the grading guard refuses it however short
        // its interactions, and it fails without a measured TVD.
        let mut src = String::from("import qasmlite 2.1;\nqreg q[25];\ncreg c[25];\n");
        for q in 0..25 {
            src.push_str(&format!("h q[{q}];\nt q[{q}];\n"));
        }
        src.push_str("measure q -> c;\n");
        let detail = grade_source(&src, &TaskSpec::Ghz { n: 25 });
        assert!(detail.syntactic_ok);
        assert!(!detail.semantic_ok);
        assert_eq!(detail.tvd, None);
    }

    #[test]
    fn grading_preflight_reports_typed_errors() {
        let mut clifford_big = Circuit::new(49, 49);
        clifford_big.h(0);
        assert!(grading_preflight(&clifford_big).is_ok());
        // General circuits over the dense grading cap are refused by the
        // grading guard, short-range or long-range alike.
        let mut general_big = Circuit::new(25, 25);
        general_big.t(0);
        assert_eq!(
            grading_preflight(&general_big),
            Err(SimError::QubitCapExceeded {
                backend: "dense (grading guard)",
                num_qubits: 25,
                cap: GRADING_DENSE_QUBIT_CAP,
            })
        );
        let mut general_wide = Circuit::new(25, 25);
        general_wide.t(0).cp(0.3, 0, 24);
        assert!(matches!(
            grading_preflight(&general_wide),
            Err(SimError::QubitCapExceeded {
                cap: GRADING_DENSE_QUBIT_CAP,
                ..
            })
        ));
        // Wide classical registers no longer refuse: a 97-clbit Clifford
        // circuit (the distance-7 memory shape) preflights clean.
        let wide = Circuit::new(2, 97);
        assert!(grading_preflight(&wide).is_ok());
        // A huge general circuit gets the same grading-guard refusal.
        let mut huge = Circuit::new(1025, 0);
        huge.t(0);
        assert_eq!(
            grading_preflight(&huge),
            Err(SimError::QubitCapExceeded {
                backend: "dense (grading guard)",
                num_qubits: 1025,
                cap: GRADING_DENSE_QUBIT_CAP,
            })
        );
    }

    #[test]
    fn teleport_grading_uses_sampled_path() {
        let spec = TaskSpec::Teleport {
            prep: qlm::spec::TeleportPrep::Plus,
        };
        let detail = grade_source(&gold_source(&spec), &spec);
        assert!(detail.passed(), "tvd {:?}", detail.tvd);
    }

    #[test]
    fn hostile_angle_nesting_grades_as_a_parse_error() {
        let angles = [
            format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("{}1", "-".repeat(100_000)),
            vec!["1"; 1_000_000].join("+"),
        ];
        for angle in angles {
            let source = format!(
                "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nrz({angle}) q[0];\nmeasure q -> c;\n"
            );
            let detail = grade_source(&source, &TaskSpec::BellPair);
            assert!(!detail.syntactic_ok && !detail.passed());
            assert_eq!(detail.diagnostics.len(), 1);
            assert_eq!(detail.diagnostics[0].code, qcir::diag::DiagCode::ParseError);
        }
    }
}
