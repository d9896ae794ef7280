//! `agent_qec`: the Figure 1 pipeline. Each op is one
//! `Orchestrator::run_task` call (SCoT generation, up to three
//! generate/repair passes through the semantic analyzer, then the default
//! QEC stage), run task by task over the suite, one round of 34 tasks per
//! seed derived from `--seed`.

use crate::eval_grid::{report_grading, Graded};
use crate::fold::{self, Tracer};
use crate::util::{derive, timed_setup, usage, Check, Measured, Report, Rng};
use crate::Ctx;
use qagents::codegen::CodeGenAgent;
use qagents::multipass::{MultiPassResult, PassRecord};
use qagents::orchestrator::{Orchestrator, PipelineConfig, PipelineReport, QecStage};
use qagents::qec_agent::{QecAgent, QecComparison};
use qagents::semantic::SemanticAnalyzerAgent;
use qeval::suite::{test_suite, Task};
use qlm::model::{CodeLlm, GenConfig};
use qsim::exec::{recommended_threads, Executor, ExecutorConfig};
use std::time::Instant;

/// Latency is per task; p99 keeps ten or more of the ~1,900 tasks a
/// 20-second run drives beyond it.
const TAIL: f64 = 0.99;
const SETUP_REPS: usize = 21;
/// Tasks the traced run drives, per second of `--seconds`.
const TRACED_TASKS_PER_SECOND: f64 = 25.0;

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        gen: GenConfig::with_scot(),
        max_passes: 3,
        qec: Some(QecStage::default()),
    }
}

/// The seed of the `n`-th task the run drives.
fn task_seed(seed: u64, n: usize) -> u64 {
    derive(seed, n as u64)
}

pub fn run(ctx: &Ctx) -> Report {
    let (setup_s, (orchestrator, suite)) =
        timed_setup(SETUP_REPS, || (Orchestrator::new(pipeline()), test_suite()));
    if ctx.trace.is_some() {
        return traced(ctx, &orchestrator, &suite);
    }
    let mut reports = Vec::new();
    let mut latencies_ms = Vec::new();
    let cpu0 = usage().cpu_s;
    let start = Instant::now();
    for n in 0.. {
        let task = &suite[n % suite.len()];
        let t = Instant::now();
        let report = orchestrator.run_task(task, task_seed(ctx.seed, n));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        reports.push(report);
        if ctx.expired(start) {
            break;
        }
    }
    let measured = Measured {
        setup_s,
        ops: reports.len() as u64,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: usage().cpu_s - cpu0,
        latencies_ms,
        tail: TAIL,
    };
    let mut report = Report {
        attempted: measured.ops,
        ..Report::default()
    };
    measured.report(&mut report);
    check_reports(ctx, &orchestrator, &suite, &reports, &mut report);
    report
}

fn same_report(a: &PipelineReport, b: &PipelineReport) -> bool {
    a.task_id == b.task_id
        && a.multipass == b.multipass
        && a.qec == b.qec
        && a.transcript == b.transcript
}

fn check_reports(
    ctx: &Ctx,
    orchestrator: &Orchestrator,
    suite: &[Task],
    reports: &[PipelineReport],
    out: &mut Report,
) {
    let mut rng = Rng::new(ctx.seed ^ 0xA6E7);
    let n = rng.below(reports.len());
    let again = orchestrator.run_task(&suite[n % suite.len()], task_seed(ctx.seed, n));
    let repeat_ok = same_report(&again, &reports[n]);
    out.failed += !repeat_ok as u64;
    out.check(Check::new(
        "agent_qec.rerun_is_identical",
        repeat_ok,
        format!("task #{n} ({})", reports[n].task_id),
    ));

    let mut dj_fired = 0;
    let mut dj_worse = Vec::new();
    // Figure 4's claim is about correct DJ programs; for a wrong one the
    // noise barely moves the distribution and sampling error decides.
    let dj_passed = |r: &&PipelineReport| r.task_id.contains("dj") && r.passed();
    for (n, r) in reports.iter().enumerate().filter(|(_, r)| dj_passed(r)) {
        if let Some(qec) = &r.qec {
            dj_fired += 1;
            if qec.corrected_tvd() > qec.noisy_tvd() {
                dj_worse.push(format!(
                    "#{n} {} tvd {:.4} -> {:.4}",
                    r.task_id,
                    qec.noisy_tvd(),
                    qec.corrected_tvd()
                ));
            }
        }
    }
    out.failed += dj_worse.len() as u64;
    out.check(Check::new(
        "agent_qec.dj_qec_does_not_hurt",
        dj_worse.is_empty(),
        format!(
            "QEC fired on {dj_fired} passing DJ tasks, corrected_tvd > noisy_tvd on {dj_worse:?}"
        ),
    ));
    let passed = reports.iter().filter(|r| r.passed()).count();
    let passes: usize = reports.iter().map(|r| r.multipass.passes_used()).sum();
    let fired = reports.iter().filter(|r| r.qec.is_some()).count();
    out.notes.push(format!(
        "tally tasks {} passed {passed} passes {passes} qec_fired {fired}",
        reports.len()
    ));
}

/// The orchestrator's parts, rebuilt so the traced run can time each.
struct Parts {
    codegen: CodeGenAgent,
    analyzer: SemanticAnalyzerAgent,
    config: PipelineConfig,
}

/// `Orchestrator::run_task` without the transcript, through the same
/// public calls, with a span around each agent step.
fn traced_task(
    parts: &Parts,
    task: &Task,
    seed: u64,
    tracer: &mut Tracer,
) -> (MultiPassResult, Option<QecComparison>) {
    tracer.span("qagents", "task", |tr| {
        let spec = &task.spec;
        let mut history: Vec<PassRecord> = Vec::new();
        let mut generation = tr.span("qlm", "generate", |_| parts.codegen.generate(spec, seed));
        for pass in 1..=parts.config.max_passes {
            let analysis = tr.span("qeval", "analyze", |_| {
                parts.analyzer.analyze(&generation.source, spec)
            });
            let passed = analysis.passed();
            history.push(PassRecord {
                pass,
                generation: generation.clone(),
                analysis,
            });
            if passed || pass == parts.config.max_passes {
                break;
            }
            let last = history.last().expect("just pushed");
            generation = tr.span("qlm", "repair", |_| {
                parts.codegen.repair(
                    spec,
                    &last.generation,
                    &last.analysis.trace_codes,
                    last.analysis.semantic_feedback,
                    seed.wrapping_add(pass as u64 * 0x9E37),
                )
            });
        }
        let multipass = MultiPassResult { history };
        let stage = parts.config.qec.as_ref().expect("pipeline has a QEC stage");
        let qec = if multipass.last().analysis.detail.syntactic_ok {
            let source = &multipass.last().generation.source;
            qcir::dsl::parse(source)
                .ok()
                .and_then(|p| qcir::check::lower(&p).ok())
                .and_then(|circuit| {
                    let agent = QecAgent::new(stage.topology.clone(), stage.physical_rate);
                    let spec = tr
                        .span("qec", "synthesize", |_| agent.synthesize_decoder(seed))
                        .ok()?;
                    let threads = recommended_threads();
                    let ideal =
                        Executor::try_ideal_distribution_threaded(&circuit, seed, threads).ok()?;
                    let run = |noise, seed| {
                        ExecutorConfig::new()
                            .noise(noise)
                            .threads(threads)
                            .build()
                            .try_run(&circuit, stage.shots, seed)
                    };
                    let noisy = run(stage.noise.clone(), seed).ok()?;
                    let corrected_noise = stage.noise.scaled(spec.noise_reduction_factor());
                    let corrected = run(corrected_noise, seed ^ 0xC0DE).ok()?;
                    Some(QecComparison {
                        spec,
                        ideal,
                        noisy,
                        corrected,
                    })
                })
        } else {
            None
        };
        (multipass, qec)
    })
}

fn traced(ctx: &Ctx, orchestrator: &Orchestrator, suite: &[Task]) -> Report {
    let trace = ctx.trace.as_ref().expect("traced run");
    let tasks = (ctx.seconds * TRACED_TASKS_PER_SECOND).ceil() as usize;
    let parts = Parts {
        codegen: CodeGenAgent::new(CodeLlm::new(), pipeline().gen),
        analyzer: SemanticAnalyzerAgent::new(),
        config: pipeline(),
    };
    let mut report = Report {
        attempted: tasks as u64,
        ..Report::default()
    };
    let mut tracer = Tracer::new(trace.epoch, true);
    let (results, mismatched, mut traced) = fold::two_passes(
        trace,
        &mut report,
        || {
            (0..tasks)
                .map(|n| {
                    let task = &suite[n % suite.len()];
                    traced_task(&parts, task, task_seed(ctx.seed, n), &mut tracer)
                })
                .collect::<Vec<_>>()
        },
        |results| {
            fold::cold_plan_cache();
            let mut mismatched = 0u64;
            for (n, (multipass, qec)) in results.iter().enumerate() {
                let report = orchestrator.run_task(&suite[n % suite.len()], task_seed(ctx.seed, n));
                mismatched += (report.multipass != *multipass || report.qec != *qec) as u64;
            }
            mismatched
        },
    );
    traced.set_spans(trace, &mut report, tracer.into_spans());
    report.failed = mismatched;
    report.check(Check::new(
        "agent_qec.traced_reports_match_untraced",
        mismatched == 0,
        format!("{tasks} tasks, {mismatched} differ"),
    ));
    let graded: Vec<Graded> = results
        .iter()
        .enumerate()
        .flat_map(|(n, (multipass, _))| {
            multipass.history.iter().map(move |r| Graded {
                task: n % suite.len(),
                lowered: r.analysis.detail.syntactic_ok,
                source: r.generation.source.clone(),
            })
        })
        .collect();
    let mut selfs = fold::self_times(&traced.spans, &traced.program);
    report_grading(&traced, "analyze", &graded, &mut selfs, &mut report);
    report.metric(
        "qagents.self_ms",
        fold::layer_ms(&selfs, "qagents"),
        "ms",
        tasks as u64,
    );
    let passes: usize = results.iter().map(|(m, _)| m.passes_used()).sum();
    report.metric(
        "qagents.passes_per_task",
        fold::ratio(passes as f64, tasks as f64),
        "ratio",
        tasks as u64,
    );
    let first_failed = results
        .iter()
        .filter(|(m, _)| !m.history[0].analysis.passed());
    let (failed_first, rescued) = first_failed.fold((0u64, 0u64), |(f, r), (m, _)| {
        (f + 1, r + m.passed() as u64)
    });
    report.metric(
        "qagents.repair_rescue_ratio",
        fold::ratio(rescued as f64, failed_first as f64),
        "ratio",
        failed_first,
    );
    let synths = traced
        .spans
        .iter()
        .filter(|s| s.name == "synthesize")
        .count() as u64;
    report.metric(
        "qec.synthesize_ms",
        fold::named_us(&traced.spans, "synthesize") / 1e3,
        "ms",
        synths,
    );
    traced.sim_metrics(&selfs, &mut report);
    let wall_us = traced.wall_us;
    report.metric(
        "coverage_ratio",
        fold::root_us(&traced.spans) / wall_us,
        "ratio",
        1,
    );
    report.notes.extend(fold::layer_table(&selfs, wall_us));
    report
}
