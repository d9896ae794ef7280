//! `eval_grid`: the Figure 3 grid. Each grid cell is one
//! `qeval::report::evaluate_parallel` call: one technique over the 34-task
//! suite, `SAMPLES` samples per task, on `nproc` eval threads that grade
//! with one simulator thread each. Cells cycle through the five
//! techniques; every round of five uses a fresh seed derived from
//! `--seed`. The plan cache starts cold, as a user's first grid does.

use crate::fold::{self, Tracer};
use crate::util::{derive, timed_setup, usage, Check, Measured, Report, Rng};
use crate::Ctx;
use qeval::grade::grade_source_with_threads;
use qeval::report::{evaluate_parallel, evaluate_range, fold_outcome, EvalOutcome, TaskEval};
use qeval::suite::{test_suite, Task};
use qlm::model::{CodeLlm, GenConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Samples per task in one grid cell.
const SAMPLES: usize = 6;
/// Latency is per grid cell; p95 keeps ten or more of the ~300 cells a
/// 20-second run grades beyond it.
const TAIL: f64 = 0.95;
const SETUP_REPS: usize = 21;
/// Tasks whose rows are re-graded on one thread by `evaluate_range`.
const CHECKED_TASKS: usize = 3;
/// Rounds of five cells the traced run grades on one eval thread, per
/// second of `--seconds`.
const TRACED_ROUNDS_PER_SECOND: f64 = 0.75;

/// The five Figure 3 techniques, in the order the paper ranks them.
fn techniques() -> [GenConfig; 5] {
    [
        GenConfig::base(),
        GenConfig::fine_tuned(),
        GenConfig::with_rag(),
        GenConfig::with_cot(),
        GenConfig::with_scot(),
    ]
}

pub fn run(ctx: &Ctx) -> Report {
    let (setup_s, (llm, suite)) = timed_setup(SETUP_REPS, || (CodeLlm::new(), test_suite()));
    if ctx.trace.is_some() {
        return traced(ctx, &llm, &suite);
    }
    let configs = techniques();
    let mut cells: Vec<(usize, usize, EvalOutcome)> = Vec::new();
    let mut latencies_ms = Vec::new();
    let cpu0 = usage().cpu_s;
    let start = Instant::now();
    'rounds: for round in 0.. {
        for (k, config) in configs.iter().enumerate() {
            let t = Instant::now();
            let outcome = evaluate_parallel(
                &llm,
                &suite,
                config,
                SAMPLES,
                derive(ctx.seed, round as u64),
                ctx.nproc,
            );
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            cells.push((round, k, outcome));
            if ctx.expired(start) {
                break 'rounds;
            }
        }
    }
    let measured = Measured {
        setup_s,
        ops: cells.iter().map(|(_, _, o)| o.samples as u64).sum(),
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
    check_rows(ctx, &llm, &suite, &cells, &mut report);
    check_ordering(&cells, &mut report);
    report
}

/// Re-grades a seed-chosen cell's rows for a few tasks on one thread.
fn check_rows(
    ctx: &Ctx,
    llm: &CodeLlm,
    suite: &[Task],
    cells: &[(usize, usize, EvalOutcome)],
    report: &mut Report,
) {
    let mut rng = Rng::new(ctx.seed ^ 0xC4EC);
    let (round, k, outcome) = &cells[rng.below(cells.len())];
    let config = &techniques()[*k];
    let mut mismatched = Vec::new();
    for _ in 0..CHECKED_TASKS {
        let t = rng.below(suite.len());
        let row = &evaluate_range(
            llm,
            suite,
            config,
            SAMPLES,
            derive(ctx.seed, *round as u64),
            t,
            t + 1,
            1,
        )[0];
        if (row.samples, row.passed) != outcome.per_task[t] {
            mismatched.push(t);
            report.failed += row.samples as u64;
        }
    }
    report.check(Check::new(
        "eval_grid.rows_match_evaluate_range",
        mismatched.is_empty(),
        format!(
            "round {round} {} tasks checked, mismatched {mismatched:?}",
            config.label
        ),
    ));
}

/// Figure 3's ordering over the pooled tallies of every cell, with the
/// per-technique tallies printed.
fn check_ordering(cells: &[(usize, usize, EvalOutcome)], report: &mut Report) {
    let configs = techniques();
    let mut rates = Vec::new();
    for (k, config) in configs.iter().enumerate() {
        let (mut samples, mut syntactic, mut passed) = (0, 0, 0);
        for (_, _, o) in cells.iter().filter(|(_, ck, _)| *ck == k) {
            samples += o.samples;
            syntactic += o.syntactic_ok;
            passed += o.passed;
        }
        report.notes.push(format!(
            "tally {:<12} samples {samples:>6} syntactic {syntactic:>6} passed {passed:>6} pass_rate {:.4}",
            config.label,
            fold::ratio(passed as f64, samples as f64)
        ));
        rates.push(fold::ratio(passed as f64, samples as f64));
    }
    report.check(Check::new(
        "eval_grid.figure3_ordering",
        rates.windows(2).all(|w| w[0] < w[1]),
        format!("pass rates {rates:.4?} (base < fine-tuned < +RAG < +CoT < +SCoT)"),
    ));
}

/// One program a traced run graded, in the order of its grade spans.
pub struct Graded {
    pub task: usize,
    /// Whether the program parsed and lowered, as the grader reports it.
    pub lowered: bool,
    pub source: String,
}

/// Reports the generation and grading layers of a traced run whose
/// grading spans are named `grade_span`. The grading counts come from the
/// program's simulator spans inside each grading span. Returns the
/// simulations those spans cover.
pub fn report_grading(
    traced: &fold::Traced,
    grade_span: &str,
    graded: &[Graded],
    selfs: &mut BTreeMap<String, f64>,
    report: &mut Report,
) -> u64 {
    // Simulations inside each benchmark span, and whether any of them is
    // sampled (`executor/job` or `executor/batch`) rather than an exact
    // distribution.
    let mut sims = vec![(0u64, false); traced.spans.len()];
    for (p, parent) in traced
        .program
        .iter()
        .zip(fold::place(&traced.spans, &traced.program))
    {
        if let Some(i) = parent {
            sims[i].0 += p.runs;
            sims[i].1 |= p.name != "distribution";
        }
    }
    let grade_spans = (0..traced.spans.len()).filter(|&i| traced.spans[i].name == grade_span);
    let (mut simulations, mut simulating, mut sampled) = (0u64, 0u64, 0u64);
    let mut distinct = BTreeSet::new();
    for (g, i) in graded.iter().zip(grade_spans) {
        let (runs, was_sampled) = sims[i];
        if runs > 0 {
            simulations += runs;
            simulating += 1;
            sampled += was_sampled as u64;
            distinct.insert((g.task, was_sampled));
        }
    }

    // Parse + check of the same sources, re-timed, moves out of the
    // grader's self time into `qcir`.
    let t = Instant::now();
    for g in graded {
        std::hint::black_box(
            qcir::dsl::parse(&g.source)
                .ok()
                .and_then(|p| qcir::check::check(&p, &qcir::api::ApiRegistry::standard()).circuit),
        );
    }
    let qcir_us = t.elapsed().as_secs_f64() * 1e6;
    *selfs.entry("qeval".into()).or_default() -= qcir_us;
    selfs.insert("qcir".into(), qcir_us);

    let grades = graded.len() as u64;
    let lowered = graded.iter().filter(|g| g.lowered).count();
    let qlm_calls = traced.spans.iter().filter(|s| s.layer == "qlm").count() as u64;
    report.metric("qlm.busy_ms", fold::layer_ms(selfs, "qlm"), "ms", qlm_calls);
    report.metric("qlm.calls", qlm_calls as f64, "count", 1);
    report.metric("qcir.busy_ms", qcir_us / 1e3, "ms", grades);
    report.metric(
        "qcir.lowered_ratio",
        fold::ratio(lowered as f64, grades as f64),
        "ratio",
        grades,
    );
    report.metric("qeval.self_ms", fold::layer_ms(selfs, "qeval"), "ms", grades);
    report.metric("qeval.grades", grades as f64, "count", 1);
    report.metric("qeval.sampled_grades", sampled as f64, "count", 1);
    // Each grade that simulates runs its own program once; every other
    // simulation it ran is of a reference.
    report.metric(
        "qeval.reference_sims",
        (simulations - simulating) as f64,
        "count",
        simulating,
    );
    report.metric(
        "qeval.reference_distinct",
        distinct.len() as f64,
        "count",
        simulating,
    );
    simulations
}

/// One traced grid cell: the calls `evaluate_task` makes, per sample,
/// with spans around generation and grading. It runs on one eval thread,
/// so every simulator span the program emits lies inside the grade span
/// that caused it.
fn traced_cell(
    llm: &CodeLlm,
    suite: &[Task],
    config: &GenConfig,
    seed: u64,
    tracer: &mut Tracer,
    graded: &mut Vec<Graded>,
) -> EvalOutcome {
    let mut evals = Vec::with_capacity(suite.len());
    for (t, task) in suite.iter().enumerate() {
        let (mut syntactic_ok, mut passed) = (0, 0);
        for s in 0..SAMPLES {
            let sample_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((t * 1000 + s) as u64);
            let generation = tracer.span("qlm", "generate", |_| {
                llm.generate(&task.spec, config, sample_seed)
            });
            let detail = tracer.span("qeval", "grade", |_| {
                grade_source_with_threads(&generation.source, &task.spec, 1)
            });
            syntactic_ok += detail.syntactic_ok as usize;
            passed += detail.passed() as usize;
            graded.push(Graded {
                task: t,
                lowered: detail.syntactic_ok,
                source: generation.source,
            });
        }
        evals.push(TaskEval {
            difficulty: task.difficulty(),
            samples: SAMPLES,
            syntactic_ok,
            passed,
        });
    }
    fold_outcome(config.label, evals)
}

fn traced(ctx: &Ctx, llm: &CodeLlm, suite: &[Task]) -> Report {
    let trace = ctx.trace.as_ref().expect("traced run");
    let configs = techniques();
    let rounds = (ctx.seconds * TRACED_ROUNDS_PER_SECOND).ceil() as usize;
    let cells =
        || (0..rounds).flat_map(|r| configs.iter().map(move |c| (derive(ctx.seed, r as u64), c)));
    let mut report = Report::default();
    let mut graded = Vec::new();
    let mut tracer = Tracer::new(trace.epoch, true);
    let (outcomes, mismatched, mut traced) = fold::two_passes(
        trace,
        &mut report,
        || {
            cells()
                .map(|(seed, config)| {
                    traced_cell(llm, suite, config, seed, &mut tracer, &mut graded)
                })
                .collect::<Vec<_>>()
        },
        // The same calls on one thread with one simulator thread, so the
        // CPU time the two passes are compared on is spent the same way.
        |outcomes| {
            fold::cold_plan_cache();
            cells()
                .zip(outcomes)
                .filter(|((seed, config), traced)| {
                    let rows =
                        evaluate_range(llm, suite, config, SAMPLES, *seed, 0, suite.len(), 1);
                    fold_outcome(config.label, rows) != **traced
                })
                .count()
        },
    );
    traced.set_spans(trace, &mut report, tracer.into_spans());
    report.attempted = graded.len() as u64;
    report.failed = (mismatched * suite.len() * SAMPLES) as u64;
    report.check(Check::new(
        "eval_grid.traced_tallies_match_untraced",
        mismatched == 0,
        format!("{} cells, {mismatched} differ", outcomes.len()),
    ));

    let mut selfs = fold::self_times(&traced.spans, &traced.program);
    let simulations = report_grading(&traced, "grade", &graded, &mut selfs, &mut report);
    // Grading is the only simulation here, so the spans inside grade spans
    // must account for every job and distribution the executor counted.
    let counted = traced.counter("exec.jobs") + traced.counter("exec.distributions");
    report.check(Check::new(
        "eval_grid.grade_spans_cover_executor_counts",
        simulations as f64 == counted,
        format!("{simulations} simulations in grade spans, executor counted {counted}"),
    ));
    traced.sim_metrics(&selfs, &mut report);
    report.metric(
        "coverage_ratio",
        fold::root_us(&traced.spans) / traced.wall_us,
        "ratio",
        1,
    );
    report.notes.extend(fold::layer_table(&selfs, traced.wall_us));
    report
}
