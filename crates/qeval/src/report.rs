//! Evaluation runner (serial and parallel) and result rendering.
//!
//! [`evaluate_parallel`] fans the task×sample grid out over worker threads:
//! per-sample seeds depend only on `(seed, task index, sample index)` and
//! per-task partial results are folded in task order, so the outcome is
//! bit-identical to [`evaluate`] for every thread count.
//!
//! Within each sampled grade, the candidate/reference circuit pair is two
//! [`qsim::job::JobSpec`]s, each pinning its own grading backend (see
//! [`crate::grade::grade_source_with_threads`]). Their results are
//! memoized by [`qsim::job::JobKey`] in the process-wide plan cache
//! ([`qsim::plan::PlanCache::results`], as many entries as the plan cache,
//! emptied whenever that cache is replaced). A task's reference therefore
//! runs once per grid rather than once per sample, and a repeated
//! candidate is a lookup. Only the misses run, through one
//! [`qsim::exec::Executor::try_run_batch`] call. Memo hits are
//! bit-identical to re-execution, so outcomes do not depend on what ran
//! before. Parallel eval workers grade with one simulator thread (so
//! pools do not nest).

use crate::grade::grade_source_with_threads;
use crate::suite::Task;
use qlm::model::{CodeLlm, GenConfig};
use qlm::spec::Difficulty;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Aggregated evaluation outcome for one technique configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Technique label.
    pub label: String,
    /// Total graded samples.
    pub samples: usize,
    /// Samples that parsed and checked.
    pub syntactic_ok: usize,
    /// Samples that also matched the reference behaviour.
    pub passed: usize,
    /// Per-difficulty `(passed, samples)`.
    pub per_difficulty: BTreeMap<Difficulty, (usize, usize)>,
    /// Per-task `(n, c)` pairs for pass@k computation.
    pub per_task: Vec<(usize, usize)>,
}

impl EvalOutcome {
    /// Fraction of samples that were syntactically valid.
    pub fn syntactic_rate(&self) -> f64 {
        self.syntactic_ok as f64 / self.samples.max(1) as f64
    }

    /// Fraction fully correct (the paper's Figure 3 metric).
    pub fn pass_rate(&self) -> f64 {
        self.passed as f64 / self.samples.max(1) as f64
    }

    /// Unbiased pass@k over tasks.
    pub fn pass_at_k(&self, k: usize) -> f64 {
        crate::passk::mean_pass_at_k(&self.per_task, k)
    }

    /// Pass rate within one difficulty band.
    pub fn rate_for(&self, difficulty: Difficulty) -> f64 {
        match self.per_difficulty.get(&difficulty) {
            Some(&(passed, total)) if total > 0 => passed as f64 / total as f64,
            _ => 0.0,
        }
    }
}

/// One task's graded slice of the evaluation grid — the unit of both
/// thread-parallel and multi-process (sharded) work. Public so external
/// coordinators (`qugen-shard`) can carry partial results over a wire and
/// fold them with [`fold_outcome`] exactly as the in-process path does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEval {
    /// Difficulty band of the task (folded into `per_difficulty`).
    pub difficulty: Difficulty,
    /// Samples graded for this task.
    pub samples: usize,
    /// Samples that parsed and checked.
    pub syntactic_ok: usize,
    /// Samples that also matched the reference behaviour.
    pub passed: usize,
}

/// Grades every sample of one task (the unit of parallel work).
fn evaluate_task(
    llm: &CodeLlm,
    task: &Task,
    t_idx: usize,
    config: &GenConfig,
    samples_per_task: usize,
    seed: u64,
    sim_threads: usize,
) -> TaskEval {
    let mut syntactic_ok = 0usize;
    let mut passed = 0usize;
    for s in 0..samples_per_task {
        let sample_seed = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((t_idx * 1000 + s) as u64);
        let generation = llm.generate(&task.spec, config, sample_seed);
        let detail = grade_source_with_threads(&generation.source, &task.spec, sim_threads);
        if detail.syntactic_ok {
            syntactic_ok += 1;
        }
        if detail.passed() {
            passed += 1;
        }
    }
    TaskEval {
        difficulty: task.difficulty(),
        samples: samples_per_task,
        syntactic_ok,
        passed,
    }
}

/// Grades a contiguous task range `[start, end)` of the grid, keeping the
/// *global* task indices so per-sample seeds are placement-independent:
/// the row for task `t` is identical whether it was graded by the serial
/// path, a thread, or a worker process holding any enclosing range.
///
/// Sharded evaluation is therefore a pure merge problem: concatenate the
/// ranges' rows in task order and apply [`fold_outcome`].
///
/// # Panics
///
/// Panics if `start > end` or `end > tasks.len()`.
#[allow(clippy::too_many_arguments)] // the grid coordinates are the signature
pub fn evaluate_range(
    llm: &CodeLlm,
    tasks: &[Task],
    config: &GenConfig,
    samples_per_task: usize,
    seed: u64,
    start: usize,
    end: usize,
    sim_threads: usize,
) -> Vec<TaskEval> {
    assert!(
        start <= end && end <= tasks.len(),
        "range {start}..{end} out of bounds for {} tasks",
        tasks.len()
    );
    (start..end)
        .map(|t_idx| {
            evaluate_task(
                llm,
                &tasks[t_idx],
                t_idx,
                config,
                samples_per_task,
                seed,
                sim_threads,
            )
        })
        .collect()
}

/// Splits `len` units into contiguous `(start, end)` ranges of at most
/// `range_size` (clamped to ≥ 1), in order. The shard coordinator hands
/// these out to workers; concatenating the results in range order
/// reconstructs the serial grading order exactly.
pub fn partition_ranges(len: usize, range_size: usize) -> Vec<(usize, usize)> {
    let range_size = range_size.max(1);
    let mut ranges = Vec::with_capacity(len.div_ceil(range_size));
    let mut start = 0usize;
    while start < len {
        let end = (start + range_size).min(len);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Folds per-task partial results (in task order) into an [`EvalOutcome`].
///
/// This is the single merge seam shared by [`evaluate`],
/// [`evaluate_parallel`] and the `qugen-shard` coordinator: every path
/// produces the same `Vec<TaskEval>` in task order, so every path folds to
/// a bit-identical outcome.
pub fn fold_outcome(label: &str, task_evals: Vec<TaskEval>) -> EvalOutcome {
    let mut syntactic_ok = 0usize;
    let mut passed = 0usize;
    let mut samples = 0usize;
    let mut per_difficulty: BTreeMap<Difficulty, (usize, usize)> = BTreeMap::new();
    let mut per_task = Vec::with_capacity(task_evals.len());
    for te in task_evals {
        syntactic_ok += te.syntactic_ok;
        passed += te.passed;
        samples += te.samples;
        let entry = per_difficulty.entry(te.difficulty).or_insert((0, 0));
        entry.0 += te.passed;
        entry.1 += te.samples;
        per_task.push((te.samples, te.passed));
    }
    EvalOutcome {
        label: label.to_string(),
        samples,
        syntactic_ok,
        passed,
        per_difficulty,
        per_task,
    }
}

/// Evaluates a configuration over a task list, `samples_per_task` samples
/// each (seeded deterministically). Equivalent to
/// [`evaluate_parallel`] with one thread.
pub fn evaluate(
    llm: &CodeLlm,
    tasks: &[Task],
    config: &GenConfig,
    samples_per_task: usize,
    seed: u64,
) -> EvalOutcome {
    evaluate_parallel(llm, tasks, config, samples_per_task, seed, 1)
}

/// Parallel task×sample evaluation driver: grades tasks on up to `threads`
/// workers. Per-sample seeds and the fold order depend only on the inputs,
/// so the outcome is bit-identical to the serial [`evaluate`] for every
/// thread count. Each sample's candidate/reference simulation pair routes
/// through the batch execution API; see the module docs for when that
/// amortizes pool spin-up.
pub fn evaluate_parallel(
    llm: &CodeLlm,
    tasks: &[Task],
    config: &GenConfig,
    samples_per_task: usize,
    seed: u64,
    threads: usize,
) -> EvalOutcome {
    let threads = threads.max(1).min(tasks.len().max(1));
    if threads <= 1 {
        // A single eval worker may use the host's full width inside the
        // simulator; parallel eval workers grade single-threaded so the
        // pools do not nest multiplicatively.
        let sim_threads = qsim::exec::recommended_threads();
        let evals = tasks
            .iter()
            .enumerate()
            .map(|(t_idx, task)| {
                evaluate_task(
                    llm,
                    task,
                    t_idx,
                    config,
                    samples_per_task,
                    seed,
                    sim_threads,
                )
            })
            .collect();
        return fold_outcome(config.label, evals);
    }
    let slots: Vec<Mutex<Option<TaskEval>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let t_idx = next.fetch_add(1, Ordering::Relaxed);
                if t_idx >= tasks.len() {
                    break;
                }
                let eval =
                    evaluate_task(llm, &tasks[t_idx], t_idx, config, samples_per_task, seed, 1);
                *slots[t_idx].lock().expect("task slot poisoned") = Some(eval);
            });
        }
    });
    let evals = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("task slot poisoned")
                .expect("every task index was claimed by a worker")
        })
        .collect();
    fold_outcome(config.label, evals)
}

/// Renders outcomes as a markdown table (the Figure 3 artifact).
pub fn render_markdown(rows: &[EvalOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| technique | pass rate | syntactic | basic | intermediate | advanced |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
            r.label,
            100.0 * r.pass_rate(),
            100.0 * r.syntactic_rate(),
            100.0 * r.rate_for(Difficulty::Basic),
            100.0 * r.rate_for(Difficulty::Intermediate),
            100.0 * r.rate_for(Difficulty::Advanced),
        );
    }
    out
}

/// Renders outcomes as CSV.
pub fn render_csv(rows: &[EvalOutcome]) -> String {
    let mut out = String::from("technique,pass_rate,syntactic_rate,basic,intermediate,advanced\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.label,
            r.pass_rate(),
            r.syntactic_rate(),
            r.rate_for(Difficulty::Basic),
            r.rate_for(Difficulty::Intermediate),
            r.rate_for(Difficulty::Advanced),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::test_suite;

    #[test]
    fn evaluate_is_deterministic() {
        let llm = CodeLlm::new();
        let tasks: Vec<Task> = test_suite().into_iter().take(5).collect();
        let a = evaluate(&llm, &tasks, &GenConfig::fine_tuned(), 3, 42);
        let b = evaluate(&llm, &tasks, &GenConfig::fine_tuned(), 3, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn counts_are_consistent() {
        let llm = CodeLlm::new();
        let tasks: Vec<Task> = test_suite().into_iter().take(8).collect();
        let outcome = evaluate(&llm, &tasks, &GenConfig::with_scot(), 4, 1);
        assert_eq!(outcome.samples, 32);
        assert!(outcome.passed <= outcome.syntactic_ok);
        assert!(outcome.syntactic_ok <= outcome.samples);
        let sum: usize = outcome.per_difficulty.values().map(|&(_, t)| t).sum();
        assert_eq!(sum, outcome.samples);
        let task_sum: usize = outcome.per_task.iter().map(|&(_, c)| c).sum();
        assert_eq!(task_sum, outcome.passed);
    }

    #[test]
    fn parallel_evaluation_matches_serial_bit_for_bit() {
        let llm = CodeLlm::new();
        let tasks: Vec<Task> = test_suite().into_iter().take(6).collect();
        let serial = evaluate(&llm, &tasks, &GenConfig::fine_tuned(), 2, 11);
        for threads in [2usize, 4, 16] {
            let parallel =
                evaluate_parallel(&llm, &tasks, &GenConfig::fine_tuned(), 2, 11, threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn partition_ranges_covers_exactly_once() {
        for (len, size) in [(0usize, 3usize), (1, 1), (5, 2), (34, 7), (8, 100), (6, 0)] {
            let ranges = partition_ranges(len, size);
            let mut expect = 0usize;
            for &(start, end) in &ranges {
                assert_eq!(start, expect, "len={len} size={size}");
                assert!(end > start && end - start <= size.max(1));
                expect = end;
            }
            assert_eq!(expect, len, "len={len} size={size}");
        }
    }

    #[test]
    fn range_merge_matches_serial_for_any_split() {
        let llm = CodeLlm::new();
        let tasks: Vec<Task> = test_suite().into_iter().take(7).collect();
        let config = GenConfig::fine_tuned();
        let serial = evaluate(&llm, &tasks, &config, 2, 23);
        // Range size 1 (maximal sharding), an uneven mid split, and one
        // range covering everything all fold to the identical outcome.
        for size in [1usize, 3, 7] {
            let rows: Vec<TaskEval> = partition_ranges(tasks.len(), size)
                .into_iter()
                .flat_map(|(start, end)| {
                    evaluate_range(&llm, &tasks, &config, 2, 23, start, end, 1)
                })
                .collect();
            assert_eq!(fold_outcome(config.label, rows), serial, "size={size}");
        }
    }

    #[test]
    fn markdown_and_csv_render() {
        let llm = CodeLlm::new();
        let tasks: Vec<Task> = test_suite().into_iter().take(3).collect();
        let rows = vec![evaluate(&llm, &tasks, &GenConfig::base(), 2, 7)];
        let md = render_markdown(&rows);
        assert!(md.contains("| base |"));
        let csv = render_csv(&rows);
        assert!(csv.lines().count() == 2);
    }
}
