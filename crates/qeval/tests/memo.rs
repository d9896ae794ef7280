//! The grader's sampled-result memo is exact: a grade served from the
//! memo equals one that re-ran its simulations, bit for bit, and a warm
//! sampled grade runs no simulator job. Each test empties or poisons the
//! process-wide plan cache, so the tests in this file run one at a time.

use qeval::grade::{grade_source, GradeDetail};
use qeval::suite::test_suite;
use qlm::model::{CodeLlm, GenConfig};
use qlm::spec::{TaskSpec, TeleportPrep};
use qlm::template::gold_source;
use qsim::lru::{lock, LruStats};
use qsim::plan::{shared_cache, PlanCache};
use qugen_telemetry::metrics;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Replaces the shared cache, emptying its plans and the result memo.
fn cold_cache() {
    let cache = shared_cache();
    let mut cache = lock(&cache);
    *cache = PlanCache::new(cache.capacity());
}

fn memo_stats() -> LruStats {
    lock(&shared_cache()).results().stats()
}

fn assert_identical(spec: &TaskSpec, source: &str, cold: &GradeDetail, warm: &GradeDetail) {
    assert_eq!(cold, warm, "{spec}:\n{source}");
    assert_eq!(
        cold.tvd.map(f64::to_bits),
        warm.tvd.map(f64::to_bits),
        "{spec}:\n{source}"
    );
}

fn teleport() -> TaskSpec {
    TaskSpec::Teleport {
        prep: TeleportPrep::Plus,
    }
}

#[test]
fn memoized_grades_equal_re_executed_grades_for_every_task() {
    let _serial = lock(&SERIAL);
    let llm = CodeLlm::new();
    let mut programs = Vec::new();
    for task in test_suite() {
        programs.push((task.spec.clone(), gold_source(&task.spec)));
        for seed in 0..3 {
            let corrupted = llm.generate(&task.spec, &GenConfig::base(), seed).source;
            programs.push((task.spec.clone(), corrupted));
        }
    }
    // Cold: every grade starts from an empty cache, so every sampled
    // grade simulates both of its circuits.
    let cold: Vec<GradeDetail> = programs
        .iter()
        .map(|(spec, source)| {
            cold_cache();
            grade_source(source, spec)
        })
        .collect();
    // Warm: the second grade of each program is served from the memo.
    for ((spec, source), cold) in programs.iter().zip(&cold) {
        grade_source(source, spec);
        let hits = memo_stats().hits;
        assert_identical(spec, source, cold, &grade_source(source, spec));
        let served = memo_stats().hits - hits;
        assert!(served == 0 || served == 2, "{spec}: {served} memo hits");
    }
    assert!(memo_stats().hits > 0, "the suite has sampled-path tasks");
}

#[test]
fn warm_sampled_regrade_runs_no_simulator_job() {
    let _serial = lock(&SERIAL);
    let spec = teleport();
    let source = gold_source(&spec);
    let jobs = metrics::counter("exec.jobs");
    cold_cache();
    let before = jobs.get();
    let cold = grade_source(&source, &spec);
    if metrics::enabled() {
        assert_eq!(
            jobs.get() - before,
            2,
            "a cold sampled grade runs both jobs"
        );
    }
    let before = jobs.get();
    let warm = grade_source(&source, &spec);
    assert_eq!(jobs.get(), before, "the warm re-grade ran a simulator job");
    assert_eq!(
        memo_stats(),
        LruStats {
            hits: 2,
            misses: 2,
            evictions: 0
        }
    );
    assert_identical(&spec, &source, &cold, &warm);
}

#[test]
fn a_panic_while_holding_the_shared_cache_does_not_break_grading() {
    let _serial = lock(&SERIAL);
    let cache = shared_cache();
    let poisoner = std::thread::spawn(move || {
        let _guard = cache.lock().unwrap();
        panic!("a job panics while holding the shared plan cache");
    });
    assert!(poisoner.join().is_err());
    assert!(shared_cache().is_poisoned());
    // Both grading paths: sampled (mid-circuit measurement) and exact.
    for spec in [teleport(), TaskSpec::BellPair] {
        let detail = grade_source(&gold_source(&spec), &spec);
        assert!(detail.passed(), "{spec}: tvd {:?}", detail.tvd);
    }
}
