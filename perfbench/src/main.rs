//! End-to-end and per-layer benchmark of the paper's four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval_grid|agent_qec|qec_memory|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload for `--seconds` with the
//! program's tracing off and reports the end-to-end metrics. With
//! `--trace 1` it runs a fixed amount of the same work traced, folds the
//! spans into per-layer numbers, then repeats that work untraced to check
//! the tallies agree and to price the tracing. Output checks run outside
//! the timed sections; any failed check makes the exit code 1. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod agent_qec;
mod eval_grid;
mod fold;
mod qec_memory;
mod serve_mixed;
mod util;

use std::collections::BTreeSet;
use std::time::Instant;
use util::Report;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a workload that does
/// not reach a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("qlm.busy_ms", "ms"),
    ("qlm.calls", "count"),
    ("qcir.busy_ms", "ms"),
    ("qcir.lowered_ratio", "ratio"),
    ("qeval.self_ms", "ms"),
    ("qeval.grades", "count"),
    ("qeval.sampled_grades", "count"),
    ("qeval.reference_sims", "count"),
    ("qeval.reference_distinct", "count"),
    ("qagents.self_ms", "ms"),
    ("qagents.passes_per_task", "ratio"),
    ("qagents.repair_rescue_ratio", "ratio"),
    ("qec.synthesize_ms", "ms"),
    ("qec.decode_ms", "ms"),
    ("qsim.exec.busy_ms.dense", "ms"),
    ("qsim.exec.busy_ms.tableau", "ms"),
    ("qsim.exec.busy_ms.mps", "ms"),
    ("qsim.exec.busy_ms.batch", "ms"),
    ("qsim.exec.distribution_ms", "ms"),
    ("qsim.exec.jobs", "count"),
    ("qsim.exec.shots", "count"),
    ("qsim.exec.chunks_per_job", "ratio"),
    ("qsim.plan.hit_ratio", "ratio"),
    ("qsim.plan.compiles", "count"),
    ("qsim.plan.fusion_ratio", "ratio"),
    ("qsim.plan.fusion_declined", "count"),
    ("qsim.kernels.calls", "count"),
    ("qsim.kernels.avx2_share", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.busy_workers_mean", "count"),
    ("wire.bytes_per_op", "bytes"),
    ("wire.parse_us_p50", "us"),
    ("coverage_ratio", "ratio"),
    ("telemetry.trace_overhead_ratio", "ratio"),
    ("harness.generator_lag_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("slo_miss_ratio", "ratio"),
];

/// Program settings read from the environment; cleared so every run sees
/// the defaults a user gets.
const PROGRAM_ENV: &[&str] = &[
    "QUGEN_TRACE",
    "QUGEN_TELEMETRY",
    "QUGEN_THREADS",
    "QUGEN_TRUNCATION_BUDGET",
    "QUGEN_PLAN_CACHE",
    "QUGEN_BACKEND",
];

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Set for `--trace 1`.
    pub trace: Option<TraceCtx>,
}

pub struct TraceCtx {
    /// The `QUGEN_TRACE` file the program writes its spans to.
    pub path: String,
    /// The instant the program's trace timestamps count from.
    pub epoch: Instant,
}

impl TraceCtx {
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

impl Ctx {
    /// Whether a run that started at `start` has used its time.
    pub fn expired(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
    let trace_path = args.trace.then(|| {
        let dir = "perfbench/out";
        std::fs::create_dir_all(dir).expect("create perfbench/out");
        let path = format!("{dir}/{}-{}.trace.jsonl", args.workload, args.seed);
        let _ = std::fs::remove_file(&path);
        std::env::set_var("QUGEN_TRACE", &path);
        path
    });
    // The program's trace clock starts at its first trace call; take the
    // benchmark's epoch right after it so both clocks agree.
    qugen_telemetry::trace::enabled();
    let epoch = Instant::now();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: util::nproc(),
        trace: trace_path.map(|path| TraceCtx { path, epoch }),
    };
    let mut report = match args.workload.as_str() {
        "eval_grid" => eval_grid::run(&ctx),
        "agent_qec" => agent_qec::run(&ctx),
        "qec_memory" => qec_memory::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("fail_ratio", fail_ratio, "ratio", report.attempted);
    let correct = emit(&report, if args.trace { PER_LAYER } else { END_TO_END });
    if !correct {
        std::process::exit(1);
    }
}

/// Prints the tallies, checks and metric table, then the result line.
/// Returns whether every check passed.
fn emit(report: &Report, wanted: &[(&str, &str)]) -> bool {
    for m in &report.metrics {
        let listed = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(name, _)| *name == m.name);
        match listed {
            Some((_, unit)) => assert_eq!(*unit, m.unit, "unit of `{}`", m.name),
            None => panic!("unlisted metric `{}`", m.name),
        }
    }
    for note in &report.notes {
        println!("{note}");
    }
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {:<44} {verdict} {}", c.name, c.detail);
    }
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let found = report.metrics.iter().find(|m| m.name == *name);
        let (value, samples) = found.map_or((0.0, 0), |m| (m.value, m.samples));
        let value = if value.is_finite() { value } else { 0.0 };
        let note = if found.is_none() {
            "  (layer not reached)"
        } else {
            ""
        };
        println!("metric {name:<32} {value:>16.6} {unit:<6} n={samples}{note}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let names: BTreeSet<&str> = wanted.iter().map(|(name, _)| *name).collect();
    for m in report
        .metrics
        .iter()
        .filter(|m| !names.contains(m.name.as_str()))
    {
        println!(
            "metric {:<32} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = report.checks.iter().all(|c| c.ok);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    correct
}
