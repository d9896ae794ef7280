//! `qec_memory`: a circuit-level surface-code memory ladder. Each ladder
//! point is one `qec::memory::circuit_level_experiment_threaded` call on
//! the tableau backend with greedy space-time decoding and `nproc`
//! simulator threads; each op is one shot. Points cycle through the
//! physical-rate ladder, each with a seed derived from `--seed`.

use crate::fold::{self, Tracer};
use crate::util::{derive, timed_setup, usage, Check, Measured, Report, Rng};
use crate::Ctx;
use qec::decoder::{Decoder, DecodingGraph, GreedyMatchingDecoder};
use qec::memory::circuit_level_experiment_threaded;
use qec::surface::SurfaceCode;
use qsim::backend::BackendChoice;
use qsim::exec::ExecutorConfig;
use qsim::noise::NoiseModel;
use std::time::Instant;

const DISTANCE: usize = 5;
const ROUNDS: usize = 2;
/// Shots per point: two of the executor's 1,024-shot chunks, so every
/// point spans at least `nproc` chunks on a 2-thread host.
const TRIALS: u64 = 2048;
/// Two-qubit depolarizing rates of the ladder, lowest first.
const LADDER: [f64; 4] = [0.0005, 0.001, 0.0015, 0.002];
/// Latency is per ladder point; p80 keeps ten or more of the ~64 points a
/// 20-second run drives beyond it.
const TAIL: f64 = 0.80;
const SETUP_REPS: usize = 21;
/// Ladder points the traced run drives, per second of `--seconds`.
const TRACED_POINTS_PER_SECOND: f64 = 1.0;

/// The `n`-th point of a run: its rate and seed.
fn point(seed: u64, n: usize) -> (f64, u64) {
    (LADDER[n % LADDER.len()], derive(seed, n as u64))
}

/// The ladder's inputs: one noise model per rate and the memory circuit,
/// built as a user would before running the ladder.
fn setup() -> Vec<NoiseModel> {
    std::hint::black_box(SurfaceCode::new(DISTANCE).memory_circuit(ROUNDS));
    LADDER
        .iter()
        .map(|&p| NoiseModel::uniform_depolarizing(p))
        .collect()
}

pub fn run(ctx: &Ctx) -> Report {
    let (setup_s, noises) = timed_setup(SETUP_REPS, setup);
    if ctx.trace.is_some() {
        return traced(ctx, &noises);
    }
    let mut results = Vec::new();
    let mut latencies_ms = Vec::new();
    let cpu0 = usage().cpu_s;
    let start = Instant::now();
    for n in 0.. {
        let (_, seed) = point(ctx.seed, n);
        let noise = &noises[n % LADDER.len()];
        let t = Instant::now();
        let result =
            circuit_level_experiment_threaded(DISTANCE, noise, ROUNDS, TRIALS, seed, ctx.nproc);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        results.push(result);
        if ctx.expired(start) {
            break;
        }
    }
    let measured = Measured {
        setup_s,
        ops: results.len() as u64 * TRIALS,
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
    let failed_points = results.iter().filter(|r| r.is_err()).count();
    report.failed += failed_points as u64 * TRIALS;
    report.check(Check::new(
        "qec_memory.points_ran",
        failed_points == 0,
        format!("{} points, {failed_points} errors", results.len()),
    ));
    let p_logical: Vec<f64> = results
        .iter()
        .map(|r| r.as_ref().map_or(f64::NAN, |r| r.p_logical))
        .collect();
    check_points(ctx, &noises, &p_logical, &mut report);
    report
}

fn check_points(ctx: &Ctx, noises: &[NoiseModel], p_logical: &[f64], report: &mut Report) {
    let mut rng = Rng::new(ctx.seed ^ 0x3E30);
    let n = rng.below(p_logical.len());
    let (p, seed) = point(ctx.seed, n);
    let single = circuit_level_experiment_threaded(
        DISTANCE,
        &noises[n % LADDER.len()],
        ROUNDS,
        TRIALS,
        seed,
        1,
    )
    .map_or(f64::NAN, |r| r.p_logical);
    let same = single == p_logical[n];
    report.failed += !same as u64 * TRIALS;
    report.check(Check::new(
        "qec_memory.threads_1_matches",
        same,
        format!(
            "point #{n} p={p}: p_logical {} vs {single} on one thread",
            p_logical[n]
        ),
    ));
    for (i, rate) in LADDER.iter().enumerate() {
        let points: Vec<f64> = p_logical
            .iter()
            .skip(i)
            .step_by(LADDER.len())
            .copied()
            .collect();
        let mean = points.iter().sum::<f64>() / points.len().max(1) as f64;
        report.notes.push(format!(
            "tally p_physical {rate} points {} mean p_logical {mean:.6}",
            points.len()
        ));
        if i == 0 {
            report.check(Check::new(
                "qec_memory.below_threshold_at_lowest_point",
                mean < *rate,
                format!("mean p_logical {mean:.6} < p_physical {rate}"),
            ));
        }
    }
}

/// `circuit_level_experiment_threaded` through the same public calls,
/// with spans around the ladder point and its decoding.
fn traced_point(noise: &NoiseModel, seed: u64, threads: usize, tracer: &mut Tracer) -> f64 {
    tracer.span("qec", "point", |tr| {
        let code = SurfaceCode::new(DISTANCE);
        let mem = code.memory_circuit(ROUNDS);
        let Ok(counts) = ExecutorConfig::new()
            .noise(noise.clone())
            .backend(BackendChoice::Tableau)
            .threads(threads)
            .build()
            .try_run(&mem.circuit, TRIALS, seed)
        else {
            return f64::NAN;
        };
        let failures = tr.span("qec", "decode", |_| {
            let decoder = GreedyMatchingDecoder::new(DecodingGraph::spacetime_x(&code, ROUNDS + 1));
            let mut failures = 0u64;
            for (word, count) in counts.iter() {
                let correction = decoder.decode(&mem.detection_events(&code, word));
                let mut residual = mem.data_readout(word);
                correction.apply(&mut residual);
                if code.is_logical_x_flip(&residual) {
                    failures += count;
                }
            }
            failures
        });
        failures as f64 / counts.shots().max(1) as f64
    })
}

fn traced(ctx: &Ctx, noises: &[NoiseModel]) -> Report {
    let trace = ctx.trace.as_ref().expect("traced run");
    let points = (ctx.seconds * TRACED_POINTS_PER_SECOND).ceil() as usize;
    let shots = points as u64 * TRIALS;
    let mut report = Report {
        attempted: shots,
        ..Report::default()
    };
    let mut tracer = Tracer::new(trace.epoch, true);
    let (_, mismatched, mut traced) = fold::two_passes(
        trace,
        &mut report,
        || {
            (0..points)
                .map(|n| {
                    let noise = &noises[n % LADDER.len()];
                    traced_point(noise, point(ctx.seed, n).1, ctx.nproc, &mut tracer)
                })
                .collect::<Vec<f64>>()
        },
        |traced_p| {
            fold::cold_plan_cache();
            let mut mismatched = 0u64;
            for (n, p) in traced_p.iter().enumerate() {
                let noise = &noises[n % LADDER.len()];
                let seed = point(ctx.seed, n).1;
                let untraced = circuit_level_experiment_threaded(
                    DISTANCE, noise, ROUNDS, TRIALS, seed, ctx.nproc,
                )
                .map_or(f64::NAN, |r| r.p_logical);
                mismatched += (untraced != *p) as u64;
            }
            mismatched
        },
    );
    traced.set_spans(trace, &mut report, tracer.into_spans());
    report.failed = mismatched * TRIALS;
    report.check(Check::new(
        "qec_memory.traced_points_match_untraced",
        mismatched == 0,
        format!("{points} points, {mismatched} differ"),
    ));
    let selfs = fold::self_times(&traced.spans, &traced.program);
    report.metric(
        "qec.decode_ms",
        fold::named_us(&traced.spans, "decode") / 1e3,
        "ms",
        points as u64,
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
