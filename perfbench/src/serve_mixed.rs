//! `serve_mixed`: an open loop at a fixed rate into an in-process
//! `qugen_serve::Server` with its default configuration, every request and
//! reply crossing the wire codec through `Server::handle_line`.
//!
//! Traffic, all seeded: generations of suite tasks that pass `qcir` check
//! (fresh seeds, so each executes), exact repeats of jobs run while
//! warming up (result-cache hits), and a small share of 16-20 qubit
//! general brickwork circuits. Jobs are due at `i / RATE` seconds; the
//! sender (this thread) submits each when due and a collector thread polls
//! every outstanding job without waiting, so no job's completion waits on
//! an earlier, slower one. Latency runs from the time a job was due.

use crate::fold::{self, ProgSpan, Tracer};
use crate::util::{derive, median, percentile, timed_setup, usage, Check, Measured, Report, Rng};
use crate::Ctx;
use qcir::circuit::Circuit;
use qeval::suite::test_suite;
use qlm::model::{CodeLlm, GenConfig};
use qsim::exec::Executor;
use qsim::job::JobSpec;
use qugen_serve::proto::counts_to_json;
use qugen_serve::{Server, ServerConfig};
use qugen_wire::Json;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, jobs per second.
const RATE: f64 = 200.0;
/// A job finishing later than this after it was due misses its target.
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Latency tail: the highest percentile with ten jobs beyond it at 4,000
/// jobs. Those are the eight 20-qubit brickwork jobs and two 19-qubit
/// ones, so the tail reads the third-slowest 19-qubit job.
const TAIL: f64 = 0.9975;
/// Share of jobs that repeat a warmed job exactly: the measured share of
/// exact repeats among the programs one SCoT grid cell submits for grading
/// (mean 0.373 over 32 cells; `src/bin/serve_traffic.rs` measures it).
const REPEAT_SHARE: f64 = 0.37;
/// Share of jobs that are brickwork circuits. An assumption, not a
/// measurement: no suite program reaches 16 qubits (the widest reference
/// has 7), so no traffic in the repository gives this share. It is kept
/// small; its purpose is to put dense-kernel and plan-layer work in the
/// latency tail.
const BRICK_SHARE: f64 = 0.01;
/// Brickwork widths, used in turn.
const BRICK_QUBITS: [usize; 5] = [16, 17, 18, 19, 20];
const BRICK_DEPTH: usize = 10;
/// Brickwork shots. Drawing 1,024 samples from a 20-qubit state costs about
/// six times evolving it, so brickwork jobs ask for fewer shots.
const BRICK_SHOTS: u64 = 256;
/// Generated programs, one per suite task.
const POOL: usize = 34;
/// Warmed jobs per program, which repeats draw from. Every program gets
/// the same number, so the warm-up's cost does not depend on which
/// programs a seed happens to pick.
const WARM_PER_PROGRAM: usize = 2;
const SHOTS: u64 = 4096;
const SETUP_REPS: usize = 15;
/// Jobs whose counts are re-run locally by the output check.
const CHECKED_JOBS: usize = 8;
/// Jobs the traced run offers, per second of `--seconds`.
const TRACED_JOBS_PER_SECOND: f64 = 50.0;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// The collector naps 50 µs between sweeps; at Linux's default 50 µs
/// timer slack each nap would overshoot by about as much again.
const PR_SET_TIMERSLACK: i32 = 29;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Fresh,
    Repeat,
    Brick,
}

/// One offered job.
struct Job {
    kind: Kind,
    /// Index into the program list (`pool` then brickwork circuits).
    program: usize,
    seed: u64,
}

/// A program the traffic submits: its source text, lowered circuit and
/// the shots its jobs ask for.
struct Program {
    source: String,
    circuit: Circuit,
    shots: u64,
}

fn lower(source: &str) -> Option<Circuit> {
    let program = qcir::dsl::parse(source).ok()?;
    qcir::check::check(&program, &qcir::api::ApiRegistry::standard()).circuit
}

/// One generated program per suite task, the first of its seeded
/// generations that passes check, then one brickwork circuit per width.
fn programs(seed: u64) -> Vec<Program> {
    let llm = CodeLlm::new();
    let config = GenConfig::with_scot();
    let mut rng = Rng::new(seed ^ 0x9E0);
    let mut out: Vec<Program> = test_suite()
        .iter()
        .map(|task| {
            (0..1000)
                .find_map(|_| {
                    let source = llm.generate(&task.spec, &config, rng.next_u64()).source;
                    lower(&source).map(|circuit| Program {
                        source,
                        circuit,
                        shots: SHOTS,
                    })
                })
                .expect("some generation of every task passes check")
        })
        .collect();
    assert_eq!(out.len(), POOL, "one program per suite task");
    for &n in &BRICK_QUBITS {
        let mut c = Circuit::new(n, n);
        for layer in 0..BRICK_DEPTH {
            for q in 0..n {
                c.rx(6.0 * rng.unit() - 3.0, q)
                    .rz(6.0 * rng.unit() - 3.0, q);
            }
            for q in ((layer % 2)..n - 1).step_by(2) {
                c.cx(q, q + 1);
            }
        }
        c.measure_all();
        let source = qcir::fmt::to_qasmlite(&c);
        let circuit = lower(&source).expect("rendered brickwork lowers");
        out.push(Program {
            source,
            circuit,
            shots: BRICK_SHOTS,
        });
    }
    out
}

/// The warmed jobs `(program, seed)` that repeats draw from.
fn warm_jobs(seed: u64) -> Vec<(usize, u64)> {
    let mut rng = Rng::new(seed ^ 0x3A3);
    (0..POOL * WARM_PER_PROGRAM)
        .map(|i| (i % POOL, rng.next_u64()))
        .collect()
}

/// The offered jobs, in send order. Brickwork jobs are evenly spaced, so
/// one finishes before the next is due and the latency tail measures
/// their service time rather than how often two happen to overlap. That
/// spacing is chosen for a steady tail, not observed in any traffic. The
/// rest is an exact share of repeats shuffled among fresh jobs.
fn schedule(seed: u64, count: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x5C4);
    let warm = warm_jobs(seed);
    let spacing = (1.0 / BRICK_SHARE).round() as usize;
    let offset = rng.below(spacing);
    let is_brick = |i: usize| i % spacing == offset;
    let repeats = (count as f64 * REPEAT_SHARE).round() as usize;
    let mut others: Vec<Kind> = std::iter::repeat_n(Kind::Repeat, repeats)
        .chain(std::iter::repeat(Kind::Fresh))
        .take((0..count).filter(|&i| !is_brick(i)).count())
        .collect();
    for i in (1..others.len()).rev() {
        others.swap(i, rng.below(i + 1));
    }
    let mut others = others.into_iter();
    let kinds: Vec<Kind> = (0..count)
        .map(|i| {
            if is_brick(i) {
                Kind::Brick
            } else {
                others.next().expect("one kind per non-brick job")
            }
        })
        .collect();
    let mut brick = 0;
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            Kind::Fresh => Job {
                kind,
                program: rng.below(POOL),
                seed: derive(seed, i as u64),
            },
            Kind::Repeat => {
                let (program, seed) = warm[rng.below(warm.len())];
                Job {
                    kind,
                    program,
                    seed,
                }
            }
            Kind::Brick => {
                brick += 1;
                Job {
                    kind,
                    program: POOL + (brick - 1) % BRICK_QUBITS.len(),
                    seed: derive(seed, i as u64),
                }
            }
        })
        .collect()
}

fn submit_line(program: &Program, seed: u64) -> String {
    format!(
        "{{\"op\":\"submit\",\"source\":{},\"shots\":{},\"seed\":{seed}}}",
        Json::Str(program.source.clone()).encode(),
        program.shots
    )
}

/// Submits every job, then waits for each; returns their counts, encoded.
fn run_all(server: &Server, jobs: &[(&Program, u64)]) -> Vec<String> {
    let ids: Vec<u64> = jobs
        .iter()
        .map(|(program, seed)| {
            let reply = Json::parse(&server.handle_line(&submit_line(program, *seed)))
                .expect("submit reply parses");
            reply
                .get("job")
                .and_then(Json::as_u64)
                .expect("warm-up job accepted")
        })
        .collect();
    ids.iter()
        .map(|id| {
            let result =
                server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"));
            Json::parse(&result)
                .expect("result reply parses")
                .get("counts")
                .expect("warm-up job finished")
                .encode()
        })
        .collect()
}

/// A server with warm plan and result caches, as a long-lived one has.
struct Setup {
    programs: Vec<Program>,
    server: Server,
    /// Counts of each warmed job, by `(program, seed)`.
    warm_counts: BTreeMap<(usize, u64), String>,
}

fn setup(seed: u64) -> Setup {
    let programs = programs(seed);
    let server = Server::new(ServerConfig::default());
    let warm = warm_jobs(seed);
    let jobs: Vec<(&Program, u64)> = programs[..POOL]
        .iter()
        .enumerate()
        .map(|(i, program)| (program, derive(seed ^ 0x77, i as u64)))
        .chain(
            warm.iter()
                .map(|&(program, seed)| (&programs[program], seed)),
        )
        .collect();
    let counts = run_all(&server, &jobs);
    let warm_counts = warm
        .into_iter()
        .zip(counts.into_iter().skip(POOL))
        .collect();
    // Brickwork plans compile into the process-wide plan cache the
    // server's executor shares, without paying for their execution.
    let exec = Executor::new(ServerConfig::default().executor);
    for program in &programs[POOL..] {
        exec.plan_for(&program.circuit);
    }
    Setup {
        programs,
        server,
        warm_counts,
    }
}

/// What happened to one offered job.
#[derive(Default, Clone)]
struct Outcome {
    /// The error code of a submit the server did not accept.
    rejected: Option<String>,
    failed: bool,
    cached: bool,
    latency_ms: f64,
    /// Encoded counts of the result reply.
    counts: String,
    /// Request and reply bytes on the wire (submit and final result).
    wire_bytes: usize,
}

/// Harness-side observations of one open-loop pass.
struct Pass {
    outcomes: Vec<Outcome>,
    wall_s: f64,
    lags_ms: Vec<f64>,
    queue_depth_max: i64,
    busy_workers: Vec<f64>,
    spans: Vec<Vec<fold::SpanRec>>,
    request_lines: Vec<String>,
    reply_lines: Vec<String>,
}

/// Offers `jobs` at `RATE` and collects every outcome.
fn open_loop(
    server: &Server,
    programs: &[Program],
    jobs: &[Job],
    tracer_on: bool,
    epoch: Instant,
) -> Pass {
    let (tx, rx) = mpsc::channel::<(usize, u64, Instant, Option<Instant>)>();
    let start = Instant::now() + Duration::from_millis(5);
    let depth_gauge = qugen_telemetry::metrics::gauge("serve.queue_depth");
    let busy_gauge = qugen_telemetry::metrics::gauge("serve.busy_workers");
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            // SAFETY: PR_SET_TIMERSLACK takes one integer argument and
            // changes only this thread's timer slack.
            unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
            let mut tracer = Tracer::new(epoch, tracer_on);
            let mut outcomes = vec![Outcome::default(); jobs.len()];
            let mut outstanding: Vec<(usize, u64, Instant, Option<Instant>)> = Vec::new();
            let mut open = true;
            let (mut depth_max, mut busy) = (0i64, Vec::new());
            let mut reply_lines = Vec::new();
            let mut last_done = start;
            while open || !outstanding.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(job) => outstanding.push(job),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                depth_max = depth_max.max(depth_gauge.get());
                busy.push(busy_gauge.get() as f64);
                let mut progressed = false;
                outstanding.retain(|&(i, id, due, done_at)| {
                    let line = format!("{{\"op\":\"result\",\"job\":{id}}}");
                    let reply = tracer.span("serve", "poll", |_| server.handle_line(&line));
                    let now = Instant::now();
                    let json = tracer.span("wire", "parse", |_| Json::parse(&reply));
                    let json = json.expect("result reply parses");
                    let status = json
                        .get("status")
                        .and_then(Json::as_str)
                        .unwrap_or("failed");
                    if status != "done" && status != "failed" {
                        return true;
                    }
                    progressed = true;
                    let finished = done_at.unwrap_or(now);
                    last_done = last_done.max(finished);
                    let o = &mut outcomes[i];
                    o.failed = status == "failed";
                    o.cached = json.get("cached").and_then(Json::as_bool).unwrap_or(false);
                    o.latency_ms = finished.saturating_duration_since(due).as_secs_f64() * 1e3;
                    o.counts = json.get("counts").map(Json::encode).unwrap_or_default();
                    o.wire_bytes += line.len() + reply.len();
                    reply_lines.push(reply);
                    false
                });
                if !progressed {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            (
                outcomes,
                tracer.into_spans(),
                depth_max,
                busy,
                reply_lines,
                last_done,
            )
        });

        let mut tracer = Tracer::new(epoch, tracer_on);
        let mut lags_ms = Vec::with_capacity(jobs.len());
        let mut sent = Vec::with_capacity(jobs.len());
        let mut request_lines = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / RATE);
            let now = Instant::now();
            if due > now + Duration::from_micros(300) {
                std::thread::sleep(due - now - Duration::from_micros(300));
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            lags_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            let line = submit_line(&programs[job.program], job.seed);
            let reply = tracer.span("serve", "submit", |_| server.handle_line(&line));
            let answered = Instant::now();
            let json = tracer
                .span("wire", "parse", |_| Json::parse(&reply))
                .expect("submit reply parses");
            let bytes = line.len() + reply.len();
            match json.get("job").and_then(Json::as_u64) {
                Some(id) => {
                    let cached = json.get("status").and_then(Json::as_str) == Some("done");
                    sent.push((i, Ok(bytes)));
                    tx.send((i, id, due, cached.then_some(answered)))
                        .expect("collector is running");
                }
                None => {
                    let code = json.get("error").and_then(Json::as_str).unwrap_or("none");
                    sent.push((i, Err(code.to_string())));
                }
            }
            request_lines.push(line);
        }
        drop(tx);
        let (mut outcomes, collector_spans, queue_depth_max, busy_workers, reply_lines, last_done) =
            collector.join().expect("collector panicked");
        for (i, sent) in sent {
            match sent {
                Ok(bytes) => outcomes[i].wire_bytes += bytes,
                Err(code) => outcomes[i].rejected = Some(code),
            }
        }
        Pass {
            outcomes,
            wall_s: last_done.duration_since(start).as_secs_f64(),
            lags_ms,
            queue_depth_max,
            busy_workers,
            spans: vec![tracer.into_spans(), collector_spans],
            request_lines,
            reply_lines,
        }
    })
}

pub fn run(ctx: &Ctx) -> Report {
    let (setup_s, setup) = timed_setup(SETUP_REPS, || setup(ctx.seed));
    if ctx.trace.is_some() {
        return traced(ctx, setup);
    }
    let count = (RATE * ctx.seconds).round() as usize;
    let jobs = schedule(ctx.seed, count);
    let cpu0 = usage().cpu_s;
    let pass = open_loop(&setup.server, &setup.programs, &jobs, false, Instant::now());
    let cpu_s = usage().cpu_s - cpu0;
    let done: Vec<&Outcome> = pass
        .outcomes
        .iter()
        .filter(|o| o.rejected.is_none() && !o.failed)
        .collect();
    let measured = Measured {
        setup_s,
        ops: done.len() as u64,
        wall_s: pass.wall_s,
        cpu_s,
        latencies_ms: done.iter().map(|o| o.latency_ms).collect(),
        tail: TAIL,
    };
    let mut report = Report {
        attempted: jobs.len() as u64,
        failed: pass.outcomes.iter().filter(|o| o.failed).count() as u64,
        ..Report::default()
    };
    measured.report(&mut report);
    report.metric(
        "slo_miss_ratio",
        slo_miss_ratio(&pass.outcomes),
        "ratio",
        count as u64,
    );
    report.notes.push(format!(
        "offered {count} jobs at {RATE} jobs/s; latency limit {LATENCY_LIMIT_MS} ms; generator lag p99 {:.3} ms",
        percentile(&pass.lags_ms, 0.99)
    ));
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (job, o) in jobs.iter().zip(&pass.outcomes) {
        let label = match job.kind {
            Kind::Fresh => "fresh".to_string(),
            Kind::Repeat => "repeat".to_string(),
            Kind::Brick => format!("brickwork {}q", BRICK_QUBITS[job.program - POOL]),
        };
        by_kind.entry(label).or_default().push(o.latency_ms);
    }
    for (label, lat) in by_kind {
        report.notes.push(format!(
            "latency {label}: {} jobs, p50 {:.3} ms, max {:.3} ms",
            lat.len(),
            median(&lat),
            percentile(&lat, 1.0)
        ));
    }
    check_outcomes(ctx, &setup, &jobs, &pass.outcomes, &mut report);
    report
}

fn slo_miss_ratio(outcomes: &[Outcome]) -> f64 {
    let missed = outcomes
        .iter()
        .filter(|o| o.rejected.is_some() || o.failed || o.latency_ms > LATENCY_LIMIT_MS)
        .count();
    fold::ratio(missed as f64, outcomes.len() as f64)
}

fn check_outcomes(
    ctx: &Ctx,
    setup: &Setup,
    jobs: &[Job],
    outcomes: &[Outcome],
    report: &mut Report,
) {
    let exec = Executor::new(ServerConfig::default().executor);
    let mut rng = Rng::new(ctx.seed ^ 0xC0C0);
    let mut mismatched = Vec::new();
    let smallest_brick = jobs
        .iter()
        .position(|j| j.kind == Kind::Brick && j.program == POOL);
    let sample = (0..CHECKED_JOBS)
        .map(|_| rng.below(jobs.len()))
        .chain(smallest_brick);
    for i in sample {
        let job = &jobs[i];
        let program = &setup.programs[job.program];
        let spec = JobSpec::new(program.circuit.clone(), program.shots, job.seed);
        let local = exec.try_run_job(&spec).map(|c| counts_to_json(&c).encode());
        if local.as_deref() != Ok(outcomes[i].counts.as_str()) {
            mismatched.push(i);
        }
    }
    report.check(Check::new(
        "serve_mixed.counts_match_local_executor",
        mismatched.is_empty(),
        format!(
            "{} jobs re-run locally, mismatched {mismatched:?}",
            CHECKED_JOBS + 1
        ),
    ));
    let mut cached = 0;
    let mut wrong = 0;
    for (job, o) in jobs.iter().zip(outcomes).filter(|(_, o)| o.cached) {
        cached += 1;
        let first = setup.warm_counts.get(&(job.program, job.seed));
        wrong += (first != Some(&o.counts)) as u64;
    }
    report.check(Check::new(
        "serve_mixed.cached_replies_equal_first_run",
        wrong == 0,
        format!("{cached} cached replies, {wrong} differ from their first execution"),
    ));
    let unfinished = outcomes
        .iter()
        .filter(|o| o.rejected.is_some() || o.failed)
        .count();
    report.check(Check::new(
        "serve_mixed.every_job_finished",
        unfinished == 0,
        format!("{unfinished} of {} refused or failed", outcomes.len()),
    ));
    report.failed += mismatched.len() as u64 + wrong;
}

fn traced(ctx: &Ctx, setup: Setup) -> Report {
    let trace = ctx.trace.as_ref().expect("traced run");
    let count = (ctx.seconds * TRACED_JOBS_PER_SECOND).round() as usize;
    let jobs = schedule(ctx.seed, count);
    // The untraced pass offers the same jobs to a second server warmed the
    // same way.
    let fresh = self::setup(ctx.seed);
    let mut report = Report {
        attempted: count as u64,
        ..Report::default()
    };
    let (mut pass, differ, mut traced) = fold::two_passes(
        trace,
        &mut report,
        || open_loop(&setup.server, &setup.programs, &jobs, true, trace.epoch),
        |pass| {
            let untraced = open_loop(&fresh.server, &fresh.programs, &jobs, false, Instant::now());
            let same = |(a, b): &(&Outcome, &Outcome)| a.counts == b.counts;
            pass.outcomes
                .iter()
                .zip(&untraced.outcomes)
                .filter(|p| !same(p))
                .count()
        },
    );
    traced.set_spans(
        trace,
        &mut report,
        fold::merge(std::mem::take(&mut pass.spans)),
    );
    report.failed = differ as u64;
    report.check(Check::new(
        "serve_mixed.traced_counts_match_untraced",
        differ == 0,
        format!("{count} jobs, {differ} differ"),
    ));
    // `serve/<op>` spans time the same `handle_line` calls the benchmark's
    // own serve spans enclose; they give the submit distribution only.
    let (serve_spans, program): (Vec<ProgSpan>, Vec<ProgSpan>) =
        std::mem::take(&mut traced.program)
            .into_iter()
            .partition(|p| p.layer == "serve");
    traced.program = program;
    let submit_us: Vec<f64> = serve_spans
        .iter()
        .filter(|p| p.name == "submit")
        .map(|p| p.dur_us)
        .collect();
    let mut selfs = fold::self_times(&traced.spans, &traced.program);

    // Work inside `handle_line` the trace cannot see: parse + check of
    // each submitted program, and the server's own request parse and
    // reply encode, timed on the same inputs.
    let t = Instant::now();
    for job in &jobs {
        std::hint::black_box(lower(&setup.programs[job.program].source));
    }
    let qcir_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    for line in pass.request_lines.iter().chain(&pass.reply_lines) {
        std::hint::black_box(Json::parse(line).map(|j| j.encode()).ok());
    }
    let wire_server_us = t.elapsed().as_secs_f64() * 1e6;
    *selfs.entry("serve".into()).or_default() -= qcir_us + wire_server_us;
    *selfs.entry("wire".into()).or_default() += wire_server_us;
    selfs.insert("qcir".into(), qcir_us);

    let n = jobs.len() as u64;
    report.metric("qcir.busy_ms", qcir_us / 1e3, "ms", n);
    let unlowered = pass
        .outcomes
        .iter()
        .filter(|o| matches!(o.rejected.as_deref(), Some("parse" | "check")))
        .count();
    report.metric(
        "qcir.lowered_ratio",
        fold::ratio((jobs.len() - unlowered) as f64, n as f64),
        "ratio",
        n,
    );
    traced.sim_metrics(&selfs, &mut report);
    report.metric(
        "serve.submit_us_p50",
        median(&submit_us),
        "us",
        submit_us.len() as u64,
    );
    let hits = traced.counter("serve.cache_hits");
    let lookups = hits + traced.counter("serve.cache_misses");
    report.metric(
        "serve.cache_hit_ratio",
        fold::ratio(hits, lookups),
        "ratio",
        lookups as u64,
    );
    let refused = pass
        .outcomes
        .iter()
        .filter(|o| o.rejected.as_deref() == Some("queue_full"))
        .count();
    report.metric("serve.refused", refused as f64, "count", n);
    report.metric(
        "serve.queue_depth_max",
        pass.queue_depth_max as f64,
        "count",
        pass.busy_workers.len() as u64,
    );
    let samples = pass.busy_workers.len() as u64;
    let busy_mean = pass.busy_workers.iter().sum::<f64>() / samples.max(1) as f64;
    report.metric("serve.busy_workers_mean", busy_mean, "count", samples);
    let bytes: usize = pass.outcomes.iter().map(|o| o.wire_bytes).sum();
    report.metric(
        "wire.bytes_per_op",
        fold::ratio(bytes as f64, n as f64),
        "bytes",
        n,
    );
    let parse_us: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.layer == "wire")
        .map(|s| s.dur_us())
        .collect();
    report.metric(
        "wire.parse_us_p50",
        median(&parse_us),
        "us",
        parse_us.len() as u64,
    );
    report.metric(
        "harness.generator_lag_ms",
        percentile(&pass.lags_ms, 0.99),
        "ms",
        n,
    );
    let latency_us: f64 = pass.outcomes.iter().map(|o| o.latency_ms * 1e3).sum();
    let submit_total: f64 = traced
        .spans
        .iter()
        .filter(|s| s.name == "submit")
        .map(|s| s.dur_us())
        .sum();
    let executed: f64 = traced
        .program
        .iter()
        .filter(|p| p.name == "job")
        .map(|p| p.dur_us)
        .sum();
    report.metric(
        "coverage_ratio",
        fold::ratio(submit_total + executed, latency_us),
        "ratio",
        n,
    );
    report.metric("slo_miss_ratio", slo_miss_ratio(&pass.outcomes), "ratio", n);
    report.notes.extend(fold::layer_table(&selfs, latency_us));
    report
}
