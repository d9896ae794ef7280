//! The traced run: in-memory spans around the benchmark's calls into each
//! layer, the program's own `QUGEN_TRACE` spans, and telemetry counter
//! diffs, folded into per-layer self time.
//!
//! A layer's self time is the total duration of its spans minus the time
//! of the spans placed under them. Benchmark spans know their parent. A
//! program span (`executor/*`) carries no thread or parent, so it is
//! placed under the innermost benchmark span that encloses it in time and
//! may call the simulator; one that no such span encloses (serve workers)
//! is a root. That placement is only sound when a single benchmark thread
//! calls the simulator, so its spans nest; [`Traced::set_spans`] checks it.

use crate::util::{usage, Check, Report};
use crate::TraceCtx;
use qugen_telemetry::metrics::{self, MetricValue};
use qugen_telemetry::trace::TraceEvent;
use qugen_wire::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One finished benchmark span, in microseconds since the run's epoch.
#[derive(Clone)]
pub struct SpanRec {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Whether program simulator spans may nest under this span.
    pub calls_sim: bool,
    /// Which recording thread's list the span came from; set by [`merge`].
    pub thread: usize,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A per-thread span recorder. With `on == false` it only runs the
/// closures, so one workload loop serves traced and untraced runs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span `layer/name`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(SpanRec {
            layer,
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            calls_sim: matches!(layer, "qeval" | "qagents" | "qec"),
            thread: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices and
/// tagging each span with its list's position.
pub fn merge(threads: Vec<Vec<SpanRec>>) -> Vec<SpanRec> {
    let mut all = Vec::new();
    for (thread, spans) in threads.into_iter().enumerate() {
        let base = all.len();
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.thread = thread;
            s
        }));
    }
    all
}

/// One span the program emitted through `QUGEN_TRACE`.
pub struct ProgSpan {
    pub layer: String,
    pub name: String,
    pub backend: Option<String>,
    /// Simulations the span covers: its `jobs` field on `executor/batch`,
    /// otherwise 1.
    pub runs: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Reads the program's spans that started inside `[from_us, to_us)`.
/// Trace timestamps count from the program's first trace call, which
/// `main` makes at the same instant as the benchmark's epoch.
fn read_program_spans(path: &str, from_us: f64, to_us: f64) -> Result<Vec<ProgSpan>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let json = Json::parse(line).map_err(|e| format!("trace line `{line}`: {e:?}"))?;
        let event = TraceEvent::from_json(&json)?;
        let Some(dur) = event.dur_us else { continue };
        let start = event.ts_us as f64;
        if start < from_us || start >= to_us {
            continue;
        }
        spans.push(ProgSpan {
            backend: event
                .labels
                .iter()
                .find(|(k, _)| k == "backend")
                .map(|(_, v)| v.clone()),
            runs: event
                .ints
                .iter()
                .find(|(k, _)| k == "jobs")
                .map_or(1, |(_, n)| *n as u64),
            layer: event.layer,
            name: event.name,
            start_us: start,
            dur_us: dur as f64,
        });
    }
    Ok(spans)
}

/// The layer bucket a program span's time belongs to.
pub fn program_bucket(span: &ProgSpan) -> String {
    match (span.layer.as_str(), span.name.as_str()) {
        ("executor", "job") => format!(
            "qsim.exec.{}",
            match span.backend.as_deref() {
                Some(b) if b.starts_with("mps") => "mps",
                Some(b) => b,
                None => "unknown",
            }
        ),
        ("executor", other) => format!("qsim.exec.{other}"),
        (layer, _) => layer.to_string(),
    }
}

/// For each program span, the benchmark span it is placed under: the
/// shortest simulator-calling span that encloses it in time, if any.
pub fn place(spans: &[SpanRec], program: &[ProgSpan]) -> Vec<Option<usize>> {
    let mut sim_parents: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].calls_sim).collect();
    sim_parents.sort_by(|&a, &b| spans[a].start_us.total_cmp(&spans[b].start_us));
    program
        .iter()
        .map(|p| {
            // Slack of 2 µs absorbs the rounding of program timestamps.
            let (start, end) = (p.start_us + 2.0, p.start_us + p.dur_us - 2.0);
            let before = sim_parents.partition_point(|&i| spans[i].start_us <= start);
            // The simulator-calling spans of one thread nest at most a few
            // deep, so the enclosing span is among the last few that
            // started before it.
            sim_parents[before.saturating_sub(64)..before]
                .iter()
                .copied()
                .filter(|&i| end <= spans[i].end_us)
                .min_by(|&a, &b| spans[a].dur_us().total_cmp(&spans[b].dur_us()))
        })
        .collect()
}

/// Self time per bucket, in microseconds. Benchmark spans bucket by
/// layer, program spans by [`program_bucket`].
pub fn self_times(spans: &[SpanRec], program: &[ProgSpan]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut take = |bucket: String, us: f64| *out.entry(bucket).or_default() += us;
    for s in spans {
        take(s.layer.to_string(), s.dur_us());
        if let Some(p) = s.parent {
            take(spans[p].layer.to_string(), -s.dur_us());
        }
    }
    for (p, parent) in program.iter().zip(place(spans, program)) {
        take(program_bucket(p), p.dur_us);
        if let Some(i) = parent {
            take(spans[i].layer.to_string(), -p.dur_us);
        }
    }
    out
}

/// Total duration of benchmark spans named `name`, in microseconds.
pub fn named_us(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_us)
        .sum()
}

/// Total duration of root benchmark spans, in microseconds.
pub fn root_us(spans: &[SpanRec]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(SpanRec::dur_us)
        .sum()
}

/// Counter readings of the process-wide telemetry registry.
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn now() -> Self {
        Counters(
            metrics::snapshot()
                .into_iter()
                .filter_map(|(name, value)| match value {
                    MetricValue::Counter(n) => Some((name, n)),
                    _ => None,
                })
                .collect(),
        )
    }

    /// Increments since `before`, by counter name.
    pub fn since(&self, before: &Counters) -> BTreeMap<&'static str, u64> {
        self.0
            .iter()
            .map(|(name, n)| (*name, n - before.0.get(name).copied().unwrap_or(0)))
            .collect()
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Where the traced run's numbers come from, per workload.
pub struct Traced {
    /// The benchmark's spans; the caller fills them in from its traced pass.
    pub spans: Vec<SpanRec>,
    pub program: Vec<ProgSpan>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Process CPU time of the traced pass and of the untraced pass over
    /// the same work. Tracing costs CPU; CPU time is also what other
    /// tenants of a shared host disturb least, and an open loop's wall
    /// time is fixed by its schedule.
    pub traced_cpu_s: f64,
    pub untraced_cpu_s: f64,
    /// Wall time of the traced pass, in microseconds.
    pub wall_us: f64,
}

/// Empties the process-wide plan cache (noiseless and noisy replay
/// plans), so the pass that follows starts as cold as the run's first.
pub fn cold_plan_cache() {
    let cache = qsim::plan::shared_cache();
    let mut cache = cache.lock().expect("plan cache poisoned");
    *cache = qsim::plan::PlanCache::new(cache.capacity());
}

/// Runs `traced` with the program's tracing on, turns tracing off, then
/// runs `untraced` over the same work. The traced pass goes first so its
/// caches start as cold as an untraced run's do; a workload that starts
/// cold empties the plan cache at the start of `untraced` with
/// [`cold_plan_cache`]. A failure to read the program's trace is recorded
/// as a failed check in `report`.
pub fn two_passes<A, B>(
    trace: &TraceCtx,
    report: &mut Report,
    traced: impl FnOnce() -> A,
    untraced: impl FnOnce(&A) -> B,
) -> (A, B, Traced) {
    let before = Counters::now();
    let from_us = trace.now_us();
    let cpu0 = usage().cpu_s;
    let a = traced();
    let traced_cpu_s = usage().cpu_s - cpu0;
    let to_us = trace.now_us();
    let counters = Counters::now().since(&before);
    qugen_telemetry::trace::disable();
    let cpu0 = usage().cpu_s;
    let b = untraced(&a);
    let untraced_cpu_s = usage().cpu_s - cpu0;
    let program = read_program_spans(&trace.path, from_us, to_us).unwrap_or_else(|e| {
        report.check(Check::new("trace.readable", false, e));
        Vec::new()
    });
    let phases = Traced {
        spans: Vec::new(),
        program,
        counters,
        traced_cpu_s,
        untraced_cpu_s,
        wall_us: to_us - from_us,
    };
    (a, b, phases)
}

impl Traced {
    /// Keeps the benchmark's spans for the fold and writes them out, one
    /// JSON object per line (times in nanoseconds since the run's epoch),
    /// next to the program's trace.
    pub fn set_spans(&mut self, trace: &TraceCtx, report: &mut Report, spans: Vec<SpanRec>) {
        let simulating: BTreeSet<usize> = spans
            .iter()
            .filter(|s| s.calls_sim)
            .map(|s| s.thread)
            .collect();
        if simulating.len() > 1 {
            report.check(Check::new(
                "trace.one_simulating_thread",
                false,
                format!("{} threads call the simulator", simulating.len()),
            ));
        }
        let ns = |us: f64| Json::Int((us * 1e3).round() as i128);
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i128));
            let line = qugen_wire::obj([
                ("id", Json::Int(id as i128)),
                ("parent", parent),
                ("layer", Json::Str(s.layer.to_string())),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", ns(s.start_us)),
                ("end_ns", ns(s.end_us)),
            ]);
            text.push_str(&line.encode());
            text.push('\n');
        }
        let path = trace.path.replace(".trace.jsonl", ".spans.jsonl");
        if let Err(e) = std::fs::write(&path, text) {
            report.check(Check::new(
                "trace.spans_written",
                false,
                format!("{path}: {e}"),
            ));
        }
        self.spans = spans;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// The executor and plan-layer numbers every workload reports.
    pub fn sim_metrics(&self, selfs: &BTreeMap<String, f64>, report: &mut Report) {
        let ms = |bucket: &str| layer_ms(selfs, bucket);
        let jobs = self.counter("exec.jobs");
        for engine in ["dense", "tableau", "mps", "batch"] {
            let spans = self
                .program
                .iter()
                .filter(|p| program_bucket(p) == format!("qsim.exec.{engine}"))
                .count() as u64;
            report.metric(
                format!("qsim.exec.busy_ms.{engine}"),
                ms(&format!("qsim.exec.{engine}")),
                "ms",
                spans,
            );
        }
        let dists = self.counter("exec.distributions") as u64;
        report.metric(
            "qsim.exec.distribution_ms",
            ms("qsim.exec.distribution"),
            "ms",
            dists,
        );
        report.metric("qsim.exec.jobs", jobs, "count", 1);
        report.metric("qsim.exec.shots", self.counter("exec.shots"), "count", 1);
        report.metric(
            "qsim.exec.chunks_per_job",
            ratio(self.counter("exec.chunks"), jobs),
            "ratio",
            jobs as u64,
        );
        let hits = self.counter("plan.cache_hits");
        let lookups = hits + self.counter("plan.cache_misses");
        report.metric(
            "qsim.plan.hit_ratio",
            ratio(hits, lookups),
            "ratio",
            lookups as u64,
        );
        report.metric(
            "qsim.plan.compiles",
            self.counter("plan.compiles"),
            "count",
            1,
        );
        let gates = self.counter("plan.source_gates");
        report.metric(
            "qsim.plan.fusion_ratio",
            ratio(self.counter("plan.fused_unitaries"), gates),
            "ratio",
            gates as u64,
        );
        report.metric(
            "qsim.plan.fusion_declined",
            self.counter("plan.fusion_declined"),
            "count",
            1,
        );
        let (mut calls, mut avx2) = (0.0, 0.0);
        for (name, n) in &self.counters {
            if name.starts_with("kernels.") {
                calls += *n as f64;
                if name.ends_with("_avx2") {
                    avx2 += *n as f64;
                }
            }
        }
        report.metric("qsim.kernels.calls", calls, "count", 1);
        report.metric(
            "qsim.kernels.avx2_share",
            ratio(avx2, calls),
            "ratio",
            calls as u64,
        );
        report.metric(
            "telemetry.trace_overhead_ratio",
            self.traced_cpu_s / self.untraced_cpu_s - 1.0,
            "ratio",
            1,
        );
    }
}

/// Self time of `layer` in milliseconds.
pub fn layer_ms(selfs: &BTreeMap<String, f64>, layer: &str) -> f64 {
    selfs.get(layer).copied().unwrap_or(0.0) / 1e3
}

/// The per-layer self-time table, each layer's share of `denominator_us`.
pub fn layer_table(selfs: &BTreeMap<String, f64>, denominator_us: f64) -> Vec<String> {
    let mut lines = vec![format!("{:<28} {:>12} {:>8}", "layer", "self_ms", "share")];
    for (layer, us) in selfs {
        lines.push(format!(
            "{:<28} {:>12.3} {:>7.1}%",
            layer,
            us / 1e3,
            100.0 * ratio(*us, denominator_us)
        ));
    }
    lines
}
