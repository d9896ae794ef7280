//! Seeded input generation, process resource usage, order statistics and
//! the report every workload fills in.

use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so workload inputs
/// depend only on `--seed` and never on the library's PRNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for item `index` of a run seeded with `seed`.
pub fn derive(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The host's hardware threads: eval workers, server workers and
/// simulator pools are all sized from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process CPU time (user + system) and peak resident set size.
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals
/// followed by fourteen `long` fields, of which only `ru_maxrss` is read.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

pub fn usage() -> Usage {
    let mut raw = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the C layout
    // the kernel fills for RUSAGE_SELF; getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&raw.utime) + secs(&raw.stime),
        peak_rss_mb: raw.maxrss_kb as f64 / 1024.0,
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Runs `setup` at least `reps` times and for at least `SETUP_WINDOW_S`,
/// and returns the median wall time in seconds with the last result. A
/// set-up of a fraction of a millisecond is repeated many times, so its
/// median spans enough time that one burst of load on a shared host does
/// not decide it. Each previous result is dropped before the clock starts.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    const SETUP_WINDOW_S: f64 = 0.25;
    let first = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < reps || first.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// One output check, run outside the timed section.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// One reported number: name, value, unit and how many samples it
/// summarizes.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// What a run hands back to `main` for printing.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Extra lines (tallies, parameters) printed above the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn check(&mut self, check: Check) {
        self.checks.push(check);
    }
}

/// The measured section of an untraced run: wall time, CPU time and
/// per-unit latencies, from which the shared end-to-end metrics follow.
pub struct Measured {
    pub setup_s: f64,
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub latencies_ms: Vec<f64>,
    /// The fixed tail percentile of this workload.
    pub tail: f64,
}

impl Measured {
    /// Adds the end-to-end metrics every workload reports.
    pub fn report(&self, report: &mut Report) {
        let lat_n = self.latencies_ms.len() as u64;
        report.metric("setup_s", self.setup_s, "s", 1);
        report.metric(
            "throughput_ops_s",
            self.ops as f64 / self.wall_s,
            "1/s",
            self.ops,
        );
        report.metric("latency_p50_ms", median(&self.latencies_ms), "ms", lat_n);
        report.metric(
            "latency_tail_ms",
            percentile(&self.latencies_ms, self.tail),
            "ms",
            lat_n,
        );
        report.metric(
            "cpu_ms_per_op",
            1e3 * self.cpu_s / self.ops.max(1) as f64,
            "ms",
            self.ops,
        );
        report.metric("peak_rss_mb", usage().peak_rss_mb, "MB", 1);
        report.notes.push(format!(
            "latency_tail_ms is p{} of {} samples ({} beyond it); max {:.3} ms",
            100.0 * self.tail,
            lat_n,
            ((1.0 - self.tail) * lat_n as f64).floor(),
            percentile(&self.latencies_ms, 1.0)
        ));
    }
}
