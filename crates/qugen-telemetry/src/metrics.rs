//! The process-wide metrics registry: named atomic counters, gauges and
//! log2 latency histograms.
//!
//! Metrics are *interned*: the first [`counter`]/[`gauge`]/[`histogram`]
//! call for a name leaks one allocation and returns a `&'static` handle;
//! every later call for the same name returns the same handle. Call sites
//! on hot paths cache the handle (e.g. in a `OnceLock`-initialized struct)
//! so steady-state recording never touches the registry lock — it is one
//! relaxed atomic load (the [`enabled`] gate) plus relaxed `fetch_add`s.
//!
//! Histograms use 64 preallocated atomic buckets keyed by the value's bit
//! length (`bucket i` holds values of `i` significant bits, i.e. the
//! `[2^(i-1), 2^i)` range; bucket 0 holds zero; the top bucket absorbs
//! everything past `2^62`). Recording is allocation-free by construction —
//! the property the executor's counting-allocator tests pin.

use qugen_wire::Json;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Histogram bucket count: bit lengths 0 (zero) through 63 (≥ 2^62).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// `QUGEN_TELEMETRY` gate: 0 = uninitialized, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// `true` when metric recording is active. One relaxed atomic load on the
/// steady-state path; the first call reads `QUGEN_TELEMETRY` (anything
/// but `0`/`off`/`false` — including unset — means on).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let off = std::env::var("QUGEN_TELEMETRY")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "0" || v == "off" || v == "false"
        })
        .unwrap_or(false);
    STATE.store(if off { 1 } else { 2 }, Ordering::Relaxed);
    !off
}

/// Overrides the `QUGEN_TELEMETRY` gate in-process (benches compare
/// instrumented vs baseline with this; tests force a known state).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one (a relaxed `fetch_add` when [`enabled`], nothing when not).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, pool occupancy).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram (typically of microsecond latencies).
///
/// The bucket array is preallocated and recording is three relaxed
/// `fetch_add`s — no allocation, no lock, safe on zero-alloc hot paths.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket `value` lands in: its bit length (0 for zero), clamped to
/// the top bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// A fresh, unregistered histogram. Most callers want the interned
    /// [`histogram`] handle; standalone instances exist for tests and
    /// for call sites that aggregate before publishing.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of counts and buckets. Concurrent recording
    /// can make `count` and the bucket sum differ transiently by in-flight
    /// records; quiescent histograms always agree (property-tested).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A copied-out histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

/// One registered metric, as a snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(i64),
    /// A [`Histogram`] snapshot.
    Histogram(HistogramSnapshot),
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

/// Locks the registry whether or not a holder panicked: a type-mismatch
/// panic fires before any insert, and every insert is one whole entry,
/// so a poisoned registry is still consistent.
fn lock_registry() -> MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The counter registered under `name`, interning it on first use.
///
/// # Panics
///
/// When `name` is already registered as a different metric type.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut registry = lock_registry();
    match registry.entry(name) {
        Entry::Occupied(e) => match e.get() {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` is registered with a different type"),
        },
        Entry::Vacant(v) => {
            let c: &'static Counter = Box::leak(Box::new(Counter::new()));
            v.insert(Metric::Counter(c));
            c
        }
    }
}

/// The gauge registered under `name`, interning it on first use.
///
/// # Panics
///
/// When `name` is already registered as a different metric type.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut registry = lock_registry();
    match registry.entry(name) {
        Entry::Occupied(e) => match e.get() {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` is registered with a different type"),
        },
        Entry::Vacant(v) => {
            let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
            v.insert(Metric::Gauge(g));
            g
        }
    }
}

/// The histogram registered under `name`, interning it on first use.
///
/// # Panics
///
/// When `name` is already registered as a different metric type.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut registry = lock_registry();
    match registry.entry(name) {
        Entry::Occupied(e) => match e.get() {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` is registered with a different type"),
        },
        Entry::Vacant(v) => {
            let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
            v.insert(Metric::Histogram(h));
            h
        }
    }
}

/// Every registered metric with its current value, name-sorted.
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    let registry = lock_registry();
    registry
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            (*name, value)
        })
        .collect()
}

/// The full registry as an exact-integer JSON object: counters and gauges
/// as integers, histograms as `{"count", "sum", "buckets"}` (buckets
/// truncated after the last nonzero entry to keep snapshot lines small).
pub fn snapshot_json() -> Json {
    let map: BTreeMap<String, Json> = snapshot()
        .into_iter()
        .map(|(name, value)| {
            let json = match value {
                MetricValue::Counter(n) => Json::Int(n as i128),
                MetricValue::Gauge(v) => Json::Int(v as i128),
                MetricValue::Histogram(h) => {
                    let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                    qugen_wire::obj([
                        ("count", Json::Int(h.count as i128)),
                        ("sum", Json::Int(h.sum as i128)),
                        (
                            "buckets",
                            Json::Arr(
                                h.buckets[..last]
                                    .iter()
                                    .map(|&b| Json::Int(b as i128))
                                    .collect(),
                            ),
                        ),
                    ])
                }
            };
            (name.to_string(), json)
        })
        .collect();
    Json::Obj(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global [`enabled`] gate.
    fn state_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counters_gauges_and_histograms_intern_and_record() {
        let _guard = state_lock();
        set_enabled(true);
        let c = counter("test.metrics.counter");
        assert!(std::ptr::eq(c, counter("test.metrics.counter")));
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);

        let g = gauge("test.metrics.gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);

        let h = histogram("test.metrics.histogram");
        let count_before = h.count();
        h.record(0);
        h.record(1);
        h.record(1023);
        h.record(u64::MAX);
        assert_eq!(h.count(), count_before + 4);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert!(snap.buckets[bucket_index(1023)] >= 1);
    }

    #[test]
    fn bucket_index_is_bit_length_clamped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _guard = state_lock();
        set_enabled(true);
        let c = counter("test.metrics.disabled");
        let before = c.get();
        set_enabled(false);
        c.inc();
        assert_eq!(c.get(), before);
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn snapshot_json_renders_exact_integers() {
        let _guard = state_lock();
        set_enabled(true);
        counter("test.metrics.snapshot").add(3);
        let json = snapshot_json();
        let rendered = json.encode();
        let parsed = Json::parse(&rendered).expect("snapshot is valid JSON");
        assert!(parsed.get("test.metrics.snapshot").is_some());
    }
}
