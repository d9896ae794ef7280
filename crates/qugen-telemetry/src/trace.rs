//! Trace spans and events as line-delimited exact-integer JSON.
//!
//! Every emitted line is one canonical [`Json`] object (the
//! [`qugen-wire`](qugen_wire) codec conventions: sorted keys, integers
//! never rendered as floats), so traces from the serve daemon, shard
//! coordinator and shard workers interleave into one stream a line-based
//! consumer can parse unambiguously. The schema is [`TraceEvent`]:
//!
//! ```json
//! {"dur_us":1342,"layer":"executor","name":"job","pid":4242,
//!  "shots":1024,"backend":"dense","ts_us":88211,"type":"span"}
//! ```
//!
//! Reserved keys are `type` (`"span"` or `"event"`), `layer`, `name`,
//! `pid`, `ts_us` (microseconds since this process first initialized
//! tracing) and — for spans — `dur_us`. All other keys are caller fields:
//! integers via [`Span::int`] / [`event`], strings via [`Span::label`].
//!
//! # Disabled-path cost contract
//!
//! When tracing is off (no `QUGEN_TRACE`, or `QUGEN_TRACE=0`), [`span`]
//! and [`event`] cost **one relaxed atomic load** and return immediately:
//! no clock read, no allocation, no lock, no syscall. Instrumentation can
//! therefore sit on every job and request path permanently; only the
//! cold first call pays the environment lookup. Enabled spans allocate
//! while building their JSON line, which is why spans wrap *jobs and
//! requests*, never per-shot work — the shot loop stays zero-alloc with
//! tracing on because it contains no span at all.

use qugen_wire::Json;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// `QUGEN_TRACE` gate: 0 = uninitialized, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

enum Sink {
    Stderr,
    File(std::fs::File),
    Capture(Arc<Mutex<Vec<String>>>),
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Locks the sink whether or not a holder panicked: the sink is only ever
/// replaced whole, so a poisoned one is still consistent, and tracing
/// must never take down the process it observes.
fn lock_sink() -> MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The instant `ts_us` offsets are measured from (first trace init).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// `true` when tracing is active — **one relaxed atomic load** on the
/// steady-state path (the documented disabled-path cost). The first call
/// reads `QUGEN_TRACE`: unset, empty or `0` is off; `1` or `stderr`
/// emits to stderr; anything else is a file path opened for append.
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
    let target = std::env::var("QUGEN_TRACE").unwrap_or_default();
    let target = target.trim();
    let sink = match target {
        "" | "0" => None,
        "1" | "stderr" => Some(Sink::Stderr),
        path => match OpenOptions::new().create(true).append(true).open(path) {
            Ok(file) => Some(Sink::File(file)),
            Err(e) => {
                eprintln!("qugen-telemetry: cannot open QUGEN_TRACE file `{path}`: {e}");
                None
            }
        },
    };
    let on = sink.is_some();
    epoch();
    *lock_sink() = sink;
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Enables tracing into an in-memory buffer and returns it — the hook
/// tests use to assert on emitted lines without touching the process
/// environment. Replaces any previously active sink.
pub fn install_capture() -> Arc<Mutex<Vec<String>>> {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    epoch();
    *lock_sink() = Some(Sink::Capture(Arc::clone(&buffer)));
    STATE.store(2, Ordering::Relaxed);
    buffer
}

/// Disables tracing (tests restore a known state with this).
pub fn disable() {
    *lock_sink() = None;
    STATE.store(1, Ordering::Relaxed);
}

fn emit(line: &str) {
    let mut sink = lock_sink();
    match sink.as_mut() {
        // Write errors (a closed stderr) are dropped like the file arm's:
        // `eprintln!` would panic here with the sink locked.
        Some(Sink::Stderr) => {
            let _ = writeln!(std::io::stderr(), "{line}");
        }
        Some(Sink::File(file)) => {
            // One write per line: O_APPEND keeps lines whole even when
            // several processes (shard workers) share the file.
            let _ = writeln!(file, "{line}");
        }
        Some(Sink::Capture(buffer)) => buffer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line.to_string()),
        None => {}
    }
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// An in-flight span: emits one `"type":"span"` line with its wall-clock
/// duration when dropped (or [`finish`](Span::finish)ed). Construction
/// via [`span`] is inert when tracing is disabled — see the module docs
/// for the cost contract.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    active: Option<SpanData>,
}

struct SpanData {
    start: Instant,
    start_us: u64,
    layer: &'static str,
    name: &'static str,
    ints: Vec<(&'static str, i128)>,
    labels: Vec<(&'static str, &'static str)>,
}

/// Starts a span over `layer` (e.g. `"executor"`, `"serve"`, `"shard"`)
/// named `name`. Costs one relaxed atomic load when tracing is disabled.
#[inline]
pub fn span(layer: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    Span {
        active: Some(SpanData {
            start: Instant::now(),
            start_us: now_us(),
            layer,
            name,
            ints: Vec::new(),
            labels: Vec::new(),
        }),
    }
}

impl Span {
    /// Attaches an integer field (no-op on an inert span).
    pub fn int(mut self, key: &'static str, value: i128) -> Self {
        if let Some(data) = &mut self.active {
            data.ints.push((key, value));
        }
        self
    }

    /// Attaches a string field (no-op on an inert span).
    pub fn label(mut self, key: &'static str, value: &'static str) -> Self {
        if let Some(data) = &mut self.active {
            data.labels.push((key, value));
        }
        self
    }

    /// Ends the span now (otherwise `Drop` does).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.active.take() else {
            return;
        };
        let mut map = BTreeMap::new();
        map.insert("type".to_string(), Json::Str("span".to_string()));
        map.insert("layer".to_string(), Json::Str(data.layer.to_string()));
        map.insert("name".to_string(), Json::Str(data.name.to_string()));
        map.insert("pid".to_string(), Json::Int(std::process::id() as i128));
        map.insert("ts_us".to_string(), Json::Int(data.start_us as i128));
        map.insert(
            "dur_us".to_string(),
            Json::Int(data.start.elapsed().as_micros() as i128),
        );
        for (key, value) in &data.ints {
            map.insert(key.to_string(), Json::Int(*value));
        }
        for (key, value) in &data.labels {
            map.insert(key.to_string(), Json::Str(value.to_string()));
        }
        emit(&Json::Obj(map).encode());
    }
}

/// Emits one point event (`"type":"event"`) with integer fields. Costs
/// one relaxed atomic load when tracing is disabled.
#[inline]
pub fn event(layer: &'static str, name: &'static str, ints: &[(&'static str, i128)]) {
    if !enabled() {
        return;
    }
    let mut map = BTreeMap::new();
    map.insert("type".to_string(), Json::Str("event".to_string()));
    map.insert("layer".to_string(), Json::Str(layer.to_string()));
    map.insert("name".to_string(), Json::Str(name.to_string()));
    map.insert("pid".to_string(), Json::Int(std::process::id() as i128));
    map.insert("ts_us".to_string(), Json::Int(now_us() as i128));
    for (key, value) in ints {
        map.insert(key.to_string(), Json::Int(*value));
    }
    emit(&Json::Obj(map).encode());
}

/// The parsed shape of one trace line — the schema contract between the
/// emitters above and any consumer of a `QUGEN_TRACE` stream. Round-trips
/// through the [`qugen-wire`](qugen_wire) codec byte-for-byte (tested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// `true` for spans (which carry `dur_us`), `false` for point events.
    pub is_span: bool,
    /// Subsystem (`"executor"`, `"plan"`, `"serve"`, `"shard"`).
    pub layer: String,
    /// Event name within the layer.
    pub name: String,
    /// Emitting process id.
    pub pid: u32,
    /// Microseconds since the emitting process initialized tracing.
    pub ts_us: u64,
    /// Span wall-clock duration in microseconds (`None` for events).
    pub dur_us: Option<u64>,
    /// Caller integer fields, key-sorted.
    pub ints: Vec<(String, i128)>,
    /// Caller string fields, key-sorted.
    pub labels: Vec<(String, String)>,
}

impl TraceEvent {
    /// Renders the canonical JSON object for this event.
    pub fn to_json(&self) -> Json {
        let mut map = BTreeMap::new();
        map.insert(
            "type".to_string(),
            Json::Str(if self.is_span { "span" } else { "event" }.to_string()),
        );
        map.insert("layer".to_string(), Json::Str(self.layer.clone()));
        map.insert("name".to_string(), Json::Str(self.name.clone()));
        map.insert("pid".to_string(), Json::Int(self.pid as i128));
        map.insert("ts_us".to_string(), Json::Int(self.ts_us as i128));
        if let Some(dur) = self.dur_us {
            map.insert("dur_us".to_string(), Json::Int(dur as i128));
        }
        for (key, value) in &self.ints {
            map.insert(key.clone(), Json::Int(*value));
        }
        for (key, value) in &self.labels {
            map.insert(key.clone(), Json::Str(value.clone()));
        }
        Json::Obj(map)
    }

    /// Parses one trace line's JSON back into the typed event.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped reserved field.
    pub fn from_json(value: &Json) -> Result<TraceEvent, String> {
        let Json::Obj(map) = value else {
            return Err("trace event is not a JSON object".to_string());
        };
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing string field `type`")?;
        let is_span = match kind {
            "span" => true,
            "event" => false,
            other => return Err(format!("unknown trace event type `{other}`")),
        };
        let layer = value
            .get("layer")
            .and_then(Json::as_str)
            .ok_or("missing string field `layer`")?
            .to_string();
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing string field `name`")?
            .to_string();
        let pid = value
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or("missing integer field `pid`")? as u32;
        let ts_us = value
            .get("ts_us")
            .and_then(Json::as_u64)
            .ok_or("missing integer field `ts_us`")?;
        let dur_us = match value.get("dur_us") {
            None => None,
            Some(j) => Some(
                j.as_u64()
                    .ok_or("`dur_us` must be a non-negative integer")?,
            ),
        };
        if is_span && dur_us.is_none() {
            return Err("span without `dur_us`".to_string());
        }
        let mut ints = Vec::new();
        let mut labels = Vec::new();
        for (key, field) in map {
            if matches!(
                key.as_str(),
                "type" | "layer" | "name" | "pid" | "ts_us" | "dur_us"
            ) {
                continue;
            }
            match field {
                Json::Int(i) => ints.push((key.clone(), *i)),
                Json::Str(s) => labels.push((key.clone(), s.clone())),
                other => return Err(format!("field `{key}` has unsupported type: {other:?}")),
            }
        }
        Ok(TraceEvent {
            is_span,
            layer,
            name,
            pid,
            ts_us,
            dur_us,
            ints,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that swap the global sink.
    fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn spans_and_events_emit_parseable_lines() {
        let _guard = sink_lock();
        let buffer = install_capture();
        {
            let _span = span("test", "unit")
                .int("shots", 1024)
                .label("backend", "dense");
        }
        event("test", "tick", &[("n", 3)]);
        disable();
        let lines = buffer.lock().unwrap().clone();
        assert_eq!(lines.len(), 2);
        let parsed =
            TraceEvent::from_json(&Json::parse(&lines[0]).expect("span line is valid JSON"))
                .expect("span line matches the schema");
        assert!(parsed.is_span);
        assert_eq!(parsed.layer, "test");
        assert_eq!(parsed.name, "unit");
        assert_eq!(parsed.ints, vec![("shots".to_string(), 1024)]);
        assert_eq!(
            parsed.labels,
            vec![("backend".to_string(), "dense".to_string())]
        );
        let tick =
            TraceEvent::from_json(&Json::parse(&lines[1]).expect("event line is valid JSON"))
                .expect("event line matches the schema");
        assert!(!tick.is_span);
        assert_eq!(tick.dur_us, None);
        assert_eq!(tick.ints, vec![("n".to_string(), 3)]);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = sink_lock();
        disable();
        let s = span("test", "inert").int("k", 1).label("l", "v");
        assert!(s.active.is_none());
        s.finish();
        event("test", "inert", &[("k", 1)]);
    }
}
