//! The job service: submit-time validation, a bounded queue, a worker
//! pool over the deterministic [`Executor`], and a result cache.
//!
//! # Job lifecycle
//!
//! ```text
//! submit ──parse/check──resolve──▶ refused (typed error, never enters the table)
//!    │
//!    ├── cache hit ──▶ Done (cached: true, no execution)
//!    │
//!    └── cache miss ─▶ try_push ──full──▶ QueueFull (typed, prompt — never a hang)
//!                         │
//!                         ▼
//!                      Queued ──worker──▶ Running ──▶ Done | Failed
//! ```
//!
//! Validation is front-loaded: a program that cannot parse, check, or
//! resolve onto a backend is refused in the submit reply itself, so
//! clients never poll a job that was doomed from the start. Both engines
//! are exact, so a job that resolves also runs; `Failed` remains the
//! state a worker records should [`Executor::try_run_job`] still return
//! a typed [`SimError`](qsim::backend::SimError).
//!
//! # Determinism and caching
//!
//! Workers drive [`Executor::try_run_job`], whose counts are a pure
//! function of the [`JobKey`] (see [`qsim::job`]). The server exploits
//! this twice: results are cached process-wide by key (a cache hit and
//! the job that produced it share one `Arc`'d result), and concurrent
//! submission order cannot change any job's counts — a serve deployment
//! returns bit-identical counts to a local [`Executor`] run of the same
//! spec.
//!
//! # Bounded everything
//!
//! Every resource a client can consume is bounded: request lines are read
//! under [`MAX_LINE_BYTES`] (a longer line is refused and skipped unread),
//! the work queue refuses past its capacity, the result cache evicts LRU, terminal
//! jobs are retained in a bounded window
//! ([`ServerConfig::terminal_retention`]) so the job table cannot grow
//! with lifetime submissions, and `result` waits park in finite
//! intervals — giving up with the job's current status once no live
//! worker can make progress — so no handler thread blocks forever.
//!
//! Lock discipline: the job-table and cache mutexes are never held at
//! the same time (cache lookups/inserts bracket the jobs lock on both
//! the submit and worker paths), so there is no lock-order cycle. Both
//! tolerate poison: entries and cached results are replaced whole, so a
//! panicking holder cannot leave one half-written.

use crate::cache::{CachedResult, ResultCache};
use crate::error::ServeError;
use crate::proto::{counts_to_json, Request, MAX_CLBITS, MAX_LINE_BYTES};
use crate::queue::BoundedQueue;
use qsim::backend::{self, BackendKind};
use qsim::exec::{recommended_threads, Executor, ExecutorConfig};
use qsim::job::{JobKey, JobSpec};
use qsim::lru::lock;
use qugen_telemetry::metrics::{self as tmetrics, Counter, Gauge, Histogram};
use qugen_telemetry::trace;
use qugen_wire::codec::{obj, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry handles for the serve layer, interned once. The counters
/// mirror [`Inner`]'s per-server atomics into the process-wide registry
/// (the `metrics` op's snapshot); the per-server atomics stay
/// authoritative for `stats`, which must describe *this* server even
/// when tests run several in one process.
struct ServeMetrics {
    submitted: &'static Counter,
    executed: &'static Counter,
    cache_hits: &'static Counter,
    cache_misses: &'static Counter,
    /// `result` waits released because no live worker could make
    /// progress (workerless pool, panicked pool, or drained shutdown).
    wait_released: &'static Counter,
    queue_depth: &'static Gauge,
    busy_workers: &'static Gauge,
    submit_us: &'static Histogram,
    status_us: &'static Histogram,
    result_us: &'static Histogram,
    stats_us: &'static Histogram,
    metrics_us: &'static Histogram,
    shutdown_us: &'static Histogram,
}

impl ServeMetrics {
    /// The latency histogram for one op (names match the wire `op`).
    fn op_us(&self, op: &str) -> &'static Histogram {
        match op {
            "submit" => self.submit_us,
            "status" => self.status_us,
            "result" => self.result_us,
            "stats" => self.stats_us,
            "metrics" => self.metrics_us,
            _ => self.shutdown_us,
        }
    }
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        submitted: tmetrics::counter("serve.submitted"),
        executed: tmetrics::counter("serve.executed"),
        cache_hits: tmetrics::counter("serve.cache_hits"),
        cache_misses: tmetrics::counter("serve.cache_misses"),
        wait_released: tmetrics::counter("serve.wait_released"),
        queue_depth: tmetrics::gauge("serve.queue_depth"),
        busy_workers: tmetrics::gauge("serve.busy_workers"),
        submit_us: tmetrics::histogram("serve.submit_us"),
        status_us: tmetrics::histogram("serve.status_us"),
        result_us: tmetrics::histogram("serve.result_us"),
        stats_us: tmetrics::histogram("serve.stats_us"),
        metrics_us: tmetrics::histogram("serve.metrics_us"),
        shutdown_us: tmetrics::histogram("serve.shutdown_us"),
    })
}

/// The wire `op` a typed request arrived as (for metric/span names).
fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Submit { .. } => "submit",
        Request::Status { .. } => "status",
        Request::Result { .. } => "result",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// How the service is shaped: worker count, queue and cache bounds, and
/// the executor the workers share.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs. `0` spawns none — jobs queue but
    /// never run, which is how the backpressure tests freeze the queue.
    pub workers: usize,
    /// Bounded work-queue capacity; a full queue refuses with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// How many terminal (`Done`/`Failed`) jobs stay queryable. Once a
    /// job is terminal it only exists for `status`/`result` lookups, so
    /// the table evicts the oldest terminal entries beyond this bound —
    /// a long-running daemon's memory stays proportional to in-flight
    /// work plus this window, not to lifetime submissions.
    pub terminal_retention: usize,
    /// The executor configuration workers run under. Defaults to one
    /// simulator thread per worker so the two pools do not nest
    /// multiplicatively — parallelism comes from concurrent jobs.
    pub executor: ExecutorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: recommended_threads(),
            queue_capacity: 256,
            cache_capacity: 1024,
            terminal_retention: 1024,
            executor: ExecutorConfig::new().threads(1),
        }
    }
}

/// Where a job is in its lifecycle (`queued → running → done | failed`).
///
/// A cache hit is born `Done`; a submit-time refusal never enters the
/// table at all (the submission itself returns the typed error).
enum JobState {
    /// Accepted and waiting in the bounded work queue.
    Queued,
    /// Claimed by a worker; counts are being produced.
    Running,
    /// Finished successfully. `cached` is `true` when the result came
    /// from the result cache instead of an execution — bit-identical
    /// either way, by the determinism contract.
    Done {
        result: Arc<CachedResult>,
        cached: bool,
    },
    /// Finished with a typed run-time error from
    /// [`Executor::try_run_job`].
    Failed(ServeError),
}

impl JobState {
    /// Stable wire name (`queued|running|done|failed`).
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Everything the server remembers about one accepted job.
struct JobEntry {
    spec: JobSpec,
    key: JobKey,
    backend: BackendKind,
    tag: Option<String>,
    state: JobState,
}

/// The job map plus a bounded window of terminal entries. Terminal jobs
/// are evicted oldest-first past [`ServerConfig::terminal_retention`],
/// so sustained submissions cannot grow the table without bound.
struct JobTable {
    map: HashMap<u64, JobEntry>,
    /// Terminal job ids in completion order — the eviction queue.
    terminal: VecDeque<u64>,
    retention: usize,
}

impl JobTable {
    fn new(retention: usize) -> Self {
        JobTable {
            map: HashMap::new(),
            terminal: VecDeque::new(),
            retention,
        }
    }

    /// Records `id` as terminal and evicts the oldest terminal entries
    /// beyond the retention bound. With `retention` 0 the job is evicted
    /// immediately — legal, but its result is only reachable via the
    /// submit reply or the cache.
    fn mark_terminal(&mut self, id: u64) {
        self.terminal.push_back(id);
        while self.terminal.len() > self.retention {
            if let Some(old) = self.terminal.pop_front() {
                self.map.remove(&old);
            }
        }
    }
}

struct Inner {
    exec: Executor,
    queue: BoundedQueue<u64>,
    jobs: Mutex<JobTable>,
    /// Signalled whenever a job reaches a terminal status or a worker
    /// exits (for `{"op":"result","wait":true}` blockers).
    done: Condvar,
    cache: Mutex<ResultCache>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    executed: AtomicU64,
    /// Workers still running their loop; when this hits zero no queued
    /// or running job can ever progress, so waiters stop blocking.
    live_workers: AtomicUsize,
    /// Workers currently executing a job (between pop and completion) —
    /// the occupancy half of `stats`' worker picture; `live_workers`
    /// is the capacity half.
    busy_workers: AtomicUsize,
    shutting_down: AtomicBool,
}

/// A running job service. Dropping it drains the queue and joins the
/// workers.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the service and spawns its worker pool.
    pub fn new(config: ServerConfig) -> Self {
        let inner = Arc::new(Inner {
            exec: Executor::new(config.executor),
            queue: BoundedQueue::new(config.queue_capacity),
            jobs: Mutex::new(JobTable::new(config.terminal_retention)),
            done: Condvar::new(),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            live_workers: AtomicUsize::new(config.workers),
            busy_workers: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Server { inner, workers }
    }

    /// Handles one request line and returns the one response line
    /// (without trailing newline). Transport-agnostic: the TCP and stdio
    /// loops, tests, and in-process clients all call this.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match Json::parse(line) {
            Err(e) => ServeError::Parse(e).to_json(),
            Ok(value) => match Request::from_json(&value) {
                Err(e) => e.to_json(),
                Ok(request) => self.handle(request),
            },
        };
        response.encode()
    }

    /// Typed request dispatch; returns the wire-ready response object.
    ///
    /// Every op is timed into its `serve.<op>_us` histogram and emits a
    /// `serve`-layer trace span; with telemetry and tracing both off the
    /// wrapper is two relaxed atomic loads.
    pub fn handle(&self, request: Request) -> Json {
        if !tmetrics::enabled() && !trace::enabled() {
            return self.dispatch(request);
        }
        let op = op_name(&request);
        let span = trace::span("serve", op);
        let start = Instant::now();
        let response = self.dispatch(request);
        serve_metrics()
            .op_us(op)
            .record(start.elapsed().as_micros() as u64);
        span.int("ok", response.get("error").is_none() as i128)
            .finish();
        response
    }

    fn dispatch(&self, request: Request) -> Json {
        match request {
            Request::Submit {
                source,
                shots,
                seed,
                backend,
                tag,
            } => match self.submit(&source, shots, seed, backend, tag) {
                Ok(json) => json,
                Err(e) => e.to_json(),
            },
            Request::Status { job } => match self.status(job) {
                Ok(json) => json,
                Err(e) => e.to_json(),
            },
            Request::Result { job, wait } => match self.result(job, wait) {
                Ok(json) => json,
                Err(e) => e.to_json(),
            },
            Request::Stats => self.stats(),
            Request::Metrics => obj([
                ("ok", Json::Bool(true)),
                ("metrics", tmetrics::snapshot_json()),
            ]),
            Request::Shutdown => {
                self.begin_shutdown();
                obj([("ok", Json::Bool(true)), ("status", str_json("draining"))])
            }
        }
    }

    /// Validates, classifies, caches or enqueues one job. See the module
    /// docs for the lifecycle this implements.
    fn submit(
        &self,
        source: &str,
        shots: u64,
        seed: u64,
        backend_override: Option<backend::BackendChoice>,
        tag: Option<String>,
    ) -> Result<Json, ServeError> {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // Front-loaded validation: parse, check, and resolve before the
        // job can consume a queue slot.
        let outcome = qcir::compile(source);
        let circuit = match outcome.circuit {
            Some(c) => c,
            None => return Err(ServeError::Check(outcome.diagnostics)),
        };
        if circuit.num_clbits() > MAX_CLBITS {
            return Err(ServeError::BadRequest(format!(
                "the classical register must be at most {MAX_CLBITS} bits wide, got {}",
                circuit.num_clbits()
            )));
        }
        let mut spec = JobSpec::new(circuit, shots, seed);
        if let Some(choice) = backend_override {
            spec = spec.with_backend(choice);
        }
        let config = inner.exec.config();
        let choice = spec.effective_backend(config.backend);
        let resolved = backend::resolve(choice, spec.circuit())?;
        let key = spec.key(config.backend);

        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        // Cache hit: the job is born terminal, no execution, no queue
        // slot. The lookup is bound to a local so the cache guard drops
        // before the jobs lock below — no thread ever holds both mutexes
        // (workers insert into the cache outside the jobs lock for the
        // same reason), so there is no lock-order cycle.
        let hit = lock(&inner.cache).get(&key);
        let m = serve_metrics();
        if let Some(hit) = hit {
            inner.submitted.fetch_add(1, Ordering::Relaxed);
            m.submitted.inc();
            m.cache_hits.inc();
            let entry = JobEntry {
                spec,
                key,
                backend: hit.backend,
                tag,
                state: JobState::Done {
                    result: hit,
                    cached: true,
                },
            };
            let reply = submit_reply(id, &entry);
            let mut jobs = lock(&inner.jobs);
            jobs.map.insert(id, entry);
            jobs.mark_terminal(id);
            drop(jobs);
            inner.done.notify_all();
            return Ok(reply);
        }

        let entry = JobEntry {
            spec,
            key,
            backend: resolved,
            tag,
            state: JobState::Queued,
        };
        let reply = submit_reply(id, &entry);
        lock(&inner.jobs).map.insert(id, entry);
        if inner.queue.try_push(id).is_err() {
            // Give the slot back atomically with the refusal: the job id
            // was never visible to the client, so remove the entry. A
            // refused submission never counts as submitted.
            lock(&inner.jobs).map.remove(&id);
            return Err(ServeError::QueueFull {
                capacity: inner.queue.capacity(),
            });
        }
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        m.submitted.inc();
        m.cache_misses.inc();
        m.queue_depth.set(inner.queue.len() as i64);
        Ok(reply)
    }

    fn status(&self, id: u64) -> Result<Json, ServeError> {
        let jobs = lock(&self.inner.jobs);
        let entry = jobs.map.get(&id).ok_or(ServeError::UnknownJob { id })?;
        Ok(obj([
            ("ok", Json::Bool(true)),
            ("job", Json::Int(id as i128)),
            ("status", str_json(entry.state.name())),
            ("backend", str_json(entry.backend.name())),
        ]))
    }

    /// A job's counts. With `wait`, blocks until the job is terminal; a
    /// non-terminal job without `wait` answers with its status and no
    /// counts.
    ///
    /// The wait is bounded: it parks in finite intervals and gives up —
    /// answering with the job's current (non-terminal) status — once no
    /// worker is left to make progress (`workers: 0`, a panicked pool,
    /// or a drained shutdown). Clients are never parked forever.
    fn result(&self, id: u64, wait: bool) -> Result<Json, ServeError> {
        let inner = &self.inner;
        let mut jobs = lock(&inner.jobs);
        loop {
            let entry = jobs.map.get(&id).ok_or(ServeError::UnknownJob { id })?;
            if let Some(reply) = render_terminal(id, entry) {
                return Ok(reply);
            }
            if !wait || inner.live_workers.load(Ordering::SeqCst) == 0 {
                if wait {
                    // The caller asked to block but no live worker can
                    // ever finish this job — a released (not satisfied)
                    // wait, worth counting: a nonzero rate means clients
                    // are polling a pool that cannot progress.
                    serve_metrics().wait_released.inc();
                }
                return Ok(obj([
                    ("ok", Json::Bool(true)),
                    ("job", Json::Int(id as i128)),
                    ("status", str_json(entry.state.name())),
                ]));
            }
            let (guard, _timed_out) = inner
                .done
                .wait_timeout(jobs, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            jobs = guard;
        }
    }

    fn stats(&self) -> Json {
        let inner = &self.inner;
        let cache = lock(&inner.cache);
        let cache_stats = cache.stats();
        let cache_len = cache.len();
        drop(cache);
        let plan = inner.exec.plan_cache_stats();
        obj([
            ("ok", Json::Bool(true)),
            ("workers", Json::Int(self.workers.len() as i128)),
            ("queue_depth", Json::Int(inner.queue.len() as i128)),
            ("queue_capacity", Json::Int(inner.queue.capacity() as i128)),
            ("jobs", Json::Int(lock(&inner.jobs).map.len() as i128)),
            (
                "live_workers",
                Json::Int(inner.live_workers.load(Ordering::SeqCst) as i128),
            ),
            (
                "busy_workers",
                Json::Int(inner.busy_workers.load(Ordering::SeqCst) as i128),
            ),
            (
                "submitted",
                Json::Int(inner.submitted.load(Ordering::Relaxed) as i128),
            ),
            (
                "executed",
                Json::Int(inner.executed.load(Ordering::Relaxed) as i128),
            ),
            ("cache_hits", Json::Int(cache_stats.hits as i128)),
            ("cache_misses", Json::Int(cache_stats.misses as i128)),
            ("cache_len", Json::Int(cache_len as i128)),
            ("plan_cache_hits", Json::Int(plan.hits as i128)),
            ("plan_cache_misses", Json::Int(plan.misses as i128)),
            ("plan_cache_evictions", Json::Int(plan.evictions as i128)),
            ("plan_cache_len", Json::Int(plan.len as i128)),
            ("plan_cache_capacity", Json::Int(plan.capacity as i128)),
            (
                "plan_fusion_declined",
                Json::Int(plan.fusion_declined as i128),
            ),
            (
                "shutting_down",
                Json::Bool(inner.shutting_down.load(Ordering::SeqCst)),
            ),
        ])
    }

    /// Stops accepting submissions and closes the queue; workers drain
    /// what was already accepted.
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.queue.close();
    }

    /// `true` once [`Server::begin_shutdown`] (or a `shutdown` request)
    /// has been seen.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// Serves line-delimited JSON over TCP until a `shutdown` request
    /// arrives. Each connection gets its own handler thread; the accept
    /// loop polls so it can observe shutdown promptly.
    ///
    /// # Errors
    ///
    /// I/O errors from the listener setup; per-connection errors just end
    /// that connection.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !self.is_shutting_down() {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let server = Arc::clone(self);
                    handlers.push(std::thread::spawn(move || {
                        let _ = handle_connection(&server, stream);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Serves line-delimited JSON over a reader/writer pair (the
    /// `--stdio` transport) until EOF or a `shutdown` request.
    ///
    /// Lines are read under [`MAX_LINE_BYTES`]: an over-long line gets a
    /// `line_too_long` reply and a non-UTF-8 line a `bad_request`, and the
    /// session goes on with the next line.
    ///
    /// # Errors
    ///
    /// Propagates write errors; a read error ends the loop cleanly.
    pub fn serve_lines(&self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let mut reader = LineReader::new(input);
        while let Ok(Some(line)) = reader.next_line() {
            let Some(response) = self.respond(line) else {
                continue;
            };
            writeln!(output, "{response}")?;
            output.flush()?;
            if self.is_shutting_down() {
                break;
            }
        }
        Ok(())
    }

    /// The response line for one bounded read, or `None` for a blank line.
    fn respond(&self, line: Result<String, ServeError>) -> Option<String> {
        match line {
            Ok(text) if text.trim().is_empty() => None,
            Ok(text) => Some(self.handle_line(text.trim_end())),
            Err(refusal) => Some(refusal.to_json().encode()),
        }
    }
}

/// Reads request lines of at most [`MAX_LINE_BYTES`] bytes, the one line
/// reader both transports share. Bytes are read with `read_until` through
/// `take`, so no line buffers more than the cap plus its newline; the
/// rest of an over-long line is skipped straight out of the input's own
/// buffer. A partial line survives a read error (the TCP transport's
/// read timeout) and the next call resumes it.
struct LineReader<R> {
    input: R,
    line: Vec<u8>,
    /// Skipping the tail of an over-long line.
    skipping: bool,
}

impl<R: BufRead> LineReader<R> {
    fn new(input: R) -> Self {
        LineReader {
            input,
            line: Vec::new(),
            skipping: false,
        }
    }

    /// The next line without its newline, `Err` with the typed refusal
    /// when it is over-long or not UTF-8, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// The input's read errors; the call can be repeated after one.
    fn next_line(&mut self) -> std::io::Result<Option<Result<String, ServeError>>> {
        while self.skipping {
            let chunk = match self.input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(None);
            }
            let (used, done) = match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (chunk.len(), false),
            };
            self.input.consume(used);
            self.skipping = !done;
        }
        let room = (MAX_LINE_BYTES + 1 - self.line.len()) as u64;
        (&mut self.input)
            .take(room)
            .read_until(b'\n', &mut self.line)?;
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
        } else if self.line.len() > MAX_LINE_BYTES {
            self.line.clear();
            self.skipping = true;
            return Ok(Some(Err(ServeError::LineTooLong {
                limit: MAX_LINE_BYTES,
            })));
        } else if self.line.is_empty() {
            return Ok(None);
        }
        Ok(Some(
            String::from_utf8(std::mem::take(&mut self.line))
                .map_err(|_| ServeError::BadRequest("request line is not valid UTF-8".to_string())),
        ))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Decrements [`Inner::live_workers`] when a worker exits — normally
/// *or* by panic — and wakes `result` waiters so nobody blocks on a
/// pool that can no longer make progress.
struct WorkerGuard<'a> {
    inner: &'a Inner,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.inner.live_workers.fetch_sub(1, Ordering::SeqCst);
        self.inner.done.notify_all();
    }
}

/// One worker: pop → Running → execute → cache → Done/Failed → notify.
fn worker_loop(inner: &Inner) {
    let _guard = WorkerGuard { inner };
    let m = serve_metrics();
    while let Some(id) = inner.queue.pop() {
        m.queue_depth.set(inner.queue.len() as i64);
        let (spec, key, backend) = {
            let mut jobs = lock(&inner.jobs);
            match jobs.map.get_mut(&id) {
                Some(entry) => {
                    entry.state = JobState::Running;
                    (entry.spec.clone(), entry.key, entry.backend)
                }
                None => continue,
            }
        };
        // Occupancy brackets the execute-and-record section, so a
        // `stats` reply showing `busy_workers: 0, queue_depth: 0` means
        // the server is fully drained — every accepted job's result and
        // terminal status are visible.
        let busy = inner.busy_workers.fetch_add(1, Ordering::SeqCst) + 1;
        m.busy_workers.set(busy as i64);
        // Execute outside the table lock so status queries stay live.
        let outcome = inner.exec.try_run_job(&spec);
        inner.executed.fetch_add(1, Ordering::Relaxed);
        m.executed.inc();
        // Cache insert happens before (not inside) the jobs lock: every
        // site holds at most one of the two mutexes at a time, so the
        // cache/jobs pair cannot form a lock-order cycle with `submit`.
        let state = match outcome {
            Ok(counts) => {
                let result = Arc::new(CachedResult { counts, backend });
                lock(&inner.cache).insert(key, Arc::clone(&result));
                JobState::Done {
                    result,
                    cached: false,
                }
            }
            Err(e) => JobState::Failed(ServeError::Sim(e)),
        };
        let mut jobs = lock(&inner.jobs);
        if let Some(entry) = jobs.map.get_mut(&id) {
            entry.state = state;
            jobs.mark_terminal(id);
        }
        drop(jobs);
        // Occupancy drops only after the terminal status is recorded —
        // see the increment above for the drain invariant this buys.
        let busy = inner.busy_workers.fetch_sub(1, Ordering::SeqCst) - 1;
        m.busy_workers.set(busy as i64);
        inner.done.notify_all();
    }
}

fn handle_connection(server: &Arc<Server>, stream: TcpStream) -> std::io::Result<()> {
    // Finite read timeout so this thread notices server shutdown even on
    // an idle connection.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?));
    let mut writer = stream;
    loop {
        match reader.next_line() {
            Ok(None) => return Ok(()), // client hung up
            Ok(Some(line)) => {
                if let Some(response) = server.respond(line) {
                    writeln!(writer, "{response}")?;
                    writer.flush()?;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if server.is_shutting_down() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// The submit reply: the job id, its state at birth (`queued`, or `done`
/// for a cache hit) and the client's tag.
fn submit_reply(id: u64, entry: &JobEntry) -> Json {
    let cached = matches!(entry.state, JobState::Done { cached: true, .. });
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("job", Json::Int(id as i128)),
        ("status", str_json(entry.state.name())),
        ("cached", Json::Bool(cached)),
    ];
    if let Some(tag) = &entry.tag {
        fields.push(("tag", Json::Str(tag.clone())));
    }
    obj(fields)
}

/// Renders a terminal job — counts for `Done`, the stored typed error
/// (plus the job id) for `Failed` — or `None` while the job is still
/// queued or running.
fn render_terminal(id: u64, entry: &JobEntry) -> Option<Json> {
    match &entry.state {
        JobState::Queued | JobState::Running => None,
        JobState::Done { result, cached } => {
            let mut fields = vec![
                ("ok", Json::Bool(true)),
                ("job", Json::Int(id as i128)),
                ("status", str_json(entry.state.name())),
                ("backend", str_json(result.backend.name())),
                ("cached", Json::Bool(*cached)),
                ("shots", Json::Int(result.counts.shots() as i128)),
                ("clbits", Json::Int(result.counts.num_clbits() as i128)),
                ("counts", counts_to_json(&result.counts)),
            ];
            if let Some(tag) = &entry.tag {
                fields.push(("tag", Json::Str(tag.clone())));
            }
            Some(obj(fields))
        }
        JobState::Failed(error) => {
            let mut json = error.to_json();
            if let Json::Obj(map) = &mut json {
                map.insert("job".to_string(), Json::Int(id as i128));
                map.insert("status".to_string(), str_json(entry.state.name()));
                if let Some(tag) = &entry.tag {
                    map.insert("tag".to_string(), Json::Str(tag.clone()));
                }
            }
            Some(json)
        }
    }
}

fn str_json(s: &str) -> Json {
    Json::Str(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str = "import qasmlite 2.1;\nqreg q[2];\ncreg c[2];\nh q[0];\n\
                        cx q[0], q[1];\nmeasure q -> c;\n";

    fn submit_line(shots: u64, seed: u64) -> String {
        format!(
            "{{\"op\":\"submit\",\"source\":{},\"shots\":{shots},\"seed\":{seed}}}",
            Json::Str(BELL.to_string()).encode()
        )
    }

    fn parse(response: &str) -> Json {
        Json::parse(response).expect("response is valid JSON")
    }

    #[test]
    fn submit_wait_result_round_trip() {
        let server = Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let reply = parse(&server.handle_line(&submit_line(512, 7)));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        let id = reply.get("job").unwrap().as_u64().unwrap();
        let result = parse(
            &server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")),
        );
        assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(result.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(result.get("shots").unwrap().as_u64(), Some(512));
        let counts = result.get("counts").unwrap().as_obj().unwrap();
        // A Bell pair only ever measures 00 or 11.
        assert!(counts.keys().all(|k| k == "00" || k == "11"), "{counts:?}");
    }

    #[test]
    fn malformed_and_unknown_requests_get_typed_errors() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let parse_err = parse(&server.handle_line("{nope"));
        assert_eq!(parse_err.get("error").unwrap().as_str(), Some("parse"));
        let unknown = parse(&server.handle_line("{\"op\":\"status\",\"job\":999}"));
        assert_eq!(unknown.get("error").unwrap().as_str(), Some("unknown_job"));
        let bad_program = parse(
            &server.handle_line("{\"op\":\"submit\",\"source\":\"hq[0];\",\"shots\":1,\"seed\":0}"),
        );
        assert_eq!(bad_program.get("error").unwrap().as_str(), Some("check"));
    }

    #[test]
    fn submit_time_refusals_carry_the_sim_payload() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // 40 qubits forced dense: over the cap, refused at submit time.
        let line = format!(
            "{{\"op\":\"submit\",\"source\":{},\"shots\":1,\"seed\":0,\"backend\":\"dense\"}}",
            Json::Str(
                "import qasmlite 2.1;\nqreg q[40];\ncreg c[1];\nh q[0];\n\
                 measure q[0] -> c[0];\n"
                    .into()
            )
            .encode()
        );
        let reply = parse(&server.handle_line(&line));
        assert_eq!(reply.get("error").unwrap().as_str(), Some("sim"));
        let sim = reply.get("sim").unwrap();
        assert_eq!(sim.get("code").unwrap().as_str(), Some("qubit_cap"));
        assert_eq!(sim.get("backend").unwrap().as_str(), Some("dense"));
    }

    #[test]
    fn hostile_register_sizes_get_a_check_error_and_the_server_lives() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // 2^61 bits: expanding one of these would overflow a `Vec`.
        let wide = 1u64 << 61;
        let programs = [
            // Register offsets used to overflow, panicking the daemon.
            "qreg q[18446744073709551615];\nqreg r[1];\ncreg c[1];\nx r[0];\n\
             measure r[0] -> c[0];"
                .to_string(),
            format!("qreg q[{wide}];\ncreg c[1];\nh q;\nmeasure q[0] -> c[0];"),
            format!("qreg q[{wide}];\ncreg c[{wide}];\nh q[0];\nmeasure q -> c;"),
            format!("qreg q[{wide}];\ncreg c[1];\nh q[0];\nbarrier;\nmeasure q[0] -> c[0];"),
        ];
        for program in programs {
            let line = format!(
                "{{\"op\":\"submit\",\"source\":{},\"shots\":4,\"seed\":0}}",
                Json::Str(format!("import qasmlite 2.1;\n{program}\n")).encode()
            );
            let reply = parse(&server.handle_line(&line));
            assert_eq!(
                reply.get("error").unwrap().as_str(),
                Some("check"),
                "{program}"
            );
            let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
            assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn clbit_cap_refuses_wide_registers_at_submit() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let submit = |clbits: usize| {
            let source = format!(
                "import qasmlite 2.1;\nqreg q[1];\ncreg c[{clbits}];\nx q[0];\n\
                 measure q[0] -> c[0];\n"
            );
            let line = format!(
                "{{\"op\":\"submit\",\"source\":{},\"shots\":4,\"seed\":0}}",
                Json::Str(source).encode()
            );
            parse(&server.handle_line(&line))
        };
        // Regression: a 4e9-bit register used to be queued, and reading its
        // result aborted the process on a 4 GB bitstring allocation.
        for clbits in [4_000_000_000, MAX_CLBITS + 1] {
            let reply = submit(clbits);
            assert_eq!(
                reply.get("error").unwrap().as_str(),
                Some("bad_request"),
                "creg c[{clbits}]"
            );
        }
        // The cap is inclusive: the widest allowed register runs.
        let reply = submit(MAX_CLBITS);
        let id = reply.get("job").unwrap().as_u64().unwrap();
        let result = parse(
            &server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")),
        );
        assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(
            result.get("clbits").unwrap().as_u64(),
            Some(MAX_CLBITS as u64)
        );
    }

    #[test]
    fn cache_hit_skips_execution_and_says_so() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let first = parse(&server.handle_line(&submit_line(256, 3)));
        let id = first.get("job").unwrap().as_u64().unwrap();
        let first_result = parse(
            &server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")),
        );
        // Same spec again: terminal at submit, served from cache.
        let second = parse(&server.handle_line(&submit_line(256, 3)));
        assert_eq!(second.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        let id2 = second.get("job").unwrap().as_u64().unwrap();
        let second_result =
            parse(&server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id2}}}")));
        assert_eq!(
            second_result.get("counts"),
            first_result.get("counts"),
            "cached counts are bit-identical"
        );
        let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
        assert_eq!(stats.get("executed").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn full_queue_refuses_with_queue_full() {
        // No workers: nothing drains, so capacity 2 fills at once.
        let server = Server::new(ServerConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        for seed in 0..2 {
            let reply = parse(&server.handle_line(&submit_line(64, seed)));
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "seed {seed}");
        }
        let refused = parse(&server.handle_line(&submit_line(64, 99)));
        assert_eq!(refused.get("error").unwrap().as_str(), Some("queue_full"));
        assert_eq!(refused.get("capacity").unwrap().as_u64(), Some(2));
        // The refused job left no trace in the table: 2 live jobs.
        let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
        assert_eq!(stats.get("jobs").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn cache_hit_submissions_race_worker_completions_without_deadlock() {
        // Regression: a cache-hit submit (cache lock → jobs lock) racing
        // a worker completion (jobs lock → cache lock) used to ABBA
        // deadlock. Hammer the same key from several threads while
        // workers complete fresh keys; completion within the timeout is
        // the assertion.
        let server = Arc::new(Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        }));
        // Prime the cache so submitters take the cache-hit path.
        let primed = parse(&server.handle_line(&submit_line(64, 42)));
        let id = primed.get("job").unwrap().as_u64().unwrap();
        server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"));
        let hammers: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        if t % 2 == 0 {
                            // Cache hits on the primed key.
                            let reply = parse(&server.handle_line(&submit_line(64, 42)));
                            assert_eq!(reply.get("cached"), Some(&Json::Bool(true)));
                        } else {
                            // Fresh keys that workers must execute.
                            let seed = 1_000 + t as u64 * 100 + i;
                            let reply = parse(&server.handle_line(&submit_line(64, seed)));
                            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
                        }
                    }
                })
            })
            .collect();
        for h in hammers {
            h.join().expect("no deadlock, no panic");
        }
    }

    #[test]
    fn terminal_jobs_are_evicted_past_the_retention_window() {
        let server = Server::new(ServerConfig {
            workers: 1,
            terminal_retention: 2,
            ..ServerConfig::default()
        });
        let mut ids = Vec::new();
        for seed in 0..4 {
            let reply = parse(&server.handle_line(&submit_line(32, seed)));
            let id = reply.get("job").unwrap().as_u64().unwrap();
            // Wait each job to terminal so completion order is the
            // submission order.
            server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"));
            ids.push(id);
        }
        let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
        assert_eq!(stats.get("jobs").unwrap().as_u64(), Some(2));
        // The oldest terminal jobs are gone; the newest are queryable.
        let oldest =
            parse(&server.handle_line(&format!("{{\"op\":\"status\",\"job\":{}}}", ids[0])));
        assert_eq!(oldest.get("error").unwrap().as_str(), Some("unknown_job"));
        let newest =
            parse(&server.handle_line(&format!("{{\"op\":\"status\",\"job\":{}}}", ids[3])));
        assert_eq!(newest.get("status").unwrap().as_str(), Some("done"));
    }

    #[test]
    fn wait_on_a_workerless_server_returns_instead_of_hanging() {
        // With no workers a queued job can never progress; `wait: true`
        // must answer with the current status, not park forever.
        let server = Server::new(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        });
        let reply = parse(&server.handle_line(&submit_line(64, 5)));
        let id = reply.get("job").unwrap().as_u64().unwrap();
        let result = parse(
            &server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")),
        );
        assert_eq!(result.get("status").unwrap().as_str(), Some("queued"));
        assert!(result.get("counts").is_none());
    }

    #[test]
    fn refused_submissions_do_not_count_as_submitted() {
        let server = Server::new(ServerConfig {
            workers: 0,
            queue_capacity: 1,
            ..ServerConfig::default()
        });
        let accepted = parse(&server.handle_line(&submit_line(64, 0)));
        assert_eq!(accepted.get("ok"), Some(&Json::Bool(true)));
        let refused = parse(&server.handle_line(&submit_line(64, 1)));
        assert_eq!(refused.get("error").unwrap().as_str(), Some("queue_full"));
        let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
        assert_eq!(stats.get("submitted").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("jobs").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn stats_reports_drained_queue_and_idle_workers_after_completion() {
        // Regression: `stats` must expose live occupancy, and both gauges
        // must return to zero once every accepted job is terminal. The
        // worker decrements occupancy only after recording the terminal
        // status, so a short poll (not an instant assert) is the honest
        // way to observe the drain without racing the notify.
        let server = Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let mut ids = Vec::new();
        for seed in 0..6 {
            let reply = parse(&server.handle_line(&submit_line(256, 100 + seed)));
            ids.push(reply.get("job").unwrap().as_u64().unwrap());
        }
        for id in ids {
            let result = parse(
                &server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")),
            );
            assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
            let depth = stats.get("queue_depth").unwrap().as_u64().unwrap();
            let busy = stats.get("busy_workers").unwrap().as_u64().unwrap();
            if depth == 0 && busy == 0 {
                assert_eq!(stats.get("executed").unwrap().as_u64(), Some(6));
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "queue_depth={depth} busy_workers={busy} never drained to 0"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn stats_exposes_plan_cache_counters() {
        use qsim::exec::PlanCacheMode;
        // A private plan cache isolates this test's counters from every
        // other test sharing the process-wide cache.
        let server = Server::new(ServerConfig {
            workers: 1,
            executor: ExecutorConfig::new()
                .threads(1)
                .plan_cache(PlanCacheMode::Private),
            ..ServerConfig::default()
        });
        // Forced dense: auto would pick tableau for a Clifford circuit
        // and the trajectory path never consults the plan cache.
        for seed in [1, 2] {
            let line = format!(
                "{{\"op\":\"submit\",\"source\":{},\"shots\":64,\"seed\":{seed},\
                 \"backend\":\"dense\"}}",
                Json::Str(BELL.to_string()).encode()
            );
            let reply = parse(&server.handle_line(&line));
            let id = reply.get("job").unwrap().as_u64().unwrap();
            server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"));
        }
        let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
        // Same circuit twice: one compile (miss), one plan-cache hit.
        assert_eq!(stats.get("plan_cache_misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("plan_cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("plan_cache_len").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("plan_cache_evictions").unwrap().as_u64(), Some(0));
        // BELL is a bare Bell pair: nothing for the fuser to decline.
        assert_eq!(stats.get("plan_fusion_declined").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn metrics_op_returns_a_registry_snapshot() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let reply = parse(&server.handle_line(&submit_line(64, 71)));
        let id = reply.get("job").unwrap().as_u64().unwrap();
        server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"));
        let snapshot = parse(&server.handle_line("{\"op\":\"metrics\"}"));
        assert_eq!(snapshot.get("ok"), Some(&Json::Bool(true)));
        let metrics = snapshot.get("metrics").unwrap().as_obj().unwrap();
        // The registry is process-wide, so concurrent tests may have
        // added more — assert presence and a lower bound, not equality.
        let executed = metrics.get("serve.executed").unwrap().as_u64().unwrap();
        assert!(executed >= 1, "serve.executed = {executed}");
        let submit_us = metrics.get("serve.submit_us").unwrap();
        assert!(submit_us.get("count").unwrap().as_u64().unwrap() >= 1);
        assert!(metrics.contains_key("exec.jobs"), "{metrics:?}");
    }

    #[test]
    fn shutdown_drains_and_refuses_new_work() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let accepted = parse(&server.handle_line(&submit_line(128, 1)));
        let id = accepted.get("job").unwrap().as_u64().unwrap();
        let bye = parse(&server.handle_line("{\"op\":\"shutdown\"}"));
        assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
        let refused = parse(&server.handle_line(&submit_line(128, 2)));
        assert_eq!(
            refused.get("error").unwrap().as_str(),
            Some("shutting_down")
        );
        // The already-accepted job still completes.
        let result = parse(
            &server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")),
        );
        assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
    }

    /// Runs `input` through [`Server::serve_lines`] and returns the
    /// parsed replies.
    fn serve_stdio(input: Vec<u8>) -> Vec<Json> {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut output = Vec::new();
        server
            .serve_lines(std::io::Cursor::new(input), &mut output)
            .unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(parse)
            .collect()
    }

    #[test]
    fn over_long_and_non_utf8_lines_are_refused_and_serving_goes_on() {
        let mut input = vec![b'x'; MAX_LINE_BYTES + 1000];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"stats\xff\"}\n");
        input.extend_from_slice(submit_line(16, 3).as_bytes());
        input.push(b'\n');
        let replies = serve_stdio(input);
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert_eq!(
            replies[0].get("error").unwrap().as_str(),
            Some("line_too_long")
        );
        assert_eq!(
            replies[0].get("limit").unwrap().as_u64(),
            Some(MAX_LINE_BYTES as u64)
        );
        assert_eq!(
            replies[1].get("error").unwrap().as_str(),
            Some("bad_request")
        );
        assert_eq!(replies[2].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(replies[2].get("status").unwrap().as_str(), Some("queued"));
    }

    #[test]
    fn the_line_cap_is_inclusive() {
        let padded = |len: usize| {
            let mut line = b"{\"op\":\"stats\"}".to_vec();
            line.resize(len, b' ');
            line.push(b'\n');
            line
        };
        let mut input = padded(MAX_LINE_BYTES);
        input.extend(padded(MAX_LINE_BYTES + 1));
        // An over-long final line with no newline is refused too.
        input.extend(vec![b'y'; MAX_LINE_BYTES + 1]);
        let replies = serve_stdio(input);
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert_eq!(replies[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            replies[1].get("error").unwrap().as_str(),
            Some("line_too_long")
        );
        assert_eq!(
            replies[2].get("error").unwrap().as_str(),
            Some("line_too_long")
        );
    }

    /// A reader that yields its chunks in order, an `Err` chunk as a
    /// `WouldBlock` read error (a read timeout on the TCP transport).
    struct Stuttering(VecDeque<Option<&'static [u8]>>);

    impl Read for Stuttering {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Some(chunk)) => {
                    buf[..chunk.len()].copy_from_slice(chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    #[test]
    fn a_line_split_by_a_read_timeout_is_resumed() {
        let input = Stuttering(VecDeque::from([
            Some(&b"{\"op\":"[..]),
            None,
            Some(&b"\"stats\"}\nlast"[..]),
        ]));
        let mut reader = LineReader::new(BufReader::new(input));
        let timeout = reader.next_line().unwrap_err();
        assert_eq!(timeout.kind(), std::io::ErrorKind::WouldBlock);
        let line = reader.next_line().unwrap().unwrap().unwrap();
        assert_eq!(line, "{\"op\":\"stats\"}");
        assert_eq!(reader.next_line().unwrap().unwrap().unwrap(), "last");
        assert!(reader.next_line().unwrap().is_none());
    }
}
