//! The shard coordinator: spawns workers, deals ranges, merges results.
//!
//! Topology: the coordinator self-execs N copies of its own binary in
//! `--worker` mode and speaks the [`crate::proto`] line protocol over
//! each worker's stdio pipes. Worker `I` is dealt range `I` first, so
//! every spawned worker gets work however late its supervisor thread is
//! scheduled; a shared deque of the remaining range assignments then
//! feeds one supervisor thread per worker. Results land in per-range
//! slots and are folded **in range order** once everything is in, so the
//! merged report never depends on which worker finished first.
//!
//! Failure semantics: a worker that dies (EOF/broken pipe) or misses the
//! per-range deadline is killed and its in-flight range is requeued for
//! one more attempt ([`MAX_ATTEMPTS`] total); a second failure of the
//! same range is a typed [`ShardError::RangeFailed`]. The pool shrinks
//! rather than respawns — if every worker dies with work outstanding the
//! run fails with [`ShardError::WorkersExhausted`]. Worker-reported
//! workload failures are deterministic and fail the run immediately.

use crate::error::{ShardError, MAX_ATTEMPTS};
use crate::proto::{FromWorker, ToWorker};
use crate::workload::{ShardReport, WorkloadSpec};
use qugen_telemetry::metrics::{self as tmetrics, Counter, Histogram};
use qugen_telemetry::trace;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Registry handles for the shard layer, interned once.
struct ShardMetrics {
    ranges: &'static Counter,
    requeues: &'static Counter,
    range_us: &'static Histogram,
}

fn shard_metrics() -> &'static ShardMetrics {
    static METRICS: OnceLock<ShardMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ShardMetrics {
        ranges: tmetrics::counter("shard.ranges"),
        requeues: tmetrics::counter("shard.requeues"),
        range_us: tmetrics::histogram("shard.range_us"),
    })
}

/// One worker's share of a sharded run (supervisor-side timing, so a
/// range's duration includes the pipe round trip, not just compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker rank (index into the spawned pool).
    pub rank: usize,
    /// Ranges this worker completed.
    pub ranges: u64,
    /// Total µs this worker spent on completed ranges.
    pub total_us: u64,
}

/// Timing and fault telemetry for one sharded run — the coordinator's
/// view of load balance: `max_range_us` names the straggler cost and
/// `requeues` the fault-recovery churn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Ranges completed (counting duplicates from requeued attempts).
    pub ranges: u64,
    /// Assignments put back after a worker died or missed its deadline.
    pub requeues: u64,
    /// Fastest completed range, µs (0 when nothing completed).
    pub min_range_us: u64,
    /// Slowest completed range, µs — the straggler.
    pub max_range_us: u64,
    /// Per-rank completion counts and cumulative time.
    pub per_worker: Vec<WorkerStats>,
}

/// Run-local accumulator behind one mutex; supervisors touch it once per
/// range, so contention is nil next to the process pipes.
struct StatsAccum {
    requeues: u64,
    min_range_us: u64,
    max_range_us: u64,
    per_worker: Vec<WorkerStats>,
}

/// How a sharded run is shaped.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker processes to spawn (clamped to ≥ 1).
    pub workers: usize,
    /// Units per range handed to a worker at a time (clamped to ≥ 1).
    /// Small ranges load-balance better; 1 is the default.
    pub range_size: usize,
    /// Per-range response deadline; a worker that blows it is killed and
    /// its range reassigned.
    pub timeout: Duration,
    /// Worker binary to exec; `None` means the current executable
    /// (tests and benches point this at `CARGO_BIN_EXE_qugen-shard`).
    pub worker_binary: Option<PathBuf>,
    /// Extra environment for workers (the fault-injection test hooks
    /// ride in here so nothing leaks through the coordinator's env).
    pub worker_env: Vec<(String, String)>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 4,
            range_size: 1,
            timeout: Duration::from_secs(300),
            worker_binary: None,
            worker_env: Vec::new(),
        }
    }
}

/// One entry in the work deque.
#[derive(Debug, Clone, Copy)]
struct Assignment {
    range_id: usize,
    attempt: u32,
}

/// Coordinator state shared by the supervisor threads.
struct Shared {
    ranges: Vec<(usize, usize)>,
    queue: Mutex<VecDeque<Assignment>>,
    /// Wakes idle supervisors when work is requeued or the run ends.
    wake: Condvar,
    slots: Vec<Mutex<Option<Vec<Vec<u64>>>>>,
    remaining: AtomicUsize,
    error: Mutex<Option<ShardError>>,
    stats: Mutex<StatsAccum>,
}

impl Shared {
    fn failed(&self) -> bool {
        self.error.lock().expect("error slot poisoned").is_some()
    }

    fn fail(&self, e: ShardError) {
        let mut slot = self.error.lock().expect("error slot poisoned");
        // First failure wins; later ones are usually its echoes.
        slot.get_or_insert(e);
        drop(slot);
        self.wake.notify_all();
    }

    fn done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Blocks until there is an assignment, or returns `None` when the
    /// run is over (all results in, or failed).
    fn next_assignment(&self) -> Option<Assignment> {
        let mut queue = self.queue.lock().expect("queue poisoned");
        loop {
            if self.done() || self.failed() {
                return None;
            }
            if let Some(a) = queue.pop_front() {
                return Some(a);
            }
            // Timed wait: also catches the no-notify case where the last
            // live peer dies without requeueing anything.
            let (guard, _) = self
                .wake
                .wait_timeout(queue, Duration::from_millis(50))
                .expect("queue poisoned");
            queue = guard;
        }
    }

    /// Records a completed range (idempotent against stale duplicates).
    fn complete(&self, range_id: usize, rows: Vec<Vec<u64>>) {
        let mut slot = self.slots[range_id].lock().expect("slot poisoned");
        if slot.is_none() {
            *slot = Some(rows);
            self.remaining.fetch_sub(1, Ordering::AcqRel);
        }
        drop(slot);
        self.wake.notify_all();
    }

    /// Puts a failed assignment back for one more attempt, or poisons
    /// the run when the attempt budget is spent.
    fn requeue(&self, a: Assignment) {
        if self.slots[a.range_id]
            .lock()
            .expect("slot poisoned")
            .is_some()
        {
            return; // A duplicate already completed it.
        }
        if a.attempt + 1 >= MAX_ATTEMPTS {
            let (start, end) = self.ranges[a.range_id];
            self.fail(ShardError::RangeFailed {
                range_id: a.range_id,
                start,
                end,
                attempts: MAX_ATTEMPTS,
            });
            return;
        }
        self.queue
            .lock()
            .expect("queue poisoned")
            .push_back(Assignment {
                range_id: a.range_id,
                attempt: a.attempt + 1,
            });
        shard_metrics().requeues.inc();
        self.stats.lock().expect("stats poisoned").requeues += 1;
        trace::event(
            "shard",
            "requeue",
            &[
                ("range_id", a.range_id as i128),
                ("attempt", (a.attempt + 1) as i128),
            ],
        );
        self.wake.notify_all();
    }

    /// Records one completed range's supervisor-side duration for `rank`.
    fn record_range(&self, rank: usize, dur_us: u64) {
        let m = shard_metrics();
        m.ranges.inc();
        m.range_us.record(dur_us);
        let mut stats = self.stats.lock().expect("stats poisoned");
        stats.min_range_us = stats.min_range_us.min(dur_us);
        stats.max_range_us = stats.max_range_us.max(dur_us);
        let w = &mut stats.per_worker[rank];
        w.ranges += 1;
        w.total_us += dur_us;
    }
}

/// A spawned worker plus the plumbing to talk to it.
struct WorkerHandle {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<std::io::Result<String>>,
}

impl WorkerHandle {
    fn spawn(rank: usize, spec: &WorkloadSpec, config: &ShardConfig) -> Result<Self, ShardError> {
        let binary = match &config.worker_binary {
            Some(path) => path.clone(),
            None => std::env::current_exe()
                .map_err(|e| ShardError::Spawn(format!("cannot locate own binary: {e}")))?,
        };
        let mut command = Command::new(binary);
        command
            .arg("--worker")
            .arg("--rank")
            .arg(rank.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in &config.worker_env {
            command.env(key, value);
        }
        let mut child = command
            .spawn()
            .map_err(|e| ShardError::Spawn(format!("worker {rank}: {e}")))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        // A dedicated reader thread turns the blocking pipe into a
        // channel so the supervisor can wait with a deadline; it exits on
        // EOF (dropping the sender, which the supervisor sees as death).
        let (sender, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                if sender.send(line).is_err() {
                    break;
                }
            }
        });
        // The init/ready handshake happens under the same deadline as
        // ranges: a worker that can't start is dead on arrival.
        let mut handle = WorkerHandle {
            child,
            stdin,
            lines,
        };
        handle
            .send(&ToWorker::Init { spec: spec.clone() })
            .map_err(|e| ShardError::Spawn(format!("worker {rank}: init: {e}")))?;
        match handle.recv(config.timeout) {
            Ok(FromWorker::Ready { rank: reported }) if reported == rank => Ok(handle),
            Ok(other) => {
                handle.kill();
                Err(ShardError::Spawn(format!(
                    "worker {rank}: bad handshake reply {other:?}"
                )))
            }
            Err(e) => {
                handle.kill();
                Err(ShardError::Spawn(format!("worker {rank}: handshake: {e}")))
            }
        }
    }

    fn send(&mut self, message: &ToWorker) -> std::io::Result<()> {
        let mut line = message.encode();
        line.push('\n');
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.flush()
    }

    /// Waits for one worker line. `Err` means death or deadline.
    fn recv(&mut self, timeout: Duration) -> Result<FromWorker, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(Ok(line)) => FromWorker::parse(&line).map_err(|e| e.to_string()),
            Ok(Err(e)) => Err(format!("pipe error: {e}")),
            Err(RecvTimeoutError::Timeout) => Err("deadline exceeded".into()),
            Err(RecvTimeoutError::Disconnected) => Err("worker exited".into()),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Drives one worker, starting with its dealt `first` range, until the
/// run completes, fails, or the worker dies.
fn supervise(
    rank: usize,
    first: Option<Assignment>,
    worker: &mut WorkerHandle,
    shared: &Shared,
    timeout: Duration,
) {
    let mut dealt = first;
    while let Some(assignment) = dealt.take().or_else(|| shared.next_assignment()) {
        let (start, end) = shared.ranges[assignment.range_id];
        // The span covers send → compute → recv; failure arms `return`,
        // so it still emits (without `ok`) when the worker dies mid-range.
        let span = trace::span("shard", "range")
            .int("rank", rank as i128)
            .int("range_id", assignment.range_id as i128)
            .int("start", start as i128)
            .int("end", end as i128)
            .int("attempt", assignment.attempt as i128);
        let started = Instant::now();
        if worker
            .send(&ToWorker::Range {
                id: assignment.range_id,
                start,
                end,
            })
            .is_err()
        {
            // Broken pipe: the worker is gone before it saw the range.
            worker.kill();
            shared.requeue(assignment);
            return;
        }
        match worker.recv(timeout) {
            Ok(FromWorker::Rows { id, rows }) if id == assignment.range_id => {
                let dur_us = started.elapsed().as_micros() as u64;
                shared.complete(id, rows);
                shared.record_range(rank, dur_us);
                span.int("ok", 1).finish();
            }
            Ok(FromWorker::Rows { id, .. }) => {
                worker.kill();
                shared.fail(ShardError::Protocol(format!(
                    "worker {rank} answered range {} with rows for {id}",
                    assignment.range_id
                )));
                return;
            }
            Ok(FromWorker::Ready { .. }) => {
                worker.kill();
                shared.fail(ShardError::Protocol(format!(
                    "worker {rank} sent a second handshake"
                )));
                return;
            }
            Ok(FromWorker::Failed { message }) => {
                // Deterministic failure: reassignment would just repeat it.
                worker.kill();
                shared.fail(ShardError::Workload(format!("worker {rank}: {message}")));
                return;
            }
            Err(_) => {
                // Death or deadline: reclaim the range, drop the worker.
                worker.kill();
                shared.requeue(assignment);
                return;
            }
        }
    }
    // Run is over (completed or failed elsewhere): ask for a clean exit.
    let _ = worker.send(&ToWorker::Exit);
    let _ = worker.child.wait();
}

/// Runs `spec` sharded over worker processes and merges the results.
///
/// The merged [`ShardReport`] is bit-identical to
/// [`WorkloadSpec::run_serial`] for every worker count, range size and
/// completion order — sharding here is a throughput lever, never an
/// accuracy trade.
pub fn run_sharded(spec: &WorkloadSpec, config: &ShardConfig) -> Result<ShardReport, ShardError> {
    run_sharded_with_stats(spec, config).map(|(report, _)| report)
}

/// [`run_sharded`] plus the run's [`ShardStats`]: per-worker range
/// counts and cumulative time, requeue churn, and the straggler
/// (min/max completed-range duration). The report half is identical to
/// what [`run_sharded`] returns.
///
/// # Errors
///
/// Exactly [`run_sharded`]'s — a failed run yields no stats.
pub fn run_sharded_with_stats(
    spec: &WorkloadSpec,
    config: &ShardConfig,
) -> Result<(ShardReport, ShardStats), ShardError> {
    spec.validate()?;
    let ranges = qeval::report::partition_ranges(spec.units(), config.range_size);
    let workers = config.workers.max(1).min(ranges.len().max(1));

    let mut queue: VecDeque<Assignment> = (0..ranges.len())
        .map(|range_id| Assignment {
            range_id,
            attempt: 0,
        })
        .collect();
    // Deal one range per worker up front: with a shared queue alone, the
    // first supervisor can drain a grid of fast ranges before a later one
    // is scheduled, leaving that worker idle for the whole run.
    let dealt: Vec<Option<Assignment>> = (0..workers).map(|_| queue.pop_front()).collect();
    let shared = Shared {
        queue: Mutex::new(queue),
        wake: Condvar::new(),
        slots: ranges.iter().map(|_| Mutex::new(None)).collect(),
        remaining: AtomicUsize::new(ranges.len()),
        error: Mutex::new(None),
        stats: Mutex::new(StatsAccum {
            requeues: 0,
            min_range_us: u64::MAX,
            max_range_us: 0,
            per_worker: (0..workers)
                .map(|rank| WorkerStats {
                    rank,
                    ranges: 0,
                    total_us: 0,
                })
                .collect(),
        }),
        ranges,
    };

    // Spawn first, supervise after: a spawn failure aborts the run before
    // any range is handed out.
    let mut handles = Vec::with_capacity(workers);
    for rank in 0..workers {
        match WorkerHandle::spawn(rank, spec, config) {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                for handle in &mut handles {
                    handle.kill();
                }
                return Err(e);
            }
        }
    }

    std::thread::scope(|scope| {
        for ((rank, worker), first) in handles.iter_mut().enumerate().zip(dealt) {
            let shared = &shared;
            scope.spawn(move || supervise(rank, first, worker, shared, config.timeout));
        }
    });

    if let Some(e) = shared.error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let unfinished = shared.remaining.load(Ordering::Acquire);
    if unfinished > 0 {
        return Err(ShardError::WorkersExhausted { unfinished });
    }
    let rows = shared
        .slots
        .into_iter()
        .flat_map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("remaining hit zero, so every slot is filled")
        })
        .collect();
    let accum = shared.stats.into_inner().expect("stats poisoned");
    let stats = ShardStats {
        ranges: accum.per_worker.iter().map(|w| w.ranges).sum(),
        requeues: accum.requeues,
        min_range_us: if accum.min_range_us == u64::MAX {
            0
        } else {
            accum.min_range_us
        },
        max_range_us: accum.max_range_us,
        per_worker: accum.per_worker,
    };
    spec.merge(rows).map(|report| (report, stats))
}
