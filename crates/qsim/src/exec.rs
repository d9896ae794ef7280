//! Circuit execution: shots, trajectories, conditionals, backend dispatch
//! and multi-threaded shot scheduling.
//!
//! # One scheduler
//!
//! Every job runs on one shot scheduler. [`Executor::try_run`] and
//! [`Executor::try_run_job`] hand it a batch of one; a pooled
//! [`Executor::try_run_batch`] hands it every job at once. A job is first
//! *prepared* — its backend resolved and, on the sampling fast path, its
//! unitary prefix evolved once — and its shots are then split into
//! [`SHOT_CHUNK`]-sized chunks. Workers drain one global `(job, chunk)`
//! queue, build a job's simulation context lazily on their first chunk of
//! it, and fold their counts into the job's tally when they retire. With
//! one worker the queue drains inline on the calling thread.
//!
//! # Shot sources
//!
//! Preparing a job picks how its shots are produced, exhaustively by
//! engine: dense jobs sample a measure-at-end prefix or walk a
//! [`CircuitPlan`] per shot (fused when noiseless,
//! [`CircuitPlan::compile_noisy`] under noise); tableau jobs propagate a
//! Pauli frame ([`crate::frame`]) or, when a conditioned non-Pauli gate
//! rules that out, step a [`StabilizerSim`] per shot.
//!
//! # Shot chunking and determinism
//!
//! Chunk `i` of a job draws from its own RNG seeded with
//! [`derive_seed`]`(seed, i)`, and each worker's [`Counts`] are merged by
//! commutative outcome-wise addition. Because the partition and the seeds
//! depend only on the job's `(shots, seed)` — never on thread scheduling,
//! merge order, or which other jobs share the queue — a run with
//! [`ExecutorConfig::threads`]`(n)` is bit-identical to the
//! single-threaded run for every `n`, and a pooled job is bit-identical to
//! running it alone.

use crate::backend::{self, BackendChoice, BackendKind, SimError};
use crate::dist::{Counts, Distribution};
use crate::frame::{FrameProgram, PauliFrame, WordFrame};
use crate::job::JobSpec;
use crate::lru::lock;
use crate::noise::NoiseModel;
use crate::plan::{self, CircuitPlan, PlanCache, PlanCacheStats};
use crate::stabilizer::StabilizerSim;
use crate::state::StateVector;
use crate::word::{OutcomeWord, ParityMap};
use qcir::circuit::{Circuit, Op};
use qugen_telemetry::metrics::{self as tmetrics, Counter, Histogram};
use qugen_telemetry::trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Interned registry handles for the executor layer: per-job wall time by
/// resolved backend and shot/chunk volume.
struct ExecMetrics {
    jobs: &'static Counter,
    job_failures: &'static Counter,
    shots: &'static Counter,
    chunks: &'static Counter,
    batches: &'static Counter,
    /// Exact (probability-vector) distribution computations; sampled
    /// fallbacks count as ordinary jobs instead.
    distributions: &'static Counter,
    job_us_dense: &'static Histogram,
    job_us_tableau: &'static Histogram,
}

impl ExecMetrics {
    fn job_us(&self, kind: BackendKind) -> &'static Histogram {
        match kind {
            BackendKind::Dense => self.job_us_dense,
            BackendKind::Tableau => self.job_us_tableau,
        }
    }
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ExecMetrics {
        jobs: tmetrics::counter("exec.jobs"),
        job_failures: tmetrics::counter("exec.job_failures"),
        shots: tmetrics::counter("exec.shots"),
        chunks: tmetrics::counter("exec.chunks"),
        batches: tmetrics::counter("exec.batches"),
        distributions: tmetrics::counter("exec.distributions"),
        job_us_dense: tmetrics::histogram("exec.job_us.dense"),
        job_us_tableau: tmetrics::histogram("exec.job_us.tableau"),
    })
}

/// Shots per RNG chunk (see the module docs on determinism).
pub const SHOT_CHUNK: u64 = 1024;

/// Shots used by the sampled [`Executor::ideal_distribution`] fallback.
const DISTRIBUTION_SHOTS: u64 = 16_384;

/// A reasonable worker count for parallel shot execution on this host.
///
/// Results never depend on the thread count (see the module docs), so this
/// is purely a throughput knob.
pub fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How an executor sources its compiled-plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanCacheMode {
    /// Share the process-wide [`plan::shared_cache`] (the default): even
    /// short-lived executors — the grader builds a fresh one per call —
    /// reuse warm plans.
    #[default]
    Shared,
    /// A private LRU of [`plan::PLAN_CACHE_CAPACITY`] plans per built
    /// executor, for benchmarks and tests that need cold-start compile
    /// behavior on demand.
    Private,
}

/// Typed executor configuration: every knob in one place, replacing the
/// accreting `with_*` builder chain on [`Executor`] itself.
///
/// All fields are public and `Default` matches [`Executor::ideal`], so
/// struct-update syntax and the chainable setters compose:
///
/// ```
/// use qsim::backend::BackendChoice;
/// use qsim::exec::ExecutorConfig;
///
/// let exec = ExecutorConfig::new()
///     .backend(BackendChoice::Dense)
///     .threads(4)
///     .build();
/// assert_eq!(exec.config().threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Noise model applied per gate/idle/readout (default: ideal).
    pub noise: NoiseModel,
    /// Backend dispatch choice (default: [`BackendChoice::Auto`]). Jobs
    /// may override it per spec ([`JobSpec::with_backend`]).
    pub backend: BackendChoice,
    /// Worker threads for shot execution (clamped to ≥ 1 at build time).
    /// Results never depend on this; see the module docs.
    pub threads: usize,
    /// Compiled-plan cache mode (default: the shared process-wide LRU).
    pub plan_cache: PlanCacheMode,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            noise: NoiseModel::ideal(),
            backend: BackendChoice::Auto,
            threads: 1,
            plan_cache: PlanCacheMode::Shared,
        }
    }
}

impl ExecutorConfig {
    /// The default configuration (ideal noise, auto backend, one thread).
    pub fn new() -> Self {
        ExecutorConfig::default()
    }

    /// Sets the noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the backend dispatch choice.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the compiled-plan cache mode.
    pub fn plan_cache(mut self, mode: PlanCacheMode) -> Self {
        self.plan_cache = mode;
        self
    }

    /// Builds the executor.
    pub fn build(self) -> Executor {
        Executor::new(self)
    }
}

/// Executes circuits against a noise model on an automatically or
/// explicitly chosen simulation backend.
///
/// For noiseless circuits whose measurements all come last on the dense
/// backend, the executor evolves the state once and samples outcomes from
/// the exact distribution; otherwise it runs one Monte-Carlo trajectory per
/// shot (required for mid-circuit measurement, conditionals, resets and
/// noise). Clifford circuits dispatch to the stabilizer tableau per the
/// rules in [`crate::backend`], which keeps large QEC workloads polynomial;
/// there the tableau runs once per job and each shot propagates a Pauli
/// frame ([`crate::frame`]), with outcomes bit-identical to running every
/// shot on the tableau.
#[derive(Debug, Clone)]
pub struct Executor {
    config: ExecutorConfig,
    /// Compiled-plan LRU driving the noiseless dense paths. Under
    /// [`PlanCacheMode::Shared`] this is the process-wide
    /// [`plan::shared_cache`]; clones share the same cache either way.
    plan_cache: Arc<Mutex<PlanCache>>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::ideal()
    }
}

impl Executor {
    /// Builds an executor from a typed configuration (the threads field is
    /// clamped to ≥ 1).
    pub fn new(mut config: ExecutorConfig) -> Self {
        config.threads = config.threads.max(1);
        let plan_cache = match config.plan_cache {
            PlanCacheMode::Shared => plan::shared_cache(),
            PlanCacheMode::Private => {
                Arc::new(Mutex::new(PlanCache::new(plan::PLAN_CACHE_CAPACITY)))
            }
        };
        Executor { config, plan_cache }
    }

    /// A noiseless executor (auto backend, single-threaded) — shorthand
    /// for `ExecutorConfig::new().build()`.
    pub fn ideal() -> Self {
        ExecutorConfig::new().build()
    }

    /// An executor with the given noise model — shorthand for
    /// `ExecutorConfig::new().noise(noise).build()`.
    pub fn with_noise(noise: NoiseModel) -> Self {
        ExecutorConfig::new().noise(noise).build()
    }

    /// The active configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// The cached compiled plan for `circuit` (compiling on first sight).
    pub fn plan_for(&self, circuit: &Circuit) -> Arc<CircuitPlan> {
        PlanCache::get_or_compile(&self.plan_cache, circuit)
    }

    /// A snapshot of this executor's plan cache counters. With
    /// [`PlanCacheMode::Shared`] (the default) these cover every sharing
    /// executor in the process, not just this one.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        lock(&self.plan_cache).stats()
    }

    /// Runs `shots` shots with a deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when no admissible backend can run the
    /// circuit (qubit caps, or non-Clifford gates on a forced tableau) —
    /// conditions the pre-backend-layer API turned into panics.
    /// Classical-register width is unbounded: outcomes are multi-word.
    pub fn try_run(&self, circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, SimError> {
        let task = self.prepare(circuit, shots, seed, self.config.backend)?;
        self.run_solo(task)
    }

    /// [`Executor::try_run`] with every shot's outcome projected through
    /// `parities` before it is tallied: the counts are keyed by projected
    /// words, bit `j` the XOR of the clbits parity `j` lists. The shots are
    /// the ones `try_run` takes, bit for bit, on the same scheduler and
    /// with the same telemetry; only what each worker records differs.
    /// Projecting on the workers keeps their tables as small as the number
    /// of distinct parity patterns, which for detectors of a
    /// low-noise QEC circuit is far below the number of distinct outcomes.
    ///
    /// # Errors
    ///
    /// Exactly [`Executor::try_run`]'s.
    ///
    /// # Panics
    ///
    /// Panics when `parities` was built for a register other than the
    /// circuit's.
    pub fn try_run_parities(
        &self,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
        parities: &ParityMap,
    ) -> Result<Counts, SimError> {
        assert_eq!(
            parities.num_clbits(),
            circuit.num_clbits(),
            "parity map and circuit disagree on the register width"
        );
        let task = self.prepare(circuit, shots, seed, self.config.backend)?;
        self.run_solo(Task {
            parities: Some(parities),
            ..task
        })
    }

    /// Runs one [`JobSpec`], honoring its per-job backend override
    /// (falling back to this executor's configuration). Equivalent to
    /// [`Executor::try_run`] when the spec carries no override.
    pub fn try_run_job(&self, spec: &JobSpec) -> Result<Counts, SimError> {
        self.run_solo(self.prepare_job(spec)?)
    }

    /// Runs a batch of [`JobSpec`]s, resolving each job's backend once and
    /// driving every job's shot chunks through one shared worker pool — so
    /// a suite of small jobs amortizes thread spin-up instead of paying it
    /// per circuit, and a straggler job keeps all workers busy rather than
    /// serializing behind it. Per-job backend overrides are honored, so
    /// heterogeneous batches share one pool.
    ///
    /// Each job's counts are bit-identical to running
    /// [`Executor::try_run_job`] on it alone, for every thread count: chunk
    /// seeds depend only on the job's own `(seed, chunk index)` and merges
    /// are commutative.
    pub fn try_run_batch(&self, specs: &[JobSpec]) -> Vec<Result<Counts, SimError>> {
        if self.config.threads <= 1 || specs.len() <= 1 {
            return specs.iter().map(|spec| self.try_run_job(spec)).collect();
        }
        // Pooled jobs share the worker pool, so per-job wall time is
        // meaningless; the batch gets one span covering prepare + execute
        // and per-job volume counters at fold time instead.
        let m = exec_metrics();
        m.batches.inc();
        let _batch_span = trace::span("executor", "batch").int("jobs", specs.len() as i128);
        // Prefix evolution is the dominant cost of a sampling-path job (one
        // full dense pass over the circuit), so jobs prepare on the pool
        // too; each prepare is deterministic in isolation.
        let slots: Vec<Mutex<Option<Result<Task, SimError>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        on_workers(self.config.threads.min(specs.len()), || loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = specs.get(t) else { break };
            *lock(&slots[t]) = Some(self.prepare_job(spec));
        });
        let tasks: Vec<Result<Task, SimError>> = slots
            .iter()
            .map(|slot| lock(slot).take().expect("every job was prepared"))
            .collect();
        for task in &tasks {
            m.jobs.inc();
            if let Ok(task) = task {
                m.shots.add(task.shots);
                m.chunks.add(task.shots.div_ceil(SHOT_CHUNK));
            }
        }
        let results = self.schedule(tasks);
        m.job_failures
            .add(results.iter().filter(|result| result.is_err()).count() as u64);
        results
    }

    /// Resolves one job's backend and evolves its fast-path prefix.
    /// `choice` is the job's *effective* backend choice (per-job override
    /// already folded in).
    fn prepare<'c>(
        &self,
        circuit: &'c Circuit,
        shots: u64,
        seed: u64,
        choice: BackendChoice,
    ) -> Result<Task<'c>, SimError> {
        let kind = backend::resolve(choice, circuit)?;
        let noisy = self.config.noise.is_noisy();
        let source = match kind {
            BackendKind::Dense if !noisy && measures_only_at_end(circuit) => {
                let plan = self.plan_for(circuit);
                let mut sv = StateVector::zero(circuit.num_qubits());
                plan.apply_unitary(&mut sv);
                ShotSource::Sampling {
                    state: sv,
                    measure_map: plan.measure_map().to_vec(),
                }
            }
            // Every other dense job walks a cached plan per shot: the fused
            // plan when noiseless (mid-circuit measurement, conditionals or
            // resets), else the unfused noisy plan — bit-identical (state,
            // clbits, RNG stream) to per-gate dispatch, minus the per-shot
            // classification cost. Fusion would reassociate the noise
            // channels, so noisy plans precompile dispatch, not algebra.
            BackendKind::Dense if noisy => ShotSource::Planned {
                plan: PlanCache::get_or_compile_noisy(
                    &self.plan_cache,
                    circuit,
                    &self.config.noise,
                ),
            },
            BackendKind::Dense => ShotSource::Planned {
                plan: self.plan_for(circuit),
            },
            // Clifford circuits on the tableau: one reference pass, then a
            // Pauli frame per shot, bit-identical to per-shot tableau runs.
            // A conditioned non-Pauli gate keeps the per-shot tableau.
            BackendKind::Tableau => match FrameProgram::compile(circuit) {
                Some(program) => ShotSource::Frame { program },
                None => ShotSource::Trajectory {
                    circuit,
                    sim: StabilizerSim::new(circuit.num_qubits()),
                },
            },
        };
        Ok(Task {
            source,
            kind,
            num_clbits: circuit.num_clbits(),
            parities: None,
            shots,
            seed,
        })
    }

    /// [`Executor::prepare`] with a spec's effective backend.
    fn prepare_job<'c>(&self, spec: &'c JobSpec) -> Result<Task<'c>, SimError> {
        self.prepare(
            spec.circuit(),
            spec.shots(),
            spec.seed(),
            spec.effective_backend(self.config.backend),
        )
    }

    /// Runs one prepared job as a batch of one, with telemetry: wall time
    /// into the backend's `exec.job_us.*` histogram, shot/chunk volume, and
    /// one `executor/job` trace span. With metrics and tracing both off
    /// this is two relaxed atomic loads and a tail call — no clock read.
    fn run_solo(&self, task: Task) -> Result<Counts, SimError> {
        let run = |task| {
            self.schedule(vec![Ok(task)])
                .pop()
                .expect("one job in, one result out")
        };
        if !tmetrics::enabled() && !trace::enabled() {
            return run(task);
        }
        let (kind, shots) = (task.kind, task.shots);
        let chunks = shots.div_ceil(SHOT_CHUNK);
        let span = trace::span("executor", "job")
            .label("backend", kind.name())
            .label("source", task.source.name())
            .int("shots", shots as i128)
            .int("chunks", chunks as i128);
        let start = Instant::now();
        let result = run(task);
        let dur_us = start.elapsed().as_micros() as u64;
        let m = exec_metrics();
        m.jobs.inc();
        m.shots.add(shots);
        m.chunks.add(chunks);
        m.job_us(kind).record(dur_us);
        if result.is_err() {
            m.job_failures.inc();
        }
        span.int("ok", result.is_ok() as i128).finish();
        result
    }

    /// The shot scheduler every job runs on. All prepared jobs' chunks go
    /// into one global `(job, chunk)` queue that up to
    /// [`ExecutorConfig::threads`] workers drain (inline when one worker
    /// suffices). A worker builds its simulation context for a job lazily,
    /// on its first chunk of that job, and keeps counts per job locally;
    /// when the queue is empty it retires, folding its counts into the
    /// job's tally. Jobs that failed to prepare pass through as their
    /// error.
    fn schedule(&self, tasks: Vec<Result<Task, SimError>>) -> Vec<Result<Counts, SimError>> {
        let items: Vec<(usize, u64)> = tasks
            .iter()
            .enumerate()
            .filter_map(|(t, task)| Some((t, task.as_ref().ok()?.shots.div_ceil(SHOT_CHUNK))))
            .flat_map(|(t, chunks)| (0..chunks).map(move |c| (t, c)))
            .collect();
        let tallies: Vec<Mutex<Option<Counts>>> = tasks.iter().map(|_| Mutex::default()).collect();
        let next = AtomicUsize::new(0);
        on_workers(self.config.threads.min(items.len()), || {
            let mut local: Vec<Option<(WorkerCtx, Counts)>> = tasks.iter().map(|_| None).collect();
            while let Some(&(t, chunk)) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                let Ok(task) = &tasks[t] else {
                    unreachable!("only prepared jobs enqueue chunks")
                };
                let (ctx, counts) =
                    local[t].get_or_insert_with(|| (task.worker_ctx(), task.empty_counts()));
                self.run_chunk(task, ctx, chunk, counts);
            }
            for (tally, slot) in tallies.iter().zip(local) {
                if let Some((_, counts)) = slot {
                    match &mut *lock(tally) {
                        Some(total) => total.merge(&counts),
                        empty => *empty = Some(counts),
                    }
                }
            }
        });
        tasks
            .into_iter()
            .zip(&tallies)
            .map(|(task, tally)| {
                let task = task?;
                Ok(lock(tally).take().unwrap_or_else(|| task.empty_counts()))
            })
            .collect()
    }

    /// Runs chunk `chunk` of `task` on a worker's context with the chunk's
    /// derived RNG, recording every shot into `counts` (projected first
    /// when the job has a [`ParityMap`]). This holds the executor's one
    /// per-shot loop; it is generic over the shot so the shot source is
    /// matched once per chunk rather than once per shot. The outcome
    /// scratch words are reused across the chunk, so ≤ 64-bit registers
    /// record without heap allocation.
    fn run_chunk(&self, task: &Task, ctx: &mut WorkerCtx, chunk: u64, counts: &mut Counts) {
        fn record(
            shots: u64,
            rng: &mut StdRng,
            parities: Option<&ParityMap>,
            counts: &mut Counts,
            mut shot: impl FnMut(&mut StdRng, &mut OutcomeWord),
        ) {
            let (mut word, mut projected) = (OutcomeWord::zero(), OutcomeWord::zero());
            for _ in 0..shots {
                shot(rng, &mut word);
                match parities {
                    Some(map) => {
                        map.project(&word, &mut projected);
                        counts.record_word(&projected);
                    }
                    None => counts.record_word(&word),
                }
            }
        }
        let shots = (task.shots - chunk * SHOT_CHUNK).min(SHOT_CHUNK);
        let rng = &mut StdRng::seed_from_u64(derive_seed(task.seed, chunk));
        let parities = task.parities;
        match (&task.source, ctx) {
            (ShotSource::Sampling { state, measure_map }, WorkerCtx::Basis(basis)) => {
                record(shots, rng, parities, counts, |rng, word| {
                    basis.assign_u64(state.sample(rng) as u64);
                    pack_clbits(basis, measure_map, word);
                });
            }
            (ShotSource::Planned { plan }, WorkerCtx::Dense(sv)) => {
                record(shots, rng, parities, counts, |rng, word| {
                    plan.run_trajectory(sv, &self.config.noise, rng, word);
                });
            }
            (ShotSource::Frame { program }, WorkerCtx::WordFrame(frame)) => {
                record(shots, rng, parities, counts, |rng, word| {
                    program.run_shot(frame, &self.config.noise, rng, word);
                });
            }
            (ShotSource::Frame { program }, WorkerCtx::Frame(frame)) => {
                record(shots, rng, parities, counts, |rng, word| {
                    program.run_shot(frame, &self.config.noise, rng, word);
                });
            }
            (ShotSource::Trajectory { circuit, .. }, WorkerCtx::Tableau(sim)) => {
                record(shots, rng, parities, counts, |rng, word| {
                    self.trajectory(circuit, sim, rng, word);
                });
            }
            _ => unreachable!("worker contexts are built for their job's shot source"),
        }
    }

    /// One full Monte-Carlo trajectory on the tableau, writing the
    /// classical outcome into the caller's scratch word (cleared first; any
    /// register width). Gate application cannot fail: [`backend::resolve`]
    /// validated the circuit against the tableau before the first shot.
    fn trajectory(
        &self,
        circuit: &Circuit,
        state: &mut StabilizerSim,
        rng: &mut StdRng,
        clbits: &mut OutcomeWord,
    ) {
        let noise = &self.config.noise;
        state.reinit();
        clbits.clear();
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => {
                    state.apply_gate(*gate, qubits);
                    noise.for_each_gate_error(gate, qubits, rng, |q, p| {
                        state.apply_gate(p.gate(), &[q])
                    });
                }
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    if clbits.bit(*clbit) == *value {
                        state.apply_gate(*gate, qubits);
                        noise.for_each_gate_error(gate, qubits, rng, |q, p| {
                            state.apply_gate(p.gate(), &[q])
                        });
                    }
                }
                Op::Measure { qubit, clbit } => {
                    let raw = state.measure(*qubit, rng);
                    clbits.set_bit(*clbit, noise.sample_readout(raw, rng));
                }
                Op::Reset { qubit } => {
                    state.reset(*qubit, rng);
                }
                Op::Barrier { .. } => {
                    let n = circuit.num_qubits();
                    noise.for_each_idle_error(n, rng, |q, p| state.apply_gate(p.gate(), &[q]));
                }
            }
        }
    }

    /// The noiseless outcome distribution: exact for dense-sized circuits
    /// whose measurements all come last, estimated from
    /// 16384 auto-dispatched shots otherwise (mid-circuit measurement,
    /// conditionals, or Clifford circuits past the dense cap). The sampled
    /// fallback runs single-threaded; pass a worker count through
    /// [`Executor::try_ideal_distribution_threaded`] when the fallback
    /// workload is large.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when no backend can run the circuit.
    pub fn try_ideal_distribution(circuit: &Circuit, seed: u64) -> Result<Distribution, SimError> {
        Self::try_ideal_distribution_threaded(circuit, seed, 1)
    }

    /// [`Executor::try_ideal_distribution`] with a worker-thread count for
    /// the sampled fallback (results are thread-count independent; see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when no backend can run the circuit.
    pub fn try_ideal_distribution_threaded(
        circuit: &Circuit,
        seed: u64,
        threads: usize,
    ) -> Result<Distribution, SimError> {
        if measures_only_at_end(circuit) && circuit.num_qubits() <= backend::DENSE_QUBIT_CAP {
            let span = if tmetrics::enabled() || trace::enabled() {
                exec_metrics().distributions.inc();
                Some(
                    trace::span("executor", "distribution")
                        .label("backend", "exact")
                        .int("qubits", circuit.num_qubits() as i128),
                )
            } else {
                None
            };
            let plan = PlanCache::get_or_compile(&plan::shared_cache(), circuit);
            let mut sv = StateVector::zero(circuit.num_qubits());
            plan.apply_unitary(&mut sv);
            let mut dist = Distribution::new(circuit.num_clbits());
            let (mut basis_word, mut word) = (OutcomeWord::zero(), OutcomeWord::zero());
            for (basis, p) in sv.probabilities().into_iter().enumerate() {
                if p <= 1e-15 {
                    continue;
                }
                basis_word.assign_u64(basis as u64);
                pack_clbits(&basis_word, plan.measure_map(), &mut word);
                let existing = dist.get_word(&word);
                dist.set(word.clone(), existing + p);
            }
            if let Some(span) = span {
                span.int("ok", 1).finish();
            }
            Ok(dist)
        } else {
            ExecutorConfig::new()
                .threads(threads)
                .build()
                .try_run(circuit, DISTRIBUTION_SHOTS, seed)
                .map(|counts| counts.to_distribution())
        }
    }

    /// Panicking wrapper around [`Executor::try_ideal_distribution`].
    ///
    /// # Panics
    ///
    /// Panics when the circuit cannot be simulated.
    pub fn ideal_distribution(circuit: &Circuit, seed: u64) -> Distribution {
        match Self::try_ideal_distribution(circuit, seed) {
            Ok(dist) => dist,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Runs the unitary portion only and returns the final state.
    ///
    /// # Panics
    ///
    /// Panics when the circuit contains measurements, resets or conditional
    /// gates.
    pub fn statevector(circuit: &Circuit) -> StateVector {
        assert!(
            circuit.is_unitary_only(),
            "statevector() requires a measurement-free circuit"
        );
        let mut sv = StateVector::zero(circuit.num_qubits());
        for op in circuit.ops() {
            if let Op::Gate { gate, qubits } = op {
                sv.apply_gate(*gate, qubits);
            }
        }
        sv
    }
}

/// How a prepared job's shots are produced.
enum ShotSource<'c> {
    /// Sampling fast path: the unitary prefix evolved once, shared
    /// read-only; shots draw whole basis indices from its probabilities.
    Sampling {
        state: StateVector,
        measure_map: Vec<(usize, usize)>,
    },
    /// Monte-Carlo path on a compiled dense plan: fused for noiseless
    /// circuits with mid-circuit measurement/conditionals/resets, unfused
    /// with noise sites (bit-identical to per-gate dispatch) under noise.
    Planned { plan: Arc<CircuitPlan> },
    /// Pauli-frame path: tableau jobs compiled against one reference
    /// sample, bit-identical to per-shot tableau trajectories.
    Frame { program: FrameProgram },
    /// Monte-Carlo path through [`Executor::trajectory`] for Clifford jobs
    /// the Pauli frame cannot run; each worker steps its own clone of the
    /// fresh tableau `sim`.
    Trajectory {
        circuit: &'c Circuit,
        sim: StabilizerSim,
    },
}

impl ShotSource<'_> {
    /// The source's label on the `executor/job` trace span.
    fn name(&self) -> &'static str {
        match self {
            ShotSource::Sampling { .. } => "sampling",
            ShotSource::Planned { plan } if plan.noise_signature().is_some() => "replay",
            ShotSource::Planned { .. } => "planned",
            ShotSource::Frame { .. } => "frame",
            ShotSource::Trajectory { .. } => "trajectory",
        }
    }
}

/// A prepared job: its shot source and shot bookkeeping.
struct Task<'c> {
    source: ShotSource<'c>,
    /// The resolved backend (telemetry keys per-job wall time by it).
    kind: BackendKind,
    num_clbits: usize,
    /// The projection each shot's outcome takes before it is tallied
    /// ([`Executor::try_run_parities`]); `None` tallies raw outcomes.
    parities: Option<&'c ParityMap>,
    shots: u64,
    seed: u64,
}

impl Task<'_> {
    /// A fresh per-worker context for this job (its plans themselves are
    /// shared read-only).
    fn worker_ctx(&self) -> WorkerCtx {
        match &self.source {
            ShotSource::Sampling { .. } => WorkerCtx::Basis(OutcomeWord::zero()),
            ShotSource::Planned { plan } => WorkerCtx::Dense(StateVector::zero(plan.num_qubits())),
            // Frames of up to 64 qubits live in two registers.
            ShotSource::Frame { program } => match program.word_frame() {
                Some(frame) => WorkerCtx::WordFrame(frame),
                None => WorkerCtx::Frame(program.frame()),
            },
            ShotSource::Trajectory { sim, .. } => WorkerCtx::Tableau(sim.clone()),
        }
    }

    /// An empty tally for this job's (raw or projected) outcomes.
    fn empty_counts(&self) -> Counts {
        Counts::new(self.parities.map_or(self.num_clbits, ParityMap::len))
    }
}

/// A worker's reusable simulation context for one job: the basis scratch
/// word of a sampler, a bare state vector for plan-driven trajectories, a
/// Pauli frame for frame-sampled Clifford jobs (in two words up to 64
/// qubits, else multi-word), or a per-shot tableau.
enum WorkerCtx {
    Basis(OutcomeWord),
    Dense(StateVector),
    WordFrame(WordFrame),
    Frame(PauliFrame),
    Tableau(StabilizerSim),
}

/// Runs `work` on `threads` scoped workers, or inline on the calling
/// thread — spawning nothing — when `threads <= 1`.
fn on_workers(threads: usize, work: impl Fn() + Sync) {
    if threads <= 1 {
        return work();
    }
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(&work);
        }
    });
}

/// Packs a basis state (bit `q` = qubit `q`) into the classical word
/// through a measurement map of `(qubit, clbit)` pairs: the one
/// basis-to-clbit routine the sampler and the exact distribution share.
fn pack_clbits(basis: &OutcomeWord, measure_map: &[(usize, usize)], word: &mut OutcomeWord) {
    word.clear();
    for &(q, c) in measure_map {
        if basis.bit(q) {
            word.set_bit(c, true);
        }
    }
}

/// `true` when the circuit has no conditionals/resets and every measurement
/// comes after the last gate.
pub fn measures_only_at_end(circuit: &Circuit) -> bool {
    let mut seen_measure = false;
    for op in circuit.ops() {
        match op {
            Op::CondGate { .. } | Op::Reset { .. } => return false,
            Op::Measure { .. } => seen_measure = true,
            Op::Gate { .. } => {
                if seen_measure {
                    return false;
                }
            }
            Op::Barrier { .. } => {}
        }
    }
    true
}

/// Convenience: sample a random `u64` stream deterministically from a seed
/// plus an index (used by the shot chunking and by benches to decorrelate
/// sweeps).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    // SplitMix64 step.
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Samples `n` outcomes from an arbitrary discrete distribution (utility for
/// synthetic workloads).
pub fn sample_distribution(dist: &Distribution, n: u64, seed: u64) -> Counts {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(&OutcomeWord, f64)> = dist.iter().collect();
    let zero = OutcomeWord::zero();
    let mut counts = Counts::new(dist.num_clbits());
    for _ in 0..n {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut chosen = pairs.last().map(|&(o, _)| o).unwrap_or(&zero);
        for &(o, p) in &pairs {
            acc += p;
            if r < acc {
                chosen = o;
                break;
            }
        }
        counts.record_word(chosen);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::reference_trajectory;
    use crate::profiles;
    use qcir::gate::Gate;

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n, n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    /// Forced-backend executor shorthand for the tests below.
    fn on_backend(choice: BackendChoice) -> Executor {
        ExecutorConfig::new().backend(choice).build()
    }

    #[test]
    fn ideal_bell_is_correlated() {
        let counts = Executor::ideal().try_run(&bell(), 2000, 9).unwrap();
        assert_eq!(counts.shots(), 2000);
        assert_eq!(counts.count(0b01) + counts.count(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn fast_and_trajectory_paths_agree() {
        let qc = bell();
        let fast = Executor::ideal()
            .try_run(&qc, 4000, 1)
            .unwrap()
            .to_distribution();
        // Force the noisy replay path with a zero-rate "noisy" model.
        let mut zero = NoiseModel::uniform_depolarizing(0.0);
        zero.idle_error = 0.0;
        zero.readout_error = 1e-300; // non-zero flag, negligible effect
        let slow = Executor::with_noise(zero)
            .try_run(&qc, 4000, 1)
            .unwrap()
            .to_distribution();
        assert!(fast.tvd(&slow) < 0.05);
    }

    #[test]
    fn ideal_distribution_is_exact() {
        let dist = Executor::ideal_distribution(&bell(), 0);
        assert!((dist.get(0b00) - 0.5).abs() < 1e-12);
        assert!((dist.get(0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Executor::ideal().try_run(&bell(), 100, 42).unwrap();
        let b = Executor::ideal().try_run(&bell(), 100, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn readout_noise_pollutes_deterministic_circuit() {
        let mut qc = Circuit::new(1, 1);
        qc.x(0).measure(0, 0);
        let nm = NoiseModel {
            one_qubit_depol: 0.0,
            two_qubit_depol: 0.0,
            readout_error: 0.2,
            idle_error: 0.0,
            label: "ro".into(),
        };
        let counts = Executor::with_noise(nm).try_run(&qc, 20_000, 5).unwrap();
        let p_wrong = counts.probability(0b0);
        assert!((p_wrong - 0.2).abs() < 0.02, "p_wrong = {p_wrong}");
    }

    #[test]
    fn conditional_teleport_like_correction_works() {
        // Prepare |1> on q0, measure into c0, then conditionally flip q1.
        let mut qc = Circuit::new(2, 2);
        qc.x(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.measure(1, 1);
        let counts = Executor::ideal().try_run(&qc, 200, 3).unwrap();
        assert_eq!(counts.count(0b11), 200);
    }

    #[test]
    fn reset_mid_circuit() {
        let mut qc = Circuit::new(1, 1);
        qc.x(0).reset(0).measure(0, 0);
        let counts = Executor::ideal().try_run(&qc, 100, 4).unwrap();
        assert_eq!(counts.count(0), 100);
    }

    #[test]
    fn depolarizing_noise_reduces_fidelity() {
        let qc = bell();
        let noisy = Executor::with_noise(profiles::noisy_nisq())
            .try_run(&qc, 5000, 6)
            .unwrap();
        let ideal = Executor::ideal_distribution(&qc, 0);
        let tvd = noisy.to_distribution().tvd(&ideal);
        assert!(tvd > 0.02, "noise should be visible, tvd = {tvd}");
        assert!(tvd < 0.6, "noise should not destroy the state, tvd = {tvd}");
    }

    #[test]
    fn measures_only_at_end_detection() {
        assert!(measures_only_at_end(&bell()));
        let mut mid = Circuit::new(2, 2);
        mid.h(0).measure(0, 0).x(1).measure(1, 1);
        assert!(!measures_only_at_end(&mid));
        let mut cond = Circuit::new(1, 1);
        cond.measure(0, 0);
        cond.cond_gate(Gate::X, &[0], 0, true);
        assert!(!measures_only_at_end(&cond));
    }

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(derive_seed(1, 0), a);
    }

    #[test]
    fn sample_distribution_matches_probabilities() {
        let mut d = Distribution::new(1);
        d.set(0, 0.25);
        d.set(1, 0.75);
        let counts = sample_distribution(&d, 20_000, 8);
        assert!((counts.probability(1) - 0.75).abs() < 0.02);
    }

    #[test]
    fn forced_backends_agree_on_bell() {
        let dense = on_backend(BackendChoice::Dense)
            .try_run(&bell(), 4000, 11)
            .unwrap()
            .to_distribution();
        let tableau = on_backend(BackendChoice::Tableau)
            .try_run(&bell(), 4000, 11)
            .unwrap()
            .to_distribution();
        assert!(dense.tvd(&tableau) < 0.05);
    }

    #[test]
    fn auto_dispatch_runs_large_clifford_circuits() {
        // 49 qubits: far past the dense cap, fine on the tableau.
        let counts = Executor::ideal().try_run(&ghz(49), 256, 13).unwrap();
        assert_eq!(counts.shots(), 256);
        assert_eq!(counts.distinct_outcomes(), 2);
        let all_ones = (1u64 << 49) - 1;
        assert_eq!(counts.count(0) + counts.count(all_ones), 256);
    }

    #[test]
    fn every_engine_runs_a_deterministic_trajectory() {
        // X on both qubits, measured; a Pauli error flips qubit 0 back; a
        // reset clears qubit 1. The conditioned H never fires but keeps the
        // tableau job off the Pauli frame, so both per-shot paths run
        // (dense plan, tableau engine), reinitialized per shot.
        let mut qc = Circuit::new(2, 4);
        qc.x(0).x(1).measure(0, 0).x(0).measure(0, 1).measure(1, 2);
        qc.cond_gate(Gate::H, &[1], 1, true);
        qc.reset(1).measure(1, 3);
        for choice in [BackendChoice::Dense, BackendChoice::Tableau] {
            let counts = on_backend(choice).try_run(&qc, 3 * SHOT_CHUNK, 1).unwrap();
            assert_eq!(counts.count(0b0101), 3 * SHOT_CHUNK, "{choice}");
        }
    }

    #[test]
    fn try_run_returns_typed_errors() {
        // Non-Clifford past the dense cap: no backend can run it.
        let mut big = Circuit::new(30, 30);
        big.h(0).t(0).cp(0.4, 0, 29).measure(0, 0);
        assert!(matches!(
            Executor::ideal().try_run(&big, 16, 0),
            Err(SimError::QubitCapExceeded {
                backend: "dense",
                ..
            })
        ));
        // Forced tableau on a T gate.
        let mut t = Circuit::new(1, 1);
        t.t(0).measure(0, 0);
        assert!(matches!(
            on_backend(BackendChoice::Tableau).try_run(&t, 16, 0),
            Err(SimError::NonCliffordGate { gate: Gate::T })
        ));
    }

    #[test]
    fn wide_classical_registers_execute_end_to_end() {
        // 70 clbits: past the old one-word cap. The trajectory path writes
        // and conditions on spilled bits, and counts merge across chunks.
        let mut qc = Circuit::new(2, 70);
        qc.x(0).measure(0, 69);
        qc.cond_gate(Gate::X, &[1], 69, true);
        qc.measure(1, 0);
        let counts = Executor::ideal().try_run(&qc, 300, 3).unwrap();
        assert_eq!(counts.shots(), 300);
        let mut expected = OutcomeWord::from(1u64);
        expected.set_bit(69, true);
        assert_eq!(counts.count_word(&expected), 300);
        // Parallel chunking stays bit-identical on wide registers.
        let parallel = ExecutorConfig::new()
            .threads(4)
            .build()
            .try_run(&qc, 3000, 9)
            .unwrap();
        let serial = Executor::ideal().try_run(&qc, 3000, 9).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_shots_are_bit_identical_to_serial() {
        let qc = ghz(8);
        let noisy = profiles::noisy_nisq();
        for threads in [2usize, 4, 7] {
            let serial = Executor::with_noise(noisy.clone())
                .try_run(&qc, 5000, 21)
                .unwrap();
            let parallel = ExecutorConfig::new()
                .noise(noisy.clone())
                .threads(threads)
                .build()
                .try_run(&qc, 5000, 21)
                .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Also on the dense sampling fast path and the tableau path.
        let fast_serial = Executor::ideal().try_run(&qc, 5000, 22).unwrap();
        let fast_parallel = ExecutorConfig::new()
            .threads(4)
            .build()
            .try_run(&qc, 5000, 22)
            .unwrap();
        assert_eq!(fast_serial, fast_parallel);
        let tab = ExecutorConfig::new().backend(BackendChoice::Tableau);
        assert_eq!(
            tab.clone().build().try_run(&qc, 3000, 23).unwrap(),
            tab.threads(3).build().try_run(&qc, 3000, 23).unwrap()
        );
    }

    #[test]
    fn shot_totals_survive_chunking() {
        // Shot counts that are not multiples of SHOT_CHUNK partition cleanly.
        let exec = ExecutorConfig::new().threads(4).build();
        for shots in [0u64, 1, SHOT_CHUNK - 1, SHOT_CHUNK, SHOT_CHUNK + 1, 2500] {
            let counts = exec.try_run(&bell(), shots, 30).unwrap();
            assert_eq!(counts.shots(), shots);
        }
    }

    #[test]
    fn try_ideal_distribution_handles_large_clifford() {
        let dist = Executor::try_ideal_distribution(&ghz(30), 2).unwrap();
        let all_ones = (1u64 << 30) - 1;
        assert!((dist.get(0) - 0.5).abs() < 0.05);
        assert!((dist.get(all_ones) - 0.5).abs() < 0.05);
        let mut big = Circuit::new(30, 30);
        big.h(0).t(0).cp(0.4, 0, 29).measure(0, 0);
        assert!(Executor::try_ideal_distribution(&big, 2).is_err());
    }

    #[test]
    fn planned_trajectories_match_the_unfused_engine_path() {
        // Noiseless dense with mid-circuit measurement: runs on the
        // plan-driven trajectory path. A zero-rate "noisy" model forces the
        // same circuit down the unfused noisy replay path; the
        // distributions must agree.
        let mut qc = Circuit::new(3, 3);
        qc.h(0).t(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.h(2).cx(2, 1).measure(1, 1).measure(2, 2).reset(2);
        let planned = Executor::ideal()
            .try_run(&qc, 6000, 31)
            .unwrap()
            .to_distribution();
        let mut zero = NoiseModel::uniform_depolarizing(0.0);
        zero.idle_error = 0.0;
        zero.readout_error = 1e-300;
        let unfused = Executor::with_noise(zero)
            .try_run(&qc, 6000, 31)
            .unwrap()
            .to_distribution();
        assert!(planned.tvd(&unfused) < 0.05);
        // The planned path stays bit-identical across thread counts.
        let serial = Executor::ideal().try_run(&qc, 5000, 32).unwrap();
        let parallel = ExecutorConfig::new()
            .threads(4)
            .build()
            .try_run(&qc, 5000, 32)
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn warm_cached_plan_runs_are_bit_identical_to_cold_runs() {
        let mut qc = Circuit::new(4, 4);
        qc.h(0).t(1).cx(0, 1).measure(0, 0);
        qc.cond_gate(Gate::X, &[2], 0, true);
        qc.cx(1, 2).h(3).cx(2, 3).measure_all();
        // Cold: fresh private cache compiles the plan during the run.
        let private = || {
            ExecutorConfig::new()
                .plan_cache(PlanCacheMode::Private)
                .build()
        };
        let cold = private().try_run(&qc, 3000, 77).unwrap();
        // Warm: the plan is compiled and cached before the run starts.
        let exec = private();
        let _ = exec.plan_for(&qc);
        let warm = exec.try_run(&qc, 3000, 77).unwrap();
        assert_eq!(cold, warm);
        // Both cold and warm runs on the sampling fast path, too.
        let mut end = Circuit::new(3, 3);
        end.h(0).cx(0, 1).t(1).cx(1, 2).measure_all();
        let cold = private().try_run(&end, 3000, 78).unwrap();
        let exec = private();
        let _ = exec.plan_for(&end);
        assert_eq!(cold, exec.try_run(&end, 3000, 78).unwrap());
    }

    #[test]
    fn batch_matches_individual_runs_for_every_thread_count() {
        let qc_bell = bell();
        let qc_ghz = ghz(8);
        let mut qc_mid = Circuit::new(3, 3);
        qc_mid.h(0).measure(0, 0);
        qc_mid.cond_gate(Gate::X, &[1], 0, true);
        qc_mid.measure(1, 1).measure(2, 2);
        let mut qc_general = Circuit::new(5, 5);
        for q in 0..5 {
            qc_general.h(q);
            qc_general.t(q);
        }
        for q in 0..4 {
            qc_general.cx(q, q + 1);
        }
        qc_general.measure_all();
        let mut qc_bad = Circuit::new(30, 30);
        qc_bad.h(0).t(0).cp(0.4, 0, 29).measure(0, 0);
        let qc_bell = Arc::new(qc_bell);
        let tasks: Vec<JobSpec> = vec![
            JobSpec::new(Arc::clone(&qc_bell), 3000, 1),
            JobSpec::new(qc_ghz, 2500, 2),
            JobSpec::new(qc_mid, 1500, 3),
            JobSpec::new(qc_general, 2000, 4),
            JobSpec::new(qc_bad, 100, 5),
            JobSpec::new(qc_bell, 0, 6),
        ];
        for (noise, threads) in [
            (NoiseModel::ideal(), 1usize),
            (NoiseModel::ideal(), 4),
            (profiles::noisy_nisq(), 3),
        ] {
            let exec = ExecutorConfig::new().noise(noise).threads(threads).build();
            let batch = exec.try_run_batch(&tasks);
            for (i, spec) in tasks.iter().enumerate() {
                let single = exec.try_run_job(spec);
                assert_eq!(batch[i], single, "task {i}, threads {threads}");
            }
            assert!(matches!(batch[4], Err(SimError::QubitCapExceeded { .. })));
        }
    }

    #[test]
    fn per_job_overrides_beat_the_executor_config_in_batches() {
        // One executor, heterogeneous backends: the bell job forced onto
        // the tableau must match a tableau-configured executor exactly,
        // while its neighbor inherits the executor's dense default.
        let qc = Arc::new(bell());
        let exec = ExecutorConfig::new()
            .backend(BackendChoice::Dense)
            .threads(4)
            .build();
        let batch = exec.try_run_batch(&[
            JobSpec::new(Arc::clone(&qc), 3000, 7).with_backend(BackendChoice::Tableau),
            JobSpec::new(Arc::clone(&qc), 3000, 7),
        ]);
        let tableau = on_backend(BackendChoice::Tableau)
            .try_run(&qc, 3000, 7)
            .unwrap();
        let dense = on_backend(BackendChoice::Dense)
            .try_run(&qc, 3000, 7)
            .unwrap();
        assert_eq!(batch[0].as_ref().unwrap(), &tableau);
        assert_eq!(batch[1].as_ref().unwrap(), &dense);
    }

    #[test]
    fn noisy_replay_matches_per_gate_dispatch_across_thread_counts() {
        // The noisy dense path walks an unfused noisy plan; this pins its
        // counts bit-identically to the per-gate dense reference (same
        // chunk partition, same derived seeds, same RNG consumption order).
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).t(1).rz(0.4, 2).barrier_all();
        c.swap(1, 2).ccx(0, 1, 2).measure(0, 0);
        c.cond_gate(Gate::X, &[2], 0, true);
        c.reset(0);
        c.h(0).cz(0, 2).measure(1, 1).measure(2, 2);

        let mut noise = NoiseModel::ideal();
        noise.one_qubit_depol = 0.02;
        noise.two_qubit_depol = 0.05;
        noise.idle_error = 0.01;
        noise.readout_error = 0.03;

        let shots = 3 * SHOT_CHUNK + 17; // force multiple chunks + a ragged tail
        let seed = 0xD15EA5E;

        // Per-gate reference: the same chunk partition and seed derivation
        // the executor uses, but each trajectory dispatched gate by gate.
        let mut expected = Counts::new(c.num_clbits());
        let chunks = shots.div_ceil(SHOT_CHUNK);
        let mut sv = StateVector::zero(c.num_qubits());
        let mut word = OutcomeWord::zero();
        for chunk in 0..chunks {
            let chunk_shots = (shots - chunk * SHOT_CHUNK).min(SHOT_CHUNK);
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, chunk));
            for _ in 0..chunk_shots {
                reference_trajectory(&c, &noise, &mut sv, &mut rng, &mut word);
                expected.record_word(&word);
            }
        }

        for threads in [1usize, 4] {
            let counts = ExecutorConfig::new()
                .noise(noise.clone())
                .threads(threads)
                .build()
                .try_run(&c, shots, seed)
                .unwrap();
            assert_eq!(
                counts, expected,
                "noisy replay must be bit-identical at {threads} thread(s)"
            );
        }
    }
}
