//! The resident engine: worker shards, warmed arenas, batched dispatch,
//! and bounded-queue backpressure.
//!
//! ## Lifecycle
//!
//! [`EngineHandle::start`] resolves the base-case cutoff **once** (via
//! [`fastmm_matrix::tune::resolve_cutoff`], so `FASTMM_CUTOFF` applies)
//! and spawns the worker shards. Each worker owns a private
//! [`ScratchArena`] that stays warm across batches — the first job of a
//! shape class pays the allocations, every subsequent job of that class
//! runs the zero-allocation hot path — and is trimmed back to
//! [`DEFAULT_MAX_RETAINED_WORDS`] of idle capacity after every work item
//! so one giant request does not pin its high-water scratch set for the
//! life of the worker.
//!
//! ## Batched dispatch
//!
//! The engine has one job queue. [`EngineHandle::submit`] appends a whole
//! batch of [`Job`]s to its back in submission order, one task per job,
//! and every shard takes the task at the front, so a batch spreads over
//! whichever shards are free and no job waits behind a busy shard while
//! another is idle. Results stream back over the ticket's channel tagged
//! with their submission index; [`BatchTicket::wait`] reassembles them in
//! submission order.
//!
//! A caller about to block in [`BatchTicket::recv_next`] (and so in
//! [`BatchTicket::wait`]) first takes its own batch's last queued
//! base-case job — one [`splits`] does not split at the engine's cutoff —
//! out of the queue and runs it on its own thread, as long as fewer jobs
//! are running engine-wide than the engine has shards: it takes an idle
//! shard's turn instead of sleeping behind the queue, and adds no busy
//! thread while every shard is busy. Whoever removes a task from the
//! queue runs it, so each job runs once. Recursing jobs stay on the
//! shards, whose warm arenas they need, and one caller at a time runs on
//! the engine's caller arena (a second waiting caller blocks). So an
//! engine of `w` shards computes on at most `w + 1` threads.
//!
//! ## Backpressure
//!
//! The queue is bounded by [`EngineConfig::queue_capacity`] *jobs*. A
//! submit that would exceed it returns [`Submit::Rejected`] carrying the
//! observed queue depth — callers shed load or retry; the engine never
//! buffers without bound. The counter is maintained atomically across
//! concurrent submitters and decremented as jobs complete, on a shard or
//! on a waiting caller.
//!
//! ## Supervision
//!
//! Shards and waiting callers run every job through one function, under
//! `catch_unwind`. A job that panics is retried **in place**: the runner
//! replaces its arena with a fresh one (the panic may have left it
//! half-written) and runs the job again, until it succeeds or has failed
//! [`EngineConfig::max_job_retries`]` + 1` times, when it resolves to a
//! typed [`JobError::WorkerPanicked`] — never a lost result. Nothing else
//! in a shard's loop panics, and dropping the handle closes the queue,
//! which a shard leaves only once it is empty: no path drops a queued
//! job. Every submitted job therefore resolves to exactly one
//! [`JobResult`], and [`BatchTicket::wait`]/[`BatchTicket::recv_next`]
//! can never hang.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use fastmm_matrix::arena::{multiply_into, splits};
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::{all_schemes, BilinearScheme};
use fastmm_matrix::ScratchArena;

/// Default bound on queued (submitted, not yet completed) jobs.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Per-worker idle arena retention between work items: 2²² words
/// (32 MiB of `f64`) — enough to keep mid-size shape classes warm without
/// letting one giant request pin its high-water scratch set for the life
/// of the worker.
pub const DEFAULT_MAX_RETAINED_WORDS: usize = 1 << 22;

/// Default bound on per-job retries after a worker panic.
pub const DEFAULT_MAX_JOB_RETRIES: u32 = 2;

/// Construction-time knobs of the engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker shard count (clamped to ≥ 1).
    pub workers: usize,
    /// Base-case cutoff; `0` means auto (resolved once at start through
    /// [`fastmm_matrix::tune::resolve_cutoff`], so `FASTMM_CUTOFF`
    /// applies).
    pub cutoff: usize,
    /// Maximum in-flight jobs before [`EngineHandle::submit`] rejects.
    pub queue_capacity: usize,
    /// How many times a job that panicked is retried (in place, on a
    /// fresh arena) before it resolves to [`JobError::WorkerPanicked`].
    pub max_job_retries: u32,
}

impl EngineConfig {
    /// A config with `workers` shards and the default queue capacity,
    /// auto cutoff, and default retry bound.
    pub fn new(workers: usize) -> Self {
        EngineConfig {
            workers,
            cutoff: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_job_retries: DEFAULT_MAX_JOB_RETRIES,
        }
    }

    /// Replace the base-case cutoff (`0` = auto).
    pub fn with_cutoff(mut self, cutoff: usize) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Replace the queue capacity (jobs).
    pub fn with_queue_capacity(mut self, jobs: usize) -> Self {
        self.queue_capacity = jobs;
        self
    }

    /// Replace the per-job retry bound.
    pub fn with_max_job_retries(mut self, retries: u32) -> Self {
        self.max_job_retries = retries;
        self
    }
}

/// One multiply request: `a * b` under the engine's scheme table entry
/// `scheme` (an index into [`EngineHandle::schemes`]).
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into the engine's scheme table
    /// (see [`EngineHandle::schemes`]).
    pub scheme: usize,
    /// Left operand, `M × K`.
    pub a: Matrix<f64>,
    /// Right operand, `K × N`.
    pub b: Matrix<f64>,
    /// Deterministic chaos hook: the worker panics on the first this-many
    /// attempts at this job (0 = never, the default). Drives the
    /// supervision tests and the e14 serve chaos rows: `n ≤
    /// max_job_retries` exercises retry-then-success, larger `n`
    /// exercises retry exhaustion.
    pub injected_panics: u32,
}

impl Job {
    /// Build a job; `a.cols()` must equal `b.rows()` (checked at submit).
    pub fn new(scheme: usize, a: Matrix<f64>, b: Matrix<f64>) -> Self {
        Job {
            scheme,
            a,
            b,
            injected_panics: 0,
        }
    }

    /// Make the worker panic on this job's first `n` attempts (fault
    /// injection for supervision tests; see [`Job::injected_panics`]).
    pub fn with_injected_panics(mut self, n: u32) -> Self {
        self.injected_panics = n;
        self
    }
}

/// Why a job failed to produce a product. Jobs *always* resolve — to a
/// product or to one of these — so batch tickets never hang.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked on every attempt (initial attempt +
    /// [`EngineConfig::max_job_retries`] retries).
    WorkerPanicked {
        /// Total failed attempts.
        attempts: u32,
        /// The last panic payload, rendered to a string.
        payload: String,
    },
    /// The batch's result channel closed before this job's result
    /// arrived. No engine path closes it before every job of the batch
    /// resolves, so this is the typed form of the one error a channel
    /// receive can return, not an outcome a caller should expect.
    ShardLost,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerPanicked { attempts, payload } => {
                write!(f, "worker panicked on all {attempts} attempts: {payload}")
            }
            JobError::ShardLost => write!(f, "worker shard lost"),
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job outcome: the product, or a typed error.
pub type JobResult = Result<Matrix<f64>, JobError>;

/// Outcome of [`EngineHandle::submit`]: the batch was queued, or the
/// bounded queue was full and the caller must shed load or retry.
#[derive(Debug)]
pub enum Submit {
    /// The batch was queued; redeem the ticket for the results.
    Accepted(BatchTicket),
    /// Backpressure: accepting the batch would exceed
    /// [`EngineConfig::queue_capacity`]. Nothing was queued.
    Rejected {
        /// In-flight job count observed at rejection time.
        queue_depth: usize,
    },
}

impl Submit {
    /// `true` for [`Submit::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Submit::Accepted(_))
    }

    /// Unwrap the ticket; panics on [`Submit::Rejected`].
    pub fn unwrap_ticket(self) -> BatchTicket {
        match self {
            Submit::Accepted(t) => t,
            Submit::Rejected { queue_depth } => {
                panic!("batch rejected at queue depth {queue_depth}")
            }
        }
    }
}

/// Claim on an accepted batch's results.
///
/// Results arrive in completion order over an internal channel, each
/// tagged with its submission index; [`BatchTicket::wait`] reassembles
/// the batch in submission order, [`BatchTicket::recv_next`] streams
/// completions as they land (what the e13 harness uses for per-job
/// latency). Every slot resolves exactly once — to a product or a typed
/// [`JobError`]; the ticket can never hang.
pub struct BatchTicket {
    rx: Receiver<(usize, JobResult)>,
    /// The batch's id in the engine queue, which a waiting caller claims
    /// from.
    batch: u64,
    shared: Arc<Shared>,
    total: usize,
    resolved: Vec<bool>,
    received: usize,
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket")
            .field("batch", &self.batch)
            .field("total", &self.total)
            .field("received", &self.received)
            .finish_non_exhaustive()
    }
}

impl BatchTicket {
    /// Jobs in the batch.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Take this batch's last queued base-case task out of the engine
    /// queue and run it on the calling thread, if fewer jobs are running
    /// than the engine has shards and no other caller holds the caller
    /// arena. Returns the job's slot and result, or `None` if it ran
    /// nothing.
    fn claim_and_run(&self) -> Option<(usize, JobResult)> {
        let shared = &*self.shared;
        // Held or poisoned: block as a caller without the arena would.
        let Ok(mut arena) = shared.caller_arena.try_lock() else {
            return None;
        };
        if shared.running.load(Ordering::SeqCst) >= shared.shards {
            return None;
        }
        let task = {
            let mut queue = shared.lock_queue();
            let i = queue
                .tasks
                .iter()
                .rposition(|t| t.batch == self.batch && shared.is_base_case(&t.job))?;
            queue.tasks.remove(i)?
        };
        let result = run_job(shared, task.slot, task.job, &mut arena);
        arena.trim(DEFAULT_MAX_RETAINED_WORDS);
        Some((task.slot, result))
    }

    /// Block for the next resolution: `(submission index, result)`.
    /// Returns `None` once every job in the batch has resolved. Before it
    /// blocks, the ticket runs its batch's last queued base-case job on
    /// the calling thread while a shard is idle, and returns that job's
    /// result (see the module doc's *Batched dispatch*).
    pub fn recv_next(&mut self) -> Option<(usize, JobResult)> {
        if self.received == self.total {
            return None;
        }
        let done = self
            .rx
            .try_recv()
            .ok()
            .or_else(|| self.claim_and_run())
            .or_else(|| self.rx.recv().ok());
        let (slot, result) = done.unwrap_or_else(|| {
            let open = self.resolved.iter().position(|r| !r);
            (open.expect("a slot is open"), Err(JobError::ShardLost))
        });
        self.resolved[slot] = true;
        self.received += 1;
        Some((slot, result))
    }

    /// Block until the whole batch resolves; per-job results in
    /// submission order. Like [`BatchTicket::recv_next`], which it calls,
    /// it runs base-case jobs of the batch on the calling thread while a
    /// shard is idle.
    pub fn wait(mut self) -> Vec<JobResult> {
        let mut out: Vec<Option<JobResult>> = (0..self.total).map(|_| None).collect();
        while let Some((slot, r)) = self.recv_next() {
            debug_assert!(out[slot].is_none(), "slot {slot} resolved twice");
            out[slot] = Some(r);
        }
        out.into_iter()
            .map(|c| c.expect("every submitted job resolves exactly once"))
            .collect()
    }

    /// [`BatchTicket::wait`] for callers that expect every job to
    /// succeed: unwraps each result, panicking on the first [`JobError`].
    pub fn wait_products(self) -> Vec<Matrix<f64>> {
        self.wait()
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|e| panic!("job {i} failed: {e}")))
            .collect()
    }
}

/// One queued job. Whoever removes it from the queue — a shard, or its
/// batch's waiting caller — runs it, so the job runs once and its runner
/// drops its operands.
struct Task {
    /// The id of the batch it was submitted in.
    batch: u64,
    /// Submission index within its batch.
    slot: usize,
    job: Job,
    /// Where the owning batch collects results.
    results: Sender<(usize, JobResult)>,
}

/// The engine's one job queue.
struct Queue {
    tasks: VecDeque<Task>,
    /// Set when the handle drops: a shard then leaves its loop once the
    /// queue is empty.
    closed: bool,
    /// The id the next submitted batch takes.
    next_batch: u64,
}

/// Engine state the shards and tickets share with the handle.
struct Shared {
    schemes: Vec<BilinearScheme>,
    cutoff: usize,
    max_job_retries: u32,
    /// Worker shard count.
    shards: usize,
    /// Submitted, not yet completed jobs: the backpressure count.
    in_flight: AtomicUsize,
    /// Jobs running right now, on a shard or on a waiting caller.
    running: AtomicUsize,
    /// The arena a waiting caller runs a claimed job on, one caller at a
    /// time.
    caller_arena: Mutex<ScratchArena<f64>>,
    queue: Mutex<Queue>,
    /// Signalled when tasks are queued or the queue closes.
    ready: Condvar,
}

impl Shared {
    /// Whether `job` runs as one base-case kernel call at the engine's
    /// cutoff, so it needs no shard's warm recursion arena.
    fn is_base_case(&self, job: &Job) -> bool {
        let shape = (job.a.rows(), job.a.cols(), job.b.cols());
        !splits(self.schemes[job.scheme].dims(), shape, self.cutoff)
    }

    /// Lock the queue. Each update (append, pop, remove, close) leaves it
    /// valid whenever it stops, so a poisoned lock is recovered rather
    /// than propagated.
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block for the task at the queue's front; `None` once the queue is
    /// closed and empty.
    fn pop(&self) -> Option<Task> {
        let mut queue = self.lock_queue();
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                return Some(task);
            }
            if queue.closed {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: each shard runs what is left, then exits.
    fn close(&self) {
        self.lock_queue().closed = true;
        self.ready.notify_all();
    }
}

/// Handle to a running engine: worker shards with warmed arenas, a
/// resolved cutoff, and a bounded submission queue. Dropping the handle
/// (or calling [`EngineHandle::shutdown`]) closes the queue and joins the
/// shards once they have run every queued job.
pub struct EngineHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
}

impl EngineHandle {
    /// Start the engine over the registry scheme table
    /// ([`all_schemes`]).
    pub fn start(config: EngineConfig) -> Self {
        Self::start_with_schemes(config, all_schemes())
    }

    /// Start the engine over a caller-provided scheme table. The cutoff
    /// is resolved once, here, and shared by every worker for the life of
    /// the engine.
    pub fn start_with_schemes(config: EngineConfig, schemes: Vec<BilinearScheme>) -> Self {
        let mut engine = Self::unstarted(config, schemes);
        for shard in 0..engine.shared.shards {
            let shared = Arc::clone(&engine.shared);
            engine.workers.push(
                std::thread::Builder::new()
                    .name(format!("fastmm-serve-{shard}"))
                    .spawn(move || shard_loop(&shared))
                    .expect("spawning worker shard"),
            );
        }
        engine
    }

    /// The engine with no shard threads yet: submitted jobs wait in the
    /// queue.
    fn unstarted(config: EngineConfig, schemes: Vec<BilinearScheme>) -> Self {
        let shards = config.workers.max(1);
        let shared = Shared {
            schemes,
            cutoff: fastmm_matrix::tune::resolve_cutoff(config.cutoff),
            max_job_retries: config.max_job_retries,
            shards,
            in_flight: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            caller_arena: Mutex::new(ScratchArena::new()),
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                closed: false,
                next_batch: 0,
            }),
            ready: Condvar::new(),
        };
        EngineHandle {
            shared: Arc::new(shared),
            workers: Vec::with_capacity(shards),
            queue_capacity: config.queue_capacity,
        }
    }

    /// The resolved base-case cutoff every worker runs.
    pub fn cutoff(&self) -> usize {
        self.shared.cutoff
    }

    /// In-flight (submitted, not yet completed) job count.
    pub fn queue_depth(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// The engine's scheme table, in index order.
    pub fn schemes(&self) -> &[BilinearScheme] {
        &self.shared.schemes
    }

    /// Submit a batch. Jobs are validated (in-range scheme index,
    /// conformal dimensions — violations panic, as with
    /// `multiply_scheme`) and appended to the engine queue in submission
    /// order; the whole batch is either accepted or rejected atomically
    /// against the queue bound.
    pub fn submit(&self, jobs: Vec<Job>) -> Submit {
        for (i, job) in jobs.iter().enumerate() {
            assert!(
                job.scheme < self.shared.schemes.len(),
                "job {i}: scheme index {} out of range",
                job.scheme
            );
            assert_eq!(
                job.a.cols(),
                job.b.rows(),
                "job {i}: inner dimensions must agree"
            );
        }
        let n = jobs.len();
        let in_flight = &self.shared.in_flight;
        let depth = in_flight.fetch_add(n, Ordering::SeqCst);
        if depth + n > self.queue_capacity {
            in_flight.fetch_sub(n, Ordering::SeqCst);
            return Submit::Rejected { queue_depth: depth };
        }
        let (tx, rx) = channel();
        let batch = {
            let mut queue = self.shared.lock_queue();
            let batch = queue.next_batch;
            queue.next_batch += 1;
            queue
                .tasks
                .extend(jobs.into_iter().enumerate().map(|(slot, job)| Task {
                    batch,
                    slot,
                    job,
                    results: tx.clone(),
                }));
            batch
        };
        self.shared.ready.notify_all();
        Submit::Accepted(BatchTicket {
            rx,
            batch,
            shared: Arc::clone(&self.shared),
            total: n,
            resolved: vec![false; n],
            received: 0,
        })
    }

    /// Stop the engine gracefully: close the queue — the shards run every
    /// job still queued, resolving them all — then join them. Equivalent
    /// to dropping the handle, spelled out for call sites that want the
    /// drain + join to be explicit.
    pub fn shutdown(self) {}
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.shared.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Render a worker panic payload for [`JobError::WorkerPanicked`].
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one claimed job on `arena` at the engine's resolved cutoff — the
/// identical code path to `multiply_scheme`, so outputs are bitwise equal
/// to the sequential engine whichever thread (or attempt) runs the job. A
/// job that panics is retried in place on a fresh arena until it succeeds
/// or has failed `max_job_retries + 1` times, and then resolves to
/// [`JobError::WorkerPanicked`]. The job counts as running throughout,
/// and leaves the in-flight count before its result resolves.
fn run_job(shared: &Shared, slot: usize, job: Job, arena: &mut ScratchArena<f64>) -> JobResult {
    shared.running.fetch_add(1, Ordering::SeqCst);
    let mut attempts = 0u32;
    let result = loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            if attempts < job.injected_panics {
                // Expected, so it skips the panic hook and prints nothing.
                resume_unwind(Box::new(format!(
                    "injected worker panic (attempt {} of job slot {slot})",
                    attempts + 1
                )));
            }
            let mut c = Matrix::zeros(job.a.rows(), job.b.cols());
            multiply_into(
                &shared.schemes[job.scheme],
                job.a.view(),
                job.b.view(),
                &mut c.view_mut(),
                shared.cutoff,
                arena,
            );
            c
        }));
        match run {
            Ok(c) => break Ok(c),
            Err(payload) => {
                *arena = ScratchArena::new();
                attempts += 1;
                if attempts > shared.max_job_retries {
                    break Err(JobError::WorkerPanicked {
                        attempts,
                        payload: panic_payload_string(payload.as_ref()),
                    });
                }
            }
        }
    };
    shared.running.fetch_sub(1, Ordering::SeqCst);
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    result
}

/// One worker shard: take the task at the queue's front, run its job on
/// this shard's arena, and send the result to the owning ticket. Every
/// task it takes resolves, so the ticket never hangs. Returns once the
/// queue is closed (engine teardown) and empty.
fn shard_loop(shared: &Shared) {
    let mut arena = ScratchArena::new();
    while let Some(task) = shared.pop() {
        let result = run_job(shared, task.slot, task.job, &mut arena);
        // The ticket may have been dropped; completing is still correct.
        let _ = task.results.send((task.slot, result));
        // Between tasks: bound what an idle shard keeps warm.
        arena.trim(DEFAULT_MAX_RETAINED_WORDS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmm_matrix::recursive::multiply_scheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An engine with no shard threads, so no shard ever takes a task: a
    /// job runs only on a waiting caller, or when the test serves the
    /// queue itself ([`serve_queued`]). Nothing here depends on thread
    /// timing.
    fn held(config: EngineConfig) -> EngineHandle {
        EngineHandle::unstarted(config, all_schemes())
    }

    /// Run every task queued so far on this thread, through the loop the
    /// shards run: on a closed queue it returns once the queue is empty.
    fn serve_queued(engine: &EngineHandle) {
        engine.shared.close();
        shard_loop(&engine.shared);
        engine.shared.lock_queue().closed = false;
    }

    /// The queue's tasks, front to back, as `(batch, slot)`.
    fn queued(engine: &EngineHandle) -> Vec<(u64, usize)> {
        let queue = engine.shared.lock_queue();
        queue.tasks.iter().map(|t| (t.batch, t.slot)).collect()
    }

    fn job(rng: &mut StdRng, scheme: usize, (m, k, n): (usize, usize, usize)) -> Job {
        Job::new(scheme, Matrix::random(m, k, rng), Matrix::random(k, n, rng))
    }

    fn expected(engine: &EngineHandle, jobs: &[Job]) -> Vec<Matrix<f64>> {
        jobs.iter()
            .map(|j| multiply_scheme(&engine.schemes()[j.scheme], &j.a, &j.b, engine.cutoff()))
            .collect()
    }

    #[test]
    fn a_waiting_caller_runs_every_base_case_job() {
        let mut rng = StdRng::seed_from_u64(0x5E30E);
        let engine = held(EngineConfig::new(2).with_cutoff(32));
        let mut jobs = Vec::new();
        for scheme in 0..engine.schemes().len() {
            for dims in [(13, 7, 9), (32, 32, 32), (1, 30, 17)] {
                jobs.push(job(&mut rng, scheme, dims));
            }
        }
        assert!(jobs.iter().all(|j| engine.shared.is_base_case(j)));
        let want = expected(&engine, &jobs);
        let results = engine.submit(jobs).unwrap_ticket().wait_products();
        for (i, (got, want)) in results.iter().zip(&want).enumerate() {
            assert!(got.bits_eq(want), "job {i} diverged from multiply_scheme");
        }
        assert_eq!(engine.queue_depth(), 0, "every job left the queue");
        assert!(queued(&engine).is_empty(), "the caller took every task");
    }

    #[test]
    fn a_recursing_job_is_never_run_by_the_caller() {
        let mut rng = StdRng::seed_from_u64(0x5E31E);
        let engine = held(EngineConfig::new(2).with_cutoff(8));
        let jobs = vec![
            job(&mut rng, 2, (8, 8, 8)),
            job(&mut rng, 2, (16, 16, 16)),
            job(&mut rng, 2, (5, 8, 3)),
        ];
        assert!(!engine.shared.is_base_case(&jobs[1]));
        let want = expected(&engine, &jobs);
        let mut ticket = engine.submit(jobs).unwrap_ticket();
        // The caller claims from the batch's end, skipping the recursing job.
        for slot in [2, 0] {
            let (got, res) = ticket.recv_next().expect("a base-case job resolves");
            assert_eq!(got, slot);
            assert!(res.expect("base-case job").bits_eq(&want[slot]));
        }
        assert_eq!(queued(&engine), [(ticket.batch, 1)], "nobody claimed it");
        assert_eq!(engine.queue_depth(), 1);
        // The shards' loop runs it; it leaves the queue and the count.
        serve_queued(&engine);
        let (got, res) = ticket.recv_next().expect("the shard's result");
        assert_eq!(got, 1);
        assert!(res.expect("recursing job").bits_eq(&want[1]));
        assert!(ticket.recv_next().is_none());
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn a_caller_takes_only_its_own_batch() {
        let mut rng = StdRng::seed_from_u64(0x5E35E);
        let engine = held(EngineConfig::new(2).with_cutoff(32));
        let jobs = [job(&mut rng, 2, (16, 16, 16)), job(&mut rng, 2, (9, 4, 11))];
        let want = expected(&engine, &jobs);
        let [a, b] = jobs;
        let mut first = engine.submit(vec![a]).unwrap_ticket();
        let mut second = engine.submit(vec![b]).unwrap_ticket();
        let (slot, res) = second.recv_next().expect("the caller runs its own job");
        assert_eq!(slot, 0);
        assert!(res.expect("healthy job").bits_eq(&want[1]));
        assert!(second.recv_next().is_none());
        // A shard is idle and the first batch's base-case job is queued,
        // but it is not the second caller's to take.
        assert!(second.claim_and_run().is_none());
        assert_eq!(queued(&engine), [(first.batch, 0)]);
        assert_eq!(engine.queue_depth(), 1);
        let (slot, res) = first.recv_next().expect("its own caller runs it");
        assert_eq!(slot, 0);
        assert!(res.expect("healthy job").bits_eq(&want[0]));
        assert!(queued(&engine).is_empty());
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn a_caller_runs_nothing_while_every_shard_is_busy() {
        let mut rng = StdRng::seed_from_u64(0x5E32E);
        let engine = held(EngineConfig::new(2).with_cutoff(32));
        let jobs: Vec<Job> = (0..3).map(|_| job(&mut rng, 2, (16, 16, 16))).collect();
        let want = expected(&engine, &jobs);
        let mut ticket = engine.submit(jobs).unwrap_ticket();
        let batch = ticket.batch;
        let running = &engine.shared.running;
        running.store(2, Ordering::SeqCst);
        assert!(ticket.claim_and_run().is_none());
        assert_eq!(
            queued(&engine),
            [(batch, 0), (batch, 1), (batch, 2)],
            "nothing claimed"
        );
        // One shard frees up: the caller takes its turn, once.
        running.store(1, Ordering::SeqCst);
        let (slot, res) = ticket.recv_next().expect("the caller runs a job");
        assert_eq!(slot, 2);
        assert!(res.expect("healthy job").bits_eq(&want[2]));
        assert_eq!(running.load(Ordering::SeqCst), 1, "its job left the count");
        // Busy again: the shards run the rest.
        running.store(2, Ordering::SeqCst);
        assert!(ticket.claim_and_run().is_none());
        serve_queued(&engine);
        for slot in [0, 1] {
            let (got, res) = ticket.recv_next().expect("a shard's result");
            assert_eq!(got, slot);
            assert!(res.expect("healthy job").bits_eq(&want[slot]));
        }
        assert!(ticket.recv_next().is_none());
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn a_caller_run_job_past_its_retry_budget_resolves_worker_panicked() {
        let mut rng = StdRng::seed_from_u64(0x5E33E);
        let config = EngineConfig::new(1).with_cutoff(32).with_max_job_retries(2);
        let engine = held(config);
        let jobs = vec![
            job(&mut rng, 3, (16, 16, 16)),
            job(&mut rng, 3, (16, 16, 16)).with_injected_panics(3),
            job(&mut rng, 3, (9, 4, 11)),
        ];
        let want = expected(&engine, &jobs);
        let results = engine.submit(jobs).unwrap_ticket().wait();
        match &results[1] {
            Err(JobError::WorkerPanicked { attempts, payload }) => {
                assert_eq!(*attempts, config.max_job_retries + 1);
                assert!(payload.contains("injected worker panic"), "got: {payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        for i in [0, 2] {
            let got = results[i].as_ref().expect("sibling completes");
            assert!(got.bits_eq(&want[i]), "job {i} diverged");
        }
        assert_eq!(engine.queue_depth(), 0);
    }

    /// The backpressure contract: a full queue rejects instead of
    /// growing. No shard takes the queued tasks, so the queue stays full
    /// until the test serves it.
    #[test]
    fn full_queue_rejects_instead_of_growing() {
        let engine = held(EngineConfig::new(1).with_cutoff(32).with_queue_capacity(2));
        let mut rng = StdRng::seed_from_u64(0x5E23E);
        let square = |n: usize, rng: &mut StdRng| job(rng, 0, (n, n, n));
        // A batch larger than the whole queue is rejected outright, before
        // anything is enqueued.
        let oversized: Vec<Job> = (0..3).map(|_| square(128, &mut rng)).collect();
        match engine.submit(oversized) {
            Submit::Rejected { queue_depth } => assert_eq!(queue_depth, 0),
            Submit::Accepted(_) => panic!("oversized batch must be rejected"),
        }
        assert_eq!(engine.queue_depth(), 0, "rejection must not leak depth");

        // Fill the queue, then overflow it: the overflow is rejected with
        // the observed depth while the accepted work is unaffected.
        let overflow = vec![square(128, &mut rng)];
        let filling = (0..2).map(|_| square(128, &mut rng)).collect();
        let ticket = engine.submit(filling).unwrap_ticket();
        match engine.submit(overflow) {
            Submit::Rejected { queue_depth } => {
                assert!(
                    queue_depth >= 1,
                    "depth {queue_depth} should reflect the backlog"
                )
            }
            Submit::Accepted(_) => panic!("overflow past capacity must be rejected"),
        }
        serve_queued(&engine);
        let results = ticket.wait_products();
        assert_eq!(results.len(), 2);
        assert_eq!(engine.queue_depth(), 0, "queue drains to zero");
        // Once drained, capacity is available again.
        assert!(engine.submit(vec![square(128, &mut rng)]).is_accepted());
    }
}
