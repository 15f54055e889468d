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
//! [`EngineHandle::submit`] takes a whole batch of [`Job`]s and deals
//! them out in submission order, one job per work item, round-robin
//! across the worker shards, so every batch spreads over the fleet and a
//! straggler job never holds sibling jobs hostage behind it. Results
//! stream back over the ticket's channel tagged with their submission
//! index; [`BatchTicket::wait`] reassembles them in submission order.
//!
//! ## Backpressure
//!
//! The queue is bounded by [`EngineConfig::queue_capacity`] *jobs*. A
//! submit that would exceed it returns [`Submit::Rejected`] carrying the
//! observed queue depth — callers shed load or retry; the engine never
//! buffers without bound. The counter is maintained atomically across
//! concurrent submitters and decremented by workers as jobs complete.
//!
//! ## Supervision
//!
//! Each shard runs its jobs one at a time, each under `catch_unwind`. A
//! job that panics is retried **in place**: the shard replaces its arena
//! with a fresh one (the panic may have left it half-written) and runs
//! the job again, until it succeeds or has failed
//! [`EngineConfig::max_job_retries`]` + 1` times, when it resolves to a
//! typed [`JobError::WorkerPanicked`] — never a lost result — and the
//! shard moves on to its next job. A panic outside a job ends the shard;
//! its queued jobs then resolve to [`JobError::ShardLost`]. Every
//! submitted job therefore resolves to exactly one [`JobResult`], so
//! [`BatchTicket::wait`]/[`BatchTicket::recv_next`] can never hang on a
//! dead shard; [`EngineHandle::submit_with_deadline`] additionally bounds
//! how long the ticket will wait before resolving the remaining jobs to
//! [`JobError::DeadlineExceeded`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastmm_matrix::arena::multiply_into;
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
    /// The batch deadline passed before this job's result arrived
    /// ([`EngineHandle::submit_with_deadline`]). The job may still
    /// complete in the background; its late result is discarded.
    DeadlineExceeded,
    /// The shard disappeared without resolving the job — the engine was
    /// torn down, or the shard died of a panic outside a job.
    ShardLost,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerPanicked { attempts, payload } => {
                write!(f, "worker panicked on all {attempts} attempts: {payload}")
            }
            JobError::DeadlineExceeded => write!(f, "batch deadline exceeded"),
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
/// [`JobError`] — even if a shard dies or the batch deadline passes; the
/// ticket can never hang.
#[derive(Debug)]
pub struct BatchTicket {
    rx: Receiver<(usize, JobResult)>,
    total: usize,
    resolved: Vec<bool>,
    received: usize,
    /// Absolute deadline (set by [`EngineHandle::submit_with_deadline`]).
    deadline: Option<Instant>,
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

    /// Resolve the first still-unresolved slot to `err`.
    fn resolve_error(&mut self, err: JobError) -> Option<(usize, JobResult)> {
        let slot = self.resolved.iter().position(|r| !r)?;
        self.resolved[slot] = true;
        self.received += 1;
        Some((slot, Err(err)))
    }

    /// Block for the next resolution: `(submission index, result)`.
    /// Returns `None` once every job in the batch has resolved. A dead
    /// shard resolves the remaining slots to [`JobError::ShardLost`]; a
    /// passed deadline resolves them to [`JobError::DeadlineExceeded`]
    /// (late completions of already-resolved slots are discarded).
    pub fn recv_next(&mut self) -> Option<(usize, JobResult)> {
        loop {
            if self.received == self.total {
                return None;
            }
            let msg = match self.deadline {
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return self.resolve_error(JobError::DeadlineExceeded);
                    }
                    self.rx.recv_timeout(dl - now)
                }
            };
            match msg {
                Ok((slot, res)) => {
                    if self.resolved[slot] {
                        // A late completion raced an earlier deadline
                        // resolution of this slot; drop it.
                        continue;
                    }
                    self.resolved[slot] = true;
                    self.received += 1;
                    return Some((slot, res));
                }
                Err(RecvTimeoutError::Timeout) => {
                    return self.resolve_error(JobError::DeadlineExceeded);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return self.resolve_error(JobError::ShardLost);
                }
            }
        }
    }

    /// Block until the whole batch resolves; per-job results in
    /// submission order.
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

/// One job en route to a worker shard.
struct WorkUnit {
    /// Submission index within its batch.
    slot: usize,
    job: Job,
    /// Where the owning batch collects results.
    results: Sender<(usize, JobResult)>,
}

/// Handle to a running engine: worker shards with warmed arenas, a
/// resolved cutoff, and a bounded submission queue. Dropping the handle
/// (or calling [`EngineHandle::shutdown`]) disconnects the shards and
/// joins them.
pub struct EngineHandle {
    schemes: Arc<Vec<BilinearScheme>>,
    senders: Vec<Sender<WorkUnit>>,
    workers: Vec<JoinHandle<()>>,
    in_flight: Arc<AtomicUsize>,
    next_worker: AtomicUsize,
    queue_capacity: usize,
    cutoff: usize,
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
        let cutoff = fastmm_matrix::tune::resolve_cutoff(config.cutoff);
        let workers = config.workers.max(1);
        let schemes = Arc::new(schemes);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (tx, rx) = channel::<WorkUnit>();
            let schemes = Arc::clone(&schemes);
            let in_flight = Arc::clone(&in_flight);
            let max_retries = config.max_job_retries;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("fastmm-serve-{shard}"))
                    .spawn(move || shard_loop(rx, &schemes, cutoff, max_retries, &in_flight))
                    .expect("spawning worker shard"),
            );
            senders.push(tx);
        }
        EngineHandle {
            schemes,
            senders,
            workers: handles,
            in_flight,
            next_worker: AtomicUsize::new(0),
            queue_capacity: config.queue_capacity,
            cutoff,
        }
    }

    /// The resolved base-case cutoff every worker runs.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// In-flight (submitted, not yet completed) job count.
    pub fn queue_depth(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The engine's scheme table, in index order.
    pub fn schemes(&self) -> &[BilinearScheme] {
        &self.schemes
    }

    /// Submit a batch. Jobs are validated (in-range scheme index,
    /// conformal dimensions — violations panic, as with
    /// `multiply_scheme`) and dealt round-robin across the shards in
    /// submission order; the whole batch is either accepted or rejected
    /// atomically against the queue bound.
    pub fn submit(&self, jobs: Vec<Job>) -> Submit {
        self.submit_inner(jobs, None)
    }

    /// [`EngineHandle::submit`] with a per-batch deadline: once
    /// `deadline` has elapsed, the ticket resolves every still-pending
    /// job to [`JobError::DeadlineExceeded`] instead of blocking (late
    /// completions are discarded). The deadline clock starts at
    /// acceptance.
    pub fn submit_with_deadline(&self, jobs: Vec<Job>, deadline: Duration) -> Submit {
        self.submit_inner(jobs, Some(deadline))
    }

    fn submit_inner(&self, jobs: Vec<Job>, deadline: Option<Duration>) -> Submit {
        for (i, job) in jobs.iter().enumerate() {
            assert!(
                job.scheme < self.schemes.len(),
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
        let depth = self.in_flight.fetch_add(n, Ordering::SeqCst);
        if depth + n > self.queue_capacity {
            self.in_flight.fetch_sub(n, Ordering::SeqCst);
            return Submit::Rejected { queue_depth: depth };
        }
        let (tx, rx) = channel();
        let shards = self.senders.len();
        for (slot, job) in jobs.into_iter().enumerate() {
            let w = self.next_worker.fetch_add(1, Ordering::Relaxed) % shards;
            let unit = WorkUnit {
                slot,
                job,
                results: tx.clone(),
            };
            if let Err(failed) = self.senders[w].send(unit) {
                // The shard is gone (it exits on its own only when its
                // channel disconnects, so this means a panic outside a
                // job): resolve the job instead of panicking or leaking
                // queue capacity.
                let unit = failed.0;
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                let _ = unit.results.send((unit.slot, Err(JobError::ShardLost)));
            }
        }
        Submit::Accepted(BatchTicket {
            rx,
            total: n,
            resolved: vec![false; n],
            received: 0,
            deadline: deadline.map(|d| Instant::now() + d),
        })
    }

    /// Stop the engine gracefully: disconnect the shards — each drains
    /// every job already queued to it (mpsc delivers queued messages
    /// before reporting disconnection), resolving them all — then join
    /// them. Equivalent to dropping the handle, spelled out for call
    /// sites that want the drain + join to be explicit.
    pub fn shutdown(self) {}
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.senders.clear(); // disconnect: shards drain their queue and exit
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

/// One worker shard: run each queued job on this shard's arena at the
/// engine's resolved cutoff — the identical code path to
/// `multiply_scheme`, so outputs are bitwise equal to the sequential
/// engine whichever shard (or attempt) runs the job. A job that panics is
/// retried in place on a fresh arena until it succeeds or has failed
/// `max_job_retries + 1` times, and then resolves to
/// [`JobError::WorkerPanicked`]; either way its slot resolves, so the
/// owning ticket never hangs. Returns once the dispatch channel
/// disconnects (engine teardown) and is drained.
fn shard_loop(
    rx: Receiver<WorkUnit>,
    schemes: &[BilinearScheme],
    cutoff: usize,
    max_job_retries: u32,
    in_flight: &AtomicUsize,
) {
    let mut arena = ScratchArena::new();
    for unit in rx {
        let job = &unit.job;
        let mut attempts = 0u32;
        let result = loop {
            let run = catch_unwind(AssertUnwindSafe(|| {
                if attempts < job.injected_panics {
                    // Expected, so it skips the panic hook and prints nothing.
                    resume_unwind(Box::new(format!(
                        "injected worker panic (attempt {} of job slot {})",
                        attempts + 1,
                        unit.slot
                    )));
                }
                let mut c = Matrix::zeros(job.a.rows(), job.b.cols());
                multiply_into(
                    &schemes[job.scheme],
                    job.a.view(),
                    job.b.view(),
                    &mut c.view_mut(),
                    cutoff,
                    &mut arena,
                );
                c
            }));
            match run {
                Ok(c) => break Ok(c),
                Err(payload) => {
                    arena = ScratchArena::new();
                    attempts += 1;
                    if attempts > max_job_retries {
                        break Err(JobError::WorkerPanicked {
                            attempts,
                            payload: panic_payload_string(payload.as_ref()),
                        });
                    }
                }
            }
        };
        in_flight.fetch_sub(1, Ordering::SeqCst);
        // The ticket may have been dropped; completing is still correct.
        let _ = unit.results.send((unit.slot, result));
        // Between units: bound what an idle shard keeps warm.
        arena.trim(DEFAULT_MAX_RETAINED_WORDS);
    }
}
