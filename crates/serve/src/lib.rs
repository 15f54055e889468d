//! # fastmm-serve — the long-lived batched multiply service
//!
//! Every other entry point in this workspace is one-shot: build operands,
//! multiply, drop the arena. This crate is the opposite shape: a resident
//! engine keeps [`fastmm_matrix::ScratchArena`] pools warm and the
//! base-case cutoff resolved across requests, so the per-request cost is
//! the multiply itself and nothing else. Following the strong-scaling
//! analysis of Demmel et al. (arXiv:1202.3177), the figure of merit here
//! is *throughput* (multiplies/sec at bounded latency), not
//! single-multiply time; experiment e13 (`repro_serve`) measures exactly
//! that.
//!
//! Three pieces:
//!
//! * [`engine`] — [`EngineHandle`]: worker shards on OS threads, each
//!   owning a private warmed arena, all taking jobs from one engine
//!   queue. A request is a *batch* of (scheme, A, B) jobs; the engine
//!   appends it to the queue in submission order, each shard takes the
//!   job at the front, and a caller waiting on its ticket takes its own
//!   batch's base-case jobs (those the cutoff does not split) out of the
//!   queue and runs them on its own thread while a shard is idle.
//!   Admission applies **bounded-queue backpressure**: a submit that
//!   would exceed the queue capacity returns [`Submit::Rejected`] with the
//!   observed depth instead of buffering without bound. Jobs are
//!   **supervised**: a job that panics is retried in place on a fresh
//!   arena up to [`EngineConfig::with_max_job_retries`] times and then
//!   surfaced as a typed [`JobError`] — a ticket never hangs.
//! * [`ser`] — the length-prefixed binary wire format: versioned header,
//!   checked deserialization. Malformed frames return typed
//!   [`ser::WireError`]s — never panic — and zero-dimension operands are
//!   rejected at the boundary so they cannot reach a worker.
//! * Determinism: a shard or a waiting caller computes each job with the
//!   same arena recursion as [`fastmm_matrix::recursive::multiply_scheme`]
//!   at the engine's resolved cutoff, so batched results are **bitwise
//!   identical** to the sequential engine at every worker count and
//!   submission order (locked in by this crate's test suite and asserted
//!   per row by e13 before timing).

#![warn(missing_docs)]

pub mod engine;
pub mod ser;

pub use engine::{
    BatchTicket, EngineConfig, EngineHandle, Job, JobError, JobResult, Submit,
    DEFAULT_MAX_JOB_RETRIES,
};
pub use ser::{
    decode_request, decode_response, encode_request, encode_response, FrameKind, WireError,
    WIRE_VERSION,
};
