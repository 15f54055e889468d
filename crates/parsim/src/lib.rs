//! # fastmm-parsim — the distributed-memory machine simulator
//!
//! The parallel model of the paper's Section 1.1, substituted for MPI on a
//! real cluster: `p` ranks on OS threads, blocking α-β messages, per-rank
//! virtual clocks whose maximum is the critical-path time, plus per-rank
//! word/message/memory accounting — exactly the quantities Corollaries
//! 1.2/1.4 and Table I bound.
//!
//! Algorithms: the classical rows of Table I in one body ([`cannon`]:
//! Cannon's algorithm on `c` replicated layers, so `c = 1` is 2D Cannon,
//! `1 < c < p^{1/3}` 2.5D and `c = p^{1/3}` the 3D regime), CAPS, the
//! communication-optimal parallel Strassen ([`caps`](mod@caps)), and the
//! generic distributed-memory execution engine ([`exec`]) that runs
//! *every* registry scheme on any rank count by actual block exchange,
//! bit-identical to the sequential engine.
//!
//! One cost rule prices every rank and link alike: `α + β·len` at both
//! ends of a message and `γ·flops` per compute, less an optional overlap
//! credit (see [`machine`]). One runtime executes the ranks: a cooperative
//! scheduler that grants one ready rank at a time, least virtual ready
//! time first. Since the clocks follow from the send/receive pairing
//! alone, no result depends on that order (short of two ranks failing on
//! their own); the crate's schedule-independence suite re-runs every
//! engine under seeded grant orders and checks the gathers, counters,
//! clocks and failure reports bit for bit.
//!
//! Resilience: [`fault`] is the deterministic fault-injection layer
//! (rank crashes at a chosen send and frame corruption as a
//! config-attached [`FaultPlan`]), and the [`Recovery`] modes survive
//! injected corruption: one crate-private frame module owns the
//! XOR-parity frame codec and the ACK/RETRY re-request protocol that both
//! CAPS and [`exec`] send and receive through.

#![warn(missing_docs)]

pub mod cannon;
pub mod caps;
mod event;
pub mod exec;
pub mod fault;
mod frame;
pub mod machine;

pub use caps::{caps, caps_scheme, CapsPlan, Step};
pub use exec::{
    caps_plan_for_budget, dist_caps, dist_multiply, try_dist_caps, try_dist_multiply, DistConfig,
    DistError,
};
pub use fault::{Fault, FaultPlan, InjectedFault, InjectedKind};
pub use frame::Recovery;
pub use machine::{run_spmd, try_run_spmd, MachineConfig, Rank, RankFailed, RankStats, SpmdResult};

#[cfg(test)]
mod schedule_independence;
