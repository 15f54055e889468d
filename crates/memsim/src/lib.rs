//! # fastmm-memsim — the two-level memory hierarchy simulator
//!
//! The sequential machine of the paper's Section 1.1: unbounded slow memory,
//! fast memory of `M` words, messages of up to `M` contiguous words costing
//! `α + βn`. Two execution modes:
//!
//! * [`machine`] — explicitly managed fast memory with capacity enforcement
//!   and exact word/message accounting;
//! * [`explicit`] — the blocked classical and depth-first Strassen-like
//!   algorithms run on real data against that machine (the upper-bound
//!   constructions of Section 1.4.1 and the classical baseline).

#![warn(missing_docs)]

pub mod explicit;
pub mod machine;

pub use explicit::{
    dfs_arena_io_recurrence_mkn, dfs_io_recurrence, dfs_io_recurrence_mkn,
    multiply_blocked_explicit, multiply_dfs_explicit, ExplicitRun,
};
pub use machine::{IoStats, TwoLevelMachine};
