//! # fastmm — root package
//!
//! Reproduction of *Ballard, Demmel, Holtz, Schwartz, "Graph Expansion and
//! Communication Costs of Fast Matrix Multiplication" (SPAA'11)*. This
//! package owns the repo-level integration suites (`tests/`) and runnable
//! examples (`examples/`); its library exports nothing. Both import the
//! workspace crates they exercise directly, and `fastmm_core::prelude` is
//! the one glob import over the whole stack (README's *Workspace map*
//! lists the crates).

#![warn(missing_docs)]
