//! # fastmm-matrix — dense matrices and Strassen-like multiplication schemes
//!
//! Substrate crate for the reproduction of *Ballard, Demmel, Holtz, Schwartz,
//! "Graph Expansion and Communication Costs of Fast Matrix Multiplication"
//! (SPAA'11)*. It provides:
//!
//! * [`dense::Matrix`] — row-major dense matrices with block views, generic
//!   over exact and inexact [`scalar::Scalar`] rings (including the prime
//!   field [`scalar::Fp`] used for exact cross-algorithm validation);
//! * [`classical`] — Θ(n³) reference kernels (naive, tiled, cache-oblivious);
//! * [`scheme`] — the bilinear `⟨n₀; m(n₀)⟩` framework of the paper's
//!   Section 5.1, with Brent-equation verification, straight-line programs
//!   (Strassen's 18 vs Winograd's 15 additions), and tensor products;
//! * [`arena`] — the zero-allocation strided arena recursion with fused
//!   encode/decode row kernels: the one sequential engine, also run by
//!   every parallel DFS leaf, with its pieces shared by the non-stationary
//!   and distributed engines;
//! * [`pack`] — the BLIS-style packed micro-kernel (runtime SIMD
//!   dispatch, bit-identical to `multiply_naive` in the default build): the
//!   one base case, shared by every engine through
//!   [`arena::multiply_into`];
//! * [`recursive`] — the recursive Strassen-like entry points
//!   ([`recursive::multiply_scheme`], the non-stationary hybrid) and exact
//!   arithmetic operation counts realizing
//!   `T(n) = m(n₀)·T(n/n₀) + O(n²) = Θ(n^{ω₀})`;
//! * [`parallel`] — the shared-memory engine (one task stack shared by
//!   every thread) with the CAPS-style memory-aware BFS/DFS schedule,
//!   bit-identical to the sequential engine at every thread count;
//! * [`tune`] — base-case cutoff selection (`FASTMM_CUTOFF`, and the
//!   compiled default read off e11's per-depth timings).

#![warn(missing_docs)]

pub mod arena;
pub mod classical;
pub mod dense;
pub mod pack;
pub mod parallel;
pub mod recursive;
pub mod scalar;
pub mod scheme;
pub mod tune;

pub use arena::{multiply_into, ScratchArena};
pub use dense::{MatMut, MatRef, Matrix};
pub use pack::{active_simd_level, multiply_packed_into, multiply_packed_into_scalar};
pub use parallel::{multiply_scheme_parallel, plan_bfs_dfs, BfsDfsPlan, ParallelConfig};
pub use scalar::{Fp, Scalar};
pub use scheme::{classical_scheme, strassen, winograd, BilinearScheme};
