//! # fastmm-core — communication bounds for fast matrix multiplication
//!
//! The primary contribution of *Ballard, Demmel, Holtz, Schwartz, "Graph
//! Expansion and Communication Costs of Fast Matrix Multiplication"
//! (SPAA'11)*, as an executable library:
//!
//! * [`bounds`] — Theorems 1.1/1.3, Corollaries 1.2/1.4, the latency bounds
//!   of footnote 8, and the Table I memory-regime rows, in closed form;
//! * [`registry`] — `(n₀, m(n₀))` parameters of concrete and abstract
//!   Strassen-like schemes;
//! * [`pipeline`] — the expansion ⇒ I/O machinery of Lemma 3.3 / Claim 3.2
//!   evaluated numerically against expansion certificates.
//!
//! The substrate crates are re-exported so downstream users need a single
//! dependency:
//!
//! ```
//! use fastmm_core::prelude::*;
//!
//! let a = Matrix::<i64>::identity(8);
//! let b = Matrix::<i64>::identity(8);
//! let c = multiply_scheme(&strassen(), &a, &b, 2);
//! assert_eq!(c, Matrix::identity(8));
//!
//! let bound = seq_bandwidth_lower_bound(STRASSEN, 1024, 4096);
//! assert!(bound > 0.0);
//! ```

#![warn(missing_docs)]

pub mod bounds;
pub mod pipeline;
pub mod registry;

pub use fastmm_cdag as cdag;
pub use fastmm_expansion as expansion;
pub use fastmm_matrix as matrix;
pub use fastmm_memsim as memsim;
pub use fastmm_parsim as parsim;
pub use fastmm_pebble as pebble;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::bounds::{
        par_bandwidth_lower_bound, par_bandwidth_lower_bound_mem_independent,
        par_latency_lower_bound, rect_seq_bandwidth_lower_bound, seq_bandwidth_lower_bound,
        seq_bandwidth_lower_bound_flops, seq_bandwidth_upper_bound, seq_latency_lower_bound,
        strong_scaling_limit_p, table1_closed_form, table1_lower_bound, MemoryRegime,
    };
    pub use crate::pipeline::{
        dec_vertices, dist_exec_report, expansion_io_bound, fault_exec_report, rank_bound_report,
        seq_exec_report, serve_exec_report, DistExecReport, ExpansionIoBound, FaultExecReport,
        RankBoundReport, SeqExecReport, ServeExecReport,
    };
    pub use crate::registry::{
        all_params, SchemeParams, CLASSICAL, CLASSICAL_2X2X3, LADERMAN, RECT_2X2X4, RECT_2X4X2,
        STRASSEN, STRASSEN_SQUARED,
    };
    pub use fastmm_matrix::arena::{multiply_into, ScratchArena};
    pub use fastmm_matrix::classical::multiply_naive;
    pub use fastmm_matrix::parallel::{
        multiply_scheme_parallel, plan_bfs_dfs, BfsDfsPlan, ParallelConfig,
    };
    pub use fastmm_matrix::recursive::{
        multiply_non_stationary, multiply_scheme, scheme_op_count, scheme_op_count_mkn,
    };
    pub use fastmm_matrix::scheme::{
        classical_rect, classical_scheme, strassen, strassen_2x2x4, winograd, winograd_2x4x2,
        BilinearScheme,
    };
    pub use fastmm_matrix::tune::{default_cutoff, resolve_cutoff};
    pub use fastmm_matrix::{Fp, MatMut, MatRef, Matrix, Scalar};
    pub use fastmm_parsim::{
        caps_plan_for_budget, dist_caps, dist_multiply, CapsPlan, DistConfig, MachineConfig,
        SpmdResult,
    };
}
