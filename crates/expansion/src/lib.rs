//! # fastmm-expansion — edge expansion estimation for computation graphs
//!
//! The analytic core of the paper is the edge expansion of the decode graph
//! `Dec_k C` (Section 4). This crate estimates and certifies expansion three
//! ways:
//!
//! * [`exact`] — exhaustive enumeration for the small base graphs (Figure 2
//!   scale);
//! * [`spectral`] — power-iteration `λ₂` with the discrete Cheeger bracket
//!   `(1-λ₂)/2 ≤ h ≤ √(2(1-λ₂))`;
//! * [`search`] — sparse-cut portfolio (spectral sweeps, greedy cone growth,
//!   Fiduccia–Mattheyses refinement) producing certified cut upper bounds;
//! * [`certificate`] — exact replay of the Lemma 4.3 proof machinery
//!   (level homogeneity, recursion-tree heterogeneity) on concrete sets,
//!   plus the Claim 2.1 small-set transfer of Corollary 4.4;
//! * [`rank_bound`] — the Ju–Zhang–Solomonik rank-expansion lower bounds
//!   (arXiv:2107.09834) for nested/Kronecker registry schemes, reported
//!   alongside the Thm 1.1 bounds by the e15 experiment.

#![warn(missing_docs)]

pub mod certificate;
pub mod exact;
pub mod rank_bound;
pub mod search;
pub mod spectral;

pub use certificate::{lemma43_certificate, lemma43_min_expansion, Lemma43Certificate};
pub use exact::{exact_expansion, exact_h, ExactCut};
pub use rank_bound::{
    rank_expansion, rank_io_bound, scheme_rank_expansion, NestedSigma, RankExpansion, RankIoBound,
    SchemeRankExpansion,
};
pub use search::{evaluate_cut, find_best_cut, Cut};
pub use spectral::{spectral_bounds, SpectralBounds};
