//! Cross-crate integration: the expansion machinery (Section 4) feeding the
//! I/O bound pipeline (Section 3).

use fastmm_cdag::layered::{build_dec, build_h, SchemeShape};
use fastmm_core::pipeline::expansion_io_bound;
use fastmm_core::prelude::*;
use fastmm_expansion::certificate::{lemma43_certificate, lemma43_min_expansion};
use fastmm_expansion::exact::exact_h;
use fastmm_expansion::search::find_best_cut;
use fastmm_expansion::spectral::spectral_bounds;
use fastmm_memsim::explicit::multiply_dfs_explicit;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn strassen_shape() -> SchemeShape {
    SchemeShape::from_scheme(&strassen())
}

#[test]
fn every_found_cut_respects_the_lemma_guarantee() {
    // Lemma 4.3 is a lower bound on h; no cut may beat it.
    for k in 1..=3usize {
        let dec = build_dec(&strassen_shape(), k);
        let d = dec.graph.max_degree();
        let csr = dec.graph.undirected_csr();
        let n = dec.graph.n_vertices();
        let best = if n <= 24 {
            exact_h(csr, d).expansion
        } else {
            find_best_cut(csr, d, n / 2).expansion
        };
        let guarantee = lemma43_min_expansion(&dec, d);
        assert!(
            best >= guarantee,
            "k={k}: found cut {best} below the proof guarantee {guarantee}"
        );
    }
}

#[test]
fn cheeger_brackets_the_best_cut() {
    for k in 1..=3usize {
        let dec = build_dec(&strassen_shape(), k);
        let d = dec.graph.max_degree();
        let csr = dec.graph.undirected_csr();
        let n = dec.graph.n_vertices();
        let (spec, _) = spectral_bounds(csr, d, 800);
        let best = if n <= 24 {
            exact_h(csr, d).expansion
        } else {
            find_best_cut(csr, d, n / 2).expansion
        };
        // the found cut is an upper bound on h, so it must exceed the
        // spectral lower bound
        assert!(
            best >= spec.cheeger_lower - 1e-9,
            "k={k}: cut {best} vs cheeger lower {}",
            spec.cheeger_lower
        );
    }
}

#[test]
fn certificate_chain_on_best_cuts() {
    let dec = build_dec(&strassen_shape(), 3);
    let d = dec.graph.max_degree();
    let csr = dec.graph.undirected_csr();
    let cut = find_best_cut(csr, d, dec.graph.n_vertices() / 2);
    let cert = lemma43_certificate(&dec, &cut.set);
    assert_eq!(
        cert.cut_edges, cut.cut_edges,
        "certificate recount must agree"
    );
    assert!(cert.mixed_components <= cert.cut_edges);
    let m = cert.mixed_components as f64 + 1e-9;
    assert!(cert.level_bound <= m);
    assert!(cert.tree_bound <= m);
    assert!(cert.leaf_bound <= m);
}

#[test]
fn expansion_bound_is_dominated_by_measured_io() {
    // End-to-end soundness: the Lemma 3.3 bound derived from the proof's
    // expansion guarantee must stay below the measured I/O of a real
    // implementation at the same (n, M).
    let h_lower = {
        let shape = strassen_shape();
        move |k: usize| {
            let kk = k.min(4);
            let dec = build_dec(&shape, kk);
            lemma43_min_expansion(&dec, dec.graph.max_degree())
                * (4.0f64 / 7.0).powi((k - kk) as i32)
        }
    };
    // The proof constants are conservative (c ≈ 1/40), so the certified
    // bound only becomes non-vacuous once 4^k outgrows 3M/c — hence the
    // large n : M ratio here.
    let (lg_n, m) = (8usize, 16usize);
    let n = 1usize << lg_n;
    let bound = expansion_io_bound(STRASSEN, lg_n, m, h_lower)
        .expect("n=256, M=16 does not fit in fast memory");
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::<f64>::random(n, n, &mut rng);
    let b = Matrix::<f64>::random(n, n, &mut rng);
    let measured = multiply_dfs_explicit(&strassen(), &a, &b, m)
        .io
        .total_words() as f64;
    assert!(
        bound.io_words <= measured,
        "lower bound {} exceeds a real implementation's I/O {measured}",
        bound.io_words
    );
}

#[test]
fn h_graph_supports_the_alpha_third_argument() {
    // Lemma 3.3 uses that DecC holds a constant fraction of H's vertices
    for k in 1..=4 {
        let h = build_h(&strassen_shape(), k);
        let frac = h.dec.graph.n_vertices() as f64 / h.graph.n_vertices() as f64;
        assert!(frac >= 1.0 / 3.0, "k={k}: {frac}");
        assert!(
            frac <= 0.75,
            "k={k}: decode cannot dominate everything: {frac}"
        );
    }
}

#[test]
fn decomposition_transfers_small_set_expansion() {
    // Claim 2.1 hypothesis: Dec_4 decomposes into edge-disjoint Dec_2's;
    // combined with exact h(Dec_1) it certifies h_s at s = |V_1|/2.
    let big = build_dec(&strassen_shape(), 4);
    let copies = big.decompose(2);
    let small = build_dec(&strassen_shape(), 2);
    assert_eq!(copies.len(), 16 + 49);
    for c in &copies {
        assert_eq!(c.len(), small.graph.n_vertices());
    }
}
