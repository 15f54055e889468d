//! Expansion analysis of the Strassen decode graph — the heart of the
//! paper's proof (Section 4).
//!
//! Builds `Dec_k C`, estimates its edge expansion three ways (exact, best
//! cut found, spectral Cheeger), replays the Lemma 4.3 proof quantities on
//! the best cut, and prints a DOT drawing of `Dec₁C` (Figure 2, top left).
//!
//! Run with: `cargo run --release --example expansion_analysis`

use fastmm_cdag::layered::{build_dec, SchemeShape};
use fastmm_core::prelude::*;
use fastmm_expansion::certificate::{lemma43_certificate, lemma43_min_expansion};
use fastmm_expansion::exact::exact_h;
use fastmm_expansion::search::find_best_cut;
use fastmm_expansion::spectral::spectral_bounds;

fn main() {
    let shape = SchemeShape::from_scheme(&strassen());

    println!("-- Dec_1 C (Figure 2, top-left) --");
    let dec1 = build_dec(&shape, 1);
    println!("{}", dec1.graph.to_dot("Dec1C"));
    let exact = exact_h(dec1.graph.undirected_csr(), dec1.graph.max_degree());
    println!(
        "exact h(Dec_1 C) = {:.4} (cut {} edges at |U| = {})",
        exact.expansion, exact.cut_edges, exact.size
    );

    println!("\n-- h(Dec_k C) series (Lemma 4.3: h = Omega((4/7)^k)) --");
    println!("k | best cut h | h*(7/4)^k | Cheeger lower | proof guarantee");
    for k in 1..=4usize {
        let dec = build_dec(&shape, k);
        let csr = dec.graph.undirected_csr();
        let d = dec.graph.max_degree();
        let n = dec.graph.n_vertices();
        let cut = if n <= 24 {
            let e = exact_h(csr, d);
            fastmm_expansion::search::evaluate_cut(
                csr,
                d,
                fastmm_cdag::BitSet::from_iter(
                    n,
                    (0..n as u32).filter(|&v| (e.mask >> v) & 1 == 1),
                ),
            )
        } else {
            find_best_cut(csr, d, n / 2)
        };
        let (spec, _) = spectral_bounds(csr, d, 400);
        let guar = lemma43_min_expansion(&dec, d);
        println!(
            "{k} | {:.5} | {:.4} | {:.5} | {:.6}",
            cut.expansion,
            cut.expansion * (7.0f64 / 4.0).powi(k as i32),
            spec.cheeger_lower,
            guar
        );
        if k == 3 {
            let cert = lemma43_certificate(&dec, &cut.set);
            println!(
                "  proof replay at k=3: cut {} >= mixed components {} >= bounds (level {:.1}, tree {:.1}, leaf {:.1})",
                cert.cut_edges,
                cert.mixed_components,
                cert.level_bound,
                cert.tree_bound,
                cert.leaf_bound
            );
        }
    }

    println!("\n-- from expansion to I/O (Lemma 3.3) --");
    let h_lower = |k: usize| {
        let dec = build_dec(&shape, k.min(4));
        lemma43_min_expansion(&dec, dec.graph.max_degree())
            * (4.0f64 / 7.0).powi(k.saturating_sub(4.min(k)) as i32)
    };
    for (lg_n, m) in [(10usize, 1 << 8), (12, 1 << 8), (12, 1 << 12)] {
        match fastmm_core::pipeline::expansion_io_bound(STRASSEN, lg_n, m, h_lower) {
            Some(b) => println!(
                "n = 2^{lg_n}, M = {m}: IO >= {:.3e} words (via k = {}, s = {:.0})",
                b.io_words, b.k, b.s
            ),
            None => println!("n = 2^{lg_n}, M = {m}: problem fits in fast memory"),
        }
    }
}
