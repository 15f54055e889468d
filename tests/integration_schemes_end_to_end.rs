//! Cross-crate integration: every executable scheme, end to end — algebra,
//! CDAG structure, and arithmetic counts must all agree, for square and
//! rectangular `⟨m,k,n;r⟩` registry entries alike.

use fastmm_cdag::layered::{build_dec, build_h, SchemeShape};
use fastmm_cdag::trace::{trace_multiply, trace_multiply_mkn};
use fastmm_core::prelude::*;
use fastmm_matrix::scheme::all_schemes;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_schemes_multiply_exactly_over_fp() {
    let mut rng = StdRng::seed_from_u64(1);
    for scheme in all_schemes() {
        let (bm, bk, bn) = scheme.dims();
        for levels in 1..=2u32 {
            let (mm, kk, nn) = (bm.pow(levels), bk.pow(levels), bn.pow(levels));
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            assert_eq!(
                multiply_scheme(&scheme, &a, &b, 1),
                multiply_naive(&a, &b),
                "{} {mm}x{kk}x{nn}",
                scheme.name
            );
        }
    }
}

#[test]
fn all_schemes_verify_brent_and_slps() {
    for scheme in all_schemes() {
        scheme
            .verify_brent()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name));
        scheme
            .verify_slps()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name));
    }
}

#[test]
fn traced_cdag_matches_analytic_op_counts_for_all_schemes() {
    for scheme in all_schemes() {
        let (bm, bk, bn) = scheme.dims();
        // two recursion levels of the scheme's native shape
        let (mm, kk, nn) = (bm * bm, bk * bk, bn * bn);
        let t = trace_multiply_mkn(&scheme, mm, kk, nn, 1);
        let (_, adds, muls) = t.graph.kind_counts();
        let expect = scheme_op_count_mkn(&scheme, mm, kk, nn, 1);
        assert_eq!(muls as u128, expect.mults, "{} mults", scheme.name);
        assert_eq!(adds as u128, expect.adds, "{} adds", scheme.name);
    }
}

#[test]
fn strassen_like_membership_is_decided_by_dec1_connectivity() {
    // Section 5.1.1: an algorithm is "Strassen-like" iff its Dec₁C is
    // connected. Strassen and Winograd qualify; classical bases do not (one
    // component per output). Among the rectangular entries, tensoring with
    // the trivial column split ⟨1,1,2⟩ *duplicates* the decode graph (one
    // copy per output column half — disconnected), while the inner split
    // ⟨1,2,1⟩ merges both product halves into every output (connected).
    let cases: Vec<(BilinearScheme, bool)> = vec![
        (classical_scheme(2), false),
        (classical_scheme(3), false),
        (strassen(), true),
        (winograd(), true),
        (strassen().tensor(&strassen()), true),
        (classical_rect(2, 2, 3), false),
        (strassen_2x2x4(), false),
        (winograd_2x4x2(), true),
    ];
    for (scheme, expect_connected) in cases {
        let shape = SchemeShape::from_scheme(&scheme);
        let dec = build_dec(&shape, 1);
        assert_eq!(
            dec.graph.is_connected(),
            expect_connected,
            "{}: connectivity",
            scheme.name
        );
    }
}

#[test]
fn h_graph_io_counts_match_scheme_combinatorics() {
    for scheme in [strassen(), winograd(), winograd_2x4x2()] {
        let shape = SchemeShape::from_scheme(&scheme);
        for k in 1..=3usize {
            let h = build_h(&shape, k);
            assert_eq!(
                h.a_inputs.len(),
                shape.ta.pow(k as u32),
                "{} k={k} A inputs",
                scheme.name
            );
            assert_eq!(
                h.b_inputs.len(),
                shape.tb.pow(k as u32),
                "{} k={k} B inputs",
                scheme.name
            );
            assert_eq!(
                h.graph.outputs.len(),
                shape.tc.pow(k as u32),
                "{} k={k} outputs",
                scheme.name
            );
            assert_eq!(
                h.mults.len(),
                scheme.r.pow(k as u32),
                "{} k={k} mults",
                scheme.name
            );
        }
    }
}

#[test]
fn omega0_orders_bound_predictions_consistently() {
    // lower ω₀ ⇒ lower sequential I/O bound at large n — and the measured
    // arithmetic counts order the same way
    // multiplications: 7^k < 8^k at every depth; the *total* flops
    // crossover sits at much larger n because of the 18 additions/level
    let n = 64;
    let s_ops = scheme_op_count(&strassen(), n, 1);
    let c_ops = scheme_op_count(&classical_scheme(2), n, 1);
    assert!(s_ops.mults < c_ops.mults);
    // growth rate per doubling: 7 vs 8
    let s_big = scheme_op_count(&strassen(), 2 * n, 1);
    let c_big = scheme_op_count(&classical_scheme(2), 2 * n, 1);
    let gs = s_big.total() as f64 / s_ops.total() as f64;
    let gc = c_big.total() as f64 / c_ops.total() as f64;
    assert!(gs < gc, "strassen growth {gs} !< classical growth {gc}");
    let m = 512;
    assert!(
        seq_bandwidth_lower_bound(STRASSEN, 1 << 12, m)
            < seq_bandwidth_lower_bound(CLASSICAL, 1 << 12, m)
    );
}

#[test]
fn rect_omega0_orders_flop_counts_consistently() {
    // ⟨2,2,4;14⟩ beats the trivial ⟨2,2,4;16⟩ at every depth: mults 14^k
    // vs 16^k, and ω₀ orders the bound predictions the same way.
    let wide = strassen_2x2x4();
    let trivial = classical_rect(2, 2, 4);
    for levels in 1..=3u32 {
        let (mm, kk, nn) = (2usize.pow(levels), 2usize.pow(levels), 4usize.pow(levels));
        let fast = scheme_op_count_mkn(&wide, mm, kk, nn, 1);
        let slow = scheme_op_count_mkn(&trivial, mm, kk, nn, 1);
        assert_eq!(fast.mults, 14u128.pow(levels));
        assert_eq!(slow.mults, 16u128.pow(levels));
    }
    let m = 512;
    assert!(
        rect_seq_bandwidth_lower_bound(RECT_2X2X4, 10, m)
            < seq_bandwidth_lower_bound_flops(16f64.powi(10), 3.0, m),
        "lower ω₀ and fewer flops ⇒ lower bound"
    );
}

#[test]
fn padded_multiplication_handles_awkward_sizes() {
    let mut rng = StdRng::seed_from_u64(9);
    for n in [5usize, 11, 13, 21] {
        let a = Matrix::random_int(n, n, 10, &mut rng);
        let b = Matrix::random_int(n, n, 10, &mut rng);
        assert_eq!(
            multiply_scheme(&strassen(), &a, &b, 2),
            multiply_naive(&a, &b),
            "n={n}"
        );
        assert_eq!(
            multiply_scheme(&winograd(), &a, &b, 2),
            multiply_naive(&a, &b),
            "n={n}"
        );
    }
}

#[test]
fn tensor_product_scheme_roundtrips_through_everything() {
    let ss = strassen().tensor(&strassen());
    ss.verify_brent().unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let a = Matrix::random_fp(16, 16, &mut rng);
    let b = Matrix::random_fp(16, 16, &mut rng);
    assert_eq!(multiply_scheme(&ss, &a, &b, 1), multiply_naive(&a, &b));
    // its decode graph is connected (tensor of connected decodes)
    let dec = build_dec(&SchemeShape::from_scheme(&ss), 1);
    assert!(dec.graph.is_connected());
}

#[test]
fn rectangular_scheme_roundtrips_through_everything() {
    // the acceptance path: a nontrivial rectangular scheme is Brent-verified,
    // multiplies real rectangular operands bit-exactly over F_p, traces to a
    // CDAG with r^k products, and its decode graph feeds the expansion
    // machinery.
    let deep = winograd_2x4x2();
    deep.verify_brent().unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let a = Matrix::random_fp(4, 16, &mut rng);
    let b = Matrix::random_fp(16, 4, &mut rng);
    assert_eq!(multiply_scheme(&deep, &a, &b, 1), multiply_naive(&a, &b));
    let t = trace_multiply_mkn(&deep, 4, 16, 4, 1);
    assert_eq!(t.n_mults, 14 * 14);
    let dec = build_dec(&SchemeShape::from_scheme(&deep), 2);
    assert!(dec.graph.is_connected());
    assert_eq!(dec.level_size(2), 14 * 14);
    // square tracer wrapper still works on the square entries
    assert_eq!(trace_multiply(&strassen(), 4, 1).n_mults, 49);
}
