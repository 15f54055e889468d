//! E15 — million-vertex decode graphs on the flat CSR core (build +
//! layering throughput for `Dec_ℓ C`, `⟨2;7⟩`, up to ℓ = 7) and the
//! arXiv:2107.09834 rank-expansion I/O lower bounds evaluated next to
//! Theorem 1.1 for every registry scheme, written machine-readably to
//! `target/BENCH_graph.json`.
//!
//! Usage: `repro_graph_scale [l...]` — positive decode-graph levels,
//! default 5 6 7. Refresh the committed copy with
//! `cp target/BENCH_graph.json .`.
fn main() {
    let (levels, _) = fastmm_bench::parse_argv("[l...]", None, usize::MAX, |_| true);
    let levels = if levels.is_empty() {
        vec![5, 6, 7]
    } else {
        levels
    };
    let (report, rows) = fastmm_bench::e15_graph_scale(&levels);
    print!("{report}");
    let path = fastmm_bench::write_artifact("BENCH_graph.json", &rows);
    println!("  machine-readable emit: {}", path.display());
}
