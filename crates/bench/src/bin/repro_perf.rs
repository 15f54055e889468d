//! E11 — sequential fast MM vs classical packed GEMM: per n, the packed
//! kernel unrecursed next to Strassen and Winograd at the tuned cutoff,
//! GFLOP/s and modeled words vs the Theorem 1.1 bound, plus the
//! `BENCH_seq.json` machine-readable emit at the repository root
//! (committed, so the table diffs across changes).
//!
//! Usage: `repro_perf [n...]` — problem sizes default to 256/512/1024;
//! CI's perf-smoke job passes small sizes. Any argument that is not a
//! positive size exits with status 2. `FASTMM_CUTOFF` pins the base-case
//! cutoff.
fn main() {
    let mut ns = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.parse::<usize>() {
            Ok(n) if n > 0 => ns.push(n),
            _ => {
                eprintln!("repro_perf: {arg:?} is not a positive matrix size");
                eprintln!("usage: repro_perf [n...]");
                std::process::exit(2);
            }
        }
    }
    if ns.is_empty() {
        ns = vec![256, 512, 1024];
    }
    println!(
        "{}",
        fastmm_bench::e11_repro_perf(
            &ns,
            Some(&fastmm_bench::bench_artifact_path("BENCH_seq.json"))
        )
    );
}
