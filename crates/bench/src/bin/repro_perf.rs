//! E11 — sequential fast MM vs classical packed GEMM: per n, the packed
//! kernel unrecursed next to Strassen and Winograd at the tuned cutoff,
//! GFLOP/s and modeled words vs the Theorem 1.1 bound, plus the
//! `BENCH_seq.json` machine-readable emit.
//!
//! Usage: `repro_perf [--commit] [n...]` — problem sizes default to
//! 256/512/1024. A run writes `target/BENCH_seq.json`; only a `--commit`
//! run rewrites the committed artifact at the repository root. Any other
//! argument that is not a positive size exits with status 2.
//! `FASTMM_CUTOFF` pins the base-case cutoff.
fn main() {
    let mut commit = false;
    let mut ns = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--commit" {
            commit = true;
            continue;
        }
        match arg.parse::<usize>() {
            Ok(n) if n > 0 => ns.push(n),
            _ => {
                eprintln!("repro_perf: {arg:?} is neither --commit nor a positive matrix size");
                eprintln!("usage: repro_perf [--commit] [n...]");
                std::process::exit(2);
            }
        }
    }
    if ns.is_empty() {
        ns = vec![256, 512, 1024];
    }
    let path = if commit {
        fastmm_bench::bench_artifact_path("BENCH_seq.json")
    } else {
        fastmm_bench::bench_smoke_path("BENCH_seq.json")
    };
    println!("{}", fastmm_bench::e11_repro_perf(&ns, Some(&path)));
}
