//! E12 — distributed-memory execution on simulated ranks: CAPS, Cannon,
//! and the generic block-exchange engine over `P ∈ {1, 4, 7, 49}`,
//! measured words/rank vs the memory-dependent (Cor 1.2/1.4) and
//! memory-independent (arXiv:1202.3177) lower bounds, with bitwise gather
//! checks, written machine-readably to `target/BENCH_dist.json`.
//!
//! Usage: `repro_distributed [n...] [--scale]` — dimensions default to
//! 56; each must be a positive multiple of 28 (Cannon grids 2 and 7, CAPS
//! at p = 7 and 49). `--scale` adds the E12b strong-scaling sweep through
//! `p = 2401` on the event-driven runtime at `n = 784`.
//!
//! The artifact holds every run's rows, the scale rows last. The
//! committed copy is a `repro_distributed 28 56 --scale` run, the same 28
//! rows `repro_all` writes: refresh it with `cp target/BENCH_dist.json .`
//! after that run.
fn main() {
    let (ns, scale) =
        fastmm_bench::parse_argv("[n...] [--scale]", Some("--scale"), usize::MAX, |n| {
            n.is_multiple_of(28)
        });
    let ns = if ns.is_empty() { vec![56] } else { ns };
    let mut rows = Vec::new();
    for n in ns {
        let (report, n_rows) = fastmm_bench::e12_distributed(n);
        println!("{report}");
        rows.extend(n_rows);
    }
    if scale {
        let (report, scale_rows) = fastmm_bench::e12_strong_scaling(784);
        println!("{report}");
        rows.extend(scale_rows);
    }
    let path = fastmm_bench::write_artifact("BENCH_dist.json", &rows);
    println!("  machine-readable emit: {}", path.display());
}
