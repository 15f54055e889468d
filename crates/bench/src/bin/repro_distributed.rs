//! E12 — distributed-memory execution on simulated ranks: CAPS, Cannon,
//! and the generic block-exchange engine over `P ∈ {1, 4, 7, 49}`,
//! measured words/rank vs the memory-dependent (Cor 1.2/1.4) and
//! memory-independent (arXiv:1202.3177) lower bounds, with bitwise gather
//! checks, plus the `BENCH_dist.json` machine-readable emit.
//!
//! Usage: `repro_distributed [--commit] [n...] [--scale[=n]]` — dimensions
//! default to 56; each must be a positive multiple of 28 (Cannon grids 2
//! and 7, CAPS at p = 7 and 49). CI's `dist-smoke` job passes small sizes.
//!
//! `--scale` additionally runs the E12b strong-scaling sweep through
//! `p = 2401` on the event-driven runtime (at `n = 784` unless
//! `--scale=n` names another positive multiple of 56) and appends its
//! rows to the `BENCH_dist.json` array.
//!
//! A run writes `target/BENCH_dist.json`; only a `--commit` run rewrites
//! the committed artifact at the repository root. Any other argument
//! exits with status 2.

/// `arg` as a positive multiple of `step`, or `None`.
fn dimension(arg: &str, step: usize) -> Option<usize> {
    arg.parse::<usize>()
        .ok()
        .filter(|&n| n > 0 && n.is_multiple_of(step))
}

fn main() {
    // Malformed arguments abort loudly (same contract as the FASTMM_* env
    // validation): a typo must not silently fall back to the default size.
    let mut commit = false;
    let mut scale: Option<usize> = None;
    let mut ns: Vec<usize> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--commit" {
            commit = true;
        } else if arg == "--scale" {
            scale = Some(784);
        } else if let Some(n) = arg.strip_prefix("--scale=").and_then(|v| dimension(v, 56)) {
            scale = Some(n);
        } else if let Some(n) = dimension(&arg, 28) {
            ns.push(n);
        } else {
            eprintln!(
                "repro_distributed: {arg:?} is neither --commit, --scale[=n] (n a positive \
                 multiple of 56) nor a positive multiple of 28"
            );
            eprintln!("usage: repro_distributed [--commit] [n...] [--scale[=n]]");
            std::process::exit(2);
        }
    }
    let ns = if ns.is_empty() { vec![56] } else { ns };
    let path = if commit {
        fastmm_bench::bench_artifact_path("BENCH_dist.json")
    } else {
        fastmm_bench::bench_smoke_path("BENCH_dist.json")
    };
    for (i, &n) in ns.iter().enumerate() {
        // one JSON per run; the last n wins the artifact slot
        let json = (i + 1 == ns.len()).then_some(path.as_str());
        println!("{}", fastmm_bench::e12_distributed(n, json));
    }
    if let Some(n) = scale {
        // appends to the artifact the last e12 run just wrote
        println!(
            "{}",
            fastmm_bench::e12_strong_scaling(n, Some(path.as_str()))
        );
    }
}
