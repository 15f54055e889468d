//! E10 — shared-memory parallel execution: speedup vs threads and
//! effective words-moved vs the Section 1.1 bounds. The thread sweep is
//! fixed at 1/2/4/8 so runs are comparable across machines; speedups are
//! bounded by the physical cores.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    println!("{}", fastmm_bench::e10_parallel(1024, &[1, 2, 4, 8]));
}
