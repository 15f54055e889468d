//! Scaling benchmark of the engines: the sequential `multiply_scheme` vs
//! `multiply_scheme_parallel` across thread counts on a 2048x2048
//! Strassen multiply, plus a smaller sweep showing where task granularity
//! stops paying.
//!
//! Reported parallel speedups are bounded by the physical core count —
//! `std::thread::available_parallelism` is printed so a 1-core CI box's
//! flat curve is interpretable. The cutoff is pinned at 64, as in e10:
//! at the default cutoff the n = 512 group would not recurse, so its
//! parallel engine would plan one task and time nothing parallel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::parallel::{multiply_scheme_parallel, ParallelConfig};
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::strassen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_parallel_scaling(c: &mut Criterion) {
    println!(
        "available_parallelism = {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let scheme = strassen();
    let cutoff = 64;
    let mut group = c.benchmark_group("parallel_strassen");
    group.sample_size(3);
    for &n in &[512usize, 2048] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |bch, _| {
            bch.iter(|| multiply_scheme(&scheme, &a, &b, cutoff))
        });
        for threads in [1usize, 2, 4, 8] {
            let cfg = ParallelConfig::new(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_t{threads}"), n),
                &n,
                |bch, _| bch.iter(|| multiply_scheme_parallel(&scheme, &a, &b, cutoff, &cfg)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
