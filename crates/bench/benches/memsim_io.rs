//! Two-level machine simulation throughput (E1/E2 substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::strassen;
use fastmm_memsim::explicit::{multiply_blocked_explicit, multiply_dfs_explicit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_memsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim");
    group.sample_size(10);
    let scheme = strassen();
    for &n in &[64usize, 128] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("dfs_explicit", n), &n, |bch, _| {
            bch.iter(|| multiply_dfs_explicit(&scheme, &a, &b, 768))
        });
        group.bench_with_input(BenchmarkId::new("blocked_explicit", n), &n, |bch, _| {
            bch.iter(|| multiply_blocked_explicit(&a, &b, 768))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_memsim);
criterion_main!(benches);
