//! Wall-clock benchmarks of the multiplication kernels — the classical vs
//! Strassen crossover that motivates the paper's communication analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastmm_matrix::arena::ScratchArena;
use fastmm_matrix::classical::multiply_naive;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::pack::{multiply_packed_into, multiply_packed_into_scalar};
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::{strassen, winograd};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| multiply_naive(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("strassen_c32", n), &n, |bch, _| {
            bch.iter(|| multiply_scheme(&strassen(), &a, &b, 32))
        });
        group.bench_with_input(BenchmarkId::new("winograd_c32", n), &n, |bch, _| {
            bch.iter(|| multiply_scheme(&winograd(), &a, &b, 32))
        });
        // The packed BLIS-style base-case kernel (SIMD-dispatched, and its
        // forced-portable fallback) — the rows the e11 trajectory tracks.
        let mut arena: ScratchArena<f64> = ScratchArena::new();
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, _| {
            bch.iter(|| {
                let mut c = Matrix::<f64>::zeros(n, n);
                multiply_packed_into(a.view(), b.view(), &mut c.view_mut(), &mut arena);
                c
            })
        });
        group.bench_with_input(BenchmarkId::new("packed_portable", n), &n, |bch, _| {
            bch.iter(|| {
                let mut c = Matrix::<f64>::zeros(n, n);
                multiply_packed_into_scalar(a.view(), b.view(), &mut c.view_mut(), &mut arena);
                c
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
