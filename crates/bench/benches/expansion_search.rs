//! Expansion estimation throughput (E3 substrate): spectral bounds and the
//! sparse-cut portfolio on Dec_k C.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastmm_cdag::layered::{build_dec, SchemeShape};
use fastmm_expansion::search::find_best_cut;
use fastmm_expansion::spectral::spectral_bounds;
use fastmm_matrix::scheme::strassen;

fn bench_expansion(c: &mut Criterion) {
    let shape = SchemeShape::from_scheme(&strassen());
    let mut group = c.benchmark_group("expansion");
    group.sample_size(10);
    for &k in &[2usize, 3] {
        let dec = build_dec(&shape, k);
        let csr = dec.graph.undirected_csr();
        let d = dec.graph.max_degree();
        group.bench_with_input(BenchmarkId::new("spectral", k), &k, |b, _| {
            b.iter(|| spectral_bounds(csr, d, 200))
        });
        let n = dec.graph.n_vertices();
        group.bench_with_input(BenchmarkId::new("best_cut", k), &k, |b, _| {
            b.iter(|| find_best_cut(csr, d, n / 2))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_expansion);
criterion_main!(benches);
