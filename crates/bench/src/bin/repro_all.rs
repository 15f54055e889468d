//! Run every experiment in sequence (EXPERIMENTS.md snapshot source).
fn main() {
    println!("{}", fastmm_bench::e1_thm11_sequential());
    println!("{}", fastmm_bench::e2_thm13_strassen_like());
    println!("{}", fastmm_bench::e3_lemma43_expansion(5));
    println!("{}", fastmm_bench::e3_certificate_drilldown(3));
    println!("{}", fastmm_bench::e4_cor44_small_set());
    println!("{}", fastmm_bench::e5_fig2_structure());
    println!("{}", fastmm_bench::e6_partition_argument());
    println!("{}", fastmm_bench::e7_table1());
    println!("{}", fastmm_bench::e8_caps_optimality());
    println!("{}", fastmm_bench::e9_rectangular());
    println!("{}", fastmm_bench::e10_parallel(512, &[1, 2, 4, 8]));
    println!(
        "{}",
        fastmm_bench::e11_repro_perf(
            &[128, 256],
            Some(&fastmm_bench::bench_smoke_path("BENCH_seq.json"))
        )
    );
    println!(
        "{}",
        fastmm_bench::e12_distributed(56, Some(&fastmm_bench::bench_smoke_path("BENCH_dist.json")))
    );
    println!(
        "{}",
        fastmm_bench::e13_serve(
            &[40, 64],
            &[2, 4],
            &[1, 2],
            5,
            Some(&fastmm_bench::bench_artifact_path("BENCH_serve.json"))
        )
    );
    println!(
        "{}",
        fastmm_bench::e14_faults(
            &[49, 343],
            32,
            Some(&fastmm_bench::bench_artifact_path("BENCH_faults.json"))
        )
    );
    println!(
        "{}",
        fastmm_bench::e15_graph_scale(
            &[5, 6, 7],
            Some(&fastmm_bench::bench_artifact_path("BENCH_graph.json"))
        )
    );
}
