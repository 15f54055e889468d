//! Run every experiment in sequence (the index is in `docs/ATLAS.md`), at
//! sizes that also make it the release-mode smoke pass, then write every
//! artifact under `target/`: e5's DOT drawings and
//! `BENCH_{seq,dist,serve,faults,graph}.json`.
fn main() {
    use fastmm_bench::*;
    parse_argv("", None, 0, |_| false);
    println!("{}", e1_thm11_sequential());
    println!("{}", e2_thm13_strassen_like());
    println!("{}", e3_lemma43_expansion(5));
    println!("{}", e3_certificate_drilldown(3));
    println!("{}", e4_cor44_small_set());
    let (e5, drawings) = e5_fig2_structure();
    println!("{e5}");
    println!("{}", e6_partition_argument());
    println!("{}", e7_table1());
    println!("{}", e8_caps_optimality());
    println!("{}", e9_rectangular());
    println!("{}", e10_parallel(512, &[1, 2, 4, 8]));
    let (e11, seq) = e11_repro_perf(&[128, 256]);
    println!("{e11}");
    let mut dist = Vec::new();
    for (report, rows) in [
        e12_distributed(28),
        e12_distributed(56),
        e12_strong_scaling(784),
    ] {
        println!("{report}");
        dist.extend(rows);
    }
    let (e13, serve) = e13_serve(&[40, 64], &[2, 4], &[1, 2, 4], 5);
    println!("{e13}");
    let (e14, faults) = e14_faults(&[49, 343], 32);
    println!("{e14}");
    let (e15, graph) = e15_graph_scale(&[5, 6, 7]);
    println!("{e15}");
    for (name, dot) in drawings {
        println!("DOT drawing: {}", write_artifact(name, &[dot]).display());
    }
    for (name, rows) in [
        ("BENCH_seq.json", seq),
        ("BENCH_dist.json", dist),
        ("BENCH_serve.json", serve),
        ("BENCH_faults.json", faults),
        ("BENCH_graph.json", graph),
    ] {
        println!(
            "machine-readable emit: {}",
            write_artifact(name, &rows).display()
        );
    }
}
