//! Smoke tests over every experiment the `repro_*` binaries call.
//!
//! Each binary's `main` is a thin wrapper around one of these library
//! functions (parse argv, print the report, write the rows), so exercising
//! the functions here (with small parameters where they take any) keeps
//! the whole `repro_*` family from silently rotting: an experiment that
//! panics, returns empty output, or loses its headline table fails this
//! suite instead of failing only when a human next runs the binary. The
//! binaries' own contract — argv rejected with status 2, the failure
//! report — is driven end to end through `CARGO_BIN_EXE_*`.

use fastmm_bench as exp;

/// Output must be a non-trivial table carrying its headline marker.
fn assert_report(name: &str, out: &str, marker: &str, min_lines: usize) {
    assert!(
        out.contains(marker),
        "{name}: marker {marker:?} missing from output:\n{out}"
    );
    assert!(
        out.lines().count() >= min_lines,
        "{name}: expected >= {min_lines} lines, got {}:\n{out}",
        out.lines().count()
    );
}

/// The rows of a `BENCH_*.json` artifact, each checked to be one JSON
/// object, joined for needle searches.
fn json_objects(rows: &[String]) -> String {
    for row in rows {
        assert!(
            row.starts_with('{') && row.ends_with('}'),
            "not a JSON object: {row}"
        );
    }
    rows.join(",\n")
}

#[test]
fn e1_sequential_io_smoke() {
    assert_report("e1", &exp::e1_thm11_sequential(), "Theorem 1.1", 5);
}

#[test]
fn e2_strassen_like_smoke() {
    assert_report("e2", &exp::e2_thm13_strassen_like(), "Theorem 1.3", 5);
}

#[test]
fn e3_expansion_series_smoke() {
    // The binaries default to k_max = 5 (repro_lemma43_expansion) — the
    // series shape is already visible at k_max = 2 and runs in seconds.
    assert_report("e3", &exp::e3_lemma43_expansion(2), "Lemma 4.3", 3);
}

#[test]
fn e3b_certificate_drilldown_smoke() {
    assert_report(
        "e3b",
        &exp::e3_certificate_drilldown(2),
        "Lemma 4.3 proof replay",
        2,
    );
}

#[test]
fn e4_small_set_smoke() {
    assert_report("e4", &exp::e4_cor44_small_set(), "Corollary 4.4", 4);
}

#[test]
fn e5_cdag_structure_smoke() {
    assert_report("e5", &exp::e5_fig2_structure().0, "Figure 2", 5);
}

#[test]
fn e6_partition_argument_smoke() {
    assert_report("e6", &exp::e6_partition_argument(), "Partition argument", 5);
}

#[test]
fn e7_table1_smoke() {
    assert_report("e7", &exp::e7_table1(), "Table I", 5);
}

#[test]
fn e8_caps_smoke() {
    assert_report("e8", &exp::e8_caps_optimality(), "Corollary 1.2", 4);
}

#[test]
fn e9_rectangular_smoke() {
    assert_report("e9", &exp::e9_rectangular(), "Rectangular schemes", 8);
}

#[test]
fn e10_parallel_smoke() {
    // repro_parallel defaults to n = 1024 and threads 1/2/4/8; the shape of
    // the report is already complete at n = 64 with two thread counts.
    assert_report(
        "e10",
        &exp::e10_parallel(64, &[1, 2]),
        "Parallel execution",
        8,
    );
}

#[test]
fn e10_golden_header_and_bound_formulas() {
    // Golden check: the speedup table header and both bound formulas must
    // stay verbatim — downstream tooling greps for them, and a drifting
    // formula column would silently decouple the report from Section 1.1.
    let out = exp::e10_parallel(64, &[1, 2]);
    for needle in [
        "speedup=T(1 thread)/T(p)",
        "bound=(n/sqrtM)^w0*M",
        "per-thread=bound/p",
        "bfs  tasks  peak_mem(w)",
        "effective words moved (arena DFS recurrence) vs Section 1.1",
    ] {
        assert!(
            out.contains(needle),
            "e10: expected {needle:?} in output:\n{out}"
        );
    }
    // every scheme of the e10 sweep appears on both the speedup and the
    // words-moved side
    for name in [
        "strassen",
        "winograd",
        "strassen⊗⟨1,1,2⟩",
        "⟨1,2,1⟩⊗winograd",
    ] {
        assert!(
            out.matches(name).count() >= 2,
            "e10: scheme {name} missing rows:\n{out}"
        );
    }
}

#[test]
fn e11_perf_trajectory_smoke() {
    // repro_perf defaults to n = 256/512/1024; the report's shape (and the
    // internal per-depth accuracy check) is complete at small n. n = 96
    // pads: its depths run at cutoffs 48 and 24.
    let out = exp::e11_repro_perf(&[64, 96]).0;
    assert_report("e11", &out, "the price of each recursion level", 12);
    for row in ["strassen   96    2       24", "winograd   96    1       48"] {
        assert!(out.contains(row), "e11: missing depth row {row:?}:\n{out}");
    }
}

#[test]
fn e11_golden_header_rows_and_json_emit() {
    // Golden check: headline columns, the classical baseline plus depths
    // 1 and 2 of both schemes, the bound formula, and the BENCH_seq.json
    // rows. The bound formula string must stay verbatim (downstream
    // tooling greps for it, as with e10).
    let (out, rows) = exp::e11_repro_perf(&[64]);
    for needle in [
        "GFLOP/s",
        "vs_classical",
        "levels",
        "median(s)",
        "spread",
        "won",
        "max_abs_diff",
        "words_model",
        "simd=",
        "bound=(n/sqrtM)^w0*M",
        "checked against the classical row",
        "* = the depth the resolved cutoff",
    ] {
        assert!(
            out.contains(needle),
            "e11: expected {needle:?} in output:\n{out}"
        );
    }
    for scheme in ["classical", "strassen", "winograd"] {
        assert!(
            out.lines().any(|l| l.trim_start().starts_with(scheme)),
            "e11: missing row {scheme}:\n{out}"
        );
    }
    let json = json_objects(&rows);
    for needle in [
        "\"scheme\": \"classical\"",
        "\"scheme\": \"strassen\"",
        "\"scheme\": \"winograd\"",
        "\"levels\": 2",
        "\"default\": true",
        "\"rounds\"",
        "\"min_s\"",
        "\"median_s\"",
        "\"spread\"",
        "\"vs_classical\"",
        "\"won\"",
        "\"max_abs_diff\"",
        "\"simd\"",
        "\"gflops\"",
        "\"words_model\"",
        "\"bound_words\"",
        "\"n\": 64",
    ] {
        assert!(
            json.contains(needle),
            "BENCH_seq.json missing {needle}:\n{json}"
        );
    }
    // one object per (scheme, depth) row: classical, then depths 1 and 2
    // of both schemes; the compiled default cutoff (`FASTMM_CUTOFF`
    // unset) does not recurse at n = 64, so the classical row is the
    // marked one
    assert_eq!(rows.len(), 5);
    assert_eq!(
        rows.iter()
            .filter(|r| r.contains("\"default\": true"))
            .count(),
        1
    );
    assert!(rows[0].contains("\"default\": true"), "{}", rows[0]);
    for (row, levels) in rows.iter().zip([0, 1, 2, 1, 2]) {
        assert!(row.contains(&format!("\"levels\": {levels},")), "{row}");
    }
}

#[test]
fn e12_distributed_smoke() {
    // repro_distributed defaults to n = 56; the full report shape (all
    // three tables plus the internal bitwise-gather and measured-vs-bound
    // assertions) is complete at the smallest valid size n = 28.
    assert_report(
        "e12",
        &exp::e12_distributed(28).0,
        "Distributed-memory execution",
        12,
    );
}

#[test]
fn e12_golden_bounds_headers_and_json_emit() {
    // Golden check: the measured words/rank columns are checked against
    // BOTH lower-bound formulas — the strings below are the formulas
    // themselves and must stay verbatim (downstream tooling greps for
    // them, as with e10/e11), and running the experiment executes the
    // internal `measured >= bound` assertions for every p > 1 row plus
    // the bitwise gather checks for every algorithm.
    let (out, rows) = exp::e12_distributed(28);
    for needle in [
        "memdep=(n/sqrtM)^w0*M/p",
        "memindep=n^2/p^(2/w0)",
        "caps/generic bitwise == multiply_scheme",
        "cannon bitwise == replay",
        "words/rank",
        "meas/binding",
        "CAPS DFS/BFS interleaving",
        "every registry scheme (p = 7, bitwise-gathered)",
    ] {
        assert!(
            out.contains(needle),
            "e12: expected {needle:?} in output:\n{out}"
        );
    }
    // the strong-scaling sweep covers all four rank counts for the
    // generic engine, squares for cannon, powers of 7 for caps
    for needle in [
        "generic  strassen   1 ",
        "generic  strassen   4 ",
        "generic  strassen   7 ",
        "generic  strassen   49",
        "cannon   classical  4 ",
        "cannon   classical  49",
        "caps     strassen   7 ",
        "caps     strassen   49",
    ] {
        assert!(
            out.contains(needle),
            "e12: missing strong-scaling row {needle:?}:\n{out}"
        );
    }
    let json = json_objects(&rows);
    for needle in [
        "\"algo\": \"generic\"",
        "\"algo\": \"cannon\"",
        "\"algo\": \"caps\"",
        "\"words_per_rank\"",
        "\"mem_per_rank\"",
        "\"bound_memdep\"",
        "\"bound_memindep\"",
        "\"critical_path\"",
        "\"n\": 28",
    ] {
        assert!(
            json.contains(needle),
            "BENCH_dist.json missing {needle}:\n{json}"
        );
    }
    // 4 generic + 3 cannon (p=1,4,49) + 3 caps (p=1,7,49) rows
    assert_eq!(rows.len(), 10);
}

#[test]
fn e12b_strong_scaling_shape_crossover_and_json_append() {
    // The CI sweep runs at n = 784 in release (where CAPS is valid all the
    // way to p = 2401 and the crossover against Cannon is asserted); the
    // report's shape — all three rank counts actually executing, the
    // strong-scaling-limit line, the overlap sweep, and the rows that
    // `repro_distributed --scale` appends to the e12 rows — is already
    // complete at n = 392, where CAPS reaches p = 343 and Cannon reaches
    // p = 2401.
    let (_, mut rows) = exp::e12_distributed(28);
    let (out, scale_rows) = exp::e12_strong_scaling(392);
    rows.extend(scale_rows);
    for needle in [
        "Strong scaling to p = 2401",
        "generic  strassen   49 ",
        "generic  strassen   343 ",
        "generic  strassen   2401 ",
        "cannon   classical  49 ",
        "cannon   classical  2401 ",
        "caps     strassen   49 ",
        "caps     strassen   343 ",
        "crossover: p=49",
        "perfect strong scaling ends at p*",
        "overlap sweep (caps, p = 343",
    ] {
        assert!(
            out.contains(needle),
            "e12b: expected {needle:?} in output:\n{out}"
        );
    }
    // 10 small-p rows + 3 generic + 2 cannon + 2 caps scale rows, in the
    // one row format
    let json = json_objects(&rows);
    assert_eq!(rows.len(), 17);
    assert_eq!(json.matches("\"algo\"").count(), 17);
    assert!(json.contains("\"local_only\": true"), "p=1 rows marked");
    assert!(json.contains("\"p\": 2401"), "scale rows present");
}

#[test]
fn e13_serve_smoke() {
    // repro_serve defaults to n = 64/128 with batches {4,16} and workers
    // {1,2,4}; the full report shape (and the internal bitwise-vs-
    // multiply_scheme assertion per cell) is complete at one small cell.
    assert_report(
        "e13",
        &exp::e13_serve(&[32], &[4], &[1, 2], 2).0,
        "Serving throughput",
        6,
    );
}

#[test]
fn e13_golden_header_rows_and_json_emit() {
    // Golden check: headline columns, one row per (n, batch, workers)
    // cell, the best-of-reps note, and the BENCH_serve.json rows.
    let (out, rows) = exp::e13_serve(&[32], &[4], &[1, 2], 2);
    for needle in [
        "mult/s",
        "p50(ms)",
        "p99(ms)",
        "share_words/worker",
        "bitwise-verified vs",
        "best-of-reps",
    ] {
        assert!(
            out.contains(needle),
            "e13: expected {needle:?} in output:\n{out}"
        );
    }
    for workers in [1usize, 2] {
        assert!(
            out.lines().any(|l| l.trim_start().starts_with("32 ")
                && l.split_whitespace().nth(2) == Some(&workers.to_string())),
            "e13: missing row n=32 workers={workers}:\n{out}"
        );
    }
    let json = json_objects(&rows);
    for needle in [
        "\"scheme\": \"strassen\"",
        "\"n\": 32",
        "\"batch\": 4",
        "\"workers\": 1",
        "\"workers\": 2",
        "\"multiplies_per_sec\"",
        "\"p50_ms\"",
        "\"p99_ms\"",
        "\"share_words_per_worker\"",
    ] {
        assert!(
            json.contains(needle),
            "BENCH_serve.json missing {needle}:\n{json}"
        );
    }
    // one object per (n, batch, workers) cell
    assert_eq!(rows.len(), 2);
}

#[test]
fn e14_faults_smoke() {
    // repro_faults defaults to p = 49/343; the whole fault × recovery
    // matrix (and its internal bitwise and provenance assertions) is
    // complete at p = 7.
    assert_report(
        "e14",
        &exp::e14_faults(&[7], 16).0,
        "Fault injection and ABFT recovery",
        12,
    );
}

#[test]
fn e14_golden_rows_and_json_emit() {
    // Golden check: every scenario × mode cell of the matrix appears,
    // the silent-corruption row is explicitly non-bitwise, failures carry
    // injected provenance, the serve chaos rows resolve, and the
    // BENCH_faults.json rows carry every cell.
    let (out, rows) = exp::e14_faults(&[7], 16);
    for needle in [
        "floor=n^2/p^(2/w0)",
        "ovh_words/rank",
        "clean       none    ok          true",
        "clean       detect  ok          true",
        "clean       abft    ok          true",
        "single-bit  none    ok          false",
        "single-bit  detect  failed",
        "corruption-detected",
        "single-bit  abft    ok          true",
        "double-bit  abft    ok          true",
        "crash       abft    failed",
        "crash-at-send",
        "serve supervision chaos",
        "transient      1       ok             true",
        "poisoned       inf     panicked",
    ] {
        assert!(
            out.contains(needle),
            "e14: expected {needle:?} in output:\n{out}"
        );
    }
    let json = json_objects(&rows);
    for needle in [
        "\"scenario\": \"clean\"",
        "\"scenario\": \"single-bit\"",
        "\"scenario\": \"double-bit\"",
        "\"scenario\": \"crash\"",
        "\"mode\": \"none\"",
        "\"mode\": \"detect\"",
        "\"mode\": \"abft\"",
        "\"outcome\": \"failed\"",
        "\"frames_corrected\": 1",
        "\"frames_retried\": 1",
        "\"overhead_ratio_to_floor\"",
        "\"injected\": \"crash-at-send\"",
        "\"scenario\": \"serve-poisoned\"",
    ] {
        assert!(
            json.contains(needle),
            "BENCH_faults.json missing {needle}:\n{json}"
        );
    }
    // 8 dist rows (3 clean + 3 single-bit + 1 double-bit + 1 crash) + 3 serve rows
    assert_eq!(rows.len(), 11);
}

#[test]
fn repro_faults_demo_failure_exits_nonzero_with_structured_report() {
    // The satellite contract for every repro binary: a failed simulated
    // rank exits nonzero with the FASTMM_RUN_FAILED structured report —
    // driven end-to-end through the real binary.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro_faults"))
        .arg("--demo-failure")
        .output()
        .expect("repro_faults runs");
    assert!(!out.status.success(), "demo failure must exit nonzero");
    assert_eq!(out.status.code(), Some(2), "rank-failure exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in [
        "FASTMM_RUN_FAILED",
        "\"context\": \"repro_faults --demo-failure\"",
        "\"rank\": 3",
        "\"kind\": \"crash-at-send\"",
    ] {
        assert!(
            stderr.contains(needle),
            "structured report missing {needle}: {stderr}"
        );
    }
}

#[test]
fn repro_distributed_rejects_malformed_arguments_with_status_2() {
    // Every repro binary, before any run: a typo neither panics, nor
    // falls back to a default, nor runs an experiment (which would
    // rewrite an artifact).
    let common = ["--bogus", "--commit", "--"];
    let table: [(&str, &[&str]); 16] = [
        (env!("CARGO_BIN_EXE_repro_all"), &[]),
        (env!("CARGO_BIN_EXE_repro_caps_optimality"), &[]),
        (env!("CARGO_BIN_EXE_repro_cor44_smallset"), &[]),
        (
            env!("CARGO_BIN_EXE_repro_distributed"),
            &["0", "27", "--scale=56"],
        ),
        (env!("CARGO_BIN_EXE_repro_faults"), &["0", "50"]),
        (env!("CARGO_BIN_EXE_repro_fig2_cdag"), &[]),
        (env!("CARGO_BIN_EXE_repro_graph_scale"), &["0"]),
        (env!("CARGO_BIN_EXE_repro_lemma43_expansion"), &["0"]),
        (env!("CARGO_BIN_EXE_repro_parallel"), &[]),
        (env!("CARGO_BIN_EXE_repro_partition_bound"), &[]),
        (env!("CARGO_BIN_EXE_repro_perf"), &["0", "1"]),
        (env!("CARGO_BIN_EXE_repro_rectangular"), &[]),
        (env!("CARGO_BIN_EXE_repro_serve"), &["0"]),
        (env!("CARGO_BIN_EXE_repro_table1_parallel"), &[]),
        (env!("CARGO_BIN_EXE_repro_thm11_seq_io"), &[]),
        (env!("CARGO_BIN_EXE_repro_thm13_strassenlike"), &[]),
    ];
    for (bin, extra) in table {
        for arg in common.iter().chain(extra) {
            let out = std::process::Command::new(bin)
                .arg(arg)
                .output()
                .expect("repro binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {arg:?}");
            assert!(out.stdout.is_empty(), "{bin} {arg:?} ran an experiment");
        }
    }
}

#[test]
fn write_artifact_lands_one_array_under_the_repo_target_dir() {
    let rows = vec!["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()];
    let path = exp::write_artifact("test_write_artifact.json", &rows);
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert_eq!(
        path.canonicalize().unwrap(),
        repo.join("target/test_write_artifact.json")
            .canonicalize()
            .unwrap()
    );
    let json = std::fs::read_to_string(&path).expect("artifact written");
    assert_eq!(json, "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n");
    let empty = std::panic::catch_unwind(|| exp::write_artifact("test_write_artifact.json", &[]));
    assert!(empty.is_err(), "an empty row list must panic");
}

#[test]
fn rank_failure_report_renders_organic_failures_too() {
    use fastmm_parsim::machine::{try_run_spmd, MachineConfig};
    let err = try_run_spmd(MachineConfig::new(2), |rank| {
        if rank.id == 1 {
            panic!("organic bug");
        }
        rank.recv(1, 0)
    })
    .expect_err("must fail");
    let report = exp::rank_failure_report("unit", &err);
    assert!(report.starts_with("FASTMM_RUN_FAILED {"));
    assert!(report.contains("\"injected\": null"));
    assert!(report.contains("organic bug"));
}

#[test]
fn e15_graph_scale_smoke() {
    // debug builds stay at small l; the binary's release default is 5 6 7
    let (out, rows) = exp::e15_graph_scale(&[2, 3]);
    assert_report("e15", &out, "Graph scale", 10);
    assert_report("e15", &out, "rank-expansion", 10);
    // one Dec row per requested level, each with nonzero throughput
    for l in [2usize, 3] {
        assert!(
            out.lines()
                .any(|ln| ln.trim_start().starts_with(&format!("{l} "))),
            "e15: missing Dec row for l={l}:\n{out}"
        );
    }
    // every registry scheme shows up in the bound table
    for name in ["strassen", "classical2", "strassen⊗strassen"] {
        assert!(out.contains(name), "e15: scheme {name} missing:\n{out}");
    }
    // the headline crossover: at l=5/M=4096 the rank bound binds for strassen
    assert!(
        out.lines()
            .any(|ln| ln.contains("strassen ") && ln.contains("4096") && ln.ends_with("rank")),
        "e15: expected a rank-binding strassen row at M=4096:\n{out}"
    );
    // 2 graph rows + 8 registry schemes x 3 memory sizes
    assert_eq!(rows.len(), 26);
    assert!(json_objects(&rows).contains("\"rank_dominates\": true"));
}

#[test]
fn e9_reported_omega0_matches_closed_forms() {
    // Golden check: the ω₀ column of repro_rectangular must equal the
    // closed forms 3·log_{mkn} r to 1e-9 (the experiment prints 9 decimals,
    // so a drifting formula changes the printed digits).
    let out = exp::e9_rectangular();
    let nontrivial = 3.0 * 14f64.ln() / 16f64.ln(); // ⟨2,2,4;14⟩ and ⟨2,4,2;14⟩
    let wanted = [
        format!("{nontrivial:.9}"), // ≈ 2.855516192
        format!("{:.9}", 3.0f64),   // classical⟨2,2,3⟩: exactly 3
    ];
    for w in &wanted {
        assert!(
            out.contains(w.as_str()),
            "e9: expected omega0 {w} in output:\n{out}"
        );
    }
    // both nontrivial rectangular schemes appear with that exponent
    let hits = out.matches(wanted[0].as_str()).count();
    assert!(
        hits >= 2,
        "expected both ⟨2,2,4⟩ and ⟨2,4,2⟩ rows, got {hits}"
    );
}

#[test]
fn e9_reports_io_curves_for_both_nontrivial_schemes() {
    let out = exp::e9_rectangular();
    for name in ["strassen⊗⟨1,1,2⟩", "⟨1,2,1⟩⊗winograd"] {
        let rows = out
            .lines()
            .filter(|l| l.contains(name) && l.contains('x'))
            .count();
        assert!(rows >= 2, "{name}: expected >= 2 I/O curve rows:\n{out}");
    }
}
