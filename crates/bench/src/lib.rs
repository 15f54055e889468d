//! # fastmm-bench — experiment harness regenerating every table and figure
//!
//! One module per experiment family (see DESIGN.md §4 for the experiment
//! index). Each produces plain-text tables comparing *paper formula* vs
//! *measured* quantities; the `repro_*` binaries print them, and
//! EXPERIMENTS.md records a snapshot. Shapes (who wins, scaling ratios,
//! crossovers) are the reproduction target — absolute constants depend on
//! the simulated machine.

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;

/// Absolute path of a benchmark artifact at the **repository root**
/// (`BENCH_seq.json`, `BENCH_dist.json`). The repo root is two levels
/// above this crate's manifest, resolved at compile time — stable no
/// matter which directory the binary is invoked from, unlike the old
/// `target/`-relative paths that landed wherever the CWD happened to
/// be. The emitted files are committed, so the perf trajectory diffs
/// across PRs.
pub fn bench_artifact_path(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Absolute path of an uncommitted benchmark artifact under the
/// repository's `target/` directory, resolved like
/// [`bench_artifact_path`]: where smoke-size runs write, so they never
/// overwrite the committed copy.
pub fn bench_smoke_path(name: &str) -> String {
    format!("{}/../../target/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Exit code the `repro_*` binaries use when a simulated rank fails.
pub const RANK_FAILURE_EXIT_CODE: i32 = 2;

/// Render a [`fastmm_parsim::RankFailed`] as the one-line structured
/// stderr report the `repro_*` binaries emit before exiting nonzero:
/// `FASTMM_RUN_FAILED {...}` with the failing rank, panic payload, and —
/// when the failure came from a scheduled
/// [`FaultPlan`](fastmm_parsim::FaultPlan) — its injected provenance.
/// CI and chaos harnesses grep for the `FASTMM_RUN_FAILED` prefix.
pub fn rank_failure_report(context: &str, err: &fastmm_parsim::RankFailed) -> String {
    let injected = match &err.injected {
        Some(inj) => format!(
            "{{\"kind\": \"{}\", \"rank\": {}, \"step\": {}}}",
            inj.kind, inj.rank, inj.step
        ),
        None => "null".to_string(),
    };
    format!(
        "FASTMM_RUN_FAILED {{\"context\": {context:?}, \"rank\": {}, \
         \"payload\": {:?}, \"injected\": {injected}}}",
        err.rank, err.payload
    )
}

/// Print the structured failure report to stderr and exit with
/// [`RANK_FAILURE_EXIT_CODE`] — the `repro_*` binaries' shared path for
/// a failed simulated run (a panicking rank must not look like success
/// to the harness driving the binary).
pub fn exit_on_rank_failure(context: &str, err: &fastmm_parsim::RankFailed) -> ! {
    eprintln!("{}", rank_failure_report(context, err));
    std::process::exit(RANK_FAILURE_EXIT_CODE);
}
