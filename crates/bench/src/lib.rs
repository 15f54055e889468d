//! # fastmm-bench — experiment harness regenerating every table and figure
//!
//! One module per experiment family (`docs/ATLAS.md` holds the experiment
//! index). Each produces plain-text tables comparing *paper formula* vs
//! *measured* quantities; the `repro_*` binaries print them. Shapes (who
//! wins, scaling ratios, crossovers) are the reproduction target —
//! absolute constants depend on the simulated machine.
//!
//! Experiments never touch the file system: the ones with a
//! machine-readable side return its JSON rows next to the report, and the
//! binaries hand them to [`write_artifact`], the one writer.

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;

use std::path::{Path, PathBuf};

/// Write `rows` to `<repo>/target/<name>` and return the path: one JSON
/// array (`[`, the rows comma-separated, `]`) for a `.json` name, the rows
/// back to back for any other (a DOT drawing is one row). The repository
/// root is resolved at compile time, so the file lands in the same place
/// whatever directory the binary runs from; nothing ever writes a
/// committed artifact at the root — refresh one with
/// `cp target/<name> .`.
///
/// # Panics
///
/// On an empty row list (a run that produced nothing must not look like
/// one that did) and on any I/O error, naming the path.
pub fn write_artifact(name: &str, rows: &[String]) -> PathBuf {
    assert!(
        !rows.is_empty(),
        "{name}: refusing to write an empty artifact"
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root")
        .join("target");
    let path = dir.join(name);
    let body = if name.ends_with(".json") {
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    } else {
        rows.concat()
    };
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// The one argv parser of the `repro_*` binaries: returns the positional
/// values in order and whether `flag` was passed. A binary takes at most
/// `max_values` values, each a positive integer that `valid` accepts, plus
/// its one `flag` if it has one. Anything else — an unknown flag, `--`, a
/// zero, a value `valid` rejects, one value too many — prints
/// `usage: <binary> <usage>` to stderr and exits with status 2 before any
/// experiment runs: a typo never falls back to a default.
pub fn parse_argv(
    usage: &str,
    flag: Option<&str>,
    max_values: usize,
    valid: fn(usize) -> bool,
) -> (Vec<usize>, bool) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let bin = Path::new(&bin)
        .file_name()
        .map_or(bin.clone(), |f| f.to_string_lossy().into_owned());
    let (mut values, mut flagged) = (Vec::new(), false);
    for arg in args {
        if Some(arg.as_str()) == flag {
            flagged = true;
            continue;
        }
        match arg.parse::<usize>() {
            Ok(v) if v > 0 && valid(v) && values.len() < max_values => values.push(v),
            _ => {
                eprintln!("{bin}: unexpected argument {arg:?}");
                eprintln!("{}", format!("usage: {bin} {usage}").trim_end());
                std::process::exit(2);
            }
        }
    }
    (values, flagged)
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
