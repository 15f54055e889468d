//! Base-case cutoff selection for the arena engine.
//!
//! The recursion switches to the packed micro-kernel
//! ([`crate::pack::multiply_packed_into`]) once every dimension is
//! `≤ cutoff` — the practical "cut the recursion off" hybrid of the
//! paper's Section 5.2. A level pays only if its flop saving,
//! `1 − r/(m·k·n)` of the work below it (12.5 % for Strassen), outweighs
//! its encode and decode traffic. That price is measured, not modeled:
//! experiment e11 (`repro_perf`) times every recursion depth against the
//! unrecursed kernel, and [`DEFAULT_CUTOFF`] is read off its table. This
//! module holds the policy:
//!
//! * [`try_cutoff_from_env`] — the `FASTMM_CUTOFF` environment override,
//!   the one variable the crate reads, validated by its one env parser
//!   (`parse_env_positive`, over a lookup closure so tests pass a map
//!   instead of mutating the process environment): non-numeric, zero, or
//!   absurd values are rejected with an error naming the variable, never
//!   silently defaulted;
//! * [`default_cutoff`] — env override or the compiled default
//!   [`DEFAULT_CUTOFF`];
//! * [`resolve_cutoff`] — an explicit caller value, else the default.
//!
//! Changing the cutoff changes *where* the recursion stops, never the
//! arithmetic order within either regime, so any cutoff yields a correct
//! product — but outputs at different cutoffs are **not** bit-identical to
//! each other over floats (the recursion reassociates), which is why the
//! determinism suite pins engine pairs at equal cutoffs.

/// Compiled default base-case side, read off e11's per-depth table
/// (`BENCH_seq.json` at n ∈ {1024, 2048, 4096}, one AVX-512 core). There
/// a level down to 256-wide leaves costs more in encode and decode
/// traffic than its flop saving buys (at n = 1024 and 4096; n = 2048 is
/// within that run's noise), so the recursion stops at 512-wide leaves:
/// Strassen runs no level at n = 512, one at 1024, two at 2048
/// and three at 4096. Stopping at 1024-wide leaves measured faster still
/// at n = 2048; ROADMAP item 2 records why it waits.
///
/// The repository benchmark's `seq-2048` workload (`perfbench/`) reads
/// this constant as its fast arm's cutoff, so changing it changes what
/// that workload times.
pub const DEFAULT_CUTOFF: usize = 512;

/// Largest cutoff `FASTMM_CUTOFF` accepts. A base case this size is
/// already far beyond any cache (3·65536² words ≈ 100 GiB of f64), so
/// larger values are a typo — most likely a matrix dimension or a byte
/// count pasted where a block side was expected.
pub const MAX_ENV_CUTOFF: usize = 1 << 16;

/// The `FASTMM_CUTOFF` environment override: `Ok(None)` when unset,
/// `Ok(Some(v))` for `1 ..= `[`MAX_ENV_CUTOFF`], and an error naming the
/// variable otherwise. A malformed value can never silently select the
/// compiled default, which would hide typos like `FASTMM_CUTOFF=64k` from
/// every perf number.
pub fn try_cutoff_from_env() -> Result<Option<usize>, String> {
    cutoff_from_lookup(process_env)
}

/// The process environment as a variable lookup (unset and non-UTF-8
/// values both read as `None`).
fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The crate's one environment parser: read the optional positive integer
/// `name` through `lookup`. Returns `Ok(None)` when unset, `Ok(Some(v))`
/// for `1 ..= max`, and an error naming the variable otherwise — so a
/// malformed value can never silently select a default.
fn parse_env_positive(
    lookup: impl Fn(&str) -> Option<String>,
    name: &str,
    max: usize,
) -> Result<Option<usize>, String> {
    let Some(raw) = lookup(name) else {
        return Ok(None);
    };
    let v = raw
        .trim()
        .parse::<usize>()
        .map_err(|_| format!("{name}={raw:?} is not a positive integer (expected 1..={max})"))?;
    if v == 0 {
        return Err(format!(
            "{name}=0 is invalid: unset the variable for the auto default (expected 1..={max})"
        ));
    }
    if v > max {
        return Err(format!(
            "{name}={v} is absurdly large (expected 1..={max}); refusing to run with it"
        ));
    }
    Ok(Some(v))
}

/// [`try_cutoff_from_env`] over an arbitrary variable lookup.
fn cutoff_from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Option<usize>, String> {
    parse_env_positive(lookup, "FASTMM_CUTOFF", MAX_ENV_CUTOFF)
}

/// The cutoff the engines use when the caller does not pin one:
/// `resolve_cutoff(0)`.
pub fn default_cutoff() -> usize {
    resolve_cutoff(0)
}

/// Resolve a caller-supplied cutoff: any positive value is used as-is;
/// `0` means "auto": `FASTMM_CUTOFF` if set, else [`DEFAULT_CUTOFF`]. A
/// malformed `FASTMM_CUTOFF` panics with the [`try_cutoff_from_env`]
/// error rather than running an entire benchmark at a default the user
/// did not ask for.
pub fn resolve_cutoff(requested: usize) -> usize {
    resolve_with(requested, process_env)
}

/// [`resolve_cutoff`] over an arbitrary variable lookup.
fn resolve_with(requested: usize, lookup: impl Fn(&str) -> Option<String>) -> usize {
    if requested > 0 {
        return requested;
    }
    cutoff_from_lookup(lookup)
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(DEFAULT_CUTOFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{child_shape, splits};
    use crate::scheme::strassen;

    /// A variable lookup over fixed `(name, value)` pairs — what tests pass
    /// to [`parse_env_positive`] instead of mutating the process
    /// environment.
    fn fake_env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn env_override_and_resolution() {
        let unset = fake_env(&[]);
        assert_eq!(cutoff_from_lookup(&unset), Ok(None));
        assert_eq!(resolve_with(0, &unset), DEFAULT_CUTOFF);
        assert_eq!(resolve_with(17, &unset), 17);
        let set = fake_env(&[("FASTMM_CUTOFF", "48")]);
        assert_eq!(cutoff_from_lookup(&set), Ok(Some(48)));
        assert_eq!(resolve_with(0, &set), 48);
        assert_eq!(resolve_with(17, &set), 17);
    }

    #[test]
    fn malformed_cutoff_is_rejected_not_defaulted() {
        // The bugfix under test: zero, non-numeric, negative, fractional,
        // and absurdly large values must produce an error naming the
        // variable — the historical behavior silently fell back to the
        // default, hiding typos from every perf measurement.
        for bad in ["junk", "0", "-3", "1.5", "", " ", "99999999"] {
            let err = cutoff_from_lookup(fake_env(&[("FASTMM_CUTOFF", bad)]))
                .expect_err(&format!("FASTMM_CUTOFF={bad:?} must be rejected"));
            assert!(
                err.contains("FASTMM_CUTOFF"),
                "error must name the variable: {err}"
            );
        }
        // boundary: the max is accepted, one past it is not
        let (max, past) = (MAX_ENV_CUTOFF.to_string(), (MAX_ENV_CUTOFF + 1).to_string());
        assert_eq!(
            cutoff_from_lookup(fake_env(&[("FASTMM_CUTOFF", &max)])),
            Ok(Some(MAX_ENV_CUTOFF))
        );
        assert!(cutoff_from_lookup(fake_env(&[("FASTMM_CUTOFF", &past)])).is_err());
    }

    #[test]
    #[should_panic(expected = "FASTMM_DOC_EXAMPLE")]
    fn parse_env_positive_error_names_the_variable() {
        // parse_env_positive is the crate's one env parser; its error must
        // carry the variable name.
        let r = parse_env_positive(
            fake_env(&[("FASTMM_DOC_EXAMPLE", "zero")]),
            "FASTMM_DOC_EXAMPLE",
            16,
        );
        panic!("{}", r.unwrap_err());
    }

    #[test]
    fn default_cutoff_runs_two_strassen_levels_at_2048() {
        // The depth the default picks, counted the way the engine
        // recurses: no level at 512, then one more per doubling of n.
        let dims = strassen().dims();
        let levels = |n: usize| {
            let (mut shape, mut levels) = ((n, n, n), 0);
            while splits(dims, shape, DEFAULT_CUTOFF) {
                shape = child_shape(dims, shape);
                levels += 1;
            }
            levels
        };
        assert_eq!([512, 1024, 2048, 4096].map(levels), [0, 1, 2, 3]);
    }
}
