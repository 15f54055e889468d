//! Base-case cutoff selection for the arena engine.
//!
//! The recursion switches to the packed micro-kernel
//! ([`crate::pack::multiply_packed_into`]) once every dimension is
//! `≤ cutoff` — the practical "cut the recursion off" hybrid of the
//! paper's Section 5.2. The packed kernel's GFLOP/s keeps *rising* with
//! the base-case side (register tiling and packing amortize better on
//! deeper inner dimensions), while one more recursion level saves only
//! `1 - r/(m·k·n)` of the flops (12.5% for Strassen), so the optimal
//! cutoff is much larger than the old cache-blocked kernel's; this module
//! provides the selection policy:
//!
//! * [`try_cutoff_from_env`] — the `FASTMM_CUTOFF` environment override,
//!   the one variable the crate reads, validated by its one env parser
//!   (`parse_env_positive`, over a lookup closure so tests pass a map
//!   instead of mutating the process environment): non-numeric, zero, or
//!   absurd values are rejected with an error naming the variable, never
//!   silently defaulted;
//! * [`default_cutoff`] — env override or the compiled default
//!   [`DEFAULT_CUTOFF`];
//! * [`resolve_cutoff`] — an explicit caller value, else the default;
//! * [`calibrate_cutoff`] — a timed micro-search over candidate cutoffs on
//!   a probe problem, for machines where the compiled default is wrong.
//!
//! Changing the cutoff changes *where* the recursion stops, never the
//! arithmetic order within either regime, so any cutoff yields a correct
//! product — but outputs at different cutoffs are **not** bit-identical to
//! each other over floats (the recursion reassociates), which is why the
//! determinism suite pins engine pairs at equal cutoffs.

use crate::arena::{multiply_into, ScratchArena};
use crate::dense::Matrix;
use crate::scheme::BilinearScheme;

/// Compiled default base-case side, sized against the packed micro-kernel
/// ([`crate::pack`]): its measured f64 throughput roughly doubles from a
/// `64³` to a `256³` base case (the packed panels amortize over a deeper
/// inner dimension), which outweighs the `r/(m·k·n)` flop saving of one
/// more recursion level, while a `256²` output tile plus pack buffers
/// still fits L2. The old cache-blocked kernel's default was 64.
pub const DEFAULT_CUTOFF: usize = 256;

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

/// Candidate cutoffs [`calibrate_cutoff`] times, ascending. 256 entered
/// with the packed micro-kernel, whose throughput still rises there.
pub const CALIBRATE_CANDIDATES: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// Timed micro-search for the fastest base-case cutoff of `scheme` on this
/// machine: runs the arena engine (and therefore the packed micro-kernel
/// base case) on a deterministic `probe_n x probe_n` `f64` multiply at
/// each candidate in [`CALIBRATE_CANDIDATES`]` ∩ [1, probe_n]` and returns
/// the argmin.
///
/// **Repetition policy:** each candidate gets one untimed warm-up (fills
/// the arena pool and the caches) followed by **three timed repetitions
/// scored by their minimum** — the min, not the mean, because timing
/// noise on a shared machine is strictly additive (preemption, cache
/// eviction), so the smallest sample is the best estimate of the true
/// cost. A single-repetition argmin (the pre-fix behavior) flipped
/// run-to-run under that noise. Ties break toward the **smaller** cutoff,
/// deterministically: candidates are visited in ascending order and a
/// later candidate must be *strictly* faster to displace the incumbent.
///
/// The search is a measurement, so the returned value can vary across
/// machines and runs — that is the point. Use it once per deployment and
/// pin the winner via `FASTMM_CUTOFF`; never calibrate inside a path that
/// needs run-to-run bit-reproducibility at unpinned cutoffs.
pub fn calibrate_cutoff(scheme: &BilinearScheme, probe_n: usize) -> usize {
    let probe_n = probe_n.max(8);
    let a = Matrix::from_fn(probe_n, probe_n, |i, j| {
        ((i * 31 + j * 17) % 61) as f64 / 61.0 - 0.5
    });
    let b = Matrix::from_fn(probe_n, probe_n, |i, j| {
        ((i * 13 + j * 41) % 53) as f64 / 53.0 - 0.5
    });
    let mut arena: ScratchArena<f64> = ScratchArena::new();
    let mut c = Matrix::zeros(probe_n, probe_n);
    let mut run = |cutoff: usize| {
        c.view_mut().fill_zero();
        multiply_into(
            scheme,
            a.view(),
            b.view(),
            &mut c.view_mut(),
            cutoff,
            &mut arena,
        );
    };
    // Seed with the compiled constant, not default_cutoff(): calibration
    // measures, so it must not depend on FASTMM_CUTOFF, and the loop
    // below always runs at least once (probe_n >= 8), overwriting the
    // seed.
    let mut best = (f64::INFINITY, DEFAULT_CUTOFF.min(probe_n));
    for &cutoff in CALIBRATE_CANDIDATES.iter().filter(|&&c| c <= probe_n) {
        run(cutoff); // untimed warm-up
        let mut secs = f64::INFINITY;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            run(cutoff);
            secs = secs.min(start.elapsed().as_secs_f64());
        }
        // Strict `<` plus ascending candidate order = deterministic
        // tie-break toward the smaller cutoff.
        if secs < best.0 {
            best = (secs, cutoff);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn calibrate_returns_a_candidate_within_probe() {
        let c = calibrate_cutoff(&strassen(), 64);
        assert!([8, 16, 32, 64].contains(&c), "got {c}");
    }

    #[test]
    fn calibrate_candidates_are_ascending_for_the_tie_break() {
        // The documented tie-break (toward the smaller cutoff) relies on
        // visiting candidates in ascending order with a strict `<`.
        assert!(CALIBRATE_CANDIDATES.windows(2).all(|w| w[0] < w[1]));
    }
}
