//! E3: regenerate the Lemma 4.3 expansion series (Figure 3 machinery).
//!
//! Usage: `repro_lemma43_expansion [k_max]` — a positive maximum `k`,
//! default 5 (6 takes a few minutes in release).
fn main() {
    let (k, _) = fastmm_bench::parse_argv("[k_max]", None, 1, |_| true);
    let k_max = k.first().map_or(5, |&k| k);
    print!("{}", fastmm_bench::e3_lemma43_expansion(k_max));
    print!("{}", fastmm_bench::e3_certificate_drilldown(3));
}
