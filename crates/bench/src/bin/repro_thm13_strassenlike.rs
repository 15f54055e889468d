//! E2: regenerate the Theorem 1.3 table for other Strassen-like exponents.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    print!("{}", fastmm_bench::e2_thm13_strassen_like());
}
