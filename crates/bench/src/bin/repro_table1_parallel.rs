//! E7: regenerate Table I (parallel memory regimes), formulas and measured.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    print!("{}", fastmm_bench::e7_table1());
}
