//! E8: regenerate the CAPS-vs-Corollary-1.2 optimality table.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    print!("{}", fastmm_bench::e8_caps_optimality());
}
