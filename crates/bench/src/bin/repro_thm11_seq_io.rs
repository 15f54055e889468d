//! E1: regenerate the Theorem 1.1 tightness table.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    print!("{}", fastmm_bench::e1_thm11_sequential());
}
