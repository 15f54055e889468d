//! E4: regenerate the Corollary 4.4 small-set expansion table.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    print!("{}", fastmm_bench::e4_cor44_small_set());
}
