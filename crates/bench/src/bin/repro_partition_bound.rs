//! E6: regenerate the partition-argument (Eq. 6) vs measured-I/O table.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    print!("{}", fastmm_bench::e6_partition_argument());
}
