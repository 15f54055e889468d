//! E5: regenerate the Figure 2 CDAG structure report, and write its DOT
//! drawings to `target/fig2_dec1.dot` and `target/fig2_h1.dot`.
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    let (report, drawings) = fastmm_bench::e5_fig2_structure();
    print!("{report}");
    for (name, dot) in drawings {
        let path = fastmm_bench::write_artifact(name, &[dot]);
        println!("  DOT drawing: {}", path.display());
    }
}
