//! E9: rectangular ⟨m,k,n;r⟩ schemes — ω₀ exponents, sequential-I/O
//! curves, and decode-graph structure (arXiv:1209.2184).
fn main() {
    fastmm_bench::parse_argv("", None, 0, |_| false);
    print!("{}", fastmm_bench::e9_rectangular());
}
