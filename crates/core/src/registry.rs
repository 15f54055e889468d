//! Scheme parameters for the bound formulas.
//!
//! Theorem 1.3 needs only the shape `⟨m,k,n⟩` and multiplication count `r`
//! of a Strassen-like base case, not its coefficients, so abstract entries
//! (e.g. Laderman's `⟨3; 23⟩`, whose coefficient triple we deliberately do
//! not ship) coexist with the executable schemes of
//! `fastmm-matrix`. Rectangular entries follow arXiv:1209.2184: their
//! exponent is `ω₀ = 3·log_{mkn} r`, which reduces to `log_{n₀} r` in the
//! square case.

use fastmm_matrix::scheme::BilinearScheme;

/// `(⟨m,k,n⟩, r)` of a (possibly abstract) Strassen-like base case.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SchemeParams {
    /// Display name.
    pub name: &'static str,
    /// Left block-grid rows `m`.
    pub m: usize,
    /// Inner block-grid dimension `k`.
    pub k: usize,
    /// Right block-grid columns `n`.
    pub n: usize,
    /// Multiplication count `r`.
    pub r: usize,
}

impl SchemeParams {
    /// Construct square `⟨n₀; r⟩` parameters.
    pub const fn new(name: &'static str, n0: usize, r: usize) -> Self {
        SchemeParams {
            name,
            m: n0,
            k: n0,
            n: n0,
            r,
        }
    }

    /// Construct rectangular `⟨m,k,n; r⟩` parameters.
    pub const fn rect(name: &'static str, m: usize, k: usize, n: usize, r: usize) -> Self {
        SchemeParams { name, m, k, n, r }
    }

    /// `ω₀ = 3·log_{mkn} r` (arXiv:1209.2184; `log_{n₀} r` when square).
    pub fn omega0(&self) -> f64 {
        3.0 * (self.r as f64).ln() / ((self.m * self.k * self.n) as f64).ln()
    }

    /// Whether the base case is square.
    pub fn is_square(&self) -> bool {
        self.m == self.k && self.k == self.n
    }

    /// The square base dimension `n₀` (panics on rectangular entries).
    pub fn n0(&self) -> usize {
        assert!(self.is_square(), "{}: rectangular params", self.name);
        self.m
    }

    /// Extract parameters from an executable scheme.
    pub fn of_scheme(s: &BilinearScheme) -> SchemeParams {
        // leak the name so the struct stays Copy; schemes are few and static
        let name: &'static str = Box::leak(s.name.clone().into_boxed_str());
        let (m, k, n) = s.dims();
        SchemeParams {
            name,
            m,
            k,
            n,
            r: s.r,
        }
    }
}

/// Classical `⟨2; 8⟩` (`ω₀ = 3`).
pub const CLASSICAL: SchemeParams = SchemeParams::new("classical", 2, 8);
/// Strassen / Winograd `⟨2; 7⟩` (`ω₀ = lg 7 ≈ 2.807`).
pub const STRASSEN: SchemeParams = SchemeParams::new("strassen", 2, 7);
/// Laderman `⟨3; 23⟩` (`ω₀ = log₃ 23 ≈ 2.854`), bound formulas only.
pub const LADERMAN: SchemeParams = SchemeParams::new("laderman<3;23>", 3, 23);
/// Strassen tensor square `⟨4; 49⟩` (same `ω₀` as Strassen).
pub const STRASSEN_SQUARED: SchemeParams = SchemeParams::new("strassen⊗strassen", 4, 49);
/// Rectangular `⟨2,2,4; 14⟩` — Strassen ⊗ `⟨1,1,2;2⟩`
/// (`ω₀ = 3·log₁₆ 14 ≈ 2.855`), executable as
/// `fastmm_matrix::scheme::strassen_2x2x4`.
pub const RECT_2X2X4: SchemeParams = SchemeParams::rect("strassen⊗⟨1,1,2⟩", 2, 2, 4, 14);
/// Rectangular `⟨2,4,2; 14⟩` — `⟨1,2,1;2⟩` ⊗ Winograd (same `ω₀` as
/// [`RECT_2X2X4`]), executable as `fastmm_matrix::scheme::winograd_2x4x2`.
pub const RECT_2X4X2: SchemeParams = SchemeParams::rect("⟨1,2,1⟩⊗winograd", 2, 4, 2, 14);
/// Trivial rectangular classical `⟨2,2,3; 12⟩` (`ω₀ = 3`), the baseline the
/// nontrivial rectangular entries beat.
pub const CLASSICAL_2X2X3: SchemeParams = SchemeParams::rect("classical⟨2,2,3⟩", 2, 2, 3, 12);

/// All parameter entries used by the experiment harness.
pub fn all_params() -> Vec<SchemeParams> {
    vec![
        CLASSICAL,
        STRASSEN,
        LADERMAN,
        STRASSEN_SQUARED,
        RECT_2X2X4,
        RECT_2X4X2,
        CLASSICAL_2X2X3,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmm_matrix::scheme::{strassen, strassen_2x2x4, winograd, winograd_2x4x2};

    #[test]
    fn omega0_reference_values() {
        assert!((CLASSICAL.omega0() - 3.0).abs() < 1e-12);
        assert!((STRASSEN.omega0() - 7f64.log2()).abs() < 1e-12);
        assert!((STRASSEN_SQUARED.omega0() - 7f64.log2()).abs() < 1e-12);
        assert!((LADERMAN.omega0() - 23f64.ln() / 3f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rect_omega0_reference_values() {
        let expect = 3.0 * 14f64.ln() / 16f64.ln();
        assert!((RECT_2X2X4.omega0() - expect).abs() < 1e-12);
        assert!((RECT_2X4X2.omega0() - expect).abs() < 1e-12);
        assert!((CLASSICAL_2X2X3.omega0() - 3.0).abs() < 1e-12);
        // the nontrivial rectangular entries genuinely beat ω₀ = 3
        assert!(RECT_2X2X4.omega0() < 3.0);
        // ... but not Strassen's square exponent (mkn = 16 with r = 14 is
        // weaker than 8 with 7)
        assert!(RECT_2X2X4.omega0() > STRASSEN.omega0());
    }

    #[test]
    fn of_scheme_matches_constants() {
        let s = SchemeParams::of_scheme(&strassen());
        assert_eq!((s.n0(), s.r), (STRASSEN.n0(), STRASSEN.r));
        let w = SchemeParams::of_scheme(&winograd());
        assert_eq!((w.n0(), w.r), (2, 7));
        let wide = SchemeParams::of_scheme(&strassen_2x2x4());
        assert_eq!(
            (wide.m, wide.k, wide.n, wide.r),
            (RECT_2X2X4.m, RECT_2X2X4.k, RECT_2X2X4.n, RECT_2X2X4.r)
        );
        let deep = SchemeParams::of_scheme(&winograd_2x4x2());
        assert!(!deep.is_square());
        assert_eq!((deep.m, deep.k, deep.n, deep.r), (2, 4, 2, 14));
    }

    #[test]
    fn registry_is_sorted_by_omega_interval() {
        for p in all_params() {
            let o = p.omega0();
            assert!((2.0..=3.0).contains(&o), "{}: {o}", p.name);
        }
    }
}
