//! Scalar types usable as matrix elements.
//!
//! The recursive fast matrix multiplication engines are generic over a small
//! [`Scalar`] trait rather than the `std::ops` hierarchy so that exact
//! arithmetic types (`i64`, the prime field [`Fp`]) and inexact
//! floats share one interface. Exact scalars let tests assert bit-for-bit
//! equality between classical and Strassen-like products, which is how the
//! whole stack is validated.

use std::fmt::Debug;

/// Element type of a matrix.
///
/// Only ring operations are required: fast matrix multiplication algorithms
/// (Strassen, Winograd, and every "Strassen-like" scheme in the paper's
/// Section 5.1) use additions, subtractions and multiplications — never
/// division — so any commutative ring works.
pub trait Scalar: Copy + Clone + PartialEq + Debug + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Ring addition.
    fn add(self, other: Self) -> Self;
    /// Ring subtraction.
    fn sub(self, other: Self) -> Self;
    /// Ring multiplication.
    fn mul(self, other: Self) -> Self;
    /// Additive inverse.
    fn neg(self) -> Self;
    /// Embed a small signed integer (used for scheme coefficients, which are
    /// in `{-2,-1,0,1,2}` for every scheme we ship).
    fn from_i64(v: i64) -> Self;
    /// `self + c * other` where `c` is a small integer coefficient. The
    /// default unrolls the common `|c| <= 1` cases so that coefficient
    /// application inside encode/decode loops does not pay a general
    /// multiply.
    #[inline]
    fn add_scaled(self, other: Self, c: i64) -> Self {
        match c {
            0 => self,
            1 => self.add(other),
            -1 => self.sub(other),
            _ => self.add(other.mul(Self::from_i64(c))),
        }
    }

    /// `self * a + b` — the accumulation step of the packed micro-kernel
    /// ([`crate::pack`]). The default is the unfused `b + self·a` (one
    /// rounding per operation over floats), which keeps the packed kernel
    /// bit-identical to `multiply_naive`'s ordering. The floats
    /// override this with a hardware fused multiply-add **only** under the
    /// `fma` cargo feature (single rounding — faster and more accurate,
    /// but a *different* well-defined result, so the cross-engine bitwise
    /// witnesses against the unfused kernels are feature-gated off).
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        b.add(self.mul(a))
    }

    /// Micro-tile rows (`MR`) of the packed micro-kernel for this scalar:
    /// the base case accumulates an `MR x NR` register block of `C` per
    /// inner loop. Tuned per type — wide enough to saturate the SIMD
    /// units for floats, conservative for scalars whose multiply cannot
    /// vectorize (the prime field's `u128` product). See
    /// [`crate::pack`] for the supported `(MR, NR)` combinations.
    const MR: usize = 4;
    /// Micro-tile columns (`NR`) of the packed micro-kernel; `NR`
    /// consecutive output columns form the vectorized lane dimension.
    const NR: usize = 4;
}

macro_rules! impl_scalar_float {
    ($t:ty, $mr:expr, $nr:expr) => {
        impl Scalar for $t {
            #[inline]
            fn zero() -> Self {
                0.0
            }
            #[inline]
            fn one() -> Self {
                1.0
            }
            #[inline]
            fn add(self, other: Self) -> Self {
                self + other
            }
            #[inline]
            fn sub(self, other: Self) -> Self {
                self - other
            }
            #[inline]
            fn mul(self, other: Self) -> Self {
                self * other
            }
            #[inline]
            fn neg(self) -> Self {
                -self
            }
            #[inline]
            fn from_i64(v: i64) -> Self {
                v as $t
            }
            // Fused multiply-add, opt-in: single rounding per update is
            // faster and more accurate but not bit-compatible with the
            // unfused default — see the trait method's contract.
            #[cfg(feature = "fma")]
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            // Micro-tile sized so one accumulator block fills the vector
            // register file at this element width (8 x 512-bit rows of
            // f64, or 8 rows x 2 registers of f32) without spilling.
            const MR: usize = $mr;
            const NR: usize = $nr;
        }
    };
}

impl_scalar_float!(f32, 8, 16);
impl_scalar_float!(f64, 8, 8);

/// Wrapping two's-complement arithmetic: the ring `Z / 2^64`, in which
/// every bilinear identity holds exactly.
impl Scalar for i64 {
    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn one() -> Self {
        1
    }
    #[inline]
    fn add(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
    #[inline]
    fn sub(self, other: Self) -> Self {
        self.wrapping_sub(other)
    }
    #[inline]
    fn mul(self, other: Self) -> Self {
        self.wrapping_mul(other)
    }
    #[inline]
    fn neg(self) -> Self {
        self.wrapping_neg()
    }
    #[inline]
    fn from_i64(v: i64) -> Self {
        v
    }
}

/// Modulus of [`Fp`]: the Mersenne prime `2^61 - 1`.
pub const FP_MODULUS: u64 = (1u64 << 61) - 1;

/// An element of the prime field `Z / (2^61 - 1)`.
///
/// Every bilinear matrix multiplication identity over the integers holds over
/// this field, and arithmetic never overflows or rounds, so `Fp` is the
/// reference scalar for property-based equivalence tests between algorithms
/// (classical vs Strassen vs Winograd vs tensor-product schemes).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Fp(u64);

impl Fp {
    /// Construct from a canonical or non-canonical residue.
    #[inline]
    pub fn new(v: u64) -> Self {
        Fp(v % FP_MODULUS)
    }

    /// The canonical residue in `[0, 2^61 - 1)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Debug for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl Scalar for Fp {
    #[inline]
    fn zero() -> Self {
        Fp(0)
    }
    #[inline]
    fn one() -> Self {
        Fp(1)
    }
    #[inline]
    fn add(self, other: Self) -> Self {
        let s = self.0 + other.0;
        Fp(if s >= FP_MODULUS { s - FP_MODULUS } else { s })
    }
    #[inline]
    fn sub(self, other: Self) -> Self {
        let s = self.0 + FP_MODULUS - other.0;
        Fp(if s >= FP_MODULUS { s - FP_MODULUS } else { s })
    }
    #[inline]
    fn mul(self, other: Self) -> Self {
        let prod = (self.0 as u128) * (other.0 as u128);
        // Fast reduction modulo the Mersenne prime 2^61 - 1.
        let lo = (prod & ((1u128 << 61) - 1)) as u64;
        let hi = (prod >> 61) as u64;
        let s = lo + hi;
        Fp(if s >= FP_MODULUS { s - FP_MODULUS } else { s })
    }
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            Fp(0)
        } else {
            Fp(FP_MODULUS - self.0)
        }
    }
    #[inline]
    fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Fp(v as u64 % FP_MODULUS)
        } else {
            Fp(FP_MODULUS - ((-(v as i128)) as u64 % FP_MODULUS)).normalize()
        }
    }
}

impl Fp {
    #[inline]
    fn normalize(self) -> Self {
        Fp(self.0 % FP_MODULUS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_ring_ops() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(2.0f64.add(3.0), 5.0);
        assert_eq!(2.0f64.sub(3.0), -1.0);
        assert_eq!(2.0f64.mul(3.0), 6.0);
        assert_eq!(2.0f64.neg(), -2.0);
        assert_eq!(<f64 as Scalar>::from_i64(-7), -7.0);
    }

    #[test]
    fn int_ring_ops() {
        assert_eq!(5i64.add(7), 12);
        assert_eq!(5i64.sub(7), -2);
        assert_eq!(5i64.mul(7), 35);
        assert_eq!(5i64.neg(), -5);
        assert_eq!(<i64 as Scalar>::from_i64(-3), -3);
    }

    #[test]
    fn add_scaled_unrolled_cases() {
        assert_eq!(10i64.add_scaled(4, 0), 10);
        assert_eq!(10i64.add_scaled(4, 1), 14);
        assert_eq!(10i64.add_scaled(4, -1), 6);
        assert_eq!(10i64.add_scaled(4, 2), 18);
        assert_eq!(10i64.add_scaled(4, -2), 2);
    }

    #[test]
    fn fp_is_a_field_on_samples() {
        let a = Fp::new(123456789012345678);
        let b = Fp::new(987654321098765432);
        let c = Fp::new(31415926535897932);
        // commutativity
        assert_eq!(a.add(b), b.add(a));
        assert_eq!(a.mul(b), b.mul(a));
        // associativity
        assert_eq!(a.add(b).add(c), a.add(b.add(c)));
        assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        // distributivity
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        // inverses
        assert_eq!(a.add(a.neg()), Fp::zero());
        assert_eq!(a.sub(a), Fp::zero());
    }

    #[test]
    fn fp_mul_reduction_matches_naive() {
        // Compare the Mersenne reduction against a direct u128 remainder.
        let samples = [
            0u64,
            1,
            2,
            FP_MODULUS - 1,
            FP_MODULUS / 2,
            0x1234_5678_9abc_def0 % FP_MODULUS,
            0x0fed_cba9_8765_4321 % FP_MODULUS,
        ];
        for &x in &samples {
            for &y in &samples {
                let expect = ((x as u128 * y as u128) % FP_MODULUS as u128) as u64;
                assert_eq!(Fp(x).mul(Fp(y)).value(), expect, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn fp_from_negative() {
        assert_eq!(Fp::from_i64(-1).add(Fp::one()), Fp::zero());
        assert_eq!(Fp::from_i64(-5).add(Fp::from_i64(5)), Fp::zero());
        assert_eq!(
            Fp::from_i64(i64::MIN).add(Fp::from_i64(i64::MIN).neg()),
            Fp::zero()
        );
    }

    #[test]
    fn fp_add_scaled_matches_definition() {
        let a = Fp::new(111);
        let b = Fp::new(222);
        for c in -2i64..=2 {
            let direct = a.add(b.mul(Fp::from_i64(c)));
            assert_eq!(a.add_scaled(b, c), direct, "c={c}");
        }
    }
}
