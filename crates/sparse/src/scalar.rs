//! Numeric scalar abstraction so every format and kernel is generic over
//! `f32`/`f64` without pulling in an external numerics crate.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point scalar usable as a matrix element.
///
/// The trait is intentionally small: the SpMM kernels only need a ring with
/// comparison and conversion to/from `f64` (used by generators, feature
/// extraction, and approximate-equality checks in tests).
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `f64` (used by generators).
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64` (used by feature extraction and tests).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `true` for NaN payloads; non-float scalars would return `false`.
    fn is_nan(self) -> bool;
    /// `true` if the value is finite (not NaN / ±inf).
    fn is_finite(self) -> bool;
    /// The IEEE-754 bit pattern, zero-extended to 64 bits (hashing).
    fn bits(self) -> u64;
    /// Fused semantics not required; plain `a*b + self` accumulation.
    #[inline]
    fn mul_add_acc(&mut self, a: Self, b: Self) {
        *self += a * b;
    }
    /// Approximate equality with a relative/absolute hybrid tolerance,
    /// suitable for comparing kernel outputs that reduce in different orders.
    fn approx_eq(self, other: Self, tol: f64) -> bool {
        let (a, b) = (self.to_f64(), other.to_f64());
        if a.is_nan() || b.is_nan() {
            return a.is_nan() && b.is_nan();
        }
        let scale = 1.0_f64.max(a.abs()).max(b.abs());
        (a - b).abs() <= tol * scale
    }
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn bits(self) -> u64 {
                u64::from(<$t>::to_bits(self))
            }
        }
    };
}

impl_scalar!(f32);
impl_scalar!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(f32::ZERO + f32::ONE, 1.0f32);
        assert_eq!(f64::ZERO + f64::ONE, 1.0f64);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f64::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(f32::from_f64(2.5).to_f64(), 2.5);
    }

    #[test]
    fn approx_eq_tolerates_reduction_noise() {
        let a = 1.0f64 + 1e-13;
        assert!(a.approx_eq(1.0, 1e-9));
        assert!(!2.0f64.approx_eq(1.0, 1e-9));
    }

    #[test]
    fn approx_eq_handles_nan() {
        assert!(f64::NAN.approx_eq(f64::NAN, 1e-9));
        assert!(!f64::NAN.approx_eq(1.0, 1e-9));
    }

    #[test]
    fn mul_add_acc_accumulates() {
        let mut acc = 1.0f64;
        acc.mul_add_acc(2.0, 3.0);
        assert_eq!(acc, 7.0);
    }

    #[test]
    fn abs_and_finiteness() {
        assert_eq!((-3.5f32).abs(), 3.5);
        assert!(!f64::INFINITY.is_finite());
        assert!(1.0f64.is_finite());
        assert!(f32::NAN.is_nan());
    }
}
