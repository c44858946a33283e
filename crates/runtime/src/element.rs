//! Element types admitted by the matrix extension.
//!
//! "As of now, matrices can only contain integers, booleans, or floating
//! point numbers" (§III-A1). The paper's `int` maps to `i32`, `float` to
//! `f32` (the SSE discussion in §V packs four 32-bit single-precision
//! floats per vector), `bool` to `bool`.

use std::fmt::Debug;

use crate::cmmx;

/// Storage element of a [`crate::Matrix`].
pub trait Element: Copy + Send + Sync + PartialEq + Debug + Default + 'static {
    /// Element tag of this type in a CMMX container.
    const TAG: u8;
    /// Serialize into exactly 4 little-endian bytes (the file format gives
    /// every element type a 4-byte cell).
    fn to_bytes(self) -> [u8; 4];
    /// Inverse of [`Element::to_bytes`].
    fn from_bytes(b: [u8; 4]) -> Self;
}

impl Element for i32 {
    const TAG: u8 = cmmx::TAG_I32;
    fn to_bytes(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_bytes(b: [u8; 4]) -> Self {
        i32::from_le_bytes(b)
    }
}

impl Element for f32 {
    const TAG: u8 = cmmx::TAG_F32;
    fn to_bytes(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_bytes(b: [u8; 4]) -> Self {
        f32::from_le_bytes(b)
    }
}

impl Element for bool {
    const TAG: u8 = cmmx::TAG_BOOL;
    fn to_bytes(self) -> [u8; 4] {
        [u8::from(self), 0, 0, 0]
    }
    fn from_bytes(b: [u8; 4]) -> Self {
        b[0] != 0
    }
}

/// Elements the matrix-product kernels accept (`int` and `float`).
pub trait Numeric: Element {
    /// Additive identity.
    fn zero() -> Self;
    /// `acc + a * b`, the step of a matrix product, as two separately
    /// rounded operations — never a fused multiply-add — and wrapping for
    /// `int`. This is exactly what the loop-IR interpreter computes for
    /// the lowered scalar nest, so kernels built on it agree with
    /// interpreted programs bit for bit.
    fn mul_acc(acc: Self, a: Self, b: Self) -> Self;
}

impl Numeric for i32 {
    fn zero() -> Self {
        0
    }
    #[inline]
    fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
        acc.wrapping_add(a.wrapping_mul(b))
    }
}

impl Numeric for f32 {
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
        acc + a * b
    }
}
