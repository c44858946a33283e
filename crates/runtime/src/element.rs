//! Element types admitted by the matrix extension.
//!
//! "As of now, matrices can only contain integers, booleans, or floating
//! point numbers" (§III-A1). The paper's `int` maps to `i32`, `float` to
//! `f32` (the SSE discussion in §V packs four 32-bit single-precision
//! floats per vector), `bool` to `bool`.

use std::fmt::Debug;

/// Tag identifying an element type at runtime (used by matrix IO and by
/// the compiler's dynamic values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// 32-bit signed integer (`int`).
    Int,
    /// 32-bit float (`float`).
    Float,
    /// Boolean (`bool`).
    Bool,
}

impl ElemType {
    /// Stable one-byte tag used in the matrix file format.
    pub fn tag(self) -> u8 {
        match self {
            ElemType::Int => 0,
            ElemType::Float => 1,
            ElemType::Bool => 2,
        }
    }

    /// Inverse of [`ElemType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ElemType::Int),
            1 => Some(ElemType::Float),
            2 => Some(ElemType::Bool),
            _ => None,
        }
    }

    /// Keyword used in extended-C source (`Matrix float <2>`).
    pub fn keyword(self) -> &'static str {
        match self {
            ElemType::Int => "int",
            ElemType::Float => "float",
            ElemType::Bool => "bool",
        }
    }
}

impl std::fmt::Display for ElemType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Storage element of a [`crate::Matrix`].
pub trait Element: Copy + Send + Sync + PartialEq + Debug + Default + 'static {
    /// Runtime tag of this element type.
    const TYPE: ElemType;
    /// Serialize into exactly 4 little-endian bytes (the file format gives
    /// every element type a 4-byte cell).
    fn to_bytes(self) -> [u8; 4];
    /// Inverse of [`Element::to_bytes`].
    fn from_bytes(b: [u8; 4]) -> Self;
}

impl Element for i32 {
    const TYPE: ElemType = ElemType::Int;
    fn to_bytes(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_bytes(b: [u8; 4]) -> Self {
        i32::from_le_bytes(b)
    }
}

impl Element for f32 {
    const TYPE: ElemType = ElemType::Float;
    fn to_bytes(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_bytes(b: [u8; 4]) -> Self {
        f32::from_le_bytes(b)
    }
}

impl Element for bool {
    const TYPE: ElemType = ElemType::Bool;
    fn to_bytes(self) -> [u8; 4] {
        [u8::from(self), 0, 0, 0]
    }
    fn from_bytes(b: [u8; 4]) -> Self {
        b[0] != 0
    }
}

/// Elements supporting the overloaded arithmetic operators of §III-A2
/// (`int` and `float`; `bool` matrices only support comparison and logical
/// indexing).
pub trait Numeric:
    Element
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Rem<Output = Self>
    + PartialOrd
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
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
    fn one() -> Self {
        1
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
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
        acc + a * b
    }
}
