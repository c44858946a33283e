//! The source-level builtin functions: the one table the type checker,
//! the lowerer's static types and the lowerer's call translation all
//! match on. Their names are reserved — a program cannot define a
//! function with one of them ([`crate::check_program`] rejects it).

use cmm_ast::{ElemKind, Type};

use crate::typecheck::Ext;

/// A builtin function of the extended-C source language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceBuiltin {
    /// `dimSize(matrix, dim)`: size of one dimension.
    DimSize,
    /// `readMatrix(path)`: element type and rank come from the context.
    ReadMatrix,
    /// `writeMatrix(path, matrix)`.
    WriteMatrix,
    /// `range(lo, hi)`: the int vector `lo, lo+1, .., hi`.
    Range,
    /// `toFloat(x)`: scalar or element-wise conversion.
    ToFloat,
    /// `toInt(x)`: scalar or element-wise conversion.
    ToInt,
    /// `printInt(x)`.
    PrintInt,
    /// `printFloat(x)`.
    PrintFloat,
    /// `printBool(x)`.
    PrintBool,
    /// `rcGet(ptr, index)`.
    RcGet,
    /// `rcSet(ptr, index, value)`.
    RcSet,
    /// `rcLen(ptr)`.
    RcLen,
}

/// One row of the builtin table.
struct Spec {
    name: &'static str,
    /// How arity diagnostics spell the function.
    usage: &'static str,
    arity: usize,
    requires: Option<Ext>,
}

impl SurfaceBuiltin {
    /// Every source-level builtin.
    pub const ALL: [SurfaceBuiltin; 12] = [
        SurfaceBuiltin::DimSize,
        SurfaceBuiltin::ReadMatrix,
        SurfaceBuiltin::WriteMatrix,
        SurfaceBuiltin::Range,
        SurfaceBuiltin::ToFloat,
        SurfaceBuiltin::ToInt,
        SurfaceBuiltin::PrintInt,
        SurfaceBuiltin::PrintFloat,
        SurfaceBuiltin::PrintBool,
        SurfaceBuiltin::RcGet,
        SurfaceBuiltin::RcSet,
        SurfaceBuiltin::RcLen,
    ];

    fn spec(self) -> Spec {
        let row = |name, usage, arity, requires| Spec { name, usage, arity, requires };
        match self {
            SurfaceBuiltin::DimSize => row("dimSize", "dimSize(matrix, dim)", 2, Some(Ext::Matrix)),
            SurfaceBuiltin::ReadMatrix => row("readMatrix", "readMatrix(path)", 1, Some(Ext::Matrix)),
            SurfaceBuiltin::WriteMatrix => {
                row("writeMatrix", "writeMatrix(path, matrix)", 2, Some(Ext::Matrix))
            }
            SurfaceBuiltin::Range => row("range", "range(lo, hi)", 2, Some(Ext::Matrix)),
            SurfaceBuiltin::ToFloat => row("toFloat", "toFloat", 1, None),
            SurfaceBuiltin::ToInt => row("toInt", "toInt", 1, None),
            SurfaceBuiltin::PrintInt => row("printInt", "printInt", 1, None),
            SurfaceBuiltin::PrintFloat => row("printFloat", "printFloat", 1, None),
            SurfaceBuiltin::PrintBool => row("printBool", "printBool", 1, None),
            SurfaceBuiltin::RcGet => row("rcGet", "rcGet", 2, Some(Ext::Rcptr)),
            SurfaceBuiltin::RcSet => row("rcSet", "rcSet", 3, Some(Ext::Rcptr)),
            SurfaceBuiltin::RcLen => row("rcLen", "rcLen", 1, Some(Ext::Rcptr)),
        }
    }

    /// The function's name in source programs.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The builtin called `name`, if any.
    pub fn from_name(name: &str) -> Option<SurfaceBuiltin> {
        SurfaceBuiltin::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        self.spec().arity
    }

    /// The extension that must be enabled to call it (`None`: part of the
    /// host language).
    pub fn requires(self) -> Option<Ext> {
        self.spec().requires
    }

    /// The diagnostic for a call with the wrong number of arguments.
    pub fn arity_error(self) -> String {
        let spec = self.spec();
        let count = ["no arguments", "one argument", "two arguments", "three arguments"];
        format!("{} takes {}", spec.usage, count[spec.arity])
    }

    /// Result type of a well-typed call whose first argument has type
    /// `first`, in a context expecting `expected`.
    pub fn result_type(self, first: &Type, expected: Option<&Type>) -> Type {
        let like = |elem| match first {
            Type::Matrix(_, r) => Type::Matrix(elem, *r),
            _ => elem.scalar(),
        };
        match self {
            SurfaceBuiltin::DimSize | SurfaceBuiltin::RcLen => Type::Int,
            SurfaceBuiltin::ToFloat => like(ElemKind::Float),
            SurfaceBuiltin::ToInt => like(ElemKind::Int),
            SurfaceBuiltin::Range => Type::Matrix(ElemKind::Int, 1),
            SurfaceBuiltin::ReadMatrix => match expected {
                Some(t @ Type::Matrix(..)) => t.clone(),
                _ => Type::Error,
            },
            SurfaceBuiltin::WriteMatrix
            | SurfaceBuiltin::PrintInt
            | SurfaceBuiltin::PrintFloat
            | SurfaceBuiltin::PrintBool
            | SurfaceBuiltin::RcSet => Type::Void,
            SurfaceBuiltin::RcGet => match first {
                Type::Rc(e) => e.scalar(),
                _ => Type::Error,
            },
        }
    }
}
