//! High-level matrix optimizations (paper §III-A4).
//!
//! "The matrix indexing in line 11 of Fig 1 which originally returned a
//! one-dimensional matrix was removed ... a set of high-level
//! optimizations ... observed that the fold iterated across one dimension
//! of mat and there was no need to iterate over a copied slice of mat.
//! This optimization is also not possible via libraries, as high-level and
//! invasive optimizations such as this cannot be applied across separate
//! libraries."
//!
//! This module implements that optimization as an AST rewrite:
//! **slice-index fusion**. An expression that first extracts a sub-matrix
//! and then immediately indexes a single element of it —
//! `mat[i, j, :][k]`, the pattern with-loop bodies produce — is rewritten
//! to index the original matrix directly (`mat[i, j, k]`), eliminating the
//! materialized slice copy entirely. Range offsets are folded in
//! (`m[a:b, :][k]` → `m[a + k, ...]`); logical-index slices are left
//! untouched (they need their selection tables).
//!
//! The with-loop/assignment copy elision of the same section is performed
//! during lowering (see [`crate::lower::LowerOptions::fuse_with_assign`]).

use cmm_ast::*;

use crate::builtins::SurfaceBuiltin;

/// Apply slice-index fusion to a whole program. Returns the rewritten
/// program and how many fusions were performed (reported by the
/// experiment harness).
pub fn fuse_slice_indices(prog: &Program) -> (Program, usize) {
    let mut count = 0usize;
    let functions = prog
        .functions
        .iter()
        .map(|f| Function {
            ret: f.ret.clone(),
            name: f.name.clone(),
            params: f.params.clone(),
            body: fuse_block(&f.body, &mut count),
            span: f.span,
        })
        .collect();
    (Program { functions }, count)
}

fn fuse_block(b: &Block, count: &mut usize) -> Block {
    Block {
        stmts: b.stmts.iter().map(|s| fuse_stmt(s, count)).collect(),
    }
}

fn fuse_stmt(s: &Stmt, count: &mut usize) -> Stmt {
    match s {
        Stmt::Decl { ty, name, init, span } => Stmt::Decl {
            ty: ty.clone(),
            name: name.clone(),
            init: init.as_ref().map(|e| fuse_expr(e, count)),
            span: *span,
        },
        Stmt::Assign {
            target,
            value,
            transforms,
            span,
        } => Stmt::Assign {
            target: fuse_lvalue(target, count),
            value: fuse_expr(value, count),
            transforms: transforms.clone(),
            span: *span,
        },
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        } => Stmt::If {
            cond: fuse_expr(cond, count),
            then_blk: fuse_block(then_blk, count),
            else_blk: else_blk.as_ref().map(|b| fuse_block(b, count)),
            span: *span,
        },
        Stmt::While { cond, body, span } => Stmt::While {
            cond: fuse_expr(cond, count),
            body: fuse_block(body, count),
            span: *span,
        },
        Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        } => Stmt::For {
            init: Box::new(fuse_stmt(init, count)),
            cond: fuse_expr(cond, count),
            step: Box::new(fuse_stmt(step, count)),
            body: fuse_block(body, count),
            span: *span,
        },
        Stmt::Return { value, span } => Stmt::Return {
            value: value.as_ref().map(|e| fuse_expr(e, count)),
            span: *span,
        },
        Stmt::ExprStmt { expr, span } => Stmt::ExprStmt {
            expr: fuse_expr(expr, count),
            span: *span,
        },
        Stmt::Nested(b) => Stmt::Nested(fuse_block(b, count)),
        Stmt::Spawn { target, call, span } => Stmt::Spawn {
            target: target.clone(),
            call: fuse_expr(call, count),
            span: *span,
        },
        Stmt::Sync { span } => Stmt::Sync { span: *span },
    }
}

fn fuse_lvalue(l: &LValue, count: &mut usize) -> LValue {
    match l {
        LValue::Index { base, indices, span } => LValue::Index {
            base: base.clone(),
            indices: indices.iter().map(|ix| fuse_index(ix, count)).collect(),
            span: *span,
        },
        other => other.clone(),
    }
}

fn fuse_index(ix: &IndexExpr, count: &mut usize) -> IndexExpr {
    match ix {
        IndexExpr::At(e) => IndexExpr::At(fuse_expr(e, count)),
        IndexExpr::Range(a, b) => {
            IndexExpr::Range(Box::new(fuse_expr(a, count)), Box::new(fuse_expr(b, count)))
        }
        IndexExpr::All => IndexExpr::All,
    }
}

fn fuse_expr(e: &Expr, count: &mut usize) -> Expr {
    // Rewrite children first so nested patterns fuse bottom-up.
    let e = map_children(e, count);
    if let Expr::Index { base, indices, span } = &e {
        if let Expr::Index {
            base: inner_base,
            indices: inner_ixs,
            span: _,
        } = &**base
        {
            if let Some(merged) = merge_indices(inner_ixs, indices) {
                *count += 1;
                return Expr::Index {
                    base: inner_base.clone(),
                    indices: merged,
                    span: *span,
                };
            }
        }
    }
    e
}

/// Merge `slice[outer...]` where the slice is `m[inner...]` and all outer
/// subscripts are single-element (`At`) indices: each kept dimension of
/// the slice consumes one outer subscript, remapped through the inner
/// selection. Returns `None` (no fusion) if the inner selection uses
/// logical indexing or the outer subscripts are not all `At`.
fn merge_indices(inner: &[IndexExpr], outer: &[IndexExpr]) -> Option<Vec<IndexExpr>> {
    let outer_ats: Vec<&Expr> = outer
        .iter()
        .map(|ix| match ix {
            IndexExpr::At(e) if !matches!(e, Expr::End(_)) && !uses_end(e) => Some(e),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let mut merged = Vec::with_capacity(inner.len());
    let mut next_outer = 0usize;
    for ix in inner {
        match ix {
            IndexExpr::At(e) => {
                // Logical mask subscripts keep the dimension and cannot be
                // fused; plain ints drop it. The AST cannot distinguish
                // them here, so only fuse literal/arithmetic ints — a mask
                // is necessarily a variable or comparison over matrices,
                // which `is_scalar_shaped` rejects conservatively.
                if !is_scalar_shaped(e) {
                    return None;
                }
                merged.push(IndexExpr::At(e.clone()));
            }
            IndexExpr::Range(a, _b) => {
                let o = outer_ats.get(next_outer)?;
                next_outer += 1;
                // slice position k maps to a + k in the original.
                merged.push(IndexExpr::At(Expr::Binary {
                    op: BinOp::Add,
                    left: a.clone(),
                    right: Box::new((*o).clone()),
                    span: o.span(),
                }));
            }
            IndexExpr::All => {
                let o = outer_ats.get(next_outer)?;
                next_outer += 1;
                merged.push(IndexExpr::At((*o).clone()));
            }
        }
    }
    // Every outer subscript must have been consumed.
    (next_outer == outer_ats.len()).then_some(merged)
}

/// Conservative check that a subscript expression is scalar-shaped (an
/// int) rather than a potential logical mask.
fn is_scalar_shaped(e: &Expr) -> bool {
    match e {
        Expr::IntLit(..) | Expr::End(_) => true,
        Expr::Var(..) => true, // generator/loop variables; masks are comparisons
        Expr::Binary { op, left, right, .. } => {
            !op.is_comparison() && is_scalar_shaped(left) && is_scalar_shaped(right)
        }
        Expr::Unary { operand, .. } => is_scalar_shaped(operand),
        Expr::Call { name, .. } => {
            SurfaceBuiltin::from_name(name) == Some(SurfaceBuiltin::DimSize)
        }
        Expr::Cast { ty, .. } => matches!(ty, Type::Int),
        _ => false,
    }
}

fn uses_end(e: &Expr) -> bool {
    match e {
        Expr::End(_) => true,
        Expr::Binary { left, right, .. } => uses_end(left) || uses_end(right),
        Expr::Unary { operand, .. } => uses_end(operand),
        Expr::Cast { expr, .. } => uses_end(expr),
        _ => false,
    }
}

fn map_children(e: &Expr, count: &mut usize) -> Expr {
    match e {
        Expr::Unary { op, operand, span } => Expr::Unary {
            op: *op,
            operand: Box::new(fuse_expr(operand, count)),
            span: *span,
        },
        Expr::Binary { op, left, right, span } => Expr::Binary {
            op: *op,
            left: Box::new(fuse_expr(left, count)),
            right: Box::new(fuse_expr(right, count)),
            span: *span,
        },
        Expr::Call { name, args, span } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| fuse_expr(a, count)).collect(),
            span: *span,
        },
        Expr::Cast { ty, expr, span } => Expr::Cast {
            ty: ty.clone(),
            expr: Box::new(fuse_expr(expr, count)),
            span: *span,
        },
        Expr::Index { base, indices, span } => Expr::Index {
            base: Box::new(fuse_expr(base, count)),
            indices: indices.iter().map(|ix| fuse_index(ix, count)).collect(),
            span: *span,
        },
        Expr::RangeVec { lo, hi, span } => Expr::RangeVec {
            lo: Box::new(fuse_expr(lo, count)),
            hi: Box::new(fuse_expr(hi, count)),
            span: *span,
        },
        Expr::Tuple(parts, span) => Expr::Tuple(
            parts.iter().map(|p| fuse_expr(p, count)).collect(),
            *span,
        ),
        Expr::With { generator, op, span } => Expr::With {
            generator: Box::new(Generator {
                lower: generator.lower.iter().map(|b| fuse_expr(b, count)).collect(),
                vars: generator.vars.clone(),
                upper: generator.upper.iter().map(|b| fuse_expr(b, count)).collect(),
                upper_inclusive: generator.upper_inclusive,
            }),
            op: match op {
                WithOp::Genarray { shape, body } => WithOp::Genarray {
                    shape: shape.iter().map(|s| fuse_expr(s, count)).collect(),
                    body: Box::new(fuse_expr(body, count)),
                },
                WithOp::Fold { op, base, body } => WithOp::Fold {
                    op: *op,
                    base: Box::new(fuse_expr(base, count)),
                    body: Box::new(fuse_expr(body, count)),
                },
                WithOp::Modarray { src, body } => WithOp::Modarray {
                    src: Box::new(fuse_expr(src, count)),
                    body: Box::new(fuse_expr(body, count)),
                },
            },
            span: *span,
        },
        Expr::MatrixMap {
            func,
            matrix,
            dims,
            span,
        } => Expr::MatrixMap {
            func: func.clone(),
            matrix: Box::new(fuse_expr(matrix, count)),
            dims: dims.clone(),
            span: *span,
        },
        Expr::Init { ty, dims, span } => Expr::Init {
            ty: ty.clone(),
            dims: dims.iter().map(|d| fuse_expr(d, count)).collect(),
            span: *span,
        },
        Expr::RcAlloc { elem, len, span } => Expr::RcAlloc {
            elem: *elem,
            len: Box::new(fuse_expr(len, count)),
            span: *span,
        },
        simple => simple.clone(),
    }
}

/// Whether the program contains any nested-index expression
/// (`expr[...][...]`) the fusion could touch. [`fuse_slice_indices`]
/// rebuilds (deep-clones) the entire AST even when it fuses nothing, so
/// callers use this cheap read-only scan to skip the rebuild for the
/// common program with no fusable site. Over-approximates (a nested index
/// that turns out unmergeable still reports `true`); that only costs the
/// rebuild, never a missed fusion.
pub fn has_fusable_slice_index(prog: &Program) -> bool {
    prog.functions.iter().any(|f| scan_block(&f.body))
}

fn scan_block(b: &Block) -> bool {
    b.stmts.iter().any(scan_stmt)
}

fn scan_stmt(s: &Stmt) -> bool {
    match s {
        Stmt::Decl { init, .. } => init.as_ref().is_some_and(scan_expr),
        Stmt::Assign { target, value, .. } => {
            let in_target = match target {
                LValue::Index { indices, .. } => indices.iter().any(scan_index),
                LValue::Var(..) | LValue::Tuple(..) => false,
            };
            in_target || scan_expr(value)
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            scan_expr(cond)
                || scan_block(then_blk)
                || else_blk.as_ref().is_some_and(scan_block)
        }
        Stmt::While { cond, body, .. } => scan_expr(cond) || scan_block(body),
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => scan_stmt(init) || scan_expr(cond) || scan_stmt(step) || scan_block(body),
        Stmt::Return { value, .. } => value.as_ref().is_some_and(scan_expr),
        Stmt::ExprStmt { expr, .. } => scan_expr(expr),
        Stmt::Nested(b) => scan_block(b),
        Stmt::Spawn { call, .. } => scan_expr(call),
        Stmt::Sync { .. } => false,
    }
}

fn scan_index(ix: &IndexExpr) -> bool {
    match ix {
        IndexExpr::At(e) => scan_expr(e),
        IndexExpr::Range(a, b) => scan_expr(a) || scan_expr(b),
        IndexExpr::All => false,
    }
}

fn scan_expr(e: &Expr) -> bool {
    match e {
        Expr::IntLit(..)
        | Expr::FloatLit(..)
        | Expr::BoolLit(..)
        | Expr::StrLit(..)
        | Expr::Var(..)
        | Expr::End(..) => false,
        Expr::Unary { operand, .. } => scan_expr(operand),
        Expr::Binary { left, right, .. } => scan_expr(left) || scan_expr(right),
        Expr::Call { args, .. } => args.iter().any(scan_expr),
        Expr::Cast { expr, .. } => scan_expr(expr),
        Expr::Index { base, indices, .. } => {
            matches!(&**base, Expr::Index { .. })
                || scan_expr(base)
                || indices.iter().any(scan_index)
        }
        Expr::RangeVec { lo, hi, .. } => scan_expr(lo) || scan_expr(hi),
        Expr::Tuple(parts, _) => parts.iter().any(scan_expr),
        Expr::With { generator, op, .. } => {
            generator.lower.iter().any(scan_expr)
                || generator.upper.iter().any(scan_expr)
                || match op {
                    WithOp::Genarray { shape, body } => {
                        shape.iter().any(scan_expr) || scan_expr(body)
                    }
                    WithOp::Fold { base, body, .. } => scan_expr(base) || scan_expr(body),
                    WithOp::Modarray { src, body } => scan_expr(src) || scan_expr(body),
                }
        }
        Expr::MatrixMap { matrix, .. } => scan_expr(matrix),
        Expr::Init { dims, .. } => dims.iter().any(scan_expr),
        Expr::RcAlloc { len, .. } => scan_expr(len),
    }
}
