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
//! This module implements that optimization as an in-place AST rewrite:
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

/// Apply slice-index fusion to a whole program, rewriting each fusable
/// site where it stands. Returns how many fusions were performed (the
/// `optimize` pass's item count).
pub fn fuse_slice_indices(prog: &mut Program) -> usize {
    let mut count = 0usize;
    for f in &mut prog.functions {
        fuse_block(&mut f.body, &mut count);
    }
    count
}

fn fuse_block(b: &mut Block, count: &mut usize) {
    for s in &mut b.stmts {
        fuse_stmt(s, count);
    }
}

fn fuse_stmt(s: &mut Stmt, count: &mut usize) {
    match s {
        Stmt::Decl { init: Some(e), .. }
        | Stmt::Return { value: Some(e), .. }
        | Stmt::ExprStmt { expr: e, .. }
        | Stmt::Spawn { call: e, .. } => fuse_expr(e, count),
        Stmt::Assign { target, value, .. } => {
            if let LValue::Index { indices, .. } = target {
                indices.iter_mut().for_each(|ix| fuse_index(ix, count));
            }
            fuse_expr(value, count);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            fuse_expr(cond, count);
            fuse_block(then_blk, count);
            if let Some(b) = else_blk {
                fuse_block(b, count);
            }
        }
        Stmt::While { cond, body, .. } => {
            fuse_expr(cond, count);
            fuse_block(body, count);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            fuse_stmt(init, count);
            fuse_expr(cond, count);
            fuse_stmt(step, count);
            fuse_block(body, count);
        }
        Stmt::Nested(b) => fuse_block(b, count),
        Stmt::Decl { init: None, .. } | Stmt::Return { value: None, .. } | Stmt::Sync { .. } => {}
    }
}

fn fuse_index(ix: &mut IndexExpr, count: &mut usize) {
    match ix {
        IndexExpr::At(e) => fuse_expr(e, count),
        IndexExpr::Range(a, b) => {
            fuse_expr(a, count);
            fuse_expr(b, count);
        }
        IndexExpr::All => {}
    }
}

fn fuse_expr(e: &mut Expr, count: &mut usize) {
    // Rewrite children first so nested patterns fuse bottom-up.
    match e {
        Expr::Unary { operand: a, .. }
        | Expr::Cast { expr: a, .. }
        | Expr::MatrixMap { matrix: a, .. }
        | Expr::RcAlloc { len: a, .. } => fuse_expr(a, count),
        Expr::Binary { left, right, .. } | Expr::RangeVec { lo: left, hi: right, .. } => {
            fuse_expr(left, count);
            fuse_expr(right, count);
        }
        Expr::Call { args: parts, .. } | Expr::Tuple(parts, _) | Expr::Init { dims: parts, .. } => {
            parts.iter_mut().for_each(|p| fuse_expr(p, count));
        }
        Expr::Index { base, indices, .. } => {
            fuse_expr(base, count);
            indices.iter_mut().for_each(|ix| fuse_index(ix, count));
        }
        Expr::With { generator, op, .. } => {
            let g = &mut **generator;
            g.lower.iter_mut().chain(&mut g.upper).for_each(|b| fuse_expr(b, count));
            match op {
                WithOp::Genarray { shape, body } => {
                    shape.iter_mut().for_each(|s| fuse_expr(s, count));
                    fuse_expr(body, count);
                }
                WithOp::Fold { base: a, body, .. } | WithOp::Modarray { src: a, body } => {
                    fuse_expr(a, count);
                    fuse_expr(body, count);
                }
            }
        }
        Expr::IntLit(..)
        | Expr::FloatLit(..)
        | Expr::BoolLit(..)
        | Expr::StrLit(..)
        | Expr::Var(..)
        | Expr::End(..) => {}
    }
    let Expr::Index { base, indices, span } = e else {
        return;
    };
    let Expr::Index { indices: inner_ixs, .. } = &**base else {
        return;
    };
    if let Some(merged) = merge_indices(inner_ixs, indices) {
        *count += 1;
        *indices = merged;
        // The slice's own base moves up; `End` only holds its place.
        let inner = std::mem::replace(&mut **base, Expr::End(*span));
        if let Expr::Index { base: inner_base, .. } = inner {
            *base = inner_base;
        }
    }
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
