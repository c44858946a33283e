//! Programmer-directed loop transformations (§V).
//!
//! The `[ext-transform]` extension lets the programmer attach a transform
//! clause to a statement; each directive rewrites the loop nest the
//! statement expanded into, in the order written. `split` introduces
//! inner/outer loops and rewrites the original index to `outer * by +
//! inner` (Fig 9 → Fig 10); `vectorize` and `parallelize` mark loops for
//! the SSE and OpenMP backends (Fig 10 → Fig 11); `tile` is the composite
//! the paper describes — "two splits and a reorder". Each directive
//! performs the §V semantic check "that the loop indices in the
//! transformations correspond to loops in the code being transformed".

use crate::ir::{ForLoop, IrExpr, IrStmt, Name};

/// A loop transformation directive at the IR level (mirrors the surface
/// `TransformSpec` of `cmm-ast`; kept separate so this crate stands alone).
#[derive(Debug, Clone, PartialEq)]
pub enum LoopTransform {
    /// `split index by factor, inner, outer`.
    Split {
        /// Index of the loop to split.
        index: String,
        /// Split factor.
        by: i64,
        /// New inner index.
        inner: String,
        /// New outer index.
        outer: String,
    },
    /// `vectorize index` — the loop must have constant bounds `0..4` (the
    /// four 32-bit float lanes of an SSE vector, §V).
    Vectorize {
        /// Loop index.
        index: String,
    },
    /// `parallelize index`.
    Parallelize {
        /// Loop index.
        index: String,
    },
    /// `reorder i, j, k` — permute a perfect nest.
    Reorder {
        /// Index names, outermost first.
        order: Vec<String>,
    },
    /// `interchange a, b` — swap two perfectly nested loops.
    Interchange {
        /// Outer loop index.
        a: String,
        /// Inner loop index.
        b: String,
    },
    /// `unroll index by factor`.
    Unroll {
        /// Loop index.
        index: String,
        /// Unroll factor.
        by: i64,
    },
    /// `tile i, j by bi, bj` — two splits plus a reorder.
    Tile {
        /// Outer tiled index.
        i: String,
        /// Inner tiled index.
        j: String,
        /// Tile size for `i`.
        bi: i64,
        /// Tile size for `j`.
        bj: i64,
    },
    /// `schedule index static|dynamic|guided[, chunk]` — parallelize the
    /// loop (like [`LoopTransform::Parallelize`]) and pin its
    /// self-scheduling policy, overriding the process default.
    Schedule {
        /// Loop index.
        index: String,
        /// The scheduling policy to pin.
        schedule: cmm_forkjoin::Schedule,
    },
}

/// Transformation failure — the §V semantic checks.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// The named index does not correspond to a loop in the generated code.
    LoopNotFound {
        /// The missing index.
        index: String,
    },
    /// The named index corresponds to more than one loop.
    AmbiguousIndex {
        /// The ambiguous index.
        index: String,
    },
    /// `reorder`/`interchange`/`tile` require a perfect loop nest.
    NotPerfectlyNested {
        /// Description of the offending structure.
        detail: String,
    },
    /// Reordering would move a loop above one its bounds depend on.
    BoundDependency {
        /// The dependent index.
        index: String,
        /// The index it depends on.
        depends_on: String,
    },
    /// A split/unroll/tile factor must be a positive integer.
    BadFactor {
        /// The factor given.
        factor: i64,
    },
    /// `vectorize` requires constant bounds `0..4`.
    BadVectorLoop {
        /// The loop index.
        index: String,
        /// Description of why it cannot be vectorized.
        detail: String,
    },
    /// A new index name collides with an existing loop index.
    NameCollision {
        /// The colliding name.
        name: String,
    },
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::LoopNotFound { index } => write!(
                f,
                "transformation index '{index}' does not correspond to a loop in the \
                 code being transformed"
            ),
            TransformError::AmbiguousIndex { index } => {
                write!(f, "index '{index}' names more than one loop")
            }
            TransformError::NotPerfectlyNested { detail } => {
                write!(f, "loops are not perfectly nested: {detail}")
            }
            TransformError::BoundDependency { index, depends_on } => write!(
                f,
                "cannot move loop '{index}' above '{depends_on}' which its bounds depend on"
            ),
            TransformError::BadFactor { factor } => {
                write!(f, "transformation factor must be positive, got {factor}")
            }
            TransformError::BadVectorLoop { index, detail } => {
                write!(f, "cannot vectorize loop '{index}': {detail}")
            }
            TransformError::NameCollision { name } => {
                write!(f, "new index name '{name}' collides with an existing loop")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Apply one transformation to a statement list (the expansion of the
/// transformed statement), in place.
pub fn apply(stmts: &mut Vec<IrStmt>, t: &LoopTransform) -> Result<(), TransformError> {
    match t {
        LoopTransform::Split {
            index,
            by,
            inner,
            outer,
        } => {
            if *by <= 0 {
                return Err(TransformError::BadFactor { factor: *by });
            }
            for name in [inner, outer] {
                if count_loops(stmts, name) > 0 {
                    return Err(TransformError::NameCollision { name: name.to_string() });
                }
            }
            with_unique_loop(stmts, index, &mut |l| Ok(split_loop(l, *by, inner, outer)))
        }
        LoopTransform::Vectorize { index } => with_unique_loop(stmts, index, &mut |l| {
            if !(l.lo == IrExpr::Int(0) && l.hi == IrExpr::Int(4)) {
                return Err(TransformError::BadVectorLoop {
                    index: index.clone(),
                    detail: format!(
                        "vector loops must have constant bounds 0..4 (one SSE vector of \
                         four 32-bit floats); found {:?}..{:?}",
                        l.lo, l.hi
                    ),
                });
            }
            let mut v = l.clone();
            v.vector = true;
            Ok(IrStmt::For(v))
        }),
        LoopTransform::Parallelize { index } => with_unique_loop(stmts, index, &mut |l| {
            let mut v = l.clone();
            v.parallel = true;
            Ok(IrStmt::For(v))
        }),
        LoopTransform::Schedule { index, schedule } => {
            let chunk = match schedule {
                cmm_forkjoin::Schedule::Static => 1,
                cmm_forkjoin::Schedule::Dynamic { chunk } => *chunk,
                cmm_forkjoin::Schedule::Guided { min_chunk } => *min_chunk,
            };
            if chunk == 0 {
                return Err(TransformError::BadFactor { factor: 0 });
            }
            with_unique_loop(stmts, index, &mut |l| {
                let mut v = l.clone();
                v.parallel = true;
                v.schedule = Some(*schedule);
                Ok(IrStmt::For(v))
            })
        }
        LoopTransform::Interchange { a, b } => {
            apply(stmts, &LoopTransform::Reorder { order: vec![b.clone(), a.clone()] })
        }
        LoopTransform::Reorder { order } => reorder(stmts, order),
        LoopTransform::Unroll { index, by } => {
            if *by <= 0 {
                return Err(TransformError::BadFactor { factor: *by });
            }
            with_unique_loop(stmts, index, &mut |l| Ok(unroll_loop(l, *by)))
        }
        LoopTransform::Tile { i, j, bi, bj } => {
            for factor in [*bi, *bj] {
                if factor <= 0 {
                    return Err(TransformError::BadFactor { factor });
                }
            }
            let names = TileNames {
                i_in: format!("{i}_in").into(),
                i_out: format!("{i}_out").into(),
                j_in: format!("{j}_in").into(),
                j_out: format!("{j}_out").into(),
            };
            for name in [&names.i_in, &names.i_out, &names.j_in, &names.j_out] {
                if count_loops(stmts, name) > 0 {
                    return Err(TransformError::NameCollision { name: name.to_string() });
                }
            }
            // `j` must name exactly one loop; that it sits immediately
            // inside `i` is checked once the `i` loop is in hand.
            match count_loops(stmts, j) {
                0 => return Err(TransformError::LoopNotFound { index: j.clone() }),
                1 => {}
                _ => return Err(TransformError::AmbiguousIndex { index: j.clone() }),
            }
            with_unique_loop(stmts, i, &mut |l| tile_nest(l, j, *bi, *bj, &names))
        }
    }
}

/// Apply a sequence of transformations in source order (§V: "applying the
/// transformations in the order in which they appear").
pub fn apply_all(stmts: &mut Vec<IrStmt>, ts: &[LoopTransform]) -> Result<(), TransformError> {
    for t in ts {
        apply(stmts, t)?;
    }
    Ok(())
}

/// Count loops with the given index (recursively).
fn count_loops(stmts: &[IrStmt], index: &str) -> usize {
    let mut n = 0;
    for s in stmts {
        match s {
            IrStmt::For(f) => {
                if *f.var == *index {
                    n += 1;
                }
                n += count_loops(&f.body, index);
            }
            IrStmt::While { body, .. } => n += count_loops(body, index),
            IrStmt::If { then_b, else_b, .. } => {
                n += count_loops(then_b, index) + count_loops(else_b, index);
            }
            IrStmt::Block(b) | IrStmt::Kernel { fallback: b, .. } => n += count_loops(b, index),
            _ => {}
        }
    }
    n
}

/// Find the unique loop with the given index and replace it with the
/// statement produced by `f`.
fn with_unique_loop(
    stmts: &mut [IrStmt],
    index: &str,
    f: &mut dyn FnMut(&ForLoop) -> Result<IrStmt, TransformError>,
) -> Result<(), TransformError> {
    match count_loops(stmts, index) {
        0 => Err(TransformError::LoopNotFound {
            index: index.to_string(),
        }),
        1 => {
            replace_loop(stmts, index, f)?;
            Ok(())
        }
        _ => Err(TransformError::AmbiguousIndex {
            index: index.to_string(),
        }),
    }
}

fn replace_loop(
    stmts: &mut [IrStmt],
    index: &str,
    f: &mut dyn FnMut(&ForLoop) -> Result<IrStmt, TransformError>,
) -> Result<bool, TransformError> {
    for s in stmts.iter_mut() {
        let replaced = match s {
            IrStmt::For(l) if *l.var == *index => {
                *s = f(l)?;
                true
            }
            IrStmt::For(l) => replace_loop(&mut l.body, index, f)?,
            IrStmt::While { body, .. } => replace_loop(body, index, f)?,
            IrStmt::If { then_b, else_b, .. } => {
                replace_loop(then_b, index, f)? || replace_loop(else_b, index, f)?
            }
            IrStmt::Block(b) => replace_loop(b, index, f)?,
            IrStmt::Kernel { fallback, .. } => {
                let hit = replace_loop(fallback, index, f)?;
                if hit {
                    // The kernel call (its result order, its fuel closed
                    // form) describes the nest as lowered, not as
                    // rewritten: keep only the nest the directive asked
                    // for, in every tier.
                    *s = IrStmt::Block(std::mem::take(fallback));
                }
                hit
            }
            _ => false,
        };
        if replaced {
            return Ok(true);
        }
    }
    Ok(false)
}

/// `split x by k, xin, xout`: Fig 9 line 6 → Fig 10.
///
/// ```text
/// for (x = lo; x < hi; x++) B(x)
///   ⇒ for (xout = 0; xout < (hi-lo)/k; xout++)
///       for (xin = 0; xin < k; xin++)
///         B(lo + xout*k + xin)
/// ```
///
/// The paper's example assumes the extent divisible by `k` ("to keep the
/// example simple we have assumed that the dimension n is a multiple of
/// 4"); an implementation cannot: unless the extent is a known literal
/// multiple of `k`, an epilogue loop
/// `for (x = lo + ((hi-lo)/k)*k; x < hi; x++) B(x)` covers the tail — it
/// runs zero iterations when the runtime extent happens to divide.
fn split_loop(l: &ForLoop, k: i64, inner: &str, outer: &str) -> IrStmt {
    let (inner, outer) = (Name::from(inner), Name::from(outer));
    let extent = literal_extent(l);
    let extent_expr = extent_of(l);
    // x := lo + xout*k + xin  (dropping the "+ lo" when lo = 0).
    let recon = {
        let base = IrExpr::add(
            IrExpr::mul(IrExpr::var(&outer), IrExpr::Int(k)),
            IrExpr::var(&inner),
        );
        if l.lo == IrExpr::Int(0) {
            base
        } else {
            IrExpr::add(l.lo.clone(), base)
        }
    };
    let new_body: Vec<IrStmt> = l.body.iter().map(|s| s.substitute(&l.var, &recon)).collect();
    let inner_loop = ForLoop {
        var: inner,
        lo: IrExpr::Int(0),
        hi: IrExpr::Int(k),
        body: new_body,
        parallel: false,
        vector: false,
        schedule: None,
    };
    let outer_loop = ForLoop {
        var: outer,
        lo: IrExpr::Int(0),
        hi: IrExpr::bin(crate::ir::IrBinOp::Div, extent_expr.clone(), IrExpr::Int(k)),
        body: vec![IrStmt::For(inner_loop)],
        parallel: l.parallel,
        vector: false,
        schedule: l.schedule,
    };
    if extent.is_some_and(|e| e % k == 0) {
        return IrStmt::For(outer_loop);
    }
    // Epilogue over the tail with the original body. With literal bounds
    // the start folds to a constant; with symbolic bounds it stays as the
    // expression `lo + ((hi-lo)/k)*k` and runs zero iterations when the
    // runtime extent divides.
    let epilogue_lo = match (extent, &l.lo) {
        (Some(e), IrExpr::Int(a)) => IrExpr::Int(a + (e / k) * k),
        _ => offset_from(&l.lo, full_chunks(extent_expr, k)),
    };
    let epilogue = ForLoop {
        var: l.var.clone(),
        lo: epilogue_lo,
        hi: l.hi.clone(),
        body: l.body.clone(),
        parallel: false,
        vector: false,
        schedule: None,
    };
    IrStmt::Block(vec![IrStmt::For(outer_loop), IrStmt::For(epilogue)])
}

/// `hi - lo` as an expression, folding away the subtraction when `lo` is
/// the literal 0.
fn extent_of(l: &ForLoop) -> IrExpr {
    if l.lo == IrExpr::Int(0) {
        l.hi.clone()
    } else {
        IrExpr::bin(crate::ir::IrBinOp::Sub, l.hi.clone(), l.lo.clone())
    }
}

/// The loop extent when both bounds are integer literals.
fn literal_extent(l: &ForLoop) -> Option<i64> {
    match (&l.lo, &l.hi) {
        (IrExpr::Int(a), IrExpr::Int(b)) => Some(b - a),
        _ => None,
    }
}

/// `(extent / k) * k` — the offset of the first iteration past the last
/// full chunk, relative to the loop's lower bound.
fn full_chunks(extent: IrExpr, k: i64) -> IrExpr {
    IrExpr::mul(
        IrExpr::bin(crate::ir::IrBinOp::Div, extent, IrExpr::Int(k)),
        IrExpr::Int(k),
    )
}

/// `lo + e`, dropping the addition when `lo` is the literal 0.
fn offset_from(lo: &IrExpr, e: IrExpr) -> IrExpr {
    if *lo == IrExpr::Int(0) {
        e
    } else {
        IrExpr::add(lo.clone(), e)
    }
}

struct TileNames {
    i_in: Name,
    i_out: Name,
    j_in: Name,
    j_out: Name,
}

/// `tile i, j by bi, bj` — the paper's "two splits and a reorder",
/// constructed directly so tail handling composes: splitting each index
/// separately would leave the `i` split's epilogue nested around the `j`
/// loop and the nest no longer perfect for the reorder. Instead the main
/// 4-deep nest walks the full `bi`×`bj` tiles, a column-tail nest covers
/// the leftover `j` range of the fully tiled rows, and a row-tail nest
/// covers the leftover `i` range over the full `j` range. Tails whose
/// literal extent is a known multiple of the factor are omitted, so the
/// divisible literal case stays the bare reordered nest.
fn tile_nest(
    li: &ForLoop,
    j: &str,
    bi: i64,
    bj: i64,
    names: &TileNames,
) -> Result<IrStmt, TransformError> {
    // The `i` loop must immediately contain exactly the `j` loop
    // (comments allowed around it).
    let inner: Vec<&IrStmt> = li
        .body
        .iter()
        .filter(|s| !matches!(s, IrStmt::Comment(_)))
        .collect();
    let lj = match inner.as_slice() {
        [IrStmt::For(f)] if *f.var == *j => (*f).clone(),
        _ => {
            return Err(TransformError::NotPerfectlyNested {
                detail: format!("loop '{}' does not immediately contain loop '{j}'", li.var),
            })
        }
    };
    // The reorder moves the `j_out` loop above `i_in`; the `j` bounds must
    // not depend on `i`.
    if lj.lo.uses_var(&li.var) || lj.hi.uses_var(&li.var) {
        return Err(TransformError::BoundDependency {
            index: j.to_string(),
            depends_on: li.var.to_string(),
        });
    }

    let (ei, ej) = (extent_of(li), extent_of(&lj));
    // i := lo_i + i_out*bi + i_in, j := lo_j + j_out*bj + j_in.
    let recon_i = offset_from(
        &li.lo,
        IrExpr::add(
            IrExpr::mul(IrExpr::var(&names.i_out), IrExpr::Int(bi)),
            IrExpr::var(&names.i_in),
        ),
    );
    let recon_j = offset_from(
        &lj.lo,
        IrExpr::add(
            IrExpr::mul(IrExpr::var(&names.j_out), IrExpr::Int(bj)),
            IrExpr::var(&names.j_in),
        ),
    );
    let tile_body: Vec<IrStmt> = lj
        .body
        .iter()
        .map(|s| s.substitute(&li.var, &recon_i).substitute(&lj.var, &recon_j))
        .collect();

    let j_in_loop = ForLoop {
        var: names.j_in.clone(),
        lo: IrExpr::Int(0),
        hi: IrExpr::Int(bj),
        body: tile_body,
        parallel: false,
        vector: false,
        schedule: None,
    };
    let i_in_loop = ForLoop {
        var: names.i_in.clone(),
        lo: IrExpr::Int(0),
        hi: IrExpr::Int(bi),
        body: vec![IrStmt::For(j_in_loop)],
        parallel: false,
        vector: false,
        schedule: None,
    };
    let j_out_loop = ForLoop {
        var: names.j_out.clone(),
        lo: IrExpr::Int(0),
        hi: IrExpr::bin(crate::ir::IrBinOp::Div, ej.clone(), IrExpr::Int(bj)),
        body: vec![IrStmt::For(i_in_loop)],
        parallel: lj.parallel,
        vector: false,
        schedule: lj.schedule,
    };
    let i_out_loop = ForLoop {
        var: names.i_out.clone(),
        lo: IrExpr::Int(0),
        hi: IrExpr::bin(crate::ir::IrBinOp::Div, ei.clone(), IrExpr::Int(bi)),
        body: vec![IrStmt::For(j_out_loop)],
        parallel: li.parallel,
        vector: false,
        schedule: li.schedule,
    };

    let divisible_i = literal_extent(li).is_some_and(|e| e % bi == 0);
    let divisible_j = literal_extent(&lj).is_some_and(|e| e % bj == 0);
    let mut result = vec![IrStmt::For(i_out_loop)];
    if !divisible_j {
        // Leftover columns of the fully tiled rows:
        //   for (i = lo_i; i < lo_i + (Ei/bi)*bi; i++)
        //     for (j = lo_j + (Ej/bj)*bj; j < hi_j; j++) B(i, j)
        let j_tail = ForLoop {
            var: lj.var.clone(),
            lo: offset_from(&lj.lo, full_chunks(ej, bj)),
            hi: lj.hi.clone(),
            body: lj.body.clone(),
            parallel: false,
            vector: false,
            schedule: None,
        };
        let i_full = ForLoop {
            var: li.var.clone(),
            lo: li.lo.clone(),
            hi: offset_from(&li.lo, full_chunks(ei.clone(), bi)),
            body: vec![IrStmt::For(j_tail)],
            parallel: false,
            vector: false,
            schedule: None,
        };
        result.push(IrStmt::For(i_full));
    }
    if !divisible_i {
        // Leftover rows over the full original `j` range:
        //   for (i = lo_i + (Ei/bi)*bi; i < hi_i; i++) original body
        let i_tail = ForLoop {
            var: li.var.clone(),
            lo: offset_from(&li.lo, full_chunks(ei, bi)),
            hi: li.hi.clone(),
            body: li.body.clone(),
            parallel: false,
            vector: false,
            schedule: None,
        };
        result.push(IrStmt::For(i_tail));
    }
    Ok(if result.len() == 1 {
        result.pop().expect("single nest")
    } else {
        IrStmt::Block(result)
    })
}

/// `unroll x by k`: replicate the body `k` times per iteration.
fn unroll_loop(l: &ForLoop, k: i64) -> IrStmt {
    let uvar = Name::from(format!("{}_u", l.var));
    let extent_expr = extent_of(l);
    let mut body = Vec::new();
    for lane in 0..k {
        // x := lo + x_u*k + lane
        let base = IrExpr::add(
            IrExpr::mul(IrExpr::var(&uvar), IrExpr::Int(k)),
            IrExpr::Int(lane),
        );
        let recon = if l.lo == IrExpr::Int(0) {
            base
        } else {
            IrExpr::add(l.lo.clone(), base)
        };
        for s in &l.body {
            body.push(s.substitute(&l.var, &recon));
        }
    }
    let main = ForLoop {
        var: uvar,
        lo: IrExpr::Int(0),
        hi: IrExpr::bin(crate::ir::IrBinOp::Div, extent_expr, IrExpr::Int(k)),
        body,
        parallel: l.parallel,
        vector: false,
        schedule: l.schedule,
    };
    // Remainder loop unless the extent is a literal multiple of k.
    if literal_extent(l).is_some_and(|e| e % k == 0) {
        IrStmt::For(main)
    } else {
        let epilogue = ForLoop {
            var: l.var.clone(),
            lo: offset_from(&l.lo, full_chunks(extent_of(l), k)),
            hi: l.hi.clone(),
            body: l.body.clone(),
            parallel: false,
            vector: false,
            schedule: None,
        };
        IrStmt::Block(vec![IrStmt::For(main), IrStmt::For(epilogue)])
    }
}

/// Reorder a perfect loop nest to the given outermost-first order.
fn reorder(stmts: &mut [IrStmt], order: &[String]) -> Result<(), TransformError> {
    let Some(first) = order.first() else {
        return Ok(());
    };
    // A duplicated index (e.g. `interchange x, x`) would pass the
    // set-membership check below twice and rebuild the nest with one
    // loop repeated, silently dropping another.
    for (k, v) in order.iter().enumerate() {
        if order[..k].contains(v) {
            return Err(TransformError::AmbiguousIndex { index: v.clone() });
        }
    }
    // The nest's current outermost loop is whichever of `order` is found
    // shallowest; we locate the loop containing all the others.
    let outermost = order
        .iter()
        .find(|v| count_loops(stmts, v) == 1 && loop_contains_all(stmts, v, order))
        .cloned()
        .ok_or_else(|| TransformError::LoopNotFound {
            index: first.clone(),
        })?;

    with_unique_loop(stmts, &outermost, &mut |l| {
        // Collect the perfect nest: order.len() loops, innermost body kept.
        let mut loops: Vec<ForLoop> = Vec::new();
        let mut cur = l.clone();
        loop {
            loops.push(ForLoop {
                body: Vec::new(),
                ..cur.clone()
            });
            if loops.len() == order.len() {
                break;
            }
            // The body must be exactly one For (comments allowed around it).
            let inner: Vec<&IrStmt> = cur
                .body
                .iter()
                .filter(|s| !matches!(s, IrStmt::Comment(_)))
                .collect();
            match inner.as_slice() {
                [IrStmt::For(f)] => {
                    let f = (*f).clone();
                    cur = f;
                }
                _ => {
                    return Err(TransformError::NotPerfectlyNested {
                        detail: format!(
                            "loop '{}' does not immediately contain a single loop",
                            cur.var
                        ),
                    })
                }
            }
        }
        let innermost_body = cur.body.clone();

        // Check the set matches.
        for v in order {
            if !loops.iter().any(|f| *f.var == **v) {
                return Err(TransformError::LoopNotFound { index: v.clone() });
            }
        }

        // Bound-dependency check: in the new order, a loop's bounds must
        // not reference indices that now sit inside it.
        for (pos, v) in order.iter().enumerate() {
            let f = loops.iter().find(|f| *f.var == **v).expect("checked above");
            for inner_v in &order[pos + 1..] {
                if f.lo.uses_var(inner_v) || f.hi.uses_var(inner_v) {
                    return Err(TransformError::BoundDependency {
                        index: v.clone(),
                        depends_on: inner_v.clone(),
                    });
                }
            }
        }

        // Rebuild innermost-out.
        let mut body = innermost_body;
        for v in order.iter().rev() {
            let f = loops.iter().find(|f| *f.var == **v).expect("checked above");
            body = vec![IrStmt::For(ForLoop {
                var: f.var.clone(),
                lo: f.lo.clone(),
                hi: f.hi.clone(),
                body,
                parallel: f.parallel,
                vector: f.vector,
                schedule: f.schedule,
            })];
        }
        Ok(body.pop().expect("nest rebuilt"))
    })
}

fn loop_contains_all(stmts: &[IrStmt], outer: &str, order: &[String]) -> bool {
    fn find<'a>(stmts: &'a [IrStmt], var: &str) -> Option<&'a ForLoop> {
        for s in stmts {
            match s {
                IrStmt::For(f) => {
                    if *f.var == *var {
                        return Some(f);
                    }
                    if let Some(r) = find(&f.body, var) {
                        return Some(r);
                    }
                }
                IrStmt::While { body, .. } => {
                    if let Some(r) = find(body, var) {
                        return Some(r);
                    }
                }
                IrStmt::If { then_b, else_b, .. } => {
                    if let Some(r) = find(then_b, var).or_else(|| find(else_b, var)) {
                        return Some(r);
                    }
                }
                IrStmt::Block(b) | IrStmt::Kernel { fallback: b, .. } => {
                    if let Some(r) = find(b, var) {
                        return Some(r);
                    }
                }
                _ => {}
            }
        }
        None
    }
    let Some(l) = find(stmts, outer) else {
        return false;
    };
    order
        .iter()
        .filter(|v| v.as_str() != outer)
        .all(|v| count_loops(&l.body, v) == 1)
}
