//! Lowering of the extension constructs: with-loops, `matrixMap`,
//! MATLAB-style indexing, and calls (user functions and builtins).

use super::*;

/// How one dimension of an indexing expression selects source positions.
enum DimSel {
    /// Single index: the dimension is dropped.
    Fixed(IrExpr),
    /// Contiguous range / whole dimension: position `r` maps to `lo + r`.
    Off {
        /// Start offset expression.
        lo: IrExpr,
        /// IR variable holding the selection size.
        size: Name,
    },
    /// Logical indexing: position `r` maps to `table[r]`.
    Table {
        /// IR variable of the selection table (int buffer).
        table: Name,
        /// IR variable holding the selection size.
        size: Name,
    },
}

impl DimSel {
    fn kept(&self) -> bool {
        !matches!(self, DimSel::Fixed(_))
    }

    fn size_expr(&self) -> IrExpr {
        match self {
            DimSel::Fixed(_) => IrExpr::Int(1),
            DimSel::Off { size, .. } | DimSel::Table { size, .. } => IrExpr::var(size),
        }
    }

    /// The index into the indexed buffer along each dimension of `sels`,
    /// given the result-position variables of the kept ones, in order.
    fn source_indices(sels: &[DimSel], pos_vars: &[Name]) -> Vec<IrExpr> {
        let mut pos = pos_vars.iter().map(IrExpr::var);
        let mut next = || pos.next().expect("a position per kept dimension");
        sels.iter()
            .map(|sel| match sel {
                DimSel::Fixed(e) => e.clone(),
                DimSel::Off { lo, .. } => IrExpr::add(lo.clone(), next()),
                DimSel::Table { table, .. } => IrExpr::Load {
                    elem: Elem::I32,
                    buf: Box::new(IrExpr::var(table)),
                    idx: Box::new(next()),
                },
            })
            .collect()
    }
}

impl FnLower<'_> {
    // ------------------------------------------------------------------
    // Static types (for already-checked programs)
    // ------------------------------------------------------------------

    /// Type of an expression in the current lowering environment. The
    /// program has passed the checker, so inconsistencies are compiler
    /// bugs (reported as lowering errors by callers where reachable).
    pub(super) fn static_type(&self, e: &Expr, expected: Option<&Type>) -> Type {
        self.type_in(e, expected, &[])
    }

    /// [`FnLower::static_type`] with the names in `ints` — generator
    /// variables of enclosing with-loops not lowered yet — bound as ints,
    /// shadowing the environment.
    fn type_in(&self, e: &Expr, expected: Option<&Type>, ints: &[String]) -> Type {
        let ty = |e: &Expr| self.type_in(e, None, ints);
        match e {
            Expr::IntLit(..) => Type::Int,
            Expr::FloatLit(..) => Type::Float,
            Expr::BoolLit(..) => Type::Bool,
            Expr::StrLit(..) => Type::Str,
            Expr::End(_) => Type::Int,
            Expr::Var(n, _) if ints.contains(n) => Type::Int,
            Expr::Var(n, _) => self
                .lookup(n)
                .map(|(t, _)| t.clone())
                .unwrap_or(Type::Error),
            Expr::Unary { op, operand, .. } => match op {
                UnOp::Neg => ty(operand),
                UnOp::Not => match ty(operand) {
                    m @ Type::Matrix(..) => m,
                    _ => Type::Bool,
                },
            },
            Expr::Binary { op, left, right, .. } => {
                binary_type(*op, &ty(left), &ty(right)).unwrap_or(Type::Error)
            }
            Expr::Cast { ty, .. } => ty.clone(),
            Expr::Index { base, indices, .. } => {
                let Some((elem, _)) = ty(base).as_matrix() else {
                    return Type::Error;
                };
                let kept = indices
                    .iter()
                    .filter(|ix| match ix {
                        IndexExpr::At(e) => matches!(ty(e), Type::Matrix(ElemKind::Bool, 1)),
                        IndexExpr::Range(..) | IndexExpr::All => true,
                    })
                    .count() as u8;
                if kept == 0 {
                    elem.scalar()
                } else {
                    Type::Matrix(elem, kept)
                }
            }
            Expr::RangeVec { .. } => Type::Matrix(ElemKind::Int, 1),
            Expr::Tuple(parts, _) => Type::Tuple(parts.iter().map(ty).collect()),
            Expr::With { generator, op, .. } => {
                let inner: Vec<String> = ints.iter().chain(&generator.vars).cloned().collect();
                let body_ty = |body: &Expr| self.type_in(body, None, &inner);
                match op {
                    WithOp::Genarray { shape, body } => match body_ty(body).as_elem() {
                        Some(e) => Type::Matrix(e, shape.len().max(1) as u8),
                        None => Type::Error,
                    },
                    WithOp::Fold { base, body, .. } => fold_type(&ty(base), &body_ty(body)),
                    WithOp::Modarray { src, .. } => ty(src),
                }
            }
            Expr::MatrixMap { func, matrix, .. } => {
                let rank = ty(matrix).as_matrix().map(|(_, r)| r).unwrap_or(0);
                match self.sigs.get(func).map(|s| &s.ret) {
                    Some(Type::Matrix(e, _)) => Type::Matrix(*e, rank),
                    _ => Type::Error,
                }
            }
            Expr::Init { ty, .. } => ty.clone(),
            Expr::RcAlloc { elem, .. } => Type::Rc(*elem),
            Expr::Call { name, args, .. } => match SurfaceBuiltin::from_name(name) {
                Some(b) => b.result_type(&ty(&args[0]), expected),
                None => self
                    .sigs
                    .get(name)
                    .map(|s| s.ret.clone())
                    .unwrap_or(Type::Error),
            },
        }
    }

    // ------------------------------------------------------------------
    // With-loops (§III-A4, Fig 1 → Fig 3)
    // ------------------------------------------------------------------

    pub(super) fn with_loop(
        &mut self,
        g: &Generator,
        op: &WithOp,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        let rank = g.vars.len();
        // Generator variables keep their source names (so §V transforms
        // can refer to the loops).
        let gen_vars: Vec<Name> = g.vars.iter().map(|v| Name::from(v.as_str())).collect();
        // Bounds: a literal or a variable other than a generator variable
        // is used in place, anything else is evaluated once into a temp. The lower-bound guard can only
        // fire on a bound that is not a non-negative literal.
        let mut lo_es = Vec::with_capacity(rank);
        let mut hi_es = Vec::with_capacity(rank);
        for (d, (lo, hi)) in g.lower.iter().zip(&g.upper).enumerate() {
            let lo_rv = self.expr(lo, Some(&Type::Int), out)?;
            let hi_rv = self.expr(hi, Some(&Type::Int), out)?;
            let hi_rv = if g.upper_inclusive {
                match hi_rv {
                    RV::Scalar(IrExpr::Int(n), ty) if n < i64::from(i32::MAX) => {
                        RV::Scalar(IrExpr::Int(n + 1), ty)
                    }
                    rv => RV::Scalar(IrExpr::add(rv.scalar(), IrExpr::Int(1)), Type::Int),
                }
            } else {
                hi_rv
            };
            let lo_e = self.in_place(lo_rv, &gen_vars, format_args!("lo{d}"), out);
            let hi_e = self.in_place(hi_rv, &gen_vars, format_args!("hi{d}"), out);
            if !matches!(lo_e, IrExpr::Int(n) if n >= 0) {
                out.push(self.panic_if(
                    IrExpr::bin(IrBinOp::Lt, lo_e.clone(), IrExpr::Int(0)),
                    "with-loop generator lower bound is negative",
                ));
            }
            lo_es.push(lo_e);
            hi_es.push(hi_e);
        }

        match op {
            WithOp::Genarray { shape, body } => {
                // The shape, in place like the bounds, and the §III-A4
                // runtime superset check where it can fire.
                let mut sh_es = Vec::with_capacity(shape.len());
                for (d, s) in shape.iter().enumerate() {
                    let sv = self.expr(s, Some(&Type::Int), out)?;
                    let se = self.in_place(sv, &gen_vars, format_args!("sh{d}"), out);
                    if !within(&hi_es[d], &se) {
                        out.push(self.panic_if(
                            IrExpr::bin(IrBinOp::Gt, hi_es[d].clone(), se.clone()),
                            "with-loop generator exceeds the genarray shape (the shape must \
                             be a superset of the generator indexes)",
                        ));
                    }
                    sh_es.push(se);
                }
                // Element type of the body (generator vars in scope).
                self.push_scope();
                for (v, ir) in g.vars.iter().zip(&gen_vars) {
                    self.declare_var(v, Type::Int, vec![ir.clone()]);
                }
                let body_ty = self.static_type(body, None);
                let Some(elem) = body_ty.as_elem() else {
                    self.leave_scope();
                    return Err(self.bug(span, format!("genarray body has type {body_ty}")));
                };
                let result = self.alloc_tmp(elem, sh_es.clone(), out);
                // The result temp was registered in the inner scope; move
                // it to the enclosing scope so it survives.
                let moved = self.owned.last_mut().expect("scope").pop();
                if let Some(m) = moved {
                    let outer = self.owned.len() - 2;
                    self.owned[outer].push(m);
                }

                // Body statements (own scope for temps per iteration).
                let mut body_stmts = Vec::new();
                self.push_scope();
                let value = self.expr(body, None, &mut body_stmts)?;
                let RV::Scalar(value_e, vty) = value else {
                    return Err(self.bug(span, "genarray body must be scalar"));
                };
                let value_e = self.coerce(value_e, &vty, &elem.scalar());
                // Flat offset over the *shape*.
                let mut off = IrExpr::var(&gen_vars[0]);
                for (se, gv) in sh_es.iter().zip(&gen_vars).take(rank).skip(1) {
                    off = IrExpr::add(IrExpr::mul(off, se.clone()), IrExpr::var(gv));
                }
                body_stmts.push(self.store(elem, &result, off, value_e));
                self.pop_scope(&mut body_stmts);

                // Loop nest, innermost to outermost.
                let mut nest = body_stmts;
                for d in (0..rank).rev() {
                    nest = vec![IrStmt::For(ForLoop {
                        var: gen_vars[d].clone(),
                        lo: lo_es[d].clone(),
                        hi: hi_es[d].clone(),
                        body: nest,
                        parallel: d == 0 && self.opts.parallelize,
                        vector: false,
                        schedule: None,
                    })];
                }
                out.extend(nest);
                self.pop_scope(out); // generator-variable scope (no owned)
                Ok(RV::Mat {
                    var: result,
                    elem,
                    rank: rank.max(1) as u8,
                })
            }
            WithOp::Fold { op, base, body } => {
                let base_rv = self.expr(base, None, out)?;
                let RV::Scalar(base_e, base_ty) = base_rv else {
                    return Err(self.bug(span, "fold base must be scalar"));
                };
                self.push_scope();
                for (v, ir) in g.vars.iter().zip(&gen_vars) {
                    self.declare_var(v, Type::Int, vec![ir.clone()]);
                }
                let body_ty = self.static_type(body, None);
                let acc_ty = fold_type(&base_ty, &body_ty);
                let acc = self.fresh("acc");
                out.push(IrStmt::Decl {
                    ty: scalar_ctype(&acc_ty),
                    name: acc.clone(),
                    init: Some(self.coerce(base_e, &base_ty, &acc_ty)),
                });

                let mut body_stmts = Vec::new();
                self.push_scope();
                let value = self.expr(body, None, &mut body_stmts)?;
                let RV::Scalar(value_e, vty) = value else {
                    return Err(self.bug(span, "fold body must be scalar"));
                };
                let v = self.fresh("v");
                body_stmts.push(IrStmt::Decl {
                    ty: scalar_ctype(&acc_ty),
                    name: v.clone(),
                    init: Some(self.coerce(value_e, &vty, &acc_ty)),
                });
                let update = match op {
                    FoldKind::Add => IrStmt::Assign {
                        name: acc.clone(),
                        value: IrExpr::add(IrExpr::var(&acc), IrExpr::var(&v)),
                    },
                    FoldKind::Mul => IrStmt::Assign {
                        name: acc.clone(),
                        value: IrExpr::mul(IrExpr::var(&acc), IrExpr::var(&v)),
                    },
                    FoldKind::Max => IrStmt::If {
                        cond: IrExpr::bin(IrBinOp::Gt, IrExpr::var(&v), IrExpr::var(&acc)),
                        then_b: vec![IrStmt::Assign {
                            name: acc.clone(),
                            value: IrExpr::var(&v),
                        }],
                        else_b: vec![],
                    },
                    FoldKind::Min => IrStmt::If {
                        cond: IrExpr::bin(IrBinOp::Lt, IrExpr::var(&v), IrExpr::var(&acc)),
                        then_b: vec![IrStmt::Assign {
                            name: acc.clone(),
                            value: IrExpr::var(&v),
                        }],
                        else_b: vec![],
                    },
                };
                body_stmts.push(update);
                self.pop_scope(&mut body_stmts);

                // Sequential loop nest (folds stay inside the parallel
                // genarray / matrixMap loops that contain them, Fig 3).
                let mut nest = body_stmts;
                for d in (0..rank).rev() {
                    nest = vec![IrStmt::For(ForLoop {
                        var: gen_vars[d].clone(),
                        lo: lo_es[d].clone(),
                        hi: hi_es[d].clone(),
                        body: nest,
                        parallel: false,
                        vector: false,
                        schedule: None,
                    })];
                }
                out.extend(nest);
                self.pop_scope(out);
                Ok(RV::Scalar(IrExpr::var(&acc), acc_ty))
            }
            WithOp::Modarray { src, body } => {
                // modarray(src, body): copy src, then overwrite the
                // generator region with the body values.
                let src_rv = self.expr(src, None, out)?;
                let RV::Mat {
                    var: src_var,
                    elem,
                    rank: src_rank,
                } = src_rv
                else {
                    return Err(self.bug(span, "modarray source must be a matrix"));
                };
                // Dimension temps + the superset runtime check.
                let mut sd_vars = Vec::with_capacity(src_rank as usize);
                for d in 0..src_rank as usize {
                    let sv = self.fresh(format_args!("sd{d}"));
                    out.push(IrStmt::Decl {
                        ty: CType::Int,
                        name: sv.clone(),
                        init: Some(dim_of(&src_var, d)),
                    });
                    if d < hi_es.len() {
                        out.push(self.panic_if(
                            IrExpr::bin(IrBinOp::Gt, hi_es[d].clone(), IrExpr::var(&sv)),
                            "with-loop generator exceeds the modarray source shape",
                        ));
                    }
                    sd_vars.push(sv);
                }
                let result = self.alloc_tmp(elem, sd_vars.iter().map(IrExpr::var).collect(), out);
                self.copy_cells(elem, &result, &src_var, out);

                // Overwrite the generator region.
                self.push_scope();
                for (v, ir) in g.vars.iter().zip(&gen_vars) {
                    self.declare_var(v, Type::Int, vec![ir.clone()]);
                }
                let mut body_stmts = Vec::new();
                self.push_scope();
                let value = self.expr(body, None, &mut body_stmts)?;
                let RV::Scalar(value_e, vty) = value else {
                    return Err(self.bug(span, "modarray body must be scalar"));
                };
                let value_e = self.coerce(value_e, &vty, &elem.scalar());
                let mut off = IrExpr::var(&gen_vars[0]);
                for (sv, gv) in sd_vars.iter().zip(&gen_vars).take(rank).skip(1) {
                    off = IrExpr::add(IrExpr::mul(off, IrExpr::var(sv)), IrExpr::var(gv));
                }
                body_stmts.push(self.store(elem, &result, off, value_e));
                self.pop_scope(&mut body_stmts);

                let mut nest = body_stmts;
                for d in (0..rank).rev() {
                    nest = vec![IrStmt::For(ForLoop {
                        var: gen_vars[d].clone(),
                        lo: lo_es[d].clone(),
                        hi: hi_es[d].clone(),
                        body: nest,
                        parallel: d == 0 && self.opts.parallelize,
                        vector: false,
                        schedule: None,
                    })];
                }
                out.extend(nest);
                self.pop_scope(out);
                Ok(RV::Mat {
                    var: result,
                    elem,
                    rank: src_rank,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // matrixMap (§III-A5, Figs 4–5)
    // ------------------------------------------------------------------

    pub(super) fn matrix_map(
        &mut self,
        func: &str,
        matrix: &Expr,
        dims: &[i64],
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        let src_rv = self.expr(matrix, None, out)?;
        let RV::Mat {
            var: src,
            elem: src_elem,
            rank,
        } = src_rv
        else {
            return Err(self.bug(span, "matrixMap over a non-matrix"));
        };
        let sig = self
            .sigs
            .get(func)
            .ok_or_else(|| self.bug(span, format!("unknown function '{func}'")))?;
        let Type::Matrix(out_elem, _) = sig.ret else {
            return Err(self.bug(span, "mapped function must return a matrix"));
        };
        let func = self.callee(func, span)?;
        let dst = {
            let dims_all = self.dims_of(&src, rank);
            self.alloc_tmp(out_elem, dims_all, out)
        };

        // Lift a helper function: the spawned threads need direct access
        // to the per-slice work (§III-A5).
        let lifted_name = self.fresh(format_args!("mmap_{func}_"));
        let lifted_name = Name::from(lifted_name.trim_start_matches("__"));
        let mapped: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
        let outer: Vec<usize> = (0..rank as usize).filter(|d| !mapped.contains(d)).collect();

        // The lifted function's parameters and locals, and its index
        // variable of each dimension.
        let [p_src, p_dst, slice, res] = ["src", "dst", "slice", "res"].map(Name::from);
        let idx: Vec<Name> = (0..rank).map(|d| Name::from(format!("x{d}"))).collect();

        // Flat offset into src given per-dim index variables.
        let src_offset = {
            let mut off = IrExpr::var(&idx[0]);
            for (d, x) in idx.iter().enumerate().skip(1) {
                off = IrExpr::add(IrExpr::mul(off, dim_of(&p_src, d)), IrExpr::var(x));
            }
            off
        };
        // Flat offset into the slice buffer over the mapped dims.
        let slice_offset = {
            let mut off = IrExpr::var(&idx[mapped[0]]);
            for &md in &mapped[1..] {
                off = IrExpr::add(IrExpr::mul(off, dim_of(&p_src, md)), IrExpr::var(&idx[md]));
            }
            off
        };

        // Gather loop nest over mapped dims.
        let gather_store = IrStmt::Store {
            elem: elem_ir(src_elem),
            buf: IrExpr::var(&slice),
            idx: slice_offset.clone(),
            value: IrExpr::Load {
                elem: elem_ir(src_elem),
                buf: Box::new(IrExpr::var(&p_src)),
                idx: Box::new(src_offset.clone()),
            },
        };
        let mut gather = vec![gather_store];
        for &md in mapped.iter().rev() {
            gather = vec![IrStmt::For(ForLoop {
                var: idx[md].clone(),
                lo: IrExpr::Int(0),
                hi: dim_of(&p_src, md),
                body: gather,
                parallel: false,
                vector: false,
                schedule: None,
            })];
        }
        // Scatter loop nest over mapped dims.
        let scatter_store = IrStmt::Store {
            elem: elem_ir(out_elem),
            buf: IrExpr::var(&p_dst),
            idx: src_offset.clone(),
            value: IrExpr::Load {
                elem: elem_ir(out_elem),
                buf: Box::new(IrExpr::var(&res)),
                idx: Box::new(slice_offset),
            },
        };
        let mut scatter = vec![scatter_store];
        for &md in mapped.iter().rev() {
            scatter = vec![IrStmt::For(ForLoop {
                var: idx[md].clone(),
                lo: IrExpr::Int(0),
                hi: dim_of(&p_src, md),
                body: scatter,
                parallel: false,
                vector: false,
                schedule: None,
            })];
        }

        // Slice allocation + per-slice body.
        let slice_dims: Vec<IrExpr> = mapped.iter().map(|&md| dim_of(&p_src, md)).collect();
        let mut per_slice = vec![alloc_decl(&slice, src_elem, slice_dims)];
        per_slice.extend(gather);
        // The mapped function follows the callee-owns convention.
        self.incr(&slice, &mut per_slice);
        per_slice.push(IrStmt::Decl {
            ty: CType::Buf(elem_ir(out_elem)),
            name: res.clone(),
            init: Some(IrExpr::Call(func, vec![IrExpr::var(&slice)])),
        });
        per_slice.extend(scatter);
        per_slice.push(release(&res));
        per_slice.push(release(&slice));

        // Outer loops over unmapped dims; the whole nest collapses to the
        // body when everything is mapped.
        let mut nest = per_slice;
        for (pos, &od) in outer.iter().enumerate().rev() {
            nest = vec![IrStmt::For(ForLoop {
                var: idx[od].clone(),
                lo: IrExpr::Int(0),
                hi: dim_of(&p_src, od),
                body: nest,
                parallel: pos == 0 && self.opts.parallelize,
                vector: false,
                schedule: None,
            })];
        }

        self.lifted.push(IrFunction {
            name: lifted_name.clone(),
            params: vec![
                (p_src, CType::Buf(elem_ir(src_elem))),
                (p_dst, CType::Buf(elem_ir(out_elem))),
            ],
            ret: CType::Void,
            ret_tuple: None,
            body: nest,
        });

        out.push(IrStmt::Expr(IrExpr::Call(
            lifted_name,
            vec![IrExpr::var(&src), IrExpr::var(&dst)],
        )));
        Ok(RV::Mat {
            var: dst,
            elem: out_elem,
            rank,
        })
    }

    // ------------------------------------------------------------------
    // Indexing (§III-A3)
    // ------------------------------------------------------------------

    /// Lower the int expression `e` used as a subscript of dimension `d`
    /// of `base`; inside it `end` means `dim(base, d) - 1`.
    fn subscript(
        &mut self,
        base: &Name,
        d: usize,
        e: &Expr,
        out: &mut Vec<IrStmt>,
    ) -> LResult<IrExpr> {
        let end = IrExpr::bin(IrBinOp::Sub, dim_of(base, d), IrExpr::Int(1));
        let saved = self.current_end.replace(end);
        let idx = self.expr(e, Some(&Type::Int), out);
        self.current_end = saved;
        Ok(idx?.scalar())
    }

    /// Lower one subscript list against a base buffer into per-dimension
    /// selections, including selection tables for logical indexing.
    fn dim_selections(
        &mut self,
        base: &Name,
        base_elem: ElemKind,
        indices: &[IndexExpr],
        out: &mut Vec<IrStmt>,
    ) -> LResult<Vec<DimSel>> {
        let _ = base_elem;
        let mut sels = Vec::with_capacity(indices.len());
        for (d, ix) in indices.iter().enumerate() {
            match ix {
                IndexExpr::At(e) => {
                    if matches!(self.static_type(e, None), Type::Matrix(ElemKind::Bool, 1)) {
                        // Logical indexing: build the selection table.
                        let mask_rv = self.expr(e, None, out)?;
                        let mask = mask_rv.mat_var();
                        out.push(self.panic_if(
                            IrExpr::bin(
                                IrBinOp::Ne,
                                self.len_of(mask),
                                dim_of(base, d),
                            ),
                            "logical index mask length does not match the dimension",
                        ));
                        // count
                        let count = self.fresh("cnt");
                        out.push(IrStmt::Decl {
                            ty: CType::Int,
                            name: count.clone(),
                            init: Some(IrExpr::Int(0)),
                        });
                        let q = self.fresh("q");
                        out.push(IrStmt::For(ForLoop {
                            var: q.clone(),
                            lo: IrExpr::Int(0),
                            hi: self.len_of(mask),
                            body: vec![IrStmt::If {
                                cond: self.load(ElemKind::Bool, mask, IrExpr::var(&q)),
                                then_b: vec![IrStmt::Assign {
                                    name: count.clone(),
                                    value: IrExpr::add(IrExpr::var(&count), IrExpr::Int(1)),
                                }],
                                else_b: vec![],
                            }],
                            parallel: false,
                            vector: false,
                            schedule: None,
                        }));
                        // table
                        let table =
                            self.alloc_tmp(ElemKind::Int, vec![IrExpr::var(&count)], out);
                        let w = self.fresh("w");
                        out.push(IrStmt::Decl {
                            ty: CType::Int,
                            name: w.clone(),
                            init: Some(IrExpr::Int(0)),
                        });
                        let q2 = self.fresh("q");
                        let fill = IrStmt::If {
                            cond: self.load(ElemKind::Bool, mask, IrExpr::var(&q2)),
                            then_b: vec![
                                self.store(
                                    ElemKind::Int,
                                    &table,
                                    IrExpr::var(&w),
                                    IrExpr::var(&q2),
                                ),
                                IrStmt::Assign {
                                    name: w.clone(),
                                    value: IrExpr::add(IrExpr::var(&w), IrExpr::Int(1)),
                                },
                            ],
                            else_b: vec![],
                        };
                        out.push(IrStmt::For(ForLoop {
                            var: q2,
                            lo: IrExpr::Int(0),
                            hi: self.len_of(mask),
                            body: vec![fill],
                            parallel: false,
                            vector: false,
                            schedule: None,
                        }));
                        sels.push(DimSel::Table { table, size: count });
                    } else {
                        sels.push(DimSel::Fixed(self.subscript(base, d, e, out)?));
                    }
                }
                IndexExpr::Range(a, b) => {
                    let lo = self.subscript(base, d, a, out)?;
                    let hi = self.subscript(base, d, b, out)?;
                    let lo_v = self.fresh("rlo");
                    out.push(IrStmt::Decl {
                        ty: CType::Int,
                        name: lo_v.clone(),
                        init: Some(lo),
                    });
                    let size = self.fresh("rsz");
                    out.push(IrStmt::Decl {
                        ty: CType::Int,
                        name: size.clone(),
                        init: Some(IrExpr::add(
                            IrExpr::bin(IrBinOp::Sub, hi, IrExpr::var(&lo_v)),
                            IrExpr::Int(1),
                        )),
                    });
                    out.push(IrStmt::If {
                        cond: IrExpr::bin(IrBinOp::Lt, IrExpr::var(&size), IrExpr::Int(0)),
                        then_b: vec![IrStmt::Assign {
                            name: size.clone(),
                            value: IrExpr::Int(0),
                        }],
                        else_b: vec![],
                    });
                    sels.push(DimSel::Off {
                        lo: IrExpr::var(&lo_v),
                        size,
                    });
                }
                IndexExpr::All => {
                    let size = self.fresh("asz");
                    out.push(IrStmt::Decl {
                        ty: CType::Int,
                        name: size.clone(),
                        init: Some(dim_of(base, d)),
                    });
                    sels.push(DimSel::Off {
                        lo: IrExpr::Int(0),
                        size,
                    });
                }
            }
        }
        Ok(sels)
    }

    pub(super) fn index_get(
        &mut self,
        base: RV,
        indices: &[IndexExpr],
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        let (base_var, elem) = match &base {
            RV::Mat { var, elem, .. } => (var, *elem),
            other => return Err(self.bug(span, format!("indexing into {other:?}"))),
        };
        // Fast path: all single int subscripts → one load (bounds are the
        // buffer's concern).
        let all_at = indices.iter().all(|ix| {
            matches!(ix, IndexExpr::At(e)
                if !matches!(self.static_type(e, None), Type::Matrix(..)))
        });
        if all_at {
            let mut idxs = Vec::with_capacity(indices.len());
            for (d, ix) in indices.iter().enumerate() {
                let IndexExpr::At(e) = ix else { unreachable!() };
                idxs.push(self.subscript(base_var, d, e, out)?);
            }
            let off = self.flat_offset(base_var, &idxs);
            return Ok(RV::Scalar(self.load(elem, base_var, off), elem.scalar()));
        }

        // General gather.
        let sels = self.dim_selections(base_var, elem, indices, out)?;
        let kept: Vec<&DimSel> = sels.iter().filter(|s| s.kept()).collect();
        let result_dims: Vec<IrExpr> = kept.iter().map(|s| s.size_expr()).collect();
        let result = self.alloc_tmp(elem, result_dims, out);
        // Result-position loop variables, one per kept dim.
        let pos_vars: Vec<Name> = kept.iter().map(|_| self.fresh("r")).collect();
        let src_idx = DimSel::source_indices(&sels, &pos_vars);
        let src_off = self.flat_offset(base_var, &src_idx);
        // Result flat offset over the kept sizes.
        let mut res_off = IrExpr::var(&pos_vars[0]);
        for (k, pos) in pos_vars.iter().enumerate().skip(1) {
            res_off = IrExpr::add(
                IrExpr::mul(res_off, kept[k].size_expr()),
                IrExpr::var(pos),
            );
        }
        let mut nest = vec![self.store(
            elem,
            &result,
            res_off,
            self.load(elem, base_var, src_off),
        )];
        for (k, pos) in pos_vars.iter().enumerate().rev() {
            nest = vec![IrStmt::For(ForLoop {
                var: pos.clone(),
                lo: IrExpr::Int(0),
                hi: kept[k].size_expr(),
                body: nest,
                parallel: false,
                vector: false,
                schedule: None,
            })];
        }
        out.extend(nest);
        Ok(RV::Mat {
            var: result,
            elem,
            rank: kept.len().max(1) as u8,
        })
    }

    pub(super) fn index_assign(
        &mut self,
        base: &str,
        indices: &[IndexExpr],
        value: &Expr,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        let (ty, irs) = self.binding(base, span)?;
        let Some((elem, _rank)) = ty.as_matrix() else {
            return Err(self.bug(span, format!("indexed assignment into {ty}")));
        };
        let ir = irs[0].clone();
        // Copy-on-write before mutation preserves value semantics for
        // shared handles (§III-B).
        out.push(IrStmt::Assign {
            name: ir.clone(),
            value: IrExpr::Builtin(Builtin::Cow(elem_ir(elem)), vec![IrExpr::var(&ir)]),
        });

        let value_rv = self.expr(value, Some(&elem.scalar()), out)?;

        // Fast path: all-At subscripts with a scalar value → single store.
        let all_at = indices.iter().all(|ix| {
            matches!(ix, IndexExpr::At(e)
                if !matches!(self.static_type(e, None), Type::Matrix(..)))
        });
        if all_at {
            let RV::Scalar(ve, vty) = value_rv else {
                return Err(self.bug(span, "single-element assignment needs a scalar value"));
            };
            let mut idxs = Vec::with_capacity(indices.len());
            for (d, ix) in indices.iter().enumerate() {
                let IndexExpr::At(e) = ix else { unreachable!() };
                idxs.push(self.subscript(&ir, d, e, out)?);
            }
            let off = self.flat_offset(&ir, &idxs);
            let coerced = self.coerce(ve, &vty, &elem.scalar());
            out.push(self.store(elem, &ir, off, coerced));
            return Ok(());
        }

        // General scatter.
        let sels = self.dim_selections(&ir, elem, indices, out)?;
        let kept: Vec<&DimSel> = sels.iter().filter(|s| s.kept()).collect();
        let pos_vars: Vec<Name> = kept.iter().map(|_| self.fresh("r")).collect();
        let dst_idx = DimSel::source_indices(&sels, &pos_vars);
        let dst_off = self.flat_offset(&ir, &dst_idx);
        let mut res_off = if pos_vars.is_empty() {
            IrExpr::Int(0)
        } else {
            IrExpr::var(&pos_vars[0])
        };
        for (k, pos) in pos_vars.iter().enumerate().skip(1) {
            res_off = IrExpr::add(
                IrExpr::mul(res_off, kept[k].size_expr()),
                IrExpr::var(pos),
            );
        }

        let store_stmt = match &value_rv {
            RV::Scalar(ve, vty) => {
                let coerced = self.coerce(ve.clone(), vty, &elem.scalar());
                self.store(elem, &ir, dst_off, coerced)
            }
            RV::Mat { var: vvar, elem: velem, .. } => {
                // Element counts must agree.
                let mut total = kept
                    .first()
                    .map(|s| s.size_expr())
                    .unwrap_or(IrExpr::Int(1));
                for s in kept.iter().skip(1) {
                    total = IrExpr::mul(total, s.size_expr());
                }
                out.push(self.panic_if(
                    IrExpr::bin(IrBinOp::Ne, self.len_of(vvar), total),
                    "indexed assignment selection and value sizes differ",
                ));
                self.store(elem, &ir, dst_off, self.load(*velem, vvar, res_off))
            }
            other => return Err(self.bug(span, format!("cannot store {other:?}"))),
        };
        let mut nest = vec![store_stmt];
        for (k, pos) in pos_vars.iter().enumerate().rev() {
            nest = vec![IrStmt::For(ForLoop {
                var: pos.clone(),
                lo: IrExpr::Int(0),
                hi: kept[k].size_expr(),
                body: nest,
                parallel: false,
                vector: false,
                schedule: None,
            })];
        }
        out.extend(nest);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Calls: builtins and user functions
    // ------------------------------------------------------------------

    pub(super) fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        expected: Option<&Type>,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        let Some(builtin) = SurfaceBuiltin::from_name(name) else {
            return self.user_call(name, args, span, out);
        };
        match builtin {
            SurfaceBuiltin::DimSize => {
                let m = self.expr(&args[0], None, out)?;
                let d = self.expr(&args[1], Some(&Type::Int), out)?.scalar();
                Ok(RV::Scalar(
                    IrExpr::Builtin(Builtin::Dim, vec![IrExpr::var(m.mat_var()), d]),
                    Type::Int,
                ))
            }
            SurfaceBuiltin::ReadMatrix => {
                let RV::Str(path) = self.expr(&args[0], None, out)? else {
                    return Err(self.bug(span, "readMatrix path must be a string literal"));
                };
                let Some(Type::Matrix(elem, rank)) = expected else {
                    return Err(self.bug(span, "readMatrix without a matrix-typed context"));
                };
                let var = self.fresh("rd");
                out.push(IrStmt::Decl {
                    ty: CType::Buf(elem_ir(*elem)),
                    name: var.clone(),
                    init: Some(IrExpr::Builtin(
                        Builtin::ReadMat(elem_ir(*elem)),
                        vec![IrExpr::Str(path)],
                    )),
                });
                self.register_owned(&var);
                // The declared rank is checked at runtime against the file.
                out.push(self.panic_if(
                    IrExpr::bin(
                        IrBinOp::Ne,
                        IrExpr::Builtin(Builtin::Rank, vec![IrExpr::var(&var)]),
                        IrExpr::Int(*rank as i64),
                    ),
                    "readMatrix: file rank does not match the declared matrix rank",
                ));
                Ok(RV::Mat {
                    var,
                    elem: *elem,
                    rank: *rank,
                })
            }
            SurfaceBuiltin::WriteMatrix => {
                let RV::Str(path) = self.expr(&args[0], None, out)? else {
                    return Err(self.bug(span, "writeMatrix path must be a string literal"));
                };
                let m = self.expr(&args[1], None, out)?;
                let RV::Mat { var, elem, .. } = m else {
                    return Err(self.bug(span, "writeMatrix writes matrices"));
                };
                out.push(IrStmt::Expr(IrExpr::Builtin(
                    Builtin::WriteMat(elem_ir(elem)),
                    vec![IrExpr::Str(path), IrExpr::var(&var)],
                )));
                Ok(RV::Void)
            }
            SurfaceBuiltin::Range => {
                let lo = self.expr(&args[0], Some(&Type::Int), out)?.scalar();
                let hi = self.expr(&args[1], Some(&Type::Int), out)?.scalar();
                Ok(self.range_vector(lo, hi, out))
            }
            SurfaceBuiltin::ToFloat | SurfaceBuiltin::ToInt => {
                let target = builtin.result_type(&self.static_type(&args[0], None), None);
                self.cast(&target, &args[0], span, out)
            }
            SurfaceBuiltin::PrintInt | SurfaceBuiltin::PrintFloat | SurfaceBuiltin::PrintBool => {
                let rv = self.expr(&args[0], None, out)?;
                let RV::Scalar(e, t) = rv else {
                    return Err(self.bug(span, format!("{name} prints scalars")));
                };
                let (print, e) = match builtin {
                    SurfaceBuiltin::PrintInt => (Builtin::PrintI32, e),
                    SurfaceBuiltin::PrintFloat => {
                        (Builtin::PrintF32, self.coerce(e, &t, &Type::Float))
                    }
                    _ => (Builtin::PrintB, e),
                };
                out.push(IrStmt::Expr(IrExpr::Builtin(print, vec![e])));
                Ok(RV::Void)
            }
            SurfaceBuiltin::RcGet => {
                let p = self.expr(&args[0], None, out)?;
                let RV::Rc { var, elem } = p else {
                    return Err(self.bug(span, "rcGet needs an rc pointer"));
                };
                let i = self.expr(&args[1], Some(&Type::Int), out)?.scalar();
                Ok(RV::Scalar(self.load(elem, &var, i), elem.scalar()))
            }
            SurfaceBuiltin::RcSet => {
                let p = self.expr(&args[0], None, out)?;
                let RV::Rc { var, elem } = p else {
                    return Err(self.bug(span, "rcSet needs an rc pointer"));
                };
                let i = self.expr(&args[1], Some(&Type::Int), out)?.scalar();
                let v = self.expr(&args[2], Some(&elem.scalar()), out)?;
                let RV::Scalar(ve, vty) = v else {
                    return Err(self.bug(span, "rcSet stores scalars"));
                };
                let coerced = self.coerce(ve, &vty, &elem.scalar());
                // Reference semantics: rc pointers share mutations (no COW).
                out.push(self.store(elem, &var, i, coerced));
                Ok(RV::Void)
            }
            SurfaceBuiltin::RcLen => {
                let p = self.expr(&args[0], None, out)?;
                let RV::Rc { var, .. } = p else {
                    return Err(self.bug(span, "rcLen needs an rc pointer"));
                };
                Ok(RV::Scalar(self.len_of(&var), Type::Int))
            }
        }
    }

    fn user_call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        let sigs = self.sigs;
        let sig = sigs
            .get(name)
            .ok_or_else(|| self.bug(span, format!("unknown function '{name}'")))?;
        let mut ir_args = Vec::new();
        for (a, pty) in args.iter().zip(&sig.params) {
            let rv = self.expr(a, Some(pty), out)?;
            self.push_call_arg(rv, pty, &mut ir_args, out, span)?;
        }
        let call = IrExpr::Call(self.callee(name, span)?, ir_args);
        match &sig.ret {
            Type::Void => {
                out.push(IrStmt::Expr(call));
                Ok(RV::Void)
            }
            Type::Matrix(elem, rank) => {
                let var = self.fresh("cr");
                out.push(IrStmt::Decl {
                    ty: CType::Buf(elem_ir(*elem)),
                    name: var.clone(),
                    init: Some(call),
                });
                self.register_owned(&var);
                Ok(RV::Mat {
                    var,
                    elem: *elem,
                    rank: *rank,
                })
            }
            Type::Rc(elem) => {
                let var = self.fresh("cr");
                out.push(IrStmt::Decl {
                    ty: CType::Buf(elem_ir(*elem)),
                    name: var.clone(),
                    init: Some(call),
                });
                self.register_owned(&var);
                Ok(RV::Rc { var, elem: *elem })
            }
            Type::Tuple(parts) => {
                // Declare component temps, then unpack.
                let mut targets = Vec::with_capacity(parts.len());
                let mut rvs = Vec::with_capacity(parts.len());
                for (i, p) in parts.iter().enumerate() {
                    let t = self.fresh(format_args!("tup{i}_"));
                    out.push(IrStmt::Decl {
                        ty: scalar_ctype(p),
                        name: t.clone(),
                        init: None,
                    });
                    match p {
                        Type::Matrix(e, r) => {
                            self.register_owned(&t);
                            rvs.push(RV::Mat {
                                var: t.clone(),
                                elem: *e,
                                rank: *r,
                            });
                        }
                        Type::Rc(e) => {
                            self.register_owned(&t);
                            rvs.push(RV::Rc {
                                var: t.clone(),
                                elem: *e,
                            });
                        }
                        scalar => rvs.push(RV::Scalar(IrExpr::var(&t), scalar.clone())),
                    }
                    targets.push(t);
                }
                out.push(IrStmt::UnpackCall { targets, call });
                Ok(RV::Tuple(rvs))
            }
            scalar => {
                let var = self.fresh("cr");
                out.push(IrStmt::Decl {
                    ty: scalar_ctype(scalar),
                    name: var.clone(),
                    init: Some(call),
                });
                Ok(RV::Scalar(IrExpr::var(&var), scalar.clone()))
            }
        }
    }

    /// `[ext-cilk]` spawn lowering: evaluate the arguments now (with the
    /// callee-owns increments), emit a deferred-call statement. The
    /// interpreter runs outstanding spawns concurrently at `sync`; the C
    /// emitter uses the serial elision.
    pub(super) fn spawn(
        &mut self,
        target: Option<&str>,
        call: &Expr,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        let Expr::Call { name, args, .. } = call else {
            return Err(self.bug(span, "spawn applies to function calls"));
        };
        let sigs = self.sigs;
        let sig = sigs
            .get(name)
            .ok_or_else(|| self.bug(span, format!("unknown function '{name}'")))?;
        let mut ir_args = Vec::new();
        for (a, pty) in args.iter().zip(&sig.params) {
            let rv = self.expr(a, Some(pty), out)?;
            self.push_call_arg(rv, pty, &mut ir_args, out, span)?;
        }
        let (ir_target, target_is_buf) = match target {
            None => (None, false),
            Some(t) => {
                let (ty, irs) = self
                    .lookup(t)
                    .ok_or_else(|| self.bug(span, format!("unbound spawn target '{t}'")))?;
                (
                    Some(irs[0].clone()),
                    matches!(ty, Type::Matrix(..) | Type::Rc(_)),
                )
            }
        };
        out.push(IrStmt::Spawn {
            target: ir_target,
            target_is_buf,
            func: self.callee(name, span)?,
            args: ir_args,
        });
        Ok(())
    }

    fn push_call_arg(
        &mut self,
        rv: RV,
        pty: &Type,
        ir_args: &mut Vec<IrExpr>,
        out: &mut Vec<IrStmt>,
        span: Span,
    ) -> LResult<()> {
        match rv {
            RV::Scalar(e, from) => {
                ir_args.push(self.coerce(e, &from, pty));
                Ok(())
            }
            rv @ (RV::Mat { .. } | RV::Rc { .. }) => {
                // Callee-owns convention: increment before the call.
                let var = rv.mat_var();
                self.incr(var, out);
                ir_args.push(IrExpr::var(var));
                Ok(())
            }
            RV::Tuple(parts) => {
                let ptys = match pty {
                    Type::Tuple(ps) => ps.clone(),
                    _ => return Err(self.bug(span, "tuple argument for non-tuple parameter")),
                };
                for (p, t) in parts.into_iter().zip(ptys) {
                    self.push_call_arg(p, &t, ir_args, out, span)?;
                }
                Ok(())
            }
            other => Err(self.bug(span, format!("cannot pass {other:?} as an argument"))),
        }
    }
}

/// Whether a generator's exclusive upper bound `hi` provably does not
/// exceed the shape `shape`: the same variable, or literals in order.
fn within(hi: &IrExpr, shape: &IrExpr) -> bool {
    match (hi, shape) {
        (IrExpr::Var(h), IrExpr::Var(s)) => h == s,
        (IrExpr::Int(h), IrExpr::Int(s)) => h <= s,
        _ => false,
    }
}
