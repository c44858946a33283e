//! Lowering: checked AST → plain-parallel-C loop IR.
//!
//! This is the translation the paper's extensions perform "down to plain
//! C code" (§III): matrices become reference-counted buffers, with-loops
//! expand into nested for-loops (Fig 1 → Fig 3) whose outer loop is
//! automatically parallelized (§III-C), `matrixMap` is lifted into a new
//! function "so that the spawned threads can get direct access to it"
//! (§III-A5), MATLAB-style indexing becomes gather/scatter loops (with
//! selection tables for logical indexing), tuples are scalarized into
//! multi-value returns, and every matrix assignment/scope edge gets the
//! retain/release calls of the reference-counting extension (§III-B).
//!
//! When a statement carries `[ext-transform]` directives, the loop nest
//! generated for it is rewritten by `cmm_loopir::transform` in source
//! order (§V), and automatic parallelization is suppressed — the
//! programmer has taken control.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::{Display, Write};

use cmm_ast::*;
use cmm_loopir::transform::{apply_all, LoopTransform};
use cmm_loopir::{
    Builtin, CType, Elem, ForLoop, IrBinOp, IrExpr, IrFunction, IrStmt, KernelCall, Name,
};

use crate::builtins::SurfaceBuiltin;
use crate::typecheck::{binary_type, fold_type, FuncSig, TypeInfo};

/// Lowering configuration; the flags are the ablation knobs of the
/// fusion/copy-elision experiments (E11).
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Automatically parallelize the outer loop of with-loops and
    /// `matrixMap` (§III-C). Suppressed per-statement by transform
    /// clauses.
    pub parallelize: bool,
    /// With-loop/assignment copy elision (§III-A4): bind the result
    /// buffer directly instead of materializing a temporary and copying
    /// ("a library implementation would likely evaluate the result of the
    /// with-loops into a temporary variable which is then copied").
    pub fuse_with_assign: bool,
    /// Slice-index fusion (§III-A4): the compile driver runs
    /// [`crate::optimize::fuse_slice_indices`] before lowering; lowering
    /// itself does not read this flag.
    pub fuse_slice_index: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            parallelize: true,
            fuse_with_assign: true,
            fuse_slice_index: true,
        }
    }
}

/// Lower a type-checked program one function at a time: each user
/// function in source order, then the functions lifted out of its
/// `matrixMap`s. A caller that emits each function before asking for the
/// next never holds the whole program's IR. The slice-index fusion is not
/// run here: it rewrites the AST in place before lowering
/// ([`crate::fuse_slice_indices`]).
pub fn lower_functions<'p>(
    prog: &'p Program,
    info: &'p TypeInfo,
    opts: &LowerOptions,
) -> FunctionLowering<'p> {
    FunctionLowering {
        fn_names: prog
            .functions
            .iter()
            .map(|f| (f.name.as_str(), Name::from(f.name.as_str())))
            .collect(),
        functions: prog.functions.iter(),
        sigs: &info.sigs,
        opts: *opts,
        names: Namer::default(),
        lifted: Vec::new(),
        lifted_out: Vec::new().into_iter(),
    }
}

/// The iterator of [`lower_functions`]: one lowered function, or the
/// lowering error of one, per call.
pub struct FunctionLowering<'p> {
    functions: std::slice::Iter<'p, Function>,
    sigs: &'p HashMap<String, FuncSig>,
    /// Each user function's IR name, made once for its definition and
    /// every call.
    fn_names: HashMap<&'p str, Name>,
    opts: LowerOptions,
    names: Namer,
    /// Functions lifted out of the `matrixMap`s lowered so far.
    lifted: Vec<IrFunction>,
    /// The lifted functions, handed out in lifting order once every user
    /// function has been.
    lifted_out: std::vec::IntoIter<IrFunction>,
}

impl FunctionLowering<'_> {
    /// The names of the functions lifted out of `matrixMap`s so far, in
    /// lifting order, until the first of them is handed out. A function
    /// that calls one is handed out before it: a caller that indexes
    /// functions as it receives them (user functions in source order, then
    /// these) learns each lifted index here, by the time a call to it
    /// appears.
    pub fn lifted_names(&self) -> impl Iterator<Item = &Name> {
        self.lifted.iter().map(|f| &f.name)
    }
}

impl Iterator for FunctionLowering<'_> {
    type Item = Result<IrFunction, Diag>;

    fn next(&mut self) -> Option<Self::Item> {
        let Some(f) = self.functions.next() else {
            if !self.lifted.is_empty() {
                self.lifted_out = std::mem::take(&mut self.lifted).into_iter();
            }
            return self.lifted_out.next().map(Ok);
        };
        let mut fl = FnLower {
            sigs: self.sigs,
            fn_names: &self.fn_names,
            opts: self.opts,
            vars: Vec::new(),
            marks: Vec::new(),
            owned: vec![Vec::new()],
            names: &self.names,
            lifted: &mut self.lifted,
            ret: f.ret.clone(),
            current_end: None,
        };
        Some(fl.function(f))
    }
}

fn elem_ir(e: ElemKind) -> Elem {
    match e {
        ElemKind::Int => Elem::I32,
        ElemKind::Float => Elem::F32,
        ElemKind::Bool => Elem::Bool,
    }
}

/// `dim(var, d)`: the size of dimension `d` of buffer `var`.
fn dim_of(var: &Name, d: usize) -> IrExpr {
    IrExpr::Builtin(Builtin::Dim, vec![IrExpr::var(var), IrExpr::Int(d as i64)])
}

/// Release a reference to buffer `var`.
fn release(var: &Name) -> IrStmt {
    IrStmt::Expr(IrExpr::Builtin(Builtin::RcDecr, vec![IrExpr::var(var)]))
}

/// Declare buffer variable `name` as a fresh zeroed `elem` matrix of
/// shape `dims`.
fn alloc_decl(name: &Name, elem: ElemKind, dims: Vec<IrExpr>) -> IrStmt {
    IrStmt::Decl {
        ty: CType::Buf(elem_ir(elem)),
        name: name.clone(),
        init: Some(IrExpr::Builtin(Builtin::AllocMat(elem_ir(elem)), dims)),
    }
}

fn scalar_ctype(t: &Type) -> CType {
    match t {
        Type::Int => CType::Int,
        Type::Float => CType::Float,
        Type::Bool => CType::Bool,
        Type::Matrix(e, _) | Type::Rc(e) => CType::Buf(elem_ir(*e)),
        Type::Void => CType::Void,
        other => panic!("no single CType for {other}"),
    }
}

/// A lowered value.
#[derive(Debug, Clone)]
enum RV {
    Scalar(IrExpr, Type),
    Mat {
        var: Name,
        elem: ElemKind,
        rank: u8,
    },
    Rc {
        var: Name,
        elem: ElemKind,
    },
    Tuple(Vec<RV>),
    Str(String),
    Void,
}

impl RV {
    fn scalar(self) -> IrExpr {
        match self {
            RV::Scalar(e, _) => e,
            other => panic!("expected scalar value, got {other:?}"),
        }
    }

    fn mat_var(&self) -> &Name {
        match self {
            RV::Mat { var, .. } | RV::Rc { var, .. } => var,
            other => panic!("expected matrix value, got {other:?}"),
        }
    }
}

/// Hands out the fresh IR names of one program, numbered across all its
/// functions. Shared (`&self`), so that a name can be made while a scope
/// entry is borrowed.
#[derive(Default)]
struct Namer {
    count: Cell<u32>,
    /// Where a name is formatted before it is copied into its `Name`.
    buf: RefCell<String>,
}

impl Namer {
    fn fresh(&self, prefix: impl Display) -> Name {
        let id = self.count.get() + 1;
        self.count.set(id);
        let mut buf = self.buf.borrow_mut();
        buf.clear();
        // The separator keeps the scheme injective: the id is the digits
        // after the last `_`, so a user variable named `v5` (id 5) can
        // never mangle to the same name as a temp `v` (id 55).
        let _ = write!(buf, "__{prefix}_{id}");
        Name::from(buf.as_str())
    }
}

struct FnLower<'a> {
    sigs: &'a HashMap<String, FuncSig>,
    fn_names: &'a HashMap<&'a str, Name>,
    opts: LowerOptions,
    /// Variable bindings of every open scope, innermost last: AST name →
    /// (type, IR names). A lookup scans back from the end, so the latest
    /// binding of a name shadows the earlier ones.
    vars: Vec<(String, (Type, Vec<Name>))>,
    /// Where each scope opened inside the function body starts in `vars`.
    marks: Vec<usize>,
    /// Owned buffer IR names per scope (decremented at scope exit).
    owned: Vec<Vec<Name>>,
    names: &'a Namer,
    lifted: &'a mut Vec<IrFunction>,
    ret: Type,
    /// IR expression `end` resolves to while lowering a subscript
    /// component (`dim(m, d) - 1` of the dimension being indexed).
    current_end: Option<IrExpr>,
}

type LResult<T> = Result<T, Diag>;

impl FnLower<'_> {
    fn fresh(&self, prefix: impl Display) -> Name {
        self.names.fresh(prefix)
    }

    /// The IR name of user function `name`.
    fn callee(&self, name: &str, span: Span) -> LResult<Name> {
        self.fn_names
            .get(name)
            .cloned()
            .ok_or_else(|| self.bug(span, format!("unknown function '{name}'")))
    }

    fn bug(&self, span: Span, msg: impl Into<String>) -> Diag {
        Diag::error(span, format!("lowering error: {}", msg.into()))
    }

    fn lookup(&self, name: &str) -> Option<&(Type, Vec<Name>)> {
        self.vars.iter().rev().find(|(n, _)| n == name).map(|(_, b)| b)
    }

    /// The binding of variable `name`, which the checker has put in scope.
    fn binding(&self, name: &str, span: Span) -> LResult<&(Type, Vec<Name>)> {
        self.lookup(name)
            .ok_or_else(|| self.bug(span, format!("unbound variable '{name}'")))
    }

    fn declare_var(&mut self, name: &str, ty: Type, irs: Vec<Name>) {
        self.vars.push((name.to_string(), (ty, irs)));
    }

    fn register_owned(&mut self, ir: &Name) {
        self.owned.last_mut().expect("owned scope").push(ir.clone());
    }

    fn push_scope(&mut self) {
        self.marks.push(self.vars.len());
        self.owned.push(Vec::new());
    }

    /// Close the innermost scope without releasing what it owns.
    fn leave_scope(&mut self) -> Vec<Name> {
        let mark = self.marks.pop().expect("var scope");
        self.vars.truncate(mark);
        self.owned.pop().expect("owned scope")
    }

    fn pop_scope(&mut self, out: &mut Vec<IrStmt>) {
        let owned = self.leave_scope();
        for var in owned.into_iter().rev() {
            out.push(release(&var));
        }
    }

    /// Close the scope of the statements `stmts`: a scope whose last
    /// statement is a `return` has released everything already.
    fn close_scope(&mut self, stmts: &[Stmt], out: &mut Vec<IrStmt>) {
        if ends_in_return(stmts) {
            self.leave_scope();
        } else {
            self.pop_scope(out);
        }
    }

    /// Decrement every owned buffer in every active scope (for returns).
    fn decr_all_scopes(&self, out: &mut Vec<IrStmt>) {
        for scope in self.owned.iter().rev() {
            for var in scope.iter().rev() {
                out.push(release(var));
            }
        }
    }

    fn incr(&self, var: &Name, out: &mut Vec<IrStmt>) {
        out.push(IrStmt::Expr(IrExpr::Builtin(Builtin::RcIncr, vec![IrExpr::var(var)])));
    }

    /// Declare a fresh owned matrix temp initialized by an allocation.
    fn alloc_tmp(
        &mut self,
        elem: ElemKind,
        dims: Vec<IrExpr>,
        out: &mut Vec<IrStmt>,
    ) -> Name {
        let var = self.fresh("m");
        out.push(alloc_decl(&var, elem, dims));
        self.register_owned(&var);
        var
    }

    /// The one element-wise loop: `dst[q] = value(q)` for every `q` below
    /// `len`, `dst` being an `elem` buffer.
    fn fill(
        &self,
        elem: ElemKind,
        dst: &Name,
        len: IrExpr,
        out: &mut Vec<IrStmt>,
        value: impl FnOnce(&Self, IrExpr) -> IrExpr,
    ) {
        let q = self.fresh("q");
        let st = self.store(elem, dst, IrExpr::var(&q), value(self, IrExpr::var(&q)));
        out.push(IrStmt::For(ForLoop {
            var: q,
            lo: IrExpr::Int(0),
            hi: len,
            body: vec![st],
            parallel: false,
            vector: false,
            schedule: None,
        }));
    }

    /// [`FnLower::fill`] into a fresh owned temp of shape `dims`.
    fn elementwise(
        &mut self,
        elem: ElemKind,
        dims: Vec<IrExpr>,
        len: IrExpr,
        out: &mut Vec<IrStmt>,
        value: impl FnOnce(&Self, IrExpr) -> IrExpr,
    ) -> Name {
        let result = self.alloc_tmp(elem, dims, out);
        self.fill(elem, &result, len, out, value);
        result
    }

    /// `dst[q] = src[q]` over all of `src`.
    fn copy_cells(&self, elem: ElemKind, dst: &Name, src: &Name, out: &mut Vec<IrStmt>) {
        self.fill(elem, dst, self.len_of(src), out, |lw, q| lw.load(elem, src, q));
    }

    fn dims_of(&self, var: &Name, rank: u8) -> Vec<IrExpr> {
        (0..rank as usize).map(|d| dim_of(var, d)).collect()
    }

    fn len_of(&self, var: &Name) -> IrExpr {
        IrExpr::Builtin(Builtin::Len, vec![IrExpr::var(var)])
    }

    /// Row-major flat offset for `var` given per-dimension index exprs.
    fn flat_offset(&self, var: &Name, idxs: &[IrExpr]) -> IrExpr {
        let mut it = idxs.iter();
        let mut off = it.next().cloned().unwrap_or(IrExpr::Int(0));
        for (d, idx) in it.enumerate() {
            let dim = dim_of(var, d + 1);
            off = IrExpr::add(IrExpr::mul(off, dim), idx.clone());
        }
        off
    }

    fn load(&self, elem: ElemKind, var: &Name, idx: IrExpr) -> IrExpr {
        IrExpr::Load {
            elem: elem_ir(elem),
            buf: Box::new(IrExpr::var(var)),
            idx: Box::new(idx),
        }
    }

    fn store(&self, elem: ElemKind, var: &Name, idx: IrExpr, value: IrExpr) -> IrStmt {
        IrStmt::Store {
            elem: elem_ir(elem),
            buf: IrExpr::var(var),
            idx,
            value,
        }
    }

    /// An int value read more than once: itself when it is an int literal
    /// or a variable, which read the same at every use, else a fresh
    /// `prefix` temp holding it. A variable named in `shadowed` (the
    /// generator variables of the loops that will read the value) is
    /// copied too: inside those loops its name means the loop's own index.
    fn in_place(
        &self,
        rv: RV,
        shadowed: &[Name],
        prefix: impl Display,
        out: &mut Vec<IrStmt>,
    ) -> IrExpr {
        match rv {
            RV::Scalar(IrExpr::Var(n), Type::Int) if !shadowed.contains(&n) => IrExpr::Var(n),
            RV::Scalar(e @ IrExpr::Int(n), Type::Int) if i32::try_from(n).is_ok() => e,
            rv => {
                let tmp = self.fresh(prefix);
                out.push(IrStmt::Decl {
                    ty: CType::Int,
                    name: tmp.clone(),
                    init: Some(rv.scalar()),
                });
                IrExpr::var(&tmp)
            }
        }
    }

    fn panic_if(&self, cond: IrExpr, msg: &str) -> IrStmt {
        IrStmt::If {
            cond,
            then_b: vec![IrStmt::Expr(IrExpr::Builtin(
                Builtin::Panic,
                vec![IrExpr::Str(msg.to_string())],
            ))],
            else_b: vec![],
        }
    }

    // ------------------------------------------------------------------
    // Functions
    // ------------------------------------------------------------------

    fn function(&mut self, f: &Function) -> LResult<IrFunction> {
        let mut params: Vec<(Name, CType)> = Vec::new();
        let mut body = Vec::new();
        for p in &f.params {
            match &p.ty {
                Type::Tuple(parts) => {
                    let mut irs = Vec::new();
                    for (i, part) in parts.iter().enumerate() {
                        let ir = Name::from(format!("{}__{i}", p.name));
                        params.push((ir.clone(), scalar_ctype(part)));
                        // Matrix components follow the callee-owns
                        // convention (caller incremented).
                        if matches!(part, Type::Matrix(..) | Type::Rc(_)) {
                            self.register_owned(&ir);
                        }
                        irs.push(ir);
                    }
                    self.declare_var(&p.name, p.ty.clone(), irs);
                }
                other => {
                    let ir = Name::from(p.name.as_str());
                    params.push((ir.clone(), scalar_ctype(other)));
                    if matches!(other, Type::Matrix(..) | Type::Rc(_)) {
                        // Callee owns its matrix arguments; the caller
                        // increments before the call (§III-B).
                        self.register_owned(&ir);
                    }
                    self.declare_var(&p.name, other.clone(), vec![ir]);
                }
            }
        }
        for s in &f.body.stmts {
            self.stmt(s, &mut body)?;
        }
        // Implicit fall-off-the-end: release everything still owned.
        if !ends_in_return(&f.body.stmts) {
            self.decr_all_scopes(&mut body);
        }

        let (ret, ret_tuple) = match &f.ret {
            Type::Tuple(parts) => (CType::Void, Some(parts.iter().map(scalar_ctype).collect())),
            other => (scalar_ctype(other), None),
        };
        Ok(IrFunction {
            name: self.callee(&f.name, f.span)?,
            params,
            ret,
            ret_tuple,
            body,
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self, b: &Block, out: &mut Vec<IrStmt>) -> LResult<()> {
        self.push_scope();
        let mut inner = Vec::new();
        for s in &b.stmts {
            self.stmt(s, &mut inner)?;
        }
        self.close_scope(&b.stmts, &mut inner);
        out.push(IrStmt::Block(inner));
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<IrStmt>) -> LResult<()> {
        match s {
            Stmt::Decl { ty, name, init, span } => self.decl(ty, name, init.as_ref(), *span, out),
            Stmt::Assign {
                target,
                value,
                transforms,
                span,
            } => {
                let mut sub = Vec::new();
                let auto_par = transforms.is_empty();
                let saved = self.opts.parallelize;
                self.opts.parallelize = saved && auto_par;
                self.assign(target, value, &mut sub)?;
                self.opts.parallelize = saved;
                if !transforms.is_empty() {
                    let ts: Vec<LoopTransform> =
                        transforms.iter().map(convert_transform).collect();
                    apply_all(&mut sub, &ts).map_err(|e| Diag::error(*span, e.to_string()))?;
                }
                out.extend(sub);
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.expr(cond, Some(&Type::Bool), out)?.scalar();
                let mut t = Vec::new();
                self.block(then_blk, &mut t)?;
                let mut e = Vec::new();
                if let Some(b) = else_blk {
                    self.block(b, &mut e)?;
                }
                out.push(IrStmt::If {
                    cond: c,
                    then_b: t,
                    else_b: e,
                });
                Ok(())
            }
            Stmt::While { cond, body, .. } => self.while_loop(cond, &body.stmts, None, out),
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some((v, lo, hi)) = self.counted(init, cond, step, body) {
                    return self.counted_loop(v, lo, hi, &body.stmts, out);
                }
                // Desugar into { init; while (cond) { body; step } }.
                self.push_scope();
                let mut inner = Vec::new();
                self.stmt(init, &mut inner)?;
                self.while_loop(cond, &body.stmts, Some(step), &mut inner)?;
                self.pop_scope(&mut inner);
                out.push(IrStmt::Block(inner));
                Ok(())
            }
            Stmt::Return { value, span } => self.ret_stmt(value.as_ref(), *span, out),
            Stmt::ExprStmt { expr, .. } => {
                let rv = self.expr(expr, None, out)?;
                if let RV::Scalar(e, _) = rv {
                    // Evaluate for effect (calls).
                    if matches!(e, IrExpr::Call(..) | IrExpr::Builtin(..)) {
                        out.push(IrStmt::Expr(e));
                    }
                }
                Ok(())
            }
            Stmt::Nested(b) => self.block(b, out),
            Stmt::Spawn { target, call, span } => self.spawn(target.as_deref(), call, *span, out),
            Stmt::Sync { .. } => {
                out.push(IrStmt::Sync);
                Ok(())
            }
        }
    }

    /// The variable and bounds of `for (int v = lo; v < hi; v++)` (or
    /// `v = v + 1`) when `hi` reads the same on every trip: it calls no
    /// user function and reads no buffer cell, and the body assigns
    /// neither `v` nor any variable `hi` reads, nor syncs.
    fn counted<'e>(
        &self,
        init: &'e Stmt,
        cond: &'e Expr,
        step: &Stmt,
        body: &Block,
    ) -> Option<(&'e str, &'e Expr, &'e Expr)> {
        let Stmt::Decl {
            ty: Type::Int,
            name: v,
            init: Some(lo),
            ..
        } = init
        else {
            return None;
        };
        let Expr::Binary {
            op: BinOp::Lt,
            left,
            right: hi,
            ..
        } = cond
        else {
            return None;
        };
        let is_v = |e: &Expr| matches!(e, Expr::Var(n, _) if n == v);
        let steps_by_one = match step {
            Stmt::Assign {
                target: LValue::Var(t, _),
                value:
                    Expr::Binary {
                        op: BinOp::Add,
                        left: l,
                        right: r,
                        ..
                    },
                transforms,
                ..
            } => t == v && transforms.is_empty() && is_v(l) && matches!(**r, Expr::IntLit(1, _)),
            _ => false,
        };
        if !is_v(left) || !steps_by_one {
            return None;
        }
        let mut reads = Vec::new();
        if !invariant_reads(hi, &mut reads)
            || reads.contains(&v.as_str())
            || self.static_type(lo, Some(&Type::Int)) != Type::Int
            || self.static_type(hi, Some(&Type::Int)) != Type::Int
        {
            return None;
        }
        reads.push(v);
        (!body.stmts.iter().any(|s| writes_any(s, &reads))).then_some((v.as_str(), lo, &**hi))
    }

    /// A counted `for` ([`FnLower::counted`]) as one sequential
    /// `IrStmt::For`, its bounds evaluated once before the first trip.
    fn counted_loop(
        &mut self,
        v: &str,
        lo: &Expr,
        hi: &Expr,
        body: &[Stmt],
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        self.push_scope();
        let mut inner = Vec::new();
        let lo = self.expr(lo, Some(&Type::Int), &mut inner)?.scalar();
        let hi = self.expr(hi, Some(&Type::Int), &mut inner)?.scalar();
        let var = self.fresh(v);
        self.declare_var(v, Type::Int, vec![var.clone()]);
        self.push_scope();
        let mut trip = Vec::new();
        for s in body {
            self.stmt(s, &mut trip)?;
        }
        self.close_scope(body, &mut trip);
        inner.push(IrStmt::For(ForLoop {
            var,
            lo,
            hi,
            body: trip,
            parallel: false,
            vector: false,
            schedule: None,
        }));
        self.pop_scope(&mut inner);
        if inner.len() == 1 {
            out.extend(inner);
        } else {
            out.push(IrStmt::Block(inner));
        }
        Ok(())
    }

    /// `while (cond) { body; step }`, the statements lowered in place.
    fn while_loop(
        &mut self,
        cond: &Expr,
        body: &[Stmt],
        step: Option<&Stmt>,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        // Evaluate the condition before the loop and at the end of each
        // iteration (condition temps live in the iteration scope).
        let cvar = self.fresh("c");
        let c0 = self.expr(cond, Some(&Type::Bool), out)?.scalar();
        out.push(IrStmt::Decl {
            ty: CType::Bool,
            name: cvar.clone(),
            init: Some(c0),
        });
        self.push_scope();
        let mut inner = Vec::new();
        for s in body.iter().chain(step) {
            self.stmt(s, &mut inner)?;
        }
        // Re-evaluate the condition within the iteration scope, into a
        // temp declared before the loop so that it outlives the block.
        let c1 = self.expr(cond, Some(&Type::Bool), &mut inner)?.scalar();
        let ctmp = self.fresh("c");
        inner.push(IrStmt::Assign {
            name: ctmp.clone(),
            value: c1,
        });
        self.pop_scope(&mut inner);
        out.push(IrStmt::Decl {
            ty: CType::Bool,
            name: ctmp.clone(),
            init: Some(IrExpr::Bool(false)),
        });
        out.push(IrStmt::While {
            cond: IrExpr::var(&cvar),
            body: vec![
                IrStmt::Block(inner),
                IrStmt::Assign {
                    name: cvar,
                    value: IrExpr::var(&ctmp),
                },
            ],
        });
        Ok(())
    }

    fn decl(
        &mut self,
        ty: &Type,
        name: &str,
        init: Option<&Expr>,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        match ty {
            Type::Tuple(parts) => {
                let mut irs = Vec::new();
                let init_rv = match init {
                    Some(e) => Some(self.expr(e, Some(ty), out)?),
                    None => None,
                };
                let init_parts: Option<Vec<RV>> = match init_rv {
                    Some(RV::Tuple(ps)) => Some(ps),
                    Some(other) => {
                        return Err(self.bug(span, format!("tuple initializer is {other:?}")))
                    }
                    None => None,
                };
                for (i, part) in parts.iter().enumerate() {
                    let ir = self.fresh(format_args!("{name}_{i}_"));
                    let value = init_parts.as_ref().map(|ps| ps[i].clone());
                    self.bind_fresh(part, &ir, value, out)?;
                    irs.push(ir);
                }
                self.declare_var(name, ty.clone(), irs);
                Ok(())
            }
            _ => {
                let ir = self.fresh(name);
                let value = match init {
                    Some(e) => Some(self.expr(e, Some(ty), out)?),
                    None => None,
                };
                self.bind_fresh(ty, &ir, value, out)?;
                self.declare_var(name, ty.clone(), vec![ir]);
                Ok(())
            }
        }
    }

    /// Emit the declaration of IR variable `ir` of AST type `ty`, bound to
    /// `value` (or a default).
    fn bind_fresh(
        &mut self,
        ty: &Type,
        ir: &Name,
        value: Option<RV>,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        match ty {
            Type::Matrix(elem, rank) => {
                match value {
                    Some(rv @ (RV::Mat { .. } | RV::Rc { .. })) => {
                        let src = rv.mat_var();
                        if self.opts.fuse_with_assign {
                            // Copy elision: alias the handle, bump the count.
                            out.push(IrStmt::Decl {
                                ty: CType::Buf(elem_ir(*elem)),
                                name: ir.clone(),
                                init: Some(IrExpr::var(src)),
                            });
                            self.incr(ir, out);
                        } else {
                            // Library mode: materialize a copy.
                            let dims = self.dims_of(src, *rank);
                            out.push(alloc_decl(ir, *elem, dims));
                            self.copy_cells(*elem, ir, src, out);
                        }
                    }
                    None => {
                        // Uninitialized matrix: placeholder empty buffer so
                        // reference counting stays uniform.
                        let dims = vec![IrExpr::Int(0); *rank as usize];
                        out.push(alloc_decl(ir, *elem, dims));
                    }
                    Some(other) => {
                        return Err(self.bug(
                            Span::SYNTH,
                            format!("matrix initializer lowered to {other:?}"),
                        ))
                    }
                }
                self.register_owned(ir);
                Ok(())
            }
            Type::Rc(elem) => {
                match value {
                    Some(rv) => {
                        out.push(IrStmt::Decl {
                            ty: CType::Buf(elem_ir(*elem)),
                            name: ir.clone(),
                            init: Some(IrExpr::var(rv.mat_var())),
                        });
                        self.incr(ir, out);
                    }
                    None => {
                        out.push(alloc_decl(ir, *elem, vec![IrExpr::Int(0)]));
                    }
                }
                self.register_owned(ir);
                Ok(())
            }
            _ => {
                let init = match value {
                    Some(RV::Scalar(e, from_ty)) => Some(self.coerce(e, &from_ty, ty)),
                    None => None,
                    Some(other) => {
                        return Err(self.bug(
                            Span::SYNTH,
                            format!("scalar initializer lowered to {other:?}"),
                        ))
                    }
                };
                out.push(IrStmt::Decl {
                    ty: scalar_ctype(ty),
                    name: ir.clone(),
                    init,
                });
                Ok(())
            }
        }
    }

    /// Implicit scalar promotion at binding/return sites.
    fn coerce(&self, e: IrExpr, from: &Type, to: &Type) -> IrExpr {
        if from == to {
            e
        } else if *to == Type::Float && *from == Type::Int {
            IrExpr::CastFloat(Box::new(e))
        } else {
            e
        }
    }

    fn assign(&mut self, target: &LValue, value: &Expr, out: &mut Vec<IrStmt>) -> LResult<()> {
        match target {
            LValue::Var(name, span) => {
                let ty = self.binding(name, *span)?.0.clone();
                let rv = self.expr(value, Some(&ty), out)?;
                let (ty, irs) = self.binding(name, *span)?;
                self.assign_components(ty, irs, rv, out)
            }
            LValue::Index { base, indices, span } => self.index_assign(base, indices, value, *span, out),
            LValue::Tuple(names, span) => {
                let mut tys = Vec::new();
                for n in names {
                    tys.push(self.binding(n, *span)?.0.clone());
                }
                let rv = self.expr(value, Some(&Type::Tuple(tys)), out)?;
                let RV::Tuple(parts) = rv else {
                    return Err(self.bug(*span, "tuple assignment from non-tuple value"));
                };
                for (n, part) in names.iter().zip(parts) {
                    let (ty, irs) = self.binding(n, *span)?;
                    self.assign_components(ty, irs, part, out)?;
                }
                Ok(())
            }
        }
    }

    /// Store an RV into existing variable slots (handles matrices, rc
    /// pointers, tuples and scalars uniformly).
    fn assign_components(
        &self,
        ty: &Type,
        irs: &[Name],
        rv: RV,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        match (ty, rv) {
            (Type::Matrix(elem, rank), rv @ (RV::Mat { .. } | RV::Rc { .. })) => {
                let src = rv.mat_var();
                let ir = &irs[0];
                if self.opts.fuse_with_assign {
                    self.incr(src, out);
                    out.push(release(ir));
                    out.push(IrStmt::Assign {
                        name: ir.clone(),
                        value: IrExpr::var(src),
                    });
                } else {
                    // Library mode: copy into a fresh buffer, whose one
                    // reference passes to the target.
                    let dims = self.dims_of(src, *rank);
                    let fresh = self.fresh("cp");
                    out.push(alloc_decl(&fresh, *elem, dims));
                    self.copy_cells(*elem, &fresh, src, out);
                    out.push(release(ir));
                    out.push(IrStmt::Assign {
                        name: ir.clone(),
                        value: IrExpr::var(&fresh),
                    });
                }
                Ok(())
            }
            (Type::Rc(_), rv @ (RV::Mat { .. } | RV::Rc { .. })) => {
                let src = rv.mat_var();
                let ir = &irs[0];
                self.incr(src, out);
                out.push(release(ir));
                out.push(IrStmt::Assign {
                    name: ir.clone(),
                    value: IrExpr::var(src),
                });
                Ok(())
            }
            (Type::Tuple(parts), RV::Tuple(vals)) => {
                for (idx, (part, val)) in parts.iter().zip(vals).enumerate() {
                    self.assign_components(part, &irs[idx..idx + 1], val, out)?;
                }
                Ok(())
            }
            (scalar_ty, RV::Scalar(e, from)) => {
                let value = self.coerce(e, &from, scalar_ty);
                out.push(IrStmt::Assign {
                    name: irs[0].clone(),
                    value,
                });
                Ok(())
            }
            (t, rv) => Err(self.bug(Span::SYNTH, format!("cannot assign {rv:?} to {t}"))),
        }
    }

    fn ret_stmt(&mut self, value: Option<&Expr>, span: Span, out: &mut Vec<IrStmt>) -> LResult<()> {
        let ret_ty = self.ret.clone();
        match value {
            None => {
                self.decr_all_scopes(out);
                out.push(IrStmt::Return(None));
                Ok(())
            }
            Some(e) => {
                let rv = self.expr(e, Some(&ret_ty), out)?;
                match rv {
                    RV::Scalar(ex, from) => {
                        let tmp = self.fresh("ret");
                        let coerced = self.coerce(ex, &from, &ret_ty);
                        out.push(IrStmt::Decl {
                            ty: scalar_ctype(&ret_ty),
                            name: tmp.clone(),
                            init: Some(coerced),
                        });
                        self.decr_all_scopes(out);
                        out.push(IrStmt::Return(Some(IrExpr::var(&tmp))));
                    }
                    rv @ (RV::Mat { .. } | RV::Rc { .. }) => {
                        let var = rv.mat_var();
                        // Transfer ownership to the caller.
                        self.incr(var, out);
                        self.decr_all_scopes(out);
                        out.push(IrStmt::Return(Some(IrExpr::var(var))));
                    }
                    RV::Tuple(parts) => {
                        let mut exprs = Vec::with_capacity(parts.len());
                        let expected = match &ret_ty {
                            Type::Tuple(ps) => ps.clone(),
                            _ => return Err(self.bug(span, "tuple return from non-tuple function")),
                        };
                        for (part, want) in parts.into_iter().zip(expected) {
                            match part {
                                RV::Scalar(ex, from) => {
                                    let tmp = self.fresh("ret");
                                    let coerced = self.coerce(ex, &from, &want);
                                    out.push(IrStmt::Decl {
                                        ty: scalar_ctype(&want),
                                        name: tmp.clone(),
                                        init: Some(coerced),
                                    });
                                    exprs.push(IrExpr::var(&tmp));
                                }
                                rv @ (RV::Mat { .. } | RV::Rc { .. }) => {
                                    let var = rv.mat_var();
                                    self.incr(var, out);
                                    exprs.push(IrExpr::var(var));
                                }
                                other => {
                                    return Err(self.bug(span, format!("bad tuple component {other:?}")))
                                }
                            }
                        }
                        self.decr_all_scopes(out);
                        out.push(IrStmt::Return(Some(IrExpr::Tuple(exprs))));
                    }
                    RV::Void | RV::Str(_) => {
                        return Err(self.bug(span, "cannot return this value"));
                    }
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn expr(
        &mut self,
        e: &Expr,
        expected: Option<&Type>,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        match e {
            Expr::IntLit(v, _) => Ok(RV::Scalar(IrExpr::Int(*v), Type::Int)),
            Expr::FloatLit(v, _) => Ok(RV::Scalar(IrExpr::Float(*v), Type::Float)),
            Expr::BoolLit(v, _) => Ok(RV::Scalar(IrExpr::Bool(*v), Type::Bool)),
            Expr::StrLit(s, _) => Ok(RV::Str(s.clone())),
            Expr::End(span) => match self.current_end.clone() {
                Some(e) => Ok(RV::Scalar(e, Type::Int)),
                None => Err(self.bug(
                    *span,
                    "'end' outside a subscript survived type checking",
                )),
            },
            Expr::Var(name, span) => {
                let (ty, irs) = self.binding(name, *span)?;
                Ok(self.var_rv(ty, irs))
            }
            Expr::Unary { op, operand, span } => self.unary(*op, operand, *span, out),
            Expr::Binary { op, left, right, span } => {
                let l = self.expr(left, None, out)?;
                let r = self.expr(right, None, out)?;
                self.binary(*op, l, r, *span, out)
            }
            Expr::Cast { ty, expr, span } => self.cast(ty, expr, *span, out),
            Expr::Index { base, indices, span } => {
                let b = self.expr(base, None, out)?;
                self.index_get(b, indices, *span, out)
            }
            Expr::RangeVec { lo, hi, .. } => {
                let lo = self.expr(lo, Some(&Type::Int), out)?.scalar();
                let hi = self.expr(hi, Some(&Type::Int), out)?.scalar();
                Ok(self.range_vector(lo, hi, out))
            }
            Expr::Tuple(parts, _) => {
                let expected_parts: Option<&Vec<Type>> = match expected {
                    Some(Type::Tuple(ps)) if ps.len() == parts.len() => Some(ps),
                    _ => None,
                };
                let mut vals = Vec::with_capacity(parts.len());
                for (i, p) in parts.iter().enumerate() {
                    vals.push(self.expr(p, expected_parts.map(|ps| &ps[i]), out)?);
                }
                Ok(RV::Tuple(vals))
            }
            Expr::With { generator, op, span } => self.with_loop(generator, op, *span, out),
            Expr::MatrixMap {
                func,
                matrix,
                dims,
                span,
            } => self.matrix_map(func, matrix, dims, *span, out),
            Expr::Init { ty, dims, span } => {
                let Some((elem, rank)) = ty.as_matrix() else {
                    return Err(self.bug(*span, "init of non-matrix type"));
                };
                let mut dim_exprs = Vec::with_capacity(dims.len());
                for d in dims {
                    dim_exprs.push(self.expr(d, Some(&Type::Int), out)?.scalar());
                }
                let var = self.alloc_tmp(elem, dim_exprs, out);
                Ok(RV::Mat { var, elem, rank })
            }
            Expr::RcAlloc { elem, len, .. } => {
                let n = self.expr(len, Some(&Type::Int), out)?.scalar();
                let var = self.fresh("rc");
                out.push(alloc_decl(&var, *elem, vec![n]));
                self.register_owned(&var);
                Ok(RV::Rc { var, elem: *elem })
            }
            Expr::Call { name, args, span } => self.call(name, args, expected, *span, out),
        }
    }

    fn var_rv(&self, ty: &Type, irs: &[Name]) -> RV {
        match ty {
            Type::Matrix(e, r) => RV::Mat {
                var: irs[0].clone(),
                elem: *e,
                rank: *r,
            },
            Type::Rc(e) => RV::Rc {
                var: irs[0].clone(),
                elem: *e,
            },
            Type::Tuple(parts) => RV::Tuple(
                parts
                    .iter()
                    .zip(irs)
                    .map(|(p, ir)| self.var_rv(p, std::slice::from_ref(ir)))
                    .collect(),
            ),
            scalar => RV::Scalar(IrExpr::var(&irs[0]), scalar.clone()),
        }
    }

    fn unary(&mut self, op: UnOp, operand: &Expr, span: Span, out: &mut Vec<IrStmt>) -> LResult<RV> {
        let rv = self.expr(operand, None, out)?;
        match (op, rv) {
            (UnOp::Neg, RV::Scalar(e, t)) => Ok(RV::Scalar(IrExpr::Neg(Box::new(e)), t)),
            (UnOp::Not, RV::Scalar(e, _)) => Ok(RV::Scalar(IrExpr::Not(Box::new(e)), Type::Bool)),
            (op, RV::Mat { var, elem, rank }) => {
                let (dims, len) = (self.dims_of(&var, rank), self.len_of(&var));
                let result = self.elementwise(elem, dims, len, out, |lw, q| {
                    let loaded = Box::new(lw.load(elem, &var, q));
                    match op {
                        UnOp::Neg => IrExpr::Neg(loaded),
                        UnOp::Not => IrExpr::Not(loaded),
                    }
                });
                Ok(RV::Mat {
                    var: result,
                    elem,
                    rank,
                })
            }
            (_, other) => Err(self.bug(span, format!("unary operator on {other:?}"))),
        }
    }

    fn cast(&mut self, ty: &Type, expr: &Expr, span: Span, out: &mut Vec<IrStmt>) -> LResult<RV> {
        let rv = self.expr(expr, None, out)?;
        match (ty, rv) {
            (Type::Int, RV::Scalar(e, _)) => Ok(RV::Scalar(IrExpr::CastInt(Box::new(e)), Type::Int)),
            (Type::Float, RV::Scalar(e, _)) => {
                Ok(RV::Scalar(IrExpr::CastFloat(Box::new(e)), Type::Float))
            }
            (Type::Bool, RV::Scalar(e, _)) => Ok(RV::Scalar(
                IrExpr::bin(IrBinOp::Ne, IrExpr::CastInt(Box::new(e)), IrExpr::Int(0)),
                Type::Bool,
            )),
            (Type::Matrix(to_elem, _), RV::Mat { var, elem, rank }) => {
                let (dims, len) = (self.dims_of(&var, rank), self.len_of(&var));
                let result = self.elementwise(*to_elem, dims, len, out, |lw, q| {
                    let loaded = Box::new(lw.load(elem, &var, q));
                    match to_elem {
                        ElemKind::Int => IrExpr::CastInt(loaded),
                        ElemKind::Float => IrExpr::CastFloat(loaded),
                        ElemKind::Bool => {
                            IrExpr::bin(IrBinOp::Ne, IrExpr::CastInt(loaded), IrExpr::Int(0))
                        }
                    }
                });
                Ok(RV::Mat {
                    var: result,
                    elem: *to_elem,
                    rank,
                })
            }
            (t, rv) => Err(self.bug(span, format!("cannot lower cast of {rv:?} to {t}"))),
        }
    }

    fn range_vector(&mut self, lo: IrExpr, hi: IrExpr, out: &mut Vec<IrStmt>) -> RV {
        // n = max(hi - lo + 1, 0)
        let n = self.fresh("n");
        out.push(IrStmt::Decl {
            ty: CType::Int,
            name: n.clone(),
            init: Some(IrExpr::add(
                IrExpr::bin(IrBinOp::Sub, hi, lo.clone()),
                IrExpr::Int(1),
            )),
        });
        out.push(IrStmt::If {
            cond: IrExpr::bin(IrBinOp::Lt, IrExpr::var(&n), IrExpr::Int(0)),
            then_b: vec![IrStmt::Assign {
                name: n.clone(),
                value: IrExpr::Int(0),
            }],
            else_b: vec![],
        });
        let (dims, len) = (vec![IrExpr::var(&n)], IrExpr::var(&n));
        let var = self.elementwise(ElemKind::Int, dims, len, out, |_, q| IrExpr::add(lo, q));
        RV::Mat {
            var,
            elem: ElemKind::Int,
            rank: 1,
        }
    }

    /// Overloaded binary operators (§III-A2).
    fn binary(
        &mut self,
        op: BinOp,
        l: RV,
        r: RV,
        span: Span,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        use BinOp::*;
        match (l, r) {
            (RV::Scalar(le, lt), RV::Scalar(re, rt)) => {
                let float = lt == Type::Float || rt == Type::Float;
                let (le, re) = if float {
                    (
                        self.coerce(le, &lt, &Type::Float),
                        self.coerce(re, &rt, &Type::Float),
                    )
                } else {
                    (le, re)
                };
                let ty = binary_type(op, &lt, &rt).map_err(|msg| self.bug(span, msg))?;
                Ok(RV::Scalar(IrExpr::bin(scalar_binop(op), le, re), ty))
            }
            (
                RV::Mat {
                    var: lv,
                    elem: le,
                    rank: lr,
                },
                RV::Mat {
                    var: rv,
                    elem: _re,
                    rank: _rr,
                },
            ) => {
                if op == Mul {
                    return self.matmul(&lv, &rv, le, out);
                }
                // Element-wise: shapes must agree at runtime.
                for d in 0..lr as usize {
                    let check = IrExpr::bin(IrBinOp::Ne, dim_of(&lv, d), dim_of(&rv, d));
                    out.push(self.panic_if(
                        check,
                        "element-wise operation on matrices of different shapes",
                    ));
                }
                let out_elem = if op.is_comparison() { ElemKind::Bool } else { le };
                let (dims, len) = (self.dims_of(&lv, lr), self.len_of(&lv));
                let result = self.elementwise(out_elem, dims, len, out, |lw, q| {
                    let a = lw.load(le, &lv, q.clone());
                    let b = lw.load(le, &rv, q);
                    IrExpr::bin(scalar_binop(op), a, b)
                });
                Ok(RV::Mat {
                    var: result,
                    elem: out_elem,
                    rank: lr,
                })
            }
            // matrix ⊗ scalar and scalar ⊗ matrix
            (RV::Mat { var, elem, rank }, RV::Scalar(se, st)) => {
                self.mat_scalar(op, &var, elem, rank, se, st, false, out)
            }
            (RV::Scalar(se, st), RV::Mat { var, elem, rank }) => {
                self.mat_scalar(op, &var, elem, rank, se, st, true, out)
            }
            (l, r) => Err(self.bug(span, format!("binary operator on {l:?} and {r:?}"))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn mat_scalar(
        &mut self,
        op: BinOp,
        var: &Name,
        elem: ElemKind,
        rank: u8,
        scalar: IrExpr,
        scalar_ty: Type,
        scalar_on_left: bool,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        let scalar = if elem == ElemKind::Float {
            self.coerce(scalar, &scalar_ty, &Type::Float)
        } else {
            scalar
        };
        // Hoist the scalar into a temp (evaluated once).
        let s = self.fresh("s");
        out.push(IrStmt::Decl {
            ty: if elem == ElemKind::Float {
                CType::Float
            } else {
                scalar_ctype(&scalar_ty)
            },
            name: s.clone(),
            init: Some(scalar),
        });
        let out_elem = if op.is_comparison() { ElemKind::Bool } else { elem };
        let (dims, len) = (self.dims_of(var, rank), self.len_of(var));
        let result = self.elementwise(out_elem, dims, len, out, |lw, q| {
            let loaded = lw.load(elem, var, q);
            let (a, b) = if scalar_on_left {
                (IrExpr::var(&s), loaded)
            } else {
                (loaded, IrExpr::var(&s))
            };
            IrExpr::bin(scalar_binop(op), a, b)
        });
        Ok(RV::Mat {
            var: result,
            elem: out_elem,
            rank,
        })
    }

    /// Linear-algebra multiplication of two rank-2 matrices.
    fn matmul(
        &mut self,
        lv: &Name,
        rv: &Name,
        elem: ElemKind,
        out: &mut Vec<IrStmt>,
    ) -> LResult<RV> {
        let check = IrExpr::bin(
            IrBinOp::Ne,
            dim_of(lv, 1),
            dim_of(rv, 0),
        );
        out.push(self.panic_if(check, "matrix multiplication dimension mismatch"));
        let m = dim_of(lv, 0);
        let k = dim_of(lv, 1);
        let n = dim_of(rv, 1);
        let result = self.alloc_tmp(elem, vec![m.clone(), n.clone()], out);
        let (i, kk, j) = (self.fresh("i"), self.fresh("k"), self.fresh("j"));
        let acc = self.fresh("acc");
        let a = self.load(
            elem,
            lv,
            IrExpr::add(IrExpr::mul(IrExpr::var(&i), k.clone()), IrExpr::var(&kk)),
        );
        let b = self.load(
            elem,
            rv,
            IrExpr::add(IrExpr::mul(IrExpr::var(&kk), n.clone()), IrExpr::var(&j)),
        );
        let inner_k = IrStmt::For(ForLoop {
            var: kk.clone(),
            lo: IrExpr::Int(0),
            hi: k,
            body: vec![IrStmt::Assign {
                name: acc.clone(),
                value: IrExpr::add(IrExpr::var(&acc), IrExpr::mul(a, b)),
            }],
            parallel: false,
            vector: false,
            schedule: None,
        });
        let store = self.store(
            elem,
            &result,
            IrExpr::add(IrExpr::mul(IrExpr::var(&i), n.clone()), IrExpr::var(&j)),
            IrExpr::var(&acc),
        );
        let body_j = IrStmt::For(ForLoop {
            var: j.clone(),
            lo: IrExpr::Int(0),
            hi: n,
            body: vec![
                IrStmt::Decl {
                    ty: if elem == ElemKind::Float {
                        CType::Float
                    } else {
                        CType::Int
                    },
                    name: acc.clone(),
                    init: Some(if elem == ElemKind::Float {
                        IrExpr::Float(0.0)
                    } else {
                        IrExpr::Int(0)
                    }),
                },
                inner_k,
                store,
            ],
            parallel: false,
            vector: false,
            schedule: None,
        });
        let parallel = self.opts.parallelize;
        let nest = IrStmt::For(ForLoop {
            var: i,
            lo: IrExpr::Int(0),
            hi: m,
            body: vec![body_j],
            parallel,
            vector: false,
            schedule: None,
        });
        // The nest above is the product's definition; the kernel call
        // lets the VM tier compute the same buffer natively.
        out.push(IrStmt::Kernel {
            call: KernelCall::MatMul {
                dst: result.clone(),
                a: lv.clone(),
                b: rv.clone(),
                elem: elem_ir(elem),
                parallel,
            },
            fallback: vec![nest],
        });
        Ok(RV::Mat {
            var: result,
            elem,
            rank: 2,
        })
    }
}

/// Whether the last of `stmts` is a `return`, after which nothing in
/// their scope runs.
fn ends_in_return(stmts: &[Stmt]) -> bool {
    matches!(stmts.last(), Some(Stmt::Return { .. }))
}

/// Whether `e` reads the same every time it runs while the variables it
/// reads keep their values: no user call, buffer cell or I/O. Pushes the
/// variables it reads onto `reads`.
fn invariant_reads<'e>(e: &'e Expr, reads: &mut Vec<&'e str>) -> bool {
    match e {
        Expr::IntLit(..) | Expr::FloatLit(..) | Expr::BoolLit(..) => true,
        Expr::Var(n, _) => {
            reads.push(n);
            true
        }
        Expr::Unary { operand, .. } | Expr::Cast { expr: operand, .. } => {
            invariant_reads(operand, reads)
        }
        Expr::Binary { left, right, .. } => {
            invariant_reads(left, reads) && invariant_reads(right, reads)
        }
        Expr::Call { name, args, .. } => {
            matches!(
                SurfaceBuiltin::from_name(name),
                Some(SurfaceBuiltin::DimSize | SurfaceBuiltin::RcLen | SurfaceBuiltin::ToInt)
            ) && args.iter().all(|a| invariant_reads(a, reads))
        }
        _ => false,
    }
}

/// Whether statement `s` may change one of the variables `vars`: it
/// assigns, declares, indexes into or spawns into one, or syncs (a spawn
/// made before the loop lands at the sync).
fn writes_any(s: &Stmt, vars: &[&str]) -> bool {
    let hit = |n: &str| vars.contains(&n);
    let block = |b: &Block| b.stmts.iter().any(|s| writes_any(s, vars));
    match s {
        Stmt::Decl { name, .. } => hit(name),
        Stmt::Assign { target, .. } => match target {
            LValue::Var(n, _) | LValue::Index { base: n, .. } => hit(n),
            LValue::Tuple(ns, _) => ns.iter().any(|n| hit(n)),
        },
        Stmt::If {
            then_blk, else_blk, ..
        } => block(then_blk) || else_blk.as_ref().is_some_and(block),
        Stmt::While { body, .. } => block(body),
        Stmt::For {
            init, step, body, ..
        } => writes_any(init, vars) || writes_any(step, vars) || block(body),
        Stmt::Nested(b) => block(b),
        Stmt::Spawn { target, .. } => target.as_deref().is_some_and(hit),
        Stmt::Sync { .. } => true,
        Stmt::Return { .. } | Stmt::ExprStmt { .. } => false,
    }
}

fn scalar_binop(op: BinOp) -> IrBinOp {
    match op {
        BinOp::Add => IrBinOp::Add,
        BinOp::Sub => IrBinOp::Sub,
        BinOp::Mul | BinOp::ElemMul => IrBinOp::Mul,
        BinOp::Div => IrBinOp::Div,
        BinOp::Rem => IrBinOp::Rem,
        BinOp::Lt => IrBinOp::Lt,
        BinOp::Le => IrBinOp::Le,
        BinOp::Gt => IrBinOp::Gt,
        BinOp::Ge => IrBinOp::Ge,
        BinOp::Eq => IrBinOp::Eq,
        BinOp::Ne => IrBinOp::Ne,
        BinOp::And => IrBinOp::And,
        BinOp::Or => IrBinOp::Or,
    }
}

fn convert_transform(t: &TransformSpec) -> LoopTransform {
    match t {
        TransformSpec::Split {
            index,
            by,
            inner,
            outer,
        } => LoopTransform::Split {
            index: index.clone(),
            by: *by,
            inner: inner.clone(),
            outer: outer.clone(),
        },
        TransformSpec::Vectorize { index } => LoopTransform::Vectorize {
            index: index.clone(),
        },
        TransformSpec::Parallelize { index } => LoopTransform::Parallelize {
            index: index.clone(),
        },
        TransformSpec::Reorder { order } => LoopTransform::Reorder {
            order: order.clone(),
        },
        TransformSpec::Interchange { a, b } => LoopTransform::Interchange {
            a: a.clone(),
            b: b.clone(),
        },
        TransformSpec::Unroll { index, by } => LoopTransform::Unroll {
            index: index.clone(),
            by: *by,
        },
        TransformSpec::Tile { i, j, bi, bj } => LoopTransform::Tile {
            i: i.clone(),
            j: j.clone(),
            bi: *bi,
            bj: *bj,
        },
        TransformSpec::Schedule { index, kind, chunk } => {
            // A non-positive chunk maps to 0, which `apply` rejects as
            // BadFactor — the same diagnostic path as split/unroll/tile.
            let chunk_of = |default: usize| match chunk {
                Some(c) => (*c).max(0) as usize,
                None => default,
            };
            let schedule = match kind {
                cmm_ast::ScheduleKind::Static => cmm_loopir::Schedule::Static,
                cmm_ast::ScheduleKind::Dynamic => cmm_loopir::Schedule::Dynamic {
                    chunk: chunk_of(cmm_loopir::DEFAULT_DYNAMIC_CHUNK),
                },
                cmm_ast::ScheduleKind::Guided => cmm_loopir::Schedule::Guided {
                    min_chunk: chunk_of(cmm_loopir::DEFAULT_GUIDED_MIN_CHUNK),
                },
            };
            LoopTransform::Schedule {
                index: index.clone(),
                schedule,
            }
        }
    }
}

#[path = "lower/constructs.rs"]
mod constructs;
