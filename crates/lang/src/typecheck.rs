//! Extended semantic analysis (paper §III-A, §VI-B).
//!
//! "The semantic analysis phase performs type checking, uses these types
//! to resolve the overloading of operators such as addition (+) and
//! assignment (=), finds and reports semantic errors." This module
//! implements those analyses for the host language and every extension:
//!
//! * operator overloading on matrices — element-wise `+ - / % .*` and
//!   comparisons require "matrices of the same type and rank"; `*` on two
//!   rank-2 matrices is linear-algebra multiplication; matrix–scalar
//!   arithmetic broadcasts;
//! * the four indexing modes, with subscript-count and `end`-placement
//!   checks;
//! * with-loop checks — "the number of expressions in both the upper
//!   bound and lower bound should match the number of Id's provided,
//!   which should also match the number of dimensions provided in the
//!   Operation";
//! * `matrixMap` signature compatibility, tuple arity/typing, rc-pointer
//!   typing;
//! * `readMatrix`'s element/rank from the declaration it initializes (an
//!   inherited "expected type" attribute).

use std::collections::HashMap;

use cmm_ast::*;

use crate::builtins::SurfaceBuiltin;

/// One extension's switch in an [`ExtSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ext {
    /// Matrix extension (§III-A).
    Matrix,
    /// Tuples (§III-B).
    Tuples,
    /// Reference-counting pointers (§III-B).
    Rcptr,
    /// Explicit transformations (§V).
    Transform,
    /// Cilk-style spawn/sync (§VIII future work).
    Cilk,
}

impl std::fmt::Display for Ext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Ext::Matrix => "matrix",
            Ext::Tuples => "tuples",
            Ext::Rcptr => "rcptr",
            Ext::Transform => "transformation",
            Ext::Cilk => "cilk",
        })
    }
}

/// Which extensions are enabled; constructs of disabled extensions are
/// semantic errors (they cannot even be parsed when the grammar fragment
/// is absent, but AST-level users get the same discipline).
#[derive(Debug, Clone, Copy)]
pub struct ExtSet {
    /// Matrix extension (§III-A).
    pub matrix: bool,
    /// Tuples (§III-B).
    pub tuples: bool,
    /// Reference-counting pointers (§III-B).
    pub rcptr: bool,
    /// Explicit transformations (§V).
    pub transform: bool,
    /// Cilk-style spawn/sync (§VIII future work).
    pub cilk: bool,
}

impl Default for ExtSet {
    fn default() -> Self {
        ExtSet {
            matrix: true,
            tuples: true,
            rcptr: true,
            transform: true,
            cilk: true,
        }
    }
}

impl ExtSet {
    /// No extension enabled: the host language alone.
    pub const HOST: ExtSet = ExtSet {
        matrix: false,
        tuples: false,
        rcptr: false,
        transform: false,
        cilk: false,
    };

    fn switch(&mut self, ext: Ext) -> &mut bool {
        match ext {
            Ext::Matrix => &mut self.matrix,
            Ext::Tuples => &mut self.tuples,
            Ext::Rcptr => &mut self.rcptr,
            Ext::Transform => &mut self.transform,
            Ext::Cilk => &mut self.cilk,
        }
    }

    /// This set with `ext` switched on.
    pub fn with(mut self, ext: Ext) -> ExtSet {
        *self.switch(ext) = true;
        self
    }

    /// Whether `ext` is switched on.
    pub fn has(mut self, ext: Ext) -> bool {
        *self.switch(ext)
    }
}

/// A function signature.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSig {
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

/// Result of checking: the signature table (used by lowering) plus any
/// diagnostics.
#[derive(Debug, Default)]
pub struct TypeInfo {
    /// Signatures of user functions.
    pub sigs: HashMap<String, FuncSig>,
}

/// Type-check a program. Returns the signature table and all diagnostics;
/// translation should proceed only if no diagnostic is an error.
pub fn check_program(prog: &Program, exts: ExtSet) -> (TypeInfo, Vec<Diag>) {
    let mut diags = Vec::new();
    let mut info = TypeInfo::default();
    for f in &prog.functions {
        if SurfaceBuiltin::from_name(&f.name).is_some() {
            diags.push(Diag::error(
                f.span,
                format!("cannot define function '{}': it is a builtin function", f.name),
            ));
            continue;
        }
        if info.sigs.contains_key(&f.name) {
            diags.push(Diag::error(f.span, format!("duplicate function '{}'", f.name)));
            continue;
        }
        info.sigs.insert(
            f.name.clone(),
            FuncSig {
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                ret: f.ret.clone(),
            },
        );
    }
    for f in &prog.functions {
        let mut ck = Checker {
            sigs: &info.sigs,
            exts,
            ret: f.ret.clone(),
            vars: Vec::new(),
            marks: Vec::new(),
            diags: &mut diags,
            in_index: false,
        };
        for p in &f.params {
            ck.check_var_type(&p.ty, f.span);
            ck.declare(&p.name, p.ty.clone(), f.span);
        }
        ck.block(&f.body);
    }
    (info, diags)
}

struct Checker<'a> {
    sigs: &'a HashMap<String, FuncSig>,
    exts: ExtSet,
    ret: Type,
    /// The variables of every open scope, innermost last. A lookup scans
    /// back from the end, so the latest binding of a name shadows.
    vars: Vec<(String, Type)>,
    /// Where each scope opened inside the function starts in `vars` (its
    /// parameters are the bindings before the first mark).
    marks: Vec<usize>,
    diags: &'a mut Vec<Diag>,
    /// Whether we are inside a subscript (where `end` is legal).
    in_index: bool,
}

/// The result type of `lt op rt`, the operator overloading of §III-A2,
/// or the message the checker reports when the operands do not fit. The
/// one place this rule is written: the checker, lowering's static types
/// and its scalar operators all read it. An operand that already failed
/// to check gives [`Type::Error`] and no message.
pub fn binary_type(op: BinOp, lt: &Type, rt: &Type) -> Result<Type, String> {
    use BinOp::*;
    if matches!(lt, Type::Error) || matches!(rt, Type::Error) {
        return Ok(Type::Error);
    }
    match (lt, rt) {
        // matrix ⊗ matrix
        (Type::Matrix(e1, r1), Type::Matrix(e2, r2)) => {
            let same = e1 == e2 && r1 == r2;
            match op {
                Add | Sub | Div | Rem | ElemMul => same.then(|| lt.clone()).ok_or_else(|| {
                    format!(
                        "element-wise operations require matrices of the same \
                         type and rank: {lt} vs {rt}"
                    )
                }),
                // Linear-algebra multiplication on rank-2 matrices.
                Mul => (*r1 == 2 && *r2 == 2 && e1 == e2)
                    .then_some(Type::Matrix(*e1, 2))
                    .ok_or_else(|| {
                        format!(
                            "'*' on matrices is linear-algebra multiplication and \
                             requires two rank-2 matrices of the same element type \
                             ({lt} vs {rt}); use '.*' for element-wise multiplication"
                        )
                    }),
                Lt | Le | Gt | Ge | Eq | Ne => {
                    same.then_some(Type::Matrix(ElemKind::Bool, *r1)).ok_or_else(|| {
                        format!("comparisons require matrices of the same type and rank: {lt} vs {rt}")
                    })
                }
                And | Or => (same && *e1 == ElemKind::Bool)
                    .then(|| lt.clone())
                    .ok_or_else(|| format!("logical operators require bool matrices: {lt} vs {rt}")),
            }
        }
        // matrix ⊗ scalar and scalar ⊗ matrix
        (Type::Matrix(e, r), s) | (s, Type::Matrix(e, r))
            if s.is_numeric_scalar() || *s == Type::Bool =>
        {
            let selem = s.as_elem().expect("scalar kind");
            let compatible = selem == *e || (*e == ElemKind::Float && selem == ElemKind::Int);
            match op {
                Add | Sub | Mul | Div | Rem | ElemMul => (compatible && *e != ElemKind::Bool)
                    .then_some(Type::Matrix(*e, *r))
                    .ok_or_else(|| format!("cannot apply arithmetic between {lt} and {rt}")),
                Lt | Le | Gt | Ge | Eq | Ne => compatible
                    .then_some(Type::Matrix(ElemKind::Bool, *r))
                    .ok_or_else(|| format!("cannot compare {lt} with {rt}")),
                And | Or => Err("logical operators need bool operands".into()),
            }
        }
        // scalar ⊗ scalar
        _ => {
            let numeric = lt.is_numeric_scalar() && rt.is_numeric_scalar();
            let bools = *lt == Type::Bool && *rt == Type::Bool;
            match op {
                Add | Sub | Mul | Div | Rem => numeric
                    .then(|| fold_type(lt, rt))
                    .ok_or_else(|| format!("cannot apply arithmetic to {lt} and {rt}")),
                Lt | Le | Gt | Ge => numeric
                    .then_some(Type::Bool)
                    .ok_or_else(|| format!("cannot order {lt} and {rt}")),
                Eq | Ne => (numeric || bools)
                    .then_some(Type::Bool)
                    .ok_or_else(|| format!("cannot compare {lt} and {rt}")),
                And | Or => bools
                    .then_some(Type::Bool)
                    .ok_or_else(|| format!("logical operators need bools, found {lt} and {rt}")),
                ElemMul => Err("'.*' applies to matrices".into()),
            }
        }
    }
}

/// The accumulator type of a fold over `base` and `body`, and the result
/// of scalar arithmetic: float if either operand is, int otherwise.
pub fn fold_type(base: &Type, body: &Type) -> Type {
    if *base == Type::Float || *body == Type::Float {
        Type::Float
    } else {
        Type::Int
    }
}

impl Checker<'_> {
    fn error(&mut self, span: Span, msg: impl Into<String>) -> Type {
        self.diags.push(Diag::error(span, msg));
        Type::Error
    }

    fn declare(&mut self, name: &str, ty: Type, span: Span) {
        if self.declared_here(name) {
            self.error(span, format!("variable '{name}' already declared in this scope"));
        }
        self.vars.push((name.to_string(), ty));
    }

    /// Whether the innermost scope already binds `name`.
    fn declared_here(&self, name: &str) -> bool {
        let start = self.marks.last().copied().unwrap_or(0);
        self.vars[start..].iter().any(|(n, _)| n == name)
    }

    fn lookup(&self, name: &str) -> Option<&Type> {
        self.vars.iter().rev().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    fn open_scope(&mut self) {
        self.marks.push(self.vars.len());
    }

    fn close_scope(&mut self) {
        let mark = self.marks.pop().expect("scope stack");
        self.vars.truncate(mark);
    }

    fn check_var_type(&mut self, ty: &Type, span: Span) {
        match ty {
            Type::Void => {
                self.error(span, "variables cannot have type void");
            }
            Type::Str => {
                self.error(span, "string is not a declarable variable type");
            }
            Type::Matrix(..) if !self.exts.matrix => {
                self.error(span, "matrix types require the matrix extension");
            }
            Type::Tuple(parts) => {
                if !self.exts.tuples {
                    self.error(span, "tuple types require the tuples extension");
                }
                for p in parts {
                    self.check_var_type(p, span);
                }
            }
            Type::Rc(_) if !self.exts.rcptr => {
                self.error(span, "rc pointer types require the rcptr extension");
            }
            _ => {}
        }
    }

    fn block(&mut self, b: &Block) {
        self.open_scope();
        for s in &b.stmts {
            self.stmt(s);
        }
        self.close_scope();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { ty, name, init, span } => {
                self.check_var_type(ty, *span);
                if let Some(e) = init {
                    let et = self.expr(e, Some(ty));
                    if !ty.accepts(&et) {
                        self.error(
                            e.span(),
                            format!("cannot initialize {ty} variable '{name}' with {et} value"),
                        );
                    }
                }
                self.declare(name, ty.clone(), *span);
            }
            Stmt::Assign {
                target,
                value,
                transforms,
                span,
            } => {
                if !transforms.is_empty() && !self.exts.transform {
                    self.error(*span, "transform clauses require the transformation extension");
                }
                if !transforms.is_empty() && !self.exts.matrix {
                    self.error(*span, "transform clauses apply to matrix constructs");
                }
                self.assign(target, value);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.condition(cond);
                self.block(then_blk);
                if let Some(e) = else_blk {
                    self.block(e);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.condition(cond);
                self.block(body);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.open_scope();
                self.stmt(init);
                self.condition(cond);
                self.stmt(step);
                self.block(body);
                self.close_scope();
            }
            Stmt::Return { value, span } => {
                let ret = self.ret.clone();
                match value {
                    Some(e) => {
                        let et = self.expr(e, Some(&ret));
                        if !ret.accepts(&et) {
                            self.error(
                                e.span(),
                                format!("return type mismatch: function returns {ret}, found {et}"),
                            );
                        }
                    }
                    None => {
                        if ret != Type::Void {
                            self.error(*span, format!("function must return a {ret} value"));
                        }
                    }
                }
            }
            Stmt::ExprStmt { expr, .. } => {
                self.expr(expr, None);
            }
            Stmt::Nested(b) => self.block(b),
            Stmt::Spawn { target, call, span } => {
                if !self.exts.cilk {
                    self.error(*span, "spawn requires the cilk extension");
                }
                let Expr::Call { name, .. } = call else {
                    self.error(*span, "spawn applies to function calls");
                    return;
                };
                if !self.sigs.contains_key(name) {
                    self.error(
                        *span,
                        format!("spawn applies to user functions; '{name}' is not one"),
                    );
                    return;
                }
                let expected = target
                    .as_ref()
                    .and_then(|t| self.lookup(t).cloned());
                if let Some(t) = target {
                    if expected.is_none() {
                        self.error(*span, format!("spawn target '{t}' is not declared"));
                    }
                }
                let ct = self.expr(call, expected.as_ref());
                if let (Some(t), Some(want)) = (target, &expected) {
                    if matches!(ct, Type::Tuple(_)) {
                        self.error(*span, "spawn targets cannot receive tuples; use sync-free calls");
                    } else if !want.accepts(&ct) {
                        self.error(
                            *span,
                            format!("cannot assign spawned {ct} result to {want} variable '{t}'"),
                        );
                    }
                }
                if target.is_none() && !matches!(ct, Type::Void | Type::Error) {
                    self.error(*span, "spawned non-void calls need a target variable");
                }
            }
            Stmt::Sync { span } => {
                if !self.exts.cilk {
                    self.error(*span, "sync requires the cilk extension");
                }
            }
        }
    }

    fn condition(&mut self, e: &Expr) {
        let t = self.expr(e, Some(&Type::Bool));
        if !matches!(t, Type::Bool | Type::Error) {
            self.error(e.span(), format!("condition must be bool, found {t}"));
        }
    }

    fn assign(&mut self, target: &LValue, value: &Expr) {
        match target {
            LValue::Var(name, span) => {
                let Some(ty) = self.lookup(name).cloned() else {
                    self.error(*span, format!("assignment to undeclared variable '{name}'"));
                    self.expr(value, None);
                    return;
                };
                let vt = self.expr(value, Some(&ty));
                if !ty.accepts(&vt) {
                    self.error(
                        value.span(),
                        format!("cannot assign {vt} value to {ty} variable '{name}'"),
                    );
                }
            }
            LValue::Index { base, indices, span } => {
                if !self.exts.matrix {
                    self.error(*span, "indexed assignment requires the matrix extension");
                }
                let Some(bt) = self.lookup(base).cloned() else {
                    self.error(*span, format!("assignment to undeclared variable '{base}'"));
                    self.expr(value, None);
                    return;
                };
                let selected = self.index_type(&bt, indices, *span);
                let vt = self.expr(value, Some(&selected));
                let scalar_fill = match (&selected, &vt) {
                    // m[...] = scalar fills the selection.
                    (Type::Matrix(e, _), v) => e.scalar().accepts(v),
                    _ => false,
                };
                if !selected.accepts(&vt) && !scalar_fill {
                    self.error(
                        value.span(),
                        format!("indexed assignment selects {selected}, found {vt}"),
                    );
                }
            }
            LValue::Tuple(names, span) => {
                if !self.exts.tuples {
                    self.error(*span, "tuple assignment requires the tuples extension");
                }
                let mut expected = Vec::with_capacity(names.len());
                for n in names {
                    match self.lookup(n).cloned() {
                        Some(t) => expected.push(t),
                        None => {
                            self.error(*span, format!("assignment to undeclared variable '{n}'"));
                            expected.push(Type::Error);
                        }
                    }
                }
                let tup_ty = Type::Tuple(expected.clone());
                let vt = self.expr(value, Some(&tup_ty));
                match vt {
                    Type::Tuple(parts) => {
                        if parts.len() != names.len() {
                            self.error(
                                *span,
                                format!(
                                    "tuple assignment arity mismatch: {} targets, {} values",
                                    names.len(),
                                    parts.len()
                                ),
                            );
                        } else {
                            for ((n, e), p) in names.iter().zip(&expected).zip(&parts) {
                                if !e.accepts(p) {
                                    self.error(
                                        *span,
                                        format!("cannot assign {p} to {e} variable '{n}'"),
                                    );
                                }
                            }
                        }
                    }
                    Type::Error => {}
                    other => {
                        self.error(
                            value.span(),
                            format!("tuple assignment needs a tuple value, found {other}"),
                        );
                    }
                }
            }
        }
    }

    /// Type of a subscripted access on `base` with the given subscripts.
    fn index_type(&mut self, base: &Type, indices: &[IndexExpr], span: Span) -> Type {
        let Some((elem, rank)) = base.as_matrix() else {
            if matches!(base, Type::Error) {
                return Type::Error;
            }
            return self.error(span, format!("only matrices can be indexed, found {base}"));
        };
        if indices.len() != rank as usize {
            return self.error(
                span,
                format!(
                    "matrix of rank {rank} indexed with {} subscripts",
                    indices.len()
                ),
            );
        }
        let mut kept = 0usize;
        for ix in indices {
            match ix {
                IndexExpr::At(e) => {
                    let t = self.index_scalar(e);
                    match t {
                        Type::Int | Type::Error => {} // single index: dim dropped
                        Type::Matrix(ElemKind::Bool, 1) => kept += 1, // logical indexing
                        other => {
                            self.error(
                                e.span(),
                                format!(
                                    "subscript must be an int or a rank-1 bool matrix \
                                     (logical index), found {other}"
                                ),
                            );
                        }
                    }
                }
                IndexExpr::Range(a, b) => {
                    for e in [a, b] {
                        let t = self.index_scalar(e);
                        if !matches!(t, Type::Int | Type::Error) {
                            self.error(
                                e.span(),
                                format!("range bounds must be ints, found {t}"),
                            );
                        }
                    }
                    kept += 1;
                }
                IndexExpr::All => kept += 1,
            }
        }
        if kept == 0 {
            elem.scalar()
        } else {
            Type::Matrix(elem, kept as u8)
        }
    }

    /// Check a subscript component with `end` enabled.
    fn index_scalar(&mut self, e: &Expr) -> Type {
        let saved = self.in_index;
        self.in_index = true;
        let t = self.expr(e, Some(&Type::Int));
        self.in_index = saved;
        t
    }

    /// Infer/check an expression. `expected` is the inherited
    /// expected-type attribute used by `readMatrix` and literals.
    fn expr(&mut self, e: &Expr, expected: Option<&Type>) -> Type {
        match e {
            Expr::IntLit(..) => Type::Int,
            Expr::FloatLit(..) => Type::Float,
            Expr::BoolLit(..) => Type::Bool,
            Expr::StrLit(..) => Type::Str,
            Expr::Var(name, span) => match self.lookup(name) {
                Some(t) => t.clone(),
                None => self.error(*span, format!("undefined variable '{name}'")),
            },
            Expr::End(span) => {
                if !self.exts.matrix {
                    return self.error(*span, "'end' requires the matrix extension");
                }
                if !self.in_index {
                    return self.error(
                        *span,
                        "'end' is only valid inside a matrix subscript",
                    );
                }
                Type::Int
            }
            Expr::Unary { op, operand, span } => {
                let t = self.expr(operand, None);
                match (op, &t) {
                    (_, Type::Error) => Type::Error,
                    (UnOp::Neg, Type::Int | Type::Float) => t,
                    (UnOp::Neg, Type::Matrix(ElemKind::Int | ElemKind::Float, _)) => t,
                    (UnOp::Not, Type::Bool) => Type::Bool,
                    (UnOp::Not, Type::Matrix(ElemKind::Bool, _)) => t,
                    (UnOp::Neg, other) => {
                        self.error(*span, format!("cannot negate a {other} value"))
                    }
                    (UnOp::Not, other) => {
                        self.error(*span, format!("'!' requires a bool value, found {other}"))
                    }
                }
            }
            Expr::Binary { op, left, right, span } => {
                let lt = self.expr(left, None);
                let rt = self.expr(right, None);
                binary_type(*op, &lt, &rt).unwrap_or_else(|msg| self.error(*span, msg))
            }
            Expr::Cast { ty, expr, span } => {
                let et = self.expr(expr, None);
                match (ty, &et) {
                    (_, Type::Error) => ty.clone(),
                    (Type::Int | Type::Float | Type::Bool, Type::Int | Type::Float | Type::Bool) => {
                        ty.clone()
                    }
                    // Element-wise matrix cast.
                    (Type::Matrix(_, r1), Type::Matrix(_, r2)) if r1 == r2 => ty.clone(),
                    _ => self.error(*span, format!("cannot cast {et} to {ty}")),
                }
            }
            Expr::Index { base, indices, span } => {
                if !self.exts.matrix {
                    return self.error(*span, "matrix indexing requires the matrix extension");
                }
                let bt = self.expr(base, None);
                self.index_type(&bt, indices, *span)
            }
            Expr::RangeVec { lo, hi, .. } => {
                for e in [lo, hi] {
                    let t = self.expr(e, Some(&Type::Int));
                    if !matches!(t, Type::Int | Type::Error) {
                        self.error(e.span(), format!("range bounds must be ints, found {t}"));
                    }
                }
                Type::Matrix(ElemKind::Int, 1)
            }
            Expr::Tuple(parts, span) => {
                if !self.exts.tuples {
                    return self.error(*span, "tuples require the tuples extension");
                }
                let expected_parts: Option<&Vec<Type>> = match expected {
                    Some(Type::Tuple(ps)) if ps.len() == parts.len() => Some(ps),
                    _ => None,
                };
                let tys = parts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| self.expr(p, expected_parts.map(|ps| &ps[i])))
                    .collect();
                Type::Tuple(tys)
            }
            Expr::With { generator, op, span } => {
                if !self.exts.matrix {
                    return self.error(*span, "with-loops require the matrix extension");
                }
                self.with_type(generator, op, *span)
            }
            Expr::MatrixMap {
                func,
                matrix,
                dims,
                span,
            } => {
                if !self.exts.matrix {
                    return self.error(*span, "matrixMap requires the matrix extension");
                }
                self.matrix_map_type(func, matrix, dims, *span)
            }
            Expr::Init { ty, dims, span } => {
                if !self.exts.matrix {
                    return self.error(*span, "init requires the matrix extension");
                }
                let Some((_, rank)) = ty.as_matrix() else {
                    return self.error(*span, format!("init constructs matrices, not {ty}"));
                };
                if dims.len() != rank as usize {
                    return self.error(
                        *span,
                        format!(
                            "init for a rank-{rank} matrix needs {rank} dimension sizes, got {}",
                            dims.len()
                        ),
                    );
                }
                for d in dims {
                    let t = self.expr(d, Some(&Type::Int));
                    if !matches!(t, Type::Int | Type::Error) {
                        self.error(d.span(), format!("dimension sizes must be ints, found {t}"));
                    }
                }
                ty.clone()
            }
            Expr::RcAlloc { len, span, elem } => {
                if !self.exts.rcptr {
                    return self.error(*span, "rcAlloc requires the rcptr extension");
                }
                let t = self.expr(len, Some(&Type::Int));
                if !matches!(t, Type::Int | Type::Error) {
                    self.error(len.span(), format!("rcAlloc length must be an int, found {t}"));
                }
                Type::Rc(*elem)
            }
            Expr::Call { name, args, span } => self.call_type(name, args, expected, *span),
        }
    }

    fn with_type(&mut self, g: &Generator, op: &WithOp, span: Span) -> Type {
        // Arity checks (§III-A4).
        if g.lower.len() != g.vars.len() || g.upper.len() != g.vars.len() {
            self.error(
                span,
                format!(
                    "with-loop generator arity mismatch: {} lower bounds, {} variables, \
                     {} upper bounds",
                    g.lower.len(),
                    g.vars.len(),
                    g.upper.len()
                ),
            );
        }
        for b in g.lower.iter().chain(&g.upper) {
            let t = self.expr(b, Some(&Type::Int));
            if !matches!(t, Type::Int | Type::Error) {
                self.error(b.span(), format!("generator bounds must be ints, found {t}"));
            }
        }
        // Body scope with the generator variables bound to int.
        self.open_scope();
        for v in &g.vars {
            if self.declared_here(v) {
                self.error(span, format!("generator variable '{v}' is bound twice"));
            }
            self.vars.push((v.clone(), Type::Int));
        }
        let result = match op {
            WithOp::Genarray { shape, body } => {
                if shape.len() != g.vars.len() {
                    self.error(
                        span,
                        format!(
                            "genarray shape has {} dimensions but the generator binds {} \
                             variables",
                            shape.len(),
                            g.vars.len()
                        ),
                    );
                }
                if shape.len() > cmm_loopir::MAX_RANK {
                    self.error(
                        span,
                        format!(
                            "genarray shape has {} dimensions; a matrix has at most {}",
                            shape.len(),
                            cmm_loopir::MAX_RANK
                        ),
                    );
                }
                for s in shape {
                    let t = self.expr(s, Some(&Type::Int));
                    if !matches!(t, Type::Int | Type::Error) {
                        self.error(s.span(), format!("shape entries must be ints, found {t}"));
                    }
                }
                let bt = self.expr(body, None);
                match bt.as_elem() {
                    Some(e) => Type::Matrix(e, shape.len().max(1) as u8),
                    None => {
                        if !matches!(bt, Type::Error) {
                            self.error(
                                body.span(),
                                format!("genarray bodies must be scalar values, found {bt}"),
                            );
                        }
                        Type::Error
                    }
                }
            }
            WithOp::Fold { base, body, .. } => {
                let bt = self.expr(base, None);
                let et = self.expr(body, None);
                let ok = |t: &Type| t.is_numeric_scalar() || matches!(t, Type::Error);
                if !ok(&bt) {
                    self.error(base.span(), format!("fold base must be numeric, found {bt}"));
                }
                if !ok(&et) {
                    self.error(body.span(), format!("fold body must be numeric, found {et}"));
                }
                fold_type(&bt, &et)
            }
            WithOp::Modarray { src, body } => {
                let st = self.expr(src, None);
                let result = match st.as_matrix() {
                    Some((elem, rank)) => {
                        if rank as usize != g.vars.len() {
                            self.error(
                                src.span(),
                                format!(
                                    "modarray source has rank {rank} but the generator \
                                     binds {} variables",
                                    g.vars.len()
                                ),
                            );
                        }
                        let bt = self.expr(body, None);
                        if !elem.scalar().accepts(&bt) {
                            self.error(
                                body.span(),
                                format!(
                                    "modarray body must produce {} elements, found {bt}",
                                    elem.scalar()
                                ),
                            );
                        }
                        st.clone()
                    }
                    None => {
                        if !matches!(st, Type::Error) {
                            self.error(
                                src.span(),
                                format!("modarray source must be a matrix, found {st}"),
                            );
                        }
                        self.expr(body, None);
                        Type::Error
                    }
                };
                result
            }
        };
        self.close_scope();
        result
    }

    fn matrix_map_type(&mut self, func: &str, matrix: &Expr, dims: &[i64], span: Span) -> Type {
        let mt = self.expr(matrix, None);
        let Some(sig) = self.sigs.get(func).cloned() else {
            return self.error(span, format!("matrixMap: unknown function '{func}'"));
        };
        let Some((elem, rank)) = mt.as_matrix() else {
            if matches!(mt, Type::Error) {
                return Type::Error;
            }
            return self.error(matrix.span(), format!("matrixMap maps over matrices, found {mt}"));
        };
        // dims must be strictly increasing, in range, nonempty.
        let dims_ok = !dims.is_empty()
            && dims.windows(2).all(|w| w[0] < w[1])
            && dims.iter().all(|&d| d >= 0 && (d as usize) < rank as usize);
        if !dims_ok {
            return self.error(
                span,
                format!("matrixMap dimensions {dims:?} invalid for a rank-{rank} matrix"),
            );
        }
        let k = dims.len() as u8;
        // Function must be Matrix(elem, k) -> Matrix(_, k).
        let param_ok = sig.params.len() == 1
            && matches!(sig.params[0], Type::Matrix(e, r) if e == elem && r == k);
        if !param_ok {
            return self.error(
                span,
                format!(
                    "matrixMap over dimensions {dims:?} of a {mt} requires '{func}' to take \
                     one Matrix {} <{k}> parameter",
                    elem.keyword()
                ),
            );
        }
        match sig.ret {
            Type::Matrix(out_elem, r) if r == k => Type::Matrix(out_elem, rank),
            ref other => self.error(
                span,
                format!(
                    "matrixMap requires '{func}' to return a rank-{k} matrix (the result \
                     is always the same size and rank as the matrix mapped over), found {other}"
                ),
            ),
        }
    }

    fn call_type(
        &mut self,
        name: &str,
        args: &[Expr],
        expected: Option<&Type>,
        span: Span,
    ) -> Type {
        if let Some(b) = SurfaceBuiltin::from_name(name) {
            return self.builtin_call_type(b, args, expected, span);
        }
        let Some(sig) = self.sigs.get(name).cloned() else {
            for a in args {
                self.expr(a, None);
            }
            return self.error(span, format!("undefined function '{name}'"));
        };
        if sig.params.len() != args.len() {
            self.error(
                span,
                format!(
                    "function '{name}' takes {} arguments, got {}",
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        for (a, p) in args.iter().zip(&sig.params) {
            let at = self.expr(a, Some(p));
            if !p.accepts(&at) {
                self.error(
                    a.span(),
                    format!("argument type mismatch: expected {p}, found {at}"),
                );
            }
        }
        for a in args.iter().skip(sig.params.len()) {
            self.expr(a, None);
        }
        sig.ret
    }
    fn builtin_call_type(
        &mut self,
        b: SurfaceBuiltin,
        args: &[Expr],
        expected: Option<&Type>,
        span: Span,
    ) -> Type {
        let name = b.name();
        if let Some(ext) = b.requires() {
            if !self.exts.has(ext) {
                return self.error(span, format!("{name} requires the {ext} extension"));
            }
        }
        if args.len() != b.arity() {
            return self.error(span, b.arity_error());
        }
        let first = match b {
            SurfaceBuiltin::DimSize => {
                let mt = self.expr(&args[0], None);
                if mt.as_matrix().is_none() && !matches!(mt, Type::Error) {
                    self.error(args[0].span(), format!("dimSize needs a matrix, found {mt}"));
                }
                let dt = self.expr(&args[1], Some(&Type::Int));
                if !matches!(dt, Type::Int | Type::Error) {
                    self.error(args[1].span(), "dimSize dimension must be an int");
                }
                mt
            }
            SurfaceBuiltin::ReadMatrix => {
                let pt = self.expr(&args[0], None);
                if !matches!(pt, Type::Str | Type::Error) {
                    self.error(args[0].span(), "readMatrix path must be a string literal");
                }
                // Element type and rank come from the expected type — the
                // declaration readMatrix initializes.
                if !matches!(expected, Some(Type::Matrix(..))) {
                    return self.error(
                        span,
                        "readMatrix needs a matrix-typed context (e.g. \
                         `Matrix float <3> m = readMatrix(...)`)",
                    );
                }
                pt
            }
            SurfaceBuiltin::WriteMatrix => {
                let pt = self.expr(&args[0], None);
                if !matches!(pt, Type::Str | Type::Error) {
                    self.error(args[0].span(), "writeMatrix path must be a string literal");
                }
                let mt = self.expr(&args[1], None);
                if mt.as_matrix().is_none() && !matches!(mt, Type::Error) {
                    self.error(args[1].span(), format!("writeMatrix writes matrices, found {mt}"));
                }
                pt
            }
            SurfaceBuiltin::Range => {
                for a in args {
                    let t = self.expr(a, Some(&Type::Int));
                    if !matches!(t, Type::Int | Type::Error) {
                        self.error(a.span(), format!("range bounds must be ints, found {t}"));
                    }
                }
                Type::Int
            }
            SurfaceBuiltin::ToFloat => match self.expr(&args[0], None) {
                t @ (Type::Int | Type::Float | Type::Matrix(..)) => t,
                Type::Error => return Type::Error,
                other => return self.error(span, format!("cannot convert {other} to float")),
            },
            SurfaceBuiltin::ToInt => match self.expr(&args[0], None) {
                t @ (Type::Int | Type::Float | Type::Bool | Type::Matrix(..)) => t,
                Type::Error => return Type::Error,
                other => return self.error(span, format!("cannot convert {other} to int")),
            },
            SurfaceBuiltin::PrintInt | SurfaceBuiltin::PrintFloat | SurfaceBuiltin::PrintBool => {
                let t = self.expr(&args[0], None);
                let ok = match b {
                    SurfaceBuiltin::PrintInt => matches!(t, Type::Int | Type::Error),
                    SurfaceBuiltin::PrintFloat => {
                        matches!(t, Type::Float | Type::Int | Type::Error)
                    }
                    _ => matches!(t, Type::Bool | Type::Error),
                };
                if !ok {
                    self.error(args[0].span(), format!("{name} cannot print a {t}"));
                }
                t
            }
            SurfaceBuiltin::RcGet | SurfaceBuiltin::RcSet | SurfaceBuiltin::RcLen => {
                let pt = self.expr(&args[0], None);
                let Type::Rc(elem) = pt else {
                    if matches!(pt, Type::Error) {
                        return Type::Error;
                    }
                    return self
                        .error(args[0].span(), format!("{name} needs an rc pointer, found {pt}"));
                };
                if let Some(index) = args.get(1) {
                    let it = self.expr(index, Some(&Type::Int));
                    if !matches!(it, Type::Int | Type::Error) {
                        self.error(index.span(), "rc index must be an int");
                    }
                }
                if let Some(value) = args.get(2) {
                    let vt = self.expr(value, Some(&elem.scalar()));
                    if !elem.scalar().accepts(&vt) {
                        self.error(
                            value.span(),
                            format!("rcSet stores {} values, found {vt}", elem.scalar()),
                        );
                    }
                }
                pt
            }
        };
        b.result_type(&first, expected)
    }
}
