//! C code emission: IR → plain parallel C.
//!
//! The translator's final step "maps extended C programs down to plain
//! (parallel) C code" for compilation by a traditional compiler. The
//! emitted translation unit is self-contained: it embeds a small C runtime
//! (reference-counted `cmm_mat` buffers with the 4-byte count header,
//! the row kernel an `A * B` of numbers calls, CMMX matrix file IO,
//! printing) and uses
//!
//! * `#pragma omp parallel for` on loops marked by `parallelize` (§V,
//!   Fig 11),
//! * Intel SSE intrinsics (`_mm_*`, four 32-bit floats per 128-bit
//!   vector) for loops marked by `vectorize`, including the lifted vector
//!   temporaries the paper points out ("note the addition of many new
//!   variables involved in loading data into vectors"),
//!
//! so `gcc -O2 -fopenmp -msse2 out.c` produces a runnable parallel binary.
//!
//! The text is written into output buffers: every statement and
//! expression appends its pieces ([`Put`]) straight to one, so emitting a
//! node allocates nothing. The one exception is a vector expression,
//! whose gather temporaries must be written before it: it is built as a
//! string of its own.

use std::fmt::Write;

use crate::ir::{
    Builtin, CType, Elem, ForLoop, IrBinOp, IrExpr, IrFunction, IrProgram, IrStmt, KernelCall,
    Name,
};

/// A structurally invalid IR program that cannot be rendered as C.
///
/// These used to be emitter panics; they are now detected by a validation
/// walk before any text is produced, so a malformed program surfaces as a
/// compile error (cmmc exit code 4) instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// An `UnpackCall` statement whose callee is not a direct call
    /// expression — there is no struct-returning call to destructure.
    UnpackWithoutCall {
        /// Function containing the offending statement.
        function: String,
    },
    /// A tuple expression somewhere other than directly under `return`.
    /// C has no tuple values; tuples only exist as return structs.
    TupleOutsideReturn {
        /// Function containing the offending expression.
        function: String,
    },
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::UnpackWithoutCall { function } => write!(
                f,
                "function `{function}`: tuple unpacking requires a direct call expression"
            ),
            EmitError::TupleOutsideReturn { function } => write!(
                f,
                "function `{function}`: tuple expression outside a return statement"
            ),
        }
    }
}

impl std::error::Error for EmitError {}

/// A piece of C text that appends itself to the output.
trait Put {
    fn put(&self, out: &mut String);
}

/// Append each piece to `out`, in order.
macro_rules! put {
    ($out:expr, $($piece:expr),+ $(,)?) => {{
        let out: &mut String = $out;
        $( $piece.put(out); )+
    }};
}

impl Put for str {
    fn put(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Put for i64 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Put for usize {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Put for IrExpr {
    fn put(&self, out: &mut String) {
        expr(out, self);
    }
}

/// Emit a complete C translation unit for the program: an [`Emitter`] fed
/// every function in order.
pub fn emit_program(p: &IrProgram) -> Result<String, EmitError> {
    let mut emitter = Emitter::default();
    for f in &p.functions {
        emitter.function(f)?;
    }
    Ok(emitter.finish())
}

/// Emits a translation unit one function at a time, so that a caller can
/// drop each function's IR once it has been emitted. The unit is the
/// prelude, every tuple-returning function's struct, every function's
/// declaration, a blank line, then every function's body, each part in
/// the order the functions came.
#[derive(Default)]
pub struct Emitter {
    structs: String,
    decls: String,
    bodies: String,
}

impl Emitter {
    /// Validate `f` and append its struct, declaration and body. An
    /// invalid function appends nothing.
    pub fn function(&mut self, f: &IrFunction) -> Result<(), EmitError> {
        validate_function(f)?;
        tuple_struct(f, &mut self.structs);
        signature(f, &mut self.decls);
        self.decls.push_str(";\n");
        emit_function(f, &mut self.bodies);
        self.bodies.push('\n');
        Ok(())
    }

    /// The translation unit's length in bytes.
    pub fn byte_len(&self) -> usize {
        self.head_len() + self.bodies.len()
    }

    fn head_len(&self) -> usize {
        C_RUNTIME.len() + 1 + self.structs.len() + self.decls.len() + 1
    }

    fn head(&self) -> [&str; 5] {
        [C_RUNTIME, "\n", &self.structs, &self.decls, "\n"]
    }

    /// Write the translation unit to `w`, without concatenating it.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for part in self.head() {
            w.write_all(part.as_bytes())?;
        }
        w.write_all(self.bodies.as_bytes())
    }

    /// The translation unit as one string: the bytes [`Emitter::write_to`]
    /// writes. The head goes in front of the bodies in their own buffer,
    /// grown by no more than the head.
    pub fn finish(self) -> String {
        let mut head = String::with_capacity(self.head_len());
        for part in self.head() {
            head.push_str(part);
        }
        let mut out = self.bodies;
        out.reserve_exact(head.len());
        out.insert_str(0, &head);
        out
    }
}

/// Reject IR shapes the emitter cannot express in C. Runs before emission
/// so the panics in the rendering code below are unreachable.
fn validate_function(f: &IrFunction) -> Result<(), EmitError> {
    fn walk_expr(e: &IrExpr, fname: &str) -> Result<(), EmitError> {
        match e {
            IrExpr::Tuple(_) => Err(EmitError::TupleOutsideReturn {
                function: fname.to_string(),
            }),
            IrExpr::Int(_) | IrExpr::Float(_) | IrExpr::Bool(_) | IrExpr::Str(_) | IrExpr::Var(_) => Ok(()),
            IrExpr::Bin(_, a, b) => {
                walk_expr(a, fname)?;
                walk_expr(b, fname)
            }
            IrExpr::Neg(e) | IrExpr::Not(e) | IrExpr::CastInt(e) | IrExpr::CastFloat(e) => {
                walk_expr(e, fname)
            }
            IrExpr::Load { buf, idx, .. } => {
                walk_expr(buf, fname)?;
                walk_expr(idx, fname)
            }
            IrExpr::Call(_, args) | IrExpr::Builtin(_, args) => {
                args.iter().try_for_each(|a| walk_expr(a, fname))
            }
        }
    }

    fn walk_stmt(s: &IrStmt, fname: &str) -> Result<(), EmitError> {
        match s {
            IrStmt::Decl { init, .. } => init.iter().try_for_each(|e| walk_expr(e, fname)),
            IrStmt::Assign { value, .. } => walk_expr(value, fname),
            IrStmt::Store { buf, idx, value, .. } => {
                walk_expr(buf, fname)?;
                walk_expr(idx, fname)?;
                walk_expr(value, fname)
            }
            IrStmt::For(l) => {
                walk_expr(&l.lo, fname)?;
                walk_expr(&l.hi, fname)?;
                l.body.iter().try_for_each(|s| walk_stmt(s, fname))
            }
            IrStmt::While { cond, body } => {
                walk_expr(cond, fname)?;
                body.iter().try_for_each(|s| walk_stmt(s, fname))
            }
            IrStmt::If { cond, then_b, else_b } => {
                walk_expr(cond, fname)?;
                then_b.iter().try_for_each(|s| walk_stmt(s, fname))?;
                else_b.iter().try_for_each(|s| walk_stmt(s, fname))
            }
            IrStmt::Expr(e) => walk_expr(e, fname),
            // A tuple directly under `return` is the one legal position:
            // it renders as a compound literal of the return struct. Its
            // parts must themselves be tuple-free.
            IrStmt::Return(Some(IrExpr::Tuple(parts))) => {
                parts.iter().try_for_each(|e| walk_expr(e, fname))
            }
            IrStmt::Return(e) => e.iter().try_for_each(|e| walk_expr(e, fname)),
            IrStmt::Spawn { args, .. } => args.iter().try_for_each(|e| walk_expr(e, fname)),
            IrStmt::Sync | IrStmt::Comment(_) => Ok(()),
            IrStmt::UnpackCall { call, .. } => {
                if !matches!(call, IrExpr::Call(..)) {
                    return Err(EmitError::UnpackWithoutCall {
                        function: fname.to_string(),
                    });
                }
                walk_expr(call, fname)
            }
            IrStmt::Block(b) | IrStmt::Kernel { fallback: b, .. } => {
                b.iter().try_for_each(|s| walk_stmt(s, fname))
            }
        }
    }

    f.body.iter().try_for_each(|s| walk_stmt(s, &f.name))
}

/// The C name of the user function or variable it holds. The runtime
/// prelude owns the builtins' names and the `cmm_` prefix (as do the
/// emitter's own temporaries), so a user name spelled like either is
/// emitted as `cmm_user_<name>` — injective, and no other user name can
/// already be that without being renamed itself. A variable needs it as
/// much as a function: a parameter `dim` would shadow the prelude's
/// `dim()` that the subscripts of its own function call.
#[derive(Clone, Copy)]
struct Id<'a>(&'a str);

impl Put for Id<'_> {
    fn put(&self, out: &mut String) {
        let name = self.0;
        let owned = || name.starts_with("cmm_") || Builtin::from_c_name(name).is_some();
        if may_be_prelude_name(name) && owned() {
            out.push_str("cmm_user_");
        }
        out.push_str(name);
    }
}

/// The initials of the prelude's names. Every variable reference is named
/// through [`Id`]; this keeps the scan of the builtin table off that path
/// for the likes of `i`, `n` and `__m_3` (a test holds the list to the
/// table).
fn may_be_prelude_name(name: &str) -> bool {
    matches!(
        name.as_bytes().first(),
        Some(b'a' | b'c' | b'd' | b'l' | b'p' | b'r' | b'w')
    )
}

fn signature(f: &IrFunction, out: &mut String) {
    // main must have the standard signature.
    if &*f.name == "main" {
        out.push_str("int main(void)");
        return;
    }
    let name = Id(&f.name);
    if f.ret_tuple.is_some() {
        put!(out, "struct ", name, "_ret ", name, "(");
    } else {
        put!(out, f.ret.c_name(), " ", name, "(");
    }
    if f.params.is_empty() {
        out.push_str("void");
    }
    for (i, (n, t)) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        put!(out, t.c_name(), " ", Id(n));
    }
    out.push(')');
}

/// Struct definition for a tuple-returning function.
fn tuple_struct(f: &IrFunction, out: &mut String) {
    let Some(tys) = &f.ret_tuple else {
        return;
    };
    put!(out, "struct ", Id(&f.name), "_ret {");
    for (i, t) in tys.iter().enumerate() {
        put!(out, " ", t.c_name(), " _", i, ";");
    }
    out.push_str(" };\n");
}

fn emit_function(f: &IrFunction, out: &mut String) {
    signature(f, out);
    out.push_str(" {\n");
    let mut ctx = EmitCtx {
        ret_struct: f.ret_tuple.as_ref().map(|_| &*f.name),
        ..EmitCtx::default()
    };
    for s in &f.body {
        emit_stmt(s, 1, &mut ctx, out);
    }
    if &*f.name == "main" {
        out.push_str("    return 0;\n");
    }
    out.push_str("}\n");
}

/// Emitter state: temp-name counter and the set of float variables that
/// are vector-widened inside a vectorized loop.
#[derive(Default)]
struct EmitCtx<'a> {
    tmp: u32,
    vector_vars: Vec<Name>,
    /// Set when emitting a tuple-returning function: its name (for the
    /// return-struct type).
    ret_struct: Option<&'a str>,
}

impl EmitCtx<'_> {
    fn fresh(&mut self, prefix: &'static str) -> Tmp {
        self.tmp += 1;
        Tmp(prefix, self.tmp)
    }
}

/// An emitter temporary: `prefix_N`.
#[derive(Clone, Copy)]
struct Tmp(&'static str, u32);

impl Put for Tmp {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{}_{}", self.0, self.1);
    }
}

fn ind(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// `for (int v = lo; v < hi; v++) {`
fn for_header(f: &ForLoop, out: &mut String) {
    let v = Id(&f.var);
    put!(out, "for (int ", v, " = ", f.lo, "; ", v, " < ", f.hi, "; ", v, "++) {\n");
}

fn emit_stmt(s: &IrStmt, level: usize, ctx: &mut EmitCtx, out: &mut String) {
    match s {
        IrStmt::Decl { ty, name, init } => {
            ind(level, out);
            put!(out, ty.c_name(), " ", Id(name));
            match init {
                Some(e) => put!(out, " = ", e, ";\n"),
                None => {
                    let zero = match ty {
                        CType::Float => " = 0.0f",
                        CType::Void => "",
                        _ => " = 0",
                    };
                    put!(out, zero, ";\n");
                }
            }
        }
        IrStmt::Assign { name, value } => {
            ind(level, out);
            put!(out, Id(name), " = ", value, ";\n");
        }
        IrStmt::Store { elem, buf, idx, value } => {
            ind(level, out);
            put!(out, At(*elem, buf, idx), " = ", value, ";\n");
        }
        IrStmt::For(f) if f.vector => emit_vector_loop(f, level, ctx, out),
        IrStmt::For(f) if f.parallel && f.schedule.is_some() => {
            emit_scheduled_loop(f, level, ctx, out);
        }
        IrStmt::For(f) => {
            if f.parallel {
                ind(level, out);
                out.push_str("#pragma omp parallel for\n");
            }
            ind(level, out);
            for_header(f, out);
            for s in &f.body {
                emit_stmt(s, level + 1, ctx, out);
            }
            ind(level, out);
            out.push_str("}\n");
        }
        IrStmt::While { cond, body } => {
            ind(level, out);
            put!(out, "while (", cond, ") {\n");
            for s in body {
                emit_stmt(s, level + 1, ctx, out);
            }
            ind(level, out);
            out.push_str("}\n");
        }
        IrStmt::If { cond, then_b, else_b } => {
            ind(level, out);
            put!(out, "if (", cond, ") {\n");
            for s in then_b {
                emit_stmt(s, level + 1, ctx, out);
            }
            ind(level, out);
            if else_b.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_b {
                    emit_stmt(s, level + 1, ctx, out);
                }
                ind(level, out);
                out.push_str("}\n");
            }
        }
        IrStmt::Expr(e) => {
            ind(level, out);
            put!(out, e, ";\n");
        }
        IrStmt::Return(e) => {
            ind(level, out);
            match e {
                Some(IrExpr::Tuple(parts)) => {
                    let name = Id(ctx.ret_struct.unwrap_or("anon"));
                    put!(out, "return (struct ", name, "_ret){ ", Args(parts), " };\n");
                }
                Some(e) => put!(out, "return ", e, ";\n"),
                None => out.push_str("return;\n"),
            }
        }
        IrStmt::Spawn {
            target,
            target_is_buf,
            func,
            args,
        } => {
            // Serial elision: a Cilk program run with the spawn treated as
            // a plain call is a legal schedule of the parallel program.
            let call = Call(func, args);
            ind(level, out);
            match target {
                Some(t) if *target_is_buf => {
                    let (t, tmp) = (Id(t), ctx.fresh("spawn"));
                    put!(out, "{ cmm_mat* ", tmp, " = ", call, "; ");
                    put!(out, Builtin::RcDecr.c_name(), "(", t, "); ", t, " = ", tmp, "; }");
                    out.push_str(" /* spawn (serial elision) */\n");
                }
                Some(t) => put!(out, Id(t), " = ", call, "; /* spawn (serial elision) */\n"),
                None => put!(out, call, "; /* spawn (serial elision) */\n"),
            }
        }
        IrStmt::Sync => {
            ind(level, out);
            out.push_str("/* sync (no-op under serial elision) */\n");
        }
        IrStmt::UnpackCall { targets, call } => {
            let IrExpr::Call(fname, _) = call else {
                // Rejected by validate_function before emission starts.
                unreachable!("UnpackCall requires a direct call expression");
            };
            let tmp = ctx.fresh("tupret");
            ind(level, out);
            put!(out, "struct ", Id(fname), "_ret ", tmp, " = ", call, ";\n");
            for (i, t) in targets.iter().enumerate() {
                ind(level, out);
                put!(out, Id(t), " = ", tmp, "._", i, ";\n");
            }
        }
        IrStmt::Comment(c) => {
            ind(level, out);
            put!(out, "/* ", c, " */\n");
        }
        IrStmt::Block(b) => {
            ind(level, out);
            out.push_str("{\n");
            for s in b {
                emit_stmt(s, level + 1, ctx, out);
            }
            ind(level, out);
            out.push_str("}\n");
        }
        // A product of numbers is one call of the prelude's row kernel,
        // which performs the nest's operations per element in the nest's
        // order (see `CMM_MATMUL`). The dimension check and the
        // allocation of `dst` precede the statement.
        IrStmt::Kernel {
            call:
                KernelCall::MatMul {
                    dst,
                    a,
                    b,
                    elem: elem @ (Elem::F32 | Elem::I32),
                    parallel,
                },
            ..
        } => {
            let kernel = if *elem == Elem::F32 { "cmm_matmul_f32(" } else { "cmm_matmul_i32(" };
            ind(level, out);
            put!(out, kernel, Id(dst), ", ", Id(a), ", ", Id(b));
            out.push_str(if *parallel { ", 1);\n" } else { ", 0);\n" });
        }
        // Any other element type: the scalar nest, in place.
        IrStmt::Kernel { fallback, .. } => {
            for s in fallback {
                emit_stmt(s, level, ctx, out);
            }
        }
    }
}

/// Element `idx` of the `elem` buffer `buf`: `buf->data.f[idx]`.
struct At<'a>(Elem, &'a IrExpr, &'a IrExpr);

impl Put for At<'_> {
    fn put(&self, out: &mut String) {
        let field = match self.0 {
            Elem::I32 => "->data.i[",
            Elem::F32 => "->data.f[",
            Elem::Bool => "->data.b[",
        };
        put!(out, self.1, field, self.2, "]");
    }
}

/// Comma-separated scalar expressions.
struct Args<'a>(&'a [IrExpr]);

impl Put for Args<'_> {
    fn put(&self, out: &mut String) {
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            expr(out, a);
        }
    }
}

/// A call of the user function it names.
struct Call<'a>(&'a str, &'a [IrExpr]);

impl Put for Call<'_> {
    fn put(&self, out: &mut String) {
        put!(out, Id(self.0), "(", Args(self.1), ")");
    }
}

/// Scalar expression emission.
fn expr(out: &mut String, e: &IrExpr) {
    match e {
        IrExpr::Int(v) => v.put(out),
        IrExpr::Float(v) => {
            // Non-finite constants (a source literal like 1e40 overflows
            // f32 parsing to inf) have no C literal spelling; use the
            // <math.h> macros instead of Rust's Debug text (`inff`/`NaNf`
            // would not compile).
            if v.is_nan() {
                out.push_str("((float)NAN)");
            } else if v.is_infinite() {
                out.push_str(if *v > 0.0 { "INFINITY" } else { "(-INFINITY)" });
            } else if v.fract() == 0.0 && v.abs() < 1e16 {
                let _ = write!(out, "{v:.1}f");
            } else {
                let _ = write!(out, "{v:?}f");
            }
        }
        IrExpr::Bool(v) => out.push(if *v { '1' } else { '0' }),
        IrExpr::Str(s) => c_string(s, out),
        IrExpr::Var(n) => Id(n).put(out),
        IrExpr::Bin(op, a, b) => put!(out, "(", a, " ", op.c_symbol(), " ", b, ")"),
        IrExpr::Neg(e) => put!(out, "(-", e, ")"),
        IrExpr::Not(e) => put!(out, "(!", e, ")"),
        IrExpr::Load { elem, buf, idx } => At(*elem, buf, idx).put(out),
        IrExpr::Call(name, args) => Call(name, args).put(out),
        IrExpr::Builtin(b, args) => {
            put!(out, b.c_name(), "(");
            // Variadic runtime allocators take an explicit rank first.
            if b.arity().is_none() {
                put!(out, args.len(), if args.is_empty() { "" } else { ", " });
            }
            put!(out, Args(args), ")");
        }
        IrExpr::CastInt(e) => put!(out, "((int)(", e, "))"),
        IrExpr::CastFloat(e) => put!(out, "((float)(", e, "))"),
        // Rejected by validate_function before emission starts.
        IrExpr::Tuple(_) => unreachable!("tuple expression outside a return statement"),
    }
}

/// `s` as a C string literal. Printable ASCII stays as is except `"` and
/// `\`; `\n`, `\t` and `\r` keep their names; every other control byte is
/// a three-digit octal escape, which no following digit can extend; UTF-8
/// stays raw.
fn c_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0'..='\x1f' | '\x7f' => {
                let _ = write!(out, "\\{:03o}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- SSE vector emission -------------------------------------------------

/// Emit a parallel loop with a pinned self-scheduling policy as an OpenMP
/// parallel *region* (not `parallel for`): every thread claims chunks from
/// a shared C11 atomic counter via the `cmm_sched_next` runtime helper, the
/// same chunk-claim protocol the interpreter uses. Without OpenMP the
/// region is a single thread that drains every chunk — same results,
/// sequential schedule — so emitted programs stay correct under a plain
/// `gcc` with no `-fopenmp`.
fn emit_scheduled_loop(f: &ForLoop, level: usize, ctx: &mut EmitCtx, out: &mut String) {
    let schedule = f.schedule.expect("caller checked schedule.is_some()");
    let (kind, chunk) = match schedule {
        cmm_forkjoin::Schedule::Static => (0usize, 1),
        cmm_forkjoin::Schedule::Dynamic { chunk } => (1, chunk),
        cmm_forkjoin::Schedule::Guided { min_chunk } => (2, min_chunk),
    };
    // Cache-derived cap on static claims (half the emitting host's L2 in
    // iterations): instead of one ceil(total/nthreads) slab per thread, a
    // static schedule over a huge range is claimed in L2-sized bites, the
    // same grain the in-process pool uses, so late-finishing threads can
    // pick up the tail.
    let grain = cmm_forkjoin::TilePolicy::from_geometry(cmm_forkjoin::cache_geometry())
        .static_grain;
    let ctr = ctx.fresh("cmm_sched_ctr");
    let lo_v = ctx.fresh("cmm_sched_lo");
    let total_v = ctx.fresh("cmm_sched_total");
    let c_lo = ctx.fresh("cmm_chunk_lo");
    let c_hi = ctx.fresh("cmm_chunk_hi");
    let k = ctx.fresh("cmm_k");
    ind(level, out);
    out.push_str("{\n");
    ind(level + 1, out);
    put!(out, "cmm_atomic_long ", ctr, " = 0;\n");
    ind(level + 1, out);
    put!(out, "long ", lo_v, " = (long)(", f.lo, ");\n");
    ind(level + 1, out);
    put!(out, "long ", total_v, " = (long)(", f.hi, ") - ", lo_v, ";\n");
    ind(level + 1, out);
    out.push_str("#pragma omp parallel\n");
    ind(level + 1, out);
    out.push_str("{\n");
    ind(level + 2, out);
    put!(out, "long ", c_lo, ", ", c_hi, ";\n");
    ind(level + 2, out);
    put!(out, "while (cmm_sched_next(&", ctr, ", ", total_v, ", cmm_sched_threads(), ");
    put!(out, kind, ", ", chunk, ", ", grain, ", &", c_lo, ", &", c_hi, ")) {\n");
    ind(level + 3, out);
    put!(out, "for (long ", k, " = ", c_lo, "; ", k, " < ", c_hi, "; ", k, "++) {\n");
    ind(level + 4, out);
    put!(out, "int ", Id(&f.var), " = (int)(", lo_v, " + ", k, ");\n");
    for s in &f.body {
        emit_stmt(s, level + 4, ctx, out);
    }
    ind(level + 3, out);
    out.push_str("}\n");
    ind(level + 2, out);
    out.push_str("}\n");
    ind(level + 1, out);
    out.push_str("}\n");
    ind(level, out);
    out.push_str("}\n");
}

/// Emit a `vectorize`d loop (constant bounds 0..4) as straight-line SSE
/// code. Float scalars declared in the body become `__m128` lanes; loads
/// and stores with unit stride in the lane variable use
/// `_mm_loadu_ps`/`_mm_storeu_ps`, anything else gathers/scatters lanes
/// explicitly (the "many new variables" of Fig 11).
fn emit_vector_loop(f: &ForLoop, level: usize, ctx: &mut EmitCtx, out: &mut String) {
    ind(level, out);
    put!(out, "/* vectorized loop over ", f.var, " (4 x f32 SSE lanes) */\n");
    ind(level, out);
    out.push_str("{\n");
    let outer_vars = ctx.vector_vars.len();
    for s in &f.body {
        emit_vector_stmt(s, &f.var, level + 1, ctx, out);
    }
    ctx.vector_vars.truncate(outer_vars);
    ind(level, out);
    out.push_str("}\n");
}

fn emit_vector_stmt(s: &IrStmt, lane: &str, level: usize, ctx: &mut EmitCtx, out: &mut String) {
    match s {
        IrStmt::Decl {
            ty: CType::Float,
            name,
            init,
        } => {
            ctx.vector_vars.push(name.clone());
            ind(level, out);
            match init {
                Some(e) => {
                    let v = vec_expr(e, lane, ctx, level, out);
                    put!(out, "__m128 ", Id(name), " = ", v, ";\n");
                }
                None => put!(out, "__m128 ", Id(name), " = _mm_setzero_ps();\n"),
            }
        }
        IrStmt::Decl { ty, name, init } => {
            // Non-float scalars stay scalar (loop counters etc.).
            ind(level, out);
            put!(out, ty.c_name(), " ", Id(name), " = ");
            match init {
                Some(e) => put!(out, e, ";\n"),
                None => out.push_str("0;\n"),
            }
        }
        IrStmt::Assign { name, value } if ctx.vector_vars.contains(name) => {
            let v = vec_expr(value, lane, ctx, level, out);
            ind(level, out);
            put!(out, Id(name), " = ", v, ";\n");
        }
        IrStmt::Assign { name, value } => {
            ind(level, out);
            put!(out, Id(name), " = ", value, ";\n");
        }
        IrStmt::Store {
            elem: Elem::F32,
            buf,
            idx,
            value,
        } => {
            let v = vec_expr(value, lane, ctx, level, out);
            match unit_stride(idx, lane) {
                Some(base) => {
                    ind(level, out);
                    put!(out, "_mm_storeu_ps(&", At(Elem::F32, buf, base), ", ", v, ");\n");
                }
                None => {
                    // Scatter lanes through a spill array.
                    let spill = ctx.fresh("vspill");
                    ind(level, out);
                    put!(out, "float ", spill, "[4];\n");
                    ind(level, out);
                    put!(out, "_mm_storeu_ps(", spill, ", ", v, ");\n");
                    for k in 0..4 {
                        let idx_k = idx.substitute(lane, &IrExpr::Int(k));
                        ind(level, out);
                        put!(out, At(Elem::F32, buf, &idx_k), " = ", spill, "[", k, "];\n");
                    }
                }
            }
        }
        IrStmt::Store { elem, buf, idx, value } => {
            // Non-float stores: scalar per lane.
            for k in 0..4 {
                let idx_k = idx.substitute(lane, &IrExpr::Int(k));
                let val_k = value.substitute(lane, &IrExpr::Int(k));
                ind(level, out);
                put!(out, At(*elem, buf, &idx_k), " = ", val_k, ";\n");
            }
        }
        IrStmt::For(inner) => {
            // Scalar loop inside the vector body (e.g. the k accumulation
            // loop of Fig 11); its body continues in vector context.
            ind(level, out);
            for_header(inner, out);
            for s in &inner.body {
                emit_vector_stmt(s, lane, level + 1, ctx, out);
            }
            ind(level, out);
            out.push_str("}\n");
        }
        IrStmt::Comment(c) => {
            ind(level, out);
            put!(out, "/* ", c, " */\n");
        }
        other => {
            // Control flow inside vector bodies: execute per lane.
            ind(level, out);
            out.push_str("/* per-lane fallback */\n");
            for k in 0..4 {
                let lane_stmt = other.substitute(lane, &IrExpr::Int(k));
                emit_stmt(&lane_stmt, level, ctx, out);
            }
        }
    }
}

/// Vector expression emission. Returns a C `__m128` expression; may append
/// preparatory statements (gather temporaries) to `out`.
fn vec_expr(e: &IrExpr, lane: &str, ctx: &mut EmitCtx, level: usize, out: &mut String) -> String {
    let mut v = String::new();
    match e {
        IrExpr::Float(_) | IrExpr::Int(_) => put!(&mut v, "_mm_set1_ps(", AsFloat(e), ")"),
        IrExpr::Var(n) if ctx.vector_vars.contains(n) => Id(n).put(&mut v),
        IrExpr::Var(n) if **n == *lane => v.push_str("_mm_set_ps(3.0f, 2.0f, 1.0f, 0.0f)"),
        IrExpr::Var(_) => put!(&mut v, "_mm_set1_ps(", AsFloat(e), ")"),
        IrExpr::Bin(op, a, b) if matches!(op, IrBinOp::Add | IrBinOp::Sub | IrBinOp::Mul | IrBinOp::Div) => {
            let va = vec_expr(a, lane, ctx, level, out);
            let vb = vec_expr(b, lane, ctx, level, out);
            let intrinsic = match op {
                IrBinOp::Add => "_mm_add_ps",
                IrBinOp::Sub => "_mm_sub_ps",
                IrBinOp::Mul => "_mm_mul_ps",
                IrBinOp::Div => "_mm_div_ps",
                _ => unreachable!(),
            };
            put!(&mut v, intrinsic, "(", va, ", ", vb, ")");
        }
        IrExpr::Neg(a) => {
            let va = vec_expr(a, lane, ctx, level, out);
            put!(&mut v, "_mm_sub_ps(_mm_setzero_ps(), ", va, ")");
        }
        IrExpr::Load {
            elem: Elem::F32,
            buf,
            idx,
        } => match unit_stride(idx, lane) {
            Some(base) => {
                // The lifted vector-load temporary of Fig 11.
                let tmp = ctx.fresh("vload");
                ind(level, out);
                put!(out, "__m128 ", tmp, " = _mm_loadu_ps(&", At(Elem::F32, buf, base), ");\n");
                tmp.put(&mut v);
            }
            None => {
                // Strided gather: one scalar load per lane, which
                // _mm_set_ps takes high-to-low.
                v.push_str("_mm_set_ps(");
                for k in (0..4).rev() {
                    let idx_k = idx.substitute(lane, &IrExpr::Int(k));
                    put!(&mut v, At(Elem::F32, buf, &idx_k), if k > 0 { ", " } else { ")" });
                }
            }
        },
        other if !other.uses_var(lane) => put!(&mut v, "_mm_set1_ps(", AsFloat(other), ")"),
        other => {
            // Universal fallback: evaluate each lane scalar and pack.
            v.push_str("_mm_set_ps(");
            for k in (0..4).rev() {
                let ek = other.substitute(lane, &IrExpr::Int(k));
                put!(&mut v, AsFloat(&ek), if k > 0 { ", " } else { ")" });
            }
        }
    }
    v
}

/// A scalar expression as a C `float`.
struct AsFloat<'a>(&'a IrExpr);

impl Put for AsFloat<'_> {
    fn put(&self, out: &mut String) {
        match self.0 {
            e @ IrExpr::Float(_) => expr(out, e),
            e => put!(out, "((float)(", e, "))"),
        }
    }
}

/// `idx` = `base + lane` (lane coefficient 1)? Returns `base` with the
/// lane variable removed.
fn unit_stride<'e>(idx: &'e IrExpr, lane: &str) -> Option<&'e IrExpr> {
    static ZERO: IrExpr = IrExpr::Int(0);
    let is_lane = |e: &IrExpr| matches!(e, IrExpr::Var(v) if **v == *lane);
    match idx {
        IrExpr::Var(v) if **v == *lane => Some(&ZERO),
        IrExpr::Bin(IrBinOp::Add, a, b) => {
            if is_lane(b) && !a.uses_var(lane) {
                Some(a)
            } else if is_lane(a) && !b.uses_var(lane) {
                Some(b)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The embedded C runtime: reference-counted matrices with the paper's
/// 4-byte count header, the matrix product kernel, CMMX file IO, and
/// print helpers.
const C_RUNTIME: &str = r#"/* Generated by the cmm extended-C translator. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdarg.h>
#include <stdint.h>
#include <math.h>
#if defined(__SSE__) || defined(_M_X64) || defined(__x86_64__)
#include <xmmintrin.h>
#endif
#ifdef _OPENMP
#include <omp.h>
#endif
#if !defined(__STDC_NO_ATOMICS__)
#include <stdatomic.h>
typedef atomic_long cmm_atomic_long;
#define cmm_atomic_load(p) atomic_load_explicit((p), memory_order_relaxed)
#define cmm_atomic_cas(p, e, v) \
    atomic_compare_exchange_weak_explicit((p), (e), (v), memory_order_relaxed, memory_order_relaxed)
#else
/* No C11 atomics implies no OpenMP threads here either; plain longs are
 * fine for the single-threaded drain. */
typedef long cmm_atomic_long;
#define cmm_atomic_load(p) (*(p))
static int cmm_atomic_cas(long *p, long *e, long v) {
    if (*p == *e) { *p = v; return 1; }
    *e = *p; return 0;
}
#endif

/* Threads sharing the self-scheduling counter of the enclosing parallel
 * region (1 without OpenMP: one thread drains all chunks). */
static int cmm_sched_threads(void) {
#ifdef _OPENMP
    return omp_get_num_threads();
#else
    return 1;
#endif
}

/* Claim the next chunk of 0..total from the region's shared counter.
 * kind: 0 = static (ceil(total/nthreads) per claim, capped at `grain`
 *                   iterations so huge ranges are claimed in cache-sized
 *                   bites rather than one slab per thread),
 *       1 = dynamic (fixed `chunk` iterations per claim),
 *       2 = guided  (max(remaining/nthreads, chunk) per claim).
 * Stores [*lo, *hi) and returns 1, or returns 0 when drained. The claim
 * is a CAS loop that clamps the advance to `total - cur`, so the counter
 * never moves past `total` — a drained region leaves the counter exactly
 * at total instead of arbitrarily beyond it (late claimants racing a
 * fetch_add used to push it total + nthreads*size high). Relaxed
 * ordering suffices: the counter only distributes work; the OpenMP
 * region's implicit barrier provides the happens-before for the loop
 * body's effects. */
static int cmm_sched_next(cmm_atomic_long *counter, long total, int nthreads,
                          int kind, long chunk, long grain, long *lo, long *hi) {
    if (nthreads < 1) nthreads = 1;
    if (chunk < 1) chunk = 1;
    if (grain < 1) grain = 1;
    long cur = cmm_atomic_load(counter);
    for (;;) {
        if (cur >= total) return 0;
        long size;
        if (kind == 2) {
            size = (total - cur) / nthreads;
            if (size < chunk) size = chunk;
        } else if (kind == 1) {
            size = chunk;
        } else {
            size = (total + nthreads - 1) / nthreads;
            if (size < 1) size = 1;
            if (size > grain) size = grain;
        }
        if (size > total - cur) size = total - cur;
        if (cmm_atomic_cas(counter, &cur, cur + size)) {
            *lo = cur;
            *hi = cur + size;
            return 1;
        }
    }
}

typedef struct {
    int refs;               /* the 4-byte reference count header */
    int rank;
    long long dims[8];
    long long len;
    int tag;                /* 0 = int, 1 = float, 2 = bool */
    union { float *f; int *i; unsigned char *b; } data;
} cmm_mat;

static cmm_mat* cmm_alloc_tagged(int tag, int rank, va_list ap) {
    cmm_mat *m = (cmm_mat*)malloc(sizeof(cmm_mat));
    m->refs = 1;
    m->rank = rank;
    m->len = 1;
    m->tag = tag;
    for (int d = 0; d < rank; d++) {
        m->dims[d] = va_arg(ap, long long);
        m->len *= m->dims[d];
    }
    size_t cell = tag == 2 ? sizeof(unsigned char) : 4;
    void *p = calloc(m->len > 0 ? (size_t)m->len : 1, cell);
    m->data.f = (float*)p;
    return m;
}
static cmm_mat* alloc_mat_f32(int rank, ...) {
    va_list ap; va_start(ap, rank);
    cmm_mat *m = cmm_alloc_tagged(1, rank, ap);
    va_end(ap); return m;
}
static cmm_mat* alloc_mat_i32(int rank, ...) {
    va_list ap; va_start(ap, rank);
    cmm_mat *m = cmm_alloc_tagged(0, rank, ap);
    va_end(ap); return m;
}
static cmm_mat* alloc_mat_b(int rank, ...) {
    va_list ap; va_start(ap, rank);
    cmm_mat *m = cmm_alloc_tagged(2, rank, ap);
    va_end(ap); return m;
}
static int dim(cmm_mat *m, int d) { return (int)m->dims[d]; }
static int len(cmm_mat *m) { return (int)m->len; }
static int rank(cmm_mat *m) { return m->rank; }
static void rc_incr(cmm_mat *m) { m->refs++; }
static void rc_decr(cmm_mat *m) {
    if (--m->refs == 0) { free(m->data.f); free(m); }
}
static int rc_count(cmm_mat *m) { return m->refs; }
static cmm_mat* cmm_cow(cmm_mat *m) {
    if (m->refs == 1) return m;
    cmm_mat *c = (cmm_mat*)malloc(sizeof(cmm_mat));
    *c = *m;
    c->refs = 1;
    size_t cell = m->tag == 2 ? sizeof(unsigned char) : 4;
    c->data.f = (float*)malloc((size_t)(m->len > 0 ? m->len : 1) * cell);
    memcpy(c->data.f, m->data.f, (size_t)m->len * cell);
    m->refs--;
    return c;
}
static cmm_mat* cow_f32(cmm_mat *m) { return cmm_cow(m); }
static cmm_mat* cow_i32(cmm_mat *m) { return cmm_cow(m); }
static cmm_mat* cow_b(cmm_mat *m) { return cmm_cow(m); }
static void print_i32(int x) { printf("%d\n", x); }
static void print_f32(float x) { printf("%.6f\n", x); }
static void print_b(unsigned char x) { printf("%d\n", x ? 1 : 0); }
static void print_str(const char *s) { printf("%s\n", s); }
static void cmm_panic(const char *msg) {
    fprintf(stderr, "program panic: %s\n", msg);
    exit(1);
}

/* `A * B`: c (the freshly allocated m x n result) = a (m x p) * b (p x n).
 * Row i of c is built as c[i,:] = c[i,:] + a[i,k] * b[k,:] for k ascending
 * from zero, four values of k to a pass over the row, so every element
 * goes through the scalar nest's sequence of separately rounded
 * `acc + a*b` operations; the lanes of the `omp simd` loops are distinct
 * elements. Under gcc -O2 -fopenmp -msse2 there is no FMA to contract
 * into, so the bits are the interpreter's. `int` computes in `unsigned`,
 * where overflow wraps as the interpreter's does. Rows go to the OpenMP
 * team only when `parallel` is set (the program was compiled with
 * automatic parallelisation on). */
#define CMM_MATMUL(name, T, field)                                          \
static void name(cmm_mat *c, cmm_mat *a, cmm_mat *b, int parallel) {        \
    long long m = a->dims[0], p = a->dims[1], n = b->dims[1];              \
    T *cd = (T*)c->data.field;                                              \
    const T *ad = (const T*)a->data.field, *bd = (const T*)b->data.field;  \
    _Pragma("omp parallel for if(parallel)")                                \
    for (long long i = 0; i < m; i++) {                                     \
        T *ci = cd + i * n;                                                 \
        const T *ai = ad + i * p;                                           \
        long long k = 0;                                                    \
        for (long long j = 0; j < n; j++) ci[j] = 0;                        \
        for (; k + 4 <= p; k += 4) {                                        \
            const T a0 = ai[k], a1 = ai[k + 1], a2 = ai[k + 2], a3 = ai[k + 3]; \
            const T *b0 = bd + k * n, *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n; \
            _Pragma("omp simd")                                             \
            for (long long j = 0; j < n; j++)                               \
                ci[j] = (((ci[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j]; \
        }                                                                   \
        for (; k < p; k++) {                                                \
            const T aik = ai[k], *bk = bd + k * n;                          \
            _Pragma("omp simd")                                             \
            for (long long j = 0; j < n; j++) ci[j] = ci[j] + aik * bk[j];  \
        }                                                                   \
    }                                                                       \
}
CMM_MATMUL(cmm_matmul_f32, float, f)
CMM_MATMUL(cmm_matmul_i32, unsigned, i)

/* CMMX container format (shared with the Rust runtime): "CMMX", tag, rank,
 * two zero bytes, rank little-endian 8-byte extents, then one little-endian
 * 4-byte cell per element. The payload moves 4096 cells to an fread /
 * fwrite through a staging buffer, where each cell is assembled from or
 * split into its little-endian bytes; a bool cell (one byte in memory) is
 * the low byte of its file cell, read as 0 or 1. */
#define CMM_STAGE_CELLS ((size_t)4096)
static void cmm_read_truncated(void) {
    fprintf(stderr, "readMatrix: truncated\n"); exit(1);
}
static cmm_mat* cmm_read_mat(const char *path, int tag) {
    FILE *fp = fopen(path, "rb");
    if (!fp) { fprintf(stderr, "readMatrix(%s): cannot open\n", path); exit(1); }
    unsigned char head[8];
    if (fread(head, 1, 8, fp) != 8 || memcmp(head, "CMMX", 4) != 0 || head[4] != tag) {
        fprintf(stderr, "readMatrix(%s): bad header\n", path); exit(1);
    }
    int rank = head[5];
    if (rank == 0) { fprintf(stderr, "readMatrix(%s): invalid header: rank 0\n", path); exit(1); }
    if (rank > 8) { fprintf(stderr, "readMatrix(%s): invalid header: rank %d exceeds 8\n", path, rank); exit(1); }
    cmm_mat *m = (cmm_mat*)malloc(sizeof(cmm_mat));
    m->refs = 1; m->rank = rank; m->len = 1; m->tag = tag;
    for (int d = 0; d < rank; d++) {
        unsigned char b8[8];
        if (fread(b8, 1, 8, fp) != 8) cmm_read_truncated();
        unsigned long long v = 0;
        for (int k = 7; k >= 0; k--) v = (v << 8) | b8[k];
        /* The payload's byte count, 4 * len, must fit a long long. */
        if (v > INT64_MAX / 4 || (m->len != 0 && v > INT64_MAX / 4 / (unsigned long long)m->len)) {
            fprintf(stderr, "readMatrix(%s): invalid header: dimensions overflow\n", path); exit(1);
        }
        m->dims[d] = (long long)v; m->len *= (long long)v;
    }
    size_t len = (size_t)m->len;
    m->data.f = (float*)calloc(len > 0 ? len : 1, tag == 2 ? 1 : 4);
    if (!m->data.f) {
        fprintf(stderr, "readMatrix(%s): cannot allocate %lld cells\n", path, m->len); exit(1);
    }
    unsigned char stage[4 * CMM_STAGE_CELLS];
    for (size_t i = 0; i < len; ) {
        size_t n = len - i < CMM_STAGE_CELLS ? len - i : CMM_STAGE_CELLS;
        if (fread(stage, 4, n, fp) != n) cmm_read_truncated();
        if (tag == 2) {
            for (size_t k = 0; k < n; k++) m->data.b[i + k] = stage[4 * k] ? 1 : 0;
        } else {
            unsigned char *cells = (unsigned char*)(m->data.i + i);
            for (size_t k = 0; k < n; k++) {
                const unsigned char *c4 = stage + 4 * k;
                uint32_t bits = (uint32_t)c4[0] | ((uint32_t)c4[1] << 8)
                              | ((uint32_t)c4[2] << 16) | ((uint32_t)c4[3] << 24);
                memcpy(cells + 4 * k, &bits, 4);
            }
        }
        i += n;
    }
    /* Exact-length contract (matches the Rust-side parser): the container
     * ends at the last payload cell; trailing bytes are a malformed file. */
    if (fgetc(fp) != EOF) {
        fprintf(stderr, "readMatrix(%s): trailing byte(s) after the payload\n", path); exit(1);
    }
    fclose(fp);
    return m;
}
static cmm_mat* read_mat_f32(const char *p) { return cmm_read_mat(p, 1); }
static cmm_mat* read_mat_i32(const char *p) { return cmm_read_mat(p, 0); }
static cmm_mat* read_mat_b(const char *p) { return cmm_read_mat(p, 2); }
static void cmm_write_mat(const char *path, cmm_mat *m) {
    FILE *fp = fopen(path, "wb");
    if (!fp) { fprintf(stderr, "writeMatrix(%s): cannot open\n", path); exit(1); }
    unsigned char head[8 + 8 * 8] = { 'C', 'M', 'M', 'X', (unsigned char)m->tag, (unsigned char)m->rank };
    for (int d = 0; d < m->rank; d++) {
        unsigned long long v = (unsigned long long)m->dims[d];
        for (int k = 0; k < 8; k++) { head[8 + 8 * d + k] = (unsigned char)(v & 0xff); v >>= 8; }
    }
    fwrite(head, 1, 8 + 8 * (size_t)m->rank, fp);
    size_t len = (size_t)m->len;
    unsigned char stage[4 * CMM_STAGE_CELLS];
    for (size_t i = 0; i < len; ) {
        size_t n = len - i < CMM_STAGE_CELLS ? len - i : CMM_STAGE_CELLS;
        for (size_t k = 0; k < n; k++) {
            uint32_t bits;
            if (m->tag == 2) bits = m->data.b[i + k] ? 1 : 0;
            else memcpy(&bits, &m->data.i[i + k], 4);
            unsigned char *c4 = stage + 4 * k;
            c4[0] = (unsigned char)bits; c4[1] = (unsigned char)(bits >> 8);
            c4[2] = (unsigned char)(bits >> 16); c4[3] = (unsigned char)(bits >> 24);
        }
        fwrite(stage, 4, n, fp);
        i += n;
    }
    fclose(fp);
}
static void write_mat_f32(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
static void write_mat_i32(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
static void write_mat_b(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
"#;
