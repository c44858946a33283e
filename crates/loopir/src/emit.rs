//! C code emission: IR → plain parallel C.
//!
//! The translator's final step "maps extended C programs down to plain
//! (parallel) C code" for compilation by a traditional compiler. The
//! emitted translation unit is self-contained: it embeds a small C runtime
//! (reference-counted `cmm_mat` buffers with the 4-byte count header,
//! CMMX matrix file IO, printing) and uses
//!
//! * `#pragma omp parallel for` on loops marked by `parallelize` (§V,
//!   Fig 11),
//! * Intel SSE intrinsics (`_mm_*`, four 32-bit floats per 128-bit
//!   vector) for loops marked by `vectorize`, including the lifted vector
//!   temporaries the paper points out ("note the addition of many new
//!   variables involved in loading data into vectors"),
//!
//! so `gcc -O2 -fopenmp -msse2 out.c` produces a runnable parallel binary.

use std::fmt::Write;

use crate::ir::{
    Builtin, CType, Elem, ForLoop, IrBinOp, IrExpr, IrFunction, IrProgram, IrStmt,
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

/// Emit a complete C translation unit for the program.
pub fn emit_program(p: &IrProgram) -> Result<String, EmitError> {
    for f in &p.functions {
        validate_function(f)?;
    }
    let mut out = String::new();
    out.push_str(C_RUNTIME);
    out.push('\n');
    // Struct definitions for tuple-returning functions, then forward
    // declarations.
    for f in &p.functions {
        if let Some(s) = tuple_struct(f) {
            let _ = writeln!(out, "{s}");
        }
    }
    for f in &p.functions {
        let _ = writeln!(out, "{};", signature(f));
    }
    out.push('\n');
    for f in &p.functions {
        emit_function(f, &mut out);
        out.push('\n');
    }
    Ok(out)
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

/// C name of the user function or variable `name`. The runtime prelude
/// owns the builtins' names and the `cmm_` prefix (as do the emitter's own
/// temporaries), so a user name spelled like either is emitted as
/// `cmm_user_<name>` — injective, and no other user name can already be
/// that without being renamed itself. A variable needs it as much as a
/// function: a parameter `dim` would shadow the prelude's `dim()` that the
/// subscripts of its own function call.
fn user_name(name: &str) -> std::borrow::Cow<'_, str> {
    let owned = || name.starts_with("cmm_") || Builtin::from_c_name(name).is_some();
    if may_be_prelude_name(name) && owned() {
        format!("cmm_user_{name}").into()
    } else {
        name.into()
    }
}

/// The initials of the prelude's names. Every variable reference is named
/// through [`user_name`]; this keeps the scan of the builtin table off that
/// path for the likes of `i`, `n` and `__m_3` (a test holds the list to the
/// table).
fn may_be_prelude_name(name: &str) -> bool {
    matches!(
        name.as_bytes().first(),
        Some(b'a' | b'c' | b'd' | b'l' | b'p' | b'r' | b'w')
    )
}

fn signature(f: &IrFunction) -> String {
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(n, t)| format!("{} {}", t.c_name(), user_name(n)))
        .collect();
    let params = if params.is_empty() {
        "void".to_string()
    } else {
        params.join(", ")
    };
    // main must have the standard signature.
    if f.name == "main" {
        "int main(void)".to_string()
    } else if f.ret_tuple.is_some() {
        let name = user_name(&f.name);
        format!("struct {name}_ret {name}({params})")
    } else {
        format!("{} {}({params})", f.ret.c_name(), user_name(&f.name))
    }
}

/// Struct typedef for a tuple-returning function.
fn tuple_struct(f: &IrFunction) -> Option<String> {
    let tys = f.ret_tuple.as_ref()?;
    let fields: Vec<String> = tys
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{} _{i};", t.c_name()))
        .collect();
    let name = user_name(&f.name);
    Some(format!("struct {name}_ret {{ {} }};", fields.join(" ")))
}

fn emit_function(f: &IrFunction, out: &mut String) {
    let _ = writeln!(out, "{} {{", signature(f));
    let mut ctx = EmitCtx {
        ret_struct: (f.ret_tuple.as_ref()).map(|_| user_name(&f.name).into_owned()),
        ..EmitCtx::default()
    };
    for s in &f.body {
        emit_stmt(s, 1, &mut ctx, out);
    }
    if f.name == "main" {
        let _ = writeln!(out, "    return 0;");
    }
    out.push_str("}\n");
}

/// Emitter state: temp-name counter and the set of float variables that
/// are vector-widened inside a vectorized loop.
#[derive(Default)]
struct EmitCtx {
    tmp: u32,
    vector_vars: Vec<String>,
    /// Set when emitting a tuple-returning function: its C name (for the
    /// return-struct type).
    ret_struct: Option<String>,
}

impl EmitCtx {
    fn fresh(&mut self, prefix: &str) -> String {
        self.tmp += 1;
        format!("{prefix}_{}", self.tmp)
    }
}

fn ind(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn emit_stmt(s: &IrStmt, level: usize, ctx: &mut EmitCtx, out: &mut String) {
    match s {
        IrStmt::Decl { ty, name, init } => {
            ind(level, out);
            match init {
                Some(e) => {
                    let _ = writeln!(out, "{} {} = {};", ty.c_name(), user_name(name), expr(e));
                }
                None => {
                    let zero = match ty {
                        CType::Buf(_) => " = 0",
                        CType::Float => " = 0.0f",
                        CType::Void => "",
                        _ => " = 0",
                    };
                    let _ = writeln!(out, "{} {}{zero};", ty.c_name(), user_name(name));
                }
            }
        }
        IrStmt::Assign { name, value } => {
            ind(level, out);
            let _ = writeln!(out, "{} = {};", user_name(name), expr(value));
        }
        IrStmt::Store { elem, buf, idx, value } => {
            ind(level, out);
            let _ = writeln!(
                out,
                "{}[{}] = {};",
                data_field(*elem, &expr(buf)),
                expr(idx),
                expr(value)
            );
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
            let _ = writeln!(
                out,
                "for (int {v} = {}; {v} < {}; {v}++) {{",
                expr(&f.lo),
                expr(&f.hi),
                v = user_name(&f.var)
            );
            for s in &f.body {
                emit_stmt(s, level + 1, ctx, out);
            }
            ind(level, out);
            out.push_str("}\n");
        }
        IrStmt::While { cond, body } => {
            ind(level, out);
            let _ = writeln!(out, "while ({}) {{", expr(cond));
            for s in body {
                emit_stmt(s, level + 1, ctx, out);
            }
            ind(level, out);
            out.push_str("}\n");
        }
        IrStmt::If { cond, then_b, else_b } => {
            ind(level, out);
            let _ = writeln!(out, "if ({}) {{", expr(cond));
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
            let _ = writeln!(out, "{};", expr(e));
        }
        IrStmt::Return(e) => {
            ind(level, out);
            match e {
                Some(IrExpr::Tuple(parts)) => {
                    let name = ctx.ret_struct.as_deref().unwrap_or("anon");
                    let fields: Vec<String> = parts.iter().map(expr).collect();
                    let _ = writeln!(
                        out,
                        "return (struct {name}_ret){{ {} }};",
                        fields.join(", ")
                    );
                }
                Some(e) => {
                    let _ = writeln!(out, "return {};", expr(e));
                }
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
            let rendered: Vec<String> = args.iter().map(expr).collect();
            let call = format!("{}({})", user_name(func), rendered.join(", "));
            ind(level, out);
            match target.as_deref().map(user_name) {
                Some(t) if *target_is_buf => {
                    let tmp = ctx.fresh("spawn");
                    let _ = writeln!(
                        out,
                        "{{ cmm_mat* {tmp} = {call}; {decr}({t}); {t} = {tmp}; }} /* spawn (serial elision) */",
                        decr = Builtin::RcDecr.c_name()
                    );
                }
                Some(t) => {
                    let _ = writeln!(out, "{t} = {call}; /* spawn (serial elision) */");
                }
                None => {
                    let _ = writeln!(out, "{call}; /* spawn (serial elision) */");
                }
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
            let ret = user_name(fname);
            let _ = writeln!(out, "struct {ret}_ret {tmp} = {};", expr(call));
            for (i, t) in targets.iter().enumerate() {
                ind(level, out);
                let _ = writeln!(out, "{} = {tmp}._{i};", user_name(t));
            }
        }
        IrStmt::Comment(c) => {
            ind(level, out);
            let _ = writeln!(out, "/* {c} */");
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
        // Emitted C is the scalar nest, in place: gcc is the kernel here.
        IrStmt::Kernel { fallback, .. } => {
            for s in fallback {
                emit_stmt(s, level, ctx, out);
            }
        }
    }
}

fn data_field(elem: Elem, buf: &str) -> String {
    let field = match elem {
        Elem::I32 => "i",
        Elem::F32 => "f",
        Elem::Bool => "b",
    };
    format!("{buf}->data.{field}")
}

/// Scalar expression emission.
fn expr(e: &IrExpr) -> String {
    match e {
        IrExpr::Int(v) => v.to_string(),
        IrExpr::Float(v) => {
            // Non-finite constants (a source literal like 1e40 overflows
            // f32 parsing to inf) have no C literal spelling; use the
            // <math.h> macros instead of Rust's Debug text (`inff`/`NaNf`
            // would not compile).
            if v.is_nan() {
                "((float)NAN)".to_string()
            } else if v.is_infinite() {
                if *v > 0.0 {
                    "INFINITY".to_string()
                } else {
                    "(-INFINITY)".to_string()
                }
            } else if v.fract() == 0.0 && v.abs() < 1e16 {
                format!("{v:.1}f")
            } else {
                format!("{v:?}f")
            }
        }
        IrExpr::Bool(v) => if *v { "1" } else { "0" }.to_string(),
        IrExpr::Str(s) => format!("{s:?}"),
        IrExpr::Var(n) => user_name(n).into_owned(),
        IrExpr::Bin(op, a, b) => format!("({} {} {})", expr(a), op.c_symbol(), expr(b)),
        IrExpr::Neg(e) => format!("(-{})", expr(e)),
        IrExpr::Not(e) => format!("(!{})", expr(e)),
        IrExpr::Load { elem, buf, idx } => {
            format!("{}[{}]", data_field(*elem, &expr(buf)), expr(idx))
        }
        IrExpr::Call(name, args) => {
            let rendered: Vec<String> = args.iter().map(expr).collect();
            format!("{}({})", user_name(name), rendered.join(", "))
        }
        IrExpr::Builtin(b, args) => {
            let mut rendered: Vec<String> = args.iter().map(expr).collect();
            // Variadic runtime allocators take an explicit rank first.
            if b.arity().is_none() {
                rendered.insert(0, args.len().to_string());
            }
            format!("{}({})", b.c_name(), rendered.join(", "))
        }
        IrExpr::CastInt(e) => format!("((int)({}))", expr(e)),
        IrExpr::CastFloat(e) => format!("((float)({}))", expr(e)),
        // Rejected by validate_function before emission starts.
        IrExpr::Tuple(_) => unreachable!("tuple expression outside a return statement"),
    }
}

// --- SSE vector emission -------------------------------------------------

/// Emit a `vectorize`d loop (constant bounds 0..4) as straight-line SSE
/// code. Float scalars declared in the body become `__m128` lanes; loads
/// and stores with unit stride in the lane variable use
/// `_mm_loadu_ps`/`_mm_storeu_ps`, anything else gathers/scatters lanes
/// explicitly (the "many new variables" of Fig 11).
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
        cmm_forkjoin::Schedule::Static => (0, 1usize),
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
    let _ = writeln!(out, "cmm_atomic_long {ctr} = 0;");
    ind(level + 1, out);
    let _ = writeln!(out, "long {lo_v} = (long)({});", expr(&f.lo));
    ind(level + 1, out);
    let _ = writeln!(out, "long {total_v} = (long)({}) - {lo_v};", expr(&f.hi));
    ind(level + 1, out);
    out.push_str("#pragma omp parallel\n");
    ind(level + 1, out);
    out.push_str("{\n");
    ind(level + 2, out);
    let _ = writeln!(out, "long {c_lo}, {c_hi};");
    ind(level + 2, out);
    let _ = writeln!(
        out,
        "while (cmm_sched_next(&{ctr}, {total_v}, cmm_sched_threads(), {kind}, {chunk}, \
         {grain}, &{c_lo}, &{c_hi})) {{"
    );
    ind(level + 3, out);
    let _ = writeln!(out, "for (long {k} = {c_lo}; {k} < {c_hi}; {k}++) {{");
    ind(level + 4, out);
    let _ = writeln!(out, "int {v} = (int)({lo_v} + {k});", v = user_name(&f.var));
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

fn emit_vector_loop(f: &ForLoop, level: usize, ctx: &mut EmitCtx, out: &mut String) {
    ind(level, out);
    let _ = writeln!(out, "/* vectorized loop over {} (4 x f32 SSE lanes) */", f.var);
    ind(level, out);
    out.push_str("{\n");
    let saved = ctx.vector_vars.clone();
    for s in &f.body {
        emit_vector_stmt(s, &f.var, level + 1, ctx, out);
    }
    ctx.vector_vars = saved;
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
                    let _ = writeln!(out, "__m128 {} = {v};", user_name(name));
                }
                None => {
                    let _ = writeln!(out, "__m128 {} = _mm_setzero_ps();", user_name(name));
                }
            }
        }
        IrStmt::Decl { ty, name, init } => {
            // Non-float scalars stay scalar (loop counters etc.).
            ind(level, out);
            match init {
                Some(e) => {
                    let _ = writeln!(out, "{} {} = {};", ty.c_name(), user_name(name), expr(e));
                }
                None => {
                    let _ = writeln!(out, "{} {} = 0;", ty.c_name(), user_name(name));
                }
            }
        }
        IrStmt::Assign { name, value } if ctx.vector_vars.contains(name) => {
            let v = vec_expr(value, lane, ctx, level, out);
            ind(level, out);
            let _ = writeln!(out, "{} = {v};", user_name(name));
        }
        IrStmt::Assign { name, value } => {
            ind(level, out);
            let _ = writeln!(out, "{} = {};", user_name(name), expr(value));
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
                    let _ = writeln!(
                        out,
                        "_mm_storeu_ps(&{}[{}], {v});",
                        data_field(Elem::F32, &expr(buf)),
                        expr(&base)
                    );
                }
                None => {
                    // Scatter lanes through a spill array.
                    let spill = ctx.fresh("vspill");
                    ind(level, out);
                    let _ = writeln!(out, "float {spill}[4];");
                    ind(level, out);
                    let _ = writeln!(out, "_mm_storeu_ps({spill}, {v});");
                    for k in 0..4 {
                        let idx_k = idx.substitute(lane, &IrExpr::Int(k));
                        ind(level, out);
                        let _ = writeln!(
                            out,
                            "{}[{}] = {spill}[{k}];",
                            data_field(Elem::F32, &expr(buf)),
                            expr(&idx_k)
                        );
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
                let _ = writeln!(
                    out,
                    "{}[{}] = {};",
                    data_field(*elem, &expr(buf)),
                    expr(&idx_k),
                    expr(&val_k)
                );
            }
        }
        IrStmt::For(inner) => {
            // Scalar loop inside the vector body (e.g. the k accumulation
            // loop of Fig 11); its body continues in vector context.
            ind(level, out);
            let _ = writeln!(
                out,
                "for (int {v} = {}; {v} < {}; {v}++) {{",
                expr(&inner.lo),
                expr(&inner.hi),
                v = user_name(&inner.var)
            );
            for s in &inner.body {
                emit_vector_stmt(s, lane, level + 1, ctx, out);
            }
            ind(level, out);
            out.push_str("}\n");
        }
        IrStmt::Comment(c) => {
            ind(level, out);
            let _ = writeln!(out, "/* {c} */");
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
    match e {
        IrExpr::Float(_) | IrExpr::Int(_) => format!("_mm_set1_ps({})", scalar_as_float(e)),
        IrExpr::Var(n) if ctx.vector_vars.contains(n) => user_name(n).into_owned(),
        IrExpr::Var(n) if n == lane => "_mm_set_ps(3.0f, 2.0f, 1.0f, 0.0f)".to_string(),
        IrExpr::Var(_) => format!("_mm_set1_ps({})", scalar_as_float(e)),
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
            format!("{intrinsic}({va}, {vb})")
        }
        IrExpr::Neg(a) => {
            let va = vec_expr(a, lane, ctx, level, out);
            format!("_mm_sub_ps(_mm_setzero_ps(), {va})")
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
                let _ = writeln!(
                    out,
                    "__m128 {tmp} = _mm_loadu_ps(&{}[{}]);",
                    data_field(Elem::F32, &expr(buf)),
                    expr(&base)
                );
                tmp
            }
            None => {
                // Strided gather: one scalar load per lane.
                let lanes: Vec<String> = (0..4)
                    .map(|k| {
                        let idx_k = idx.substitute(lane, &IrExpr::Int(k));
                        format!("{}[{}]", data_field(Elem::F32, &expr(buf)), expr(&idx_k))
                    })
                    .collect();
                // _mm_set_ps takes lanes high-to-low.
                format!(
                    "_mm_set_ps({}, {}, {}, {})",
                    lanes[3], lanes[2], lanes[1], lanes[0]
                )
            }
        },
        other if !other.uses_var(lane) => format!("_mm_set1_ps({})", scalar_as_float(other)),
        other => {
            // Universal fallback: evaluate each lane scalar and pack.
            let lanes: Vec<String> = (0..4)
                .map(|k| {
                    let ek = other.substitute(lane, &IrExpr::Int(k));
                    scalar_as_float(&ek)
                })
                .collect();
            format!(
                "_mm_set_ps({}, {}, {}, {})",
                lanes[3], lanes[2], lanes[1], lanes[0]
            )
        }
    }
}

fn scalar_as_float(e: &IrExpr) -> String {
    match e {
        IrExpr::Float(_) => expr(e),
        _ => format!("((float)({}))", expr(e)),
    }
}

/// `idx` = `base + lane` (lane coefficient 1)? Returns `base` with the
/// lane variable removed.
fn unit_stride(idx: &IrExpr, lane: &str) -> Option<IrExpr> {
    match idx {
        IrExpr::Var(v) if v == lane => Some(IrExpr::Int(0)),
        IrExpr::Bin(IrBinOp::Add, a, b) => {
            if matches!(&**b, IrExpr::Var(v) if v == lane) && !a.uses_var(lane) {
                Some((**a).clone())
            } else if matches!(&**a, IrExpr::Var(v) if v == lane) && !b.uses_var(lane) {
                Some((**b).clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The embedded C runtime: reference-counted matrices with the paper's
/// 4-byte count header, CMMX file IO, and print helpers.
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

/* CMMX container format (shared with the Rust runtime). */
static cmm_mat* cmm_read_mat(const char *path, int tag) {
    FILE *fp = fopen(path, "rb");
    if (!fp) { fprintf(stderr, "readMatrix(%s): cannot open\n", path); exit(1); }
    unsigned char head[8];
    if (fread(head, 1, 8, fp) != 8 || memcmp(head, "CMMX", 4) != 0 || head[4] != tag) {
        fprintf(stderr, "readMatrix(%s): bad header\n", path); exit(1);
    }
    int rank = head[5];
    if (rank == 0) { fprintf(stderr, "readMatrix(%s): invalid header: rank 0\n", path); exit(1); }
    cmm_mat *m = (cmm_mat*)malloc(sizeof(cmm_mat));
    m->refs = 1; m->rank = rank; m->len = 1; m->tag = tag;
    for (int d = 0; d < rank; d++) {
        unsigned char b8[8];
        if (fread(b8, 1, 8, fp) != 8) { fprintf(stderr, "readMatrix: truncated\n"); exit(1); }
        long long v = 0;
        for (int k = 7; k >= 0; k--) v = (v << 8) | b8[k];
        m->dims[d] = v; m->len *= v;
    }
    size_t cell = tag == 2 ? 1 : 4;
    m->data.f = (float*)calloc(m->len > 0 ? (size_t)m->len : 1, cell);
    for (long long i = 0; i < m->len; i++) {
        unsigned char c4[4];
        if (fread(c4, 1, 4, fp) != 4) { fprintf(stderr, "readMatrix: truncated\n"); exit(1); }
        if (tag == 2) m->data.b[i] = c4[0] ? 1 : 0;
        else {
            uint32_t bits = (uint32_t)c4[0] | ((uint32_t)c4[1] << 8)
                          | ((uint32_t)c4[2] << 16) | ((uint32_t)c4[3] << 24);
            memcpy(&m->data.i[i], &bits, 4);
        }
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
    fputc('C', fp); fputc('M', fp); fputc('M', fp); fputc('X', fp);
    fputc(m->tag, fp); fputc(m->rank, fp); fputc(0, fp); fputc(0, fp);
    for (int d = 0; d < m->rank; d++) {
        unsigned long long v = (unsigned long long)m->dims[d];
        for (int k = 0; k < 8; k++) { fputc((int)(v & 0xff), fp); v >>= 8; }
    }
    for (long long i = 0; i < m->len; i++) {
        uint32_t bits;
        if (m->tag == 2) bits = m->data.b[i] ? 1 : 0;
        else memcpy(&bits, &m->data.i[i], 4);
        for (int k = 0; k < 4; k++) { fputc((int)(bits & 0xff), fp); bits >>= 8; }
    }
    fclose(fp);
}
static void write_mat_f32(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
static void write_mat_i32(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
static void write_mat_b(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
"#;
