//! IR data types.

use std::sync::Arc;

/// The name of an IR variable or function. It is made once, where the
/// variable or function is declared, and every reference shares it by
/// reference count; `Arc` rather than `Rc` keeps an [`IrProgram`] `Send`.
pub type Name = Arc<str>;

/// The highest matrix rank: the emitted C's `cmm_mat` holds its extents
/// in `long long dims[MAX_RANK]`, so the builder rejects a wider
/// `Matrix T <k>` and the CMMX readers a wider file.
pub const MAX_RANK: usize = 8;

/// Matrix element types at the IR level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Elem {
    /// 32-bit int.
    I32,
    /// 32-bit float.
    F32,
    /// Boolean (one byte in emitted C).
    Bool,
}

impl Elem {
    /// C type name of one element.
    pub fn c_name(self) -> &'static str {
        match self {
            Elem::I32 => "int",
            Elem::F32 => "float",
            Elem::Bool => "unsigned char",
        }
    }
}

/// The runtime's builtin functions: the closed set of calls lowered code
/// may make besides user functions. This table is the one place a builtin
/// is declared — its spelling in emitted C, its arity and its purity; the
/// interpreter, the VM and the emitter all dispatch on the variant, and
/// user functions live in a separate namespace ([`IrExpr::Call`]), so a
/// user function may reuse any of these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// Fresh zeroed matrix buffer; one int argument per dimension.
    AllocMat(Elem),
    /// `(path)`: read a CMMX file into a fresh buffer.
    ReadMat(Elem),
    /// `(path, buf)`: write a buffer as a CMMX file.
    WriteMat(Elem),
    /// `(buf)`: copy-on-write — the buffer itself when unshared, else a
    /// private copy (releasing one reference to the original).
    Cow(Elem),
    /// `(buf, d)`: size of dimension `d`.
    Dim,
    /// `(buf)`: element count.
    Len,
    /// `(buf)`: number of dimensions.
    Rank,
    /// `(buf)`: increment the reference count.
    RcIncr,
    /// `(buf)`: decrement the reference count, freeing at zero.
    RcDecr,
    /// `(buf)`: current reference count.
    RcCount,
    /// `(int)`: print a line.
    PrintI32,
    /// `(float)`: print a line with six decimals.
    PrintF32,
    /// `(bool)`: print `0` or `1`.
    PrintB,
    /// `(string)`: print a line.
    PrintStr,
    /// `(message)`: abort the program with a runtime error.
    Panic,
}

impl Builtin {
    /// Every builtin.
    pub const ALL: [Builtin; 23] = {
        use Elem::{Bool, F32, I32};
        [
            Builtin::AllocMat(F32),
            Builtin::AllocMat(I32),
            Builtin::AllocMat(Bool),
            Builtin::ReadMat(F32),
            Builtin::ReadMat(I32),
            Builtin::ReadMat(Bool),
            Builtin::WriteMat(F32),
            Builtin::WriteMat(I32),
            Builtin::WriteMat(Bool),
            Builtin::Cow(F32),
            Builtin::Cow(I32),
            Builtin::Cow(Bool),
            Builtin::Dim,
            Builtin::Len,
            Builtin::Rank,
            Builtin::RcIncr,
            Builtin::RcDecr,
            Builtin::RcCount,
            Builtin::PrintI32,
            Builtin::PrintF32,
            Builtin::PrintB,
            Builtin::PrintStr,
            Builtin::Panic,
        ]
    };

    /// Name of the function in the emitted C runtime.
    pub fn c_name(self) -> &'static str {
        use Elem::{Bool, F32, I32};
        match self {
            Builtin::AllocMat(F32) => "alloc_mat_f32",
            Builtin::AllocMat(I32) => "alloc_mat_i32",
            Builtin::AllocMat(Bool) => "alloc_mat_b",
            Builtin::ReadMat(F32) => "read_mat_f32",
            Builtin::ReadMat(I32) => "read_mat_i32",
            Builtin::ReadMat(Bool) => "read_mat_b",
            Builtin::WriteMat(F32) => "write_mat_f32",
            Builtin::WriteMat(I32) => "write_mat_i32",
            Builtin::WriteMat(Bool) => "write_mat_b",
            Builtin::Cow(F32) => "cow_f32",
            Builtin::Cow(I32) => "cow_i32",
            Builtin::Cow(Bool) => "cow_b",
            Builtin::Dim => "dim",
            Builtin::Len => "len",
            Builtin::Rank => "rank",
            Builtin::RcIncr => "rc_incr",
            Builtin::RcDecr => "rc_decr",
            Builtin::RcCount => "rc_count",
            Builtin::PrintI32 => "print_i32",
            Builtin::PrintF32 => "print_f32",
            Builtin::PrintB => "print_b",
            Builtin::PrintStr => "print_str",
            Builtin::Panic => "cmm_panic",
        }
    }

    /// The builtin emitted C calls `name`, if any.
    pub fn from_c_name(name: &str) -> Option<Builtin> {
        Builtin::ALL.into_iter().find(|b| b.c_name() == name)
    }

    /// Number of arguments; `None` for the allocators, which take one per
    /// dimension.
    pub fn arity(self) -> Option<usize> {
        match self {
            Builtin::AllocMat(_) => None,
            Builtin::WriteMat(_) | Builtin::Dim => Some(2),
            _ => Some(1),
        }
    }

    /// Whether a call neither has an effect nor reads anything a call in
    /// between could change: evaluating it twice in a row is
    /// indistinguishable from evaluating it once.
    pub fn is_pure(self) -> bool {
        matches!(self, Builtin::Dim | Builtin::Len | Builtin::Rank)
    }
}

/// Scalar / handle types of IR variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CType {
    /// `int`.
    Int,
    /// `float`.
    Float,
    /// `bool` (`unsigned char` in C).
    Bool,
    /// Handle to a reference-counted matrix buffer of the element type.
    Buf(Elem),
    /// No value (function returns).
    Void,
}

impl CType {
    /// C spelling of the type.
    pub fn c_name(self) -> &'static str {
        match self {
            CType::Int => "int",
            CType::Float => "float",
            CType::Bool => "unsigned char",
            CType::Buf(_) => "cmm_mat*",
            CType::Void => "void",
        }
    }
}

/// Binary operators (scalar semantics; all matrix ops are already loops at
/// this level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl IrBinOp {
    /// C spelling.
    pub fn c_symbol(self) -> &'static str {
        match self {
            IrBinOp::Add => "+",
            IrBinOp::Sub => "-",
            IrBinOp::Mul => "*",
            IrBinOp::Div => "/",
            IrBinOp::Rem => "%",
            IrBinOp::Lt => "<",
            IrBinOp::Le => "<=",
            IrBinOp::Gt => ">",
            IrBinOp::Ge => ">=",
            IrBinOp::Eq => "==",
            IrBinOp::Ne => "!=",
            IrBinOp::And => "&&",
            IrBinOp::Or => "||",
        }
    }

    /// Whether the result is boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            IrBinOp::Lt | IrBinOp::Le | IrBinOp::Gt | IrBinOp::Ge | IrBinOp::Eq | IrBinOp::Ne
        )
    }
}

/// IR expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum IrExpr {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f32),
    /// Boolean constant.
    Bool(bool),
    /// String constant (file names).
    Str(String),
    /// Variable read.
    Var(Name),
    /// Binary operation.
    Bin(IrBinOp, Box<IrExpr>, Box<IrExpr>),
    /// Arithmetic negation.
    Neg(Box<IrExpr>),
    /// Logical not.
    Not(Box<IrExpr>),
    /// Element load `buf[idx]` (flat, row-major).
    Load {
        /// Element type of the buffer.
        elem: Elem,
        /// Buffer expression (usually a variable).
        buf: Box<IrExpr>,
        /// Flat element index.
        idx: Box<IrExpr>,
    },
    /// Call to a user function.
    Call(Name, Vec<IrExpr>),
    /// Call to a runtime builtin.
    Builtin(Builtin, Vec<IrExpr>),
    /// Truncate to int.
    CastInt(Box<IrExpr>),
    /// Convert to float.
    CastFloat(Box<IrExpr>),
    /// Tuple construction (multi-value returns for the tuples extension;
    /// emitted C returns a per-function struct by value).
    Tuple(Vec<IrExpr>),
}

impl IrExpr {
    /// `a op b` convenience constructor.
    pub fn bin(op: IrBinOp, a: IrExpr, b: IrExpr) -> IrExpr {
        IrExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: IrExpr, b: IrExpr) -> IrExpr {
        IrExpr::bin(IrBinOp::Add, a, b)
    }

    /// `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: IrExpr, b: IrExpr) -> IrExpr {
        IrExpr::bin(IrBinOp::Mul, a, b)
    }

    /// Variable reference (shares `name`).
    pub fn var(name: &Name) -> IrExpr {
        IrExpr::Var(name.clone())
    }

    /// Substitute every occurrence of variable `name` with `replacement`
    /// (used by `split`/`unroll` to rewrite loop indices, §V: "the
    /// transformation also replaces instances of j with the appropriate
    /// expression jout * 4 + jin").
    pub fn substitute(&self, name: &str, replacement: &IrExpr) -> IrExpr {
        match self {
            IrExpr::Var(v) if **v == *name => replacement.clone(),
            IrExpr::Int(_) | IrExpr::Float(_) | IrExpr::Bool(_) | IrExpr::Str(_) | IrExpr::Var(_) => {
                self.clone()
            }
            IrExpr::Bin(op, a, b) => IrExpr::Bin(
                *op,
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            IrExpr::Neg(e) => IrExpr::Neg(Box::new(e.substitute(name, replacement))),
            IrExpr::Not(e) => IrExpr::Not(Box::new(e.substitute(name, replacement))),
            IrExpr::Load { elem, buf, idx } => IrExpr::Load {
                elem: *elem,
                buf: Box::new(buf.substitute(name, replacement)),
                idx: Box::new(idx.substitute(name, replacement)),
            },
            IrExpr::Call(f, args) => IrExpr::Call(
                f.clone(),
                args.iter().map(|a| a.substitute(name, replacement)).collect(),
            ),
            IrExpr::Builtin(b, args) => IrExpr::Builtin(
                *b,
                args.iter().map(|a| a.substitute(name, replacement)).collect(),
            ),
            IrExpr::CastInt(e) => IrExpr::CastInt(Box::new(e.substitute(name, replacement))),
            IrExpr::CastFloat(e) => IrExpr::CastFloat(Box::new(e.substitute(name, replacement))),
            IrExpr::Tuple(es) => {
                IrExpr::Tuple(es.iter().map(|e| e.substitute(name, replacement)).collect())
            }
        }
    }

    /// Whether variable `name` occurs in the expression.
    pub fn uses_var(&self, name: &str) -> bool {
        match self {
            IrExpr::Var(v) => **v == *name,
            IrExpr::Int(_) | IrExpr::Float(_) | IrExpr::Bool(_) | IrExpr::Str(_) => false,
            IrExpr::Bin(_, a, b) => a.uses_var(name) || b.uses_var(name),
            IrExpr::Neg(e) | IrExpr::Not(e) | IrExpr::CastInt(e) | IrExpr::CastFloat(e) => {
                e.uses_var(name)
            }
            IrExpr::Load { buf, idx, .. } => buf.uses_var(name) || idx.uses_var(name),
            IrExpr::Call(_, args) | IrExpr::Builtin(_, args) => {
                args.iter().any(|a| a.uses_var(name))
            }
            IrExpr::Tuple(es) => es.iter().any(|e| e.uses_var(name)),
        }
    }
}

/// A counted `for` loop: `for (var = lo; var < hi; var++)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    /// Loop index variable.
    pub var: Name,
    /// Lower bound (inclusive).
    pub lo: IrExpr,
    /// Upper bound (exclusive).
    pub hi: IrExpr,
    /// Body statements.
    pub body: Vec<IrStmt>,
    /// Distribute iterations over the thread pool (`#pragma omp parallel
    /// for` in C).
    pub parallel: bool,
    /// Execute with 4-lane vectors (SSE in C).
    pub vector: bool,
    /// Self-scheduling policy for a parallel loop. `None` defers to the
    /// process default (interpreter: [`crate::Interp`]'s configured
    /// schedule; emitted C: plain `#pragma omp parallel for`). Only
    /// meaningful when `parallel` is set.
    pub schedule: Option<cmm_forkjoin::Schedule>,
}

/// A whole-matrix operation the VM tier runs as one call into
/// [`crate::kernels`], and the emitted C as one call of its prelude's
/// kernel (see [`IrStmt::Kernel`]).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelCall {
    /// `dst = a · b` on rank-2 buffers of `elem`: `a` is `m × k`, `b` is
    /// `k × n`, and `dst` is an already allocated `m × n` buffer distinct
    /// from both operands (which may alias each other).
    MatMul {
        /// Result buffer variable.
        dst: Name,
        /// Left operand buffer variable.
        a: Name,
        /// Right operand buffer variable.
        b: Name,
        /// Element type of all three buffers (`I32` or `F32`).
        elem: Elem,
        /// Whether the nest's outer loop is parallel: the kernel then
        /// spreads row tiles over the pool, else runs on the caller.
        parallel: bool,
    },
}

/// IR statements.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStmt {
    /// Variable declaration.
    Decl {
        /// Variable type.
        ty: CType,
        /// Variable name.
        name: Name,
        /// Optional initializer.
        init: Option<IrExpr>,
    },
    /// Scalar / handle assignment.
    Assign {
        /// Target variable.
        name: Name,
        /// Value.
        value: IrExpr,
    },
    /// Element store `buf[idx] = value`.
    Store {
        /// Element type of the buffer.
        elem: Elem,
        /// Buffer expression.
        buf: IrExpr,
        /// Flat element index.
        idx: IrExpr,
        /// Stored value.
        value: IrExpr,
    },
    /// Counted loop.
    For(ForLoop),
    /// `while` loop.
    While {
        /// Condition.
        cond: IrExpr,
        /// Body.
        body: Vec<IrStmt>,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: IrExpr,
        /// Then branch.
        then_b: Vec<IrStmt>,
        /// Else branch.
        else_b: Vec<IrStmt>,
    },
    /// Expression for effect (runtime calls).
    Expr(IrExpr),
    /// Function return.
    Return(Option<IrExpr>),
    /// Cilk-style spawn (the ext-cilk extension): evaluate the arguments
    /// now, defer the call; it runs concurrently with its siblings at the
    /// next [`IrStmt::Sync`] (or the function's implicit sync on return).
    /// Emitted C uses the serial elision (a plain call at the spawn
    /// point), which is a legal Cilk schedule.
    Spawn {
        /// Variable receiving the result at sync (`None` for void calls).
        target: Option<Name>,
        /// Whether the target is a reference-counted buffer (the old
        /// handle is released when the result lands).
        target_is_buf: bool,
        /// Function to call.
        func: Name,
        /// Argument expressions (evaluated at the spawn point).
        args: Vec<IrExpr>,
    },
    /// Wait for all outstanding spawns of the current function and bind
    /// their results.
    Sync,
    /// Unpack a tuple-returning call into pre-declared variables.
    UnpackCall {
        /// Target variable names, one per tuple component.
        targets: Vec<Name>,
        /// The call expression (must evaluate to a tuple).
        call: IrExpr,
    },
    /// Emitted as a C comment; ignored by the interpreter.
    Comment(String),
    /// Scope block.
    Block(Vec<IrStmt>),
    /// A kernel call together with the scalar loop nest that defines it.
    ///
    /// `fallback` is the statement's meaning: the tree-walking tier, the
    /// snapshot printer, the loop transformations and the cost probe
    /// treat the statement as exactly those statements, in place, in the
    /// enclosing scope. The VM tier and the C emitter look at `call`, and
    /// only as a faster way to the same buffer contents: the VM also to
    /// the same fuel and the same errors, running `fallback` whenever the
    /// operands are not what `call` describes; the C emitter prints one
    /// call of its prelude's kernel for `I32` and `F32` products.
    Kernel {
        /// The operation `fallback` computes.
        call: KernelCall,
        /// The scalar nest (today always one `For`).
        fallback: Vec<IrStmt>,
    },
}

impl IrStmt {
    /// Substitute a variable throughout the statement (loop bodies
    /// included; a nested loop redefining `name` shadows it and stops the
    /// substitution).
    pub fn substitute(&self, name: &str, replacement: &IrExpr) -> IrStmt {
        let sub_body = |body: &[IrStmt]| -> Vec<IrStmt> {
            body.iter().map(|s| s.substitute(name, replacement)).collect()
        };
        match self {
            IrStmt::Decl { ty, name: n, init } => IrStmt::Decl {
                ty: *ty,
                name: n.clone(),
                init: init.as_ref().map(|e| e.substitute(name, replacement)),
            },
            IrStmt::Assign { name: n, value } => IrStmt::Assign {
                name: n.clone(),
                value: value.substitute(name, replacement),
            },
            IrStmt::Store { elem, buf, idx, value } => IrStmt::Store {
                elem: *elem,
                buf: buf.substitute(name, replacement),
                idx: idx.substitute(name, replacement),
                value: value.substitute(name, replacement),
            },
            IrStmt::For(f) => {
                if *f.var == *name {
                    // Shadowed: only the bounds see the outer variable.
                    IrStmt::For(ForLoop {
                        var: f.var.clone(),
                        lo: f.lo.substitute(name, replacement),
                        hi: f.hi.substitute(name, replacement),
                        body: f.body.clone(),
                        parallel: f.parallel,
                        vector: f.vector,
                        schedule: f.schedule,
                    })
                } else {
                    IrStmt::For(ForLoop {
                        var: f.var.clone(),
                        lo: f.lo.substitute(name, replacement),
                        hi: f.hi.substitute(name, replacement),
                        body: sub_body(&f.body),
                        parallel: f.parallel,
                        vector: f.vector,
                        schedule: f.schedule,
                    })
                }
            }
            IrStmt::While { cond, body } => IrStmt::While {
                cond: cond.substitute(name, replacement),
                body: sub_body(body),
            },
            IrStmt::If { cond, then_b, else_b } => IrStmt::If {
                cond: cond.substitute(name, replacement),
                then_b: sub_body(then_b),
                else_b: sub_body(else_b),
            },
            IrStmt::Expr(e) => IrStmt::Expr(e.substitute(name, replacement)),
            IrStmt::Return(e) => {
                IrStmt::Return(e.as_ref().map(|e| e.substitute(name, replacement)))
            }
            IrStmt::Spawn {
                target,
                target_is_buf,
                func,
                args,
            } => IrStmt::Spawn {
                target: target.clone(),
                target_is_buf: *target_is_buf,
                func: func.clone(),
                args: args.iter().map(|a| a.substitute(name, replacement)).collect(),
            },
            IrStmt::Sync => IrStmt::Sync,
            IrStmt::UnpackCall { targets, call } => IrStmt::UnpackCall {
                targets: targets.clone(),
                call: call.substitute(name, replacement),
            },
            IrStmt::Comment(c) => IrStmt::Comment(c.clone()),
            IrStmt::Block(b) => IrStmt::Block(sub_body(b)),
            // Operand names are buffer variables, never loop indices.
            IrStmt::Kernel { call, fallback } => IrStmt::Kernel {
                call: call.clone(),
                fallback: sub_body(fallback),
            },
        }
    }
}

/// A function in the IR program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Function name.
    pub name: Name,
    /// Parameters (name, type).
    pub params: Vec<(Name, CType)>,
    /// Return type.
    pub ret: CType,
    /// For tuple-returning functions: the component types (emitted C
    /// returns a struct by value; `ret` is ignored when this is set).
    pub ret_tuple: Option<Vec<CType>>,
    /// Body.
    pub body: Vec<IrStmt>,
}

/// A whole IR program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProgram {
    /// Functions; execution starts at `main`.
    pub functions: Vec<IrFunction>,
}

impl IrProgram {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&IrFunction> {
        self.functions.iter().find(|f| *f.name == *name)
    }
}
