//! Abstract syntax of extended CMINUS.
//!
//! One coherent AST covers the host C subset plus every extension's
//! constructs, each variant tagged below with the extension that owns it
//! (`[ext-matrix]`, `[ext-tuples]`, `[ext-rcptr]`, `[ext-transform]`). In
//! the paper each extension contributes its own abstract syntax to the
//! composed translator; here physical modularity lives at the
//! grammar-fragment / AG-spec / registry level (see DESIGN.md), and a
//! construct whose extension is not enabled cannot be parsed or checked.

pub mod builder;
mod diag;
pub mod display;
mod types;

pub use diag::{Diag, Severity};
pub use types::{ElemKind, Type};

/// Source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Line number, 1-based (0 for synthesized nodes).
    pub line: u32,
    /// Column number, 1-based.
    pub col: u32,
}

impl Span {
    /// Span for compiler-synthesized nodes.
    pub const SYNTH: Span = Span { line: 0, col: 0 };

    /// Construct a span.
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A complete translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Function definitions, in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Return type ([`Type::Tuple`] for tuple-returning functions).
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body block.
    pub body: Block,
    /// Definition site.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// A brace-delimited statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Variable declaration with optional initializer.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Initializer.
        init: Option<Expr>,
        /// Source position.
        span: Span,
    },
    /// Assignment, optionally carrying `[ext-transform]` directives
    /// (`x = with(...) ... transform split j by 4, jin, jout. ...;`).
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
        /// `[ext-transform]` loop transformations to apply to the loops
        /// generated for this statement (§V).
        transforms: Vec<TransformSpec>,
        /// Source position.
        span: Span,
    },
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
        /// Source position.
        span: Span,
    },
    /// `while (cond) { .. }`.
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source position.
        span: Span,
    },
    /// C-style `for (init; cond; step) { .. }`.
    For {
        /// Initialization statement (decl or assignment).
        init: Box<Stmt>,
        /// Continuation condition.
        cond: Expr,
        /// Step statement.
        step: Box<Stmt>,
        /// Loop body.
        body: Block,
        /// Source position.
        span: Span,
    },
    /// `return expr;` / `return;`.
    Return {
        /// Returned value.
        value: Option<Expr>,
        /// Source position.
        span: Span,
    },
    /// Expression evaluated for effect (e.g. a `void` call).
    ExprStmt {
        /// The expression.
        expr: Expr,
        /// Source position.
        span: Span,
    },
    /// Nested block scope.
    Nested(Block),
    /// `[ext-cilk]` `spawn x = f(args);` / `spawn f(args);` — arguments
    /// evaluate now, the call runs concurrently; the target receives the
    /// result at the next `sync` (§VIII future work, implemented).
    Spawn {
        /// Variable receiving the result (`None` for void spawns).
        target: Option<String>,
        /// The spawned call (must be a function call).
        call: Expr,
        /// Source position.
        span: Span,
    },
    /// `[ext-cilk]` `sync;` — wait for this function's outstanding spawns.
    Sync {
        /// Source position.
        span: Span,
    },
}

impl Stmt {
    /// Source position of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::ExprStmt { span, .. }
            | Stmt::Spawn { span, .. }
            | Stmt::Sync { span } => *span,
            Stmt::Nested(b) => b.stmts.first().map(Stmt::span).unwrap_or(Span::SYNTH),
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Plain variable.
    Var(String, Span),
    /// Indexed matrix element / region (`scores[a:b] = ...`), any of the
    /// four `[ext-matrix]` indexing modes.
    Index {
        /// Matrix variable.
        base: String,
        /// Subscripts.
        indices: Vec<IndexExpr>,
        /// Source position.
        span: Span,
    },
    /// `[ext-tuples]` destructuring target (`(a, b, c) = f();`).
    Tuple(Vec<String>, Span),
}

impl LValue {
    /// Source position.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, s) | LValue::Tuple(_, s) => *s,
            LValue::Index { span, .. } => *span,
        }
    }
}

/// Binary operators (overloading resolved during type checking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` — scalar or element-wise matrix addition.
    Add,
    /// `-`.
    Sub,
    /// `*` — scalar multiplication, or matrix multiplication on rank-2
    /// matrices (§III-A2).
    Mul,
    /// `.*` — the extension's dedicated element-wise multiplication.
    ElemMul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `<` (matrix comparisons produce boolean matrices).
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `&&` (scalars and boolean matrices).
    And,
    /// `||`.
    Or,
}

impl BinOp {
    /// Whether this is a comparison operator.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }

    /// C spelling of the operator.
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul | BinOp::ElemMul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Fold operators of the `[ext-matrix]` `fold` with-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldKind {
    /// `+`.
    Add,
    /// `*`.
    Mul,
    /// `max`.
    Max,
    /// `min`.
    Min,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Span),
    /// Float literal.
    FloatLit(f32, Span),
    /// Boolean literal.
    BoolLit(bool, Span),
    /// String literal (file names for `readMatrix`/`writeMatrix`).
    StrLit(String, Span),
    /// Variable reference.
    Var(String, Span),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// Binary operation (operator overloading resolved by types).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// Function or builtin call.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source position.
        span: Span,
    },
    /// C-style cast `(float) e`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// `[ext-matrix]` indexing `m[i, a:b, :, mask]` (§III-A3).
    Index {
        /// Matrix expression.
        base: Box<Expr>,
        /// Subscripts.
        indices: Vec<IndexExpr>,
        /// Source position.
        span: Span,
    },
    /// `[ext-matrix]` `end` — last index of the dimension, valid only
    /// inside a subscript.
    End(Span),
    /// `[ext-matrix]` range vector `(lo :: hi)` (Fig 8 line 27).
    RangeVec {
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// `[ext-tuples]` anonymous tuple `(a, b, c)`.
    Tuple(Vec<Expr>, Span),
    /// `[ext-matrix]` with-loop (§III-A4).
    With {
        /// Generator: bounds and index variables (boxed: it is the widest
        /// payload and keeps every `Expr` at 64 bytes).
        generator: Box<Generator>,
        /// `genarray` or `fold` operation.
        op: WithOp,
        /// Source position.
        span: Span,
    },
    /// `[ext-matrix]` `matrixMap(f, m, [dims])` (§III-A5).
    MatrixMap {
        /// Mapped function name.
        func: String,
        /// Matrix to map over.
        matrix: Box<Expr>,
        /// Dimensions the function is applied to.
        dims: Vec<i64>,
        /// Source position.
        span: Span,
    },
    /// `[ext-matrix]` `init(Matrix int <2>, 721, 1440)` — fresh
    /// zero-initialized matrix of the given type and dimension sizes.
    Init {
        /// The matrix type being constructed.
        ty: Type,
        /// Dimension size expressions (must match the type's rank).
        dims: Vec<Expr>,
        /// Source position.
        span: Span,
    },
    /// `[ext-rcptr]` allocation `rcAlloc(type, n)`: a reference-counted
    /// buffer of `n` elements (§III-B).
    RcAlloc {
        /// Element type.
        elem: ElemKind,
        /// Element count.
        len: Box<Expr>,
        /// Source position.
        span: Span,
    },
}

impl Expr {
    /// Source position of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit(_, s)
            | Expr::FloatLit(_, s)
            | Expr::BoolLit(_, s)
            | Expr::StrLit(_, s)
            | Expr::Var(_, s)
            | Expr::End(s)
            | Expr::Tuple(_, s) => *s,
            Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Call { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Index { span, .. }
            | Expr::RangeVec { span, .. }
            | Expr::With { span, .. }
            | Expr::MatrixMap { span, .. }
            | Expr::Init { span, .. }
            | Expr::RcAlloc { span, .. } => *span,
        }
    }
}

/// With-loop generator `([l..] <= [i..] <(=) [u..])`.
#[derive(Debug, Clone, PartialEq)]
pub struct Generator {
    /// Lower bounds, one per index variable.
    pub lower: Vec<Expr>,
    /// Bound index variables.
    pub vars: Vec<String>,
    /// Upper bounds, one per index variable.
    pub upper: Vec<Expr>,
    /// True if the upper comparison was `<=` (inclusive) rather than `<`.
    pub upper_inclusive: bool,
}

/// The operation part of a with-loop.
#[derive(Debug, Clone, PartialEq)]
pub enum WithOp {
    /// `genarray([shape..], body)`.
    Genarray {
        /// Result shape expressions.
        shape: Vec<Expr>,
        /// Element expression (sees the generator variables).
        body: Box<Expr>,
    },
    /// `fold(op, base, body)`.
    Fold {
        /// Fold operator.
        op: FoldKind,
        /// Base value.
        base: Box<Expr>,
        /// Folded expression (sees the generator variables).
        body: Box<Expr>,
    },
    /// `modarray(src, body)` — SAC's third with-loop operation (the §VIII
    /// future-work direction of adding more constructs from the source
    /// languages): the result is a copy of `src` with the generator
    /// positions replaced by `body`.
    Modarray {
        /// Source matrix (defines the result's shape and the untouched
        /// elements).
        src: Box<Expr>,
        /// Replacement expression (sees the generator variables).
        body: Box<Expr>,
    },
}

/// One subscript of an indexing expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexExpr {
    /// Single index (scalar int) *or* logical mask (rank-1 bool matrix);
    /// disambiguated by the type checker.
    At(Expr),
    /// Inclusive range `a : b` (boxed so a subscript is no wider than an
    /// `Expr`).
    Range(Box<Expr>, Box<Expr>),
    /// Whole dimension `:`.
    All,
}

/// `[ext-transform]` loop transformation directives (§V).
#[derive(Debug, Clone, PartialEq)]
pub enum TransformSpec {
    /// `split j by 4, jin, jout` — split loop `index` into an outer loop
    /// of `extent/by` and an inner loop of `by`.
    Split {
        /// Loop index to split.
        index: String,
        /// Split factor.
        by: i64,
        /// New inner index name.
        inner: String,
        /// New outer index name.
        outer: String,
    },
    /// `vectorize jin` — execute the loop with 4-lane vectors (§V uses
    /// Intel SSE with 4 × 32-bit floats).
    Vectorize {
        /// Loop index to vectorize.
        index: String,
    },
    /// `parallelize i` — distribute the loop over the thread pool
    /// (`#pragma omp parallel for` in emitted C).
    Parallelize {
        /// Loop index to parallelize.
        index: String,
    },
    /// `reorder i, j, k` — permute a perfect loop nest into this order.
    Reorder {
        /// Index names from outermost to innermost.
        order: Vec<String>,
    },
    /// `interchange i, j` — swap two perfectly nested loops.
    Interchange {
        /// Outer index.
        a: String,
        /// Inner index.
        b: String,
    },
    /// `unroll k by 4` — unroll the loop body.
    Unroll {
        /// Loop index to unroll.
        index: String,
        /// Unroll factor.
        by: i64,
    },
    /// `tile i, j by 32, 32` — the §V composite: two splits plus a
    /// reorder.
    Tile {
        /// First (outer) index.
        i: String,
        /// Second (inner) index.
        j: String,
        /// Tile size for `i`.
        bi: i64,
        /// Tile size for `j`.
        bj: i64,
    },
    /// `schedule i dynamic, 16` — parallelize loop `index` and pin its
    /// self-scheduling policy (static / dynamic / guided), overriding the
    /// process default from `cmmc run --schedule`.
    Schedule {
        /// Loop index to parallelize and schedule.
        index: String,
        /// Scheduling policy.
        kind: ScheduleKind,
        /// Chunk size: iterations per claim for `dynamic`, minimum claim
        /// for `guided`; `None` picks the backend default. Always `None`
        /// for `static` (the grammar has no chunk form for it).
        chunk: Option<i64>,
    },
}

/// Surface scheduling policy of a `schedule(...)` directive. Mirrors
/// `cmm_forkjoin::Schedule` without the chunk payloads so `cmm-ast` stays
/// free of runtime dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// One contiguous chunk per participant.
    Static,
    /// Fixed-size chunks claimed on demand.
    Dynamic,
    /// Exponentially decreasing chunks.
    Guided,
}

impl TransformSpec {
    /// The loop indices this transformation refers to (used by the §V
    /// semantic check that they correspond to actual loops).
    pub fn referenced_indices(&self) -> Vec<&str> {
        match self {
            TransformSpec::Split { index, .. }
            | TransformSpec::Vectorize { index }
            | TransformSpec::Parallelize { index }
            | TransformSpec::Unroll { index, .. }
            | TransformSpec::Schedule { index, .. } => vec![index],
            TransformSpec::Reorder { order } => order.iter().map(|s| s.as_str()).collect(),
            TransformSpec::Interchange { a, b } => vec![a, b],
            TransformSpec::Tile { i, j, .. } => vec![i, j],
        }
    }
}

#[cfg(test)]
mod tests;
