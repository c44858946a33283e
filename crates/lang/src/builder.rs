//! Source → AST construction: the semantic actions of the composed parser.
//!
//! [`Handlers`] gives every production of a composition — host and
//! extension — the [`Rule`] that builds its value, resolved from the
//! production's name once per composition. [`parse_program`] runs the
//! parser with those rules as its reducer, so the AST is built as the
//! parser reduces: there is no intermediate tree to walk or free. A unit
//! production whose value is its child's costs the driver nothing.
//! [`ag_fragment`] derives each fragment's attribute-grammar module from
//! the same rules, so a production without one fails the modular
//! well-definedness analysis (§VI-B) as well as any program that uses it.
//!
//! Structural validation that is not expressible in an LALR grammar
//! happens here: assignment targets must be lvalues, with-loop generator
//! variable lists must be identifiers, `matrixMap` dimension lists must be
//! integer literals, matrix ranks must be literals, tuple element counts,
//! etc. Such an error does not stop the parse. It travels up as the value
//! of the production that raised it, and each rule reads its children in
//! source order, so the error reported is the first the program's
//! left-to-right, outside-in reading reaches — and a syntax error anywhere
//! wins over it.

use std::borrow::Cow;
use std::vec::Drain;

use cmm_ag::{AgFragment, AttrKind};
use cmm_ast::*;
use cmm_grammar::{GrammarFragment, GrammarView, Lexeme, ParseError, Parser, Reducer, Sym};

/// AST-construction failure with a source position.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildError {
    /// What is malformed.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.span, self.message)
    }
}

impl std::error::Error for BuildError {}

type BResult<T> = Result<T, BuildError>;

fn err<T>(span: Span, message: impl Into<String>) -> BResult<T> {
    Err(BuildError {
        message: message.into(),
        span,
    })
}

/// How a production's value is built from its children's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// A unit production: its child's value.
    Forward,
    /// The value of the middle child (`( e )`, `[ list ]`).
    Inner,
    /// A production no rule was written for: an error when reduced.
    Unhandled,
    // --- lists ---------------------------------------------------------
    /// `x` → `[x]`.
    ListOne,
    /// `list [sep] x` → `list ++ [x]`.
    ListMore,
    NoParams,
    NoStmts,
    NoArgs,
    // --- top level -------------------------------------------------------
    Program,
    Function,
    Param,
    // --- types -------------------------------------------------------------
    Scalar(Scalar),
    MatrixType,
    TupleType,
    RcType,
    // --- statements ----------------------------------------------------------
    Block,
    Decl,
    DeclInit,
    Assign,
    AssignTransform,
    ExprStmt,
    If,
    IfElse,
    While,
    For,
    Return,
    ReturnVoid,
    Nested,
    Incr,
    SpawnAssign,
    SpawnCall,
    Sync,
    // --- transform clause ------------------------------------------------------
    Split,
    Vectorize,
    Parallelize,
    Reorder,
    Interchange,
    Unroll,
    Tile,
    Schedule(ScheduleKind, bool),
    // --- expressions -------------------------------------------------------------
    Binary(BinOp),
    Unary(UnOp),
    Cast,
    Int,
    Float,
    Str,
    Bool(bool),
    Var,
    Call,
    Index,
    At,
    Range,
    All,
    End,
    With,
    Upper(bool),
    Genarray,
    Fold,
    Modarray,
    FoldOp(FoldKind),
    MatrixMap,
    Init,
    Tuple,
    RcAlloc,
}

/// The scalar types a type production can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scalar {
    Int,
    Float,
    Bool,
    Void,
}

/// The rule of the production named `name`.
fn rule(name: &str) -> Rule {
    match name {
        "expr_top" | "or_one" | "and_one" | "cmp_one" | "add_one" | "mul_one" | "unary_post"
        | "post_primary" | "item_func" | "params_some" | "args_some" => Rule::Forward,
        "prim_paren" | "bracketed" => Rule::Inner,
        "items_one" | "params_one" | "typelist_one" | "exprs_one" | "idx_one" | "tlist_one"
        | "idlist_one" => Rule::ListOne,
        "items_more" | "params_more" | "typelist_more" | "stmts_more" | "exprs_more"
        | "idx_more" | "tlist_more" | "idlist_more" => Rule::ListMore,
        "params_none" => Rule::NoParams,
        "stmts_none" => Rule::NoStmts,
        "args_none" => Rule::NoArgs,
        "program" => Rule::Program,
        "func_def" => Rule::Function,
        "param" => Rule::Param,
        "type_int" => Rule::Scalar(Scalar::Int),
        "type_float" => Rule::Scalar(Scalar::Float),
        "type_bool" => Rule::Scalar(Scalar::Bool),
        "type_void" => Rule::Scalar(Scalar::Void),
        // [ext-matrix] Matrix elem <rank>
        "type_matrix" => Rule::MatrixType,
        // [ext-tuples] (T1, T2, ...)
        "type_tuple" => Rule::TupleType,
        // [ext-rcptr] rc<elem>
        "type_rc" => Rule::RcType,
        "block" => Rule::Block,
        "stmt_decl" => Rule::Decl,
        "stmt_decl_init" | "forinit_decl" => Rule::DeclInit,
        "stmt_assign" | "forinit_assign" | "forstep_assign" => Rule::Assign,
        // [ext-transform] assignment with transform clause (Fig 9)
        "stmt_assign_transform" => Rule::AssignTransform,
        "stmt_expr" => Rule::ExprStmt,
        "stmt_if" => Rule::If,
        "stmt_if_else" => Rule::IfElse,
        "stmt_while" => Rule::While,
        "stmt_for" => Rule::For,
        "stmt_return" => Rule::Return,
        "stmt_return_void" => Rule::ReturnVoid,
        "stmt_block" => Rule::Nested,
        "forstep_incr" => Rule::Incr,
        // [ext-cilk] spawn / sync
        "stmt_spawn_assign" => Rule::SpawnAssign,
        "stmt_spawn_call" => Rule::SpawnCall,
        "stmt_sync" => Rule::Sync,
        // [ext-transform] directives
        "t_split" => Rule::Split,
        "t_vectorize" => Rule::Vectorize,
        "t_parallelize" => Rule::Parallelize,
        "t_reorder" => Rule::Reorder,
        "t_interchange" => Rule::Interchange,
        "t_unroll" => Rule::Unroll,
        "t_tile" => Rule::Tile,
        "t_schedule_static" => Rule::Schedule(ScheduleKind::Static, false),
        "t_schedule_dynamic" => Rule::Schedule(ScheduleKind::Dynamic, false),
        "t_schedule_dynamic_chunk" => Rule::Schedule(ScheduleKind::Dynamic, true),
        "t_schedule_guided" => Rule::Schedule(ScheduleKind::Guided, false),
        "t_schedule_guided_chunk" => Rule::Schedule(ScheduleKind::Guided, true),
        "or_more" => Rule::Binary(BinOp::Or),
        "and_more" => Rule::Binary(BinOp::And),
        "cmp_lt" => Rule::Binary(BinOp::Lt),
        "cmp_le" => Rule::Binary(BinOp::Le),
        "cmp_gt" => Rule::Binary(BinOp::Gt),
        "cmp_ge" => Rule::Binary(BinOp::Ge),
        "cmp_eq" => Rule::Binary(BinOp::Eq),
        "cmp_ne" => Rule::Binary(BinOp::Ne),
        "add_plus" => Rule::Binary(BinOp::Add),
        "add_minus" => Rule::Binary(BinOp::Sub),
        "mul_star" => Rule::Binary(BinOp::Mul),
        "mul_slash" => Rule::Binary(BinOp::Div),
        "mul_percent" => Rule::Binary(BinOp::Rem),
        // [ext-matrix] element-wise multiplication.
        "mul_elemwise" => Rule::Binary(BinOp::ElemMul),
        "unary_neg" => Rule::Unary(UnOp::Neg),
        "unary_not" => Rule::Unary(UnOp::Not),
        "unary_cast" => Rule::Cast,
        "prim_int" => Rule::Int,
        "prim_float" => Rule::Float,
        "prim_str" => Rule::Str,
        "prim_true" => Rule::Bool(true),
        "prim_false" => Rule::Bool(false),
        "prim_var" => Rule::Var,
        "prim_call" => Rule::Call,
        // [ext-matrix] indexing, `end`, with-loops, matrixMap, init.
        "post_index" => Rule::Index,
        "idxel_expr" => Rule::At,
        "idxel_range" => Rule::Range,
        "idxel_all" => Rule::All,
        "prim_end" => Rule::End,
        "prim_with" => Rule::With,
        "withupper_le" => Rule::Upper(true),
        "withupper_lt" => Rule::Upper(false),
        "withop_genarray" => Rule::Genarray,
        "withop_fold" => Rule::Fold,
        "withop_modarray" => Rule::Modarray,
        "foldop_add" => Rule::FoldOp(FoldKind::Add),
        "foldop_mul" => Rule::FoldOp(FoldKind::Mul),
        "foldop_max" => Rule::FoldOp(FoldKind::Max),
        "foldop_min" => Rule::FoldOp(FoldKind::Min),
        "prim_matrixmap" => Rule::MatrixMap,
        "prim_init" => Rule::Init,
        // [ext-tuples] anonymous tuple.
        "prim_tuple" => Rule::Tuple,
        // [ext-rcptr] rcAlloc.
        "prim_rcalloc" => Rule::RcAlloc,
        _ => Rule::Unhandled,
    }
}

/// What an unhandled production of nonterminal `lhs` is called in its
/// error message.
fn category(lhs: &str) -> Cow<'static, str> {
    Cow::Borrowed(match lhs {
        "Program" => "program",
        "ItemList" | "Item" | "Function" => "item",
        "ParamsOpt" | "ParamList" | "Param" => "parameter",
        "Type" => "type",
        "TypeList" => "type-list",
        "Block" => "block",
        "StmtList" => "statement-list",
        "Stmt" => "statement",
        "ForInit" => "for-init",
        "ForStep" => "for-step",
        "TransformList" => "transform-list",
        "Transform" => "transform",
        "IdListT" => "id-list",
        "Expr" | "OrExpr" | "AndExpr" | "CmpExpr" | "AddExpr" | "MulExpr" | "UnaryExpr"
        | "PostfixExpr" | "Primary" => "expression",
        "ArgsOpt" => "argument",
        "ExprList" => "expression-list",
        "IndexList" => "index-list",
        "IndexElem" => "index",
        "Bracketed" => "bracketed",
        "WithUpper" => "with-upper",
        "WithOperation" => "with-operation",
        "FoldOpSym" => "fold operator",
        other => return Cow::Owned(other.to_string()),
    })
}

/// The build rule of every production of one composition, indexed by
/// production id. Built once per composition (microseconds: one name match
/// per production) and kept beside its parser.
pub struct Handlers {
    rules: Vec<Rule>,
}

impl Handlers {
    /// Resolve every production of `grammar` to its rule.
    pub fn new(grammar: &GrammarView) -> Handlers {
        Handlers {
            rules: (0..grammar.num_productions() as u32)
                .map(|p| rule(grammar.production_name(p)))
                .collect(),
        }
    }
}

/// The attribute-grammar module of `fragment`, derived from its
/// productions and the rules above — the code that builds its AST — so the
/// well-definedness analysis checks what runs. `host` is the fragment it
/// extends, `None` for the host itself.
///
/// A signature is a production's left-hand side and the nonterminals of
/// its right-hand side. A host production with a rule defines `errors` and
/// `ctrans`, and `typeof` on an expression, and passes `env` to each
/// child. An extension production with a rule forwards: what it builds is
/// a host construct. An extension declares the host's `errors` and
/// `ctrans` on each nonterminal it introduces, so its productions there
/// are checked too. A production without a rule gets neither equations
/// nor a forward, and the analysis names it.
pub fn ag_fragment(fragment: &GrammarFragment, host: Option<&GrammarFragment>) -> AgFragment {
    let mut nts: Vec<&str> = Vec::new();
    for p in &fragment.productions {
        if !nts.contains(&p.lhs.as_str()) {
            nts.push(&p.lhs);
        }
    }
    // Nodes of the expression hierarchy carry types.
    let typed = |nt: &str| category(nt) == "expression";
    let mut ag = AgFragment::new(&fragment.name);
    match host {
        None => {
            ag = ag
                .attr("typeof", AttrKind::Synthesized)
                .attr("errors", AttrKind::Synthesized)
                .attr("ctrans", AttrKind::Synthesized)
                .attr("env", AttrKind::Inherited);
            for nt in nts {
                if typed(nt) {
                    ag = ag.occurs("typeof", nt);
                }
                ag = ag
                    .occurs("errors", nt)
                    .occurs("ctrans", nt)
                    .occurs("env", nt);
            }
        }
        Some(host) => {
            for nt in nts
                .into_iter()
                .filter(|nt| host.productions.iter().all(|p| p.lhs != *nt))
            {
                ag = ag.occurs("errors", nt).occurs("ctrans", nt);
            }
        }
    }
    for p in &fragment.productions {
        let children: Vec<&str> = p
            .rhs
            .iter()
            .filter_map(|s| match s {
                Sym::N(nt) => Some(nt.as_str()),
                Sym::T(_) => None,
            })
            .collect();
        ag = ag.production(&p.name, &p.lhs, &children);
        match (rule(&p.name), host) {
            (Rule::Unhandled, _) => {}
            (_, Some(_)) => ag = ag.forward(&p.name),
            (_, None) => {
                ag = ag.syn_eq(&p.name, "errors").syn_eq(&p.name, "ctrans");
                if typed(&p.lhs) {
                    ag = ag.syn_eq(&p.name, "typeof");
                }
                for i in 0..children.len() {
                    ag = ag.inh_eq(&p.name, "env", i);
                }
            }
        }
    }
    ag
}

/// Parse `src` and build its AST as the parser reduces. The outer error is
/// the first scan or syntax error; the inner one is the first construction
/// error, reported only when the whole source parsed. `handlers` must have
/// been built from `parser`'s grammar.
pub fn parse_program(
    parser: &Parser,
    handlers: &Handlers,
    src: &str,
) -> Result<BResult<Program>, ParseError> {
    let mut reducer = AstReducer {
        rules: &handlers.rules,
        grammar: parser.view(),
        src,
    };
    let root = parser.parse_with(src, &mut reducer)?;
    Ok(match root.val {
        Val::Program(program) => Ok(program),
        Val::Err(e) => Err(*e),
        _ => err(
            root.span,
            "malformed parse: the start production is not a program",
        ),
    })
}

/// A built value on the parser's value stack.
enum Val {
    Tok(Lexeme),
    /// A construction error, held back until the parse accepts.
    Err(Box<BuildError>),
    Program(Program),
    Function(Box<Function>),
    Functions(Vec<Function>),
    Param(Param),
    Params(Vec<Param>),
    Type(Type),
    Types(Vec<Type>),
    Block(Block),
    Stmt(Box<Stmt>),
    Stmts(Vec<Stmt>),
    Transform(Box<TransformSpec>),
    Transforms(Vec<TransformSpec>),
    Ids(Vec<String>),
    Expr(Expr),
    Exprs(Vec<Expr>),
    Index(Box<IndexExpr>),
    Indices(Vec<IndexExpr>),
    Upper(bool, Vec<Expr>),
    WithOp(WithOp),
    Fold(FoldKind),
}

/// A value and the span of its first token ([`Span::SYNTH`] if it covers
/// none), which is where diagnostics about it point.
struct Node {
    span: Span,
    val: Val,
}

struct AstReducer<'a> {
    rules: &'a [Rule],
    grammar: &'a GrammarView,
    src: &'a str,
}

impl Reducer for AstReducer<'_> {
    type Value = Node;

    fn shift(&mut self, lexeme: Lexeme) -> Node {
        Node {
            span: Span::new(lexeme.line, lexeme.col),
            val: Val::Tok(lexeme),
        }
    }

    fn reduce(&mut self, prod: u32, children: Drain<'_, Node>) -> Node {
        let span = children
            .as_slice()
            .iter()
            .map(|c| c.span)
            .find(|s| *s != Span::SYNTH)
            .unwrap_or(Span::SYNTH);
        let mut kids = Kids {
            it: children,
            at: 0,
            prod,
            span,
            r: self,
        };
        let val = kids
            .build(self.rules[prod as usize])
            .unwrap_or_else(|e| Val::Err(Box::new(e)));
        Node { span, val }
    }

    fn forwards(&self, prod: u32) -> bool {
        self.rules[prod as usize] == Rule::Forward
    }
}

/// The children of the production being reduced, read in order.
struct Kids<'d, 'a> {
    it: Drain<'d, Node>,
    /// Index of the next child.
    at: usize,
    prod: u32,
    /// The production's first-token span.
    span: Span,
    r: &'d AstReducer<'a>,
}

/// `Kids` methods that take the next child as one kind of value.
macro_rules! take {
    ($($name:ident -> $ty:ty = $variant:ident;)*) => {$(
        fn $name(&mut self) -> BResult<$ty> {
            match self.next()? {
                Val::$variant(x) => Ok(x),
                other => self.unexpected(other),
            }
        }
    )*};
}

impl<'a> Kids<'_, 'a> {
    fn name(&self) -> &'a str {
        self.r.grammar.production_name(self.prod)
    }

    /// An error about the child just read, which the rule did not
    /// expect: only an edited grammar gets here.
    fn malformed<T>(&self, what: &str) -> BResult<T> {
        let (name, at) = (self.name(), self.at - 1);
        err(self.span, format!("malformed {name} node: {what} {at}"))
    }

    fn next(&mut self) -> BResult<Val> {
        self.at += 1;
        match self.it.next() {
            Some(node) => Ok(node.val),
            None => self.malformed("missing child"),
        }
    }

    /// Pass over a token child (a keyword or punctuation).
    fn skip(&mut self) {
        self.at += 1;
        self.it.next();
    }

    /// A held-back error is passed on; any other kind is a production
    /// whose shape its rule does not expect.
    fn unexpected<T>(&self, val: Val) -> BResult<T> {
        match val {
            Val::Err(e) => Err(*e),
            Val::Tok(_) => self.malformed("unexpected token child"),
            _ => self.malformed("unexpected child"),
        }
    }

    fn tok(&mut self) -> BResult<Lexeme> {
        match self.next()? {
            Val::Tok(t) => Ok(t),
            _ => self.malformed("expected token child"),
        }
    }

    fn text(&self, t: Lexeme) -> Cow<'a, str> {
        t.text(self.r.src)
    }

    fn ident(&mut self) -> BResult<String> {
        let t = self.tok()?;
        Ok(self.text(t).into_owned())
    }

    fn factor(&mut self) -> BResult<i64> {
        let t = self.tok()?;
        let text = self.text(t);
        text.parse()
            .or_else(|_| err(token_span(t), format!("bad transformation factor '{text}'")))
    }

    take! {
        functions -> Vec<Function> = Functions;
        params -> Vec<Param> = Params;
        ty -> Type = Type;
        types -> Vec<Type> = Types;
        block -> Block = Block;
        stmt -> Box<Stmt> = Stmt;
        stmts -> Vec<Stmt> = Stmts;
        transforms -> Vec<TransformSpec> = Transforms;
        ids -> Vec<String> = Ids;
        expr -> Expr = Expr;
        exprs -> Vec<Expr> = Exprs;
        indices -> Vec<IndexExpr> = Indices;
        with_op -> WithOp = WithOp;
        fold_kind -> FoldKind = Fold;
    }

    fn upper(&mut self) -> BResult<(bool, Vec<Expr>)> {
        match self.next()? {
            Val::Upper(inclusive, bounds) => Ok((inclusive, bounds)),
            other => self.unexpected(other),
        }
    }

    /// An expression in assignment-target position as an [`LValue`],
    /// rejecting non-lvalues with a domain-specific error.
    fn lvalue(&mut self) -> BResult<LValue> {
        let e = self.expr()?;
        let span = e.span();
        match e {
            Expr::Var(name, s) => Ok(LValue::Var(name, s)),
            Expr::Index {
                base,
                indices,
                span,
            } => match *base {
                Expr::Var(name, _) => Ok(LValue::Index {
                    base: name,
                    indices,
                    span,
                }),
                _ => err(span, "indexed assignment target must be a matrix variable"),
            },
            // [ext-tuples] (a, b, c) = ...
            Expr::Tuple(parts, s) => {
                let mut names = Vec::with_capacity(parts.len());
                for p in parts {
                    match p {
                        Expr::Var(n, _) => names.push(n),
                        other => {
                            return err(
                                other.span(),
                                "tuple assignment targets must be plain variables",
                            )
                        }
                    }
                }
                Ok(LValue::Tuple(names, s))
            }
            _ => err(span, "invalid assignment target"),
        }
    }

    /// The element type of the type read next; `what` words the error.
    fn elem(&mut self, what: impl FnOnce(&Type) -> String) -> BResult<ElemKind> {
        let ty = self.ty()?;
        ty.as_elem().ok_or_else(|| BuildError {
            message: what(&ty),
            span: self.span,
        })
    }

    /// The value of the production this rule belongs to.
    fn build(&mut self, rule: Rule) -> BResult<Val> {
        let span = self.span;
        Ok(match rule {
            Rule::Forward => self.next()?,
            Rule::Inner => {
                self.skip();
                self.next()?
            }
            Rule::Unhandled => {
                let (g, p) = (self.r.grammar, self.prod);
                let lhs = g.nonterminal_name(g.lhs(p));
                return err(
                    span,
                    format!("unexpected {} production '{}'", category(lhs), g.production_name(p)),
                );
            }
            Rule::ListOne => match self.next()? {
                Val::Function(f) => Val::Functions(vec![*f]),
                Val::Param(p) => Val::Params(vec![p]),
                Val::Type(t) => Val::Types(vec![t]),
                Val::Stmt(s) => Val::Stmts(vec![*s]),
                Val::Transform(t) => Val::Transforms(vec![*t]),
                Val::Tok(t) => Val::Ids(vec![self.text(t).into_owned()]),
                Val::Expr(e) => Val::Exprs(vec![e]),
                Val::Index(i) => Val::Indices(vec![*i]),
                other => return self.unexpected(other),
            },
            Rule::ListMore => {
                let list = self.next()?;
                let item = self.it.next_back().map(|node| node.val);
                match (list, item) {
                    (Val::Err(e), _) | (_, Some(Val::Err(e))) => return Err(*e),
                    (Val::Functions(mut v), Some(Val::Function(x))) => {
                        v.push(*x);
                        Val::Functions(v)
                    }
                    (Val::Params(mut v), Some(Val::Param(x))) => {
                        v.push(x);
                        Val::Params(v)
                    }
                    (Val::Types(mut v), Some(Val::Type(x))) => {
                        v.push(x);
                        Val::Types(v)
                    }
                    (Val::Stmts(mut v), Some(Val::Stmt(x))) => {
                        v.push(*x);
                        Val::Stmts(v)
                    }
                    (Val::Transforms(mut v), Some(Val::Transform(x))) => {
                        v.push(*x);
                        Val::Transforms(v)
                    }
                    (Val::Ids(mut v), Some(Val::Tok(t))) => {
                        v.push(self.text(t).into_owned());
                        Val::Ids(v)
                    }
                    (Val::Exprs(mut v), Some(Val::Expr(x))) => {
                        v.push(x);
                        Val::Exprs(v)
                    }
                    (Val::Indices(mut v), Some(Val::Index(x))) => {
                        v.push(*x);
                        Val::Indices(v)
                    }
                    _ => return self.malformed("unexpected child"),
                }
            }
            Rule::NoParams => Val::Params(Vec::new()),
            Rule::NoStmts => Val::Stmts(Vec::new()),
            Rule::NoArgs => Val::Exprs(Vec::new()),

            // --- top level ---------------------------------------------
            Rule::Program => Val::Program(Program {
                functions: self.functions()?,
            }),
            Rule::Function => {
                // func_def -> Type ID LP ParamsOpt RP Block
                let ret = self.ty()?;
                let name = self.tok()?;
                self.skip();
                let params = self.params()?;
                self.skip();
                let body = self.block()?;
                Val::Function(Box::new(Function {
                    ret,
                    name: self.text(name).into_owned(),
                    params,
                    body,
                    span: token_span(name),
                }))
            }
            Rule::Param => Val::Param(Param {
                ty: self.ty()?,
                name: self.ident()?,
            }),

            // --- types ---------------------------------------------------
            Rule::Scalar(s) => Val::Type(match s {
                Scalar::Int => Type::Int,
                Scalar::Float => Type::Float,
                Scalar::Bool => Type::Bool,
                Scalar::Void => Type::Void,
            }),
            Rule::MatrixType => {
                self.skip();
                let elem = self.elem(|t| {
                    format!("matrices can only contain int, bool or float elements, not {t}")
                })?;
                self.skip();
                let rank_tok = self.tok()?;
                let text = self.text(rank_tok);
                let rank: u8 = text.parse().or_else(|_| {
                    err(
                        token_span(rank_tok),
                        format!("matrix rank '{text}' is not a small integer"),
                    )
                })?;
                if rank == 0 {
                    return err(token_span(rank_tok), "matrix rank must be at least 1");
                }
                Val::Type(Type::Matrix(elem, rank))
            }
            Rule::TupleType => {
                self.skip();
                let mut parts = vec![self.ty()?];
                self.skip();
                parts.extend(self.types()?);
                Val::Type(Type::Tuple(parts))
            }
            Rule::RcType => {
                self.skip();
                self.skip();
                let elem = self
                    .elem(|t| format!("rc pointers hold int, float or bool elements, not {t}"))?;
                Val::Type(Type::Rc(elem))
            }

            // --- statements --------------------------------------------------
            Rule::Block => {
                // block -> LB StmtList RB
                self.skip();
                Val::Block(Block {
                    stmts: self.stmts()?,
                })
            }
            Rule::Decl => Val::Stmt(Box::new(Stmt::Decl {
                ty: self.ty()?,
                name: self.ident()?,
                init: None,
                span,
            })),
            Rule::DeclInit => {
                let ty = self.ty()?;
                let name = self.ident()?;
                self.skip();
                Val::Stmt(Box::new(Stmt::Decl {
                    ty,
                    name,
                    init: Some(self.expr()?),
                    span,
                }))
            }
            Rule::Assign | Rule::AssignTransform => {
                let target = self.lvalue()?;
                self.skip();
                let value = self.expr()?;
                let transforms = if rule == Rule::AssignTransform {
                    self.skip();
                    self.transforms()?
                } else {
                    Vec::new()
                };
                Val::Stmt(Box::new(Stmt::Assign {
                    target,
                    value,
                    transforms,
                    span,
                }))
            }
            Rule::ExprStmt => Val::Stmt(Box::new(Stmt::ExprStmt {
                expr: self.expr()?,
                span,
            })),
            Rule::If | Rule::IfElse | Rule::While => {
                self.skip();
                self.skip();
                let cond = self.expr()?;
                self.skip();
                let body = self.block()?;
                Val::Stmt(Box::new(match rule {
                    Rule::While => Stmt::While { cond, body, span },
                    Rule::If => Stmt::If {
                        cond,
                        then_blk: body,
                        else_blk: None,
                        span,
                    },
                    _ => {
                        self.skip();
                        Stmt::If {
                            cond,
                            then_blk: body,
                            else_blk: Some(self.block()?),
                            span,
                        }
                    }
                }))
            }
            Rule::For => {
                self.skip();
                self.skip();
                let init = self.stmt()?;
                self.skip();
                let cond = self.expr()?;
                self.skip();
                let step = self.stmt()?;
                self.skip();
                Val::Stmt(Box::new(Stmt::For {
                    init,
                    cond,
                    step,
                    body: self.block()?,
                    span,
                }))
            }
            Rule::Return => {
                self.skip();
                Val::Stmt(Box::new(Stmt::Return {
                    value: Some(self.expr()?),
                    span,
                }))
            }
            Rule::ReturnVoid => Val::Stmt(Box::new(Stmt::Return { value: None, span })),
            Rule::Nested => Val::Stmt(Box::new(Stmt::Nested(self.block()?))),
            Rule::Incr => {
                // i++ desugars to i = i + 1.
                let target = self.lvalue()?;
                let LValue::Var(name, vspan) = &target else {
                    return err(span, "'++' applies to plain variables only");
                };
                let value = Expr::Binary {
                    op: BinOp::Add,
                    left: Box::new(Expr::Var(name.clone(), *vspan)),
                    right: Box::new(Expr::IntLit(1, *vspan)),
                    span: *vspan,
                };
                Val::Stmt(Box::new(Stmt::Assign {
                    target,
                    value,
                    transforms: Vec::new(),
                    span,
                }))
            }
            Rule::SpawnAssign => {
                self.skip();
                let LValue::Var(name, _) = self.lvalue()? else {
                    return err(span, "spawn targets must be plain variables");
                };
                self.skip();
                Val::Stmt(Box::new(Stmt::Spawn {
                    target: Some(name),
                    call: self.spawned_call()?,
                    span,
                }))
            }
            Rule::SpawnCall => {
                self.skip();
                Val::Stmt(Box::new(Stmt::Spawn {
                    target: None,
                    call: self.spawned_call()?,
                    span,
                }))
            }
            Rule::Sync => Val::Stmt(Box::new(Stmt::Sync { span })),

            // --- transform clause ----------------------------------------------
            Rule::Split => {
                // split ID by INT , ID , ID
                self.skip();
                let index = self.ident()?;
                self.skip();
                let by = self.factor()?;
                self.skip();
                let inner = self.ident()?;
                self.skip();
                let outer = self.ident()?;
                Val::Transform(Box::new(TransformSpec::Split {
                    index,
                    by,
                    inner,
                    outer,
                }))
            }
            Rule::Vectorize => {
                self.skip();
                Val::Transform(Box::new(TransformSpec::Vectorize {
                    index: self.ident()?,
                }))
            }
            Rule::Parallelize => {
                self.skip();
                Val::Transform(Box::new(TransformSpec::Parallelize {
                    index: self.ident()?,
                }))
            }
            Rule::Reorder => {
                self.skip();
                Val::Transform(Box::new(TransformSpec::Reorder { order: self.ids()? }))
            }
            Rule::Interchange => {
                self.skip();
                let a = self.ident()?;
                self.skip();
                Val::Transform(Box::new(TransformSpec::Interchange {
                    a,
                    b: self.ident()?,
                }))
            }
            Rule::Unroll => {
                self.skip();
                let index = self.ident()?;
                self.skip();
                Val::Transform(Box::new(TransformSpec::Unroll {
                    index,
                    by: self.factor()?,
                }))
            }
            Rule::Tile => {
                self.skip();
                let i = self.ident()?;
                self.skip();
                let j = self.ident()?;
                self.skip();
                let bi = self.factor()?;
                self.skip();
                Val::Transform(Box::new(TransformSpec::Tile {
                    i,
                    j,
                    bi,
                    bj: self.factor()?,
                }))
            }
            Rule::Schedule(kind, chunked) => {
                // schedule ID static|dynamic|guided [, INT]
                self.skip();
                let index = self.ident()?;
                let chunk = if chunked {
                    self.skip();
                    self.skip();
                    Some(self.factor()?)
                } else {
                    None
                };
                Val::Transform(Box::new(TransformSpec::Schedule { index, kind, chunk }))
            }

            // --- expressions -----------------------------------------------------
            Rule::Binary(op) => {
                let left = Box::new(self.expr()?);
                self.skip();
                Val::Expr(Expr::Binary {
                    op,
                    left,
                    right: Box::new(self.expr()?),
                    span,
                })
            }
            Rule::Unary(op) => {
                self.skip();
                Val::Expr(Expr::Unary {
                    op,
                    operand: Box::new(self.expr()?),
                    span,
                })
            }
            Rule::Cast => {
                self.skip();
                let ty = self.ty()?;
                self.skip();
                Val::Expr(Expr::Cast {
                    ty,
                    expr: Box::new(self.expr()?),
                    span,
                })
            }
            Rule::Int => {
                let t = self.tok()?;
                let text = self.text(t);
                let v: i64 = text.parse().or_else(|_| {
                    err(
                        token_span(t),
                        format!("integer literal '{text}' out of range"),
                    )
                })?;
                Val::Expr(Expr::IntLit(v, token_span(t)))
            }
            Rule::Float => {
                let t = self.tok()?;
                let text = self.text(t);
                let v: f32 = text
                    .parse()
                    .or_else(|_| err(token_span(t), format!("bad float literal '{text}'")))?;
                Val::Expr(Expr::FloatLit(v, token_span(t)))
            }
            Rule::Str => {
                let t = self.tok()?;
                Val::Expr(Expr::StrLit(unescape(&self.text(t)), token_span(t)))
            }
            Rule::Bool(b) => Val::Expr(Expr::BoolLit(b, span)),
            Rule::Var => {
                let t = self.tok()?;
                Val::Expr(Expr::Var(self.text(t).into_owned(), token_span(t)))
            }
            Rule::Call => {
                let t = self.tok()?;
                self.skip();
                Val::Expr(Expr::Call {
                    name: self.text(t).into_owned(),
                    args: self.exprs()?,
                    span: token_span(t),
                })
            }
            Rule::Index => {
                let base = Box::new(self.expr()?);
                self.skip();
                Val::Expr(Expr::Index {
                    base,
                    indices: self.indices()?,
                    span,
                })
            }
            Rule::At => Val::Index(Box::new(IndexExpr::At(self.expr()?))),
            Rule::Range => {
                let lo = self.expr()?;
                self.skip();
                Val::Index(Box::new(IndexExpr::Range(Box::new(lo), Box::new(self.expr()?))))
            }
            Rule::All => Val::Index(Box::new(IndexExpr::All)),
            Rule::End => Val::Expr(Expr::End(span)),
            Rule::With => {
                // prim_with -> KW_WITH LP Bracketed LE Bracketed WithUpper RP WithOperation
                self.skip();
                self.skip();
                let lower = self.exprs()?;
                self.skip();
                let mut vars = Vec::new();
                for v in self.exprs()? {
                    match v {
                        Expr::Var(n, _) => vars.push(n),
                        other => {
                            return err(
                                other.span(),
                                "with-loop generator variables must be plain identifiers",
                            )
                        }
                    }
                }
                let (upper_inclusive, upper) = self.upper()?;
                self.skip();
                Val::Expr(Expr::With {
                    generator: Box::new(Generator {
                        lower,
                        vars,
                        upper,
                        upper_inclusive,
                    }),
                    op: self.with_op()?,
                    span,
                })
            }
            Rule::Upper(inclusive) => {
                self.skip();
                Val::Upper(inclusive, self.exprs()?)
            }
            Rule::Genarray => {
                self.skip();
                self.skip();
                let shape = self.exprs()?;
                self.skip();
                Val::WithOp(WithOp::Genarray {
                    shape,
                    body: Box::new(self.expr()?),
                })
            }
            Rule::Fold => {
                self.skip();
                self.skip();
                let op = self.fold_kind()?;
                self.skip();
                let base = Box::new(self.expr()?);
                self.skip();
                Val::WithOp(WithOp::Fold {
                    op,
                    base,
                    body: Box::new(self.expr()?),
                })
            }
            Rule::Modarray => {
                self.skip();
                self.skip();
                let src = Box::new(self.expr()?);
                self.skip();
                Val::WithOp(WithOp::Modarray {
                    src,
                    body: Box::new(self.expr()?),
                })
            }
            Rule::FoldOp(kind) => Val::Fold(kind),
            Rule::MatrixMap => {
                self.skip();
                self.skip();
                let func = self.ident()?;
                self.skip();
                let matrix = Box::new(self.expr()?);
                self.skip();
                let mut dims = Vec::new();
                for d in self.exprs()? {
                    match d {
                        Expr::IntLit(v, _) => dims.push(v),
                        other => {
                            return err(
                                other.span(),
                                "matrixMap dimension lists must be integer literals",
                            )
                        }
                    }
                }
                Val::Expr(Expr::MatrixMap {
                    func,
                    matrix,
                    dims,
                    span,
                })
            }
            Rule::Init => {
                self.skip();
                self.skip();
                let ty = self.ty()?;
                self.skip();
                Val::Expr(Expr::Init {
                    ty,
                    dims: self.exprs()?,
                    span,
                })
            }
            Rule::Tuple => {
                self.skip();
                let mut parts = vec![self.expr()?];
                self.skip();
                parts.extend(self.exprs()?);
                Val::Expr(Expr::Tuple(parts, span))
            }
            Rule::RcAlloc => {
                self.skip();
                self.skip();
                let elem = self.elem(|t| {
                    format!("rcAlloc element type must be int, float or bool, not {t}")
                })?;
                self.skip();
                Val::Expr(Expr::RcAlloc {
                    elem,
                    len: Box::new(self.expr()?),
                    span,
                })
            }
        })
    }

    /// The call a `spawn` statement reads next.
    fn spawned_call(&mut self) -> BResult<Expr> {
        let call = self.expr()?;
        if !matches!(call, Expr::Call { .. }) {
            return err(self.span, "spawn applies to function calls");
        }
        Ok(call)
    }
}

fn token_span(t: Lexeme) -> Span {
    Span::new(t.line, t.col)
}

/// Strip quotes and process escapes in a string literal.
fn unescape(text: &str) -> String {
    let inner = &text[1..text.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('0') => out.push('\0'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

// The LR value stack moves `Node`s on every shift and reduce: at 248 bytes
// that `memmove` was ≈ 18 % of parsing a 120 KB program (EXPERIMENTS.md E-B1).
#[cfg(test)]
const _: () = assert!(std::mem::size_of::<Node>() <= 72);
