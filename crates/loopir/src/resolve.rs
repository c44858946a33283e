//! Slot resolution: a pre-pass over [`IrProgram`] that assigns every
//! variable a frame-slot index so the interpreter executes against flat
//! `Vec<Value>` frames instead of a chain of string-keyed hash maps.
//!
//! The pass mirrors the interpreter's old dynamic scoping exactly: each
//! lexical scope (function body, loop body, branch, block) maps names to
//! slots, every declaration gets a fresh slot (shadowing allocates a new
//! one), and a name that is not in scope resolves to
//! [`RExpr::Undefined`] — the "undefined variable" error stays lazy, at
//! the moment the statement would have executed, not at resolve time.
//! Likewise call targets are classified once: builtins carry their
//! [`Builtin`], known user functions become indices, and unknown names
//! stay [`RCallee::Undefined`] so "undefined function" also surfaces only
//! when called.
//!
//! Parallel loops record which slots their body actually references
//! (`captured`), so each fork-join participant copies just those values
//! into its private frame instead of cloning the whole environment.

use std::collections::{BTreeSet, HashMap};

use crate::ir::{
    Builtin, CType, Elem, IrBinOp, IrExpr, IrFunction, IrProgram, IrStmt, KernelCall, Name,
};

/// Resolved call target.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RCallee {
    /// Index into [`RProgram::functions`].
    User(usize),
    /// A runtime builtin.
    Builtin(Builtin),
    /// No user function has this name; calling it errors.
    Undefined(Name),
}

/// Resolved assignment target.
#[derive(Debug, Clone)]
pub(crate) enum RTarget {
    /// Frame slot.
    Slot(u32),
    /// Name not in scope; assignment errors at execution time.
    Undefined(Name),
}

/// Resolved expression: [`IrExpr`] with variables as slots.
/// `PartialEq` is structural (float literals compare by IEEE equality, so
/// a NaN literal never equals itself — that only makes the VM's
/// common-subexpression check conservatively skip it).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RExpr {
    Int(i32),
    Float(f32),
    Bool(bool),
    /// String literal, interned once at resolve time so evaluation clones
    /// a refcount instead of the bytes.
    Str(std::sync::Arc<str>),
    /// Variable read by frame slot.
    Slot(u32),
    /// Name not in scope; reading errors at execution time.
    Undefined(Name),
    Bin(IrBinOp, Box<RExpr>, Box<RExpr>),
    Neg(Box<RExpr>),
    Not(Box<RExpr>),
    Load { buf: Box<RExpr>, idx: Box<RExpr> },
    Call(RCallee, Vec<RExpr>),
    CastInt(Box<RExpr>),
    CastFloat(Box<RExpr>),
    Tuple(Vec<RExpr>),
}

/// Resolved counted loop. The interpreter runs vector loops sequentially,
/// so only the `parallel` flag survives resolution.
#[derive(Debug, Clone)]
pub(crate) struct RFor {
    /// Slot of the loop index variable.
    pub var: u32,
    /// Source name of the loop index — kept for the cost probe
    /// ([`crate::LoopCost`]) so tuning reports name loops the way the
    /// `transform` directives address them.
    pub name: Name,
    pub lo: RExpr,
    pub hi: RExpr,
    pub body: Vec<RStmt>,
    pub parallel: bool,
    /// Per-loop self-scheduling policy; `None` defers to the
    /// interpreter's process default.
    pub schedule: Option<cmm_forkjoin::Schedule>,
    /// Slots declared outside the loop that the body references — the
    /// values each parallel participant copies into its private frame.
    pub captured: Vec<u32>,
}

/// Resolved [`KernelCall::MatMul`]: operands as frame slots.
#[derive(Debug, Clone)]
pub(crate) struct RMatMul {
    pub dst: u32,
    pub a: u32,
    pub b: u32,
    pub elem: Elem,
    pub parallel: bool,
}

/// Resolved statement. `Comment`s are dropped and `Block`s flattened
/// (scoping is a resolve-time concern), so execution never dispatches on
/// either.
#[derive(Debug, Clone)]
pub(crate) enum RStmt {
    Decl {
        slot: u32,
        ty: CType,
        init: Option<RExpr>,
    },
    Assign {
        target: RTarget,
        value: RExpr,
    },
    Store {
        buf: RExpr,
        idx: RExpr,
        value: RExpr,
    },
    For(RFor),
    While {
        cond: RExpr,
        body: Vec<RStmt>,
    },
    If {
        cond: RExpr,
        then_b: Vec<RStmt>,
        else_b: Vec<RStmt>,
    },
    Expr(RExpr),
    Return(Option<RExpr>),
    Spawn {
        target: Option<RTarget>,
        target_is_buf: bool,
        callee: RCallee,
        args: Vec<RExpr>,
    },
    Sync,
    UnpackCall {
        targets: Vec<RTarget>,
        call: RExpr,
    },
    /// [`IrStmt::Kernel`]: `fallback` resolved in place in the enclosing
    /// scope, exactly as if the wrapper were absent. The statement itself
    /// costs no step in either tier.
    Kernel {
        call: RMatMul,
        fallback: Vec<RStmt>,
    },
}

/// What a call reads of a function besides its code: the name (for
/// errors and the profile), the arity and the frame size. Parameters
/// occupy slots `0..nparams`, every other declaration a slot below
/// `nslots`.
#[derive(Debug, Clone)]
pub(crate) struct FnHeader {
    pub name: Name,
    pub nparams: usize,
    pub nslots: usize,
}

/// A resolved function.
#[derive(Debug, Clone)]
pub(crate) struct RFunction {
    pub header: FnHeader,
    /// Declared type of each slot (parameter and `Decl` types; loop
    /// indices are `int`). A prediction, not a guarantee — a `Decl` stores
    /// whatever its initializer evaluates to — so the VM's unboxed loops
    /// ([`crate::scalar_loop`]) check it against the frame at entry.
    pub slot_types: Vec<CType>,
    pub body: Vec<RStmt>,
}

/// A resolved program plus its name → index map (first definition wins,
/// matching [`IrProgram::function`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct RProgram {
    pub functions: Vec<RFunction>,
    pub by_name: HashMap<Name, usize>,
}

/// Resolve a whole program.
pub(crate) fn resolve_program(program: &IrProgram) -> RProgram {
    let mut by_name = HashMap::new();
    for (idx, f) in program.functions.iter().enumerate() {
        by_name.entry(f.name.clone()).or_insert(idx);
    }
    let functions = program
        .functions
        .iter()
        .map(|f| resolve_function(f, &by_name))
        .collect();
    RProgram { functions, by_name }
}

struct Resolver<'a> {
    by_name: &'a HashMap<Name, usize>,
    /// Lexical scopes, innermost last; each maps a name to its slot.
    scopes: Vec<HashMap<Name, u32>>,
    /// Declared type of every slot allocated so far.
    slot_types: Vec<CType>,
}

/// Resolve one function against the program's name table.
pub(crate) fn resolve_function(f: &IrFunction, by_name: &HashMap<Name, usize>) -> RFunction {
    let mut r = Resolver {
        by_name,
        scopes: vec![HashMap::new()],
        slot_types: Vec::new(),
    };
    for (pname, ty) in &f.params {
        let slot = r.fresh(pname, *ty);
        debug_assert!((slot as usize) < f.params.len());
    }
    let body = r.block(&f.body);
    RFunction {
        header: FnHeader {
            name: f.name.clone(),
            nparams: f.params.len(),
            nslots: r.slot_types.len(),
        },
        slot_types: r.slot_types,
        body,
    }
}

impl Resolver<'_> {
    /// Allocate a fresh slot for a declaration in the current scope.
    fn fresh(&mut self, name: &Name, ty: CType) -> u32 {
        let slot = self.slot_types.len() as u32;
        self.slot_types.push(ty);
        self.scopes
            .last_mut()
            .expect("at least the function scope")
            .insert(name.clone(), slot);
        slot
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn target(&self, name: &Name) -> RTarget {
        match self.lookup(name) {
            Some(slot) => RTarget::Slot(slot),
            None => RTarget::Undefined(name.clone()),
        }
    }

    fn callee(&self, name: &Name) -> RCallee {
        match self.by_name.get(name) {
            Some(&idx) => RCallee::User(idx),
            None => RCallee::Undefined(name.clone()),
        }
    }

    /// Resolve a statement list inside a fresh scope, flattening nested
    /// blocks into the output.
    fn scoped_block(&mut self, stmts: &[IrStmt]) -> Vec<RStmt> {
        self.scopes.push(HashMap::new());
        let out = self.block(stmts);
        self.scopes.pop();
        out
    }

    fn block(&mut self, stmts: &[IrStmt]) -> Vec<RStmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.stmt(s, &mut out);
        }
        out
    }

    fn stmt(&mut self, s: &IrStmt, out: &mut Vec<RStmt>) {
        match s {
            IrStmt::Decl { ty, name, init } => {
                // Initializer first: `int x = x + 1` reads the outer `x`.
                let init = init.as_ref().map(|e| self.expr(e));
                let slot = self.fresh(name, *ty);
                out.push(RStmt::Decl { slot, ty: *ty, init });
            }
            IrStmt::Assign { name, value } => out.push(RStmt::Assign {
                target: self.target(name),
                value: self.expr(value),
            }),
            IrStmt::Store { buf, idx, value, .. } => out.push(RStmt::Store {
                buf: self.expr(buf),
                idx: self.expr(idx),
                value: self.expr(value),
            }),
            IrStmt::For(f) => {
                let lo = self.expr(&f.lo);
                let hi = self.expr(&f.hi);
                // Slots below this watermark belong to enclosing scopes;
                // any the body touches must be captured by parallel
                // participants.
                let outer_slots = self.slot_types.len() as u32;
                self.scopes.push(HashMap::new());
                let var = self.fresh(&f.var, CType::Int);
                let body = self.block(&f.body);
                self.scopes.pop();
                let captured = if f.parallel {
                    let mut used = BTreeSet::new();
                    collect_outer_slots(&body, outer_slots, &mut used);
                    used.into_iter().collect()
                } else {
                    Vec::new()
                };
                out.push(RStmt::For(RFor {
                    var,
                    name: f.var.clone(),
                    lo,
                    hi,
                    body,
                    parallel: f.parallel,
                    schedule: f.schedule,
                    captured,
                }));
            }
            IrStmt::While { cond, body } => {
                let cond = self.expr(cond);
                let body = self.scoped_block(body);
                out.push(RStmt::While { cond, body });
            }
            IrStmt::If { cond, then_b, else_b } => {
                let cond = self.expr(cond);
                let then_b = self.scoped_block(then_b);
                let else_b = self.scoped_block(else_b);
                out.push(RStmt::If { cond, then_b, else_b });
            }
            IrStmt::Expr(e) => out.push(RStmt::Expr(self.expr(e))),
            IrStmt::Return(e) => out.push(RStmt::Return(e.as_ref().map(|e| self.expr(e)))),
            IrStmt::Spawn {
                target,
                target_is_buf,
                func,
                args,
            } => out.push(RStmt::Spawn {
                target: target.as_ref().map(|t| self.target(t)),
                target_is_buf: *target_is_buf,
                callee: self.callee(func),
                args: args.iter().map(|a| self.expr(a)).collect(),
            }),
            IrStmt::Sync => out.push(RStmt::Sync),
            IrStmt::UnpackCall { targets, call } => out.push(RStmt::UnpackCall {
                targets: targets.iter().map(|t| self.target(t)).collect(),
                call: self.expr(call),
            }),
            IrStmt::Comment(_) => {}
            IrStmt::Block(b) => {
                // The block boundary only matters for scoping; the
                // statements run inline in the parent.
                self.scopes.push(HashMap::new());
                for s in b {
                    self.stmt(s, out);
                }
                self.scopes.pop();
            }
            IrStmt::Kernel { call, fallback } => {
                let KernelCall::MatMul { dst, a, b, elem, parallel } = call;
                let slots = (self.lookup(dst), self.lookup(a), self.lookup(b));
                let nest = self.block(fallback);
                match slots {
                    (Some(dst), Some(a), Some(b)) => out.push(RStmt::Kernel {
                        call: RMatMul { dst, a, b, elem: *elem, parallel: *parallel },
                        fallback: nest,
                    }),
                    // An operand name out of scope: only the nest can
                    // report that the way it always has.
                    _ => out.extend(nest),
                }
            }
        }
    }

    fn expr(&mut self, e: &IrExpr) -> RExpr {
        match e {
            IrExpr::Int(v) => RExpr::Int(*v as i32),
            IrExpr::Float(v) => RExpr::Float(*v),
            IrExpr::Bool(v) => RExpr::Bool(*v),
            IrExpr::Str(s) => RExpr::Str(s.as_str().into()),
            IrExpr::Var(n) => match self.lookup(n) {
                Some(slot) => RExpr::Slot(slot),
                None => RExpr::Undefined(n.clone()),
            },
            IrExpr::Bin(op, a, b) => {
                RExpr::Bin(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            IrExpr::Neg(e) => RExpr::Neg(Box::new(self.expr(e))),
            IrExpr::Not(e) => RExpr::Not(Box::new(self.expr(e))),
            IrExpr::Load { buf, idx, .. } => RExpr::Load {
                buf: Box::new(self.expr(buf)),
                idx: Box::new(self.expr(idx)),
            },
            IrExpr::Call(name, args) => RExpr::Call(
                self.callee(name),
                args.iter().map(|a| self.expr(a)).collect(),
            ),
            IrExpr::Builtin(b, args) => RExpr::Call(
                RCallee::Builtin(*b),
                args.iter().map(|a| self.expr(a)).collect(),
            ),
            IrExpr::CastInt(e) => RExpr::CastInt(Box::new(self.expr(e))),
            IrExpr::CastFloat(e) => RExpr::CastFloat(Box::new(self.expr(e))),
            IrExpr::Tuple(es) => RExpr::Tuple(es.iter().map(|e| self.expr(e)).collect()),
        }
    }
}

/// Collect slots `< outer` referenced anywhere in resolved statements —
/// reads and writes both, so a participant's read-after-private-write
/// sees the snapshot value the old whole-environment clone provided.
fn collect_outer_slots(stmts: &[RStmt], outer: u32, used: &mut BTreeSet<u32>) {
    let note = |slot: u32, used: &mut BTreeSet<u32>| {
        if slot < outer {
            used.insert(slot);
        }
    };
    fn expr(e: &RExpr, outer: u32, used: &mut BTreeSet<u32>) {
        match e {
            RExpr::Slot(s) => {
                if *s < outer {
                    used.insert(*s);
                }
            }
            RExpr::Int(_)
            | RExpr::Float(_)
            | RExpr::Bool(_)
            | RExpr::Str(_)
            | RExpr::Undefined(_) => {}
            RExpr::Bin(_, a, b) => {
                expr(a, outer, used);
                expr(b, outer, used);
            }
            RExpr::Neg(e) | RExpr::Not(e) | RExpr::CastInt(e) | RExpr::CastFloat(e) => {
                expr(e, outer, used)
            }
            RExpr::Load { buf, idx } => {
                expr(buf, outer, used);
                expr(idx, outer, used);
            }
            RExpr::Call(_, args) | RExpr::Tuple(args) => {
                for a in args {
                    expr(a, outer, used);
                }
            }
        }
    }
    let target = |t: &RTarget, used: &mut BTreeSet<u32>| {
        if let RTarget::Slot(s) = t {
            if *s < outer {
                used.insert(*s);
            }
        }
    };
    for s in stmts {
        match s {
            RStmt::Decl { slot, init, .. } => {
                note(*slot, used);
                if let Some(e) = init {
                    expr(e, outer, used);
                }
            }
            RStmt::Assign { target: t, value } => {
                target(t, used);
                expr(value, outer, used);
            }
            RStmt::Store { buf, idx, value } => {
                expr(buf, outer, used);
                expr(idx, outer, used);
                expr(value, outer, used);
            }
            RStmt::For(f) => {
                note(f.var, used);
                expr(&f.lo, outer, used);
                expr(&f.hi, outer, used);
                collect_outer_slots(&f.body, outer, used);
            }
            RStmt::While { cond, body } => {
                expr(cond, outer, used);
                collect_outer_slots(body, outer, used);
            }
            RStmt::If { cond, then_b, else_b } => {
                expr(cond, outer, used);
                collect_outer_slots(then_b, outer, used);
                collect_outer_slots(else_b, outer, used);
            }
            RStmt::Expr(e) => expr(e, outer, used),
            RStmt::Return(e) => {
                if let Some(e) = e {
                    expr(e, outer, used);
                }
            }
            RStmt::Spawn { target: t, args, .. } => {
                if let Some(t) = t {
                    target(t, used);
                }
                for a in args {
                    expr(a, outer, used);
                }
            }
            RStmt::Sync => {}
            RStmt::UnpackCall { targets, call } => {
                for t in targets {
                    target(t, used);
                }
                expr(call, outer, used);
            }
            RStmt::Kernel { call, fallback } => {
                for slot in [call.dst, call.a, call.b] {
                    note(slot, used);
                }
                collect_outer_slots(fallback, outer, used);
            }
        }
    }
}
