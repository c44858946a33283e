//! Register-based bytecode VM: the execution tier programs run on.
//!
//! The slot-resolved form ([`crate::resolve`]) is lowered once per
//! function into a flat [`Instr`] stream over a register file that
//! extends the frame's slot array (slots `0..nslots` keep their resolved
//! indices; expression temporaries live above them). Execution is a tight
//! `match` loop over the compact enum — no tree pointers, no recursive
//! `eval` frames — while every *semantic* operation (binops, buffer
//! access, builtins, spawns, parallel regions, limits) calls the exact
//! same `Interp` runtime the tree-walker uses, so outputs, error
//! messages, telemetry, and resource accounting are identical by
//! construction.
//!
//! ## Block metering
//!
//! The tree-walker charges one fuel step per statement, at the top of
//! each statement. The VM coalesces those per-node checks into one
//! [`Instr::Charge`] per *straight-line statement group*: a maximal run
//! of statements that cannot alter control flow (decl/assign/store/expr/
//! spawn/sync/unpack), plus the single following control statement
//! (`if`/`for`/`while`/`return`), whose own step is unconditional the
//! moment the group is entered. Loop back-edges re-charge per iteration
//! ([`Instr::ForHead`] fuses the iteration step with the body's leading
//! group). Because every charged statement is *reached* whenever its
//! group is entered, cumulative totals match the tree-walker exactly on
//! every run that completes or stops at a limit — the same fuel value
//! exhausts both tiers at the same boundary (pinned by test). A run that
//! dies on a *runtime* error mid-group gives back, in every frame the
//! error leaves, the steps of the statements charged but not started
//! (`VmFunction::unstarted`), so its count is the tree-walker's too. The
//! one visible skew: under a fuel budget tighter than the error point
//! plus that remainder, the VM reports fuel exhaustion where the
//! tree-walker reports the runtime error.
//!
//! ## Parallel regions
//!
//! `ParFor` runs on the driver the tree-walker uses
//! (`Interp::run_parallel_loop`): the iteration range is self-scheduled
//! over the pool's work-stealing deques under the loop's schedule, and
//! each participant runs the loop body's bytecode against a private frame
//! seeded with the captured slots. `PoolMetrics` chunk accounting and the
//! profiling counters are fed identically.
//!
//! ## Unboxed loops
//!
//! A sequential loop whose body compiled to straight-line scalar bytecode
//! also gets a typed program over unboxed registers, derived from that
//! bytecode ([`crate::scalar_loop`]). [`Instr::ScalarLoop`] sits before
//! the loop's `ForHead` and runs the iterations in its place; the bytecode
//! stays, as the path taken when the operands are not as predicted and as
//! the place a failing iteration is handed back to.
//!
//! ## One function at a time, compile-once / execute-many
//!
//! [`BytecodeBuilder`] resolves and compiles one function at a time and
//! drops each resolved body once compiled; the [`Bytecode`] it produces —
//! a [`VmProgram`] plus each function's [`FnHeader`] and the name table —
//! is pure data, no interpreter state. `Interp::from_bytecode` runs one;
//! `Interp::with_tier(Tier::Vm)` feeds the tree tier's resolved functions
//! through the same builder. Frames (execution contexts) are a
//! `Vec<Value>` each, so re-running `main` or serving many calls re-uses
//! the compiled program with only per-call frame allocation.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use cmm_forkjoin::Schedule;

use crate::interp::{
    cast_int, default_value, dim_of, eval_bin, int_div, int_rem, negate,
    BoxedLoop, Frame, IResult, Interp, InterpError, InterpErrorKind, Pending, Value,
};
use crate::ir::{Builtin, CType, IrBinOp};
use crate::kernel::run_matmul;
use crate::ir::{IrFunction, Name};
use crate::resolve::{
    resolve_function, FnHeader, RCallee, RExpr, RFor, RFunction, RMatMul, RStmt, RTarget,
};
use crate::scalar_loop::{self, ScalarLoop};

/// Why a function cannot be lowered to bytecode: which of its `u16`
/// operands or tables overflowed. [`BytecodeBuilder`] reports it, with the
/// function's name, as an [`crate::InterpErrorKind::VmLimit`] error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VmLimit(pub &'static str);

/// One bytecode instruction. Registers are `u16` indices into the
/// frame's register file; jump targets are absolute `u32` offsets into
/// the owning code stream.
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    /// Meter `n` fuel steps (a straight-line statement group).
    Charge(u32),
    /// `dst = consts[k]`.
    Const { dst: u16, k: u16 },
    /// `dst = src`.
    Copy { dst: u16, src: u16 },
    /// `dst = a <op> b` (shared [`eval_bin`] semantics; int/int fast path
    /// inline).
    Bin { op: IrBinOp, dst: u16, a: u16, b: u16 },
    /// `dst = -src` (int or float).
    Neg { dst: u16, src: u16 },
    /// `dst = !src` (bool coercion as the tree-walker's `as_b`).
    Not { dst: u16, src: u16 },
    /// `dst = src` coerced to int (`as_i`), for index/bound positions.
    AsInt { dst: u16, src: u16 },
    /// `dst = (int) src`.
    CastInt { dst: u16, src: u16 },
    /// `dst = (float) src`.
    CastFloat { dst: u16, src: u16 },
    /// `dst = buf[idx]` (idx already `AsInt`-ed).
    Load { dst: u16, buf: u16, idx: u16 },
    /// `buf[idx] = val` (idx already `AsInt`-ed).
    Store { buf: u16, idx: u16, val: u16 },
    /// Unconditional jump.
    Jump { to: u32 },
    /// Jump when `cond` coerces to false.
    JumpIfFalse { cond: u16, to: u32 },
    /// Jump when `cond` coerces to true.
    JumpIfTrue { cond: u16, to: u32 },
    /// Sequential loop head: exit when `counter >= hi`, else charge
    /// `charge` steps (iteration + fused body group) and set `var`.
    ForHead { counter: u16, hi: u16, var: u16, charge: u32, exit: u32 },
    /// Sequential loop back-edge: wrapping-increment `counter`, jump to
    /// the matching [`Instr::ForHead`].
    ForNext { counter: u16, head: u32 },
    /// `dst = functions[func](regs[base..base+n])`.
    CallUser { dst: u16, func: u16, base: u16, n: u16 },
    /// `dst = dim(regs[buf], regs[d])`. Lowered subscript arithmetic
    /// calls [`Builtin::Dim`] per element access, so it gets a dedicated
    /// instruction reading its operands in place — no argument copies
    /// (each would bump the buffer's `Arc`).
    Dim { dst: u16, buf: u16, d: u16 },
    /// `dst = builtin(regs[base..base+n])`.
    CallBuiltin { dst: u16, builtin: Builtin, base: u16, n: u16 },
    /// `dst = (regs[base], .., regs[base+n-1])`.
    Tuple { dst: u16, base: u16, n: u16 },
    /// Unpack the tuple in `src` into `unpacks[id]` targets.
    Unpack { id: u16, src: u16 },
    /// Queue `spawns[id]` with args `regs[base..base+n]` on the frame.
    Spawn { id: u16, base: u16 },
    /// Run the frame's pending spawns (the `sync` runtime).
    Sync,
    /// Execute `parfors[id]` on the fork-join pool.
    ParFor { id: u16 },
    /// Run `kernels[id]` natively and jump to `done`, past the scalar
    /// nest's bytecode — or fall through into that bytecode when the
    /// operands are not what the site describes ([`crate::kernel`]).
    /// Charges the nest's fuel itself.
    Kernel { id: u16, done: u32 },
    /// Run the loop whose `ForHead` follows as `scalar_loops[id]` and jump
    /// to `done`, past its `ForNext` — or fall through into the `ForHead`,
    /// which runs the iterations the counter register says remain (all of
    /// them after a decline, from the failing one on after a bail). Charges
    /// the iterations it ran itself.
    ScalarLoop { id: u16, done: u32 },
    /// Raise the prebuilt runtime error `msgs[msg]` (undefined
    /// variable/assignment/function — resolution keeps these lazy).
    Fail { msg: u16 },
    /// Return `regs[src]`.
    Ret { src: u16 },
    /// Return unit.
    RetUnit,
}

/// A lowered parallel loop: bound registers, the chunk body's bytecode,
/// and everything `Interp::exec_for` needed from the resolved form.
#[derive(Debug, Clone)]
pub(crate) struct ParForData {
    pub var: u16,
    /// Source name of the index variable, which the cost probe records.
    pub name: crate::ir::Name,
    /// Register holding the already-coerced lower bound.
    pub lo: u16,
    /// Register holding the already-coerced upper bound.
    pub hi: u16,
    /// Per-iteration bytecode (leading `Charge` carries the iteration
    /// step fused with the body's first group).
    pub body: Vec<Instr>,
    /// [`VmFunction::unstarted`] of `body`.
    pub unstarted: Vec<(u32, u32)>,
    pub captured: Vec<u16>,
    pub schedule: Option<Schedule>,
}

/// A deferred spawn site (arguments are read from registers at the
/// `Spawn` instruction; the rest is fixed at compile time).
#[derive(Debug, Clone)]
pub(crate) struct SpawnData {
    pub target: Option<RTarget>,
    pub target_is_buf: bool,
    pub callee: RCallee,
    pub n: u16,
}

/// One function's compiled form. (Arity lives in the function's
/// [`FnHeader`]; `Interp::call_function` checks it there for both tiers.)
#[derive(Debug, Clone)]
pub(crate) struct VmFunction {
    /// Register-file size: `nslots` resolved slots plus temporaries.
    pub nregs: usize,
    pub code: Vec<Instr>,
    /// How many statements of the running charge group are charged but
    /// not started, the steps a runtime error gives back: `(pc, n)` is
    /// `n` from instruction `pc` of `code` to the next entry, in `pc`
    /// order; 0 before the first.
    pub unstarted: Vec<(u32, u32)>,
    pub consts: Vec<Value>,
    /// Prebuilt error messages for `Fail`.
    pub msgs: Vec<String>,
    /// Target lists for `Unpack`.
    pub unpacks: Vec<Vec<RTarget>>,
    pub spawns: Vec<SpawnData>,
    pub parfors: Vec<ParForData>,
    pub kernels: Vec<RMatMul>,
    pub scalar_loops: Vec<ScalarLoop>,
    /// Sequential innermost loops left boxed: index variable and reason.
    pub boxed_loops: Vec<LoopNote>,
    /// Translated loops that never run in strips, likewise.
    pub per_iteration_loops: Vec<LoopNote>,
}

/// A loop's index variable and why it runs the slower way.
pub(crate) type LoopNote = (crate::ir::Name, &'static str);

/// A compiled program: pure data, shareable across runs.
#[derive(Debug, Clone)]
pub(crate) struct VmProgram {
    pub funcs: Vec<VmFunction>,
}

impl VmProgram {
    /// Every loop of the list `notes` picks (`boxed_loops` or
    /// `per_iteration_loops`), given the functions' names in order.
    pub(crate) fn noted_loops<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        notes: impl Fn(&VmFunction) -> &[LoopNote],
    ) -> Vec<BoxedLoop> {
        let per_fn = self.funcs.iter().zip(names);
        per_fn
            .flat_map(|(f, name)| {
                notes(f).iter().map(move |(var, reason)| BoxedLoop {
                    function: name.to_string(),
                    var: var.to_string(),
                    reason,
                })
            })
            .collect()
    }
}

/// A program's bytecode and what calls read besides it: each function's
/// [`FnHeader`] and the name table. Built by [`BytecodeBuilder`] and run
/// by [`Interp::from_bytecode`]; it holds no IR and no resolved body.
pub struct Bytecode {
    pub(crate) functions: Vec<FnHeader>,
    pub(crate) by_name: HashMap<Name, usize>,
    /// The compiled functions, or the first function in program order
    /// that does not fit and the limit it hit, which every run reports.
    pub(crate) vm: Result<VmProgram, InterpError>,
}

/// Builds a program's bytecode one function at a time: each function is
/// resolved against the names declared so far, compiled, and its
/// resolved form dropped, so that only the bytecode and a small header
/// outlive it. Function indices are the order of [`BytecodeBuilder::declare`]:
/// declare every name a function calls before adding that function, and
/// add the functions in that order. A call to a name never declared is
/// an error only when it executes.
#[derive(Default)]
pub struct BytecodeBuilder {
    by_name: HashMap<Name, usize>,
    declared: usize,
    functions: Vec<FnHeader>,
    funcs: Vec<VmFunction>,
    limit: Option<InterpError>,
}

impl BytecodeBuilder {
    /// A builder with no function declared.
    pub fn new() -> Self {
        BytecodeBuilder::default()
    }

    /// Give `name` the next function index. A name declared twice keeps
    /// its first index: the first definition wins, as in
    /// [`crate::IrProgram::function`].
    pub fn declare(&mut self, name: &Name) {
        self.by_name.entry(name.clone()).or_insert(self.declared);
        self.declared += 1;
    }

    /// Resolve the next declared function, drop its IR, and compile it.
    pub fn function(&mut self, f: IrFunction) {
        debug_assert!(self.functions.len() < self.declared, "'{}' was not declared", f.name);
        let resolved = resolve_function(&f, &self.by_name);
        drop(f);
        self.compile(resolved);
    }

    /// Compile a resolved function and keep its header. Once one function
    /// has hit a limit, the rest are not compiled: that limit is what
    /// every run reports.
    pub(crate) fn compile(&mut self, f: RFunction) {
        if self.limit.is_none() {
            match compile_function(&f) {
                Ok(code) => self.funcs.push(code),
                Err(VmLimit(limit)) => {
                    self.limit = Some(InterpError::vm_limit(&f.header.name, limit));
                }
            }
        }
        self.functions.push(f.header);
    }

    /// The bytecode of every function added.
    pub fn finish(self) -> Bytecode {
        Bytecode {
            functions: self.functions,
            by_name: self.by_name,
            vm: match self.limit {
                Some(limit) => Err(limit),
                None => Ok(VmProgram { funcs: self.funcs }),
            },
        }
    }
}

// --- lowering -----------------------------------------------------------

struct FnCompiler<'a> {
    /// Declared slot types, for the unboxed loops' kind inference.
    slot_types: &'a [CType],
    code: Vec<Instr>,
    /// [`VmFunction::unstarted`] of `code`.
    unstarted: Vec<(u32, u32)>,
    consts: Vec<Value>,
    msgs: Vec<String>,
    unpacks: Vec<Vec<RTarget>>,
    spawns: Vec<SpawnData>,
    parfors: Vec<ParForData>,
    kernels: Vec<RMatMul>,
    scalar_loops: Vec<ScalarLoop>,
    boxed_loops: Vec<LoopNote>,
    per_iteration_loops: Vec<LoopNote>,
    /// Next free register (watermark allocator: statements reset it,
    /// loop bounds hold theirs across the body).
    temp: usize,
    max_reg: usize,
    /// Charges may only fuse into an instruction emitted after the most
    /// recent label (a fused charge before a jump target would be skipped
    /// by the jump).
    fuse_barrier: usize,
}

fn compile_function(f: &RFunction) -> Result<VmFunction, VmLimit> {
    let nslots = f.header.nslots;
    if nslots > u16::MAX as usize {
        return Err(VmLimit("too many frame slots"));
    }
    let mut c = FnCompiler {
        slot_types: &f.slot_types,
        code: Vec::new(),
        unstarted: Vec::new(),
        consts: Vec::new(),
        msgs: Vec::new(),
        unpacks: Vec::new(),
        spawns: Vec::new(),
        parfors: Vec::new(),
        kernels: Vec::new(),
        scalar_loops: Vec::new(),
        boxed_loops: Vec::new(),
        per_iteration_loops: Vec::new(),
        temp: nslots,
        max_reg: nslots,
        fuse_barrier: 0,
    };
    c.compile_block(&f.body)?;
    let vf = VmFunction {
        nregs: c.max_reg,
        code: c.code,
        unstarted: c.unstarted,
        consts: c.consts,
        msgs: c.msgs,
        unpacks: c.unpacks,
        spawns: c.spawns,
        parfors: c.parfors,
        kernels: c.kernels,
        scalar_loops: c.scalar_loops,
        boxed_loops: c.boxed_loops,
        per_iteration_loops: c.per_iteration_loops,
    };
    vf.validate()?;
    Ok(vf)
}

impl VmFunction {
    /// Bytecode well-formedness check, run once per function at compile
    /// time: every register operand of every instruction (main stream and
    /// each parallel-loop body) addresses a slot below `nregs`, every
    /// table id is in range, and every jump target stays inside its
    /// stream. `Frame::slots` is always exactly `nregs` long
    /// (`run_function` resizes, `run_parfor` builds templates of that
    /// length), so a validated function's dispatch loop may use unchecked
    /// register access. The typed programs of the unboxed loops are held
    /// to the same ([`ScalarLoop::validate`]). A violation here is a
    /// lowering bug; surfacing it as a `VmLimit` makes the run fail with
    /// a typed error instead of panicking (or worse).
    fn validate(&self) -> Result<(), VmLimit> {
        const BAD: VmLimit = VmLimit("lowering produced out-of-range bytecode operands");
        let reg = |r: u16| {
            if (r as usize) < self.nregs {
                Ok(())
            } else {
                Err(BAD)
            }
        };
        let span = |base: u16, n: u16| {
            if base as usize + n as usize <= self.nregs {
                Ok(())
            } else {
                Err(BAD)
            }
        };
        let id = |i: u16, len: usize| if (i as usize) < len { Ok(()) } else { Err(BAD) };
        let streams = std::iter::once(&self.code).chain(self.parfors.iter().map(|p| &p.body));
        for code in streams {
            let jump = |to: u32| {
                if to as usize <= code.len() {
                    Ok(())
                } else {
                    Err(BAD)
                }
            };
            for instr in code {
                match instr {
                    Instr::Charge(_) | Instr::Sync | Instr::RetUnit => {}
                    Instr::Const { dst, k } => {
                        reg(*dst)?;
                        id(*k, self.consts.len())?;
                    }
                    Instr::Copy { dst, src }
                    | Instr::Neg { dst, src }
                    | Instr::Not { dst, src }
                    | Instr::AsInt { dst, src }
                    | Instr::CastInt { dst, src }
                    | Instr::CastFloat { dst, src } => {
                        reg(*dst)?;
                        reg(*src)?;
                    }
                    Instr::Bin { dst, a, b, .. } => {
                        reg(*dst)?;
                        reg(*a)?;
                        reg(*b)?;
                    }
                    Instr::Load { dst, buf, idx } => {
                        reg(*dst)?;
                        reg(*buf)?;
                        reg(*idx)?;
                    }
                    Instr::Store { buf, idx, val } => {
                        reg(*buf)?;
                        reg(*idx)?;
                        reg(*val)?;
                    }
                    Instr::Dim { dst, buf, d } => {
                        reg(*dst)?;
                        reg(*buf)?;
                        reg(*d)?;
                    }
                    Instr::Jump { to } => jump(*to)?,
                    Instr::JumpIfFalse { cond, to } | Instr::JumpIfTrue { cond, to } => {
                        reg(*cond)?;
                        jump(*to)?;
                    }
                    Instr::ForHead { counter, hi, var, exit, .. } => {
                        reg(*counter)?;
                        reg(*hi)?;
                        reg(*var)?;
                        jump(*exit)?;
                    }
                    Instr::ForNext { counter, head } => {
                        reg(*counter)?;
                        jump(*head)?;
                    }
                    Instr::CallUser { dst, base, n, .. } => {
                        reg(*dst)?;
                        span(*base, *n)?;
                    }
                    Instr::CallBuiltin { dst, base, n, .. } => {
                        reg(*dst)?;
                        span(*base, *n)?;
                    }
                    Instr::Tuple { dst, base, n } => {
                        reg(*dst)?;
                        span(*base, *n)?;
                    }
                    Instr::Unpack { id: u, src } => {
                        id(*u, self.unpacks.len())?;
                        reg(*src)?;
                    }
                    Instr::Spawn { id: s, base } => {
                        id(*s, self.spawns.len())?;
                        span(*base, self.spawns[*s as usize].n)?;
                    }
                    Instr::ParFor { id: p } => id(*p, self.parfors.len())?,
                    Instr::Kernel { id: k, done } => {
                        id(*k, self.kernels.len())?;
                        jump(*done)?;
                    }
                    Instr::ScalarLoop { id: l, done } => {
                        id(*l, self.scalar_loops.len())?;
                        jump(*done)?;
                    }
                    Instr::Fail { msg } => id(*msg, self.msgs.len())?,
                    Instr::Ret { src } => reg(*src)?,
                }
            }
        }
        for pf in &self.parfors {
            reg(pf.var)?;
            reg(pf.lo)?;
            reg(pf.hi)?;
            for &s in &pf.captured {
                reg(s)?;
            }
        }
        for site in &self.kernels {
            for slot in [site.dst, site.a, site.b] {
                if slot as usize >= self.nregs {
                    return Err(BAD);
                }
            }
        }
        if !self.scalar_loops.iter().all(|lp| lp.validate(self.nregs)) {
            return Err(BAD);
        }
        Ok(())
    }
}

/// Statements that cannot alter control flow: their fuel step may be
/// charged with the rest of the group's.
fn is_simple(s: &RStmt) -> bool {
    matches!(
        s,
        RStmt::Decl { .. }
            | RStmt::Assign { .. }
            | RStmt::Store { .. }
            | RStmt::Expr(_)
            | RStmt::Spawn { .. }
            | RStmt::Sync
            | RStmt::UnpackCall { .. }
    )
}

/// Whether no statement of `body`, at any depth, is itself a loop.
fn is_innermost(body: &[RStmt]) -> bool {
    body.iter().all(|s| match s {
        RStmt::For(_) | RStmt::While { .. } | RStmt::Kernel { .. } => false,
        RStmt::If { then_b, else_b, .. } => is_innermost(then_b) && is_innermost(else_b),
        _ => true,
    })
}

impl FnCompiler<'_> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    /// Emit a fuel charge, fusing with an immediately preceding `Charge`
    /// or `ForHead` when no label sits between them.
    fn emit_charge(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        if self.code.len() > self.fuse_barrier {
            match self.code.last_mut() {
                Some(Instr::Charge(m)) => {
                    *m += n;
                    return;
                }
                Some(Instr::ForHead { charge, .. }) => {
                    *charge += n;
                    return;
                }
                _ => {}
            }
        }
        self.code.push(Instr::Charge(n));
    }

    /// From the next instruction on, `n` statements of the current charge
    /// group are charged but not started.
    fn charged_ahead(&mut self, n: u32) {
        let at = self.code.len() as u32;
        match self.unstarted.last_mut() {
            Some(&mut (_, last)) if last == n => {}
            Some(last) if last.0 == at => last.1 = n,
            None if n == 0 => {}
            _ => self.unstarted.push((at, n)),
        }
    }

    fn mark_label(&mut self) -> u32 {
        self.fuse_barrier = self.code.len();
        self.code.len() as u32
    }

    fn patch_to_here(&mut self, at: usize) {
        let here = self.code.len() as u32;
        match &mut self.code[at] {
            Instr::Jump { to }
            | Instr::JumpIfFalse { to, .. }
            | Instr::JumpIfTrue { to, .. } => *to = here,
            Instr::ForHead { exit, .. } => *exit = here,
            Instr::Kernel { done, .. } | Instr::ScalarLoop { done, .. } => *done = here,
            other => unreachable!("patching non-jump {other:?}"),
        }
        self.fuse_barrier = self.code.len();
    }

    fn alloc_temp(&mut self) -> Result<u16, VmLimit> {
        if self.temp >= u16::MAX as usize {
            return Err(VmLimit("register file overflow"));
        }
        let r = self.temp as u16;
        self.temp += 1;
        if self.temp > self.max_reg {
            self.max_reg = self.temp;
        }
        Ok(r)
    }

    fn dst(&mut self, hint: Option<u16>) -> Result<u16, VmLimit> {
        match hint {
            Some(d) => Ok(d),
            None => self.alloc_temp(),
        }
    }

    fn konst(&mut self, v: Value) -> Result<u16, VmLimit> {
        if self.consts.len() >= u16::MAX as usize {
            return Err(VmLimit("constant pool overflow"));
        }
        self.consts.push(v);
        Ok((self.consts.len() - 1) as u16)
    }

    fn msg_id(&mut self, msg: String) -> Result<u16, VmLimit> {
        if self.msgs.len() >= u16::MAX as usize {
            return Err(VmLimit("message table overflow"));
        }
        self.msgs.push(msg);
        Ok((self.msgs.len() - 1) as u16)
    }

    /// Coerce a register to int in a fresh temp (never in place: the
    /// source may be a live user slot).
    fn as_int(&mut self, src: u16) -> Result<u16, VmLimit> {
        let t = self.alloc_temp()?;
        self.emit(Instr::AsInt { dst: t, src });
        Ok(t)
    }

    fn compile_block(&mut self, stmts: &[RStmt]) -> Result<(), VmLimit> {
        let mut i = 0;
        while i < stmts.len() {
            if let RStmt::Kernel { call, fallback } = &stmts[i] {
                self.kernel_stmt(call, fallback)?;
                i += 1;
                continue;
            }
            let mut j = i;
            while j < stmts.len() && is_simple(&stmts[j]) {
                j += 1;
            }
            let with_compound = j < stmts.len() && !matches!(stmts[j], RStmt::Kernel { .. });
            let group = (j - i + usize::from(with_compound)) as u32;
            self.emit_charge(group);
            for (started, s) in (1..).zip(&stmts[i..j]) {
                self.charged_ahead(group - started);
                let save = self.temp;
                self.simple_stmt(s)?;
                self.temp = save;
            }
            self.charged_ahead(0);
            if with_compound {
                let save = self.temp;
                self.compound_stmt(&stmts[j])?;
                self.temp = save;
            }
            i = j + usize::from(with_compound);
        }
        Ok(())
    }

    fn simple_stmt(&mut self, s: &RStmt) -> Result<(), VmLimit> {
        match s {
            RStmt::Decl { slot, ty, init } => {
                let dst = *slot as u16;
                match init {
                    Some(e) => {
                        self.expr(e, Some(dst))?;
                    }
                    None => {
                        let k = self.konst(default_value(*ty))?;
                        self.emit(Instr::Const { dst, k });
                    }
                }
            }
            RStmt::Assign { target, value } => match target {
                RTarget::Slot(s) => {
                    self.expr(value, Some(*s as u16))?;
                }
                RTarget::Undefined(name) => {
                    // The tree-walker evaluates the value first, then
                    // errors assigning it; keep that order.
                    self.expr(value, None)?;
                    let m = self
                        .msg_id(format!("assignment to undefined variable '{name}'"))?;
                    self.emit(Instr::Fail { msg: m });
                }
            },
            RStmt::Store { buf, idx, value } => {
                let b = self.expr(buf, None)?;
                let i0 = self.expr(idx, None)?;
                let ii = self.as_int(i0)?;
                let v = self.expr(value, None)?;
                self.emit(Instr::Store { buf: b, idx: ii, val: v });
            }
            RStmt::Expr(e) => {
                self.expr(e, None)?;
            }
            RStmt::Spawn {
                target,
                target_is_buf,
                callee,
                args,
            } => {
                let (base, n) = self.eval_args(args)?;
                if self.spawns.len() >= u16::MAX as usize {
                    return Err(VmLimit("spawn table overflow"));
                }
                let id = self.spawns.len() as u16;
                self.spawns.push(SpawnData {
                    target: target.clone(),
                    target_is_buf: *target_is_buf,
                    callee: callee.clone(),
                    n,
                });
                self.emit(Instr::Spawn { id, base });
            }
            RStmt::Sync => {
                self.emit(Instr::Sync);
            }
            RStmt::UnpackCall { targets, call } => {
                let src = self.expr(call, None)?;
                if self.unpacks.len() >= u16::MAX as usize {
                    return Err(VmLimit("unpack table overflow"));
                }
                let id = self.unpacks.len() as u16;
                self.unpacks.push(targets.clone());
                self.emit(Instr::Unpack { id, src });
            }
            other => unreachable!("compound statement in simple group: {other:?}"),
        }
        Ok(())
    }

    fn compound_stmt(&mut self, s: &RStmt) -> Result<(), VmLimit> {
        match s {
            RStmt::If { cond, then_b, else_b } => {
                let c = self.expr(cond, None)?;
                let jf = self.emit(Instr::JumpIfFalse { cond: c, to: 0 });
                self.compile_block(then_b)?;
                if else_b.is_empty() {
                    self.patch_to_here(jf);
                } else {
                    let je = self.emit(Instr::Jump { to: 0 });
                    self.patch_to_here(jf);
                    self.compile_block(else_b)?;
                    self.patch_to_here(je);
                }
            }
            RStmt::While { cond, body } => {
                let head = self.mark_label();
                let c = self.expr(cond, None)?;
                let jf = self.emit(Instr::JumpIfFalse { cond: c, to: 0 });
                // Per-iteration step (fuses with the body's first group).
                self.emit_charge(1);
                self.compile_block(body)?;
                self.emit(Instr::Jump { to: head });
                self.patch_to_here(jf);
            }
            RStmt::For(f) if f.parallel => self.parallel_for(f)?,
            RStmt::For(f) => {
                let l0 = self.expr(&f.lo, None)?;
                let counter = self.as_int(l0)?;
                let h0 = self.expr(&f.hi, None)?;
                let hi = self.as_int(h0)?;
                let head = self.mark_label() as usize;
                self.emit(Instr::ForHead {
                    counter,
                    hi,
                    var: f.var as u16,
                    charge: 1,
                    exit: 0,
                });
                self.compile_block(&f.body)?;
                self.emit(Instr::ForNext { counter, head: head as u32 });
                // Unboxed, the `ScalarLoop` is at `head` and the `ForHead`
                // after it; both leave the loop here.
                if self.unbox_loop(f, head)? {
                    self.patch_to_here(head + 1);
                }
                self.patch_to_here(head);
            }
            RStmt::Return(e) => match e {
                Some(e) => {
                    let r = self.expr(e, None)?;
                    self.emit(Instr::Ret { src: r });
                }
                None => {
                    self.emit(Instr::RetUnit);
                }
            },
            other => unreachable!("simple statement compiled as compound: {other:?}"),
        }
        Ok(())
    }

    /// Give the innermost loop just compiled (`ForHead` at `head`,
    /// `ForNext` last) a typed program if its body has one, entered by a
    /// `ScalarLoop` inserted before the `ForHead`; otherwise note why not.
    /// (A loop around other loops is no candidate: its body branches.)
    fn unbox_loop(&mut self, f: &RFor, head: usize) -> Result<bool, VmLimit> {
        if !is_innermost(&f.body) {
            return Ok(false);
        }
        let (for_head, rest) = self.code[head..].split_first().expect("the ForHead");
        let (_, body) = rest.split_last().expect("the ForNext");
        match scalar_loop::translate(for_head, body, &self.consts, self.slot_types) {
            Ok(lp) => {
                if self.scalar_loops.len() >= u16::MAX as usize {
                    return Err(VmLimit("unboxed-loop table overflow"));
                }
                let id = self.scalar_loops.len() as u16;
                if let Some(reason) = lp.per_iteration_reason() {
                    self.per_iteration_loops.push((f.name.clone(), reason));
                }
                self.scalar_loops.push(lp);
                // A translated body is straight-line — nothing jumps into
                // or out of it — so only the back-edge moves with it.
                self.code.insert(head, Instr::ScalarLoop { id, done: 0 });
                for (at, _) in self.unstarted.iter_mut().rev() {
                    if (*at as usize) < head {
                        break;
                    }
                    *at += 1;
                }
                if let Some(Instr::ForNext { head: back, .. }) = self.code.last_mut() {
                    *back += 1;
                }
                Ok(true)
            }
            Err(reason) => {
                self.boxed_loops.push((f.name.clone(), reason));
                Ok(false)
            }
        }
    }

    /// A kernel op costs no step of its own and is a branch: the kernel
    /// instruction, then the nest's bytecode (with the nest's own charge
    /// groups) for the case the kernel declines.
    fn kernel_stmt(&mut self, call: &RMatMul, fallback: &[RStmt]) -> Result<(), VmLimit> {
        if self.kernels.len() >= u16::MAX as usize {
            return Err(VmLimit("kernel table overflow"));
        }
        let id = self.kernels.len() as u16;
        self.kernels.push(call.clone());
        let at = self.emit(Instr::Kernel { id, done: 0 });
        self.compile_block(fallback)?;
        self.patch_to_here(at);
        Ok(())
    }

    fn parallel_for(&mut self, f: &RFor) -> Result<(), VmLimit> {
        // Bounds evaluate (and coerce) in the caller's frame, in the
        // tree-walker's order: lo, then hi.
        let l0 = self.expr(&f.lo, None)?;
        let lo = self.as_int(l0)?;
        let h0 = self.expr(&f.hi, None)?;
        let hi = self.as_int(h0)?;
        let mut captured = Vec::with_capacity(f.captured.len());
        for &s in &f.captured {
            if s > u16::MAX as u32 {
                return Err(VmLimit("captured slot out of range"));
            }
            captured.push(s as u16);
        }
        // The chunk body is its own code stream; temps it allocates live
        // above the current watermark in the same register file.
        let saved_code = std::mem::take(&mut self.code);
        let saved_unstarted = std::mem::take(&mut self.unstarted);
        let saved_barrier = self.fuse_barrier;
        self.fuse_barrier = 0;
        // Per-iteration step (fuses with the body's first group), exactly
        // the tree-walker's `charge(1)` before each iteration body.
        self.emit_charge(1);
        self.compile_block(&f.body)?;
        let body = std::mem::replace(&mut self.code, saved_code);
        let unstarted = std::mem::replace(&mut self.unstarted, saved_unstarted);
        self.fuse_barrier = saved_barrier;
        if self.parfors.len() >= u16::MAX as usize {
            return Err(VmLimit("parallel-loop table overflow"));
        }
        let id = self.parfors.len() as u16;
        self.parfors.push(ParForData {
            var: f.var as u16,
            name: f.name.clone(),
            lo,
            hi,
            body,
            unstarted,
            captured,
            schedule: f.schedule,
        });
        self.emit(Instr::ParFor { id });
        Ok(())
    }

    /// Evaluate `args` into consecutive registers, returning the base.
    fn eval_args(&mut self, args: &[RExpr]) -> Result<(u16, u16), VmLimit> {
        if args.len() > u16::MAX as usize {
            return Err(VmLimit("too many call arguments"));
        }
        let base = self.temp;
        for _ in args {
            self.alloc_temp()?;
        }
        for (i, a) in args.iter().enumerate() {
            let save = self.temp;
            self.expr(a, Some((base + i) as u16))?;
            self.temp = save;
        }
        Ok((base as u16, args.len() as u16))
    }

    /// Lower an expression; the result lands in `hint` when given (the
    /// write is always the lowered code's final instruction, so writing
    /// directly into a user slot is safe), else in a slot/temp register.
    fn expr(&mut self, e: &RExpr, hint: Option<u16>) -> Result<u16, VmLimit> {
        match e {
            RExpr::Int(v) => self.load_const(Value::I(*v), hint),
            RExpr::Float(v) => self.load_const(Value::F(*v), hint),
            RExpr::Bool(v) => self.load_const(Value::B(*v), hint),
            RExpr::Str(s) => self.load_const(Value::S(s.clone()), hint),
            RExpr::Slot(s) => {
                let src = *s as u16;
                match hint {
                    Some(d) => {
                        self.emit(Instr::Copy { dst: d, src });
                        Ok(d)
                    }
                    None => Ok(src),
                }
            }
            RExpr::Undefined(n) => {
                let m = self.msg_id(format!("undefined variable '{n}'"))?;
                self.emit(Instr::Fail { msg: m });
                // Unreachable at runtime; parents still need a register.
                self.dst(hint)
            }
            RExpr::Neg(e) => {
                let dst = self.dst(hint)?;
                let save = self.temp;
                let src = self.expr(e, None)?;
                self.emit(Instr::Neg { dst, src });
                self.temp = save;
                Ok(dst)
            }
            RExpr::Not(e) => {
                let dst = self.dst(hint)?;
                let save = self.temp;
                let src = self.expr(e, None)?;
                self.emit(Instr::Not { dst, src });
                self.temp = save;
                Ok(dst)
            }
            RExpr::Bin(op, a, b) if matches!(op, IrBinOp::And | IrBinOp::Or) => {
                // Short-circuit logicals compile to branches; the
                // fall-through side re-checks both operands through the
                // shared eval_bin, matching tree-walker coercion errors.
                let dst = self.dst(hint)?;
                let save = self.temp;
                let ra = self.expr(a, None)?;
                let jshort = if *op == IrBinOp::And {
                    self.emit(Instr::JumpIfFalse { cond: ra, to: 0 })
                } else {
                    self.emit(Instr::JumpIfTrue { cond: ra, to: 0 })
                };
                let rb = self.expr(b, None)?;
                self.emit(Instr::Bin { op: *op, dst, a: ra, b: rb });
                let jend = self.emit(Instr::Jump { to: 0 });
                self.patch_to_here(jshort);
                let k = self.konst(Value::B(*op == IrBinOp::Or))?;
                self.emit(Instr::Const { dst, k });
                self.patch_to_here(jend);
                self.temp = save;
                Ok(dst)
            }
            RExpr::Bin(op, a, b) => {
                let dst = self.dst(hint)?;
                let save = self.temp;
                let ra = self.expr(a, None)?;
                // `x[e] op x[e]` (e.g. squaring an element) re-evaluates
                // the whole subscript chain; share the first result when
                // the operand is structurally identical and pure. A pure
                // expression that succeeded once cannot fail or differ on
                // an immediate re-evaluation, so this is unobservable.
                let rb = if a == b && is_pure(a) {
                    ra
                } else {
                    self.expr(b, None)?
                };
                self.emit(Instr::Bin { op: *op, dst, a: ra, b: rb });
                self.temp = save;
                Ok(dst)
            }
            RExpr::Load { buf, idx } => {
                let dst = self.dst(hint)?;
                let save = self.temp;
                let b = self.expr(buf, None)?;
                let i0 = self.expr(idx, None)?;
                let ii = self.as_int(i0)?;
                self.emit(Instr::Load { dst, buf: b, idx: ii });
                self.temp = save;
                Ok(dst)
            }
            RExpr::Call(callee, args) => {
                if let (RCallee::Builtin(Builtin::Dim), [buf, d]) = (callee, args.as_slice()) {
                    let dst = self.dst(hint)?;
                    let save = self.temp;
                    let buf = self.expr(buf, None)?;
                    let d = self.expr(d, None)?;
                    self.emit(Instr::Dim { dst, buf, d });
                    self.temp = save;
                    return Ok(dst);
                }
                let dst = self.dst(hint)?;
                let save = self.temp;
                let (base, n) = self.eval_args(args)?;
                match callee {
                    RCallee::User(idx) => {
                        if *idx > u16::MAX as usize {
                            return Err(VmLimit("function index out of range"));
                        }
                        self.emit(Instr::CallUser {
                            dst,
                            func: *idx as u16,
                            base,
                            n,
                        });
                    }
                    RCallee::Builtin(builtin) => {
                        self.emit(Instr::CallBuiltin { dst, builtin: *builtin, base, n });
                    }
                    // The tree-walker evaluates the arguments, then errors.
                    RCallee::Undefined(name) => {
                        let m = self.msg_id(format!("undefined function '{name}'"))?;
                        self.emit(Instr::Fail { msg: m });
                    }
                }
                self.temp = save;
                Ok(dst)
            }
            RExpr::CastInt(e) => {
                let dst = self.dst(hint)?;
                let save = self.temp;
                let src = self.expr(e, None)?;
                self.emit(Instr::CastInt { dst, src });
                self.temp = save;
                Ok(dst)
            }
            RExpr::CastFloat(e) => {
                let dst = self.dst(hint)?;
                let save = self.temp;
                let src = self.expr(e, None)?;
                self.emit(Instr::CastFloat { dst, src });
                self.temp = save;
                Ok(dst)
            }
            RExpr::Tuple(es) => {
                let dst = self.dst(hint)?;
                let save = self.temp;
                let (base, n) = self.eval_args(es)?;
                self.emit(Instr::Tuple { dst, base, n });
                self.temp = save;
                Ok(dst)
            }
        }
    }

    fn load_const(&mut self, v: Value, hint: Option<u16>) -> Result<u16, VmLimit> {
        let dst = self.dst(hint)?;
        let k = self.konst(v)?;
        self.emit(Instr::Const { dst, k });
        Ok(dst)
    }
}

/// Whether evaluating `e` twice in a row is guaranteed indistinguishable
/// from evaluating it once: no side effects, no fuel charges, and any
/// failure (bad index, freed buffer, type error) reproduces identically
/// because nothing between the two evaluations can change frame or heap
/// state. User calls execute statements (side effects + fuel); builtin
/// calls are pure when the table says so ([`Builtin::is_pure`]).
fn is_pure(e: &RExpr) -> bool {
    match e {
        RExpr::Int(_) | RExpr::Float(_) | RExpr::Bool(_) | RExpr::Str(_) | RExpr::Slot(_) => true,
        RExpr::Undefined(_) => false,
        RExpr::Bin(_, a, b) => is_pure(a) && is_pure(b),
        RExpr::Neg(a) | RExpr::Not(a) | RExpr::CastInt(a) | RExpr::CastFloat(a) => is_pure(a),
        RExpr::Load { buf, idx } => is_pure(buf) && is_pure(idx),
        RExpr::Call(RCallee::Builtin(b), args) => b.is_pure() && args.iter().all(is_pure),
        RExpr::Call(RCallee::User(_) | RCallee::Undefined(_), _) => false,
        RExpr::Tuple(es) => es.iter().all(is_pure),
    }
}

// --- dispatch -----------------------------------------------------------

/// Run function `idx`'s bytecode on `frame`, whose slots hold its
/// arguments: the VM's part of `Interp::call_function`, which checked the
/// arity and does the sync and the profile attribution around it.
pub(crate) fn run_function(
    interp: &Interp,
    vm: &VmProgram,
    idx: usize,
    frame: &mut Frame,
) -> IResult<Option<Value>> {
    let f = &vm.funcs[idx];
    frame.slots.resize(f.nregs, Value::Unit);
    exec(interp, vm, f, frame)
}

/// Dispatch entry point: picks the metering specialization. When nothing
/// can observe an intermediate step count (`Interp::fast_meter`), charges
/// accumulate in a stack-local counter and hit the shared atomic once per
/// frame instead of once per statement group — the totals are identical.
fn exec(
    interp: &Interp,
    vm: &VmProgram,
    f: &VmFunction,
    frame: &mut Frame,
) -> IResult<Option<Value>> {
    let (code, unstarted) = (&f.code[..], &f.unstarted[..]);
    if interp.fast_meter() {
        let mut local = 0u64;
        let r = exec_impl::<true>(interp, vm, f, code, unstarted, frame, &mut local);
        if local > 0 {
            interp.steps.fetch_add(local, Ordering::Relaxed);
        }
        r
    } else {
        exec_impl::<false>(interp, vm, f, code, unstarted, frame, &mut 0)
    }
}

/// Run one code stream on `frame`: [`dispatch`], and when it stops on a
/// runtime error, give back the steps of the failing group's statements
/// that never started (`unstarted`, the stream's
/// [`VmFunction::unstarted`]), so that every frame an error leaves counts
/// what the tree tier counts. A stop at a limit keeps its charge.
fn exec_impl<const BATCH: bool>(
    interp: &Interp,
    vm: &VmProgram,
    f: &VmFunction,
    code: &[Instr],
    unstarted: &[(u32, u32)],
    frame: &mut Frame,
    local: &mut u64,
) -> IResult<Option<Value>> {
    let mut pc = 0;
    let r = dispatch::<BATCH>(interp, vm, f, code, frame, local, &mut pc);
    if let Err(e) = &r {
        if e.kind == InterpErrorKind::Runtime {
            // `pc` is already past the failing instruction.
            let failed = (pc - 1) as u32;
            let entry = unstarted.partition_point(|&(at, _)| at <= failed);
            let refund = entry.checked_sub(1).map_or(0, |e| u64::from(unstarted[e].1));
            if BATCH {
                *local -= refund;
            } else {
                interp.steps.fetch_sub(refund, Ordering::Relaxed);
            }
        }
    }
    r
}

/// The dispatch loop, from `*pc` on. Returns `Some(value)` when a `Ret`
/// executed, `None` when control fell off the end of the stream (function
/// bodies without a trailing return; every completed parallel-loop
/// iteration). With `BATCH`, step charges go to `local` (the caller
/// flushes them to the shared counter — see [`exec`] and `run_parfor`).
#[inline(always)]
fn dispatch<const BATCH: bool>(
    interp: &Interp,
    vm: &VmProgram,
    f: &VmFunction,
    code: &[Instr],
    frame: &mut Frame,
    local: &mut u64,
    pc: &mut usize,
) -> IResult<Option<Value>> {
    // SAFETY (for every `reg!`/`set!` below): `VmFunction::validate`
    // bounds-checked every register operand against `nregs` when the
    // bytecode was compiled, and `frame.slots.len() == f.nregs` at every
    // exec entry (`run_function` resizes the argument vector,
    // `Interp::run_parallel_loop` builds its templates at the length of
    // the frame `run_parfor` hands it, which is this function's own).
    macro_rules! reg {
        ($r:expr) => {
            unsafe { frame.slots.get_unchecked(*$r as usize) }
        };
    }
    macro_rules! set {
        ($r:expr, $v:expr) => {{
            let v = $v;
            unsafe { *frame.slots.get_unchecked_mut(*$r as usize) = v };
        }};
    }
    while let Some(instr) = code.get(*pc) {
        *pc += 1;
        match instr {
            Instr::Charge(n) => {
                if BATCH {
                    *local += *n as u64;
                } else {
                    interp.charge(*n as u64)?;
                }
            }
            Instr::Const { dst, k } => {
                // `k` validated against `consts` like registers are.
                set!(dst, unsafe { f.consts.get_unchecked(*k as usize) }.clone());
            }
            Instr::Copy { dst, src } => {
                set!(dst, reg!(src).clone());
            }
            Instr::Bin { op, dst, a, b } => {
                let av = reg!(a);
                let bv = reg!(b);
                // Int/int fast path: identical wrapping semantics to
                // eval_bin, without the promotion checks.
                let r = if let (Value::I(x), Value::I(y)) = (av, bv) {
                    match op {
                        IrBinOp::Add => Value::I(x.wrapping_add(*y)),
                        IrBinOp::Sub => Value::I(x.wrapping_sub(*y)),
                        IrBinOp::Mul => Value::I(x.wrapping_mul(*y)),
                        IrBinOp::Div => Value::I(int_div(*x, *y)?),
                        IrBinOp::Rem => Value::I(int_rem(*x, *y)?),
                        IrBinOp::Lt => Value::B(x < y),
                        IrBinOp::Le => Value::B(x <= y),
                        IrBinOp::Gt => Value::B(x > y),
                        IrBinOp::Ge => Value::B(x >= y),
                        IrBinOp::Eq => Value::B(x == y),
                        IrBinOp::Ne => Value::B(x != y),
                        _ => eval_bin(*op, av, bv)?,
                    }
                } else {
                    eval_bin(*op, av, bv)?
                };
                set!(dst, r);
            }
            Instr::Neg { dst, src } => {
                set!(dst, negate(reg!(src))?);
            }
            Instr::Not { dst, src } => {
                let b = reg!(src).as_b()?;
                set!(dst, Value::B(!b));
            }
            Instr::AsInt { dst, src } => {
                let i = reg!(src).as_i()?;
                set!(dst, Value::I(i));
            }
            Instr::CastInt { dst, src } => {
                set!(dst, cast_int(reg!(src))?);
            }
            Instr::CastFloat { dst, src } => {
                let x = reg!(src).as_f()?;
                set!(dst, Value::F(x));
            }
            Instr::Load { dst, buf, idx } => {
                let i = reg!(idx).as_i()?;
                if i < 0 {
                    return Err(InterpError::new(format!("negative load index {i}")));
                }
                let v = reg!(buf).as_buf()?.read(i as usize)?;
                set!(dst, v);
            }
            Instr::Store { buf, idx, val } => {
                let i = reg!(idx).as_i()?;
                if i < 0 {
                    return Err(InterpError::new(format!("negative store index {i}")));
                }
                reg!(buf).as_buf()?.write(i as usize, reg!(val))?;
            }
            Instr::Jump { to } => *pc = *to as usize,
            Instr::JumpIfFalse { cond, to } => {
                if !reg!(cond).as_b()? {
                    *pc = *to as usize;
                }
            }
            Instr::JumpIfTrue { cond, to } => {
                if reg!(cond).as_b()? {
                    *pc = *to as usize;
                }
            }
            Instr::ForHead {
                counter,
                hi,
                var,
                charge,
                exit,
            } => {
                let c = reg!(counter).as_i()?;
                if c >= reg!(hi).as_i()? {
                    *pc = *exit as usize;
                } else {
                    if BATCH {
                        *local += *charge as u64;
                    } else {
                        interp.charge(*charge as u64)?;
                    }
                    set!(var, Value::I(c));
                }
            }
            Instr::ForNext { counter, head } => {
                let c = reg!(counter).as_i()?;
                // Wrapping, matching scalar binops and the emitted C.
                set!(counter, Value::I(c.wrapping_add(1)));
                *pc = *head as usize;
            }
            Instr::CallUser { dst, func, base, n } => {
                let lo = *base as usize;
                let args = frame.slots[lo..lo + *n as usize].to_vec();
                let v = interp.call_function(*func as usize, args)?;
                frame.slots[*dst as usize] = v;
            }
            Instr::Dim { dst, buf, d } => {
                let dim = dim_of(&frame.slots[*buf as usize], &frame.slots[*d as usize])?;
                frame.slots[*dst as usize] = Value::I(dim);
            }
            Instr::CallBuiltin { dst, builtin, base, n } => {
                let lo = *base as usize;
                let v = interp.builtin(*builtin, &frame.slots[lo..lo + *n as usize])?;
                frame.slots[*dst as usize] = v;
            }
            Instr::Tuple { dst, base, n } => {
                let lo = *base as usize;
                let vals: Vec<Value> = frame.slots[lo..lo + *n as usize].to_vec();
                frame.slots[*dst as usize] = Value::Tup(vals.into());
            }
            Instr::Unpack { id, src } => {
                let v = frame.slots[*src as usize].clone();
                let Value::Tup(parts) = v else {
                    return Err(InterpError::new("UnpackCall on a non-tuple value"));
                };
                let targets = &f.unpacks[*id as usize];
                if parts.len() != targets.len() {
                    return Err(InterpError::new(format!(
                        "tuple arity mismatch: {} targets, {} values",
                        targets.len(),
                        parts.len()
                    )));
                }
                for (t, p) in targets.iter().zip(parts.iter()) {
                    interp.set_target(frame, t, p.clone())?;
                }
            }
            Instr::Spawn { id, base } => {
                let sd = &f.spawns[*id as usize];
                let lo = *base as usize;
                let args = frame.slots[lo..lo + sd.n as usize].to_vec();
                frame.pending.push(Pending {
                    target: sd.target.clone(),
                    target_is_buf: sd.target_is_buf,
                    callee: sd.callee.clone(),
                    args,
                });
            }
            Instr::Sync => interp.run_pending(frame)?,
            Instr::ParFor { id } => {
                let pf = &f.parfors[*id as usize];
                let lo = frame.slots[pf.lo as usize].as_i()?;
                let hi = frame.slots[pf.hi as usize].as_i()?;
                if hi > lo {
                    run_parfor(interp, vm, f, pf, frame, lo..hi)?;
                }
            }
            Instr::Kernel { id, done } => {
                let batch = if BATCH { Some(&mut *local) } else { None };
                if run_matmul(interp, &f.kernels[*id as usize], frame, batch)? {
                    *pc = *done as usize;
                }
            }
            Instr::ScalarLoop { id, done } => {
                let batch = if BATCH { Some(&mut *local) } else { None };
                if scalar_loop::run(interp, &f.scalar_loops[*id as usize], frame, batch)? {
                    *pc = *done as usize;
                }
            }
            Instr::Fail { msg } => {
                return Err(InterpError::new(f.msgs[*msg as usize].clone()))
            }
            Instr::Ret { src } => return Ok(Some(frame.slots[*src as usize].clone())),
            Instr::RetUnit => return Ok(Some(Value::Unit)),
        }
    }
    Ok(None)
}

/// Fork-join execution of a parallel loop's bytecode body on the shared
/// driver ([`Interp::run_parallel_loop`]).
fn run_parfor(
    interp: &Interp,
    vm: &VmProgram,
    f: &VmFunction,
    pf: &ParForData,
    frame: &Frame,
    range: std::ops::Range<i32>,
) -> IResult<()> {
    let fast = interp.fast_meter();
    let captured = pf.captured.iter().map(|&s| s as usize);
    let (var, schedule) = (pf.var as usize, pf.schedule);
    interp.run_parallel_loop(frame, captured, var, &pf.name, schedule, range, |tf, local| {
        let r = if fast {
            exec_impl::<true>(interp, vm, f, &pf.body, &pf.unstarted, tf, local)
        } else {
            exec_impl::<false>(interp, vm, f, &pf.body, &pf.unstarted, tf, &mut 0)
        };
        Ok(r?.is_some())
    })
}
