//! Unboxed loops: how the VM tier runs an innermost `for` whose body is
//! straight-line scalar code.
//!
//! A with-loop body is an arbitrary scalar expression, so the loops the
//! time goes to — genarray fills, `fold(+|*)`, elementwise nests and their
//! `split`/`tile`/`interchange` versions — match no library kernel. What
//! they share is their bytecode: a `ForHead`, then only `Const`, `Copy`,
//! arithmetic and comparison `Bin`, `Neg`, `Not`, the casts, `Load`,
//! `Store` and `Dim`, then `ForNext`. [`translate`] turns *that bytecode*
//! (so evaluation order and operand sharing are the VM's own) into a typed
//! program over a file of unboxed 32-bit registers — `int`, `float`,
//! `bool` and buffer cells are all 32 bits — and [`run`] executes it in
//! place of the boxed iterations. As with [`crate::kernel`], the ordinary
//! bytecode stays the one place the loop's meaning is written (the tree
//! tier interprets the same statements), and three contracts keep the
//! shortcut unobservable except in time:
//!
//! * **Entry guard.** Kinds are inferred from the declared types of the
//!   slots the body reads before writing ([`crate::resolve`] records
//!   them). At entry every such slot must hold a value of that type and
//!   every buffer operand must be live and of its declared element type;
//!   literals, `dim()` and every operation on loop-invariant inputs then
//!   run once. If any of that fails the loop *declines*: nothing done,
//!   nothing charged, the `ForHead` that follows runs the loop.
//! * **Bail at an iteration boundary.** Every load and store is bounds
//!   checked and every int `/` and `%` checks its divisor. A failing check
//!   in iteration `t` leaves frame and buffers as the bytecode would have
//!   them at the top of iteration `t` — loop-carried slots hold their
//!   top-of-iteration values, the counter register holds `t` — and the
//!   bytecode resumes there and raises the error it always raised. A body
//!   with a checked operation after a store could not undo the store and
//!   is not translated. (Slots the body writes before reading are not
//!   restored: the resumed iteration rewrites them before anything reads
//!   them.)
//! * **Closed-form fuel.** `n` iterations cost `n × ForHead.charge`
//!   steps: added to the frame's batch when nothing can observe the count
//!   part-way (`Interp::fast_meter`), otherwise charged a block of at most
//!   [`BLOCK`] iterations ahead of running them, so the deadline is polled
//!   at the nest's cadence. A block the fuel budget cannot pay for is
//!   un-charged and handed to the bytecode, which stops at exactly the
//!   iteration the nest stops at.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::interp::{
    float_arith, float_to_int, int_div, int_rem, int_to_bool, CellView, Frame, IResult, Interp,
    LimitKind, Value,
};
use crate::ir::{CType, Elem, IrBinOp};
use crate::vm::Instr;

/// Size of the unboxed register file. Operands are `u8`, so every operand
/// indexes inside it by construction.
const MAX_REGS: usize = 256;
/// Buffer operands one loop may name.
const MAX_BUFS: usize = 16;
/// Iterations charged ahead of running them when charges are metered.
const BLOCK: i32 = 1024;

/// What the 32 bits of an unboxed register mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `int`: the value's bits.
    Int,
    /// `float`: `to_bits()`.
    Float,
    /// `bool`: 0 or 1, so a `bool` read as an `int` needs no conversion.
    Bool,
}

impl Kind {
    fn of(ty: CType) -> Option<Kind> {
        match ty {
            CType::Int => Some(Kind::Int),
            CType::Float => Some(Kind::Float),
            CType::Bool => Some(Kind::Bool),
            CType::Buf(_) | CType::Void => None,
        }
    }

    fn of_elem(elem: Elem) -> Kind {
        match elem {
            Elem::I32 => Kind::Int,
            Elem::F32 => Kind::Float,
            Elem::Bool => Kind::Bool,
        }
    }

    /// The register bits of `v`, if `v` is of this kind.
    fn unbox(self, v: &Value) -> Option<u32> {
        match (self, v) {
            (Kind::Int, Value::I(x)) => Some(*x as u32),
            (Kind::Float, Value::F(x)) => Some(x.to_bits()),
            (Kind::Bool, Value::B(x)) => Some(u32::from(*x)),
            _ => None,
        }
    }

    fn boxed(self, bits: u32) -> Value {
        match self {
            Kind::Int => Value::I(bits as i32),
            Kind::Float => Value::F(f32::from_bits(bits)),
            Kind::Bool => Value::B(bits != 0),
        }
    }
}

/// Typed operations. Int add, subtract and multiply work on the bits
/// (`u32` wrapping arithmetic is `i32` wrapping arithmetic); `>` and `>=`
/// are `<` and `<=` with the operands swapped; comparisons and `Not`
/// produce 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Code {
    Mov,
    IAdd,
    ISub,
    IMul,
    /// Checked ([`int_div`]).
    IDiv,
    /// Checked ([`int_rem`]).
    IRem,
    ILt,
    ILe,
    IEq,
    INe,
    INeg,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FRem,
    FLt,
    FLe,
    FEq,
    FNe,
    FNeg,
    /// `!x` of a `bool` or an `int`.
    Not,
    IntToFloat,
    FloatToInt,
    /// `d = bufs[a][b]`, bounds checked.
    Load,
    /// [`Code::Load`] from a `bool` buffer: any nonzero cell reads as 1.
    LoadBool,
    /// `bufs[a][b] = d`, bounds checked.
    Store,
    /// `d = dim(bufs[a], b)`, checked; only ever hoisted.
    Dim,
}

impl Code {
    /// Whether the operation can fail (and so bail or decline).
    fn checked(self) -> bool {
        matches!(
            self,
            Code::IDiv | Code::IRem | Code::Load | Code::LoadBool | Code::Store | Code::Dim
        )
    }

    /// Whether `a` names a buffer rather than a register.
    fn on_buffer(self) -> bool {
        matches!(self, Code::Load | Code::LoadBool | Code::Store | Code::Dim)
    }

    fn unary(self) -> bool {
        matches!(
            self,
            Code::Mov | Code::INeg | Code::FNeg | Code::Not | Code::IntToFloat | Code::FloatToInt
        )
    }
}

/// One typed operation: `d` is the destination register (the stored value
/// for [`Code::Store`]), `a` and `b` the operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    code: Code,
    d: u8,
    a: u8,
    b: u8,
}

impl Op {
    fn new(code: Code, d: u8, a: u8, b: u8) -> Op {
        Op { code, d, a, b }
    }

    /// The registers the operation reads.
    fn sources(&self) -> impl Iterator<Item = u8> {
        let a = (!self.code.on_buffer()).then_some(self.a);
        let b = (!self.code.unary()).then_some(self.b);
        let d = (self.code == Code::Store).then_some(self.d);
        a.into_iter().chain(b).chain(d)
    }

    fn sources_mut(&mut self) -> impl Iterator<Item = &mut u8> {
        let a = (!self.code.on_buffer()).then_some(&mut self.a);
        let b = (!self.code.unary()).then_some(&mut self.b);
        let d = (self.code == Code::Store).then_some(&mut self.d);
        a.into_iter().chain(b).chain(d)
    }
}

/// A frame slot and the unboxed register that stands for it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    reg: u16,
    treg: u8,
    kind: Kind,
}

/// The typed program of one loop.
#[derive(Debug, Clone)]
pub(crate) struct ScalarLoop {
    /// The `ForHead`'s counter and bound registers (both hold `int`s: the
    /// loop statement coerced them).
    counter: u16,
    hi: u16,
    /// Steps one iteration costs (`ForHead.charge`).
    charge: u32,
    /// Unboxed register the index variable is set in before each
    /// iteration.
    var: u8,
    /// Unboxed registers in use.
    nregs: usize,
    /// Slots read before written: unboxed (and type-checked) at entry.
    live_ins: Vec<Slot>,
    /// Buffer operands, by the slot holding the handle.
    bufs: Vec<(u16, Elem)>,
    /// Literals, set once per entry.
    consts: Vec<(u8, u32)>,
    /// Operations on loop-invariant inputs, run once per entry.
    pre: Vec<Op>,
    /// One iteration.
    body: Vec<Op>,
    /// Slots the loop writes, boxed back when it completes.
    written: Vec<Slot>,
    /// The live-in slots among them, by the register that holds their
    /// top-of-iteration value: boxed back when the bytecode takes over.
    carried: Vec<Slot>,
}

// --- translation ----------------------------------------------------------

/// Why a loop body has no typed program.
type Reason = &'static str;

const NO_UNBOXED_FORM: Reason = "operand types have no unboxed form";
const BRANCH: Reason = "branch in body";

/// The unboxed register currently standing for a bytecode register.
#[derive(Debug, Clone, Copy)]
struct Binding {
    reg: u16,
    treg: u8,
    kind: Kind,
    /// Same value in every iteration: operations on such inputs hoist.
    invariant: bool,
}

impl Binding {
    fn slot(&self) -> Slot {
        Slot {
            reg: self.reg,
            treg: self.treg,
            kind: self.kind,
        }
    }
}

struct Translator<'a> {
    consts: &'a [Value],
    slot_types: &'a [CType],
    /// Bytecode registers the body writes.
    writes: Vec<u16>,
    bindings: Vec<Binding>,
    /// A store has been emitted: no checked operation may follow.
    stored: bool,
    lp: ScalarLoop,
}

/// Translate the loop whose `ForHead` is `head` and whose iteration is
/// `body` (the instructions between it and the `ForNext`). `consts` is the
/// function's constant pool, `slot_types` its slots' declared types.
pub(crate) fn translate(
    head: &Instr,
    body: &[Instr],
    consts: &[Value],
    slot_types: &[CType],
) -> Result<ScalarLoop, Reason> {
    let &Instr::ForHead {
        counter,
        hi,
        var,
        charge,
        ..
    } = head
    else {
        unreachable!("translating a loop without its ForHead: {head:?}");
    };
    let mut t = Translator {
        consts,
        slot_types,
        // The head writes the index variable, before every iteration.
        writes: std::iter::once(var)
            .chain(body.iter().filter_map(written_register))
            .collect(),
        // Sized once: translation is on every unique request's path.
        bindings: Vec::with_capacity(body.len() + 1),
        stored: false,
        lp: ScalarLoop {
            counter,
            hi,
            charge,
            var: 0,
            nregs: 0,
            live_ins: Vec::new(),
            bufs: Vec::new(),
            consts: Vec::new(),
            pre: Vec::new(),
            body: Vec::with_capacity(body.len()),
            written: Vec::new(),
            carried: Vec::new(),
        },
    };
    t.lp.var = t.define(var, Kind::Int, false)?;
    for instr in body {
        t.instr(instr)?;
    }
    t.finish()
}

/// The register an eligible instruction writes.
fn written_register(instr: &Instr) -> Option<u16> {
    match instr {
        Instr::Const { dst, .. }
        | Instr::Copy { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::AsInt { dst, .. }
        | Instr::CastInt { dst, .. }
        | Instr::CastFloat { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::Dim { dst, .. } => Some(*dst),
        _ => None,
    }
}

impl Translator<'_> {
    fn fresh(&mut self) -> Result<u8, Reason> {
        if self.lp.nregs == MAX_REGS {
            return Err("too many unboxed registers");
        }
        self.lp.nregs += 1;
        Ok((self.lp.nregs - 1) as u8)
    }

    /// Bind `reg` to a fresh unboxed register (temporaries are renamed at
    /// every write: the watermark allocator reuses them across statements,
    /// and a hoisted value must outlive the statement that computed it).
    fn define(&mut self, reg: u16, kind: Kind, invariant: bool) -> Result<u8, Reason> {
        let treg = self.fresh()?;
        self.bind(Binding {
            reg,
            treg,
            kind,
            invariant,
        });
        Ok(treg)
    }

    fn bind(&mut self, b: Binding) {
        match self.bindings.iter_mut().find(|x| x.reg == b.reg) {
            Some(x) => *x = b,
            None => self.bindings.push(b),
        }
    }

    /// The current binding of `reg`; a first read of an unwritten register
    /// makes it a live-in of the kind its slot declares.
    fn read(&mut self, reg: u16) -> Result<Binding, Reason> {
        if let Some(b) = self.bindings.iter().find(|b| b.reg == reg) {
            return Ok(*b);
        }
        let ty = self
            .slot_types
            .get(reg as usize)
            .ok_or("body reads a temporary it did not write")?;
        let kind = Kind::of(*ty).ok_or("matrix handle used as a scalar")?;
        let b = Binding {
            reg,
            treg: self.fresh()?,
            kind,
            invariant: !self.writes.contains(&reg),
        };
        self.lp.live_ins.push(b.slot());
        if !b.invariant {
            self.lp.carried.push(b.slot());
        }
        self.bindings.push(b);
        Ok(b)
    }

    /// A register read where the bytecode coerces to `int` (`as_i`).
    fn read_int(&mut self, reg: u16) -> Result<Binding, Reason> {
        let b = self.read(reg)?;
        match b.kind {
            Kind::Int | Kind::Bool => Ok(b),
            Kind::Float => Err(NO_UNBOXED_FORM),
        }
    }

    /// The table index of the buffer whose handle slot `reg` holds.
    fn buffer(&mut self, reg: u16) -> Result<(u8, Elem), Reason> {
        if self.writes.contains(&reg) {
            return Err("matrix handle assigned in body");
        }
        let Some(CType::Buf(elem)) = self.slot_types.get(reg as usize) else {
            return Err("matrix operand is not a matrix-typed slot");
        };
        let at = match self.lp.bufs.iter().position(|&(r, _)| r == reg) {
            Some(at) => at,
            None if self.lp.bufs.len() == MAX_BUFS => return Err("too many matrix operands"),
            None => {
                self.lp.bufs.push((reg, *elem));
                self.lp.bufs.len() - 1
            }
        };
        Ok((at as u8, *elem))
    }

    /// Emit `op`: once per entry when its inputs are invariant, else once
    /// per iteration.
    fn emit(&mut self, op: Op, invariant: bool) -> Result<(), Reason> {
        if invariant {
            self.lp.pre.push(op);
            return Ok(());
        }
        if op.code.checked() && self.stored {
            return Err("store before a checked op");
        }
        self.stored |= op.code == Code::Store;
        self.lp.body.push(op);
        Ok(())
    }

    /// `reg = code(src)` into a fresh register.
    fn unary(&mut self, code: Code, reg: u16, src: Binding, kind: Kind) -> Result<(), Reason> {
        let d = self.define(reg, kind, src.invariant)?;
        self.emit(Op::new(code, d, src.treg, 0), src.invariant)
    }

    /// `reg = src` reinterpreted as `kind` (same bits). A temporary just
    /// shares `src`'s register — a value, once computed, stays where it is
    /// for the rest of the iteration — while a slot always gets a register
    /// of its own, so that no two slots' write-backs or carries interact.
    fn rebind(&mut self, reg: u16, src: Binding, kind: Kind) -> Result<(), Reason> {
        if (reg as usize) < self.slot_types.len() {
            return self.unary(Code::Mov, reg, src, kind);
        }
        self.bind(Binding { reg, kind, ..src });
        Ok(())
    }

    /// `b` as a float operand (the bytecode's `as_f`).
    fn float_operand(&mut self, b: Binding) -> Result<u8, Reason> {
        match b.kind {
            Kind::Float => Ok(b.treg),
            Kind::Int => {
                let d = self.fresh()?;
                self.emit(Op::new(Code::IntToFloat, d, b.treg, 0), b.invariant)?;
                Ok(d)
            }
            Kind::Bool => Err(NO_UNBOXED_FORM),
        }
    }

    fn instr(&mut self, instr: &Instr) -> Result<(), Reason> {
        match *instr {
            Instr::Const { dst, k } => {
                let (kind, bits) = match &self.consts[k as usize] {
                    Value::I(x) => (Kind::Int, *x as u32),
                    Value::F(x) => (Kind::Float, x.to_bits()),
                    Value::B(x) => (Kind::Bool, u32::from(*x)),
                    _ => return Err("string, matrix or unit constant in body"),
                };
                let d = self.define(dst, kind, true)?;
                self.lp.consts.push((d, bits));
                Ok(())
            }
            Instr::Copy { dst, src } => {
                let s = self.read(src)?;
                self.rebind(dst, s, s.kind)
            }
            Instr::Bin { op, dst, a, b } => self.bin(op, dst, a, b),
            Instr::Neg { dst, src } => {
                let s = self.read(src)?;
                match s.kind {
                    Kind::Int => self.unary(Code::INeg, dst, s, Kind::Int),
                    Kind::Float => self.unary(Code::FNeg, dst, s, Kind::Float),
                    Kind::Bool => Err(NO_UNBOXED_FORM),
                }
            }
            Instr::Not { dst, src } => {
                let s = self.read_int(src)?;
                self.unary(Code::Not, dst, s, Kind::Bool)
            }
            Instr::AsInt { dst, src } => {
                let s = self.read_int(src)?;
                self.rebind(dst, s, Kind::Int)
            }
            Instr::CastInt { dst, src } => {
                let s = self.read(src)?;
                match s.kind {
                    Kind::Int | Kind::Bool => self.rebind(dst, s, Kind::Int),
                    Kind::Float => self.unary(Code::FloatToInt, dst, s, Kind::Int),
                }
            }
            Instr::CastFloat { dst, src } => {
                let s = self.read(src)?;
                match s.kind {
                    Kind::Float => self.rebind(dst, s, Kind::Float),
                    Kind::Int => self.unary(Code::IntToFloat, dst, s, Kind::Float),
                    Kind::Bool => Err(NO_UNBOXED_FORM),
                }
            }
            Instr::Load { dst, buf, idx } => {
                let (a, elem) = self.buffer(buf)?;
                let i = self.read_int(idx)?;
                let code = if elem == Elem::Bool {
                    Code::LoadBool
                } else {
                    Code::Load
                };
                // Never hoisted: a store through another handle of the
                // same buffer may change the cell between iterations.
                let d = self.define(dst, Kind::of_elem(elem), false)?;
                self.emit(Op::new(code, d, a, i.treg), false)
            }
            Instr::Store { buf, idx, val } => {
                let (a, elem) = self.buffer(buf)?;
                let i = self.read_int(idx)?;
                let v = self.read(val)?;
                // `BufHandle::write`'s conversions.
                let d = match (elem, v.kind) {
                    (Elem::I32, Kind::Int)
                    | (Elem::F32, Kind::Float)
                    | (Elem::Bool, Kind::Bool) => v.treg,
                    (Elem::F32, Kind::Int) => self.float_operand(v)?,
                    (Elem::I32, Kind::Float) => {
                        let d = self.fresh()?;
                        self.emit(Op::new(Code::FloatToInt, d, v.treg, 0), v.invariant)?;
                        d
                    }
                    _ => return Err(NO_UNBOXED_FORM),
                };
                self.emit(Op::new(Code::Store, d, a, i.treg), false)
            }
            Instr::Dim { dst, buf, d } => {
                let (a, _) = self.buffer(buf)?;
                let which = self.read_int(d)?;
                if !which.invariant {
                    return Err("dim() of a varying dimension");
                }
                let d = self.define(dst, Kind::Int, true)?;
                self.emit(Op::new(Code::Dim, d, a, which.treg), true)
            }
            Instr::CallUser { .. } => Err("body calls a user function"),
            Instr::CallBuiltin { .. } => Err("body calls a runtime builtin"),
            Instr::Tuple { .. } | Instr::Unpack { .. } | Instr::Spawn { .. } | Instr::Sync => {
                Err("tuple, spawn or sync in body")
            }
            Instr::Ret { .. } | Instr::RetUnit => Err("return in body"),
            Instr::Fail { .. } => Err("undefined name in body"),
            // A `Charge` opens the statement group after a compound
            // statement; the rest are control flow themselves.
            Instr::Charge(_)
            | Instr::Jump { .. }
            | Instr::JumpIfFalse { .. }
            | Instr::JumpIfTrue { .. }
            | Instr::ForHead { .. }
            | Instr::ForNext { .. }
            | Instr::ParFor { .. }
            | Instr::Kernel { .. }
            | Instr::ScalarLoop { .. } => Err(BRANCH),
        }
    }

    /// `eval_bin`'s kind table.
    fn bin(&mut self, op: IrBinOp, dst: u16, a: u16, b: u16) -> Result<(), Reason> {
        use IrBinOp::*;
        let (x, y) = (self.read(a)?, self.read(b)?);
        let float = x.kind == Kind::Float || y.kind == Kind::Float;
        // `>` and `>=` are `<` and `<=` of the swapped operands.
        let [int_code, float_code] = match op {
            Add => [Code::IAdd, Code::FAdd],
            Sub => [Code::ISub, Code::FSub],
            Mul => [Code::IMul, Code::FMul],
            Div => [Code::IDiv, Code::FDiv],
            Rem => [Code::IRem, Code::FRem],
            Lt | Gt => [Code::ILt, Code::FLt],
            Le | Ge => [Code::ILe, Code::FLe],
            Eq => [Code::IEq, Code::FEq],
            Ne => [Code::INe, Code::FNe],
            // Short-circuit logicals come with their jumps.
            And | Or => return Err(BRANCH),
        };
        let both_bool = x.kind == Kind::Bool && y.kind == Kind::Bool;
        if both_bool && matches!(op, Lt | Le | Gt | Ge) {
            return Err(NO_UNBOXED_FORM);
        }
        let (mut ra, mut rb) = if float {
            (self.float_operand(x)?, self.float_operand(y)?)
        } else {
            (x.treg, y.treg)
        };
        if matches!(op, Gt | Ge) {
            std::mem::swap(&mut ra, &mut rb);
        }
        let kind = match (op.is_comparison(), float) {
            (true, _) => Kind::Bool,
            (false, true) => Kind::Float,
            (false, false) => Kind::Int,
        };
        let invariant = x.invariant && y.invariant;
        let d = self.define(dst, kind, invariant)?;
        let code = if float { float_code } else { int_code };
        self.emit(Op::new(code, d, ra, rb), invariant)
    }

    /// Close the iteration: carry each loop-carried slot's last value into
    /// the register the next iteration reads it from, and list what to box
    /// back.
    fn finish(mut self) -> Result<ScalarLoop, Reason> {
        for at in 0..self.lp.carried.len() {
            let c = self.lp.carried[at];
            let last = self.read(c.reg)?; // bound: it was read
            if last.kind != c.kind {
                return Err("register changes kind across iterations");
            }
            if last.treg != c.treg && !self.write_in_place(c.treg, last.treg) {
                self.lp.body.push(Op::new(Code::Mov, c.treg, last.treg, 0));
            }
        }
        let nslots = self.slot_types.len();
        self.lp.written = self
            .bindings
            .iter()
            .filter(|b| (b.reg as usize) < nslots && self.writes.contains(&b.reg))
            .map(Binding::slot)
            .collect();
        Ok(self.lp)
    }

    /// Let the operation that computes `last` write the carried slot's
    /// entry register `entry` directly, saving the per-iteration move.
    /// Possible when nothing after it can bail (a bail must find `entry`
    /// still holding the top-of-iteration value) or still reads `entry`.
    fn write_in_place(&mut self, entry: u8, last: u8) -> bool {
        let Some(at) = self
            .lp
            .body
            .iter()
            .position(|op| op.code != Code::Store && op.d == last)
        else {
            return false; // a literal or hoisted: computed once, not per iteration
        };
        let (def, after) = self.lp.body[at..]
            .split_first_mut()
            .expect("at is in range");
        if after
            .iter()
            .any(|op| op.code.checked() || op.sources().any(|s| s == entry))
        {
            return false;
        }
        def.d = entry;
        for r in after
            .iter_mut()
            .flat_map(Op::sources_mut)
            .filter(|r| **r == last)
        {
            *r = entry;
        }
        for b in self.bindings.iter_mut().filter(|b| b.treg == last) {
            b.treg = entry;
        }
        true
    }
}

impl ScalarLoop {
    /// The bytecode well-formedness check for the typed program (see
    /// `VmFunction::validate`): every frame register is below `nregs`,
    /// every unboxed register below the count in use, every buffer operand
    /// in the table, and `Dim` only where a failure can still decline.
    pub(crate) fn validate(&self, nregs: usize) -> bool {
        let slots = || {
            [&self.live_ins, &self.written, &self.carried]
                .into_iter()
                .flatten()
        };
        let frame_regs = [self.counter, self.hi]
            .into_iter()
            .chain(self.bufs.iter().map(|&(r, _)| r))
            .chain(slots().map(|s| s.reg));
        let tregs = std::iter::once(self.var)
            .chain(self.consts.iter().map(|&(d, _)| d))
            .chain(slots().map(|s| s.treg))
            .chain(self.pre.iter().chain(&self.body).flat_map(|op| {
                let d = (op.code != Code::Store).then_some(op.d);
                op.sources().chain(d)
            }));
        let bufs = self
            .pre
            .iter()
            .chain(&self.body)
            .filter(|op| op.code.on_buffer())
            .map(|op| op.a);
        self.nregs <= MAX_REGS
            && self.bufs.len() <= MAX_BUFS
            && frame_regs.into_iter().all(|r| (r as usize) < nregs)
            && tregs.into_iter().all(|r| (r as usize) < self.nregs)
            && bufs.into_iter().all(|b| (b as usize) < self.bufs.len())
            && self.body.iter().all(|op| op.code != Code::Dim)
    }
}

// --- execution --------------------------------------------------------------

/// A buffer operand, viewed once at entry.
#[derive(Clone, Copy)]
struct Operand<'a> {
    cells: CellView<'a>,
    dims: &'a [usize],
}

impl Operand<'_> {
    const NONE: Operand<'static> = Operand {
        cells: CellView::EMPTY,
        dims: &[],
    };
}

type Regs = [u32; MAX_REGS];
type Operands<'a> = [Operand<'a>; MAX_BUFS];

/// Run `ops` once. `false` means a check failed at some operation: the
/// registers written so far keep their values, no later operation ran.
#[inline(always)]
fn step(ops: &[Op], regs: &mut Regs, bufs: &Operands<'_>) -> bool {
    for op in ops {
        let (d, a, b) = (op.d as usize, op.a as usize, op.b as usize);
        // For a unary operation `b` is 0 and for a buffer operation `a` is
        // a table index: the register read either way is just not used.
        let (x, y) = (regs[a], regs[b]);
        let (xi, yi) = (x as i32, y as i32);
        let (xf, yf) = (f32::from_bits(x), f32::from_bits(y));
        // `validate` put every buffer operand inside the table; the
        // remainder only lets the compiler see it.
        let buf = &bufs[a % MAX_BUFS];
        // A negative index sign-extends to one past any length.
        let cell = yi as isize as usize;
        regs[d] = match op.code {
            Code::Mov => x,
            Code::IAdd => x.wrapping_add(y),
            Code::ISub => x.wrapping_sub(y),
            Code::IMul => x.wrapping_mul(y),
            Code::IDiv => match int_div(xi, yi) {
                Ok(q) => q as u32,
                Err(_) => return false,
            },
            Code::IRem => match int_rem(xi, yi) {
                Ok(r) => r as u32,
                Err(_) => return false,
            },
            Code::ILt => u32::from(xi < yi),
            Code::ILe => u32::from(xi <= yi),
            Code::IEq => u32::from(x == y),
            Code::INe => u32::from(x != y),
            Code::INeg => x.wrapping_neg(),
            Code::FAdd => float_arith(IrBinOp::Add, xf, yf).to_bits(),
            Code::FSub => float_arith(IrBinOp::Sub, xf, yf).to_bits(),
            Code::FMul => float_arith(IrBinOp::Mul, xf, yf).to_bits(),
            Code::FDiv => float_arith(IrBinOp::Div, xf, yf).to_bits(),
            Code::FRem => float_arith(IrBinOp::Rem, xf, yf).to_bits(),
            Code::FLt => u32::from(xf < yf),
            Code::FLe => u32::from(xf <= yf),
            Code::FEq => u32::from(xf == yf),
            Code::FNe => u32::from(xf != yf),
            Code::FNeg => (-xf).to_bits(),
            Code::Not => u32::from(!int_to_bool(xi)),
            Code::IntToFloat => (xi as f32).to_bits(),
            Code::FloatToInt => float_to_int(xf) as u32,
            Code::Load | Code::LoadBool => match buf.cells.read(cell) {
                Some(bits) if op.code == Code::Load => bits,
                Some(bits) => u32::from(int_to_bool(bits as i32)),
                None => return false,
            },
            Code::Store => {
                if !buf.cells.write(cell, regs[d]) {
                    return false;
                }
                continue;
            }
            // `dim_of`: a negative dimension wraps out of range.
            Code::Dim => match buf.dims.get(yi as usize) {
                Some(&dim) => dim as i32 as u32,
                None => return false,
            },
        };
    }
    true
}

/// Run iterations `from..to`; returns the first that did not complete
/// (`to` when all did).
fn iterate(lp: &ScalarLoop, regs: &mut Regs, bufs: &Operands<'_>, from: i32, to: i32) -> i32 {
    let mut t = from;
    while t < to {
        regs[lp.var as usize] = t as u32;
        if !step(&lp.body, regs, bufs) {
            break;
        }
        t += 1;
    }
    t
}

/// Execute the loop `lp` stands for, from the counter register's value.
/// `Ok(true)`: the loop is complete, continue after its `ForNext`.
/// `Ok(false)`: continue at its `ForHead`, which runs the iterations from
/// the counter register's (possibly advanced) value. Steps go to `batch`
/// when the VM is batching charges (see `vm::exec`).
pub(crate) fn run(
    interp: &Interp<'_>,
    lp: &ScalarLoop,
    frame: &mut Frame,
    batch: Option<&mut u64>,
) -> IResult<bool> {
    let slots = &frame.slots;
    let (&Value::I(lo), &Value::I(hi)) = (&slots[lp.counter as usize], &slots[lp.hi as usize])
    else {
        return Ok(false);
    };
    if lo >= hi {
        return Ok(true);
    }
    let count = |counter: &AtomicU64, n: u64| {
        if interp.profile {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    };

    // Entry guard, then the once-per-entry operations.
    let mut regs: Regs = [0; MAX_REGS];
    let mut bufs: Operands<'_> = [Operand::NONE; MAX_BUFS];
    let entered = 'guard: {
        for s in &lp.live_ins {
            let Some(bits) = s.kind.unbox(&slots[s.reg as usize]) else {
                break 'guard false;
            };
            regs[s.treg as usize] = bits;
        }
        for (operand, &(reg, elem)) in bufs.iter_mut().zip(&lp.bufs) {
            match &slots[reg as usize] {
                Value::Buf(b) if b.elem() == elem && !b.is_freed() => {
                    *operand = Operand {
                        cells: b.view(),
                        dims: b.dims(),
                    };
                }
                _ => break 'guard false,
            }
        }
        for &(d, bits) in &lp.consts {
            regs[d as usize] = bits;
        }
        step(&lp.pre, &mut regs, &bufs)
    };
    if !entered {
        count(&interp.unboxed_declines, 1);
        return Ok(false);
    }

    // Iterations, paid for in closed form. `lo < hi`, so the wrapped
    // difference is the exact trip count even when `hi - lo` overflows.
    let trips = |from: i32, to: i32| u64::from(to.wrapping_sub(from) as u32);
    let per_iter = u64::from(lp.charge);
    let mut t = lo;
    let mut bailed = false;
    match batch {
        Some(local) => {
            t = iterate(lp, &mut regs, &bufs, lo, hi);
            bailed = t < hi;
            *local += trips(lo, t) * per_iter;
        }
        None => {
            while t < hi && !bailed {
                let end = t.saturating_add(BLOCK).min(hi);
                let ahead = trips(t, end) * per_iter;
                match interp.charge(ahead) {
                    Ok(()) => {}
                    Err(e) if e.limit_kind() == Some(LimitKind::Fuel) => {
                        // The budget ends inside this block: the bytecode
                        // finds the exact iteration.
                        interp.steps.fetch_sub(ahead, Ordering::Relaxed);
                        break;
                    }
                    Err(e) => return Err(e),
                }
                t = iterate(lp, &mut regs, &bufs, t, end);
                if t < end {
                    bailed = true;
                    interp
                        .steps
                        .fetch_sub(trips(t, end) * per_iter, Ordering::Relaxed);
                }
            }
        }
    }
    count(&interp.unboxed_loops, u64::from(t > lo));
    count(&interp.unboxed_iters, trips(lo, t));
    count(&interp.unboxed_bails, u64::from(bailed));

    let done = t == hi;
    let slots = &mut frame.slots;
    for s in if done { &lp.written } else { &lp.carried } {
        slots[s.reg as usize] = s.kind.boxed(regs[s.treg as usize]);
    }
    slots[lp.counter as usize] = Value::I(t);
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use IrBinOp as B;

    /// Slots of the test loops: 0 the index `j`, 1 `acc: float`,
    /// 2 `grid: Matrix float`, 3 `i: int`, 4 `flag: bool`, 5 `out: Matrix
    /// int`; registers from 6 up are temporaries (6 and 7 the loop's
    /// counter and bound).
    const SLOTS: [CType; 6] = [
        CType::Int,
        CType::Float,
        CType::Buf(Elem::F32),
        CType::Int,
        CType::Bool,
        CType::Buf(Elem::I32),
    ];
    const HEAD: Instr = Instr::ForHead {
        counter: 6,
        hi: 7,
        var: 0,
        charge: 3,
        exit: 0,
    };

    fn translated(body: &[Instr], consts: &[Value]) -> Result<ScalarLoop, Reason> {
        translate(&HEAD, body, consts, &SLOTS)
    }

    fn codes(ops: &[Op]) -> Vec<Code> {
        ops.iter().map(|op| op.code).collect()
    }

    /// `eval_bin`'s promotion rules, as kinds: what `slot ⊕ slot` written
    /// to a temporary translates to, for every pairing the table treats
    /// differently.
    #[test]
    fn kind_inference_follows_eval_bin() {
        let (int, float, flag) = (3u16, 1u16, 4u16);
        let table: [(B, u16, u16, Result<&[Code], Reason>); 12] = [
            (B::Add, int, int, Ok(&[Code::IAdd])),
            (B::Add, int, float, Ok(&[Code::IntToFloat, Code::FAdd])),
            (B::Rem, float, float, Ok(&[Code::FRem])),
            (B::Div, int, flag, Ok(&[Code::IDiv])),
            (B::Mul, flag, float, Err(NO_UNBOXED_FORM)),
            (B::Gt, int, int, Ok(&[Code::ILt])),
            (B::Ge, float, int, Ok(&[Code::IntToFloat, Code::FLe])),
            (B::Eq, flag, flag, Ok(&[Code::IEq])),
            (B::Lt, flag, flag, Err(NO_UNBOXED_FORM)),
            (B::Lt, flag, int, Ok(&[Code::ILt])),
            (B::And, flag, flag, Err(BRANCH)),
            (B::Ne, float, float, Ok(&[Code::FNe])),
        ];
        for (op, a, b, want) in table {
            // (Both operands are loop-invariant slots, so everything lands
            // in the once-per-entry operations.)
            let got = translated(&[Instr::Bin { op, dst: 9, a, b }], &[]).map(|lp| {
                assert_eq!(lp.body, []);
                codes(&lp.pre)
            });
            assert_eq!(got, want.map(<[Code]>::to_vec), "{op:?} on slots {a}, {b}");
        }
        // `>` swaps its operands rather than having an operation.
        let gt = translated(
            &[Instr::Bin {
                op: B::Gt,
                dst: 8,
                a: 0,
                b: 3,
            }],
            &[],
        )
        .expect("eligible");
        let lt = translated(
            &[Instr::Bin {
                op: B::Lt,
                dst: 8,
                a: 0,
                b: 3,
            }],
            &[],
        )
        .expect("eligible");
        assert_eq!((gt.body[0].a, gt.body[0].b), (lt.body[0].b, lt.body[0].a));
    }

    /// `rowWork`'s loop, `acc = acc + grid[i * dim(grid, 1) + j / 160] *
    /// 0.5`, as `vm.rs` compiles it: register 8 holds three different
    /// literals in turn and 9 and 10 are reused across the statement.
    fn row_work() -> (Vec<Instr>, Vec<Value>) {
        let body = vec![
            Instr::Const { dst: 8, k: 0 },
            Instr::Dim {
                dst: 9,
                buf: 2,
                d: 8,
            },
            Instr::Bin {
                op: B::Mul,
                dst: 10,
                a: 3,
                b: 9,
            },
            Instr::Const { dst: 8, k: 1 },
            Instr::Bin {
                op: B::Div,
                dst: 11,
                a: 0,
                b: 8,
            },
            Instr::Bin {
                op: B::Add,
                dst: 9,
                a: 10,
                b: 11,
            },
            Instr::AsInt { dst: 10, src: 9 },
            Instr::Load {
                dst: 11,
                buf: 2,
                idx: 10,
            },
            Instr::Const { dst: 8, k: 2 },
            Instr::Bin {
                op: B::Mul,
                dst: 9,
                a: 11,
                b: 8,
            },
            Instr::Bin {
                op: B::Add,
                dst: 1,
                a: 1,
                b: 9,
            },
        ];
        (body, vec![Value::I(1), Value::I(160), Value::F(0.5)])
    }

    #[test]
    fn invariant_operations_hoist_and_reused_temporaries_are_renamed() {
        let (body, consts) = row_work();
        let lp = translated(&body, &consts).expect("eligible");
        // Three literals in three registers, though one bytecode register
        // held them all.
        let literals: Vec<u32> = lp.consts.iter().map(|&(_, bits)| bits).collect();
        assert_eq!(literals, [1, 160, 0.5f32.to_bits()]);
        let homes: std::collections::HashSet<u8> = lp.consts.iter().map(|&(d, _)| d).collect();
        assert_eq!(homes.len(), 3);
        // `dim(grid, 1)` and `i * dim` run once per entry; five operations
        // an iteration remain, `AsInt` of an int costing none.
        assert_eq!(codes(&lp.pre), [Code::Dim, Code::IMul]);
        assert_eq!(
            codes(&lp.body),
            [Code::IDiv, Code::IAdd, Code::Load, Code::FMul, Code::FAdd]
        );
        // The divisor is the second literal's register, not the third's.
        assert_eq!(lp.body[0].b, lp.consts[1].0);
        // `acc` is loop-carried and nothing after its update can bail, so
        // the update writes the entry register: no move per iteration.
        let [acc] = lp.carried[..] else {
            panic!("one carried slot: {:?}", lp.carried)
        };
        assert_eq!((acc.reg, acc.kind), (1, Kind::Float));
        assert_eq!(lp.body[4].d, acc.treg);
        assert_eq!(lp.body[4].a, acc.treg);
        let written: Vec<u16> = lp.written.iter().map(|s| s.reg).collect();
        assert_eq!(written, [0, 1], "the index variable and acc");
        assert!(lp.validate(12));
    }

    /// A carried slot updated *before* an operation that can bail keeps
    /// its top-of-iteration value in the entry register until the
    /// iteration is over.
    #[test]
    fn carried_slot_updated_before_a_checked_operation_moves_at_the_end() {
        let body = [
            Instr::Bin {
                op: B::Add,
                dst: 3,
                a: 3,
                b: 0,
            },
            Instr::AsInt { dst: 8, src: 3 },
            Instr::Load {
                dst: 1,
                buf: 2,
                idx: 8,
            },
        ];
        let lp = translated(&body, &[]).expect("eligible");
        assert_eq!(codes(&lp.body), [Code::IAdd, Code::Load, Code::Mov]);
        let [i] = lp.carried[..] else {
            panic!("one carried slot")
        };
        assert_ne!(lp.body[0].d, i.treg);
        assert_eq!((lp.body[2].d, lp.body[2].a), (i.treg, lp.body[0].d));
    }

    #[test]
    fn bodies_without_an_unboxed_form_say_why() {
        let load = |dst| Instr::Load {
            dst,
            buf: 5,
            idx: 0,
        };
        let store = Instr::Store {
            buf: 5,
            idx: 0,
            val: 3,
        };
        let cases: [(&[Instr], Reason); 8] = [
            (&[store.clone(), load(8)], "store before a checked op"),
            (&[store.clone(), store.clone()], "store before a checked op"),
            // `i = i + acc` makes the int slot a float after one iteration.
            (
                &[Instr::Bin {
                    op: B::Add,
                    dst: 3,
                    a: 3,
                    b: 1,
                }],
                "register changes kind across iterations",
            ),
            (
                &[Instr::CallUser {
                    dst: 8,
                    func: 0,
                    base: 8,
                    n: 0,
                }],
                "body calls a user function",
            ),
            (&[Instr::JumpIfFalse { cond: 4, to: 0 }], BRANCH),
            (&[Instr::Charge(1)], BRANCH),
            (
                &[Instr::Copy { dst: 2, src: 2 }],
                "matrix handle used as a scalar",
            ),
            (
                &[Instr::Store {
                    buf: 5,
                    idx: 0,
                    val: 4,
                }],
                NO_UNBOXED_FORM,
            ),
        ];
        for (body, why) in cases {
            assert_eq!(translated(body, &[]).err(), Some(why), "{body:?}");
        }
        // Not a kind change: the slot is written before it is read.
        let rewritten = [
            Instr::CastFloat { dst: 3, src: 0 },
            Instr::Bin {
                op: B::Add,
                dst: 1,
                a: 1,
                b: 3,
            },
        ];
        assert!(translated(&rewritten, &[]).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_operands() {
        let (body, consts) = row_work();
        let good = translated(&body, &consts).expect("eligible");
        assert!(good.validate(12));
        // A frame register beyond the frame.
        assert!(!good.validate(7));
        // An unboxed register beyond those in use.
        let mut bad = good.clone();
        bad.body[1].a = good.nregs as u8;
        assert!(!bad.validate(12));
        let mut bad = good.clone();
        bad.body[4].d = u8::MAX;
        assert!(!bad.validate(12));
        // A buffer operand beyond the table.
        let mut bad = good.clone();
        bad.body[2].a = good.bufs.len() as u8;
        assert!(!bad.validate(12));
        // A `Dim` where a failure could no longer decline.
        let mut bad = good.clone();
        bad.body.push(bad.pre[0]);
        assert!(!bad.validate(12));
    }
}
