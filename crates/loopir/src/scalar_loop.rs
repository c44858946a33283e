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
//!
//! ## Strips
//!
//! Walked an iteration at a time ([`step`]) the typed program pays one
//! dispatch, two register loads and a store per operation per iteration.
//! The same program is therefore also walked an *operation* at a time, over
//! a strip of up to [`STRIP`] consecutive iterations (the paper's `split j
//! by 4, jin, jout` then `vectorize jin`, Fig 9 → 11, done by the
//! executor): [`ScalarLoop::strip_plan`] partitions the body once into
//!
//! * **lane-parallel** operations, which depend on no loop-carried
//!   register. Each runs over the whole strip before the next starts
//!   ([`sweep`]), reading and writing one `[u32; STRIP]` row per register
//!   — the index row holds `t, t+1, …`, a loop-invariant operand is
//!   broadcast into its row once per entry — in a loop the compiler can
//!   vectorise;
//! * the **carried chain** (`acc = acc + x` and whatever depends on it),
//!   which runs afterwards, lane by lane in iteration order: a fold's
//!   single accumulate as a tight loop of its own, anything longer through
//!   [`step`].
//!
//! Every value is produced by the same scalar operation on the same
//! operands in the same order as before; only dispatch is amortised. The
//! body is stored lane-parallel operations first (they read nothing the
//! chain writes, and every register is written once, so [`step`] computes
//! the same either way): one program, two walks.
//!
//! A check failing in lane `k` truncates the strip to `k` lanes for every
//! later operation and for the chain. Lanes beyond `k` of *earlier*
//! operations have only read buffers and written rows, and the store is
//! the last checked operation, so by the time anything is stored `k` is
//! final: frame and buffers are what the bytecode has at the top of
//! iteration `t + k`, which is the bail contract. A load or store checks
//! its strip's whole index row at once — the largest index, as a `u32`,
//! below the length, a negative one being `≥ 2³¹` — and then moves the
//! cells unchecked; a row that fails goes lane by lane, which finds `k`.
//! A float operation whose strip produced a NaN runs again through
//! [`float_arith`], so NaN bits still come from its one compiled copy. Int
//! `/` and `%` by a loop-invariant divisor `d`, `|d| ≥ 2`, multiply and
//! shift ([`Magic`], made once per entry): a row with no negative lane in
//! `u32 × u32 → u64`, which vectorises, one with a negative lane in `i64`,
//! which does not. 0, 1 and -1 take the checked per-lane path (0 completes
//! no lane, and the bytecode raises its error).
//!
//! The strip walk ([`Strips::run`]) is compiled twice from one source: for
//! the target's baseline, and with AVX2 enabled, the sweeps inlined into
//! it. The AVX2 copy runs where the CPU has AVX2 ([`StripIsa`],
//! detected once per process; no option chooses it), and `--profile` names
//! the copy. The copies compute the same bits: integer operations are
//! exact; float `+ - * /` and `int`→`float` are exactly rounded in either
//! encoding (the same MXCSR rounding mode), float `%` and the saturating
//! `float`→`int` are exact; Rust never contracts a multiply and an add
//! into an FMA; and a NaN result's bits come from the one out-of-line copy
//! of `float_arith`'s NaN path.
//!
//! A body has no plan — [`step`] runs it as before, and `--profile` says
//! why — when a checked operation sits on the carried chain (a failing lane
//! could not be known before the chain ran) or a lane-parallel operation
//! writes a carried register. An entry runs per iteration when it has
//! fewer than [`SHORT_ENTRY`] trips (filling rows costs more than it saves)
//! or when the body loads from the storage it stores to (a strip would load
//! lanes `k+1…` before lane `k` stored; compared by cells, so one buffer
//! passed under two names counts).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::interp::{
    float_arith, float_arith_raw, float_to_int, int_div, int_rem, int_to_bool, CellView, Frame,
    IResult, Interp, LimitKind, Value,
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
/// Iterations one strip of an unboxed loop covers (exported as
/// `UNBOXED_STRIP` so that tests and the fuzz generator can size loops
/// around it). A row is 512 bytes, so the rows of a ten-register body stay
/// in L1; EXPERIMENTS.md E-K3 has the sweep.
pub const STRIP: usize = 128;
/// An entry of fewer trips than this runs per iteration: filling the index
/// row, broadcasting and one sweep call per operation cost ≈30 ns an entry,
/// which a four-operation body needs ten iterations to repay (E-K3's trip
/// table; a richer body breaks even sooner, at five or six).
const SHORT_ENTRY: u64 = 10;

/// The values one register takes across a strip, by lane.
type Row = [u32; STRIP];

/// A set of unboxed registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RegSet([u64; MAX_REGS / 64]);

impl RegSet {
    fn insert(&mut self, r: u8) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    fn contains(&self, r: u8) -> bool {
        self.0[r as usize / 64] >> (r % 64) & 1 == 1
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &members)| {
            let mut left = members;
            std::iter::from_fn(move || {
                let r = (left != 0).then(|| word * 64 + left.trailing_zeros() as usize)?;
                left &= left - 1;
                Some(r)
            })
        })
    }
}

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

    /// The [`float_arith`] operation of the five codes that are one.
    #[inline(always)]
    fn float_op(self) -> IrBinOp {
        match self {
            Code::FAdd => IrBinOp::Add,
            Code::FSub => IrBinOp::Sub,
            Code::FMul => IrBinOp::Mul,
            Code::FDiv => IrBinOp::Div,
            Code::FRem => IrBinOp::Rem,
            other => unreachable!("{other:?} is not float arithmetic"),
        }
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
    /// How `body` runs in strips, or why it only runs per iteration.
    plan: Result<Plan, Reason>,
}

/// How a body runs in strips (module docs, "Strips"). Held inline: a file
/// of a few hundred functions translates thousands of loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Plan {
    /// `body[..par]` are the lane-parallel operations, the rest is the
    /// carried chain; both in program order.
    par: u16,
    /// The chain is one `acc = acc ⊕ x` with `x` lane-varying.
    fold: bool,
    /// Loop-invariant registers the lane-parallel operations read:
    /// broadcast into their rows once per entry.
    broadcast: RegSet,
    /// The buffer operand stored to and (one bit each) those loaded from:
    /// an entry where they share cells runs per iteration.
    stored: Option<u8>,
    loaded: u16,
}

// --- translation ----------------------------------------------------------

/// Why a loop body has no typed program.
type Reason = &'static str;

const NO_UNBOXED_FORM: Reason = "operand types have no unboxed form";
const BRANCH: Reason = "branch in body";
/// Why a translated body has no strip plan.
const CHECKED_ON_CHAIN: Reason = "checked operation depends on a loop-carried value";
const CARRIED_OVERWRITTEN: Reason = "loop-carried slot assigned a value that does not depend on it";

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
            plan: Err("not planned"),
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
        self.lp.plan = self.lp.strip_plan();
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
    /// Partition `body` for the strip walk (module docs, "Strips"), moving
    /// the lane-parallel operations ahead of the carried chain. Every
    /// register but a carried slot's entry register is written by one
    /// operation, and a lane-parallel operation reads nothing the chain
    /// writes, so the reordered body computes what the original does; a
    /// body with no plan is left as it is.
    fn strip_plan(&mut self) -> Result<Plan, Reason> {
        let mut carried = RegSet::default();
        for s in &self.carried {
            carried.insert(s.treg);
        }
        // Registers whose value depends on a carried one, and registers
        // with a value per lane.
        let mut on_chain = carried;
        let mut varying = RegSet::default();
        varying.insert(self.var);
        let mut plan = Plan {
            par: 0,
            fold: false,
            broadcast: RegSet::default(),
            stored: None,
            loaded: 0,
        };
        let mut body = Vec::with_capacity(self.body.len());
        for &op in &self.body {
            if op.sources().any(|s| on_chain.contains(s)) {
                if op.code.checked() {
                    return Err(CHECKED_ON_CHAIN);
                }
                on_chain.insert(op.d);
                body.push(op);
                continue;
            }
            for s in op.sources().filter(|&s| !varying.contains(s)) {
                plan.broadcast.insert(s);
            }
            if op.code == Code::Store {
                plan.stored = Some(op.a);
            } else if carried.contains(op.d) {
                return Err(CARRIED_OVERWRITTEN);
            } else {
                if matches!(op.code, Code::Load | Code::LoadBool) {
                    plan.loaded |= 1 << op.a;
                }
                varying.insert(op.d);
            }
            body.insert(plan.par as usize, op);
            plan.par += 1;
        }
        plan.fold = matches!(
            body[plan.par as usize..],
            [op] if !op.code.unary() && op.d == op.a && varying.contains(op.b)
        );
        self.body = body;
        Ok(plan)
    }

    /// Why the loop only ever runs per iteration, if it has no strip plan.
    pub(crate) fn per_iteration_reason(&self) -> Option<Reason> {
        self.plan.err()
    }

    /// What the strip walk relies on beyond [`ScalarLoop::validate`]'s
    /// operand ranges: the split is inside the body, a lane-parallel
    /// operation's destination row is none of its source rows, nothing on
    /// the chain can fail, and a fold is one in-place binary operation.
    fn plan_is_well_formed(&self) -> bool {
        let Ok(plan) = &self.plan else {
            return true;
        };
        let Some((par, chain)) = self.body.split_at_checked(plan.par as usize) else {
            return false;
        };
        par.iter()
            .all(|op| op.code == Code::Store || op.sources().all(|s| s != op.d))
            && chain.iter().all(|op| !op.code.checked())
            && (!plan.fold || matches!(chain, [op] if !op.code.unary() && op.d == op.a))
            && plan.stored.is_none_or(|s| (s as usize) < self.bufs.len())
    }

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
            && self.plan_is_well_formed()
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

/// The cell an `int` index names: a negative one sign-extends to one past
/// any length.
#[inline(always)]
fn cell_of(index: u32) -> usize {
    index as i32 as isize as usize
}

/// One operation, on register bits: `x` and `y` are its operand registers
/// (`y` the index of a buffer operation on `buf`, `x` then unused),
/// `stored` the value a `Store` writes (and yields). `None`: its check
/// failed, nothing was written. [`step`] and the strip walk both compute
/// through this, so a value does not depend on which of them produced it.
#[inline(always)]
fn apply(code: Code, x: u32, y: u32, stored: u32, buf: &Operand<'_>) -> Option<u32> {
    let (xi, yi) = (x as i32, y as i32);
    let (xf, yf) = (f32::from_bits(x), f32::from_bits(y));
    Some(match code {
        Code::Mov => x,
        Code::IAdd => x.wrapping_add(y),
        Code::ISub => x.wrapping_sub(y),
        Code::IMul => x.wrapping_mul(y),
        Code::IDiv => int_div(xi, yi).ok()? as u32,
        Code::IRem => int_rem(xi, yi).ok()? as u32,
        Code::ILt => u32::from(xi < yi),
        Code::ILe => u32::from(xi <= yi),
        Code::IEq => u32::from(x == y),
        Code::INe => u32::from(x != y),
        Code::INeg => x.wrapping_neg(),
        Code::FAdd | Code::FSub | Code::FMul | Code::FDiv | Code::FRem => {
            float_arith(code.float_op(), xf, yf).to_bits()
        }
        Code::FLt => u32::from(xf < yf),
        Code::FLe => u32::from(xf <= yf),
        Code::FEq => u32::from(xf == yf),
        Code::FNe => u32::from(xf != yf),
        Code::FNeg => (-xf).to_bits(),
        Code::Not => u32::from(!int_to_bool(xi)),
        Code::IntToFloat => (xi as f32).to_bits(),
        Code::FloatToInt => float_to_int(xf) as u32,
        Code::Load => buf.cells.read(cell_of(y))?,
        Code::LoadBool => u32::from(int_to_bool(buf.cells.read(cell_of(y))? as i32)),
        Code::Store => {
            if !buf.cells.write(cell_of(y), stored) {
                return None;
            }
            stored
        }
        // `dim_of`: a negative dimension wraps out of range.
        Code::Dim => *buf.dims.get(yi as usize)? as i32 as u32,
    })
}

/// Run `ops` once. `false` means a check failed at some operation: the
/// registers written so far keep their values, no later operation ran.
#[inline(always)]
fn step(ops: &[Op], regs: &mut Regs, bufs: &Operands<'_>) -> bool {
    for op in ops {
        let (d, a, b) = (op.d as usize, op.a as usize, op.b as usize);
        // For a unary operation `b` is 0 and for a buffer operation `a` is
        // a table index: the register read either way is just not used.
        // `validate` put every buffer operand inside the table; the
        // remainder only lets the compiler see it.
        let Some(bits) = apply(op.code, regs[a], regs[b], regs[d], &bufs[a % MAX_BUFS]) else {
            return false;
        };
        regs[d] = bits;
    }
    true
}

// --- strips -------------------------------------------------------------------

/// `$run(Code::C)` for the `C` among the listed codes that `$code` is:
/// `$run`, a closure over an `#[inline(always)]` loop, sees a constant, so
/// the [`apply`] in that loop is one operation and, where that operation
/// has no check, the loop one the compiler can vectorise.
macro_rules! per_code {
    ($code:expr, [$($c:ident)*], $run:expr) => {
        match $code {
            $(Code::$c => ($run)(Code::$c),)*
            other => unreachable!("{other:?} is not one of this walk's operations"),
        }
    };
}

/// `rd[k] = code(ra[k], rb[k])` up the lanes until a check fails; returns
/// the lanes completed.
#[inline(always)]
fn lanes(code: Code, rd: &mut [u32], ra: &[u32], rb: &[u32], buf: &Operand<'_>) -> usize {
    for (k, ((d, &x), &y)) in rd.iter_mut().zip(ra).zip(rb).enumerate() {
        match apply(code, x, y, 0, buf) {
            Some(bits) => *d = bits,
            None => return k,
        }
    }
    rd.len()
}

/// Float arithmetic over a strip: the bare operation, and — which NaN it
/// yields being the one thing that may differ between compiled copies —
/// the whole strip again through [`float_arith`] if any lane produced one.
#[inline(always)]
fn float_lanes(code: Code, rd: &mut [u32], ra: &[u32], rb: &[u32]) -> usize {
    let mut nan = false;
    for ((d, &x), &y) in rd.iter_mut().zip(ra).zip(rb) {
        let r = float_arith_raw(code.float_op(), f32::from_bits(x), f32::from_bits(y));
        nan |= r.is_nan();
        *d = r.to_bits();
    }
    if nan {
        lanes(code, rd, ra, rb, &Operand::NONE);
    }
    rd.len()
}

/// `acc = acc ⊕ x` down the lanes of `xs`, in iteration order.
#[inline(always)]
fn fold_lanes(code: Code, acc: &mut u32, xs: &[u32]) {
    let mut folded = *acc;
    for &x in xs {
        folded = apply(code, folded, x, 0, &Operand::NONE).expect("a fold is unchecked");
    }
    *acc = folded;
}

/// Truncating `int` division by a divisor `d` with `|d| ≥ 2` as a multiply
/// and a shift (Hacker's Delight §10; Granlund and Montgomery's round-up
/// multiplier). With `l = ⌈log₂|d|⌉` and `m = ⌊2^(31+l) / |d|⌋ + 1`,
/// `m·|d|` exceeds `2^(31+l)` by at most `2^l`, so for every `int` `x` the
/// product `x·m / 2^(31+l)` lies away from zero of `x / |d|` by at most
/// `1 / |d|` (by less for `x ≥ 0`): its floor is the truncated quotient
/// for `x ≥ 0` and one below it for `x < 0`. `2^(l-1) < |d| ≤ 2^l` puts
/// `m` in `[2^31 + 1, 2^32 - 1]`, so for `x ≥ 0` the product is a `u32 ×
/// u32 → u64` multiply, which vectorises on every x86-64 (`pmuludq`); a
/// negative `x` needs the `i64` product, which does not.
#[derive(Debug, Clone, Copy)]
struct Magic {
    mul: u32,
    shift: u32,
    /// The divisor, and its sign as a mask (0 or -1).
    d: i32,
    sign: i32,
}

impl Magic {
    /// `None` for 0, 1 and -1: [`int_div`] decides those, lane by lane.
    fn new(d: i32) -> Option<Magic> {
        let magnitude = d.unsigned_abs();
        if magnitude < 2 {
            return None;
        }
        let shift = 31 + (32 - (magnitude - 1).leading_zeros());
        Some(Magic {
            mul: ((1u64 << shift) / u64::from(magnitude) + 1) as u32,
            shift,
            d,
            sign: d >> 31,
        })
    }

    /// `int_div(x, d)`, which cannot fail for this `d`.
    #[inline(always)]
    fn div(self, x: i32) -> i32 {
        let q = (i64::from(x) * i64::from(self.mul)) >> self.shift;
        self.signed(q as i32 + i32::from(x < 0))
    }

    /// [`Magic::div`] of an `x` in `0..2^31`, in unsigned arithmetic.
    #[inline(always)]
    fn div_nonnegative(self, x: u32) -> i32 {
        self.signed(((u64::from(x) * u64::from(self.mul)) >> self.shift) as i32)
    }

    /// The quotient by `|d|`, negated for a negative divisor.
    #[inline(always)]
    fn signed(self, q: i32) -> i32 {
        (q ^ self.sign).wrapping_sub(self.sign)
    }

    /// `int_rem(x, d)`, from `q = int_div(x, d)`.
    #[inline(always)]
    fn rem(self, x: i32, q: i32) -> i32 {
        x.wrapping_sub(q.wrapping_mul(self.d))
    }
}

/// Int `/` (`IDiv`) or `%` (`IRem`) by the one divisor every lane has. A
/// row with no negative lane — every index-derived row — takes the
/// unsigned product, one with a negative lane the signed one.
#[inline(always)]
fn magic_lanes(code: Code, magic: Magic, rd: &mut [u32], rx: &[u32]) -> usize {
    let result = |x: i32, q: i32| match code {
        Code::IDiv => q as u32,
        _ => magic.rem(x, q) as u32,
    };
    if rx.iter().fold(0, |lanes, &x| lanes | x) >> 31 == 0 {
        for (d, &x) in rd.iter_mut().zip(rx) {
            *d = result(x as i32, magic.div_nonnegative(x));
        }
    } else {
        for (d, &x) in rd.iter_mut().zip(rx) {
            *d = result(x as i32, magic.div(x as i32));
        }
    }
    rd.len()
}

const DISJOINT: &str = "validated: a lane-parallel destination is none of its sources";

/// Run the lane-parallel `op` over lanes `..n` of its rows; `magic` is the
/// entry's multiplier when `op` divides by a loop-invariant `d`, `|d| ≥
/// 2`. Returns the lanes completed: `k < n` when lane `k`'s check failed,
/// lanes from `k` on then being unspecified in the destination row.
#[inline(always)] // into both compiled copies
fn sweep(op: Op, magic: Option<Magic>, rows: &mut [Row], n: usize, bufs: &Operands<'_>) -> usize {
    let (d, a, b) = (op.d as usize, op.a as usize, op.b as usize);
    let buf = &bufs[a % MAX_BUFS];
    if op.code == Code::Store {
        let (value, index) = (&rows[d][..n], &rows[b][..n]);
        if buf.cells.write_row(index, value) {
            return n;
        }
        // Some lane's index is out of bounds: store up to it.
        let stored = |(&v, &i)| apply(Code::Store, 0, i, v, buf).is_some();
        return value
            .iter()
            .zip(index)
            .position(|lane| !stored(lane))
            .unwrap_or(n);
    }
    // The operand rows: a unary operation and a load have one, which
    // stands for both, and so do the likes of `x * x`.
    let (a, b) = match op.code {
        Code::Load | Code::LoadBool => (b, b),
        code if code.unary() => (a, a),
        _ => (a, b),
    };
    let (rd, ra, rb) = if a == b {
        let [rd, ra] = rows.get_disjoint_mut([d, a]).expect(DISJOINT);
        (rd, &*ra, &*ra)
    } else {
        let [rd, ra, rb] = rows.get_disjoint_mut([d, a, b]).expect(DISJOINT);
        (rd, &*ra, &*rb)
    };
    let (rd, ra, rb) = (&mut rd[..n], &ra[..n], &rb[..n]);
    match (op.code, magic) {
        (Code::FAdd | Code::FSub | Code::FMul | Code::FDiv | Code::FRem, _) => {
            per_code!(op.code, [FAdd FSub FMul FDiv FRem], |c| float_lanes(c, rd, ra, rb))
        }
        (code @ (Code::IDiv | Code::IRem), Some(magic)) => {
            per_code!(code, [IDiv IRem], |c| magic_lanes(c, magic, rd, ra))
        }
        // One bounds check for the row, then the cells; a row with an index
        // out of bounds goes lane by lane, which stops at it.
        (Code::Load, _) if buf.cells.read_row(ra, rd) => n,
        (Code::LoadBool, _) if buf.cells.read_row(ra, rd) => {
            for cell in rd.iter_mut() {
                *cell = u32::from(int_to_bool(*cell as i32));
            }
            n
        }
        (code, _) => per_code!(
            code,
            [Mov IAdd ISub IMul IDiv IRem ILt ILe IEq INe INeg FLt FLe FEq FNe FNeg Not
             IntToFloat FloatToInt Load LoadBool],
            |c| lanes(c, rd, ra, rb, buf)
        ),
    }
}

/// [`sweep`] in the baseline copy of the walk. Out of line, one call an
/// operation a strip: inlined there, the float sweeps ran ≈25 % slower
/// (E-K5), while the AVX2 copy is faster with them inlined.
#[inline(never)]
fn sweep_baseline(
    op: Op,
    magic: Option<Magic>,
    rows: &mut [Row],
    n: usize,
    bufs: &Operands<'_>,
) -> usize {
    sweep(op, magic, rows, n, bufs)
}

/// The two compiled copies of the strip walk: the sweeps built for the
/// x86-64 baseline (SSE2), and the same source built again with AVX2
/// enabled, which the walk takes on a CPU that has it. They compute the
/// same bits (module docs, "Strips"); only their speed differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StripIsa {
    /// Built for the target's baseline instruction set.
    #[default]
    Baseline,
    /// Built with `#[target_feature(enable = "avx2")]`.
    Avx2,
}

impl StripIsa {
    /// The copy this host runs (`std` detects the CPU's features once per
    /// process and caches them).
    pub fn host() -> StripIsa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return StripIsa::Avx2;
        }
        StripIsa::Baseline
    }

    /// `baseline` or `avx2`, as `--profile` and `--metrics-json` print it.
    pub fn name(self) -> &'static str {
        match self {
            StripIsa::Baseline => "baseline",
            StripIsa::Avx2 => "avx2",
        }
    }
}

/// A thread's strip scratch: lane rows, one per unboxed register of the
/// largest loop it has run in strips (only rows of lane-varying and
/// broadcast registers are ever touched), and the multiplier of each
/// lane-parallel operation of the current entry. No entry but the first to
/// need more allocates.
struct Scratch {
    rows: Vec<Row>,
    magic: Vec<Option<Magic>>,
}

thread_local! {
    /// `run` calls nothing that could re-enter it, so the scratch is never
    /// borrowed twice.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            rows: Vec::new(),
            magic: Vec::new(),
        })
    };
}

impl Plan {
    /// Whether an entry of `trips` iterations on the operands `bufs` runs
    /// in strips.
    fn admits(&self, bufs: &Operands<'_>, trips: u64) -> bool {
        let clash = || {
            let Some(stored) = self.stored else {
                return false;
            };
            let stored = &bufs[stored as usize % MAX_BUFS].cells;
            let mut loaded = (0..MAX_BUFS).filter(|at| (self.loaded >> at) & 1 == 1);
            loaded.any(|at| bufs[at].cells.same_storage(stored))
        };
        trips >= SHORT_ENTRY && !clash()
    }
}

/// The strip walk of one entry.
struct Strips<'a> {
    lp: &'a ScalarLoop,
    plan: &'a Plan,
    rows: &'a mut [Row],
    /// By lane-parallel operation: its [`Magic`], if it has one.
    magic: &'a [Option<Magic>],
    isa: StripIsa,
    /// Strips that completed all [`STRIP`] lanes, for the profile.
    full: u64,
}

impl<'a> Strips<'a> {
    /// The walk, on `isa`'s copy, of an entry of `trips` iterations that
    /// `plan` admits: `regs` hold the entry's invariants.
    fn enter(
        lp: &'a ScalarLoop,
        plan: &'a Plan,
        scratch: &'a mut Scratch,
        regs: &Regs,
        trips: u64,
        isa: StripIsa,
    ) -> Self {
        let Scratch { rows, magic } = scratch;
        if rows.len() < lp.nregs {
            rows.resize(lp.nregs, [0; STRIP]);
        }
        let lanes = trips.min(STRIP as u64) as usize;
        for r in plan.broadcast.iter() {
            rows[r][..lanes].fill(regs[r]);
        }
        // A loop-invariant divisor (broadcast) other than 0, 1 and -1
        // divides by multiplying; the constants cost a 64-bit division.
        let par = &lp.body[..plan.par as usize];
        magic.clear();
        magic.extend(par.iter().map(|op| {
            let divides = matches!(op.code, Code::IDiv | Code::IRem);
            let by_invariant = divides && plan.broadcast.contains(op.b);
            by_invariant.then(|| Magic::new(regs[op.b as usize] as i32))?
        }));
        Strips {
            lp,
            plan,
            rows,
            magic,
            isa,
            full: 0,
        }
    }

    /// Run iterations `from..to`; returns the first that did not complete
    /// (`to` when all did). `regs` end as [`iterate`] leaves them: holding
    /// what the last completed iteration computed.
    fn run(&mut self, regs: &mut Regs, bufs: &Operands<'_>, from: i32, to: i32) -> i32 {
        #[cfg(target_arch = "x86_64")]
        if self.isa == StripIsa::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2, checked just above.
            return unsafe { self.walk_avx2(regs, bufs, from, to) };
        }
        self.walk(regs, bufs, from, to, sweep_baseline)
    }

    /// [`Strips::walk`], every sweep inlined into it, built with AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn walk_avx2(
        &mut self,
        regs: &mut Regs,
        bufs: &Operands<'_>,
        from: i32,
        to: i32,
    ) -> i32 {
        self.walk(regs, bufs, from, to, sweep)
    }

    /// [`Strips::run`]'s body, compiled into each copy, the lane-parallel
    /// operations swept by `sweep`.
    #[inline(always)]
    fn walk(
        &mut self,
        regs: &mut Regs,
        bufs: &Operands<'_>,
        from: i32,
        to: i32,
        sweep: impl Fn(Op, Option<Magic>, &mut [Row], usize, &Operands<'_>) -> usize,
    ) -> i32 {
        let (plan, rows) = (self.plan, &mut *self.rows);
        let (par, chain) = self.lp.body.split_at(plan.par as usize);
        let var = self.lp.var as usize;
        // Lane `k`'s value of every lane-varying register, for `step`.
        let lane = |regs: &mut Regs, rows: &[Row], k: usize| {
            regs[var] = rows[var][k];
            for op in par.iter().filter(|op| op.code != Code::Store) {
                regs[op.d as usize] = rows[op.d as usize][k];
            }
        };
        let mut t = from;
        while t < to {
            let strip = trips(t, to).min(STRIP as u64) as usize;
            for (k, index) in rows[var][..strip].iter_mut().enumerate() {
                *index = t.wrapping_add(k as i32) as u32;
            }
            let mut n = strip;
            for (&op, &magic) in par.iter().zip(self.magic) {
                n = sweep(op, magic, rows, n, bufs);
            }
            match chain {
                [] => {}
                [op] if plan.fold => {
                    let (acc, xs) = (&mut regs[op.d as usize], &rows[op.b as usize][..n]);
                    per_code!(
                        op.code,
                        [IAdd ISub IMul ILt ILe IEq INe FAdd FSub FMul FDiv FRem FLt FLe FEq FNe],
                        |c| fold_lanes(c, acc, xs)
                    );
                }
                _ => {
                    for k in 0..n {
                        lane(regs, rows, k);
                        let completed = step(chain, regs, bufs);
                        debug_assert!(completed, "validated: nothing on the chain is checked");
                    }
                }
            }
            if n > 0 {
                lane(regs, rows, n - 1);
            }
            self.full += u64::from(n == STRIP);
            t = t.wrapping_add(n as i32);
            if n < strip {
                break;
            }
        }
        t
    }
}

/// Run iterations `from..to` one at a time; returns the first that did not
/// complete (`to` when all did).
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

/// The wrapped difference of `from < to`: the exact trip count even when
/// `to - from` overflows.
fn trips(from: i32, to: i32) -> u64 {
    u64::from(to.wrapping_sub(from) as u32)
}

/// Run iterations `lo..hi` through `advance` (which takes a range and
/// returns the first iteration that did not complete), paying for them in
/// closed form. Returns where the loop stopped and whether an iteration
/// bailed there.
#[inline(always)] // as a call it cost a one-trip entry 20 ns (E-K3's `short_1`)
fn metered(
    interp: &Interp<'_>,
    charge: u32,
    batch: Option<&mut u64>,
    (lo, hi): (i32, i32),
    mut advance: impl FnMut(i32, i32) -> i32,
) -> IResult<(i32, bool)> {
    let per_iter = u64::from(charge);
    let Some(local) = batch else {
        let mut t = lo;
        while t < hi {
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
            t = advance(t, end);
            if t < end {
                let unrun = trips(t, end) * per_iter;
                interp.steps.fetch_sub(unrun, Ordering::Relaxed);
                return Ok((t, true));
            }
        }
        return Ok((t, false));
    };
    let t = advance(lo, hi);
    *local += trips(lo, t) * per_iter;
    Ok((t, t < hi))
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
    run_on(StripIsa::host(), interp, lp, frame, batch)
}

/// [`run`], strips walked by `isa`'s copy (AVX2 only where the CPU has
/// it).
fn run_on(
    isa: StripIsa,
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

    // The iterations, in strips or one at a time.
    let plan = (lp.plan.as_ref().ok()).filter(|plan| plan.admits(&bufs, trips(lo, hi)));
    let mut full_strips = 0;
    let (t, bailed) = match plan {
        Some(plan) => SCRATCH.with_borrow_mut(|scratch| {
            let mut strips = Strips::enter(lp, plan, scratch, &regs, trips(lo, hi), isa);
            let advance = |from, to| strips.run(&mut regs, &bufs, from, to);
            let stopped = metered(interp, lp.charge, batch, (lo, hi), advance);
            full_strips = strips.full;
            stopped
        }),
        None => {
            let advance = |from, to| iterate(lp, &mut regs, &bufs, from, to);
            metered(interp, lp.charge, batch, (lo, hi), advance)
        }
    }?;
    count(&interp.unboxed_loops, u64::from(t > lo));
    count(&interp.unboxed_iters, trips(lo, t));
    count(
        &interp.unboxed_strip_iters,
        plan.map_or(0, |_| trips(lo, t)),
    );
    count(&interp.unboxed_full_strips, full_strips);
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

    // ---- strips ----------------------------------------------------------

    #[test]
    fn row_work_plans_four_lane_parallel_operations_and_one_accumulate() {
        let (body, consts) = row_work();
        let lp = translated(&body, &consts).expect("eligible");
        assert_eq!(lp.per_iteration_reason(), None);
        let plan = lp.plan.expect("planned");
        // `j / 160`, `+`, the load and `* 0.5` run a strip at a time, the
        // accumulate lane by lane after them; the order is the program's.
        assert_eq!((plan.par, plan.fold), (4, true));
        assert_eq!(
            codes(&lp.body),
            [Code::IDiv, Code::IAdd, Code::Load, Code::FMul, Code::FAdd]
        );
        // Broadcast: the divisor, `i * dim(grid, 1)` and `0.5` — not the
        // literal 1 only `dim()` reads, not the index, not `acc`.
        let broadcast: Vec<usize> = plan.broadcast.iter().collect();
        let mut want = [lp.consts[1].0, lp.pre[1].d, lp.consts[2].0].map(usize::from);
        want.sort();
        assert_eq!(broadcast, want);
        assert_eq!(
            (plan.stored, plan.loaded),
            (None, 1),
            "loads grid, stores nothing"
        );
        // Held inline in every translated loop: no heap, and no larger
        // than two `Vec` headers.
        assert!(std::mem::size_of::<Result<Plan, Reason>>() <= 48);
    }

    #[test]
    fn the_carried_chain_moves_behind_the_lane_parallel_operations() {
        // `acc = acc * acc; out[j] = j`: the store can bail, so the update
        // goes to a fresh register and a move closes the iteration — and
        // both follow the store in the planned body.
        let body = [
            Instr::Bin {
                op: B::Mul,
                dst: 1,
                a: 1,
                b: 1,
            },
            Instr::Store {
                buf: 5,
                idx: 0,
                val: 0,
            },
        ];
        let lp = translated(&body, &[]).expect("eligible");
        assert_eq!(codes(&lp.body), [Code::Store, Code::FMul, Code::Mov]);
        let plan = lp.plan.expect("planned");
        assert_eq!(
            (plan.par, plan.fold),
            (1, false),
            "two operations: not a fold"
        );
        assert_eq!((plan.stored, plan.loaded), (Some(0), 0));
        assert!(lp.validate(12));
    }

    #[test]
    fn bodies_without_a_strip_plan_say_why() {
        let carried_index_then_load = [
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
        // `i = i / j`: the division's failing lane would depend on the
        // lanes before it.
        let division_on_the_chain = [Instr::Bin {
            op: B::Div,
            dst: 3,
            a: 3,
            b: 0,
        }];
        // `flag = i < j; i = j`: `i` is carried, yet its new value is a
        // per-lane one.
        let carried_overwritten = [
            Instr::Bin {
                op: B::Lt,
                dst: 4,
                a: 3,
                b: 0,
            },
            Instr::Copy { dst: 3, src: 0 },
        ];
        let cases: [(&[Instr], Reason); 3] = [
            (&carried_index_then_load, CHECKED_ON_CHAIN),
            (&division_on_the_chain, CHECKED_ON_CHAIN),
            (&carried_overwritten, CARRIED_OVERWRITTEN),
        ];
        for (body, why) in cases {
            let lp = translated(body, &[]).expect("translated all the same");
            assert_eq!(lp.per_iteration_reason(), Some(why), "{body:?}");
            assert!(lp.validate(12));
        }
        // A planless body is the body `step` always ran.
        let lp = translated(&carried_index_then_load, &[]).expect("translated");
        assert_eq!(codes(&lp.body), [Code::IAdd, Code::Load, Code::Mov]);
    }

    #[test]
    fn validate_rejects_a_plan_the_body_does_not_fit() {
        let (body, consts) = row_work();
        let good = translated(&body, &consts).expect("eligible");
        let plan = good.plan.expect("planned");
        let with_plan = |plan: Plan| ScalarLoop {
            plan: Ok(plan),
            ..good.clone()
        };
        // The split beyond the body; a checked operation left on the
        // chain; a "fold" that is not one in-place operation; a stored
        // operand beyond the table.
        assert!(!with_plan(Plan { par: 6, ..plan }).validate(12));
        assert!(!with_plan(Plan {
            par: 2,
            fold: false,
            ..plan
        })
        .validate(12));
        assert!(!with_plan(Plan { par: 3, ..plan }).validate(12));
        assert!(!with_plan(Plan {
            stored: Some(1),
            ..plan
        })
        .validate(12));
        // A destination row that is also a source row.
        let mut bad = good.clone();
        bad.body[1].d = bad.body[1].a;
        assert!(!bad.validate(12));
    }

    /// The multiply-shift is `int_div` and `int_rem` lane for lane, on rows
    /// with no negative lane (the unsigned product) and on rows with one
    /// (the signed product), and leaves 0, 1 and -1 to them.
    #[test]
    fn magic_division_is_int_div_and_int_rem() {
        for d in [0, 1, -1] {
            assert!(
                Magic::new(d).is_none(),
                "{d} takes the checked per-lane path"
            );
        }
        let mut divisors = vec![2, 3, 7, 16, 800, 9973, i32::MAX, i32::MIN];
        for k in 2..=30 {
            divisors.extend([1 << k, (1 << k) + 1, (1 << k) - 1]);
        }
        divisors.extend(divisors.clone().iter().map(|d| d.wrapping_neg()));
        // Seeded: the draws repeat.
        let mut rng = proptest::test_runner::TestRng::with_seed(0x5eed);
        let (mut quotients, mut remainders) = ([0; STRIP], [0; STRIP]);
        let mut check = |magic: Magic, d: i32, row: &[u32; STRIP]| {
            assert_eq!(magic_lanes(Code::IDiv, magic, &mut quotients, row), STRIP);
            assert_eq!(magic_lanes(Code::IRem, magic, &mut remainders, row), STRIP);
            for ((&x, &q), &r) in row.iter().zip(&quotients).zip(&remainders) {
                let x = x as i32;
                assert_eq!(Ok(q as i32), int_div(x, d), "{x} / {d}");
                assert_eq!(Ok(r as i32), int_rem(x, d), "{x} % {d}");
            }
        };
        for &d in &divisors {
            let magic = Magic::new(d).expect("a multiplier");
            // `2^31 < m < 2^32`: had the multiplier needed a 33rd bit, its
            // `u32` would have wrapped to a small number.
            assert!(magic.mul > 1 << 31, "{d}: multiplier {}", magic.mul);
            let m = d.unsigned_abs();
            let edges = [0, 1, m - 1, m, m + 1, i32::MAX as u32];
            let edges = edges.into_iter().filter(|&x| x <= i32::MAX as u32);
            let mut row = [0; STRIP];
            for (lane, x) in row.iter_mut().zip(edges) {
                *lane = x;
            }
            for round in 0..8 {
                if round > 0 {
                    row.fill_with(|| (rng.next_u64() as u32) >> 1);
                }
                check(magic, d, &row);
                // One negative lane sends the whole row the signed way.
                let mut signed = row;
                let lane = (rng.next_u64() as u32) as usize % STRIP;
                signed[lane] = match round {
                    0 => i32::MIN as u32,
                    1 => u32::MAX,
                    2 => d.wrapping_neg().min(d) as u32,
                    _ => (rng.next_u64() as u32) | 1 << 31,
                };
                check(magic, d, &signed);
                // And rows of any `int`s.
                signed.fill_with(|| rng.next_u64() as u32);
                check(magic, d, &signed);
            }
        }
    }

    /// `for j in 0..2·STRIP+5`, `out` being `cells` long: `i = i + j` and
    /// `out[j] = j`, the store first or last. Returns what `run` returned
    /// and left behind: `i`, the counter, the steps charged, `out`.
    fn run_accumulate_and_store(
        store_first: bool,
        cells: usize,
    ) -> (bool, i32, i32, u64, Vec<i32>) {
        let accumulate = Instr::Bin {
            op: B::Add,
            dst: 3,
            a: 3,
            b: 0,
        };
        let store = Instr::Store {
            buf: 5,
            idx: 0,
            val: 0,
        };
        let body = if store_first {
            [store, accumulate]
        } else {
            [accumulate, store]
        };
        let lp = translated(&body, &[]).expect("eligible");
        let plan = lp.plan.expect("planned");
        assert_eq!(
            plan.fold, store_first,
            "in place only when nothing after it can bail"
        );

        let program = crate::ir::IrProgram { functions: vec![] };
        let interp = Interp::new(&program, 1);
        let out = crate::interp::BufHandle::from_i32(vec![cells], &vec![-1; cells]);
        let mut frame = Frame {
            slots: vec![Value::Unit; 12],
            pending: Vec::new(),
        };
        frame.slots[3] = Value::I(1000);
        frame.slots[5] = Value::Buf(out.clone());
        frame.slots[6] = Value::I(0);
        frame.slots[7] = Value::I(2 * STRIP as i32 + 5);
        let mut steps = 0;
        let done = run(&interp, &lp, &mut frame, Some(&mut steps)).expect("no limit");
        let (Value::I(i), Value::I(counter)) = (&frame.slots[3], &frame.slots[6]) else {
            panic!("ints: {:?}", &frame.slots[..8]);
        };
        (done, *i, *counter, steps, out.to_i32_vec().expect("live"))
    }

    /// The bail contract across strips: when the store of iteration `f`
    /// fails, the accumulator holds what iterations `..f` made of it and
    /// the counter holds `f` — with `f` the first lane of a strip, the
    /// middle, the last lane, the first of the second strip — whether the
    /// chain is the fold's tight loop or runs through `step`.
    #[test]
    fn a_strip_that_bails_leaves_the_frame_at_the_top_of_the_failing_iteration() {
        let total = 2 * STRIP + 5;
        for store_first in [true, false] {
            for f in [0, 57, STRIP - 1, STRIP, STRIP + 1, total] {
                let (done, i, counter, steps, out) = run_accumulate_and_store(store_first, f);
                let what = format!("store first: {store_first}, {f} cells");
                assert_eq!(done, f == total, "{what}");
                assert_eq!(counter as usize, f, "{what}");
                assert_eq!(i as usize, 1000 + f * f.saturating_sub(1) / 2, "{what}");
                assert_eq!(steps, 3 * f as u64, "{what}: three steps an iteration");
                assert_eq!(out, (0..f as i32).collect::<Vec<_>>(), "{what}");
            }
        }
    }

    // ---- the two copies of the strip walk ----------------------------------

    /// What one run of a loop leaves: whether it completed, the counter
    /// (where it stopped), the steps it charged, and every frame slot's
    /// bits — a buffer's as its cells.
    type Observed = (bool, i32, u64, Vec<Vec<u32>>);

    fn run_copy(isa: StripIsa, lp: &ScalarLoop, counter: u16, slots: Vec<Value>) -> Observed {
        let program = crate::ir::IrProgram { functions: vec![] };
        let interp = Interp::new(&program, 1);
        let mut frame = Frame {
            slots,
            pending: Vec::new(),
        };
        let mut steps = 0;
        let done = run_on(isa, &interp, lp, &mut frame, Some(&mut steps)).expect("no limit");
        let bits = frame.slots.iter().map(|v| match v {
            Value::Buf(b) => b
                .to_i32_vec()
                .expect("live")
                .iter()
                .map(|&c| c as u32)
                .collect(),
            Value::I(x) => vec![*x as u32],
            Value::F(x) => vec![x.to_bits()],
            Value::B(x) => vec![u32::from(*x)],
            _ => vec![],
        });
        let Value::I(stopped) = frame.slots[counter as usize] else {
            panic!("the counter holds an int")
        };
        (done, stopped, steps, bits.collect())
    }

    /// Trips of the agreement runs: three full strips and a short one, so
    /// iteration 333 is lane 77 of the third strip.
    const TRIPS: usize = 3 * STRIP + 40;
    const FAIL_AT: usize = 2 * STRIP + 77;

    /// Slots of the bodies that need more than [`SLOTS`]: 0 `j`, 1 `acc:
    /// float`, 2 `grid: Matrix float`, 3 `i: int`, 4 `flag: bool`, 5 `ix:
    /// Matrix int`, 6 `mask: Matrix bool`, 7 `dst: Matrix float`, 8 `k:
    /// int`; 9 and 10 the counter and bound, temporaries from 11 up.
    const WIDE_SLOTS: [CType; 9] = [
        CType::Int,
        CType::Float,
        CType::Buf(Elem::F32),
        CType::Int,
        CType::Bool,
        CType::Buf(Elem::I32),
        CType::Buf(Elem::Bool),
        CType::Buf(Elem::F32),
        CType::Int,
    ];
    const WIDE_HEAD: Instr = Instr::ForHead {
        counter: 9,
        hi: 10,
        var: 0,
        charge: 2,
        exit: 0,
    };

    fn bin(op: B, dst: u16, a: u16, b: u16) -> Instr {
        Instr::Bin { op, dst, a, b }
    }

    /// Bodies over [`WIDE_SLOTS`] that between them run every operation in
    /// a strip, and the literals they use.
    fn wide_bodies() -> (Vec<(&'static str, Vec<Instr>)>, Vec<Value>) {
        let load = |dst, buf, idx| Instr::Load { dst, buf, idx };
        let store = |buf, idx, val| Instr::Store { buf, idx, val };
        let bodies = vec![
            // `acc = acc + grid[ix[j]] * 0.5`: a gather, then a fold.
            (
                "gather fold",
                vec![
                    load(11, 5, 0),
                    load(12, 2, 11),
                    Instr::Const { dst: 13, k: 0 },
                    bin(B::Mul, 14, 12, 13),
                    bin(B::Add, 1, 1, 14),
                ],
            ),
            // `dst[j] = toFloat((j*7 - i) / k + (j*7 - i) % k)`.
            (
                "divide and store",
                vec![
                    Instr::Const { dst: 11, k: 1 },
                    bin(B::Mul, 12, 0, 11),
                    bin(B::Sub, 13, 12, 3),
                    bin(B::Div, 14, 13, 8),
                    bin(B::Rem, 15, 13, 8),
                    bin(B::Add, 16, 14, 15),
                    Instr::CastFloat { dst: 17, src: 16 },
                    store(7, 0, 17),
                ],
            ),
            // `i = i + mask[j]; ix[j] = -j + ((!mask[j]) == flag)`: a bool
            // gather, and a chain that is not a fold.
            (
                "mask count",
                vec![
                    load(11, 6, 0),
                    bin(B::Add, 3, 3, 11),
                    Instr::Not { dst: 12, src: 11 },
                    bin(B::Eq, 13, 12, 4),
                    Instr::Neg { dst: 14, src: 0 },
                    bin(B::Add, 15, 14, 13),
                    store(5, 0, 15),
                ],
            ),
            // Float arithmetic, casts and comparisons on `grid[j]`, NaNs
            // and infinities among them, folded into `acc`.
            (
                "float mix",
                vec![
                    load(11, 2, 0),
                    Instr::Neg { dst: 12, src: 11 },
                    bin(B::Div, 13, 11, 12),
                    bin(B::Rem, 14, 13, 11),
                    bin(B::Sub, 15, 14, 11),
                    Instr::CastInt { dst: 16, src: 15 },
                    Instr::Neg { dst: 17, src: 16 },
                    bin(B::Lt, 18, 17, 0),
                    bin(B::Le, 19, 15, 11),
                    bin(B::Eq, 4, 18, 19),
                    Instr::CastFloat { dst: 20, src: 17 },
                    bin(B::Mul, 21, 20, 11),
                    bin(B::Ne, 22, 21, 11),
                    bin(B::Gt, 23, 21, 11),
                    bin(B::Ge, 24, 16, 0),
                    bin(B::Mul, 25, 16, 0),
                    bin(B::Add, 1, 1, 21),
                ],
            ),
        ];
        let consts = vec![Value::F(0.5), Value::I(7)];
        (bodies, consts)
    }

    /// The inputs of one agreement run over [`WIDE_SLOTS`].
    #[derive(Debug, Clone, Copy)]
    struct Inputs {
        /// Cells of `grid`, `ix` and `dst`: short of [`TRIPS`] makes a
        /// load or store of `[j]` fail there.
        cells: usize,
        /// `ix[FAIL_AT]`, when not a valid index.
        bad_index: Option<i32>,
        k: i32,
        i: i32,
    }

    fn wide_frame(inputs: Inputs) -> Vec<Value> {
        let n = inputs.cells;
        // NaNs, infinities, signed zeros and ordinary values.
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            -0.0,
            0.0,
            f32::NEG_INFINITY,
        ];
        let grid: Vec<f32> = (0..n)
            .map(|j| match j % 11 {
                0..=5 => special[j % 11],
                _ => j as f32 * 0.75 - 100.0,
            })
            .collect();
        let mut ix: Vec<i32> = (0..n).map(|j| (j * 37 % n) as i32).collect();
        if let Some(bad) = inputs.bad_index {
            ix[FAIL_AT] = bad;
        }
        let mask: Vec<bool> = (0..TRIPS).map(|j| j % 3 == 1).collect();
        let mut slots = vec![Value::Unit; 11];
        slots[0] = Value::I(-1);
        slots[1] = Value::F(0.25);
        slots[2] = Value::Buf(crate::interp::BufHandle::from_f32(vec![n], &grid));
        slots[3] = Value::I(inputs.i);
        slots[4] = Value::B(true);
        slots[5] = Value::Buf(crate::interp::BufHandle::from_i32(vec![n], &ix));
        slots[6] = Value::Buf(crate::interp::BufHandle::from_bool(vec![TRIPS], &mask));
        slots[7] = Value::Buf(crate::interp::BufHandle::from_f32(vec![n], &vec![-1.0; n]));
        slots[8] = Value::I(inputs.k);
        slots[9] = Value::I(0);
        slots[10] = Value::I(TRIPS as i32);
        slots
    }

    /// The frame of [`SLOTS`]' bodies: `grid` and `out` `cells` long, the
    /// loop [`TRIPS`] long.
    fn narrow_frame(cells: usize) -> Vec<Value> {
        let grid: Vec<f32> = (0..cells).map(|c| c as f32 * 0.5).collect();
        let mut slots = vec![Value::Unit; 12];
        slots[1] = Value::F(1.0);
        slots[2] = Value::Buf(crate::interp::BufHandle::from_f32(vec![1, cells], &grid));
        slots[3] = Value::I(0);
        slots[5] = Value::Buf(crate::interp::BufHandle::from_i32(
            vec![cells],
            &vec![-1; cells],
        ));
        slots[6] = Value::I(0);
        slots[7] = Value::I(TRIPS as i32);
        slots
    }

    /// The AVX2 copy of the strip walk computes what the baseline copy
    /// does — registers, buffer cells, the iteration it stops at, the
    /// steps — on every strip-eligible body of these tests: with NaNs in
    /// the rows, negative indices, and an index out of bounds at lane 77 of
    /// the third strip.
    #[test]
    fn both_copies_of_the_strip_walk_agree() {
        if StripIsa::host() != StripIsa::Avx2 {
            eprintln!("skipped: this host has no AVX2, so the strip walk has one copy");
            return;
        }
        let agree = |what: &str, lp: &ScalarLoop, counter: u16, frame: &dyn Fn() -> Vec<Value>| {
            assert!(lp.plan.is_ok(), "{what}: planned");
            let baseline = run_copy(StripIsa::Baseline, lp, counter, frame());
            let avx2 = run_copy(StripIsa::Avx2, lp, counter, frame());
            assert_eq!(avx2, baseline, "{what}");
            baseline.1 as usize
        };

        let (bodies, consts) = wide_bodies();
        let whole = Inputs {
            cells: TRIPS,
            bad_index: None,
            k: 7,
            i: 100,
        };
        let cases = [
            whole,
            Inputs { k: -3, ..whole },
            // `j*7 - i` negative in every lane, then in the first strips
            // only: the signed product.
            Inputs {
                i: i32::MAX,
                ..whole
            },
            Inputs {
                i: 1000,
                k: i32::MIN,
                ..whole
            },
            Inputs {
                bad_index: Some(-5),
                ..whole
            },
            Inputs {
                bad_index: Some(TRIPS as i32),
                ..whole
            },
            Inputs {
                cells: FAIL_AT,
                ..whole
            },
            // A divisor of 0 fails in lane 0 of the first strip, -1 in no
            // lane; both take the checked per-lane path.
            Inputs { k: 0, ..whole },
            Inputs { k: -1, ..whole },
        ];
        let mut stopped_mid_strip = 0;
        for (name, body) in &bodies {
            let lp = translate(&WIDE_HEAD, body, &consts, &WIDE_SLOTS).expect(name);
            assert!(lp.validate(11 + lp.nregs), "{name}");
            for inputs in cases {
                let what = format!("{name}, {inputs:?}");
                let stopped = agree(&what, &lp, 9, &|| wide_frame(inputs));
                stopped_mid_strip += usize::from(stopped == FAIL_AT);
            }
        }
        assert!(
            stopped_mid_strip >= 4,
            "{stopped_mid_strip} runs stopped at lane 77"
        );

        let (row_work, literals) = row_work();
        let acc_squared = [
            bin(B::Mul, 1, 1, 1),
            Instr::Store {
                buf: 5,
                idx: 0,
                val: 0,
            },
        ];
        let accumulate = bin(B::Add, 3, 3, 0);
        let store_j = Instr::Store {
            buf: 5,
            idx: 0,
            val: 0,
        };
        let narrow: [(&str, &[Instr]); 4] = [
            ("rowWork", &row_work),
            ("acc * acc, store", &acc_squared),
            ("store, accumulate", &[store_j.clone(), accumulate.clone()]),
            ("accumulate, store", &[accumulate, store_j]),
        ];
        for (name, body) in narrow {
            let lp = translated(body, &literals).expect(name);
            for cells in [TRIPS, FAIL_AT] {
                agree(&format!("{name}, {cells} cells"), &lp, 6, &|| {
                    narrow_frame(cells)
                });
            }
        }
    }
}
