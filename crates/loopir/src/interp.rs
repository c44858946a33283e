//! IR interpreter.
//!
//! Executes lowered programs directly in Rust: parallel loops run on a
//! [`cmm_forkjoin::ForkJoinPool`] (the enhanced fork-join model of
//! §III-C), vector loops execute their four lanes with identical
//! semantics, and matrix buffers are reference-counted 4-byte-cell blocks
//! whose [`Builtin::RcIncr`]/[`Builtin::RcDecr`] mirror the generated C's
//! reference-counting pointers (§III-B) — including detection of
//! use-after-free when the count reaches zero.
//!
//! The print builtins append to a captured output buffer formatted exactly
//! like the emitted C's `printf` calls, so integration tests can diff
//! interpreter output against a gcc-compiled run of the same program.
//!
//! Execution runs over the slot-resolved form produced by [`crate::resolve`]:
//! construction resolves every variable to a frame-slot index once, so the
//! hot path indexes a flat `Vec<Value>` per call frame instead of walking
//! string-keyed scope maps, and parallel loops hand each participant a
//! frame seeded with only the slots the body actually references.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use cmm_forkjoin::{ForkJoinPool, Schedule};
use cmm_rc::{AllocError, PoolBlock};

use crate::cmmx;
use crate::ir::{Builtin, CType, Elem, IrBinOp, IrProgram};
use crate::resolve::{resolve_program, RCallee, RExpr, RFor, RProgram, RStmt, RTarget};

/// Which execution tier runs the resolved program.
///
/// Both tiers share one semantic substrate — values, buffers, builtins,
/// limits, spawns, fork-join parallel regions — so they produce bitwise
/// identical output and identical error messages; the fuzzer's `vm`
/// oracle holds them to that. The VM is the tier programs run on; the
/// tree-walker is the reference it is held to, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Tree-walking reference interpreter over the resolved statements.
    Tree,
    /// Register-based bytecode VM ([`crate::vm`]).
    Vm,
}

/// Which resource budget a [`InterpErrorKind::LimitExceeded`] error hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// The step (fuel) budget ran out.
    Fuel,
    /// Live matrix memory would exceed the byte budget.
    Memory,
    /// Too many matrix buffers alive at once.
    LiveBuffers,
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for LimitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LimitKind::Fuel => "fuel",
            LimitKind::Memory => "memory",
            LimitKind::LiveBuffers => "live-buffers",
            LimitKind::Deadline => "deadline",
        })
    }
}

/// Classification of an interpreter error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpErrorKind {
    /// Ordinary runtime failure in the interpreted program.
    Runtime,
    /// A configured resource budget ([`Limits`]) was exceeded.
    LimitExceeded(LimitKind),
    /// A fork-join pool worker panicked while executing part of a
    /// parallel region of this program. The pool recovered (the panic is
    /// fully contained to this run), but the region's results are
    /// unusable — session hosts report this distinctly so clients can
    /// tell a tenant fault from an ordinary program error.
    WorkerPanic,
    /// [`Tier::Vm`] was selected and one function does not fit the
    /// bytecode's `u16` registers or tables. The program never starts: a
    /// compile error, the way the JVM reports a method over its limits.
    VmLimit,
}

/// Interpreter runtime error.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpError {
    /// Error classification (runtime fault vs resource limit).
    pub kind: InterpErrorKind,
    /// What went wrong.
    pub message: String,
}

impl InterpError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        InterpError {
            kind: InterpErrorKind::Runtime,
            message: message.into(),
        }
    }

    fn limit(kind: LimitKind, message: impl Into<String>) -> Self {
        InterpError {
            kind: InterpErrorKind::LimitExceeded(kind),
            message: message.into(),
        }
    }

    /// A bytecode limit hit while lowering `function`.
    pub(crate) fn vm_limit(function: &str, limit: &str) -> Self {
        InterpError {
            kind: InterpErrorKind::VmLimit,
            message: format!("function '{function}': {limit}"),
        }
    }

    pub(crate) fn worker_panic(p: &cmm_forkjoin::RegionPanic) -> Self {
        InterpError {
            kind: InterpErrorKind::WorkerPanic,
            message: p.to_string(),
        }
    }

    /// The limit this error reports, if it is a limit error.
    pub fn limit_kind(&self) -> Option<LimitKind> {
        match self.kind {
            InterpErrorKind::LimitExceeded(k) => Some(k),
            InterpErrorKind::Runtime | InterpErrorKind::WorkerPanic | InterpErrorKind::VmLimit => {
                None
            }
        }
    }
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            InterpErrorKind::Runtime => write!(f, "runtime error: {}", self.message),
            InterpErrorKind::LimitExceeded(k) => {
                write!(f, "limit exceeded ({k}): {}", self.message)
            }
            InterpErrorKind::WorkerPanic => write!(f, "worker panic: {}", self.message),
            InterpErrorKind::VmLimit => write!(f, "bytecode limit: {}", self.message),
        }
    }
}

impl std::error::Error for InterpError {}

/// Resource budgets enforced by the interpreter.
///
/// All budgets default to unlimited; a program run under `Limits::default()`
/// behaves exactly as before. Exceeding any configured budget aborts the
/// run with a structured [`InterpErrorKind::LimitExceeded`] error instead
/// of hanging (infinite loops), exhausting memory (huge allocations), or
/// leaking buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Limits {
    /// Maximum interpreter steps (statements + loop iterations) before the
    /// run is aborted. Guards against infinite loops.
    pub fuel: Option<u64>,
    /// Maximum bytes of matrix storage live at any point. Checked *before*
    /// each allocation, so an oversized request is rejected rather than
    /// attempted.
    pub max_matrix_bytes: Option<u64>,
    /// Maximum number of matrix buffers live at any point.
    pub max_live_buffers: Option<u32>,
    /// Wall-clock budget for the whole run, checked every 1024 steps.
    pub deadline: Option<Duration>,
}

impl Limits {
    /// No budgets (the default).
    pub fn unlimited() -> Self {
        Limits::default()
    }

    /// Whether any budget is configured.
    pub fn any(&self) -> bool {
        self.fuel.is_some()
            || self.max_matrix_bytes.is_some()
            || self.max_live_buffers.is_some()
            || self.deadline.is_some()
    }
}

pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking worker must not wedge the interpreter: the data under
    // these locks stays consistent (single writes of plain values), so a
    // poisoned lock is safe to re-enter.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) type IResult<T> = Result<T, InterpError>;

struct BufInner {
    refs: AtomicU32,
    freed: AtomicBool,
    dims: Vec<usize>,
    elem: Elem,
    /// Element count (the block may be rounded up to its size class).
    len: usize,
    /// Backing storage: a zeroed 4-byte-per-cell block from the `cmm-rc`
    /// size-class recycling pool, so interpreter runs exercise — and are
    /// measured against — the same allocator as the native runtime.
    /// Parallel loops write disjoint cells through the raw pointer, the
    /// same discipline the generated C uses.
    block: PoolBlock,
}

/// Handle to a reference-counted matrix buffer (the IR value of
/// `cmm_mat*`).
#[derive(Clone)]
pub struct BufHandle(Arc<BufInner>);

impl BufHandle {
    /// Fresh zeroed buffer with the given dims; refcount 1. Panics if the
    /// storage cannot be acquired (see [`BufHandle::try_new`]).
    pub fn new(elem: Elem, dims: Vec<usize>) -> Self {
        BufHandle::try_new(elem, dims)
            .unwrap_or_else(|e| panic!("interpreter matrix buffer: {e}"))
    }

    /// Fallible [`BufHandle::new`]: surfaces pool failures (oversize
    /// request, out of memory) as a typed error.
    pub fn try_new(elem: Elem, dims: Vec<usize>) -> Result<Self, AllocError> {
        let len: usize = dims.iter().product();
        let bytes = len.checked_mul(4).ok_or(AllocError::Oversize { bytes: usize::MAX })?;
        let block = PoolBlock::try_zeroed(bytes)?;
        Ok(BufHandle(Arc::new(BufInner {
            refs: AtomicU32::new(1),
            freed: AtomicBool::new(false),
            dims,
            elem,
            len,
            block,
        })))
    }

    /// Buffer from f32 data.
    pub fn from_f32(dims: Vec<usize>, data: &[f32]) -> Self {
        let b = BufHandle::new(Elem::F32, dims);
        for (i, &v) in data.iter().enumerate() {
            b.write_bits(i, v.to_bits()).expect("fresh buffer in bounds");
        }
        b
    }

    /// Buffer from i32 data.
    pub fn from_i32(dims: Vec<usize>, data: &[i32]) -> Self {
        let b = BufHandle::new(Elem::I32, dims);
        for (i, &v) in data.iter().enumerate() {
            b.write_bits(i, v as u32).expect("fresh buffer in bounds");
        }
        b
    }

    /// Buffer from bool data.
    pub fn from_bool(dims: Vec<usize>, data: &[bool]) -> Self {
        let b = BufHandle::new(Elem::Bool, dims);
        for (i, &v) in data.iter().enumerate() {
            b.write_bits(i, u32::from(v)).expect("fresh buffer in bounds");
        }
        b
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0.dims
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Element type.
    pub fn elem(&self) -> Elem {
        self.0.elem
    }

    /// Current reference count (the simulated 4-byte header).
    pub fn rc_count(&self) -> u32 {
        self.0.refs.load(Ordering::Acquire)
    }

    /// Whether a release reached zero (the block was "freed").
    pub fn is_freed(&self) -> bool {
        self.0.freed.load(Ordering::Acquire)
    }

    pub(crate) fn check_live(&self) -> IResult<()> {
        if self.is_freed() {
            return Err(InterpError::new(
                "use after free: matrix accessed after its reference count reached zero",
            ));
        }
        Ok(())
    }

    fn cell_ptr(&self, idx: usize) -> IResult<*mut u32> {
        if idx >= self.0.len {
            return Err(InterpError::new(format!(
                "index {idx} out of bounds for buffer of {}",
                self.len()
            )));
        }
        // The block is 16-byte aligned and at least 4 * len bytes.
        Ok(unsafe { (self.0.block.as_ptr() as *mut u32).add(idx) })
    }

    fn read_bits(&self, idx: usize) -> IResult<u32> {
        self.check_live()?;
        let cell = self.cell_ptr(idx)?;
        // Safety: in bounds; generated code never reads a cell another
        // thread is concurrently writing (disjoint-write discipline).
        Ok(unsafe { *cell })
    }

    fn write_bits(&self, idx: usize, bits: u32) -> IResult<()> {
        self.check_live()?;
        let cell = self.cell_ptr(idx)?;
        // Safety: in bounds; disjoint-write discipline (see module docs).
        unsafe { *cell = bits };
        Ok(())
    }

    /// Read as the buffer's element type, converted to a [`Value`].
    pub fn read(&self, idx: usize) -> IResult<Value> {
        let bits = self.read_bits(idx)?;
        Ok(match self.0.elem {
            Elem::I32 => Value::I(bits as i32),
            Elem::F32 => Value::F(f32::from_bits(bits)),
            Elem::Bool => Value::B(int_to_bool(bits as i32)),
        })
    }

    /// Write a value, converting to the buffer's element type.
    pub fn write(&self, idx: usize, v: &Value) -> IResult<()> {
        let bits = match (self.0.elem, v) {
            (Elem::I32, Value::I(x)) => *x as u32,
            (Elem::I32, Value::F(x)) => float_to_int(*x) as u32,
            (Elem::F32, Value::F(x)) => x.to_bits(),
            (Elem::F32, Value::I(x)) => (*x as f32).to_bits(),
            (Elem::Bool, Value::B(x)) => u32::from(*x),
            (elem, v) => {
                return Err(InterpError::new(format!(
                    "cannot store {v:?} into {elem:?} buffer"
                )))
            }
        };
        self.write_bits(idx, bits)
    }

    /// Snapshot as f32 data (test helper).
    pub fn to_f32_vec(&self) -> IResult<Vec<f32>> {
        (0..self.len())
            .map(|i| self.read_bits(i).map(f32::from_bits))
            .collect()
    }

    /// Snapshot as i32 data (test helper).
    pub fn to_i32_vec(&self) -> IResult<Vec<i32>> {
        (0..self.len()).map(|i| self.read_bits(i).map(|b| b as i32)).collect()
    }

    /// Whether both handles name the same storage.
    pub(crate) fn same_buffer(&self, other: &BufHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Base pointer of the buffer's `len()` 4-byte cells, for the kernel
    /// ops ([`crate::kernel`]) that hand whole operands to
    /// [`crate::kernels`] as slices. The block is 16-byte aligned and
    /// at least `4 * len()` bytes; it stays allocated while any handle
    /// exists, freed or not.
    pub(crate) fn cells(&self) -> *mut u32 {
        self.0.block.as_ptr() as *mut u32
    }

    /// Bounds-checked access to the cells without the per-access liveness
    /// check of [`BufHandle::read`]: the caller ([`crate::scalar_loop`])
    /// checks `is_freed()` once, before a loop none of whose operations
    /// can release a buffer.
    pub(crate) fn view(&self) -> CellView<'_> {
        CellView {
            cells: self.cells(),
            len: self.0.len,
            _buf: std::marker::PhantomData,
        }
    }

    fn incr(&self) {
        self.0.refs.fetch_add(1, Ordering::AcqRel);
    }

    fn decr(&self) -> IResult<()> {
        let prev = self.0.refs.fetch_sub(1, Ordering::AcqRel);
        if prev == 0 {
            return Err(InterpError::new("reference count decremented below zero"));
        }
        if prev == 1 {
            self.0.freed.store(true, Ordering::Release);
        }
        Ok(())
    }
}

/// The cells of one [`BufHandle`], borrowed ([`BufHandle::view`]).
#[derive(Clone, Copy)]
pub(crate) struct CellView<'a> {
    cells: *mut u32,
    len: usize,
    _buf: std::marker::PhantomData<&'a BufHandle>,
}

impl CellView<'_> {
    /// A view of no cells: every access is out of bounds.
    pub(crate) const EMPTY: CellView<'static> = CellView {
        cells: std::ptr::null_mut(),
        len: 0,
        _buf: std::marker::PhantomData,
    };

    /// Whether both views are of the same cells: two handles of one buffer
    /// (a matrix passed under two names) share storage, two buffers never
    /// do.
    pub(crate) fn same_storage(&self, other: &CellView<'_>) -> bool {
        std::ptr::eq(self.cells, other.cells)
    }

    /// Bits of cell `idx`, `None` out of bounds. `idx` is the lowered
    /// `int` index sign-extended, so a negative one is out of bounds too.
    #[inline(always)]
    pub(crate) fn read(&self, idx: usize) -> Option<u32> {
        if idx >= self.len {
            return None;
        }
        // SAFETY: in bounds of the block, which the borrowed handle keeps
        // allocated; disjoint-write discipline as in `read_bits`.
        Some(unsafe { *self.cells.add(idx) })
    }

    /// Overwrite cell `idx`; `false` (nothing written) out of bounds.
    #[inline(always)]
    pub(crate) fn write(&self, idx: usize, bits: u32) -> bool {
        if idx >= self.len {
            return false;
        }
        // SAFETY: as in `read`; disjoint-write discipline as in
        // `write_bits`.
        unsafe { *self.cells.add(idx) = bits };
        true
    }

    /// Whether every `int` index of `index`, as its `u32` bits, names a
    /// cell. One comparison for the row: a negative index is `≥ 2³¹` as a
    /// `u32`, beyond the limit even of a buffer longer than that.
    #[inline(always)]
    fn row_in_bounds(&self, index: &[u32]) -> bool {
        let top = index.iter().fold(0, |top, &i| top.max(i));
        (top as usize) < self.len.min(1 << 31)
    }

    /// `out[k] = cells[index[k]]` for every lane, or — when any index is out
    /// of bounds — nothing: `false`, and [`CellView::read`] lane by lane
    /// finds the failing one.
    #[inline(always)]
    pub(crate) fn read_row(&self, index: &[u32], out: &mut [u32]) -> bool {
        if !self.row_in_bounds(index) {
            return false;
        }
        for (o, &i) in out.iter_mut().zip(index) {
            // SAFETY: `i` is below `len` (`row_in_bounds`), so in bounds of
            // the block, which the borrowed handle keeps allocated;
            // disjoint-write discipline as in `read_bits`.
            *o = unsafe { *self.cells.add(i as usize) };
        }
        true
    }

    /// `cells[index[k]] = values[k]` for every lane in lane order (a later
    /// lane's write to the same cell wins), or nothing and `false` as in
    /// [`CellView::read_row`].
    #[inline(always)]
    pub(crate) fn write_row(&self, index: &[u32], values: &[u32]) -> bool {
        if !self.row_in_bounds(index) {
            return false;
        }
        for (&v, &i) in values.iter().zip(index) {
            // SAFETY: as in `read_row`; disjoint-write discipline as in
            // `write_bits`.
            unsafe { *self.cells.add(i as usize) = v };
        }
        true
    }
}

impl std::fmt::Debug for BufHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Buf({:?} {:?}, refs={}, freed={})",
            self.0.elem,
            self.0.dims,
            self.rc_count(),
            self.is_freed()
        )
    }
}

/// Interpreter values.
#[derive(Debug, Clone)]
pub enum Value {
    /// `int`.
    I(i32),
    /// `float`.
    F(f32),
    /// `bool`.
    B(bool),
    /// String (file names). `Arc<str>` so slot reads and literal
    /// evaluation in hot loops bump a refcount instead of allocating.
    S(Arc<str>),
    /// Matrix buffer handle.
    Buf(BufHandle),
    /// Tuple of values (multi-value returns). `Arc<[Value]>` for the same
    /// reason as `S`: cloning out of a slot is a refcount, not a deep copy.
    Tup(Arc<[Value]>),
    /// No value.
    Unit,
}

impl Value {
    pub(crate) fn as_i(&self) -> IResult<i32> {
        match self {
            Value::I(x) => Ok(*x),
            Value::B(b) => Ok(i32::from(*b)),
            other => Err(InterpError::new(format!("expected int, got {other:?}"))),
        }
    }

    pub(crate) fn as_f(&self) -> IResult<f32> {
        match self {
            Value::F(x) => Ok(*x),
            Value::I(x) => Ok(*x as f32),
            other => Err(InterpError::new(format!("expected float, got {other:?}"))),
        }
    }

    pub(crate) fn as_b(&self) -> IResult<bool> {
        match self {
            Value::B(x) => Ok(*x),
            Value::I(x) => Ok(int_to_bool(*x)),
            other => Err(InterpError::new(format!("expected bool, got {other:?}"))),
        }
    }

    pub(crate) fn as_buf(&self) -> IResult<&BufHandle> {
        match self {
            Value::Buf(b) => Ok(b),
            other => Err(InterpError::new(format!("expected matrix, got {other:?}"))),
        }
    }

    pub(crate) fn as_str(&self) -> IResult<&str> {
        match self {
            Value::S(s) => Ok(s),
            other => Err(InterpError::new(format!("expected string, got {other:?}"))),
        }
    }
}

/// A deferred Cilk-style spawn: arguments already evaluated.
#[derive(Clone)]
pub(crate) struct Pending {
    pub(crate) target: Option<RTarget>,
    pub(crate) target_is_buf: bool,
    pub(crate) callee: RCallee,
    pub(crate) args: Vec<Value>,
}

/// One call frame: a flat slot array (resolution assigned every variable
/// of the function an index below `nslots`; the VM tier extends it with
/// temporary registers) plus the frame's outstanding spawns (run at
/// `sync` or the function's implicit sync).
pub(crate) struct Frame {
    pub(crate) slots: Vec<Value>,
    pub(crate) pending: Vec<Pending>,
}

enum Flow {
    Normal,
    Return(Value),
}

/// Per-function execution cost, collected when profiling is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnProfile {
    /// Function name.
    pub name: String,
    /// Completed calls.
    pub calls: u64,
    /// Interpreter steps (fuel) attributed to the function, *inclusive*
    /// of callees — and, because steps are a process-wide counter, of any
    /// work other threads execute while the call is on foot. Exact
    /// exclusive attribution would need per-statement synchronization;
    /// inclusive deltas are O(1) per call and rank hot functions just as
    /// well.
    pub steps: u64,
}

/// A sequential innermost loop that runs as ordinary bytecode, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxedLoop {
    /// Function containing the loop.
    pub function: String,
    /// Source name of the loop index.
    pub var: String,
    /// What in the body has no unboxed form.
    pub reason: &'static str,
}

/// Execution profile of one interpreter run (see
/// [`Interp::with_profiling`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterpProfile {
    /// Per-function cost, sorted by descending step count.
    pub functions: Vec<FnProfile>,
    /// Parallel loops dispatched to the fork-join pool.
    pub par_loops: u64,
    /// Total iterations executed by those parallel loops.
    pub par_iters: u64,
    /// Kernel ops the VM tier ran as one native kernel call instead of
    /// interpreting their scalar nest (always 0 in the tree tier, which
    /// is that nest's reference evaluator). A parallel kernel op also
    /// counts in `par_loops`/`par_iters` as the nest's outer loop would.
    pub kernel_calls: u64,
    /// Innermost loops the VM tier ran unboxed ([`crate::scalar_loop`]):
    /// entries that ran at least one iteration (always 0 in the tree
    /// tier).
    pub unboxed_loops: u64,
    /// Iterations those entries completed.
    pub unboxed_iters: u64,
    /// Of those, the iterations that ran in strips — an operation at a time
    /// over up to 128 consecutive iterations. The rest ran one iteration at
    /// a time: entries of fewer than ten trips, entries whose body loads
    /// from the storage it stores to, and the loops of
    /// `per_iteration_loops`.
    pub unboxed_strip_iters: u64,
    /// Strips that ran all 128 lanes (`unboxed_strip_iters` ÷ 128 when
    /// every loop is long; 0 when no entry reaches 128 trips).
    pub unboxed_full_strips: u64,
    /// The compiled copy of the strip walk this host runs (the VM tier's
    /// strips; `baseline` or `avx2`).
    pub strip_isa: crate::StripIsa,
    /// Entries whose guard failed — a live-in slot not of its declared
    /// type, a freed or retyped buffer, a failing hoisted operation — and
    /// that the ordinary bytecode ran instead.
    pub unboxed_declines: u64,
    /// Entries that stopped at an iteration whose bounds or divisor check
    /// failed and handed that iteration back to the ordinary bytecode.
    pub unboxed_bails: u64,
    /// Sequential innermost loops the VM tier did not translate, with the
    /// reason (a compile-time fact: listed whether or not they ran).
    pub boxed_loops: Vec<BoxedLoop>,
    /// Translated loops whose body has no strip plan, with the reason:
    /// unboxed, but never in strips.
    pub per_iteration_loops: Vec<BoxedLoop>,
    /// High-water mark of live matrix bytes.
    pub peak_live_bytes: u64,
    /// Total interpreter steps (statements + loop iterations).
    pub total_steps: u64,
}

/// The interpreter: an [`IrProgram`] plus a fork-join pool and captured
/// output. Construction runs the slot-resolution pre-pass once; every
/// call, including re-runs, then executes the resolved form. The pool of
/// [`Interp::new`] is created at the program's first parallel region,
/// kernel call or concurrent spawn, and lives as long as the interpreter;
/// one given to [`Interp::with_pool`] is used from the start.
pub struct Interp<'p> {
    program: &'p IrProgram,
    pub(crate) resolved: RProgram,
    /// Bytecode form, compiled by [`Interp::with_tier`]`(Tier::Vm)`:
    /// `Some`, every function call runs on the VM; `None`, on the
    /// tree-walker; an error, the limit lowering hit, which every run
    /// then reports.
    vm: Result<Option<crate::vm::VmProgram>, InterpError>,
    /// The pool parallel loops, kernels and spawns run on: the one given
    /// to [`Interp::with_pool`], or one of `threads` threads created at the
    /// first of them, so a program that never forks spawns no thread.
    pool: OnceLock<Arc<ForkJoinPool>>,
    threads: usize,
    output: Mutex<String>,
    allocs: AtomicU32,
    frees: AtomicU32,
    limits: Limits,
    /// Absolute deadline, precomputed from `limits.deadline` when the
    /// limits are installed so the hot path compares `Instant`s only.
    deadline_at: Option<Instant>,
    pub(crate) steps: AtomicU64,
    live_bytes: AtomicU64,
    /// Profiling switch; all collection below is skipped when false so an
    /// unprofiled run pays only this bool check.
    pub(crate) profile: bool,
    /// (calls, inclusive steps) indexed by resolved function; Mutex is
    /// fine — touched once per function call, not per statement.
    pub(crate) fn_costs: Mutex<Vec<(u64, u64)>>,
    pub(crate) par_loops: AtomicU64,
    pub(crate) par_iters: AtomicU64,
    pub(crate) kernel_calls: AtomicU64,
    pub(crate) unboxed_loops: AtomicU64,
    pub(crate) unboxed_iters: AtomicU64,
    pub(crate) unboxed_strip_iters: AtomicU64,
    pub(crate) unboxed_full_strips: AtomicU64,
    pub(crate) unboxed_declines: AtomicU64,
    pub(crate) unboxed_bails: AtomicU64,
    peak_live_bytes: AtomicU64,
    /// Process-default scheduling policy for parallel loops that don't
    /// pin one with a `schedule(...)` directive (`cmmc run --schedule`).
    pub(crate) schedule: Schedule,
    /// Loop-cost probe switch ([`Interp::with_cost_probe`]): parallel
    /// loops execute sequentially and record per-iteration fuel.
    pub(crate) cost_probe: bool,
    /// Parallel-loop nesting depth during a probe run; only depth-0
    /// loops record (inner parallel loops fold into the outer
    /// iteration's cost, matching how the region dispatches).
    probe_depth: AtomicU64,
    /// Per-execution cost records collected by the probe.
    loop_costs: Mutex<Vec<LoopCost>>,
}

/// Per-iteration fuel profile of one execution of a parallel loop,
/// collected by [`Interp::with_cost_probe`]. A loop that executes
/// several times (e.g. inside a function called repeatedly) contributes
/// one record per execution; consumers aggregate by `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopCost {
    /// Source name of the loop index variable — the name `transform`
    /// directives address the loop by.
    pub name: String,
    /// Per-loop `schedule(...)` directive, if the program pinned one.
    pub schedule: Option<Schedule>,
    /// Interpreter fuel consumed by each iteration, in order (includes
    /// any nested parallel loops, which the probe runs sequentially).
    pub iters: Vec<u64>,
}

impl<'p> Interp<'p> {
    /// New interpreter running parallel loops on `threads` pool threads.
    /// The pool is created at the program's first parallel region, kernel
    /// call or concurrent spawn; a program with none runs without one.
    pub fn new(program: &'p IrProgram, threads: usize) -> Self {
        Interp::on(program, OnceLock::new(), threads)
    }

    /// New interpreter sharing an existing pool (its fault plan, if any,
    /// applies from the first allocation on).
    pub fn with_pool(program: &'p IrProgram, pool: Arc<ForkJoinPool>) -> Self {
        let threads = pool.threads();
        Interp::on(program, OnceLock::from(pool), threads)
    }

    fn on(program: &'p IrProgram, pool: OnceLock<Arc<ForkJoinPool>>, threads: usize) -> Self {
        let resolved = resolve_program(program);
        let nfns = resolved.functions.len();
        Interp {
            program,
            resolved,
            vm: Ok(None),
            pool,
            threads,
            output: Mutex::new(String::new()),
            allocs: AtomicU32::new(0),
            frees: AtomicU32::new(0),
            limits: Limits::default(),
            deadline_at: None,
            steps: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            profile: false,
            fn_costs: Mutex::new(vec![(0, 0); nfns]),
            par_loops: AtomicU64::new(0),
            par_iters: AtomicU64::new(0),
            kernel_calls: AtomicU64::new(0),
            unboxed_loops: AtomicU64::new(0),
            unboxed_iters: AtomicU64::new(0),
            unboxed_strip_iters: AtomicU64::new(0),
            unboxed_full_strips: AtomicU64::new(0),
            unboxed_declines: AtomicU64::new(0),
            unboxed_bails: AtomicU64::new(0),
            peak_live_bytes: AtomicU64::new(0),
            schedule: Schedule::Static,
            cost_probe: false,
            probe_depth: AtomicU64::new(0),
            loop_costs: Mutex::new(Vec::new()),
        }
    }

    /// Set the default self-scheduling policy for parallel loops (the
    /// `--schedule` process default). A per-loop `schedule(...)` directive
    /// overrides this.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Select the execution tier (the tree-walker until this is called).
    /// `Tier::Vm` lowers the resolved program to bytecode once
    /// (compile-once / execute-many: re-runs and every call share the
    /// compiled [`crate::vm::VmProgram`]). A function that overflows the
    /// bytecode's `u16` registers or tables makes every run fail with an
    /// [`InterpErrorKind::VmLimit`] error naming it.
    pub fn with_tier(mut self, tier: Tier) -> Self {
        self.vm = match tier {
            Tier::Vm => crate::vm::compile(&self.resolved).map(Some),
            Tier::Tree => Ok(None),
        };
        self
    }

    /// The pool, created now if this is the program's first parallel
    /// region, kernel call or concurrent spawn.
    pub(crate) fn pool(&self) -> &Arc<ForkJoinPool> {
        self.pool.get_or_init(|| Arc::new(ForkJoinPool::new(self.threads)))
    }

    /// The source program this interpreter was built from.
    pub fn program(&self) -> &'p IrProgram {
        self.program
    }

    /// Enable execution profiling: per-function fuel, parallel-loop
    /// dispatch counts, and the live-byte high-water mark, snapshotted
    /// with [`Interp::profile`] after the run.
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Enable the loop-cost probe (the `cmm-tune` measurement mode):
    /// every parallel loop executes *sequentially* on the calling
    /// thread, and each outermost parallel loop records the fuel
    /// consumed by each of its iterations, the spawns it syncs included,
    /// into [`Interp::loop_costs`]. Sequential execution plus exact fuel
    /// charges makes the recorded costs a pure function of the program —
    /// no pool, no clock — so a tuner can replay them through the
    /// virtual-time makespan model deterministically. Both tiers record
    /// the same costs; under the probe a matrix product runs its nest, so
    /// that the nest's parallel loop is recorded.
    pub fn with_cost_probe(mut self, enabled: bool) -> Self {
        self.cost_probe = enabled;
        self
    }

    /// Cost records collected by [`Interp::with_cost_probe`], in
    /// execution order (empty unless the probe was enabled).
    pub fn loop_costs(&self) -> Vec<LoopCost> {
        lock_ignore_poison(&self.loop_costs).clone()
    }

    /// Snapshot of the collected profile (empty unless
    /// [`Interp::with_profiling`] enabled collection).
    pub fn profile(&self) -> InterpProfile {
        let mut functions: Vec<FnProfile> = lock_ignore_poison(&self.fn_costs)
            .iter()
            .zip(&self.resolved.functions)
            .filter(|(&(calls, _), _)| calls > 0)
            .map(|(&(calls, steps), f)| FnProfile {
                name: f.name.to_string(),
                calls,
                steps,
            })
            .collect();
        functions.sort_by(|a, b| b.steps.cmp(&a.steps).then_with(|| a.name.cmp(&b.name)));
        let noted = |notes: fn(&crate::vm::VmFunction) -> &[crate::vm::LoopNote]| {
            let names = self.resolved.functions.iter().map(|f| &*f.name);
            match &self.vm {
                Ok(Some(vm)) => vm.noted_loops(names, notes),
                _ => Vec::new(),
            }
        };
        InterpProfile {
            functions,
            par_loops: self.par_loops.load(Ordering::Relaxed),
            par_iters: self.par_iters.load(Ordering::Relaxed),
            kernel_calls: self.kernel_calls.load(Ordering::Relaxed),
            unboxed_loops: self.unboxed_loops.load(Ordering::Relaxed),
            unboxed_iters: self.unboxed_iters.load(Ordering::Relaxed),
            unboxed_strip_iters: self.unboxed_strip_iters.load(Ordering::Relaxed),
            unboxed_full_strips: self.unboxed_full_strips.load(Ordering::Relaxed),
            strip_isa: crate::StripIsa::host(),
            unboxed_declines: self.unboxed_declines.load(Ordering::Relaxed),
            unboxed_bails: self.unboxed_bails.load(Ordering::Relaxed),
            boxed_loops: noted(|f| &f.boxed_loops),
            per_iteration_loops: noted(|f| &f.per_iteration_loops),
            peak_live_bytes: self.peak_live_bytes.load(Ordering::Relaxed),
            total_steps: self.steps_used(),
        }
    }

    /// Install resource budgets. The wall-clock deadline starts counting
    /// from this call, so configure limits immediately before running.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.deadline_at = limits.deadline.map(|d| Instant::now() + d);
        self.limits = limits;
        self
    }

    /// The configured resource budgets.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Run `main()` and return its value.
    pub fn run_main(&self) -> IResult<Value> {
        self.call("main", Vec::new())
    }

    /// Captured `print_*` output so far.
    pub fn output(&self) -> String {
        lock_ignore_poison(&self.output).clone()
    }

    /// Drain the captured output, leaving the buffer empty — the
    /// execute-many companion to [`Interp::run_main`]: re-running against
    /// the same compiled program starts from a clean capture.
    pub fn take_output(&self) -> String {
        std::mem::take(&mut *lock_ignore_poison(&self.output))
    }

    /// Buffers allocated so far.
    pub fn alloc_count(&self) -> u32 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Buffers whose reference count reached zero so far.
    pub fn free_count(&self) -> u32 {
        self.frees.load(Ordering::Relaxed)
    }

    /// Buffers currently alive (allocations minus frees) — the leak
    /// detector used by the reference-counting tests (§III-B).
    pub fn live_buffers(&self) -> u32 {
        self.alloc_count() - self.free_count()
    }

    /// Interpreter steps executed so far (statements + loop iterations).
    pub fn steps_used(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Bytes of matrix storage currently live.
    pub fn live_matrix_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Whether the VM dispatch loop may batch step charges in a local
    /// counter and flush them on frame exit. Sound only when nothing can
    /// observe an intermediate count: no fuel budget (every charge must
    /// check the running total), no deadline (checked at 1024-step
    /// boundaries of the shared counter), and no profiling (per-function
    /// attribution snapshots the counter around calls). Totals are
    /// unchanged either way — `steps_used()` reads the same number.
    pub(crate) fn fast_meter(&self) -> bool {
        self.limits.fuel.is_none() && self.deadline_at.is_none() && !self.profile && !self.cost_probe
    }

    /// Meter `n` interpreter steps against the fuel and deadline budgets.
    ///
    /// Called for every statement and every loop iteration (so even an
    /// empty `while (1) {}` body is metered). The wall clock is only read
    /// at 1024-step boundaries to keep the unlimited-fuel fast path cheap.
    /// The VM tier charges the same totals in per-block batches.
    pub(crate) fn charge(&self, n: u64) -> IResult<()> {
        let prev = self.steps.fetch_add(n, Ordering::Relaxed);
        let now = prev.saturating_add(n);
        if let Some(fuel) = self.limits.fuel {
            if now > fuel {
                return Err(InterpError::limit(
                    LimitKind::Fuel,
                    format!("fuel budget of {fuel} steps exhausted"),
                ));
            }
        }
        if let Some(deadline) = self.deadline_at {
            if prev >> 10 != now >> 10 && Instant::now() >= deadline {
                return Err(InterpError::limit(
                    LimitKind::Deadline,
                    format!(
                        "wall-clock budget of {:?} exhausted after {now} steps",
                        self.limits.deadline.unwrap_or_default()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Allocate a matrix buffer, enforcing the memory budgets *before*
    /// the allocation happens and consulting the pool's fault plan.
    fn alloc_buffer(&self, elem: Elem, dims: Vec<usize>) -> IResult<BufHandle> {
        let mut len: u64 = 1;
        for &d in &dims {
            len = len.checked_mul(d as u64).ok_or_else(|| {
                InterpError::new(format!("matrix dimensions {dims:?} overflow"))
            })?;
        }
        let bytes = len.checked_mul(4).ok_or_else(|| {
            InterpError::new(format!("matrix dimensions {dims:?} overflow"))
        })?;
        if self.pool.get().is_some_and(|pool| pool.should_fail_alloc()) {
            return Err(InterpError::new(format!(
                "injected allocation failure ({bytes} bytes requested)"
            )));
        }
        if let Some(max) = self.limits.max_matrix_bytes {
            let live = self.live_bytes.load(Ordering::Relaxed);
            if live.saturating_add(bytes) > max {
                return Err(InterpError::limit(
                    LimitKind::Memory,
                    format!(
                        "allocating {bytes} bytes (dims {dims:?}) with {live} bytes live \
                         would exceed the {max}-byte matrix budget"
                    ),
                ));
            }
        }
        if let Some(max) = self.limits.max_live_buffers {
            let live = self.live_buffers();
            if live >= max {
                return Err(InterpError::limit(
                    LimitKind::LiveBuffers,
                    format!("{live} matrix buffers already live, budget is {max}"),
                ));
            }
        }
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live_before = self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        if self.profile {
            self.peak_live_bytes
                .fetch_max(live_before.saturating_add(bytes), Ordering::Relaxed);
        }
        BufHandle::try_new(elem, dims).map_err(|e| {
            // Roll the accounting back: the buffer never existed.
            self.allocs.fetch_sub(1, Ordering::Relaxed);
            self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
            InterpError::new(e.to_string())
        })
    }

    /// Call a user function by name with argument values.
    pub fn call(&self, name: &str, args: Vec<Value>) -> IResult<Value> {
        if let Err(limit) = &self.vm {
            return Err(limit.clone());
        }
        match self.resolved.by_name.get(name) {
            Some(&idx) => self.call_function(idx, args),
            None => Err(undefined_function(name)),
        }
    }

    /// Dispatch a resolved callee ("undefined function" stays lazy: it is
    /// an error only when the call executes).
    fn call_resolved(&self, callee: &RCallee, args: Vec<Value>) -> IResult<Value> {
        match callee {
            RCallee::User(idx) => self.call_function(*idx, args),
            RCallee::Builtin(b) => self.builtin(*b, &args),
            RCallee::Undefined(name) => Err(undefined_function(name)),
        }
    }

    /// Call a resolved user function: the frame is one flat slot vector —
    /// parameters first, every other declaration Unit until its `Decl`
    /// executes. Both tiers share this entry point (and with it
    /// `run_main`, spawns, and recursive calls): the arity check, the
    /// implicit sync and the profile's attribution are written once here,
    /// and the tier decides only how the body executes.
    pub(crate) fn call_function(&self, idx: usize, args: Vec<Value>) -> IResult<Value> {
        let f = &self.resolved.functions[idx];
        if f.nparams != args.len() {
            return Err(InterpError::new(format!(
                "function '{}' takes {} arguments, got {}",
                f.name,
                f.nparams,
                args.len()
            )));
        }
        let mut frame = Frame {
            slots: args,
            pending: Vec::new(),
        };
        let steps_at_entry = self.profile.then(|| self.steps.load(Ordering::Relaxed));
        let returned = match &self.vm {
            Ok(Some(vm)) => crate::vm::run_function(self, vm, idx, &mut frame)?,
            _ => {
                frame.slots.resize(f.nslots, Value::Unit);
                match self.exec_block(&f.body, &mut frame)? {
                    Flow::Return(v) => Some(v),
                    Flow::Normal => None,
                }
            }
        };
        // Cilk semantics: a function implicitly syncs before returning.
        self.run_pending(&mut frame)?;
        if let Some(entry) = steps_at_entry {
            let spent = self.steps.load(Ordering::Relaxed).saturating_sub(entry);
            let mut costs = lock_ignore_poison(&self.fn_costs);
            costs[idx].0 += 1;
            costs[idx].1 += spent;
        }
        Ok(returned.unwrap_or(Value::Unit))
    }

    pub(crate) fn set_target(&self, frame: &mut Frame, target: &RTarget, v: Value) -> IResult<()> {
        match target {
            RTarget::Slot(s) => {
                frame.slots[*s as usize] = v;
                Ok(())
            }
            RTarget::Undefined(name) => Err(InterpError::new(format!(
                "assignment to undefined variable '{name}'"
            ))),
        }
    }

    /// Execute all outstanding spawns of the frame concurrently on the
    /// fork-join pool and bind their results (the `sync` runtime).
    pub(crate) fn run_pending(&self, frame: &mut Frame) -> IResult<()> {
        if frame.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut frame.pending);
        let results: Vec<IResult<Value>> = if pending.len() == 1 {
            let p = &pending[0];
            vec![self.call_resolved(&p.callee, p.args.clone())]
        } else {
            let slots: Vec<Mutex<Option<IResult<Value>>>> =
                (0..pending.len()).map(|_| Mutex::new(None)).collect();
            let pending_ref = &pending;
            let slots_ref = &slots;
            // A worker panic is a typed error for *this run*, not a
            // process-level unwind: long-running hosts (cmmc serve) must
            // outlive any one session's fault.
            //
            // One dynamic claim per spawned call: from the top level this
            // is an ordinary scheduled region; from inside a parallel
            // region (nested spawn/sync) the calls become stealable jobs
            // on the current participant's deque and execute in parallel
            // with the rest of the region instead of serializing.
            self.pool()
                .try_run_scheduled(
                    pending.len(),
                    Schedule::Dynamic { chunk: 1 },
                    |_tid, range| {
                        for k in range {
                            let p = &pending_ref[k];
                            let r = self.call_resolved(&p.callee, p.args.clone());
                            *lock_ignore_poison(&slots_ref[k]) = Some(r);
                        }
                    },
                )
                .map_err(|p| InterpError::worker_panic(&p))?;
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .unwrap_or_else(|| {
                            Err(InterpError::new("spawned task did not complete"))
                        })
                })
                .collect()
        };
        for (p, r) in pending.iter().zip(results) {
            let v = r?;
            if let Some(target) = &p.target {
                if p.target_is_buf {
                    if let RTarget::Slot(s) = target {
                        // Release the handle the variable held before.
                        let old = frame.slots[*s as usize].clone();
                        if matches!(old, Value::Buf(_)) {
                            self.builtin(Builtin::RcDecr, std::slice::from_ref(&old))?;
                        }
                    }
                }
                self.set_target(frame, target, v)?;
            }
        }
        Ok(())
    }

    fn exec_block(&self, stmts: &[RStmt], frame: &mut Frame) -> IResult<Flow> {
        for s in stmts {
            match self.exec(s, frame)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&self, stmt: &RStmt, frame: &mut Frame) -> IResult<Flow> {
        // A kernel op costs nothing beyond the nest it stands for.
        if !matches!(stmt, RStmt::Kernel { .. }) {
            self.charge(1)?;
        }
        match stmt {
            RStmt::Decl { slot, ty, init } => {
                let v = match init {
                    Some(e) => self.eval(e, frame)?,
                    None => default_value(*ty),
                };
                frame.slots[*slot as usize] = v;
                Ok(Flow::Normal)
            }
            RStmt::Assign { target, value } => {
                let v = self.eval(value, frame)?;
                self.set_target(frame, target, v)?;
                Ok(Flow::Normal)
            }
            RStmt::Store { buf, idx, value } => {
                let b = self.eval(buf, frame)?;
                let i = self.eval(idx, frame)?.as_i()?;
                let v = self.eval(value, frame)?;
                if i < 0 {
                    return Err(InterpError::new(format!("negative store index {i}")));
                }
                b.as_buf()?.write(i as usize, &v)?;
                Ok(Flow::Normal)
            }
            RStmt::For(f) => self.exec_for(f, frame),
            RStmt::While { cond, body } => {
                while self.eval(cond, frame)?.as_b()? {
                    // Per-iteration charge: an empty body must still burn
                    // fuel or `while (1) {}` would never hit the budget.
                    self.charge(1)?;
                    if let Flow::Return(v) = self.exec_block(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::If { cond, then_b, else_b } => {
                let branch = if self.eval(cond, frame)?.as_b()? {
                    then_b
                } else {
                    else_b
                };
                self.exec_block(branch, frame)
            }
            RStmt::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            RStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            RStmt::Spawn {
                target,
                target_is_buf,
                callee,
                args,
            } => {
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, frame))
                    .collect::<IResult<Vec<_>>>()?;
                frame.pending.push(Pending {
                    target: target.clone(),
                    target_is_buf: *target_is_buf,
                    callee: callee.clone(),
                    args: vals,
                });
                Ok(Flow::Normal)
            }
            RStmt::Sync => {
                self.run_pending(frame)?;
                Ok(Flow::Normal)
            }
            RStmt::UnpackCall { targets, call } => {
                let v = self.eval(call, frame)?;
                let Value::Tup(parts) = v else {
                    return Err(InterpError::new("UnpackCall on a non-tuple value"));
                };
                if parts.len() != targets.len() {
                    return Err(InterpError::new(format!(
                        "tuple arity mismatch: {} targets, {} values",
                        targets.len(),
                        parts.len()
                    )));
                }
                for (t, p) in targets.iter().zip(parts.iter()) {
                    self.set_target(frame, t, p.clone())?;
                }
                Ok(Flow::Normal)
            }
            // This tier is the reference: it runs the scalar nest.
            RStmt::Kernel { fallback, .. } => self.exec_block(fallback, frame),
        }
    }

    fn exec_for(&self, f: &RFor, frame: &mut Frame) -> IResult<Flow> {
        let lo = self.eval(&f.lo, frame)?.as_i()?;
        let hi = self.eval(&f.hi, frame)?.as_i()?;
        if f.parallel && hi > lo {
            let captured = f.captured.iter().map(|&s| s as usize);
            let (var, schedule) = (f.var as usize, f.schedule);
            self.run_parallel_loop(frame, captured, var, &f.name, schedule, lo..hi, |tf, _| {
                self.charge(1)?;
                Ok(matches!(self.exec_block(&f.body, tf)?, Flow::Return(_)))
            })?;
            Ok(Flow::Normal)
        } else {
            // Sequential (vector loops execute lanes in order — identical
            // semantics to the 4-lane SSE execution).
            let mut i = lo;
            while i < hi {
                self.charge(1)?;
                frame.slots[f.var as usize] = Value::I(i);
                match self.exec_block(&f.body, frame)? {
                    Flow::Normal => {}
                    ret => return Ok(ret),
                }
                i = i.wrapping_add(1);
            }
            Ok(Flow::Normal)
        }
    }

    /// Fork-join execution of one parallel loop over `range` (non-empty),
    /// shared by both tiers: `body` runs one iteration on a participant's
    /// private frame (index variable already stored in slot `var`) and
    /// returns whether it executed a `return`; its `&mut u64` is a step
    /// batch the body may add to instead of charging the shared counter,
    /// flushed here once per bite.
    ///
    /// Each participant's frame is seeded with only the `captured` slots —
    /// the values the body actually reads — instead of a clone of the
    /// whole environment; locals declared in the body stay thread-private,
    /// buffer writes go to shared storage at disjoint indices. Iterations
    /// are self-scheduled over the pool's work-stealing deques, so an
    /// imbalanced body rebalances through stealing instead of serializing
    /// behind the slowest participant. The per-loop `schedule` directive
    /// wins over the process default.
    ///
    /// Under the cost probe ([`Interp::with_cost_probe`]) the range runs
    /// sequentially on the calling thread instead, and an outermost loop
    /// records each iteration's fuel under its index variable's `name`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_parallel_loop<B>(
        &self,
        frame: &Frame,
        captured: impl Iterator<Item = usize>,
        var: usize,
        name: &str,
        schedule: Option<Schedule>,
        range: std::ops::Range<i32>,
        body: B,
    ) -> IResult<()>
    where
        B: Fn(&mut Frame, &mut u64) -> IResult<bool> + Sync,
    {
        let lo = range.start;
        // The range is non-empty, so the wrapped difference is the exact
        // count (an i32 range never exceeds 2^32 - 1 iterations);
        // `end - start` itself can overflow i32 for bounds straddling zero.
        let total = range.end.wrapping_sub(lo) as u32 as usize;
        if self.profile {
            self.par_loops.fetch_add(1, Ordering::Relaxed);
            self.par_iters.fetch_add(total as u64, Ordering::Relaxed);
        }
        // Exactly as long as the caller's frame: the VM's unchecked
        // register access relies on it.
        let mut template: Vec<Value> = vec![Value::Unit; frame.slots.len()];
        for s in captured {
            template[s] = frame.slots[s].clone();
        }
        if self.cost_probe {
            return self.probe_loop(template, var, name, schedule, range, body);
        }
        let error: Mutex<Option<InterpError>> = Mutex::new(None);
        let schedule = schedule.unwrap_or(self.schedule);
        // Per-participant frames, reused across the participant's bites.
        // Taken out of the slot (not held locked) during execution: a body
        // that spawns nested work can land this participant back inside
        // another bite of this same loop re-entrantly, which then just
        // builds a fresh frame.
        let frames: Vec<Mutex<Option<Frame>>> =
            (0..self.pool().threads()).map(|_| Mutex::new(None)).collect();
        let region = self.pool().try_run_scheduled(total, schedule, |tid, bite| {
            // A failure elsewhere makes further bites pointless; skip
            // them cheaply while the region drains.
            if lock_ignore_poison(&error).is_some() {
                return;
            }
            let mut tf = lock_ignore_poison(&frames[tid]).take().unwrap_or_else(|| Frame {
                slots: template.clone(),
                pending: Vec::new(),
            });
            // Per-bite charge batch: one shared-counter RMW per bite
            // instead of one per iteration (the counter is otherwise a
            // contended cache line across the region).
            let mut local = 0u64;
            for k in bite {
                // Wrapping, like scalar binops: bounds near i32::MAX must
                // not panic in debug builds.
                tf.slots[var] = Value::I(lo.wrapping_add(k as i32));
                let r = body(&mut tf, &mut local)
                    .and_then(|returned| self.run_pending(&mut tf).map(|()| returned));
                match r {
                    Ok(false) => {}
                    Ok(true) => {
                        *lock_ignore_poison(&error) = Some(InterpError::new(
                            "return inside a parallel loop is not supported",
                        ));
                        break;
                    }
                    Err(e) => {
                        lock_ignore_poison(&error).get_or_insert(e);
                        break;
                    }
                }
            }
            if local > 0 {
                self.steps.fetch_add(local, Ordering::Relaxed);
            }
            *lock_ignore_poison(&frames[tid]) = Some(tf);
        });
        // A user-level error beats the region-panic report: the panic
        // may be a secondary casualty of the same fault, and the
        // user-level message names the actual program misbehavior.
        if let Some(e) = error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        region.map_err(|p| InterpError::worker_panic(&p))
    }

    /// [`Interp::run_parallel_loop`] under the cost probe: the iterations
    /// run in order on one private frame, each syncing its spawns as a
    /// region participant does. Only a loop at parallel depth 0 records:
    /// an inner loop's cost is part of its outer iteration, as it is in
    /// the region.
    fn probe_loop<B>(
        &self,
        template: Vec<Value>,
        var: usize,
        name: &str,
        schedule: Option<Schedule>,
        range: std::ops::Range<i32>,
        body: B,
    ) -> IResult<()>
    where
        B: Fn(&mut Frame, &mut u64) -> IResult<bool>,
    {
        let record = self.probe_depth.fetch_add(1, Ordering::Relaxed) == 0;
        let mut tf = Frame {
            slots: template,
            pending: Vec::new(),
        };
        let total = range.end.wrapping_sub(range.start) as u32;
        let mut iters = Vec::with_capacity(if record { total as usize } else { 0 });
        let ran = (0..total).try_for_each(|k| {
            let before = self.steps_used();
            tf.slots[var] = Value::I(range.start.wrapping_add(k as i32));
            // No batch to flush: the probe turns batching off (`fast_meter`).
            let returned = body(&mut tf, &mut 0);
            if returned.and_then(|r| self.run_pending(&mut tf).map(|()| r))? {
                return Err(InterpError::new("return inside a parallel loop is not supported"));
            }
            if record {
                iters.push(self.steps_used() - before);
            }
            Ok(())
        });
        self.probe_depth.fetch_sub(1, Ordering::Relaxed);
        ran?;
        if record {
            lock_ignore_poison(&self.loop_costs).push(LoopCost {
                name: name.to_string(),
                schedule,
                iters,
            });
        }
        Ok(())
    }

    fn eval(&self, expr: &RExpr, frame: &mut Frame) -> IResult<Value> {
        match expr {
            RExpr::Int(v) => Ok(Value::I(*v)),
            RExpr::Float(v) => Ok(Value::F(*v)),
            RExpr::Bool(v) => Ok(Value::B(*v)),
            RExpr::Str(s) => Ok(Value::S(s.clone())),
            RExpr::Slot(s) => Ok(frame.slots[*s as usize].clone()),
            RExpr::Undefined(n) => {
                Err(InterpError::new(format!("undefined variable '{n}'")))
            }
            RExpr::Neg(e) => negate(&self.eval(e, frame)?),
            RExpr::Not(e) => Ok(Value::B(!self.eval(e, frame)?.as_b()?)),
            RExpr::Bin(op, a, b) => {
                let va = self.eval(a, frame)?;
                // Short-circuit logicals.
                if *op == IrBinOp::And && !va.as_b()? {
                    return Ok(Value::B(false));
                }
                if *op == IrBinOp::Or && va.as_b()? {
                    return Ok(Value::B(true));
                }
                let vb = self.eval(b, frame)?;
                eval_bin(*op, &va, &vb)
            }
            RExpr::Load { buf, idx } => {
                let b = self.eval(buf, frame)?;
                let i = self.eval(idx, frame)?.as_i()?;
                if i < 0 {
                    return Err(InterpError::new(format!("negative load index {i}")));
                }
                b.as_buf()?.read(i as usize)
            }
            RExpr::Call(callee, args) => {
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, frame))
                    .collect::<IResult<Vec<_>>>()?;
                self.call_resolved(callee, vals)
            }
            RExpr::CastInt(e) => cast_int(&self.eval(e, frame)?),
            RExpr::CastFloat(e) => Ok(Value::F(self.eval(e, frame)?.as_f()?)),
            RExpr::Tuple(es) => {
                let vals = es
                    .iter()
                    .map(|e| self.eval(e, frame))
                    .collect::<IResult<Vec<_>>>()?;
                Ok(Value::Tup(vals.into()))
            }
        }
    }

    /// Runtime builtins (the functions the emitted C runtime also
    /// provides), shared verbatim by both execution tiers. The slice
    /// patterns bind each builtin's arguments; any other argument count
    /// falls to the one arity error at the end.
    pub(crate) fn builtin(&self, b: Builtin, args: &[Value]) -> IResult<Value> {
        match (b, args) {
            (Builtin::AllocMat(elem), dims) => {
                let dims = dims
                    .iter()
                    .map(|a| {
                        let d = a.as_i()?;
                        if d < 0 {
                            Err(InterpError::new(format!("negative dimension {d}")))
                        } else {
                            Ok(d as usize)
                        }
                    })
                    .collect::<IResult<Vec<_>>>()?;
                Ok(Value::Buf(self.alloc_buffer(elem, dims)?))
            }
            (Builtin::ReadMat(elem), [path]) => {
                Ok(Value::Buf(self.read_cmmx(path.as_str()?, elem)?))
            }
            (Builtin::WriteMat(_), [path, buf]) => {
                write_cmmx(path.as_str()?, buf.as_buf()?)?;
                Ok(Value::Unit)
            }
            (Builtin::Cow(_), [buf]) => {
                let buf = buf.as_buf()?;
                buf.check_live()?;
                if buf.rc_count() == 1 {
                    return Ok(Value::Buf(buf.clone()));
                }
                // Shared: copy the data, release one reference to the original.
                let fresh = self.alloc_buffer(buf.elem(), buf.dims().to_vec())?;
                for i in 0..buf.len() {
                    fresh.write_bits(i, buf.read_bits(i)?)?;
                }
                buf.decr()?;
                Ok(Value::Buf(fresh))
            }
            (Builtin::Dim, [buf, d]) => Ok(Value::I(dim_of(buf, d)?)),
            (Builtin::Len, [buf]) => {
                let buf = buf.as_buf()?;
                buf.check_live()?;
                Ok(Value::I(buf.len() as i32))
            }
            (Builtin::Rank, [buf]) => {
                let buf = buf.as_buf()?;
                buf.check_live()?;
                Ok(Value::I(buf.dims().len() as i32))
            }
            (Builtin::RcIncr, [buf]) => {
                buf.as_buf()?.incr();
                Ok(Value::Unit)
            }
            (Builtin::RcDecr, [buf]) => {
                let b = buf.as_buf()?;
                b.decr()?;
                if b.is_freed() {
                    self.frees.fetch_add(1, Ordering::Relaxed);
                    // Return the storage to the live-byte budget.
                    self.live_bytes
                        .fetch_sub(4 * b.len() as u64, Ordering::Relaxed);
                }
                Ok(Value::Unit)
            }
            (Builtin::RcCount, [buf]) => Ok(Value::I(buf.as_buf()?.rc_count() as i32)),
            (Builtin::PrintI32, [x]) => {
                self.print(&format!("{}\n", x.as_i()?));
                Ok(Value::Unit)
            }
            (Builtin::PrintF32, [x]) => {
                self.print(&format!("{:.6}\n", x.as_f()?));
                Ok(Value::Unit)
            }
            (Builtin::PrintB, [x]) => {
                self.print(&format!("{}\n", i32::from(x.as_b()?)));
                Ok(Value::Unit)
            }
            (Builtin::PrintStr, [s]) => {
                self.print(&format!("{}\n", s.as_str()?));
                Ok(Value::Unit)
            }
            (Builtin::Panic, [msg]) => {
                let msg = msg.as_str().unwrap_or("runtime check failed");
                Err(InterpError::new(format!("program panic: {msg}")))
            }
            // Not an allocator (those take any count and matched above),
            // so the arity is known.
            (b, args) => Err(InterpError::new(format!(
                "builtin '{}' takes {} arguments, got {}",
                b.c_name(),
                b.arity().unwrap_or_default(),
                args.len()
            ))),
        }
    }

    fn print(&self, s: &str) {
        lock_ignore_poison(&self.output).push_str(s);
    }

    /// Read a CMMX container, allocating through the metered path so
    /// file-backed matrices count against the memory budgets too.
    ///
    /// Validation is the shared exact-length [`crate::cmmx`] parser —
    /// the one implementation both execution tiers dispatch to (through
    /// [`Builtin::ReadMat`]) — so trailing garbage, zero-rank
    /// headers, and truncated dimension tables are typed errors, not
    /// silently accepted input.
    fn read_cmmx(&self, path: &str, elem: Elem) -> IResult<BufHandle> {
        let bytes = std::fs::read(path)
            .map_err(|e| InterpError::new(format!("readMatrix(\"{path}\"): {e}")))?;
        let header = cmmx::parse(&bytes, elem)
            .map_err(|e| InterpError::new(format!("readMatrix(\"{path}\"): {e}")))?;
        let buf = self.alloc_buffer(elem, header.dims.clone())?;
        for (i, bits) in cmmx::cell_bits(&bytes, &header, elem).enumerate() {
            buf.write_bits(i, bits)?;
        }
        Ok(buf)
    }
}

fn undefined_function(name: &str) -> InterpError {
    InterpError::new(format!("undefined function '{name}'"))
}

/// [`Builtin::Dim`]: size of dimension `d` of `buf` (a negative `d` wraps
/// to out-of-range). The VM's dedicated `Dim` instruction calls this too.
#[inline]
pub(crate) fn dim_of(buf: &Value, d: &Value) -> IResult<i32> {
    let buf = buf.as_buf()?;
    buf.check_live()?;
    let d = d.as_i()?;
    match buf.dims().get(d as usize) {
        Some(&dim) => Ok(dim as i32),
        None => Err(InterpError::new(format!("dim {d} out of range"))),
    }
}

pub(crate) fn default_value(ty: CType) -> Value {
    match ty {
        CType::Int => Value::I(0),
        CType::Float => Value::F(0.0),
        CType::Bool => Value::B(false),
        CType::Buf(_) | CType::Void => Value::Unit,
    }
}

// Scalar rules that are more than one machine operation, each written
// once: the tree tier, the VM's generic instructions and the typed ops of
// the unboxed loops ([`crate::scalar_loop`]) all call these.

/// Int `/`. A zero divisor and `INT_MIN / -1` (whose quotient is not an
/// `int`) are runtime errors.
#[inline]
pub(crate) fn int_div(x: i32, y: i32) -> IResult<i32> {
    x.checked_div(y).ok_or_else(|| division_error(y))
}

/// Int `%`: fails exactly when [`int_div`] does.
#[inline]
pub(crate) fn int_rem(x: i32, y: i32) -> IResult<i32> {
    x.checked_rem(y).ok_or_else(|| division_error(y))
}

#[cold]
fn division_error(divisor: i32) -> InterpError {
    InterpError::new(if divisor == 0 {
        "integer division by zero"
    } else {
        "integer division overflow"
    })
}

/// Float `+ - * / %`. A NaN result is recomputed by the one compiled copy
/// of [`float_arith_nan`]: which NaN an operation on two NaNs yields
/// depends on the order the compiler hands the operands to the machine
/// instruction (it may commute `+` and `*`), and inlined copies of this
/// function need not agree on it. Every other result is the same whatever
/// the order.
#[inline]
pub(crate) fn float_arith(op: IrBinOp, x: f32, y: f32) -> f32 {
    let r = float_arith_raw(op, x, y);
    if r.is_nan() {
        float_arith_nan(op, x, y)
    } else {
        r
    }
}

/// The bare machine operation of [`float_arith`]. A NaN it yields is not
/// the one the language defines: the strip walk of [`crate::scalar_loop`],
/// the one caller outside this file, sends any strip that produced a NaN
/// through [`float_arith`] again.
#[inline(always)]
pub(crate) fn float_arith_raw(op: IrBinOp, x: f32, y: f32) -> f32 {
    match op {
        IrBinOp::Add => x + y,
        IrBinOp::Sub => x - y,
        IrBinOp::Mul => x * y,
        IrBinOp::Div => x / y,
        IrBinOp::Rem => x % y,
        _ => unreachable!("{op:?} is not float arithmetic"),
    }
}

#[cold]
#[inline(never)]
fn float_arith_nan(op: IrBinOp, x: f32, y: f32) -> f32 {
    float_arith_raw(op, x, y)
}

/// `float` to `int`: truncation toward zero, saturating at the ends of
/// the `int` range, NaN to 0.
#[inline]
pub(crate) fn float_to_int(x: f32) -> i32 {
    x as i32
}

/// `int` where a `bool` is expected: nonzero is true.
#[inline]
pub(crate) fn int_to_bool(x: i32) -> bool {
    x != 0
}

/// Unary `-`; wraps on `INT_MIN` like the binary int operators.
#[inline]
pub(crate) fn negate(v: &Value) -> IResult<Value> {
    match v {
        Value::I(x) => Ok(Value::I(x.wrapping_neg())),
        Value::F(x) => Ok(Value::F(-x)),
        other => Err(InterpError::new(format!("cannot negate {other:?}"))),
    }
}

/// `(int) v`.
#[inline]
pub(crate) fn cast_int(v: &Value) -> IResult<Value> {
    match v {
        Value::I(x) => Ok(Value::I(*x)),
        Value::F(x) => Ok(Value::I(float_to_int(*x))),
        Value::B(x) => Ok(Value::I(i32::from(*x))),
        other => Err(InterpError::new(format!("cannot cast {other:?} to int"))),
    }
}

pub(crate) fn eval_bin(op: IrBinOp, a: &Value, b: &Value) -> IResult<Value> {
    use IrBinOp::*;
    // Numeric promotion: float if either side is float.
    let float = matches!(a, Value::F(_)) || matches!(b, Value::F(_));
    match op {
        Add | Sub | Mul | Div | Rem => {
            if float {
                Ok(Value::F(float_arith(op, a.as_f()?, b.as_f()?)))
            } else {
                let (x, y) = (a.as_i()?, b.as_i()?);
                let r = match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => int_div(x, y)?,
                    Rem => int_rem(x, y)?,
                    _ => unreachable!(),
                };
                Ok(Value::I(r))
            }
        }
        Lt | Le | Gt | Ge | Eq | Ne => {
            let r = if float {
                let (x, y) = (a.as_f()?, b.as_f()?);
                match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    Eq => x == y,
                    Ne => x != y,
                    _ => unreachable!(),
                }
            } else if let (Value::B(x), Value::B(y)) = (a, b) {
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    _ => {
                        return Err(InterpError::new("ordering comparison on booleans"));
                    }
                }
            } else {
                let (x, y) = (a.as_i()?, b.as_i()?);
                match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    Eq => x == y,
                    Ne => x != y,
                    _ => unreachable!(),
                }
            };
            Ok(Value::B(r))
        }
        And => Ok(Value::B(a.as_b()? && b.as_b()?)),
        Or => Ok(Value::B(a.as_b()? || b.as_b()?)),
    }
}

fn write_cmmx(path: &str, buf: &BufHandle) -> IResult<()> {
    buf.check_live()?;
    let cells = (0..buf.len()).map(|i| buf.read_bits(i)).collect::<IResult<Vec<_>>>()?;
    std::fs::write(path, cmmx::encode(buf.elem(), buf.dims(), &cells))
        .map_err(|e| InterpError::new(format!("writeMatrix(\"{path}\"): {e}")))
}
