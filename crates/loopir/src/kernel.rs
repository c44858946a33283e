//! Kernel ops: how the VM tier executes an [`crate::IrStmt::Kernel`].
//!
//! Lowering wraps the scalar loop nest of a whole-matrix operator in a
//! kernel statement that also names the operation. The nest stays the one
//! place the operator's meaning is written: the tree tier, the
//! transformations and the cost probe see only the nest (the emitted C
//! calls a kernel of its own, under the same contract on bits). The VM
//! is the tier users run, so it alone takes the shortcut — one native
//! call into [`crate::kernels`] on the operands' own storage — and
//! the tree tier stays the reference the fuzzer's `vm` oracle compares it
//! against. For that comparison to stay exact the shortcut must be
//! unobservable except in time:
//!
//! * **Bits.** The kernel accumulates each output element over ascending
//!   `k` from zero with a separate multiply and add (`Numeric::mul_acc`:
//!   no fused multiply-add for `float`, wrapping for `int`) — the
//!   sequence of roundings `acc = acc + a[i,k] * b[k,j]` performs in the
//!   interpreter.
//! * **Fuel.** An `m×k · k×n` nest costs `1 + m·(2 + n·(4 + 2k))` steps
//!   (see [`steps_per_row`]); the kernel charges the same total, a row
//!   tile at a time, through `Interp::charge`, so `steps_used()` agrees,
//!   and a fuel or deadline budget still stops a product part-way with
//!   the usual typed error. The per-tile charge is the only budget check
//!   inside a product.
//! * **Errors.** The kernel runs only when the operands are live rank-2
//!   buffers of the stated element type and conforming shapes, with a
//!   result buffer distinct from both. Anything else falls through to the
//!   nest's bytecode, which fails (or works) the way it always has.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Mutex;


use crate::interp::{lock_ignore_poison, BufHandle, Frame, IResult, Interp, InterpError, Value};
use crate::ir::Elem;
use crate::kernels::{matmul_rows, try_matmul_tiles, Numeric};
use crate::resolve::RMatMul;

/// Steps the scalar nest spends on one row of an `m×k · k×n` product: the
/// `i` iteration and the `j` loop statement, then per column the `j`
/// iteration, the accumulator declaration, the `k` loop statement and the
/// store, plus an iteration and an assignment per `k`. The whole nest
/// costs one more step, for the `i` loop statement itself.
fn steps_per_row(k: usize, n: usize) -> u64 {
    let per_col = 4 + 2 * k as u64;
    (n as u64).saturating_mul(per_col).saturating_add(2)
}

/// Run the product natively if the operands are what `site` describes.
/// `Ok(false)` means nothing was done or charged and the caller must run
/// the fallback nest, which it always does under the cost probe: the probe
/// records the nest's parallel loop, row by row. Steps go to `batch` when
/// the VM is batching charges (see `vm::exec`); otherwise they are charged
/// against the budgets as tiles start.
pub(crate) fn run_matmul(
    interp: &Interp,
    site: &RMatMul,
    frame: &Frame,
    batch: Option<&mut u64>,
) -> IResult<bool> {
    if interp.cost_probe {
        return Ok(false);
    }
    // Frame slots keep their resolved indices in the VM's register file.
    let slot = |r: u32| match &frame.slots[r as usize] {
        Value::Buf(b) => Some(b),
        _ => None,
    };
    let (Some(dst), Some(a), Some(b)) = (slot(site.dst), slot(site.a), slot(site.b)) else {
        return Ok(false);
    };
    let (&[m, k], &[k2, n]) = (a.dims(), b.dims()) else {
        return Ok(false);
    };
    let described = [dst, a, b]
        .iter()
        .all(|x| !x.is_freed() && x.elem() == site.elem)
        && k == k2
        && dst.dims() == [m, n]
        && !dst.same_buffer(a)
        && !dst.same_buffer(b);
    if !described {
        return Ok(false);
    }
    match site.elem {
        Elem::F32 => product::<f32>(interp, site.parallel, dst, a, b, (m, k, n), batch)?,
        Elem::I32 => product::<i32>(interp, site.parallel, dst, a, b, (m, k, n), batch)?,
        // A bool product is a store-type error in the nest; let it say so.
        Elem::Bool => return Ok(false),
    }
    Ok(true)
}

fn product<T: Numeric>(
    interp: &Interp,
    parallel: bool,
    dst: &BufHandle,
    a: &BufHandle,
    b: &BufHandle,
    (m, k, n): (usize, usize, usize),
    batch: Option<&mut u64>,
) -> IResult<()> {
    assert!(std::mem::size_of::<T>() == 4 && std::mem::align_of::<T>() == 4);
    // SAFETY: `cells()` addresses `len()` initialised 4-byte cells that
    // stay allocated while the handles (borrowed from the frame) exist,
    // and `T` is `f32` or `i32` (checked above: 4 bytes, and every bit
    // pattern is a value of either). `run_matmul` checked that `dst` is a
    // different buffer from `a` and `b`, so the one mutable slice overlaps
    // neither shared one (`a` and `b` may be the same buffer; both are
    // only read). No other thread touches these cells meanwhile: lowered
    // code only writes a buffer from the region that owns the written
    // cells (the disjoint-write discipline `BufHandle` already relies
    // on), and `dst` is a temporary allocated by the statement before
    // this one and not yet stored anywhere else.
    let (a_cells, b_cells, c_cells) = unsafe {
        (
            std::slice::from_raw_parts(a.cells() as *const T, a.len()),
            std::slice::from_raw_parts(b.cells() as *const T, b.len()),
            std::slice::from_raw_parts_mut(dst.cells() as *mut T, dst.len()),
        )
    };
    if interp.profile {
        interp.kernel_calls.fetch_add(1, Ordering::Relaxed);
        if parallel && m > 0 {
            interp.par_loops.fetch_add(1, Ordering::Relaxed);
            interp.par_iters.fetch_add(m as u64, Ordering::Relaxed);
        }
    }
    let per_row = steps_per_row(k, n);
    let metered = batch.is_none();
    if metered {
        interp.charge(1)?;
    }
    // First budget error; once set, the remaining tiles are refused.
    let error: Mutex<Option<InterpError>> = Mutex::new(None);
    let admit = |rows: Range<usize>| {
        if !metered {
            return true;
        }
        let mut error = lock_ignore_poison(&error);
        if error.is_some() {
            return false;
        }
        match interp.charge(per_row.saturating_mul(rows.len() as u64)) {
            Ok(()) => true,
            Err(e) => {
                *error = Some(e);
                false
            }
        }
    };
    let t = interp
        .pool()
        .tile_policy()
        .matmul_tile(std::mem::size_of::<T>());
    let region = if parallel {
        try_matmul_tiles(
            interp.pool(),
            interp.schedule,
            a_cells,
            b_cells,
            c_cells,
            (m, k, n),
            t,
            admit,
        )
    } else {
        for i0 in (0..m).step_by(t) {
            let rows = i0..(i0 + t).min(m);
            if !admit(rows.clone()) {
                break;
            }
            let c_rows = &mut c_cells[rows.start * n..rows.end * n];
            matmul_rows(a_cells, b_cells, c_rows, rows, k, n);
        }
        Ok(())
    };
    // A budget error beats the region-panic report, as in parallel loops.
    if let Some(e) = error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    region.map_err(|p| InterpError::worker_panic(&p))?;
    if let Some(local) = batch {
        *local += per_row.saturating_mul(m as u64).saturating_add(1);
    }
    Ok(())
}
