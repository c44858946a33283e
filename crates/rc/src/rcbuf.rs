//! Atomically reference-counted element buffers.

use std::fmt;
use std::marker::PhantomData;
use std::mem::{align_of, size_of};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, Ordering};

use crate::pool::{free_block, try_alloc_block, AllocError};

/// Header placed in front of the element data, mirroring the paper's
/// "extra 4 bytes attached to every piece of memory" (§III-B): `refs` is the
/// 4-byte live-reference counter. `len` and `class` are the bookkeeping any
/// allocator keeps alongside the block.
#[repr(C)]
struct Header {
    refs: AtomicU32,
    class: u32,
    len: usize,
}

/// Byte offset of the element data inside a block holding `T`s: the header,
/// rounded up to `T`'s alignment (and at least 16 so 4-lane float vectors
/// stay aligned, matching the SSE discussion in §V).
fn data_offset<T>() -> usize {
    let align = align_of::<T>().max(align_of::<Header>());
    size_of::<Header>().div_ceil(align) * align
}

/// A fixed-length, atomically reference-counted buffer of `Copy` elements.
///
/// `clone` bumps the 4-byte reference count; `drop` decrements it and
/// recycles the block through the size-class pool when it reaches zero.
/// The contents are fixed at construction, except through a
/// [`SharedWriter`] on a unique buffer: explicitly unsafe disjoint
/// parallel writes, which is how `matrixMap` fills its result.
pub struct RcBuf<T: Copy> {
    ptr: NonNull<u8>,
    _marker: PhantomData<T>,
}

// Safety: RcBuf hands out only shared `&[T]`; writes go through a
// `SharedWriter`, whose `unsafe fn write` makes disjointness the caller's
// contract. The reference count is atomic. Same argument as Arc<[T]>.
unsafe impl<T: Copy + Send + Sync> Send for RcBuf<T> {}
unsafe impl<T: Copy + Send + Sync> Sync for RcBuf<T> {}

impl<T: Copy> RcBuf<T> {
    /// A block for `len` elements with its header written. Panics with
    /// the typed [`AllocError`] message when the request is oversize,
    /// overflows the size computation, or the system allocator fails.
    fn alloc(len: usize) -> NonNull<u8> {
        let (raw, class) = len
            .checked_mul(size_of::<T>())
            .and_then(|b| b.checked_add(data_offset::<T>()))
            .ok_or(AllocError::Oversize { bytes: usize::MAX })
            .and_then(try_alloc_block)
            .unwrap_or_else(|e| panic!("cmm-rc: buffer of {len} elements: {e}"));
        // Safety: raw holds the header and `len` elements and is suitably
        // aligned.
        unsafe {
            (raw as *mut Header).write(Header {
                refs: AtomicU32::new(1),
                class: class as u32,
                len,
            });
        }
        NonNull::new(raw).expect("try_alloc_block returned non-null")
    }

    fn header(&self) -> &Header {
        // Safety: ptr points at an initialized Header for as long as any
        // reference (including ours) is live.
        unsafe { &*(self.ptr.as_ptr() as *const Header) }
    }

    #[inline]
    fn data_ptr(&self) -> *mut T {
        // Safety: data_offset keeps us inside the allocation.
        unsafe { self.ptr.as_ptr().add(data_offset::<T>()) as *mut T }
    }

    /// Buffer of `len` copies of `fill`.
    pub fn new(len: usize, fill: T) -> Self {
        let buf = Self {
            ptr: Self::alloc(len),
            _marker: PhantomData,
        };
        // Safety: freshly allocated, unique, len elements of capacity.
        unsafe {
            let p = buf.data_ptr();
            for i in 0..len {
                p.add(i).write(fill);
            }
        }
        buf
    }

    /// Buffer initialized from `f(i)` for each index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let buf = Self {
            ptr: Self::alloc(len),
            _marker: PhantomData,
        };
        unsafe {
            let p = buf.data_ptr();
            for i in 0..len {
                p.add(i).write(f(i));
            }
        }
        buf
    }

    /// Buffer holding a copy of `src`.
    pub fn from_slice(src: &[T]) -> Self {
        Self::from_fn(src.len(), |i| src[i])
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.header().len
    }

    /// Whether the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current value of the 4-byte reference counter.
    pub fn ref_count(&self) -> u32 {
        self.header().refs.load(Ordering::Acquire)
    }

    /// Shared view of the elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // Safety: len elements were initialized at construction and the
        // buffer is immutable while shared references exist.
        unsafe { std::slice::from_raw_parts(self.data_ptr(), self.len()) }
    }

    /// Raw writer for disjoint parallel initialization.
    ///
    /// A parallel construct that visits each index exactly once (each
    /// `matrixMap` slice owns its own offsets) may let worker threads
    /// write disjoint indices concurrently. `SharedWriter` encodes that
    /// contract.
    ///
    /// # Panics
    /// Panics if the buffer is shared: parallel initialization is only
    /// for freshly allocated results.
    pub fn shared_writer(&mut self) -> SharedWriter<'_, T> {
        assert_eq!(
            self.ref_count(),
            1,
            "SharedWriter requires a unique buffer"
        );
        SharedWriter {
            ptr: self.data_ptr(),
            len: self.len(),
            _marker: PhantomData,
        }
    }
}

impl<T: Copy> Clone for RcBuf<T> {
    fn clone(&self) -> Self {
        // Ordering audit (pinned — do not weaken/strengthen without
        // revisiting the drop path below as a pair):
        //
        // `Relaxed` is sufficient here because a clone can only be
        // executed by a thread that already owns a live reference, and
        // whatever handed that reference across threads (channel, mutex,
        // the fork-join region barrier) already ordered the buffer's
        // contents before this increment. The increment itself carries no
        // data; it only needs atomicity. (Rust Atomics and Locks, ch. 6;
        // same scheme as `std::sync::Arc`.)
        let old = self.header().refs.fetch_add(1, Ordering::Relaxed);
        assert!(old < u32::MAX, "reference count overflow");
        Self {
            ptr: self.ptr,
            _marker: PhantomData,
        }
    }
}

impl<T: Copy> Drop for RcBuf<T> {
    fn drop(&mut self) {
        // Ordering audit (pinned, pairs with the Relaxed clone above):
        //
        // The decrement must be `Release` so every preceding use of the
        // buffer by *this* thread is ordered before the count reaches
        // zero, and the deallocating thread must perform an `Acquire`
        // fence after observing zero so all those Released uses
        // happen-before `free_block`. Weakening either side lets a
        // non-final drop's earlier reads/writes race with the free;
        // `fetch_sub(AcqRel)` would also be correct but pays the acquire
        // on every non-final drop instead of only the last one.
        if self.header().refs.fetch_sub(1, Ordering::Release) == 1 {
            fence(Ordering::Acquire);
            let class = self.header().class as usize;
            // Safety: we hold the last reference; the block came from
            // alloc_block with this class. Elements are Copy (no drop).
            unsafe { free_block(self.ptr.as_ptr(), class) };
        }
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for RcBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RcBuf")
            .field("len", &self.len())
            .field("refs", &self.ref_count())
            .field("data", &self.as_slice())
            .finish()
    }
}

impl<T: Copy + PartialEq> PartialEq for RcBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy> std::ops::Index<usize> for RcBuf<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }
}

/// Write handle allowing concurrent stores to *disjoint* indices of a unique
/// [`RcBuf`], the access pattern of a parallel `matrixMap`.
pub struct SharedWriter<'a, T: Copy> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut T>,
}

// Safety: writes go through `write`, whose contract requires disjoint
// indices across threads; reads are not offered.
unsafe impl<T: Copy + Send> Send for SharedWriter<'_, T> {}
unsafe impl<T: Copy + Send> Sync for SharedWriter<'_, T> {}

impl<T: Copy> SharedWriter<'_, T> {
    /// Number of writable elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store `val` at `idx`.
    ///
    /// # Safety
    /// No other thread may read or write `idx` for the lifetime of the
    /// writer. Bounds are checked.
    #[inline]
    pub unsafe fn write(&self, idx: usize, val: T) {
        assert!(idx < self.len, "SharedWriter index {idx} out of bounds");
        self.ptr.add(idx).write(val);
    }
}
