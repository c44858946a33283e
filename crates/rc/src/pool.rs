//! Size-class recycling allocator.
//!
//! Raw blocks are grouped into power-of-two size classes. Freed blocks go to
//! a small thread-local cache first (no synchronization); overflow and
//! refills hit a shared per-class free list guarded by a mutex, which mimics
//! the "arena" structure modern allocators adopt once heap contention is
//! detected (paper §III-C). The pool is global because `RcBuf` values cross
//! threads freely, exactly like the C pointers in the generated code.

use std::alloc::{alloc, dealloc, Layout};
use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two size classes (class `c` holds blocks of
/// `1 << c` bytes). 2^31 = 2 GiB is far above any matrix this library
/// allocates in one block.
const NUM_CLASSES: usize = 32;

/// Largest block the pool will hand out (the top size class). Requests
/// above this are rejected with [`AllocError::Oversize`] instead of
/// overflowing the size-class computation.
pub const MAX_BLOCK_BYTES: usize = 1 << (NUM_CLASSES - 1);

/// Typed allocation failure, replacing the panics the pool used to raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The request exceeds [`MAX_BLOCK_BYTES`] (or overflows the
    /// size-class computation entirely).
    Oversize {
        /// Bytes requested.
        bytes: usize,
    },
    /// The system allocator returned null.
    OutOfMemory {
        /// Bytes requested.
        bytes: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Oversize { bytes } => write!(
                f,
                "allocation of {bytes} bytes exceeds the {MAX_BLOCK_BYTES}-byte pool block limit"
            ),
            AllocError::OutOfMemory { bytes } => {
                write!(f, "system allocator failed for {bytes} bytes")
            }
        }
    }
}

impl std::error::Error for AllocError {}
/// Per-thread cache depth per class. Small, so memory held by idle threads
/// stays bounded.
const THREAD_CACHE: usize = 8;
/// Upper bound on blocks retained per class in the global free list.
const GLOBAL_CACHE: usize = 256;

static POOL_ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);

static GLOBAL_FREE: [Mutex<Vec<usize>>; NUM_CLASSES] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    [EMPTY; NUM_CLASSES]
};

thread_local! {
    static LOCAL_FREE: RefCell<[Vec<usize>; NUM_CLASSES]> =
        RefCell::new(std::array::from_fn(|_| Vec::new()));
}

/// Counters describing pool behaviour since the last [`reset_pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Allocations served from a cache (thread-local or global).
    pub hits: u64,
    /// Allocations that had to fall through to the system allocator.
    pub misses: u64,
    /// Frees captured by a cache instead of returned to the system.
    pub recycled: u64,
}

/// Enable or disable recycling. When disabled the pool degrades to plain
/// `alloc`/`dealloc`, which is the "off the shelf malloc" baseline of
/// experiment E10.
pub fn set_pool_enabled(enabled: bool) {
    POOL_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Snapshot of the global pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
    }
}

/// Drop every cached block (global list only; thread-local caches drain when
/// their threads exit or on their next overflow) and zero the counters.
pub fn reset_pool() {
    for (class, m) in GLOBAL_FREE.iter().enumerate() {
        let mut list = m.lock().unwrap_or_else(|e| e.into_inner());
        for p in list.drain(..) {
            // Safety: every pointer in the list was allocated by
            // `alloc_block` with the layout of its class.
            unsafe { dealloc(p as *mut u8, class_layout(class)) };
        }
    }
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RECYCLED.store(0, Ordering::Relaxed);
}

/// Size class for a byte size: index of the next power of two. `None`
/// when the request is larger than the top class (absurd requests used to
/// overflow `next_power_of_two` and index past the class table).
#[inline]
pub(crate) fn size_class(bytes: usize) -> Option<usize> {
    if bytes > MAX_BLOCK_BYTES {
        return None;
    }
    Some(bytes.next_power_of_two().trailing_zeros() as usize)
}

#[inline]
fn class_layout(class: usize) -> Layout {
    // All pool blocks are maximally aligned for the element types the
    // runtime uses (up to 16 for the 4-lane vector unit emulation).
    Layout::from_size_align(1 << class, 16).expect("valid class layout")
}

/// Allocate a block of at least `bytes` bytes, 16-byte aligned. Returns
/// the pointer and the size class it belongs to, or a typed [`AllocError`]
/// when the request is oversize or the system allocator fails. All
/// allocation goes through here; infallible public APIs panic at their
/// own level with the typed error's message.
pub(crate) fn try_alloc_block(bytes: usize) -> Result<(*mut u8, usize), AllocError> {
    let class = size_class(bytes.max(1)).ok_or(AllocError::Oversize { bytes })?;
    if POOL_ENABLED.load(Ordering::Relaxed) {
        let cached = LOCAL_FREE
            .try_with(|local| local.borrow_mut()[class].pop())
            .ok()
            .flatten()
            .or_else(|| {
                GLOBAL_FREE[class]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop()
            });
        if let Some(p) = cached {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Ok((p as *mut u8, class));
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
    }
    // Safety: layout has nonzero size (class of bytes.max(1)).
    let p = unsafe { alloc(class_layout(class)) };
    if p.is_null() {
        return Err(AllocError::OutOfMemory { bytes });
    }
    Ok((p, class))
}

/// Return a block obtained from [`try_alloc_block`] with the recorded
/// class.
///
/// # Safety
/// `ptr` must come from `try_alloc_block` with the same `class` and must
/// not be used afterwards.
pub(crate) unsafe fn free_block(ptr: *mut u8, class: usize) {
    if POOL_ENABLED.load(Ordering::Relaxed) {
        let kept = LOCAL_FREE
            .try_with(|local| {
                let mut local = local.borrow_mut();
                if local[class].len() < THREAD_CACHE {
                    local[class].push(ptr as usize);
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false);
        if kept {
            RECYCLED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut global = GLOBAL_FREE[class].lock().unwrap_or_else(|e| e.into_inner());
        if global.len() < GLOBAL_CACHE {
            global.push(ptr as usize);
            RECYCLED.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    dealloc(ptr, class_layout(class));
}

/// An owned, zero-initialized raw block from the recycling pool: the
/// untyped storage behind the loop-IR interpreter's matrix buffers, so
/// interpreter runs exercise (and are measured against) the same
/// size-class pool as the native runtime.
///
/// The block is 16-byte aligned and at least `bytes` long. Access is raw
/// by design — the interpreter performs disjoint concurrent element writes
/// from parallel loops, the same discipline the generated C uses.
pub struct PoolBlock {
    ptr: NonNull<u8>,
    class: usize,
    bytes: usize,
}

// Safety: the block is uniquely owned; concurrent access discipline is the
// caller's (documented) responsibility, as with any raw allocation.
unsafe impl Send for PoolBlock {}
unsafe impl Sync for PoolBlock {}

impl PoolBlock {
    /// Acquire a zeroed block of at least `bytes` bytes.
    pub fn try_zeroed(bytes: usize) -> Result<PoolBlock, AllocError> {
        let (raw, class) = try_alloc_block(bytes)?;
        // Safety: the block is at least `bytes` long and freshly owned.
        // Recycled blocks contain stale data, so zero explicitly.
        unsafe { std::ptr::write_bytes(raw, 0, bytes) };
        Ok(PoolBlock {
            ptr: NonNull::new(raw).expect("try_alloc_block returned non-null"),
            class,
            bytes,
        })
    }

    /// Base pointer of the block.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Usable length in bytes (the requested size, not the class size).
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// Whether the block has zero usable bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

impl Drop for PoolBlock {
    fn drop(&mut self) {
        // Safety: ptr/class came from try_alloc_block and the block is
        // uniquely owned.
        unsafe { free_block(self.ptr.as_ptr(), self.class) };
    }
}
