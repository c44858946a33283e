//! Reference-counted buffers and the size-class block pool.
//!
//! The paper (§III-B) manages matrix memory with *reference counting
//! pointers*: every allocation carries an extra 4-byte header holding the
//! number of live references; assignment increments it, scope exit
//! decrements it, and the block is freed when the count reaches zero.
//! §III-C further observes that "off the shelf" memory allocators do not
//! scale under the allocation pattern of the generated parallel code and
//! discusses arena-based allocators.
//!
//! This crate reproduces both pieces:
//!
//! * The size-class pool — a recycling allocator (thread-local caches
//!   over a shared global free list), standing in for the arena
//!   allocators of the paper's discussion. Every matrix buffer of the
//!   loop-IR interpreter is a [`PoolBlock`] from it, and its counters
//!   ([`pool_stats`]) are the `rc` rows of `cmmc run --profile`. The bench
//!   `alloc` (experiment E10) compares it against the system allocator.
//! * [`RcBuf<T>`] — an immutable, atomically reference-counted,
//!   fixed-length buffer of `Copy` elements over that pool, with exactly
//!   one 4-byte reference-count word in its header (plus the
//!   length/size-class bookkeeping a real allocation needs). No compiled
//!   program uses it: it stays for the benchmark's `rc.alloc_ns` probe.

mod pool;
mod rcbuf;

pub use pool::{
    pool_stats, reset_pool, set_pool_enabled, AllocError, PoolBlock, PoolStats, MAX_BLOCK_BYTES,
};
pub use rcbuf::RcBuf;

#[cfg(test)]
mod tests;
