//! The canary: a fixed integer-hash + multiply-add kernel over a
//! 512 KiB array, run on `T` threads at once. It calls no repository
//! code, so its speed depends on the host alone, and every timing sample
//! is divided by the canary readings beside it (`stats::adjust_time`).
//!
//! `T` threads, not one: on a small virtual machine the processors are
//! often two hardware threads of one core, and a thread runs a quarter
//! faster while its sibling idles. The harness therefore keeps all `T`
//! processors busy whenever it measures — the canary on `T` threads, a
//! single-thread operation beside `T - 1` ballast threads — so that a
//! sample and the canary it is divided by see the same machine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The canary time every sample is restated to: its typical time on the
/// 2-vCPU host the bounds were calibrated on.
pub const CANARY_NOMINAL_MS: f64 = 50.0;

const WORDS: usize = 128 * 1024; // 512 KiB of u32
const SEGMENTS: usize = 20;
const PASSES_PER_SEGMENT: u32 = 22;

/// The kernel, timed segment by segment (≈2.5 ms each).
fn kernel() -> Vec<f64> {
    let mut buf = vec![1u32; WORDS];
    let mut acc = 0u32;
    let mut segments = Vec::with_capacity(SEGMENTS);
    for segment in 0..SEGMENTS as u32 {
        let t0 = Instant::now();
        for pass in segment * PASSES_PER_SEGMENT..(segment + 1) * PASSES_PER_SEGMENT {
            for i in 0..WORDS {
                let h = (i as u32 ^ pass).wrapping_mul(0x9E37_79B1);
                let j = (h >> 15) as usize & (WORDS - 1);
                let v = buf[j].wrapping_mul(31).wrapping_add(h);
                buf[i] = v;
                acc ^= v;
            }
        }
        segments.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box(acc);
    segments
}

/// Run the kernel on `threads` threads at once. The reading is the
/// median segment time over all threads, scaled to the whole kernel:
/// how fast the host runs code, not whether it stalled a thread for a
/// few milliseconds meanwhile. Stalls land in the samples themselves,
/// where the median over samples deals with them; dividing by a canary
/// that happened to be stalled would add noise instead of removing it.
pub fn read(threads: usize) -> f64 {
    let segments: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(kernel)).collect();
        let mut all = kernel();
        for t in others {
            all.extend(t.join().expect("canary thread"));
        }
        all
    });
    crate::stats::median(&segments) * SEGMENTS as f64
}

/// Keeps the processors a single-thread operation leaves idle busy with
/// register-only arithmetic while `active` is set. Run it on `T - 1`
/// threads; they park while `active` is clear.
pub fn ballast(active: &AtomicBool, stop: &AtomicBool) {
    let mut x = 1u64;
    while !stop.load(Ordering::Acquire) {
        if active.load(Ordering::Acquire) {
            for _ in 0..4096 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            std::hint::black_box(x);
        } else {
            std::thread::park();
        }
    }
}
