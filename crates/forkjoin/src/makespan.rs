//! Deterministic virtual-time makespan model of the pool's work-stealing
//! claim protocol.
//!
//! Wall time on a starved or oversubscribed host lies, so schedules are
//! ranked by a greedy virtual-time model: the participant with the lowest
//! accumulated cost acts next, which is exactly how greedy self-scheduling
//! behaves when every participant owns a core. The `cmm-tune` autotuner
//! scores candidate `schedule` directives with it host-independently: it
//! probes per-iteration interpreter fuel for each parallel loop and feeds
//! the cost vector through the same bite rule the pool really runs.
//!
//! [`deque_makespan`] seeds participants with their [`chunk_range`]
//! partition; each takes schedule-sized LIFO bites off its own deque
//! (pushing the stealable tail back first), and when dry steals the oldest
//! chunk from the richest victim. It is a pure function of
//! `(costs, schedule, threads, static_grain)` — no clocks, no randomness —
//! so reports built on it are byte-reproducible.

use std::collections::VecDeque;

use crate::chunk_range;
use crate::schedule::{bite_size, Schedule};

/// Outcome of one modeled region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Makespan {
    /// Virtual finish time of the slowest participant — the modeled
    /// region wall time on dedicated cores.
    pub makespan: u64,
    /// Perfect-balance lower bound: `ceil(total_cost / threads)`.
    pub ideal: u64,
    /// Accumulated virtual time per participant.
    pub per_participant: Vec<u64>,
}

impl Makespan {
    /// `max / mean` of the per-participant virtual times — the modeled
    /// analogue of `PoolMetrics::imbalance_ratio`.
    pub fn imbalance_ratio(&self) -> f64 {
        let max = self.per_participant.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.per_participant.iter().sum::<u64>() as f64
            / self.per_participant.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

fn ideal(costs: &[u64], threads: usize) -> u64 {
    costs.iter().sum::<u64>().div_ceil(threads.max(1) as u64)
}

/// Greedy virtual-time makespan of one scheduled region: each
/// participant is seeded with its [`chunk_range`] partition, executes
/// its own deque LIFO in schedule-sized bites (the tail is pushed back
/// before the bite runs, so it stays stealable), and when empty steals
/// the oldest chunk from the richest victim. `static_grain` caps the
/// bite of a `static` claim (see [`TilePolicy::static_grain`]).
///
/// [`TilePolicy::static_grain`]: crate::TilePolicy
pub fn deque_makespan(
    costs: &[u64],
    schedule: Schedule,
    threads: usize,
    static_grain: usize,
) -> Makespan {
    let threads = threads.max(1);
    let total = costs.len();
    let cost_of = |s: usize, e: usize| costs[s..e].iter().sum::<u64>();
    let weight = |d: &VecDeque<(usize, usize)>| {
        d.iter().map(|&(s, e)| cost_of(s, e)).sum::<u64>()
    };
    let mut deques: Vec<VecDeque<(usize, usize)>> = (0..threads)
        .map(|t| {
            let r = chunk_range(total, threads, t);
            let mut d = VecDeque::new();
            if !r.is_empty() {
                d.push_back((r.start, r.end));
            }
            d
        })
        .collect();
    let mut vt = vec![0u64; threads];
    loop {
        // Every unclaimed iteration lives in some deque (tails are pushed
        // back eagerly), so all-empty means the region is drained.
        let who = (0..threads).min_by_key(|&t| vt[t]).expect("participants");
        let chunk = deques[who].pop_back().or_else(|| {
            (0..threads)
                .filter(|&v| !deques[v].is_empty())
                .max_by_key(|&v| weight(&deques[v]))
                .and_then(|v| deques[v].pop_front())
        });
        let Some((start, end)) = chunk else { break };
        let bite = bite_size(schedule, end - start, threads, static_grain);
        if start + bite < end {
            deques[who].push_back((start + bite, end));
        }
        vt[who] += cost_of(start, start + bite);
    }
    Makespan {
        makespan: vt.iter().copied().max().unwrap_or(0),
        ideal: ideal(costs, threads),
        per_participant: vt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangular cost vector (row i costs i + 1) — the imbalanced.xc
    /// shape that motivated self-scheduling.
    fn triangular(n: usize) -> Vec<u64> {
        (0..n).map(|i| (i + 1) as u64).collect()
    }

    #[test]
    fn deque_conserves_work() {
        let costs = triangular(48);
        let total: u64 = costs.iter().sum();
        for sched in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 4 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let m = deque_makespan(&costs, sched, 4, 2048);
            assert_eq!(m.per_participant.iter().sum::<u64>(), total);
            assert!(m.makespan >= m.ideal);
        }
    }

    #[test]
    fn dynamic_beats_static_on_triangular_load() {
        let costs = triangular(48);
        let st = deque_makespan(&costs, Schedule::Static, 4, 2048);
        let dy = deque_makespan(&costs, Schedule::Dynamic { chunk: 1 }, 4, 2048);
        assert!(dy.makespan < st.makespan, "dynamic {} < static {}", dy.makespan, st.makespan);
        assert!(dy.imbalance_ratio() <= st.imbalance_ratio());
    }

    #[test]
    fn uniform_load_is_balanced_under_static() {
        let costs = vec![3u64; 64];
        let m = deque_makespan(&costs, Schedule::Static, 4, 2048);
        assert_eq!(m.makespan, m.ideal);
        assert!((m.imbalance_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let m = deque_makespan(&[], Schedule::Static, 4, 2048);
        assert_eq!(m.makespan, 0);
        assert_eq!(m.ideal, 0);
        let m = deque_makespan(&[], Schedule::Dynamic { chunk: 2 }, 4, 2048);
        assert_eq!(m.makespan, 0);
        // threads = 0 is clamped to 1 rather than panicking.
        let m = deque_makespan(&[1, 2, 3], Schedule::Static, 0, 16);
        assert_eq!(m.makespan, 6);
    }

    #[test]
    fn static_grain_splits_large_static_claims() {
        // 100 iterations, grain 10: each static seed (25 iters) is bitten
        // into grain-sized pieces whose tails stay stealable.
        let costs = vec![1u64; 100];
        let m = deque_makespan(&costs, Schedule::Static, 4, 10);
        assert_eq!(m.per_participant.iter().sum::<u64>(), 100);
        assert_eq!(m.makespan, m.ideal);
    }
}
