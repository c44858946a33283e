//! The measurement protocol shared by every workload: operations shorter
//! than `MIN_SAMPLE_MS` are repeated to fill a sample, a workload's
//! metrics are sampled round-robin so each spans the whole run window,
//! and a canary reading sits between every two samples.

use std::collections::BTreeMap;
use std::time::Instant;

use std::sync::atomic::{AtomicBool, Ordering};

use crate::canary::{self, CANARY_NOMINAL_MS};
use crate::stats;

/// No timing sample may be shorter than this.
pub const MIN_SAMPLE_MS: f64 = 400.0;
/// Rounds per run: at least `MIN_ROUNDS`, then as many as fit in
/// `--seconds`; exactly `QUICK_ROUNDS` in `--quick` mode.
pub const MIN_ROUNDS: usize = 11;
pub const QUICK_ROUNDS: usize = 3;

/// Operations attempted and failed, and the largest resident set of any
/// timed `cmmc` process.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_kb: i64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one execution of a slot's operation measured. A failed
/// operation yields no values: it contributes no latency sample.
pub type Values = Vec<(&'static str, f64)>;

/// One thing a workload times. `run` performs the operation once and
/// names the metric values it measured, in milliseconds.
pub struct Slot<'a> {
    /// What the operation is, for the printed report.
    pub what: String,
    /// Whether the operation itself occupies all `T` processors; if not,
    /// ballast threads occupy the rest while it is sampled.
    pub parallel: bool,
    /// Whether one execution is already a full sample (a latency slice),
    /// never to be repeated.
    pub whole: bool,
    pub run: Box<dyn FnMut(&mut Tally) -> Values + 'a>,
}

/// The samples of one metric: host-adjusted and as measured.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub adjusted: Vec<f64>,
    pub raw: Vec<f64>,
    /// The canary readings before and after each sample.
    pub canaries: Vec<(f64, f64)>,
}

impl Series {
    /// Add a time measured between two canary readings.
    pub fn push(&mut self, raw: f64, canary_before: f64, canary_after: f64) {
        self.raw.push(raw);
        self.adjusted.push(stats::adjust_time(
            raw,
            (canary_before + canary_after) / 2.0,
            CANARY_NOMINAL_MS,
        ));
        self.canaries.push((canary_before, canary_after));
    }
}

pub struct Measured {
    pub series: BTreeMap<&'static str, Series>,
    pub canaries: Vec<f64>,
    pub rounds: usize,
}

/// One sample: the operation `reps` times, each metric averaged per
/// operation over the executions that succeeded.
fn sample(slot: &mut Slot, reps: usize, tally: &mut Tally) -> Values {
    let mut sums: Vec<(&'static str, f64, usize)> = Vec::new();
    for _ in 0..reps {
        for (name, v) in (slot.run)(tally) {
            match sums.iter_mut().find(|(n, _, _)| *n == name) {
                Some(s) => {
                    s.1 += v;
                    s.2 += 1;
                }
                None => sums.push((name, v, 1)),
            }
        }
    }
    sums.into_iter()
        .map(|(n, sum, k)| (n, sum / k as f64))
        .collect()
}

pub fn measure(
    slots: &mut [Slot],
    seconds: f64,
    threads: usize,
    quick: bool,
    tally: &mut Tally,
) -> Measured {
    let (active, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let ballast: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| canary::ballast(&active, &stop)))
            .collect();
        let mut occupy = |on: bool| {
            active.store(on, Ordering::Release);
            ballast.iter().for_each(|b| b.thread().unpark());
        };
        let measured = measure_occupied(slots, seconds, threads, quick, tally, &mut occupy);
        stop.store(true, Ordering::Release);
        occupy(false);
        measured
    })
}

fn measure_occupied(
    slots: &mut [Slot],
    seconds: f64,
    threads: usize,
    quick: bool,
    tally: &mut Tally,
    occupy: &mut dyn FnMut(bool),
) -> Measured {
    // Warm-up, discarded: one execution of each operation, which also
    // fixes how many executions fill a sample.
    let mut reps = Vec::new();
    let mut round_ms = 0.0;
    for slot in slots.iter_mut() {
        occupy(!slot.parallel);
        let t0 = Instant::now();
        (slot.run)(tally);
        let once = t0.elapsed().as_secs_f64() * 1e3;
        occupy(false);
        let n = if slot.whole {
            1
        } else {
            (MIN_SAMPLE_MS / once).ceil().max(1.0) as usize
        };
        reps.push(n);
        round_ms += once * n as f64;
    }
    let mut before = canary::read(threads);
    round_ms += slots.len() as f64 * before;

    let mut m = Measured {
        series: BTreeMap::new(),
        canaries: vec![before],
        rounds: 0,
    };
    let start = Instant::now();
    let fits = |rounds: usize| {
        if quick {
            rounds < QUICK_ROUNDS
        } else {
            rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() * 1e3 + round_ms <= seconds * 1e3
        }
    };
    while fits(m.rounds) {
        for (slot, &n) in slots.iter_mut().zip(&reps) {
            occupy(!slot.parallel);
            let values = sample(slot, n, tally);
            occupy(false);
            let after = canary::read(threads);
            for (name, raw) in values {
                m.series.entry(name).or_default().push(raw, before, after);
            }
            m.canaries.push(after);
            before = after;
        }
        m.rounds += 1;
    }
    m
}
