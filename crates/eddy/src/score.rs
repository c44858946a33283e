//! Temporal eddy scoring — the native rendering of Fig 8.
//!
//! `scoreTS` walks a single point's SSH time series: it trims the initial
//! climb to the first local maximum, then repeatedly extracts a *trough*
//! (walk down to a local minimum, then up to the next local maximum,
//! `getTrough`) and assigns every point of the trough the "area" between
//! the trough and the imaginary line joining its two flanking maxima
//! (`computeArea`, the dotted line of Fig 7). Large areas mark segments
//! that "underwent substantial drops and rises"; shallow ones are noise.

use cmm_forkjoin::ForkJoinPool;

use crate::slices::map_slices;

/// `getTrough(ts, i)` (Fig 8 lines 1–13): starting at local maximum `i`,
/// walk downwards then upwards; returns the trough slice plus its first
/// and last index (inclusive).
pub fn get_trough(ts: &[f32], mut i: usize) -> (Vec<f32>, usize, usize) {
    let beginning = i;
    let n = ts.len();
    // Walk downwards.
    while i + 1 < n && ts[i] >= ts[i + 1] {
        i += 1;
    }
    // Walk upwards.
    while i + 1 < n && ts[i] < ts[i + 1] {
        i += 1;
    }
    (ts[beginning..=i].to_vec(), beginning, i)
}

/// `computeArea(areaOfInterest)` (Fig 8 lines 15–32): the area between
/// the trough and the peak-to-peak line, assigned to every point of the
/// trough.
pub fn compute_area(area_of_interest: &[f32]) -> Vec<f32> {
    let n = area_of_interest.len();
    if n < 2 {
        return vec![0.0; n];
    }
    let y1 = area_of_interest[0];
    let y2 = area_of_interest[n - 1];
    let x2 = (n - 1) as f32;
    let slope = (y1 - y2) / (0.0 - x2);
    let intercept = y1;
    // Line = (x1::x2) * m + b  (Fig 8 line 27).
    // area = Σ (Line[q] - aoi[q])  (lines 28-32).
    let area: f32 = (0..n)
        .map(|q| (slope * q as f32 + intercept) - area_of_interest[q])
        .sum();
    vec![area; n]
}

/// `scoreTS(ts)` (Fig 8 lines 34–51): score every point of one time
/// series.
pub fn score_ts(ts: &[f32]) -> Vec<f32> {
    let n = ts.len();
    let mut scores = vec![0.0f32; n];
    if n < 3 {
        return scores;
    }
    // Trim the initial climb to the first local maximum.
    let mut i = 0usize;
    while i + 1 < n && ts[i] < ts[i + 1] {
        i += 1;
    }
    while i < n - 1 {
        let (trough, beginning, end) = get_trough(ts, i);
        let areas = compute_area(&trough);
        scores[beginning..=end].copy_from_slice(&areas);
        if end == i {
            // No progress (flat tail): stop.
            break;
        }
        i = end;
    }
    scores
}

/// Fig 8 line 58: `scores = matrixMap(scoreTS, data, [2])` — map the
/// scoring function over the time dimension of a `lat × lon × time` SSH
/// cube, in parallel over the pool. Time is the last, contiguous axis, so
/// each point's series is one slice and the scores concatenate in place.
pub fn score_all(pool: &ForkJoinPool, ssh: &[f32], [lat, lon, time]: [usize; 3]) -> Vec<f32> {
    assert_eq!(ssh.len(), lat * lon * time);
    map_slices(pool, lat * lon, |point| {
        score_ts(&ssh[point * time..(point + 1) * time])
    })
}
