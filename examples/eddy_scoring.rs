//! The §IV ocean-eddy application end to end: generate synthetic SSH,
//! run the Fig 8 scoring program through the composed translator, compare
//! against the native implementation, and report the strongest detected
//! eddy signatures.
//!
//! ```sh
//! cargo run --release --example eddy_scoring
//! ```

use cmm::eddy::programs::{eddy_scoring_program, full_compiler};
use cmm::eddy::{score_all, synthetic_ssh, SshParams};
use cmm::forkjoin::ForkJoinPool;
use cmm::runtime::{read_matrix, write_matrix, Matrix};

fn main() {
    let params = SshParams {
        lat: 20,
        lon: 40,
        time: 96,
        eddies: 6,
        ..Default::default()
    };
    let cube = synthetic_ssh(&params);
    println!(
        "synthetic SSH: {} x {} x {} ({} eddies seeded)",
        params.lat, params.lon, params.time, params.eddies
    );

    // Native scoring via the runtime's parallel matrixMap.
    let pool = ForkJoinPool::new(2);
    let native = score_all(&pool, &cube).expect("native scoring");

    // The Fig 8 program through the full pipeline.
    let dir = std::env::temp_dir();
    let input = dir.join("cmm_eddy_in.cmmx").display().to_string();
    let output = dir.join("cmm_eddy_out.cmmx").display().to_string();
    write_matrix(&input, &cube).expect("write input");
    let compiler = full_compiler();
    let run = compiler
        .run(&eddy_scoring_program(&input, &output), 2)
        .expect("compiled scoring");
    let compiled: Matrix<f32> = read_matrix(&output).expect("read scores");

    let max_diff = native
        .as_slice()
        .iter()
        .zip(compiled.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("compiled Fig 8 vs native: max |Δscore| = {max_diff:e}");
    println!(
        "compiled run: {} buffers allocated, {} leaked",
        run.allocations, run.leaked
    );
    assert_eq!(run.leaked, 0, "the compiled run must free every buffer");
    assert_eq!(max_diff, 0.0, "compiled and native scores must agree exactly");

    // Rank locations by their strongest trough score (the paper's "way of
    // ranking locations on the map by how likely it is that what is being
    // detected is actually an eddy").
    // Time is the last, contiguous axis: point (i, j) owns one chunk.
    let mut best: Vec<(f32, usize, usize)> = native
        .as_slice()
        .chunks(params.time)
        .enumerate()
        .map(|(point, ts)| {
            let peak = ts.iter().cloned().fold(f32::MIN, f32::max);
            (peak, point / params.lon, point % params.lon)
        })
        .collect();
    best.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("\ntop eddy-signature locations (score, lat, lon):");
    for (s, i, j) in best.iter().take(5) {
        println!("  {s:8.3}  ({i:3}, {j:3})");
    }
    let median = best[best.len() / 2].0;
    println!("median location score: {median:.3} (signal/noise separation)");

    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}
