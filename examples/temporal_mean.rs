//! The paper's running example: Fig 1's temporal mean of sea-surface
//! heights, automatically parallelized (§III-C) and then explicitly
//! transformed with the Fig 9 recipe (split + vectorize + parallelize,
//! §V). Shows that both produce identical results and prints the Fig 10 /
//! Fig 11 artifacts from the generated C.
//!
//! ```sh
//! cargo run --release --example temporal_mean
//! ```

use cmm::eddy::programs::{full_compiler, temporal_mean_program};
use cmm::eddy::{synthetic_ssh, SshParams};
use cmm::runtime::{read_matrix, write_matrix, Matrix};

fn main() {
    // Synthetic SSH cube standing in for the satellite data (see
    // DESIGN.md). The paper's full dataset is 721 x 1440 x 954.
    let params = SshParams {
        lat: 24,
        lon: 48,
        time: 64,
        ..Default::default()
    };
    let cube = synthetic_ssh(&params);
    let dir = std::env::temp_dir();
    let input = dir.join("cmm_example_ssh.cmmx").display().to_string();
    let out_auto = dir.join("cmm_example_means_auto.cmmx").display().to_string();
    let out_fig9 = dir.join("cmm_example_means_fig9.cmmx").display().to_string();
    write_matrix(&input, &cube).expect("write input");

    let compiler = full_compiler();

    // Fig 1 with the automatic parallelization of §III-C.
    let auto = temporal_mean_program(&input, &out_auto, "");
    compiler.run(&auto, 2).expect("auto-parallel run");

    // Fig 9: explicit transformations.
    let fig9 = temporal_mean_program(
        &input,
        &out_fig9,
        "\n        transform split j by 4, jin, jout. vectorize jin. parallelize i",
    );
    compiler.run(&fig9, 2).expect("transformed run");

    let a: Matrix<f32> = read_matrix(&out_auto).expect("read auto result");
    let b: Matrix<f32> = read_matrix(&out_fig9).expect("read fig9 result");
    let max_diff = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    println!(
        "temporal mean over {} x {} x {} SSH cube",
        params.lat, params.lon, params.time
    );
    println!("max |auto - transformed| = {max_diff:e} (same semantics, §V)");
    assert_eq!(max_diff, 0.0, "the transformed program must compute the same means");
    println!("means[0, 0..4] = {:?}", &a.as_slice()[..4]);

    // The Fig 10/11 artifacts in the generated C.
    let c = compiler.compile_to_c(&fig9).expect("emit C");
    println!("\n=== Fig 10/11 artifacts in the generated C ===");
    for l in c.lines().filter(|l| {
        l.contains("jout") && l.contains("for")
            || l.contains("#pragma omp")
            || l.contains("_mm_")
    }) {
        println!("{}", l.trim());
    }

    for f in [&input, &out_auto, &out_fig9] {
        std::fs::remove_file(f).ok();
    }
}
