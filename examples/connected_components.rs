//! Fig 4: threshold SSH frames and label connected components in space
//! for every point in time, via `matrixMap(connComp, ssh, [0, 1])` — both
//! through the compiled extended-C program and the native union-find,
//! with structural agreement checked frame by frame.
//!
//! ```sh
//! cargo run --release --example connected_components
//! ```

use cmm::eddy::conncomp::{canonical_labels, conn_comp_frame, count_components};
use cmm::eddy::programs::{connected_components_program, full_compiler};
use cmm::eddy::{
    detect_eddies, frame, label_frames, read_i32, synthetic_ssh, write_f32, EddyParams, SshParams,
};
use cmm::forkjoin::ForkJoinPool;

fn main() {
    let params = SshParams {
        lat: 16,
        lon: 32,
        time: 12,
        eddies: 4,
        depth: 1.1,
        ..Default::default()
    };
    let threshold = -0.25f32;
    let cube = synthetic_ssh(&params);

    // Native: parallel matrixMap over (lat, lon) frames.
    let pool = ForkJoinPool::new(2);
    let native = label_frames(&pool, &cube, params.dims(), |f| {
        conn_comp_frame(f, params.lat, params.lon, threshold)
    });

    // Compiled Fig 4 program.
    let dir = std::env::temp_dir();
    let input = dir.join("cmm_cc_in.cmmx").display().to_string();
    let output = dir.join("cmm_cc_out.cmmx").display().to_string();
    write_f32(&input, &params.dims(), &cube).expect("write input");
    let compiler = full_compiler();
    compiler
        .run(&connected_components_program(&input, &output, threshold), 2)
        .expect("compiled labelling");
    let (dims, compiled) = read_i32(&output).expect("read labels");
    assert_eq!(dims, params.dims(), "the compiled labels keep the cube's shape");

    println!("frame  components  compiled==native(structurally)");
    for t in 0..params.time {
        let (nt, ct) = (frame(&native, params.dims(), t), frame(&compiled, params.dims(), t));
        let same = canonical_labels(&nt) == canonical_labels(&ct);
        println!("{t:5}  {:10}  {same}", count_components(&nt));
        assert!(same, "frame {t} disagreed");
    }

    // The size-filtered detector (the "criteria typical of ocean eddies").
    let labels = detect_eddies(&pool, &cube, params.dims(), &EddyParams {
        threshold,
        ..Default::default()
    });
    let eddy_cells = labels.iter().filter(|&&l| l > 0).count();
    println!("\ndetector: {eddy_cells} eddy cells across all frames after size filtering");

    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}

