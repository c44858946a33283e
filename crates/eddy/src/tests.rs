use crate::conncomp::*;
use crate::score::*;
use crate::ssh::*;
use crate::slices::*;
use cmm_forkjoin::ForkJoinPool;
use proptest::prelude::*;

/// The time series at point `(i, j)` of a `lat × lon × time` cube (time
/// is the last, contiguous axis).
fn series<T>(cube: &[T], [_, lon, time]: [usize; 3], i: usize, j: usize) -> &[T] {
    let at = (i * lon + j) * time;
    &cube[at..at + time]
}

mod ssh_tests {
    use super::*;

    #[test]
    fn generator_shape_and_determinism() {
        let p = SshParams {
            lat: 10,
            lon: 20,
            time: 30,
            ..Default::default()
        };
        let a = synthetic_ssh(&p);
        let b = synthetic_ssh(&p);
        assert_eq!((p.dims(), a.len()), ([10, 20, 30], 10 * 20 * 30));
        assert_eq!(a, b, "same seed ⇒ same field");
        let c = synthetic_ssh(&SshParams { seed: 7, ..p });
        assert_ne!(a, c, "different seed ⇒ different field");
    }

    #[test]
    fn eddies_depress_the_surface() {
        // With eddies the global minimum must be clearly below the
        // no-eddy field's minimum.
        let base = SshParams {
            lat: 24,
            lon: 24,
            time: 60,
            noise: 0.0,
            ..Default::default()
        };
        let calm = synthetic_ssh(&SshParams { eddies: 0, ..base.clone() });
        let eddy = synthetic_ssh(&SshParams { eddies: 6, ..base });
        let min = |m: &[f32]| m.iter().cloned().fold(f32::MAX, f32::min);
        assert!(
            min(&eddy) < min(&calm) - 0.2,
            "eddy min {} vs calm min {}",
            min(&eddy),
            min(&calm)
        );
    }

    #[test]
    fn time_series_shows_fig7_signature() {
        // A strong eddy passing a point creates a trough whose score is
        // much larger than noise-level scores elsewhere.
        let p = SshParams {
            lat: 16,
            lon: 16,
            time: 80,
            eddies: 1,
            noise: 0.005,
            depth: 1.0,
            seed: 3,
            ..Default::default()
        };
        let cube = synthetic_ssh(&p);
        let pool = ForkJoinPool::new(2);
        let scores = score_all(&pool, &cube, p.dims());
        let max_score = scores.iter().cloned().fold(f32::MIN, f32::max);
        assert!(max_score > 1.0, "expected a strong trough, got {max_score}");
    }
}

mod score_tests {
    use super::*;

    #[test]
    fn get_trough_walks_down_then_up() {
        //        peak  v     v peak
        let ts = [3.0, 2.0, 1.0, 2.0, 3.0, 2.5];
        let (trough, b, e) = get_trough(&ts, 0);
        assert_eq!((b, e), (0, 4));
        assert_eq!(trough, vec![3.0, 2.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn get_trough_stops_at_series_end() {
        let ts = [3.0, 2.0, 1.0];
        let (trough, b, e) = get_trough(&ts, 0);
        assert_eq!((b, e), (0, 2));
        assert_eq!(trough.len(), 3);
    }

    #[test]
    fn compute_area_of_v_shape() {
        // V from 2 down to 0 back to 2: line is flat 2.0; area =
        // (2-2)+(2-1)+(2-0)+(2-1)+(2-2) = 4.
        let aoi = [2.0, 1.0, 0.0, 1.0, 2.0];
        let areas = compute_area(&aoi);
        assert_eq!(areas.len(), 5);
        for a in &areas {
            assert!((a - 4.0).abs() < 1e-5, "{a}");
        }
    }

    #[test]
    fn compute_area_handles_sloped_line() {
        // Peaks 4 → 2 with a dip to 0 between: line = 4, 3, 2.
        let aoi = [4.0, 0.0, 2.0];
        let areas = compute_area(&aoi);
        assert!((areas[0] - 3.0).abs() < 1e-5, "{areas:?}");
    }

    #[test]
    fn compute_area_degenerate() {
        assert_eq!(compute_area(&[1.0]), vec![0.0]);
        assert!(compute_area(&[]).is_empty());
    }

    #[test]
    fn score_ts_flat_series_is_zero() {
        let scores = score_ts(&[1.0; 10]);
        assert_eq!(scores, vec![0.0; 10]);
    }

    #[test]
    fn score_ts_single_trough() {
        let ts = [0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 2.0];
        let scores = score_ts(&ts);
        // Trough spans indices 2..=6 ([2,1,0,1,2] against the flat line at
        // 2): area = 0+1+2+1+0 = 4. The trailing flat segment [2,2] forms
        // a degenerate trough with area 0 that overwrites the shared
        // endpoint at index 6 — the Fig 8 algorithm's behaviour.
        assert!((scores[3] - 4.0).abs() < 1e-4, "{scores:?}");
        assert!((scores[5] - 4.0).abs() < 1e-4, "{scores:?}");
        assert_eq!(scores[0], 0.0);
        assert_eq!(scores[1], 0.0);
        assert_eq!(scores[6], 0.0);
    }

    #[test]
    fn deeper_troughs_score_higher() {
        let shallow = [2.0, 1.8, 1.6, 1.8, 2.0];
        let deep = [2.0, 1.0, 0.0, 1.0, 2.0];
        let s = score_ts(&shallow);
        let d = score_ts(&deep);
        assert!(d[2] > s[2] * 3.0, "deep {d:?} vs shallow {s:?}");
    }

    #[test]
    fn score_all_matches_pointwise_scoring() {
        let p = SshParams {
            lat: 6,
            lon: 7,
            time: 40,
            ..Default::default()
        };
        let cube = synthetic_ssh(&p);
        let pool = ForkJoinPool::new(3);
        let all = score_all(&pool, &cube, p.dims());
        for i in [0usize, 3, 5] {
            for j in [0usize, 2, 6] {
                let expect = score_ts(series(&cube, p.dims(), i, j));
                assert_eq!(series(&all, p.dims(), i, j), expect.as_slice(), "point ({i},{j})");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_scores_are_finite_and_shape_preserved(
            v in proptest::collection::vec(-10.0f32..10.0, 3..80)
        ) {
            let scores = score_ts(&v);
            prop_assert_eq!(scores.len(), v.len());
            prop_assert!(scores.iter().all(|s| s.is_finite()));
        }

        #[test]
        fn prop_troughs_have_nonnegative_area(
            depth in 0.1f32..5.0, flank in 1usize..10
        ) {
            // Symmetric V trough: area must be positive.
            let mut ts: Vec<f32> = (0..=flank).rev().map(|k| k as f32 * depth / flank as f32).collect();
            let mut up: Vec<f32> = (1..=flank).map(|k| k as f32 * depth / flank as f32).collect();
            ts.append(&mut up);
            let areas = compute_area(&ts);
            prop_assert!(areas[0] > 0.0, "{:?}", areas);
        }
    }
}

/// Exact-value pins on a tiny hand-built SSH grid. Unlike the
/// `synthetic_ssh`-based tests above, every input here is an exactly
/// representable f32 and all the Fig 8 arithmetic is exact, so the
/// expected score cube is asserted bitwise — any change to the trough
/// walk, the peak-to-peak line, or the overwrite-at-shared-endpoint
/// behaviour shows up as a precise diff, not a tolerance failure.
mod fixture_grid_tests {
    use super::*;

    /// Point A: climb, one symmetric trough, fall.
    /// `[0,2,1,0,1,2,0]` — trim climbs to index 1; trough `[2,1,0,1,2]`
    /// over 1..=5 scores 4 (flat line at 2); the final descent `[2,0]`
    /// is a degenerate trough with area 0 that overwrites index 5.
    const TS_A: [f32; 7] = [0.0, 2.0, 1.0, 0.0, 1.0, 2.0, 0.0];
    const SCORES_A: [f32; 7] = [0.0, 4.0, 4.0, 4.0, 4.0, 0.0, 0.0];

    /// Point B: a sawtooth of three identical V troughs `[4,0,4]`, each
    /// scoring (4-4)+(4-0)+(4-4) = 4; shared endpoints are overwritten
    /// with the same value, so the whole series pins at 4.
    const TS_B: [f32; 7] = [4.0, 0.0, 4.0, 0.0, 4.0, 0.0, 4.0];
    const SCORES_B: [f32; 7] = [4.0; 7];

    #[test]
    fn score_ts_pins_exact_values_on_fixture_series() {
        assert_eq!(score_ts(&TS_A), SCORES_A.to_vec());
        assert_eq!(score_ts(&TS_B), SCORES_B.to_vec());
    }

    #[test]
    fn score_ts_short_and_flat_series_pin_to_zero() {
        assert_eq!(score_ts(&[]), Vec::<f32>::new());
        assert_eq!(score_ts(&[1.0, 2.0]), vec![0.0, 0.0]);
        assert_eq!(score_ts(&[1.0, 1.0, 1.0, 1.0]), vec![0.0; 4]);
    }

    #[test]
    fn score_all_pins_exact_values_on_fixture_grid() {
        // 1 × 2 × 7 cube: point (0,0) carries TS_A, point (0,1) TS_B
        // (time is the last, contiguous axis).
        let mut cube = TS_A.to_vec();
        cube.extend_from_slice(&TS_B);
        let dims = [1, 2, 7];
        let pool = ForkJoinPool::new(2);
        let scores = score_all(&pool, &cube, dims);
        assert_eq!(scores.len(), 14);
        assert_eq!(series(&scores, dims, 0, 0), &SCORES_A);
        assert_eq!(series(&scores, dims, 0, 1), &SCORES_B);
    }
}

mod conncomp_tests {
    use super::*;

    fn bmat(cells: &[u8]) -> Vec<bool> {
        cells.iter().map(|&c| c != 0).collect()
    }

    #[test]
    fn labels_simple_components() {
        let b = bmat(&[
            1, 1, 0, 0, //
            0, 0, 0, 1, //
            1, 0, 0, 1,
        ]);
        let l = connected_components(&b, 3, 4);
        let at = |i: usize, j: usize| l[i * 4 + j];
        assert_eq!(at(0, 0), at(0, 1));
        assert_eq!(at(1, 3), at(2, 3));
        assert_ne!(at(0, 0), at(2, 0));
        assert_eq!(at(0, 2), 0);
        assert_eq!(count_components(&l), 3);
    }

    #[test]
    fn four_connectivity_not_eight() {
        // Diagonal touch is NOT connected under 4-connectivity.
        let b = bmat(&[1, 0, 0, 1]);
        let l = connected_components(&b, 2, 2);
        assert_ne!(l[0], l[3]);
        assert_eq!(count_components(&l), 2);
    }

    #[test]
    fn snake_component_is_single() {
        let b = bmat(&[
            1, 1, 1, //
            0, 0, 1, //
            1, 1, 1,
        ]);
        let l = connected_components(&b, 3, 3);
        assert_eq!(count_components(&l), 1);
    }

    #[test]
    fn empty_and_full_frames() {
        let empty = bmat(&[0; 9]);
        assert_eq!(count_components(&connected_components(&empty, 3, 3)), 0);
        let full = bmat(&[1; 9]);
        assert_eq!(count_components(&connected_components(&full, 3, 3)), 1);
    }

    #[test]
    fn size_filter_drops_small_and_large() {
        let b = bmat(&[
            1, 0, 1, 1, //
            0, 0, 1, 1, //
            0, 0, 0, 0, //
            1, 1, 0, 0,
        ]);
        let l = connected_components(&b, 4, 4);
        let f = filter_components_by_size(&l, 2, 3);
        // singleton dropped, 4-cell block dropped, 2-cell block kept
        assert_eq!(f[0], 0);
        assert_eq!(f[2], 0);
        assert!(f[3 * 4] > 0);
    }

    #[test]
    fn detect_eddies_finds_planted_eddy() {
        let p = SshParams {
            lat: 20,
            lon: 20,
            time: 40,
            eddies: 2,
            depth: 1.2,
            noise: 0.01,
            seed: 11,
            ..Default::default()
        };
        let cube = synthetic_ssh(&p);
        let pool = ForkJoinPool::new(2);
        let labels = detect_eddies(&pool, &cube, p.dims(), &EddyParams::default());
        assert_eq!(labels.len(), cube.len());
        let detected: usize = labels.iter().filter(|&&l| l > 0).count();
        assert!(detected > 0, "no eddy cells detected");
    }

    proptest! {
        #[test]
        fn prop_labels_respect_connectivity(cells in proptest::collection::vec(0u8..2, 36)) {
            let bs = bmat(&cells);
            let ls = connected_components(&bs, 6, 6);
            // Background cells get 0; foreground cells get > 0.
            for (i, &c) in bs.iter().enumerate() {
                prop_assert_eq!(ls[i] > 0, c, "cell {}", i);
            }
            // 4-adjacent foreground cells share labels.
            for r in 0..6 {
                for c in 0..6 {
                    let k = r * 6 + c;
                    if bs[k] && c + 1 < 6 && bs[k + 1] {
                        prop_assert_eq!(ls[k], ls[k + 1]);
                    }
                    if bs[k] && r + 1 < 6 && bs[k + 6] {
                        prop_assert_eq!(ls[k], ls[k + 6]);
                    }
                }
            }
        }

        #[test]
        fn prop_canonical_labels_idempotent(cells in proptest::collection::vec(0u8..2, 25)) {
            let b = bmat(&cells);
            let l = connected_components(&b, 5, 5);
            let c1 = canonical_labels(&l);
            let c2 = canonical_labels(&c1);
            prop_assert_eq!(c1, c2);
        }
    }
}

/// The mirror's `matrixMap`: the parallel per-slice map gives the bytes a
/// sequential per-slice loop gives, at every thread count (E3's native
/// side; the compiled side is `cmm-lang`'s `matrix_map_fig5_equivalent`).
mod slice_map_tests {
    use super::*;

    fn cube() -> (SshParams, Vec<f32>) {
        let p = SshParams {
            lat: 7,
            lon: 9,
            time: 13,
            eddies: 3,
            depth: 1.2,
            seed: 17,
            ..Default::default()
        };
        let cube = synthetic_ssh(&p);
        (p, cube)
    }

    #[test]
    fn map_slices_concatenates_in_slice_order() {
        for threads in [1, 2, 4] {
            let pool = ForkJoinPool::new(threads);
            for count in [0, 1, 3, 10] {
                let got = map_slices(&pool, count, |k| vec![k; k % 3]);
                let want: Vec<usize> = (0..count).flat_map(|k| vec![k; k % 3]).collect();
                assert_eq!(got, want, "{threads} threads, {count} slices");
            }
        }
    }

    #[test]
    fn score_all_is_the_sequential_loop_at_every_thread_count() {
        let (p, cube) = cube();
        let mut want = Vec::new();
        for ts in cube.chunks_exact(p.time) {
            want.extend(score_ts(ts));
        }
        for threads in [1, 2, 4] {
            let got = score_all(&ForkJoinPool::new(threads), &cube, p.dims());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{threads} threads");
        }
    }

    #[test]
    fn frame_labelling_is_the_sequential_loop_at_every_thread_count() {
        let (p, cube) = cube();
        let params = EddyParams {
            threshold: -0.2,
            min_size: 2,
            max_size: 30,
        };
        let mut want = vec![0i32; cube.len()];
        for t in 0..p.time {
            let labels = conn_comp_frame(&frame(&cube, p.dims(), t), p.lat, p.lon, params.threshold);
            let kept = filter_components_by_size(&labels, params.min_size, params.max_size);
            for (cell, l) in kept.into_iter().enumerate() {
                want[cell * p.time + t] = l;
            }
        }
        assert!(want.iter().any(|&l| l > 0), "the fixture has eddies to label");
        for threads in [1, 2, 4] {
            let got = detect_eddies(&ForkJoinPool::new(threads), &cube, p.dims(), &params);
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn frames_gather_their_strided_cells() {
        let cube: Vec<i32> = (0..2 * 3 * 4).collect();
        assert_eq!(frame(&cube, [2, 3, 4], 1), [1, 5, 9, 13, 17, 21]);
    }
}

mod file_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cmm-eddy-file-{}-{name}", std::process::id()))
    }

    #[test]
    fn float_cube_roundtrips_bit_for_bit() {
        let path = tmp("f32.cmmx");
        let data: Vec<f32> = (0..60).map(|x| x as f32 * 0.25 - 3.0).chain([f32::NAN]).collect();
        let dims = [61];
        write_f32(&path, &dims, &data).unwrap();
        let (back_dims, back) = read_f32(&path).unwrap();
        assert_eq!(back_dims, dims);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&data));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_file_of_another_type_or_no_file_is_invalid_data() {
        let path = tmp("mismatch.cmmx");
        write_f32(&path, &[2], &[1.0, 2.0]).unwrap();
        let err = read_i32(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("element type mismatch"), "{err}");
        std::fs::write(&path, b"JUNKxxxxyyyy").unwrap();
        assert_eq!(read_f32(&path).unwrap_err().to_string(), "not a CMMX file");
        std::fs::remove_file(path).ok();
    }
}

mod program_tests {
    use super::*;
    use crate::programs::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("cmm-eddy-{}-{name}", std::process::id()))
            .display()
            .to_string()
    }

    #[test]
    fn quickstart_program_runs() {
        let c = full_compiler();
        let r = c.run(quickstart_program(), 2).unwrap();
        assert!(!r.output.is_empty());
        assert_eq!(r.leaked, 0);
    }

    #[test]
    fn temporal_mean_program_matches_native() {
        let p = SshParams {
            lat: 5,
            lon: 6,
            time: 20,
            ..Default::default()
        };
        let cube = synthetic_ssh(&p);
        let input = tmp("tm-in.cmmx");
        let output = tmp("tm-out.cmmx");
        write_f32(&input, &p.dims(), &cube).unwrap();
        let c = full_compiler();
        let r = c.run(&temporal_mean_program(&input, &output, ""), 2).unwrap();
        assert_eq!(r.leaked, 0);
        let (dims, means) = read_f32(&output).unwrap();
        assert_eq!(dims, [5, 6]);
        // Check a few cells against a direct mean.
        for (i, j) in [(0usize, 0usize), (4, 5), (2, 3)] {
            let ts = series(&cube, p.dims(), i, j);
            let expect: f32 = ts.iter().sum::<f32>() / ts.len() as f32;
            let got = means[i * 6 + j];
            assert!((got - expect).abs() < 1e-4, "({i},{j}): {got} vs {expect}");
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn eddy_scoring_program_matches_native() {
        // E4: the compiled Fig 8 program and the native implementation
        // agree on every score.
        let p = SshParams {
            lat: 4,
            lon: 5,
            time: 30,
            eddies: 2,
            seed: 5,
            ..Default::default()
        };
        let cube = synthetic_ssh(&p);
        let input = tmp("score-in.cmmx");
        let output = tmp("score-out.cmmx");
        write_f32(&input, &p.dims(), &cube).unwrap();
        let c = full_compiler();
        let r = c.run(&eddy_scoring_program(&input, &output), 2).unwrap();
        assert_eq!(r.leaked, 0, "allocs {}", r.allocations);
        let (dims, compiled) = read_f32(&output).unwrap();

        let pool = ForkJoinPool::new(2);
        let native = score_all(&pool, &cube, p.dims());
        assert_eq!((dims.as_slice(), compiled.len()), (&p.dims()[..], native.len()));
        for (a, b) in compiled.iter().zip(&native) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn conncomp_program_matches_native_up_to_relabeling() {
        // E3: compiled Fig 4 vs native union-find, canonicalized.
        let p = SshParams {
            lat: 8,
            lon: 8,
            time: 6,
            eddies: 2,
            depth: 1.2,
            seed: 9,
            ..Default::default()
        };
        let cube = synthetic_ssh(&p);
        let input = tmp("cc-in.cmmx");
        let output = tmp("cc-out.cmmx");
        write_f32(&input, &p.dims(), &cube).unwrap();
        let threshold = -0.2f32;
        let c = full_compiler();
        let r = c
            .run(&connected_components_program(&input, &output, threshold), 2)
            .unwrap();
        assert_eq!(r.leaked, 0);
        let (dims, compiled) = read_i32(&output).unwrap();

        let pool = ForkJoinPool::new(2);
        let native = label_frames(&pool, &cube, p.dims(), |f| conn_comp_frame(f, 8, 8, threshold));
        assert_eq!((dims.as_slice(), compiled.len()), (&p.dims()[..], native.len()));
        for t in 0..p.time {
            assert_eq!(
                canonical_labels(&frame(&compiled, p.dims(), t)),
                canonical_labels(&frame(&native, p.dims(), t)),
                "frame {t} labelings differ structurally"
            );
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }
}
