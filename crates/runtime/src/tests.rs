use crate::*;
use cmm_forkjoin::ForkJoinPool;
use proptest::prelude::*;

fn pool() -> ForkJoinPool {
    ForkJoinPool::new(4)
}

/// Matrix whose element at each multi-index is `f(index)`.
fn from_fn<T: Element>(dims: &[usize], f: impl Fn(&[usize]) -> T) -> Matrix<T> {
    let shape = Shape::new(dims);
    let mut idx = vec![0; dims.len()];
    let data = (0..shape.len())
        .map(|flat| {
            shape.unravel(flat, &mut idx);
            f(&idx)
        })
        .collect();
    Matrix::from_vec(shape, data).unwrap()
}

mod shape_tests {
    use super::*;

    #[test]
    fn offset_and_unravel_inverse() {
        let s = Shape::new(vec![3, 5, 7]);
        assert_eq!((s.len(), s.rank()), (105, 3));
        let mut idx = vec![0; 3];
        for flat in 0..s.len() {
            s.unravel(flat, &mut idx);
            assert_eq!(s.offset_unchecked(&idx), flat);
            assert_eq!(s.offset(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn offset_checks_bounds_and_arity() {
        let s = Shape::new(vec![2, 2]);
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(MatrixError::IndexOutOfBounds { dim: 0, .. })
        ));
        assert!(matches!(s.offset(&[0]), Err(MatrixError::IndexArity { .. })));
    }

    #[test]
    fn rank_zero_is_scalar_like() {
        let s = Shape::new(Vec::new());
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }
}

mod matrix_tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec([2, 2], vec![1, 2, 3]).is_err());
    }

    #[test]
    fn get_reads_row_major() {
        let m = Matrix::from_vec([2, 3], vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(m.get(&[1, 2]).unwrap(), 6);
        assert_eq!(m.get(&[0, 1]).unwrap(), 2);
        assert!(m.get(&[2, 0]).is_err());
    }

    #[test]
    fn map_keeps_shape_and_may_change_type() {
        let m = Matrix::from_vec([2, 2], vec![-1.5f32, 0.5, 2.0, -3.0]).unwrap();
        let b = m.map(|x| x < 0.0);
        assert_eq!(b.shape(), m.shape());
        assert_eq!(b.as_slice(), &[true, false, false, true]);
    }

    #[test]
    fn dim_size_matches_paper_example() {
        // Shape of SSH in Fig 8: 721 x 1440 x 954 (scaled down here).
        let m = Matrix::from_vec([7, 14, 9], vec![0.0f32; 7 * 14 * 9]).unwrap();
        assert_eq!(m.dim_size(0), 7);
        assert_eq!(m.dim_size(2), 9);
        assert_eq!(m.rank(), 3);
    }
}

mod map_tests {
    use super::*;

    #[test]
    fn matrix_map_equals_fig5_loop() {
        // matrixMap(f, ssh, [0,1]) ≡ for t: result[:,:,t] = f(ssh[:,:,t])
        let (rows, cols, times) = (3, 4, 5);
        let ssh = from_fn(&[rows, cols, times], |ix| (ix[0] + 2 * ix[1] + 3 * ix[2]) as f32);
        let f = |s: &Matrix<f32>| s.map(|x| x * 2.0);
        let p = pool();
        let mapped = matrix_map(&p, f, &ssh, &[0, 1]).unwrap();

        let mut expect = vec![0.0f32; rows * cols * times];
        for t in 0..times {
            let frame: Vec<f32> = ssh.as_slice().iter().skip(t).step_by(times).copied().collect();
            let r = f(&Matrix::from_vec([rows, cols], frame).unwrap());
            for (cell, &v) in r.as_slice().iter().enumerate() {
                expect[cell * times + t] = v;
            }
        }
        assert_eq!(mapped, Matrix::from_vec([rows, cols, times], expect).unwrap());
    }

    #[test]
    fn matrix_map_type_change_like_conncomp() {
        // Fig 4: float input, int labels out.
        let ssh = from_fn(&[2, 2, 3], |ix| ix[2] as f32 - 1.0);
        let p = pool();
        let labels =
            matrix_map(&p, |s: &Matrix<f32>| s.map(|x| i32::from(x < 0.5)), &ssh, &[0, 1]).unwrap();
        assert_eq!(labels.shape().dims(), &[2, 2, 3]);
        assert_eq!(labels.get(&[0, 0, 0]).unwrap(), 1);
        assert_eq!(labels.get(&[0, 0, 2]).unwrap(), 0);
    }

    #[test]
    fn matrix_map_last_dim_time_series() {
        // matrixMap(scoreTS, data, [2]): map over dim 2, iterate dims 0, 1.
        let data = from_fn(&[2, 3, 4], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as f32);
        let p = pool();
        let out = matrix_map(&p, |ts: &Matrix<f32>| ts.map(|x| x + 0.5), &data, &[2]).unwrap();
        assert_eq!(out.get(&[1, 2, 3]).unwrap(), 123.5);
        assert_eq!(out.shape(), data.shape());
    }

    #[test]
    fn map_all_dims_is_whole_matrix_apply() {
        let m = Matrix::from_vec([2, 2], vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        let p = pool();
        let out = matrix_map(&p, |s: &Matrix<f32>| s.map(|x| x * 10.0), &m, &[0, 1]).unwrap();
        assert_eq!(out.as_slice(), &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn map_shape_change_rejected() {
        let m = Matrix::from_vec([2, 4], vec![1.0f32; 8]).unwrap();
        let p = pool();
        let half = |_: &Matrix<f32>| Matrix::from_vec([2], vec![0.0f32; 2]).unwrap();
        let r = matrix_map(&p, half, &m, &[1]);
        assert!(matches!(r, Err(MatrixError::MapShapeChanged { .. })));
    }

    #[test]
    fn map_shape_change_after_the_first_slice_is_an_error_at_any_thread_count() {
        // Slice k of dimension 0 holds the value k; slices 1.. come back
        // with k + 1 elements instead of 4. The lowest such slice names
        // the error, whichever participant met it.
        let m = from_fn(&[6, 4], |ix| ix[0] as f32);
        let f = |s: &Matrix<f32>| match s.as_slice()[0] as usize {
            0 => s.clone(),
            k => Matrix::from_vec([k + 1], vec![0.0f32; k + 1]).unwrap(),
        };
        for threads in [1, 4] {
            let r = matrix_map(&ForkJoinPool::new(threads), f, &m, &[1]);
            assert_eq!(
                r,
                Err(MatrixError::MapShapeChanged { expected: vec![4], found: vec![2] }),
                "{threads} thread(s)"
            );
        }
    }

    #[test]
    fn map_bad_dims_rejected() {
        let m = Matrix::from_vec([2, 2], vec![0i32; 4]).unwrap();
        let p = pool();
        assert!(matches!(
            matrix_map(&p, |s: &Matrix<i32>| s.clone(), &m, &[2]),
            Err(MatrixError::BadMapDims { .. })
        ));
        assert!(matches!(
            matrix_map(&p, |s: &Matrix<i32>| s.clone(), &m, &[1, 0]),
            Err(MatrixError::BadMapDims { .. })
        ));
        assert!(matches!(
            matrix_map(&p, |s: &Matrix<i32>| s.clone(), &m, &[]),
            Err(MatrixError::BadMapDims { .. })
        ));
    }
}

mod io_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cmm-runtime-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_float() {
        let path = tmp("f32.cmmx");
        let m = from_fn(&[3, 4, 5], |ix| (ix[0] * 20 + ix[1] * 5 + ix[2]) as f32 * 0.25);
        write_matrix(&path, &m).unwrap();
        let back: Matrix<f32> = read_matrix(&path).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_int_and_bool() {
        let pi = tmp("i32.cmmx");
        let m = Matrix::from_vec([4], vec![-1, 0, 1, i32::MAX]).unwrap();
        write_matrix(&pi, &m).unwrap();
        assert_eq!(read_matrix::<i32>(&pi).unwrap(), m);
        std::fs::remove_file(&pi).ok();

        let pb = tmp("bool.cmmx");
        let b = Matrix::from_vec([3], vec![true, false, true]).unwrap();
        write_matrix(&pb, &b).unwrap();
        assert_eq!(read_matrix::<bool>(&pb).unwrap(), b);
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn type_mismatch_detected() {
        let p = tmp("mismatch.cmmx");
        write_matrix(&p, &Matrix::from_vec([2], vec![1i32; 2]).unwrap()).unwrap();
        assert!(matches!(
            read_matrix::<f32>(&p),
            Err(MatrixError::Format(_))
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_magic_detected() {
        let p = tmp("junk.cmmx");
        std::fs::write(&p, b"JUNKxxxxyyyy").unwrap();
        assert!(matches!(
            read_matrix::<i32>(&p),
            Err(MatrixError::Format(_))
        ));
        std::fs::remove_file(&p).ok();
    }
}

mod kernel_tests {
    use super::kernels::*;
    use super::*;

    fn ssh_cube(m: usize, n: usize, p: usize) -> Vec<f32> {
        (0..m * n * p)
            .map(|x| ((x * 37 % 101) as f32) * 0.125 - 5.0)
            .collect()
    }

    #[test]
    fn all_temporal_mean_variants_agree() {
        let (m, n, p) = (6, 8, 10);
        let mat = ssh_cube(m, n, p);
        let mut a = vec![0.0; m * n];
        let mut b = vec![0.0; m * n];
        let mut c = vec![0.0; m * n];
        let mut d = vec![0.0; m * n];
        let mut e = vec![0.0; m * n];
        let mut f = vec![0.0; m * n];
        temporal_mean_fig3(&mat, m, n, p, &mut a);
        temporal_mean_library(&mat, m, n, p, &mut b);
        temporal_mean_fig10(&mat, m, n, p, &mut c);
        temporal_mean_fig11(&mat, m, n, p, &mut d);
        let pl = pool();
        temporal_mean_fig11_parallel(&pl, &mat, m, n, p, &mut e);
        temporal_mean_parallel(&pl, &mat, m, n, p, &mut f);
        for variant in [&b, &c, &d, &e, &f] {
            for (x, y) in a.iter().zip(variant.iter()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_variants_agree() {
        let (m, k, n) = (7, 9, 11);
        let a: Vec<f32> = (0..m * k).map(|x| (x % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|x| (x % 7) as f32 * 0.5).collect();
        let mut c0 = vec![0.0; m * n];
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        matmul_naive(&a, &b, &mut c0, m, k, n);
        for t in [1, 2, 4, 16] {
            matmul_tiled(&a, &b, &mut c1, m, k, n, t);
            for (x, y) in c0.iter().zip(&c1) {
                assert!((x - y).abs() < 1e-3, "tile {t}");
            }
        }
        let pl = pool();
        matmul_parallel(&pl, &a, &b, &mut c2, m, k, n);
        for (x, y) in c0.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_rows_matches_naive() {
        let (m, k, n) = (3, 4, 2);
        let a: Vec<f32> = (0..m * k).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|x| (x / n) as f32 - (x % n) as f32).collect();
        let mut c = vec![0.0f32; m * n];
        matmul_naive(&a, &b, &mut c, m, k, n);
        for t in [1, 2, 3] {
            let mut rows = vec![-1.0f32; m * n];
            matmul_rows(&a, &b, &mut rows, 0..m, k, n, t);
            assert_eq!(rows, c, "tile {t}");
        }
    }

    #[test]
    fn matmul_rows_computes_any_row_range_and_wraps_ints() {
        // Int products wrap (as the interpreted nest does) instead of
        // panicking in debug builds.
        let (m, k, n) = (7usize, 5usize, 6usize);
        let a: Vec<i32> = (0..m * k).map(|x| (x as i32 % 11 - 5) * 40_009).collect();
        let b: Vec<i32> = (0..k * n).map(|x| (x as i32 % 13 - 6) * 30_011).collect();
        let mut want = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    let p = a[i * k + kk].wrapping_mul(b[kk * n + j]);
                    want[i * n + j] = want[i * n + j].wrapping_add(p);
                }
            }
        }
        let mut whole = vec![-1i32; m * n];
        matmul_rows(&a, &b, &mut whole, 0..m, k, n, 4);
        assert_eq!(whole, want);
        // A row range writes exactly those rows, whatever they held.
        let mut part = vec![-1i32; 3 * n];
        matmul_rows(&a, &b, &mut part, 2..5, k, n, 2);
        assert_eq!(part, want[2 * n..5 * n]);
    }

    #[test]
    fn refused_tiles_are_left_untouched() {
        let (m, k, n, t) = (10usize, 3usize, 4usize, 4usize);
        let a = vec![1.0f32; m * k];
        let b = vec![2.0f32; k * n];
        let mut c = vec![-1.0f32; m * n];
        let pl = pool();
        let schedule = cmm_forkjoin::Schedule::Dynamic { chunk: 1 };
        try_matmul_tiles(&pl, schedule, &a, &b, &mut c, (m, k, n), t, |rows| rows.start != 4)
            .unwrap();
        for (i, row) in c.chunks(n).enumerate() {
            let want = if (4..8).contains(&i) { -1.0 } else { 6.0 };
            assert!(row.iter().all(|&x| x == want), "row {i}: {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn matmul_parallel_checks_operand_lengths() {
        let mut c = vec![0.0f32; 4];
        matmul_parallel(&pool(), &[1.0; 3], &[1.0; 4], &mut c, 2, 2, 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_matrix_map_identity(m in 1usize..5, n in 1usize..5, p in 1usize..5) {
        let data = from_fn(&[m, n, p], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as i32);
        let id = |s: &Matrix<i32>| s.clone();
        let out = matrix_map(&ForkJoinPool::new(3), id, &data, &[0, 1]).unwrap();
        prop_assert_eq!(out, data);
    }
}
