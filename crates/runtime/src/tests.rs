use crate::*;
use cmm_forkjoin::ForkJoinPool;
use proptest::prelude::*;

fn pool() -> ForkJoinPool {
    ForkJoinPool::new(4)
}

mod shape_tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn offset_and_unravel_inverse() {
        let s = Shape::new(vec![3, 5, 7]);
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
    fn indices_iterate_row_major() {
        let s = Shape::new(vec![2, 2]);
        let all: Vec<_> = s.indices().collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn rank_zero_is_scalar_like() {
        let s = Shape::new(Vec::new());
        assert_eq!(s.len(), 1);
        assert_eq!(s.indices().count(), 1);
    }
}

mod matrix_tests {
    use super::*;

    #[test]
    fn init_is_zeroed() {
        let m: Matrix<f32> = Matrix::init([2, 2]);
        assert_eq!(m.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn from_fn_uses_indices() {
        let m = Matrix::from_fn([2, 3], |ix| (ix[0] * 10 + ix[1]) as i32);
        assert_eq!(m.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec([2, 2], vec![1, 2, 3]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::fill([3, 3], 0i32);
        m.set(&[1, 2], 42).unwrap();
        assert_eq!(m.get(&[1, 2]).unwrap(), 42);
        assert!(m.get(&[3, 0]).is_err());
    }

    #[test]
    fn clone_shares_until_write() {
        let mut a = Matrix::fill([4], 1i32);
        let b = a.clone();
        assert_eq!(a.ref_count(), 2);
        a.set(&[0], 9).unwrap(); // copy-on-write
        assert_eq!(b.get(&[0]).unwrap(), 1);
        assert_eq!(a.get(&[0]).unwrap(), 9);
        assert_eq!(b.ref_count(), 1);
    }

    #[test]
    fn reshape_shares_data() {
        let m = Matrix::from_vec([2, 3], vec![1, 2, 3, 4, 5, 6]).unwrap();
        let r = m.reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), m.as_slice());
        assert_eq!(r.dim_size(0), 3);
        assert!(m.reshape([4]).is_err());
    }

    #[test]
    fn dim_size_matches_paper_example() {
        // Shape of SSH in Fig 8: 721 x 1440 x 954 (scaled down here).
        let m: Matrix<f32> = Matrix::init([7, 14, 9]);
        assert_eq!(m.dim_size(0), 7);
        assert_eq!(m.dim_size(2), 9);
        assert_eq!(m.rank(), 3);
    }
}

mod index_tests {
    use super::*;

    fn sample() -> Matrix<i32> {
        // 3 x 4: [[0,1,2,3],[10,11,12,13],[20,21,22,23]]
        Matrix::from_fn([3, 4], |ix| (ix[0] * 10 + ix[1]) as i32)
    }

    #[test]
    fn standard_indexing_drops_dims() {
        let m = sample();
        let e = m.index_get(&[Ix::At(1), Ix::At(2)]).unwrap();
        assert_eq!(e.rank(), 0);
        assert_eq!(e.as_slice(), &[12]);
    }

    #[test]
    fn range_indexing_inclusive() {
        // data[0:4] style: inclusive range, 5 elements in the paper's
        // example. Here rows 0:1 and cols 1:3.
        let m = sample();
        let s = m.index_get(&[Ix::Range(0, 1), Ix::Range(1, 3)]).unwrap();
        assert_eq!(s.shape().dims(), &[2, 3]);
        assert_eq!(s.as_slice(), &[1, 2, 3, 11, 12, 13]);
    }

    #[test]
    fn whole_dimension_indexing() {
        let m = sample();
        let col = m.index_get(&[Ix::All, Ix::At(0)]).unwrap();
        assert_eq!(col.shape().dims(), &[3]);
        assert_eq!(col.as_slice(), &[0, 10, 20]);
    }

    #[test]
    fn logical_indexing_selects_true_rows() {
        // data[v % 2 == 1, :] — rows where the mask holds.
        let m = sample();
        let v = Matrix::from_vec([3], vec![1, 2, 3]).unwrap();
        let mask = v.rem_scalar(2).eq_scalar(1);
        assert_eq!(mask.as_slice(), &[true, false, true]);
        let sub = m.index_get(&[Ix::Mask(mask), Ix::All]).unwrap();
        assert_eq!(sub.shape().dims(), &[2, 4]);
        assert_eq!(sub.as_slice(), &[0, 1, 2, 3, 20, 21, 22, 23]);
    }

    #[test]
    fn combined_modes_any_rank() {
        let m = Matrix::from_fn([2, 3, 4], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as i32);
        // m[1, 0:1, :] — rank 2 result.
        let s = m
            .index_get(&[Ix::At(1), Ix::Range(0, 1), Ix::All])
            .unwrap();
        assert_eq!(s.shape().dims(), &[2, 4]);
        assert_eq!(s.get(&[1, 3]).unwrap(), 113);
    }

    #[test]
    fn empty_range_gives_empty_dim() {
        let m = sample();
        let s = m.index_get(&[Ix::Range(2, 1), Ix::All]).unwrap();
        assert_eq!(s.shape().dims(), &[0, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn index_errors() {
        let m = sample();
        assert!(matches!(
            m.index_get(&[Ix::At(5), Ix::All]),
            Err(MatrixError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            m.index_get(&[Ix::All]),
            Err(MatrixError::IndexArity { .. })
        ));
        let short_mask = Matrix::from_vec([2], vec![true, false]).unwrap();
        assert!(matches!(
            m.index_get(&[Ix::Mask(short_mask), Ix::All]),
            Err(MatrixError::MaskLength { .. })
        ));
    }

    #[test]
    fn lhs_indexed_assignment() {
        // scores[beginning:i] = computeArea(trough) — Fig 8 line 47.
        let mut scores = Matrix::fill([6], 0.0f32);
        let area = Matrix::fill([3], 2.5f32);
        scores.index_set(&[Ix::Range(1, 3)], &area).unwrap();
        assert_eq!(scores.as_slice(), &[0.0, 2.5, 2.5, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn lhs_assignment_shape_checked() {
        let mut m = sample();
        let bad = Matrix::fill([5], 0i32);
        assert!(matches!(
            m.index_set(&[Ix::All, Ix::At(0)], &bad),
            Err(MatrixError::AssignShape { .. })
        ));
    }

    #[test]
    fn lhs_fill_scalar() {
        let mut m = sample();
        m.index_fill(&[Ix::All, Ix::Range(1, 2)], -1).unwrap();
        assert_eq!(m.as_slice(), &[0, -1, -1, 3, 10, -1, -1, 13, 20, -1, -1, 23]);
    }

    #[test]
    fn logical_index_on_third_dim_like_dates_filter() {
        // ssh = ssh[:, :, dates >= 01012000] — Fig 4 line 13.
        let ssh = Matrix::from_fn([2, 2, 4], |ix| ix[2] as f32);
        let dates = Matrix::from_vec([4], vec![1999, 2000, 2001, 2002]).unwrap();
        let keep = dates.ge_scalar(2000);
        let filtered = ssh
            .index_get(&[Ix::All, Ix::All, Ix::Mask(keep)])
            .unwrap();
        assert_eq!(filtered.shape().dims(), &[2, 2, 3]);
        assert_eq!(filtered.get(&[0, 0, 0]).unwrap(), 1.0);
    }
}

mod ops_tests {
    use super::*;

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec([2, 2], vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec([2, 2], vec![10.0f32, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul_elem(&b).unwrap().as_slice(), &[10.0, 40.0, 90.0, 160.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::fill([2, 2], 1i32);
        let b = Matrix::fill([4], 1i32);
        assert!(matches!(a.add(&b), Err(MatrixError::ShapeMismatch { .. })));
    }

    #[test]
    fn scalar_broadcast_both_directions() {
        let a = Matrix::from_vec([3], vec![1.0f32, 2.0, 4.0]).unwrap();
        assert_eq!(a.mul_scalar(2.0).as_slice(), &[2.0, 4.0, 8.0]);
        assert_eq!(a.rsub_scalar(10.0).as_slice(), &[9.0, 8.0, 6.0]);
        assert_eq!(a.rdiv_scalar(8.0).as_slice(), &[8.0, 4.0, 2.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 5.0]);
    }

    #[test]
    fn comparisons_produce_bool_matrices() {
        let ssh = Matrix::from_vec([4], vec![-3.0f32, 0.0, 2.0, -1.0]).unwrap();
        // Matrix bool <2> binary = ssh < i — Fig 4 line 4.
        let binary = ssh.lt_scalar(0.0);
        assert_eq!(binary.as_slice(), &[true, false, false, true]);
        assert_eq!(binary.count_true(), 2);
    }

    #[test]
    fn bool_logic() {
        let a = Matrix::from_vec([3], vec![true, true, false]).unwrap();
        let b = Matrix::from_vec([3], vec![true, false, false]).unwrap();
        assert_eq!(a.and(&b).unwrap().as_slice(), &[true, false, false]);
        assert_eq!(a.or(&b).unwrap().as_slice(), &[true, true, false]);
        assert_eq!(b.not().as_slice(), &[false, true, true]);
    }

    #[test]
    fn matmul_2x2() {
        let a = Matrix::from_vec([2, 2], vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec([2, 2], vec![5.0f32, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect_and_checks() {
        let a = Matrix::from_fn([2, 3], |ix| (ix[0] + ix[1]) as f32);
        let b = Matrix::from_fn([3, 4], |ix| (ix[0] * ix[1]) as f32);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 4]);
        let bad = Matrix::fill([2, 2], 0.0f32);
        assert!(a.matmul(&bad).is_err());
        let r1 = Matrix::fill([3], 0.0f32);
        assert!(r1.matmul(&b).is_err());
    }

    #[test]
    fn int_float_casts() {
        let i = Matrix::from_vec([2], vec![1, 2]).unwrap();
        assert_eq!(i.to_float().as_slice(), &[1.0, 2.0]);
        let f = Matrix::from_vec([2], vec![1.9f32, -0.5]).unwrap();
        assert_eq!(f.to_int().as_slice(), &[1, 0]);
    }

    #[test]
    fn range_vector_matches_fig8_line27() {
        // Line = (x1::x2) * m + b
        let line = range_vector(0, 4).to_float().mul_scalar(2.0).add_scalar(1.0);
        assert_eq!(line.as_slice(), &[1.0, 3.0, 5.0, 7.0, 9.0]);
        assert!(range_vector(3, 2).is_empty());
    }

    #[test]
    fn sum_and_neg() {
        let a = Matrix::from_vec([3], vec![1i32, -2, 5]).unwrap();
        assert_eq!(a.sum(), 4);
        assert_eq!(a.neg().as_slice(), &[-1, 2, -5]);
    }
}

mod withloop_tests {
    use super::*;

    #[test]
    fn genarray_fills_generator_region() {
        // with([0,0] <= [i,j] < [2,2]) genarray([3,3], i*10+j): zeros
        // outside the generator.
        let m = genarray_seq([3, 3], &[0, 0], &[2, 2], |ix| (ix[0] * 10 + ix[1]) as i32).unwrap();
        assert_eq!(m.as_slice(), &[0, 1, 0, 10, 11, 0, 0, 0, 0]);
    }

    #[test]
    fn genarray_partial_region_offset() {
        let m = genarray_seq([4], &[1], &[3], |ix| ix[0] as i32).unwrap();
        assert_eq!(m.as_slice(), &[0, 1, 2, 0]);
    }

    #[test]
    fn genarray_superset_check_is_dynamic() {
        // Generator must be inside the shape (§III-A4 runtime check).
        let r = genarray_seq::<i32, _>([2, 2], &[0, 0], &[3, 2], |_| 0);
        assert!(matches!(r, Err(MatrixError::GeneratorOutsideShape { .. })));
    }

    #[test]
    fn genarray_bad_bounds() {
        assert!(matches!(
            genarray_seq::<i32, _>([2], &[1], &[0], |_| 0),
            Err(MatrixError::BadGenerator { .. })
        ));
        assert!(matches!(
            genarray_seq::<i32, _>([2], &[-1], &[2], |_| 0),
            Err(MatrixError::BadGenerator { .. })
        ));
    }

    #[test]
    fn parallel_genarray_matches_sequential() {
        let p = pool();
        let seq = genarray_seq([8, 9], &[1, 2], &[7, 9], |ix| (ix[0] * 100 + ix[1]) as i32).unwrap();
        let par = genarray(&p, [8, 9], &[1, 2], &[7, 9], |ix| {
            (ix[0] * 100 + ix[1]) as i32
        })
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn fold_add_temporal_mean_style() {
        // with([0] <= [k] < [p]) fold(+, 0, mat[i,j,k]) / p — Fig 1.
        let mat = Matrix::from_fn([2, 2, 5], |ix| (ix[2] + 1) as f32);
        let p = pool();
        let s = fold(&p, &[0], &[5], FoldOp::Add, 0.0f32, |ix| {
            mat.get_unchecked(&[0, 1, ix[0]])
        })
        .unwrap();
        assert_eq!(s, 15.0);
        assert_eq!(s / 5.0, 3.0);
    }

    #[test]
    fn fold_ops() {
        let vals = [3i32, 1, 4, 1, 5];
        let body = |ix: &[usize]| vals[ix[0]];
        assert_eq!(fold_seq(&[0], &[5], FoldOp::Add, 0, body).unwrap(), 14);
        assert_eq!(fold_seq(&[0], &[5], FoldOp::Mul, 1, body).unwrap(), 60);
        assert_eq!(fold_seq(&[0], &[5], FoldOp::Max, i32::MIN, body).unwrap(), 5);
        assert_eq!(fold_seq(&[0], &[5], FoldOp::Min, i32::MAX, body).unwrap(), 1);
    }

    #[test]
    fn fold_empty_generator_returns_base() {
        let p = pool();
        let s = fold(&p, &[2], &[2], FoldOp::Add, 7i32, |_| 1).unwrap();
        assert_eq!(s, 7);
    }

    #[test]
    fn parallel_fold_matches_sequential_int() {
        let p = pool();
        for n in [1i64, 2, 3, 17, 1000] {
            let seq = fold_seq(&[0], &[n], FoldOp::Add, 0i32, |ix| ix[0] as i32).unwrap();
            let par = fold(&p, &[0], &[n], FoldOp::Add, 0i32, |ix| ix[0] as i32).unwrap();
            assert_eq!(seq, par, "n = {n}");
        }
    }

    #[test]
    fn parallel_fold_max_no_identity() {
        let p = pool();
        let m = fold(&p, &[0], &[100], FoldOp::Max, i32::MIN, |ix| {
            -((ix[0] as i32 - 50).abs())
        })
        .unwrap();
        assert_eq!(m, 0);
    }

    #[test]
    fn modarray_replaces_generator_region() {
        let src = Matrix::from_fn([3, 3], |ix| (ix[0] * 3 + ix[1]) as i32);
        let out = modarray_seq(&src, &[1, 1], &[3, 3], |ix| -((ix[0] * 3 + ix[1]) as i32)).unwrap();
        // Positions outside the generator keep the source values.
        assert_eq!(out.get(&[0, 0]).unwrap(), 0);
        assert_eq!(out.get(&[0, 2]).unwrap(), 2);
        assert_eq!(out.get(&[1, 0]).unwrap(), 3);
        // Inside: replaced.
        assert_eq!(out.get(&[1, 1]).unwrap(), -4);
        assert_eq!(out.get(&[2, 2]).unwrap(), -8);
        // Source untouched (value semantics).
        assert_eq!(src.get(&[1, 1]).unwrap(), 4);
    }

    #[test]
    fn parallel_modarray_matches_sequential() {
        let src = Matrix::from_fn([7, 9], |ix| (ix[0] + ix[1] * 2) as f32);
        let p = pool();
        let f = |ix: &[usize]| (ix[0] * 100 + ix[1]) as f32;
        let a = modarray(&p, &src, &[2, 3], &[6, 8], f).unwrap();
        let b = modarray_seq(&src, &[2, 3], &[6, 8], f).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn modarray_superset_check() {
        let src = Matrix::fill([2, 2], 0i32);
        assert!(matches!(
            modarray_seq(&src, &[0, 0], &[3, 2], |_| 1),
            Err(MatrixError::GeneratorOutsideShape { .. })
        ));
    }

    #[test]
    fn nested_with_loops_fig1() {
        // Full Fig 1 lines 7-11: means = with([0,0]<=[i,j]<[m,n])
        //   genarray([m,n], with([0]<=[k]<[p]) fold(+, 0, mat[i,j,k]) / p)
        let (m, n, p) = (3usize, 4usize, 6usize);
        let mat = Matrix::from_fn([m, n, p], |ix| (ix[0] + ix[1] + ix[2]) as f32);
        let pl = pool();
        let means = genarray(&pl, [m, n], &[0, 0], &[m as i64, n as i64], |ij| {
            let s = fold_seq(&[0], &[p as i64], FoldOp::Add, 0.0f32, |k| {
                mat.get_unchecked(&[ij[0], ij[1], k[0]])
            })
            .unwrap();
            s / p as f32
        })
        .unwrap();
        for i in 0..m {
            for j in 0..n {
                let expect = (0..p).map(|k| (i + j + k) as f32).sum::<f32>() / p as f32;
                assert_eq!(means.get(&[i, j]).unwrap(), expect);
            }
        }
    }
}

mod map_tests {
    use super::*;

    #[test]
    fn matrix_map_equals_fig5_loop() {
        // matrixMap(f, ssh, [0,1]) ≡ for i: result[:,:,i] = f(ssh[:,:,i])
        let ssh = Matrix::from_fn([3, 4, 5], |ix| (ix[0] + 2 * ix[1] + 3 * ix[2]) as f32);
        let f = |s: &Matrix<f32>| s.mul_scalar(2.0);
        let p = pool();
        let mapped = matrix_map(&p, f, &ssh, &[0, 1]).unwrap();

        let mut expect = Matrix::init([3, 4, 5]);
        for t in 0..5 {
            let slice = ssh
                .index_get(&[Ix::All, Ix::All, Ix::At(t as i64)])
                .unwrap();
            let r = f(&slice);
            expect
                .index_set(&[Ix::All, Ix::All, Ix::At(t as i64)], &r)
                .unwrap();
        }
        assert_eq!(mapped, expect);
    }

    #[test]
    fn matrix_map_type_change_like_conncomp() {
        // Fig 4: float input, int labels out.
        let ssh = Matrix::from_fn([2, 2, 3], |ix| ix[2] as f32 - 1.0);
        let p = pool();
        let labels = matrix_map(&p, |s: &Matrix<f32>| s.lt_scalar(0.5).map(i32::from), &ssh, &[0, 1]).unwrap();
        assert_eq!(labels.shape().dims(), &[2, 2, 3]);
        assert_eq!(labels.get(&[0, 0, 0]).unwrap(), 1);
        assert_eq!(labels.get(&[0, 0, 2]).unwrap(), 0);
    }

    #[test]
    fn matrix_map_last_dim_time_series() {
        // matrixMap(scoreTS, data, [2]): map over dim 2, iterate dims 0, 1.
        let data = Matrix::from_fn([2, 3, 4], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as f32);
        let p = pool();
        let out = matrix_map(&p, |ts: &Matrix<f32>| ts.add_scalar(0.5), &data, &[2]).unwrap();
        assert_eq!(out.get(&[1, 2, 3]).unwrap(), 123.5);
        assert_eq!(out.shape(), data.shape());
    }

    #[test]
    fn map_seq_matches_parallel() {
        let data = Matrix::from_fn([4, 5, 6], |ix| (ix[0] + ix[1] + ix[2]) as f32);
        let f = |s: &Matrix<f32>| s.mul_scalar(3.0).add_scalar(-1.0);
        let p = pool();
        let a = matrix_map(&p, f, &data, &[1]).unwrap();
        let b = matrix_map_seq(f, &data, &[1]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn map_all_dims_is_whole_matrix_apply() {
        let m = Matrix::from_vec([2, 2], vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        let p = pool();
        let out = matrix_map(&p, |s: &Matrix<f32>| s.mul_scalar(10.0), &m, &[0, 1]).unwrap();
        assert_eq!(out.as_slice(), &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn map_shape_change_rejected() {
        let m = Matrix::fill([2, 4], 1.0f32);
        let p = pool();
        let r = matrix_map(
            &p,
            |s: &Matrix<f32>| s.index_get(&[Ix::Range(0, 1)]).unwrap(),
            &m,
            &[1],
        );
        assert!(matches!(r, Err(MatrixError::MapShapeChanged { .. })));
    }

    #[test]
    fn map_bad_dims_rejected() {
        let m = Matrix::fill([2, 2], 0i32);
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
        let m = Matrix::from_fn([3, 4, 5], |ix| (ix[0] * 20 + ix[1] * 5 + ix[2]) as f32 * 0.25);
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
        write_matrix(&p, &Matrix::fill([2], 1i32)).unwrap();
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
    fn matmul_kernels_match_matrix_matmul() {
        let am = Matrix::from_fn([3, 4], |ix| (ix[0] * 4 + ix[1]) as f32);
        let bm = Matrix::from_fn([4, 2], |ix| (ix[0] as f32) - (ix[1] as f32));
        let cm = am.matmul(&bm).unwrap();
        let mut c = vec![0.0f32; 6];
        matmul_naive(am.as_slice(), bm.as_slice(), &mut c, 3, 4, 2);
        assert_eq!(cm.as_slice(), c.as_slice());
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
        let am = Matrix::from_vec([m, k], a).unwrap();
        let bm = Matrix::from_vec([k, n], b).unwrap();
        assert_eq!(am.matmul(&bm).unwrap().as_slice(), want.as_slice());
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
    fn prop_genarray_parallel_eq_seq(
        m in 1usize..8, n in 1usize..8,
        l0 in 0i64..4, l1 in 0i64..4,
    ) {
        let u0 = (l0 + 1).min(m as i64);
        let u1 = (l1 + 1).min(n as i64);
        prop_assume!(l0 < u0 && l1 < u1);
        let p = ForkJoinPool::new(3);
        let f = |ix: &[usize]| (ix[0] * 31 + ix[1] * 7) as i32;
        let a = genarray(&p, [m, n], &[l0, l1], &[u0, u1], f).unwrap();
        let b = genarray_seq([m, n], &[l0, l1], &[u0, u1], f).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn prop_fold_add_is_sum(v in proptest::collection::vec(-100i32..100, 1..200)) {
        let n = v.len() as i64;
        let p = ForkJoinPool::new(4);
        let s = fold(&p, &[0], &[n], FoldOp::Add, 0i32, |ix| v[ix[0]]).unwrap();
        prop_assert_eq!(s, v.iter().sum::<i32>());
    }

    #[test]
    fn prop_index_get_set_roundtrip(
        rows in 1usize..6, cols in 1usize..6,
        r0 in 0usize..5, c0 in 0usize..5,
    ) {
        let r0 = r0 % rows;
        let c0 = c0 % cols;
        let m = Matrix::from_fn([rows, cols], |ix| (ix[0] * cols + ix[1]) as i32);
        // Read a sub-block, write it back: matrix unchanged.
        let spec = [Ix::Range(r0 as i64, rows as i64 - 1), Ix::Range(c0 as i64, cols as i64 - 1)];
        let block = m.index_get(&spec).unwrap();
        let mut m2 = m.clone();
        m2.index_set(&spec, &block).unwrap();
        prop_assert_eq!(m, m2);
    }

    #[test]
    fn prop_mask_index_len_equals_count(v in proptest::collection::vec(-50i32..50, 1..64)) {
        let n = v.len();
        let m = Matrix::from_vec([n], v.clone()).unwrap();
        let mask = m.gt_scalar(0);
        let selected = m.index_get(&[Ix::Mask(mask.clone())]).unwrap();
        prop_assert_eq!(selected.len(), mask.count_true());
        prop_assert!(selected.as_slice().iter().all(|&x| x > 0));
    }

    #[test]
    fn prop_elementwise_add_commutes(
        v1 in proptest::collection::vec(-1000i32..1000, 1..64),
    ) {
        let n = v1.len();
        let v2: Vec<i32> = v1.iter().map(|x| x * 3 % 17).collect();
        let a = Matrix::from_vec([n], v1).unwrap();
        let b = Matrix::from_vec([n], v2).unwrap();
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn prop_matrix_map_identity(m in 1usize..5, n in 1usize..5, p in 1usize..5) {
        let data = Matrix::from_fn([m, n, p], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as i32);
        let id = |s: &Matrix<i32>| s.clone();
        let out = matrix_map_seq(id, &data, &[0, 1]).unwrap();
        prop_assert_eq!(out, data);
    }
}
