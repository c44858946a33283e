//! The `matrixMap` construct (§III-A5).
//!
//! `matrixMap(f, m, dims)` applies `f` to every sub-matrix of `m` spanned
//! by the dimensions listed in `dims`, implicitly iterating over all other
//! dimensions, and reassembles the results into a matrix of the same shape
//! (the element type may change — Fig 4 maps a `float`→`int` connected
//! components labelling over a 3-D dataset). The mapped function must
//! preserve the slice shape; violating that is a runtime error, matching
//! the paper's restriction that "the result is always the same size and
//! rank as the matrix getting mapped over".
//!
//! Slice applications are independent, so they are distributed over the
//! fork-join pool; this is the construct's main source of parallelism in
//! the ocean-eddy application (`matrixMap(scoreTS, data, [2])` maps over
//! 721 × 1440 time series at once).

use std::sync::Mutex;

use cmm_forkjoin::{chunk_range, ForkJoinPool};
use cmm_rc::RcBuf;

use crate::element::Element;
use crate::error::{MatrixError, Result};
use crate::matrix::Matrix;
use crate::shape::Shape;

/// Split `m`'s dimensions into mapped (`dims`) and implicit outer
/// dimensions; validate the request.
struct MapPlan {
    mapped: Vec<usize>,
    outer: Vec<usize>,
    slice_shape: Shape,
    outer_shape: Shape,
}

fn plan<T: Element>(m: &Matrix<T>, dims: &[usize]) -> Result<MapPlan> {
    let rank = m.rank();
    let valid = !dims.is_empty()
        && dims.len() <= rank
        && dims.windows(2).all(|w| w[0] < w[1])
        && dims.iter().all(|&d| d < rank);
    if !valid {
        return Err(MatrixError::BadMapDims {
            dims: dims.to_vec(),
            rank,
        });
    }
    let mapped = dims.to_vec();
    let outer: Vec<usize> = (0..rank).filter(|d| !mapped.contains(d)).collect();
    let slice_shape = Shape::new(mapped.iter().map(|&d| m.dim_size(d)).collect::<Vec<_>>());
    let outer_shape = Shape::new(outer.iter().map(|&d| m.dim_size(d)).collect::<Vec<_>>());
    Ok(MapPlan {
        mapped,
        outer,
        slice_shape,
        outer_shape,
    })
}

impl MapPlan {
    /// Gather the slice at the given outer index combination.
    fn extract<T: Element>(&self, m: &Matrix<T>, outer_idx: &[usize], src: &mut [usize]) -> Matrix<T> {
        for (o, &d) in outer_idx.iter().zip(&self.outer) {
            src[d] = *o;
        }
        let mut data = Vec::with_capacity(self.slice_shape.len());
        let mut cursor = vec![0usize; self.mapped.len()];
        for _ in 0..self.slice_shape.len() {
            for (c, &d) in cursor.iter().zip(&self.mapped) {
                src[d] = *c;
            }
            data.push(m.as_slice()[m.shape().offset_unchecked(src)]);
            for k in (0..cursor.len()).rev() {
                cursor[k] += 1;
                if cursor[k] < self.slice_shape.dim(k) {
                    break;
                }
                cursor[k] = 0;
            }
        }
        Matrix::from_parts(self.slice_shape.clone(), RcBuf::from_slice(&data))
    }

    /// Scatter a result slice back at the given outer index combination.
    ///
    /// # Safety
    /// Each outer index combination touches a disjoint set of offsets, so
    /// concurrent scatters from different combinations are safe.
    unsafe fn scatter<U: Element>(
        &self,
        writer: &cmm_rc::SharedWriter<'_, U>,
        full_shape: &Shape,
        outer_idx: &[usize],
        result: &Matrix<U>,
        dst: &mut [usize],
    ) {
        for (o, &d) in outer_idx.iter().zip(&self.outer) {
            dst[d] = *o;
        }
        let mut cursor = vec![0usize; self.mapped.len()];
        for &v in result.as_slice() {
            for (c, &d) in cursor.iter().zip(&self.mapped) {
                dst[d] = *c;
            }
            writer.write(full_shape.offset_unchecked(dst), v);
            for k in (0..cursor.len()).rev() {
                cursor[k] += 1;
                if cursor[k] < self.slice_shape.dim(k) {
                    break;
                }
                cursor[k] = 0;
            }
        }
    }
}

/// Parallel `matrixMap`. See the module docs for semantics.
///
/// Every slice's result is checked inside the region; if any changed the
/// slice shape, the error of the lowest such outer index is returned (the
/// same error at every thread count).
pub fn matrix_map<T, U, F>(
    pool: &ForkJoinPool,
    f: F,
    m: &Matrix<T>,
    dims: &[usize],
) -> Result<Matrix<U>>
where
    T: Element,
    U: Element,
    F: Fn(&Matrix<T>) -> Matrix<U> + Sync,
{
    let plan = plan(m, dims)?;
    let out_shape = m.shape().clone();
    let mut out = RcBuf::new(out_shape.len(), U::default());
    let outer_total = plan.outer_shape.len();
    // Lowest failing outer index and its error.
    let first_error: Mutex<Option<(usize, MatrixError)>> = Mutex::new(None);
    {
        let writer = out.shared_writer();
        pool.run(|tid, nthreads| {
            let mut src = vec![0usize; m.rank()];
            let mut dst = vec![0usize; m.rank()];
            let mut outer_idx = vec![0usize; plan.outer.len()];
            for k in chunk_range(outer_total, nthreads, tid) {
                plan.outer_shape.unravel(k, &mut outer_idx);
                let result = f(&plan.extract(m, &outer_idx, &mut src));
                if result.shape() != &plan.slice_shape {
                    let err = MatrixError::MapShapeChanged {
                        expected: plan.slice_shape.dims().to_vec(),
                        found: result.shape().dims().to_vec(),
                    };
                    let mut slot = first_error.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.as_ref().is_none_or(|(at, _)| k < *at) {
                        *slot = Some((k, err));
                    }
                    // The rest of this chunk has higher outer indices.
                    return;
                }
                // Safety: distinct outer combinations write disjoint offsets.
                unsafe { plan.scatter(&writer, &out_shape, &outer_idx, &result, &mut dst) };
            }
        });
    }
    match first_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some((_, err)) => Err(err),
        None => Ok(Matrix::from_parts(out_shape, out)),
    }
}
