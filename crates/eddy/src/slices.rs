//! The mirror's `matrixMap` (§III-A5): a function applied to independent
//! slices of a cube in parallel, and the CMMX files the compiled programs
//! read and write.

use std::io;
use std::path::Path;
use std::sync::Mutex;

use cmm_forkjoin::{chunk_range, ForkJoinPool};
use cmm_loopir::{cmmx, Elem};

/// `f(0) ++ f(1) ++ … ++ f(count - 1)`, computed over the pool: each
/// participant maps its contiguous [`chunk_range`] of slice indices into
/// its own `Vec`, and the parts are concatenated in slice order, so the
/// result does not depend on the thread count.
pub fn map_slices<U: Send>(
    pool: &ForkJoinPool,
    count: usize,
    f: impl Fn(usize) -> Vec<U> + Sync,
) -> Vec<U> {
    let parts = Mutex::new(Vec::new());
    pool.run(|tid, nthreads| {
        let mut out = Vec::new();
        for k in chunk_range(count, nthreads, tid) {
            out.extend(f(k));
        }
        parts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((tid, out));
    });
    let mut parts = parts.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.sort_unstable_by_key(|&(tid, _)| tid);
    parts.into_iter().flat_map(|(_, out)| out).collect()
}

/// Frame `t` of a `lat × lon × time` cube: the `lat × lon` cells at time
/// `t`, gathered from their stride-`time` positions.
pub fn frame<T: Copy>(cube: &[T], [lat, lon, time]: [usize; 3], t: usize) -> Vec<T> {
    assert_eq!(cube.len(), lat * lon * time);
    cube.iter().skip(t).step_by(time).copied().collect()
}

/// Write a `float` matrix of extents `dims` to `path` as a CMMX file.
pub fn write_f32(path: impl AsRef<Path>, dims: &[usize], data: &[f32]) -> io::Result<()> {
    let cells: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
    std::fs::write(path, cmmx::encode(Elem::F32, dims, &cells))
}

/// Read a `float` CMMX file: its extents and its cells.
pub fn read_f32(path: impl AsRef<Path>) -> io::Result<(Vec<usize>, Vec<f32>)> {
    let (dims, cells) = read(path.as_ref(), Elem::F32)?;
    Ok((dims, cells.into_iter().map(f32::from_bits).collect()))
}

/// Read an `int` CMMX file: its extents and its cells.
pub fn read_i32(path: impl AsRef<Path>) -> io::Result<(Vec<usize>, Vec<i32>)> {
    let (dims, cells) = read(path.as_ref(), Elem::I32)?;
    Ok((dims, cells.into_iter().map(|c| c as i32).collect()))
}

fn read(path: &Path, elem: Elem) -> io::Result<(Vec<usize>, Vec<u32>)> {
    let bytes = std::fs::read(path)?;
    let header =
        cmmx::parse(&bytes, elem).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let cells = cmmx::cell_bits(&bytes, &header, elem).collect();
    Ok((header.dims, cells))
}
