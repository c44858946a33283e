//! The slices of a cube that the mirror's `matrixMap` (§III-A5) maps over
//! with [`cmm_forkjoin::map_slices`], and the CMMX files the compiled
//! programs read and write.

use std::io;
use std::path::Path;

use cmm_loopir::{cmmx, Elem};

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
