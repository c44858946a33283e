//! The CMMX container codec: the one header parser and encoder behind
//! the interpreter's `readMatrix` / `writeMatrix`, shared by every
//! execution tier and by the native `cmm-eddy` mirror.
//!
//! The layout (identical to the emitted C runtime's
//! `cmm_read_mat`/`cmm_write_mat`):
//!
//! ```text
//! bytes 0..4   magic "CMMX"
//! byte  4      element tag (0 = i32, 1 = f32, 2 = bool)
//! byte  5      rank (1 ..= MAX_RANK)
//! bytes 6..8   reserved, zero
//! then         rank x 8-byte little-endian dimension sizes
//! then         product(dims) x 4-byte little-endian cells
//! ```
//!
//! Parsing is *exact-length* and works on the file's bytes, so nothing is
//! allocated from a size the file merely claims: a container must end
//! precisely at the last payload cell. Trailing bytes after the payload
//! and zero-rank or over-wide headers are rejected with typed errors.

use crate::ir::{Elem, MAX_RANK};

/// Why a byte buffer is not a valid CMMX container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmmxError {
    /// Too short for a header, or the magic is wrong.
    NotCmmx,
    /// The element tag does not match the requested element type.
    ElemMismatch {
        /// Tag of the element type the reader asked for.
        expected: u8,
        /// Tag byte the file carries.
        found: u8,
    },
    /// The header declares rank 0; every matrix has at least one axis.
    ZeroRank,
    /// The header declares a rank above [`MAX_RANK`].
    RankTooHigh {
        /// Declared rank.
        rank: usize,
    },
    /// The dimension table runs past the end of the file.
    TruncatedDims {
        /// Declared rank.
        rank: usize,
        /// Bytes actually present after the 8-byte header.
        have: usize,
    },
    /// The dimension product (or the payload size) overflows `usize`.
    Overflow {
        /// Declared dimension sizes.
        dims: Vec<usize>,
    },
    /// The payload is shorter than the dimensions require.
    Truncated {
        /// Total container size the header implies.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Bytes follow the last payload cell.
    TrailingBytes {
        /// Total container size the header implies.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl std::fmt::Display for CmmxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmmxError::NotCmmx => f.write_str("not a CMMX file"),
            CmmxError::ElemMismatch { expected, found } => {
                let expected = match expected {
                    0 => "I32",
                    1 => "F32",
                    _ => "Bool",
                };
                write!(f, "element type mismatch (file tag {found}, expected {expected})")
            }
            CmmxError::ZeroRank => f.write_str("invalid header: rank 0"),
            CmmxError::RankTooHigh { rank } => {
                write!(f, "invalid header: rank {rank} exceeds {MAX_RANK}")
            }
            CmmxError::TruncatedDims { rank, have } => write!(
                f,
                "truncated header: rank {rank} needs {} dimension bytes, have {have}",
                rank * 8
            ),
            CmmxError::Overflow { dims } => write!(f, "dimensions {dims:?} overflow"),
            CmmxError::Truncated { need, have } => {
                write!(f, "truncated file: need {need} bytes, have {have}")
            }
            CmmxError::TrailingBytes { expected, actual } => write!(
                f,
                "{} trailing byte(s) after the payload (expected {expected} bytes, have {actual})",
                actual - expected
            ),
        }
    }
}

impl std::error::Error for CmmxError {}

/// A validated container: dimensions plus the payload cell offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmmxHeader {
    /// Dimension sizes (rank 1 ..= [`MAX_RANK`]).
    pub dims: Vec<usize>,
    /// Byte offset of the first 4-byte cell.
    pub payload: usize,
    /// Element count (`dims` product).
    pub len: usize,
}

/// Tag byte the container stores for each element type.
fn elem_tag(elem: Elem) -> u8 {
    match elem {
        Elem::I32 => 0,
        Elem::F32 => 1,
        Elem::Bool => 2,
    }
}

/// Validate `bytes` as a CMMX container of `elem` cells.
///
/// Checks magic, element tag, a rank in `1..=MAX_RANK`, a complete
/// dimension table, and that the container is *exactly*
/// `8 + 8*rank + 4*len` bytes — no truncation, no trailing garbage.
pub fn parse(bytes: &[u8], elem: Elem) -> Result<CmmxHeader, CmmxError> {
    let tag = elem_tag(elem);
    if bytes.len() < 8 || &bytes[0..4] != b"CMMX" {
        return Err(CmmxError::NotCmmx);
    }
    if bytes[4] != tag {
        return Err(CmmxError::ElemMismatch {
            expected: tag,
            found: bytes[4],
        });
    }
    let rank = bytes[5] as usize;
    if rank == 0 {
        return Err(CmmxError::ZeroRank);
    }
    if rank > MAX_RANK {
        return Err(CmmxError::RankTooHigh { rank });
    }
    let mut off = 8;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let field: [u8; 8] = match bytes.get(off..off + 8).and_then(|s| s.try_into().ok()) {
            Some(f) => f,
            None => {
                return Err(CmmxError::TruncatedDims {
                    rank,
                    have: bytes.len() - 8,
                })
            }
        };
        dims.push(u64::from_le_bytes(field) as usize);
        off += 8;
    }
    let mut len: usize = 1;
    for &d in &dims {
        len = match len.checked_mul(d) {
            Some(n) => n,
            None => return Err(CmmxError::Overflow { dims }),
        };
    }
    let end = match len.checked_mul(4).and_then(|p| off.checked_add(p)) {
        Some(e) => e,
        None => return Err(CmmxError::Overflow { dims }),
    };
    if bytes.len() < end {
        return Err(CmmxError::Truncated {
            need: end,
            have: bytes.len(),
        });
    }
    if bytes.len() > end {
        return Err(CmmxError::TrailingBytes {
            expected: end,
            actual: bytes.len(),
        });
    }
    Ok(CmmxHeader {
        dims,
        payload: off,
        len,
    })
}

/// A validated container's cells as raw bits (bool cells normalize their
/// low byte to 0/1, matching the C runtime).
pub fn cell_bits<'a>(
    bytes: &'a [u8],
    header: &CmmxHeader,
    elem: Elem,
) -> impl Iterator<Item = u32> + 'a {
    bytes[header.payload..].chunks_exact(4).map(move |c| {
        let cell = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        if elem == Elem::Bool {
            u32::from(cell & 0xff != 0)
        } else {
            cell
        }
    })
}

/// A whole container of `elem` cells: the header for `dims`, then
/// `cells` as little-endian words.
pub fn encode(elem: Elem, dims: &[usize], cells: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * dims.len() + 4 * cells.len());
    out.extend_from_slice(b"CMMX");
    out.extend_from_slice(&[elem_tag(elem), dims.len() as u8, 0, 0]);
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for c in cells {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}
