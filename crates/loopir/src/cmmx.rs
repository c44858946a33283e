//! CMMX containers for the interpreter's buffers: the element tag of
//! each [`Elem`] over the one codec in [`cmm_runtime::cmmx`] (layout and
//! validation rules are documented there), shared by every execution
//! tier.

pub use cmm_runtime::cmmx::{CmmxError, CmmxHeader};
use cmm_runtime::cmmx::{TAG_BOOL, TAG_F32, TAG_I32};

use crate::ir::Elem;

/// Tag byte the container stores for each element type.
pub fn elem_tag(elem: Elem) -> u8 {
    match elem {
        Elem::I32 => TAG_I32,
        Elem::F32 => TAG_F32,
        Elem::Bool => TAG_BOOL,
    }
}

/// Validate `bytes` as a CMMX container of `elem` cells.
pub fn parse(bytes: &[u8], elem: Elem) -> Result<CmmxHeader, CmmxError> {
    cmm_runtime::cmmx::parse(bytes, elem_tag(elem))
}

/// A validated container's cells as raw bits (bool cells normalize their
/// low byte to 0/1, matching the C runtime).
pub fn cell_bits<'a>(
    bytes: &'a [u8],
    header: &CmmxHeader,
    elem: Elem,
) -> impl Iterator<Item = u32> + 'a {
    header.cells(bytes).map(move |c| {
        let cell = u32::from_le_bytes(c);
        if elem == Elem::Bool {
            u32::from(cell & 0xff != 0)
        } else {
            cell
        }
    })
}

/// A whole container of `elem` cells.
pub fn encode(elem: Elem, dims: &[usize], cells: &[u32]) -> Vec<u8> {
    cmm_runtime::cmmx::encode(elem_tag(elem), dims, cells.iter().map(|c| c.to_le_bytes()))
}
