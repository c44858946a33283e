//! The serve protocol's JSON is the workspace's: [`cmm_core::json`]. The
//! re-export keeps the path requests have always been parsed through.

pub use cmm_core::json::{parse, Json};
