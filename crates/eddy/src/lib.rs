//! The spatio-temporal data-mining application of paper §IV: identifying
//! and tracking ocean eddies in sea-surface-height (SSH) data.
//!
//! Mesoscale eddies depress the sea surface at their core, leaving a
//! characteristic trough signature in the SSH time series of every point
//! they pass (Fig 7). The paper scores each point by the "area" between
//! each trough and the line connecting its flanking local maxima (Fig 8),
//! and separately labels connected components of thresholded SSH frames
//! (Fig 4).
//!
//! This crate provides:
//!
//! * [`ssh`] — a synthetic SSH generator standing in for the paper's
//!   satellite dataset (721 × 1440 × 954; see DESIGN.md for the
//!   substitution rationale): travelling Gaussian depressions over a
//!   seasonal cycle plus measurement noise, so the Fig 7 signatures are
//!   present by construction.
//! * [`score`] — the native implementation of `getTrough`,
//!   `computeArea` and `scoreTS` from Fig 8 over slices, mapped over the
//!   cube's time series in parallel.
//! * [`conncomp`] — connected-component labelling of binary frames
//!   (union-find), the `connComp` of Fig 4, plus the iterative
//!   thresholding detector built on it.
//! * [`slices`] — the mirror's `matrixMap`: a safe parallel map over the
//!   slices of a flat `Vec` cube, plus the CMMX file helpers over
//!   `cmm_loopir::cmmx` that the examples and tests feed programs with.
//! * [`programs`] — the same algorithms as extended-C source text,
//!   compiled and run through the full `cmm-core` pipeline; integration
//!   tests check them against the native implementations.

pub mod conncomp;
pub mod programs;
pub mod score;
pub mod slices;
pub mod ssh;

pub use conncomp::{connected_components, detect_eddies, label_frames, EddyParams};
pub use score::{compute_area, get_trough, score_all, score_ts};
pub use slices::{frame, read_f32, read_i32, write_f32};
pub use ssh::{synthetic_ssh, SshParams};

#[cfg(test)]
mod tests;
