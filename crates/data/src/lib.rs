//! # eblcio-data
//!
//! Scientific floating-point data sets and quality metrics for the
//! *"To Compress or Not To Compress"* reproduction.
//!
//! The paper evaluates error-bounded lossy compressors on four SDRBench
//! snapshots (CESM, HACC, NYX, S3D). Those files cannot be redistributed,
//! so this crate provides deterministic synthetic generators with matched
//! dimensionality, precision, and spectral character (see
//! `EXPERIMENTS.md`, "Substitutions", for the argument), together with:
//!
//! * [`NdArray`] — a dense 1–4 dimensional array of `f32`/`f64` samples,
//! * [`generators`] — SDRBench-analog field generators,
//! * [`inflate`] — the §VI-C dimension-inflation transform,
//! * [`metrics`] — PSNR / MSE / error-bound verification (paper Eqs. 1–2),
//! * [`stats`] — mean / 95 % confidence-interval machinery used by the
//!   measurement campaigns (§IV-C: "25 runs or until 95 % CI").

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod array;
pub mod element;
pub mod generators;
pub mod inflate;
pub mod metrics;
pub mod shape;
pub mod stats;
pub mod view;

pub use array::NdArray;
pub use element::Element;
pub use generators::{Dataset, DatasetKind, DatasetSpec, DatasetView};
pub use metrics::{compression_ratio, max_abs_error, max_rel_error, mse, psnr, QualityReport};
pub use shape::Shape;
pub use stats::{ConfidenceInterval, RunningStats};
pub use view::ArrayView;
