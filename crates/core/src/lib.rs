//! # eblcio-core
//!
//! The paper's primary intellectual contribution, §III: a formal
//! framework deciding when error-bounded lossy compression is beneficial
//! for data writing — and the measurement campaign machinery (§IV) that
//! answers it empirically.
//!
//! * [`conditions`] — Eqs. 3–5: the time, energy, and quality conditions
//!   that must hold simultaneously,
//! * [`advisor`] — "to compress or not": sweeps codecs × bounds for a
//!   data set and I/O tool and recommends a configuration,
//! * [`campaign`] — repeated measurements with the paper's 25-run /
//!   95 %-CI protocol, emitting the rows behind every figure,
//! * [`experiment`] — the memoized measurement [`Sweep`] every figure
//!   of the reproduction reads its cells from.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod advisor;
pub mod campaign;
pub mod carbon;
pub mod conditions;
pub mod experiment;
pub mod workflow;

pub use advisor::{Advisor, Recommendation};
pub use campaign::{CampaignRunner, MeasuredCell, WallCell};
pub use carbon::{MediaClass, StorageFleet};
pub use conditions::{BenefitInputs, BenefitVerdict, Decision};
pub use experiment::{Sweep, PAPER_EPSILONS, PAPER_THREADS};
pub use workflow::{Campaign, CampaignTotals, DumpCost};
