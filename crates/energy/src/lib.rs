//! # eblcio-energy
//!
//! Energy measurement substrate for the reproduction of the paper's
//! RAPL/PAPI methodology (§IV-B).
//!
//! The paper samples Intel RAPL package counters through PAPI and
//! integrates `E = Σ P(tᵢ)·Δt` over each compression / I/O phase, on
//! three Xeon generations (Table I). A joule is priced one of two ways:
//!
//! * [`rapl::RaplMeter`] — a real `/sys/class/powercap` reader
//!   (wraparound-safe), for hosts that expose the interface, and
//! * [`measure::energy_for_wall`] — the documented substitution: power
//!   is modeled from a per-CPU [`profile::CpuProfile`] (TDP, idle power,
//!   core scaling, memory power — derived from Table I) and integrated
//!   over the *measured wall time and thread activity* of the actual
//!   Rust workload. [`measure_compute`] is the timer around it.
//!
//! Cross-CPU comparisons (Figs. 5/7/10) come from each profile's
//! throughput and power scaling; see `EXPERIMENTS.md` ("How a joule is
//! priced") for the substitution argument.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod measure;
pub mod profile;
pub mod rapl;
pub mod units;

pub use measure::{measure_compute, Activity, Measurement};
pub use profile::{CpuGeneration, CpuProfile};
pub use units::{Joules, Seconds, Watts};
