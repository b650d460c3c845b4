//! Seeded violations of the workspace's architecture rules. Nothing
//! calls this code; it exists to be linted (see `Cargo.toml`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![allow(dead_code, unused_imports)]

mod error_hygiene;
mod inert;
mod lock_discipline;
mod nested_use;
mod panic_freedom;
mod storage_boundary;
mod unsafe_freedom;
mod waivers;
