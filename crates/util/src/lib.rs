//! Shared utilities for the MRSL reproduction workspace.
//!
//! This crate deliberately has no dependency on the domain crates; it hosts
//! the small, generic building blocks the rest of the workspace relies on:
//!
//! * [`hash`] — an FxHash-based hasher and `FxHashMap`/`FxHashSet` aliases.
//!   Keys throughout the workspace are small integers or short integer
//!   slices, for which SipHash (the std default) is measurably slower.
//! * [`rng`] — seeded RNG construction and seed-derivation helpers so every
//!   stochastic component in the workspace is reproducible from one `u64`.
//! * [`dirichlet`] — Gamma/Dirichlet sampling used to instantiate random
//!   conditional probability tables.
//! * [`stats`] — streaming mean/variance and simple linear regression used
//!   by the experiment harness.
//! * [`table`] — a minimal ASCII table renderer for paper-style output.
//! * [`timer`] — a tiny wall-clock stopwatch.

#![forbid(unsafe_code)]

pub mod dirichlet;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod table;
pub mod timer;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::{derive_seed, seeded_rng};
pub use stats::{linear_fit, OnlineStats};
pub use table::Table;
pub use timer::Stopwatch;
