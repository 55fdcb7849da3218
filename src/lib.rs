//! Facade crate for the MRSL reproduction workspace.
//!
//! Re-exports the public API of every workspace crate under one roof so the
//! examples and integration tests can `use mrsl_repro::...`. See README.md
//! for a tour, the crate map, and how to run the examples, benches and the
//! `repro` experiment binary.

#![forbid(unsafe_code)]

pub use mrsl_bayesnet as bayesnet;
pub use mrsl_core as core;
pub use mrsl_eval as eval;
pub use mrsl_itemset as itemset;
pub use mrsl_learn as learn;
pub use mrsl_probdb as probdb;
pub use mrsl_relation as relation;
pub use mrsl_util as util;
