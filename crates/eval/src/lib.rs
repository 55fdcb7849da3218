//! The paper's experimental framework (§VI).
//!
//! "Our experimental framework takes as input the description of the
//! topology of a Bayesian network, and generates an instance of the network
//! by randomly selecting probability distributions … Given a BN instance,
//! we sample it to generate a set of complete tuples of specified size. The
//! sample is then split into training and test. MRSL is learned from the
//! training set. The test set is further processed, and one or more
//! attribute values are replaced by a '?' in each tuple. Inference is then
//! run over the test set … accuracy … is evaluated by comparing to the
//! corresponding true probability distributions of the Bayesian network."
//!
//! * [`metrics`] — KL divergence, top-1 agreement, total variation.
//! * [`missing`] — uniform missing-value injection.
//! * [`framework`] — the per-cell pipeline: instance → sample → split →
//!   inject → learn → infer → score.
//! * [`runner`] — a thread-pool grid runner (cells are independent).
//! * [`report`] — paper-style tables with JSON export.
//! * [`experiments`] — one module per reproduced table / figure.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod framework;
pub mod metrics;
pub mod missing;
pub mod report;
pub mod runner;

pub use framework::{CellOutcome, CellSpec, EvalContext};
pub use metrics::{kl_divergence, top1_match, total_variation};
pub use report::Report;
