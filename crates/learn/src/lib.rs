//! Learning on top of the derivation pipeline.
//!
//! The paper derives every tuple's `Δt` from one fixed inference strategy;
//! this crate learns two things the paper leaves open:
//!
//! * [`ensemble`] — **weighted inference ensembles**: an
//!   [`EnsembleEngine`] mixes the four existing engines (`single-voting`,
//!   `gibbs`, `independent`, `tuple-dag`) under per-engine weights, and
//!   [`fit_ensemble_weights`] learns those weights on held-out observed
//!   tuples by total likelihood, EM over per-instance responsibilities, or
//!   k-fold stacking. The fitted engine is a drop-in
//!   [`InferenceEngine`](mrsl_core::InferenceEngine), so it drives the
//!   whole derivation path through
//!   [`derive_probabilistic_db_with_engine`](mrsl_core::derive_probabilistic_db_with_engine)
//!   and the lazy `*_with_engine` variants.
//! * [`optimize`] — **tuple-probability learning**: [`fit_block_masses`]
//!   adjusts the block-alternative masses of a derived catalog to fit
//!   labeled query answers, descending the exact safe-plan gradients of
//!   [`CatalogEngine::probability_with_gradient`](mrsl_probdb::CatalogEngine::probability_with_gradient)
//!   with an Adam step projected back onto each block's probability
//!   simplex, and reports per-epoch train/validation loss.

#![forbid(unsafe_code)]

pub mod ensemble;
pub mod optimize;

pub use ensemble::{
    fit_ensemble_weights, standard_members, EnsembleEngine, EnsembleFitReport, LearnError,
    WeightStrategy,
};
pub use optimize::{fit_block_masses, LabeledQuery, MassFitConfig, MassFitReport};
