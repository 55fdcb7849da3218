//! Meta-rule semi-lattices (MRSL) — the paper's primary contribution.
//!
//! An MRSL model is an *inference ensemble* learned from the complete part
//! of a relation and used to derive probability distributions for the
//! missing values of the incomplete part, yielding a disjoint-independent
//! probabilistic database.
//!
//! Learning (paper §III, Algorithm 1):
//! * [`assoc`] — association rules over frequent itemsets (Def. 2.5).
//! * [`meta_rule`] — meta-rules: grouped rules sharing a body, their
//!   smoothed CPD estimates and support weights (Def. 2.6).
//! * [`lattice`] — the per-attribute semi-lattice ordered by body
//!   subsumption (Defs. 2.7, 2.8), with voter matching.
//! * [`model`] — the MRSL model (one lattice per attribute, Def. 2.9) and
//!   the end-to-end learning pipeline.
//!
//! Inference (paper §IV–§V) — [`infer`]: one [`InferenceEngine`] per
//! strategy of the ensemble — [`SingleVoting`] (Algorithm 2),
//! [`GibbsSampler`] (§V-A), [`TupleDagWorkload`] (Algorithm 3) and the
//! [`IndependentBaseline`] the paper argues against in §V — all running
//! against an [`InferContext`]. [`infer_batch`] fans any engine over a
//! workload with deterministic per-tuple seeding (results are
//! bit-identical for any thread count).
//!
//! End to end:
//! * [`derive`](mod@derive) — learns a model and converts every incomplete
//!   tuple's estimate `Δt` into a block of a disjoint-independent
//!   probabilistic database ([`mrsl_probdb::ProbDb`]).
//! * [`lazy`] — query-targeted partial derivation (§VIII future work):
//!   the same blocks, only for the tuples a query depends on.
//!
//! Both paths send each tuple through one router: voting when one value
//! is missing, the caller's [`InferenceEngine`] when several are. An
//! engine value is the only way to pick the sampler.

#![forbid(unsafe_code)]

pub mod assoc;
pub mod config;
pub mod derive;
pub mod infer;
pub mod lattice;
pub mod lazy;
pub mod meta_rule;
pub mod model;

pub use config::{GibbsConfig, LearnConfig, VoterChoice, VotingConfig, VotingScheme};
pub use derive::{
    derive_probabilistic_db, derive_probabilistic_db_with_engine, DeriveConfig, DeriveOutput,
};
pub use infer::batch::infer_batch;
pub use infer::dag::{SamplingCost, TupleDag, WorkloadResult};
pub use infer::engine::{
    GibbsSampler, IndependentBaseline, InferContext, InferenceEngine, SingleVoting,
    TupleDagWorkload,
};
pub use infer::gibbs::JointEstimate;
pub use lattice::{MetaRuleId, Mrsl};
pub use lazy::{derive_catalog_for_query, LazyCatalogOutput, LazyRelationStats, LazySource};
pub use meta_rule::MetaRule;
pub use model::{LearnStats, MrslModel};
