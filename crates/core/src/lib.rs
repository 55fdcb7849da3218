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
//! Inference (paper §IV–§V) — one [`InferenceEngine`] per strategy of the
//! ensemble, all running against an [`InferContext`] that owns scratch,
//! the voted-CPD cache and seeding:
//! * [`SingleVoting`] — Algorithm 2: voting inference for one missing
//!   attribute (`all`/`best` voters, `averaged`/`weighted` schemes).
//! * [`GibbsSampler`] — ordered Gibbs sampling for multiple missing
//!   attributes, with a shared CPD cache.
//! * [`TupleDagWorkload`] — Algorithm 3: the tuple-DAG workload
//!   optimization that shares samples between tuples related by
//!   subsumption.
//! * [`IndependentBaseline`] — the independence-assuming baseline the
//!   paper argues against in §V (kept for ablation).
//!
//! [`infer_batch`] fans any engine over a workload on the shared rayon
//! executor, with deterministic per-tuple seeding (results are
//! bit-identical for any thread count).
//!
//! End to end:
//! * [`derive`](mod@derive) — learns a model and converts every incomplete
//!   tuple's estimate `Δt` into a block of a disjoint-independent
//!   probabilistic database ([`mrsl_probdb::ProbDb`]).
//! * [`lazy`] — query-targeted partial derivation (§VIII future work).

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
pub use infer::dag::{workload_engine, SamplingCost, TupleDag, WorkloadResult, WorkloadStrategy};
pub use infer::engine::{
    GibbsSampler, IndependentBaseline, InferContext, InferenceEngine, SingleVoting,
    TupleDagWorkload,
};
pub use infer::gibbs::JointEstimate;
pub use lattice::{MetaRuleId, Mrsl};
pub use lazy::{
    derive_catalog_for_query, derive_catalog_for_query_with_engine, derive_for_query,
    derive_for_query_with_engine, LazyCatalogOutput, LazyDisposition, LazyQueryOutput,
    LazyRelationStats, LazySelection, LazySource,
};
pub use meta_rule::MetaRule;
pub use model::{LearnStats, MrslModel};
