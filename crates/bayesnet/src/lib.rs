//! Bayesian-network substrate for the experimental framework (paper §VI-A).
//!
//! The paper evaluates MRSL on synthetic data generated from Bayesian
//! networks: "our framework takes as input the description of the topology
//! of a Bayesian network … the BN Instance Generator instantiates network
//! parameters by randomly populating conditional probability distributions
//! … the BN Sampler uses forward sampling to generate a dataset". The
//! inferred distributions are scored against the **true** conditionals of
//! the generating network, which requires exact inference.
//!
//! * [`topology`] — DAG structure: nodes, cardinalities, parents, depth.
//! * [`builders`] — the topology families of Fig. 7: independent, chain
//!   (line-shaped), crown-shaped, and layered DAGs.
//! * [`catalog`] — the 20 concrete networks of Table I.
//! * [`network`] — instantiated networks: CPTs, joint probability, random
//!   (Dirichlet) instantiation.
//! * [`sampler`] — forward sampling of complete tuples.
//! * [`factor`] / [`infer`] — factors, variable elimination and full-joint
//!   enumeration for exact conditional queries `P(targets | evidence)`.

#![forbid(unsafe_code)]

pub mod builders;
pub mod catalog;
pub mod factor;
pub mod infer;
pub mod network;
pub mod sampler;
pub mod topology;

pub use catalog::{paper_networks, PaperNetwork};
pub use factor::Factor;
pub use infer::{conditional, conditional_brute_force};
pub use network::{BayesianNetwork, Cpt};
pub use topology::{NodeSpec, TopologyError, TopologySpec};
