//! Disjoint-independent probabilistic databases.
//!
//! The paper's output "adheres to the disjoint-independent model" (§I-A,
//! citing Dalvi & Suciu): each incomplete tuple gives rise to a *block* of
//! mutually exclusive complete tuples with probabilities summing to 1; a
//! possible world picks one alternative per block, independently across
//! blocks. This crate is the substrate that receives the derived model
//! **and** the query subsystem that answers questions over it:
//!
//! * [`block`] — blocks of mutually exclusive alternatives.
//! * [`database`] — [`ProbDb`]: certain tuples + blocks over one schema,
//!   stored once, in columns, and read back as rows on demand.
//! * [`mod@column`] — the columnar storage layer: dictionary-encoded `u16`
//!   columns, masses and block keys, and row bitmaps for vectorized
//!   predicate evaluation.
//! * [`predicate`] — the composable predicate algebra ([`Predicate`]:
//!   `Eq`/`In`/`Range`/`And`/`Or`/`Not`/`Any`), evaluable per tuple,
//!   three-valued on incomplete tuples, and vectorized over columns.
//! * [`world`] — possible-world semantics: enumeration (small databases)
//!   and world sampling.
//! * [`catalog`] — [`Catalog`]: a named collection of relations with
//!   dictionary-compatibility checks for join attributes.
//! * [`algebra`] — the composable query tree ([`Query`]:
//!   scan/filter/join/project) and the [`Statistic`] to compute about it.
//! * [`plan`] — the planner and the one way to query a relation:
//!   [`CatalogEngine`] classifies each query (single-relation
//!   statistics — selection marginals, expected counts, the count
//!   distribution, value marginals, top-k — and hierarchical join shapes
//!   evaluate exactly on the columnar stores, unsafe-but-dissociable
//!   shapes — non-hierarchical chains, aliased self-joins — answer
//!   [`Statistic::ProbabilityBounds`] with deterministic dissociation
//!   brackets, everything else samples joint worlds), routes it, and
//!   reports the choice — with the safe-plan decomposition — in an
//!   [`EvalReport`]. Liftable plans also expose exact mass gradients
//!   ([`CatalogEngine::probability_with_gradient`]) for tuple-probability
//!   learning.
//! * [`serve`] — the concurrent serving layer: [`ProbDbServer`] owns
//!   generations of immutable catalog snapshots, answers queries on a
//!   worker pool sharing one concurrent plan cache, and lets a single
//!   writer publish the next generation copy-on-write behind live
//!   readers.
//! * [`testutil`] — brute-force joint-world oracles every evaluator is
//!   tested against (shared by unit, integration and property suites),
//!   plus the recursive reference interpreter the bytecode VM must match
//!   bit for bit.

#![forbid(unsafe_code)]

pub mod algebra;
pub mod block;
pub mod catalog;
pub mod column;
pub mod database;
pub mod plan;
pub mod predicate;
pub mod serve;
pub mod testutil;
pub mod world;

pub use algebra::{Query, QueryNode, ScanRequirement, Statistic};
pub use block::{Alternative, Block, BlockError};
pub use catalog::Catalog;
pub use column::{Bitmap, ColumnSet, ColumnStore};
pub use database::{ProbDb, SEGMENT_LEN};
pub use plan::{
    dissociation_search_count, CatalogEngine, EvalPath, EvalReport, MassGradients, PlanCache,
    PlanCacheStats, PlanClass, PlanRoute, ProbabilityBounds, QueryAnswer, QueryEngineConfig,
    RankedTuple, RelationStats, SafePlan,
};
pub use predicate::Predicate;
pub use serve::{ProbDbServer, ServeConfig, Served, ServerHandle, ServerStats, Snapshot, Ticket};
pub use world::PossibleWorld;

use std::fmt;

/// Errors reported by the query subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbDbError {
    /// A Monte-Carlo estimator was asked for zero samples; estimates over
    /// an empty sample are undefined, so this is an error rather than a
    /// panic (callers pick the sample budget at runtime).
    NoSamples,
    /// A catalog already holds a relation under this name.
    DuplicateRelation(String),
    /// A query scanned a relation the catalog does not have.
    UnknownRelation(String),
    /// A query scanned the same relation twice; self-joins are not
    /// supported by the safe-plan machinery.
    SelfJoin(String),
    /// A selection was applied above a join; push filters below joins so
    /// each predicate ranges over one relation.
    FilterAboveJoin,
    /// A join with no attribute pairs (a cross product) was requested.
    EmptyJoinKeys,
    /// A `join_on_rel` anchor named a relation outside the left subtree.
    JoinAnchorNotInLeft(String),
    /// A join pair's attribute dictionaries disagree, so their `ValueId`s
    /// are not comparable. Each side is reported as `relation.attribute`.
    IncompatibleJoinDomains {
        /// Left side, as `relation.attribute`.
        left: String,
        /// Right side, as `relation.attribute`.
        right: String,
    },
    /// The requested statistic is only defined for single-relation
    /// queries (e.g. per-block marginals of a join have no single block
    /// order to report in).
    UnsupportedStatistic {
        /// The statistic's name.
        statistic: &'static str,
    },
    /// The serving layer dropped the request before answering: the
    /// server shut down, or the worker evaluating it died.
    ServerUnavailable,
    /// The server refused the request at admission: the job queue is at
    /// its configured [`serve::ServeConfig::max_queue_depth`] bound.
    /// Nothing was enqueued — back off and resubmit, or shed the load.
    Overloaded,
    /// The request's deadline passed before an answer was produced:
    /// either [`serve::Ticket::wait_timeout`] gave up waiting, or a
    /// worker dropped the job unevaluated because its submission
    /// deadline had already expired in the queue.
    DeadlineExceeded,
    /// The query's plan shape is not differentiable: mass gradients are
    /// only defined along the exact safe-plan route, so shapes that
    /// route to Monte Carlo or dissociation bounds cannot answer
    /// [`CatalogEngine::probability_with_gradient`].
    NotDifferentiable {
        /// The classifier's reason for rejecting the exact route.
        reason: String,
    },
}

impl fmt::Display for ProbDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSamples => {
                write!(
                    f,
                    "Monte-Carlo estimation needs at least one sample (n = 0)"
                )
            }
            Self::DuplicateRelation(name) => {
                write!(f, "catalog already has a relation named `{name}`")
            }
            Self::UnknownRelation(name) => write!(f, "no relation named `{name}` in the catalog"),
            Self::SelfJoin(name) => {
                write!(
                    f,
                    "relation `{name}` is scanned twice; self-joins are unsupported"
                )
            }
            Self::FilterAboveJoin => {
                write!(
                    f,
                    "filters must apply to a single relation; push them below joins"
                )
            }
            Self::EmptyJoinKeys => write!(f, "joins need at least one attribute pair"),
            Self::JoinAnchorNotInLeft(name) => {
                write!(f, "join anchor `{name}` is not part of the left subtree")
            }
            Self::IncompatibleJoinDomains { left, right } => {
                write!(
                    f,
                    "join attributes {left} and {right} have different dictionaries"
                )
            }
            Self::UnsupportedStatistic { statistic } => {
                write!(
                    f,
                    "the {statistic} statistic requires a single-relation query"
                )
            }
            Self::ServerUnavailable => {
                write!(f, "the server dropped the request before answering")
            }
            Self::Overloaded => {
                write!(
                    f,
                    "the server's job queue is full; request refused at admission"
                )
            }
            Self::DeadlineExceeded => {
                write!(
                    f,
                    "the request's deadline passed before an answer was produced"
                )
            }
            Self::NotDifferentiable { reason } => {
                write!(f, "query plan is not differentiable: {reason}")
            }
        }
    }
}

impl std::error::Error for ProbDbError {}
