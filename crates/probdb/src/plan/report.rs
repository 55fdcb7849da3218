//! Evaluation reports: the planner's choices made visible.
//!
//! Every answer carries an [`EvalReport`]: which physical path ran, why
//! the planner chose it ([`PlanClass`]), per-relation scan statistics
//! ([`RelationStats`]), and — for multi-relation queries — the safe-plan
//! decomposition ([`SafePlan`]) the classifier found (or why it found
//! none).

/// Physical evaluation path chosen by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// Exact extensional evaluation over the columnar stores. Also the
    /// path of *deterministic dissociation bounds*, which run the same
    /// recursion twice and never sample.
    ExactColumnar,
    /// Monte-Carlo world sampling.
    MonteCarlo,
    /// Deterministic dissociation bounds refined by Monte-Carlo sampling
    /// because the bracket exceeded
    /// [`crate::QueryEngineConfig::bounds_tolerance`].
    Hybrid,
}

/// Which machinery produced the answer: a freshly compiled bytecode
/// program, a cached one, or an evaluation that bypassed the plan cache.
///
/// Orthogonal to [`EvalPath`]: the path says *what* ran (exact columnar
/// arithmetic, sampling, hybrid), the route says *how it was planned and
/// driven* — and in particular whether planning was skipped entirely
/// because the [`crate::PlanCache`] already knew this query shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanRoute {
    /// Evaluated without the plan cache: a statistic with no compiled
    /// program (count distributions, marginals, ranking, value
    /// marginals), forced Monte Carlo, or the test-only reference
    /// interpreter ([`crate::testutil::interpreted`]).
    Uncached,
    /// Cold: the shape was planned, lowered to a program (bytecode, or a
    /// sampling verdict), inserted into the plan cache and run by the
    /// same executor a warm hit uses.
    Compiled,
    /// Warm: a [`crate::PlanCache`] hit — resolve/classify/dissociate
    /// were skipped and the cached program ran against current data.
    CacheHit,
}

/// Why the planner chose the path it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanClass {
    /// The query is safe (single-relation, or a hierarchical join whose
    /// blocks do not straddle join keys) and the statistic is extensional:
    /// exact evaluation.
    Liftable,
    /// Liftable, but the exact DP cost exceeds the configured budget.
    DpBudgetExceeded,
    /// Monte Carlo was forced by configuration.
    ForcedMonteCarlo,
    /// The join-variable structure is not hierarchical — the query is
    /// unsafe for extensional evaluation and samples instead.
    NonHierarchical,
    /// The shape is hierarchical but some block's selected alternatives
    /// disagree on a join key, correlating key groups that the extensional
    /// plan must treat as independent: Monte Carlo.
    KeyCorrelated,
    /// The statistic itself has no extensional evaluator for this shape
    /// (e.g. the count distribution of a join): Monte Carlo.
    UnliftableStatistic,
    /// The query is unsafe for exact extensional evaluation, but
    /// dissociating a join variable (or treating aliased scans of one
    /// relation as independent copies) yields safe plans whose answers
    /// are guaranteed upper/lower bounds on the true probability
    /// (Gatterbauer & Suciu). [`crate::Statistic::ProbabilityBounds`]
    /// evaluates those bounds deterministically; point statistics still
    /// sample.
    Dissociable,
}

/// The safe-plan decomposition of a query, as found by the classifier.
///
/// A hierarchical query decomposes recursively: pick the join-variable
/// class shared by every relation of a connected component, partition all
/// relations by that key (partitions are independent when no block
/// straddles keys), and recurse into the subcomponents the removed class
/// leaves behind. The leaves are single-relation scans whose existential
/// probability is a per-block product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafePlan {
    /// A single relation: `P(∃ match) = 1 - ∏_blocks (1 - p_block)`.
    Scan {
        /// The scanned relation.
        relation: String,
    },
    /// Independent partition on a join-variable class: the outcome for
    /// each key value is independent of every other key value, and within
    /// one key value the inputs are independent of each other.
    KeyPartition {
        /// Human-readable class label, e.g. `sensors.station = readings.station`.
        key: String,
        /// Sub-plans evaluated independently per key value.
        inputs: Vec<SafePlan>,
    },
    /// No safe plan exists; the query was routed to Monte Carlo.
    Unsafe {
        /// Why classification failed (non-hierarchical structure or a
        /// key-straddling block).
        reason: String,
    },
    /// A *dissociated* scan inside a [`SafePlan::KeyPartition`]: the scan
    /// does not bind the partition key, so one independent copy of it is
    /// replicated into every key branch. The surrounding plan is then a
    /// safe plan of the dissociated query, and its probability bounds the
    /// original query's (upper with original probabilities, lower with
    /// the dual propagation probabilities).
    Copy {
        /// The replicated scan's name (alias or relation name).
        relation: String,
        /// The key class the scan was dissociated on.
        key: String,
    },
}

impl SafePlan {
    /// Renders the decomposition as a one-line s-expression, e.g.
    /// `⨅[r.k = s.k](scan r, scan s)`.
    pub fn render(&self) -> String {
        match self {
            Self::Scan { relation } => format!("scan {relation}"),
            Self::KeyPartition { key, inputs } => {
                let parts: Vec<String> = inputs.iter().map(SafePlan::render).collect();
                format!("⨅[{key}]({})", parts.join(", "))
            }
            Self::Unsafe { reason } => format!("unsafe: {reason}"),
            Self::Copy { relation, key } => format!("copy {relation}∥[{key}]"),
        }
    }
}

/// Guaranteed brackets on a boolean query's probability, answered by
/// [`crate::Statistic::ProbabilityBounds`].
///
/// Safe queries collapse the bracket to the exact probability; unsafe
/// ones carry the dissociation bounds (deterministic, exact-path) and —
/// when the bracket was wider than
/// [`crate::QueryEngineConfig::bounds_tolerance`] — a Monte-Carlo point
/// estimate clamped into the bracket.
///
/// ```
/// use mrsl_probdb::ProbabilityBounds;
///
/// let bounds = ProbabilityBounds::exact(0.42);
/// assert!(bounds.is_exact(1e-12));
/// assert_eq!(bounds.best(), 0.42);
/// assert!(bounds.contains(0.42));
///
/// let bracket = ProbabilityBounds::bracket(0.3, 0.5);
/// assert!((bracket.width() - 0.2).abs() < 1e-12);
/// assert_eq!(bracket.best(), 0.4); // midpoint without an estimate
/// assert!(!bracket.contains(0.6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityBounds {
    /// Guaranteed lower bound on `P(result non-empty)`.
    pub lower: f64,
    /// Guaranteed upper bound on `P(result non-empty)`.
    pub upper: f64,
    /// Monte-Carlo point estimate, clamped into `[lower, upper]`; `None`
    /// when the bracket was within tolerance and no sampling ran.
    pub estimate: Option<f64>,
    /// Standard error of the estimate, when one was sampled.
    pub std_error: Option<f64>,
}

impl ProbabilityBounds {
    /// A collapsed bracket around an exactly known probability.
    pub fn exact(p: f64) -> Self {
        Self {
            lower: p,
            upper: p,
            estimate: None,
            std_error: None,
        }
    }

    /// A deterministic bracket without a sampled estimate.
    pub fn bracket(lower: f64, upper: f64) -> Self {
        Self {
            lower,
            upper,
            estimate: None,
            std_error: None,
        }
    }

    /// Width of the bracket, `upper - lower`.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Midpoint of the bracket.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Is the bracket collapsed (within `eps`) to a point?
    pub fn is_exact(&self, eps: f64) -> bool {
        self.width() <= eps
    }

    /// The best available point answer: the sampled estimate when one
    /// exists, the bracket midpoint otherwise.
    pub fn best(&self) -> f64 {
        self.estimate.unwrap_or_else(|| self.midpoint())
    }

    /// Does the bracket contain `p`?
    pub fn contains(&self, p: f64) -> bool {
        self.lower <= p && p <= self.upper
    }
}

/// Scan statistics of one relation touched by a query.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Relation name.
    pub relation: String,
    /// Total blocks in the relation.
    pub blocks_total: usize,
    /// Blocks whose selection probability the columnar pre-filter proved
    /// to be 0. On the exact path these are skipped by all downstream
    /// arithmetic; on the Monte-Carlo path the statistic is informational
    /// only — the world sampler still draws one alternative per block.
    pub blocks_pruned: usize,
    /// Blocks contributing non-zero probability mass.
    pub blocks_touched: usize,
    /// Certain rows scanned by the columnar filter.
    pub certain_rows: usize,
    /// Alternative rows scanned by the columnar filter.
    pub alt_rows: usize,
    /// Which inference engine (or learned-ensemble weights digest)
    /// derived this relation, when the derivation path recorded one via
    /// [`crate::ProbDb::set_provenance`]. `None` for hand-built or
    /// deserialized relations.
    pub provenance: Option<String>,
}

/// Per-query evaluation report: path, classification, per-relation scan
/// statistics and the safe-plan decomposition.
///
/// The flat `blocks_*`/`*_rows` fields aggregate over
/// [`EvalReport::relations`]; single-relation queries have exactly one
/// entry there, so the flat fields read the same as they did before the
/// catalog API.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Physical path taken.
    pub path: EvalPath,
    /// How the answer was planned and driven: interpreter, fresh
    /// compile, or plan-cache hit.
    pub route: PlanRoute,
    /// Planner classification behind the choice.
    pub plan: PlanClass,
    /// Total blocks across all scanned relations.
    pub blocks_total: usize,
    /// Pruned blocks across all scanned relations.
    pub blocks_pruned: usize,
    /// Touched blocks across all scanned relations.
    pub blocks_touched: usize,
    /// Certain rows scanned, across relations.
    pub certain_rows: usize,
    /// Alternative rows scanned, across relations.
    pub alt_rows: usize,
    /// Worlds sampled (0 on the exact path).
    pub mc_samples: usize,
    /// Per-relation statistics, in scan order.
    pub relations: Vec<RelationStats>,
    /// The safe-plan decomposition for join queries (`None` on
    /// single-relation queries, where the plan is trivially a scan).
    pub decomposition: Option<SafePlan>,
    /// What was dissociated to make the plan safe, when the answer came
    /// from dissociation bounds: one human-readable entry per dissociated
    /// variable, e.g. `` `levels` ⇢ [readings.level = levels.level] `` for
    /// a branch-replicated scan, or `` `r1`, `r2` ≡ `r` `` for aliased
    /// scans treated as independent copies. Empty otherwise.
    pub dissociated: Vec<String>,
}

impl EvalReport {
    pub(crate) fn new(
        path: EvalPath,
        route: PlanRoute,
        plan: PlanClass,
        relations: Vec<RelationStats>,
        samples: usize,
        decomposition: Option<SafePlan>,
        dissociated: Vec<String>,
    ) -> Self {
        // The configured budget counts only where the path sampled.
        let mc_samples = match path {
            EvalPath::ExactColumnar => 0,
            EvalPath::MonteCarlo | EvalPath::Hybrid => samples,
        };
        let sum = |f: fn(&RelationStats) -> usize| relations.iter().map(f).sum();
        Self {
            path,
            route,
            plan,
            blocks_total: sum(|r| r.blocks_total),
            blocks_pruned: sum(|r| r.blocks_pruned),
            blocks_touched: sum(|r| r.blocks_touched),
            certain_rows: sum(|r| r.certain_rows),
            alt_rows: sum(|r| r.alt_rows),
            mc_samples,
            relations,
            decomposition,
            dissociated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals_aggregate_relations() {
        let rel = |name: &str, blocks: usize, pruned: usize| RelationStats {
            relation: name.to_string(),
            blocks_total: blocks,
            blocks_pruned: pruned,
            blocks_touched: blocks - pruned,
            certain_rows: 10,
            alt_rows: blocks * 2,
            provenance: None,
        };
        let report = EvalReport::new(
            EvalPath::ExactColumnar,
            PlanRoute::Uncached,
            PlanClass::Liftable,
            vec![rel("a", 5, 2), rel("b", 3, 0)],
            0,
            None,
            Vec::new(),
        );
        assert_eq!(report.blocks_total, 8);
        assert_eq!(report.blocks_pruned, 2);
        assert_eq!(report.blocks_touched, 6);
        assert_eq!(report.certain_rows, 20);
        assert_eq!(report.alt_rows, 16);
        assert_eq!(report.relations.len(), 2);
    }

    #[test]
    fn safe_plan_renders_nested_structure() {
        let plan = SafePlan::KeyPartition {
            key: "r.k = s.k".into(),
            inputs: vec![
                SafePlan::Scan {
                    relation: "r".into(),
                },
                SafePlan::KeyPartition {
                    key: "s.y = t.y".into(),
                    inputs: vec![
                        SafePlan::Scan {
                            relation: "s".into(),
                        },
                        SafePlan::Scan {
                            relation: "t".into(),
                        },
                    ],
                },
            ],
        };
        assert_eq!(
            plan.render(),
            "⨅[r.k = s.k](scan r, ⨅[s.y = t.y](scan s, scan t))"
        );
        let unsafe_plan = SafePlan::Unsafe {
            reason: "non-hierarchical".into(),
        };
        assert!(unsafe_plan.render().starts_with("unsafe:"));
    }
}
