//! Logical → physical query planning over the catalog.
//!
//! Gatterbauer & Suciu's lifted-inference line shows the useful split for
//! probabilistic query answering: *safe* plans admit fast extensional
//! evaluation, everything else needs sampling. For multi-relation
//! conjunctive queries the safe shapes are the **hierarchical** ones —
//! join-variable classes whose relation sets nest or are disjoint — and
//! over BID tables safety additionally needs every block's selected
//! alternatives to agree on the join keys (see [`mod@crate::algebra`] and
//! the classifier in this module's `classify` submodule). The
//! [`CatalogEngine`] routes accordingly:
//!
//! * hierarchical, key-consistent joins and all single-relation selection
//!   statistics evaluate exactly on the columnar stores
//!   ([`PlanClass::Liftable`]);
//! * expected counts are liftable for *every* shape (linearity of
//!   expectation) and stay exact;
//! * non-hierarchical shapes ([`PlanClass::NonHierarchical`]),
//!   key-straddling blocks ([`PlanClass::KeyCorrelated`]), statistic/shape
//!   combinations with no extensional evaluator
//!   ([`PlanClass::UnliftableStatistic`]) and out-of-budget DPs
//!   ([`PlanClass::DpBudgetExceeded`]) sample joint worlds instead;
//! * unsafe-but-dissociable queries ([`PlanClass::Dissociable`]) —
//!   non-hierarchical shapes and aliased self-joins with key-unique
//!   blocks — additionally answer [`Statistic::ProbabilityBounds`]
//!   with deterministic dissociation brackets (Gatterbauer & Suciu),
//!   sampling only when the bracket exceeds
//!   [`QueryEngineConfig::bounds_tolerance`] ([`EvalPath::Hybrid`]);
//! * [`QueryEngineConfig::force_monte_carlo`] routes every estimable
//!   query through sampling (cross-checking, demos).
//!
//! Every evaluation returns an [`EvalReport`] with the choice, the
//! per-relation scan statistics, and — for joins — the [`SafePlan`]
//! decomposition that justified (or failed) the exact route.
//!
//! Liftable plans are additionally *differentiable*: the safe plan is a
//! pure product/complement tree over the block-alternative masses, and
//! [`CatalogEngine::probability_with_gradient`] runs a reverse-mode
//! backward sweep over the interpreter recursion to return `∂P(Q)/∂m`
//! for every alternative mass — the machinery tuple-probability
//! learning (`mrsl_learn`) descends on.

pub(crate) mod classify;
mod compile;
mod dissociate;
mod exact;
mod grad;
mod mc;
mod report;
mod vm;

pub(crate) use compile::cache_tag as statistic_cache_tag;
pub use compile::{PlanCache, PlanCacheStats};
pub use dissociate::dissociation_search_count;
pub use grad::MassGradients;
pub use report::{
    EvalPath, EvalReport, PlanClass, PlanRoute, ProbabilityBounds, RelationStats, SafePlan,
};

use crate::algebra::{Flattened, Query, Statistic};
use crate::catalog::Catalog;
use crate::database::ProbDb;
use crate::montecarlo::{
    mc_count_distribution_compiled, mc_expected_count_compiled, CompiledSelection,
};
use crate::query::{self, RankedTuple};
use crate::ProbDbError;
use classify::{
    alias_groups, alias_live_mismatch, classify, key_straddle, resolve, CompiledTerm, Resolved,
};
use compile::{cache_tag, CachedPlan, CompiledProgram};
use dissociate::{BoundsPlan, DissociatedBounds};
use mrsl_relation::AttrId;
use std::sync::Arc;

/// Tunables of the query engines.
///
/// [`Statistic::Probability`], [`Statistic::ProbabilityBounds`] and
/// [`Statistic::ExpectedCount`] always lower to bytecode and reuse it
/// through the shape-keyed [`PlanCache`] ([`PlanRoute::Compiled`] on a
/// miss, [`PlanRoute::CacheHit`] after), unless Monte Carlo is forced;
/// every other statistic plans fresh ([`PlanRoute::Uncached`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEngineConfig {
    /// Worlds sampled on the Monte-Carlo path.
    pub mc_samples: usize,
    /// Seed for the Monte-Carlo path.
    pub mc_seed: u64,
    /// Largest block count for which the O(blocks²) exact count
    /// distribution stays on the exact path.
    pub max_exact_dp_blocks: usize,
    /// Route every estimable query through Monte Carlo regardless of
    /// liftability (ranking and value marginals have no sampling
    /// estimator and stay exact). Forced answers bypass the plan cache.
    pub force_monte_carlo: bool,
    /// Widest dissociation bracket [`Statistic::ProbabilityBounds`]
    /// accepts without refinement. Brackets wider than this trigger a
    /// Monte-Carlo point estimate inside the bracket
    /// ([`EvalPath::Hybrid`]); set it to `1.0` to never sample, `0.0` to
    /// always refine non-collapsed brackets.
    pub bounds_tolerance: f64,
    /// Capacity (in plans) of the [`PlanCache`] new engines construct;
    /// ignored by [`CatalogEngine::with_plan_cache`], which brings its
    /// own.
    pub plan_cache_capacity: usize,
    /// Key-range shard count for parallel plan execution. `0` (the
    /// default) auto-configures per fold: a fold shards 16 ways only
    /// when it spans at least a few thousand rows *and* both the ambient
    /// rayon pool and the host have more than one thread — small folds
    /// stay sequential regardless of pool size, because the fan-out
    /// overhead dwarfs them. Any nonzero value forces that many shards
    /// even on one thread (useful for tests and overhead measurements).
    /// Answers are **bit-identical at every setting** — sharding fixes
    /// the multiplication order to the sequential fold's.
    pub shards: usize,
}

impl Default for QueryEngineConfig {
    fn default() -> Self {
        Self {
            mc_samples: 10_000,
            mc_seed: 0x5eed,
            max_exact_dp_blocks: 4_096,
            force_monte_carlo: false,
            bounds_tolerance: 0.05,
            plan_cache_capacity: 128,
            shards: 0,
        }
    }
}

/// Answer of a planned query.
#[derive(Debug, Clone)]
pub enum QueryAnswer {
    /// Per-block probabilities, in block order.
    Marginals(Vec<f64>),
    /// A scalar count estimate; `std_error` is `Some` on the Monte-Carlo
    /// path.
    Count {
        /// Expected count (exact or estimated).
        mean: f64,
        /// Standard error of the estimate (Monte Carlo only).
        std_error: Option<f64>,
    },
    /// `d[k] = P(count = k)` (or a value marginal's distribution).
    Distribution(Vec<f64>),
    /// Ranked tuples, most probable first.
    Ranked(Vec<RankedTuple>),
    /// `P(result non-empty)`; `std_error` is `Some` on the Monte-Carlo
    /// path.
    Probability {
        /// The probability (exact or estimated).
        p: f64,
        /// Standard error of the estimate (Monte Carlo only).
        std_error: Option<f64>,
    },
    /// Guaranteed `[lower, upper]` brackets on `P(result non-empty)`,
    /// with a Monte-Carlo point estimate when the bracket was wider than
    /// [`QueryEngineConfig::bounds_tolerance`].
    Bounds(ProbabilityBounds),
}

/// The query subsystem's entry point: plans a [`Query`] tree against a
/// [`Catalog`] and evaluates the requested [`Statistic`] on the chosen
/// physical path.
///
/// ```
/// use mrsl_probdb::{Catalog, CatalogEngine, Predicate, ProbDb, Query, Statistic};
/// use mrsl_relation::Schema;
///
/// let schema = Schema::builder()
///     .attribute("k", ["a", "b"])
///     .build()
///     .unwrap();
/// let mut catalog = Catalog::new();
/// catalog.add("r", ProbDb::new(schema)).unwrap();
///
/// let engine = CatalogEngine::new(&catalog);
/// let (p, report) = engine.probability(&Query::scan("r")).unwrap();
/// assert_eq!(p, 0.0); // empty relation: no result tuple exists
/// assert_eq!(report.relations[0].relation, "r");
/// ```
#[derive(Debug, Clone)]
pub struct CatalogEngine<'a> {
    catalog: &'a Catalog,
    config: QueryEngineConfig,
    cache: Arc<PlanCache>,
}

impl<'a> CatalogEngine<'a> {
    /// An engine with default configuration.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_config(catalog, QueryEngineConfig::default())
    }

    /// An engine with explicit configuration and a fresh plan cache of
    /// [`QueryEngineConfig::plan_cache_capacity`] plans.
    pub fn with_config(catalog: &'a Catalog, config: QueryEngineConfig) -> Self {
        let cache = Arc::new(PlanCache::with_capacity(config.plan_cache_capacity));
        Self::with_plan_cache(catalog, config, cache)
    }

    /// An engine sharing an existing plan cache.
    ///
    /// The engine borrows the catalog, so mutating relations means
    /// rebuilding the engine — handing the old engine's
    /// [`CatalogEngine::plan_cache`] to the new one keeps the compiled
    /// plans warm across the mutation (stale entries invalidate
    /// themselves through the data-version guards).
    pub fn with_plan_cache(
        catalog: &'a Catalog,
        config: QueryEngineConfig,
        cache: Arc<PlanCache>,
    ) -> Self {
        Self {
            catalog,
            config,
            cache,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &QueryEngineConfig {
        &self.config
    }

    /// The catalog queries resolve against.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The shape-keyed compiled-plan cache (shareable across engines via
    /// [`CatalogEngine::with_plan_cache`]).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Classifies a query for a statistic: which physical path, and why.
    ///
    /// [`Statistic::ProbabilityBounds`] on a dissociable query plans as
    /// [`EvalPath::ExactColumnar`]; evaluation upgrades it to
    /// [`EvalPath::Hybrid`] if the bracket turns out wider than
    /// [`QueryEngineConfig::bounds_tolerance`] (the width is only known
    /// after the bounds run).
    pub fn plan(&self, q: &Query, stat: Statistic) -> Result<(EvalPath, PlanClass), ProbDbError> {
        let flat = q.flatten()?;
        let prepared = prepare(|name| self.catalog.get(name), &flat, stat, &self.config)?;
        Ok((prepared.path, prepared.plan))
    }

    /// Plans and evaluates `q` for `stat`.
    ///
    /// Predicates are simplified and compiled into bitmaps exactly once
    /// per evaluation; the evaluators and the [`EvalReport`]'s pruning
    /// statistics share the same scan.
    pub fn evaluate(
        &self,
        q: &Query,
        stat: Statistic,
    ) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
        evaluate_with(
            |name| self.catalog.get(name),
            q,
            stat,
            &self.config,
            &self.cache,
        )
    }

    /// Convenience: `P(result non-empty)` with its report.
    pub fn probability(&self, q: &Query) -> Result<(f64, EvalReport), ProbDbError> {
        match self.evaluate(q, Statistic::Probability)? {
            (QueryAnswer::Probability { p, .. }, report) => Ok((p, report)),
            _ => unreachable!("probability query answers with a probability"),
        }
    }

    /// Convenience: guaranteed probability bounds with their report.
    ///
    /// Safe queries collapse the bracket to the exact probability;
    /// dissociable unsafe queries (non-hierarchical shapes, aliased
    /// self-joins) get deterministic dissociation bounds, refined by a
    /// clamped Monte-Carlo estimate when wider than
    /// [`QueryEngineConfig::bounds_tolerance`]; everything else samples
    /// inside the trivial `[0, 1]` bracket. The report's
    /// [`EvalReport::dissociated`] names what was dissociated.
    pub fn probability_bounds(
        &self,
        q: &Query,
    ) -> Result<(ProbabilityBounds, EvalReport), ProbDbError> {
        match self.evaluate(q, Statistic::ProbabilityBounds)? {
            (QueryAnswer::Bounds(b), report) => Ok((b, report)),
            _ => unreachable!("probability-bounds query answers with bounds"),
        }
    }

    /// Convenience: expected result count with its report.
    pub fn expected_count(&self, q: &Query) -> Result<(f64, EvalReport), ProbDbError> {
        match self.evaluate(q, Statistic::ExpectedCount)? {
            (QueryAnswer::Count { mean, .. }, report) => Ok((mean, report)),
            _ => unreachable!("expected-count query answers with a count"),
        }
    }

    /// Convenience: result-count distribution with its report.
    pub fn count_distribution(&self, q: &Query) -> Result<(Vec<f64>, EvalReport), ProbDbError> {
        match self.evaluate(q, Statistic::CountDistribution)? {
            (QueryAnswer::Distribution(d), report) => Ok((d, report)),
            _ => unreachable!("count-distribution query answers with a distribution"),
        }
    }

    /// Convenience: per-block selection marginals (single-relation
    /// queries) with their report.
    pub fn marginals(&self, q: &Query) -> Result<(Vec<f64>, EvalReport), ProbDbError> {
        match self.evaluate(q, Statistic::Marginals)? {
            (QueryAnswer::Marginals(m), report) => Ok((m, report)),
            _ => unreachable!("marginals query answers with marginals"),
        }
    }

    /// Convenience: top-k (single-relation queries) with its report.
    pub fn top_k(
        &self,
        q: &Query,
        k: usize,
    ) -> Result<(Vec<RankedTuple>, EvalReport), ProbDbError> {
        match self.evaluate(q, Statistic::TopK(k))? {
            (QueryAnswer::Ranked(r), report) => Ok((r, report)),
            _ => unreachable!("top-k query answers with a ranking"),
        }
    }

    /// Convenience: a value marginal (single-relation queries) with its
    /// report.
    pub fn value_marginal(
        &self,
        q: &Query,
        attr: AttrId,
    ) -> Result<(Vec<f64>, EvalReport), ProbDbError> {
        match self.evaluate(q, Statistic::ValueMarginal(attr))? {
            (QueryAnswer::Distribution(d), report) => Ok((d, report)),
            _ => unreachable!("value-marginal query answers with a distribution"),
        }
    }

    /// `P(result non-empty)` together with its gradient in every
    /// block-alternative mass, by a reverse-mode backward sweep over the
    /// safe-plan recursion.
    ///
    /// Only classified-liftable queries are differentiable — the exact
    /// product/complement tree *is* the computational graph. Shapes that
    /// would route to Monte Carlo (non-hierarchical, key-correlated,
    /// aliased) return [`ProbDbError::NotDifferentiable`] with the
    /// classifier's reason. The probability comes from the reference
    /// interpreter's recursion, which [`CatalogEngine::probability`]'s
    /// bytecode reproduces bit for bit; the
    /// gradients feed the tuple-probability optimizer in `mrsl_learn`,
    /// which projects updates back onto each block's simplex and writes
    /// them through [`crate::ProbDb::set_block_masses`].
    pub fn probability_with_gradient(
        &self,
        q: &Query,
    ) -> Result<(f64, MassGradients), ProbDbError> {
        let flat = q.flatten()?;
        let resolved = resolve(&flat, |name| self.catalog.get(name))?;
        let compiled = compile_terms(&resolved);
        if resolved.terms.len() > 1 {
            let c = classify(&resolved, &compiled);
            if c.class != PlanClass::Liftable {
                let reason = match c.decomposition {
                    SafePlan::Unsafe { reason } => reason,
                    _ => format!("{:?} plans are not differentiable", c.class),
                };
                return Err(ProbDbError::NotDifferentiable { reason });
            }
        }
        let (p, grads) = grad::boolean_gradient(&resolved, &compiled);
        let relations = resolved
            .terms
            .iter()
            .zip(grads)
            .map(|(t, g)| (t.relation.clone(), g))
            .collect();
        Ok((p, MassGradients { relations }))
    }
}

/// A resolved, compiled, classified query — everything both `plan` and
/// `evaluate` need.
struct Prepared<'a> {
    resolved: Resolved<'a>,
    compiled: Vec<CompiledTerm<'a>>,
    path: EvalPath,
    plan: PlanClass,
    decomposition: Option<SafePlan>,
    /// How to answer [`Statistic::ProbabilityBounds`]; `None` for every
    /// other statistic.
    bounds_plan: Option<BoundsPlan>,
}

fn prepare<'a>(
    lookup: impl Fn(&str) -> Option<&'a ProbDb>,
    flat: &Flattened,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> Result<Prepared<'a>, ProbDbError> {
    let resolved = resolve(flat, lookup)?;
    let single = resolved.terms.len() == 1;
    if !single
        && matches!(
            stat,
            Statistic::Marginals | Statistic::TopK(_) | Statistic::ValueMarginal(_)
        )
    {
        return Err(ProbDbError::UnsupportedStatistic {
            statistic: stat.name(),
        });
    }
    let compiled = compile_terms(&resolved);
    let classification = (!single).then(|| classify(&resolved, &compiled));
    let mut decomposition = classification.as_ref().map(|c| c.decomposition.clone());
    let forced = config.force_monte_carlo;
    // Aliased scans of one relation share their block choices: no
    // independent-product evaluator (exact probability, mass-table
    // expected count) is sound over them.
    let aliased = !single && !alias_groups(&resolved).is_empty();
    let mut bounds_plan = None;
    let (path, plan) = match stat {
        Statistic::Probability => match &classification {
            Some(c) if c.class != PlanClass::Liftable => (EvalPath::MonteCarlo, c.class),
            _ if forced => (EvalPath::MonteCarlo, PlanClass::ForcedMonteCarlo),
            _ => (EvalPath::ExactColumnar, PlanClass::Liftable),
        },
        Statistic::ProbabilityBounds => match &classification {
            _ if forced => (EvalPath::MonteCarlo, PlanClass::ForcedMonteCarlo),
            None => (EvalPath::ExactColumnar, PlanClass::Liftable),
            Some(c) => {
                let plan = dissociate::plan_bounds(&resolved, &compiled, c.class);
                let route = match &plan {
                    BoundsPlan::Exact => (EvalPath::ExactColumnar, PlanClass::Liftable),
                    // Refinement may upgrade the path to Hybrid at
                    // evaluation time, once the bracket width is known.
                    BoundsPlan::Dissociate(_) => (EvalPath::ExactColumnar, PlanClass::Dissociable),
                    // No sound dissociation: the report records why.
                    BoundsPlan::Sample(reason) => {
                        let reason = reason.clone();
                        decomposition = Some(SafePlan::Unsafe { reason });
                        (EvalPath::MonteCarlo, c.class)
                    }
                };
                bounds_plan = Some(plan);
                route
            }
        },
        // Expected counts are liftable for every *alias-free* shape:
        // linearity of expectation needs neither hierarchy nor key
        // uniqueness, but it does need rows of different terms to be
        // independent, which aliased scans of one relation are not.
        Statistic::ExpectedCount => {
            if forced {
                (EvalPath::MonteCarlo, PlanClass::ForcedMonteCarlo)
            } else if aliased {
                let class = classification
                    .as_ref()
                    .map(|c| c.class)
                    .unwrap_or(PlanClass::Dissociable);
                (EvalPath::MonteCarlo, class)
            } else {
                (EvalPath::ExactColumnar, PlanClass::Liftable)
            }
        }
        Statistic::CountDistribution => {
            if !single {
                let plan = if forced {
                    PlanClass::ForcedMonteCarlo
                } else {
                    PlanClass::UnliftableStatistic
                };
                (EvalPath::MonteCarlo, plan)
            } else if forced {
                (EvalPath::MonteCarlo, PlanClass::ForcedMonteCarlo)
            } else if compiled[0].db.blocks().len() > config.max_exact_dp_blocks {
                (EvalPath::MonteCarlo, PlanClass::DpBudgetExceeded)
            } else {
                (EvalPath::ExactColumnar, PlanClass::Liftable)
            }
        }
        Statistic::Marginals => {
            if forced {
                (EvalPath::MonteCarlo, PlanClass::ForcedMonteCarlo)
            } else {
                (EvalPath::ExactColumnar, PlanClass::Liftable)
            }
        }
        // No sampling estimator: always exact, even when forced.
        Statistic::TopK(_) | Statistic::ValueMarginal(_) => {
            (EvalPath::ExactColumnar, PlanClass::Liftable)
        }
    };
    Ok(Prepared {
        resolved,
        compiled,
        path,
        plan,
        decomposition,
        bounds_plan,
    })
}

fn evaluate_with<'a>(
    lookup: impl Fn(&str) -> Option<&'a ProbDb>,
    q: &Query,
    stat: Statistic,
    config: &QueryEngineConfig,
    cache: &PlanCache,
) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
    let flat = q.flatten()?;
    // Forced Monte Carlo overrides every planning verdict, so its answers
    // are neither produced from nor stored into the cache.
    let Some(tag) = cache_tag(stat).filter(|_| !config.force_monte_carlo) else {
        return evaluate_uncached(prepare(&lookup, &flat, stat, config)?, stat, config);
    };
    let hash = flat.shape_hash();
    if let Some((plan, versions)) = cache.probe(tag, hash) {
        if plan.matches(&flat) {
            match execute_cached(&lookup, &plan, &versions, (tag, hash), stat, config, cache)? {
                Some(result) => {
                    cache.record_hit();
                    return Ok(result);
                }
                // Stale: schema or guarded data property changed.
                None => cache.invalidate(tag, hash),
            }
        }
    }
    cache.record_miss();
    evaluate_cold(&lookup, &flat, (tag, hash), stat, config, cache)
}

/// The warm preamble of a shape-verified cache hit: re-binds the entry
/// against current column data and hands it to [`execute`], or reports it
/// stale (`Ok(None)`) for invalidation and a cold replan.
///
/// Classification is skipped entirely. Its only data-dependent inputs are
/// the key-straddle and alias-live-mismatch guards: when any relation's
/// data version moved, both are recomputed (linear scans) and compared to
/// the recorded verdicts — unchanged verdicts revalidate the entry,
/// flipped ones condemn it.
fn execute_cached<'a, F>(
    lookup: &F,
    plan: &CachedPlan,
    recorded_versions: &[u64],
    (tag, hash): (u8, u64),
    stat: Statistic,
    config: &QueryEngineConfig,
    cache: &PlanCache,
) -> Result<Option<(QueryAnswer, EvalReport)>, ProbDbError>
where
    F: Fn(&str) -> Option<&'a ProbDb>,
{
    let Some((resolved, versions)) = plan.bind(lookup) else {
        return Ok(None);
    };
    // Register fast path: with every data stamp unchanged the guards
    // still hold and the memoized registers are still the data — skip
    // predicate compilation and register binding, run the fold alone.
    if versions.as_slice() == recorded_versions {
        if let Some(result) = run_prebound_fast(plan, &resolved, &versions, stat, config) {
            return Ok(Some(result));
        }
    }
    let compiled = compile_terms(&resolved);
    if versions.as_slice() != recorded_versions {
        let straddle = key_straddle(&resolved, &compiled).is_some();
        let mismatch = alias_live_mismatch(&resolved, &compiled).is_some();
        if straddle != plan.straddle || mismatch != plan.alias_mismatch {
            return Ok(None);
        }
        cache.refresh_versions(tag, hash, &versions);
    }
    execute(
        plan,
        &resolved,
        &compiled,
        &versions,
        stat,
        config,
        Some(cache),
    )
}

/// A cache miss: plan, lower the verdict to a program, capture it, and
/// run it through the same [`execute`] a warm hit uses — so the cold
/// answer memoizes its registers and the next hit goes straight to the
/// fold. The entry is cached only once it has answered.
fn evaluate_cold<'a>(
    lookup: &impl Fn(&str) -> Option<&'a ProbDb>,
    flat: &Flattened,
    (tag, hash): (u8, u64),
    stat: Statistic,
    config: &QueryEngineConfig,
    cache: &PlanCache,
) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
    let p = prepare(lookup, flat, stat, config)?;
    let (resolved, compiled) = (&p.resolved, &p.compiled);
    let program = match p.bounds_plan {
        _ if p.path == EvalPath::MonteCarlo => CompiledProgram::Sampled,
        Some(BoundsPlan::Dissociate(candidates)) => CompiledProgram::Bounds {
            programs: compile::compile_bounds(resolved, &candidates),
            candidates,
        },
        _ if stat == Statistic::ExpectedCount => {
            CompiledProgram::Count(compile::compile_count(resolved))
        }
        _ => CompiledProgram::Boolean(compile::compile_boolean(resolved)),
    };
    // The entry stores the planning-time verdicts: the pre-hybrid path and
    // the planner's decomposition (bounds answers re-derive the winning
    // candidate's decomposition at evaluation time).
    let verdict = (p.path, p.plan, p.decomposition);
    let (entry, versions) = CachedPlan::capture(flat, resolved, compiled, verdict, program);
    let entry = Arc::new(entry);
    let result = execute(&entry, resolved, compiled, &versions, stat, config, None)?
        .expect("a freshly lowered program answers its own statistic");
    cache.insert(tag, hash, entry, versions);
    Ok(result)
}

/// The one executor of cached plans, cold and warm: refreshes the
/// register memo (binding it from scratch on a cold miss, patching or
/// rebinding what moved on a warm hit), runs the program, refines wide
/// brackets by sampling, and memoizes the registers for the next hit.
/// `warm` is the cache a hit was served from ([`PlanRoute::CacheHit`]),
/// charged with the maintenance in [`PlanCacheStats::reg_patches`] /
/// [`PlanCacheStats::reg_rebinds`]; `None` on a cold miss
/// ([`PlanRoute::Compiled`]), whose first bind is not a rebuild.
/// `Ok(None)` when the program does not answer `stat` (impossible while
/// the statistic tag is part of the cache key; the caller replans
/// defensively instead of asserting).
fn execute(
    plan: &CachedPlan,
    resolved: &Resolved,
    compiled: &[CompiledTerm],
    versions: &[u64],
    stat: Statistic,
    config: &QueryEngineConfig,
    warm: Option<&PlanCache>,
) -> Result<Option<(QueryAnswer, EvalReport)>, ProbDbError> {
    let mut path = plan.path;
    if path == EvalPath::MonteCarlo && config.mc_samples == 0 {
        return Err(ProbDbError::NoSamples);
    }
    let classes = resolved.classes.len();
    let relations = relation_stats(compiled);
    let mut decomposition = plan.decomposition.clone();
    let mut dissociated: Vec<String> = Vec::new();
    let answer = if let CompiledProgram::Sampled = plan.program {
        sample(compiled, classes, stat, config)
    } else {
        let maint = compile::rebind_or_patch(plan, resolved, compiled, versions);
        if let Some(cache) = warm {
            cache.record_reg_maintenance(maint.patched, maint.rebound);
        }
        let regs = (maint.per_program.as_slice(), maint.count.as_deref());
        let Some(folded) = fold(plan, resolved, stat, regs, Some(compiled), config.shards) else {
            return Ok(None);
        };
        memoize_regs(plan, versions, resolved, relations.clone(), maint);
        match folded {
            Folded::Answer(answer) => answer,
            Folded::Bracket(eval) => {
                decomposition = Some(eval.plan);
                dissociated = eval.dissociated;
                let bracket = ProbabilityBounds::bracket(eval.lower, eval.upper);
                let (bounds, refined) = refine(bracket, compiled, classes, config);
                if refined {
                    path = EvalPath::Hybrid;
                }
                QueryAnswer::Bounds(bounds)
            }
        }
    };
    let route = match warm {
        Some(_) => PlanRoute::CacheHit,
        None => PlanRoute::Compiled,
    };
    let report = EvalReport::new(
        path,
        route,
        plan.plan_class,
        relations,
        config.mc_samples,
        decomposition,
        dissociated,
    );
    Ok(Some((answer, report)))
}

/// What folding a deterministic program produced.
enum Folded {
    /// The final answer.
    Answer(QueryAnswer),
    /// A dissociation bracket, with the winning candidate's decomposition,
    /// that a wide width may still refine by sampling.
    Bracket(DissociatedBounds),
}

/// Folds a deterministic cached program over bound registers: `regs` is
/// the register sets per program and the count program's mass tables
/// (the [`compile::BoundRegs`] layout). `None` for sampling verdicts, for
/// a program that does not answer `stat`, and for a single-relation
/// count without its compiled terms.
fn fold(
    plan: &CachedPlan,
    resolved: &Resolved,
    stat: Statistic,
    (regs, tables): (&[Vec<vm::TermRegs>], Option<&[exact::MassTable]>),
    compiled: Option<&[CompiledTerm]>,
    shards: usize,
) -> Option<Folded> {
    let answer = match (&plan.program, stat) {
        (CompiledProgram::Boolean(prog), Statistic::Probability) => QueryAnswer::Probability {
            p: vm::run_prebound_sharded(prog, &regs[0], shards),
            std_error: None,
        },
        // Safe shapes collapse the bracket to the exact probability.
        (CompiledProgram::Boolean(prog), Statistic::ProbabilityBounds) => QueryAnswer::Bounds(
            ProbabilityBounds::exact(vm::run_prebound_sharded(prog, &regs[0], shards)),
        ),
        (CompiledProgram::Count(prog), Statistic::ExpectedCount) => QueryAnswer::Count {
            mean: match (&prog.steps, tables) {
                (Some(steps), Some(tables)) => {
                    exact::run_mass_join_tables(steps, tables, prog.classes, shards)
                }
                _ => exact::single_expected_count(&compiled?[0]),
            },
            std_error: None,
        },
        (
            CompiledProgram::Bounds {
                candidates,
                programs,
            },
            Statistic::ProbabilityBounds,
        ) => {
            return Some(Folded::Bracket(compile::run_bounds_prebound(
                resolved,
                candidates,
                programs,
                regs,
                shards,
                Some(&plan.describe),
            )))
        }
        _ => return None,
    };
    Some(Folded::Answer(answer))
}

/// The unchanged-data fast path of a warm hit: fold the memoized
/// registers without compiling terms or binding anything, holding the
/// memo lock. `None` falls through to the full warm path — no memo, a
/// memo bound under other versions, a program that needs compiled terms
/// (single-relation counts, samplers), or a bracket wide enough to need a
/// Monte-Carlo refinement.
fn run_prebound_fast(
    plan: &CachedPlan,
    resolved: &Resolved,
    versions: &[u64],
    stat: Statistic,
    config: &QueryEngineConfig,
) -> Option<(QueryAnswer, EvalReport)> {
    let memo = plan.regs.lock().expect("register memo lock");
    let memo = memo.as_ref().filter(|m| m.versions == versions)?;
    let regs = (memo.per_program.as_slice(), memo.count.as_deref());
    let (answer, decomposition, dissociated) =
        match fold(plan, resolved, stat, regs, None, config.shards)? {
            Folded::Answer(answer) => (answer, plan.decomposition.clone(), Vec::new()),
            Folded::Bracket(eval) => {
                let bounds = ProbabilityBounds::bracket(eval.lower, eval.upper);
                if too_wide(&bounds, config) {
                    return None;
                }
                (
                    QueryAnswer::Bounds(bounds),
                    Some(eval.plan),
                    eval.dissociated,
                )
            }
        };
    let report = EvalReport::new(
        plan.path,
        PlanRoute::CacheHit,
        plan.plan_class,
        memo.stats.clone(),
        config.mc_samples,
        decomposition,
        dissociated,
    );
    Some((answer, report))
}

/// Answers a prepared query without the plan cache: forced Monte Carlo
/// and the statistics no program is compiled for (count distributions,
/// marginals, ranking, value marginals). The exact arms of the three
/// compiled statistics are the recursive reference interpreter, which
/// only [`evaluate_interpreted`] reaches — the engine compiles those.
fn evaluate_uncached(
    prepared: Prepared,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
    let Prepared {
        resolved,
        compiled,
        mut path,
        plan,
        mut decomposition,
        bounds_plan,
    } = prepared;
    if path == EvalPath::MonteCarlo && config.mc_samples == 0 {
        return Err(ProbDbError::NoSamples);
    }
    let classes = resolved.classes.len();
    let mut dissociated: Vec<String> = Vec::new();
    let ct = &compiled[0];
    let answer = match (stat, path, bounds_plan) {
        (_, EvalPath::MonteCarlo, _) => sample(&compiled, classes, stat, config),
        (Statistic::Probability, ..) => QueryAnswer::Probability {
            p: exact::boolean_probability(&resolved, &compiled),
            std_error: None,
        },
        (Statistic::ProbabilityBounds, _, Some(BoundsPlan::Dissociate(candidates))) => {
            let eval = dissociate::evaluate_bounds(&resolved, &compiled, &candidates);
            decomposition = Some(eval.plan);
            dissociated = eval.dissociated;
            let bracket = ProbabilityBounds::bracket(eval.lower, eval.upper);
            let (bounds, refined) = refine(bracket, &compiled, classes, config);
            if refined {
                path = EvalPath::Hybrid;
            }
            QueryAnswer::Bounds(bounds)
        }
        (Statistic::ProbabilityBounds, ..) => QueryAnswer::Bounds(ProbabilityBounds::exact(
            exact::boolean_probability(&resolved, &compiled),
        )),
        // Single relations keep the legacy arithmetic (certain matches
        // plus per-block marginals), which the count program reproduces.
        (Statistic::ExpectedCount, ..) => QueryAnswer::Count {
            mean: if classes == 0 && compiled.len() == 1 {
                exact::single_expected_count(ct)
            } else {
                exact::expected_join_count(&resolved, &compiled)
            },
            std_error: None,
        },
        (Statistic::CountDistribution, ..) => QueryAnswer::Distribution(query::poisson_binomial(
            ct.live_certain.count_ones(),
            &ct.db.columns().block_probs(&ct.live_alts),
        )),
        (Statistic::Marginals, ..) => {
            QueryAnswer::Marginals(ct.db.columns().block_probs(&ct.live_alts))
        }
        (Statistic::TopK(k), ..) => QueryAnswer::Ranked(query::top_k_from_bitmaps(
            ct.db,
            k,
            &ct.live_certain,
            &ct.live_alts,
        )),
        (Statistic::ValueMarginal(attr), ..) => {
            QueryAnswer::Distribution(exact::value_marginal(ct, attr))
        }
    };
    let report = EvalReport::new(
        path,
        PlanRoute::Uncached,
        plan,
        relation_stats(&compiled),
        config.mc_samples,
        decomposition,
        dissociated,
    );
    Ok((answer, report))
}

/// The recursive reference interpreter behind
/// [`crate::testutil::interpreted`]: the engine's planning verdicts and
/// samplers, but the exact `Probability`, `ProbabilityBounds` and
/// `ExpectedCount` paths recurse over row maps
/// (`exact::boolean_probability`, `dissociate::evaluate_bounds`, the
/// per-call mass join) instead of running bytecode. No plan cache.
pub(crate) fn evaluate_interpreted(
    catalog: &Catalog,
    q: &Query,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
    let flat = q.flatten()?;
    let prepared = prepare(|name| catalog.get(name), &flat, stat, config)?;
    evaluate_uncached(prepared, stat, config)
}

/// The Monte-Carlo answer to `stat`: joint-world sampling over the
/// compiled terms. Single relations use the per-table samplers for
/// counts, so answers stay bit-identical with the historical single-table
/// path.
fn sample(
    compiled: &[CompiledTerm],
    classes: usize,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> QueryAnswer {
    let (samples, seed) = (config.mc_samples, config.mc_seed);
    let single = (classes == 0 && compiled.len() == 1).then(|| &compiled[0]);
    let selection = |ct: &CompiledTerm| CompiledSelection {
        certain_count: ct.live_certain.count_ones(),
        alt_matches: ct.live_alts.clone(),
    };
    let join_counts = || mc::sample_join_counts(compiled, classes, samples, seed);
    match stat {
        Statistic::Probability => {
            let (p, se) = mc::probability_estimate(&join_counts());
            QueryAnswer::Probability {
                p,
                std_error: Some(se),
            }
        }
        // The only guaranteed bracket is the trivial one, refined by the
        // estimate.
        Statistic::ProbabilityBounds => {
            let (p, se) = mc::probability_estimate(&join_counts());
            QueryAnswer::Bounds(ProbabilityBounds {
                lower: 0.0,
                upper: 1.0,
                estimate: Some(p),
                std_error: Some(se),
            })
        }
        Statistic::ExpectedCount => {
            let (mean, se) = match single {
                Some(ct) => mc_expected_count_compiled(ct.db, &selection(ct), samples, seed),
                None => mc::count_estimate(&join_counts()),
            };
            QueryAnswer::Count {
                mean,
                std_error: Some(se),
            }
        }
        Statistic::CountDistribution => QueryAnswer::Distribution(match single {
            Some(ct) => mc_count_distribution_compiled(ct.db, &selection(ct), samples, seed),
            None => mc::count_histogram(&join_counts()),
        }),
        Statistic::Marginals => {
            QueryAnswer::Marginals(mc::mc_selection_marginals(&compiled[0], samples, seed))
        }
        Statistic::TopK(_) | Statistic::ValueMarginal(_) => {
            unreachable!("{stat:?} has no sampling estimator and always plans exact")
        }
    }
}

/// Whether a dissociation bracket is wider than
/// [`QueryEngineConfig::bounds_tolerance`] with a sample budget to refine
/// it. Decided per answer with the current config, never cached.
fn too_wide(bounds: &ProbabilityBounds, config: &QueryEngineConfig) -> bool {
    bounds.width() > config.bounds_tolerance && config.mc_samples > 0
}

/// Bracket-gated refinement: a [`too_wide`] bracket gains a clamped
/// Monte-Carlo point estimate (`true`: the path becomes
/// [`EvalPath::Hybrid`]).
fn refine(
    mut bounds: ProbabilityBounds,
    compiled: &[CompiledTerm],
    classes: usize,
    config: &QueryEngineConfig,
) -> (ProbabilityBounds, bool) {
    if !too_wide(&bounds, config) {
        return (bounds, false);
    }
    let counts = mc::sample_join_counts(compiled, classes, config.mc_samples, config.mc_seed);
    let (p, se) = mc::probability_estimate(&counts);
    bounds.estimate = Some(p.clamp(bounds.lower, bounds.upper));
    bounds.std_error = Some(se);
    (bounds, true)
}

/// Stores the registers an execution just bound into the cache entry's
/// version-guarded memo, together with the scan statistics the next
/// report would otherwise recompute.
fn memoize_regs(
    plan: &CachedPlan,
    versions: &[u64],
    resolved: &Resolved,
    stats: Vec<RelationStats>,
    maint: compile::RegsMaintenance,
) {
    *plan.regs.lock().expect("register memo lock") = Some(compile::BoundRegs {
        versions: versions.to_vec(),
        shard_versions: resolved
            .terms
            .iter()
            .map(|t| t.db.shard_versions().to_vec())
            .collect(),
        per_program: maint.per_program,
        count: maint.count,
        stats,
    });
}

/// Compiles every resolved term's predicate into its live-row bitmaps.
fn compile_terms<'a>(resolved: &Resolved<'a>) -> Vec<CompiledTerm<'a>> {
    resolved
        .terms
        .iter()
        .enumerate()
        .map(|(i, t)| CompiledTerm::compile(i, t, &resolved.classes))
        .collect()
}

fn relation_stats(compiled: &[CompiledTerm]) -> Vec<RelationStats> {
    compiled
        .iter()
        .map(|ct| {
            let cols = ct.db.columns();
            let pruned = ct.pruned_blocks();
            RelationStats {
                relation: ct.name.clone(),
                blocks_total: cols.block_count(),
                blocks_pruned: pruned,
                blocks_touched: cols.block_count() - pruned,
                certain_rows: cols.certain().rows(),
                alt_rows: cols.alternatives().rows(),
                provenance: ct.db.provenance().map(String::from),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Alternative, Block};
    use crate::catalog::Catalog;
    use crate::predicate::Predicate;
    use crate::testutil::{oracle, oracle_probability};
    use mrsl_relation::schema::fig1_schema;
    use mrsl_relation::{CompleteTuple, Schema, ValueId};
    use std::sync::Arc;

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    fn db() -> ProbDb {
        let mut db = ProbDb::new(fig1_schema());
        db.push_certain(CompleteTuple::from_values(vec![0, 0, 1, 0]))
            .unwrap();
        db.push_block(
            Block::new(
                0,
                vec![alt(vec![0, 0, 0, 0], 0.3), alt(vec![0, 0, 1, 0], 0.7)],
            )
            .unwrap(),
        )
        .unwrap();
        db.push_block(
            Block::new(
                1,
                vec![alt(vec![1, 0, 1, 0], 0.6), alt(vec![1, 0, 0, 1], 0.4)],
            )
            .unwrap(),
        )
        .unwrap();
        db.push_block(
            Block::new(
                2,
                vec![alt(vec![2, 1, 0, 0], 0.5), alt(vec![2, 1, 0, 1], 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    // ---------------------------------------------------------------
    // Single-table engine behavior (one-relation catalogs).
    // ---------------------------------------------------------------

    fn single_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add("db", db()).unwrap();
        catalog
    }

    #[test]
    fn liftable_queries_take_the_exact_path() {
        let catalog = single_catalog();
        let engine = CatalogEngine::new(&catalog);
        let pred = Predicate::eq(AttrId(2), ValueId(1));
        let q = Query::scan("db").filter(pred);
        let (count, report) = engine.expected_count(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
        assert_eq!(report.plan, PlanClass::Liftable);
        assert_eq!(report.mc_samples, 0);
        assert!((count - 2.3).abs() < 1e-12);
        // Block 2 has no inc=100K alternative: pruned.
        assert_eq!(report.blocks_total, 3);
        assert_eq!(report.blocks_pruned, 1);
        assert_eq!(report.blocks_touched, 2);
        assert_eq!(report.certain_rows, 1);
        assert_eq!(report.alt_rows, 6);
        // One relation, no join decomposition.
        assert_eq!(report.relations.len(), 1);
        assert!(report.decomposition.is_none());
    }

    #[test]
    fn dp_budget_routes_count_distribution_to_monte_carlo() {
        let catalog = single_catalog();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                max_exact_dp_blocks: 2,
                mc_samples: 30_000,
                ..QueryEngineConfig::default()
            },
        );
        let pred = Predicate::eq(AttrId(2), ValueId(1));
        let q = Query::scan("db").filter(pred.clone());
        let (answer, report) = engine.evaluate(&q, Statistic::CountDistribution).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        assert_eq!(report.plan, PlanClass::DpBudgetExceeded);
        assert_eq!(report.mc_samples, 30_000);
        let QueryAnswer::Distribution(mc_dist) = answer else {
            panic!("distribution expected");
        };
        let exact = query::count_distribution(catalog.get("db").unwrap(), &pred);
        for (k, &e) in exact.iter().enumerate() {
            assert!((mc_dist[k] - e).abs() < 0.02, "k={k}");
        }
        // Expected count stays exact: its cost is linear.
        let (_, report) = engine.expected_count(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
    }

    #[test]
    fn forced_monte_carlo_reports_standard_error() {
        let catalog = single_catalog();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: 20_000,
                ..QueryEngineConfig::default()
            },
        );
        let pred = Predicate::eq(AttrId(2), ValueId(1)).negate();
        let q = Query::scan("db").filter(pred.clone());
        let (answer, report) = engine.evaluate(&q, Statistic::ExpectedCount).unwrap();
        assert_eq!(report.plan, PlanClass::ForcedMonteCarlo);
        let QueryAnswer::Count { mean, std_error } = answer else {
            panic!("count answer expected");
        };
        let se = std_error.expect("MC path reports a standard error");
        let exact = query::expected_count(catalog.get("db").unwrap(), &pred);
        assert!((mean - exact).abs() < 4.0 * se + 0.02);
        // Ranking has no sampling estimator: stays exact even when forced.
        let (_, report) = engine.evaluate(&q, Statistic::TopK(3)).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
    }

    #[test]
    fn zero_sample_budget_is_an_error() {
        let catalog = single_catalog();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: 0,
                ..QueryEngineConfig::default()
            },
        );
        let q = Query::scan("db").filter(Predicate::any());
        let e = engine.expected_count(&q);
        assert!(matches!(e, Err(ProbDbError::NoSamples)));
        // Every sampled query shape refuses a zero budget the same way.
        let e = engine.evaluate(&q, Statistic::Marginals);
        assert!(matches!(e, Err(ProbDbError::NoSamples)));
        let e = engine.evaluate(&q, Statistic::CountDistribution);
        assert!(matches!(e, Err(ProbDbError::NoSamples)));
    }

    #[test]
    fn mc_selection_marginals_agree_with_exact() {
        let catalog = single_catalog();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: 30_000,
                ..QueryEngineConfig::default()
            },
        );
        let pred = Predicate::is_in(AttrId(3), [ValueId(1)]);
        let q = Query::scan("db").filter(pred.clone());
        let (answer, report) = engine.evaluate(&q, Statistic::Marginals).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        let QueryAnswer::Marginals(mc) = answer else {
            panic!("marginals expected");
        };
        let exact = query::block_selection_probs(catalog.get("db").unwrap(), &pred);
        for (b, (&m, &e)) in mc.iter().zip(&exact).enumerate() {
            assert!((m - e).abs() < 0.02, "block {b}: {m} vs {e}");
        }
    }

    #[test]
    fn value_marginal_reports_no_pruning() {
        let catalog = single_catalog();
        let engine = CatalogEngine::new(&catalog);
        let (m, report) = engine
            .value_marginal(&Query::scan("db"), AttrId(0))
            .unwrap();
        assert_eq!(report.blocks_pruned, 0);
        assert_eq!(report.blocks_touched, 3);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    // ---------------------------------------------------------------
    // Multi-relation planning: brute-force cross-checks.
    // ---------------------------------------------------------------

    fn station_schema(extra: &str, values: [&str; 2]) -> Arc<Schema> {
        Schema::builder()
            .attribute("station", ["s0", "s1", "s2"])
            .attribute(extra, values)
            .build()
            .unwrap()
    }

    /// sensors(station, kind): one certain outdoor sensor at s0, one block
    /// with station observed (s1) and kind inferred.
    fn sensors() -> ProbDb {
        let mut db = ProbDb::new(station_schema("kind", ["indoor", "outdoor"]));
        db.push_certain(CompleteTuple::from_values(vec![0, 1]))
            .unwrap();
        db.push_block(Block::new(0, vec![alt(vec![1, 0], 0.5), alt(vec![1, 1], 0.5)]).unwrap())
            .unwrap();
        db
    }

    /// readings(station, level): one certain high reading at s1, blocks at
    /// s0 and s2 with inferred level.
    fn readings() -> ProbDb {
        let mut db = ProbDb::new(station_schema("level", ["low", "high"]));
        db.push_certain(CompleteTuple::from_values(vec![1, 1]))
            .unwrap();
        db.push_block(Block::new(0, vec![alt(vec![0, 0], 0.7), alt(vec![0, 1], 0.3)]).unwrap())
            .unwrap();
        db.push_block(Block::new(1, vec![alt(vec![2, 0], 0.6), alt(vec![2, 1], 0.4)]).unwrap())
            .unwrap();
        db
    }

    fn sensors_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add("sensors", sensors()).unwrap();
        catalog.add("readings", readings()).unwrap();
        catalog
    }

    #[test]
    fn hierarchical_join_probability_is_exact() {
        let catalog = sensors_catalog();
        let engine = CatalogEngine::new(&catalog);
        let lpred = Predicate::eq(AttrId(1), ValueId(1)); // kind = outdoor
        let rpred = Predicate::eq(AttrId(1), ValueId(1)); // level = high
        let q = Query::scan("sensors").filter(lpred.clone()).join_on(
            Query::scan("readings").filter(rpred.clone()),
            [(AttrId(0), AttrId(0))],
        );
        let (path, plan) = engine.plan(&q, Statistic::Probability).unwrap();
        assert_eq!(path, EvalPath::ExactColumnar);
        assert_eq!(plan, PlanClass::Liftable);
        let (p, report) = engine.probability(&q).unwrap();
        let brute = oracle(&catalog, &q, 100_000).unwrap();
        let (brute_p, brute_e) = (brute.probability, brute.expected_count);
        assert!((p - brute_p).abs() < 1e-12, "{p} vs {brute_p}");
        // The decomposition partitions on the shared station key.
        let Some(SafePlan::KeyPartition { key, inputs }) = &report.decomposition else {
            panic!("expected a key partition, got {:?}", report.decomposition);
        };
        assert_eq!(key, "sensors.station = readings.station");
        assert_eq!(inputs.len(), 2);
        assert_eq!(report.relations.len(), 2);
        // The exact expected count agrees with brute force too.
        let (e, report) = engine.expected_count(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
        assert!((e - brute_e).abs() < 1e-12, "{e} vs {brute_e}");
    }

    #[test]
    fn hierarchical_join_monte_carlo_agrees_with_exact() {
        let catalog = sensors_catalog();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: 30_000,
                ..QueryEngineConfig::default()
            },
        );
        let q = Query::scan("sensors")
            .filter(Predicate::eq(AttrId(1), ValueId(1)))
            .join_on(
                Query::scan("readings").filter(Predicate::eq(AttrId(1), ValueId(1))),
                [(AttrId(0), AttrId(0))],
            );
        let (answer, report) = engine.evaluate(&q, Statistic::Probability).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        assert_eq!(report.plan, PlanClass::ForcedMonteCarlo);
        let QueryAnswer::Probability { p, std_error } = answer else {
            panic!("probability expected");
        };
        let se = std_error.expect("MC reports a standard error").max(1e-9);
        let brute = oracle(&catalog, &q, 100_000).unwrap();
        let (brute_p, brute_e) = (brute.probability, brute.expected_count);
        assert!((p - brute_p).abs() < 4.0 * se + 0.01, "{p} vs {brute_p}");
        // Sampled expected count and count distribution agree as well.
        let (mean, _) = engine.expected_count(&q).unwrap();
        assert!((mean - brute_e).abs() < 0.05, "{mean} vs {brute_e}");
        let (dist, report) = engine.count_distribution(&q).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let dist_mean: f64 = dist.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
        assert!((dist_mean - brute_e).abs() < 0.05);
    }

    #[test]
    fn key_straddling_block_routes_to_monte_carlo() {
        // A sensors block whose alternatives sit at *different* stations:
        // the station key is correlated inside the block, so the exact
        // independent partition is unsound and the planner must sample.
        let mut straddling = ProbDb::new(station_schema("kind", ["indoor", "outdoor"]));
        straddling
            .push_block(Block::new(0, vec![alt(vec![0, 1], 0.5), alt(vec![1, 1], 0.5)]).unwrap())
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("sensors", straddling).unwrap();
        catalog.add("readings", readings()).unwrap();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                mc_samples: 40_000,
                ..QueryEngineConfig::default()
            },
        );
        let q = Query::scan("sensors").join_on("readings", [(AttrId(0), AttrId(0))]);
        let (path, plan) = engine.plan(&q, Statistic::Probability).unwrap();
        assert_eq!(path, EvalPath::MonteCarlo);
        assert_eq!(plan, PlanClass::KeyCorrelated);
        let (p, report) = engine.probability(&q).unwrap();
        let Some(SafePlan::Unsafe { reason }) = &report.decomposition else {
            panic!("expected an unsafe decomposition");
        };
        assert!(reason.contains("straddles"), "{reason}");
        let brute = oracle(&catalog, &q, 100_000).unwrap();
        assert!(
            (p - brute.probability).abs() < 0.02,
            "{p} vs {}",
            brute.probability
        );
        // Expected count does not need key uniqueness: still exact.
        let (e, report) = engine.expected_count(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
        assert!((e - brute.expected_count).abs() < 1e-12);
    }

    #[test]
    fn nested_hierarchical_query_is_exact() {
        // R(x), S(x, y, ok), T(x, y, ok) with selections ok=1 on S and T:
        // class {R.x, S.x, T.x} nests class {S.y, T.y} — hierarchical with
        // real recursion depth. Uncertainty lives in the `ok` attribute so
        // every block keeps a unique (x, y) join key among its *selected*
        // alternatives (blocks whose uncertainty spanned join keys would
        // be key-correlated and routed to Monte Carlo instead).
        let three = Schema::builder()
            .attribute("x", ["x0", "x1"])
            .attribute("y", ["y0", "y1"])
            .attribute("ok", ["no", "yes"])
            .build()
            .unwrap();
        let two = Schema::builder()
            .attribute("x", ["x0", "x1"])
            .attribute("ok", ["no", "yes"])
            .build()
            .unwrap();
        let mut r = ProbDb::new(two);
        r.push_block(Block::new(0, vec![alt(vec![0, 0], 0.6), alt(vec![0, 1], 0.4)]).unwrap())
            .unwrap();
        r.push_block(Block::new(1, vec![alt(vec![1, 0], 0.5), alt(vec![1, 1], 0.5)]).unwrap())
            .unwrap();
        let mut s = ProbDb::new(three.clone());
        s.push_certain(CompleteTuple::from_values(vec![0, 0, 1]))
            .unwrap();
        s.push_block(
            Block::new(0, vec![alt(vec![1, 0, 0], 0.5), alt(vec![1, 0, 1], 0.5)]).unwrap(),
        )
        .unwrap();
        s.push_block(
            Block::new(1, vec![alt(vec![0, 1, 0], 0.2), alt(vec![0, 1, 1], 0.8)]).unwrap(),
        )
        .unwrap();
        let mut t = ProbDb::new(three);
        t.push_block(
            Block::new(0, vec![alt(vec![0, 0, 0], 0.3), alt(vec![0, 0, 1], 0.7)]).unwrap(),
        )
        .unwrap();
        t.push_block(
            Block::new(1, vec![alt(vec![0, 1, 0], 0.6), alt(vec![0, 1, 1], 0.4)]).unwrap(),
        )
        .unwrap();
        t.push_certain(CompleteTuple::from_values(vec![1, 1, 1]))
            .unwrap();

        let ok = Predicate::eq(AttrId(2), ValueId(1));
        let r_ok = Predicate::eq(AttrId(1), ValueId(1));
        let mut catalog = Catalog::new();
        catalog.add("r", r).unwrap();
        catalog.add("s", s).unwrap();
        catalog.add("t", t).unwrap();
        let engine = CatalogEngine::new(&catalog);
        let q = Query::scan("r")
            .filter(r_ok)
            .join_on(
                Query::scan("s").filter(ok.clone()),
                [(AttrId(0), AttrId(0))],
            )
            .join_on_rel(
                "s",
                Query::scan("t").filter(ok.clone()),
                [(AttrId(0), AttrId(0)), (AttrId(1), AttrId(1))],
            );
        let (path, plan) = engine.plan(&q, Statistic::Probability).unwrap();
        assert_eq!(path, EvalPath::ExactColumnar);
        assert_eq!(plan, PlanClass::Liftable);
        let (p, report) = engine.probability(&q).unwrap();
        // Brute force over the product of the three world sets.
        let brute_p = oracle_probability(&catalog, &q).unwrap();
        assert!((p - brute_p).abs() < 1e-12, "{p} vs {brute_p}");
        // The decomposition nests: partition on x, then on y inside {s, t}.
        let Some(SafePlan::KeyPartition { inputs, .. }) = &report.decomposition else {
            panic!("expected key partition");
        };
        assert!(inputs
            .iter()
            .any(|i| matches!(i, SafePlan::KeyPartition { .. })));
    }

    #[test]
    fn non_hierarchical_query_routes_to_monte_carlo() {
        // R(x), S(x, y), T(y): sg(x) = {R, S} and sg(y) = {S, T} overlap
        // without nesting — the classic unsafe query.
        let one = |n: &str| {
            Schema::builder()
                .attribute(n, ["v0", "v1"])
                .build()
                .unwrap()
        };
        let two = Schema::builder()
            .attribute("x", ["v0", "v1"])
            .attribute("y", ["v0", "v1"])
            .build()
            .unwrap();
        let mut r = ProbDb::new(one("x"));
        r.push_block(Block::new(0, vec![alt(vec![0], 0.5), alt(vec![1], 0.5)]).unwrap())
            .unwrap();
        let mut s = ProbDb::new(two);
        s.push_block(Block::new(0, vec![alt(vec![0, 1], 0.5), alt(vec![1, 0], 0.5)]).unwrap())
            .unwrap();
        let mut t = ProbDb::new(one("y"));
        t.push_block(Block::new(0, vec![alt(vec![0], 0.5), alt(vec![1], 0.5)]).unwrap())
            .unwrap();

        let mut catalog = Catalog::new();
        catalog.add("r", r).unwrap();
        catalog.add("s", s).unwrap();
        catalog.add("t", t).unwrap();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                mc_samples: 40_000,
                ..QueryEngineConfig::default()
            },
        );
        let q = Query::scan("r")
            .join_on("s", [(AttrId(0), AttrId(0))])
            .join_on_rel("s", "t", [(AttrId(1), AttrId(0))]);
        let (path, plan) = engine.plan(&q, Statistic::Probability).unwrap();
        assert_eq!(path, EvalPath::MonteCarlo);
        assert_eq!(plan, PlanClass::NonHierarchical);
        let (p, report) = engine.probability(&q).unwrap();
        assert_eq!(report.plan, PlanClass::NonHierarchical);
        let Some(SafePlan::Unsafe { reason }) = &report.decomposition else {
            panic!(
                "expected unsafe decomposition, got {:?}",
                report.decomposition
            );
        };
        assert!(reason.contains("non-hierarchical"), "{reason}");
        let brute_p = oracle_probability(&catalog, &q).unwrap();
        assert!((p - brute_p).abs() < 0.02, "{p} vs {brute_p}");

        // These blocks straddle their join keys (each alternative sits at
        // a different key value), so even ProbabilityBounds cannot
        // dissociate: it samples inside the trivial bracket.
        let (bounds, report) = engine.probability_bounds(&q).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        assert_eq!(report.plan, PlanClass::NonHierarchical);
        assert_eq!((bounds.lower, bounds.upper), (0.0, 1.0));
        let est = bounds.estimate.expect("sampled estimate");
        assert!((est - brute_p).abs() < 0.02, "{est} vs {brute_p}");
    }

    // ---------------------------------------------------------------
    // Plan-cache memory: nothing but the table keeps a plan alive.
    // ---------------------------------------------------------------

    fn station_join() -> Query {
        Query::scan("sensors").join_on("readings", [(AttrId(0), AttrId(0))])
    }

    /// Warms the join's probability plan (one miss, three hits) in a cache
    /// of `capacity` plans, holds the entry a warm probe hands out, lets
    /// `retire` drop it from the cache, and asserts the held handle is the
    /// last reference: no second tier or graveyard pins retired plans.
    fn assert_retired_plan_is_released(
        capacity: usize,
        retire: impl FnOnce(&CatalogEngine, (u8, u64)),
    ) {
        let catalog = sensors_catalog();
        let config = QueryEngineConfig {
            plan_cache_capacity: capacity,
            ..QueryEngineConfig::default()
        };
        let engine = CatalogEngine::with_config(&catalog, config);
        for _ in 0..4 {
            engine.probability(&station_join()).unwrap();
        }
        assert_eq!(engine.plan_cache().stats().hits, 3);
        let tag = cache_tag(Statistic::Probability).unwrap();
        let hash = station_join().flatten().unwrap().shape_hash();
        let (plan, _) = engine.plan_cache().probe(tag, hash).expect("cached");
        retire(&engine, (tag, hash));
        assert_eq!(Arc::strong_count(&plan), 1);
    }

    #[test]
    fn invalidated_plans_are_released() {
        assert_retired_plan_is_released(128, |engine, (tag, hash)| {
            engine.plan_cache().invalidate(tag, hash);
        });
    }

    #[test]
    fn cleared_plans_are_released() {
        assert_retired_plan_is_released(128, |engine, _| engine.plan_cache().clear());
    }

    #[test]
    fn evicted_plans_are_released() {
        assert_retired_plan_is_released(1, |engine, _| {
            engine.expected_count(&station_join()).unwrap();
            assert_eq!(engine.plan_cache().stats().evictions, 1);
        });
    }

    #[test]
    fn single_relation_statistics_reject_join_trees() {
        let catalog = sensors_catalog();
        let engine = CatalogEngine::new(&catalog);
        let q = Query::scan("sensors").join_on("readings", [(AttrId(0), AttrId(0))]);
        for stat in [
            Statistic::Marginals,
            Statistic::TopK(3),
            Statistic::ValueMarginal(AttrId(0)),
        ] {
            let e = engine.evaluate(&q, stat);
            assert!(
                matches!(e, Err(ProbDbError::UnsupportedStatistic { .. })),
                "{stat:?}"
            );
        }
        // Unknown relations and incompatible dictionaries are caught.
        let e = engine.probability(&Query::scan("nope"));
        assert!(matches!(e, Err(ProbDbError::UnknownRelation(_))));
        let q = Query::scan("sensors").join_on("readings", [(AttrId(1), AttrId(1))]);
        let e = engine.probability(&q); // kind vs level: different labels
        assert!(matches!(
            e,
            Err(ProbDbError::IncompatibleJoinDomains { .. })
        ));
    }

    #[test]
    fn single_relation_probability_matches_enumeration() {
        let db = db();
        let pred = Predicate::eq(AttrId(2), ValueId(0)); // inc = 50K
        let mut catalog = Catalog::new();
        catalog.add("db", db).unwrap();
        let engine = CatalogEngine::new(&catalog);
        let q = Query::scan("db").filter(pred);
        let brute = oracle_probability(&catalog, &q).unwrap();
        let (p, report) = engine.probability(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
        assert!((p - brute).abs() < 1e-12, "{p} vs {brute}");
        // Bounds on a safe query collapse to the exact point.
        let (bounds, report) = engine.probability_bounds(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
        assert_eq!(bounds, ProbabilityBounds::exact(p));
    }
}
