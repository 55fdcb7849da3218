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
//! Exact evaluation is the dissociation with no copies, so the
//! covering-root recursion lives in two places only: the lowering to
//! bytecode (`compile::lower`, one program per dissociation, run in
//! either bracket mode by the VM) and the reference tape
//! (`grad::record`). The tape is what [`crate::testutil::interpreted`]
//! evaluates, and the VM reproduces its values bit for bit. The
//! [`SafePlan`] a report shows is rendered from the lowered program
//! (`compile::render`), so reports describe exactly what ran.
//!
//! Liftable plans are additionally *differentiable*: the safe plan is a
//! pure product/complement tree over the block-alternative masses, and
//! [`CatalogEngine::probability_with_gradient`] runs a reverse-mode
//! backward sweep over the reference tape to return `∂P(Q)/∂m` for
//! every alternative mass — the machinery tuple-probability learning
//! (`mrsl_learn`) descends on.

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
use crate::ProbDbError;
use classify::{
    alias_groups, classify, compile_terms, refresh_scans, resolve, scan_terms, CompiledTerm,
    Resolved, TermScan,
};
use compile::{cache_tag, BoundRegs, CachedPlan, CompiledProgram};
use dissociate::{BoundsPlan, DissociatedBounds, Mode};
use mrsl_relation::{AttrId, CompleteTuple};
use std::sync::Arc;

/// Largest block count for which a single relation's O(blocks²) exact
/// count distribution stays on the exact path; larger relations sample
/// ([`PlanClass::DpBudgetExceeded`]).
const MAX_EXACT_DP_BLOCKS: usize = 4_096;

/// Tunables of the query engines.
///
/// [`Statistic::Probability`], [`Statistic::ProbabilityBounds`] and
/// [`Statistic::ExpectedCount`] always lower to bytecode and reuse it
/// through the shape-keyed [`PlanCache`] ([`PlanRoute::Compiled`] on a
/// miss, [`PlanRoute::CacheHit`] after), unless Monte Carlo is forced;
/// every other statistic plans fresh ([`PlanRoute::Uncached`]).
///
/// No tunable affects parallelism: each query runs on its caller's thread
/// with no fan-out, so answers do not depend on any thread pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEngineConfig {
    /// Worlds sampled on the Monte-Carlo path.
    pub mc_samples: usize,
    /// Seed for the Monte-Carlo path.
    pub mc_seed: u64,
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
}

impl Default for QueryEngineConfig {
    fn default() -> Self {
        Self {
            mc_samples: 10_000,
            mc_seed: 0x5eed,
            force_monte_carlo: false,
            bounds_tolerance: 0.05,
        }
    }
}

/// A tuple with its membership probability, as ranked by
/// [`Statistic::TopK`].
#[derive(Debug, Clone)]
pub struct RankedTuple {
    /// The tuple.
    pub tuple: CompleteTuple,
    /// Probability that the tuple appears in a random world.
    pub prob: f64,
    /// Block key, or `None` for certain tuples.
    pub block: Option<usize>,
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
    /// the default capacity; [`CatalogEngine::with_plan_cache`] takes a
    /// cache of any other capacity ([`PlanCache::with_capacity`]).
    pub fn with_config(catalog: &'a Catalog, config: QueryEngineConfig) -> Self {
        Self::with_plan_cache(catalog, config, Arc::new(PlanCache::new()))
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
    /// reference tape of the safe plan (the empty dissociation, upper
    /// mode).
    ///
    /// Only classified-liftable queries are differentiable — the exact
    /// product/complement tree *is* the computational graph. Shapes that
    /// would route to Monte Carlo (non-hierarchical, key-correlated,
    /// aliased) return [`ProbDbError::NotDifferentiable`] with the
    /// classifier's reason. The probability is the tape's root value,
    /// which [`CatalogEngine::probability`]'s bytecode reproduces bit for
    /// bit; the
    /// gradients feed the tuple-probability optimizer in `mrsl_learn`,
    /// which projects updates back onto each block's simplex and writes
    /// them through [`crate::ProbDb::set_block_masses`].
    pub fn probability_with_gradient(
        &self,
        q: &Query,
    ) -> Result<(f64, MassGradients), ProbDbError> {
        let flat = q.flatten()?;
        let resolved = resolve(&flat, |name| self.catalog.get(name))?;
        let scans = scan_terms(&resolved);
        if resolved.shape.terms.len() > 1 {
            let c = classify(&resolved, &scans);
            if c.class != PlanClass::Liftable {
                let reason = match c.decomposition {
                    SafePlan::Unsafe { reason } => reason,
                    _ => format!("{:?} plans are not differentiable", c.class),
                };
                return Err(ProbDbError::NotDifferentiable { reason });
            }
        }
        let compiled = compile_terms(&resolved, &scans);
        let tape = grad::record(&resolved, &compiled, &[], Mode::Upper);
        let relations = resolved
            .shape
            .terms
            .iter()
            .zip(tape.gradient(&compiled))
            .map(|(t, g)| (t.relation.clone(), g))
            .collect();
        Ok((tape.value(), MassGradients { relations }))
    }
}

/// A resolved, compiled, classified query — everything both `plan` and
/// `evaluate` need.
struct Prepared<'a> {
    resolved: Resolved<'a>,
    /// The terms' scans, from scratch.
    scans: Vec<TermScan>,
    /// Certain plus alternative rows the scans evaluated.
    rows_evaluated: usize,
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
    let single = resolved.shape.terms.len() == 1;
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
    let mut scans = Vec::new();
    let (rows_evaluated, _) = refresh_scans(&resolved, &mut scans);
    let classification = (!single).then(|| classify(&resolved, &scans));
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
                let plan = dissociate::plan_bounds(&resolved, &scans, c.class);
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
            } else if resolved.dbs[0].columns().block_count() > MAX_EXACT_DP_BLOCKS {
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
        scans,
        rows_evaluated,
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
    if let Some(plan) = cache.probe(tag, hash).filter(|plan| plan.matches(&flat)) {
        // Classification is skipped entirely: the entry binds its kept
        // shape to current column data, and `execute` re-checks the
        // data-dependent guards if any relation moved.
        let warm = match plan.bind(&lookup) {
            Some(resolved) => execute(&plan, &resolved, stat, config, Some(cache))?,
            None => None,
        };
        match warm {
            Some(result) => {
                cache.record_hit();
                return Ok(result);
            }
            // Stale: schema or guarded data property changed.
            None => cache.invalidate(&plan),
        }
    }
    cache.record_miss();
    evaluate_cold(&lookup, flat, (tag, hash), stat, config, cache)
}

/// The registers and mass tables `cache` memoizes for `q`'s `stat` plan,
/// as raw bits ([`BoundRegs::bits`]); `None` without such a plan, or for
/// a sampling verdict.
pub(crate) fn memo_bits(cache: &PlanCache, q: &Query, stat: Statistic) -> Option<Vec<u64>> {
    let flat = q.flatten().ok()?;
    let plan = cache
        .probe(cache_tag(stat)?, flat.shape_hash())
        .filter(|plan| plan.matches(&flat))?;
    let bits = plan.memo.lock().expect("plan memo lock").regs.bits();
    (!matches!(plan.program, CompiledProgram::Sampled)).then_some(bits)
}

/// A cache miss: plan, lower the verdict to a program, capture it with
/// its registers bound, and run it through the same [`execute`] a warm
/// hit uses — so the next hit goes straight to the fold. The entry is
/// cached only once it has answered.
fn evaluate_cold<'a>(
    lookup: &impl Fn(&str) -> Option<&'a ProbDb>,
    flat: Flattened,
    (tag, hash): (u8, u64),
    stat: Statistic,
    config: &QueryEngineConfig,
    cache: &PlanCache,
) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
    let p = prepare(lookup, &flat, stat, config)?;
    let resolved = &p.resolved;
    let program = match p.bounds_plan {
        _ if p.path == EvalPath::MonteCarlo => CompiledProgram::Sampled,
        Some(BoundsPlan::Dissociate(candidates)) => CompiledProgram::Bounds(candidates),
        _ if stat == Statistic::ExpectedCount => {
            CompiledProgram::Count(compile::compile_count(resolved))
        }
        _ => CompiledProgram::Boolean(
            compile::lower(resolved, &[]).expect("exact plans are hierarchical"),
        ),
    };
    // The entry stores the planning-time verdicts: the pre-hybrid path and
    // the planner's decomposition (bounds answers report the winning
    // candidate's plan instead).
    let verdict = (p.path, p.plan, p.decomposition);
    let entry = Arc::new(CachedPlan::capture(
        flat, resolved, p.scans, verdict, program,
    ));
    let (answer, mut report) = execute(&entry, resolved, stat, config, None)?
        .expect("a freshly lowered program answers its own statistic");
    // The capture's scans evaluated every row; `execute` found them fresh.
    report.rows_evaluated = p.rows_evaluated;
    cache.insert(tag, hash, entry);
    Ok((answer, report))
}

/// The one executor of cached plans, cold and warm. Under the plan's memo
/// lock it refreshes the memo in place ([`CachedPlan::refresh`]) and runs
/// the program over the registers; it samples, or refines a wide bracket,
/// once the lock is released, from the scans it took in O(1). A dead memo
/// (a guard flipped) reports the entry stale, `Ok(None)`, for invalidation
/// and a cold replan; so does a program that does not answer `stat`
/// (impossible while the statistic tag is part of the cache key; the
/// caller replans defensively instead of asserting). `warm` is the cache a
/// hit was served from ([`PlanRoute::CacheHit`]), charged with the
/// maintenance in [`PlanCacheStats::reg_patches`] /
/// [`PlanCacheStats::reg_rebinds`]; `None` on a cold miss
/// ([`PlanRoute::Compiled`]), whose capture bound the registers.
fn execute(
    plan: &CachedPlan,
    resolved: &Resolved,
    stat: Statistic,
    config: &QueryEngineConfig,
    warm: Option<&PlanCache>,
) -> Result<Option<(QueryAnswer, EvalReport)>, ProbDbError> {
    let mut path = plan.path;
    if path == EvalPath::MonteCarlo && config.mc_samples == 0 {
        return Err(ProbDbError::NoSamples);
    }
    let classes = resolved.shape.classes.len();
    let mut decomposition = plan.decomposition.clone();
    let mut dissociated: Vec<String> = Vec::new();
    // The memo lock is held from the refresh through the fold, so a
    // concurrent hit on this entry waits for the refreshed registers
    // instead of refreshing them again.
    let mut memo = plan.memo.lock().expect("plan memo lock");
    if memo.dead {
        return Ok(None);
    }
    let Some((rows_evaluated, appended, rebound)) = plan.refresh(&mut memo, resolved) else {
        return Ok(None);
    };
    if let Some(cache) = warm {
        cache.record_reg_maintenance(appended, rebound);
    }
    // Scan statistics come from the scans' per-segment counts, and
    // provenance from the bound relation, on every answer.
    let relations = relation_stats(resolved, &memo.scans);
    let answer = match &plan.program {
        CompiledProgram::Sampled => {
            let scans = Arc::clone(&memo.scans);
            drop(memo);
            sample(&compile_terms(resolved, &scans), classes, stat, config)
        }
        _ => match fold(plan, resolved, stat, &memo.regs, &memo.scans) {
            None => return Ok(None),
            Some(Folded::Answer(answer)) => {
                drop(memo);
                answer
            }
            Some(Folded::Bracket(eval)) => {
                let scans = Arc::clone(&memo.scans);
                drop(memo);
                decomposition = Some(eval.plan);
                dissociated = eval.dissociated;
                let bracket = ProbabilityBounds::bracket(eval.lower, eval.upper);
                let compiled = compile_terms(resolved, &scans);
                let (bounds, refined) = refine(bracket, &compiled, classes, config);
                if refined {
                    path = EvalPath::Hybrid;
                }
                QueryAnswer::Bounds(bounds)
            }
        },
    };
    let route = match warm {
        Some(_) => PlanRoute::CacheHit,
        None => PlanRoute::Compiled,
    };
    let mut report = EvalReport::new(
        path,
        route,
        plan.plan_class,
        relations,
        config.mc_samples,
        decomposition,
        dissociated,
    );
    report.rows_evaluated = rows_evaluated;
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

/// Folds a deterministic cached program over its bound registers, under
/// the plan's memo lock; a single-relation count reads its term's scan.
/// `None` for a program that does not answer `stat`.
fn fold(
    plan: &CachedPlan,
    resolved: &Resolved,
    stat: Statistic,
    regs: &BoundRegs,
    scans: &[TermScan],
) -> Option<Folded> {
    let answer = match (&plan.program, stat) {
        (CompiledProgram::Boolean(prog), Statistic::Probability) => QueryAnswer::Probability {
            p: vm::run_prebound(prog, &regs.per_program[0], Mode::Upper),
            std_error: None,
        },
        // Safe shapes collapse the bracket to the exact probability.
        (CompiledProgram::Boolean(prog), Statistic::ProbabilityBounds) => QueryAnswer::Bounds(
            ProbabilityBounds::exact(vm::run_prebound(prog, &regs.per_program[0], Mode::Upper)),
        ),
        (CompiledProgram::Count(prog), Statistic::ExpectedCount) => QueryAnswer::Count {
            mean: match (&prog.steps, &regs.count) {
                (Some(steps), Some(tables)) => {
                    exact::run_mass_join(steps, tables.iter().map(|m| &m.table), prog.classes)
                }
                _ => exact::single_expected_count(&compile_terms(resolved, scans)[0]),
            },
            std_error: None,
        },
        (CompiledProgram::Bounds(candidates), Statistic::ProbabilityBounds) => {
            return Some(Folded::Bracket(compile::run_bounds_prebound(
                resolved,
                candidates,
                &regs.per_program,
            )))
        }
        _ => return None,
    };
    Some(Folded::Answer(answer))
}

/// Answers a prepared query without the plan cache: forced Monte Carlo
/// and the statistics no program is compiled for (count distributions,
/// marginals, ranking, value marginals). The exact arms of the three
/// compiled statistics are the reference tape and the per-call mass
/// join, which only [`evaluate_interpreted`] reaches — the engine
/// compiles those.
fn evaluate_uncached(
    prepared: Prepared,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
    let Prepared {
        resolved,
        scans,
        rows_evaluated,
        mut path,
        plan,
        mut decomposition,
        bounds_plan,
    } = prepared;
    let compiled = compile_terms(&resolved, &scans);
    if path == EvalPath::MonteCarlo && config.mc_samples == 0 {
        return Err(ProbDbError::NoSamples);
    }
    let classes = resolved.shape.classes.len();
    let mut dissociated: Vec<String> = Vec::new();
    let ct = &compiled[0];
    let answer = match (stat, path, bounds_plan) {
        (_, EvalPath::MonteCarlo, _) => sample(&compiled, classes, stat, config),
        (Statistic::Probability, ..) => QueryAnswer::Probability {
            p: grad::record(&resolved, &compiled, &[], Mode::Upper).value(),
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
            grad::record(&resolved, &compiled, &[], Mode::Upper).value(),
        )),
        // Single relations sum certain matches and per-block marginals,
        // which the count program reproduces.
        (Statistic::ExpectedCount, ..) => QueryAnswer::Count {
            mean: if classes == 0 && compiled.len() == 1 {
                exact::single_expected_count(ct)
            } else {
                exact::expected_join_count(&resolved, &compiled)
            },
            std_error: None,
        },
        (Statistic::CountDistribution, ..) => QueryAnswer::Distribution(exact::poisson_binomial(
            ct.live_certain.count_ones(),
            &ct.db.columns().block_probs(ct.live_alts),
        )),
        (Statistic::Marginals, ..) => {
            QueryAnswer::Marginals(ct.db.columns().block_probs(ct.live_alts))
        }
        (Statistic::TopK(k), ..) => QueryAnswer::Ranked(exact::top_k(ct, k)),
        (Statistic::ValueMarginal(attr), ..) => {
            QueryAnswer::Distribution(exact::value_marginal(ct, attr))
        }
    };
    let mut report = EvalReport::new(
        path,
        PlanRoute::Uncached,
        plan,
        relation_stats(&resolved, &scans),
        config.mc_samples,
        decomposition,
        dissociated,
    );
    report.rows_evaluated = rows_evaluated;
    Ok((answer, report))
}

/// The recursive reference interpreter behind
/// [`crate::testutil::interpreted`]: the engine's planning verdicts and
/// samplers, but the exact `Probability`, `ProbabilityBounds` and
/// `ExpectedCount` paths recurse over row maps (the root value of a
/// `grad::record`ed tape per dissociation and mode, the per-call mass
/// join) instead of running bytecode. No plan cache.
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
/// compiled terms. Every count statistic derives from the per-world
/// counts of [`mc::sample_join_counts`].
fn sample(
    compiled: &[CompiledTerm],
    classes: usize,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> QueryAnswer {
    let (samples, seed) = (config.mc_samples, config.mc_seed);
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
            let (mean, se) = mc::count_estimate(&join_counts());
            QueryAnswer::Count {
                mean,
                std_error: Some(se),
            }
        }
        // A single scan's histogram spans the exact DP's support: its
        // live certain rows plus one slot per block.
        Statistic::CountDistribution => {
            let support = match compiled {
                [ct] if classes == 0 => {
                    ct.live_certain.count_ones() + ct.db.columns().block_count() + 1
                }
                _ => 0,
            };
            QueryAnswer::Distribution(mc::count_histogram(&join_counts(), support))
        }
        Statistic::Marginals => {
            QueryAnswer::Marginals(mc::mc_selection_marginals(&compiled[0], samples, seed))
        }
        Statistic::TopK(_) | Statistic::ValueMarginal(_) => {
            unreachable!("{stat:?} has no sampling estimator and always plans exact")
        }
    }
}

/// Bracket-gated refinement: a bracket wider than
/// [`QueryEngineConfig::bounds_tolerance`], with a sample budget to
/// refine it, gains a clamped Monte-Carlo point estimate (`true`: the
/// path becomes [`EvalPath::Hybrid`]). Decided per answer with the
/// current config, never cached.
fn refine(
    mut bounds: ProbabilityBounds,
    compiled: &[CompiledTerm],
    classes: usize,
    config: &QueryEngineConfig,
) -> (ProbabilityBounds, bool) {
    let too_wide = bounds.width() > config.bounds_tolerance && config.mc_samples > 0;
    if !too_wide {
        return (bounds, false);
    }
    let counts = mc::sample_join_counts(compiled, classes, config.mc_samples, config.mc_seed);
    let (p, se) = mc::probability_estimate(&counts);
    bounds.estimate = Some(p.clamp(bounds.lower, bounds.upper));
    bounds.std_error = Some(se);
    (bounds, true)
}

/// Per-relation scan statistics: pruned blocks from the scans'
/// per-segment counts, sizes and provenance from the bound relations.
fn relation_stats(resolved: &Resolved, scans: &[TermScan]) -> Vec<RelationStats> {
    (resolved.shape.terms.iter().zip(&resolved.dbs).zip(scans))
        .map(|((t, db), scan)| {
            let cols = db.columns();
            let pruned = scan.pruned_blocks();
            RelationStats {
                relation: t.name.clone(),
                blocks_total: cols.block_count(),
                blocks_pruned: pruned,
                blocks_touched: cols.block_count() - pruned,
                certain_rows: cols.certain().rows(),
                alt_rows: cols.alternatives().rows(),
                provenance: db.provenance().map(String::from),
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
    use crate::testutil::{
        oracle, oracle_count_distribution, oracle_expected_count, oracle_probability,
    };
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

    /// A forced-Monte-Carlo engine over `catalog` with `samples` worlds.
    fn forced(catalog: &Catalog, samples: usize) -> CatalogEngine<'_> {
        CatalogEngine::with_config(
            catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: samples,
                ..QueryEngineConfig::default()
            },
        )
    }

    /// Asserts `got` and `want` agree within `tol` over the longer of the
    /// two supports (missing entries are 0).
    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        for k in 0..got.len().max(want.len()) {
            let (a, b) = (got.get(k).unwrap_or(&0.0), want.get(k).unwrap_or(&0.0));
            assert!((a - b).abs() < tol, "k={k}: {a} vs {b}");
        }
    }

    #[test]
    fn dp_budget_routes_count_distribution_to_monte_carlo() {
        // One block past the DP budget samples instead.
        let mut big = ProbDb::new(fig1_schema());
        for key in 0..=MAX_EXACT_DP_BLOCKS {
            let alts = vec![alt(vec![0, 0, 0, 0], 0.5), alt(vec![0, 0, 1, 0], 0.5)];
            big.push_block(Block::new(key, alts).unwrap()).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.add("db", big).unwrap();
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                mc_samples: 8,
                ..QueryEngineConfig::default()
            },
        );
        let q = Query::scan("db").filter(Predicate::eq(AttrId(2), ValueId(1)));
        let (answer, report) = engine.evaluate(&q, Statistic::CountDistribution).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        assert_eq!(report.plan, PlanClass::DpBudgetExceeded);
        assert_eq!(report.mc_samples, 8);
        let QueryAnswer::Distribution(dist) = answer else {
            panic!("distribution expected");
        };
        assert_eq!(dist.len(), MAX_EXACT_DP_BLOCKS + 2);
        // Expected count stays exact: its cost is linear.
        let (_, report) = engine.expected_count(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
    }

    /// The sampled count distribution's accuracy, on a fixture small
    /// enough for the oracle to enumerate.
    #[test]
    fn forced_count_distribution_agrees_with_oracle() {
        let catalog = single_catalog();
        let q = Query::scan("db").filter(Predicate::eq(AttrId(2), ValueId(1)));
        let (mc, report) = forced(&catalog, 30_000).count_distribution(&q).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        assert_close(&mc, &oracle_count_distribution(&catalog, &q).unwrap(), 0.02);
    }

    #[test]
    fn sampled_count_distribution_has_the_exact_support() {
        // The selection rejects the certain row, so the support is the
        // blocks alone: a histogram sized by every certain row would be
        // one entry longer than the exact DP.
        let catalog = single_catalog();
        let q = Query::scan("db").filter(Predicate::eq(AttrId(2), ValueId(0)));
        let (exact, report) = CatalogEngine::new(&catalog).count_distribution(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
        let (mc, report) = forced(&catalog, 2_000).count_distribution(&q).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        assert_eq!(exact.len(), 4);
        assert_eq!(mc.len(), exact.len());
    }

    #[test]
    fn forced_monte_carlo_reports_standard_error() {
        let catalog = single_catalog();
        let engine = forced(&catalog, 20_000);
        let pred = Predicate::eq(AttrId(2), ValueId(1)).negate();
        let q = Query::scan("db").filter(pred.clone());
        let (answer, report) = engine.evaluate(&q, Statistic::ExpectedCount).unwrap();
        assert_eq!(report.plan, PlanClass::ForcedMonteCarlo);
        let QueryAnswer::Count { mean, std_error } = answer else {
            panic!("count answer expected");
        };
        let se = std_error.expect("MC path reports a standard error");
        let exact = oracle_expected_count(&catalog, &q).unwrap();
        assert!((mean - exact).abs() < 4.0 * se + 0.02);
        // Ranking has no sampling estimator: stays exact even when forced.
        let (_, report) = engine.evaluate(&q, Statistic::TopK(3)).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
    }

    #[test]
    fn zero_sample_budget_is_an_error() {
        let catalog = single_catalog();
        let engine = forced(&catalog, 0);
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
        let q = Query::scan("db").filter(Predicate::is_in(AttrId(3), [ValueId(1)]));
        let (mc, report) = forced(&catalog, 30_000).marginals(&q).unwrap();
        assert_eq!(report.path, EvalPath::MonteCarlo);
        let (exact, report) = CatalogEngine::new(&catalog).marginals(&q).unwrap();
        assert_eq!(report.path, EvalPath::ExactColumnar);
        for (b, (&m, &e)) in mc.iter().zip(&exact).enumerate() {
            assert!((m - e).abs() < 0.02, "block {b}: {m} vs {e}");
        }
    }

    #[test]
    fn expected_count_matches_oracle() {
        let catalog = single_catalog();
        let q = Query::scan("db").filter(Predicate::eq(AttrId(2), ValueId(1)));
        let (exact, _) = CatalogEngine::new(&catalog).expected_count(&q).unwrap();
        let brute = oracle_expected_count(&catalog, &q).unwrap();
        assert!((exact - brute).abs() < 1e-12, "{exact} vs {brute}");
        // 1 (certain) + 0.7 + 0.6.
        assert!((exact - 2.3).abs() < 1e-12);
    }

    #[test]
    fn count_distribution_matches_oracle() {
        let catalog = single_catalog();
        let engine = CatalogEngine::new(&catalog);
        let q = Query::scan("db").filter(Predicate::eq(AttrId(2), ValueId(1)));
        let (dist, _) = engine.count_distribution(&q).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_close(
            &dist,
            &oracle_count_distribution(&catalog, &q).unwrap(),
            1e-12,
        );
        // Mean of the distribution equals the expected count.
        let mean: f64 = dist.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
        assert!((mean - engine.expected_count(&q).unwrap().0).abs() < 1e-12);
    }

    #[test]
    fn impossible_selection_counts_zero_with_certainty() {
        let catalog = single_catalog();
        let q = Query::scan("db").filter(Predicate::eq(AttrId(1), ValueId(2))); // edu=MS
        let (dist, _) = CatalogEngine::new(&catalog).count_distribution(&q).unwrap();
        assert!((dist[0] - 1.0).abs() < 1e-12);
        assert!(dist[1..].iter().all(|&p| p.abs() < 1e-12));
    }

    #[test]
    fn value_marginal_is_normalized_and_weighted() {
        let catalog = single_catalog();
        let (m, _) = CatalogEngine::new(&catalog)
            .value_marginal(&Query::scan("db"), AttrId(2))
            .unwrap();
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // inc=100K mass: certain 1 + 0.7 + 0.6 of 4 expected tuples.
        assert!((m[1] - 2.3 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_ranks_by_probability() {
        let catalog = single_catalog();
        let engine = CatalogEngine::new(&catalog);
        let (all, _) = engine.top_k(&Query::scan("db"), 10).unwrap();
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].prob, 1.0);
        assert!(all[0].block.is_none());
        assert!(all.windows(2).all(|w| w[0].prob >= w[1].prob));
        let (top2, _) = engine.top_k(&Query::scan("db"), 2).unwrap();
        assert_eq!(top2.len(), 2);
        assert!((top2[1].prob - 0.7).abs() < 1e-12);
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        // Three sources of probability ties: a certain tuple (prob 1), a
        // block whose alternative also has prob 1, and two blocks with
        // identical 0.5/0.5 splits.
        let mut db = ProbDb::new(fig1_schema());
        db.push_certain(CompleteTuple::from_values(vec![0, 0, 0, 0]))
            .unwrap();
        db.push_block(Block::new(7, vec![alt(vec![1, 0, 0, 0], 1.0)]).unwrap())
            .unwrap();
        db.push_block(
            Block::new(
                3,
                vec![alt(vec![2, 0, 0, 0], 0.5), alt(vec![2, 1, 0, 0], 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        db.push_block(
            Block::new(
                1,
                vec![alt(vec![0, 2, 0, 0], 0.5), alt(vec![0, 2, 1, 0], 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("db", db).unwrap();
        let engine = CatalogEngine::new(&catalog);
        let (ranked, _) = engine.top_k(&Query::scan("db"), 10).unwrap();
        // Prob 1 first, certain before block 7; then 0.5 ties ordered by
        // block key (1 before 3), alternatives in block order.
        assert_eq!(ranked.len(), 6);
        assert_eq!(ranked[0].block, None);
        assert_eq!(ranked[1].block, Some(7));
        assert_eq!(ranked[2].block, Some(1));
        assert_eq!(ranked[2].tuple.raw(), &[0, 2, 0, 0]);
        assert_eq!(ranked[3].block, Some(1));
        assert_eq!(ranked[3].tuple.raw(), &[0, 2, 1, 0]);
        assert_eq!(ranked[4].block, Some(3));
        assert_eq!(ranked[5].block, Some(3));
        // Repeated evaluation is identical.
        let (again, _) = engine.top_k(&Query::scan("db"), 10).unwrap();
        for (a, b) in ranked.iter().zip(&again) {
            assert_eq!(a.tuple, b.tuple);
            assert_eq!(a.block, b.block);
        }
    }

    #[test]
    fn single_scan_statistics_match_a_per_tuple_reference() {
        let catalog = single_catalog();
        let db = catalog.get("db").unwrap();
        let engine = CatalogEngine::new(&catalog);
        let preds = vec![
            Predicate::any(),
            Predicate::eq(AttrId(2), ValueId(1)).negate(),
            Predicate::is_in(AttrId(0), [ValueId(0), ValueId(1)]),
            Predicate::range(AttrId(3), ValueId(0), ValueId(0))
                .or(Predicate::eq(AttrId(2), ValueId(0))),
            Predicate::eq(AttrId(0), ValueId(1)).and(Predicate::eq(AttrId(3), ValueId(1))),
        ];
        for pred in preds {
            // Tuple at a time: per-block selection mass, plus the
            // certain rows the predicate accepts.
            let marginals: Vec<f64> = db
                .blocks()
                .map(|b| b.prob_satisfies(|t| pred.eval(t)))
                .collect();
            let certain = db.certain().filter(|t| pred.eval(t)).count() as f64;
            let count = certain + marginals.iter().sum::<f64>();
            let q = Query::scan("db").filter(pred.clone());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (got, _) = engine.marginals(&q).unwrap();
            assert_eq!(bits(&got), bits(&marginals), "{pred:?}");
            let (got, _) = engine.expected_count(&q).unwrap();
            assert_eq!(got.to_bits(), count.to_bits(), "{pred:?}");
            let (dist, _) = engine.count_distribution(&q).unwrap();
            assert_close(
                &dist,
                &oracle_count_distribution(&catalog, &q).unwrap(),
                1e-12,
            );
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
        retire: impl FnOnce(&CatalogEngine, &Arc<CachedPlan>),
    ) {
        let catalog = sensors_catalog();
        let cache = Arc::new(PlanCache::with_capacity(capacity));
        let engine = CatalogEngine::with_plan_cache(&catalog, QueryEngineConfig::default(), cache);
        for _ in 0..4 {
            engine.probability(&station_join()).unwrap();
        }
        assert_eq!(engine.plan_cache().stats().hits, 3);
        let tag = cache_tag(Statistic::Probability).unwrap();
        let hash = station_join().flatten().unwrap().shape_hash();
        let plan = engine.plan_cache().probe(tag, hash).expect("cached");
        retire(&engine, &plan);
        assert_eq!(Arc::strong_count(&plan), 1);
    }

    #[test]
    fn invalidated_plans_are_released() {
        assert_retired_plan_is_released(128, |engine, plan| {
            engine.plan_cache().invalidate(plan);
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

    /// The join's probability plan, warmed on `catalog` in `cache`.
    fn warm_join_plan(catalog: &Catalog, cache: &Arc<PlanCache>) -> Arc<CachedPlan> {
        let engine =
            CatalogEngine::with_plan_cache(catalog, QueryEngineConfig::default(), cache.clone());
        engine.probability(&station_join()).unwrap();
        let tag = cache_tag(Statistic::Probability).unwrap();
        let hash = station_join().flatten().unwrap().shape_hash();
        cache.probe(tag, hash).expect("cached")
    }

    /// `catalog` with one more key-unique `sensors` block at station s2, or
    /// a block straddling stations s0 and s2.
    fn pushed(catalog: &Catalog, straddling: bool) -> Catalog {
        let mut next = catalog.clone();
        let first = if straddling { 0 } else { 2 };
        let alts = vec![alt(vec![first, 0], 0.4), alt(vec![2, 1], 0.6)];
        let sensors = next.get_mut("sensors").unwrap();
        let key = sensors.blocks().len() + 10;
        sensors.push_block(Block::new(key, alts).unwrap()).unwrap();
        next
    }

    /// A refresh updates the memo's scans in place: after a one-block
    /// push they stay in their allocation while no reader holds them, and
    /// are copied, leaving the reader's copy as it was, while one does.
    #[test]
    fn refreshes_scans_in_place_unless_a_reader_holds_them() {
        let cache = Arc::new(PlanCache::new());
        let base = sensors_catalog();
        let plan = warm_join_plan(&base, &cache);
        let scans = || Arc::clone(&plan.memo.lock().unwrap().scans);
        let before = Arc::as_ptr(&scans());
        let one = pushed(&base, false);
        let engine =
            CatalogEngine::with_plan_cache(&one, QueryEngineConfig::default(), cache.clone());
        let (_, report) = engine.probability(&station_join()).unwrap();
        assert_eq!(report.route, PlanRoute::CacheHit);
        assert_eq!(
            report.rows_evaluated, 4,
            "the one block segment of `sensors`"
        );
        assert_eq!(Arc::as_ptr(&scans()), before, "refreshed in place");
        let held = scans();
        let two = pushed(&one, false);
        let engine =
            CatalogEngine::with_plan_cache(&two, QueryEngineConfig::default(), cache.clone());
        assert_eq!(
            engine.probability(&station_join()).unwrap().1.route,
            PlanRoute::CacheHit
        );
        assert!(!Arc::ptr_eq(&scans(), &held), "copied for the reader");
        assert_eq!(Arc::strong_count(&held), 1);
        let resolved = plan.bind(&|name| two.get(name)).unwrap();
        let alt_rows = |scans: &[TermScan]| compile_terms(&resolved, scans)[0].live_alts.len();
        assert_eq!(
            alt_rows(&held) + 2,
            alt_rows(&scans()),
            "the reader's copy is one push behind"
        );
    }

    /// A refresh that flips a guard kills the memo: the plan answers
    /// nothing again, not even for the data its registers were bound
    /// under, and only the dead entry is invalidated.
    #[test]
    fn a_flipped_guard_kills_the_memo_for_good() {
        let cache = Arc::new(PlanCache::new());
        let base = sensors_catalog();
        let plan = warm_join_plan(&base, &cache);
        let straddling = pushed(&base, true);
        let replanned = warm_join_plan(&straddling, &cache);
        assert!(plan.memo.lock().unwrap().dead);
        assert!(!Arc::ptr_eq(&plan, &replanned));
        assert_eq!(cache.stats().invalidations, 1);
        let resolved = plan.bind(&|name| base.get(name)).expect("same schemas");
        let config = QueryEngineConfig::default();
        let answer = execute(&plan, &resolved, Statistic::Probability, &config, None).unwrap();
        assert!(answer.is_none(), "a dead memo never answers");
        cache.invalidate(&plan);
        assert_eq!(cache.stats().invalidations, 1);
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
