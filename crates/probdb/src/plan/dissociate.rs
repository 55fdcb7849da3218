//! Dissociation bounds for unsafe queries.
//!
//! The safe-plan recursion gives up on two kinds of boolean conjunctive
//! queries: non-hierarchical shapes (`R(x), S(x,y), T(y)`) and self-joins
//! (aliased scans of one relation share their block choices). Gatterbauer
//! & Suciu's *dissociation* recovers deterministic guarantees for both:
//! make the offending shared variable *independent copies*, evaluate the
//! now-safe query exactly, and the answer brackets the true probability
//! depending on how the copies' probabilities are chosen (their
//! "oblivious bounds"):
//!
//! * **Branch replication** (non-hierarchical shapes). A scan that does
//!   not bind a partition key is replicated into every key branch. The
//!   copies land in *disjunctive* positions (one per branch of the
//!   existential `1 - ∏(1 - p_v)`), so keeping each copy's Bernoulli mass
//!   `m` unchanged yields an **upper** bound, and the dual *propagation*
//!   masses `1 - (1-m)^(1/d)` (whose `d`-fold disjunction reproduces `m`)
//!   yield a **lower** bound.
//! * **Alias copies** (self-joins). Aliased scans of one relation are
//!   treated as independent copies. These separate *conjunctively* in the
//!   safe plan (aliased leaves co-travel through every key partition —
//!   their blocks agree on every join key — until a subcomponent product
//!   splits them), so the dual choice applies: `m^(1/k)` per copy (whose
//!   `k`-fold conjunction reproduces `m`) is the **upper** bound and the
//!   unchanged mass the **lower** bound.
//!
//! Soundness leans on the classifier's key-uniqueness check: every live
//! alternative of a block agrees on each join key its scan binds, so a
//! block contributes the *same* Bernoulli event (`mass = Σ live p`) to
//! every branch or alias it is copied into — exactly the single-variable
//! setting of the oblivious-bounds theorems. Key-straddling blocks and
//! aliases with different live sets are therefore rejected here and fall
//! back to Monte Carlo.
//!
//! When several minimal dissociations exist, each yields valid bounds, so
//! the bracket is their intersection — the ensemble's best upper and
//! lower bound (the paper's "inference ensembles" restated for query
//! evaluation).

use super::classify::{
    alias_groups, alias_live_mismatch, key_straddle, shape_violation, CompiledTerm, Resolved,
    TermScan,
};
use super::compile::{lower, render};
use super::grad;
use super::report::SafePlan;
use super::vm::Program;

/// One way to make the query hierarchical: class memberships to add
/// (dissociating the member term on that class's variable), with the
/// program it lowers to and the plan that program renders as.
#[derive(Debug, Clone)]
pub(crate) struct Dissociation {
    /// `(class, term)` memberships added; empty for pure alias
    /// dissociations (the shape was already hierarchical).
    pub extensions: Vec<(usize, usize)>,
    /// The lowered dissociation, run once per bracket side.
    pub program: Program,
    /// What a report shows when this candidate wins the upper side.
    pub plan: SafePlan,
}

impl Dissociation {
    /// The dissociation adding `ext`, if it is admissible: the extended
    /// shape is hierarchical and every component has a covering root.
    fn admit(resolved: &Resolved, ext: &[(usize, usize)]) -> Option<Self> {
        if shape_violation(resolved, ext).is_some() {
            return None;
        }
        let program = lower(resolved, ext)?;
        Some(Self {
            plan: render(&program, resolved, ext),
            extensions: ext.to_vec(),
            program,
        })
    }
}

/// How [`crate::Statistic::ProbabilityBounds`] should be answered.
#[derive(Debug)]
pub(crate) enum BoundsPlan {
    /// The query is safe: the bracket collapses to the exact probability.
    Exact,
    /// Dissociation bounds apply; every entry is a valid bracket and the
    /// answer intersects them.
    Dissociate(Vec<Dissociation>),
    /// No sound dissociation exists (key-straddling blocks, or aliases
    /// with different live sets): Monte Carlo, with the reason.
    Sample(String),
}

/// Decides how to bound the boolean probability of a resolved, scanned
/// multi-relation query, given the classifier's verdict.
pub(crate) fn plan_bounds(
    resolved: &Resolved,
    scans: &[TermScan],
    class: super::report::PlanClass,
) -> BoundsPlan {
    use super::report::PlanClass;
    match class {
        PlanClass::Liftable => BoundsPlan::Exact,
        PlanClass::KeyCorrelated => BoundsPlan::Sample(
            key_straddle(resolved, scans).unwrap_or_else(|| "key-correlated".into()),
        ),
        PlanClass::Dissociable | PlanClass::NonHierarchical => {
            // The classifier checks keys only after the shape, so a
            // non-hierarchical verdict may still hide straddling blocks —
            // and the bounds need key uniqueness everywhere.
            if let Some(reason) = key_straddle(resolved, scans) {
                return BoundsPlan::Sample(reason);
            }
            if let Some(reason) = alias_live_mismatch(resolved, scans) {
                return BoundsPlan::Sample(reason);
            }
            if let Some(aliases_only) = Dissociation::admit(resolved, &[]) {
                // Hierarchical already: only the aliases dissociate.
                return BoundsPlan::Dissociate(vec![aliases_only]);
            }
            let candidates = minimal_dissociations(resolved);
            if candidates.is_empty() {
                BoundsPlan::Sample("no admissible dissociation".into())
            } else {
                BoundsPlan::Dissociate(candidates)
            }
        }
        // The classifier never hands other classes to the bounds planner.
        _ => BoundsPlan::Sample("not a bounds-eligible plan class".into()),
    }
}

/// Process-wide count of [`minimal_dissociations`] invocations — the
/// breadth-first candidate search is the expensive cold half of bounds
/// planning, and warm plan-cache hits must skip it entirely. Exposed (as
/// [`dissociation_search_count`]) so tests and benches can assert the
/// skip instead of inferring it from timings.
static DISSOCIATION_SEARCHES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many times the candidate dissociation search has run in this
/// process. Warm bounds queries (plan-cache hits) leave it unchanged:
/// cached plans carry their candidates and compiled bracket programs.
pub fn dissociation_search_count() -> u64 {
    DISSOCIATION_SEARCHES.load(std::sync::atomic::Ordering::Relaxed)
}

/// All minimal-size extension sets that make the shape hierarchical and
/// admit a dissociated decomposition. Searches breadth-first by extension
/// count (size 1, then 2); beyond that it falls back to the always-valid
/// full dissociation (every term in every class).
fn minimal_dissociations(resolved: &Resolved) -> Vec<Dissociation> {
    DISSOCIATION_SEARCHES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let pairs: Vec<(usize, usize)> = (0..resolved.shape.classes.len())
        .flat_map(|c| {
            let members = resolved.shape.classes[c].terms();
            (0..resolved.shape.terms.len())
                .filter(move |t| !members.contains(t))
                .map(move |t| (c, t))
        })
        .collect();
    let singles: Vec<Dissociation> = pairs
        .iter()
        .filter_map(|&p| Dissociation::admit(resolved, &[p]))
        .collect();
    if !singles.is_empty() {
        return singles;
    }
    let mut doubles = Vec::new();
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            doubles.extend(Dissociation::admit(resolved, &[pairs[i], pairs[j]]));
        }
    }
    if !doubles.is_empty() {
        return doubles;
    }
    Dissociation::admit(resolved, &pairs).into_iter().collect()
}

/// The evaluated ensemble: the intersected bracket, the decomposition of
/// the candidate with the tightest upper bound, and the dissociated
/// variables behind each side of the bracket.
#[derive(Debug)]
pub(crate) struct DissociatedBounds {
    pub lower: f64,
    pub upper: f64,
    pub plan: SafePlan,
    /// Human-readable dissociation entries for the report.
    pub dissociated: Vec<String>,
}

/// Evaluates every candidate dissociation on both bound modes and
/// intersects the brackets (reference recursion: one [`grad::record`]ed
/// tape per candidate and mode; the bytecode VM runs each candidate's
/// program twice and ends in the same [`bracket`] tail, so the two paths
/// pick identical winners).
pub(crate) fn evaluate_bounds(
    resolved: &Resolved,
    compiled: &[CompiledTerm],
    candidates: &[Dissociation],
) -> DissociatedBounds {
    let evals: Vec<(f64, f64)> = candidates
        .iter()
        .map(|cand| {
            let side = |mode| {
                grad::record(resolved, compiled, &cand.extensions, mode)
                    .value()
                    .clamp(0.0, 1.0)
            };
            (side(Mode::Upper), side(Mode::Lower))
        })
        .collect();
    bracket(resolved, candidates, &evals)
}

/// The tail both bounds evaluators share: intersects the per-candidate
/// `(upper, lower)` brackets and describes the winners.
pub(crate) fn bracket(
    resolved: &Resolved,
    candidates: &[Dissociation],
    evals: &[(f64, f64)],
) -> DissociatedBounds {
    let choice = intersect_candidates(evals);
    DissociatedBounds {
        lower: choice.lower,
        upper: choice.upper,
        plan: candidates[choice.upper_at].plan.clone(),
        dissociated: dissociated_entries(resolved, candidates, &choice),
    }
}

/// The intersected bracket and which candidate won each side.
#[derive(Debug, Clone, Copy)]
struct BracketChoice {
    lower: f64,
    upper: f64,
    upper_at: usize,
    lower_at: usize,
}

/// Intersects per-candidate `(upper, lower)` brackets: the tightest of
/// each side wins (strict comparisons, first winner kept), with a midpoint
/// collapse when floating point crosses an (in exact arithmetic) ordered
/// pair.
fn intersect_candidates(evals: &[(f64, f64)]) -> BracketChoice {
    debug_assert!(!evals.is_empty());
    let mut best_upper = f64::INFINITY;
    let mut best_lower = f64::NEG_INFINITY;
    let (mut upper_at, mut lower_at) = (0usize, 0usize);
    for (i, &(upper, lower)) in evals.iter().enumerate() {
        if upper < best_upper {
            best_upper = upper;
            upper_at = i;
        }
        if lower > best_lower {
            best_lower = lower;
            lower_at = i;
        }
    }
    if best_lower > best_upper {
        let mid = 0.5 * (best_lower + best_upper);
        best_lower = mid;
        best_upper = mid;
    }
    BracketChoice {
        lower: best_lower,
        upper: best_upper,
        upper_at,
        lower_at,
    }
}

/// The dissociated-variable entries of an intersected bracket: the alias
/// groups, then the extensions of both winners.
fn dissociated_entries(
    resolved: &Resolved,
    candidates: &[Dissociation],
    choice: &BracketChoice,
) -> Vec<String> {
    let mut dissociated = Vec::new();
    for group in alias_groups(resolved) {
        let names: Vec<String> = group
            .iter()
            .map(|&t| format!("`{}`", resolved.shape.terms[t].name))
            .collect();
        dissociated.push(format!(
            "{} ≡ independent copies of `{}`",
            names.join(", "),
            resolved.shape.terms[group[0]].relation
        ));
    }
    for &i in &[choice.upper_at, choice.lower_at] {
        for &(c, t) in &candidates[i].extensions {
            let entry = format!(
                "`{}` ⇢ [{}]",
                resolved.shape.terms[t].name, resolved.shape.classes[c].label
            );
            if !dissociated.contains(&entry) {
                dissociated.push(entry);
            }
        }
    }
    dissociated
}

/// Which side of the bracket a recursion computes. Exact evaluation is
/// the upper side of the empty dissociation: with no copies every leaf
/// has `k = d = 1`, and both sides reduce to the plain mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Upper,
    Lower,
}

impl Mode {
    /// The Bernoulli mass a leaf block of (clamped) mass `m` contributes
    /// on this side, for a term with alias multiplicity `k` replicated
    /// into `d` branches.
    ///
    /// * Upper: alias copies are a conjunctive dissociation — `m^(1/k)`
    ///   per copy multiplies back to `m`; branch replicas keep `m`
    ///   (disjunctive copies at the original probability only
    ///   over-count).
    /// * Lower: branch replicas take the propagation mass
    ///   `1 - (1-m)^(1/d)` — their `d`-fold disjunction reproduces `m`;
    ///   alias copies keep `m` (conjunctive copies at the original
    ///   probability only under-count).
    ///
    /// The VM's leaf op and the reference tape both call this, so their
    /// leaf arithmetic is one definition.
    pub(crate) fn mass(self, m: f64, k: f64, d: f64) -> f64 {
        match self {
            Mode::Upper if k > 1.0 => m.powf(1.0 / k),
            Mode::Lower if d > 1.0 => 1.0 - (1.0 - m).powf(1.0 / d),
            _ => m,
        }
    }
}

/// Extended per-class term sets: resolved memberships plus dissociated
/// copies.
pub(crate) fn extended_class_terms(resolved: &Resolved, ext: &[(usize, usize)]) -> Vec<Vec<usize>> {
    resolved
        .shape
        .classes
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let mut terms = c.terms();
            terms.extend(ext.iter().filter(|&&(ec, _)| ec == ci).map(|&(_, et)| et));
            terms.sort_unstable();
            terms.dedup();
            terms
        })
        .collect()
}

/// The root class of a dissociated component: covers every term under the
/// extended memberships and still *binds* at least one of them (a key
/// column to partition on must exist somewhere).
pub(crate) fn covering_root(
    resolved: &Resolved,
    class_terms: &[Vec<usize>],
    comp: &[usize],
    active: &[usize],
) -> Option<usize> {
    active.iter().copied().find(|&c| {
        comp.iter().all(|t| class_terms[c].contains(t))
            && comp
                .iter()
                .any(|t| resolved.shape.classes[c].terms().contains(t))
    })
}

/// Alias multiplicity per term: how many scans share its relation.
pub(crate) fn alias_multiplicities(resolved: &Resolved) -> Vec<f64> {
    resolved
        .shape
        .terms
        .iter()
        .map(|t| {
            resolved
                .shape
                .terms
                .iter()
                .filter(|o| o.relation == t.relation)
                .count() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Query;
    use crate::block::{Alternative, Block};
    use crate::catalog::Catalog;
    use crate::database::ProbDb;
    use crate::plan::classify::{classify, compile_terms, resolve, scan_terms};
    use crate::plan::report::PlanClass;
    use mrsl_relation::{AttrId, CompleteTuple, Schema};

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    /// The classic unsafe chain `R(x), S(x,y), T(y)` over tiny relations.
    /// Tuples are "present" when their `ok` attribute passes the
    /// selection, so every block keeps a unique join key among its live
    /// alternatives (the precondition dissociation shares with the safe
    /// plan).
    fn chain_catalog() -> Catalog {
        let one = |n: &str| {
            Schema::builder()
                .attribute(n, ["v0", "v1"])
                .attribute("ok", ["no", "yes"])
                .build()
                .unwrap()
        };
        let two = Schema::builder()
            .attribute("x", ["v0", "v1"])
            .attribute("y", ["v0", "v1"])
            .attribute("ok", ["no", "yes"])
            .build()
            .unwrap();
        let pair = |k: u16, p: f64| vec![alt(vec![k, 0], 1.0 - p), alt(vec![k, 1], p)];
        let spair =
            |x: u16, y: u16, p: f64| vec![alt(vec![x, y, 0], 1.0 - p), alt(vec![x, y, 1], p)];
        let mut r = ProbDb::new(one("x"));
        r.push_block(Block::new(0, pair(0, 0.6)).unwrap()).unwrap();
        r.push_block(Block::new(1, pair(1, 0.5)).unwrap()).unwrap();
        let mut s = ProbDb::new(two);
        s.push_block(Block::new(0, spair(0, 1, 0.7)).unwrap())
            .unwrap();
        s.push_block(Block::new(1, spair(1, 0, 0.4)).unwrap())
            .unwrap();
        s.push_block(Block::new(2, spair(0, 0, 0.5)).unwrap())
            .unwrap();
        let mut t = ProbDb::new(one("y"));
        t.push_block(Block::new(0, pair(0, 0.8)).unwrap()).unwrap();
        t.push_block(Block::new(1, pair(1, 0.3)).unwrap()).unwrap();
        let mut catalog = Catalog::new();
        catalog.add("r", r).unwrap();
        catalog.add("s", s).unwrap();
        catalog.add("t", t).unwrap();
        catalog
    }

    fn chain_query() -> Query {
        use crate::predicate::Predicate;
        use mrsl_relation::ValueId;
        let ok2 = Predicate::eq(AttrId(1), ValueId(1));
        let ok3 = Predicate::eq(AttrId(2), ValueId(1));
        Query::scan("r")
            .filter(ok2.clone())
            .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))])
            .join_on_rel("s", Query::scan("t").filter(ok2), [(AttrId(1), AttrId(0))])
    }

    #[test]
    fn chain_query_has_single_extension_dissociations() {
        let catalog = chain_catalog();
        let flat = chain_query().flatten().unwrap();
        let resolved = resolve(&flat, |n| catalog.get(n)).unwrap();
        let candidates = minimal_dissociations(&resolved);
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_eq!(c.extensions.len(), 1, "{:?}", c.extensions);
            assert!(shape_violation(&resolved, &c.extensions).is_none());
        }
        // Dissociating R into the y-class and T into the x-class both
        // repair the chain.
        let exts: Vec<(usize, usize)> = candidates.iter().map(|c| c.extensions[0]).collect();
        assert!(exts.contains(&(1, 0)) || exts.contains(&(0, 0)) || exts.len() >= 2);
    }

    #[test]
    fn chain_bounds_bracket_the_brute_force_probability() {
        let catalog = chain_catalog();
        let q = chain_query();
        let brute = crate::testutil::oracle_probability(&catalog, &q).unwrap();
        let flat = q.flatten().unwrap();
        let resolved = resolve(&flat, |n| catalog.get(n)).unwrap();
        let scans = scan_terms(&resolved);
        let compiled = compile_terms(&resolved, &scans);
        let classification = classify(&resolved, &scans);
        assert_eq!(classification.class, PlanClass::NonHierarchical);
        let BoundsPlan::Dissociate(cands) = plan_bounds(&resolved, &scans, classification.class)
        else {
            panic!("chain query must dissociate");
        };
        let bounds = evaluate_bounds(&resolved, &compiled, &cands);
        assert!(
            bounds.lower - 1e-12 <= brute && brute <= bounds.upper + 1e-12,
            "bracket [{}, {}] misses brute {}",
            bounds.lower,
            bounds.upper,
            brute
        );
        assert!(bounds.upper - bounds.lower < 0.5, "vacuous bracket");
        assert!(!bounds.dissociated.is_empty());
        assert!(
            bounds.plan.render().contains("copy"),
            "{}",
            bounds.plan.render()
        );
    }

    /// A bounds candidate is one program over one register set, run once
    /// per bracket side; on a liftable join (no copies, no aliases) the
    /// two sides read the same registers and agree bit for bit.
    #[test]
    fn bounds_candidates_bind_one_register_set_each() {
        use crate::algebra::Statistic;
        use crate::plan::compile::{cache_tag, CompiledProgram};
        use crate::plan::{vm, CatalogEngine};

        let catalog = chain_catalog();
        let engine = CatalogEngine::new(&catalog);
        let q = chain_query();
        engine.probability_bounds(&q).unwrap();
        let tag = cache_tag(Statistic::ProbabilityBounds).unwrap();
        let plan = engine
            .plan_cache()
            .probe(tag, q.flatten().unwrap().shape_hash())
            .expect("the bounds plan is cached");
        let CompiledProgram::Bounds(candidates) = &plan.program else {
            panic!("the chain compiles to a bounds ensemble");
        };
        assert!(candidates.len() > 1, "{candidates:?}");
        let memo = plan.memo.lock().unwrap();
        assert_eq!(memo.regs.per_program.len(), candidates.len());

        let ok = |attr| crate::predicate::Predicate::eq(AttrId(attr), mrsl_relation::ValueId(1));
        let join = Query::scan("r")
            .filter(ok(1))
            .join_on(Query::scan("s").filter(ok(2)), [(AttrId(0), AttrId(0))]);
        let flat = join.flatten().unwrap();
        let resolved = resolve(&flat, |n| catalog.get(n)).unwrap();
        let scans = scan_terms(&resolved);
        let compiled = compile_terms(&resolved, &scans);
        let program = lower(&resolved, &[]).expect("a liftable join lowers");
        let cuts = vec![vm::Cut::default(); compiled.len()];
        let regs = vm::bind_program(&program, &compiled, &cuts);
        let upper = vm::run_prebound(&program, &regs, Mode::Upper);
        let lower_side = vm::run_prebound(&program, &regs, Mode::Lower);
        assert_eq!(upper.to_bits(), lower_side.to_bits());
        let (p, _) = engine.probability(&join).unwrap();
        assert_eq!(upper.to_bits(), p.to_bits());
        assert!(0.0 < p && p < 1.0, "{p}");
    }

    #[test]
    fn hierarchical_queries_collapse_to_exact() {
        // Only aliases dissociate on hierarchical shapes; with none the
        // planner reports Exact.
        let catalog = chain_catalog();
        let q = Query::scan("r").join_on("s", [(AttrId(0), AttrId(0))]);
        let flat = q.flatten().unwrap();
        let resolved = resolve(&flat, |n| catalog.get(n)).unwrap();
        let scans = scan_terms(&resolved);
        let classification = classify(&resolved, &scans);
        assert_eq!(classification.class, PlanClass::Liftable);
        assert!(matches!(
            plan_bounds(&resolved, &scans, classification.class),
            BoundsPlan::Exact
        ));
    }
}
