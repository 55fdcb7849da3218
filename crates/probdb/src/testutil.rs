//! Brute-force oracles for the query subsystem.
//!
//! Every exact evaluator, sampler and bound in [`crate::plan`] is tested
//! against the same ground truth: enumerate the possible worlds of every
//! relation a query scans, take their cartesian product (one world per
//! *relation* — aliased scans of one relation read the same world, which
//! is exactly the dependence the planner must respect), and evaluate the
//! query's conjunctive form in each joint world by exhaustive assignment
//! counting. This module is that oracle, shared by the crate's unit
//! tests, the workspace integration suites and the proptest harnesses so
//! no suite re-implements world enumeration.
//!
//! Exponential in the total number of blocks — strictly a test utility.
//!
//! [`interpreted`] is the second reference: the planner's recursive
//! interpreter — one reference tape per dissociation and bracket side,
//! the exact plan being the dissociation with no copies — which the
//! compiled bytecode must match bit for bit.
//!
//! ```
//! use mrsl_probdb::testutil::oracle_probability;
//! use mrsl_probdb::{Catalog, ProbDb, Query};
//! use mrsl_relation::Schema;
//!
//! let schema = Schema::builder()
//!     .attribute("k", ["a", "b"])
//!     .build()
//!     .unwrap();
//! let mut catalog = Catalog::new();
//! catalog.add("r", ProbDb::new(schema)).unwrap();
//! let p = oracle_probability(&catalog, &Query::scan("r")).unwrap();
//! assert_eq!(p, 0.0); // empty relation: no world has a result
//! ```

use crate::algebra::{Query, Statistic};
use crate::catalog::Catalog;
use crate::plan::classify::{resolve, Resolved};
use crate::plan::{EvalReport, PlanCache, QueryAnswer, QueryEngineConfig};
use crate::world::{enumerate_worlds, PossibleWorld};
use crate::ProbDbError;
use mrsl_relation::CompleteTuple;

/// Joint-world budget of the convenience wrappers. Oracle cost is the
/// product of the scanned relations' world counts times the assignment
/// count per world; tests should stay far below this.
pub const DEFAULT_WORLD_LIMIT: u128 = 4_000_000;

/// Everything the oracle can say about one boolean/count query.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleAnswer {
    /// `P(result non-empty)` over the joint worlds.
    pub probability: f64,
    /// `E[|result|]` under bag semantics.
    pub expected_count: f64,
    /// `d[k] = P(|result| = k)`.
    pub count_distribution: Vec<f64>,
    /// Number of joint worlds enumerated.
    pub worlds: u128,
}

/// Brute-force `P(result non-empty)` of `query` against `catalog`.
///
/// # Panics
/// Panics when the joint world count exceeds [`DEFAULT_WORLD_LIMIT`].
pub fn oracle_probability(catalog: &Catalog, query: &Query) -> Result<f64, ProbDbError> {
    Ok(oracle(catalog, query, DEFAULT_WORLD_LIMIT)?.probability)
}

/// Brute-force `E[|result|]` of `query` against `catalog`.
///
/// # Panics
/// Panics when the joint world count exceeds [`DEFAULT_WORLD_LIMIT`].
pub fn oracle_expected_count(catalog: &Catalog, query: &Query) -> Result<f64, ProbDbError> {
    Ok(oracle(catalog, query, DEFAULT_WORLD_LIMIT)?.expected_count)
}

/// Brute-force `P(|result| = k)` of `query` against `catalog`.
///
/// # Panics
/// Panics when the joint world count exceeds [`DEFAULT_WORLD_LIMIT`].
pub fn oracle_count_distribution(
    catalog: &Catalog,
    query: &Query,
) -> Result<Vec<f64>, ProbDbError> {
    Ok(oracle(catalog, query, DEFAULT_WORLD_LIMIT)?.count_distribution)
}

/// Evaluates `query` with the recursive reference interpreter instead of
/// the bytecode VM: the same planning verdict, the same samplers, no plan
/// cache ([`crate::PlanRoute::Uncached`]). The compiled programs — cold,
/// warm, patched, served, at any thread count — must reproduce its
/// `Probability`, `ProbabilityBounds` and `ExpectedCount` answers bit for
/// bit, which is what the bit-identity suites check against. Linear in
/// the data, unlike the world-enumerating [`oracle`].
pub fn interpreted(
    catalog: &Catalog,
    query: &Query,
    stat: Statistic,
    config: &QueryEngineConfig,
) -> Result<(QueryAnswer, EvalReport), ProbDbError> {
    crate::plan::evaluate_interpreted(catalog, query, stat, config)
}

/// The registers and mass tables `cache` memoizes for `query`'s `stat`
/// plan, as raw bits; `None` when the cache holds no such plan or the
/// plan samples. A memo brought up to date after writes must equal, bit
/// for bit, the memo a fresh cache binds over the same data. Probing
/// counts as a use of the entry for the cache's LRU order.
pub fn memo_bits(cache: &PlanCache, query: &Query, stat: Statistic) -> Option<Vec<u64>> {
    crate::plan::memo_bits(cache, query, stat)
}

/// The full oracle: enumerates every joint world of the relations `query`
/// scans and evaluates the query's conjunctive form in each.
///
/// Resolution errors (unknown relations, incompatible join dictionaries,
/// misplaced filters, duplicate scan names…) surface exactly as they do
/// in the planner, so error-path tests can share the oracle too.
///
/// # Panics
/// Panics when the joint world count exceeds `max_worlds` — enumeration
/// is exponential and meant for small test fixtures.
pub fn oracle(
    catalog: &Catalog,
    query: &Query,
    max_worlds: u128,
) -> Result<OracleAnswer, ProbDbError> {
    let flat = query.flatten()?;
    let resolved = resolve(&flat, |name| catalog.get(name))?;

    // One world set per *distinct relation*; aliased scans share it.
    let mut relations: Vec<&str> = Vec::new();
    for t in &resolved.shape.terms {
        if !relations.iter().any(|r| *r == t.relation) {
            relations.push(&t.relation);
        }
    }
    let mut total: u128 = 1;
    for r in &relations {
        total = total.saturating_mul(catalog.resolve(r)?.world_count());
    }
    assert!(
        total <= max_worlds,
        "oracle would enumerate {total} joint worlds, exceeding the limit {max_worlds}"
    );
    let worlds_per_relation: Vec<Vec<PossibleWorld>> = relations
        .iter()
        .map(|r| enumerate_worlds(catalog.resolve(r).expect("resolved above"), max_worlds))
        .collect();
    let world_of_term: Vec<usize> = resolved
        .shape
        .terms
        .iter()
        .map(|t| {
            relations
                .iter()
                .position(|r| *r == t.relation)
                .expect("collected above")
        })
        .collect();

    let mut probability = 0.0;
    let mut expected_count = 0.0;
    let mut histogram: Vec<f64> = vec![0.0];
    let mut choice = vec![0usize; relations.len()];
    loop {
        let mut weight = 1.0;
        for (ri, &c) in choice.iter().enumerate() {
            weight *= worlds_per_relation[ri][c].prob;
        }
        // Rows of each term: its relation-world's tuples passing the
        // term's selection.
        let term_rows: Vec<Vec<&CompleteTuple>> = resolved
            .shape
            .terms
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                worlds_per_relation[world_of_term[ti]][choice[world_of_term[ti]]]
                    .tuples
                    .iter()
                    .filter(|tuple| t.pred.eval(tuple))
                    .collect()
            })
            .collect();
        let mut bound = vec![None; resolved.shape.classes.len()];
        let count = count_assignments(&resolved, &term_rows, 0, &mut bound);
        if count > 0 {
            probability += weight;
        }
        expected_count += weight * count as f64;
        if histogram.len() <= count as usize {
            histogram.resize(count as usize + 1, 0.0);
        }
        histogram[count as usize] += weight;

        // Advance the mixed-radix joint-world counter.
        let mut ri = 0;
        loop {
            if ri == relations.len() {
                return Ok(OracleAnswer {
                    probability,
                    expected_count,
                    count_distribution: histogram,
                    worlds: total,
                });
            }
            choice[ri] += 1;
            if choice[ri] < worlds_per_relation[ri].len() {
                break;
            }
            choice[ri] = 0;
            ri += 1;
        }
    }
}

/// Number of row assignments (one row per term) satisfying every join
/// class, counted by exhaustive backtracking over the terms.
fn count_assignments(
    resolved: &Resolved,
    term_rows: &[Vec<&CompleteTuple>],
    t: usize,
    bound: &mut [Option<u16>],
) -> u64 {
    if t == term_rows.len() {
        return 1;
    }
    let mut total = 0;
    'tuples: for tuple in &term_rows[t] {
        let mut newly_bound: Vec<usize> = Vec::new();
        for (ci, class) in resolved.shape.classes.iter().enumerate() {
            for &(ti, attr) in &class.members {
                if ti != t {
                    continue;
                }
                let v = tuple.raw()[attr.index()];
                match bound[ci] {
                    Some(x) if x != v => {
                        for &c in &newly_bound {
                            bound[c] = None;
                        }
                        continue 'tuples;
                    }
                    Some(_) => {}
                    None => {
                        bound[ci] = Some(v);
                        newly_bound.push(ci);
                    }
                }
            }
        }
        total += count_assignments(resolved, term_rows, t + 1, bound);
        for &c in &newly_bound {
            bound[c] = None;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Alternative, Block};
    use crate::database::ProbDb;
    use crate::predicate::Predicate;
    use mrsl_relation::{AttrId, CompleteTuple, Schema, ValueId};

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    #[test]
    fn single_relation_probability_matches_closed_form() {
        let schema = Schema::builder()
            .attribute("k", ["a", "b"])
            .build()
            .unwrap();
        let mut db = ProbDb::new(schema);
        db.push_block(Block::new(0, vec![alt(vec![0], 0.3), alt(vec![1], 0.7)]).unwrap())
            .unwrap();
        db.push_block(Block::new(1, vec![alt(vec![0], 0.4), alt(vec![1], 0.6)]).unwrap())
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("r", db).unwrap();
        let q = Query::scan("r").filter(Predicate::eq(AttrId(0), ValueId(0)));
        let answer = oracle(&catalog, &q, 1_000).unwrap();
        // P(∃ k=a) = 1 - 0.7·0.6; E = 0.3 + 0.4.
        assert!((answer.probability - (1.0 - 0.42)).abs() < 1e-12);
        assert!((answer.expected_count - 0.7).abs() < 1e-12);
        let mean: f64 = answer
            .count_distribution
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum();
        assert!((mean - 0.7).abs() < 1e-12);
        assert_eq!(answer.worlds, 4);
    }

    #[test]
    fn aliased_scans_share_one_world() {
        // σ[k=a](r) ⋈ σ[k=a](r) on the key: the result is non-empty
        // exactly when r's tuple lands on `a`, so the self-join
        // probability equals the selection probability — only if both
        // aliases read the *same* world.
        let schema = Schema::builder()
            .attribute("k", ["a", "b"])
            .build()
            .unwrap();
        let mut db = ProbDb::new(schema);
        db.push_block(Block::new(0, vec![alt(vec![0], 0.5), alt(vec![1], 0.5)]).unwrap())
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("r", db).unwrap();
        let sel = Predicate::eq(AttrId(0), ValueId(0));
        let q = Query::scan_as("r", "r1").filter(sel.clone()).join_on(
            Query::scan_as("r", "r2").filter(sel),
            [(AttrId(0), AttrId(0))],
        );
        let answer = oracle(&catalog, &q, 1_000).unwrap();
        assert!((answer.probability - 0.5).abs() < 1e-12);
        assert!((answer.expected_count - 0.5).abs() < 1e-12);
        assert_eq!(answer.worlds, 2); // one relation, two worlds — not four
    }

    #[test]
    fn resolution_errors_surface() {
        let catalog = Catalog::new();
        let e = oracle_probability(&catalog, &Query::scan("missing"));
        assert!(matches!(e, Err(ProbDbError::UnknownRelation(_))));
    }
}
