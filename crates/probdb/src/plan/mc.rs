//! Monte-Carlo evaluation of resolved queries.
//!
//! The fallback path for everything the exact evaluators cannot lift:
//! non-hierarchical shapes, key-correlated blocks, aliased self-joins,
//! out-of-budget DPs, forced sampling, and the bracket-gated refinement of
//! dissociation bounds. One *joint world* draws one alternative per block
//! in every **distinct** catalog relation the query touches, through
//! [`draw_rows`] — the one world-draw loop, built on the same
//! [`choose_weighted`] primitive as [`crate::world::sample_world`], so a
//! single relation's draws match that reference sampler draw for draw.
//! Aliased scans of one relation read the *same* draw — they see one
//! world, which is exactly the dependence that makes self-joins unsafe
//! for the independent-product plans. The query tree is then evaluated
//! row-wise against the drawn world by a hash-join over the join-class
//! assignments, yielding the per-world result count every estimator is
//! derived from.

use super::classify::CompiledTerm;
use crate::database::ProbDb;
use crate::world::choose_weighted;
use mrsl_util::{seeded_rng, FxHashMap, OnlineStats};
use rand::Rng;

/// Draws one world of `db` — one [`choose_weighted`] call per block, in
/// block order — folding `f` over each block index and the chosen
/// alternative's row id (block offset + choice), starting from `init`.
/// The accumulator travels by value, so a count stays in a register.
fn draw_rows<R: Rng + ?Sized, A>(
    db: &ProbDb,
    rng: &mut R,
    init: A,
    mut f: impl FnMut(A, usize, usize) -> A,
) -> A {
    let cols = db.columns();
    let probs = cols.alt_probs();
    let mut acc = init;
    for b in 0..cols.block_count() {
        let range = cols.block_range(b);
        let chosen = choose_weighted(probs[range.clone()].iter().copied(), rng);
        acc = f(acc, b, range.start + chosen);
    }
    acc
}

/// Per-world result counts of a resolved query over `n` joint worlds.
pub(crate) fn sample_join_counts(
    compiled: &[CompiledTerm],
    class_count: usize,
    n: usize,
    seed: u64,
) -> Vec<u64> {
    debug_assert!(n > 0, "callers check the sample budget");
    let mut rng = seeded_rng(seed);
    if class_count == 0 {
        // A single scan: its live certain rows plus the drawn live
        // alternatives, counted without building row lists.
        debug_assert_eq!(compiled.len(), 1, "joins always bind classes");
        let ct = &compiled[0];
        let certain = ct.live_certain.count_ones() as u64;
        return (0..n)
            .map(|_| {
                draw_rows(ct.db, &mut rng, certain, |count, _, r| {
                    count + u64::from(ct.live_alts.get(r))
                })
            })
            .collect();
    }
    // One draw per *distinct relation*, shared by its aliased scans:
    // map every term to the first term scanning the same relation.
    let draw_group: Vec<usize> = compiled
        .iter()
        .map(|ct| {
            compiled
                .iter()
                .position(|o| o.relation == ct.relation)
                .expect("the term itself matches")
        })
        .collect();
    // Live certain rows are present in every world; precompute their ids.
    let certain_rows: Vec<Vec<u32>> = compiled
        .iter()
        .map(|ct| ct.live_certain.iter_ones().map(|i| i as u32).collect())
        .collect();
    let mut counts = Vec::with_capacity(n);
    let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); compiled.len()];
    let mut alt_rows: Vec<Vec<u32>> = vec![Vec::new(); compiled.len()];
    for _ in 0..n {
        // One world: one draw per distinct relation, then per scan the
        // live certain rows plus the drawn live alternatives.
        for (t, ct) in compiled.iter().enumerate() {
            if draw_group[t] == t {
                let rows = &mut chosen[t];
                rows.clear();
                draw_rows(ct.db, &mut rng, (), |(), _, r| rows.push(r));
            }
        }
        for (t, (ct, alts)) in compiled.iter().zip(&mut alt_rows).enumerate() {
            alts.clear();
            alts.extend(
                chosen[draw_group[t]]
                    .iter()
                    .filter(|&&r| ct.live_alts.get(r))
                    .map(|&r| r as u32),
            );
        }
        counts.push(world_count(compiled, class_count, &certain_rows, &alt_rows));
    }
    counts
}

/// Result count of one drawn world: a hash-join of the per-term present
/// rows (certain rows index the certain columns, alternatives the
/// alternative columns) over the join-class assignments.
fn world_count(
    compiled: &[CompiledTerm],
    class_count: usize,
    certain_rows: &[Vec<u32>],
    alt_rows: &[Vec<u32>],
) -> u64 {
    let mut acc: FxHashMap<Vec<u16>, u64> = FxHashMap::default();
    acc.insert(vec![u16::MAX; class_count], 1);
    for (t, ct) in compiled.iter().enumerate() {
        // Group this term's present rows by its join-key values.
        let mut groups: FxHashMap<Vec<u16>, u64> = FxHashMap::default();
        for &r in &certain_rows[t] {
            let key: Vec<u16> = ct
                .keys
                .iter()
                .map(|&(_, ckey, _)| ckey[r as usize])
                .collect();
            *groups.entry(key).or_insert(0) += 1;
        }
        for &r in &alt_rows[t] {
            let key: Vec<u16> = ct
                .keys
                .iter()
                .map(|&(_, _, akey)| akey[r as usize])
                .collect();
            *groups.entry(key).or_insert(0) += 1;
        }
        let mut next: FxHashMap<Vec<u16>, u64> = FxHashMap::default();
        for (assign, m) in &acc {
            'keys: for (key, c) in &groups {
                let mut merged = assign.clone();
                for (&(ci, _, _), &v) in ct.keys.iter().zip(key) {
                    if merged[ci] == u16::MAX {
                        merged[ci] = v;
                    } else if merged[ci] != v {
                        continue 'keys;
                    }
                }
                *next.entry(merged).or_insert(0) += m * c;
            }
        }
        acc = next;
        if acc.is_empty() {
            return 0;
        }
    }
    acc.values().sum()
}

/// `(estimate, standard error)` of `P(result non-empty)` from per-world
/// counts.
pub(crate) fn probability_estimate(counts: &[u64]) -> (f64, f64) {
    let n = counts.len() as f64;
    let hits = counts.iter().filter(|&&c| c > 0).count() as f64;
    let p = hits / n;
    (p, (p * (1.0 - p) / n).sqrt())
}

/// `(mean, standard error)` of the result count from per-world counts.
pub(crate) fn count_estimate(counts: &[u64]) -> (f64, f64) {
    let mut stats = OnlineStats::new();
    for &c in counts {
        stats.push(c as f64);
    }
    (stats.mean(), stats.std_dev() / (counts.len() as f64).sqrt())
}

/// Histogram `d[k] = P(|result| = k)` from per-world counts, over
/// `0..len` or `0..=max count`, whichever is longer.
pub(crate) fn count_histogram(counts: &[u64], len: usize) -> Vec<f64> {
    let max = counts.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0.0f64; len.max(max + 1)];
    for &c in counts {
        hist[c as usize] += 1.0;
    }
    let n = counts.len() as f64;
    hist.iter_mut().for_each(|h| *h /= n);
    hist
}

/// Per-block hit frequency of the selection over `n` sampled worlds
/// (single-relation marginals on the forced-Monte-Carlo path).
pub(crate) fn mc_selection_marginals(ct: &CompiledTerm, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let mut hits = vec![0usize; ct.db.columns().block_count()];
    for _ in 0..n {
        draw_rows(ct.db, &mut rng, (), |(), b, r| {
            hits[b] += usize::from(ct.live_alts.get(r));
        });
    }
    hits.iter().map(|&h| h as f64 / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Query;
    use crate::block::{Alternative, Block};
    use crate::catalog::Catalog;
    use crate::plan::classify::{compile_terms, resolve, scan_terms};
    use crate::plan::{CatalogEngine, QueryEngineConfig};
    use crate::predicate::Predicate;
    use crate::world::sample_world;
    use mrsl_relation::schema::fig1_schema;
    use mrsl_relation::{AttrId, CompleteTuple, ValueId};

    fn catalog() -> Catalog {
        let alt = |values: Vec<u16>, prob: f64| Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        };
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
        let mut catalog = Catalog::new();
        catalog.add("db", db).unwrap();
        catalog
    }

    fn pred() -> Predicate {
        Predicate::eq(AttrId(2), ValueId(1)).or(Predicate::eq(AttrId(3), ValueId(1)))
    }

    #[test]
    fn compiled_sampler_matches_world_sampling_draw_for_draw() {
        // Same seed → the count-only scan sampler and sample_world choose
        // the same alternatives, so per-world counts are identical.
        let catalog = catalog();
        let db = catalog.get("db").unwrap();
        let flat = Query::scan("db").filter(pred()).flatten().unwrap();
        let resolved = resolve(&flat, |name| catalog.get(name)).unwrap();
        let scans = scan_terms(&resolved);
        let compiled = compile_terms(&resolved, &scans);
        let fast = sample_join_counts(&compiled, 0, 200, 42);
        let mut rng = seeded_rng(42);
        for (i, &count) in fast.iter().enumerate() {
            let w = sample_world(db, &mut rng);
            let slow = w.tuples.iter().filter(|t| pred().eval(t)).count();
            assert_eq!(count, slow as u64, "world {i}");
        }
    }

    #[test]
    fn forced_marginals_are_hit_frequencies_of_the_same_draws() {
        let catalog = catalog();
        let db = catalog.get("db").unwrap();
        let (n, seed) = (500, 7);
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig {
                force_monte_carlo: true,
                mc_samples: n,
                mc_seed: seed,
                ..QueryEngineConfig::default()
            },
        );
        let (marginals, _) = engine.marginals(&Query::scan("db").filter(pred())).unwrap();
        // sample_world lists the certain rows, then one tuple per block.
        let mut hits = vec![0usize; db.blocks().len()];
        let mut rng = seeded_rng(seed);
        for _ in 0..n {
            let w = sample_world(db, &mut rng);
            for (b, t) in w.tuples[db.certain().len()..].iter().enumerate() {
                hits[b] += usize::from(pred().eval(t));
            }
        }
        let freqs: Vec<f64> = hits.iter().map(|&h| h as f64 / n as f64).collect();
        assert_eq!(marginals, freqs);
    }
}
