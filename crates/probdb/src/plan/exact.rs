//! Exact extensional statistics that need no safe-plan recursion.
//!
//! The boolean probability is not here: it is the empty dissociation,
//! lowered to bytecode by [`super::compile::lower`] and recorded as the
//! reference tape by [`super::grad::record`]. What stays are the
//! statistics that are exact for every shape they accept, all running
//! on the columnar stores through the compiled live-row bitmaps:
//!
//! * [`expected_join_count`] — `E[|result|]` by linearity of expectation:
//!   every combination of one row per relation that satisfies the join
//!   contributes the product of its row probabilities (rows of different
//!   relations are always independent). This needs no hierarchy or key
//!   uniqueness, so it is exact for *every* join shape.
//! * the single-relation statistics: [`single_expected_count`], the
//!   count distribution ([`poisson_binomial`] over the per-block
//!   selection marginals), [`value_marginal`] and [`top_k`].

use super::classify::{CompiledTerm, Resolved};
use super::{vm, RankedTuple};
use mrsl_relation::{AttrId, CompleteTuple};

/// `E[|result|]` of any conjunctive query shape, by joining per-relation
/// expected-mass tables over the join-class assignments.
pub(crate) fn expected_join_count(resolved: &Resolved, compiled: &[CompiledTerm]) -> f64 {
    let steps = count_steps(resolved);
    run_mass_join(
        &steps,
        &mass_tables(&steps, compiled),
        resolved.classes.len(),
    )
}

/// One fold step of the expected-count mass join ([`run_mass_join`]):
/// which key positions of `term` probe classes already bound by earlier
/// steps, and which bind fresh classes for the steps after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MassStep {
    /// Index into the compiled terms.
    pub(crate) term: usize,
    /// `(key position, class)` pairs bound by earlier steps — the probe.
    pub(crate) bound: Vec<(usize, usize)>,
    /// `(key position, class)` pairs this step binds.
    pub(crate) fresh: Vec<(usize, usize)>,
}

/// The fold schedule for [`run_mass_join`], derived purely from the
/// resolved shape (term order and per-term class keys) — it contains no
/// data, so the plan cache can store it.
pub(crate) fn count_steps(resolved: &Resolved) -> Vec<MassStep> {
    let mut bound_classes = vec![false; resolved.classes.len()];
    resolved
        .terms
        .iter()
        .enumerate()
        .map(|(t, term)| {
            let mut bound = Vec::new();
            let mut fresh = Vec::new();
            for (pos, &(ci, _)) in term.class_attrs.iter().enumerate() {
                if bound_classes[ci] {
                    bound.push((pos, ci));
                } else {
                    fresh.push((pos, ci));
                    bound_classes[ci] = true;
                }
            }
            MassStep {
                term: t,
                bound,
                fresh,
            }
        })
        .collect()
}

/// One step's grouped expected-mass table: `(key, mass)` sorted
/// lexicographically by key (see [`grouped_term_mass`]). Tables depend
/// only on the step shape and the term's live rows, so the plan cache
/// memoizes them next to the boolean registers.
pub(crate) type MassTable = Vec<(Vec<u16>, f64)>;

/// Builds every step's grouped mass table, in step order.
pub(crate) fn mass_tables(steps: &[MassStep], compiled: &[CompiledTerm]) -> Vec<MassTable> {
    steps
        .iter()
        .map(|step| grouped_term_mass(&compiled[step.term], step))
        .collect()
}

/// Deterministic expected-count fold over prebuilt (possibly memoized)
/// mass tables: each step joins the accumulated class assignments
/// against its term's grouped mass table, probing only the keys
/// compatible with the already-bound classes (binary search on the
/// bound-key prefix) instead of the old `assign × key` cross product.
/// Assignments and mass tables are kept sorted with equal keys merge-
/// summed, so the result is independent of hash iteration order; the
/// interpreter and the bytecode VM both call this kernel, which makes
/// their expected counts bit-identical by construction.
pub(crate) fn run_mass_join(steps: &[MassStep], tables: &[MassTable], classes: usize) -> f64 {
    // Seed: the empty assignment (one per class, u16::MAX = unbound).
    let mut acc: Vec<(Vec<u16>, f64)> = vec![(vec![u16::MAX; classes], 1.0)];
    for (step, grouped) in steps.iter().zip(tables) {
        let nb = step.bound.len();
        let mut next: Vec<(Vec<u16>, f64)> = Vec::new();
        let mut probe = vec![0u16; nb];
        for (assign, w) in &acc {
            for (i, &(_, ci)) in step.bound.iter().enumerate() {
                probe[i] = assign[ci];
            }
            let lo = grouped.partition_point(|(k, _)| k[..nb] < probe[..]);
            let hi = lo + grouped[lo..].partition_point(|(k, _)| k[..nb] == probe[..]);
            for (key, m) in &grouped[lo..hi] {
                let mut merged = assign.clone();
                for (i, &(_, ci)) in step.fresh.iter().enumerate() {
                    merged[ci] = key[nb + i];
                }
                next.push((merged, w * m));
            }
        }
        if next.is_empty() {
            return 0.0;
        }
        next.sort_by(|a, b| a.0.cmp(&b.0));
        acc = merge_runs(next);
    }
    acc.iter().map(|&(_, w)| w).sum()
}

/// Expected mass of one step's term keyed by `bound ++ fresh` positions
/// (certain rows weigh 1, alternatives their probability), sorted
/// lexicographically with equal keys summed in row order — so the probe
/// side is a binary search on the bound prefix. The key positions are
/// gathered into dense columns (live certain rows, then live
/// alternatives, each in row order) and ordered by [`vm::sort_by_path`],
/// the stable radix sort the register binder uses, so tied rows keep
/// that certain-then-alternative order and every sum its addition
/// sequence.
pub(crate) fn grouped_term_mass(ct: &CompiledTerm, step: &MassStep) -> MassTable {
    let probs = ct.db.columns().alt_probs();
    let cert: Vec<usize> = ct.live_certain.iter_ones().collect();
    let alts: Vec<usize> = ct.live_alts.iter_ones().collect();
    let cols: Vec<Vec<u16>> = step
        .bound
        .iter()
        .chain(&step.fresh)
        .map(|&(pos, _)| {
            let (_, ccol, acol) = ct.keys[pos];
            let cert_keys = cert.iter().map(|&r| ccol[r]);
            cert_keys.chain(alts.iter().map(|&r| acol[r])).collect()
        })
        .collect();
    let weight = |i: usize| match i.checked_sub(cert.len()) {
        None => 1.0,
        Some(a) => probs[alts[a]],
    };
    let mut order: Vec<u32> = (0..(cert.len() + alts.len()) as u32).collect();
    vm::sort_by_path(
        &mut order,
        &cols.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    );
    let mut table: MassTable = Vec::new();
    for i in order.into_iter().map(|i| i as usize) {
        match table.last_mut() {
            Some((key, acc)) if key.iter().zip(&cols).all(|(&k, col)| k == col[i]) => {
                *acc += weight(i)
            }
            _ => table.push((cols.iter().map(|col| col[i]).collect(), weight(i))),
        }
    }
    table
}

/// Sums runs of equal keys in an already-sorted `(key, weight)` list,
/// preserving first-occurrence order of the weights within each run.
fn merge_runs(mut rows: Vec<(Vec<u16>, f64)>) -> Vec<(Vec<u16>, f64)> {
    let mut out: Vec<(Vec<u16>, f64)> = Vec::with_capacity(rows.len());
    for (key, w) in rows.drain(..) {
        match out.last_mut() {
            Some((k, acc)) if *k == key => *acc += w,
            _ => out.push((key, w)),
        }
    }
    out
}

/// `E[|result|]` of a single relation with no join classes: certain rows
/// count 1, blocks contribute their selection-restricted mass (linearity
/// of expectation across blocks). Shared by the interpreter path and the
/// VM's count program so both are bit-identical.
pub(crate) fn single_expected_count(ct: &CompiledTerm) -> f64 {
    ct.live_certain.count_ones() as f64
        + ct.db
            .columns()
            .block_probs(ct.live_alts)
            .iter()
            .sum::<f64>()
}

/// Selection-weighted marginal distribution of `attr` over one relation:
/// live certain rows count 1, live alternatives their probability,
/// normalized over the matching mass. With the always-true selection this
/// is the expected histogram of `attr` normalized by the expected table
/// size.
pub(crate) fn value_marginal(ct: &CompiledTerm, attr: AttrId) -> Vec<f64> {
    let cols = ct.db.columns();
    let card = ct.db.schema().cardinality(attr);
    let mut hist = vec![0.0f64; card];
    let ccol = cols.certain().col(attr);
    for r in ct.live_certain.iter_ones() {
        hist[ccol[r] as usize] += 1.0;
    }
    let acol = cols.alternatives().col(attr);
    let probs = cols.alt_probs();
    for r in ct.live_alts.iter_ones() {
        hist[acol[r] as usize] += probs[r];
    }
    let total: f64 = hist.iter().sum();
    if total > 0.0 {
        hist.iter_mut().for_each(|h| *h /= total);
    }
    hist
}

/// The Poisson-binomial DP over per-block selection probabilities, shifted
/// by `base` certain matches: `d[k] = P(COUNT(*) = k)`, since blocks are
/// independent Bernoulli trials. Blocks with probability 0 contribute
/// nothing and are skipped (they still occupy a slot in the distribution's
/// support bound, keeping the output length at `base + probs.len() + 1`).
pub(crate) fn poisson_binomial(base: usize, probs: &[f64]) -> Vec<f64> {
    let mut dist = vec![0.0f64; probs.len() + 1];
    dist[0] = 1.0;
    let mut upper = 0usize;
    for &p in probs {
        if p == 0.0 {
            continue;
        }
        upper += 1;
        for k in (0..=upper).rev() {
            let stay = dist[k] * (1.0 - p);
            let come = if k > 0 { dist[k - 1] * p } else { 0.0 };
            dist[k] = stay + come;
        }
    }
    // Shift by the certain matches.
    let mut shifted = vec![0.0f64; base + dist.len()];
    for (k, &p) in dist.iter().enumerate() {
        shifted[base + k] = p;
    }
    shifted
}

/// The `k` most probable live rows of one relation (certain rows have
/// probability 1).
///
/// The order is a deterministic total order: probability descending
/// (compared with [`f64::total_cmp`], so no panic path on any input),
/// then certain tuples before block tuples, then block key ascending,
/// then alternative position within the block.
pub(crate) fn top_k(ct: &CompiledTerm, k: usize) -> Vec<RankedTuple> {
    let cols = ct.db.columns();
    let mut ranked: Vec<RankedTuple> = Vec::new();
    for i in ct.live_certain.iter_ones() {
        ranked.push(RankedTuple {
            tuple: CompleteTuple::from_values(cols.certain().row(i)),
            prob: 1.0,
            block: None,
        });
    }
    for b in 0..cols.block_count() {
        for row in cols.block_range(b).filter(|&row| ct.live_alts.get(row)) {
            ranked.push(RankedTuple {
                tuple: CompleteTuple::from_values(cols.alternatives().row(row)),
                prob: cols.alt_probs()[row],
                block: Some(cols.block_key(b)),
            });
        }
    }
    // `ranked` is built certain-first, then blocks in push order, then
    // alternatives in block order — a stable sort on (prob desc, certain
    // first, block key asc) therefore yields the documented total order.
    ranked.sort_by(|x, y| {
        y.prob
            .total_cmp(&x.prob)
            .then_with(|| match (x.block, y.block) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (Some(a), Some(b)) => a.cmp(&b),
            })
    });
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Alternative, Block};
    use crate::column::Bitmap;
    use crate::database::ProbDb;
    use mrsl_relation::Schema;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// The comparator-sort builder [`grouped_term_mass`] replaced: one
    /// key vector per live row, stable-sorted, runs summed.
    fn reference_term_mass(ct: &CompiledTerm, step: &MassStep) -> MassTable {
        let probs = ct.db.columns().alt_probs();
        let positions: Vec<usize> = step.bound.iter().chain(&step.fresh).map(|p| p.0).collect();
        let mut rows: Vec<(Vec<u16>, f64)> = Vec::new();
        for r in ct.live_certain.iter_ones() {
            rows.push((positions.iter().map(|&p| ct.keys[p].1[r]).collect(), 1.0));
        }
        for r in ct.live_alts.iter_ones() {
            let key = positions.iter().map(|&p| ct.keys[p].2[r]).collect();
            rows.push((key, probs[r]));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        merge_runs(rows)
    }

    #[test]
    fn poisson_binomial_keeps_a_slot_for_impossible_blocks() {
        // Two certain matches, one impossible block, two coin flips.
        let dist = poisson_binomial(2, &[0.5, 0.0, 0.25]);
        assert_eq!(dist.len(), 2 + 3 + 1);
        assert_eq!(&dist[..2], &[0.0, 0.0]);
        let want = [0.5 * 0.75, 0.5 * 0.75 + 0.5 * 0.25, 0.5 * 0.25, 0.0];
        for (k, (&got, &want)) in dist[2..].iter().zip(&want).enumerate() {
            assert!((got - want).abs() < 1e-15, "k={k}: {got} vs {want}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The radix-sorted mass table equals the comparator-sorted one
        /// bit for bit: random certain rows and blocks (whose
        /// alternatives straddle key groups), random live sets (empty
        /// ones included), and random bound/fresh splits of the keys.
        #[test]
        fn grouped_term_mass_matches_comparator_sort(
            seed in 0u64..100_000,
            (certain, blocks) in (0usize..12, 0usize..10),
            live_pct in 0u32..=100,
            (nk, nbound) in (0usize..=3, 0usize..=3),
        ) {
            let mut rng = mrsl_util::seeded_rng(seed);
            let v = ["v0", "v1", "v2"];
            let schema = Schema::builder().attribute("a", v).attribute("b", v).attribute("c", v);
            let mut db = ProbDb::new(schema.build().unwrap());
            let draw = |rng: &mut StdRng| {
                CompleteTuple::from_values((0..3).map(|_| rng.gen_range(0..3u16)).collect())
            };
            for _ in 0..certain {
                db.push_certain(draw(&mut rng)).unwrap();
            }
            for key in 0..blocks {
                let mut alts: Vec<Alternative> = Vec::new();
                for _ in 0..rng.gen_range(1..5usize) {
                    let (tuple, prob) = (draw(&mut rng), rng.gen_range(1..100u32) as f64);
                    if alts.iter().all(|a| a.tuple != tuple) {
                        alts.push(Alternative { tuple, prob });
                    }
                }
                db.push_block(Block::normalized(key, alts).unwrap()).unwrap();
            }
            let live = |rng: &mut StdRng, len: usize| {
                let mut bits = Bitmap::zeros(len);
                (0..len).filter(|_| rng.gen_range(0..100u32) < live_pct).for_each(|i| bits.set(i));
                bits
            };
            let (cert, alt) = (db.columns().certain(), db.columns().alternatives());
            let (live_certain, live_alts) = (live(&mut rng, cert.rows()), live(&mut rng, alt.rows()));
            let ct = CompiledTerm {
                relation: "r",
                db: &db,
                live_certain: &live_certain,
                live_alts: &live_alts,
                keys: (0..3u16).map(|a| (a as usize, cert.col(AttrId(a)), alt.col(AttrId(a)))).collect(),
            };
            let mut bound: Vec<(usize, usize)> = (0..3).map(|p| (p, p)).collect();
            bound.shuffle(&mut rng);
            bound.truncate(nk);
            let fresh = bound.split_off(nbound.min(nk));
            let step = MassStep { term: 0, bound, fresh };
            let bits = |table: MassTable| -> Vec<(Vec<u16>, u64)> {
                table.into_iter().map(|(k, m)| (k, m.to_bits())).collect()
            };
            proptest::prop_assert_eq!(
                bits(grouped_term_mass(&ct, &step)),
                bits(reference_term_mass(&ct, &step))
            );
        }
    }
}
