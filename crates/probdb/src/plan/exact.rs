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
use super::RankedTuple;
use crate::column::Bitmap;
use mrsl_relation::{AttrId, CompleteTuple};
use std::ops::Range;

/// `E[|result|]` of any conjunctive query shape, by joining per-relation
/// expected-mass tables over the join-class assignments.
pub(crate) fn expected_join_count(resolved: &Resolved, compiled: &[CompiledTerm]) -> f64 {
    let steps = count_steps(resolved);
    run_mass_join(
        &steps,
        &mass_tables(&steps, compiled),
        resolved.shape.classes.len(),
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
    let mut bound_classes = vec![false; resolved.shape.classes.len()];
    resolved
        .shape
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
/// memoizes them next to the boolean registers ([`StepMass`]).
pub(crate) type MassTable = Vec<(Vec<u16>, f64)>;

/// Builds every step's grouped mass table, in step order.
pub(crate) fn mass_tables(steps: &[MassStep], compiled: &[CompiledTerm]) -> Vec<MassTable> {
    steps
        .iter()
        .map(|step| grouped_term_mass(&compiled[step.term], step))
        .collect()
}

/// Deterministic expected-count fold over prebuilt (possibly memoized)
/// mass tables, one per step: each step joins the accumulated class
/// assignments against its term's grouped mass table, probing only the
/// keys compatible with the already-bound classes (binary search on the
/// bound-key prefix) instead of the old `assign × key` cross product.
/// Assignments and mass tables are kept sorted with equal keys merge-
/// summed, so the result is independent of hash iteration order; the
/// interpreter and the bytecode VM both call this kernel, which makes
/// their expected counts bit-identical by construction.
pub(crate) fn run_mass_join<'t>(
    steps: &[MassStep],
    tables: impl IntoIterator<Item = &'t MassTable>,
    classes: usize,
) -> f64 {
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
/// side is a binary search on the bound prefix. It is a fold in row
/// order, live certain rows then live alternatives, into one sum per key
/// ([`StepRows::fold`]): each key's additions keep their order, which is
/// what makes it equal, bit for bit, to sorting the rows stably by key
/// and summing the runs.
pub(crate) fn grouped_term_mass(ct: &CompiledTerm, step: &MassStep) -> MassTable {
    StepRows::new(ct, step, true, 0..ct.live_alts.len()).fold()
}

/// One step's mass tables as the plan memo keeps them: the fold state at
/// the block cut and the whole table. Appended blocks land after the
/// cut, so the table after a push is the kept state with the
/// alternatives from the cut on folded in ([`StepMass::append`]).
#[derive(Debug)]
pub(crate) struct StepMass {
    /// The fold of every live certain row, then the live alternatives
    /// before the cut (an alternative row, at a block boundary).
    prefix: MassTable,
    /// The fold of every live row: what [`run_mass_join`] reads.
    pub(crate) table: MassTable,
}

impl StepMass {
    /// Folds the step's live rows, keeping the state at the alternative
    /// row `cut`.
    pub(crate) fn build(ct: &CompiledTerm, step: &MassStep, cut: usize) -> Self {
        let prefix = StepRows::new(ct, step, true, 0..cut).fold();
        let table = StepRows::new(ct, step, false, cut..ct.live_alts.len()).fold_onto(&prefix);
        StepMass { prefix, table }
    }

    /// Brings the tables up to date after appends, when the live rows and
    /// masses before the old cut `from` are those of the last fold (the
    /// certain rows included, which come first in the fold): folds the
    /// live alternatives in `from..cut` into the kept state, which moves
    /// to the new cut, and those from `cut` on onto it.
    pub(crate) fn append(&mut self, ct: &CompiledTerm, step: &MassStep, from: usize, cut: usize) {
        if cut > from {
            self.prefix = StepRows::new(ct, step, false, from..cut).fold_onto(&self.prefix);
        }
        self.table =
            StepRows::new(ct, step, false, cut..ct.live_alts.len()).fold_onto(&self.prefix);
    }
}

/// Largest key domain (the product of the key columns' value ranges)
/// [`StepRows::fold`] sums into a dense array; wider domains sort.
const DENSE_KEYS: usize = 1 << 18;

/// The live rows one fold of a step's mass visits, in fold order: the
/// live certain rows (when included), then the live alternatives of a
/// row range, each ascending.
struct StepRows<'a> {
    /// `(certain column, alternative column)` per key position, bound
    /// positions first.
    cols: Vec<(&'a [u16], &'a [u16])>,
    probs: &'a [f64],
    cert: Vec<u32>,
    alts: Vec<u32>,
}

impl<'a> StepRows<'a> {
    fn new(ct: &CompiledTerm<'a>, step: &MassStep, certain: bool, alts: Range<usize>) -> Self {
        let ones = |bits: &Bitmap, rows: Range<usize>| -> Vec<u32> {
            let end = rows.end;
            bits.iter_ones_from(rows.start)
                .take_while(|&r| r < end)
                .map(|r| r as u32)
                .collect()
        };
        let certain = if certain { ct.live_certain.len() } else { 0 };
        StepRows {
            cols: (step.bound.iter().chain(&step.fresh))
                .map(|&(pos, _)| (ct.keys[pos].1, ct.keys[pos].2))
                .collect(),
            probs: ct.db.columns().alt_probs(),
            cert: ones(ct.live_certain, 0..certain),
            alts: ones(ct.live_alts, alts),
        }
    }

    /// Each row's key column values, in key position order, with its
    /// weight, in fold order.
    fn weighted(&self) -> impl Iterator<Item = (impl Iterator<Item = u16> + '_, f64)> + '_ {
        let key = move |r: u32, alt: bool| {
            (self.cols.iter()).map(move |&(c, a)| if alt { a } else { c }[r as usize])
        };
        let cert = self.cert.iter().map(move |&r| (key(r, false), 1.0));
        cert.chain(
            self.alts
                .iter()
                .map(move |&r| (key(r, true), self.probs[r as usize])),
        )
    }

    /// Folds these rows, in order, into one sum per key: into an array
    /// indexed by the key's mixed-radix code (first position most
    /// significant, so ascending codes are ascending keys) when the key
    /// domain — each column's largest value plus one, multiplied — is
    /// small, by sorting otherwise. A dense sum starts at `+0.0`, and
    /// `+0.0 + w` is `w` bit for bit for every weight but `-0.0`, which no
    /// row weighs.
    fn fold(&self) -> MassTable {
        let radix: Vec<usize> = (self.cols.iter())
            .map(|(c, a)| 1 + c.iter().chain(*a).max().map_or(0, |&v| v as usize))
            .collect();
        let size = radix.iter().try_fold(1usize, |n, &r| n.checked_mul(r));
        let Some(size) = size.filter(|&n| n <= DENSE_KEYS) else {
            return self.fold_onto(&[]);
        };
        let mut sums = vec![0.0f64; size];
        let mut seen = Bitmap::zeros(size);
        for (key, w) in self.weighted() {
            let code = key.zip(&radix).fold(0, |c, (k, &n)| c * n + k as usize);
            sums[code] += w;
            seen.set(code);
        }
        seen.iter_ones()
            .map(|code| {
                let mut key = vec![0u16; radix.len()];
                let mut rest = code;
                for (k, &n) in key.iter_mut().zip(&radix).rev() {
                    *k = (rest % n) as u16;
                    rest /= n;
                }
                (key, sums[code])
            })
            .collect()
    }

    /// Folds these rows, in order, onto `base` (the table of the rows
    /// before them): a stable sort by key of the `base` entries followed
    /// by the rows, whose runs sum from the `base` entry, or from the first
    /// row's weight, through the later rows' weights one by one.
    fn fold_onto(&self, base: &[(Vec<u16>, f64)]) -> MassTable {
        let mut rows = base.to_vec();
        rows.extend(self.weighted().map(|(key, w)| (key.collect(), w)));
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        merge_runs(rows)
    }
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
        /// The row-order fold equals the comparator-sorted table bit for
        /// bit: 0- to 3-column keys in random bound/fresh splits (a chain
        /// `s(x, y)` step keys on two), key domains with gaps, keys only
        /// certain rows hold, blocks whose alternatives straddle key
        /// groups, live sets from empty to full, and domains too wide for
        /// the dense array. The fold state at any block cut is the table
        /// of the rows before it, and appending from one cut to a later
        /// one gives what a fold at the later cut gives.
        #[test]
        fn grouped_term_mass_matches_comparator_sort(
            seed in 0u64..100_000,
            (certain, blocks) in (0usize..12, 0usize..10),
            (cert_live, alt_live) in (0usize..4, 0usize..4),
            (nk, nbound) in (0usize..=3, 0usize..=3),
            (wide, cuts) in (0u8..2, (0usize..12, 0usize..12)),
        ) {
            let mut rng = mrsl_util::seeded_rng(seed);
            let v: Vec<String> = (0..128).map(|i| format!("v{i}")).collect();
            let schema = Schema::builder()
                .attribute("a", v.clone())
                .attribute("b", v.clone())
                .attribute("c", v);
            let mut db = ProbDb::new(schema.build().unwrap());
            // Alternatives take the values 0, 2, 3 and 7 (gaps between
            // them); certain rows also take 9, which no alternative has.
            let draw = |rng: &mut StdRng, values: &[u16]| {
                CompleteTuple::from_values(
                    (0..3).map(|_| values[rng.gen_range(0..values.len())]).collect(),
                )
            };
            for _ in 0..certain {
                db.push_certain(draw(&mut rng, &[0, 3, 7, 9])).unwrap();
            }
            if wide == 1 {
                // One value near the top of every column: a key domain past
                // the dense array's size.
                db.push_certain(CompleteTuple::from_values(vec![120; 3])).unwrap();
            }
            for key in 0..blocks {
                let mut alts: Vec<Alternative> = Vec::new();
                for _ in 0..rng.gen_range(1..5usize) {
                    let tuple = draw(&mut rng, &[0, 2, 3, 7]);
                    let prob = rng.gen_range(1..100u32) as f64;
                    if alts.iter().all(|a| a.tuple != tuple) {
                        alts.push(Alternative { tuple, prob });
                    }
                }
                db.push_block(Block::normalized(key, alts).unwrap()).unwrap();
            }
            let live = |rng: &mut StdRng, len: usize, pct: u32| {
                let mut bits = Bitmap::zeros(len);
                (0..len).filter(|_| rng.gen_range(0..100u32) < pct).for_each(|i| bits.set(i));
                bits
            };
            let pcts = [0, 35, 70, 100];
            let cols = db.columns();
            let (cert, alt) = (cols.certain(), cols.alternatives());
            let live_certain = live(&mut rng, cert.rows(), pcts[cert_live]);
            let live_alts = live(&mut rng, alt.rows(), pcts[alt_live]);
            let term = |live_alts| CompiledTerm {
                relation: "r",
                db: &db,
                live_certain: &live_certain,
                live_alts,
                keys: (0..3u16).map(|a| (a as usize, cert.col(AttrId(a)), alt.col(AttrId(a)))).collect(),
            };
            let ct = term(&live_alts);
            let mut bound: Vec<(usize, usize)> = (0..3).map(|p| (p, p)).collect();
            bound.shuffle(&mut rng);
            bound.truncate(nk);
            let fresh = bound.split_off(nbound.min(nk));
            let step = MassStep { term: 0, bound, fresh };
            let bits = |table: &[(Vec<u16>, f64)]| -> Vec<(Vec<u16>, u64)> {
                table.iter().map(|(k, m)| (k.clone(), m.to_bits())).collect()
            };
            let want = bits(&reference_term_mass(&ct, &step));
            proptest::prop_assert_eq!(bits(&grouped_term_mass(&ct, &step)), want.clone());
            // Fold states at two block cuts, and the append between them.
            let (c0, c1) = (cuts.0.min(cuts.1).min(blocks), cuts.0.max(cuts.1).min(blocks));
            let (r0, r1) = (cols.block_offset(c0), cols.block_offset(c1));
            let mut before_cut = live_alts.clone();
            before_cut.truncate(r1);
            before_cut.append(&Bitmap::zeros(alt.rows() - r1));
            let at_c1 = StepMass::build(&ct, &step, r1);
            proptest::prop_assert_eq!(bits(&at_c1.table), want.clone());
            proptest::prop_assert_eq!(
                bits(&at_c1.prefix),
                bits(&reference_term_mass(&term(&before_cut), &step))
            );
            let mut appended = StepMass::build(&ct, &step, r0);
            appended.append(&ct, &step, r0, r1);
            proptest::prop_assert_eq!(bits(&appended.table), want);
            proptest::prop_assert_eq!(bits(&appended.prefix), bits(&at_c1.prefix));
        }
    }
}
