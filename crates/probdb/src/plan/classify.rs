//! Query resolution and safe-plan classification.
//!
//! Resolution turns a [`Query`](crate::algebra::Query) tree into its
//! conjunctive form bound to actual relations: one [`Term`] per scan with
//! its combined (simplified) predicate, and the equi-join conditions
//! collapsed into join-variable *classes* (equivalence classes of
//! `relation.attribute` pairs under the join conditions).
//!
//! Classification then decides whether the boolean query is *safe* for
//! extensional evaluation, following the hierarchical-query criterion of
//! the lifted-inference literature (Dalvi & Suciu; Gatterbauer & Suciu):
//!
//! 1. **Shape.** For every two join classes, the sets of relations they
//!    touch must be nested or disjoint. A violation (e.g. `R(x), S(x,y),
//!    T(y)`) makes the query non-hierarchical — `#P`-hard in general — and
//!    routes it to Monte Carlo.
//! 2. **Keys.** Within every block, all alternatives that survive the
//!    selection must agree on each join-key attribute. If a block
//!    straddles two key values, the per-key partitions are *correlated*
//!    (the block can serve either key but not both) and the independent
//!    product the safe plan relies on is wrong — also Monte Carlo. Because
//!    deeper recursion levels only ever shrink the per-block alternative
//!    sets, checking this once at the top level covers every level.
//!
//! Queries passing both checks are [`PlanClass::Liftable`]; the
//! decomposition that certifies it is recorded as a [`SafePlan`].
//!
//! The data-dependent inputs — each term's live rows, the key check and
//! the alias live-set check — come from a [`TermScan`] per term, kept per
//! storage segment so that a cached plan refreshes them in O(delta)
//! ([`refresh_scans`]); a cold plan scans every segment through the same
//! refresh.

use super::report::{PlanClass, SafePlan};
use crate::algebra::{Flattened, ResolvedPair};
use crate::column::{Bitmap, ColumnSet, ColumnStore};
use crate::database::ProbDb;
use crate::database::SEGMENT_LEN;
use crate::predicate::Predicate;
use crate::ProbDbError;
use mrsl_relation::{AttrId, Schema};
use std::ops::Range;
use std::sync::Arc;

/// One scan of a resolved query, with its combined selection. It holds no
/// data: the relation it reads is bound per evaluation ([`Resolved`]).
#[derive(Debug)]
pub(crate) struct Term {
    /// Name the scan is addressed by: its alias, or the relation name.
    pub name: String,
    /// Catalog relation the scan reads (shared across aliased scans).
    pub relation: String,
    pub pred: Predicate,
    /// `(class index, representative attribute)` for every class this term
    /// participates in, in ascending class order. When the term has several
    /// attributes in one class, the representative is the first; the others
    /// are equality-constrained into the live bitmaps.
    pub class_attrs: Vec<(usize, AttrId)>,
    /// The relation's schema at resolution; a cached plan binds only
    /// relations that still have it.
    pub schema: Arc<Schema>,
}

/// One join-variable class: the `relation.attribute` pairs unified by the
/// query's join conditions.
#[derive(Debug)]
pub(crate) struct Class {
    /// `(term index, attribute)` members, in discovery order.
    pub members: Vec<(usize, AttrId)>,
    /// Human-readable label, e.g. `sensors.station = readings.station`.
    pub label: String,
}

impl Class {
    /// The distinct term indices touching this class, ascending.
    pub fn terms(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self.members.iter().map(|&(i, _)| i).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// A query's resolved shape: its terms and join classes. It holds no
/// data, so a cached plan keeps it once, behind an [`Arc`], and binds it
/// to each evaluation's relations.
#[derive(Debug)]
pub(crate) struct Shape {
    pub terms: Vec<Term>,
    pub classes: Vec<Class>,
}

/// A resolved shape bound to relations: `dbs[t]` is the relation term `t`
/// reads.
#[derive(Debug)]
pub(crate) struct Resolved<'a> {
    pub shape: Arc<Shape>,
    pub dbs: Vec<&'a ProbDb>,
}

/// Resolves the conjunctive form against a relation lookup (a catalog or
/// a served snapshot), simplifying predicates,
/// unifying join attributes into classes and checking dictionary
/// compatibility of every join pair.
pub(crate) fn resolve<'a>(
    flat: &Flattened,
    lookup: impl Fn(&str) -> Option<&'a ProbDb>,
) -> Result<Resolved<'a>, ProbDbError> {
    let mut terms: Vec<Term> = Vec::with_capacity(flat.terms.len());
    let mut dbs = Vec::with_capacity(flat.terms.len());
    for t in &flat.terms {
        let db =
            lookup(&t.relation).ok_or_else(|| ProbDbError::UnknownRelation(t.relation.clone()))?;
        let pred = t.pred.simplify();
        let attrs = pred.attrs();
        if let Some(a) = attrs.iter().find(|a| a.index() >= db.schema().attr_count()) {
            return Err(ProbDbError::UnknownRelation(format!(
                "{}.#{} (attribute out of range)",
                t.relation,
                a.index()
            )));
        }
        terms.push(Term {
            name: t.name.clone(),
            relation: t.relation.clone(),
            pred,
            class_attrs: Vec::new(),
            schema: db.schema().clone(),
        });
        dbs.push(db);
    }

    // Union-find over (term, attr) pairs to build the join classes.
    let mut nodes: Vec<(usize, AttrId)> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let node_of =
        |nodes: &mut Vec<(usize, AttrId)>, parent: &mut Vec<usize>, key: (usize, AttrId)| {
            match nodes.iter().position(|&n| n == key) {
                Some(i) => i,
                None => {
                    nodes.push(key);
                    parent.push(nodes.len() - 1);
                    nodes.len() - 1
                }
            }
        };
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for &ResolvedPair {
        left_term,
        left_attr,
        right_term,
        right_attr,
    } in &flat.joins
    {
        for &(term, attr) in &[(left_term, left_attr), (right_term, right_attr)] {
            if attr.index() >= terms[term].schema.attr_count() {
                return Err(ProbDbError::UnknownRelation(format!(
                    "{}.#{} (join attribute out of range)",
                    terms[term].name,
                    attr.index()
                )));
            }
        }
        let (ls, rs) = (&terms[left_term].schema, &terms[right_term].schema);
        if !crate::catalog::same_dictionary(ls.attr(left_attr), rs.attr(right_attr)) {
            return Err(ProbDbError::IncompatibleJoinDomains {
                left: format!("{}.{}", terms[left_term].name, ls.attr(left_attr).name()),
                right: format!("{}.{}", terms[right_term].name, rs.attr(right_attr).name()),
            });
        }
        let a = node_of(&mut nodes, &mut parent, (left_term, left_attr));
        let b = node_of(&mut nodes, &mut parent, (right_term, right_attr));
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut classes: Vec<Class> = Vec::new();
    let mut root_class: Vec<(usize, usize)> = Vec::new(); // (root node, class idx)
    for (i, &node) in nodes.iter().enumerate() {
        let root = find(&mut parent, i);
        let class = match root_class.iter().find(|&&(r, _)| r == root) {
            Some(&(_, c)) => c,
            None => {
                classes.push(Class {
                    members: Vec::new(),
                    label: String::new(),
                });
                root_class.push((root, classes.len() - 1));
                classes.len() - 1
            }
        };
        classes[class].members.push(node);
    }
    for class in &mut classes {
        let label: Vec<String> = class
            .members
            .iter()
            .map(|&(t, a)| format!("{}.{}", terms[t].name, terms[t].schema.attr(a).name()))
            .collect();
        class.label = label.join(" = ");
    }
    // Each term learns which classes it participates in (ascending class
    // order, since `classes` is iterated in index order) and which of its
    // attributes represents the class.
    for (ci, class) in classes.iter().enumerate() {
        for t in class.terms() {
            let rep = class
                .members
                .iter()
                .find(|&&(ti, _)| ti == t)
                .map(|&(_, a)| a)
                .expect("term is a member");
            terms[t].class_attrs.push((ci, rep));
        }
    }
    Ok(Resolved {
        shape: Arc::new(Shape { terms, classes }),
        dbs,
    })
}

/// The value-only scan state of one term, kept per storage segment: what
/// a warm plan memoizes so that, after a publish, it re-evaluates only
/// the segments whose value stamps moved.
///
/// A certain segment is [`SEGMENT_LEN`] certain rows, a block segment
/// [`SEGMENT_LEN`] blocks with all their alternative rows, matching the
/// value stamps of [`ProbDb`]. Rows are append-only, so the segments
/// whose stamps still match form a prefix; [`TermScan::refresh`] keeps
/// that prefix and re-scans the rest. A cold plan is the case where no
/// prefix matches. Nothing here reads a mass, which is why mass updates
/// (which move no value stamp) leave the scan valid. Per row it holds
/// only the two live-row bitmaps.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermScan {
    /// Value stamps of the certain segments this scan covers.
    certain_stamps: Vec<u64>,
    /// Value stamps of the block segments this scan covers.
    block_stamps: Vec<u64>,
    /// One bit per certain row: does it survive selection and intra-class
    /// equality?
    live_certain: Bitmap,
    /// One bit per alternative row, same condition.
    live_alts: Bitmap,
    /// Per block segment: its blocks with no live alternative.
    pruned: Vec<u32>,
    /// Per block segment: the least `(key position, block)` whose live
    /// alternatives straddle that join key (key positions in
    /// `class_attrs` order), if any.
    straddle: Vec<Option<(u32, u32)>>,
    /// Per certain segment: do this scan's live rows differ there from
    /// those of the first scan of its relation in the query? Always
    /// `false` outside self-join alias groups.
    alias_certain: Vec<bool>,
    /// Per block segment, the same for the alternative rows.
    alias_blocks: Vec<bool>,
}

/// Where a scan refresh found its relation's value stamps moved: the
/// first certain and the first block segment whose stamp changed,
/// appeared or went, or `None` for a side where none did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Moved {
    pub certain: Option<usize>,
    pub blocks: Option<usize>,
}

/// Brings every term's scan up to date with its relation, re-evaluating
/// only segments whose value stamps moved (`scans` may start empty: the
/// cold case). Returns the number of certain plus alternative rows whose
/// predicate was evaluated, and per term where its stamps moved.
pub(crate) fn refresh_scans(resolved: &Resolved, scans: &mut Vec<TermScan>) -> (usize, Vec<Moved>) {
    let shape = &*resolved.shape;
    scans.resize_with(shape.terms.len(), TermScan::default);
    let mut rows = 0;
    let mut moved = Vec::with_capacity(scans.len());
    for (i, scan) in scans.iter_mut().enumerate() {
        let (evaluated, m) = scan.refresh(i, shape, resolved.dbs[i]);
        rows += evaluated;
        moved.push(m);
    }
    // Aliases scan one relation, so their scans share stamps and were
    // re-scanned from the same segments on.
    for group in alias_groups(resolved) {
        let first = group[0];
        for &t in &group[1..] {
            let (head, tail) = scans.split_at_mut(t);
            tail[0].compare_alias(&head[first], resolved.dbs[t], moved[t]);
        }
    }
    (rows, moved)
}

/// The first segment whose stamp differs between `old` and `new`, or is
/// missing from one of them; `None` when the two are equal.
fn first_moved(old: &[u64], new: &[u64]) -> Option<usize> {
    let kept = old.iter().zip(new).take_while(|(a, b)| a == b).count();
    (kept < old.len().max(new.len())).then_some(kept)
}

impl TermScan {
    /// Keeps the leading segments whose value stamps still match and
    /// re-scans the rest. Returns the rows evaluated and where the stamps
    /// moved.
    fn refresh(&mut self, idx: usize, shape: &Shape, db: &ProbDb) -> (usize, Moved) {
        let term = &shape.terms[idx];
        let cols = db.columns();
        let moved = Moved {
            certain: first_moved(&self.certain_stamps, db.certain_stamps()),
            blocks: first_moved(&self.block_stamps, db.block_stamps()),
        };
        let c0 = moved.certain.unwrap_or(self.certain_stamps.len());
        let b0 = moved.blocks.unwrap_or(self.block_stamps.len());
        let (rows_c, blocks) = (cols.certain().rows(), cols.block_count());
        let cstart = (c0 * SEGMENT_LEN).min(rows_c);
        let bstart = (b0 * SEGMENT_LEN).min(blocks);
        let (astart, rows_a) = (cols.block_offset(bstart), cols.alternatives().rows());
        self.live_certain.truncate(cstart);
        self.live_certain
            .append(&live_rows(idx, shape, cols.certain(), cstart..rows_c));
        self.live_alts.truncate(astart);
        self.live_alts
            .append(&live_rows(idx, shape, cols.alternatives(), astart..rows_a));
        self.certain_stamps = db.certain_stamps().to_vec();
        self.block_stamps = db.block_stamps().to_vec();
        // Alias verdicts start clean; `compare_alias` fills them in for
        // the second and later scans of a relation.
        self.alias_certain.truncate(c0);
        self.alias_certain.resize(self.certain_stamps.len(), false);
        self.alias_blocks.truncate(b0);
        self.alias_blocks.resize(self.block_stamps.len(), false);
        self.pruned.truncate(b0);
        self.straddle.truncate(b0);
        let keys: Vec<&[u16]> = term
            .class_attrs
            .iter()
            .map(|&(_, a)| cols.alternatives().col(a))
            .collect();
        for s in b0..self.block_stamps.len() {
            let segment = s * SEGMENT_LEN..((s + 1) * SEGMENT_LEN).min(blocks);
            let (pruned, straddle) = scan_blocks(&self.live_alts, cols, &keys, segment);
            self.pruned.push(pruned);
            self.straddle.push(straddle);
        }
        ((rows_c - cstart) + (rows_a - astart), moved)
    }

    /// Fills in the alias verdicts of this scan against `first`, the first
    /// scan of the same relation, from the segments that `moved` on.
    fn compare_alias(&mut self, first: &TermScan, db: &ProbDb, moved: Moved) {
        let cols = db.columns();
        let c0 = moved.certain.unwrap_or(self.alias_certain.len());
        let b0 = moved.blocks.unwrap_or(self.alias_blocks.len());
        let rows_c = cols.certain().rows();
        for s in c0..self.alias_certain.len() {
            let rows = s * SEGMENT_LEN..((s + 1) * SEGMENT_LEN).min(rows_c);
            self.alias_certain[s] = !self.live_certain.same_in(&first.live_certain, rows);
        }
        let blocks = cols.block_count();
        for s in b0..self.alias_blocks.len() {
            let rows = cols.block_offset(s * SEGMENT_LEN)
                ..cols.block_offset(((s + 1) * SEGMENT_LEN).min(blocks));
            self.alias_blocks[s] = !self.live_alts.same_in(&first.live_alts, rows);
        }
    }

    /// Blocks with no live alternative (prunable).
    pub(crate) fn pruned_blocks(&self) -> usize {
        self.pruned.iter().map(|&p| p as usize).sum()
    }
}

/// Pruned blocks (no live alternative) and the least straddling `(key
/// position, block)` — a block whose live alternatives disagree on that
/// key — of one block segment, under the live-row bitmap `live`. Per
/// block, the first live row and each key's straddle flag come from
/// loops over the block's rows with no data-dependent branch: a live
/// bit selects by mask, and flags accumulate with a non-short-circuit
/// `|`.
fn scan_blocks(
    live: &Bitmap,
    cols: &ColumnStore,
    keys: &[&[u16]],
    blocks: Range<usize>,
) -> (u32, Option<(u32, u32)>) {
    let (mut pruned, mut straddle) = (0u32, None::<(u32, u32)>);
    for b in blocks {
        let rows = cols.block_range(b);
        // Back to front, so the first live row is the last one kept.
        let mut first = rows.end;
        for r in rows.clone().rev() {
            let keep = (live.get(r) as usize).wrapping_neg();
            first = (r & keep) | (first & !keep);
        }
        if first == rows.end {
            pruned += 1;
            continue;
        }
        // Only a lesser key position can improve on the straddle found in
        // an earlier block.
        let found = straddle.map_or(keys.len(), |(pos, _)| pos as usize);
        for (pos, key) in keys[..found].iter().enumerate() {
            let lead = key[first];
            let mut differs = false;
            for r in rows.clone() {
                differs |= live.get(r) & (key[r] != lead);
            }
            if differs {
                straddle = Some((pos as u32, b as u32));
                break;
            }
        }
    }
    (pruned, straddle)
}

/// One bit per row of `rows` in `set`: the term's selection and the
/// implicit equality of its attributes that bind one join class. They
/// all bind the same join variable, so a row where they differ can never
/// join.
fn live_rows(idx: usize, shape: &Shape, set: &ColumnSet, rows: Range<usize>) -> Bitmap {
    let term = &shape.terms[idx];
    let mut live = term.pred.eval_rows(set, rows.clone());
    for &(ci, rep) in &term.class_attrs {
        for &(ti, attr) in &shape.classes[ci].members {
            if ti == idx && attr != rep {
                live.and_assign(&equal_columns(
                    &set.col(rep)[rows.clone()],
                    &set.col(attr)[rows.clone()],
                ));
            }
        }
    }
    live
}

/// A term bound to its relation's columnar store: the live-row bitmaps
/// of its [`TermScan`] and its per-class key columns — what the register
/// gather, the reference tape, the mass tables and the samplers read.
/// It borrows everything, so binding one is O(classes).
pub(crate) struct CompiledTerm<'a> {
    /// Catalog relation the scan reads; aliased scans of one relation
    /// share this (and their block choices — they are *not* independent).
    pub relation: &'a str,
    pub db: &'a ProbDb,
    /// One bit per certain row: does it survive selection and intra-class
    /// equality?
    pub live_certain: &'a Bitmap,
    /// One bit per alternative row, same condition.
    pub live_alts: &'a Bitmap,
    /// `(class index, certain key column, alternative key column)` for
    /// every class this term participates in.
    pub keys: Vec<(usize, &'a [u16], &'a [u16])>,
}

impl<'a> CompiledTerm<'a> {
    fn new(term: &'a Term, db: &'a ProbDb, scan: &'a TermScan) -> Self {
        let cols = db.columns();
        let keys = term
            .class_attrs
            .iter()
            .map(|&(ci, a)| (ci, cols.certain().col(a), cols.alternatives().col(a)))
            .collect();
        Self {
            relation: &term.relation,
            db,
            live_certain: &scan.live_certain,
            live_alts: &scan.live_alts,
            keys,
        }
    }

    /// The key columns of `class`, if this term participates in it.
    pub(crate) fn class_key(&self, class: usize) -> Option<(&'a [u16], &'a [u16])> {
        self.keys
            .iter()
            .find(|&&(ci, _, _)| ci == class)
            .map(|&(_, c, a)| (c, a))
    }
}

/// Binds every resolved term to its (up-to-date) scan.
pub(crate) fn compile_terms<'a>(
    resolved: &'a Resolved,
    scans: &'a [TermScan],
) -> Vec<CompiledTerm<'a>> {
    (resolved.shape.terms.iter().zip(&resolved.dbs).zip(scans))
        .map(|((t, db), scan)| CompiledTerm::new(t, db, scan))
        .collect()
}

/// Scans every term from scratch: the cold path, for callers that keep
/// no scans.
pub(crate) fn scan_terms(resolved: &Resolved) -> Vec<TermScan> {
    let mut scans = Vec::new();
    refresh_scans(resolved, &mut scans);
    scans
}

/// One bit per row: are the two columns equal there?
fn equal_columns(a: &[u16], b: &[u16]) -> Bitmap {
    debug_assert_eq!(a.len(), b.len());
    let mut bm = Bitmap::zeros(a.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x == y {
            bm.set(i);
        }
    }
    bm
}

/// The classifier's verdict for the boolean (probability) statistic.
pub(crate) struct Classification {
    pub class: PlanClass,
    pub decomposition: SafePlan,
}

/// The shape criterion: subgoal sets of every two classes nested or
/// disjoint. Returns the violating pair's labels, if any. `extra` extends
/// each class's term set with dissociated members (empty for the plain
/// classifier).
pub(crate) fn shape_violation(
    resolved: &Resolved,
    extra: &[(usize, usize)],
) -> Option<(String, String)> {
    let sgs = super::dissociate::extended_class_terms(resolved, extra);
    for i in 0..sgs.len() {
        for j in i + 1..sgs.len() {
            let inter = sgs[i].iter().filter(|t| sgs[j].contains(t)).count();
            let nested = inter == sgs[i].len() || inter == sgs[j].len();
            if inter > 0 && !nested {
                return Some((
                    resolved.shape.classes[i].label.clone(),
                    resolved.shape.classes[j].label.clone(),
                ));
            }
        }
    }
    None
}

/// The key criterion: within every block, live alternatives agree on each
/// join key the term participates in. Returns a human-readable reason for
/// the first straddling block, if any (first by term, then key, then
/// block). Restrictions at deeper recursion
/// levels only shrink the live sets, so this top-level check covers all
/// levels — of the safe plan *and* of the dissociation recursion, which
/// additionally relies on it to reduce each block to a single Bernoulli
/// event shared by every branch the block is copied into. Reads the
/// scans' per-segment verdicts; no data.
pub(crate) fn key_straddle(resolved: &Resolved, scans: &[TermScan]) -> Option<String> {
    let shape = &*resolved.shape;
    (shape.terms.iter().zip(&resolved.dbs).zip(scans)).find_map(|((term, db), scan)| {
        let &(pos, block) = scan.straddle.iter().flatten().min()?;
        let ci = term.class_attrs[pos as usize].0;
        Some(format!(
            "key-correlated: block {} of `{}` straddles values of [{}]",
            db.columns().block_key(block as usize),
            term.name,
            shape.classes[ci].label
        ))
    })
}

/// Groups of term indices scanning the same catalog relation more than
/// once (self-join alias groups), in first-scan order.
pub(crate) fn alias_groups(resolved: &Resolved) -> Vec<Vec<usize>> {
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, t) in resolved.shape.terms.iter().enumerate() {
        match groups.iter_mut().find(|(r, _)| *r == t.relation) {
            Some((_, g)) => g.push(i),
            None => groups.push((&t.relation, vec![i])),
        }
    }
    groups
        .into_iter()
        .filter(|(_, g)| g.len() > 1)
        .map(|(_, g)| g)
        .collect()
}

/// Do aliased scans of one relation see the same live alternatives in
/// every block? The dissociation bounds reduce each block to one shared
/// Bernoulli event; aliases with *different* live sets would make copies
/// of different, mutually correlated events, which neither bound
/// direction survives. Returns a reason naming the first offending group.
/// Reads the scans' per-segment verdicts; no data.
pub(crate) fn alias_live_mismatch(resolved: &Resolved, scans: &[TermScan]) -> Option<String> {
    for group in alias_groups(resolved) {
        for &t in &group[1..] {
            let scan = &scans[t];
            if scan
                .alias_certain
                .iter()
                .chain(&scan.alias_blocks)
                .any(|&m| m)
            {
                return Some(format!(
                    "alias-correlated: scans `{}` and `{}` of `{}` select different \
                     live rows, so their shared blocks cannot dissociate",
                    resolved.shape.terms[group[0]].name,
                    resolved.shape.terms[t].name,
                    resolved.shape.terms[t].relation,
                ));
            }
        }
    }
    None
}

/// Classifies a resolved multi-relation query for extensional
/// evaluation of the boolean statistic, from its terms' scans.
pub(crate) fn classify(resolved: &Resolved, scans: &[TermScan]) -> Classification {
    debug_assert!(resolved.shape.terms.len() > 1);
    // 1. Shape: subgoal sets of every two classes nested or disjoint.
    if let Some((a, b)) = shape_violation(resolved, &[]) {
        let reason = format!("non-hierarchical: classes [{a}] and [{b}] overlap without nesting");
        return Classification {
            class: PlanClass::NonHierarchical,
            decomposition: SafePlan::Unsafe { reason },
        };
    }
    // 2. Keys: within every block, live alternatives agree on each join
    // key.
    if let Some(reason) = key_straddle(resolved, scans) {
        return Classification {
            class: PlanClass::KeyCorrelated,
            decomposition: SafePlan::Unsafe { reason },
        };
    }
    // A hierarchical shape is its own empty dissociation: every
    // connected component has a covering root class.
    let program = super::compile::lower(resolved, &[]).expect("hierarchical shapes lower");
    let decomposition = super::compile::render(&program, resolved, &[]);
    // 3. Aliases: scanning one relation twice shares its block choices
    // across the scans, so the independent-product safe plan is a
    // *dissociation* of the query, not its exact value.
    let class = if alias_groups(resolved).is_empty() {
        PlanClass::Liftable
    } else {
        PlanClass::Dissociable
    };
    Classification {
        class,
        decomposition,
    }
}

/// Connected components of `comp` under the `active` classes, in
/// first-term order. `class_terms` holds each class's term set — the
/// resolved memberships for the safe plan, or the dissociation-extended
/// ones for the bounds recursion.
pub(crate) fn components(
    class_terms: &[Vec<usize>],
    comp: &[usize],
    active: &[usize],
) -> Vec<Vec<usize>> {
    let mut comps: Vec<Vec<usize>> = comp.iter().map(|&t| vec![t]).collect();
    for &c in active {
        let linked: Vec<usize> = (0..comps.len())
            .filter(|&i| comps[i].iter().any(|t| class_terms[c].contains(t)))
            .collect();
        if linked.len() > 1 {
            let mut merged = Vec::new();
            for &i in linked.iter().rev() {
                let mut part = comps.remove(i);
                merged.append(&mut part);
            }
            merged.sort_unstable();
            comps.push(merged);
        }
    }
    comps.sort_by_key(|c| c[0]);
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Alternative, Block};
    use mrsl_relation::CompleteTuple;
    use rand::Rng;

    /// The per-row scan [`scan_blocks`] replaced: the first live row by a
    /// search, then each key's disagreement by a short-circuit test.
    fn reference_scan_blocks(
        live: &Bitmap,
        cols: &ColumnStore,
        keys: &[&[u16]],
        blocks: Range<usize>,
    ) -> (u32, Option<(u32, u32)>) {
        let (mut pruned, mut straddle) = (0u32, None::<(u32, u32)>);
        for b in blocks {
            let rows = cols.block_range(b);
            let Some(first) = rows.clone().find(|&r| live.get(r)) else {
                pruned += 1;
                continue;
            };
            let found = straddle.map_or(keys.len(), |(pos, _)| pos as usize);
            if let Some(pos) = keys[..found]
                .iter()
                .position(|key| (first + 1..rows.end).any(|r| live.get(r) && key[r] != key[first]))
            {
                straddle = Some((pos as u32, b as u32));
            }
        }
        (pruned, straddle)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Block verdicts equal the per-row reference on blocks of 1, 2
        /// and 3 alternatives and blocks wider than a bitmap word, over
        /// 1–3 keys, sparse to full live sets, and any block range.
        #[test]
        fn block_verdicts_match_the_per_row_scan(
            seed in 0u64..100_000,
            blocks in 1usize..40,
            live_pct in 0u32..=100,
            (nkeys, card) in (1usize..=3, 1u16..4),
            range in (0usize..40, 0usize..40),
        ) {
            let mut rng = mrsl_util::seeded_rng(seed);
            let mut cols = ColumnStore::new(3);
            for key in 0..blocks {
                let len = [1, 2, 3, rng.gen_range(65..140)][rng.gen_range(0..4usize)];
                // Mostly agreeing keys, so straddles are rare enough to
                // leave later key positions to decide.
                let base: Vec<u16> = (0..3).map(|_| rng.gen_range(0..card)).collect();
                let alts = (0..len)
                    .map(|_| {
                        let values = base
                            .iter()
                            .map(|&v| if rng.gen_range(0..20) == 0 { rng.gen_range(0..card) } else { v })
                            .collect();
                        Alternative { tuple: CompleteTuple::from_values(values), prob: 1.0 / len as f64 }
                    })
                    .collect();
                cols.push_block(&Block::from_parts(key, alts));
            }
            let mut live = Bitmap::zeros(cols.alternatives().rows());
            for r in 0..live.len() {
                if rng.gen_range(0..100u32) < live_pct {
                    live.set(r);
                }
            }
            let keys: Vec<&[u16]> = (0..nkeys as u16).map(|a| cols.alternatives().col(AttrId(a))).collect();
            let (lo, hi) = (range.0.min(range.1).min(blocks), range.0.max(range.1).min(blocks));
            proptest::prop_assert_eq!(
                scan_blocks(&live, &cols, &keys, lo..hi),
                reference_scan_blocks(&live, &cols, &keys, lo..hi)
            );
        }
    }
}
