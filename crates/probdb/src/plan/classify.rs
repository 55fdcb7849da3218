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

use super::report::{PlanClass, SafePlan};
use crate::algebra::{Flattened, ResolvedPair};
use crate::column::Bitmap;
use crate::database::ProbDb;
use crate::predicate::Predicate;
use crate::ProbDbError;
use mrsl_relation::AttrId;

/// One scan bound to its relation, with the combined selection.
#[derive(Debug)]
pub(crate) struct Term<'a> {
    /// Name the scan is addressed by: its alias, or the relation name.
    pub name: String,
    /// Catalog relation the scan reads (shared across aliased scans).
    pub relation: String,
    pub db: &'a ProbDb,
    pub pred: Predicate,
    /// `(class index, representative attribute)` for every class this term
    /// participates in, in ascending class order. When the term has several
    /// attributes in one class, the representative is the first; the others
    /// are equality-constrained into the live bitmaps.
    pub class_attrs: Vec<(usize, AttrId)>,
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

/// A query resolved against relations: terms plus join classes.
#[derive(Debug)]
pub(crate) struct Resolved<'a> {
    pub terms: Vec<Term<'a>>,
    pub classes: Vec<Class>,
}

/// Resolves the conjunctive form against a relation lookup (a catalog or
/// a served snapshot), simplifying predicates,
/// unifying join attributes into classes and checking dictionary
/// compatibility of every join pair.
pub(crate) fn resolve<'a>(
    flat: &Flattened,
    lookup: impl Fn(&str) -> Option<&'a ProbDb>,
) -> Result<Resolved<'a>, ProbDbError> {
    let mut terms: Vec<Term<'a>> = Vec::with_capacity(flat.terms.len());
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
            db,
            pred,
            class_attrs: Vec::new(),
        });
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
            if attr.index() >= terms[term].db.schema().attr_count() {
                return Err(ProbDbError::UnknownRelation(format!(
                    "{}.#{} (join attribute out of range)",
                    terms[term].name,
                    attr.index()
                )));
            }
        }
        let (ls, rs) = (terms[left_term].db.schema(), terms[right_term].db.schema());
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
            .map(|&(t, a)| format!("{}.{}", terms[t].name, terms[t].db.schema().attr(a).name()))
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
    Ok(Resolved { terms, classes })
}

/// A term compiled against its relation's columnar store: live-row bitmaps
/// (selection ∧ intra-class attribute equality), per-alternative block
/// ids, and per-class key columns.
pub(crate) struct CompiledTerm<'a> {
    /// Addressing name of the scan (alias or relation name).
    pub name: String,
    /// Catalog relation the scan reads; aliased scans of one relation
    /// share this (and their block choices — they are *not* independent).
    pub relation: String,
    pub db: &'a ProbDb,
    /// One bit per certain row: does it survive selection and intra-class
    /// equality?
    pub live_certain: Bitmap,
    /// One bit per alternative row, same condition.
    pub live_alts: Bitmap,
    /// Block index of each alternative row.
    pub alt_block: Vec<u32>,
    /// `(class index, certain key column, alternative key column)` for
    /// every class this term participates in.
    pub keys: Vec<(usize, &'a [u16], &'a [u16])>,
}

impl<'a> CompiledTerm<'a> {
    pub(crate) fn compile(term_idx: usize, term: &Term<'a>, classes: &[Class]) -> Self {
        let cols = term.db.columns();
        let mut live_certain = term.pred.eval_columns(cols.certain());
        let mut live_alts = term.pred.eval_columns(cols.alternatives());
        // A term with several attributes in one class carries the implicit
        // selection that they are equal: they all bind the same join
        // variable, so a row where they differ can never join.
        for &(ci, rep) in &term.class_attrs {
            for &(ti, attr) in &classes[ci].members {
                if ti != term_idx || attr == rep {
                    continue;
                }
                live_certain.and_assign(&equal_columns(
                    cols.certain().col(rep),
                    cols.certain().col(attr),
                ));
                live_alts.and_assign(&equal_columns(
                    cols.alternatives().col(rep),
                    cols.alternatives().col(attr),
                ));
            }
        }
        let mut alt_block = vec![0u32; cols.alternatives().rows()];
        for b in 0..cols.block_count() {
            for r in cols.block_range(b) {
                alt_block[r] = b as u32;
            }
        }
        let keys = term
            .class_attrs
            .iter()
            .map(|&(ci, a)| (ci, cols.certain().col(a), cols.alternatives().col(a)))
            .collect();
        Self {
            name: term.name.clone(),
            relation: term.relation.clone(),
            db: term.db,
            live_certain,
            live_alts,
            alt_block,
            keys,
        }
    }

    /// Blocks with no live alternative (prunable).
    pub(crate) fn pruned_blocks(&self) -> usize {
        let cols = self.db.columns();
        (0..cols.block_count())
            .filter(|&b| !self.live_alts.any_in(cols.block_range(b)))
            .count()
    }

    /// The key columns of `class`, if this term participates in it.
    pub(crate) fn class_key(&self, class: usize) -> Option<(&'a [u16], &'a [u16])> {
        self.keys
            .iter()
            .find(|&&(ci, _, _)| ci == class)
            .map(|&(_, c, a)| (c, a))
    }
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
                    resolved.classes[i].label.clone(),
                    resolved.classes[j].label.clone(),
                ));
            }
        }
    }
    None
}

/// The key criterion: within every block, live alternatives agree on each
/// join key the term participates in. Returns a human-readable reason for
/// the first straddling block, if any. Restrictions at deeper recursion
/// levels only shrink the live sets, so this top-level check covers all
/// levels — of the safe plan *and* of the dissociation recursion, which
/// additionally relies on it to reduce each block to a single Bernoulli
/// event shared by every branch the block is copied into.
pub(crate) fn key_straddle(resolved: &Resolved, compiled: &[CompiledTerm]) -> Option<String> {
    for (ti, ct) in compiled.iter().enumerate() {
        let cols = ct.db.columns();
        for &(ci, _, alt_key) in &ct.keys {
            for b in 0..cols.block_count() {
                let mut seen: Option<u16> = None;
                for r in cols.block_range(b) {
                    if !ct.live_alts.get(r) {
                        continue;
                    }
                    match seen {
                        None => seen = Some(alt_key[r]),
                        Some(v) if v != alt_key[r] => {
                            return Some(format!(
                                "key-correlated: block {} of `{}` straddles values of [{}]",
                                ct.db.blocks()[b].key(),
                                resolved.terms[ti].name,
                                resolved.classes[ci].label
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }
    None
}

/// Groups of term indices scanning the same catalog relation more than
/// once (self-join alias groups), in first-scan order.
pub(crate) fn alias_groups(resolved: &Resolved) -> Vec<Vec<usize>> {
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, t) in resolved.terms.iter().enumerate() {
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
pub(crate) fn alias_live_mismatch(
    resolved: &Resolved,
    compiled: &[CompiledTerm],
) -> Option<String> {
    for group in alias_groups(resolved) {
        let first = &compiled[group[0]];
        for &t in &group[1..] {
            if compiled[t].live_alts != first.live_alts
                || compiled[t].live_certain != first.live_certain
            {
                return Some(format!(
                    "alias-correlated: scans `{}` and `{}` of `{}` select different \
                     live rows, so their shared blocks cannot dissociate",
                    resolved.terms[group[0]].name,
                    resolved.terms[t].name,
                    resolved.terms[t].relation,
                ));
            }
        }
    }
    None
}

/// Classifies a resolved, compiled multi-relation query for extensional
/// evaluation of the boolean statistic.
pub(crate) fn classify(resolved: &Resolved, compiled: &[CompiledTerm]) -> Classification {
    debug_assert!(resolved.terms.len() > 1);
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
    if let Some(reason) = key_straddle(resolved, compiled) {
        return Classification {
            class: PlanClass::KeyCorrelated,
            decomposition: SafePlan::Unsafe { reason },
        };
    }
    // A hierarchical shape is its own empty dissociation: every
    // connected component has a covering root class.
    let decomposition =
        super::dissociate::decompose(resolved, &[]).expect("hierarchical shapes decompose");
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
