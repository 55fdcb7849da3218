//! Composable relational-algebra query trees over a [`Catalog`].
//!
//! [`Query`] gives the planner a tree it can classify structurally:
//! scans of named relations, selections
//! ([`Predicate`]), equi-joins on dictionary-encoded attributes, and a
//! bag-semantics projection. Trees are built fluently —
//!
//! ```
//! use mrsl_probdb::{Predicate, Query};
//! use mrsl_relation::{AttrId, ValueId};
//!
//! let q = Query::scan("sensors")
//!     .filter(Predicate::eq(AttrId(1), ValueId(0)))
//!     .join_on("readings", [(AttrId(0), AttrId(0))])
//!     .project([AttrId(0)]);
//! assert_eq!(q.relations(), vec!["sensors", "readings"]);
//! ```
//!
//! — and evaluated by [`crate::plan::CatalogEngine`], which classifies the
//! shape (hierarchical join structures get exact extensional plans,
//! everything else goes Monte Carlo) and answers a [`Statistic`] about the
//! result.
//!
//! Two deliberate restrictions keep resolution unambiguous: selections
//! apply to single-relation subtrees (push your σ below the ⨝, as a
//! planner would anyway), and every scan must be addressable by a unique
//! name. Scanning one relation twice — a self-join — is admitted through
//! [`Query::scan_as`] aliases (`R(x) ⋈ R(y)` becomes two aliased scans of
//! `r`); the planner knows aliased scans of one relation share their block
//! choices and answers them with dissociation bounds or sampling, never
//! the independent-product safe plan. Two scans under the *same* name are
//! still rejected ([`ProbDbError::SelfJoin`]) because join anchors and
//! reports address terms by name.
//!
//! [`Catalog`]: crate::catalog::Catalog

use crate::predicate::Predicate;
use crate::ProbDbError;
use mrsl_relation::{AttrId, AttrMask};

/// One node of a relational-algebra tree. Public so planners and tools can
/// pattern-match on the shape; built through the [`Query`] methods.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryNode {
    /// Scan of a named catalog relation.
    Scan {
        /// Relation name, resolved against the catalog at plan time.
        relation: String,
        /// Alias this scan is addressed by in join anchors and reports;
        /// `None` means the relation name itself. Distinct aliases let one
        /// relation be scanned several times (self-joins).
        alias: Option<String>,
    },
    /// Selection over a single-relation subtree.
    Filter {
        /// The filtered input.
        input: Box<QueryNode>,
        /// The selection predicate, over the scanned relation's attributes.
        pred: Predicate,
    },
    /// Equi-join of two subtrees on one or more attribute pairs.
    Join {
        /// Left input (the tree built so far).
        left: Box<QueryNode>,
        /// Right input (usually a scan).
        right: Box<QueryNode>,
        /// Join conditions; every pair must be dictionary-compatible.
        on: Vec<JoinPair>,
    },
    /// Bag-semantics projection (presentation metadata: it renames no
    /// columns and, without duplicate elimination, changes no counts).
    Project {
        /// The projected input.
        input: Box<QueryNode>,
        /// Attributes of the query's primary (first-scanned) relation to
        /// report.
        attrs: Vec<AttrId>,
    },
}

/// One equi-join condition `left.left_attr = right.right_attr`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPair {
    /// Which scan of the left subtree anchors `left_attr`, addressed by
    /// its name (the relation name, or the [`Query::scan_as`] alias);
    /// `None` means the subtree's primary (first-scanned) relation.
    pub left_rel: Option<String>,
    /// The left-side join attribute.
    pub left_attr: AttrId,
    /// The right-side join attribute, anchored to the right subtree's
    /// primary relation.
    pub right_attr: AttrId,
}

/// What to compute about a query's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Statistic {
    /// `P(result is non-empty)` — the boolean-query probability the
    /// safe-plan literature is about.
    Probability,
    /// Guaranteed `[lower, upper]` brackets on `P(result is non-empty)`.
    /// Safe queries collapse to the exact point; unsafe shapes get
    /// deterministic dissociation bounds (Gatterbauer & Suciu) where they
    /// apply, with Monte-Carlo refinement when the bracket is wider than
    /// [`crate::QueryEngineConfig::bounds_tolerance`].
    ProbabilityBounds,
    /// `E[|result|]` under bag semantics.
    ExpectedCount,
    /// Distribution of `|result|` over possible worlds.
    CountDistribution,
    /// Per-block selection marginals (single-relation queries only).
    Marginals,
    /// The `k` most probable matching tuples (single-relation only).
    TopK(usize),
    /// Marginal distribution of one attribute (single-relation only).
    ValueMarginal(AttrId),
}

impl Statistic {
    /// Short name used in errors and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Probability => "probability",
            Self::ProbabilityBounds => "probability-bounds",
            Self::ExpectedCount => "expected-count",
            Self::CountDistribution => "count-distribution",
            Self::Marginals => "marginals",
            Self::TopK(_) => "top-k",
            Self::ValueMarginal(_) => "value-marginal",
        }
    }
}

/// A composable relational-algebra query over catalog relations.
///
/// ```
/// use mrsl_probdb::{Predicate, Query};
/// use mrsl_relation::{AttrId, ValueId};
///
/// // σ[kind=outdoor](sensors) ⨝ σ[level=high](readings) on the station id.
/// let q = Query::scan("sensors")
///     .filter(Predicate::eq(AttrId(1), ValueId(1)))
///     .join_on(
///         Query::scan("readings").filter(Predicate::eq(AttrId(1), ValueId(1))),
///         [(AttrId(0), AttrId(0))],
///     );
/// assert_eq!(q.relations(), vec!["sensors", "readings"]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    root: QueryNode,
}

impl Query {
    /// Starts a query with a scan of the named relation.
    pub fn scan(relation: impl Into<String>) -> Self {
        Self {
            root: QueryNode::Scan {
                relation: relation.into(),
                alias: None,
            },
        }
    }

    /// Starts a query with an *aliased* scan of the named relation —
    /// the only way to scan one relation more than once (self-joins).
    /// Join anchors ([`Query::join_on_rel`]) and evaluation reports
    /// address this scan by `alias`.
    ///
    /// ```
    /// use mrsl_probdb::Query;
    /// use mrsl_relation::AttrId;
    ///
    /// // R ⋈ R on its own key, as two aliased scans.
    /// let q = Query::scan_as("r", "r1")
    ///     .join_on(Query::scan_as("r", "r2"), [(AttrId(0), AttrId(0))]);
    /// assert_eq!(q.relations(), vec!["r", "r"]);
    /// ```
    pub fn scan_as(relation: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            root: QueryNode::Scan {
                relation: relation.into(),
                alias: Some(alias.into()),
            },
        }
    }

    /// Applies a selection to the tree built so far. Selections must sit
    /// over a single-relation subtree (resolution rejects a filter above a
    /// join with [`ProbDbError::FilterAboveJoin`]).
    #[must_use]
    pub fn filter(self, pred: Predicate) -> Self {
        Self {
            root: QueryNode::Filter {
                input: Box::new(self.root),
                pred,
            },
        }
    }

    /// Joins the tree built so far with `right` on `(left, right)`
    /// attribute pairs. `right` can be a relation name (via `Into<Query>`
    /// for `&str`/`String`) or a filtered subtree; left attributes anchor
    /// to the current tree's primary (first-scanned) relation.
    #[must_use]
    pub fn join_on(
        self,
        right: impl Into<Query>,
        on: impl IntoIterator<Item = (AttrId, AttrId)>,
    ) -> Self {
        let on = on
            .into_iter()
            .map(|(left_attr, right_attr)| JoinPair {
                left_rel: None,
                left_attr,
                right_attr,
            })
            .collect();
        self.join_pairs(right.into(), on)
    }

    /// Like [`Query::join_on`], but anchors the left attributes to the
    /// named relation of the current tree instead of the primary one —
    /// needed for chains like `r ⨝ s ⨝ t` where `t` joins against `s`.
    #[must_use]
    pub fn join_on_rel(
        self,
        left_rel: impl Into<String>,
        right: impl Into<Query>,
        on: impl IntoIterator<Item = (AttrId, AttrId)>,
    ) -> Self {
        let left_rel = left_rel.into();
        let on = on
            .into_iter()
            .map(|(left_attr, right_attr)| JoinPair {
                left_rel: Some(left_rel.clone()),
                left_attr,
                right_attr,
            })
            .collect();
        self.join_pairs(right.into(), on)
    }

    /// The fully explicit join constructor.
    #[must_use]
    pub fn join_pairs(self, right: Query, on: Vec<JoinPair>) -> Self {
        Self {
            root: QueryNode::Join {
                left: Box::new(self.root),
                right: Box::new(right.root),
                on,
            },
        }
    }

    /// Records a bag-semantics projection onto `attrs` of the primary
    /// relation. Metadata only: probabilities and (bag) counts are
    /// unchanged, so the planner carries it into reports but ignores it
    /// during evaluation.
    #[must_use]
    pub fn project(self, attrs: impl IntoIterator<Item = AttrId>) -> Self {
        Self {
            root: QueryNode::Project {
                input: Box::new(self.root),
                attrs: attrs.into_iter().collect(),
            },
        }
    }

    /// The root node of the tree.
    pub fn root(&self) -> &QueryNode {
        &self.root
    }

    /// The scanned relation names in scan order (the first is the query's
    /// *primary* relation). A relation scanned under several aliases
    /// appears once per scan; duplicates *without* distinct aliases are
    /// rejected at resolution.
    pub fn relations(&self) -> Vec<&str> {
        fn collect<'a>(node: &'a QueryNode, out: &mut Vec<&'a str>) {
            match node {
                QueryNode::Scan { relation, .. } => out.push(relation),
                QueryNode::Filter { input, .. } | QueryNode::Project { input, .. } => {
                    collect(input, out)
                }
                QueryNode::Join { left, right, .. } => {
                    collect(left, out);
                    collect(right, out);
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.root, &mut out);
        out
    }

    /// Flattens the tree into its conjunctive form: one term per scan with
    /// its combined selection, resolved join pairs, and the projection.
    /// This is the shared front half of planning and of lazy per-relation
    /// derivation triage.
    pub(crate) fn flatten(&self) -> Result<Flattened, ProbDbError> {
        let mut flat = Flattened {
            terms: Vec::new(),
            joins: Vec::new(),
            projection: None,
        };
        walk(&self.root, &mut flat)?;
        Ok(flat)
    }

    /// What each scanned relation must provide for this query: its
    /// combined selection predicate (already [simplified](Predicate::simplify))
    /// and the attributes it is joined on. Lazy derivation uses this to
    /// decide which incomplete tuples actually need inference.
    ///
    /// Aliased scans of one relation collapse into a single requirement
    /// for that relation: a tuple matters when it can satisfy *any* of the
    /// aliases' selections (the predicates are OR-ed), and every alias's
    /// join attributes are needed.
    pub fn scan_requirements(&self) -> Result<Vec<ScanRequirement>, ProbDbError> {
        let flat = self.flatten()?;
        let mut per_term: Vec<ScanRequirement> = flat
            .terms
            .iter()
            .map(|t| {
                let pred = t.pred.simplify();
                ScanRequirement {
                    relation: t.relation.clone(),
                    pred: pred.clone(),
                    scan_preds: vec![pred],
                    join_attrs: AttrMask::EMPTY,
                }
            })
            .collect();
        for j in &flat.joins {
            per_term[j.left_term].join_attrs = per_term[j.left_term].join_attrs.with(j.left_attr);
            per_term[j.right_term].join_attrs =
                per_term[j.right_term].join_attrs.with(j.right_attr);
        }
        let mut reqs: Vec<ScanRequirement> = Vec::with_capacity(per_term.len());
        for mut req in per_term {
            match reqs.iter_mut().find(|r| r.relation == req.relation) {
                Some(merged) => {
                    merged.pred = std::mem::replace(&mut merged.pred, Predicate::Any)
                        .or(req.pred)
                        .simplify();
                    merged.scan_preds.append(&mut req.scan_preds);
                    merged.join_attrs = merged.join_attrs.union(req.join_attrs);
                }
                None => reqs.push(req),
            }
        }
        Ok(reqs)
    }
}

impl From<&str> for Query {
    fn from(relation: &str) -> Self {
        Query::scan(relation)
    }
}

impl From<String> for Query {
    fn from(relation: String) -> Self {
        Query::scan(relation)
    }
}

/// What one scan contributes to a query: its relation, the conjunction of
/// all selections applied to it, and the attributes it joins on.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRequirement {
    /// The scanned relation's name.
    pub relation: String,
    /// Combined (simplified) selection predicate over the relation: the
    /// OR across this relation's scans. A tuple that cannot satisfy it
    /// matters to no scan.
    pub pred: Predicate,
    /// The individual scans' (simplified) selection predicates, one per
    /// alias. Deciding a tuple's effect on the query *fully* — e.g. to
    /// pin it without inference — requires every entry to be decided on
    /// it: Kleene's OR in [`ScanRequirement::pred`] can be true while
    /// some alias's selection still hinges on an unobserved attribute.
    pub scan_preds: Vec<Predicate>,
    /// Attributes of this relation used as join keys.
    pub join_attrs: AttrMask,
}

impl Flattened {
    /// 64-bit fingerprint of the query *shape*: per-term scan names,
    /// relations and (raw, unsimplified) predicates, plus the resolved
    /// join pairs in flattening order. The projection is excluded — it
    /// never affects statistic evaluation. Used as the plan-cache probe
    /// key; because 64 bits can collide, cache entries keep the full
    /// flattened shape and verify structural equality on every hit.
    pub(crate) fn shape_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = mrsl_util::FxHasher::default();
        self.terms.len().hash(&mut h);
        for t in &self.terms {
            t.name.hash(&mut h);
            t.relation.hash(&mut h);
            t.pred.hash(&mut h);
        }
        self.joins.len().hash(&mut h);
        for j in &self.joins {
            j.left_term.hash(&mut h);
            j.left_attr.0.hash(&mut h);
            j.right_term.hash(&mut h);
            j.right_attr.0.hash(&mut h);
        }
        h.finish()
    }

    /// Structural equality over exactly what [`Flattened::shape_hash`]
    /// fingerprints: equal hashes are only a hint, this is the proof. The
    /// plan cache verifies every hit with it, and request coalescing every
    /// attach.
    pub(crate) fn same_shape(&self, other: &Flattened) -> bool {
        self.joins == other.joins
            && self.terms.len() == other.terms.len()
            && self
                .terms
                .iter()
                .zip(&other.terms)
                .all(|(a, b)| a.name == b.name && a.relation == b.relation && a.pred == b.pred)
    }
}

/// The conjunctive form of a query tree (internal planner currency).
#[derive(Debug, Clone)]
pub(crate) struct Flattened {
    /// One term per scan, in scan order; term 0 is the primary relation.
    pub terms: Vec<ScanTerm>,
    /// Resolved equi-join conditions between terms.
    pub joins: Vec<ResolvedPair>,
    /// Projection attributes, if any (primary relation, bag semantics).
    pub projection: Option<Vec<AttrId>>,
}

#[derive(Debug, Clone)]
pub(crate) struct ScanTerm {
    /// Catalog relation this scan reads.
    pub relation: String,
    /// Name the scan is addressed by: its alias, or the relation name.
    pub name: String,
    pub pred: Predicate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResolvedPair {
    pub left_term: usize,
    pub left_attr: AttrId,
    pub right_term: usize,
    pub right_attr: AttrId,
}

/// Term indices contributed by one subtree, with its primary term first.
struct SubTerms {
    primary: usize,
    terms: Vec<usize>,
}

fn walk(node: &QueryNode, out: &mut Flattened) -> Result<SubTerms, ProbDbError> {
    match node {
        QueryNode::Scan { relation, alias } => {
            let name = alias.as_ref().unwrap_or(relation);
            // Scans are addressed by name (anchors, labels, reports): a
            // duplicate name — an alias-less self-join included — is
            // unresolvable.
            if out.terms.iter().any(|t| t.name == *name) {
                return Err(ProbDbError::SelfJoin(name.clone()));
            }
            let idx = out.terms.len();
            out.terms.push(ScanTerm {
                relation: relation.clone(),
                name: name.clone(),
                pred: Predicate::Any,
            });
            Ok(SubTerms {
                primary: idx,
                terms: vec![idx],
            })
        }
        QueryNode::Filter { input, pred } => {
            let sub = walk(input, out)?;
            if sub.terms.len() != 1 {
                return Err(ProbDbError::FilterAboveJoin);
            }
            let term = &mut out.terms[sub.primary];
            term.pred = std::mem::take(&mut term.pred).and(pred.clone());
            Ok(sub)
        }
        QueryNode::Join { left, right, on } => {
            if on.is_empty() {
                return Err(ProbDbError::EmptyJoinKeys);
            }
            let l = walk(left, out)?;
            let r = walk(right, out)?;
            for pair in on {
                let left_term = match &pair.left_rel {
                    None => l.primary,
                    Some(name) => *l
                        .terms
                        .iter()
                        .find(|&&t| out.terms[t].name == *name)
                        .ok_or_else(|| ProbDbError::JoinAnchorNotInLeft(name.clone()))?,
                };
                out.joins.push(ResolvedPair {
                    left_term,
                    left_attr: pair.left_attr,
                    right_term: r.primary,
                    right_attr: pair.right_attr,
                });
            }
            let mut terms = l.terms;
            terms.extend(r.terms);
            Ok(SubTerms {
                primary: l.primary,
                terms,
            })
        }
        QueryNode::Project { input, attrs } => {
            let sub = walk(input, out)?;
            out.projection = Some(attrs.clone());
            Ok(sub)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsl_relation::ValueId;

    #[test]
    fn builder_shapes_and_relation_order() {
        let q = Query::scan("r")
            .filter(Predicate::eq(AttrId(0), ValueId(1)))
            .join_on("s", [(AttrId(1), AttrId(0))])
            .project([AttrId(0), AttrId(1)]);
        assert_eq!(q.relations(), vec!["r", "s"]);
        let flat = q.flatten().unwrap();
        assert_eq!(flat.terms.len(), 2);
        assert_eq!(flat.terms[0].pred, Predicate::eq(AttrId(0), ValueId(1)));
        assert_eq!(flat.terms[1].pred, Predicate::Any);
        assert_eq!(
            flat.joins,
            vec![ResolvedPair {
                left_term: 0,
                left_attr: AttrId(1),
                right_term: 1,
                right_attr: AttrId(0),
            }]
        );
        assert_eq!(flat.projection, Some(vec![AttrId(0), AttrId(1)]));
    }

    #[test]
    fn chained_join_anchors_to_named_relation() {
        // r ⨝ s on (r.0 = s.0), then t joins against *s* on (s.1 = t.0).
        let q = Query::scan("r")
            .join_on("s", [(AttrId(0), AttrId(0))])
            .join_on_rel("s", "t", [(AttrId(1), AttrId(0))]);
        let flat = q.flatten().unwrap();
        assert_eq!(flat.joins[1].left_term, 1);
        assert_eq!(flat.joins[1].right_term, 2);
        // Unknown anchors are rejected.
        let bad = Query::scan("r")
            .join_on_rel("nope", "s", [(AttrId(0), AttrId(0))])
            .flatten();
        assert!(matches!(bad, Err(ProbDbError::JoinAnchorNotInLeft(n)) if n == "nope"));
    }

    #[test]
    fn filters_merge_and_misplaced_shapes_error() {
        let q = Query::scan("r")
            .filter(Predicate::eq(AttrId(0), ValueId(0)))
            .filter(Predicate::eq(AttrId(1), ValueId(1)));
        let flat = q.flatten().unwrap();
        assert_eq!(
            flat.terms[0].pred,
            Predicate::eq(AttrId(0), ValueId(0)).and(Predicate::eq(AttrId(1), ValueId(1)))
        );
        let above_join = Query::scan("r")
            .join_on("s", [(AttrId(0), AttrId(0))])
            .filter(Predicate::any())
            .flatten();
        assert!(matches!(above_join, Err(ProbDbError::FilterAboveJoin)));
        let self_join = Query::scan("r")
            .join_on("r", [(AttrId(0), AttrId(0))])
            .flatten();
        assert!(matches!(self_join, Err(ProbDbError::SelfJoin(n)) if n == "r"));
        let no_keys = Query::scan("r")
            .join_pairs(Query::scan("s"), vec![])
            .flatten();
        assert!(matches!(no_keys, Err(ProbDbError::EmptyJoinKeys)));
    }

    #[test]
    fn aliased_scans_resolve_and_unaliased_self_joins_still_error() {
        // R(x) ⋈ R(y): two aliased scans of one relation flatten into two
        // terms addressed by their aliases.
        let q =
            Query::scan_as("r", "r1").join_on(Query::scan_as("r", "r2"), [(AttrId(0), AttrId(0))]);
        let flat = q.flatten().unwrap();
        assert_eq!(flat.terms.len(), 2);
        assert_eq!(flat.terms[0].relation, "r");
        assert_eq!(flat.terms[1].relation, "r");
        assert_eq!(flat.terms[0].name, "r1");
        assert_eq!(flat.terms[1].name, "r2");
        // Anchors address scans by alias.
        let chained = Query::scan_as("r", "r1")
            .join_on(Query::scan_as("r", "r2"), [(AttrId(0), AttrId(0))])
            .join_on_rel("r2", "s", [(AttrId(1), AttrId(0))])
            .flatten()
            .unwrap();
        assert_eq!(chained.joins[1].left_term, 1);
        // Without distinct aliases the old rejection still applies…
        let dup = Query::scan("r")
            .join_on("r", [(AttrId(0), AttrId(0))])
            .flatten();
        assert!(matches!(dup, Err(ProbDbError::SelfJoin(n)) if n == "r"));
        // …including two scans under one alias, or an alias shadowing a
        // scanned relation's name.
        let dup_alias = Query::scan_as("r", "x")
            .join_on(Query::scan_as("r", "x"), [(AttrId(0), AttrId(0))])
            .flatten();
        assert!(matches!(dup_alias, Err(ProbDbError::SelfJoin(n)) if n == "x"));
        let shadow = Query::scan("s")
            .join_on(Query::scan_as("r", "s"), [(AttrId(0), AttrId(0))])
            .flatten();
        assert!(matches!(shadow, Err(ProbDbError::SelfJoin(n)) if n == "s"));
    }

    #[test]
    fn aliased_scan_requirements_merge_per_relation() {
        let q = Query::scan_as("r", "r1")
            .filter(Predicate::eq(AttrId(1), ValueId(0)))
            .join_on(
                Query::scan_as("r", "r2").filter(Predicate::eq(AttrId(1), ValueId(1))),
                [(AttrId(0), AttrId(0))],
            );
        let reqs = q.scan_requirements().unwrap();
        // One requirement for `r`: either alias's selection can matter
        // (the OR of the two equalities simplifies to a membership set).
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].relation, "r");
        assert_eq!(
            reqs[0].pred,
            Predicate::is_in(AttrId(1), [ValueId(0), ValueId(1)])
        );
        assert_eq!(
            reqs[0].join_attrs.iter().collect::<Vec<_>>(),
            vec![AttrId(0)]
        );
    }

    #[test]
    fn scan_requirements_collect_predicates_and_join_attrs() {
        let q = Query::scan("r")
            .filter(Predicate::And(vec![])) // canonicalizes to Any
            .join_on(
                Query::scan("s").filter(Predicate::eq(AttrId(1), ValueId(0))),
                [(AttrId(2), AttrId(0))],
            );
        let reqs = q.scan_requirements().unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].relation, "r");
        assert_eq!(reqs[0].pred, Predicate::Any);
        assert_eq!(
            reqs[0].join_attrs.iter().collect::<Vec<_>>(),
            vec![AttrId(2)]
        );
        assert_eq!(reqs[1].pred, Predicate::eq(AttrId(1), ValueId(0)));
        assert_eq!(
            reqs[1].join_attrs.iter().collect::<Vec<_>>(),
            vec![AttrId(0)]
        );
    }
}
