//! Composable predicate algebra over discrete tuples.
//!
//! Selection conditions are expression trees over the schema's dictionary
//! indices: equality, membership, (inclusive) ranges over a domain's value
//! order, and the boolean connectives. One [`Predicate`] evaluates three
//! ways, and all three agree bit-for-bit on decided inputs:
//!
//! * [`Predicate::eval`] — per complete tuple (the compatibility path);
//! * [`Predicate::eval_partial`] — three-valued (Kleene) evaluation on an
//!   incomplete tuple: `Some(b)` when the observed portion decides the
//!   predicate, `None` when the outcome depends on a missing attribute.
//!   This is what lets the lazy derivation layer skip inference;
//! * [`Predicate::eval_columns`] — vectorized evaluation over a
//!   [`ColumnSet`], producing a [`Bitmap`] with one bit per row.

use crate::column::{Bitmap, ColumnSet};
use mrsl_relation::{AttrId, AttrMask, CompleteTuple, PartialTuple, ValueId};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::ops::Range;

/// A composable selection predicate over one relation's tuples.
///
/// Constructed through the builder methods ([`Predicate::eq`],
/// [`Predicate::is_in`], [`Predicate::range`], [`Predicate::and`],
/// [`Predicate::or`], [`Predicate::negate`]); the enum is public so
/// planners can pattern-match on the shape.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// The always-true predicate.
    #[default]
    Any,
    /// The always-false predicate (the canonical form [`Predicate::simplify`]
    /// folds empty disjunctions and empty `In` sets into).
    Never,
    /// `attr = value`.
    Eq(AttrId, ValueId),
    /// `attr ∈ {values…}`.
    In(AttrId, Vec<ValueId>),
    /// `lo ≤ attr ≤ hi` (inclusive, over the domain's dictionary order).
    Range(AttrId, ValueId, ValueId),
    /// Conjunction (empty = true).
    And(Vec<Predicate>),
    /// Disjunction (empty = false).
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// The always-true predicate.
    pub fn any() -> Self {
        Self::Any
    }

    /// The always-false predicate.
    pub fn never() -> Self {
        Self::Never
    }

    /// `attr = value`.
    pub fn eq(attr: AttrId, value: ValueId) -> Self {
        Self::Eq(attr, value)
    }

    /// `attr ∈ values`. An empty set is the always-false predicate.
    pub fn is_in(attr: AttrId, values: impl IntoIterator<Item = ValueId>) -> Self {
        Self::In(attr, values.into_iter().collect())
    }

    /// `lo ≤ attr ≤ hi`, inclusive on both ends, over the value-index
    /// order of the attribute's dictionary.
    pub fn range(attr: AttrId, lo: ValueId, hi: ValueId) -> Self {
        Self::Range(attr, lo, hi)
    }

    /// Conjunction of `self` and `other`, flattening nested [`Predicate::And`]s.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Self::Never, _) | (_, Self::Never) => Self::Never,
            (Self::Any, o) => o,
            (s, Self::Any) => s,
            (Self::And(mut xs), Self::And(ys)) => {
                xs.extend(ys);
                Self::And(xs)
            }
            (Self::And(mut xs), o) => {
                xs.push(o);
                Self::And(xs)
            }
            (s, Self::And(ys)) => {
                let mut xs = vec![s];
                xs.extend(ys);
                Self::And(xs)
            }
            (s, o) => Self::And(vec![s, o]),
        }
    }

    /// Disjunction of `self` and `other`, flattening nested [`Predicate::Or`]s.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Self::Any, _) | (_, Self::Any) => Self::Any,
            (Self::Never, o) => o,
            (s, Self::Never) => s,
            (Self::Or(mut xs), Self::Or(ys)) => {
                xs.extend(ys);
                Self::Or(xs)
            }
            (Self::Or(mut xs), o) => {
                xs.push(o);
                Self::Or(xs)
            }
            (s, Self::Or(ys)) => {
                let mut xs = vec![s];
                xs.extend(ys);
                Self::Or(xs)
            }
            (s, o) => Self::Or(vec![s, o]),
        }
    }

    /// Logical negation.
    #[must_use]
    pub fn negate(self) -> Predicate {
        match self {
            Self::Not(inner) => *inner,
            p => Self::Not(Box::new(p)),
        }
    }

    /// Compatibility builder from the pre-algebra conjunctive-equality API:
    /// `Predicate::any().and_eq(a, v).and_eq(b, w)` builds `a=v ∧ b=w`.
    #[must_use]
    pub fn and_eq(self, attr: AttrId, value: ValueId) -> Self {
        self.and(Self::Eq(attr, value))
    }

    /// The attributes the predicate reads.
    pub fn attrs(&self) -> AttrMask {
        match self {
            Self::Any | Self::Never => AttrMask::EMPTY,
            Self::Eq(a, _) | Self::In(a, _) | Self::Range(a, _, _) => AttrMask::single(*a),
            Self::And(ps) | Self::Or(ps) => {
                ps.iter().fold(AttrMask::EMPTY, |m, p| m.union(p.attrs()))
            }
            Self::Not(p) => p.attrs(),
        }
    }

    /// Rewrites the predicate into a canonical form without changing its
    /// meaning on any tuple (complete, partial or columnar):
    ///
    /// * `Not(Not(p))` collapses to `simplify(p)`; `Not(Any)` / `Not(Never)`
    ///   fold to `Never` / `Any`;
    /// * empty connectives fold to their identity — `And([])` to
    ///   [`Predicate::Any`], `Or([])` to [`Predicate::Never`] — and
    ///   single-element connectives unwrap;
    /// * nested `And` / `Or` flatten, identity elements (`Any` in ∧,
    ///   `Never` in ∨) disappear, absorbing elements (`Never` in ∧, `Any`
    ///   in ∨) short-circuit the whole connective;
    /// * membership tests canonicalize: `In` sets sort and dedup, an empty
    ///   set is `Never`, a singleton becomes `Eq`, and sibling `Eq` / `In`
    ///   terms over the same attribute inside one `Or` merge into a single
    ///   `In`.
    ///
    /// The planner runs this once per query so classification and predicate
    /// compilation see canonical trees.
    #[must_use]
    pub fn simplify(&self) -> Predicate {
        match self {
            Self::Any => Self::Any,
            Self::Never => Self::Never,
            Self::Eq(a, v) => Self::Eq(*a, *v),
            Self::In(a, vs) => {
                let mut vs = vs.clone();
                vs.sort_unstable();
                vs.dedup();
                match vs.len() {
                    0 => Self::Never,
                    1 => Self::Eq(*a, vs[0]),
                    _ => Self::In(*a, vs),
                }
            }
            Self::Range(a, lo, hi) => {
                if lo > hi {
                    Self::Never
                } else if lo == hi {
                    Self::Eq(*a, *lo)
                } else {
                    Self::Range(*a, *lo, *hi)
                }
            }
            Self::And(ps) => {
                let mut flat = Vec::new();
                for p in ps {
                    match p.simplify() {
                        Self::Any => {}
                        Self::Never => return Self::Never,
                        Self::And(qs) => flat.extend(qs),
                        q => flat.push(q),
                    }
                }
                match flat.len() {
                    0 => Self::Any,
                    1 => flat.pop().expect("one element"),
                    _ => Self::And(flat),
                }
            }
            Self::Or(ps) => {
                let mut flat = Vec::new();
                for p in ps {
                    match p.simplify() {
                        Self::Never => {}
                        Self::Any => return Self::Any,
                        Self::Or(qs) => flat.extend(qs),
                        q => flat.push(q),
                    }
                }
                let flat = merge_membership_terms(flat);
                match flat.len() {
                    0 => Self::Never,
                    1 => flat.into_iter().next().expect("one element"),
                    _ => Self::Or(flat),
                }
            }
            Self::Not(p) => match p.simplify() {
                Self::Not(inner) => *inner,
                Self::Any => Self::Never,
                Self::Never => Self::Any,
                q => Self::Not(Box::new(q)),
            },
        }
    }

    /// Evaluates the predicate on a complete tuple.
    pub fn eval(&self, t: &CompleteTuple) -> bool {
        match self {
            Self::Any => true,
            Self::Never => false,
            Self::Eq(a, v) => t.value(*a) == *v,
            Self::In(a, vs) => vs.contains(&t.value(*a)),
            Self::Range(a, lo, hi) => {
                let v = t.value(*a);
                *lo <= v && v <= *hi
            }
            Self::And(ps) => ps.iter().all(|p| p.eval(t)),
            Self::Or(ps) => ps.iter().any(|p| p.eval(t)),
            Self::Not(p) => !p.eval(t),
        }
    }

    /// Three-valued evaluation on an incomplete tuple.
    ///
    /// `Some(b)` when the observed portion alone decides the predicate
    /// (every completion evaluates to `b`); `None` when the outcome
    /// depends on at least one missing attribute. Connectives use Kleene
    /// semantics, so e.g. an [`Predicate::Or`] with one observed-true arm
    /// is decided even if other arms touch missing attributes.
    pub fn eval_partial(&self, t: &PartialTuple) -> Option<bool> {
        match self {
            Self::Any => Some(true),
            Self::Never => Some(false),
            Self::Eq(a, v) => t.get(*a).map(|x| x == *v),
            Self::In(a, vs) => t.get(*a).map(|x| vs.contains(&x)),
            Self::Range(a, lo, hi) => t.get(*a).map(|x| *lo <= x && x <= *hi),
            Self::And(ps) => {
                // The empty conjunction is the always-true predicate even on
                // an incomplete tuple: with no conjunct to depend on a
                // missing attribute, every completion satisfies it. Decided,
                // never `None` — lazy derivation relies on this to skip
                // inference.
                if ps.is_empty() {
                    return Some(true);
                }
                let mut all_true = true;
                for p in ps {
                    match p.eval_partial(t) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => all_true = false,
                    }
                }
                if all_true {
                    Some(true)
                } else {
                    None
                }
            }
            Self::Or(ps) => {
                let mut all_false = true;
                for p in ps {
                    match p.eval_partial(t) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => all_false = false,
                    }
                }
                if all_false {
                    Some(false)
                } else {
                    None
                }
            }
            Self::Not(p) => p.eval_partial(t).map(|b| !b),
        }
    }

    /// Vectorized evaluation: one bit per row of `set`, bit-identical to
    /// [`Predicate::eval`] on the corresponding tuples.
    pub fn eval_columns(&self, set: &ColumnSet) -> Bitmap {
        self.eval_rows(set, 0..set.rows())
    }

    /// [`Predicate::eval_columns`] over the rows `rows` of `set` only: bit
    /// `i` of the result is row `rows.start + i`.
    pub(crate) fn eval_rows(&self, set: &ColumnSet, rows: Range<usize>) -> Bitmap {
        let col = |a: &AttrId| &set.col(*a)[rows.clone()];
        match self {
            Self::Any => Bitmap::ones(rows.len()),
            Self::Never => Bitmap::zeros(rows.len()),
            Self::Eq(a, v) => Bitmap::from_test(col(a), |x| x == v.0),
            Self::In(a, vs) => {
                let len = vs.iter().map(|v| v.0 as usize + 1).max().unwrap_or(0);
                let mut lut = vec![false; len];
                for v in vs {
                    lut[v.0 as usize] = true;
                }
                Bitmap::from_test(col(a), |x| (x as usize) < len && lut[x as usize])
            }
            Self::Range(a, lo, hi) => {
                let (lo, hi) = (lo.0, hi.0);
                Bitmap::from_test(col(a), |x| lo <= x && x <= hi)
            }
            Self::And(ps) => {
                let mut acc = Bitmap::ones(rows.len());
                for p in ps {
                    acc.and_assign(&p.eval_rows(set, rows.clone()));
                }
                acc
            }
            Self::Or(ps) => {
                let mut acc = Bitmap::zeros(rows.len());
                for p in ps {
                    acc.or_assign(&p.eval_rows(set, rows.clone()));
                }
                acc
            }
            Self::Not(p) => {
                let mut acc = p.eval_rows(set, rows);
                acc.not_assign();
                acc
            }
        }
    }
}

/// Merges sibling membership terms of one disjunction: `Eq`/`In` terms over
/// the same attribute combine into a single sorted, deduped `In` (or `Eq`
/// when a single value remains). Non-membership terms pass through in
/// order; the merged membership term takes the position of the first term
/// mentioning its attribute.
fn merge_membership_terms(terms: Vec<Predicate>) -> Vec<Predicate> {
    use std::collections::BTreeMap;
    let mut sets: BTreeMap<AttrId, Vec<ValueId>> = BTreeMap::new();
    for t in &terms {
        match t {
            Predicate::Eq(a, v) => sets.entry(*a).or_default().push(*v),
            Predicate::In(a, vs) => sets.entry(*a).or_default().extend(vs.iter().copied()),
            _ => {}
        }
    }
    let mut emitted: Vec<AttrId> = Vec::new();
    let mut out = Vec::with_capacity(terms.len());
    for t in terms {
        match t {
            Predicate::Eq(a, _) | Predicate::In(a, _) => {
                if emitted.contains(&a) {
                    continue;
                }
                emitted.push(a);
                let mut vs = sets.remove(&a).expect("collected above");
                vs.sort_unstable();
                vs.dedup();
                out.push(if vs.len() == 1 {
                    Predicate::Eq(a, vs[0])
                } else {
                    Predicate::In(a, vs)
                });
            }
            other => out.push(other),
        }
    }
    out
}

// Manual serde impls: the vendored derive does not support data-carrying
// enum variants, so predicates encode as `{"op": …}`-tagged objects.
impl Serialize for Predicate {
    fn to_value(&self) -> Value {
        fn obj(fields: Vec<(&str, Value)>) -> Value {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        match self {
            Self::Any => obj(vec![("op", Value::from("any"))]),
            Self::Never => obj(vec![("op", Value::from("never"))]),
            Self::Eq(a, v) => obj(vec![
                ("op", Value::from("eq")),
                ("attr", a.to_value()),
                ("value", v.to_value()),
            ]),
            Self::In(a, vs) => obj(vec![
                ("op", Value::from("in")),
                ("attr", a.to_value()),
                ("values", vs.to_value()),
            ]),
            Self::Range(a, lo, hi) => obj(vec![
                ("op", Value::from("range")),
                ("attr", a.to_value()),
                ("lo", lo.to_value()),
                ("hi", hi.to_value()),
            ]),
            Self::And(ps) => obj(vec![("op", Value::from("and")), ("args", ps.to_value())]),
            Self::Or(ps) => obj(vec![("op", Value::from("or")), ("args", ps.to_value())]),
            Self::Not(p) => obj(vec![("op", Value::from("not")), ("arg", p.to_value())]),
        }
    }
}

impl Deserialize for Predicate {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let op = v
            .field("op")?
            .as_str()
            .ok_or_else(|| DeError::new("predicate op must be a string"))?;
        Ok(match op {
            "any" => Self::Any,
            "never" => Self::Never,
            "eq" => Self::Eq(
                Deserialize::from_value(v.field("attr")?)?,
                Deserialize::from_value(v.field("value")?)?,
            ),
            "in" => Self::In(
                Deserialize::from_value(v.field("attr")?)?,
                Deserialize::from_value(v.field("values")?)?,
            ),
            "range" => Self::Range(
                Deserialize::from_value(v.field("attr")?)?,
                Deserialize::from_value(v.field("lo")?)?,
                Deserialize::from_value(v.field("hi")?)?,
            ),
            "and" => Self::And(Deserialize::from_value(v.field("args")?)?),
            "or" => Self::Or(Deserialize::from_value(v.field("args")?)?),
            "not" => Self::Not(Box::new(Deserialize::from_value(v.field("arg")?)?)),
            other => return Err(DeError::new(format!("unknown predicate op `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(slots: &[Option<u16>]) -> PartialTuple {
        PartialTuple::from_options(slots)
    }

    #[test]
    fn builders_flatten_connectives() {
        let p = Predicate::any()
            .and_eq(AttrId(0), ValueId(1))
            .and_eq(AttrId(1), ValueId(2));
        assert_eq!(
            p,
            Predicate::And(vec![
                Predicate::Eq(AttrId(0), ValueId(1)),
                Predicate::Eq(AttrId(1), ValueId(2)),
            ])
        );
        let q = Predicate::eq(AttrId(0), ValueId(0))
            .or(Predicate::eq(AttrId(0), ValueId(1)))
            .or(Predicate::eq(AttrId(0), ValueId(2)));
        assert!(matches!(&q, Predicate::Or(ps) if ps.len() == 3));
        // `Any` is the identity of ∧ and absorbing for ∨.
        assert_eq!(Predicate::any().and(q.clone()), q);
        assert_eq!(q.clone().or(Predicate::any()), Predicate::Any);
        // Double negation cancels.
        assert_eq!(q.clone().negate().negate(), q);
    }

    #[test]
    fn eval_covers_all_constructors() {
        let t = CompleteTuple::from_values(vec![2, 0, 1]);
        assert!(Predicate::any().eval(&t));
        assert!(Predicate::eq(AttrId(0), ValueId(2)).eval(&t));
        assert!(!Predicate::eq(AttrId(0), ValueId(1)).eval(&t));
        assert!(Predicate::is_in(AttrId(0), [ValueId(1), ValueId(2)]).eval(&t));
        assert!(!Predicate::is_in(AttrId(0), []).eval(&t));
        assert!(Predicate::range(AttrId(0), ValueId(1), ValueId(3)).eval(&t));
        assert!(!Predicate::range(AttrId(0), ValueId(0), ValueId(1)).eval(&t));
        assert!(Predicate::eq(AttrId(1), ValueId(0))
            .and(Predicate::eq(AttrId(2), ValueId(1)))
            .eval(&t));
        assert!(Predicate::eq(AttrId(1), ValueId(9))
            .or(Predicate::eq(AttrId(2), ValueId(1)))
            .eval(&t));
        assert!(Predicate::eq(AttrId(1), ValueId(9)).negate().eval(&t));
    }

    #[test]
    fn partial_eval_is_kleene() {
        // t = ⟨0, ?, 1⟩
        let t = pt(&[Some(0), None, Some(1)]);
        assert_eq!(
            Predicate::eq(AttrId(0), ValueId(0)).eval_partial(&t),
            Some(true)
        );
        assert_eq!(Predicate::eq(AttrId(1), ValueId(0)).eval_partial(&t), None);
        // Decided OR despite a missing arm.
        let or = Predicate::eq(AttrId(0), ValueId(0)).or(Predicate::eq(AttrId(1), ValueId(1)));
        assert_eq!(or.eval_partial(&t), Some(true));
        // Decided AND (false) despite a missing arm.
        let and = Predicate::eq(AttrId(2), ValueId(0)).and(Predicate::eq(AttrId(1), ValueId(1)));
        assert_eq!(and.eval_partial(&t), Some(false));
        // Undecided either way.
        let und = Predicate::eq(AttrId(2), ValueId(1)).and(Predicate::eq(AttrId(1), ValueId(1)));
        assert_eq!(und.eval_partial(&t), None);
        assert_eq!(und.negate().eval_partial(&t), None);
        // NOT flips decided values.
        assert_eq!(
            Predicate::eq(AttrId(0), ValueId(0))
                .negate()
                .eval_partial(&t),
            Some(false)
        );
    }

    #[test]
    fn never_is_false_on_every_path() {
        let t = CompleteTuple::from_values(vec![0, 1]);
        assert!(!Predicate::never().eval(&t));
        assert_eq!(
            Predicate::never().eval_partial(&pt(&[None, None])),
            Some(false)
        );
        assert!(Predicate::never().attrs().is_empty());
        // ∧/∨ builders treat it as absorbing / identity.
        let p = Predicate::eq(AttrId(0), ValueId(0));
        assert_eq!(p.clone().and(Predicate::never()), Predicate::Never);
        assert_eq!(Predicate::never().or(p.clone()), p);
    }

    #[test]
    fn simplify_folds_empty_connectives() {
        assert_eq!(Predicate::And(vec![]).simplify(), Predicate::Any);
        assert_eq!(Predicate::Or(vec![]).simplify(), Predicate::Never);
        assert_eq!(Predicate::is_in(AttrId(0), []).simplify(), Predicate::Never);
        // Identity and absorbing elements propagate upward.
        let p = Predicate::eq(AttrId(0), ValueId(1));
        assert_eq!(
            Predicate::And(vec![Predicate::Any, p.clone()]).simplify(),
            p
        );
        assert_eq!(
            Predicate::And(vec![p.clone(), Predicate::Or(vec![])]).simplify(),
            Predicate::Never
        );
        assert_eq!(
            Predicate::Or(vec![p.clone(), Predicate::Any]).simplify(),
            Predicate::Any
        );
        assert_eq!(
            Predicate::Or(vec![Predicate::Never, p.clone()]).simplify(),
            p
        );
    }

    #[test]
    fn simplify_collapses_negations_and_flattens() {
        let p = Predicate::eq(AttrId(1), ValueId(0));
        assert_eq!(
            Predicate::Not(Box::new(Predicate::Not(Box::new(p.clone())))).simplify(),
            p
        );
        assert_eq!(
            Predicate::Not(Box::new(Predicate::Any)).simplify(),
            Predicate::Never
        );
        assert_eq!(
            Predicate::Not(Box::new(Predicate::Or(vec![]))).simplify(),
            Predicate::Any
        );
        // Nested conjunctions flatten into one level.
        let nested = Predicate::And(vec![
            Predicate::And(vec![p.clone(), Predicate::eq(AttrId(0), ValueId(0))]),
            Predicate::And(vec![Predicate::eq(AttrId(2), ValueId(1))]),
        ]);
        assert!(matches!(nested.simplify(), Predicate::And(qs) if qs.len() == 3));
    }

    #[test]
    fn simplify_merges_membership_sets() {
        // v2 ∨ (v0|v1) ∨ v0 over one attribute → In {v0, v1, v2}.
        let p = Predicate::eq(AttrId(0), ValueId(2))
            .or(Predicate::is_in(AttrId(0), [ValueId(0), ValueId(1)]))
            .or(Predicate::eq(AttrId(0), ValueId(0)));
        assert_eq!(
            p.simplify(),
            Predicate::In(AttrId(0), vec![ValueId(0), ValueId(1), ValueId(2)])
        );
        // Different attributes stay separate; singleton In becomes Eq.
        let q = Predicate::is_in(AttrId(0), [ValueId(1), ValueId(1)])
            .or(Predicate::eq(AttrId(1), ValueId(0)));
        assert_eq!(
            q.simplify(),
            Predicate::Or(vec![
                Predicate::Eq(AttrId(0), ValueId(1)),
                Predicate::Eq(AttrId(1), ValueId(0)),
            ])
        );
        // Degenerate and inverted ranges canonicalize.
        assert_eq!(
            Predicate::range(AttrId(0), ValueId(1), ValueId(1)).simplify(),
            Predicate::Eq(AttrId(0), ValueId(1))
        );
        assert_eq!(
            Predicate::range(AttrId(0), ValueId(2), ValueId(1)).simplify(),
            Predicate::Never
        );
    }

    #[test]
    fn simplify_preserves_meaning() {
        let preds = vec![
            Predicate::And(vec![]),
            Predicate::Or(vec![]),
            Predicate::is_in(AttrId(0), []).negate(),
            Predicate::eq(AttrId(0), ValueId(2))
                .or(Predicate::is_in(AttrId(0), [ValueId(0), ValueId(1)]))
                .negate()
                .negate(),
            Predicate::And(vec![
                Predicate::Any,
                Predicate::Or(vec![
                    Predicate::range(AttrId(1), ValueId(1), ValueId(0)),
                    Predicate::eq(AttrId(2), ValueId(1)),
                ]),
            ]),
        ];
        let tuples: Vec<CompleteTuple> = (0..3u16)
            .flat_map(|a| (0..3u16).map(move |b| CompleteTuple::from_values(vec![a, b, a.min(1)])))
            .collect();
        for p in &preds {
            let s = p.simplify();
            for t in &tuples {
                assert_eq!(p.eval(t), s.eval(t), "{p:?} vs {s:?} on {t:?}");
            }
            // Simplification is idempotent.
            assert_eq!(s.simplify(), s);
        }
    }

    #[test]
    fn empty_conjunction_is_decided_on_incomplete_tuples() {
        // Regression: And([]) ≡ Any must be Some(true) on a tuple with
        // missing attributes, not None — lazy derivation skips on it.
        let t = pt(&[None, None, None]);
        assert_eq!(Predicate::And(vec![]).eval_partial(&t), Some(true));
        assert_eq!(
            Predicate::And(vec![Predicate::And(vec![])]).eval_partial(&t),
            Some(true)
        );
    }

    #[test]
    fn attrs_unions_referenced_attributes() {
        let p = Predicate::eq(AttrId(0), ValueId(0))
            .or(Predicate::range(AttrId(2), ValueId(0), ValueId(1)))
            .negate();
        let attrs: Vec<u16> = p.attrs().iter().map(|a| a.0).collect();
        assert_eq!(attrs, vec![0, 2]);
        assert!(Predicate::any().attrs().is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let p = Predicate::is_in(AttrId(1), [ValueId(0), ValueId(2)])
            .and(Predicate::range(AttrId(2), ValueId(1), ValueId(3)).negate())
            .or(Predicate::eq(AttrId(0), ValueId(5)));
        let text = serde_json::to_string(&p).unwrap();
        let back: Predicate = serde_json::from_str(&text).unwrap();
        assert_eq!(back, p);
    }
}
