//! A named catalog of probabilistic relations.
//!
//! One [`ProbDb`] is a single table; real query workloads span several —
//! the paper's sensor scenario keeps station metadata and readings in
//! separate relations, and the planner joins them. A [`Catalog`] maps
//! names to derived databases and is the root object the multi-relation
//! query API ([`crate::algebra::Query`], [`crate::plan::CatalogEngine`])
//! resolves against.
//!
//! Relations keep their own schemas; what joins them together are the
//! attribute *dictionaries*. Two attributes are join-compatible when their
//! domains intern the same labels in the same order, so one dictionary
//! index (`ValueId`) means the same value on both sides and the planner
//! can marginalize alternatives straight through the dictionary-encoded
//! key columns. [`Catalog::join_compatible`] is that check; query
//! resolution applies it to every join pair. Every attribute is trivially
//! join-compatible with itself, which is what lets aliased self-join
//! scans ([`crate::Query::scan_as`]) resolve against one catalog entry —
//! the catalog holds each relation once, and resolution maps any number
//! of aliases onto the same [`ProbDb`].
//!
//! ```
//! use mrsl_probdb::{Catalog, ProbDb};
//! use mrsl_relation::Schema;
//!
//! let stations = Schema::builder()
//!     .attribute("station", ["s0", "s1"])
//!     .attribute("kind", ["indoor", "outdoor"])
//!     .build()
//!     .unwrap();
//! let readings = Schema::builder()
//!     .attribute("station", ["s0", "s1"])
//!     .attribute("level", ["low", "high"])
//!     .build()
//!     .unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog.add("stations", ProbDb::new(stations)).unwrap();
//! catalog.add("readings", ProbDb::new(readings)).unwrap();
//! assert_eq!(catalog.len(), 2);
//! assert!(catalog.get("stations").is_some());
//! ```

use crate::database::ProbDb;
use crate::ProbDbError;
use mrsl_relation::{AttrId, Attribute};
use mrsl_util::FxHashMap;
use std::sync::Arc;

/// Do two attributes intern the same dictionary — the same labels in the
/// same order? The single definition of join compatibility, used by
/// [`Catalog::join_compatible`] and by query resolution for every join
/// pair.
pub(crate) fn same_dictionary(left: &Attribute, right: &Attribute) -> bool {
    left.labels() == right.labels()
}

/// A named collection of probabilistic relations, each a [`ProbDb`] with
/// its own schema. Iteration order is insertion order.
///
/// Relations are held behind [`Arc`], which makes `Catalog::clone`
/// copy-on-write: the clone shares every relation's storage with the
/// original, and [`Catalog::get_mut`] copies only the relation it is
/// about to mutate, that relation's columns whole. The serving layer
/// ([`crate::serve`]) leans on this to build the next catalog generation
/// behind live readers without copying untouched relations — and
/// because an unmodified shared relation keeps
/// its [`ProbDb::version`] and value stamps, plan-cache register memos
/// bound against one generation stay warm across the next.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: Vec<(String, Arc<ProbDb>)>,
    by_name: FxHashMap<String, usize>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a relation under `name`.
    ///
    /// Returns [`ProbDbError::DuplicateRelation`] when the name is taken —
    /// relation names are the anchors query trees resolve against, so they
    /// must be unique.
    pub fn add(&mut self, name: impl Into<String>, db: ProbDb) -> Result<(), ProbDbError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(ProbDbError::DuplicateRelation(name));
        }
        self.by_name.insert(name.clone(), self.relations.len());
        self.relations.push((name, Arc::new(db)));
        Ok(())
    }

    /// The relation named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&ProbDb> {
        self.by_name
            .get(name)
            .map(|&i| self.relations[i].1.as_ref())
    }

    /// The shared handle to the relation named `name`, if present.
    ///
    /// Catalog clones share relation storage until a [`Catalog::get_mut`]
    /// diverges them; comparing handles with [`Arc::ptr_eq`] across two
    /// catalog generations tells whether a relation was carried over
    /// untouched (and therefore kept its version stamps) or rebuilt.
    pub fn get_shared(&self, name: &str) -> Option<Arc<ProbDb>> {
        self.by_name.get(name).map(|&i| self.relations[i].1.clone())
    }

    /// Mutable access to the relation named `name`, for incremental data
    /// maintenance (pushing tuples or blocks into an already-registered
    /// relation). The name map is untouched; mutation bumps the
    /// relation's [`ProbDb::version`] stamp, which is how live plan
    /// caches notice the data changed.
    ///
    /// When the relation is shared with another catalog generation (see
    /// [`Catalog::get_shared`]) this copies it first, so mutation never
    /// reaches behind a published snapshot. The copy clones the
    /// relation's column store whole; every other relation stays shared.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut ProbDb> {
        self.by_name
            .get(name)
            .copied()
            .map(|i| Arc::make_mut(&mut self.relations[i].1))
    }

    /// Like [`Catalog::get`] but with a typed error naming the miss.
    pub fn resolve(&self, name: &str) -> Result<&ProbDb, ProbDbError> {
        self.get(name)
            .ok_or_else(|| ProbDbError::UnknownRelation(name.to_string()))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the catalog has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates `(name, relation)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ProbDb)> {
        self.relations
            .iter()
            .map(|(n, db)| (n.as_str(), db.as_ref()))
    }

    /// Are `left.l_attr` and `right.r_attr` join-compatible — do their
    /// attribute dictionaries intern the same labels in the same order?
    ///
    /// When they do, equal [`mrsl_relation::ValueId`]s mean equal values
    /// across the two relations and joins can run directly on the encoded
    /// columns.
    pub fn join_compatible(&self, left: &str, l_attr: AttrId, right: &str, r_attr: AttrId) -> bool {
        let (Some(l), Some(r)) = (self.get(left), self.get(right)) else {
            return false;
        };
        let (ls, rs) = (l.schema(), r.schema());
        l_attr.index() < ls.attr_count()
            && r_attr.index() < rs.attr_count()
            && same_dictionary(ls.attr(l_attr), rs.attr(r_attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsl_relation::schema::fig1_schema;
    use mrsl_relation::Schema;

    #[test]
    fn add_get_and_iterate_in_insertion_order() {
        let mut cat = Catalog::new();
        assert!(cat.is_empty());
        cat.add("b", ProbDb::new(fig1_schema())).unwrap();
        cat.add("a", ProbDb::new(fig1_schema())).unwrap();
        assert_eq!(cat.len(), 2);
        let names: Vec<&str> = cat.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert!(cat.get("a").is_some());
        assert!(cat.get("c").is_none());
        assert!(matches!(
            cat.resolve("c"),
            Err(ProbDbError::UnknownRelation(n)) if n == "c"
        ));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut cat = Catalog::new();
        cat.add("r", ProbDb::new(fig1_schema())).unwrap();
        let e = cat.add("r", ProbDb::new(fig1_schema()));
        assert!(matches!(e, Err(ProbDbError::DuplicateRelation(n)) if n == "r"));
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn clones_share_relations_until_mutated() {
        use mrsl_relation::CompleteTuple;

        let mut cat = Catalog::new();
        cat.add("a", ProbDb::new(fig1_schema())).unwrap();
        cat.add("b", ProbDb::new(fig1_schema())).unwrap();
        let next = cat.clone();
        assert!(Arc::ptr_eq(
            &cat.get_shared("a").unwrap(),
            &next.get_shared("a").unwrap()
        ));

        let mut next = next;
        next.get_mut("a")
            .unwrap()
            .push_certain(CompleteTuple::from_values(vec![0, 0, 0, 0]))
            .unwrap();
        // The mutated relation diverged; the untouched one is still shared
        // and kept its version stamps.
        assert!(!Arc::ptr_eq(
            &cat.get_shared("a").unwrap(),
            &next.get_shared("a").unwrap()
        ));
        assert!(Arc::ptr_eq(
            &cat.get_shared("b").unwrap(),
            &next.get_shared("b").unwrap()
        ));
        assert_eq!(
            cat.get("b").unwrap().version(),
            next.get("b").unwrap().version()
        );
        // The original never sees the write.
        assert_eq!(cat.get("a").unwrap().certain().len(), 0);
        assert_eq!(next.get("a").unwrap().certain().len(), 1);
    }

    #[test]
    fn join_compatibility_compares_dictionaries() {
        let left = Schema::builder()
            .attribute("k", ["x", "y"])
            .attribute("v", ["0", "1", "2"])
            .build()
            .unwrap();
        let right = Schema::builder()
            .attribute("w", ["a", "b"])
            .attribute("k", ["x", "y"])
            .build()
            .unwrap();
        let mut cat = Catalog::new();
        cat.add("l", ProbDb::new(left)).unwrap();
        cat.add("r", ProbDb::new(right)).unwrap();
        // Same labels, same order: compatible.
        assert!(cat.join_compatible("l", AttrId(0), "r", AttrId(1)));
        // Different domains: incompatible.
        assert!(!cat.join_compatible("l", AttrId(1), "r", AttrId(1)));
        assert!(!cat.join_compatible("l", AttrId(0), "r", AttrId(0)));
        // Out-of-range attribute or unknown relation: incompatible.
        assert!(!cat.join_compatible("l", AttrId(9), "r", AttrId(1)));
        assert!(!cat.join_compatible("l", AttrId(0), "missing", AttrId(1)));
    }
}
