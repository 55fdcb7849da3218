//! Relational substrate for the MRSL reproduction.
//!
//! The paper (§II) models the input as a single relation `R` over a set of
//! discrete, finite-valued attributes, split into a *complete* part `Rc`
//! (points) and an *incomplete* part `Ri` (tuples with `?` values). This
//! crate implements that model:
//!
//! * [`schema`] — attribute/domain definitions with value interning; dense
//!   [`AttrId`]/[`ValueId`] handles used everywhere in hot paths.
//! * [`mask`] — [`AttrMask`], a bitset over attributes identifying the
//!   *complete portion* of a tuple (Def. 2.1).
//! * [`tuple`](mod@tuple) — [`CompleteTuple`] (points, Def. 2.2) and
//!   [`PartialTuple`] (incomplete tuples) with matching and subsumption
//!   (Defs. 2.3, 2.4).
//! * [`relation`] — [`Relation`], the container, with support counting.
//! * [`loader`] — a small CSV-style parser used by examples and tests.
//! * [`display`] — human-readable rendering of tuples and relations.

#![forbid(unsafe_code)]

pub mod display;
pub mod error;
pub mod join;
pub mod joint;
pub mod loader;
pub mod mask;
pub mod relation;
pub mod schema;
pub mod tuple;

pub use error::RelationError;
pub use joint::JointIndexer;
pub use mask::AttrMask;
pub use relation::Relation;
pub use schema::{AttrId, Attribute, Schema, SchemaBuilder, ValueId};
pub use tuple::{Assignment, CompleteTuple, PartialTuple};
