//! The probabilistic database container.

use crate::block::{Block, BlockError};
use crate::column::{ColumnStore, ShardMap, SHARD_COUNT};
use crate::segmented::Segmented;
use mrsl_relation::{CompleteTuple, RelationError, Schema};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide monotonic data-stamp source backing [`ProbDb::version`].
static DATA_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    DATA_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A block-independent-disjoint probabilistic database: certain tuples
/// (probability 1) plus independent blocks of mutually exclusive
/// alternatives.
///
/// The row-oriented tuples live in [`Segmented`] stores, so a clone shares
/// every row segment and a write after a clone copies only the segment it
/// lands in.
/// Next to them the database maintains a columnar mirror
/// ([`ProbDb::columns`]), kept in sync by the push paths and rebuilt on
/// deserialization; the exact query evaluators run on it.
#[derive(Debug, Clone, Serialize)]
pub struct ProbDb {
    schema: Arc<Schema>,
    certain: Segmented<CompleteTuple>,
    blocks: Segmented<Block>,
    #[serde(skip)]
    columns: ColumnStore,
    #[serde(skip)]
    version: u64,
    /// Per-shard version stamps over the leading attribute's value ranges
    /// (see [`ShardMap`]); `shard_versions[s]` is the stamp of the last
    /// push that landed a row in shard `s`. Stamps are process-unique, so
    /// equal stamps for a shard imply the identical push sequence — and
    /// therefore identical shard contents — which is what lets the plan
    /// cache patch only the touched value ranges of its memoized
    /// registers.
    #[serde(skip)]
    shard_versions: Vec<u64>,
    /// How this database was derived: the deriving engine's name, or an
    /// ensemble weights digest. Metadata only — not part of the wire
    /// format, and reset by deserialization.
    #[serde(skip)]
    provenance: Option<String>,
}

impl ProbDb {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let arity = schema.attr_count();
        let version = next_stamp();
        Self {
            schema,
            certain: Segmented::new(),
            blocks: Segmented::new(),
            columns: ColumnStore::new(arity),
            version,
            shard_versions: vec![version; SHARD_COUNT],
            provenance: None,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The database's data-version stamp, drawn from a process-wide
    /// monotonic counter on construction and on every mutation. Two
    /// databases report the same stamp only when one is an unmodified
    /// clone of the other — i.e. equal stamps imply identical contents —
    /// which is what lets the plan cache skip its data-dependent guard
    /// re-checks when nothing changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shard map partitioning the leading attribute's dictionary (the
    /// key column the plan cache's register patching shards on).
    pub fn shard_map(&self) -> ShardMap {
        let card = if self.schema.attr_count() > 0 {
            self.schema.cardinality(mrsl_relation::AttrId(0))
        } else {
            1
        };
        ShardMap::new(card)
    }

    /// Per-shard version stamps (see the field docs): equal stamps imply
    /// identical shard contents, across clones and snapshots.
    pub fn shard_versions(&self) -> &[u64] {
        &self.shard_versions
    }

    /// Stamps shard `s` with the database's current version.
    fn touch_shard(&mut self, s: usize) {
        self.shard_versions[s] = self.version;
    }

    /// Adds a certain tuple.
    pub fn push_certain(&mut self, t: CompleteTuple) -> Result<(), RelationError> {
        if t.arity() != self.schema.attr_count() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.attr_count(),
                got: t.arity(),
            });
        }
        let shard = self
            .shard_map()
            .shard_of(t.raw().first().copied().unwrap_or(0));
        self.columns.push_certain(t.raw());
        self.certain.push(t);
        self.version = next_stamp();
        self.touch_shard(shard);
        Ok(())
    }

    /// Adds a block, rejecting alternatives whose arity does not match the
    /// schema (the columnar mirror requires aligned rows).
    pub fn push_block(&mut self, b: Block) -> Result<(), BlockError> {
        let expected = self.schema.attr_count();
        if let Some(a) = b
            .alternatives()
            .iter()
            .find(|a| a.tuple.arity() != expected)
        {
            return Err(BlockError::ArityMismatch {
                expected,
                got: a.tuple.arity(),
            });
        }
        let map = self.shard_map();
        let mut touched = [false; SHARD_COUNT];
        for a in b.alternatives() {
            touched[map.shard_of(a.tuple.raw().first().copied().unwrap_or(0))] = true;
        }
        self.columns.push_block(&b);
        self.blocks.push(b);
        self.version = next_stamp();
        for (s, hit) in touched.into_iter().enumerate() {
            if hit {
                self.touch_shard(s);
            }
        }
        Ok(())
    }

    /// Overwrites the alternative probabilities of block `block` (by
    /// position), keeping its tuples — the write path of tuple-probability
    /// learning, where a gradient step adjusts block masses to fit labeled
    /// query answers.
    ///
    /// `probs` must satisfy the same simplex constraint [`Block::new`]
    /// enforces (positive, finite, summing to 1 within tolerance, one per
    /// alternative); the database is untouched on error. A successful
    /// update bumps [`ProbDb::version`] and restamps exactly the shards
    /// the block's alternatives live in, so warm plan-cache registers
    /// patch the touched key ranges instead of re-binding — mass updates
    /// ride the same incremental maintenance as tuple upserts.
    ///
    /// # Panics
    /// Panics when `block >= self.blocks().len()`.
    pub fn set_block_masses(&mut self, block: usize, probs: &[f64]) -> Result<(), BlockError> {
        let map = self.shard_map();
        let mut touched = [false; SHARD_COUNT];
        for a in self.blocks[block].alternatives() {
            touched[map.shard_of(a.tuple.raw().first().copied().unwrap_or(0))] = true;
        }
        // Validate before `get_mut`: a rejected update must not copy the
        // block's segment away from the clones that share it.
        self.blocks[block].check_probs(probs)?;
        self.blocks
            .get_mut(block)
            .expect("block index checked above")
            .overwrite_probs(probs);
        self.columns.set_block_probs(block, probs);
        self.version = next_stamp();
        for (s, hit) in touched.into_iter().enumerate() {
            if hit {
                self.touch_shard(s);
            }
        }
        Ok(())
    }

    /// [`ProbDb::set_block_masses`] without the simplex validation and
    /// without version stamping: the finite-difference oracle of the
    /// gradient tests perturbs a single mass off the simplex, which the
    /// public API rightly rejects.
    #[cfg(test)]
    pub(crate) fn set_block_masses_unchecked(&mut self, block: usize, probs: &[f64]) {
        self.blocks
            .get_mut(block)
            .expect("block index in range")
            .overwrite_probs(probs);
        self.columns.set_block_probs(block, probs);
    }

    /// Derivation provenance: which inference engine (or ensemble weights
    /// digest) produced this database, when recorded.
    pub fn provenance(&self) -> Option<&str> {
        self.provenance.as_deref()
    }

    /// Records derivation provenance (see [`ProbDb::provenance`]).
    pub fn set_provenance(&mut self, provenance: impl Into<String>) {
        self.provenance = Some(provenance.into());
    }

    /// The certain tuples.
    pub fn certain(&self) -> &Segmented<CompleteTuple> {
        &self.certain
    }

    /// The blocks.
    pub fn blocks(&self) -> &Segmented<Block> {
        &self.blocks
    }

    /// The columnar mirror of the database.
    pub fn columns(&self) -> &ColumnStore {
        &self.columns
    }

    /// Number of possible worlds: the product of block sizes.
    pub fn world_count(&self) -> u128 {
        self.blocks.iter().map(|b| b.len() as u128).product()
    }

    /// Total number of alternatives stored (a size measure of the derived
    /// model, comparable to the paper's block example in Fig. 1).
    pub fn alternative_count(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }
}

// Manual impl: the columnar mirror is skipped during serialization and
// rebuilt here by replaying the tuples through the push paths.
impl Deserialize for ProbDb {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let schema: Arc<Schema> = Deserialize::from_value(v.field("schema")?)?;
        let certain: Vec<CompleteTuple> = Deserialize::from_value(v.field("certain")?)?;
        let blocks: Vec<Block> = Deserialize::from_value(v.field("blocks")?)?;
        let mut db = ProbDb::new(schema);
        for t in certain {
            db.push_certain(t)
                .map_err(|e| DeError::new(e.to_string()))?;
        }
        for b in blocks {
            db.push_block(b).map_err(|e| DeError::new(e.to_string()))?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Alternative;
    use mrsl_relation::schema::fig1_schema;
    use mrsl_relation::AttrId;

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    fn two_block_db() -> ProbDb {
        let mut db = ProbDb::new(fig1_schema());
        db.push_certain(CompleteTuple::from_values(vec![0, 1, 0, 0]))
            .unwrap();
        db.push_block(
            Block::new(
                0,
                vec![alt(vec![0, 0, 0, 0], 0.5), alt(vec![0, 0, 1, 0], 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        db.push_block(
            Block::new(
                1,
                vec![
                    alt(vec![1, 2, 0, 0], 0.30),
                    alt(vec![1, 2, 0, 1], 0.45),
                    alt(vec![1, 2, 1, 0], 0.10),
                    alt(vec![1, 2, 1, 1], 0.15),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn counts_worlds_and_alternatives() {
        let db = two_block_db();
        assert_eq!(db.world_count(), 8);
        assert_eq!(db.alternative_count(), 6);
        assert_eq!(db.certain().len(), 1);
        assert_eq!(db.blocks().len(), 2);
    }

    #[test]
    fn empty_db_has_one_world() {
        let db = ProbDb::new(fig1_schema());
        assert_eq!(db.world_count(), 1);
        assert_eq!(db.alternative_count(), 0);
    }

    #[test]
    fn rejects_wrong_arity_certain() {
        let mut db = ProbDb::new(fig1_schema());
        let e = db.push_certain(CompleteTuple::from_values(vec![0, 0]));
        assert!(matches!(e, Err(RelationError::ArityMismatch { .. })));
    }

    #[test]
    fn rejects_wrong_arity_block() {
        let mut db = ProbDb::new(fig1_schema());
        let b = Block::new(0, vec![alt(vec![0, 0], 1.0)]).unwrap();
        let e = db.push_block(b);
        assert!(matches!(
            e,
            Err(BlockError::ArityMismatch {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn columns_stay_in_sync_with_pushes() {
        let db = two_block_db();
        let cols = db.columns();
        assert_eq!(cols.certain().rows(), 1);
        assert_eq!(cols.alternatives().rows(), 6);
        assert_eq!(cols.block_count(), 2);
        assert_eq!(cols.block_range(1), 2..6);
        // Column contents agree with the row store, attribute by attribute.
        for a in 0..4u16 {
            let attr = AttrId(a);
            let col = cols.certain().col(attr);
            for (i, t) in db.certain().iter().enumerate() {
                assert_eq!(col[i], t.raw()[attr.index()]);
            }
            let alt_col = cols.alternatives().col(attr);
            let mut row = 0;
            for b in db.blocks() {
                for alternative in b.alternatives() {
                    assert_eq!(alt_col[row], alternative.tuple.raw()[attr.index()]);
                    row += 1;
                }
            }
        }
        // Probabilities flattened in the same order.
        assert!((cols.alt_probs()[3] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn pushes_stamp_only_the_touched_shards() {
        let mut db = two_block_db();
        let map = db.shard_map();
        let before = db.shard_versions().to_vec();
        let v0 = db.version();
        // Keys 0 and 1 land in fixed shards of the 2-value dictionary.
        db.push_block(Block::new(2, vec![alt(vec![1, 0, 0, 0], 1.0)]).unwrap())
            .unwrap();
        assert!(db.version() > v0);
        let touched = map.shard_of(1);
        for (s, (&old, &new)) in before.iter().zip(db.shard_versions()).enumerate() {
            if s == touched {
                assert_eq!(new, db.version(), "touched shard restamped");
            } else {
                assert_eq!(new, old, "untouched shard {s} kept its stamp");
            }
        }
        // A clone shares stamps until it diverges.
        let mut clone = db.clone();
        assert_eq!(clone.shard_versions(), db.shard_versions());
        clone
            .push_certain(CompleteTuple::from_values(vec![0, 0, 0, 0]))
            .unwrap();
        let s0 = map.shard_of(0);
        assert_ne!(clone.shard_versions()[s0], db.shard_versions()[s0]);
        assert_eq!(
            clone.shard_versions()[touched],
            db.shard_versions()[touched]
        );
    }

    #[test]
    fn mass_updates_patch_columns_and_restamp_touched_shards() {
        let mut db = two_block_db();
        let map = db.shard_map();
        let before = db.shard_versions().to_vec();
        let v0 = db.version();
        db.set_block_masses(1, &[0.1, 0.2, 0.3, 0.4]).unwrap();
        // Row store and columnar mirror agree on the new masses.
        let probs: Vec<f64> = db.blocks()[1]
            .alternatives()
            .iter()
            .map(|a| a.prob)
            .collect();
        assert_eq!(probs, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(&db.columns().alt_probs()[2..6], &[0.1, 0.2, 0.3, 0.4]);
        // Version bumped; only the shards holding key value 1 restamped.
        assert!(db.version() > v0);
        let touched = map.shard_of(1);
        for (s, (&old, &new)) in before.iter().zip(db.shard_versions()).enumerate() {
            if s == touched {
                assert_eq!(new, db.version());
            } else {
                assert_eq!(new, old, "untouched shard {s}");
            }
        }
        // Invalid updates leave the database untouched.
        let v1 = db.version();
        let e = db.set_block_masses(1, &[0.5, 0.5]);
        assert!(matches!(
            e,
            Err(BlockError::AlternativeCountMismatch {
                expected: 4,
                got: 2
            })
        ));
        let e = db.set_block_masses(1, &[0.1, 0.2, 0.3, 0.9]);
        assert!(matches!(e, Err(BlockError::NotNormalized(_))));
        let e = db.set_block_masses(1, &[0.0, 0.3, 0.3, 0.4]);
        assert!(matches!(e, Err(BlockError::BadProbability(_))));
        assert_eq!(db.version(), v1);
        assert!((db.columns().alt_probs()[2] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn provenance_is_metadata_not_wire_format() {
        let mut db = two_block_db();
        assert_eq!(db.provenance(), None);
        db.set_provenance("gibbs");
        assert_eq!(db.provenance(), Some("gibbs"));
        let text = serde_json::to_string(&db).unwrap();
        assert!(!text.contains("provenance"));
        let back: ProbDb = serde_json::from_str(&text).unwrap();
        assert_eq!(back.provenance(), None);
    }

    #[test]
    fn deserialization_rebuilds_columns() {
        let db = two_block_db();
        let text = serde_json::to_string(&db).unwrap();
        // The columnar mirror is not part of the wire format.
        assert!(!text.contains("columns"));
        let back: ProbDb = serde_json::from_str(&text).unwrap();
        assert_eq!(back.columns().certain().rows(), 1);
        assert_eq!(back.columns().alternatives().rows(), 6);
        assert_eq!(
            back.columns().alternatives().col(AttrId(3)),
            db.columns().alternatives().col(AttrId(3))
        );
    }
}
