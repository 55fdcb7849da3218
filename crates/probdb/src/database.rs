//! The probabilistic database container.
//!
//! A [`ProbDb`] stores its relation once, in columns: a [`ColumnStore`]
//! holds every value, mass and block key, and the row views
//! ([`ProbDb::certain`], [`ProbDb::blocks`], [`ProbDb::block`]) rebuild
//! owned tuples and blocks from it on demand. A clone copies the columns
//! whole; the serving layer clones only the relations a publish touches.

use crate::block::{Alternative, Block, BlockError};
use crate::column::ColumnStore;
use mrsl_relation::{CompleteTuple, RelationError, Schema};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Certain rows, or blocks, per value stamp: the granularity at which the
/// plan cache keeps predicate bitmaps and guard verdicts. A compile-time
/// constant, not a knob: 512 keeps both the per-stamp re-scan after a
/// push and the number of stamps small at 100k rows.
pub const SEGMENT_LEN: usize = 512;

/// Process-wide monotonic data-stamp source backing [`ProbDb::version`].
static DATA_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    DATA_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A block-independent-disjoint probabilistic database: certain tuples
/// (probability 1) plus independent blocks of mutually exclusive
/// alternatives.
///
/// The tuples live only in the [`ColumnStore`] ([`ProbDb::columns`]),
/// which the push paths append to and deserialization rebuilds; the
/// query evaluators run on it, and the row views rebuild tuples from it.
///
/// Three kinds of stamp name what the data holds, all drawn from one
/// process-wide counter: [`ProbDb::version`] moves on every write; the
/// value stamps (one per [`SEGMENT_LEN`] certain rows or blocks) move
/// only when a push adds a row to their segment; and the mass stamp moves
/// only when [`ProbDb::set_block_masses`] rewrites a block's masses.
/// Rows are append-only, so a warm plan whose value stamps still match
/// before the last segment, and whose mass stamp matches, only has to
/// fold in the rows from that segment on.
#[derive(Debug, Clone)]
pub struct ProbDb {
    schema: Arc<Schema>,
    columns: ColumnStore,
    version: u64,
    /// Value stamps of the certain rows: `certain_stamps[s]` is the stamp
    /// of the last push that landed a row in segment `s` of the certain
    /// rows (one stamp per [`SEGMENT_LEN`] rows). Rows are append-only, so
    /// equal stamps at one position mean identical rows in that segment
    /// and in every segment before it, across clones too; the plan cache
    /// keeps its predicate bitmaps and guard verdicts per segment under
    /// these stamps.
    certain_stamps: Vec<u64>,
    /// Value stamps of the blocks, one per [`SEGMENT_LEN`] blocks, with
    /// the same meaning. [`ProbDb::set_block_masses`] leaves them alone:
    /// it rewrites masses, never values, and nothing memoized under a
    /// value stamp reads a mass.
    block_stamps: Vec<u64>,
    /// The stamp of the last mass update ([`ProbDb::set_block_masses`]),
    /// or of the database's creation. Equal mass stamps mean the same
    /// mass history, across clones too: registers and mass tables, which
    /// carry masses, keep their rows before the last segment only while
    /// it holds.
    mass_stamp: u64,
    /// How this database was derived: the deriving engine's name, or an
    /// ensemble weights digest. Metadata only — not part of the wire
    /// format, and reset by deserialization.
    provenance: Option<String>,
}

impl ProbDb {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let arity = schema.attr_count();
        let version = next_stamp();
        Self {
            schema,
            columns: ColumnStore::new(arity),
            version,
            certain_stamps: Vec::new(),
            block_stamps: Vec::new(),
            mass_stamp: version,
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

    /// Value stamps of the certain-row segments (see the field docs).
    pub(crate) fn certain_stamps(&self) -> &[u64] {
        &self.certain_stamps
    }

    /// Value stamps of the block segments (see the field docs).
    pub(crate) fn block_stamps(&self) -> &[u64] {
        &self.block_stamps
    }

    /// The mass stamp (see the field docs).
    pub(crate) fn mass_stamp(&self) -> u64 {
        self.mass_stamp
    }

    /// Stamps the segment that row `row` (just pushed) lands in with the
    /// database's current version, opening a new stamp for a new segment.
    fn touch_segment(stamps: &mut Vec<u64>, row: usize, version: u64) {
        let s = row / SEGMENT_LEN;
        if s == stamps.len() {
            stamps.push(version);
        } else {
            stamps[s] = version;
        }
    }

    /// Adds a certain tuple.
    pub fn push_certain(&mut self, t: CompleteTuple) -> Result<(), RelationError> {
        if t.arity() != self.schema.attr_count() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.attr_count(),
                got: t.arity(),
            });
        }
        self.columns.push_certain(t.raw());
        let row = self.columns.certain().rows() - 1;
        self.version = next_stamp();
        Self::touch_segment(&mut self.certain_stamps, row, self.version);
        Ok(())
    }

    /// Adds a block, rejecting alternatives whose arity does not match the
    /// schema (the column store requires aligned rows).
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
        self.columns.push_block(&b);
        let block = self.columns.block_count() - 1;
        self.version = next_stamp();
        Self::touch_segment(&mut self.block_stamps, block, self.version);
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
    /// update bumps [`ProbDb::version`] and moves the mass stamp, so warm
    /// plans rebuild their registers and mass tables. The value stamps
    /// stay: a warm plan re-evaluates no predicate after a mass update.
    ///
    /// # Panics
    /// Panics when `block >= self.blocks().len()`.
    pub fn set_block_masses(&mut self, block: usize, probs: &[f64]) -> Result<(), BlockError> {
        let rows = self.columns.block_range(block);
        Block::check_probs(rows.len(), probs)?;
        self.columns.set_block_probs(block, probs);
        self.version = next_stamp();
        self.mass_stamp = self.version;
        Ok(())
    }

    /// [`ProbDb::set_block_masses`] without the simplex validation and
    /// without version stamping: the finite-difference oracle of the
    /// gradient tests perturbs a single mass off the simplex, which the
    /// public API rightly rejects.
    #[cfg(test)]
    pub(crate) fn set_block_masses_unchecked(&mut self, block: usize, probs: &[f64]) {
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

    /// The certain tuples in push order, rebuilt from the columns.
    pub fn certain(&self) -> impl ExactSizeIterator<Item = CompleteTuple> + '_ {
        let rows = self.columns.certain();
        (0..rows.rows()).map(move |r| CompleteTuple::from_values(rows.row(r)))
    }

    /// The blocks in push order, rebuilt from the columns.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block> + '_ {
        (0..self.columns.block_count()).map(move |b| self.block(b))
    }

    /// Block `b` (by position, not key), rebuilt from the columns.
    ///
    /// # Panics
    /// Panics when `b >= self.blocks().len()`.
    pub fn block(&self, b: usize) -> Block {
        let cols = &self.columns;
        let alternatives = cols
            .block_range(b)
            .map(|r| Alternative {
                tuple: CompleteTuple::from_values(cols.alternatives().row(r)),
                prob: cols.alt_probs()[r],
            })
            .collect();
        Block::from_parts(cols.block_key(b), alternatives)
    }

    /// The column store holding the database.
    pub fn columns(&self) -> &ColumnStore {
        &self.columns
    }

    /// Number of possible worlds: the product of block sizes.
    pub fn world_count(&self) -> u128 {
        (0..self.columns.block_count())
            .map(|b| self.columns.block_range(b).len() as u128)
            .product()
    }

    /// Total number of alternatives stored (a size measure of the derived
    /// model, comparable to the paper's block example in Fig. 1).
    pub fn alternative_count(&self) -> usize {
        self.columns.alternatives().rows()
    }
}

/// The wire format lists rows: the schema, the certain tuples and the
/// blocks, each a plain sequence in push order.
impl Serialize for ProbDb {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), self.schema.to_value()),
            (
                "certain".into(),
                Value::Array(self.certain().map(|t| t.to_value()).collect()),
            ),
            (
                "blocks".into(),
                Value::Array(self.blocks().map(|b| b.to_value()).collect()),
            ),
        ])
    }
}

// Rebuilds the columns by replaying the rows through the push paths.
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
    use proptest::prelude::*;

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

    /// Bit-level view of a block: key, then each alternative's values and
    /// probability bits.
    type BlockBits = (usize, Vec<(Vec<u16>, u64)>);

    fn bits_of(key: usize, alts: &[(&[u16], f64)]) -> BlockBits {
        let alts = alts.iter().map(|(v, p)| (v.to_vec(), p.to_bits()));
        (key, alts.collect())
    }

    fn block_bits(b: &Block) -> BlockBits {
        let alts = b.alternatives().iter();
        let alts = alts.map(|a| (a.tuple.raw().to_vec(), a.prob.to_bits()));
        (b.key(), alts.collect())
    }

    #[test]
    fn rows_round_trip_through_the_columns() {
        let db = two_block_db();
        let certain: Vec<CompleteTuple> = db.certain().collect();
        assert_eq!(certain, vec![CompleteTuple::from_values(vec![0, 1, 0, 0])]);
        let want = [
            bits_of(0, &[(&[0, 0, 0, 0], 0.5), (&[0, 0, 1, 0], 0.5)]),
            bits_of(
                1,
                &[
                    (&[1, 2, 0, 0], 0.30),
                    (&[1, 2, 0, 1], 0.45),
                    (&[1, 2, 1, 0], 0.10),
                    (&[1, 2, 1, 1], 0.15),
                ],
            ),
        ];
        let got: Vec<_> = db.blocks().map(|b| block_bits(&b)).collect();
        assert_eq!(got, want);
        for (b, want) in want.iter().enumerate() {
            assert_eq!(&block_bits(&db.block(b)), want);
        }
        // The columns the rows come from: alternatives flattened in block
        // order, with their masses and block boundaries.
        let cols = db.columns();
        assert_eq!(cols.certain().rows(), 1);
        assert_eq!(cols.alternatives().rows(), 6);
        assert_eq!(cols.block_count(), 2);
        assert_eq!(cols.block_range(1), 2..6);
        assert_eq!(cols.alternatives().col(AttrId(3)), &[0, 0, 0, 1, 0, 1]);
        assert_eq!(cols.alt_probs()[3], 0.45);
    }

    #[test]
    #[should_panic]
    fn reading_a_block_past_the_end_panics() {
        two_block_db().block(2);
    }

    #[test]
    fn mass_stamp_moves_only_with_mass_updates() {
        let mut db = two_block_db();
        let (v0, m0) = (db.version(), db.mass_stamp());
        db.push_block(Block::new(2, vec![alt(vec![1, 0, 0, 0], 1.0)]).unwrap())
            .unwrap();
        db.push_certain(CompleteTuple::from_values(vec![0, 0, 0, 0]))
            .unwrap();
        assert!(db.version() > v0);
        assert_eq!(db.mass_stamp(), m0, "pushes leave the mass stamp");
        // A clone shares the stamp until one side updates a mass.
        let mut clone = db.clone();
        assert_eq!(clone.mass_stamp(), m0);
        clone.set_block_masses(0, &[0.25, 0.75]).unwrap();
        assert_eq!(clone.mass_stamp(), clone.version());
        assert_eq!(db.mass_stamp(), m0);
        // Separately created databases never share one.
        assert_ne!(two_block_db().mass_stamp(), m0);
    }

    #[test]
    fn mass_updates_rewrite_columns_and_move_the_mass_stamp() {
        let mut db = two_block_db();
        let stamps = (db.certain_stamps().to_vec(), db.block_stamps().to_vec());
        let v0 = db.version();
        db.set_block_masses(1, &[0.1, 0.2, 0.3, 0.4]).unwrap();
        // The rebuilt block and the columns agree on the new masses.
        let probs: Vec<f64> = db.block(1).alternatives().iter().map(|a| a.prob).collect();
        assert_eq!(probs, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(&db.columns().alt_probs()[2..6], &[0.1, 0.2, 0.3, 0.4]);
        // Version and mass stamp moved together; the value stamps stayed.
        assert!(db.version() > v0);
        assert_eq!(db.mass_stamp(), db.version());
        assert_eq!(
            (db.certain_stamps().to_vec(), db.block_stamps().to_vec()),
            stamps
        );
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
        assert_eq!((db.version(), db.mass_stamp()), (v1, v1));
        assert!((db.columns().alt_probs()[2] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn value_stamps_follow_pushes_per_segment_and_ignore_mass_updates() {
        let mut db = ProbDb::new(fig1_schema());
        let block = |key| {
            Block::new(
                key,
                vec![alt(vec![0, 0, 0, 0], 0.5), alt(vec![1, 0, 0, 0], 0.5)],
            )
            .unwrap()
        };
        for key in 0..SEGMENT_LEN + 1 {
            db.push_block(block(key)).unwrap();
        }
        db.push_certain(CompleteTuple::from_values(vec![0, 0, 0, 0]))
            .unwrap();
        assert_eq!(db.block_stamps().len(), 2);
        assert_eq!(db.certain_stamps(), &[db.version()]);
        let stamps = db.block_stamps().to_vec();
        // Mass updates move the version, not the value stamps.
        let v = db.version();
        db.set_block_masses(3, &[0.25, 0.75]).unwrap();
        assert!(db.version() > v);
        assert_eq!(db.block_stamps(), stamps.as_slice());
        // Two clones diverging at equal lengths restamp their tail
        // segment differently and share the full one.
        let (mut a, mut b) = (db.clone(), db.clone());
        a.push_block(block(900)).unwrap();
        b.push_block(block(901)).unwrap();
        assert_eq!(a.block_stamps()[0], stamps[0]);
        assert_eq!(b.block_stamps()[0], stamps[0]);
        assert_ne!(a.block_stamps()[1], b.block_stamps()[1]);
        assert_ne!(a.block_stamps()[1], stamps[1]);
        assert_eq!(a.certain_stamps(), db.certain_stamps());
    }

    /// The value stamps a flat reference predicts: each segment carries
    /// the version of the last push into it, which is the push of its
    /// last row (rows are append-only).
    fn expected_stamps(pushed_at: &[u64]) -> Vec<u64> {
        pushed_at
            .chunks(SEGMENT_LEN)
            .map(|c| c[c.len() - 1])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random pushes, mass updates and clones across segment
        /// boundaries: value stamps follow the pushes and only the pushes,
        /// in the database written to and never in a clone of it.
        #[test]
        fn value_stamps_match_a_flat_reference(
            size in 0usize..3,
            ops in prop::collection::vec((0u8..4, 0usize..10_000), 1..30),
        ) {
            let coin = |key| Block::new(key, vec![
                alt(vec![(key % 2) as u16, 0, 0, 0], 0.5),
                alt(vec![(key % 2) as u16, 1, 0, 0], 0.5),
            ]).unwrap();
            let rows = [SEGMENT_LEN - 1, SEGMENT_LEN, 2 * SEGMENT_LEN + 3][size];
            let mut db = ProbDb::new(fig1_schema());
            let (mut certain_at, mut blocks_at) = (Vec::new(), Vec::new());
            for key in 0..rows {
                db.push_block(coin(key)).unwrap();
                blocks_at.push(db.version());
                db.push_certain(CompleteTuple::from_values(vec![1, 0, 0, 0])).unwrap();
                certain_at.push(db.version());
            }
            let mut clones = Vec::new();
            for (kind, pick) in ops {
                match kind {
                    0 => {
                        db.push_block(coin(blocks_at.len())).unwrap();
                        blocks_at.push(db.version());
                    }
                    1 => {
                        db.push_certain(CompleteTuple::from_values(vec![0, 2, 1, 0])).unwrap();
                        certain_at.push(db.version());
                    }
                    2 => db.set_block_masses(pick % blocks_at.len(), &[0.25, 0.75]).unwrap(),
                    _ => clones.push((db.clone(), certain_at.clone(), blocks_at.clone())),
                }
                prop_assert_eq!(db.certain_stamps(), &expected_stamps(&certain_at)[..]);
                prop_assert_eq!(db.block_stamps(), &expected_stamps(&blocks_at)[..]);
            }
            for (copy, certain_at, blocks_at) in &clones {
                prop_assert_eq!(copy.certain_stamps(), &expected_stamps(certain_at)[..]);
                prop_assert_eq!(copy.block_stamps(), &expected_stamps(blocks_at)[..]);
            }
        }
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
        // The wire format lists rows, not columns.
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
