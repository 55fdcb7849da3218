//! Segmented copy-on-write row storage, against a flat `Vec` reference.
//!
//! `ProbDb` keeps its certain tuples and blocks in fixed-size segments
//! behind `Arc`, so a clone shares every segment and a later write copies
//! only the segment it lands in. None of that may be observable: random
//! interleavings of pushes, mass updates and clones across segment
//! boundaries must index, iterate, mirror into columns, stamp shards and
//! serialize exactly like the flat vectors the store replaced, and a write
//! to one copy must never reach another.

use mrsl_repro::probdb::segmented::SEGMENT_LEN;
use mrsl_repro::probdb::{Alternative, Block, ProbDb, SHARD_COUNT};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema};
use proptest::prelude::*;
use std::sync::Arc;

/// Leading-attribute cardinality: wide enough that pushes land in
/// different shards.
const KEYS: u16 = 40;
const LEVELS: u16 = 3;

fn schema() -> Arc<Schema> {
    Schema::builder()
        .attribute("key", (0..KEYS).map(|v| format!("k{v}")))
        .attribute("level", (0..LEVELS).map(|v| format!("l{v}")))
        .build()
        .unwrap()
}

/// The flat reference: what the row store held before segmentation.
#[derive(Debug, Clone, Default)]
struct Flat {
    certain: Vec<CompleteTuple>,
    blocks: Vec<Block>,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Certain(u16, u16),
    Block(u16, u16, u16),
    Masses(u16, u16),
    Clone,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..4, (0..KEYS, 0..LEVELS), 1u16..100).prop_map(|(kind, (key, level), w)| match kind {
        0 => Op::Certain(key, level),
        1 => Op::Block(key, level, w),
        2 => Op::Masses(key.wrapping_mul(37).wrapping_add(w), w),
        _ => Op::Clone,
    })
}

/// Two alternatives `(key, level)` and `(key, level + 1)` weighted `w : 100 - w`.
fn block(key: usize, k: u16, level: u16, w: u16) -> Block {
    let alt = |l: u16, p: f64| Alternative {
        tuple: CompleteTuple::from_values(vec![k, l % LEVELS]),
        prob: p,
    };
    let p = f64::from(w) / 100.0;
    Block::new(key, vec![alt(level, p), alt(level + 1, 1.0 - p)]).unwrap()
}

/// A database of `rows` certain tuples and `rows` blocks, mirrored flat.
fn filled(rows: usize) -> (ProbDb, Flat) {
    let mut db = ProbDb::new(schema());
    let mut flat = Flat::default();
    for i in 0..rows {
        let (k, l) = ((i % KEYS as usize) as u16, (i % LEVELS as usize) as u16);
        let t = CompleteTuple::from_values(vec![k, l]);
        db.push_certain(t.clone()).unwrap();
        flat.certain.push(t);
        let b = block(i, k, l, 1 + (i % 99) as u16);
        db.push_block(b.clone()).unwrap();
        flat.blocks.push(b);
    }
    (db, flat)
}

fn probs(b: &Block) -> Vec<f64> {
    b.alternatives().iter().map(|a| a.prob).collect()
}

fn same_block(a: &Block, b: &Block) -> bool {
    a.key() == b.key()
        && a.alternatives().len() == b.alternatives().len()
        && a.alternatives()
            .iter()
            .zip(b.alternatives())
            .all(|(x, y)| x.tuple == y.tuple && x.prob.to_bits() == y.prob.to_bits())
}

/// Row store, columnar mirror and segment layout all agree with `flat`.
fn check_against(db: &ProbDb, flat: &Flat) {
    let (certain, blocks) = (db.certain(), db.blocks());
    prop_assert_eq!(certain.len(), flat.certain.len());
    prop_assert_eq!(blocks.len(), flat.blocks.len());
    prop_assert_eq!(
        blocks.segment_count(),
        flat.blocks.len().div_ceil(SEGMENT_LEN)
    );
    prop_assert!(certain.iter().eq(&flat.certain));
    prop_assert!(blocks
        .iter()
        .zip(&flat.blocks)
        .all(|(a, b)| same_block(a, b)));
    for (i, b) in flat.blocks.iter().enumerate() {
        prop_assert!(same_block(&blocks[i], b), "block {}", i);
    }
    prop_assert!(blocks.get(flat.blocks.len()).is_none());

    let cols = db.columns();
    for a in 0..2u16 {
        let attr = AttrId(a);
        let want: Vec<u16> = flat.certain.iter().map(|t| t.raw()[a as usize]).collect();
        prop_assert_eq!(cols.certain().col(attr), &want[..]);
        let want: Vec<u16> = flat
            .blocks
            .iter()
            .flat_map(|b| {
                b.alternatives()
                    .iter()
                    .map(move |x| x.tuple.raw()[a as usize])
            })
            .collect();
        prop_assert_eq!(cols.alternatives().col(attr), &want[..]);
    }
    let want: Vec<f64> = flat.blocks.iter().flat_map(probs).collect();
    prop_assert_eq!(cols.alt_probs(), &want[..]);
    prop_assert_eq!(cols.block_count(), flat.blocks.len());
}

/// The shards rows with leading values `keys` land in.
fn shards_of(db: &ProbDb, keys: impl IntoIterator<Item = u16>) -> [bool; SHARD_COUNT] {
    let mut hit = [false; SHARD_COUNT];
    for k in keys {
        hit[db.shard_map().shard_of(k)] = true;
    }
    hit
}

/// A mutation bumped the version and restamped exactly the touched shards.
fn check_stamps(before: (u64, &[u64]), db: &ProbDb, touched: [bool; SHARD_COUNT]) {
    prop_assert!(db.version() > before.0);
    for (s, (&old, &new)) in before.1.iter().zip(db.shard_versions()).enumerate() {
        prop_assert_eq!(
            new,
            if touched[s] { db.version() } else { old },
            "shard {}",
            s
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings across segment boundaries behave like flat
    /// vectors; every clone keeps exactly the contents it was cloned with.
    #[test]
    fn segmented_rows_behave_like_flat_vectors(
        size in 0usize..4,
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let rows = [SEGMENT_LEN - 1, SEGMENT_LEN, SEGMENT_LEN + 1, 3 * SEGMENT_LEN + 7][size];
        let (mut db, mut flat) = filled(rows);
        check_against(&db, &flat);
        let mut clones: Vec<(ProbDb, Flat)> = Vec::new();
        for op in ops {
            let version = db.version();
            let stamps = db.shard_versions().to_vec();
            let before = (version, &stamps[..]);
            match op {
                Op::Certain(k, l) => {
                    let t = CompleteTuple::from_values(vec![k, l]);
                    db.push_certain(t.clone()).unwrap();
                    flat.certain.push(t);
                    check_stamps(before, &db, shards_of(&db, [k]));
                }
                Op::Block(k, l, w) => {
                    let b = block(flat.blocks.len(), k, l, w);
                    db.push_block(b.clone()).unwrap();
                    flat.blocks.push(b);
                    check_stamps(before, &db, shards_of(&db, [k]));
                }
                Op::Masses(pick, w) => {
                    let i = usize::from(pick) % flat.blocks.len();
                    let p = f64::from(w) / 100.0;
                    db.set_block_masses(i, &[p, 1.0 - p]).unwrap();
                    let keys = flat.blocks[i].alternatives().iter().map(|a| a.tuple.raw()[0]);
                    let touched = shards_of(&db, keys);
                    let b = &flat.blocks[i];
                    let alts = b
                        .alternatives()
                        .iter()
                        .zip([p, 1.0 - p])
                        .map(|(a, prob)| Alternative { tuple: a.tuple.clone(), prob })
                        .collect();
                    flat.blocks[i] = Block::new(b.key(), alts).unwrap();
                    check_stamps(before, &db, touched);
                }
                Op::Clone => {
                    let copy = db.clone();
                    prop_assert_eq!(copy.version(), db.version());
                    prop_assert_eq!(copy.shard_versions(), db.shard_versions());
                    prop_assert_eq!(
                        copy.blocks().shared_segment_count(db.blocks()),
                        db.blocks().segment_count()
                    );
                    clones.push((copy, flat.clone()));
                }
            }
            check_against(&db, &flat);
        }
        // Copy-on-write isolation: later writes never reached a clone.
        for (copy, at_clone) in &clones {
            check_against(copy, at_clone);
        }
    }

    /// A write after a clone copies only the segment it lands in.
    #[test]
    fn writes_after_a_clone_copy_one_segment(size in 0usize..4, pick in 0usize..10_000) {
        let rows = [SEGMENT_LEN - 1, SEGMENT_LEN, SEGMENT_LEN + 1, 3 * SEGMENT_LEN + 7][size];
        let (original, _) = filled(rows);
        let segments = original.blocks().segment_count();
        let partial_tail = usize::from(!rows.is_multiple_of(SEGMENT_LEN));

        let mut pushed = original.clone();
        pushed.push_block(block(rows, 0, 0, 50)).unwrap();
        prop_assert_eq!(
            pushed.blocks().shared_segment_count(original.blocks()),
            segments - partial_tail
        );
        prop_assert_eq!(pushed.certain().shared_segment_count(original.certain()), segments);

        let mut updated = original.clone();
        updated.set_block_masses(pick % rows, &[0.25, 0.75]).unwrap();
        prop_assert_eq!(
            updated.blocks().shared_segment_count(original.blocks()),
            segments - 1
        );
        // A rejected update copies nothing.
        let mut rejected = original.clone();
        prop_assert!(rejected.set_block_masses(pick % rows, &[0.5, 0.6]).is_err());
        prop_assert_eq!(rejected.blocks().shared_segment_count(original.blocks()), segments);
    }

    /// The wire format is the flat encoding: `schema`, `certain`, `blocks`
    /// as plain sequences, byte for byte, and it round-trips.
    #[test]
    fn serialization_is_byte_identical_to_the_flat_encoding(size in 0usize..4) {
        let rows = [SEGMENT_LEN - 1, SEGMENT_LEN, SEGMENT_LEN + 1, 3 * SEGMENT_LEN + 7][size];
        let (db, flat) = filled(rows);
        let legacy = serde_json::Value::Object(vec![
            ("schema".into(), serde_json::to_value(db.schema())),
            ("certain".into(), serde_json::to_value(&flat.certain)),
            ("blocks".into(), serde_json::to_value(&flat.blocks)),
        ]);
        let text = serde_json::to_string(&db).unwrap();
        prop_assert_eq!(&text, &serde_json::to_string(&legacy).unwrap());
        let back: ProbDb = serde_json::from_str(&text).unwrap();
        check_against(&back, &flat);
    }
}
