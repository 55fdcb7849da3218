//! The column store round-trips rows, against a flat `Vec` reference.
//!
//! `ProbDb` keeps its certain tuples and blocks only in columns and
//! rebuilds rows from them on demand. None of that may be observable:
//! random interleavings of pushes, mass updates and clones across
//! `SEGMENT_LEN` boundaries must read back, move the data version and
//! serialize exactly like the flat vectors of rows they replace, and a
//! write to one copy must never reach another.

use mrsl_repro::probdb::{Alternative, Block, ProbDb, SEGMENT_LEN};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema};
use proptest::prelude::*;
use std::sync::Arc;

/// Leading-attribute cardinality.
const KEYS: u16 = 40;
const LEVELS: u16 = 3;

/// Row counts on both sides of one and of several segment boundaries.
const SIZES: [usize; 4] = [
    SEGMENT_LEN - 1,
    SEGMENT_LEN,
    SEGMENT_LEN + 1,
    3 * SEGMENT_LEN + 7,
];

fn schema() -> Arc<Schema> {
    Schema::builder()
        .attribute("key", (0..KEYS).map(|v| format!("k{v}")))
        .attribute("level", (0..LEVELS).map(|v| format!("l{v}")))
        .build()
        .unwrap()
}

/// The flat reference: the rows a database holds, as plain vectors.
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

/// Sets block `i`'s masses to `p : 1 - p` in both the database and the
/// reference.
fn set_masses(db: &mut ProbDb, flat: &mut Flat, i: usize, p: f64) {
    db.set_block_masses(i, &[p, 1.0 - p]).unwrap();
    let b = &flat.blocks[i];
    let alts = b
        .alternatives()
        .iter()
        .zip([p, 1.0 - p])
        .map(|(a, prob)| Alternative {
            tuple: a.tuple.clone(),
            prob,
        })
        .collect();
    flat.blocks[i] = Block::new(b.key(), alts).unwrap();
}

fn same_block(a: &Block, b: &Block) -> bool {
    a.key() == b.key()
        && a.alternatives().len() == b.alternatives().len()
        && a.alternatives()
            .iter()
            .zip(b.alternatives())
            .all(|(x, y)| x.tuple == y.tuple && x.prob.to_bits() == y.prob.to_bits())
}

/// Row views, block reads and columns all agree with `flat`, down to keys
/// and probability bits.
fn check_against(db: &ProbDb, flat: &Flat) {
    let (certain, blocks) = (db.certain(), db.blocks());
    prop_assert_eq!(certain.len(), flat.certain.len());
    prop_assert_eq!(blocks.len(), flat.blocks.len());
    prop_assert!(certain.eq(flat.certain.iter().cloned()));
    prop_assert!(blocks.zip(&flat.blocks).all(|(a, b)| same_block(&a, b)));
    for (i, b) in flat.blocks.iter().enumerate() {
        prop_assert!(same_block(&db.block(i), b), "block {}", i);
    }
    prop_assert_eq!(
        db.alternative_count(),
        flat.blocks.iter().map(Block::len).sum::<usize>()
    );

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
    let want: Vec<u64> = flat
        .blocks
        .iter()
        .flat_map(|b| b.alternatives().iter().map(|a| a.prob.to_bits()))
        .collect();
    let got: Vec<u64> = cols.alt_probs().iter().map(|p| p.to_bits()).collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(cols.block_count(), flat.blocks.len());
}

/// The flat wire format: `schema`, `certain`, `blocks` as plain
/// sequences of rows.
fn flat_json(db: &ProbDb, flat: &Flat) -> String {
    let legacy = serde_json::Value::Object(vec![
        ("schema".into(), serde_json::to_value(db.schema())),
        ("certain".into(), serde_json::to_value(&flat.certain)),
        ("blocks".into(), serde_json::to_value(&flat.blocks)),
    ]);
    serde_json::to_string(&legacy).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings across segment boundaries read back like flat
    /// vectors and move the data version on every write; every clone keeps
    /// exactly the contents and version it was cloned with.
    #[test]
    fn store_rows_behave_like_flat_vectors(
        size in 0usize..4,
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let (mut db, mut flat) = filled(SIZES[size]);
        check_against(&db, &flat);
        let mut clones: Vec<(ProbDb, Flat)> = Vec::new();
        for op in ops {
            let before = db.version();
            match op {
                Op::Certain(k, l) => {
                    let t = CompleteTuple::from_values(vec![k, l]);
                    db.push_certain(t.clone()).unwrap();
                    flat.certain.push(t);
                    prop_assert!(db.version() > before);
                }
                Op::Block(k, l, w) => {
                    // Mostly the next key in sequence, sometimes a jump.
                    let key = if w % 3 == 0 { usize::from(w) } else { flat.blocks.len() };
                    let b = block(key, k, l, w);
                    db.push_block(b.clone()).unwrap();
                    flat.blocks.push(b);
                    prop_assert!(db.version() > before);
                }
                Op::Masses(pick, w) => {
                    let i = usize::from(pick) % flat.blocks.len();
                    set_masses(&mut db, &mut flat, i, f64::from(w) / 100.0);
                    prop_assert!(db.version() > before);
                }
                Op::Clone => {
                    let copy = db.clone();
                    prop_assert_eq!(copy.version(), db.version());
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

    /// Pushes and mass updates on a clone leave the original's rows and
    /// version as they were; a rejected update leaves the clone as it
    /// was.
    #[test]
    fn writes_to_a_clone_never_reach_the_original(size in 0usize..4, pick in 0usize..10_000) {
        let rows = SIZES[size];
        let (original, flat) = filled(rows);
        let version = original.version();

        let (mut copy, mut copy_flat) = (original.clone(), flat.clone());
        copy.push_block(block(rows, 0, 0, 50)).unwrap();
        copy_flat.blocks.push(block(rows, 0, 0, 50));
        let t = CompleteTuple::from_values(vec![KEYS - 1, 1]);
        copy.push_certain(t.clone()).unwrap();
        copy_flat.certain.push(t);
        set_masses(&mut copy, &mut copy_flat, pick % rows, 0.25);
        check_against(&copy, &copy_flat);

        let copy_version = copy.version();
        prop_assert!(copy.set_block_masses(pick % rows, &[0.5, 0.6]).is_err());
        prop_assert_eq!(copy.version(), copy_version);
        check_against(&copy, &copy_flat);

        check_against(&original, &flat);
        prop_assert_eq!(original.version(), version);
    }

    /// The wire format is the flat encoding: `schema`, `certain`, `blocks`
    /// as plain sequences, byte for byte, after mass updates too, and it
    /// round-trips.
    #[test]
    fn serialization_is_byte_identical_to_the_flat_encoding(
        size in 0usize..4,
        updates in prop::collection::vec((0usize..10_000, 1u16..100), 0..8),
    ) {
        let (mut db, mut flat) = filled(SIZES[size]);
        for (pick, w) in updates {
            let i = pick % flat.blocks.len();
            set_masses(&mut db, &mut flat, i, f64::from(w) / 100.0);
        }
        let text = serde_json::to_string(&db).unwrap();
        prop_assert_eq!(&text, &flat_json(&db, &flat));
        let back: ProbDb = serde_json::from_str(&text).unwrap();
        check_against(&back, &flat);
    }
}
