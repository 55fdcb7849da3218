//! Golden answer digests: "every answer bit-identical to the parent
//! commit" as a committed check.
//!
//! The other suites compare two paths of one build (VM against tape, warm
//! against fresh, served against direct), so a change that moves both
//! sides together passes them. This file hashes the answer bits
//! ([`f64::to_bits`]) of a fixed read mix into committed digests, one per
//! `(query, statistic, step)` line:
//!
//! 1. a read mix of joins, an aliased self-join and dissociable chains
//!    over [`mrsl_bench::synthetic_join_catalog`] and
//!    [`mrsl_bench::synthetic_chain_catalog`], each read by a fresh
//!    engine and twice through one shared plan cache (cold, then warm);
//! 2. a fixed history of block appends, certain pushes, a mass update, a
//!    key-straddling push and a read of an older generation, with fresh
//!    and warm reads after every step.
//!
//! A change that alters answers on purpose replaces the tables below with
//! the ones a failing run prints, and says why in `CHANGES.md`.
//!
//! The digests pin x86-64 Linux: the answers go through the platform's
//! `powf`, `ln` and `exp`, whose last bits differ between C libraries and
//! targets, so other platforms skip this file.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use mrsl_repro::probdb::{
    Alternative, Block, Catalog, CatalogEngine, PlanCache, Predicate, Query, QueryAnswer,
    QueryEngineConfig, Statistic,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, ValueId};
use std::sync::Arc;

/// Small sample budgets keep the sampled verdicts quick in debug builds;
/// the default bracket tolerance lets wide chain brackets refine.
fn config() -> QueryEngineConfig {
    QueryEngineConfig {
        mc_samples: 256,
        ..QueryEngineConfig::default()
    }
}

const STATS: [Statistic; 3] = [
    Statistic::Probability,
    Statistic::ExpectedCount,
    Statistic::ProbabilityBounds,
];

/// FNV-1a over 64-bit words: fixed across toolchains, unlike std's
/// `DefaultHasher`.
fn fnv(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// An answer's float payload as raw bits.
fn answer_bits(answer: QueryAnswer) -> Vec<u64> {
    let floats: Vec<f64> = match answer {
        QueryAnswer::Probability { p, std_error } => std::iter::once(p).chain(std_error).collect(),
        QueryAnswer::Count { mean, std_error } => std::iter::once(mean).chain(std_error).collect(),
        QueryAnswer::Bounds(b) => [b.lower, b.upper]
            .into_iter()
            .chain(b.estimate)
            .chain(b.std_error)
            .collect(),
        other => panic!("unexpected answer shape: {other:?}"),
    };
    floats.into_iter().map(f64::to_bits).collect()
}

/// One digest line: its label and the hash of the fresh engine's answer
/// bits followed by those read through the shared cache.
struct Line {
    label: String,
    digest: u64,
}

/// Reads every query and statistic of `catalog` with a fresh engine and
/// `rounds` times through `cache`, one line per `(query, statistic)`.
fn read_mix(
    catalog: &Catalog,
    cache: &Arc<PlanCache>,
    queries: &[(&str, Query)],
    rounds: usize,
    step: &str,
    out: &mut Vec<Line>,
) {
    let fresh = CatalogEngine::with_config(catalog, config());
    let warm = CatalogEngine::with_plan_cache(catalog, config(), cache.clone());
    for (name, q) in queries {
        for stat in STATS {
            let mut bits = answer_bits(fresh.evaluate(q, stat).unwrap().0);
            for _ in 0..rounds {
                bits.extend(answer_bits(warm.evaluate(q, stat).unwrap().0));
            }
            out.push(Line {
                label: format!("({name}, {stat:?}, {step})"),
                digest: fnv(&bits),
            });
        }
    }
}

/// Compares the computed lines with the committed digests; on a mismatch
/// names the first differing line and prints the whole computed table.
fn check(lines: &[Line], want: &[u64]) {
    let got: Vec<u64> = lines.iter().map(|l| l.digest).collect();
    if got == want {
        return;
    }
    let table: Vec<String> = lines
        .iter()
        .map(|l| format!("{:#018x}, // {}", l.digest, l.label))
        .collect();
    let first = lines
        .iter()
        .zip(want.iter().map(Some).chain(std::iter::repeat(None)))
        .position(|(l, w)| w != Some(&l.digest));
    match first {
        Some(i) => panic!(
            "answer digest of {} differs: {:#018x}, committed {:?}\ncomputed table:\n{}",
            lines[i].label,
            lines[i].digest,
            want.get(i).map(|w| format!("{w:#018x}")),
            table.join("\n")
        ),
        None => panic!(
            "{} committed digests, {} computed\ncomputed table:\n{}",
            want.len(),
            got.len(),
            table.join("\n")
        ),
    }
}

fn sensors_join(sensors: Predicate, readings: Predicate) -> Query {
    Query::scan("sensors").filter(sensors).join_on(
        Query::scan("readings").filter(readings),
        [(AttrId(0), AttrId(0))],
    )
}

fn in_set(attr: u16, values: &[u16]) -> Predicate {
    Predicate::is_in(AttrId(attr), values.iter().map(|&v| ValueId(v)))
}

/// `sensors(station, kind, calib) ⋈ readings(station, level, flag)` on
/// the station: the benchmark join, two selections narrow enough to keep
/// the probability well inside (0, 1), and an aliased self-join of
/// `sensors`.
fn join_queries() -> Vec<(&'static str, Query)> {
    let stations = |lo: u16| in_set(0, &[lo, lo + 1, lo + 2, lo + 3]);
    let eq = |attr: u16, v: u16| Predicate::eq(AttrId(attr), ValueId(v));
    let paired = stations(0).and(eq(1, 1)).and(in_set(2, &[0, 1]));
    vec![
        ("join", mrsl_bench::join_query()),
        (
            "join-narrow",
            sensors_join(
                stations(0).and(eq(1, 1)).and(eq(2, 2)),
                stations(0).and(eq(1, 3)).and(eq(2, 0)),
            ),
        ),
        (
            "join-or",
            sensors_join(
                stations(4).and(eq(1, 0).or(eq(2, 3))),
                stations(4).and(eq(1, 1)).and(eq(2, 1)),
            ),
        ),
        (
            "self-join",
            Query::scan_as("sensors", "a")
                .filter(paired.clone())
                .join_on(
                    Query::scan_as("sensors", "b").filter(paired),
                    [(AttrId(0), AttrId(0))],
                ),
        ),
    ]
}

/// The chain `R(x), S(x,y), T(y)` (unsafe, dissociable), the same chain
/// over a few `x` values, and its safe two-term prefix.
fn chain_queries() -> Vec<(&'static str, Query)> {
    let ok2 = Predicate::eq(AttrId(1), ValueId(1));
    let ok3 = Predicate::eq(AttrId(2), ValueId(1));
    let low_x = Predicate::range(AttrId(0), ValueId(0), ValueId(2));
    vec![
        ("chain", mrsl_bench::chain_query()),
        (
            "chain-low-x",
            Query::scan("r")
                .filter(ok2.clone().and(low_x.clone()))
                .join_on(
                    Query::scan("s").filter(ok3.clone()),
                    [(AttrId(0), AttrId(0))],
                )
                .join_on_rel(
                    "s",
                    Query::scan("t").filter(ok2.clone()),
                    [(AttrId(1), AttrId(0))],
                ),
        ),
        (
            "chain-prefix",
            Query::scan("r")
                .filter(ok2.and(low_x))
                .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))]),
        ),
    ]
}

/// Group 1: the read mix, fresh and twice through one cache.
#[test]
fn read_mix_answers_match_their_digests() {
    let cache = Arc::new(PlanCache::new());
    let mut lines = Vec::new();
    let joins = mrsl_bench::synthetic_join_catalog(64, 20, 1_200, 3, 11);
    read_mix(&joins, &cache, &join_queries(), 2, "base", &mut lines);
    let chains = mrsl_bench::synthetic_chain_catalog(24, 60, 5);
    read_mix(&chains, &cache, &chain_queries(), 2, "base", &mut lines);
    check(&lines, &READ_MIX);
}

fn alt(values: Vec<u16>, prob: f64) -> Alternative {
    Alternative {
        tuple: CompleteTuple::from_values(values),
        prob,
    }
}

/// One write of the generation history.
#[derive(Debug)]
enum Write {
    /// `n` key-unique blocks pushed to `sensors`.
    Blocks(usize),
    /// `n` certain rows pushed to `readings`.
    Certain(usize),
    /// New masses for one `sensors` block.
    Masses,
    /// A `sensors` block whose alternatives sit at two stations.
    Straddle,
    /// No write: read the generation `back` steps before the newest.
    Old(usize),
}

fn write(catalog: &mut Catalog, w: &Write, step: usize) {
    match *w {
        Write::Blocks(n) => {
            let db = catalog.get_mut("sensors").unwrap();
            for i in 0..n {
                let key = 100_000 + step * 1_000 + i;
                let station = ((step * 3 + i * 5) % 8) as u16;
                let p = ((step + i) % 9 + 1) as f64 / 10.0;
                let alts = vec![
                    alt(vec![station, (i % 4) as u16, 1], p),
                    alt(vec![station, ((i + 1) % 4) as u16, 2], 1.0 - p),
                ];
                db.push_block(Block::new(key, alts).unwrap()).unwrap();
            }
        }
        Write::Certain(n) => {
            let db = catalog.get_mut("readings").unwrap();
            for i in 0..n {
                let values = vec![((i * 3 + step) % 64) as u16, (i % 4) as u16, (i % 3) as u16];
                db.push_certain(CompleteTuple::from_values(values)).unwrap();
            }
        }
        Write::Masses => catalog
            .get_mut("sensors")
            .unwrap()
            .set_block_masses(17, &[0.25, 0.5, 0.25])
            .unwrap(),
        Write::Straddle => {
            let alts = vec![alt(vec![3, 0, 0], 0.5), alt(vec![4, 1, 0], 0.5)];
            catalog
                .get_mut("sensors")
                .unwrap()
                .push_block(Block::new(999_999, alts).unwrap())
                .unwrap();
        }
        Write::Old(_) => unreachable!("reads only"),
    }
}

/// Group 2: a generation history read fresh and through one cache after
/// every step.
#[test]
fn generation_history_answers_match_their_digests() {
    let history = [
        Write::Blocks(1),
        Write::Certain(3),
        Write::Blocks(40),
        Write::Masses,
        Write::Certain(300),
        Write::Blocks(1),
        Write::Old(3),
        Write::Straddle,
        Write::Old(1),
        Write::Blocks(2),
    ];
    let cache = Arc::new(PlanCache::new());
    let queries = join_queries();
    let mut lines = Vec::new();
    let mut generations = vec![mrsl_bench::synthetic_join_catalog(64, 20, 600, 3, 3)];
    read_mix(&generations[0], &cache, &queries, 1, "0", &mut lines);
    for (i, w) in history.iter().enumerate() {
        let step = format!("{} {w:?}", i + 1);
        if let Write::Old(back) = *w {
            let old = &generations[generations.len() - 1 - back];
            read_mix(old, &cache, &queries, 1, &step, &mut lines);
            continue;
        }
        let mut next = generations.last().unwrap().clone();
        write(&mut next, w, i);
        read_mix(&next, &cache, &queries, 1, &step, &mut lines);
        generations.push(next);
    }
    check(&lines, &HISTORY);
}

/// Group 1 digests, `(query, statistic)` in [`join_queries`] then
/// [`chain_queries`] order, statistics in [`STATS`] order.
const READ_MIX: [u64; 21] = [
    0x439bb40fbb1a9658, // (join, Probability, base)
    0xf027be9a692924ec, // (join, ExpectedCount, base)
    0x73d879df6e652b05, // (join, ProbabilityBounds, base)
    0x041af58f8bf8527e, // (join-narrow, Probability, base)
    0x5c022e7f8d7d271c, // (join-narrow, ExpectedCount, base)
    0x003ff860e9066ea9, // (join-narrow, ProbabilityBounds, base)
    0x439bb40fbb1a9658, // (join-or, Probability, base)
    0xce479da06084465f, // (join-or, ExpectedCount, base)
    0x73d879df6e652b05, // (join-or, ProbabilityBounds, base)
    0x0e40726439010678, // (self-join, Probability, base)
    0xd08d3cb224581c97, // (self-join, ExpectedCount, base)
    0xd6fe4f36fde9f991, // (self-join, ProbabilityBounds, base)
    0x0e40726439010678, // (chain, Probability, base)
    0x977beb51931bc850, // (chain, ExpectedCount, base)
    0xd1bf5eab5a208de9, // (chain, ProbabilityBounds, base)
    0x59be1c2158087e09, // (chain-low-x, Probability, base)
    0x019b52bc50d4ac6b, // (chain-low-x, ExpectedCount, base)
    0x3fbd53ba0494029c, // (chain-low-x, ProbabilityBounds, base)
    0x2aabd8a0d8581b21, // (chain-prefix, Probability, base)
    0x9131371649408408, // (chain-prefix, ExpectedCount, base)
    0x6098e0c3ff05b795, // (chain-prefix, ProbabilityBounds, base)
];

/// Group 2 digests: the base generation, then one block of lines per step.
const HISTORY: [u64; 132] = [
    0x2be2cbea19a827c5, // (join, Probability, 0)
    0x6352c539d9328df5, // (join, ExpectedCount, 0)
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 0)
    0x871f1bc92f4332fd, // (join-narrow, Probability, 0)
    0xab42725cfe952abd, // (join-narrow, ExpectedCount, 0)
    0xe2b0561a464bf5f5, // (join-narrow, ProbabilityBounds, 0)
    0xa086783cc3808f85, // (join-or, Probability, 0)
    0x0d3495b5b6843a55, // (join-or, ExpectedCount, 0)
    0x2bcab6e619581565, // (join-or, ProbabilityBounds, 0)
    0x9e86cbb17064e5c5, // (self-join, Probability, 0)
    0xae08acf3fcc3de11, // (self-join, ExpectedCount, 0)
    0x03146c05920f7bf5, // (self-join, ProbabilityBounds, 0)
    0x2be2cbea19a827c5, // (join, Probability, 1 Blocks(1))
    0x248087e7b35cb5e5, // (join, ExpectedCount, 1 Blocks(1))
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 1 Blocks(1))
    0xc4e5b605aa757289, // (join-narrow, Probability, 1 Blocks(1))
    0x4ed3294d33707a65, // (join-narrow, ExpectedCount, 1 Blocks(1))
    0xd4363e018e83125d, // (join-narrow, ProbabilityBounds, 1 Blocks(1))
    0xa086783cc3808f85, // (join-or, Probability, 1 Blocks(1))
    0x0d3495b5b6843a55, // (join-or, ExpectedCount, 1 Blocks(1))
    0x2bcab6e619581565, // (join-or, ProbabilityBounds, 1 Blocks(1))
    0xa6f023119b7b1ac9, // (self-join, Probability, 1 Blocks(1))
    0xbef4f7c51d2d2a61, // (self-join, ExpectedCount, 1 Blocks(1))
    0x5d96855565ef7c25, // (self-join, ProbabilityBounds, 1 Blocks(1))
    0x2be2cbea19a827c5, // (join, Probability, 2 Certain(3))
    0xf2dc437e439b2f85, // (join, ExpectedCount, 2 Certain(3))
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 2 Certain(3))
    0xc4e5b605aa757289, // (join-narrow, Probability, 2 Certain(3))
    0x4ed3294d33707a65, // (join-narrow, ExpectedCount, 2 Certain(3))
    0xd4363e018e83125d, // (join-narrow, ProbabilityBounds, 2 Certain(3))
    0x2be2cbea19a827c5, // (join-or, Probability, 2 Certain(3))
    0x135fe3c158ca16a9, // (join-or, ExpectedCount, 2 Certain(3))
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 2 Certain(3))
    0xa6f023119b7b1ac9, // (self-join, Probability, 2 Certain(3))
    0xbef4f7c51d2d2a61, // (self-join, ExpectedCount, 2 Certain(3))
    0x5d96855565ef7c25, // (self-join, ProbabilityBounds, 2 Certain(3))
    0x2be2cbea19a827c5, // (join, Probability, 3 Blocks(40))
    0x3e6802ed9366ca65, // (join, ExpectedCount, 3 Blocks(40))
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 3 Blocks(40))
    0xa92bc1813e07eacd, // (join-narrow, Probability, 3 Blocks(40))
    0x1f429f924a5fca25, // (join-narrow, ExpectedCount, 3 Blocks(40))
    0xcf250ce1f1434935, // (join-narrow, ProbabilityBounds, 3 Blocks(40))
    0x2be2cbea19a827c5, // (join-or, Probability, 3 Blocks(40))
    0x5a3dcd295444b095, // (join-or, ExpectedCount, 3 Blocks(40))
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 3 Blocks(40))
    0xc07d1cd7859ecba9, // (self-join, Probability, 3 Blocks(40))
    0xe365ef5272cb6d95, // (self-join, ExpectedCount, 3 Blocks(40))
    0x57c08b0b8cb77f9d, // (self-join, ProbabilityBounds, 3 Blocks(40))
    0x2be2cbea19a827c5, // (join, Probability, 4 Masses)
    0x0b8d3dd34a68cb05, // (join, ExpectedCount, 4 Masses)
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 4 Masses)
    0xa92bc1813e07eacd, // (join-narrow, Probability, 4 Masses)
    0x1f429f924a5fca25, // (join-narrow, ExpectedCount, 4 Masses)
    0xcf250ce1f1434935, // (join-narrow, ProbabilityBounds, 4 Masses)
    0x2be2cbea19a827c5, // (join-or, Probability, 4 Masses)
    0x5a3dcd295444b095, // (join-or, ExpectedCount, 4 Masses)
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 4 Masses)
    0xc07d1cd7859ecba9, // (self-join, Probability, 4 Masses)
    0xe365ef5272cb6d95, // (self-join, ExpectedCount, 4 Masses)
    0x57c08b0b8cb77f9d, // (self-join, ProbabilityBounds, 4 Masses)
    0x2be2cbea19a827c5, // (join, Probability, 5 Certain(300))
    0xff1cb21aca5974e9, // (join, ExpectedCount, 5 Certain(300))
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 5 Certain(300))
    0x0ea03e28e75e86c1, // (join-narrow, Probability, 5 Certain(300))
    0x463958538cbc5525, // (join-narrow, ExpectedCount, 5 Certain(300))
    0x0fb6dbb9075b3f6d, // (join-narrow, ProbabilityBounds, 5 Certain(300))
    0x2be2cbea19a827c5, // (join-or, Probability, 5 Certain(300))
    0x2bb85687c84c7a71, // (join-or, ExpectedCount, 5 Certain(300))
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 5 Certain(300))
    0xc07d1cd7859ecba9, // (self-join, Probability, 5 Certain(300))
    0xe365ef5272cb6d95, // (self-join, ExpectedCount, 5 Certain(300))
    0x57c08b0b8cb77f9d, // (self-join, ProbabilityBounds, 5 Certain(300))
    0x2be2cbea19a827c5, // (join, Probability, 6 Blocks(1))
    0x73cb0844fb061e0d, // (join, ExpectedCount, 6 Blocks(1))
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 6 Blocks(1))
    0x0ea03e28e75e86c1, // (join-narrow, Probability, 6 Blocks(1))
    0x463958538cbc5525, // (join-narrow, ExpectedCount, 6 Blocks(1))
    0x0fb6dbb9075b3f6d, // (join-narrow, ProbabilityBounds, 6 Blocks(1))
    0x2be2cbea19a827c5, // (join-or, Probability, 6 Blocks(1))
    0xdfd63bdaaf578575, // (join-or, ExpectedCount, 6 Blocks(1))
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 6 Blocks(1))
    0xbcb99a05911bb965, // (self-join, Probability, 6 Blocks(1))
    0xde65fb8f13ae9b69, // (self-join, ExpectedCount, 6 Blocks(1))
    0x57c08b0b8cb77f9d, // (self-join, ProbabilityBounds, 6 Blocks(1))
    0x2be2cbea19a827c5, // (join, Probability, 7 Old(3))
    0x3e6802ed9366ca65, // (join, ExpectedCount, 7 Old(3))
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 7 Old(3))
    0xa92bc1813e07eacd, // (join-narrow, Probability, 7 Old(3))
    0x1f429f924a5fca25, // (join-narrow, ExpectedCount, 7 Old(3))
    0xcf250ce1f1434935, // (join-narrow, ProbabilityBounds, 7 Old(3))
    0x2be2cbea19a827c5, // (join-or, Probability, 7 Old(3))
    0x5a3dcd295444b095, // (join-or, ExpectedCount, 7 Old(3))
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 7 Old(3))
    0xc07d1cd7859ecba9, // (self-join, Probability, 7 Old(3))
    0xe365ef5272cb6d95, // (self-join, ExpectedCount, 7 Old(3))
    0x57c08b0b8cb77f9d, // (self-join, ProbabilityBounds, 7 Old(3))
    0xbcb99a05911bb965, // (join, Probability, 8 Straddle)
    0xaf3c743a008a12dd, // (join, ExpectedCount, 8 Straddle)
    0xb0a4356211f048e5, // (join, ProbabilityBounds, 8 Straddle)
    0x0ea03e28e75e86c1, // (join-narrow, Probability, 8 Straddle)
    0x463958538cbc5525, // (join-narrow, ExpectedCount, 8 Straddle)
    0x0fb6dbb9075b3f6d, // (join-narrow, ProbabilityBounds, 8 Straddle)
    0x2be2cbea19a827c5, // (join-or, Probability, 8 Straddle)
    0xdfd63bdaaf578575, // (join-or, ExpectedCount, 8 Straddle)
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 8 Straddle)
    0xc07d1cd7859ecba9, // (self-join, Probability, 8 Straddle)
    0x822aca0556cecf3d, // (self-join, ExpectedCount, 8 Straddle)
    0x57c08b0b8cb77f9d, // (self-join, ProbabilityBounds, 8 Straddle)
    0x2be2cbea19a827c5, // (join, Probability, 9 Old(1))
    0x73cb0844fb061e0d, // (join, ExpectedCount, 9 Old(1))
    0xd137d9e6997fe665, // (join, ProbabilityBounds, 9 Old(1))
    0x0ea03e28e75e86c1, // (join-narrow, Probability, 9 Old(1))
    0x463958538cbc5525, // (join-narrow, ExpectedCount, 9 Old(1))
    0x0fb6dbb9075b3f6d, // (join-narrow, ProbabilityBounds, 9 Old(1))
    0x2be2cbea19a827c5, // (join-or, Probability, 9 Old(1))
    0xdfd63bdaaf578575, // (join-or, ExpectedCount, 9 Old(1))
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 9 Old(1))
    0xbcb99a05911bb965, // (self-join, Probability, 9 Old(1))
    0xde65fb8f13ae9b69, // (self-join, ExpectedCount, 9 Old(1))
    0x57c08b0b8cb77f9d, // (self-join, ProbabilityBounds, 9 Old(1))
    0xbcb99a05911bb965, // (join, Probability, 10 Blocks(2))
    0xbc5375338ab74965, // (join, ExpectedCount, 10 Blocks(2))
    0xb0a4356211f048e5, // (join, ProbabilityBounds, 10 Blocks(2))
    0xd5a105e8f9acccd9, // (join-narrow, Probability, 10 Blocks(2))
    0xdbcaabced0300271, // (join-narrow, ExpectedCount, 10 Blocks(2))
    0x94d8e5ebe11af24d, // (join-narrow, ProbabilityBounds, 10 Blocks(2))
    0x2be2cbea19a827c5, // (join-or, Probability, 10 Blocks(2))
    0xdfd63bdaaf578575, // (join-or, ExpectedCount, 10 Blocks(2))
    0xd137d9e6997fe665, // (join-or, ProbabilityBounds, 10 Blocks(2))
    0xbcb99a05911bb965, // (self-join, Probability, 10 Blocks(2))
    0x1b784f9f218f3a8d, // (self-join, ExpectedCount, 10 Blocks(2))
    0x1b8cf1a3eaca0ff9, // (self-join, ProbabilityBounds, 10 Blocks(2))
];
