//! Possible-world semantics.
//!
//! The semantics of a probabilistic database is a distribution over
//! possible worlds (paper §I-A). Under the disjoint-independent model a
//! world chooses one alternative from each block; its probability is the
//! product of the chosen alternatives' probabilities.

use crate::database::ProbDb;
use mrsl_relation::CompleteTuple;
use rand::Rng;

/// One possible world: the certain tuples plus one choice per block.
#[derive(Debug, Clone)]
pub struct PossibleWorld {
    /// All tuples of the world (certain tuples first, then one per block,
    /// in block order).
    pub tuples: Vec<CompleteTuple>,
    /// The world's probability.
    pub prob: f64,
}

/// Enumerates all possible worlds.
///
/// # Panics
/// Panics when the database has more than `limit` worlds — enumeration is
/// exponential and intended for tests and small examples.
pub fn enumerate_worlds(db: &ProbDb, limit: u128) -> Vec<PossibleWorld> {
    let count = db.world_count();
    assert!(
        count <= limit,
        "database has {count} worlds, exceeding the limit {limit}"
    );
    let mut worlds = vec![PossibleWorld {
        tuples: db.certain().iter().cloned().collect(),
        prob: 1.0,
    }];
    for block in db.blocks() {
        let mut next = Vec::with_capacity(worlds.len() * block.len());
        for world in &worlds {
            for alternative in block.alternatives() {
                let mut tuples = world.tuples.clone();
                tuples.push(alternative.tuple.clone());
                next.push(PossibleWorld {
                    tuples,
                    prob: world.prob * alternative.prob,
                });
            }
        }
        worlds = next;
    }
    worlds
}

/// Chooses an index with probability proportional to `probs`, consuming
/// exactly one uniform draw. Falls back to the last index on floating-point
/// underflow of the running remainder.
///
/// This is the one sampling primitive shared by [`sample_world`] and the
/// compiled Monte-Carlo estimators in [`crate::montecarlo`], so both draw
/// identical choices from identical RNG states.
pub fn choose_weighted<R, I>(probs: I, rng: &mut R) -> usize
where
    R: Rng + ?Sized,
    I: IntoIterator<Item = f64>,
{
    let mut u: f64 = rng.gen::<f64>();
    let mut last = 0;
    for (i, p) in probs.into_iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
        last = i;
    }
    last
}

/// Samples one possible world.
pub fn sample_world<R: Rng + ?Sized>(db: &ProbDb, rng: &mut R) -> PossibleWorld {
    let mut tuples: Vec<_> = db.certain().iter().cloned().collect();
    let mut prob = 1.0;
    for block in db.blocks() {
        let chosen = choose_weighted(block.alternatives().iter().map(|a| a.prob), rng);
        let a = &block.alternatives()[chosen];
        tuples.push(a.tuple.clone());
        prob *= a.prob;
    }
    PossibleWorld { tuples, prob }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Alternative, Block};
    use mrsl_relation::schema::fig1_schema;
    use mrsl_util::seeded_rng;

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    fn small_db() -> ProbDb {
        let mut db = ProbDb::new(fig1_schema());
        db.push_certain(CompleteTuple::from_values(vec![0, 0, 0, 0]))
            .unwrap();
        db.push_block(
            Block::new(
                0,
                vec![alt(vec![1, 0, 0, 0], 0.3), alt(vec![1, 1, 0, 0], 0.7)],
            )
            .unwrap(),
        )
        .unwrap();
        db.push_block(
            Block::new(
                1,
                vec![alt(vec![2, 0, 0, 0], 0.6), alt(vec![2, 0, 1, 1], 0.4)],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let worlds = enumerate_worlds(&small_db(), 1000);
        assert_eq!(worlds.len(), 4);
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Every world carries the certain tuple plus one tuple per block.
        for w in &worlds {
            assert_eq!(w.tuples.len(), 3);
            assert_eq!(w.tuples[0].raw(), &[0, 0, 0, 0]);
        }
    }

    #[test]
    fn world_probability_is_product_of_choices() {
        let worlds = enumerate_worlds(&small_db(), 1000);
        let w = worlds
            .iter()
            .find(|w| w.tuples[1].raw() == [1, 1, 0, 0] && w.tuples[2].raw() == [2, 0, 1, 1])
            .unwrap();
        assert!((w.prob - 0.7 * 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeding the limit")]
    fn enumerate_respects_limit() {
        enumerate_worlds(&small_db(), 3);
    }

    #[test]
    fn sampling_frequency_approaches_world_probability() {
        let db = small_db();
        let mut rng = seeded_rng(5);
        let n = 20_000;
        let mut hits = 0usize;
        for _ in 0..n {
            let w = sample_world(&db, &mut rng);
            if w.tuples[1].raw() == [1, 0, 0, 0] {
                hits += 1;
            }
        }
        let f = hits as f64 / n as f64;
        assert!((f - 0.3).abs() < 0.02, "f = {f}");
    }

    #[test]
    fn empty_db_has_one_empty_world() {
        let db = ProbDb::new(fig1_schema());
        let worlds = enumerate_worlds(&db, 10);
        assert_eq!(worlds.len(), 1);
        assert_eq!(worlds[0].prob, 1.0);
        assert!(worlds[0].tuples.is_empty());
    }
}
