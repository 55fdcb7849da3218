//! Seeded RNG construction and deterministic seed derivation.
//!
//! Every stochastic component in the workspace (CPT instantiation, forward
//! sampling, train/test splitting, missing-value injection, Gibbs sampling)
//! takes an explicit `u64` seed. Sub-components derive child seeds with
//! [`derive_seed`] so that e.g. instance 2 of network 7 always sees the same
//! randomness regardless of which other experiments ran before it.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a [`StdRng`] from a 64-bit seed.
///
/// The workspace's `StdRng` is the vendored `rand` shim's xoshiro256**,
/// seeded through SplitMix64 (not upstream's ChaCha12, and not
/// stream-compatible with it). Its stream is stable across platforms and
/// releases of this workspace, which the reproducibility guarantees rely
/// on.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream of labels.
///
/// Uses the SplitMix64 finalizer, which is a bijective avalanche mix — child
/// seeds for different labels are decorrelated even when labels are small
/// consecutive integers.
///
/// ```
/// use mrsl_util::derive_seed;
/// let a = derive_seed(42, &[1, 0]);
/// let b = derive_seed(42, &[1, 1]);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, &[1, 0]));
/// ```
pub fn derive_seed(parent: u64, labels: &[u64]) -> u64 {
    let mut state = parent ^ 0x9e37_79b9_7f4a_7c15;
    for &label in labels {
        state = splitmix64(
            state
                .wrapping_add(label)
                .wrapping_add(0x9e37_79b9_7f4a_7c15),
        );
    }
    splitmix64(state)
}

/// SplitMix64 finalizer (Steele, Lea, Flood 2014).
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(8);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_seed_depends_on_every_label() {
        let base = derive_seed(1, &[2, 3, 4]);
        assert_ne!(base, derive_seed(1, &[2, 3, 5]));
        assert_ne!(base, derive_seed(1, &[2, 4, 4]));
        assert_ne!(base, derive_seed(0, &[2, 3, 4]));
        assert_ne!(base, derive_seed(1, &[2, 3]));
    }

    #[test]
    fn derive_seed_label_order_matters() {
        assert_ne!(derive_seed(9, &[1, 2]), derive_seed(9, &[2, 1]));
    }

    #[test]
    fn derive_seed_avalanches_consecutive_labels() {
        // Child seeds of consecutive labels should differ in ~half the bits.
        let a = derive_seed(0, &[100]);
        let b = derive_seed(0, &[101]);
        let differing = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "only {differing} bits differ"
        );
    }
}
