//! One module per reproduced table / figure (see the README's
//! "Reproducing the paper's experiments").
//!
//! Every experiment takes [`ExpOptions`] and returns a [`crate::Report`].
//! By default parameters are scaled down so the whole suite finishes in
//! minutes on a laptop; `full = true` restores the paper-scale parameters
//! (100k training tuples, support 0.001, 3 instances × 3 splits), which
//! take CPU-hours. `repro --json` records the command line, and so the
//! scale, that produced each report.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod joins;
pub mod learn;
pub mod queries;
pub mod table1;
pub mod table2;

use crate::framework::CellSpec;
use mrsl_bayesnet::TopologySpec;
use serde::{Deserialize, Serialize};

/// Options shared by all experiments.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExpOptions {
    /// Use paper-scale parameters (slow) instead of the scaled defaults.
    pub full: bool,
    /// Master seed for the whole experiment.
    pub seed: u64,
    /// Network instances averaged per topology (paper: 3).
    pub instances: u64,
    /// Train/test splits averaged per instance (paper: 3).
    pub splits: u64,
    /// Worker threads for the cell grid (0 = one per core). Timing
    /// experiments ignore this and run sequentially.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            full: false,
            seed: 42,
            instances: 2,
            splits: 2,
            threads: 0,
        }
    }
}

impl ExpOptions {
    /// Instances × splits for the current scale (paper protocol when full).
    pub fn replicates(&self) -> (u64, u64) {
        if self.full {
            (3, 3)
        } else {
            (self.instances, self.splits)
        }
    }
}

/// Expands a topology list into the instance × split grid of cells,
/// applying `tweak` to each spec.
pub(crate) fn grid<F: Fn(&mut CellSpec)>(
    topologies: &[TopologySpec],
    opts: &ExpOptions,
    train_size: usize,
    test_size: usize,
    tweak: F,
) -> Vec<CellSpec> {
    let (instances, splits) = opts.replicates();
    let mut cells = Vec::new();
    for topology in topologies {
        for instance in 0..instances {
            for split in 0..splits {
                let mut spec = CellSpec::new(topology.clone(), train_size, test_size);
                spec.instance = instance;
                spec.split = split;
                spec.seed = opts.seed;
                tweak(&mut spec);
                cells.push(spec);
            }
        }
    }
    cells
}

/// Mean of an iterator of f64 (0.0 when empty).
pub(crate) fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The ten "4–6 attribute" networks of the Fig. 4 learning experiments
/// (§VI-B: 4–6 attributes, cardinality 2–8, domain size 16–262,144).
pub(crate) fn fig4_networks() -> Vec<TopologySpec> {
    [
        "BN1", "BN8", "BN9", "BN10", "BN11", "BN12", "BN13", "BN14", "BN15", "BN16",
    ]
    .iter()
    .map(|n| {
        mrsl_bayesnet::catalog::by_name(n)
            .expect("catalog name")
            .topology
    })
    .collect()
}

/// The fourteen networks of Table II.
pub(crate) fn table2_networks() -> Vec<TopologySpec> {
    [
        "BN1", "BN2", "BN3", "BN4", "BN5", "BN6", "BN7", "BN8", "BN9", "BN10", "BN11", "BN12",
        "BN17", "BN18",
    ]
    .iter()
    .map(|n| {
        mrsl_bayesnet::catalog::by_name(n)
            .expect("catalog name")
            .topology
    })
    .collect()
}

/// A small representative subset used by the scaled-down accuracy sweeps
/// (Figs. 5 and 6) to keep default runtimes in minutes; `--full` uses the
/// Table II set.
pub(crate) fn sweep_networks(opts: &ExpOptions) -> Vec<TopologySpec> {
    if opts.full {
        table2_networks()
    } else {
        ["BN1", "BN4", "BN8", "BN10", "BN13", "BN17"]
            .iter()
            .map(|n| {
                mrsl_bayesnet::catalog::by_name(n)
                    .expect("catalog name")
                    .topology
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_instances_and_splits() {
        let nets = vec![mrsl_bayesnet::builders::chain("c", &[2, 2])];
        let opts = ExpOptions {
            instances: 2,
            splits: 3,
            ..ExpOptions::default()
        };
        let cells = grid(&nets, &opts, 100, 10, |s| s.support = 0.5);
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.support == 0.5));
        assert_eq!(cells.iter().filter(|c| c.instance == 1).count(), 3);
    }

    #[test]
    fn full_scale_uses_paper_replicates() {
        let opts = ExpOptions {
            full: true,
            instances: 1,
            splits: 1,
            ..ExpOptions::default()
        };
        assert_eq!(opts.replicates(), (3, 3));
    }

    #[test]
    fn network_sets_have_paper_sizes() {
        assert_eq!(fig4_networks().len(), 10);
        assert_eq!(table2_networks().len(), 14);
        assert_eq!(sweep_networks(&ExpOptions::default()).len(), 6);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(std::iter::empty()), 0.0);
        assert!((mean([1.0, 2.0, 3.0].into_iter()) - 2.0).abs() < 1e-12);
    }
}
