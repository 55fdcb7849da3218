//! The 20 Bayesian networks of Table I.
//!
//! The paper publishes, per network, the attribute count, average
//! cardinality, joint domain size and depth, plus shape sketches in Fig. 7
//! (crown-shaped: BN8/9/17/18; line-shaped: BN13–16). The concrete DAGs are
//! not published; we reconstruct them to match Table I exactly on attribute
//! count and domain size, and on depth under the node-count convention (see
//! `TopologySpec::depth`). Cardinality vectors for the irregular networks
//! are chosen to hit the published domain sizes exactly; the resulting
//! average cardinality deviates by ≤ 0.25 for BN1/BN2 (`repro table1`
//! reports the deviation).

use crate::builders::{chain, crown, independent, layered};
use crate::topology::TopologySpec;

/// One row of Table I: the topology plus the figures the paper reports.
#[derive(Debug, Clone)]
pub struct PaperNetwork {
    /// The reconstructed topology.
    pub topology: TopologySpec,
    /// "avg card" as printed in Table I.
    pub paper_avg_card: f64,
    /// "dom. size" as printed in Table I.
    pub paper_domain_size: u128,
    /// "depth" as printed in Table I.
    pub paper_depth: usize,
}

impl PaperNetwork {
    fn new(
        topology: TopologySpec,
        paper_avg_card: f64,
        paper_domain_size: u128,
        paper_depth: usize,
    ) -> Self {
        Self {
            topology,
            paper_avg_card,
            paper_domain_size,
            paper_depth,
        }
    }

    /// Network name (`BN1` … `BN20`).
    pub fn name(&self) -> &str {
        self.topology.name()
    }
}

/// Builds all 20 networks in Table I order.
pub fn paper_networks() -> Vec<PaperNetwork> {
    vec![
        // BN1: 4 attrs, avg card 4, dom 300, depth 2.
        PaperNetwork::new(layered("BN1", &[3, 4, 5, 5], &[2, 2]), 4.0, 300, 2),
        // BN2: 5 attrs, avg card 4.4, dom 1400, depth 3.
        PaperNetwork::new(layered("BN2", &[2, 4, 5, 5, 7], &[2, 2, 1]), 4.4, 1400, 3),
        // BN3: 5 attrs, avg card 5.2, dom 2400, depth 3.
        PaperNetwork::new(layered("BN3", &[2, 5, 5, 6, 8], &[2, 2, 1]), 5.2, 2400, 3),
        // BN4: same profile, independent (depth 0).
        PaperNetwork::new(independent("BN4", &[2, 5, 5, 6, 8]), 5.2, 2400, 0),
        // BN5: same profile, depth 2.
        PaperNetwork::new(layered("BN5", &[2, 5, 5, 6, 8], &[3, 2]), 5.2, 2400, 2),
        // BN6: 10 binary attrs, dom 1024, depth 4.
        PaperNetwork::new(layered("BN6", &[2; 10], &[3, 3, 2, 2]), 2.0, 1024, 4),
        // BN7: 10 attrs, avg card 4, dom 518,400, depth 4.
        PaperNetwork::new(
            layered("BN7", &[2, 2, 3, 3, 4, 4, 5, 5, 6, 6], &[3, 3, 2, 2]),
            4.0,
            518_400,
            4,
        ),
        // BN8–BN12, BN17, BN18: crown-shaped, depth 2.
        PaperNetwork::new(crown("BN8", &[2; 4]), 2.0, 16, 2),
        PaperNetwork::new(crown("BN9", &[2; 6]), 2.0, 64, 2),
        PaperNetwork::new(crown("BN10", &[4; 6]), 4.0, 4096, 2),
        PaperNetwork::new(crown("BN11", &[6; 6]), 6.0, 46_656, 2),
        PaperNetwork::new(crown("BN12", &[8; 6]), 8.0, 262_144, 2),
        // BN13–BN16: line-shaped 6-node chains, depth 6.
        PaperNetwork::new(chain("BN13", &[2; 6]), 2.0, 64, 6),
        PaperNetwork::new(chain("BN14", &[4; 6]), 4.0, 4096, 6),
        PaperNetwork::new(chain("BN15", &[6; 6]), 6.0, 46_656, 6),
        PaperNetwork::new(chain("BN16", &[8; 6]), 8.0, 262_144, 6),
        PaperNetwork::new(crown("BN17", &[2; 8]), 2.0, 256, 2),
        PaperNetwork::new(crown("BN18", &[2; 10]), 2.0, 1024, 2),
        // BN19, BN20: 10 binary attrs at depths 3 and 5.
        PaperNetwork::new(layered("BN19", &[2; 10], &[4, 3, 3]), 2.0, 1024, 3),
        PaperNetwork::new(layered("BN20", &[2; 10], &[2, 2, 2, 2, 2]), 2.0, 1024, 5),
    ]
}

/// Looks up one of the paper networks by name (`"BN8"` etc.).
pub fn by_name(name: &str) -> Option<PaperNetwork> {
    paper_networks().into_iter().find(|n| n.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_networks_in_order() {
        let nets = paper_networks();
        assert_eq!(nets.len(), 20);
        for (i, net) in nets.iter().enumerate() {
            assert_eq!(net.name(), format!("BN{}", i + 1));
        }
    }

    #[test]
    fn domain_sizes_match_table_1_exactly() {
        for net in paper_networks() {
            assert_eq!(
                net.topology.domain_size(),
                net.paper_domain_size,
                "{} domain size",
                net.name()
            );
        }
    }

    #[test]
    fn depths_match_table_1_exactly() {
        for net in paper_networks() {
            assert_eq!(
                net.topology.depth(),
                net.paper_depth,
                "{} depth",
                net.name()
            );
        }
    }

    #[test]
    fn attr_counts_match_table_1() {
        let expected = [
            4, 5, 5, 5, 5, 10, 10, 4, 6, 6, 6, 6, 6, 6, 6, 6, 8, 10, 10, 10,
        ];
        for (net, &exp) in paper_networks().iter().zip(&expected) {
            assert_eq!(net.topology.num_attrs(), exp, "{}", net.name());
        }
    }

    #[test]
    fn avg_card_close_to_table_1() {
        for net in paper_networks() {
            let dev = (net.topology.avg_cardinality() - net.paper_avg_card).abs();
            assert!(
                dev <= 0.25 + 1e-9,
                "{}: avg card {} vs paper {}",
                net.name(),
                net.topology.avg_cardinality(),
                net.paper_avg_card
            );
        }
    }

    #[test]
    fn crown_networks_are_crowns() {
        for name in ["BN8", "BN9", "BN17", "BN18"] {
            let net = by_name(name).unwrap();
            assert_eq!(net.topology.depth(), 2, "{name}");
            let with_parents = net
                .topology
                .nodes()
                .iter()
                .filter(|n| !n.parents.is_empty())
                .count();
            assert_eq!(with_parents, net.topology.num_attrs() / 2, "{name}");
        }
    }

    #[test]
    fn by_name_roundtrip_and_miss() {
        assert_eq!(by_name("BN13").unwrap().topology.depth(), 6);
        assert!(by_name("BN99").is_none());
    }
}
