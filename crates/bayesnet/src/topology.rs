//! Bayesian network topology: a DAG over discrete variables.

use mrsl_relation::{Schema, SchemaBuilder};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One random variable: name, domain cardinality, parent node indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Variable name (doubles as the attribute name of generated data).
    pub name: String,
    /// Domain cardinality (≥ 2 for a meaningful variable).
    pub cardinality: usize,
    /// Indices of parent nodes within the topology.
    pub parents: Vec<usize>,
}

/// Errors detected while validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node references a parent index outside the node list.
    ParentOutOfRange { node: usize, parent: usize },
    /// A node lists the same parent twice.
    DuplicateParent { node: usize, parent: usize },
    /// The parent relation has a directed cycle.
    Cyclic,
    /// A node has cardinality < 2.
    DegenerateCardinality { node: usize },
    /// Two nodes share a name.
    DuplicateName(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ParentOutOfRange { node, parent } => {
                write!(f, "node {node} references out-of-range parent {parent}")
            }
            Self::DuplicateParent { node, parent } => {
                write!(f, "node {node} lists parent {parent} twice")
            }
            Self::Cyclic => write!(f, "parent relation contains a cycle"),
            Self::DegenerateCardinality { node } => {
                write!(f, "node {node} has cardinality < 2")
            }
            Self::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A validated Bayesian network topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologySpec {
    name: String,
    nodes: Vec<NodeSpec>,
    topo_order: Vec<usize>,
}

impl TopologySpec {
    /// Validates and freezes a topology.
    pub fn new(name: impl Into<String>, nodes: Vec<NodeSpec>) -> Result<Self, TopologyError> {
        let n = nodes.len();
        let mut seen_names = std::collections::HashSet::new();
        for (i, node) in nodes.iter().enumerate() {
            if node.cardinality < 2 {
                return Err(TopologyError::DegenerateCardinality { node: i });
            }
            if !seen_names.insert(node.name.clone()) {
                return Err(TopologyError::DuplicateName(node.name.clone()));
            }
            let mut seen = std::collections::HashSet::new();
            for &p in &node.parents {
                if p >= n {
                    return Err(TopologyError::ParentOutOfRange { node: i, parent: p });
                }
                if !seen.insert(p) {
                    return Err(TopologyError::DuplicateParent { node: i, parent: p });
                }
            }
        }
        let topo_order = topo_sort(&nodes).ok_or(TopologyError::Cyclic)?;
        Ok(Self {
            name: name.into(),
            nodes,
            topo_order,
        })
    }

    /// Topology name (e.g. `BN8`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node specs.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of variables ("num. attrs" in Table I).
    pub fn num_attrs(&self) -> usize {
        self.nodes.len()
    }

    /// Average cardinality ("avg card" in Table I).
    pub fn avg_cardinality(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.cardinality as f64).sum::<f64>() / self.nodes.len() as f64
    }

    /// Product of cardinalities ("dom. size" in Table I).
    pub fn domain_size(&self) -> u128 {
        self.nodes.iter().map(|n| n.cardinality as u128).product()
    }

    /// A topological order of the nodes (parents before children).
    pub fn topo_order(&self) -> &[usize] {
        &self.topo_order
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.parents.len()).sum()
    }

    /// Depth: the number of nodes on the longest directed path, with 0 for
    /// an edgeless network.
    ///
    /// This is the only convention consistent with Table I, where
    /// "line-shaped" 6-node chains have depth 6, two-layer crowns have depth
    /// 2, and fully independent attributes have depth 0.
    pub fn depth(&self) -> usize {
        if self.num_edges() == 0 {
            return 0;
        }
        // Longest path in node count via DP over the topological order.
        let mut longest = vec![1usize; self.nodes.len()];
        for &v in &self.topo_order {
            for &p in &self.nodes[v].parents {
                longest[v] = longest[v].max(longest[p] + 1);
            }
        }
        longest.into_iter().max().unwrap_or(0)
    }

    /// Children lists (inverse of the parent relation).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &p in &node.parents {
                ch[p].push(i);
            }
        }
        ch
    }

    /// Builds the relational schema generated data will use: one attribute
    /// per variable (same order), with value labels `v0..v{k-1}`.
    pub fn to_schema(&self) -> Arc<Schema> {
        let mut b = SchemaBuilder::default();
        for node in &self.nodes {
            b = b.attribute(
                node.name.clone(),
                (0..node.cardinality).map(|v| format!("v{v}")),
            );
        }
        b.build()
            .expect("validated topology produces a valid schema")
    }

    /// An ASCII sketch of the DAG: one line per node listing its parents.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{}: {} attrs, avg card {:.1}, dom size {}, depth {}",
            self.name,
            self.num_attrs(),
            self.avg_cardinality(),
            self.domain_size(),
            self.depth()
        );
        for node in &self.nodes {
            let parents: Vec<&str> = node
                .parents
                .iter()
                .map(|&p| self.nodes[p].name.as_str())
                .collect();
            let _ = writeln!(
                out,
                "  {} (card {}){}",
                node.name,
                node.cardinality,
                if parents.is_empty() {
                    String::new()
                } else {
                    format!(" <- {}", parents.join(", "))
                }
            );
        }
        out
    }
}

/// Kahn's algorithm; `None` on a cycle.
fn topo_sort(nodes: &[NodeSpec]) -> Option<Vec<usize>> {
    let n = nodes.len();
    let mut indegree = vec![0usize; n];
    let mut children = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        indegree[i] = node.parents.len();
        for &p in &node.parents {
            children[p].push(i);
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    // Deterministic order: process smallest index first.
    queue.sort_unstable_by(|a, b| b.cmp(a));
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &c in &children[v] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
                queue.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, card: usize, parents: Vec<usize>) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            cardinality: card,
            parents,
        }
    }

    #[test]
    fn builds_valid_chain() {
        let t = TopologySpec::new(
            "chain3",
            vec![
                node("a", 2, vec![]),
                node("b", 3, vec![0]),
                node("c", 2, vec![1]),
            ],
        )
        .unwrap();
        assert_eq!(t.num_attrs(), 3);
        assert_eq!(t.domain_size(), 12);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.topo_order(), &[0, 1, 2]);
    }

    #[test]
    fn depth_zero_for_independent() {
        let t = TopologySpec::new("ind", vec![node("a", 2, vec![]), node("b", 2, vec![])]).unwrap();
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn depth_two_for_single_edge() {
        let t = TopologySpec::new(
            "one-edge",
            vec![node("a", 2, vec![]), node("b", 2, vec![0])],
        )
        .unwrap();
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn rejects_cycle() {
        let r = TopologySpec::new("cyc", vec![node("a", 2, vec![1]), node("b", 2, vec![0])]);
        assert_eq!(r.unwrap_err(), TopologyError::Cyclic);
    }

    #[test]
    fn rejects_self_loop() {
        let r = TopologySpec::new("selfloop", vec![node("a", 2, vec![0])]);
        assert_eq!(r.unwrap_err(), TopologyError::Cyclic);
    }

    #[test]
    fn rejects_bad_parent_index() {
        let r = TopologySpec::new("bad", vec![node("a", 2, vec![5])]);
        assert!(matches!(r, Err(TopologyError::ParentOutOfRange { .. })));
    }

    #[test]
    fn rejects_duplicate_parent() {
        let r = TopologySpec::new("dup", vec![node("a", 2, vec![]), node("b", 2, vec![0, 0])]);
        assert!(matches!(r, Err(TopologyError::DuplicateParent { .. })));
    }

    #[test]
    fn rejects_cardinality_one() {
        let r = TopologySpec::new("deg", vec![node("a", 1, vec![])]);
        assert!(matches!(
            r,
            Err(TopologyError::DegenerateCardinality { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let r = TopologySpec::new("dupname", vec![node("x", 2, vec![]), node("x", 2, vec![])]);
        assert!(matches!(r, Err(TopologyError::DuplicateName(_))));
    }

    #[test]
    fn topo_order_respects_parents() {
        let t = TopologySpec::new(
            "diamond",
            vec![
                node("d", 2, vec![1, 2]), // listed first but depends on 1, 2
                node("b", 2, vec![3]),
                node("c", 2, vec![3]),
                node("a", 2, vec![]),
            ],
        )
        .unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; 4];
            for (ord, &v) in t.topo_order().iter().enumerate() {
                pos[v] = ord;
            }
            pos
        };
        assert!(pos[3] < pos[1] && pos[3] < pos[2]);
        assert!(pos[1] < pos[0] && pos[2] < pos[0]);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn schema_mirrors_topology() {
        let t =
            TopologySpec::new("s", vec![node("age", 3, vec![]), node("inc", 2, vec![0])]).unwrap();
        let s = t.to_schema();
        assert_eq!(s.attr_count(), 2);
        assert_eq!(s.cardinality(mrsl_relation::AttrId(0)), 3);
        assert_eq!(s.attr(mrsl_relation::AttrId(1)).name(), "inc");
    }

    #[test]
    fn describe_mentions_every_node() {
        let t = TopologySpec::new("d", vec![node("x", 2, vec![]), node("y", 2, vec![0])]).unwrap();
        let d = t.describe();
        assert!(d.contains("x") && d.contains("y") && d.contains("<- x"));
    }
}
