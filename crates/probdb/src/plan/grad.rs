//! The reference recursion: the safe plan and its dissociations as a
//! differentiable tape.
//!
//! Exact evaluation is the dissociation with no copies (Gatterbauer &
//! Suciu's "Dissociation and Propagation"), so one recursion serves both:
//! [`record`] walks the component/covering-root recursion over row maps
//! for an extension set and a bracket [`Mode`] — `(&[], Mode::Upper)` is
//! the exact plan — and [`Tape::value`] is the answer the bytecode VM
//! must reproduce bit for bit. A query is one connected component; each
//! key partition computes `1 - Π_v (1 - p_v)` over its candidate key
//! values, replicating terms it does not bind into every branch (their
//! replication count `d` grows by the branch count); each branch
//! multiplies its subcomponents; and each leaf computes
//! `1 - Π_b (1 - t(mass_b))` over its live blocks, where `t` is
//! [`Mode::mass`] for the term's alias multiplicity `k` and its current
//! `d`.
//!
//! The tape holds one node per leaf, branch product, and key-partition
//! complement, in evaluation order, each with its children and its
//! value. It has no early exits (`p_v == 0` / `none == 0`): those would
//! skip multiplications whose *values* are absorbed by zero but whose
//! *adjoints* are not — a branch with probability 0 still has nonzero
//! `∂P/∂m` through its own masses. Zero-products are exact in floating
//! point (`0.0 * x == 0.0`), so dropping them changes no value.
//!
//! The exact plan is a pure product/complement tree over the
//! block-alternative masses, which makes `P(Q)` differentiable in every
//! alternative mass `m_{b,a}` — the quantity "Learning Tuple
//! Probabilities" (Dylla & Theobald) gradient-descends on to fit labeled
//! query answers. [`Tape::gradient`] walks the tape in reverse,
//! distributing each node's adjoint to its children with prefix/suffix
//! products (never dividing, so zero factors are handled exactly):
//!
//! * product node `v = Π_i c_i`: `∂v/∂c_i = Π_{j≠i} c_j`;
//! * complement node `v = 1 - Π_i (1 - c_i)`: `∂v/∂c_i = Π_{j≠i} (1 - c_j)`;
//! * leaf `v = 1 - Π_b (1 - min(mass_b, 1))`: `∂v/∂mass_b =
//!   Π_{b'≠b} (1 - mass_{b'})` while `mass_b < 1` (zero past the clamp),
//!   and `∂mass_b/∂m_{b,a} = 1` for every live alternative row.
//!
//! Leaves decided by a live certain row have value 1 and zero gradient.

use super::classify::{components, CompiledTerm, Resolved};
use super::dissociate::{alias_multiplicities, covering_root, extended_class_terms, Mode};
use mrsl_util::FxHashMap;

/// `d P(Q) / d m` for every alternative mass of every scanned relation —
/// the output of [`CatalogEngine::probability_with_gradient`](super::CatalogEngine::probability_with_gradient).
#[derive(Debug, Clone)]
pub struct MassGradients {
    /// One entry per scanned relation, in scan order: the relation name
    /// and one partial derivative per alternative row, aligned with
    /// [`ColumnStore::alt_probs`](crate::column::ColumnStore::alt_probs)
    /// (flattened block order).
    pub relations: Vec<(String, Vec<f64>)>,
}

impl MassGradients {
    /// The gradient vector of `relation`, if the query scans it.
    pub fn for_relation(&self, relation: &str) -> Option<&[f64]> {
        self.relations
            .iter()
            .find(|(name, _)| name == relation)
            .map(|(_, g)| g.as_slice())
    }
}

/// Live rows of one term inside the recursion: indices into the certain
/// and alternative column sets.
#[derive(Debug, Clone, Default)]
struct Rows {
    certain: Vec<u32>,
    alts: Vec<u32>,
}

/// One recorded block of a leaf node: its summed live mass, the
/// Bernoulli probability the leaf's side of the bracket gives it, and the
/// live alternative rows the mass sums over.
struct LeafBlock {
    mass: f64,
    p: f64,
    rows: Vec<u32>,
}

enum TapeNode {
    /// A leaf decided by a live certain row: value 1, zero gradient.
    One,
    /// A single-relation leaf: `1 - Π_b (1 - p_b)`.
    Leaf { term: usize, blocks: Vec<LeafBlock> },
    /// `Π_i value(child_i)` — the top-level component product and every
    /// key-value branch.
    Product { children: Vec<usize> },
    /// `1 - Π_i (1 - value(child_i))` — a key partition over its
    /// candidate-value branches.
    Complement { children: Vec<usize> },
}

/// A recorded forward pass: nodes in evaluation order (children before
/// parents), their values, and the root.
#[derive(Default)]
pub(crate) struct Tape {
    nodes: Vec<TapeNode>,
    values: Vec<f64>,
}

impl Tape {
    /// Appends a node, computing its value from its children's.
    fn push(&mut self, node: TapeNode) -> usize {
        let value = match &node {
            TapeNode::One => 1.0,
            TapeNode::Leaf { blocks, .. } => {
                let mut none = 1.0;
                for b in blocks {
                    none *= (1.0 - b.p).max(0.0);
                }
                1.0 - none
            }
            TapeNode::Product { children } => children.iter().map(|&c| self.values[c]).product(),
            TapeNode::Complement { children } => {
                let mut none = 1.0;
                for &c in children {
                    none *= 1.0 - self.values[c];
                }
                1.0 - none
            }
        };
        self.nodes.push(node);
        self.values.push(value);
        self.nodes.len() - 1
    }

    /// The recorded probability: the root, which is the last node.
    pub(crate) fn value(&self) -> f64 {
        *self.values.last().expect("a recorded tape has a root")
    }

    /// `∂P/∂m` per term, aligned with each relation's flattened
    /// alternative rows. Differentiates the exact tape (`record(resolved,
    /// compiled, &[], Mode::Upper)` over an alias-free query), whose leaf
    /// transforms are all the identity.
    pub(crate) fn gradient(&self, compiled: &[CompiledTerm]) -> Vec<Vec<f64>> {
        // Children always precede parents on the tape, so a reverse walk
        // sees every node's full adjoint before distributing it.
        let mut grads: Vec<Vec<f64>> = compiled
            .iter()
            .map(|ct| vec![0.0; ct.db.columns().alt_probs().len()])
            .collect();
        let mut adj = vec![0.0; self.nodes.len()];
        *adj.last_mut().expect("a recorded tape has a root") = 1.0;
        for i in (0..self.nodes.len()).rev() {
            let a = adj[i];
            if a == 0.0 {
                continue;
            }
            match &self.nodes[i] {
                TapeNode::One => {}
                TapeNode::Leaf { term, blocks } => {
                    let factors: Vec<f64> = blocks.iter().map(|b| (1.0 - b.p).max(0.0)).collect();
                    // value = 1 - Π (1 - t_b): ∂value/∂t_b = Π_{b'≠b} (1 - t_{b'}).
                    for (b, d) in blocks.iter().zip(distribute(a, &factors)) {
                        if b.mass < 1.0 {
                            for &r in &b.rows {
                                grads[*term][r as usize] += d;
                            }
                        }
                    }
                }
                TapeNode::Product { children } => {
                    let factors: Vec<f64> = children.iter().map(|&c| self.values[c]).collect();
                    for (&c, d) in children.iter().zip(distribute(a, &factors)) {
                        adj[c] += d;
                    }
                }
                TapeNode::Complement { children } => {
                    let factors: Vec<f64> =
                        children.iter().map(|&c| 1.0 - self.values[c]).collect();
                    for (&c, d) in children.iter().zip(distribute(a, &factors)) {
                        adj[c] += d;
                    }
                }
            }
        }
        grads
    }
}

/// Distributes `adjoint` over `factors`: `out[i] = adjoint * Π_{j≠i}
/// factors[j]`, by prefix/suffix products (no division, so zero factors
/// stay exact).
fn distribute(adjoint: f64, factors: &[f64]) -> Vec<f64> {
    let n = factors.len();
    let mut out = vec![0.0; n];
    let mut pre = 1.0;
    for i in 0..n {
        out[i] = adjoint * pre;
        pre *= factors[i];
    }
    let mut suf = 1.0;
    for i in (0..n).rev() {
        out[i] *= suf;
        suf *= factors[i];
    }
    out
}

/// Records one side of one dissociation: the query with the `ext` class
/// memberships added, evaluated in `mode`. `record(resolved, compiled,
/// &[], Mode::Upper)` is the exact safe plan of a liftable query.
pub(crate) fn record(
    resolved: &Resolved,
    compiled: &[CompiledTerm],
    ext: &[(usize, usize)],
    mode: Mode,
) -> Tape {
    let mut rec = Recorder {
        resolved,
        compiled,
        class_terms: extended_class_terms(resolved, ext),
        alias_k: alias_multiplicities(resolved),
        mode,
        repl: vec![1.0; compiled.len()],
        tape: Tape::default(),
    };
    let live: Vec<Rows> = compiled
        .iter()
        .map(|ct| Rows {
            certain: ct.live_certain.iter_ones().map(|i| i as u32).collect(),
            alts: ct.live_alts.iter_ones().map(|i| i as u32).collect(),
        })
        .collect();
    let rows: Vec<&Rows> = live.iter().collect();
    let all: Vec<usize> = (0..compiled.len()).collect();
    let active: Vec<usize> = (0..resolved.shape.classes.len()).collect();
    // A flattened query is one connected component: its root is the
    // tape's last node.
    rec.component(&all, &active, &rows);
    rec.tape
}

/// The recursion's shape context and its one piece of mutable state, the
/// per-term replication counts.
struct Recorder<'a, 'b> {
    resolved: &'a Resolved<'b>,
    compiled: &'a [CompiledTerm<'b>],
    class_terms: Vec<Vec<usize>>,
    alias_k: Vec<f64>,
    mode: Mode,
    /// Replication count per term: the product of the branch counts of
    /// the enclosing partitions that copy it.
    repl: Vec<f64>,
    tape: Tape,
}

impl Recorder<'_, '_> {
    fn component(&mut self, comp: &[usize], active: &[usize], rows: &[&Rows]) -> usize {
        if comp.len() == 1 {
            return self.leaf(comp[0], rows[comp[0]]);
        }
        let root = covering_root(self.resolved, &self.class_terms, comp, active)
            .expect("admissible dissociations decompose");
        let root_terms = self.resolved.shape.classes[root].terms();
        let (binding, copied): (Vec<usize>, Vec<usize>) =
            comp.iter().partition(|t| root_terms.contains(t));

        // Partition each binding term's live rows by the root-class key.
        let parts: Vec<FxHashMap<u16, Rows>> = binding
            .iter()
            .map(|&t| {
                let (ckey, akey) = self.compiled[t]
                    .class_key(root)
                    .expect("binding term has key");
                let mut map: FxHashMap<u16, Rows> = FxHashMap::default();
                for &r in &rows[t].certain {
                    map.entry(ckey[r as usize]).or_default().certain.push(r);
                }
                for &r in &rows[t].alts {
                    map.entry(akey[r as usize]).or_default().alts.push(r);
                }
                map
            })
            .collect();
        // Candidate key values: present in every binding term (a value
        // missing anywhere zeroes that branch), ascending.
        let mut values: Vec<u16> = parts
            .iter()
            .min_by_key(|m| m.len())
            .map(|m| m.keys().copied().collect())
            .expect("a covering root binds a term");
        values.sort_unstable();
        values.retain(|v| parts.iter().all(|m| m.contains_key(v)));

        let remaining: Vec<usize> = active.iter().copied().filter(|&c| c != root).collect();
        let subcomps = components(&self.class_terms, comp, &remaining);
        // Copied terms see their outer rows in every branch, and the
        // branch count multiplies their replication count for the whole
        // fold. Only the binding entries of the branch view are
        // retargeted per key value.
        let saved_repl: Vec<f64> = copied.iter().map(|&t| self.repl[t]).collect();
        for &t in &copied {
            self.repl[t] *= values.len() as f64;
        }
        let mut branch_rows: Vec<&Rows> = rows.to_vec();
        let mut branches = Vec::with_capacity(values.len());
        for v in values {
            for (pi, &t) in binding.iter().enumerate() {
                branch_rows[t] = parts[pi]
                    .get(&v)
                    .expect("value present in every binding term");
            }
            let children = subcomps
                .iter()
                .map(|sub| self.component(sub, &remaining, &branch_rows))
                .collect();
            branches.push(self.tape.push(TapeNode::Product { children }));
        }
        for (&t, &r) in copied.iter().zip(&saved_repl) {
            self.repl[t] = r;
        }
        self.tape.push(TapeNode::Complement { children: branches })
    }

    /// Per consecutive block run, sum the live masses, transform them for
    /// this side of the bracket and record the contributing rows.
    fn leaf(&mut self, t: usize, rows: &Rows) -> usize {
        if !rows.certain.is_empty() {
            return self.tape.push(TapeNode::One);
        }
        let cols = self.compiled[t].db.columns();
        let probs = cols.alt_probs();
        let (k, d) = (self.alias_k[t], self.repl[t]);
        // Partitioning keeps the live rows' ascending order.
        let blocks = cols
            .block_runs(&rows.alts)
            .map(|run| {
                let rows = &rows.alts[run];
                let mut mass = 0.0;
                for &r in rows {
                    mass += probs[r as usize];
                }
                LeafBlock {
                    mass,
                    p: self.mode.mass(mass.min(1.0), k, d),
                    rows: rows.to_vec(),
                }
            })
            .collect();
        self.tape.push(TapeNode::Leaf { term: t, blocks })
    }
}

#[cfg(test)]
// Finite-difference loops index rows on purpose: `row` names the perturbed
// coordinate in both the probe and the failure message.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::super::classify::{classify, compile_terms, resolve, scan_terms};
    use super::super::{CatalogEngine, PlanClass, QueryAnswer, QueryEngineConfig};
    use super::*;
    use crate::algebra::Query;
    use crate::algebra::Statistic;
    use crate::block::{Alternative, Block};
    use crate::catalog::Catalog;
    use crate::database::ProbDb;
    use crate::predicate::Predicate;
    use mrsl_relation::{AttrId, CompleteTuple, Schema, ValueId};

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    /// sensors(station, kind) ⋈ readings(station, level) with selections,
    /// blocks arranged so no leaf mass is clamped.
    fn catalog() -> Catalog {
        let station = |extra: &str| {
            Schema::builder()
                .attribute("station", ["s0", "s1", "s2"])
                .attribute(extra, ["neg", "pos"])
                .build()
                .unwrap()
        };
        let mut sensors = ProbDb::new(station("kind"));
        sensors
            .push_block(Block::new(0, vec![alt(vec![0, 0], 0.4), alt(vec![0, 1], 0.6)]).unwrap())
            .unwrap();
        sensors
            .push_block(Block::new(1, vec![alt(vec![1, 0], 0.5), alt(vec![1, 1], 0.5)]).unwrap())
            .unwrap();
        let mut readings = ProbDb::new(station("level"));
        readings
            .push_block(Block::new(0, vec![alt(vec![0, 0], 0.7), alt(vec![0, 1], 0.3)]).unwrap())
            .unwrap();
        readings
            .push_block(Block::new(1, vec![alt(vec![1, 0], 0.2), alt(vec![1, 1], 0.8)]).unwrap())
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("sensors", sensors).unwrap();
        catalog.add("readings", readings).unwrap();
        catalog
    }

    fn join_query() -> Query {
        Query::scan("sensors")
            .filter(Predicate::eq(AttrId(1), ValueId(1)))
            .join_on(
                Query::scan("readings").filter(Predicate::eq(AttrId(1), ValueId(1))),
                [(AttrId(0), AttrId(0))],
            )
    }

    fn gradient_of(catalog: &Catalog, q: &Query) -> (f64, Vec<Vec<f64>>) {
        let flat = q.flatten().unwrap();
        let resolved = resolve(&flat, |name| catalog.get(name)).unwrap();
        let scans = scan_terms(&resolved);
        if resolved.shape.terms.len() > 1 {
            assert_eq!(classify(&resolved, &scans).class, PlanClass::Liftable);
        }
        let compiled = compile_terms(&resolved, &scans);
        let tape = record(&resolved, &compiled, &[], Mode::Upper);
        (tape.value(), tape.gradient(&compiled))
    }

    /// `P(Q)` from the engine's compiled bytecode — independent of the
    /// tape under test.
    fn forward_probability(catalog: &Catalog, q: &Query) -> f64 {
        CatalogEngine::new(catalog).probability(q).unwrap().0
    }

    /// `P(Q)` from the reference recursion's public entry point.
    fn interpreted_probability(catalog: &Catalog, q: &Query) -> f64 {
        let config = QueryEngineConfig::default();
        match crate::testutil::interpreted(catalog, q, Statistic::Probability, &config) {
            Ok((QueryAnswer::Probability { p, .. }, _)) => p,
            other => panic!("unexpected interpreted answer: {other:?}"),
        }
    }

    /// Central difference of `P(Q)` in one alternative row's mass.
    fn central_diff(catalog: &Catalog, q: &Query, relation: &str, row: usize, h: f64) -> f64 {
        let perturbed = |delta: f64| {
            let mut cat = catalog.clone();
            let db = cat.get_mut(relation).unwrap();
            // Reach past Block validation: perturb the stored masses
            // directly, off the simplex.
            let mut probs = db.columns().alt_probs().to_vec();
            probs[row] += delta;
            let b = (0..db.columns().block_count())
                .find(|&b| db.columns().block_range(b).contains(&row))
                .unwrap();
            let range = db.columns().block_range(b);
            // Renormalization is NOT applied: the gradient is with respect
            // to the unconstrained mass, matching the analytic pass.
            let block_probs = probs[range].to_vec();
            db.set_block_masses_unchecked(b, &block_probs);
            forward_probability(&cat, q)
        };
        (perturbed(h) - perturbed(-h)) / (2.0 * h)
    }

    #[test]
    fn forward_value_matches_interpreter_bitwise() {
        let catalog = catalog();
        let q = join_query();
        let (p, _) = gradient_of(&catalog, &q);
        assert_eq!(p.to_bits(), interpreted_probability(&catalog, &q).to_bits());
        assert_eq!(p.to_bits(), forward_probability(&catalog, &q).to_bits());
    }

    #[test]
    fn join_gradient_matches_central_differences() {
        let catalog = catalog();
        let q = join_query();
        let (_, grads) = gradient_of(&catalog, &q);
        for (t, relation) in ["sensors", "readings"].iter().enumerate() {
            for row in 0..grads[t].len() {
                let fd = central_diff(&catalog, &q, relation, row, 1e-6);
                assert!(
                    (grads[t][row] - fd).abs() < 1e-6,
                    "{relation} row {row}: analytic {} vs fd {fd}",
                    grads[t][row]
                );
            }
        }
    }

    #[test]
    fn single_relation_gradient_matches_central_differences() {
        let catalog = catalog();
        let q = Query::scan("sensors").filter(Predicate::eq(AttrId(1), ValueId(1)));
        let (p, grads) = gradient_of(&catalog, &q);
        // P = 1 - (1 - 0.6)(1 - 0.5); d/dm for the two live rows.
        assert!((p - 0.8).abs() < 1e-12);
        for row in 0..grads[0].len() {
            let fd = central_diff(&catalog, &q, "sensors", row, 1e-6);
            assert!(
                (grads[0][row] - fd).abs() < 1e-6,
                "row {row}: analytic {} vs fd {fd}",
                grads[0][row]
            );
        }
        // Pruned rows (kind = neg) have zero gradient.
        assert_eq!(grads[0][0], 0.0);
        assert_eq!(grads[0][2], 0.0);
    }

    #[test]
    fn certain_leaf_and_clamped_mass_have_zero_gradient() {
        let mut catalog = catalog();
        // Add a certain pos sensor at s0: the sensors leaf of branch s0 is
        // decided, so its block masses stop mattering there.
        catalog
            .get_mut("sensors")
            .unwrap()
            .push_certain(CompleteTuple::from_values(vec![0, 1]))
            .unwrap();
        let q = Query::scan("sensors").filter(Predicate::eq(AttrId(1), ValueId(1)));
        let (p, grads) = gradient_of(&catalog, &q);
        assert_eq!(p, 1.0);
        assert!(grads[0].iter().all(|&g| g == 0.0));
    }

    #[test]
    fn zero_probability_branch_still_has_gradient() {
        // An unselective predicate leaves whole blocks live with mass 1 —
        // but a *selection* that kills every alternative of one relation's
        // s1 block makes branch s1 contribute p_v = 0. The VM breaks out
        // early; the tape must not, so the gradient still flows to the
        // other relation's s1 rows. Build that shape explicitly.
        let station = |extra: &str| {
            Schema::builder()
                .attribute("station", ["s0", "s1"])
                .attribute(extra, ["neg", "pos", "odd"])
                .build()
                .unwrap()
        };
        let mut left = ProbDb::new(station("kind"));
        left.push_block(Block::new(0, vec![alt(vec![0, 0], 0.4), alt(vec![0, 1], 0.6)]).unwrap())
            .unwrap();
        // s1 alternatives are all kind=odd: the kind=pos selection prunes
        // the whole block, so branch s1 dies on the left.
        left.push_block(Block::new(1, vec![alt(vec![1, 2], 0.5), alt(vec![1, 0], 0.5)]).unwrap())
            .unwrap();
        let mut right = ProbDb::new(station("level"));
        right
            .push_block(Block::new(0, vec![alt(vec![0, 0], 0.7), alt(vec![0, 1], 0.3)]).unwrap())
            .unwrap();
        right
            .push_block(Block::new(1, vec![alt(vec![1, 1], 0.8), alt(vec![1, 0], 0.2)]).unwrap())
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("left", left).unwrap();
        catalog.add("right", right).unwrap();
        let q = Query::scan("left")
            .filter(Predicate::eq(AttrId(1), ValueId(1)))
            .join_on(
                Query::scan("right").filter(Predicate::eq(AttrId(1), ValueId(1))),
                [(AttrId(0), AttrId(0))],
            );
        let (p, grads) = gradient_of(&catalog, &q);
        assert_eq!(p.to_bits(), interpreted_probability(&catalog, &q).to_bits());
        assert_eq!(p.to_bits(), forward_probability(&catalog, &q).to_bits());
        for (t, relation) in ["left", "right"].iter().enumerate() {
            for row in 0..grads[t].len() {
                let fd = central_diff(&catalog, &q, relation, row, 1e-6);
                assert!(
                    (grads[t][row] - fd).abs() < 1e-6,
                    "{relation} row {row}: analytic {} vs fd {fd}",
                    grads[t][row]
                );
            }
        }
    }

    #[test]
    fn public_entry_point_gates_on_liftability() {
        let catalog = catalog();
        let engine = CatalogEngine::new(&catalog);
        let q = join_query();
        let (p, grads) = engine.probability_with_gradient(&q).unwrap();
        let (expect_p, report) = engine.probability(&q).unwrap();
        assert_eq!(report.plan, PlanClass::Liftable);
        assert_eq!(p.to_bits(), expect_p.to_bits());
        assert_eq!(grads.relations.len(), 2);
        assert_eq!(grads.relations[0].0, "sensors");
        assert!(grads.for_relation("readings").is_some());
        assert!(grads.for_relation("nope").is_none());

        // A key-straddling catalog is not differentiable.
        let mut straddling = ProbDb::new(
            Schema::builder()
                .attribute("station", ["s0", "s1", "s2"])
                .attribute("kind", ["neg", "pos"])
                .build()
                .unwrap(),
        );
        straddling
            .push_block(Block::new(0, vec![alt(vec![0, 1], 0.5), alt(vec![1, 1], 0.5)]).unwrap())
            .unwrap();
        let mut bad = Catalog::new();
        bad.add("sensors", straddling).unwrap();
        bad.add(
            "readings",
            catalog.get_shared("readings").unwrap().as_ref().clone(),
        )
        .unwrap();
        let engine = CatalogEngine::new(&bad);
        let e = engine
            .probability_with_gradient(
                &Query::scan("sensors").join_on("readings", [(AttrId(0), AttrId(0))]),
            )
            .unwrap_err();
        assert!(matches!(e, crate::ProbDbError::NotDifferentiable { .. }));
    }

    /// A random hierarchical two-relation catalog: every block gets an
    /// "odd"-valued slack alternative the selection prunes, so no live
    /// leaf mass reaches the clamp and central differences are clean.
    fn random_catalog(seed: u64, blocks_per_rel: usize) -> Catalog {
        use mrsl_util::derive_seed;
        let station_labels = ["s0", "s1", "s2", "s3"];
        let schema = |extra: &str| {
            Schema::builder()
                .attribute("station", station_labels)
                .attribute(extra, ["neg", "pos", "odd"])
                .build()
                .unwrap()
        };
        let mut catalog = Catalog::new();
        for (r, name) in ["sensors", "readings"].into_iter().enumerate() {
            let mut db = ProbDb::new(schema(if r == 0 { "kind" } else { "level" }));
            for b in 0..blocks_per_rel {
                // Cheap deterministic pseudo-randomness from the seed.
                let mut x = derive_seed(seed, &[r as u64, b as u64]);
                let mut next = move || {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) as f64 / (1u64 << 31) as f64
                };
                let station = (next() * station_labels.len() as f64) as u16;
                let w = [next() + 0.05, next() + 0.05, next() + 0.05];
                let total: f64 = w.iter().sum();
                db.push_block(
                    Block::new(
                        b,
                        vec![
                            alt(vec![station, 0], w[0] / total),
                            alt(vec![station, 1], w[1] / total),
                            alt(vec![station, 2], w[2] / total),
                        ],
                    )
                    .unwrap(),
                )
                .unwrap();
            }
            catalog.add(name, db).unwrap();
        }
        catalog
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// The ISSUE's acceptance bar: |analytic − central-diff| < 1e-6 on
        /// random hierarchical catalogs, every alternative row.
        #[test]
        fn gradient_matches_finite_differences_on_random_catalogs(
            seed in 0u64..1_000,
            blocks in 1usize..5,
        ) {
            let catalog = random_catalog(seed, blocks);
            let q = join_query();
            let (p, grads) = gradient_of(&catalog, &q);
            proptest::prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            for (t, relation) in ["sensors", "readings"].iter().enumerate() {
                for row in 0..grads[t].len() {
                    let fd = central_diff(&catalog, &q, relation, row, 1e-6);
                    proptest::prop_assert!(
                        (grads[t][row] - fd).abs() < 1e-6,
                        "{} row {}: analytic {} vs fd {}",
                        relation, row, grads[t][row], fd
                    );
                }
            }
        }
    }
}
