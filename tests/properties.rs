//! Property-based tests (proptest) over cross-crate invariants.

use mrsl_repro::bayesnet::{conditional, conditional_brute_force, BayesianNetwork};
use mrsl_repro::core::{
    infer_batch, InferContext, LearnConfig, MrslModel, TupleDag, TupleDagWorkload, VotingConfig,
};
use mrsl_repro::itemset::{AprioriConfig, FrequentItemsets, Itemset};
use mrsl_repro::relation::{AttrId, AttrMask, CompleteTuple, PartialTuple, Schema, SchemaBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// A random small schema: 2–5 attributes, cardinalities 2–4.
fn arb_schema() -> impl Strategy<Value = Arc<Schema>> {
    prop::collection::vec(2usize..=4, 2..=5).prop_map(|cards| {
        let mut b = SchemaBuilder::default();
        for (i, card) in cards.iter().enumerate() {
            b = b.attribute(format!("a{i}"), (0..*card).map(|v| format!("v{v}")));
        }
        b.build().expect("valid schema")
    })
}

/// Random points for a schema.
fn arb_points(schema: Arc<Schema>, n: std::ops::Range<usize>) -> BoxedStrategy<Vec<CompleteTuple>> {
    let cards: Vec<u16> = schema
        .attr_ids()
        .map(|a| schema.cardinality(a) as u16)
        .collect();
    prop::collection::vec(
        cards
            .iter()
            .map(|&c| (0..c).boxed())
            .collect::<Vec<_>>()
            .prop_map(CompleteTuple::from_values),
        n,
    )
    .boxed()
}

/// Random partial tuple over a schema (possibly complete or empty).
fn arb_partial(schema: Arc<Schema>) -> BoxedStrategy<PartialTuple> {
    let slots: Vec<BoxedStrategy<Option<u16>>> = schema
        .attr_ids()
        .map(|a| {
            let card = schema.cardinality(a) as u16;
            prop::option::of(0..card).boxed()
        })
        .collect();
    slots
        .prop_map(|opts| PartialTuple::from_options(&opts))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mined supports always equal brute-force counting over the points.
    #[test]
    fn mined_supports_match_brute_force(
        (schema, points) in arb_schema().prop_flat_map(|s| {
            let pts = arb_points(s.clone(), 8..40);
            (Just(s), pts)
        }),
        theta in 0.0f64..0.4,
    ) {
        let freq = FrequentItemsets::mine(
            &schema,
            &points,
            &AprioriConfig { support_threshold: theta, max_itemsets: 1000 },
        );
        for fs in freq.iter() {
            let brute = points
                .iter()
                .filter(|p| fs.itemset.matches_tuple(&p.to_partial()))
                .count();
            prop_assert_eq!(fs.count, brute);
            if !fs.itemset.is_empty() {
                prop_assert!(fs.support >= theta - 1e-9);
            }
        }
    }

    /// Downward closure: every sub-itemset of a frequent itemset is frequent
    /// with at least the same support.
    #[test]
    fn downward_closure(
        (schema, points) in arb_schema().prop_flat_map(|s| {
            let pts = arb_points(s.clone(), 10..30);
            (Just(s), pts)
        }),
    ) {
        let freq = FrequentItemsets::mine(
            &schema,
            &points,
            &AprioriConfig { support_threshold: 0.05, max_itemsets: 1000 },
        );
        for fs in freq.iter() {
            for item in fs.itemset.items() {
                let sub = fs.itemset.without_attr(item.attr());
                let sub_supp = freq.support_of(&sub);
                prop_assert!(sub_supp.is_some());
                prop_assert!(sub_supp.unwrap() >= fs.support - 1e-12);
            }
        }
    }

    /// Subsumption is a strict partial order: irreflexive, asymmetric,
    /// transitive.
    #[test]
    fn subsumption_is_strict_partial_order(
        (a, b, c) in arb_schema().prop_flat_map(|s| {
            (arb_partial(s.clone()), arb_partial(s.clone()), arb_partial(s))
        }),
    ) {
        prop_assert!(!a.subsumes(&a));
        if a.subsumes(&b) {
            prop_assert!(!b.subsumes(&a));
        }
        if a.subsumes(&b) && b.subsumes(&c) {
            prop_assert!(a.subsumes(&c));
        }
    }

    /// A subsumer matches every point its subsumee matches.
    #[test]
    fn subsumer_matches_superset_of_points(
        (schema, t, points) in arb_schema().prop_flat_map(|s| {
            (Just(s.clone()), arb_partial(s.clone()), arb_points(s, 5..20))
        }),
    ) {
        // Drop one assigned attribute to build a strict subsumer.
        if let Some(attr) = t.mask().iter().next() {
            let general = t.without_attr(attr);
            for p in &points {
                if t.matches_point(p) {
                    prop_assert!(general.matches_point(p));
                }
            }
        }
        let _ = schema;
    }

    /// Voted CPDs are strictly positive distributions for any evidence.
    #[test]
    fn voted_cpds_are_distributions(
        (schema, points, t) in arb_schema().prop_flat_map(|s| {
            (Just(s.clone()), arb_points(s.clone(), 10..40), arb_partial(s))
        }),
    ) {
        let model = MrslModel::learn(
            &schema,
            &points,
            &LearnConfig { support_threshold: 0.05, max_itemsets: 200 },
        );
        for attr in schema.attr_ids() {
            if t.get(attr).is_some() {
                continue;
            }
            for voting in VotingConfig::table2_order() {
                let cpd = InferContext::new(&model, voting, 0).vote_single(&t, attr);
                prop_assert_eq!(cpd.len(), schema.cardinality(attr));
                let sum: f64 = cpd.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
                prop_assert!(cpd.iter().all(|&p| p > 0.0));
            }
        }
    }

    /// Tuple-DAG edges are sound: every parent strictly subsumes its child,
    /// roots have no subsumers, and no cover edge skips an intermediate.
    #[test]
    fn tuple_dag_edges_are_covers(
        workload in arb_schema().prop_flat_map(|s| {
            prop::collection::vec(arb_partial(s), 1..12)
        }),
    ) {
        let dag = TupleDag::build(&workload);
        let nodes = dag.nodes();
        for s in 0..dag.len() {
            for &p in dag.parents(s) {
                prop_assert!(nodes[p].subsumes(&nodes[s]));
                // Cover property: no node sits strictly between p and s.
                for m in 0..dag.len() {
                    if m != p && m != s {
                        prop_assert!(
                            !(nodes[p].subsumes(&nodes[m]) && nodes[m].subsumes(&nodes[s])),
                            "edge {p}->{s} skips {m}"
                        );
                    }
                }
            }
        }
        for &r in dag.roots() {
            for other in 0..dag.len() {
                if other != r {
                    prop_assert!(!nodes[other].subsumes(&nodes[r]));
                }
            }
        }
    }

    /// Tuple-DAG accounting: every distinct incomplete tuple ends with
    /// exactly `N` samples, so own draws plus shares add up to `N` per
    /// distinct incomplete tuple, and every chain burns in exactly once.
    /// A lost or double-recorded share breaks the sum.
    #[test]
    fn tuple_dag_accounts_every_sample(
        (schema, points, workload) in arb_schema().prop_flat_map(|s| {
            (
                Just(s.clone()),
                arb_points(s.clone(), 10..30),
                prop::collection::vec(arb_partial(s), 0..16),
            )
        }),
        burn_in in 0usize..20,
        samples in 1usize..80,
        seed in 0u64..1_000,
    ) {
        let model = MrslModel::learn(
            &schema,
            &points,
            &LearnConfig { support_threshold: 0.05, max_itemsets: 200 },
        );
        let engine = TupleDagWorkload { burn_in, samples };
        let res = infer_batch(&model, &workload, &engine, VotingConfig::best_averaged(), seed);
        for (t, est) in workload.iter().zip(&res.estimates) {
            let expected = if t.is_complete() { 0 } else { samples };
            prop_assert_eq!(est.sample_count, expected);
        }
        let incomplete = TupleDag::build(&workload)
            .nodes()
            .iter()
            .filter(|t| !t.is_complete())
            .count();
        let c = res.cost;
        prop_assert_eq!(c.total_draws - c.burn_in_draws + c.shared_samples, samples * incomplete);
        prop_assert_eq!(c.burn_in_draws, burn_in * c.chains);
    }

    /// Variable elimination equals brute-force joint enumeration on random
    /// small networks with random evidence.
    #[test]
    fn variable_elimination_matches_brute_force(
        cards in prop::collection::vec(2usize..=3, 2..=4),
        seed in 0u64..5_000,
        evidence_bits in 0u64..16,
    ) {
        let spec = mrsl_repro::bayesnet::builders::chain("p", &cards);
        let bn = BayesianNetwork::instantiate(&spec, 0.8, seed);
        let n = cards.len();
        // Build random evidence from the bits; keep at least one target.
        let mut slots: Vec<Option<u16>> = vec![None; n];
        for (i, slot) in slots.iter_mut().enumerate().take(n - 1) {
            if evidence_bits & (1 << i) != 0 {
                *slot = Some(((seed >> i) % cards[i] as u64) as u16);
            }
        }
        let evidence = PartialTuple::from_options(&slots);
        let targets = evidence.missing_mask();
        prop_assume!(!targets.is_empty());
        let ve = conditional(&bn, targets, &evidence);
        let bf = conditional_brute_force(&bn, targets, &evidence);
        match (ve, bf) {
            (Some(a), Some(b)) => {
                for (x, y) in a.iter().zip(&b) {
                    prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
                }
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "disagree on feasibility: {a:?} vs {b:?}"),
        }
    }

    /// Masks: union/intersection/difference behave like sets of indices.
    #[test]
    fn mask_set_algebra(xs in prop::collection::btree_set(0u16..20, 0..10),
                        ys in prop::collection::btree_set(0u16..20, 0..10)) {
        let mx = AttrMask::from_attrs(xs.iter().map(|&i| AttrId(i)));
        let my = AttrMask::from_attrs(ys.iter().map(|&i| AttrId(i)));
        let union: std::collections::BTreeSet<u16> = xs.union(&ys).copied().collect();
        let inter: std::collections::BTreeSet<u16> = xs.intersection(&ys).copied().collect();
        let diff: std::collections::BTreeSet<u16> = xs.difference(&ys).copied().collect();
        prop_assert_eq!(mx.union(my).iter().map(|a| a.0).collect::<Vec<_>>(),
                        union.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(mx.intersect(my).iter().map(|a| a.0).collect::<Vec<_>>(),
                        inter.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(mx.difference(my).iter().map(|a| a.0).collect::<Vec<_>>(),
                        diff.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(mx.is_subset(my), xs.is_subset(&ys));
    }

    /// Itemset/tuple round trip preserves identity.
    #[test]
    fn itemset_tuple_roundtrip(
        (schema, t) in arb_schema().prop_flat_map(|s| (Just(s.clone()), arb_partial(s))),
    ) {
        let itemset = Itemset::from_tuple(&t);
        let back = itemset.to_tuple(schema.attr_count());
        prop_assert_eq!(back, t);
    }
}
