//! Dissociation bounds vs the brute-force oracle.
//!
//! The acceptance bar for the bounds evaluator: on the classic unsafe
//! chain `R(x), S(x,y), T(y)` (and on random small catalogs of that
//! shape) the dissociation bracket must always contain the exact
//! joint-world probability, collapse to it on hierarchical queries, stay
//! deterministic (no sampling) when within tolerance, and name the
//! dissociated variable in the report.

use mrsl_repro::probdb::testutil::{oracle, oracle_probability};
use mrsl_repro::probdb::{
    Alternative, Block, Catalog, CatalogEngine, EvalPath, PlanClass, Predicate, ProbDb,
    ProbabilityBounds, Query, QueryEngineConfig, Statistic,
};
use mrsl_repro::relation::{AttrId, CompleteTuple, Schema, ValueId};
use proptest::prelude::*;
use std::sync::Arc;

fn alt(values: Vec<u16>, prob: f64) -> Alternative {
    Alternative {
        tuple: CompleteTuple::from_values(values),
        prob,
    }
}

/// `ok`-gated schema: the key attributes plus a trailing `ok` flag whose
/// selection decides whether the tuple is "present" — so every block
/// keeps a unique join key among its selected alternatives.
fn gated_schema(keys: &[&str], card: usize) -> Arc<Schema> {
    let mut b = Schema::builder();
    for k in keys {
        b = b.attribute(*k, (0..card).map(|v| format!("v{v}")));
    }
    b.attribute("ok", ["no", "yes"]).build().unwrap()
}

/// A block at fixed key values, present with probability `p`.
fn gated_block(key: usize, values: &[u16], p: f64) -> Block {
    let mut absent = values.to_vec();
    absent.push(0);
    let mut present = values.to_vec();
    present.push(1);
    Block::new(key, vec![alt(absent, 1.0 - p), alt(present, p)]).unwrap()
}

fn ok_pred(arity: usize) -> Predicate {
    Predicate::eq(AttrId(arity as u16 - 1), ValueId(1))
}

/// The chain query `σ[ok] R(x) ⋈ σ[ok] S(x,y) ⋈ σ[ok] T(y)`.
fn chain_query() -> Query {
    Query::scan("r")
        .filter(ok_pred(2))
        .join_on(
            Query::scan("s").filter(ok_pred(3)),
            [(AttrId(0), AttrId(0))],
        )
        .join_on_rel(
            "s",
            Query::scan("t").filter(ok_pred(2)),
            [(AttrId(1), AttrId(0))],
        )
}

/// A deterministic chain catalog from per-block presence probabilities.
fn chain_catalog(r: &[(u16, f64)], s: &[((u16, u16), f64)], t: &[(u16, f64)]) -> Catalog {
    let card = 3;
    let mut rdb = ProbDb::new(gated_schema(&["x"], card));
    for (i, &(x, p)) in r.iter().enumerate() {
        rdb.push_block(gated_block(i, &[x], p)).unwrap();
    }
    let mut sdb = ProbDb::new(gated_schema(&["x", "y"], card));
    for (i, &((x, y), p)) in s.iter().enumerate() {
        sdb.push_block(gated_block(i, &[x, y], p)).unwrap();
    }
    let mut tdb = ProbDb::new(gated_schema(&["y"], card));
    for (i, &(y, p)) in t.iter().enumerate() {
        tdb.push_block(gated_block(i, &[y], p)).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.add("r", rdb).unwrap();
    catalog.add("s", sdb).unwrap();
    catalog.add("t", tdb).unwrap();
    catalog
}

/// Acceptance: the non-hierarchical chain gets a deterministic bracket
/// around the oracle probability, without sampling, and the report names
/// the dissociated variable.
#[test]
fn chain_bounds_bracket_oracle_without_sampling() {
    let catalog = chain_catalog(
        &[(0, 0.6), (1, 0.5), (2, 0.9)],
        &[((0, 1), 0.7), ((1, 0), 0.4), ((2, 2), 0.8), ((0, 0), 0.3)],
        &[(0, 0.8), (1, 0.3), (2, 0.5)],
    );
    let query = chain_query();
    // Never refine: the bracket must be fully deterministic.
    let engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            bounds_tolerance: 1.0,
            ..QueryEngineConfig::default()
        },
    );
    let (path, plan) = engine.plan(&query, Statistic::ProbabilityBounds).unwrap();
    assert_eq!(path, EvalPath::ExactColumnar);
    assert_eq!(plan, PlanClass::Dissociable);
    let (bounds, report) = engine.probability_bounds(&query).unwrap();
    assert_eq!(report.path, EvalPath::ExactColumnar);
    assert_eq!(report.plan, PlanClass::Dissociable);
    assert_eq!(report.mc_samples, 0, "deterministic bounds must not sample");
    assert!(bounds.estimate.is_none());

    let brute = oracle_probability(&catalog, &query).unwrap();
    assert!(
        bounds.lower - 1e-12 <= brute && brute <= bounds.upper + 1e-12,
        "bracket [{}, {}] misses oracle {brute}",
        bounds.lower,
        bounds.upper
    );
    assert!(bounds.width() < 0.35, "bracket uselessly wide: {bounds:?}");

    // The report names what was dissociated, and the plan renders the
    // replicated scan.
    assert!(
        !report.dissociated.is_empty(),
        "dissociated variable missing from the report"
    );
    let plan = report.decomposition.expect("dissociated safe plan");
    assert!(plan.render().contains("copy"), "{}", plan.render());

    // The plain probability statistic still samples this shape.
    let (path, plan) = engine.plan(&query, Statistic::Probability).unwrap();
    assert_eq!(path, EvalPath::MonteCarlo);
    assert_eq!(plan, PlanClass::NonHierarchical);
}

/// The aliased chain `r1(x) ⋈ s(x,y) ⋈ r2(y)`, both ends scans of `r`:
/// its candidates dissociate the self-join (alias copies, `m^(1/k)` on
/// the upper side) *and* the chain (branch replicas, propagation masses
/// on the lower side), and the bracket still contains the oracle.
#[test]
fn aliased_chain_bounds_bracket_oracle() {
    let catalog = chain_catalog(
        &[(0, 0.6), (1, 0.5), (2, 0.9)],
        &[((0, 1), 0.7), ((1, 0), 0.4), ((2, 2), 0.8), ((0, 0), 0.3)],
        &[(0, 0.8)],
    );
    let query = Query::scan_as("r", "r1")
        .filter(ok_pred(2))
        .join_on(
            Query::scan("s").filter(ok_pred(3)),
            [(AttrId(0), AttrId(0))],
        )
        .join_on_rel(
            "s",
            Query::scan_as("r", "r2").filter(ok_pred(2)),
            [(AttrId(1), AttrId(0))],
        );
    let engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            bounds_tolerance: 1.0,
            ..QueryEngineConfig::default()
        },
    );
    let (path, plan) = engine.plan(&query, Statistic::ProbabilityBounds).unwrap();
    assert_eq!(
        (path, plan),
        (EvalPath::ExactColumnar, PlanClass::Dissociable)
    );
    let (bounds, report) = engine.probability_bounds(&query).unwrap();
    assert_eq!(report.mc_samples, 0, "deterministic bounds must not sample");
    let brute = oracle_probability(&catalog, &query).unwrap();
    assert!(
        bounds.lower - 1e-12 <= brute && brute <= bounds.upper + 1e-12,
        "bracket [{}, {}] misses oracle {brute}",
        bounds.lower,
        bounds.upper
    );
    assert!(bounds.width() < 0.5, "bracket uselessly wide: {bounds:?}");
    // Both kinds of dissociation are named: the alias group and a
    // replicated scan.
    assert!(
        report
            .dissociated
            .iter()
            .any(|d| d.contains("independent copies of `r`")),
        "{:?}",
        report.dissociated
    );
    assert!(
        report.dissociated.iter().any(|d| d.contains('⇢')),
        "{:?}",
        report.dissociated
    );
}

/// Reports show the same plans and dissociation entries as before plans
/// were rendered from their lowered programs (strings recorded from the
/// earlier decomposition walk). The aliased path `r1(x) ⋈ s(x,y) ⋈
/// t(y,z) ⋈ r2(z)` brackets with a root partition over two nested
/// partitions, each with a dissociated copy; a hierarchical join reports
/// its nested safe plan and no dissociation. Cold and warm answers agree.
#[test]
fn reports_render_the_recorded_plans() {
    let relation = |keys: &[&str], blocks: &[(&[u16], f64)]| {
        let mut db = ProbDb::new(gated_schema(keys, 3));
        for (i, &(values, p)) in blocks.iter().enumerate() {
            db.push_block(gated_block(i, values, p)).unwrap();
        }
        db
    };
    let mut catalog = Catalog::new();
    let r = relation(&["x"], &[(&[0], 0.6), (&[1], 0.5), (&[2], 0.9)]);
    catalog.add("r", r).unwrap();
    let s = [
        (&[0, 1], 0.7),
        (&[1, 0], 0.4),
        (&[2, 2], 0.8),
        (&[0, 0], 0.3),
    ];
    catalog
        .add("s", relation(&["x", "y"], &s.map(|(v, p)| (&v[..], p))))
        .unwrap();
    let t = [
        (&[0, 2], 0.35),
        (&[1, 1], 0.65),
        (&[2, 0], 0.55),
        (&[1, 2], 0.25),
    ];
    catalog
        .add("t", relation(&["y", "z"], &t.map(|(v, p)| (&v[..], p))))
        .unwrap();
    let engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            bounds_tolerance: 1.0,
            ..QueryEngineConfig::default()
        },
    );
    let aliased = Query::scan_as("r", "r1")
        .filter(ok_pred(2))
        .join_on(
            Query::scan("s").filter(ok_pred(3)),
            [(AttrId(0), AttrId(0))],
        )
        .join_on_rel(
            "s",
            Query::scan("t").filter(ok_pred(3)),
            [(AttrId(1), AttrId(0))],
        )
        .join_on_rel(
            "t",
            Query::scan_as("r", "r2").filter(ok_pred(2)),
            [(AttrId(1), AttrId(0))],
        );
    for _ in 0..2 {
        let (_, report) = engine.probability_bounds(&aliased).unwrap();
        assert_eq!(report.plan, PlanClass::Dissociable);
        assert_eq!(
            report.decomposition.expect("bounds plan").render(),
            "⨅[s.y = t.y](⨅[r1.x = s.x](copy r1∥[s.y = t.y], scan s), \
             ⨅[t.z = r2.x](scan t, copy r2∥[s.y = t.y]))"
        );
        assert_eq!(
            report.dissociated,
            [
                "`r1`, `r2` ≡ independent copies of `r`",
                "`r1` ⇢ [s.y = t.y]",
                "`r2` ⇢ [s.y = t.y]"
            ]
        );
    }
    let nested = Query::scan("r")
        .filter(ok_pred(2))
        .join_on(
            Query::scan("s").filter(ok_pred(3)),
            [(AttrId(0), AttrId(0))],
        )
        .join_on_rel(
            "s",
            Query::scan("t").filter(ok_pred(3)),
            [(AttrId(1), AttrId(0)), (AttrId(0), AttrId(1))],
        );
    for _ in 0..2 {
        let (_, report) = engine.probability(&nested).unwrap();
        assert_eq!(report.plan, PlanClass::Liftable);
        assert_eq!(
            report.decomposition.expect("safe plan").render(),
            "⨅[r.x = s.x = t.z](scan r, ⨅[s.y = t.y](scan s, scan t))"
        );
        assert!(report.dissociated.is_empty());
    }
}

/// Bracket-gated refinement: with a zero tolerance the same query samples
/// and reports the hybrid path, with the estimate clamped into the
/// bracket.
#[test]
fn wide_brackets_refine_with_monte_carlo() {
    let catalog = chain_catalog(
        &[(0, 0.6), (1, 0.5)],
        &[((0, 1), 0.7), ((1, 0), 0.4), ((1, 1), 0.5)],
        &[(0, 0.8), (1, 0.3)],
    );
    let query = chain_query();
    let engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            bounds_tolerance: 0.0,
            mc_samples: 20_000,
            ..QueryEngineConfig::default()
        },
    );
    let (bounds, report) = engine.probability_bounds(&query).unwrap();
    assert_eq!(report.path, EvalPath::Hybrid);
    assert_eq!(report.mc_samples, 20_000);
    let estimate = bounds.estimate.expect("refined estimate");
    assert!(bounds.contains(estimate), "estimate outside the bracket");
    assert!(bounds.std_error.is_some());
    let brute = oracle_probability(&catalog, &query).unwrap();
    assert!(bounds.contains(brute), "bracket misses the oracle");
    assert!((estimate - brute).abs() < 0.02, "{estimate} vs {brute}");
    assert_eq!(bounds.best(), estimate);
}

/// Forced Monte Carlo degrades bounds to the trivial bracket + estimate.
#[test]
fn forced_monte_carlo_answers_trivial_bracket() {
    let catalog = chain_catalog(&[(0, 0.6)], &[((0, 1), 0.7)], &[(1, 0.3)]);
    let engine = CatalogEngine::with_config(
        &catalog,
        QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples: 5_000,
            ..QueryEngineConfig::default()
        },
    );
    let (bounds, report) = engine.probability_bounds(&chain_query()).unwrap();
    assert_eq!(report.plan, PlanClass::ForcedMonteCarlo);
    assert_eq!((bounds.lower, bounds.upper), (0.0, 1.0));
    assert!(bounds.estimate.is_some());
}

/// Random chain catalogs: `lower ≤ P_oracle ≤ upper` always, and the
/// bracket never sampled.
fn arb_chain() -> BoxedStrategy<(Catalog, Query)> {
    let prob = || (5u32..95).prop_map(|w| w as f64 / 100.0);
    let rblocks = prop::collection::vec((0u16..3, prob()), 1..4);
    let sblocks = prop::collection::vec(((0u16..3, 0u16..3), prob()), 1..5);
    let tblocks = prop::collection::vec((0u16..3, prob()), 1..4);
    (rblocks, sblocks, tblocks)
        .prop_map(|(r, s, t)| (chain_catalog(&r, &s, &t), chain_query()))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random small chain catalogs the dissociation bracket always
    /// contains the brute-force probability, and the upper bound side is
    /// reached without sampling.
    #[test]
    fn bounds_always_bracket_the_oracle((catalog, query) in arb_chain()) {
        let engine = CatalogEngine::with_config(
            &catalog,
            QueryEngineConfig { bounds_tolerance: 1.0, ..QueryEngineConfig::default() },
        );
        let (bounds, report) = engine.probability_bounds(&query).expect("bounds");
        prop_assert_eq!(report.mc_samples, 0);
        prop_assert!(bounds.lower >= -1e-12 && bounds.upper <= 1.0 + 1e-12);
        let brute = oracle_probability(&catalog, &query).expect("oracle");
        prop_assert!(
            bounds.lower - 1e-12 <= brute && brute <= bounds.upper + 1e-12,
            "bracket [{}, {}] misses oracle {} (report {:?})",
            bounds.lower, bounds.upper, brute, report.dissociated
        );
    }

    /// On hierarchical (safe) queries the bracket collapses to the exact
    /// probability — which equals the oracle's to 1e-12.
    #[test]
    fn bounds_collapse_to_exact_on_hierarchical_queries(
        (catalog, _) in arb_chain()
    ) {
        // Drop T: σ[ok] R(x) ⋈ σ[ok] S(x,y) is hierarchical.
        let query = Query::scan("r")
            .filter(ok_pred(2))
            .join_on(Query::scan("s").filter(ok_pred(3)), [(AttrId(0), AttrId(0))]);
        let engine = CatalogEngine::new(&catalog);
        let (path, plan) = engine.plan(&query, Statistic::ProbabilityBounds).expect("plan");
        prop_assert_eq!(path, EvalPath::ExactColumnar);
        prop_assert_eq!(plan, PlanClass::Liftable);
        let (bounds, report) = engine.probability_bounds(&query).expect("bounds");
        prop_assert_eq!(report.mc_samples, 0);
        prop_assert!(bounds.is_exact(0.0), "safe bracket not collapsed: {:?}", bounds);
        let brute = oracle_probability(&catalog, &query).expect("oracle");
        prop_assert!((bounds.lower - brute).abs() < 1e-12, "{} vs {}", bounds.lower, brute);
        // And the point statistic agrees with the bracket bit for bit.
        let (p, _) = engine.probability(&query).expect("probability");
        prop_assert_eq!(p.to_bits(), bounds.lower.to_bits());
    }

    /// The oracle itself is consistent with the exact engine on every
    /// statistic it reports (probability, expected count, distribution)
    /// for safe queries.
    #[test]
    fn oracle_matches_exact_engine_on_safe_queries((catalog, _) in arb_chain()) {
        let query = Query::scan("s").filter(ok_pred(3));
        let engine = CatalogEngine::new(&catalog);
        let answer = oracle(&catalog, &query, 1_000_000).expect("oracle");
        let (p, _) = engine.probability(&query).expect("p");
        let (e, _) = engine.expected_count(&query).expect("e");
        let (d, _) = engine.count_distribution(&query).expect("d");
        prop_assert!((p - answer.probability).abs() < 1e-12);
        prop_assert!((e - answer.expected_count).abs() < 1e-12);
        for (k, &exact) in d.iter().enumerate() {
            let brute = answer.count_distribution.get(k).copied().unwrap_or(0.0);
            prop_assert!((exact - brute).abs() < 1e-12, "k={}", k);
        }
    }
}

/// The bounds API surface: `ProbabilityBounds` helpers behave.
#[test]
fn probability_bounds_helpers() {
    let b = ProbabilityBounds::bracket(0.2, 0.6);
    assert!((b.width() - 0.4).abs() < 1e-15);
    assert!((b.midpoint() - 0.4).abs() < 1e-15);
    assert!(!b.is_exact(1e-9));
    assert!(b.contains(0.2) && b.contains(0.6) && !b.contains(0.61));
    assert_eq!(b.best(), b.midpoint());
    let e = ProbabilityBounds::exact(0.5);
    assert!(e.is_exact(0.0));
    assert_eq!(e.best(), 0.5);
}
