//! The derivation workloads: the paper's §VI pipeline on crown network
//! BN10, from an incomplete relation to a disjoint-independent database.
//!
//! `derive_dag` samples multi-missing tuples with the tuple DAG
//! (Algorithm 3); `derive_ensemble` fits EM weights over the four standard
//! engines on held-out complete tuples and derives through the weighted
//! ensemble, which bypasses DAG sharing. Both time no reads.

use crate::trace::Recorder;
use crate::{median, ms, Report};
use mrsl_bayesnet::BayesianNetwork;
use mrsl_core::{
    derive_probabilistic_db_with_engine, infer_batch, DeriveConfig, DeriveOutput, GibbsConfig,
    InferenceEngine, JointEstimate, LearnConfig, MrslModel, SingleVoting, TupleDag,
    TupleDagWorkload, VotingConfig,
};
use mrsl_learn::{fit_ensemble_weights, standard_members, EnsembleEngine, WeightStrategy};
use mrsl_relation::{CompleteTuple, PartialTuple, Relation};
use mrsl_util::derive_seed;
use std::time::{Duration, Instant};

pub const NETWORK: &str = "BN10";
/// The network's CPTs are fixed; the seed draws the data, so runs on
/// different seeds measure the same distribution.
pub const NETWORK_INSTANCE: u64 = 10;
pub const COMPLETE: usize = 20_000;
pub const HOLDOUT: usize = 400;
pub const INCOMPLETE: usize = 4_000;
pub const MAX_HIDDEN: usize = 3;
pub const GIBBS_SAMPLES: usize = 2_000;
pub const GIBBS_BURN_IN: usize = 100;
const SUPPORT: f64 = 0.01;
const MAX_ITEMSETS: usize = 1_000;
const EM_ITERS: usize = 200;
const EM_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Dag,
    Ensemble,
}

/// The relation every derive workload derives, plus what checking needs.
pub struct Input {
    pub bn: BayesianNetwork,
    pub relation: Relation,
    pub holdout: Vec<CompleteTuple>,
    pub single: Vec<PartialTuple>,
    pub multi: Vec<PartialTuple>,
    pub seed: u64,
}

impl Input {
    pub fn generate(seed: u64) -> Self {
        let bn = mrsl_bench::network(NETWORK, NETWORK_INSTANCE);
        let mut data = mrsl_bayesnet::sampler::sample_dataset(
            &bn,
            COMPLETE + HOLDOUT,
            derive_seed(seed, &[1]),
        );
        let holdout = data.split_off(COMPLETE);
        let incomplete = mrsl_bench::workload(&bn, INCOMPLETE, MAX_HIDDEN, seed);
        let mut relation = Relation::new(bn.schema().clone());
        for point in data {
            relation
                .push_complete(point)
                .expect("sampled tuples fit the schema");
        }
        let (mut single, mut multi) = (Vec::new(), Vec::new());
        for t in incomplete {
            if t.missing_mask().count() <= 1 {
                single.push(t.clone());
            } else {
                multi.push(t.clone());
            }
            relation.push(t).expect("sampled tuples fit the schema");
        }
        Self {
            bn,
            relation,
            holdout,
            single,
            multi,
            seed,
        }
    }
}

pub fn gibbs() -> GibbsConfig {
    GibbsConfig {
        burn_in: GIBBS_BURN_IN,
        samples: GIBBS_SAMPLES,
        voting: VotingConfig::best_averaged(),
    }
}

fn config(seed: u64) -> DeriveConfig {
    DeriveConfig {
        learn: LearnConfig {
            support_threshold: SUPPORT,
            max_itemsets: MAX_ITEMSETS,
        },
        gibbs: gibbs(),
        seed,
        ..DeriveConfig::default()
    }
}

fn learn(input: &Input) -> MrslModel {
    MrslModel::learn(
        input.relation.schema(),
        input.relation.complete_part(),
        &config(input.seed).learn,
    )
}

fn fit(input: &Input, model: &MrslModel) -> EnsembleEngine {
    let (engine, _) = fit_ensemble_weights(
        model,
        &input.holdout,
        gibbs().voting,
        standard_members(&gibbs()),
        WeightStrategy::Em {
            max_iters: EM_ITERS,
            tol: EM_TOL,
        },
        input.seed,
    )
    .expect("four members and a non-empty holdout");
    engine
}

fn derive_with(input: &Input, engine: &dyn InferenceEngine) -> DeriveOutput {
    derive_probabilistic_db_with_engine(&input.relation, &config(input.seed), engine)
}

/// One derivation as a user runs it: learn, (fit,) infer, assemble.
pub fn derive(input: &Input, engine: Engine) -> DeriveOutput {
    match engine {
        Engine::Dag => derive_with(input, &TupleDagWorkload::from_config(&gibbs())),
        Engine::Ensemble => derive_with(input, &fit(input, &learn(input))),
    }
}

/// Failed tuples of one derivation: each incomplete tuple needs exactly
/// one normalized block, at its key, whose alternatives keep its observed
/// values, and an estimate bit-identical to `reference` (derivation is
/// deterministic per seed).
pub fn check(input: &Input, out: &DeriveOutput, reference: &[JointEstimate]) -> u64 {
    let incomplete = input.relation.incomplete_part();
    let blocks = out.db.blocks();
    if blocks.len() != incomplete.len() || out.estimates.len() != incomplete.len() {
        return incomplete.len() as u64;
    }
    let mut failed = 0;
    for (i, (t, block)) in incomplete.iter().zip(blocks).enumerate() {
        let alts = block.alternatives();
        let mass: f64 = alts.iter().map(|a| a.prob).sum();
        let ok = block.key() == i
            && !alts.is_empty()
            && alts.iter().all(|a| t.matches_point(&a.tuple))
            && (mass - 1.0).abs() < 1e-9
            && bits(&out.estimates[i].probs) == bits(&reference[i].probs);
        failed += u64::from(!ok);
    }
    failed
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Mean `KL(exact BN posterior ‖ derived block)` over the incomplete
/// tuples, in nats.
pub fn mean_kl(input: &Input, estimates: &[JointEstimate]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (t, est) in input.relation.incomplete_part().iter().zip(estimates) {
        if let Some(truth) = mrsl_bayesnet::infer::conditional(&input.bn, t.missing_mask(), t) {
            sum += mrsl_eval::kl_divergence(&truth, &est.probs);
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// The end-to-end run: `seconds` timed derivations of one relation.
pub fn run(engine: Engine, seed: u64, seconds: u64) -> Report {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(state.take());
        let start = Instant::now();
        let input = Input::generate(seed);
        let warm = derive(&input, engine);
        setups.push(start.elapsed());
        state = Some((input, warm));
    }
    let (input, warm) = state.expect("at least one set-up");

    let passes = seconds.max(1) as usize;
    let mut times = Vec::with_capacity(passes);
    let mut sampling = Vec::with_capacity(passes);
    let mut failed = 0;
    for _ in 0..passes {
        let start = Instant::now();
        let out = std::hint::black_box(derive(&input, engine));
        times.push(start.elapsed());
        sampling.push(out.sampling_cost.elapsed);
        failed += check(&input, &out, &warm.estimates);
    }
    let kl = mean_kl(&input, &warm.estimates);
    times.sort();
    sampling.sort();

    let n = input.relation.incomplete_part().len();
    let mut report = Report::new((passes * n) as u64, failed);
    // Per derivation, so that one stalled pass moves the median, not the rate.
    let tuples_per_s = n as f64 / median(&times).as_secs_f64();
    report.setup(&setups);
    report.metric("throughput_per_s", tuples_per_s, "1/s");
    report.metric("p50_ms", ms(median(&times)), "ms");
    // The slow path of a derivation: sampling the multi-missing tuples.
    report.metric("slow_path_ms", ms(median(&sampling)), "ms");
    report.finish_common();
    report.named("derive_tuples_per_s", tuples_per_s, "tuples/s");
    report.named("derive_kl", kl, "nats");
    report.note(format!(
        "{passes} derivations of {n} incomplete tuples ({} single-missing, {} multi-missing) over {} complete; KL {kl:.6} nats",
        input.single.len(),
        input.multi.len(),
        input.relation.complete_part().len(),
    ));
    report
}

/// Reconstructs the stages inside one `derive_probabilistic_db_with_engine`
/// call as child spans of `derive_span`, laid end to end from its start:
/// learning (with mining inside it) and multi-missing inference come from
/// the counters the call returns, single-missing inference from the
/// separate probe `single`. What remains of the call is assembly, whose
/// time in milliseconds is returned.
fn derive_stages(
    rec: &Recorder,
    derive_span: usize,
    out: &DeriveOutput,
    single: Duration,
    infer_name: &str,
) -> f64 {
    let span = rec.span(derive_span);
    let stats = out.model.stats();
    let learn = rec.record(
        "core.model.learn",
        span.start,
        stats.elapsed,
        Some(derive_span),
        span.request,
    );
    rec.record(
        "itemset.mine",
        span.start,
        stats.mining.elapsed,
        Some(learn),
        span.request,
    );
    let at = span.start + stats.elapsed;
    rec.record(
        "core.infer.single",
        at,
        single,
        Some(derive_span),
        span.request,
    );
    let at = at + single;
    rec.record(
        infer_name,
        at,
        out.sampling_cost.elapsed,
        Some(derive_span),
        span.request,
    );
    // Signed: the probe's timing may exceed what the call spent on it.
    ms(out.elapsed) - ms(stats.elapsed + single + out.sampling_cost.elapsed)
}

/// Time of the single-missing `SingleVoting` batch, which both
/// derivations run; probed outside any workload root.
pub fn single_probe(input: &Input, rec: &Recorder) -> Duration {
    let model = learn(input);
    let id = rec.open("probe.core.infer.single", None, 0);
    std::hint::black_box(infer_batch(
        &model,
        &input.single,
        &SingleVoting,
        gibbs().voting,
        input.seed,
    ));
    rec.close(id);
    let span = rec.span(id);
    span.end - span.start
}

/// One traced derivation, under a root span named after its workload.
pub struct Traced {
    pub root: usize,
    pub out: DeriveOutput,
    pub fit: Option<Duration>,
    pub assemble_ms: f64,
}

pub fn traced(
    input: &Input,
    engine: Engine,
    rec: &Recorder,
    single: Duration,
    request: u64,
) -> Traced {
    let (name, infer) = match engine {
        Engine::Dag => ("derive_dag", "core.infer.dag"),
        Engine::Ensemble => ("derive_ensemble", "learn.ensemble.infer"),
    };
    let root = rec.open(name, None, request);
    let (ensemble, fit_time) = match engine {
        Engine::Dag => (None, None),
        Engine::Ensemble => {
            let learn_span = rec.open("core.model.learn", Some(root), request);
            let model = learn(input);
            rec.close(learn_span);
            let at = rec.span(learn_span).start;
            rec.record(
                "itemset.mine",
                at,
                model.stats().mining.elapsed,
                Some(learn_span),
                request,
            );
            let fit_span = rec.open("learn.ensemble.fit", Some(root), request);
            let ensemble = fit(input, &model);
            rec.close(fit_span);
            let span = rec.span(fit_span);
            (Some(ensemble), Some(span.end - span.start))
        }
    };
    let derive_span = rec.open("core.derive", Some(root), request);
    let out = match &ensemble {
        None => derive(input, Engine::Dag),
        Some(ensemble) => derive_with(input, ensemble),
    };
    rec.close(derive_span);
    rec.close(root);
    let assemble_ms = derive_stages(rec, derive_span, &out, single, infer);
    Traced {
        root,
        out,
        fit: fit_time,
        assemble_ms,
    }
}

/// The traced derivations and layer probes; adds the per-layer metrics
/// of the derive family to `report`. `single` is [`single_probe`]'s time.
pub fn layers(input: &Input, rec: &Recorder, single: Duration, report: &mut Report) {
    let voting = gibbs().voting;
    let model = learn(input);
    let dag = traced(input, Engine::Dag, rec, single, 0);
    let ens = traced(input, Engine::Ensemble, rec, single, 1);
    let (dag_out, ens_out) = (&dag.out, &ens.out);

    // DAG structure of the multi-missing workload.
    let build = rec.open("probe.core.infer.dag.build", None, 0);
    let structure = TupleDag::build(&input.multi);
    rec.close(build);
    let components = structure.components();
    let largest = components.iter().map(Vec::len).max().unwrap_or(0);

    // Each ensemble member alone on the tuples the ensemble gives it.
    let mut member_ms = Vec::new();
    for (k, member) in standard_members(&gibbs()).iter().enumerate() {
        let tuples = if member.name() == "single-voting" {
            &input.single
        } else {
            &input.multi
        };
        let name = format!("learn.ensemble.member.{}", member.name());
        let id = rec.open(&format!("probe.{name}"), None, k as u64);
        std::hint::black_box(infer_batch(
            &model,
            tuples,
            member.as_ref(),
            voting,
            input.seed,
        ));
        rec.close(id);
        let span = rec.span(id);
        member_ms.push((name, ms(span.end - span.start)));
    }

    let mut failed = check(input, dag_out, &dag_out.estimates);
    failed += check(input, ens_out, &ens_out.estimates);
    report.attempted += 2 * input.relation.incomplete_part().len() as u64;
    report.failed += failed;

    let stats = dag_out.model.stats();
    let cost = dag_out.sampling_cost;
    report.metric("itemset.mine_ms", ms(stats.mining.elapsed), "ms");
    report.metric(
        "itemset.candidates",
        stats.mining.candidates_generated as f64,
        "count",
    );
    report.metric(
        "itemset.frequent",
        stats.mining.level_counts.iter().sum::<usize>() as f64,
        "count",
    );
    report.metric("core.model.learn_ms", ms(stats.elapsed), "ms");
    report.metric(
        "core.model.meta_rules",
        stats.num_meta_rules as f64,
        "count",
    );
    report.metric("core.infer.single.ms", ms(single), "ms");
    report.metric(
        "core.infer.single.tuples",
        input.single.len() as f64,
        "count",
    );
    report.metric("core.infer.dag.ms", ms(cost.elapsed), "ms");
    report.metric("core.infer.dag.draws", cost.total_draws as f64, "count");
    report.metric(
        "core.infer.dag.burn_in_draws",
        cost.burn_in_draws as f64,
        "count",
    );
    report.metric("core.infer.dag.shared", cost.shared_samples as f64, "count");
    report.metric("core.infer.dag.chains", cost.chains as f64, "count");
    report.metric(
        "core.infer.dag.draws_per_s",
        cost.total_draws as f64 / cost.elapsed.as_secs_f64(),
        "1/s",
    );
    report.metric(
        "core.infer.dag.share",
        cost.shared_samples as f64 / (cost.total_draws + cost.shared_samples).max(1) as f64,
        "fraction",
    );
    report.metric("core.infer.dag.nodes", structure.len() as f64, "count");
    report.metric(
        "core.infer.dag.components",
        components.len() as f64,
        "count",
    );
    report.metric(
        "core.infer.dag.largest_component_share",
        largest as f64 / structure.len().max(1) as f64,
        "fraction",
    );
    report.metric(
        "learn.ensemble.fit_ms",
        ms(ens.fit.expect("ensemble derivations fit")),
        "ms",
    );
    report.metric(
        "learn.ensemble.infer_ms",
        ms(ens_out.sampling_cost.elapsed),
        "ms",
    );
    for (name, value) in member_ms {
        report.metric(&format!("{name}.ms"), value, "ms");
    }
    report.metric("core.derive.assemble_ms", dag.assemble_ms, "ms");
    report.metric("core.derive.kl", mean_kl(input, &dag_out.estimates), "nats");
    report.metric(
        "learn.ensemble.kl",
        mean_kl(input, &ens_out.estimates),
        "nats",
    );
}
