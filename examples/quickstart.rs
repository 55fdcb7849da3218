//! Quickstart: the paper's running example (Fig. 1 / Fig. 2).
//!
//! Loads the 17-tuple matchmaking relation, learns the MRSL model from its
//! complete part, prints the meta-rule semi-lattice for `age`, infers the
//! missing `age` of tuple t1, and derives the full probabilistic database
//! including the `Δt12` block shown in Fig. 1's call-out.
//!
//! Run with: `cargo run --release --example quickstart`

use mrsl_repro::core::{
    derive_probabilistic_db, DeriveConfig, InferContext, LearnConfig, MrslModel, VotingConfig,
};
use mrsl_repro::relation::display::{render_partial, render_relation};
use mrsl_repro::relation::relation::fig1_relation;
use mrsl_repro::relation::{AttrId, PartialTuple};

fn main() {
    // 1. The incomplete relation R of Fig. 1.
    let relation = fig1_relation();
    println!("Incomplete relation R (matchmaking profiles):");
    println!("{}", render_relation(&relation));

    // 2. Learning phase (Algorithm 1): mine Rc, build one MRSL per attribute.
    let learn = LearnConfig {
        support_threshold: 0.05,
        max_itemsets: 1000,
    };
    let model = MrslModel::learn(relation.schema(), relation.complete_part(), &learn);
    println!(
        "Learned MRSL model: {} meta-rules over {} attributes ({} association rules mined)\n",
        model.size(),
        relation.schema().attr_count(),
        model.stats().num_assoc_rules,
    );

    // 3. The MRSL for `age` (the paper's Fig. 2).
    let age = relation.schema().attr_id("age").expect("age attribute");
    let mrsl = model.mrsl(age);
    println!("MRSL for `age` (cf. Fig. 2):");
    for level in 0..=mrsl.max_level() {
        for &id in mrsl.level(level) {
            let rule = mrsl.rule(id);
            let body = if rule.body().is_empty() {
                "P(age)".to_string()
            } else {
                let clauses: Vec<String> = rule
                    .body()
                    .items()
                    .iter()
                    .map(|item| {
                        let attr = relation.schema().attr(item.attr());
                        format!("{}={}", attr.name(), attr.value_label(item.value()))
                    })
                    .collect();
                format!("P(age | {})", clauses.join(" ∧ "))
            };
            let cpd: Vec<String> = rule.cpd().iter().map(|p| format!("{p:.2}")).collect();
            println!("  W={:.2}  {}  = [{}]", rule.weight(), body, cpd.join(", "));
        }
    }
    println!();

    // 4. Single-attribute inference (Algorithm 2) for t1 = ⟨?, HS, 50K, 500K⟩,
    //    the example worked in §I-B.
    let t1 = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
    println!(
        "Inference for t1 = {}:",
        render_partial(relation.schema(), &t1)
    );
    for voting in VotingConfig::table2_order() {
        let cpd = InferContext::new(&model, voting).vote_single(&t1, age);
        let pretty: Vec<String> = cpd.iter().map(|p| format!("{p:.2}")).collect();
        println!(
            "  {:<14} → P(age) = [{}]",
            voting.label(),
            pretty.join(", ")
        );
    }
    println!();

    // 5. Derive the full probabilistic database (the paper's end product).
    //    On this 8-point toy dataset the `best` voters are nearly
    //    deterministic, so we vote with the full ensemble (`all averaged`)
    //    to keep the block distributions soft, and take more samples.
    let config = DeriveConfig {
        learn,
        gibbs: mrsl_repro::core::GibbsConfig {
            burn_in: 200,
            samples: 4000,
            voting: VotingConfig::all_averaged(),
        },
        ..DeriveConfig::default()
    };
    let output = derive_probabilistic_db(&relation, &config);
    println!(
        "Derived disjoint-independent database: {} certain tuples, {} blocks, {} alternatives, {} possible worlds",
        output.db.certain().len(),
        output.db.blocks().len(),
        output.db.alternative_count(),
        output.db.world_count(),
    );

    // 6. The Δt12 block (Fig. 1's call-out): t12 = ⟨30, MS, ?, ?⟩ is the
    //    12th tuple of R and the 7th incomplete one (index 6).
    let t12_block = &output.db.blocks()[6];
    println!("\nΔt12 (t12 = ⟨30, MS, ?, ?⟩), cf. Fig. 1 call-out:");
    let schema = relation.schema();
    for (i, alt) in t12_block.alternatives().iter().enumerate() {
        let rendered: Vec<String> = schema
            .iter()
            .map(|(aid, attr)| attr.value_label(alt.tuple.value(aid)).to_string())
            .collect();
        println!(
            "  t12.{}  ⟨{}⟩  prob {:.2}",
            i + 1,
            rendered.join(", "),
            alt.prob
        );
    }
    let total: f64 = t12_block.alternatives().iter().map(|a| a.prob).sum();
    println!("  (probabilities sum to {total:.2})");

    // Attribute ids referenced above, for the curious reader.
    let _ = AttrId(0);
}
