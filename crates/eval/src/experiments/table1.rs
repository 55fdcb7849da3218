//! Table I: characteristics of the 20 benchmark networks.
//!
//! Regenerates the table from the reconstructed topologies and flags any
//! deviation from the published figures (domain size and depth must match
//! exactly; average cardinality may deviate ≤ 0.25 for BN1/BN2, see
//! [`mrsl_bayesnet::catalog`]).

use crate::experiments::ExpOptions;
use crate::report::Report;
use mrsl_bayesnet::paper_networks;
use mrsl_util::table::fmt_f;
use mrsl_util::Table;

/// Regenerates Table I.
pub fn run(_opts: &ExpOptions) -> Report {
    let mut table = Table::new([
        "network",
        "num. attrs",
        "avg card",
        "dom. size",
        "depth",
        "paper avg card",
        "match",
    ]);
    let mut deviations = 0usize;
    for net in paper_networks() {
        let t = &net.topology;
        let exact = t.domain_size() == net.paper_domain_size && t.depth() == net.paper_depth;
        let card_close = (t.avg_cardinality() - net.paper_avg_card).abs() <= 0.25 + 1e-9;
        if !(exact && card_close) {
            deviations += 1;
        }
        table.push_row([
            net.name().to_string(),
            t.num_attrs().to_string(),
            fmt_f(t.avg_cardinality(), 1),
            t.domain_size().to_string(),
            t.depth().to_string(),
            fmt_f(net.paper_avg_card, 1),
            if exact && card_close { "yes" } else { "NO" }.to_string(),
        ]);
    }
    Report::new("table1", "Characteristics of 20 Bayesian networks", table).note(format!(
        "{deviations} rows deviate from the published figures (0 expected)"
    ))
}

/// Fig. 7: ASCII sketches of the shaped networks.
pub fn run_fig7(_opts: &ExpOptions) -> Report {
    let shaped = [
        "BN8", "BN9", "BN17", "BN18", "BN13", "BN14", "BN15", "BN16", "BN19", "BN20",
    ];
    let mut table = Table::new(["network", "shape", "sketch"]);
    for name in shaped {
        let net = mrsl_bayesnet::catalog::by_name(name).expect("catalog name");
        let shape = match net.topology.depth() {
            2 => "crown",
            d if d == net.topology.num_attrs() => "line",
            _ => "layered",
        };
        let sketch = net
            .topology
            .describe()
            .lines()
            .skip(1)
            .map(str::trim)
            .collect::<Vec<_>>()
            .join("; ");
        table.push_row([name.to_string(), shape.to_string(), sketch]);
    }
    Report::new(
        "fig7",
        "Properties of a subset of the Bayesian networks",
        table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_twenty_matching_rows() {
        let r = run(&ExpOptions::default());
        assert_eq!(r.table.len(), 20);
        for row in r.table.rows() {
            assert_eq!(row[6], "yes", "network {} deviates", row[0]);
        }
    }

    #[test]
    fn fig7_covers_shaped_networks() {
        let r = run_fig7(&ExpOptions::default());
        assert_eq!(r.table.len(), 10);
        assert!(r.table.rows().iter().any(|row| row[1] == "crown"));
        assert!(r.table.rows().iter().any(|row| row[1] == "line"));
    }
}
