//! Net models: lower one multi-pin netlist under the clique, star and
//! bounded-clique models, partition each lowering, and compare the *net*
//! cut (the metric FPGA flows bill for) across models.
//!
//! The paper's formulation consumes the pairwise `A` matrix; this example
//! shows the modeling step in front of it and why the choice matters for
//! high-fanout nets.
//!
//! Run with: `cargo run --example netlist_models`

use qbp::prelude::*;
use qbp_core::netlist::{NetModel, Netlist};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A design with two tight 8-cell clusters, a few local nets each, and
    // one high-fanout control net spanning everything (clock-enable style).
    let mut netlist = Netlist::new();
    let cells: Vec<ComponentId> = (0..16)
        .map(|k| netlist.add_cell(format!("cell{k}"), 5))
        .collect();
    for cluster in 0..2 {
        let base = cluster * 8;
        for k in 0..7 {
            netlist.add_net(
                format!("local{cluster}_{k}"),
                cells[base + k],
                &[cells[base + k + 1]],
                3,
            )?;
        }
        netlist.add_net(
            format!("bus{cluster}"),
            cells[base],
            &[cells[base + 3], cells[base + 5], cells[base + 7]],
            2,
        )?;
    }
    let (driver, fanout) = (cells[0], &cells[1..]);
    netlist.add_net("ctl_enable", driver, fanout, 1)?;

    println!(
        "{} cells, {} nets (largest has {} pins)\n",
        netlist.cell_count(),
        netlist.net_count(),
        netlist.nets().map(|n| n.pin_count()).max().expect("nets"),
    );
    println!("{:<16}{:>14}{:>12}{:>10}", "model", "pairwise |E|", "wirelen", "net cut");
    for (name, model) in [
        ("clique", NetModel::Clique),
        ("star", NetModel::Star),
        ("bounded(5)", NetModel::BoundedClique(5)),
    ] {
        let circuit = netlist.lower(model)?;
        let pairs = circuit.directed_edge_count();
        let problem =
            ProblemBuilder::new(circuit, PartitionTopology::uniform(2, 48)?).build()?;
        let out = QbpSolver::new(QbpConfig::default()).solve(&problem, None, &mut NoopObserver)?;
        assert!(out.feasible);
        println!(
            "{:<16}{:>14}{:>12}{:>10}",
            name,
            pairs,
            out.objective,
            netlist.net_cut(&out.assignment)
        );
    }
    println!(
        "\nclique and bounded-clique recover the two clusters (net cut = 1:\n\
         only the control net spans devices), but the clique pays with a\n\
         quadratic pairwise blow-up on the 16-pin net. The pure star model\n\
         over-weights that net (one full-weight wire per sink), drags cells\n\
         toward its driver and shreds the clusters — exactly why production\n\
         flows bound the clique size instead of switching to stars wholesale."
    );
    Ok(())
}
