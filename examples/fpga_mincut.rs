//! Multi-FPGA partitioning with the min-cut metric.
//!
//! §2.1: "when B is a matrix of all 1's except all 0's on the main diagonal,
//! this term equals the total number of wire crossings" — the classic
//! multi-FPGA objective (every inter-device wire costs an I/O pin pair,
//! regardless of which devices it connects). This example builds a clustered
//! netlist, partitions it onto four FPGAs with
//! [`PartitionTopology::uniform`], and compares the cut against the
//! baselines.
//!
//! Run with: `cargo run --example fpga_mincut`

use qbp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic netlist with strong clustering: four natural communities
    // of ten blocks, sparse cross-community wiring.
    let mut circuit = Circuit::new();
    let mut ids = Vec::new();
    for c in 0..4 {
        for k in 0..10 {
            ids.push(circuit.add_component(format!("c{c}_b{k}"), 8 + (k as u64 % 5)));
        }
    }
    // Dense intra-community wiring.
    for c in 0..4 {
        for a in 0..10 {
            for b in (a + 1)..10 {
                if (a + b) % 3 == 0 {
                    circuit.add_wires(ids[c * 10 + a], ids[c * 10 + b], 2)?;
                }
            }
        }
    }
    // Sparse bridges between communities.
    for c in 0..4 {
        circuit.add_wires(ids[c * 10], ids[((c + 1) % 4) * 10 + 5], 1)?;
    }

    // Four identical FPGAs; every crossing costs 1 (B = all-ones off
    // diagonal). Logic capacity fits one community plus slack.
    let topology = PartitionTopology::uniform(4, 130)?;
    let problem = ProblemBuilder::new(circuit, topology).build()?;

    let qbp = QbpSolver::new(QbpConfig::default()).solve(&problem, None, &mut NoopObserver)?;
    assert!(qbp.feasible);
    // Each direction of a symmetric wire counts once, so the printed cut is
    // half the quadratic term.
    println!("QBP cut  = {:>3} wire crossings", qbp.objective / 2);

    let start = qbp.assignment.clone();
    let gfm = GfmSolver::new(GfmConfig::default())
        .solve(&problem, Some(&start), &mut NoopObserver)?;
    let gkl = GklSolver::new(GklConfig::default())
        .solve(&problem, Some(&start), &mut NoopObserver)?;
    println!("GFM cut  = {:>3} (polishing QBP's answer)", gfm.objective / 2);
    println!("GKL cut  = {:>3} (polishing QBP's answer)", gkl.objective / 2);

    // With this much structure the communities should be (nearly) recovered:
    // the four bridges are the only unavoidable crossings.
    assert!(
        qbp.objective / 2 <= 8,
        "expected a near-community cut, got {}",
        qbp.objective / 2
    );
    let mut per_device = vec![0u64; 4];
    for (j, i) in qbp.assignment.iter() {
        per_device[i.index()] += problem.circuit().size(j);
    }
    println!("per-FPGA logic usage: {per_device:?} (capacity 130)");
    Ok(())
}
