//! Quickstart: partition a small system onto a 2×2 MCM under capacity and
//! timing constraints, and compare QBP against the interchange baselines.
//!
//! Run with: `cargo run --example quickstart`

use qbp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the circuit: eight functional blocks with silicon-area
    //    demands, wired as two communicating clusters plus a bridge.
    let mut circuit = Circuit::new();
    let cpu = circuit.add_component("cpu", 40);
    let fpu = circuit.add_component("fpu", 30);
    let regs = circuit.add_component("regfile", 15);
    let dec = circuit.add_component("decode", 20);
    let l1 = circuit.add_component("l1cache", 45);
    let l2 = circuit.add_component("l2cache", 60);
    let mmu = circuit.add_component("mmu", 25);
    let bus = circuit.add_component("busif", 10);

    circuit.add_wires(cpu, fpu, 8)?;
    circuit.add_wires(cpu, regs, 12)?;
    circuit.add_wires(cpu, dec, 6)?;
    circuit.add_wires(cpu, l1, 10)?;
    circuit.add_wires(l1, l2, 9)?;
    circuit.add_wires(l1, mmu, 4)?;
    circuit.add_wires(l2, bus, 3)?;
    circuit.add_wires(mmu, bus, 2)?;

    // 2. Describe the partitions: a 2×2 grid of chip slots (B = D =
    //    Manhattan distance), each offering 90 units of area.
    let topology = PartitionTopology::grid(2, 2, 90)?;

    // 3. Timing constraints: the CPU–L1 and L1–L2 paths are cycle-limited to
    //    one hop of routing; CPU–regfile must be co-located or adjacent.
    let mut timing = TimingConstraints::new(circuit.len());
    timing.add_symmetric(cpu, l1, 1)?;
    timing.add_symmetric(l1, l2, 1)?;
    timing.add_symmetric(cpu, regs, 1)?;

    let problem = ProblemBuilder::new(circuit, topology)
        .timing(timing)
        .build()?;

    // 4. Solve with the paper's Quadratic Boolean Programming heuristic.
    let outcome = QbpSolver::new(QbpConfig::default()).solve(&problem, None, &mut NoopObserver)?;
    println!("QBP:  cost = {:4}  feasible = {}", outcome.objective, outcome.feasible);
    for (j, i) in outcome.assignment.iter() {
        let name = problem.circuit().component(j).expect("valid id").name().to_string();
        println!("      {name:<8} -> slot {}", i.index());
    }

    // 5. Compare against the interchange baselines from the same feasible
    //    start.
    let start = outcome.assignment.clone();
    let gfm = GfmSolver::new(GfmConfig::default())
        .solve(&problem, Some(&start), &mut NoopObserver)?;
    let gkl = GklSolver::new(GklConfig::default())
        .solve(&problem, Some(&start), &mut NoopObserver)?;
    println!("GFM:  cost = {:4} (from QBP's solution)", gfm.objective);
    println!("GKL:  cost = {:4} (from QBP's solution)", gkl.objective);

    // 6. Everything returned is violation-free.
    assert!(check_feasibility(&problem, &outcome.assignment).is_feasible());
    assert!(check_feasibility(&problem, &gfm.assignment).is_feasible());
    assert!(check_feasibility(&problem, &gkl.assignment).is_feasible());
    println!("all solutions satisfy C1 (capacity) and C2 (timing)");
    Ok(())
}
