//! §2.2.1 — MCM/TCM partitioning as minimal-deviation reassignment.
//!
//! "The partitioning process starts with an experienced designer manually
//! assigning functional blocks into TCM chip slots. ... It is desirable to
//! reassign some components and remove the constraint violations in a way
//! that causes minimum deviation from the initial assignment."
//!
//! The deviation of a component is `size × Manhattan distance` between its
//! initial and final slots; `PP(1, 0)` with the deviation matrix `P` is
//! exactly this problem.
//!
//! Run with: `cargo run --example mcm_reassignment`

use qbp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3×3 TCM with nine chip slots of 100 area units each.
    let topology = PartitionTopology::grid(3, 3, 100)?;

    // Twelve functional blocks; the designer crammed the hot cluster into
    // the top-left corner, overflowing slot 0.
    let mut circuit = Circuit::new();
    let blocks: Vec<ComponentId> = [
        ("alu", 55u64),
        ("mul", 45),
        ("shift", 30),
        ("sched", 25),
        ("rob", 40),
        ("lsq", 35),
        ("icache", 60),
        ("dcache", 60),
        ("tlb", 20),
        ("decode", 30),
        ("fetch", 25),
        ("retire", 20),
    ]
    .iter()
    .map(|&(name, size)| circuit.add_component(name, size))
    .collect();
    // Pipeline wiring.
    for pair in blocks.windows(2) {
        circuit.add_wires(pair[0], pair[1], 3)?;
    }
    circuit.add_wires(blocks[0], blocks[4], 5)?; // alu ↔ rob
    circuit.add_wires(blocks[6], blocks[9], 4)?; // icache ↔ decode

    // Timing: the ALU–ROB loop and icache–decode path are cycle-limited.
    let mut timing = TimingConstraints::new(circuit.len());
    timing.add_symmetric(blocks[0], blocks[4], 1)?;
    timing.add_symmetric(blocks[6], blocks[9], 2)?;

    // The designer's manual assignment: intuition-driven, with violations.
    let initial = Assignment::from_parts(vec![0, 0, 0, 1, 4, 4, 2, 2, 5, 8, 7, 8])?;
    let report = {
        let plain = ProblemBuilder::new(circuit.clone(), topology.clone())
            .timing(timing.clone())
            .build()?;
        check_feasibility(&plain, &initial)
    };
    println!(
        "designer's assignment: {} capacity violation(s), {} timing violation(s)",
        report.capacity.len(),
        report.timing.len()
    );
    assert!(!report.is_feasible(), "the manual assignment should violate");

    // Build PP(1, 0): minimize total deviation subject to C1 and C2.
    let p = deviation_cost_matrix(&circuit, &topology, &initial)?;
    let problem = ProblemBuilder::new(circuit, topology)
        .timing(timing)
        .linear_cost(p)
        .scales(1, 0)
        .build()?;

    let outcome =
        QbpSolver::new(QbpConfig::default()).solve(&problem, Some(&initial), &mut NoopObserver)?;
    assert!(outcome.feasible, "reassignment must remove all violations");
    println!(
        "repaired: total deviation = {} (size-weighted Manhattan slots moved)",
        outcome.objective
    );
    let mut moved = 0;
    for (j, slot) in outcome.assignment.iter() {
        let was = initial.partition_of(j);
        if was != slot {
            moved += 1;
            let name = problem
                .circuit()
                .component(j)
                .expect("valid id")
                .name()
                .to_string();
            println!("  {name:<8} slot {:>2} -> {:>2}", was.index(), slot.index());
        }
    }
    println!("{moved} of {} blocks moved; the rest stay where the designer put them", problem.n());
    Ok(())
}
