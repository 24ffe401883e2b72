//! Sequential (register-bounded) timing flow on a small SoC-like block
//! diagram with feedback loops: split registers into launch/capture sides,
//! budget every register-to-register stage, and partition onto a 2×2 MCM.
//!
//! Run with: `cargo run --example sequential_soc`

use qbp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Block diagram: a control loop and a datapath loop sharing a bus.
    //
    //   pc(reg) → fetch → decode → exec → wb(reg) → pc   (control loop)
    //   acc(reg) → mul → add → acc                       (MAC loop)
    //   decode → mul (operand dispatch)
    let names = [
        ("pc", 8u64),     // 0: register
        ("fetch", 30),    // 1
        ("decode", 35),   // 2
        ("exec", 45),     // 3
        ("wb", 10),       // 4: register
        ("acc", 12),      // 5: register
        ("mul", 50),      // 6
        ("add", 25),      // 7
    ];
    let mut circuit = Circuit::new();
    let ids: Vec<ComponentId> = names
        .iter()
        .map(|&(n, s)| circuit.add_component(n, s))
        .collect();
    let wire = |c: &mut Circuit, a: usize, b: usize, w: i64| c.add_connection(ids[a], ids[b], w);
    wire(&mut circuit, 0, 1, 4)?;
    wire(&mut circuit, 1, 2, 6)?;
    wire(&mut circuit, 2, 3, 6)?;
    wire(&mut circuit, 3, 4, 4)?;
    wire(&mut circuit, 4, 0, 2)?; // feedback through registers
    wire(&mut circuit, 5, 6, 3)?;
    wire(&mut circuit, 6, 7, 3)?;
    wire(&mut circuit, 7, 5, 3)?; // MAC feedback
    wire(&mut circuit, 2, 6, 2)?; // dispatch

    // Sequential timing graph: same node ids, registers split internally.
    let mut builder = SequentialGraphBuilder::new(ids.len());
    for (node, &(name, _)) in names.iter().enumerate() {
        builder = match name {
            "pc" | "wb" | "acc" => builder.register(node, 1, 1)?,
            "fetch" => builder.delay(node, 3)?,
            "decode" => builder.delay(node, 4)?,
            "exec" => builder.delay(node, 5)?,
            "mul" => builder.delay(node, 6)?,
            "add" => builder.delay(node, 3)?,
            _ => builder,
        };
    }
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 5), (2, 6)] {
        builder = builder.edge(a, b)?;
    }
    let seq = builder.build()?;

    // The loops are legal: register splitting makes the graph a DAG.
    let sta = StaReport::zero_routing(seq.expanded(), 100)?;
    println!(
        "register-to-register critical path: {} delay units",
        sta.critical_path
    );

    // Budget a 20-unit cycle and partition.
    let cycle = 20;
    let timing = seq.derive_constraints(&SlackBudgeter::new(BudgetPolicy::ZeroSlack), cycle)?;
    println!("{} wire budgets at cycle {cycle}:", timing.len());
    for (u, v, dc) in timing.iter() {
        println!(
            "  {:<7}->{:<7} at most {dc} hop(s)",
            names[u.index()].0,
            names[v.index()].0
        );
    }

    let topology = PartitionTopology::grid(2, 2, 130)?;
    let problem = ProblemBuilder::new(circuit, topology).timing(timing).build()?;
    let outcome = QbpSolver::new(QbpConfig::default()).solve(&problem, None, &mut NoopObserver)?;
    assert!(outcome.feasible, "the budgets admit a placement");
    println!("\npartitioned at wire length {}:", outcome.objective);
    for (j, i) in outcome.assignment.iter() {
        println!("  {:<7} -> slot {}", names[j.index()].0, i.index());
    }
    Ok(())
}
