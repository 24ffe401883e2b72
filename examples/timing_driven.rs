//! End-to-end timing-driven flow: derive the pairwise delay limits `D_C`
//! from a cycle-time target with the static-timing substrate (§2: the
//! constraints are "driven by system cycle time and can be derived from the
//! delay equations and intrinsic delay in combinational circuit
//! components"), then partition under them.
//!
//! Run with: `cargo run --example timing_driven`

use qbp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A pipelined datapath: sixteen combinational blocks between register
    // boundaries, wired front to back with some bypasses.
    let mut circuit = Circuit::new();
    let ids: Vec<ComponentId> = (0..16)
        .map(|k| circuit.add_component(format!("stage{k}"), 20 + 5 * (k as u64 % 4)))
        .collect();
    for w in ids.windows(2) {
        circuit.add_connection(w[0], w[1], 4)?; // forward dataflow
    }
    circuit.add_connection(ids[0], ids[5], 2)?; // bypass
    circuit.add_connection(ids[4], ids[11], 2)?; // bypass
    circuit.add_connection(ids[8], ids[15], 2)?; // bypass

    // Intrinsic block delays; the forward chain is the critical path.
    let delays: Vec<Delay> = (0..16).map(|k| 2 + (k % 3) as Delay).collect();
    let dag = CombinationalDag::from_circuit(&circuit, &delays)?;

    // STA at the target cycle time (in the same delay units the partition
    // topology's D matrix uses — one unit per grid hop here).
    let cycle_time = 75;
    let sta = StaReport::zero_routing(&dag, cycle_time)?;
    println!(
        "critical path = {} logic units; cycle target = {cycle_time}; worst slack = {}",
        sta.critical_path,
        sta.worst_slack()
    );

    // Budget the slack over the wires (safe zero-slack distribution) and get
    // the partitioning constraints.
    let timing = SlackBudgeter::new(BudgetPolicy::ZeroSlack).derive(&dag, cycle_time)?;
    println!("{} routing-delay constraints derived:", timing.len());
    for (u, v, dc) in timing.iter().take(6) {
        println!("  {u} -> {v}: at most {dc} hop(s)");
    }
    println!("  ...");

    // Partition onto a 2×4 MCM.
    let topology = PartitionTopology::grid(2, 4, 130)?;
    let problem = ProblemBuilder::new(circuit, topology).timing(timing).build()?;

    let outcome = QbpSolver::new(QbpConfig::default()).solve(&problem, None, &mut NoopObserver)?;
    assert!(outcome.feasible, "the budgeted constraints admit a solution");
    println!(
        "\npartitioned: wire length = {}, all {} timing budgets met",
        outcome.objective,
        problem.timing().len()
    );

    // Double-check with the STA: route every wire at its *realized*
    // inter-partition delay; the design must still meet cycle time. (The
    // zero-slack budgets guarantee this whenever every realized delay is
    // within its budget.)
    let asg = &outcome.assignment;
    let d = problem.topology().delay();
    let routed = StaReport::with_edge_delays(&dag, cycle_time, |u, v| {
        d[(asg.part_index(u), asg.part_index(v))]
    })?;
    println!(
        "post-partition STA: critical path {} <= cycle {} ✓",
        routed.critical_path, cycle_time
    );
    Ok(())
}
