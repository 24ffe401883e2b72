//! Integration of the timing substrate with the partitioner: derive `D_C`
//! from a cycle time, partition, and verify the *routed* design still meets
//! the cycle time — the end-to-end guarantee the zero-slack budgets provide.

use qbp::prelude::*;

/// A two-lane pipelined datapath as a circuit + DAG.
fn datapath(n_stages: usize) -> (Circuit, Vec<Delay>) {
    let mut circuit = Circuit::new();
    let ids: Vec<ComponentId> = (0..n_stages)
        .map(|k| circuit.add_component(format!("s{k}"), 10 + (k as u64 % 3) * 5))
        .collect();
    for w in ids.windows(2) {
        circuit.add_connection(w[0], w[1], 3).expect("forward edge");
    }
    if n_stages > 4 {
        circuit
            .add_connection(ids[0], ids[n_stages / 2], 1)
            .expect("bypass");
    }
    let delays: Vec<Delay> = (0..n_stages).map(|k| 1 + (k % 4) as Delay).collect();
    (circuit, delays)
}

#[test]
fn budgets_guarantee_post_partition_timing_closure() {
    let (circuit, delays) = datapath(12);
    let dag = CombinationalDag::from_circuit(&circuit, &delays).expect("acyclic");
    let cycle_time = 50;
    let timing = SlackBudgeter::new(BudgetPolicy::ZeroSlack)
        .derive(&dag, cycle_time)
        .expect("feasible cycle");
    let topology = PartitionTopology::grid(2, 3, 60).expect("grid");
    let problem = ProblemBuilder::new(circuit, topology)
        .timing(timing)
        .build()
        .expect("problem");
    let outcome = QbpSolver::new(QbpConfig::default())
        .solve(&problem, None, &mut NoopObserver)
        .expect("solve");
    assert!(outcome.feasible, "budgeted constraints admit solutions");
    // Routed STA: inter-partition delay = realized grid distance.
    let asg = &outcome.assignment;
    let d = problem.topology().delay();
    let routed = StaReport::with_edge_delays(&dag, cycle_time, |u, v| {
        d[(asg.part_index(u), asg.part_index(v))]
    });
    assert!(
        routed.is_ok(),
        "safe budgets: any budget-respecting placement meets cycle time"
    );
}

#[test]
fn window_budgets_are_looser_than_zero_slack() {
    let (circuit, delays) = datapath(10);
    let dag = CombinationalDag::from_circuit(&circuit, &delays).expect("acyclic");
    let cycle = 40;
    let window = SlackBudgeter::new(BudgetPolicy::Window)
        .derive(&dag, cycle)
        .expect("feasible");
    let zs = SlackBudgeter::new(BudgetPolicy::ZeroSlack)
        .derive(&dag, cycle)
        .expect("feasible");
    assert_eq!(window.len(), zs.len());
    for (u, v, w_limit) in window.iter() {
        let z_limit = zs.get(u, v).expect("same edge set");
        assert!(
            w_limit >= z_limit,
            "window budget {w_limit} < zero-slack {z_limit} on {u}->{v}"
        );
    }
}

#[test]
fn infeasible_cycle_time_is_reported_before_partitioning() {
    let (circuit, delays) = datapath(12);
    let dag = CombinationalDag::from_circuit(&circuit, &delays).expect("acyclic");
    let critical = StaReport::zero_routing(&dag, 10_000).expect("slack").critical_path;
    let err = SlackBudgeter::default().derive(&dag, critical - 1);
    assert!(matches!(
        err,
        Err(TimingError::InfeasibleCycleTime { .. })
    ));
}

#[test]
fn tighter_cycle_time_means_tighter_budgets() {
    // Budgets shrink monotonically (edge-wise) as the cycle target tightens;
    // the partitioner stays feasible at every level. (Final *costs* are not
    // asserted monotone — heuristics can get lucky under tighter guidance.)
    let (circuit, delays) = datapath(12);
    let dag = CombinationalDag::from_circuit(&circuit, &delays).expect("acyclic");
    let critical = StaReport::zero_routing(&dag, 10_000).expect("ok").critical_path;
    let mut last_budgets: Option<TimingConstraints> = None;
    for extra in [12, 4, 1] {
        let timing = SlackBudgeter::default()
            .derive(&dag, critical + extra)
            .expect("feasible");
        if let Some(prev) = &last_budgets {
            // Per-edge shares can shift between runs (the remainder sweep is
            // greedy), but the *total* distributed routing slack must shrink
            // with the cycle target.
            let total: Delay = timing.iter().map(|(_, _, dc)| dc).sum();
            let prev_total: Delay = prev.iter().map(|(_, _, dc)| dc).sum();
            assert!(
                total <= prev_total,
                "total budget grew as the cycle tightened ({total} > {prev_total})"
            );
        }
        // Generous capacity: with near-zero budgets the whole chain may be
        // forced into one partition.
        let topology = PartitionTopology::grid(2, 3, 200).expect("grid");
        let problem = ProblemBuilder::new(circuit.clone(), topology)
            .timing(timing.clone())
            .build()
            .expect("problem");
        let outcome = QbpSolver::new(QbpConfig {
            iterations: 150,
            ..QbpConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .expect("solve");
        assert!(outcome.feasible, "extra slack {extra}");
        last_budgets = Some(timing);
    }
}
