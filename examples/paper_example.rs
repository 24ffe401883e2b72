//! FIG-1 / §3.3: the paper's worked example, reproduced exactly.
//!
//! Three components a, b, c assigned into four partitions arranged as a 2×2
//! array; five wires between a and b, two between b and c; timing limits
//! `D_C(a,b) = D_C(b,c) = 1`; violating entries embedded at penalty 50.
//! This example prints the 12×12 `Q̂` matrix and asserts it equals the table
//! printed in the paper.
//!
//! Run with: `cargo run --example paper_example`

use qbp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut circuit = Circuit::new();
    let a = circuit.add_component("a", 1);
    let b = circuit.add_component("b", 1);
    let c = circuit.add_component("c", 1);
    circuit.add_wires(a, b, 5)?;
    circuit.add_wires(b, c, 2)?;

    // "B and D are just Manhattan distance matrices derived from the
    // locations of the partitions assuming adjacent partitions are distance
    // 1 apart."
    let topology = PartitionTopology::grid(2, 2, 10)?;
    assert_eq!(
        *topology.wire_cost(),
        DenseMatrix::from_rows(vec![
            vec![0, 1, 1, 2],
            vec![1, 0, 2, 1],
            vec![1, 2, 0, 1],
            vec![2, 1, 1, 0],
        ])
        .expect("rectangular"),
    );

    let mut timing = TimingConstraints::new(circuit.len());
    timing.add_symmetric(a, b, 1)?;
    timing.add_symmetric(b, c, 1)?;

    let problem = ProblemBuilder::new(circuit, topology).timing(timing).build()?;
    let q = QMatrix::new(&problem, 50)?;
    let dense = q.dense();

    println!("the paper's Q-hat (rows/cols ordered a1..a4, b1..b4, c1..c4):\n");
    println!("{dense}");

    // The exact table from §3.3 ("-" entries are zeros; p entries are zero
    // because this example has no linear term).
    let expected = DenseMatrix::from_rows(vec![
        vec![0, 0, 0, 0, 0, 5, 5, 50, 0, 0, 0, 0],
        vec![0, 0, 0, 0, 5, 0, 50, 5, 0, 0, 0, 0],
        vec![0, 0, 0, 0, 5, 50, 0, 5, 0, 0, 0, 0],
        vec![0, 0, 0, 0, 50, 5, 5, 0, 0, 0, 0, 0],
        vec![0, 5, 5, 50, 0, 0, 0, 0, 0, 2, 2, 50],
        vec![5, 0, 50, 5, 0, 0, 0, 0, 2, 0, 50, 2],
        vec![5, 50, 0, 5, 0, 0, 0, 0, 2, 50, 0, 2],
        vec![50, 5, 5, 0, 0, 0, 0, 0, 50, 2, 2, 0],
        vec![0, 0, 0, 0, 0, 2, 2, 50, 0, 0, 0, 0],
        vec![0, 0, 0, 0, 2, 0, 50, 2, 0, 0, 0, 0],
        vec![0, 0, 0, 0, 2, 50, 0, 2, 0, 0, 0, 0],
        vec![0, 0, 0, 0, 50, 2, 2, 0, 0, 0, 0, 0],
    ])
    .expect("rectangular");
    assert_eq!(dense, expected, "Q-hat must match the paper's printed table");
    println!("matches the matrix printed in the paper. ✓\n");

    // The paper explains entry (a2, b3) = 50: assigning a to partition 2 and
    // b to partition 3 gives delay D(2,3) = 2 > D_C(a,b) = 1.
    let r1 = PairIndex::from_parts(PartitionId::new(1), a, 4);
    let r2 = PairIndex::from_parts(PartitionId::new(2), b, 4);
    assert_eq!(q.entry(r1, r2), 50);
    println!("entry (a@2, b@3) = 50: D(2,3) = 2 exceeds D_C(a,b) = 1. ✓");

    // Solve the example; the optimum keeps both constrained pairs adjacent.
    let outcome = QbpSolver::new(QbpConfig { iterations: 30, ..Default::default() })
        .solve(&problem, None, &mut NoopObserver)?;
    println!(
        "\nsolved: cost = {} (a→{}, b→{}, c→{}), feasible = {}",
        outcome.objective,
        outcome.assignment.partition_of(a).index() + 1,
        outcome.assignment.partition_of(b).index() + 1,
        outcome.assignment.partition_of(c).index() + 1,
        outcome.feasible,
    );
    // Optimal cost: both bundles at distance ≤ 1; a–b can even share a
    // partition: 2·(5·0 + 2·...) — exhaustively the best is 0 only if all
    // three co-locate, which capacity allows here; verify against brute
    // force.
    assert!(outcome.feasible);
    Ok(())
}
