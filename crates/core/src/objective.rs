//! Objective evaluation: full cost, and exact incremental deltas for single
//! moves and pair swaps (the workhorses of the GFM/GKL baselines).

use crate::{Assignment, ComponentId, Cost, PartitionId, Problem};

/// Evaluates the `PP(α, β)` objective
/// `α·Σ_j p[A(j)][j] + β·Σ_{j1,j2} a[j1][j2]·b[A(j1)][A(j2)]`
/// and its exact deltas under single-component moves and pair swaps.
///
/// All arithmetic is exact `i64`; deltas are verified against full
/// re-evaluation by property tests.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, Assignment, Evaluator,
///                ComponentId, PartitionId};
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut circuit = Circuit::new();
/// let a = circuit.add_component("a", 1);
/// let b = circuit.add_component("b", 1);
/// circuit.add_wires(a, b, 5)?;
/// let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 10)?).build()?;
/// let eval = Evaluator::new(&problem);
///
/// let mut asg = Assignment::from_parts(vec![0, 3])?; // distance 2
/// assert_eq!(eval.cost(&asg), 2 * 5 * 2);
/// let delta = eval.move_delta(&asg, b, PartitionId::new(1)); // distance 1
/// assert_eq!(delta, -(2 * 5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    problem: &'a Problem,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over a problem.
    pub fn new(problem: &'a Problem) -> Self {
        Evaluator { problem }
    }

    /// The problem being evaluated.
    pub fn problem(&self) -> &'a Problem {
        self.problem
    }

    /// The linear term `α·Σ_j p[A(j)][j]`.
    pub fn linear_cost(&self, assignment: &Assignment) -> Cost {
        let p = match self.problem.linear_cost() {
            Some(p) => p,
            None => return 0,
        };
        let alpha = self.problem.alpha();
        (0..self.problem.n())
            .map(|j| alpha * p[(assignment.part_index(j), j)])
            .sum()
    }

    /// The quadratic term `β·Σ_{j1,j2} a[j1][j2]·b[A(j1)][A(j2)]`.
    ///
    /// Note that, as in the paper, the sum runs over *ordered* pairs: a
    /// symmetric wire bundle added with
    /// [`Circuit::add_wires`](crate::Circuit::add_wires) contributes twice
    /// (once per direction).
    pub fn quadratic_cost(&self, assignment: &Assignment) -> Cost {
        let b = self.problem.topology().wire_cost();
        let beta = self.problem.beta();
        let mut total = 0;
        for (j1, j2, w) in self.problem.circuit().edges() {
            total += beta
                * w
                * b[(
                    assignment.part_index(j1.index()),
                    assignment.part_index(j2.index()),
                )];
        }
        total
    }

    /// The full objective `α·linear + β·quadratic`.
    pub fn cost(&self, assignment: &Assignment) -> Cost {
        self.linear_cost(assignment) + self.quadratic_cost(assignment)
    }

    /// Exact change in objective if component `j` moves to partition `to`
    /// (0 when `to` is its current partition).
    ///
    /// Runs in `O(deg(j))`.
    ///
    /// # Panics
    ///
    /// Panics if `j` or `to` is out of range for the problem.
    pub fn move_delta(&self, assignment: &Assignment, j: ComponentId, to: PartitionId) -> Cost {
        let from = assignment.part_index(j.index());
        let to_i = to.index();
        if from == to_i {
            return 0;
        }
        let problem = self.problem;
        let b = problem.topology().wire_cost();
        let beta = problem.beta();
        let mut delta = problem.alpha() * (problem.p(to_i, j.index()) - problem.p(from, j.index()));
        for (k, w) in problem.circuit().out_connections(j) {
            let ik = assignment.part_index(k.index());
            delta += beta * w * (b[(to_i, ik)] - b[(from, ik)]);
        }
        for (k, w) in problem.circuit().in_connections(j) {
            let ik = assignment.part_index(k.index());
            delta += beta * w * (b[(ik, to_i)] - b[(ik, from)]);
        }
        delta
    }

    /// Exact change in objective if components `j1` and `j2` swap partitions
    /// (0 when they share a partition or `j1 == j2`).
    ///
    /// Runs in `O(deg(j1) + deg(j2))`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the problem.
    pub fn swap_delta(&self, assignment: &Assignment, j1: ComponentId, j2: ComponentId) -> Cost {
        if j1 == j2 {
            return 0;
        }
        let i1 = assignment.part_index(j1.index());
        let i2 = assignment.part_index(j2.index());
        if i1 == i2 {
            return 0;
        }
        let problem = self.problem;
        let b = problem.topology().wire_cost();
        let beta = problem.beta();
        let alpha = problem.alpha();

        let mut delta = alpha
            * (problem.p(i2, j1.index()) - problem.p(i1, j1.index())
                + problem.p(i1, j2.index())
                - problem.p(i2, j2.index()));

        // Edges incident to j1 (excluding the j1–j2 pair, handled below).
        for (k, w) in problem.circuit().out_connections(j1) {
            if k == j2 {
                continue;
            }
            let ik = assignment.part_index(k.index());
            delta += beta * w * (b[(i2, ik)] - b[(i1, ik)]);
        }
        for (k, w) in problem.circuit().in_connections(j1) {
            if k == j2 {
                continue;
            }
            let ik = assignment.part_index(k.index());
            delta += beta * w * (b[(ik, i2)] - b[(ik, i1)]);
        }
        // Edges incident to j2 (excluding the pair).
        for (k, w) in problem.circuit().out_connections(j2) {
            if k == j1 {
                continue;
            }
            let ik = assignment.part_index(k.index());
            delta += beta * w * (b[(i1, ik)] - b[(i2, ik)]);
        }
        for (k, w) in problem.circuit().in_connections(j2) {
            if k == j1 {
                continue;
            }
            let ik = assignment.part_index(k.index());
            delta += beta * w * (b[(ik, i1)] - b[(ik, i2)]);
        }
        // The j1–j2 pair itself: endpoints exchange partitions.
        let w12 = problem.circuit().connection(j1, j2);
        if w12 != 0 {
            delta += beta * w12 * (b[(i2, i1)] - b[(i1, i2)]);
        }
        let w21 = problem.circuit().connection(j2, j1);
        if w21 != 0 {
            delta += beta * w21 * (b[(i1, i2)] - b[(i2, i1)]);
        }
        delta
    }

    /// Every move delta of `j` in one walk of its wires: fills `row`
    /// (length `M`) with `row[i] = move_delta(assignment, j, i)`, so
    /// `row[A(j)] = 0`. A `j → k` wire adds column `A(k)` of `B`, read by
    /// index, and a `k → j` wire adds row `A(k)`; the sum is then re-based
    /// at `A(j)`. Runs in `O(deg(j)·M)` with exact `i64` arithmetic, so every
    /// entry equals [`Evaluator::move_delta`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != M` or `j` is out of range.
    pub fn move_delta_row(&self, assignment: &Assignment, j: ComponentId, row: &mut [Cost]) {
        let problem = self.problem;
        let m = problem.m();
        assert_eq!(row.len(), m, "move-delta row length must equal M");
        let jx = j.index();
        let from = assignment.part_index(jx);
        let b = problem.topology().wire_cost();
        // row[i] = Σ_out w·b[i][A(k)] + Σ_in w·b[A(k)][i]: the cost of j's
        // wires with j placed at i.
        row.fill(0);
        for (k, w) in problem.circuit().out_connections(j) {
            let column = b.iter().skip(assignment.part_index(k.index())).step_by(m);
            for (v, &bv) in row.iter_mut().zip(column) {
                *v += w * bv;
            }
        }
        for (k, w) in problem.circuit().in_connections(j) {
            for (v, &bv) in row.iter_mut().zip(b.row(assignment.part_index(k.index()))) {
                *v += w * bv;
            }
        }
        let (alpha, beta) = (problem.alpha(), problem.beta());
        let (base, p_from) = (row[from], problem.p(from, jx));
        for (i, v) in row.iter_mut().enumerate() {
            *v = alpha * (problem.p(i, jx) - p_from) + beta * (*v - base);
        }
    }

    /// Keeps a table of [`Evaluator::move_delta_row`] rows exact across one
    /// committed move. `table` holds row `k` at `k·M..(k+1)·M` for every
    /// component; `assignment` already has `j` in its new partition and
    /// `from` is the partition it left. Only `j` and its wire neighbors have
    /// deltas that depend on `A(j)`:
    ///
    /// - each neighbor row `k` gains the changed wire's term, re-based at
    ///   `k`'s own partition so `D[k][A(k)]` stays 0;
    /// - `j`'s own row becomes `D[j][i] − D[j][A(j)]` (its neighbors did
    ///   not move, so only the reference partition changed).
    ///
    /// A swap is two such moves, each patched with the assignment holding
    /// that mover's new partition. Runs in `O(deg(j)·M)` with exact integer
    /// arithmetic, so a patched row equals a fresh fill bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `table` is shorter than `N·M` or an index is out of range.
    pub fn patch_move_deltas(
        &self,
        assignment: &Assignment,
        j: ComponentId,
        from: PartitionId,
        table: &mut [Cost],
    ) {
        let m = self.problem.m();
        let (from, to) = (from.index(), assignment.part_index(j.index()));
        if from == to {
            return;
        }
        let beta = self.problem.beta();
        let circuit = self.problem.circuit();
        let b = self.problem.topology().wire_cost();
        // A j → k wire prices k at i by b[A(j)][i] (a row of B); a k → j
        // wire by b[i][A(j)] (a column of B, read by index).
        let (row_new, row_old) = (b.row(to), b.row(from));
        for (k, w) in circuit.out_connections(j) {
            let (k, ik) = (k.index(), assignment.part_index(k.index()));
            let change = row_new.iter().zip(row_old).map(|(n, o)| n - o);
            let base = row_new[ik] - row_old[ik];
            shift_row(&mut table[k * m..(k + 1) * m], beta * w, change, base);
        }
        let column = |p: usize| b.iter().skip(p).step_by(m);
        for (k, w) in circuit.in_connections(j) {
            let (k, ik) = (k.index(), assignment.part_index(k.index()));
            let change = column(to).zip(column(from)).map(|(n, o)| n - o);
            let base = b[(ik, to)] - b[(ik, from)];
            shift_row(&mut table[k * m..(k + 1) * m], beta * w, change, base);
        }
        let row = &mut table[j.index() * m..(j.index() + 1) * m];
        let base = row[to];
        for v in row.iter_mut() {
            *v -= base;
        }
    }

    /// The mutual-pair term of a swap between a component in `i1` and one
    /// in `i2` joined by `wm = a[j1][j2] + a[j2][j1]`:
    /// `β·wm·(b[i2][i1] + b[i1][i2] − b[i1][i1] − b[i2][i2])`. It is what
    /// separates a swap from its two single moves, so with `D` a table of
    /// [`Evaluator::move_delta_row`] rows,
    /// `swap_delta(j1, j2) = D[j1][i2] + D[j2][i1] + swap_correction(i1, i2, wm)`
    /// exactly in `i64` — including pairs joined one way only.
    ///
    /// # Panics
    ///
    /// Panics if `i1` or `i2` is out of range for the problem.
    #[inline]
    pub fn swap_correction(&self, i1: PartitionId, i2: PartitionId, wm: Cost) -> Cost {
        let b = self.problem.topology().wire_cost();
        let (i1, i2) = (i1.index(), i2.index());
        self.problem.beta() * wm * (b[(i2, i1)] + b[(i1, i2)] - b[(i1, i1)] - b[(i2, i2)])
    }
}

/// Adds one moved wire's term to a partner's move-delta row: `row[i] +=
/// c·(change[i] − base)`, where `change[i]` is how much the wire's price
/// with the partner at `i` moved, and `base` is that change at the
/// partner's own partition, so the row stays re-based there.
#[inline]
fn shift_row(row: &mut [Cost], c: Cost, change: impl Iterator<Item = Cost>, base: Cost) {
    for (v, d) in row.iter_mut().zip(change) {
        *v += c * (d - base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        deviation_cost_matrix, Circuit, PartitionTopology, ProblemBuilder,
    };

    fn paper_circuit() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("c", 1);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(b, d, 2).unwrap();
        c
    }

    fn paper_problem() -> Problem {
        ProblemBuilder::new(paper_circuit(), PartitionTopology::grid(2, 2, 10).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn quadratic_cost_on_paper_example() {
        let p = paper_problem();
        let eval = Evaluator::new(&p);
        // a→1, b→2, c→3 (0-based: 0, 1, 2): dist(0,1)=1, dist(1,2)=2.
        let asg = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        assert_eq!(eval.quadratic_cost(&asg), 2 * 5 + 2 * (2 * 2));
        assert_eq!(eval.cost(&asg), eval.quadratic_cost(&asg));
        // All together: zero cost.
        let same = Assignment::from_parts(vec![3, 3, 3]).unwrap();
        assert_eq!(eval.cost(&same), 0);
    }

    #[test]
    fn linear_cost_with_deviation_matrix() {
        let circuit = paper_circuit();
        let topo = PartitionTopology::grid(2, 2, 10).unwrap();
        let initial = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        let p = deviation_cost_matrix(&circuit, &topo, &initial).unwrap();
        let problem = ProblemBuilder::new(circuit, topo)
            .linear_cost(p)
            .scales(1, 0)
            .build()
            .unwrap();
        let eval = Evaluator::new(&problem);
        // Staying put costs nothing.
        assert_eq!(eval.cost(&initial), 0);
        // Moving all to the far corner: each pays size * distance.
        let moved = Assignment::from_parts(vec![3, 3, 3]).unwrap();
        assert_eq!(eval.cost(&moved), 2 + 1 + 1);
    }

    #[test]
    fn move_delta_matches_full_recompute() {
        let p = paper_problem();
        let eval = Evaluator::new(&p);
        let asg = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        for j in 0..3 {
            for to in 0..4 {
                let mut moved = asg.clone();
                moved.move_to(ComponentId::new(j), PartitionId::new(to));
                let delta = eval.move_delta(&asg, ComponentId::new(j), PartitionId::new(to));
                assert_eq!(
                    delta,
                    eval.cost(&moved) - eval.cost(&asg),
                    "move c{j} -> p{to}"
                );
            }
        }
    }

    #[test]
    fn swap_delta_matches_full_recompute() {
        let p = paper_problem();
        let eval = Evaluator::new(&p);
        let asg = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        for j1 in 0..3 {
            for j2 in 0..3 {
                let mut swapped = asg.clone();
                swapped.swap(ComponentId::new(j1), ComponentId::new(j2));
                let delta = eval.swap_delta(&asg, ComponentId::new(j1), ComponentId::new(j2));
                assert_eq!(
                    delta,
                    eval.cost(&swapped) - eval.cost(&asg),
                    "swap c{j1} <-> c{j2}"
                );
            }
        }
    }

    #[test]
    fn move_to_same_partition_is_zero() {
        let p = paper_problem();
        let eval = Evaluator::new(&p);
        let asg = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        assert_eq!(eval.move_delta(&asg, ComponentId::new(1), PartitionId::new(1)), 0);
    }

    #[test]
    fn scales_are_applied() {
        let circuit = paper_circuit();
        let topo = PartitionTopology::grid(2, 2, 10).unwrap();
        let initial = Assignment::from_parts(vec![0, 0, 0]).unwrap();
        let p = deviation_cost_matrix(&circuit, &topo, &initial).unwrap();
        let problem = ProblemBuilder::new(circuit, topo)
            .linear_cost(p)
            .scales(3, 2)
            .build()
            .unwrap();
        let eval = Evaluator::new(&problem);
        let asg = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        // linear: b at dist 1, c at dist 1 → α·(1+1) = 6.
        assert_eq!(eval.linear_cost(&asg), 6);
        // quadratic: 2·(5·1 + 2·2) = 18, ×β = 36.
        assert_eq!(eval.quadratic_cost(&asg), 36);
        assert_eq!(eval.cost(&asg), 42);
    }

    #[test]
    fn directed_asymmetric_costs() {
        // A directed connection with an asymmetric B must use b[from][to].
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b_ = c.add_component("b", 1);
        c.add_connection(a, b_, 3).unwrap();
        let bmat = crate::DenseMatrix::from_rows(vec![vec![0, 7], vec![1, 0]]).unwrap();
        let topo = PartitionTopology::new(vec![10, 10], bmat.clone(), bmat).unwrap();
        let problem = ProblemBuilder::new(c, topo).build().unwrap();
        let eval = Evaluator::new(&problem);
        let fwd = Assignment::from_parts(vec![0, 1]).unwrap();
        assert_eq!(eval.cost(&fwd), 3 * 7);
        let rev = Assignment::from_parts(vec![1, 0]).unwrap();
        assert_eq!(eval.cost(&rev), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{Circuit, PartitionTopology, ProblemBuilder};
    use proptest::prelude::*;

    fn arb_problem_and_assignment(
    ) -> impl Strategy<Value = (Problem, Assignment, Vec<(usize, usize)>)> {
        (2usize..8, 2usize..5).prop_flat_map(|(n, m)| {
            let edges = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self loop", |(a, b)| a != b), 1i64..6),
                0..12,
            );
            let parts = proptest::collection::vec(0u32..m as u32, n);
            let moves = proptest::collection::vec((0..n, 0..m), 1..8);
            (Just((n, m)), edges, parts, moves).prop_map(|((n, m), edges, parts, moves)| {
                let mut circuit = Circuit::new();
                for j in 0..n {
                    circuit.add_component(format!("c{j}"), 1 + j as u64);
                }
                for ((a, b), w) in edges {
                    circuit
                        .add_connection(ComponentId::new(a), ComponentId::new(b), w)
                        .unwrap();
                }
                let topo = PartitionTopology::grid(1, m, 10_000).unwrap();
                let problem = ProblemBuilder::new(circuit, topo).build().unwrap();
                let asg = Assignment::from_parts(parts).unwrap();
                (problem, asg, moves)
            })
        })
    }

    /// A committed edit of the move-delta table tests: a single move of
    /// `j` to partition `to`, or a swap of `j` with component `to`.
    type Edit = (bool, usize, usize);

    /// Instances for the move-delta table kernels: mixed one-way and
    /// two-way connections, an asymmetric `B` with a nonzero diagonal (so a
    /// row/column mix-up shows), an optional linear term, and a sequence of
    /// committed moves and swaps.
    fn arb_table_instance() -> impl Strategy<Value = (Problem, Assignment, Vec<Edit>)> {
        (2usize..9, 2usize..6).prop_flat_map(|(n, m)| {
            let edges = proptest::collection::vec(
                (
                    (0..n, 0..n).prop_filter("no self loop", |(a, b)| a != b),
                    1i64..6,
                    proptest::bool::ANY,
                ),
                0..14,
            );
            let b = proptest::collection::vec(0i64..5, m * m);
            let parts = proptest::collection::vec(0u32..m as u32, n);
            let edits = proptest::collection::vec((proptest::bool::ANY, 0..n, 0..n.max(m)), 1..10);
            let linear = (proptest::bool::ANY, 1i64..4);
            (Just((n, m)), edges, b, parts, edits, linear).prop_map(
                |((n, m), edges, b, parts, edits, (linear, alpha))| {
                    let mut circuit = Circuit::new();
                    for j in 0..n {
                        circuit.add_component(format!("c{j}"), 1 + j as u64);
                    }
                    for ((a, b), w, both) in edges {
                        let (a, b) = (ComponentId::new(a), ComponentId::new(b));
                        if both {
                            circuit.add_wires(a, b, w).unwrap();
                        } else {
                            circuit.add_connection(a, b, w).unwrap();
                        }
                    }
                    let rows: Vec<Vec<Cost>> = b.chunks(m).map(<[Cost]>::to_vec).collect();
                    let wire = crate::DenseMatrix::from_rows(rows).unwrap();
                    let topo = PartitionTopology::new(vec![10_000; m], wire.clone(), wire).unwrap();
                    let asg = Assignment::from_parts(parts).unwrap();
                    let mut builder = ProblemBuilder::new(circuit.clone(), topo.clone());
                    if linear {
                        let p = crate::deviation_cost_matrix(&circuit, &topo, &asg).unwrap();
                        builder = builder.linear_cost(p).scales(alpha, 2);
                    }
                    (builder.build().unwrap(), asg, edits)
                },
            )
        })
    }

    /// A fresh `N × M` table of [`Evaluator::move_delta_row`] rows.
    fn fresh_table(eval: &Evaluator<'_>, asg: &Assignment) -> Vec<Cost> {
        let m = eval.problem().m();
        let mut table = vec![0; asg.len() * m];
        for (j, row) in table.chunks_mut(m).enumerate() {
            eval.move_delta_row(asg, ComponentId::new(j), row);
        }
        table
    }

    proptest! {
        #[test]
        fn move_delta_table_stays_exact_across_moves_and_swaps(
            (problem, asg, edits) in arb_table_instance()
        ) {
            let eval = Evaluator::new(&problem);
            let (n, m) = (problem.n(), problem.m());
            let circuit = problem.circuit();
            let mut asg = asg;
            let mut table = fresh_table(&eval, &asg);
            for (is_swap, j, to) in edits {
                let cj = ComponentId::new(j);
                let from = asg.partition_of(cj);
                if is_swap {
                    let cl = ComponentId::new(to % n);
                    let il = asg.partition_of(cl);
                    asg.move_to(cj, il);
                    eval.patch_move_deltas(&asg, cj, from, &mut table);
                    asg.move_to(cl, from);
                    eval.patch_move_deltas(&asg, cl, il, &mut table);
                } else {
                    let to = PartitionId::new(to % m);
                    asg.move_to(cj, to);
                    eval.patch_move_deltas(&asg, cj, from, &mut table);
                }
                // The patched table equals a fresh fill, and every fresh
                // entry equals the per-partition oracle.
                prop_assert_eq!(&table, &fresh_table(&eval, &asg));
                for j in 0..n {
                    for i in 0..m {
                        let (cj, to) = (ComponentId::new(j), PartitionId::new(i));
                        let d = table[j * m + i];
                        prop_assert_eq!(d, eval.move_delta(&asg, cj, to), "D[{}][{}]", j, i);
                    }
                }
                // The swap identity holds for every pair, joined one way,
                // both ways, or not at all.
                for j in 0..n {
                    for l in 0..n {
                        let (cj, cl) = (ComponentId::new(j), ComponentId::new(l));
                        let (ij, il) = (asg.part_index(j), asg.part_index(l));
                        let wm = circuit.connection(cj, cl) + circuit.connection(cl, cj);
                        let corr =
                            eval.swap_correction(PartitionId::new(ij), PartitionId::new(il), wm);
                        let via_table = table[j * m + il] + table[l * m + ij] + corr;
                        let delta = eval.swap_delta(&asg, cj, cl);
                        prop_assert_eq!(delta, via_table, "swap {} {}", j, l);
                    }
                }
            }
        }

        #[test]
        fn move_delta_always_matches_recompute((problem, asg, moves) in arb_problem_and_assignment()) {
            let eval = Evaluator::new(&problem);
            let mut current = asg;
            for (j, to) in moves {
                let j = ComponentId::new(j);
                let to = PartitionId::new(to);
                let before = eval.cost(&current);
                let delta = eval.move_delta(&current, j, to);
                current.move_to(j, to);
                prop_assert_eq!(before + delta, eval.cost(&current));
            }
        }

        #[test]
        fn swap_delta_always_matches_recompute((problem, asg, moves) in arb_problem_and_assignment()) {
            let eval = Evaluator::new(&problem);
            let mut current = asg;
            let n = problem.n();
            for (j, to) in moves {
                let j1 = ComponentId::new(j);
                let j2 = ComponentId::new(to % n);
                let before = eval.cost(&current);
                let delta = eval.swap_delta(&current, j1, j2);
                current.swap(j1, j2);
                prop_assert_eq!(before + delta, eval.cost(&current));
            }
        }

        #[test]
        fn cost_is_nonnegative((problem, asg, _) in arb_problem_and_assignment()) {
            prop_assert!(Evaluator::new(&problem).cost(&asg) >= 0);
        }
    }
}
