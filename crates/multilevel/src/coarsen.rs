//! Heavy-edge coarsening for the multilevel V-cycle.
//!
//! One coarsening step pairs strongly connected components by **heavy-edge
//! matching**: components are visited in index order and each unmatched
//! component merges with the unmatched neighbor it shares the most wire
//! weight with (counting both directions). A merged node carries the summed
//! size of its members; pair weights between clusters accumulate; timing
//! constraints fold onto cluster pairs keeping the tightest `D_C`.
//!
//! Matching runs in two stages: a candidate stage computes, per component,
//! its statically admissible merge candidates (same timing class, combined
//! size fits the smallest partition) sorted heaviest-first with ties toward
//! the lower index — the exact total order the greedy maximizes under — and
//! a commit stage walks components in index order committing each unmatched
//! component to the first still-unmatched entry of its list.
//!
//! The matching is **conservative** so that prolongation is exact:
//!
//! * components with distinct *timing classes* (the tightest incident `D_C`
//!   limit, [`NO_CONSTRAINT`] when unconstrained) never merge — a cluster
//!   therefore inherits the tightest limit of its members rather than mixing
//!   budgets of different criticality;
//! * a merged node never outgrows the smallest partition, so every coarse
//!   node still fits anywhere the topology could have placed its members;
//! * coarsening is refused entirely (an empty [`LevelStack`]) unless the
//!   topology's wire-cost and delay diagonals are zero, which is what makes
//!   dropping intra-cluster edges and constraints *exact*: members of a
//!   cluster share a partition, where wires cost `b[i][i] = 0` and delays
//!   are `d[i][i] = 0 ≤ D_C`.
//!
//! Under those rules, for every coarse assignment `A_c` and its prolongation
//! `A_f` (`A_f(j) = A_c(map(j))`): the objectives are **equal** and `A_f` is
//! feasible whenever `A_c` is (see the crate tests, which check both
//! properties by property-based testing).

use qbp_core::{
    Assignment, Circuit, ComponentId, Cost, Delay, PartitionId, Problem, ProblemBuilder,
    NO_CONSTRAINT,
};

/// A stack of coarsening steps, arena-backed: level `0` maps the original
/// problem to the first coarse problem, level `1` maps that one further
/// down, and so on; level `len() - 1` holds the coarsest problem.
///
/// All projection maps live in **one contiguous `u32` arena** (each level is
/// a span of it) instead of one `Vec` per level — a V-cycle at N = 10⁵ with
/// ~10 levels makes one growing allocation rather than ten, the spans pack
/// with zero per-level header overhead, and walking the maps during
/// prolongation is sequential in memory. Levels are addressed by index
/// through [`LevelStack::problem`] / [`LevelStack::map`] /
/// [`LevelStack::prolong`] / [`LevelStack::project`].
#[derive(Debug, Clone, Default)]
pub struct LevelStack {
    /// Coarse problems, finest first.
    problems: Vec<Problem>,
    /// All projection maps, concatenated finest-first.
    arena: Vec<u32>,
    /// `(start, len)` span of each level's map within the arena.
    spans: Vec<(usize, usize)>,
}

impl LevelStack {
    /// Number of coarsening steps.
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// `true` when no coarsening was possible (solve flat instead).
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// The coarse problem produced by step `level`.
    pub fn problem(&self, level: usize) -> &Problem {
        &self.problems[level]
    }

    /// The coarsest problem, when any coarsening happened.
    pub fn coarsest(&self) -> Option<&Problem> {
        self.problems.last()
    }

    /// Step `level`'s projection map: `map(level)[j]` is the coarse
    /// component holding that level's fine component `j`.
    pub fn map(&self, level: usize) -> &[u32] {
        let (start, len) = self.spans[level];
        &self.arena[start..start + len]
    }

    /// Prolongs an assignment of step `level`'s coarse problem onto its
    /// finer side: `fine[j] = coarse[map[j]]`.
    pub fn prolong(&self, level: usize, coarse: &Assignment) -> Assignment {
        let map = self.map(level);
        Assignment::from_fn(map.len(), |j| {
            coarse.partition_of(ComponentId::new(map[j.index()] as usize))
        })
    }

    /// Projects a fine assignment down onto step `level`'s coarse problem:
    /// each cluster takes the partition of its lowest-index member. (Only
    /// used to seed the coarsest solve; the QBP solver accepts infeasible
    /// starts.)
    pub fn project(&self, level: usize, fine: &Assignment) -> Assignment {
        let map = self.map(level);
        let coarse_n = self.problems[level].n();
        let mut part = vec![u32::MAX; coarse_n];
        for (j, &c) in map.iter().enumerate() {
            if part[c as usize] == u32::MAX {
                part[c as usize] = fine.partition_of(ComponentId::new(j)).index() as u32;
            }
        }
        Assignment::from_fn(coarse_n, |c| PartitionId::new(part[c.index()] as usize))
    }

    /// Bytes of heap owned by the map arena and span table (capacity, not
    /// length), for the allocation audit in `perf_snapshot`. Excludes the
    /// coarse problems themselves.
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity() * size_of::<u32>()
            + self.spans.capacity() * size_of::<(usize, usize)>()
    }

    #[cfg(test)]
    fn spans(&self) -> &[(usize, usize)] {
        &self.spans
    }
}

/// Knobs for [`coarsen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarsenOptions {
    /// Upper bound on coarsening steps.
    pub max_levels: usize,
    /// Stop coarsening once a level has at most this many components.
    pub min_size: usize,
}

impl Default for CoarsenOptions {
    fn default() -> Self {
        CoarsenOptions {
            max_levels: 8,
            min_size: 64,
        }
    }
}

/// The timing class of each component: the tightest `D_C` limit incident to
/// it in either direction, [`NO_CONSTRAINT`] when unconstrained. Heavy-edge
/// matching only merges components of equal class.
fn timing_classes(problem: &Problem) -> Vec<Delay> {
    let mut class = vec![NO_CONSTRAINT; problem.n()];
    for (j1, j2, dc) in problem.timing().iter() {
        class[j1.index()] = class[j1.index()].min(dc);
        class[j2.index()] = class[j2.index()].min(dc);
    }
    class
}

/// Whether the topology permits exact coarsening: zero wire-cost and delay
/// diagonals (so intra-cluster wires and constraints vanish exactly once the
/// cluster shares a partition).
fn diagonals_are_zero(problem: &Problem) -> bool {
    let topo = problem.topology();
    let (b, d) = (topo.wire_cost(), topo.delay());
    (0..problem.m()).all(|i| b[(i, i)] == 0 && d[(i, i)] == 0)
}

/// One heavy-edge matching pass over `problem`, writing the projection map
/// into `map` (length `problem.n()`, a span of the caller's arena). Returns
/// the coarser problem, or `None` when the pass could not shrink the problem
/// (no mergeable pair; `map` contents are then unspecified).
fn coarsen_once(problem: &Problem, options: &CoarsenOptions, map: &mut [u32]) -> Option<Problem> {
    let n = problem.n();
    let min_size = options.min_size;
    let circuit = problem.circuit();
    let class = timing_classes(problem);
    // A cluster must still fit in *every* partition so a coarse solve keeps
    // the full placement freedom its members had.
    let size_cap = problem
        .topology()
        .capacities()
        .iter()
        .copied()
        .min()
        .unwrap_or(0);

    // Stage 1: statically admissible merge candidates per component,
    // heaviest first with ties toward the lower index. Admission (timing
    // class, combined size) never looks at match state.
    let mut candidates: Vec<Vec<(Cost, u32)>> = Vec::with_capacity(n);
    for j in 0..n {
        let cj = ComponentId::new(j);
        // Symmetric neighbor weights from both adjacency directions,
        // summed per neighbor by grouping a sorted edge list.
        let mut pairs: Vec<(u32, Cost)> = circuit
            .out_connections(cj)
            .chain(circuit.in_connections(cj))
            .map(|(k, w)| (k.index() as u32, w))
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let mut cands: Vec<(Cost, u32)> = Vec::new();
        let mut idx = 0;
        while idx < pairs.len() {
            let k = pairs[idx].0;
            let mut w: Cost = 0;
            while idx < pairs.len() && pairs[idx].0 == k {
                w += pairs[idx].1;
                idx += 1;
            }
            let ku = k as usize;
            if ku != j
                && class[ku] == class[j]
                && circuit.size(cj) + circuit.size(ComponentId::new(ku)) <= size_cap
            {
                cands.push((w, k));
            }
        }
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        candidates.push(cands);
    }

    // Stage 2: greedy commit in index order. The first still-unmatched
    // entry of a sorted list is exactly the maximum the greedy takes over
    // its unmatched neighbors.
    // match_of[j] = the partner j merged with (or j itself when unmatched).
    let mut match_of: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let mut merges = 0usize;
    for j in 0..n {
        if matched[j] {
            continue;
        }
        if n - merges <= min_size {
            break;
        }
        if let Some(&(_, k)) = candidates[j].iter().find(|&&(_, k)| !matched[k as usize]) {
            let k = k as usize;
            match_of[j] = k as u32;
            match_of[k] = j as u32;
            matched[j] = true;
            matched[k] = true;
            merges += 1;
        }
    }
    if merges == 0 {
        return None;
    }

    // Number clusters in order of their lowest member index.
    map.fill(u32::MAX);
    let mut coarse_n = 0u32;
    for j in 0..n {
        if map[j] != u32::MAX {
            continue;
        }
        map[j] = coarse_n;
        let partner = match_of[j] as usize;
        if partner != j {
            map[partner] = coarse_n;
        }
        coarse_n += 1;
    }

    // Merged circuit: summed sizes, accumulated inter-cluster weights,
    // intra-cluster edges dropped (exact: the diagonal of B is zero).
    let mut sizes = vec![0u64; coarse_n as usize];
    for j in 0..n {
        sizes[map[j] as usize] += circuit.size(ComponentId::new(j));
    }
    let mut coarse_circuit = Circuit::with_capacity(coarse_n as usize);
    for (c, &s) in sizes.iter().enumerate() {
        coarse_circuit.add_component(format!("m{c}"), s);
    }
    for (from, to, w) in circuit.edges() {
        let (cf, ct) = (map[from.index()], map[to.index()]);
        if cf != ct {
            coarse_circuit
                .add_connection(
                    ComponentId::new(cf as usize),
                    ComponentId::new(ct as usize),
                    w,
                )
                .expect("cluster ids are in range and distinct");
        }
    }

    // Timing constraints fold onto cluster pairs keeping the tightest limit
    // (TimingConstraints::add already min-folds duplicates). Intra-cluster
    // constraints drop: the cluster shares a partition, where the delay is
    // the zero diagonal of D and every limit is non-negative.
    let mut coarse_timing = qbp_core::TimingConstraints::new(coarse_n as usize);
    for (j1, j2, dc) in problem.timing().iter() {
        let (c1, c2) = (map[j1.index()], map[j2.index()]);
        if c1 != c2 {
            coarse_timing
                .add(
                    ComponentId::new(c1 as usize),
                    ComponentId::new(c2 as usize),
                    dc,
                )
                .expect("cluster ids are in range and distinct");
        }
    }

    let mut builder = ProblemBuilder::new(coarse_circuit, problem.topology().clone())
        .timing(coarse_timing)
        .scales(problem.alpha(), problem.beta());
    // Linear cost columns sum exactly over cluster members.
    if let Some(p) = problem.linear_cost() {
        let m = problem.m();
        let mut coarse_p = qbp_core::DenseMatrix::filled(m, coarse_n as usize, 0);
        for j in 0..n {
            let c = map[j] as usize;
            for i in 0..m {
                coarse_p[(i, c)] += p[(i, j)];
            }
        }
        builder = builder.linear_cost(coarse_p);
    }
    Some(
        builder
            .build()
            .expect("coarse dimensions agree and total size is preserved"),
    )
}

/// Builds the level stack for `problem` by repeated heavy-edge matching.
///
/// Returns an empty stack when the topology's diagonals are nonzero (exact
/// coarsening impossible — the caller should solve flat), when the problem
/// is already at or below `min_size`, or when no pair may merge under the
/// timing-class and size guards.
pub fn coarsen(problem: &Problem, options: &CoarsenOptions) -> LevelStack {
    let mut stack = LevelStack::default();
    // Fault-injection point: a corrupted matching is *detected* by refusing
    // to coarsen at all — the empty stack makes the V-cycle fall back to a
    // flat solve, trading speed for a result that is still correct.
    if qbp_core::fault::fault_point(qbp_core::fault::POINT_COARSEN).is_corrupt() {
        return stack;
    }
    if !diagonals_are_zero(problem) {
        return stack;
    }
    // Map lengths shrink geometrically (a meaningful pass drops ≥10%, and
    // heavy-edge matching typically halves), so 2·N covers the whole
    // V-cycle's spans in the common case — one arena allocation total.
    stack.arena.reserve(problem.n() * 2);
    loop {
        if stack.len() >= options.max_levels {
            break;
        }
        let fine_n = stack.problems.last().map_or(problem.n(), |p| p.n());
        if fine_n <= options.min_size {
            break;
        }
        // Reserve this level's span at the arena tail; on a failed pass the
        // tail is handed back.
        let start = stack.arena.len();
        stack.arena.resize(start + fine_n, u32::MAX);
        let (arena, problems) = (&mut stack.arena, &stack.problems);
        let fine = problems.last().unwrap_or(problem);
        match coarsen_once(fine, options, &mut arena[start..]) {
            Some(coarse) => {
                // A pass that barely shrinks the problem (under 10%) signals
                // the guards have locked the structure; stop descending.
                let meaningful = coarse.n() * 10 <= fine_n * 9;
                stack.spans.push((start, fine_n));
                stack.problems.push(coarse);
                if !meaningful {
                    break;
                }
            }
            None => {
                stack.arena.truncate(start);
                break;
            }
        }
    }
    stack
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{check_feasibility, Evaluator, PartitionTopology, TimingConstraints};

    fn chain(n: usize, cap: u64) -> Problem {
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..n)
            .map(|j| c.add_component(format!("c{j}"), 1))
            .collect();
        for w in ids.windows(2) {
            c.add_wires(w[0], w[1], 2).unwrap();
        }
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, cap).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn matching_halves_a_chain() {
        let p = chain(16, 16);
        let stack = coarsen(
            &p,
            &CoarsenOptions {
                max_levels: 1,
                min_size: 2,
            },
        );
        assert_eq!(stack.len(), 1);
        assert_eq!(stack.problem(0).n(), 8);
        assert_eq!(stack.map(0).len(), 16);
        // Total size is preserved.
        assert_eq!(stack.problem(0).circuit().total_size(), 16);
    }

    #[test]
    fn prolong_preserves_cost_and_feasibility() {
        let p = chain(12, 12);
        let stack = coarsen(
            &p,
            &CoarsenOptions {
                max_levels: 3,
                min_size: 3,
            },
        );
        assert!(!stack.is_empty());
        let coarse_n = stack.problem(0).n();
        let coarse = Assignment::from_fn(coarse_n, |c| PartitionId::new(c.index() % 4));
        let fine = stack.prolong(0, &coarse);
        let coarse_eval = Evaluator::new(stack.problem(0));
        let fine_eval = Evaluator::new(&p);
        assert_eq!(coarse_eval.cost(&coarse), fine_eval.cost(&fine));
        if check_feasibility(stack.problem(0), &coarse).is_feasible() {
            assert!(check_feasibility(&p, &fine).is_feasible());
        }
    }

    #[test]
    fn distinct_timing_classes_never_merge() {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        c.add_wires(a, b, 100).unwrap();
        let mut tc = TimingConstraints::new(2);
        tc.add(a, b, 1).unwrap(); // both components now share class 1 …
        let p = ProblemBuilder::new(c.clone(), PartitionTopology::grid(2, 2, 4).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        let opts = CoarsenOptions {
            max_levels: 1,
            min_size: 1,
        };
        // … so they merge.
        assert_eq!(coarsen(&p, &opts).len(), 1);

        // Give `b` a tighter incident constraint via a third component: its
        // class now differs from `a`'s, so the heavy a–b edge cannot match.
        let d = c.add_component("d", 1);
        let mut tc = TimingConstraints::new(3);
        tc.add(a, b, 1).unwrap();
        tc.add(b, d, 0).unwrap();
        let p = ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 4).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        let stack = coarsen(&p, &opts);
        for level in 0..stack.len() {
            let map = stack.map(level);
            assert_ne!(map[0], map[1], "a and b must stay separate");
        }
    }

    #[test]
    fn nonzero_diagonal_refuses_to_coarsen() {
        let p = chain(8, 8);
        let m = p.m();
        let b = qbp_core::DenseMatrix::from_fn(m, m, |i, j| if i == j { 1 } else { 2 });
        let topo = p.topology().clone().with_wire_cost(b).unwrap();
        let p2 = ProblemBuilder::new(p.circuit().clone(), topo).build().unwrap();
        assert!(coarsen(&p2, &CoarsenOptions::default()).is_empty());
    }

    #[test]
    fn project_then_prolong_roundtrips_cluster_consistent_assignments() {
        let p = chain(10, 10);
        let stack = coarsen(
            &p,
            &CoarsenOptions {
                max_levels: 1,
                min_size: 2,
            },
        );
        let coarse = Assignment::from_fn(stack.problem(0).n(), |c| PartitionId::new(c.index() % 4));
        let fine = stack.prolong(0, &coarse);
        assert_eq!(stack.project(0, &fine), coarse);
    }

    #[test]
    fn arena_spans_are_contiguous_and_sized_to_each_fine_level() {
        let p = chain(32, 32);
        let stack = coarsen(
            &p,
            &CoarsenOptions {
                max_levels: 4,
                min_size: 2,
            },
        );
        assert!(stack.len() >= 2, "chain(32) should coarsen more than once");
        let mut expected_start = 0;
        let mut fine_n = p.n();
        for (level, &(start, len)) in stack.spans().iter().enumerate() {
            assert_eq!(start, expected_start, "level {level} span not contiguous");
            assert_eq!(len, fine_n, "level {level} span mismatches its fine side");
            // Every map entry lands inside the coarse problem.
            let coarse_n = stack.problem(level).n() as u32;
            assert!(stack.map(level).iter().all(|&c| c < coarse_n));
            expected_start += len;
            fine_n = stack.problem(level).n();
        }
        assert_eq!(expected_start, stack.spans().iter().map(|s| s.1).sum::<usize>());
        assert!(stack.arena_bytes() > 0);
    }
}
