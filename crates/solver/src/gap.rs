//! Generalized Assignment Problem (GAP) heuristic in the style of
//! Martello & Toth's MTHG (*Knapsack Problems*, ch. 7): regret-based greedy
//! construction under several desirability measures, followed by a local
//! improvement phase.
//!
//! The generalized Burkard heuristic solves two GAPs per iteration (STEP 4
//! and STEP 6) over the capacity-feasible solution space `S`; this module is
//! that subproblem solver. Cost vectors arrive in the flattened `y` layout of
//! the paper: `costs[i + j·m]` is the cost of assigning component `j` to
//! partition `i`.

use qbp_core::Size;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A GAP instance view. Costs are borrowed because the QBP loop re-solves
/// GAPs against freshly computed `η`/`h` vectors every iteration.
#[derive(Debug, Clone, Copy)]
pub struct GapInstance<'a> {
    /// Number of partitions (agents).
    pub m: usize,
    /// Number of components (jobs).
    pub n: usize,
    /// Flattened cost vector, `costs[i + j*m]`, length `m·n`.
    pub costs: &'a [f64],
    /// Component sizes, length `n`.
    pub sizes: &'a [Size],
    /// Partition capacities, length `m`.
    pub capacities: &'a [Size],
}

impl<'a> GapInstance<'a> {
    /// Cost of assigning component `j` to partition `i`.
    #[inline]
    fn cost(&self, i: usize, j: usize) -> f64 {
        self.costs[i + j * self.m]
    }

    /// Validates array lengths.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree with `m`/`n`.
    fn validate(&self) {
        assert_eq!(self.costs.len(), self.m * self.n, "costs length");
        assert_eq!(self.sizes.len(), self.n, "sizes length");
        assert_eq!(self.capacities.len(), self.m, "capacities length");
    }
}

/// Result of a GAP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct GapSolution {
    /// Partition index per component.
    pub assignment: Vec<u32>,
    /// Total cost under the instance's cost vector.
    pub cost: f64,
    /// `true` when the assignment respects all capacities. The relaxed
    /// fallback (used only when every greedy variant fails) may return
    /// `false`; callers must check.
    pub feasible: bool,
}

/// Tuning knobs for [`solve_gap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapConfig {
    /// Maximum number of shift-improvement sweeps after construction.
    pub improvement_passes: usize,
    /// Also attempt pairwise swap improvements (quadratic in `n`; off by
    /// default — the QBP loop calls this solver hundreds of times).
    pub swap_improvement: bool,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            improvement_passes: 2,
            swap_improvement: false,
        }
    }
}

/// f64 wrapper ordered by `total_cmp` so it can live in a `BinaryHeap`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The MTHG desirability measures tried by [`solve_gap`], in order. The best
/// feasible construction (after improvement) wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Desirability {
    /// Plain cost `c[i][j]`.
    Cost,
    /// Cost per unit size `c[i][j] / s_j` — prioritizes big components whose
    /// placement costs are consequential.
    CostPerSize,
    /// Negative remaining capacity — feasibility-driven; prefers the
    /// emptiest partition regardless of cost (useful when costs are flat,
    /// e.g. the `B = 0` feasibility phase).
    Slack,
}

/// Best and second-best feasible partitions for job `j` under desirability
/// `d`, given current remaining capacities. `None` when no partition fits.
fn best_two(
    inst: &GapInstance<'_>,
    remaining: &[Size],
    d: Desirability,
    j: usize,
) -> Option<(usize, f64, f64)> {
    let size = inst.sizes[j];
    let mut best: Option<(usize, f64)> = None;
    let mut second = f64::INFINITY;
    for (i, &rem) in remaining.iter().enumerate() {
        if rem < size {
            continue;
        }
        let f = match d {
            Desirability::Cost => inst.cost(i, j),
            Desirability::CostPerSize => inst.cost(i, j) / (size.max(1) as f64),
            Desirability::Slack => -(remaining[i] as f64),
        };
        match best {
            None => best = Some((i, f)),
            Some((_, bf)) if f < bf => {
                second = bf;
                best = Some((i, f));
            }
            Some(_) => second = second.min(f),
        }
    }
    best.map(|(i, f)| (i, f, second))
}

/// Reusable buffers for [`solve_gap_with`]. The QBP loop solves two GAPs per
/// iteration, hundreds of iterations per run; keeping the heap and the
/// working vectors alive across calls makes the subproblem solver
/// allocation-free after warm-up (only the returned assignment is freshly
/// allocated, because callers take ownership of it). Reuse never changes
/// results: every buffer is fully reinitialized per construction.
#[derive(Debug, Clone, Default)]
pub struct GapScratch {
    heap: BinaryHeap<(TotalF64, usize)>,
    remaining: Vec<Size>,
    slots: Vec<Option<u32>>,
    candidate: Vec<u32>,
    best: Vec<u32>,
}

/// MTHG regret-greedy construction under one desirability, writing the
/// assignment into `out` and the post-construction remaining capacities into
/// `remaining`; `false` when some job cannot be placed.
fn mthg_greedy(
    inst: &GapInstance<'_>,
    d: Desirability,
    heap: &mut BinaryHeap<(TotalF64, usize)>,
    remaining: &mut Vec<Size>,
    slots: &mut Vec<Option<u32>>,
    out: &mut Vec<u32>,
) -> bool {
    let n = inst.n;
    remaining.clear();
    remaining.extend_from_slice(inst.capacities);
    slots.clear();
    slots.resize(n, None);
    // Max-heap on regret (second-best minus best); jobs with a single
    // feasible partition get infinite regret and are placed first.
    heap.clear();
    for j in 0..n {
        let Some((_, best, second)) = best_two(inst, remaining, d, j) else {
            return false;
        };
        heap.push((TotalF64(second - best), j));
    }
    let mut placed = 0;
    while placed < n {
        let (TotalF64(cached), j) = heap.pop().expect("heap exhausted before all jobs placed");
        if slots[j].is_some() {
            continue;
        }
        let Some((i, best, second)) = best_two(inst, remaining, d, j) else {
            return false;
        };
        let regret = second - best;
        // Lazy-heap validation: accept only if still at least as urgent as
        // the next candidate; otherwise re-queue with the fresh key.
        let still_max = heap
            .peek()
            .is_none_or(|&(TotalF64(next), _)| regret >= next);
        if regret < cached && !still_max {
            heap.push((TotalF64(regret), j));
            continue;
        }
        slots[j] = Some(i as u32);
        remaining[i] -= inst.sizes[j];
        placed += 1;
    }
    out.clear();
    out.extend(slots.iter().map(|s| s.expect("all jobs placed")));
    true
}

/// Shift-improvement: repeatedly move single components to cheaper feasible
/// partitions. Mutates `assignment` and returns the improved cost.
fn improve_shifts(
    inst: &GapInstance<'_>,
    assignment: &mut [u32],
    remaining: &mut [Size],
    passes: usize,
) {
    for _ in 0..passes {
        let mut changed = false;
        for (j, slot) in assignment.iter_mut().enumerate() {
            let cur = *slot as usize;
            let size = inst.sizes[j];
            let mut best_i = cur;
            let mut best_c = inst.cost(cur, j);
            for (i, &rem) in remaining.iter().enumerate() {
                if i == cur || rem < size {
                    continue;
                }
                let c = inst.cost(i, j);
                if c < best_c {
                    best_c = c;
                    best_i = i;
                }
            }
            if best_i != cur {
                remaining[cur] += size;
                remaining[best_i] -= size;
                *slot = best_i as u32;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Swap-improvement: exchange pairs when it reduces cost and fits.
fn improve_swaps(inst: &GapInstance<'_>, assignment: &mut [u32], remaining: &mut [Size]) {
    for j1 in 0..inst.n {
        for j2 in j1 + 1..inst.n {
            let (i1, i2) = (assignment[j1] as usize, assignment[j2] as usize);
            if i1 == i2 {
                continue;
            }
            let (s1, s2) = (inst.sizes[j1], inst.sizes[j2]);
            // After swap, i1 gains s2 and loses s1 (and vice versa).
            let fits1 = remaining[i1] + s1 >= s2;
            let fits2 = remaining[i2] + s2 >= s1;
            if !fits1 || !fits2 {
                continue;
            }
            let before = inst.cost(i1, j1) + inst.cost(i2, j2);
            let after = inst.cost(i2, j1) + inst.cost(i1, j2);
            if after < before {
                remaining[i1] = remaining[i1] + s1 - s2;
                remaining[i2] = remaining[i2] + s2 - s1;
                assignment[j1] = i2 as u32;
                assignment[j2] = i1 as u32;
            }
        }
    }
}

/// One full MTHG construction + improvement under a single desirability,
/// leaving the result in `scratch.candidate`. Returns its cost, or `None`
/// when the construction strands a job. Pure in `(inst, config, d)` — the
/// scratch is fully reinitialized — which is what lets [`solve_gap_par`] run
/// the lanes on independent scratches concurrently.
fn construct_lane(
    inst: &GapInstance<'_>,
    config: &GapConfig,
    d: Desirability,
    scratch: &mut GapScratch,
) -> Option<f64> {
    let GapScratch {
        heap,
        remaining,
        slots,
        candidate,
        ..
    } = scratch;
    if !mthg_greedy(inst, d, heap, remaining, slots, candidate) {
        return None;
    }
    debug_assert_eq!(
        remaining_after(inst, candidate),
        remaining.iter().map(|&r| r as i128).collect::<Vec<_>>()
    );
    improve_shifts(inst, candidate, remaining, config.improvement_passes);
    if config.swap_improvement {
        improve_swaps(inst, candidate, remaining);
    }
    Some(total_cost(inst, candidate))
}

fn total_cost(inst: &GapInstance<'_>, assignment: &[u32]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .map(|(j, &i)| inst.cost(i as usize, j))
        .sum()
}

fn remaining_after(inst: &GapInstance<'_>, assignment: &[u32]) -> Vec<i128> {
    let mut used = vec![0i128; inst.m];
    for (j, &i) in assignment.iter().enumerate() {
        used[i as usize] += inst.sizes[j] as i128;
    }
    (0..inst.m)
        .map(|i| inst.capacities[i] as i128 - used[i])
        .collect()
}

/// Relaxed fallback when no greedy construction is capacity-feasible:
/// big-to-small, each job to the partition minimizing
/// `(overflow, cost)` lexicographically. The result may violate capacity;
/// its `feasible` flag reflects that.
fn relaxed_fallback(inst: &GapInstance<'_>) -> Vec<u32> {
    let mut order: Vec<usize> = (0..inst.n).collect();
    order.sort_by(|&a, &b| inst.sizes[b].cmp(&inst.sizes[a]));
    let mut remaining: Vec<i128> = inst.capacities.iter().map(|&c| c as i128).collect();
    let mut assignment = vec![0u32; inst.n];
    for j in order {
        let size = inst.sizes[j] as i128;
        let mut best = (i128::MAX, f64::INFINITY, 0usize);
        for (i, &rem) in remaining.iter().enumerate() {
            let overflow = (size - rem).max(0);
            let c = inst.cost(i, j);
            if (overflow, c) < (best.0, best.1) {
                best = (overflow, c, i);
            }
        }
        assignment[j] = best.2 as u32;
        remaining[best.2] -= size;
    }
    assignment
}

/// Solves a GAP instance heuristically: MTHG construction under each
/// desirability measure, shift (and optional swap) improvement, best feasible
/// result wins. Falls back to a relaxed (possibly capacity-violating)
/// assignment when nothing feasible is found — check
/// [`GapSolution::feasible`].
///
/// # Panics
///
/// Panics if the instance's array lengths are inconsistent or any cost is
/// NaN.
pub fn solve_gap(inst: &GapInstance<'_>, config: &GapConfig) -> GapSolution {
    solve_gap_with(inst, config, &mut GapScratch::default())
}

/// [`solve_gap_with`] plus observability: reports the solved subproblem
/// (cost and capacity-feasibility) to `obs` as a
/// [`SubproblemSolved`](qbp_observe::SolveEvent::SubproblemSolved) event
/// tagged with the caller's `iteration`. This is the entry point the
/// Burkard loop's STEP 4/6 use.
///
/// # Panics
///
/// Panics if the instance's array lengths are inconsistent or any cost is
/// NaN.
pub fn solve_gap_observed(
    inst: &GapInstance<'_>,
    config: &GapConfig,
    scratch: &mut GapScratch,
    iteration: usize,
    obs: &mut dyn qbp_observe::SolveObserver,
) -> GapSolution {
    let sol = solve_gap_with(inst, config, scratch);
    obs.on_event(&qbp_observe::SolveEvent::SubproblemSolved {
        iteration,
        kind: qbp_observe::SubproblemKind::Gap,
        cost: sol.cost,
        feasible: sol.feasible,
    });
    sol
}

/// [`solve_gap`] with caller-owned scratch buffers — the allocation-free
/// variant for hot loops. Results are identical to [`solve_gap`] regardless
/// of the scratch's prior contents.
///
/// # Panics
///
/// Panics if the instance's array lengths are inconsistent or any cost is
/// NaN.
pub fn solve_gap_with(
    inst: &GapInstance<'_>,
    config: &GapConfig,
    scratch: &mut GapScratch,
) -> GapSolution {
    inst.validate();
    assert!(
        inst.costs.iter().all(|c| !c.is_nan()),
        "GAP costs must not be NaN"
    );
    let mut best_cost: Option<f64> = None;
    for d in LANES {
        if let Some(cost) = construct_lane(inst, config, d, scratch) {
            if best_cost.is_none_or(|bc| cost < bc) {
                best_cost = Some(cost);
                scratch.best.clear();
                scratch.best.extend_from_slice(&scratch.candidate);
            }
        }
    }
    finish_solution(inst, best_cost, std::mem::take(&mut scratch.best))
}

/// The MTHG desirability lanes in their fixed evaluation order. The winner
/// is always picked by a serial scan in this order (strict `<`), so the
/// result is independent of which thread computed which lane.
const LANES: [Desirability; 3] = [
    Desirability::Cost,
    Desirability::CostPerSize,
    Desirability::Slack,
];

/// Minimum number of jobs before [`solve_gap_par`] fans the desirability
/// lanes out to worker threads; below this, spawn/join overhead dominates
/// the lane work. The gate depends only on the instance (never on the
/// thread budget), and the fan/no-fan decision cannot change results
/// anyway — both paths pick the winner by the same serial in-order scan.
pub(crate) const GAP_PAR_MIN_JOBS: usize = 48;

/// Shared tail of the serial and parallel solvers: package the winning
/// construction, or fall back to the relaxed assignment when every lane
/// stranded a job.
fn finish_solution(
    inst: &GapInstance<'_>,
    best_cost: Option<f64>,
    best: Vec<u32>,
) -> GapSolution {
    match best_cost {
        Some(cost) => GapSolution {
            assignment: best,
            cost,
            feasible: true,
        },
        None => {
            let assignment = relaxed_fallback(inst);
            let feasible = remaining_after(inst, &assignment).iter().all(|&r| r >= 0);
            GapSolution {
                cost: total_cost(inst, &assignment),
                assignment,
                feasible,
            }
        }
    }
}

/// [`solve_gap_with`] with the three desirability lanes fanned across up to
/// `threads` scoped workers. Each lane is an independent pure construction
/// on its own scratch; the winner is reduced serially in lane order with the
/// same strict-`<` rule as the serial loop, so the returned solution is
/// bit-identical to [`solve_gap_with`] for every thread count. The second
/// element of the return value is the number of worker tasks used (`1` =
/// the serial loop ran).
///
/// # Panics
///
/// Panics if the instance's array lengths are inconsistent, any cost is
/// NaN, or a worker panics (the panic is re-raised in lane order).
pub fn solve_gap_par(
    inst: &GapInstance<'_>,
    config: &GapConfig,
    scratch: &mut GapScratch,
    threads: usize,
) -> (GapSolution, usize) {
    let workers = threads.min(LANES.len());
    if workers <= 1 || inst.n < GAP_PAR_MIN_JOBS {
        return (solve_gap_with(inst, config, scratch), 1);
    }
    inst.validate();
    assert!(
        inst.costs.iter().all(|c| !c.is_nan()),
        "GAP costs must not be NaN"
    );
    // One slot per lane; workers claim lanes round-robin by index, so the
    // lane → slot mapping is scheduling-independent.
    let mut lanes: Vec<Option<(f64, Vec<u32>)>> = (0..LANES.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut local = GapScratch::default();
                        let mut out = Vec::new();
                        let mut lane = w;
                        while lane < LANES.len() {
                            let cost = construct_lane(inst, config, LANES[lane], &mut local);
                            out.push((
                                lane,
                                cost.map(|c| (c, std::mem::take(&mut local.candidate))),
                            ));
                            lane += workers;
                        }
                        out
                    }))
                })
            })
            .collect();
        let mut first_panic = None;
        for handle in handles {
            match handle.join().expect("worker catches its own panics") {
                Ok(chunk) => {
                    for (lane, result) in chunk {
                        lanes[lane] = result;
                    }
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    // Serial winner scan in lane order — identical to the serial loop.
    let mut best_cost: Option<f64> = None;
    let mut best: Vec<u32> = Vec::new();
    for (cost, assignment) in lanes.into_iter().flatten() {
        if best_cost.is_none_or(|bc| cost < bc) {
            best_cost = Some(cost);
            best = assignment;
        }
    }
    (finish_solution(inst, best_cost, best), workers)
}

/// [`solve_gap_par`] plus observability: reports the solved subproblem as a
/// [`SubproblemSolved`](qbp_observe::SolveEvent::SubproblemSolved) event,
/// and — when the lanes actually fanned out — a
/// [`ParallelBatch`](qbp_observe::SolveEvent::ParallelBatch) tagged with the
/// GAP phase. Serial executions (`threads <= 1`, or too few jobs) emit no
/// batch event, so serial traces are unchanged.
///
/// # Panics
///
/// Same conditions as [`solve_gap_par`].
pub fn solve_gap_observed_par(
    inst: &GapInstance<'_>,
    config: &GapConfig,
    scratch: &mut GapScratch,
    iteration: usize,
    threads: usize,
    obs: &mut dyn qbp_observe::SolveObserver,
) -> GapSolution {
    let (sol, tasks) = solve_gap_par(inst, config, scratch, threads);
    if tasks > 1 {
        obs.on_event(&qbp_observe::SolveEvent::ParallelBatch {
            iteration,
            phase: qbp_observe::BatchPhase::Gap,
            tasks,
            threads,
        });
    }
    obs.on_event(&qbp_observe::SolveEvent::SubproblemSolved {
        iteration,
        kind: qbp_observe::SubproblemKind::Gap,
        cost: sol.cost,
        feasible: sol.feasible,
    });
    sol
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst<'a>(
        m: usize,
        n: usize,
        costs: &'a [f64],
        sizes: &'a [Size],
        capacities: &'a [Size],
    ) -> GapInstance<'a> {
        GapInstance {
            m,
            n,
            costs,
            sizes,
            capacities,
        }
    }

    #[test]
    fn trivial_single_partition() {
        let costs = [3.0, 1.0];
        let sizes = [2, 2];
        let caps = [10];
        let s = solve_gap(&inst(1, 2, &costs, &sizes, &caps), &GapConfig::default());
        assert!(s.feasible);
        assert_eq!(s.assignment, vec![0, 0]);
        assert_eq!(s.cost, 4.0);
    }

    #[test]
    fn picks_cheap_partitions_when_capacity_allows() {
        // Two components, two partitions; each prefers a different partition.
        // Layout: costs[i + j*m].
        let costs = [0.0, 5.0, 5.0, 0.0];
        let sizes = [1, 1];
        let caps = [10, 10];
        let s = solve_gap(&inst(2, 2, &costs, &sizes, &caps), &GapConfig::default());
        assert!(s.feasible);
        assert_eq!(s.assignment, vec![0, 1]);
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn respects_capacity_over_cost() {
        // Both components want partition 0 but only one fits.
        let costs = [0.0, 10.0, 0.0, 10.0];
        let sizes = [3, 3];
        let caps = [3, 3];
        let s = solve_gap(&inst(2, 2, &costs, &sizes, &caps), &GapConfig::default());
        assert!(s.feasible);
        let mut sorted = s.assignment.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1]);
        assert_eq!(s.cost, 10.0);
    }

    #[test]
    fn regret_prioritizes_constrained_jobs() {
        // Job 1 only fits in partition 0 (size 5 vs caps [5, 2]); job 0 fits
        // anywhere. A naive cheapest-first order could strand job 1.
        let costs = [0.0, 1.0, 0.0, 100.0];
        let sizes = [2, 5];
        let caps = [5, 2];
        let s = solve_gap(&inst(2, 2, &costs, &sizes, &caps), &GapConfig::default());
        assert!(s.feasible);
        assert_eq!(s.assignment[1], 0);
        assert_eq!(s.assignment[0], 1);
    }

    #[test]
    fn infeasible_instance_falls_back_relaxed() {
        let costs = [0.0, 0.0];
        let sizes = [5, 5];
        let caps = [6]; // total 10 > 6
        let s = solve_gap(&inst(1, 2, &costs, &sizes, &caps), &GapConfig::default());
        assert!(!s.feasible);
        assert_eq!(s.assignment, vec![0, 0]);
    }

    #[test]
    fn shift_improvement_reduces_cost() {
        // Greedy by regret may place job 0 in partition 0; after placement a
        // cheaper fit can open. Construct: 3 jobs, shifts should converge to
        // a per-job cheapest feasible configuration.
        let costs = [1.0, 9.0, 1.0, 9.0, 9.0, 1.0];
        let sizes = [2, 2, 2];
        let caps = [4, 4];
        let s = solve_gap(&inst(2, 3, &costs, &sizes, &caps), &GapConfig::default());
        assert!(s.feasible);
        assert_eq!(s.cost, 3.0);
    }

    #[test]
    fn swap_improvement_exchanges_pairs() {
        // Two jobs of different sizes each in the other's ideal partition;
        // only a swap (not single shifts, capacities are tight) fixes it.
        let costs = [0.0, 8.0, 8.0, 0.0];
        let sizes = [4, 4];
        let caps = [4, 4];
        let config = GapConfig {
            improvement_passes: 0,
            swap_improvement: true,
        };
        // Force a bad start by constructing directly.
        let instance = inst(2, 2, &costs, &sizes, &caps);
        let mut assignment = vec![1u32, 0u32];
        let mut remaining = vec![0, 0];
        improve_swaps(&instance, &mut assignment, &mut remaining);
        assert_eq!(assignment, vec![0, 1]);
        let s = solve_gap(&instance, &config);
        assert!(s.feasible);
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn handles_negative_costs() {
        // STEP 6 h-vectors are non-negative in theory, but the solver should
        // not care.
        let costs = [-5.0, 0.0, 0.0, -5.0];
        let sizes = [1, 1];
        let caps = [2, 2];
        let s = solve_gap(&inst(2, 2, &costs, &sizes, &caps), &GapConfig::default());
        assert!(s.feasible);
        assert_eq!(s.cost, -10.0);
    }

    #[test]
    fn parallel_lanes_match_serial_for_any_thread_count() {
        // Big enough (n >= GAP_PAR_MIN_JOBS) that the lanes really fan out.
        let (m, n) = (5usize, 64usize);
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move |range: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % range
        };
        let costs: Vec<f64> = (0..m * n).map(|_| next(100) as f64).collect();
        let sizes: Vec<Size> = (0..n).map(|_| 1 + next(8)).collect();
        let capacities: Vec<Size> = (0..m).map(|_| 60 + next(60)).collect();
        let instance = inst(m, n, &costs, &sizes, &capacities);
        let config = GapConfig::default();
        let serial = solve_gap(&instance, &config);
        for threads in [1usize, 2, 3, 4, 8] {
            let (par, tasks) =
                solve_gap_par(&instance, &config, &mut GapScratch::default(), threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(tasks > 1, threads > 1, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "costs length")]
    fn validates_lengths() {
        let costs = [0.0; 3];
        let sizes = [1, 1];
        let caps = [2, 2];
        let _ = solve_gap(&inst(2, 2, &costs, &sizes, &caps), &GapConfig::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn gap_solutions_marked_feasible_respect_capacity(
            m in 1usize..5,
            n in 1usize..10,
            seed in 0u64..500,
        ) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = move |range: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % range
            };
            let costs: Vec<f64> = (0..m * n).map(|_| next(100) as f64).collect();
            let sizes: Vec<Size> = (0..n).map(|_| 1 + next(20)).collect();
            let capacities: Vec<Size> = (0..m).map(|_| 5 + next(40)).collect();
            let instance = GapInstance { m, n, costs: &costs, sizes: &sizes, capacities: &capacities };
            let s = solve_gap(&instance, &GapConfig::default());
            prop_assert_eq!(s.assignment.len(), n);
            prop_assert!(s.assignment.iter().all(|&i| (i as usize) < m));
            if s.feasible {
                let mut used = vec![0u64; m];
                for (j, &i) in s.assignment.iter().enumerate() {
                    used[i as usize] += sizes[j];
                }
                for i in 0..m {
                    prop_assert!(used[i] <= capacities[i]);
                }
            }
            // Reported cost must match the assignment.
            let recomputed: f64 = s.assignment.iter().enumerate()
                .map(|(j, &i)| costs[i as usize + j * m]).sum();
            prop_assert!((s.cost - recomputed).abs() < 1e-9);
        }
    }
}
