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
//!
//! Each solve ranks every job's partitions by cost once; the three
//! constructions and the shift pass read that rank instead of scanning all
//! partitions per decision, and reach exactly the decisions such scans make
//! (docs/ALGORITHM.md §4 gives the tie rules). The Slack construction reads
//! no cost at all, so a reused [`GapScratch`] remembers it across calls on
//! the same sizes and capacities.

use qbp_core::Size;
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

/// Reusable buffers for [`solve_gap_with`]. The QBP loop solves two GAPs per
/// iteration, hundreds of iterations per run; keeping the rank, the queue
/// and the working vectors alive across calls makes the subproblem solver
/// allocation-free after warm-up (only the returned assignment is freshly
/// allocated, because callers take ownership of it). Reuse never changes
/// results: every working buffer is reinitialized per call, and the one
/// thing kept across calls, the Slack lane's construction, is reused only
/// for an instance with the same sizes and capacities, the only inputs it
/// reads.
#[derive(Debug, Clone, Default)]
pub struct GapScratch {
    /// Each job's partitions ordered by `(cost, index)`:
    /// `rank[j·m..(j+1)·m]`. Built once per call, shared by every lane and
    /// the shift pass.
    rank: Vec<u32>,
    /// `build_rank`'s per-job tallies.
    below: Vec<usize>,
    taken: Vec<u32>,
    /// Per job, the first rank position that may still fit it (the Cost and
    /// CostPerSize lanes).
    cursor: Vec<u32>,
    queue: RegretQueue,
    remaining: Vec<Size>,
    candidate: Vec<u32>,
    best: Vec<u32>,
    slack: SlackMemo,
}

/// The Slack lane's last MTHG construction, keyed by the sizes and
/// capacities it ran on. The construction reads nothing else — no cost,
/// no rank — so any instance with the same sizes and capacities gets the
/// same assignment and post-construction capacities, or strands a job the
/// same way.
#[derive(Debug, Clone, Default)]
struct SlackMemo {
    /// `false` until the first construction is stored.
    built: bool,
    sizes: Vec<Size>,
    capacities: Vec<Size>,
    /// Whether the construction placed every job; `assignment` and
    /// `remaining` are its result when it did.
    placed: bool,
    assignment: Vec<u32>,
    remaining: Vec<Size>,
}

impl SlackMemo {
    /// Whether the stored construction is `inst`'s.
    fn holds(&self, inst: &GapInstance<'_>) -> bool {
        self.built && self.sizes == inst.sizes && self.capacities == inst.capacities
    }

    /// The Slack construction for `inst`, written into `out` and
    /// `remaining` as [`mthg_greedy`] writes it: copied when the memo holds
    /// this instance's sizes and capacities, built and stored otherwise.
    fn construct(
        &mut self,
        inst: &GapInstance<'_>,
        rank: &[u32],
        cursor: &mut Vec<u32>,
        queue: &mut RegretQueue,
        remaining: &mut Vec<Size>,
        out: &mut Vec<u32>,
    ) -> bool {
        if !self.holds(inst) {
            let d = Desirability::Slack;
            self.placed = mthg_greedy(inst, d, rank, cursor, queue, remaining, out);
            self.built = true;
            inst.sizes.clone_into(&mut self.sizes);
            inst.capacities.clone_into(&mut self.capacities);
            self.assignment.clone_from(out);
            self.remaining.clone_from(remaining);
        } else if self.placed {
            out.clone_from(&self.assignment);
            remaining.clone_from(&self.remaining);
        }
        self.placed
    }
}

impl GapScratch {
    /// Ranks each job's partitions by `(cost, index)`, costs compared as
    /// numbers (so `-0.0` and `+0.0` tie). Partition `i` belongs after the
    /// `below[i]` partitions costing less than it — a branch-free count,
    /// `O(M²)` per job like an insertion sort — and equal costs fill their
    /// slots in index order (`taken` counts the slots already filled).
    fn build_rank(&mut self, inst: &GapInstance<'_>) {
        let GapScratch {
            rank, below, taken, ..
        } = self;
        let m = inst.m;
        rank.clear();
        rank.resize(inst.n * m, 0);
        for j in 0..inst.n {
            let costs = &inst.costs[j * m..(j + 1) * m];
            below.clear();
            below.extend(
                costs
                    .iter()
                    .map(|&c| costs.iter().map(|&x| usize::from(x < c)).sum::<usize>()),
            );
            taken.clear();
            taken.resize(m, 0);
            let row = &mut rank[j * m..(j + 1) * m];
            for (i, &slot) in below.iter().enumerate() {
                row[slot + taken[slot] as usize] = i as u32;
                taken[slot] += 1;
            }
        }
    }
}

/// A regret-queue entry: the regret's bits mapped so that unsigned order is
/// [`f64::total_cmp`] order, above the job index. Entries compare exactly
/// as `(regret, job)` pairs do under `total_cmp`.
fn queue_entry(regret: f64, j: usize) -> u128 {
    let bits = regret.to_bits();
    let key = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(key) << 64 | j as u128
}

/// The regret and job of a [`queue_entry`].
fn queue_parts(entry: u128) -> (f64, usize) {
    let key = (entry >> 64) as u64;
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    (f64::from_bits(bits), entry as u64 as usize)
}

/// The MTHG regret queue: the initial entries sorted once into a run
/// consumed from its largest end, merged with a max-heap of re-queued
/// jobs. Every job has exactly one live entry, so entries are distinct and
/// popping the larger front yields exactly the sequence one max-heap over
/// all entries would.
#[derive(Debug, Clone, Default)]
struct RegretQueue {
    run: Vec<u128>,
    side: BinaryHeap<u128>,
}

impl RegretQueue {
    fn reset(&mut self) {
        self.run.clear();
        self.side.clear();
    }

    /// Sorts the initial entries pushed onto `run`.
    fn seal(&mut self) {
        self.run.sort_unstable();
    }

    fn peek(&self) -> Option<u128> {
        self.run.last().max(self.side.peek()).copied()
    }

    fn pop(&mut self) -> Option<u128> {
        if self.run.last() > self.side.peek() {
            self.run.pop()
        } else {
            self.side.pop()
        }
    }

    fn push(&mut self, entry: u128) {
        self.side.push(entry);
    }
}

/// Best and second-best feasible partitions for a job under a cost lane,
/// read off its rank row from its cursor: the desirability is `q(c)` (`c`
/// for Cost, `c / max(size, 1)` for CostPerSize). The answer is the one a
/// scan of all partitions in index order gives — the lowest index among the
/// feasible partitions of least desirability, that value, and the least
/// value among the other feasible partitions (taken from the lowest-index
/// one, which fixes the sign of a zero). `None` when no partition fits.
///
/// Capacities only shrink during a construction, so a partition that no
/// longer fits never fits again: the cursor skips it for good.
fn ranked_best_two(
    costs: &[f64],
    row: &[u32],
    cursor: &mut u32,
    remaining: &[Size],
    size: Size,
    q: impl Fn(f64) -> f64 + Copy,
) -> Option<(usize, f64, f64)> {
    let fits = |i: usize| remaining[i] >= size;
    let skip = row[*cursor as usize..]
        .iter()
        .take_while(|&&i| !fits(i as usize))
        .count();
    *cursor += skip as u32;
    let mut feasible = row[*cursor as usize..]
        .iter()
        .map(|&i| i as usize)
        .filter(|&i| fits(i));
    let head = feasible.next()?;
    let (best, tied, after) = tied_run(costs, q, head, &mut feasible);
    let second = match (tied, after) {
        (Some(i), _) => q(costs[i]),
        (None, Some(next)) => q(costs[tied_run(costs, q, next, &mut feasible).0]),
        (None, None) => f64::INFINITY,
    };
    Some((best, q(costs[best]), second))
}

/// Consumes, from `rest` (feasible partitions in rank order), the run of
/// partitions whose desirability `q(c)` equals `head`'s. Returns the run's
/// lowest and second-lowest partition index, and the first partition past
/// the run when the run has no second member.
///
/// Along the rank `q(c)` never decreases, and partitions of equal cost sit
/// in index order. Two different costs share a quotient only when rounding
/// merges them; when no costlier partition can round to `head`'s quotient,
/// the run is one equal-cost block and its first two members are its lowest
/// two indices.
fn tied_run(
    costs: &[f64],
    q: impl Fn(f64) -> f64,
    head: usize,
    rest: &mut impl Iterator<Item = usize>,
) -> (usize, Option<usize>, Option<usize>) {
    let target = q(costs[head]);
    let merges = target.is_finite() && q(costs[head].next_up()) == target;
    let (mut low, mut second) = (head, None);
    for i in rest {
        if q(costs[i]) != target {
            return (low, second, Some(i));
        }
        if i < low {
            second = Some(low);
            low = i;
        } else if second.is_none_or(|s| i < s) {
            second = Some(i);
        }
        if !merges {
            break;
        }
    }
    (low, second, None)
}

/// The partitions with the most remaining capacity among those with at
/// least `size` left, ordered as the Slack lane's scan orders them: the
/// lowest index among the largest `remaining as f64`, then a partition
/// holding the largest value among the rest.
fn slack_top(remaining: &[Size], size: Size) -> Option<(usize, Option<usize>)> {
    let mut top: Option<(usize, f64)> = None;
    let mut next: Option<(usize, f64)> = None;
    for (i, &rem) in remaining.iter().enumerate() {
        if rem < size {
            continue;
        }
        let g = rem as f64;
        match top {
            Some((_, best)) if g <= best => {
                if next.is_none_or(|(_, runner_up)| g > runner_up) {
                    next = Some((i, g));
                }
            }
            _ => {
                next = top;
                top = Some((i, g));
            }
        }
    }
    top.map(|(a, _)| (a, next.map(|(b, _)| b)))
}

/// Best and second-best feasible partitions for a job of `size` under the
/// Slack lane, from `top` (the [`slack_top`] of all partitions). When both
/// fit, they are the answer; otherwise the feasible partitions are scanned.
fn slack_best_two(
    remaining: &[Size],
    top: Option<(usize, Option<usize>)>,
    size: Size,
) -> Option<(usize, f64, f64)> {
    let fits = |i: usize| remaining[i] >= size;
    let (a, b) = match top? {
        (a, b) if fits(a) && b.is_none_or(fits) => (a, b),
        _ => slack_top(remaining, size)?,
    };
    let f = |i: usize| -(remaining[i] as f64);
    Some((a, f(a), b.map_or(f64::INFINITY, f)))
}

/// One lane's view of a construction in progress: answers best-two queries
/// for its desirability.
struct Lane<'s> {
    inst: &'s GapInstance<'s>,
    d: Desirability,
    rank: &'s [u32],
    cursor: &'s mut [u32],
    /// The Slack lane's [`slack_top`], refreshed after every placement.
    top: Option<(usize, Option<usize>)>,
}

impl Lane<'_> {
    fn best_two(&mut self, j: usize, remaining: &[Size]) -> Option<(usize, f64, f64)> {
        let (m, size) = (self.inst.m, self.inst.sizes[j]);
        let costs = &self.inst.costs[j * m..(j + 1) * m];
        let row = &self.rank[j * m..(j + 1) * m];
        let cursor = &mut self.cursor[j];
        match self.d {
            Desirability::Cost => ranked_best_two(costs, row, cursor, remaining, size, |c| c),
            Desirability::CostPerSize => {
                let div = size.max(1) as f64;
                ranked_best_two(costs, row, cursor, remaining, size, |c| c / div)
            }
            Desirability::Slack => slack_best_two(remaining, self.top, size),
        }
    }

    fn placed(&mut self, remaining: &[Size]) {
        if self.d == Desirability::Slack {
            self.top = slack_top(remaining, 0);
        }
    }
}

/// MTHG regret-greedy construction under one desirability, writing the
/// assignment into `out` and the post-construction remaining capacities into
/// `remaining`; `false` when some job cannot be placed.
fn mthg_greedy(
    inst: &GapInstance<'_>,
    d: Desirability,
    rank: &[u32],
    cursor: &mut Vec<u32>,
    queue: &mut RegretQueue,
    remaining: &mut Vec<Size>,
    out: &mut Vec<u32>,
) -> bool {
    let n = inst.n;
    remaining.clear();
    remaining.extend_from_slice(inst.capacities);
    cursor.clear();
    cursor.resize(n, 0);
    let mut lane = Lane {
        inst,
        d,
        rank,
        cursor,
        top: slack_top(remaining, 0),
    };
    // Max-queue on regret (second-best minus best); jobs with a single
    // feasible partition get infinite regret and are placed first.
    queue.reset();
    for j in 0..n {
        let Some((_, best, second)) = lane.best_two(j, remaining) else {
            return false;
        };
        queue.run.push(queue_entry(second - best, j));
    }
    queue.seal();
    out.clear();
    out.resize(n, 0);
    let mut placed = 0;
    while placed < n {
        let (cached, j) = queue_parts(queue.pop().expect("one queue entry per unplaced job"));
        let Some((i, best, second)) = lane.best_two(j, remaining) else {
            return false;
        };
        let regret = second - best;
        // Lazy validation: accept only if still at least as urgent as the
        // next candidate; otherwise re-queue with the fresh key.
        let still_max = queue
            .peek()
            .is_none_or(|next| regret >= queue_parts(next).0);
        if regret < cached && !still_max {
            queue.push(queue_entry(regret, j));
            continue;
        }
        out[j] = i as u32;
        remaining[i] -= inst.sizes[j];
        lane.placed(remaining);
        placed += 1;
    }
    true
}

/// Shift-improvement: up to `passes` sweeps that move each component to the
/// cheapest partition that fits it (lowest index on ties) when that is
/// strictly cheaper than its current one. Mutates `assignment` and
/// `remaining` in place. Each component's walk down its rank stops at the
/// first partition that is not strictly cheaper than its current one.
fn improve_shifts(
    inst: &GapInstance<'_>,
    rank: &[u32],
    assignment: &mut [u32],
    remaining: &mut [Size],
    passes: usize,
) {
    let m = inst.m;
    for _ in 0..passes {
        let mut changed = false;
        for (j, slot) in assignment.iter_mut().enumerate() {
            let cur = *slot as usize;
            let size = inst.sizes[j];
            let costs = &inst.costs[j * m..(j + 1) * m];
            let target = rank[j * m..(j + 1) * m]
                .iter()
                .map(|&i| i as usize)
                .take_while(|&i| costs[i] < costs[cur])
                .find(|&i| remaining[i] >= size);
            if let Some(i) = target {
                remaining[cur] += size;
                remaining[i] -= size;
                *slot = i as u32;
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
/// when the construction strands a job. Reads `scratch.rank`, which must be
/// built for `inst`; the lane's own buffers are fully reinitialized, and the
/// Slack lane's construction comes from `scratch.slack` when it holds this
/// instance's sizes and capacities.
fn construct_lane(
    inst: &GapInstance<'_>,
    config: &GapConfig,
    d: Desirability,
    scratch: &mut GapScratch,
) -> Option<f64> {
    let GapScratch {
        rank,
        cursor,
        queue,
        remaining,
        candidate,
        slack,
        ..
    } = scratch;
    let placed = match d {
        Desirability::Slack => slack.construct(inst, rank, cursor, queue, remaining, candidate),
        _ => mthg_greedy(inst, d, rank, cursor, queue, remaining, candidate),
    };
    if !placed {
        return None;
    }
    debug_assert_eq!(
        remaining_after(inst, candidate),
        remaining.iter().map(|&r| r as i128).collect::<Vec<_>>()
    );
    improve_shifts(inst, rank, candidate, remaining, config.improvement_passes);
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
    scratch.build_rank(inst);
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
/// is the first lane with the strictly least cost.
const LANES: [Desirability; 3] = [
    Desirability::Cost,
    Desirability::CostPerSize,
    Desirability::Slack,
];

/// Packages the winning construction, or falls back to the relaxed
/// assignment when every lane stranded a job.
fn finish_solution(inst: &GapInstance<'_>, best_cost: Option<f64>, best: Vec<u32>) -> GapSolution {
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

#[cfg(test)]
mod reference {
    //! The MTHG construction and shift pass as they were before the rank:
    //! every pop re-runs `best_two` over all `M` partitions, every shift
    //! scans all of them. Kept verbatim as the reference the rank-based
    //! lanes must match bit for bit.

    use super::{
        finish_solution, improve_swaps, remaining_after, total_cost, Desirability, GapConfig,
        GapInstance, GapSolution, LANES,
    };
    use qbp_core::Size;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

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
    pub(super) struct GapScratch {
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

    /// One full MTHG construction + improvement under a single desirability,
    /// leaving the result in `scratch.candidate`. Returns its cost, or `None`
    /// when the construction strands a job. Pure in `(inst, config, d)` — the
    /// scratch is fully reinitialized.
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

    /// One lane's construction and improvement on a fresh scratch: its cost
    /// and assignment, or `None` when it strands a job.
    pub(super) fn lane(
        inst: &GapInstance<'_>,
        config: &GapConfig,
        d: Desirability,
    ) -> Option<(f64, Vec<u32>)> {
        let mut scratch = GapScratch::default();
        construct_lane(inst, config, d, &mut scratch).map(|cost| (cost, scratch.candidate))
    }

    /// [`solve_gap`] with caller-owned scratch buffers — the allocation-free
    /// variant for hot loops. Results are identical to [`solve_gap`] regardless
    /// of the scratch's prior contents.
    ///
    /// # Panics
    ///
    /// Panics if the instance's array lengths are inconsistent or any cost is
    /// NaN.
    pub(super) fn solve_gap_with(
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

    /// Deterministic stream for the instance generators (seeded LCG).
    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        move |range: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % range
        }
    }

    /// One drawn instance: `(m, costs, sizes, capacities)`.
    type Drawn = (usize, Vec<f64>, Vec<Size>, Vec<Size>);

    /// A random instance shaped to reach the rank lanes' edge cases: costs
    /// with duplicates, signed zeros, quotients that rounding merges
    /// (costs spaced 2 apart just under 2⁵⁴, over sizes 3 or 7), ±∞, or
    /// plain reals; zero-size jobs; and capacities from loose down to tight
    /// enough that lanes strand and the relaxed fallback runs.
    fn draw_instance(seed: u64) -> Drawn {
        let mut next = lcg(seed);
        let m = [1usize, 2, 5, 16, 40][next(5) as usize];
        let n = next(48) as usize;
        let mode = next(6);
        // Adjacent doubles 2 apart whose quotients by 3 and by 7 are less
        // than one unit in the last place apart.
        let big = 1.875 * (1u64 << 53) as f64;
        let cost = |next: &mut dyn FnMut(u64) -> u64| -> f64 {
            match if mode == 5 { next(5) } else { mode } {
                0 => next(4) as f64,
                1 => [0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 2.0][next(7) as usize],
                2 => {
                    let sign = if next(4) == 0 { -1.0 } else { 1.0 };
                    sign * (big + 2.0 * next(24) as f64)
                }
                3 => match next(8) {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    _ => next(6) as f64,
                },
                _ => next(1_000_000) as f64 / 997.0 - 300.0,
            }
        };
        let costs: Vec<f64> = (0..m * n).map(|_| cost(&mut next)).collect();
        let sizes: Vec<Size> = (0..n)
            .map(|_| match mode {
                2 => [3, 7][next(2) as usize],
                _ => next(7),
            })
            .collect();
        let total: Size = sizes.iter().sum();
        let slack = [0.7, 0.95, 1.0, 1.1, 1.5, 4.0][next(6) as usize];
        let per = (total as f64 * slack / m as f64) as Size;
        let capacities: Vec<Size> = (0..m).map(|_| per + next(4)).collect();
        (m, costs, sizes, capacities)
    }

    /// Solves with the rank lanes on `scratch` and with the reference on a
    /// fresh one; every lane's answer, and the solve's, must agree bit for
    /// bit. Lanes are compared one by one because the winner can mask a
    /// lane that went astray.
    fn check_against_reference(
        inst: &GapInstance<'_>,
        config: &GapConfig,
        scratch: &mut GapScratch,
    ) -> Result<GapSolution, TestCaseError> {
        scratch.build_rank(inst);
        for d in LANES {
            let got = construct_lane(inst, config, d, scratch)
                .map(|cost| (cost.to_bits(), scratch.candidate.clone()));
            let want = reference::lane(inst, config, d).map(|(cost, a)| (cost.to_bits(), a));
            prop_assert_eq!(got, want, "lane {:?}", d);
        }
        let got = solve_gap_with(inst, config, scratch);
        let want = reference::solve_gap_with(inst, config, &mut Default::default());
        prop_assert_eq!(&got.assignment, &want.assignment);
        prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        prop_assert_eq!(got.feasible, want.feasible);
        Ok(got)
    }

    /// The solver's view of a drawn instance.
    fn view(drawn: &Drawn) -> GapInstance<'_> {
        let (m, costs, sizes, capacities) = drawn;
        GapInstance {
            m: *m,
            n: sizes.len(),
            costs,
            sizes,
            capacities,
        }
    }

    thread_local! {
        /// One scratch across every case of a proptest, so each case starts
        /// from the buffers and the Slack memo the previous case left.
        static SHARED: std::cell::RefCell<GapScratch> = Default::default();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn rank_lanes_match_reference_bit_for_bit(
            seed in 0u64..1_000_000_000,
            passes in 0usize..4,
            swaps in proptest::bool::ANY,
        ) {
            let config = GapConfig { improvement_passes: passes, swap_improvement: swaps };
            // One scratch across cases and instances of different shapes.
            SHARED.with_borrow_mut(|scratch| {
                for k in 0..3 {
                    let drawn = draw_instance(seed.wrapping_add(k));
                    check_against_reference(&view(&drawn), &config, scratch)?;
                }
                Ok(())
            })?;
        }
    }

    /// One scratch through instances that hit and miss the Slack memo. For
    /// every drawn instance the Slack lane places: a draw whose Slack
    /// construction strands a job, the same draw with new costs (a hit on a
    /// stranded memo), the placeable draw, the placeable draw with new
    /// costs (a hit), one changed size, and one changed capacity; then the
    /// stranded draw again for the next placeable draw. Every lane and
    /// every solve must match the reference bit for bit.
    #[test]
    fn slack_memo_matches_reference_across_edits() {
        let config = GapConfig::default();
        let slack_places =
            |d: &Drawn| reference::lane(&view(d), &config, Desirability::Slack).is_some();
        let draws: Vec<Drawn> = (0..400).map(draw_instance).collect();
        let stranded = draws
            .iter()
            .find(|d| !d.2.is_empty() && !slack_places(d))
            .expect("a draw the Slack lane strands");
        let recost = |d: &Drawn| {
            let mut d = d.clone();
            d.1.reverse();
            d
        };
        let mut steps = Vec::new();
        for placeable in draws
            .iter()
            .filter(|d| d.0 > 1 && d.2.len() > 1 && slack_places(d))
        {
            let mut grown = placeable.clone();
            grown.2[0] += 1;
            let mut widened = placeable.clone();
            widened.3[0] += 1;
            steps.extend([
                (stranded.clone(), false),
                (recost(stranded), true),
                (placeable.clone(), false),
                (recost(placeable), true),
                (grown, false),
                (widened, false),
            ]);
        }
        assert!(steps.len() > 6, "too few placeable draws");
        let mut scratch = GapScratch::default();
        for (step, (drawn, hit)) in steps.iter().enumerate() {
            let inst = view(drawn);
            assert_eq!(scratch.slack.holds(&inst), *hit, "step {step}");
            check_against_reference(&inst, &config, &mut scratch)
                .unwrap_or_else(|e| panic!("step {step}: {e:?}"));
        }
    }

    #[test]
    fn reference_draws_reach_the_fallback_and_rounding_ties() {
        let (mut fallbacks, mut merged) = (0, 0);
        for seed in 0..400 {
            let (m, costs, sizes, capacities) = draw_instance(seed);
            let instance = GapInstance {
                m,
                n: sizes.len(),
                costs: &costs,
                sizes: &sizes,
                capacities: &capacities,
            };
            fallbacks += usize::from(!solve_gap(&instance, &GapConfig::default()).feasible);
            merged += costs
                .chunks(m)
                .zip(&sizes)
                .filter(|(row, &s)| {
                    let div = s.max(1) as f64;
                    row.iter()
                        .any(|&a| row.iter().any(|&b| a < b && a / div == b / div))
                })
                .count();
        }
        assert!(fallbacks > 0, "no draw stranded every lane");
        assert!(merged > 0, "no draw has a rounding-merged quotient");
    }

    /// Costs in the shapes the Burkard loop hands the solver: STEP-4 η at
    /// random assignments (timing on, so penalty terms appear) and the
    /// STEP-6 running sums `h += η / scale`, on two paper circuits and
    /// their `B = 0` feasibility problems.
    #[test]
    fn rank_lanes_match_reference_on_real_cost_surfaces() {
        use qbp_core::{Assignment, ComponentId, PartitionId, QMatrix};
        use qbp_gen::{build_instance, scaled_spec, SuiteOptions, PAPER_SUITE};
        let mut scratch = GapScratch::default();
        for spec in [PAPER_SUITE[0], PAPER_SUITE[2]] {
            let problem = build_instance(&scaled_spec(&spec, 0.3), &SuiteOptions::default())
                .expect("suite instance builds");
            for p in [problem.feasibility_problem(), problem] {
                let q = QMatrix::with_auto_penalty(&p).expect("penalty resolves");
                assert!(q.penalty() > 0);
                let (m, n) = (p.m(), p.n());
                let sizes: Vec<Size> = (0..n)
                    .map(|j| p.circuit().size(ComponentId::new(j)))
                    .collect();
                let capacities = p.topology().capacities().to_vec();
                let mut next = lcg(n as u64);
                let (mut eta, mut h) = (Vec::new(), vec![0.0; m * n]);
                for round in 0..6 {
                    let u = Assignment::from_fn(n, |_| PartitionId::new(next(m as u64) as usize));
                    q.eta(&u, &mut eta);
                    let eta_f: Vec<f64> = eta.iter().map(|&e| e as f64).collect();
                    let config = GapConfig {
                        improvement_passes: 2,
                        swap_improvement: round == 5,
                    };
                    let inst = GapInstance {
                        m,
                        n,
                        costs: &eta_f,
                        sizes: &sizes,
                        capacities: &capacities,
                    };
                    let z = check_against_reference(&inst, &config, &mut scratch)
                        .unwrap()
                        .cost;
                    let scale = z.abs().max(1.0);
                    for (hr, &e) in h.iter_mut().zip(&eta_f) {
                        *hr += e / scale;
                    }
                    let inst = GapInstance { costs: &h, ..inst };
                    check_against_reference(&inst, &config, &mut scratch).unwrap();
                }
            }
        }
    }
}
