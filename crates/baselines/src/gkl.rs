//! GKL — the paper's second comparison baseline (§5): a generalization of
//! Kernighan & Lin's heuristic that *switches a pair of components at a
//! time*, with arbitrary interconnection costs and feasibility-preserving
//! swaps.
//!
//! Each outer loop unlocks everything and tentatively applies the best
//! feasible swap repeatedly (locking both participants) until no candidates
//! remain, then rolls back to the best prefix. The paper "force[s] the
//! algorithm to terminate after the first 6 outer loops due to excessive CPU
//! runtime"; that cutoff is the default here too.
//!
//! Every swap gain is an `O(1)` read of an exact move-delta table
//! `D[j][i] = move_delta(A, j, i)`, kept in step with each tentative swap:
//! `swap_delta(j1, j2) = D[j1][A(j2)] + D[j2][A(j1)] + corr(j1, j2)`, where
//! the mutual-pair term `corr` is nonzero only for wired pairs
//! ([`Evaluator::swap_correction`]). A column mirror of the table makes
//! `D[·][A(j1)]` one contiguous read. The loop-start pair table is sorted
//! once, four bytes per pair, and consumed by a cursor; only the refresh
//! pushes go through a heap. Each refresh scans only the unlocked
//! components. The pair ids hold two 16-bit indices, so GKL takes at most
//! 65 536 components.

use crate::common::{require_feasible_start, start_or_derive, Neighbors};
use qbp_core::exec::{ExecCtx, ExecStatus};
use qbp_core::{
    swap_is_timing_feasible, Assignment, ComponentId, Cost, Error, Evaluator, PartitionId, Problem,
    UsageTracker,
};
use qbp_observe::{MoveKind, SolveEvent, SolveObserver, SolverId};
use qbp_solver::{moved_from, CommonOpts, Configure, SolveReport, Solver};
use std::collections::BinaryHeap;
use std::time::Instant;

/// Configuration for [`GklSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GklConfig {
    /// Maximum outer loops (paper: 6 — "any gain obtained beyond the first 6
    /// outer loops is insignificant").
    pub max_outer_loops: usize,
    /// Allow negative-gain swaps inside a loop (best-prefix rollback
    /// recovers).
    pub hill_climbing: bool,
    /// Seed for deriving a feasible start when [`Solver::solve`] is called
    /// with `init = None`. The swap loops themselves are deterministic and
    /// never draw from it.
    pub seed: u64,
    /// Worker threads, carried for the shared [`CommonOpts`]. GKL runs
    /// serially: with `O(1)` swap gains neither the sweep nor the pair
    /// table has enough work per pair to pay for a fan, so the value never
    /// changes the work or the result.
    pub threads: usize,
}

impl Default for GklConfig {
    fn default() -> Self {
        GklConfig {
            max_outer_loops: 6,
            hill_climbing: true,
            seed: 0x5EED_CAFE,
            threads: 1,
        }
    }
}

impl Configure for GklConfig {
    fn apply_common(&mut self, opts: &CommonOpts) {
        self.seed = opts.seed;
        if let Some(iterations) = opts.iterations {
            // The shared iteration budget maps to KL outer loops.
            self.max_outer_loops = iterations;
        }
        self.threads = opts.threads;
        // No stall window: each outer loop must strictly improve, so the
        // loop cannot cycle.
    }
}

/// The generalized Kernighan–Lin pair-swap solver.
///
/// [`Solver::solve_exec`] runs GKL from a feasible `init`, or from a start
/// derived by [`qbp_solver::feasible_start`] when `init` is `None`. The
/// observer sees one `IterationStarted`/`IterationFinished` pair per outer
/// loop, and one `MoveEvaluated` (kind `swap`) per tentatively applied
/// swap, emitted after the loop's best-prefix rollback so `accepted` tells
/// whether the swap was *retained*. The outer loop checks the execution
/// context at each loop boundary; an expired deadline or fired cancel
/// token stops before the next loop starts, and the report keeps the best
/// prefix retained so far, which is feasible by construction. The report's
/// `iterations` counts outer loops. A problem of more than 65 536
/// components gets [`Error::IndexOverflow`] before a start is derived.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, Assignment, Evaluator};
/// use qbp_baselines::{GklConfig, GklSolver};
/// use qbp_observe::NoopObserver;
/// use qbp_solver::Solver;
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut circuit = Circuit::new();
/// let a = circuit.add_component("a", 1);
/// let b = circuit.add_component("b", 1);
/// let c = circuit.add_component("c", 1);
/// let d = circuit.add_component("d", 1);
/// circuit.add_wires(a, b, 5)?;
/// circuit.add_wires(c, d, 5)?;
/// // Capacity 1 per partition: only swaps can rearrange anything.
/// let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 1)?).build()?;
/// let start = Assignment::from_parts(vec![0, 3, 1, 2])?; // both wire bundles at distance 2
/// let report = GklSolver::new(GklConfig::default())
///     .solve(&problem, Some(&start), &mut NoopObserver)?;
/// assert!(report.objective < Evaluator::new(&problem).cost(&start));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GklSolver {
    config: GklConfig,
}

/// A swap candidate `(gain, j1, j2)` with `j1 < j2`, ordered as a tuple.
type Candidate = (Cost, u32, u32);

/// Largest component count the pair ids address: each half of a `u32` id
/// holds one component index.
const MAX_COMPONENTS: usize = 1 << 16;

/// The pair `j1 < j2` as one `u32`, `(j1 << 16) | j2`. Ids order like
/// their `(j1, j2)` tuples.
#[inline]
fn pair_id(j1: usize, j2: usize) -> u32 {
    ((j1 as u32) << 16) | j2 as u32
}

/// The `(j1, j2)` of a [`pair_id`].
#[inline]
fn pair_of(id: u32) -> (u32, u32) {
    (id >> 16, id & 0xFFFF)
}

/// Per-solve sweep state, reused across outer loops.
struct SweepTables {
    /// `deltas[j·M + i] = move_delta(A, j, i)`: filled at each loop start
    /// and patched after every tentative swap. Rolled-back swaps are never
    /// patched; the next loop re-fills.
    deltas: Vec<Cost>,
    /// The column mirror `cols[i·N + j] = deltas[j·M + i]`, kept equal row
    /// for row, so `D[·][i]` reads as one contiguous slice.
    cols: Vec<Cost>,
    /// Dense scratch, all zero between uses: `mutual[l] = a[k][l] + a[l][k]`
    /// while a partner rescan of `k` runs.
    mutual: Vec<Cost>,
    neighbors: Neighbors,
    /// The last swap's movers and their neighbors, each once: every row its
    /// table patches changed, and every component whose partner it
    /// refreshes. `stamp[k] == epoch` marks `k` as listed.
    touched: Vec<usize>,
    stamp: Vec<usize>,
    epoch: usize,
}

/// Exact `swap_delta` of `j1` (in `i1`) and `j2` (in `i2`, `i2 ≠ i1`) from
/// `j1`'s move-delta row, the mirror column of `i1`, and their mutual
/// weight `wm = a[j1][j2] + a[j2][j1]`: `D[j1][i2] + D[j2][i1]`, plus the
/// mutual-pair term for wired pairs. Bit-identical to
/// [`Evaluator::swap_delta`] by `i64` distributivity (see
/// [`Evaluator::swap_correction`]).
#[inline]
fn mirrored_swap_delta(
    eval: &Evaluator<'_>,
    (row1, col1): (&[Cost], &[Cost]),
    i1: usize,
    (j2, i2): (usize, usize),
    wm: Cost,
) -> Cost {
    let mut delta = row1[i2] + col1[j2];
    if wm != 0 {
        delta += eval.swap_correction(PartitionId::new(i1), PartitionId::new(i2), wm);
    }
    delta
}

/// Adds `k`'s wire weights into its neighbors' slots of an all-zero
/// `mutual`, leaving `mutual[l] = a[k][l] + a[l][k]`.
fn scatter_mutual(problem: &Problem, k: usize, mutual: &mut [Cost]) {
    let circuit = problem.circuit();
    let k = ComponentId::new(k);
    for (l, w) in circuit.out_connections(k).chain(circuit.in_connections(k)) {
        mutual[l.index()] += w;
    }
}

/// Zeroes the slots [`scatter_mutual`] wrote for `k`.
fn clear_mutual(problem: &Problem, k: usize, mutual: &mut [Cost]) {
    let circuit = problem.circuit();
    let k = ComponentId::new(k);
    for (l, _) in circuit.out_connections(k).chain(circuit.in_connections(k)) {
        mutual[l.index()] = 0;
    }
}

/// The loop-start candidates in descending `(gain, j1, j2)` order, four
/// bytes per pair: `ids` holds each pair's [`pair_id`], and `runs` one
/// `(gain, end)` per distinct gain, descending, where the run's pairs are
/// `ids[end of the previous run..end]`.
#[derive(Debug, Default)]
struct PairTable {
    ids: Vec<u32>,
    runs: Vec<(Cost, usize)>,
}

impl PairTable {
    /// Every cross-partition pair `j1 < j2` of `part`, keyed by its exact
    /// gain. Gains are small integers, so when they span fewer values than
    /// there are pairs, a counting sort places each id directly: buckets
    /// run from the highest gain down and each fills from its end, so the
    /// ascending enumeration lands in descending `(j1, j2)` order. The
    /// gains are re-derived per pass (an `O(1)` read each), which keeps the
    /// table at four bytes per pair. Wider spans fall back to a comparison
    /// sort of `(gain, id)`.
    fn build(
        eval: &Evaluator<'_>,
        tables: (&[Cost], &[Cost]),
        part: &[u32],
        mutual: &mut [Cost],
    ) -> Self {
        let (mut len, mut lo, mut hi) = (0usize, Cost::MAX, Cost::MIN);
        for_each_pair(eval, tables, part, mutual, |g, _, _| {
            len += 1;
            lo = lo.min(g);
            hi = hi.max(g);
        });
        if len == 0 {
            return PairTable::default();
        }
        let span = hi.abs_diff(lo);
        if span >= len as u64 {
            let mut keyed = Vec::with_capacity(len);
            for_each_pair(eval, tables, part, mutual, |g, j1, j2| {
                keyed.push((g, pair_id(j1, j2)));
            });
            keyed.sort_unstable_by(|a, b| b.cmp(a));
            let mut table = PairTable {
                ids: Vec::with_capacity(len),
                runs: Vec::new(),
            };
            for (gain, id) in keyed {
                table.push(gain, id);
            }
            return table;
        }
        // Bucket `b` holds gain `hi − b`; `ends[b]` becomes one past its
        // last free slot.
        let mut ends = vec![0usize; span as usize + 1];
        for_each_pair(eval, tables, part, mutual, |g, _, _| {
            ends[hi.abs_diff(g) as usize] += 1;
        });
        let mut runs = Vec::new();
        let mut total = 0;
        for (b, e) in ends.iter_mut().enumerate() {
            if *e > 0 {
                total += *e;
                runs.push((hi - b as Cost, total));
            }
            *e = total;
        }
        let mut ids = vec![0; len];
        for_each_pair(eval, tables, part, mutual, |g, j1, j2| {
            let slot = &mut ends[hi.abs_diff(g) as usize];
            *slot -= 1;
            ids[*slot] = pair_id(j1, j2);
        });
        PairTable { ids, runs }
    }

    /// Appends `id` with `gain`, which must not exceed the last gain.
    fn push(&mut self, gain: Cost, id: u32) {
        self.ids.push(id);
        let end = self.ids.len();
        match self.runs.last_mut() {
            Some((g, e)) if *g == gain => *e = end,
            _ => self.runs.push((gain, end)),
        }
    }
}

/// Calls `f(gain, j1, j2)` for every cross-partition pair `j1 < j2`, in
/// ascending `(j1, j2)` order. `mutual` must be all zero, and is left so.
fn for_each_pair(
    eval: &Evaluator<'_>,
    (deltas, cols): (&[Cost], &[Cost]),
    part: &[u32],
    mutual: &mut [Cost],
    mut f: impl FnMut(Cost, usize, usize),
) {
    let problem = eval.problem();
    let (n, m) = (part.len(), problem.m());
    for j1 in 0..n {
        let i1 = part[j1] as usize;
        let lines = (&deltas[j1 * m..(j1 + 1) * m], &cols[i1 * n..(i1 + 1) * n]);
        scatter_mutual(problem, j1, mutual);
        for (j2, &p2) in part.iter().enumerate().skip(j1 + 1) {
            let i2 = p2 as usize;
            if i1 != i2 {
                f(
                    -mirrored_swap_delta(eval, lines, i1, (j2, i2), mutual[j2]),
                    j1,
                    j2,
                );
            }
        }
        clear_mutual(problem, j1, mutual);
    }
}

/// The sweep's candidate queue: the loop-start [`PairTable`], consumed by a
/// cursor, merged with a max-heap of the refresh pushes. The table's head
/// is rebuilt as a tuple from the current run, so popping the larger front
/// yields exactly the sequence one max-heap over all entries would. Dead
/// entries (a locked participant) stay in place until the cursor passes
/// them, so [`SwapQueue::peek`] sees the top of every remaining entry —
/// which decides ties in the stale-gain check just as a single heap would.
struct SwapQueue {
    table: PairTable,
    /// The next entry of `table.ids`, and the run that holds it.
    cursor: usize,
    run: usize,
    pushed: BinaryHeap<Candidate>,
}

impl SwapQueue {
    fn new(table: PairTable) -> Self {
        SwapQueue {
            table,
            cursor: 0,
            run: 0,
            pushed: BinaryHeap::new(),
        }
    }

    fn head(&self) -> Option<Candidate> {
        let &id = self.table.ids.get(self.cursor)?;
        let (j1, j2) = pair_of(id);
        Some((self.table.runs[self.run].0, j1, j2))
    }

    fn peek(&self) -> Option<Candidate> {
        self.head().max(self.pushed.peek().copied())
    }

    fn pop(&mut self) -> Option<Candidate> {
        let head = self.head();
        if head.is_some() && head.as_ref() >= self.pushed.peek() {
            self.cursor += 1;
            if self.cursor == self.table.runs[self.run].1 {
                self.run += 1;
            }
            head
        } else {
            self.pushed.pop()
        }
    }

    fn push(&mut self, candidate: Candidate) {
        self.pushed.push(candidate);
    }
}

impl SweepTables {
    fn new(problem: &Problem) -> Self {
        let n = problem.n();
        SweepTables {
            deltas: vec![0; n * problem.m()],
            cols: vec![0; n * problem.m()],
            mutual: vec![0; n],
            neighbors: Neighbors::new(problem),
            touched: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Fills the move-delta table and its mirror for `assignment`.
    fn fill(&mut self, eval: &Evaluator<'_>, assignment: &Assignment) {
        let (n, m) = (assignment.len(), eval.problem().m());
        for (j, row) in self.deltas.chunks_mut(m).enumerate() {
            eval.move_delta_row(assignment, ComponentId::new(j), row);
            for (i, &d) in row.iter().enumerate() {
                self.cols[i * n + j] = d;
            }
        }
    }

    /// After a swap of `j1` and `j2` and both table patches: lists the
    /// movers and their neighbors in `touched`, and re-copies their rows,
    /// which hold every entry the patches changed, into the mirror.
    fn sync_swap(&mut self, j1: usize, j2: usize) {
        let (n, m) = (self.stamp.len(), self.deltas.len() / self.stamp.len());
        self.epoch += 1;
        self.touched.clear();
        let movers = [ComponentId::new(j1), ComponentId::new(j2)];
        let listed = movers
            .iter()
            .chain(self.neighbors.of(j1))
            .chain(self.neighbors.of(j2));
        for k in listed {
            let k = k.index();
            if self.stamp[k] != self.epoch {
                self.stamp[k] = self.epoch;
                self.touched.push(k);
                for (i, &d) in self.deltas[k * m..(k + 1) * m].iter().enumerate() {
                    self.cols[i * n + k] = d;
                }
            }
        }
    }

    /// Top-1 partner refresh: the best current swap partner for `k` among
    /// the `live` (unlocked, ascending) components in other partitions;
    /// ties keep the lowest index. `O(deg(k))` to scatter `k`'s mutual
    /// weights, then `O(1)` per partner.
    fn best_partner(
        &mut self,
        eval: &Evaluator<'_>,
        part: &[u32],
        live: &[u32],
        k: usize,
    ) -> Option<(Cost, usize)> {
        let problem = eval.problem();
        let (n, m) = (part.len(), problem.m());
        let ik = part[k] as usize;
        let lines = (
            &self.deltas[k * m..(k + 1) * m],
            &self.cols[ik * n..(ik + 1) * n],
        );
        scatter_mutual(problem, k, &mut self.mutual);
        let mut best: Option<(Cost, usize)> = None;
        for &l in live {
            let l = l as usize;
            let il = part[l] as usize;
            // `k` itself shares its own partition.
            if il == ik {
                continue;
            }
            let g = -mirrored_swap_delta(eval, lines, ik, (l, il), self.mutual[l]);
            if best.is_none_or(|(bg, _)| g > bg) {
                best = Some((g, l));
            }
        }
        clear_mutual(problem, k, &mut self.mutual);
        best
    }
}

impl GklSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: GklConfig) -> Self {
        GklSolver { config }
    }

    /// One outer loop: tentative best-swap sequence with locking, then
    /// rollback to the best prefix. Returns the retained gain.
    fn run_outer_loop(
        &self,
        eval: &Evaluator<'_>,
        assignment: &mut Assignment,
        tables: &mut SweepTables,
        outer: usize,
        obs: &mut dyn SolveObserver,
    ) -> i64 {
        let problem = eval.problem();
        let (n, m) = (problem.n(), problem.m());
        let circuit = problem.circuit();
        let mut usage = UsageTracker::new(problem, assignment);
        let mut locked = vec![false; n];
        // The unlocked components, ascending.
        let mut live: Vec<u32> = (0..n as u32).collect();
        tables.fill(eval, assignment);
        let lines = (&tables.deltas[..], &tables.cols[..]);
        let pairs = PairTable::build(eval, lines, assignment.as_slice(), &mut tables.mutual);
        let mut queue = SwapQueue::new(pairs);

        let mut applied: Vec<(ComponentId, ComponentId, i64)> = Vec::new();
        let mut cum_gain: i64 = 0;
        let mut best_gain: i64 = 0;
        let mut best_len: usize = 0;
        while let Some((key, j1u, j2u)) = queue.pop() {
            let (j1, j2) = (j1u as usize, j2u as usize);
            if locked[j1] || locked[j2] {
                continue;
            }
            let (c1, c2) = (ComponentId::new(j1), ComponentId::new(j2));
            let (i1, i2) = (assignment.part_index(j1), assignment.part_index(j2));
            if i1 == i2 {
                continue;
            }
            let wm = circuit.connection(c1, c2) + circuit.connection(c2, c1);
            let lines = (
                &tables.deltas[j1 * m..(j1 + 1) * m],
                &tables.cols[i1 * n..(i1 + 1) * n],
            );
            let gain = -mirrored_swap_delta(eval, lines, i1, (j2, i2), wm);
            if gain < key {
                let still_max = queue.peek().is_none_or(|(next, _, _)| gain >= next);
                if !still_max {
                    queue.push((gain, j1u, j2u));
                    continue;
                }
            }
            if !self.config.hill_climbing && gain <= 0 {
                break;
            }
            let (p1, p2) = (PartitionId::new(i1), PartitionId::new(i2));
            if !usage.swap_fits(problem, c1, p1, c2, p2)
                || !swap_is_timing_feasible(problem, assignment, c1, c2)
            {
                continue;
            }
            // Apply tentatively and lock both. Each mover's table patch
            // reads the assignment with that mover already moved.
            usage.apply_move(problem, c1, p1, p2);
            usage.apply_move(problem, c2, p2, p1);
            assignment.move_to(c1, p2);
            eval.patch_move_deltas(assignment, c1, p1, &mut tables.deltas);
            assignment.move_to(c2, p1);
            eval.patch_move_deltas(assignment, c2, p2, &mut tables.deltas);
            tables.sync_swap(j1, j2);
            locked[j1] = true;
            locked[j2] = true;
            for j in [j1u, j2u] {
                live.remove(live.binary_search(&j).expect("an unlocked mover is live"));
            }
            cum_gain += gain;
            applied.push((c1, c2, gain));
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_len = applied.len();
            }
            // Refresh pairs touching the neighborhoods of the swapped pair:
            // for each affected unlocked component, push its best current
            // partner (top-1 refresh; stale entries for other partners are
            // re-validated on pop). The queue pops the same sequence in
            // whatever order these pushes arrive.
            for t in 0..tables.touched.len() {
                let k = tables.touched[t];
                if locked[k] {
                    continue;
                }
                if let Some((g, l)) = tables.best_partner(eval, assignment.as_slice(), &live, k) {
                    let (a, b) = if k < l { (k, l) } else { (l, k) };
                    queue.push((g, a as u32, b as u32));
                }
            }
        }

        // Roll back to the best prefix, then report every tentative swap:
        // `accepted` means "survived the rollback", the only acceptance
        // notion KL has (swaps are always applied first, judged later).
        for &(c1, c2, _) in applied[best_len..].iter().rev() {
            assignment.swap(c1, c2);
        }
        // Both movers of every tentative swap, and of every one the
        // rollback undid.
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: outer,
            rebuilt: false,
            moved: 2 * (2 * applied.len() - best_len),
        });
        for (idx, &(_, _, gain)) in applied.iter().enumerate() {
            obs.on_event(&SolveEvent::MoveEvaluated {
                iteration: outer,
                kind: MoveKind::Swap,
                delta: -gain,
                accepted: idx < best_len,
            });
        }
        best_gain
    }
}

impl Solver for GklSolver {
    fn name(&self) -> &'static str {
        "gkl"
    }

    fn solve_exec(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        let start = Instant::now();
        if problem.n() > MAX_COMPONENTS {
            return Err(Error::IndexOverflow {
                what: "GKL pair table",
                records: problem.n() as u64,
                cap: MAX_COMPONENTS as u64,
            });
        }
        let init = start_or_derive(problem, init, self.config.seed)?;
        require_feasible_start(problem, &init)?;
        let eval = Evaluator::new(problem);
        let mut assignment = (*init).clone();
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Gkl,
            components: problem.n(),
            partitions: problem.m(),
        });
        // The move-delta table starts cold: the first loop fills every row.
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: 0,
            rebuilt: true,
            moved: problem.n(),
        });
        let mut tables = SweepTables::new(problem);
        let mut outer = 0;
        let mut status = ExecStatus::Completed;
        // Maintained incrementally from the retained gains so the per-loop
        // IterationFinished value costs nothing extra.
        let mut value = eval.cost(&assignment);
        while outer < self.config.max_outer_loops {
            if let Some(stop) = exec.check(outer + 1) {
                match stop {
                    ExecStatus::Cancelled => {
                        obs.on_event(&SolveEvent::Cancelled { iteration: outer + 1 });
                    }
                    _ => obs.on_event(&SolveEvent::BudgetExhausted { iteration: outer + 1 }),
                }
                status = stop;
                break;
            }
            outer += 1;
            obs.on_event(&SolveEvent::IterationStarted { iteration: outer });
            let gain = self.run_outer_loop(&eval, &mut assignment, &mut tables, outer, obs);
            value -= gain;
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: outer,
                value,
                feasible: true,
                improved: gain > 0,
            });
            if gain <= 0 {
                break;
            }
        }
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: outer,
            value,
            feasible: true,
        });
        Ok(SolveReport {
            solver: "gkl",
            moves_applied: moved_from(Some(&init), &assignment),
            objective: value,
            embedded_value: None,
            feasible: true,
            iterations: outer,
            elapsed: start.elapsed(),
            auto_profile: None,
            assignment,
            status,
        })
    }
}

/// The serial sweep as it ran before the move-delta table, kept as the
/// oracle the table sweep must match decision for decision: every gain is a
/// fresh adjacency walk ([`Evaluator::swap_delta`]), the candidates live in
/// one all-pairs `BinaryHeap`, and each refresh is an `O(N)` scan of walked
/// probes. It keeps no table, but counts the moves the solver reports per
/// loop, so the two event streams compare event for event.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::common::affected_components;

    /// The best current swap partner for `k` among unlocked components in
    /// other partitions; ties keep the lowest index (strict `>`).
    fn best_swap_partner_scan(
        eval: &Evaluator<'_>,
        assignment: &Assignment,
        locked: &[bool],
        k: ComponentId,
    ) -> Option<(i64, usize)> {
        let mut best_pair: Option<(i64, usize)> = None;
        for (l, &l_locked) in locked.iter().enumerate() {
            if l == k.index() || l_locked {
                continue;
            }
            if assignment.part_index(l) == assignment.part_index(k.index()) {
                continue;
            }
            let g = -eval.swap_delta(assignment, k, ComponentId::new(l));
            if best_pair.is_none_or(|(bg, _)| g > bg) {
                best_pair = Some((g, l));
            }
        }
        best_pair
    }

    /// One reference outer loop; returns `(retained gain, retained swaps)`.
    fn outer_loop(
        config: &GklConfig,
        eval: &Evaluator<'_>,
        assignment: &mut Assignment,
        outer: usize,
        obs: &mut dyn SolveObserver,
    ) -> (i64, usize) {
        let problem = eval.problem();
        let n = problem.n();
        let mut usage = UsageTracker::new(problem, assignment);
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for j1 in 0..n {
            for j2 in j1 + 1..n {
                if assignment.part_index(j1) == assignment.part_index(j2) {
                    continue;
                }
                let (c1, c2) = (ComponentId::new(j1), ComponentId::new(j2));
                let gain = -eval.swap_delta(assignment, c1, c2);
                heap.push((gain, j1 as u32, j2 as u32));
            }
        }
        let mut applied: Vec<(ComponentId, ComponentId, i64)> = Vec::new();
        let (mut cum_gain, mut best_gain, mut best_len) = (0i64, 0i64, 0usize);
        let mut moves = 0;
        while let Some((key, j1u, j2u)) = heap.pop() {
            let (j1, j2) = (j1u as usize, j2u as usize);
            if locked[j1] || locked[j2] {
                continue;
            }
            let (c1, c2) = (ComponentId::new(j1), ComponentId::new(j2));
            let (i1, i2) = (assignment.partition_of(c1), assignment.partition_of(c2));
            if i1 == i2 {
                continue;
            }
            let gain = -eval.swap_delta(assignment, c1, c2);
            if gain < key {
                let still_max = heap.peek().is_none_or(|&(next, _, _)| gain >= next);
                if !still_max {
                    heap.push((gain, j1u, j2u));
                    continue;
                }
            }
            if !config.hill_climbing && gain <= 0 {
                break;
            }
            if !usage.swap_fits(problem, c1, i1, c2, i2)
                || !swap_is_timing_feasible(problem, assignment, c1, c2)
            {
                continue;
            }
            usage.apply_move(problem, c1, i1, i2);
            usage.apply_move(problem, c2, i2, i1);
            assignment.swap(c1, c2);
            moves += 2;
            locked[j1] = true;
            locked[j2] = true;
            cum_gain += gain;
            applied.push((c1, c2, gain));
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_len = applied.len();
            }
            let mut affected = affected_components(problem, c1);
            affected.extend(affected_components(problem, c2));
            affected.sort();
            affected.dedup();
            for k in affected {
                if locked[k.index()] {
                    continue;
                }
                if let Some((g, l)) = best_swap_partner_scan(eval, assignment, &locked, k) {
                    let (a, b) = if k.index() < l {
                        (k.index(), l)
                    } else {
                        (l, k.index())
                    };
                    heap.push((g, a as u32, b as u32));
                }
            }
        }
        for &(c1, c2, _) in applied[best_len..].iter().rev() {
            assignment.swap(c1, c2);
            moves += 2;
        }
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: outer,
            rebuilt: false,
            moved: moves,
        });
        for (idx, &(_, _, gain)) in applied.iter().enumerate() {
            obs.on_event(&SolveEvent::MoveEvaluated {
                iteration: outer,
                kind: MoveKind::Swap,
                delta: -gain,
                accepted: idx < best_len,
            });
        }
        (best_gain, best_len)
    }

    /// What the table sweep must reproduce of a reference solve.
    #[derive(Debug, PartialEq)]
    pub(super) struct Outcome {
        pub(super) assignment: Assignment,
        pub(super) cost: Cost,
        pub(super) loops: usize,
        /// Swaps retained after best-prefix rollbacks.
        pub(super) retained: usize,
    }

    /// A full reference solve from a feasible start, with the solver's
    /// event stream (unbounded budget, so no stop events).
    pub(super) fn solve(
        config: &GklConfig,
        problem: &Problem,
        initial: &Assignment,
        obs: &mut dyn SolveObserver,
    ) -> Outcome {
        require_feasible_start(problem, initial).expect("reference needs a feasible start");
        let eval = Evaluator::new(problem);
        let mut assignment = initial.clone();
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Gkl,
            components: problem.n(),
            partitions: problem.m(),
        });
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: 0,
            rebuilt: true,
            moved: problem.n(),
        });
        let (mut outer, mut total_swaps) = (0, 0);
        let mut value = eval.cost(&assignment);
        while outer < config.max_outer_loops {
            outer += 1;
            obs.on_event(&SolveEvent::IterationStarted { iteration: outer });
            let (gain, swaps) = outer_loop(config, &eval, &mut assignment, outer, obs);
            total_swaps += swaps;
            value -= gain;
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: outer,
                value,
                feasible: true,
                improved: gain > 0,
            });
            if gain <= 0 {
                break;
            }
        }
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: outer,
            value,
            feasible: true,
        });
        Outcome {
            assignment,
            cost: value,
            loops: outer,
            retained: total_swaps,
        }
    }
}

/// Shared by the unit tests and the proptests: the table sweep at a given
/// thread count against the reference sweep.
#[cfg(test)]
mod harness {
    use super::*;

    /// Asserts that [`GklSolver`] under `config` at each of `threads`
    /// matches the reference sweep exactly: assignment, cost, loop count,
    /// retained-swap count (read off the `accepted` move events), and the
    /// event stream (every `MoveEvaluated` delta and acceptance included).
    pub(super) fn assert_matches_reference(
        problem: &Problem,
        start: &Assignment,
        config: GklConfig,
        threads: &[usize],
    ) {
        let mut expected_events = Vec::new();
        let expected = reference::solve(&config, problem, start, &mut expected_events);
        for &threads in threads {
            let mut events = Vec::new();
            let out = GklSolver::new(GklConfig { threads, ..config })
                .solve(problem, Some(start), &mut events)
                .unwrap();
            let retained = events
                .iter()
                .filter(|e| matches!(e, SolveEvent::MoveEvaluated { accepted: true, .. }))
                .count();
            let got = reference::Outcome {
                assignment: out.assignment,
                cost: out.objective,
                loops: out.iterations,
                retained,
            };
            let ctx = format!("n={} m={} threads={threads}", problem.n(), problem.m());
            assert_eq!(got, expected, "{ctx}");
            assert_eq!(events, expected_events, "{ctx}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::harness::assert_matches_reference;
    use super::*;
    use qbp_observe::NoopObserver;
    use qbp_core::{
        check_feasibility, Circuit, PartitionTopology, ProblemBuilder, TimingConstraints,
    };

    /// Two tightly-wired pairs placed diagonally; unit capacities mean only
    /// swaps can fix the layout.
    fn crossed_pairs() -> (Problem, Assignment) {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let x = c.add_component("x", 1);
        let y = c.add_component("y", 1);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(x, y, 5).unwrap();
        let p = ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 1).unwrap())
            .build()
            .unwrap();
        // a at p0, b at p3 (distance 2); x at p1, y at p2 (distance 2).
        let start = Assignment::from_parts(vec![0, 3, 1, 2]).unwrap();
        (p, start)
    }

    #[test]
    fn fixes_crossed_pairs_to_optimal() {
        let (p, start) = crossed_pairs();
        let eval = Evaluator::new(&p);
        assert_eq!(eval.cost(&start), 2 * (5 * 2 + 5 * 2));
        let out = GklSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
        // Optimal: each pair on adjacent cells → 2·(5+5) = 20.
        assert_eq!(out.objective, 20);
        assert!(check_feasibility(&p, &out.assignment).is_feasible());
    }

    #[test]
    fn unit_capacities_preserved() {
        let (p, start) = crossed_pairs();
        let out = GklSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
        let mut counts = vec![0; 4];
        for j in 0..4 {
            counts[out.assignment.part_index(j)] += 1;
        }
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn respects_timing_constraints() {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let x = c.add_component("x", 1);
        let y = c.add_component("y", 1);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(x, y, 5).unwrap();
        // Pin a and x within distance 1 of each other.
        let mut tc = TimingConstraints::new(4);
        tc.add_symmetric(a, x, 1).unwrap();
        let p = ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 1).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        let start = Assignment::from_parts(vec![0, 3, 1, 2]).unwrap();
        let out = GklSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
        assert!(check_feasibility(&p, &out.assignment).is_feasible());
    }

    #[test]
    fn rejects_infeasible_start() {
        let (p, _) = crossed_pairs();
        let bad = Assignment::all_in_first(4); // 4 components in capacity-1
        assert!(matches!(
            GklSolver::default().solve(&p, Some(&bad), &mut NoopObserver),
            Err(Error::InfeasibleStart { .. })
        ));
    }

    #[test]
    fn more_components_than_pair_ids_address_is_an_index_overflow() {
        // The largest pair id still holds both indices.
        let last = MAX_COMPONENTS - 1;
        assert_eq!(
            pair_of(pair_id(last - 1, last)),
            ((last - 1) as u32, last as u32)
        );
        let mut c = Circuit::new();
        for j in 0..=MAX_COMPONENTS {
            c.add_component(format!("c{j}"), 1);
        }
        let topology = PartitionTopology::grid(1, 2, MAX_COMPONENTS as u64 + 1).unwrap();
        let p = ProblemBuilder::new(c, topology).build().unwrap();
        // No start supplied: the error must come before one is derived,
        // and before the solve starts.
        let mut events = Vec::new();
        let err = GklSolver::default()
            .solve(&p, None, &mut events)
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::IndexOverflow {
                    what: "GKL pair table",
                    records: 65_537,
                    cap: 65_536,
                }
            ),
            "{err:?}"
        );
        assert!(events.is_empty());
    }

    #[test]
    fn never_worse_than_start_and_outer_cutoff_respected() {
        let (p, start) = crossed_pairs();
        let eval = Evaluator::new(&p);
        let out = GklSolver::new(GklConfig {
            max_outer_loops: 1,
            ..GklConfig::default()
        })
        .solve(&p, Some(&start), &mut NoopObserver)
        .unwrap();
        assert!(out.objective <= eval.cost(&start));
        assert_eq!(out.iterations, 1);
    }

    /// Deterministic pseudo-random instance with unit sizes. `hub`
    /// additionally wires component 0 to every other component, which
    /// gives every swap a large refresh neighborhood.
    fn lcg_problem(n: usize, rows: usize, cols: usize, hub: bool) -> (Problem, Assignment) {
        let mut c = Circuit::new();
        for j in 0..n {
            c.add_component(format!("c{j}"), 1);
        }
        let mut state = 0xFEED_F00D_DEAD_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..n * 3 {
            let a = (next() as usize) % n;
            let b = (next() as usize) % n;
            if a != b {
                let w = 1 + (next() % 9) as i64;
                c.add_connection(ComponentId::new(a), ComponentId::new(b), w)
                    .unwrap();
            }
        }
        if hub {
            for j in 1..n {
                c.add_connection(ComponentId::new(0), ComponentId::new(j), 1)
                    .unwrap();
            }
        }
        let m = rows * cols;
        let p = ProblemBuilder::new(c, PartitionTopology::grid(rows, cols, n as u64).unwrap())
            .build()
            .unwrap();
        let parts: Vec<u32> = (0..n).map(|j| (j % m) as u32).collect();
        let start = Assignment::from_parts(parts).unwrap();
        (p, start)
    }

    #[test]
    fn table_sweep_matches_reference_on_large_instances() {
        // Covers M = 4, M = 16, M = 5 (a row stride off the unrolled block),
        // and a hub instance whose refresh neighborhoods span the whole
        // circuit.
        for (n, rows, cols, hub) in [
            (96usize, 2usize, 2usize, false),
            (72, 2, 8, false),
            (80, 1, 5, false),
            (96, 2, 2, true),
        ] {
            let (p, start) = lcg_problem(n, rows, cols, hub);
            assert_matches_reference(&p, &start, GklConfig::default(), &[1, 2, 4, 8]);
        }
    }

    #[test]
    fn different_sizes_swap_when_capacity_allows() {
        let mut c = Circuit::new();
        let a = c.add_component("a", 2);
        let _b = c.add_component("b", 1);
        let x = c.add_component("x", 1);
        c.add_wires(a, x, 4).unwrap();
        // a (size 2) sits two cells from x; swapping a (p0) and b (p1)
        // brings a adjacent to x. Capacity 2 permits the swap.
        let p = ProblemBuilder::new(c, PartitionTopology::grid(1, 3, 2).unwrap())
            .build()
            .unwrap();
        let start = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        let out = GklSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
        let eval = Evaluator::new(&p);
        assert!(out.objective < eval.cost(&start));
        assert!(check_feasibility(&p, &out.assignment).is_feasible());
    }

    /// The tuples a pair table stands for, in its order.
    fn decode(table: &PairTable) -> Vec<Candidate> {
        let mut out = Vec::new();
        let mut start = 0;
        for &(gain, end) in &table.runs {
            for &id in &table.ids[start..end] {
                let (j1, j2) = pair_of(id);
                out.push((gain, j1, j2));
            }
            start = end;
        }
        assert_eq!(start, table.ids.len(), "the runs cover every id");
        out
    }

    /// The pair table of the descending tuples `sorted`.
    fn encode(sorted: &[Candidate]) -> PairTable {
        let mut table = PairTable::default();
        for &(gain, j1, j2) in sorted {
            table.push(gain, pair_id(j1 as usize, j2 as usize));
        }
        table
    }

    #[test]
    fn pair_table_is_every_pair_in_descending_order() {
        // A chain whose weights grow tenfold per link spreads the gains
        // wider than the pair count, so it takes the comparison-sort path;
        // the lcg instance takes the counting sort.
        let mut c = Circuit::new();
        for j in 0..8 {
            c.add_component(format!("c{j}"), 1);
        }
        for j in 0..7 {
            let w = 10i64.pow(j as u32);
            c.add_connection(ComponentId::new(j), ComponentId::new(j + 1), w)
                .unwrap();
        }
        let wide = ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 8).unwrap())
            .build()
            .unwrap();
        let wide_start = Assignment::from_parts((0..8).map(|j| j % 4).collect()).unwrap();
        let (narrow, narrow_start) = lcg_problem(96, 2, 2, true);
        for (p, start, counting) in [(&narrow, &narrow_start, true), (&wide, &wide_start, false)] {
            let eval = Evaluator::new(p);
            let mut tables = SweepTables::new(p);
            tables.fill(&eval, start);
            let mut expected: Vec<Candidate> = Vec::new();
            for j1 in 0..p.n() {
                for j2 in j1 + 1..p.n() {
                    if start.part_index(j1) != start.part_index(j2) {
                        let (c1, c2) = (ComponentId::new(j1), ComponentId::new(j2));
                        let gain = -eval.swap_delta(start, c1, c2);
                        expected.push((gain, j1 as u32, j2 as u32));
                    }
                }
            }
            expected.sort_unstable_by(|a, b| b.cmp(a));
            let span = expected[0].0 - expected[expected.len() - 1].0;
            assert_eq!(span < expected.len() as i64, counting, "sort path");
            let lines = (&tables.deltas[..], &tables.cols[..]);
            let table = PairTable::build(&eval, lines, start.as_slice(), &mut tables.mutual);
            // Exactly one `u32` per pair, and one run per distinct gain.
            assert_eq!(std::mem::size_of_val(&table.ids[..]), 4 * expected.len());
            let mut gains: Vec<Cost> = expected.iter().map(|&(g, _, _)| g).collect();
            gains.dedup();
            assert_eq!(table.runs.len(), gains.len(), "counting {counting}");
            assert!(gains.len() < expected.len(), "some run holds more than one pair");
            assert_eq!(decode(&table), expected, "counting {counting}");
            // Each run's first and last entries, and the boundary between
            // adjacent runs.
            let mut start_at = 0;
            for w in table.runs.windows(2) {
                let ((gain, end), (next, _)) = (w[0], w[1]);
                assert!(next < gain);
                assert_eq!(expected[start_at].0, gain);
                assert_eq!(expected[end - 1].0, gain);
                assert_eq!(expected[end].0, next);
                start_at = end;
            }
        }
    }

    #[test]
    fn swap_queue_pops_like_one_heap() {
        // Descending tuple order, as the pair-table build leaves it: runs
        // of gain 5, 3 and −1.
        let sorted = [
            (5, 1, 3),
            (5, 0, 2),
            (3, 2, 3),
            (3, 1, 2),
            (3, 0, 3),
            (-1, 2, 4),
            (-1, 0, 1),
        ];
        let mut queue = SwapQueue::new(encode(&sorted));
        assert_eq!(queue.table.runs, vec![(5, 2), (3, 5), (-1, 7)]);
        assert_eq!(decode(&queue.table), sorted);
        let mut heap: BinaryHeap<Candidate> = sorted.into_iter().collect();
        // Interleave pushes that tie a run's gain (before its first entry,
        // equal to its first and to its last entry, after its last), beat
        // every entry, and trail into the last run.
        let pushes = [
            (5, 0, 4),
            (3, 2, 4),
            (3, 2, 3),
            (7, 1, 4),
            (3, 0, 1),
            (3, 0, 3),
            (-1, 0, 3),
        ];
        for (step, push) in pushes.into_iter().enumerate() {
            assert_eq!(queue.peek(), heap.peek().copied(), "step {step}");
            assert_eq!(queue.pop(), heap.pop(), "step {step}");
            queue.push(push);
            heap.push(push);
        }
        while let Some(top) = heap.pop() {
            assert_eq!(queue.peek(), Some(top));
            assert_eq!(queue.pop(), Some(top));
        }
        assert_eq!(queue.peek(), None);
        assert_eq!(queue.pop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::harness::assert_matches_reference;
    use super::*;
    use qbp_observe::NoopObserver;
    use proptest::prelude::*;
    use qbp_core::{
        check_feasibility, deviation_cost_matrix, Circuit, PartitionTopology, ProblemBuilder,
        TimingConstraints,
    };

    fn arb_spread_instance() -> impl Strategy<Value = (Problem, Assignment)> {
        (4usize..10, 2usize..5).prop_flat_map(|(n, m)| {
            let edges = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 1i64..5),
                1..16,
            );
            let parts = proptest::collection::vec(0u32..m as u32, n);
            (Just((n, m)), edges, parts).prop_map(|((n, m), edges, parts)| {
                let mut circuit = Circuit::new();
                for j in 0..n {
                    circuit.add_component(format!("c{j}"), 1);
                }
                for ((a, b), w) in edges {
                    circuit
                        .add_connection(ComponentId::new(a), ComponentId::new(b), w)
                        .unwrap();
                }
                // Unit sizes with generous capacity: any spread is feasible.
                let problem = ProblemBuilder::new(
                    circuit,
                    PartitionTopology::grid(1, m, n as u64).unwrap(),
                )
                .build()
                .unwrap();
                let start = Assignment::from_parts(parts).unwrap();
                (problem, start)
            })
        })
    }

    /// Instances where swaps get rejected: mixed component sizes, every
    /// capacity equal to the start's fullest partition, timing constraints
    /// met with no slack at the start, one-way and two-way connections,
    /// and an optional linear term. The start is feasible by construction.
    fn arb_constrained_instance() -> impl Strategy<Value = (Problem, Assignment, bool)> {
        (4usize..14, 1usize..3, 2usize..4).prop_flat_map(|(n, rows, cols)| {
            let m = rows * cols;
            let sizes = proptest::collection::vec(1u64..4, n);
            let edges = proptest::collection::vec(
                (
                    (0..n, 0..n).prop_filter("no self", |(a, b)| a != b),
                    1i64..6,
                    proptest::bool::ANY,
                ),
                1..24,
            );
            let timing = proptest::collection::vec(
                (0..n, 0..n).prop_filter("no self", |(a, b)| a != b),
                0..5,
            );
            let parts = proptest::collection::vec(0u32..m as u32, n);
            let flags = (proptest::bool::ANY, proptest::bool::ANY);
            (Just((n, rows, cols)), sizes, edges, timing, parts, flags).prop_map(
                |((n, rows, cols), sizes, edges, timing, parts, (linear, hill_climbing))| {
                    let mut circuit = Circuit::new();
                    for (j, &s) in sizes.iter().enumerate() {
                        circuit.add_component(format!("c{j}"), s);
                    }
                    for ((a, b), w, both) in edges {
                        let (a, b) = (ComponentId::new(a), ComponentId::new(b));
                        if both {
                            circuit.add_wires(a, b, w).unwrap();
                        } else {
                            circuit.add_connection(a, b, w).unwrap();
                        }
                    }
                    let mut load = vec![0u64; rows * cols];
                    for (&p, &s) in parts.iter().zip(&sizes) {
                        load[p as usize] += s;
                    }
                    let capacity = load.into_iter().max().unwrap_or(1);
                    let topo = PartitionTopology::grid(rows, cols, capacity).unwrap();
                    let start = Assignment::from_parts(parts).unwrap();
                    let mut tc = TimingConstraints::new(n);
                    for (a, b) in timing {
                        let limit = topo.delay()[(start.part_index(a), start.part_index(b))];
                        tc.add(ComponentId::new(a), ComponentId::new(b), limit)
                            .unwrap();
                    }
                    let mut builder = ProblemBuilder::new(circuit.clone(), topo.clone());
                    if linear {
                        let p = deviation_cost_matrix(&circuit, &topo, &start).unwrap();
                        builder = builder.linear_cost(p).scales(1, 2);
                    }
                    (builder.timing(tc).build().unwrap(), start, hill_climbing)
                },
            )
        })
    }

    proptest! {
        #[test]
        fn gkl_preserves_feasibility_and_never_regresses(
            (problem, start) in arb_spread_instance()
        ) {
            let eval = Evaluator::new(&problem);
            let out = GklSolver::default()
                .solve(&problem, Some(&start), &mut NoopObserver)
                .unwrap();
            prop_assert!(check_feasibility(&problem, &out.assignment).is_feasible());
            prop_assert!(out.objective <= eval.cost(&start));
            prop_assert_eq!(out.objective, eval.cost(&out.assignment));
            // Swaps preserve the per-partition component counts exactly
            // (unit sizes ⇒ multiset of partition loads is invariant).
            let mut before = vec![0usize; problem.m()];
            let mut after = vec![0usize; problem.m()];
            for j in 0..problem.n() {
                before[start.part_index(j)] += 1;
                after[out.assignment.part_index(j)] += 1;
            }
            prop_assert_eq!(before, after);
        }

        #[test]
        fn gkl_is_bit_identical_across_thread_counts(
            (problem, start) in arb_spread_instance()
        ) {
            assert_matches_reference(&problem, &start, GklConfig::default(), &[1, 2, 4, 8]);
        }

        #[test]
        fn gkl_matches_reference_under_tight_constraints(
            (problem, start, hill_climbing) in arb_constrained_instance()
        ) {
            let config = GklConfig { hill_climbing, ..GklConfig::default() };
            assert_matches_reference(&problem, &start, config, &[1, 2, 4, 8]);
            let out = GklSolver::new(config)
                .solve(&problem, Some(&start), &mut NoopObserver)
                .unwrap();
            prop_assert!(check_feasibility(&problem, &out.assignment).is_feasible());
            prop_assert_eq!(out.objective, Evaluator::new(&problem).cost(&out.assignment));
        }
    }
}
