//! GFM — the paper's first comparison baseline (§5): a generalization of
//! Fiduccia & Mattheyses' interchange heuristic to M-way partitioning with
//! arbitrary interconnection costs, arbitrary component sizes, and
//! feasibility-preserving moves only.
//!
//! Each component carries `M − 1` gain entries (one per foreign partition).
//! A pass repeatedly applies the highest-gain *feasible* move among unlocked
//! components (hill-climbing through negative gains, classic FM style), locks
//! the moved component, and finally rolls back to the best prefix of the
//! pass. Passes repeat until no positive-gain prefix exists.
//!
//! Every move gain is an `O(1)` read of an exact move-delta table
//! `D[j][i] = move_delta(A, j, i)`, filled by walking each component's
//! wires at each pass start ([`Evaluator::move_delta_row`]) and patched
//! after every tentative move ([`Evaluator::patch_move_deltas`]).
//! Candidates are packed integer keys that order like `(gain, j, i)`
//! tuples, held in one exact max-queue: FM gain buckets over a window of
//! gains, plus an overflow heap for the keys outside it.

use crate::common::{affected_components, require_feasible_start, start_or_derive};
use qbp_core::exec::{ExecCtx, ExecStatus};
use qbp_core::{
    move_is_timing_feasible, Assignment, ComponentId, Cost, Error, Evaluator, PartitionId, Problem,
    UsageTracker,
};
use qbp_observe::{MoveKind, SolveEvent, SolveObserver, SolverId};
use qbp_solver::{moved_from, CommonOpts, Configure, SolveReport, Solver};
use std::collections::BinaryHeap;
use std::time::Instant;

/// Configuration for [`GfmSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GfmConfig {
    /// Upper bound on passes; the paper runs "till no more improvement is
    /// possible", which `usize::MAX` approximates (each pass must strictly
    /// improve to continue).
    pub max_passes: usize,
    /// Allow negative-gain moves inside a pass (best-prefix rollback
    /// recovers); disabling turns each pass into a plain greedy descent.
    pub hill_climbing: bool,
    /// Seed for deriving a feasible start when [`Solver::solve`] is called
    /// with `init = None`. The FM passes themselves are deterministic and
    /// never draw from it.
    pub seed: u64,
    /// Worker threads, carried for the shared [`CommonOpts`]. GFM runs
    /// serially: with `O(1)` table gains a pass has too little work per
    /// move to pay for a fan, so the value never changes the work or the
    /// result.
    pub threads: usize,
}

impl Default for GfmConfig {
    fn default() -> Self {
        GfmConfig {
            max_passes: usize::MAX,
            hill_climbing: true,
            seed: 0x5EED_CAFE,
            threads: 1,
        }
    }
}

impl Configure for GfmConfig {
    fn apply_common(&mut self, opts: &CommonOpts) {
        self.seed = opts.seed;
        if let Some(iterations) = opts.iterations {
            // The shared iteration budget maps to FM passes.
            self.max_passes = iterations;
        }
        self.threads = opts.threads;
        // No stall window: each pass must strictly improve, so the loop
        // cannot cycle.
    }
}

/// The generalized Fiduccia–Mattheyses solver.
///
/// [`Solver::solve_exec`] runs GFM from a feasible `init`, or from a start
/// derived by [`qbp_solver::feasible_start`] when `init` is `None`. Both
/// baselines need a violation-free start to guarantee a violation-free
/// result. The observer sees one `IterationStarted`/`IterationFinished`
/// pair per pass, and one `MoveEvaluated` per tentatively applied move
/// (emitted after the pass's best-prefix rollback, so `accepted` tells
/// whether the move was *retained*, not merely tried). The pass loop
/// checks the execution context at each pass boundary; an expired deadline
/// or fired cancel token stops before the next pass starts, and the report
/// keeps the best prefix retained so far, which is feasible by
/// construction. The report's `iterations` counts passes.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, Assignment, Evaluator};
/// use qbp_baselines::{GfmConfig, GfmSolver};
/// use qbp_observe::NoopObserver;
/// use qbp_solver::Solver;
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut circuit = Circuit::new();
/// let a = circuit.add_component("a", 1);
/// let b = circuit.add_component("b", 1);
/// circuit.add_wires(a, b, 5)?;
/// let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 2)?).build()?;
///
/// // Start with a and b far apart; GFM pulls them together.
/// let start = Assignment::from_parts(vec![0, 3])?;
/// let report = GfmSolver::new(GfmConfig::default())
///     .solve(&problem, Some(&start), &mut NoopObserver)?;
/// assert!(report.objective < Evaluator::new(&problem).cost(&start));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GfmSolver {
    config: GfmConfig,
}

/// One tentative move inside a pass, for rollback and event emission.
#[derive(Debug, Clone, Copy)]
struct AppliedMove {
    j: ComponentId,
    from: PartitionId,
    gain: i64,
}

/// Per-pass buffers reused across all passes of one `solve` call, so the
/// pass loop stops re-allocating the gain queue and its side tables after
/// the first pass.
#[derive(Debug, Default)]
struct PassScratch {
    /// Candidate moves as [`pack`]ed keys. Entries of locked components
    /// stay until popped, so `peek` sees them.
    queue: GainQueue,
    locked: Vec<bool>,
    waiting: Vec<Vec<(u32, u32)>>,
    applied: Vec<AppliedMove>,
    /// `deltas[j·M + i] = move_delta(A, j, i)`: filled at each pass start
    /// and patched after every tentative move. Rolled-back moves are never
    /// patched; the next pass re-fills.
    deltas: Vec<Cost>,
}

/// Packs the candidate move `(gain, j, i)` into one heap key. The low 64
/// bits `(j << 32) | i` are never negative, so keys order exactly like the
/// tuples.
#[inline]
fn pack(gain: Cost, j: u32, i: u32) -> i128 {
    (i128::from(gain) << 64) | (i128::from(j) << 32) | i128::from(i)
}

/// The `(gain, j, i)` a [`pack`]ed key holds.
#[inline]
fn unpack(key: i128) -> (Cost, u32, u32) {
    ((key >> 64) as Cost, (key >> 32) as u32, key as u32)
}

/// The keys of `j`'s moves to every partition but its own, `cur`, read
/// from row `j` of the move-delta table, in ascending `i` order.
fn move_keys(
    deltas: &[Cost],
    m: usize,
    j: usize,
    cur: usize,
) -> impl DoubleEndedIterator<Item = i128> + Clone + '_ {
    let row = &deltas[j * m..(j + 1) * m];
    row.iter()
        .enumerate()
        .filter(move |&(i, _)| i != cur)
        .map(move |(i, &d)| pack(-d, j as u32, i as u32))
}

/// GFM's candidate queue: one exact max-queue over [`pack`]ed keys.
///
/// A key whose gain lies in the window `lo..lo + width` sits in bucket
/// `gain − lo`, a max-heap of `(j << shift) | i`, which orders like
/// `(j, i)` because `i < 2^shift`; a key outside the window sits in
/// `overflow`, a max-heap of whole keys. Within the window a higher bucket
/// means a higher gain, so the top key of the highest non-empty bucket is
/// the largest windowed key, and the larger of it and the overflow's top is
/// the largest key of all. Every pushed key stays until popped, dead
/// entries included, so [`GainQueue::pop`] and [`GainQueue::peek`] return
/// exactly what one max-heap over the same pushes would.
#[derive(Debug, Default)]
struct GainQueue {
    /// Bucket `b` holds the keys of gain `lo + b`; only `buckets[..width]`
    /// is in use this pass. Kept across passes with their allocations.
    buckets: Vec<BinaryHeap<u32>>,
    lo: Cost,
    width: usize,
    /// Bits of a bucket entry that hold the partition.
    shift: u32,
    /// Every bucket at or above `end` is empty.
    end: usize,
    overflow: BinaryHeap<i128>,
}

impl GainQueue {
    /// The window for pass-start keys with gains in `lo..=hi`: the top
    /// `min(hi − lo + 1, len / 4)` gain values, as `(lowest gain, width)`.
    /// At most one bucket per four pass-start keys keeps the buckets'
    /// bookkeeping below what those keys took in a single heap.
    fn window(lo: Cost, hi: Cost, len: usize) -> (Cost, usize) {
        let cap = len / 4;
        let width = match usize::try_from(hi.abs_diff(lo)) {
            Ok(span) if span < cap => span + 1,
            _ => cap,
        };
        // `width − 1 ≤ hi − lo`, so the subtraction stays in range.
        (hi - (width as Cost - 1).max(0), width)
    }

    /// Empties the queue and loads the pass-start `keys`, sizing the window
    /// from their gains. Every key the pass pushes has `j < n` and `i < m`;
    /// when `(j, i)` does not fit a `u32` entry the window stays empty. The
    /// keys arrive in ascending `(j, i)` order and load in reverse, so each
    /// bucket receives its keys in descending order and every push lands at
    /// a leaf of its heap.
    fn reset(&mut self, n: usize, m: usize, keys: impl DoubleEndedIterator<Item = i128> + Clone) {
        for bucket in &mut self.buckets[..self.end] {
            bucket.clear();
        }
        self.overflow.clear();
        self.end = 0;
        let (mut lo, mut hi, mut len) = (Cost::MAX, Cost::MIN, 0);
        for key in keys.clone() {
            let gain = unpack(key).0;
            lo = lo.min(gain);
            hi = hi.max(gain);
            len += 1;
        }
        // A bucket entry needs `shift` bits for `i` and `32 − shift` for `j`.
        self.shift = usize::BITS - m.saturating_sub(1).leading_zeros();
        let fits = self.shift < 32 && n as u64 <= 1 << (32 - self.shift);
        (self.lo, self.width) = Self::window(lo, hi, if fits { len } else { 0 });
        if self.buckets.len() < self.width {
            self.buckets.resize_with(self.width, BinaryHeap::new);
        }
        for key in keys.rev() {
            self.push(key);
        }
    }

    /// The bucket `key` belongs in, if its gain lies in the window.
    fn bucket(&self, key: i128) -> Option<usize> {
        let gain = unpack(key).0;
        let offset = usize::try_from(gain.checked_sub(self.lo)?).ok()?;
        (offset < self.width).then_some(offset)
    }

    fn push(&mut self, key: i128) {
        match self.bucket(key) {
            Some(b) => {
                let (_, j, i) = unpack(key);
                self.buckets[b].push((j << self.shift) | i);
                self.end = self.end.max(b + 1);
            }
            None => self.overflow.push(key),
        }
    }

    /// The highest non-empty bucket and its top key, moving `end` down
    /// past the empty buckets above it.
    fn top_bucket(&mut self) -> Option<(usize, i128)> {
        while self.end > 0 {
            let b = self.end - 1;
            if let Some(&cell) = self.buckets[b].peek() {
                let gain = self.lo + b as Cost;
                let i = cell & ((1 << self.shift) - 1);
                return Some((b, pack(gain, cell >> self.shift, i)));
            }
            self.end = b;
        }
        None
    }

    fn peek(&mut self) -> Option<i128> {
        let windowed = self.top_bucket().map(|(_, key)| key);
        windowed.max(self.overflow.peek().copied())
    }

    fn pop(&mut self) -> Option<i128> {
        match self.top_bucket() {
            Some((b, key)) if self.overflow.peek().is_none_or(|&o| o < key) => {
                self.buckets[b].pop();
                Some(key)
            }
            _ => self.overflow.pop(),
        }
    }
}

impl GfmSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: GfmConfig) -> Self {
        GfmSolver { config }
    }

    /// Runs one FM pass; returns the retained gain. `assignment` ends at
    /// the best prefix of the pass.
    fn run_pass(
        &self,
        eval: &Evaluator<'_>,
        assignment: &mut Assignment,
        scratch: &mut PassScratch,
        pass: usize,
        obs: &mut dyn SolveObserver,
    ) -> i64 {
        let problem = eval.problem();
        let (n, m) = (problem.n(), problem.m());
        let mut usage = UsageTracker::new(problem, assignment);
        let PassScratch {
            queue,
            locked,
            waiting,
            applied,
            deltas,
        } = scratch;
        locked.clear();
        locked.resize(n, false);
        deltas.resize(n * m, 0);
        for (j, row) in deltas.chunks_mut(m).enumerate() {
            eval.move_delta_row(assignment, ComponentId::new(j), row);
        }
        // Max-queue of candidate moves (its pop sequence depends only on
        // its contents); keys refreshed lazily on pop and eagerly for
        // components affected by each applied move.
        let table: &[Cost] = deltas;
        queue.reset(
            n,
            m,
            assignment
                .as_slice()
                .iter()
                .enumerate()
                .flat_map(|(j, &cur)| move_keys(table, m, j, cur as usize)),
        );
        // Capacity-blocked candidates parked per target partition; revived
        // when that partition frees space.
        for w in waiting.iter_mut() {
            w.clear();
        }
        waiting.resize_with(m, Vec::new);

        applied.clear();
        let mut cum_gain: i64 = 0;
        let mut best_gain: i64 = 0;
        let mut best_len: usize = 0;
        while let Some(top) = queue.pop() {
            let (key, ju, iu) = unpack(top);
            let (j, i) = (ju as usize, iu as usize);
            if locked[j] {
                continue;
            }
            // An unlocked component has not moved since its keys were made.
            let cur = assignment.part_index(j);
            debug_assert_ne!(i, cur);
            let gain = -deltas[j * m + i];
            // Stale key: re-queue with the fresh gain unless it still
            // dominates the queue — dead entries included, and ties win.
            if gain < key && queue.peek().is_some_and(|next| gain < unpack(next).0) {
                queue.push(pack(gain, ju, iu));
                continue;
            }
            if !self.config.hill_climbing && gain <= 0 {
                break;
            }
            // Feasibility gates.
            let (cj, pi) = (ComponentId::new(j), PartitionId::new(i));
            if !usage.move_fits(problem, cj, pi) {
                waiting[i].push((ju, iu));
                continue;
            }
            if !move_is_timing_feasible(problem, assignment, cj, pi) {
                continue;
            }
            // Apply tentatively. The table patch reads the assignment with
            // `j` already moved.
            let from = PartitionId::new(cur);
            usage.apply_move(problem, cj, from, pi);
            assignment.move_to(cj, pi);
            eval.patch_move_deltas(assignment, cj, from, deltas);
            locked[j] = true;
            cum_gain += gain;
            applied.push(AppliedMove { j: cj, from, gain });
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_len = applied.len();
            }
            // Refresh gains of affected unlocked components and revive
            // capacity-waiters of the freed partition.
            for k in affected_components(problem, cj) {
                let k = k.index();
                if !locked[k] {
                    for key in move_keys(deltas, m, k, assignment.part_index(k)) {
                        queue.push(key);
                    }
                }
            }
            for (wj, wi) in waiting[cur].drain(..) {
                if !locked[wj as usize] {
                    queue.push(pack(-deltas[wj as usize * m + wi as usize], wj, wi));
                }
            }
        }

        // Roll back to the best prefix, then report every tentative move:
        // `accepted` means "survived the rollback", the only acceptance
        // notion FM has (moves are always applied first, judged later).
        for mv in applied[best_len..].iter().rev() {
            assignment.move_to(mv.j, mv.from);
        }
        // Every tentative move, plus every one the rollback undid.
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: pass,
            rebuilt: false,
            moved: 2 * applied.len() - best_len,
        });
        for (idx, mv) in applied.iter().enumerate() {
            obs.on_event(&SolveEvent::MoveEvaluated {
                iteration: pass,
                kind: MoveKind::Shift,
                delta: -mv.gain,
                accepted: idx < best_len,
            });
        }
        best_gain
    }
}

impl Solver for GfmSolver {
    fn name(&self) -> &'static str {
        "gfm"
    }

    fn solve_exec(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        let start = Instant::now();
        let init = start_or_derive(problem, init, self.config.seed)?;
        require_feasible_start(problem, &init)?;
        let eval = Evaluator::new(problem);
        let mut assignment = (*init).clone();
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Gfm,
            components: problem.n(),
            partitions: problem.m(),
        });
        let mut scratch = PassScratch::default();
        // The move-delta table starts cold: the first pass fills every row.
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: 0,
            rebuilt: true,
            moved: problem.n(),
        });
        let mut passes = 0;
        let mut status = ExecStatus::Completed;
        // Maintained incrementally from the retained gains so the per-pass
        // IterationFinished value costs nothing extra.
        let mut value = eval.cost(&assignment);
        while passes < self.config.max_passes {
            if let Some(stop) = exec.check(passes + 1) {
                match stop {
                    ExecStatus::Cancelled => {
                        obs.on_event(&SolveEvent::Cancelled { iteration: passes + 1 });
                    }
                    _ => obs.on_event(&SolveEvent::BudgetExhausted { iteration: passes + 1 }),
                }
                status = stop;
                break;
            }
            passes += 1;
            obs.on_event(&SolveEvent::IterationStarted { iteration: passes });
            let gain = self.run_pass(&eval, &mut assignment, &mut scratch, passes, obs);
            value -= gain;
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: passes,
                value,
                feasible: true,
                improved: gain > 0,
            });
            if gain <= 0 {
                break;
            }
        }
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: passes,
            value,
            feasible: true,
        });
        Ok(SolveReport {
            solver: "gfm",
            moves_applied: moved_from(Some(&init), &assignment),
            objective: value,
            embedded_value: None,
            feasible: true,
            iterations: passes,
            elapsed: start.elapsed(),
            auto_profile: None,
            assignment,
            status,
        })
    }
}

/// The serial sweep as it ran before the move-delta table, kept as the
/// oracle the table sweep must match decision for decision: every gain is a
/// fresh adjacency walk ([`Evaluator::move_delta`]), and the candidates live
/// in one `BinaryHeap` of `(gain, j, i)` tuples. It keeps no table, but
/// counts the moves the solver reports per pass, so the two event streams
/// compare event for event.
#[cfg(test)]
mod reference {
    use super::*;

    /// One reference pass; returns `(retained gain, retained moves)`.
    fn pass(
        config: &GfmConfig,
        eval: &Evaluator<'_>,
        assignment: &mut Assignment,
        pass: usize,
        obs: &mut dyn SolveObserver,
    ) -> (i64, usize) {
        let problem = eval.problem();
        let (n, m) = (problem.n(), problem.m());
        let mut usage = UsageTracker::new(problem, assignment);
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<(Cost, u32, u32)> = BinaryHeap::new();
        let push_moves =
            |heap: &mut BinaryHeap<(Cost, u32, u32)>, assignment: &Assignment, j: usize| {
                let cur = assignment.part_index(j);
                for i in 0..m {
                    if i != cur {
                        let gain =
                            -eval.move_delta(assignment, ComponentId::new(j), PartitionId::new(i));
                        heap.push((gain, j as u32, i as u32));
                    }
                }
            };
        for j in 0..n {
            push_moves(&mut heap, assignment, j);
        }
        let mut waiting: Vec<Vec<(u32, u32)>> = vec![Vec::new(); m];
        let mut applied: Vec<AppliedMove> = Vec::new();
        let (mut cum_gain, mut best_gain, mut best_len) = (0i64, 0i64, 0usize);
        let mut moves = 0;
        while let Some((key, ju, iu)) = heap.pop() {
            let j = ju as usize;
            let i = iu as usize;
            if locked[j] {
                continue;
            }
            let cur = assignment.part_index(j);
            if i == cur {
                continue;
            }
            let cj = ComponentId::new(j);
            let pi = PartitionId::new(i);
            let gain = -eval.move_delta(assignment, cj, pi);
            if gain < key {
                let still_max = heap.peek().is_none_or(|&(next, _, _)| gain >= next);
                if !still_max {
                    heap.push((gain, ju, iu));
                    continue;
                }
            }
            if !config.hill_climbing && gain <= 0 {
                break;
            }
            if !usage.move_fits(problem, cj, pi) {
                waiting[i].push((ju, iu));
                continue;
            }
            if !move_is_timing_feasible(problem, assignment, cj, pi) {
                continue;
            }
            let from = PartitionId::new(cur);
            usage.apply_move(problem, cj, from, pi);
            assignment.move_to(cj, pi);
            moves += 1;
            locked[j] = true;
            cum_gain += gain;
            applied.push(AppliedMove { j: cj, from, gain });
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_len = applied.len();
            }
            for k in affected_components(problem, cj) {
                if !locked[k.index()] {
                    push_moves(&mut heap, assignment, k.index());
                }
            }
            for (wj, wi) in std::mem::take(&mut waiting[from.index()]) {
                if !locked[wj as usize] {
                    let (cw, pw) = (ComponentId::new(wj as usize), PartitionId::new(wi as usize));
                    heap.push((-eval.move_delta(assignment, cw, pw), wj, wi));
                }
            }
        }
        for mv in applied[best_len..].iter().rev() {
            assignment.move_to(mv.j, mv.from);
            moves += 1;
        }
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: pass,
            rebuilt: false,
            moved: moves,
        });
        for (idx, mv) in applied.iter().enumerate() {
            obs.on_event(&SolveEvent::MoveEvaluated {
                iteration: pass,
                kind: MoveKind::Shift,
                delta: -mv.gain,
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
        pub(super) passes: usize,
        /// Moves retained after best-prefix rollbacks.
        pub(super) retained: usize,
    }

    /// A full reference solve from a feasible start, with the solver's
    /// event stream (unbounded budget, so no stop events).
    pub(super) fn solve(
        config: &GfmConfig,
        problem: &Problem,
        initial: &Assignment,
        obs: &mut dyn SolveObserver,
    ) -> Outcome {
        require_feasible_start(problem, initial).expect("reference needs a feasible start");
        let eval = Evaluator::new(problem);
        let mut assignment = initial.clone();
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Gfm,
            components: problem.n(),
            partitions: problem.m(),
        });
        obs.on_event(&SolveEvent::ProfileUpdated {
            iteration: 0,
            rebuilt: true,
            moved: problem.n(),
        });
        let (mut passes, mut total_moves) = (0, 0);
        let mut value = eval.cost(&assignment);
        while passes < config.max_passes {
            passes += 1;
            obs.on_event(&SolveEvent::IterationStarted { iteration: passes });
            let (gain, moves) = pass(config, &eval, &mut assignment, passes, obs);
            total_moves += moves;
            value -= gain;
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: passes,
                value,
                feasible: true,
                improved: gain > 0,
            });
            if gain <= 0 {
                break;
            }
        }
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: passes,
            value,
            feasible: true,
        });
        Outcome {
            assignment,
            cost: value,
            passes,
            retained: total_moves,
        }
    }
}

/// Shared by the unit tests and the proptests: the table sweep at a given
/// thread count against the reference sweep.
#[cfg(test)]
mod harness {
    use super::*;

    /// Asserts that [`GfmSolver`] under `config` at each of `threads`
    /// matches the reference sweep exactly: assignment, cost, pass count,
    /// retained-move count (read off the `accepted` move events), and the
    /// event stream (every `MoveEvaluated` delta and acceptance included).
    /// The solver's pass budget is capped one past the reference's pass
    /// count, so a sweep that mis-prices its gains and never stops
    /// "improving" fails here instead of running forever.
    pub(super) fn assert_matches_reference(
        problem: &Problem,
        start: &Assignment,
        config: GfmConfig,
        threads: &[usize],
    ) {
        let mut expected_events = Vec::new();
        let expected = reference::solve(&config, problem, start, &mut expected_events);
        let max_passes = config.max_passes.min(expected.passes + 1);
        for &threads in threads {
            let mut events = Vec::new();
            let out = GfmSolver::new(GfmConfig {
                threads,
                max_passes,
                ..config
            })
            .solve(problem, Some(start), &mut events)
            .unwrap();
            let retained = events
                .iter()
                .filter(|e| matches!(e, SolveEvent::MoveEvaluated { accepted: true, .. }))
                .count();
            let got = reference::Outcome {
                assignment: out.assignment,
                cost: out.objective,
                passes: out.iterations,
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
    use qbp_core::{check_feasibility, Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};

    fn chain_problem(cap: u64) -> Problem {
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..6)
            .map(|j| c.add_component(format!("c{j}"), 1 + (j % 3) as u64))
            .collect();
        for w in ids.windows(2) {
            c.add_wires(w[0], w[1], 3).unwrap();
        }
        c.add_wires(ids[0], ids[5], 1).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, cap).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn improves_a_scattered_start() {
        let p = chain_problem(12);
        let start = Assignment::from_parts(vec![0, 3, 0, 3, 0, 3]).unwrap();
        let eval = Evaluator::new(&p);
        let out = GfmSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
        assert!(out.objective < eval.cost(&start));
        assert_eq!(out.objective, eval.cost(&out.assignment));
        assert!(check_feasibility(&p, &out.assignment).is_feasible());
    }

    #[test]
    fn respects_capacity_during_descent() {
        // Capacity 4: the chain (total size 12) cannot collapse into one
        // partition; the start packs every partition exactly full.
        let p = chain_problem(4);
        let start = Assignment::from_parts(vec![0, 2, 0, 1, 2, 1]).unwrap();
        let out = GfmSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
        assert!(check_feasibility(&p, &out.assignment).is_feasible());
    }

    #[test]
    fn respects_timing_during_descent() {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("c", 1);
        c.add_wires(a, b, 10).unwrap();
        // Timing pins c within distance 1 of a; moving c next to b would
        // break it.
        let mut tc = TimingConstraints::new(3);
        tc.add_symmetric(a, d, 1).unwrap();
        c.add_wires(b, d, 10).unwrap();
        let p = ProblemBuilder::new(c, PartitionTopology::grid(1, 4, 3).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        let start = Assignment::from_parts(vec![0, 2, 1]).unwrap();
        let out = GfmSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
        assert!(check_feasibility(&p, &out.assignment).is_feasible());
    }

    #[test]
    fn rejects_infeasible_start() {
        let p = chain_problem(3);
        let start = Assignment::all_in_first(6); // 12 > 3
        assert!(matches!(
            GfmSolver::default().solve(&p, Some(&start), &mut NoopObserver),
            Err(Error::InfeasibleStart { .. })
        ));
    }

    #[test]
    fn final_cost_never_worse_than_start() {
        let p = chain_problem(6);
        let eval = Evaluator::new(&p);
        for parts in [[0u32, 1, 2, 3, 2, 1], [3, 3, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1]] {
            let start = Assignment::from_parts(parts.to_vec()).unwrap();
            if check_feasibility(&p, &start).is_feasible() {
                let out = GfmSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
                assert!(out.objective <= eval.cost(&start), "start {parts:?}");
            }
        }
    }

    #[test]
    fn greedy_mode_also_improves() {
        let p = chain_problem(12);
        let start = Assignment::from_parts(vec![0, 3, 0, 3, 0, 3]).unwrap();
        let out = GfmSolver::new(GfmConfig {
            hill_climbing: false,
            ..GfmConfig::default()
        })
        .solve(&p, Some(&start), &mut NoopObserver)
        .unwrap();
        let eval = Evaluator::new(&p);
        assert!(out.objective <= eval.cost(&start));
    }

    #[test]
    fn packed_keys_order_like_tuples() {
        let gains = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let idx = [0u32, 1, 7, u32::MAX - 1, u32::MAX];
        let mut tuples = Vec::new();
        for &g in &gains {
            for &j in &idx {
                for &i in &idx {
                    tuples.push((g, j, i));
                }
            }
        }
        for &a in &tuples {
            assert_eq!(unpack(pack(a.0, a.1, a.2)), a);
            for &b in &tuples {
                let (ka, kb) = (pack(a.0, a.1, a.2), pack(b.0, b.1, b.2));
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Deterministic pseudo-random instance with mixed sizes. `tight` sets
    /// every capacity to the start's fullest partition, so capacity-blocked
    /// moves park and revive throughout each pass. Every sixteenth wire
    /// weighs `heavy` times its draw.
    fn lcg_problem(
        n: usize,
        rows: usize,
        cols: usize,
        tight: bool,
        heavy: i64,
    ) -> (Problem, Assignment) {
        let mut c = Circuit::new();
        for j in 0..n {
            c.add_component(format!("c{j}"), 1 + (j as u64 % 4));
        }
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for k in 0..n * 3 {
            let a = (next() as usize) % n;
            let b = (next() as usize) % n;
            if a != b {
                let w = (1 + (next() % 9) as i64) * if k % 16 == 0 { heavy } else { 1 };
                c.add_connection(ComponentId::new(a), ComponentId::new(b), w)
                    .unwrap();
            }
        }
        let m = rows * cols;
        let parts: Vec<u32> = (0..n).map(|j| (j % m) as u32).collect();
        let mut load = vec![0u64; m];
        for (j, &p) in parts.iter().enumerate() {
            load[p as usize] += c.size(ComponentId::new(j));
        }
        let capacity = if tight {
            load.into_iter().max().unwrap()
        } else {
            n as u64 * 4
        };
        let p = ProblemBuilder::new(c, PartitionTopology::grid(rows, cols, capacity).unwrap())
            .build()
            .unwrap();
        let start = Assignment::from_parts(parts).unwrap();
        (p, start)
    }

    #[test]
    fn table_sweep_matches_reference_on_large_instances() {
        // Covers M = 8, M = 16 and M = 5 (a row stride off the unrolled
        // block), with ample and with start-tight capacities. The last
        // instance's heavy wires spread the pass-start gains wider than the
        // queue's window, so keys below it start in the overflow heap, and
        // moving a heavy wire's end re-prices its partner's moves far
        // outside the window.
        let cases = [
            (600usize, 2usize, 4usize, 1i64),
            (300, 2, 8, 1),
            (823, 1, 5, 1),
            (400, 2, 4, 1000),
        ];
        for (n, rows, cols, heavy) in cases {
            for tight in [false, true] {
                let (p, start) = lcg_problem(n, rows, cols, tight, heavy);
                assert_matches_reference(&p, &start, GfmConfig::default(), &[1, 2, 4, 8]);
                let out = GfmSolver::default().solve(&p, Some(&start), &mut NoopObserver).unwrap();
                assert!(out.moves_applied > 0, "n={n} tight={tight}");
                let eval = Evaluator::new(&p);
                let gains: Vec<Cost> = (0..n)
                    .flat_map(|j| (0..p.m()).map(move |i| (j, i)))
                    .filter(|&(j, i)| i != start.part_index(j))
                    .map(|(j, i)| {
                        -eval.move_delta(&start, ComponentId::new(j), PartitionId::new(i))
                    })
                    .collect();
                let (lo, hi) = (*gains.iter().min().unwrap(), *gains.iter().max().unwrap());
                let below = GainQueue::window(lo, hi, gains.len()).0 > lo;
                assert_eq!(below, heavy > 1, "n={n} heavy={heavy}: pass-start overflow");
            }
        }
    }

    #[test]
    fn gain_queue_pops_like_one_heap() {
        // One queue through many passes against one heap per pass. Each
        // pass loads distinct start keys, then interleaves pushes (gains
        // inside, below and above the window, the extremes of `Cost`, and
        // duplicates of queued keys), pops and peeks. Pass 0 loads no keys,
        // so its window is empty; every other pass stops half drained, so
        // the next reset starts from a dirty queue.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |range: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % range
        };
        let mut queue = GainQueue::default();
        let (mut windowed, mut outside) = (0, 0);
        for pass in 0..60 {
            let n = if pass == 0 { 0 } else { next(40) as u32 };
            let m = 1 + next(6) as u32;
            let spread = [1, 3, 40, 10_000][next(4) as usize];
            let base = next(200) as Cost - 100;
            let mut start = Vec::new();
            for j in 0..n {
                for i in 0..m {
                    start.push(pack(base + next(spread) as Cost, j, i));
                }
            }
            queue.reset(n as usize + 2, m as usize, start.iter().copied());
            let mut heap = BinaryHeap::from(start);
            for step in 0..400 {
                let ctx = format!("pass {pass} step {step}");
                match next(3) {
                    0 => {
                        let key = match next(8) {
                            0 if !heap.is_empty() => {
                                heap.as_slice()[next(heap.len() as u64) as usize]
                            }
                            1 => pack(
                                [Cost::MIN, Cost::MAX][next(2) as usize],
                                0,
                                next(m as u64) as u32,
                            ),
                            _ => {
                                let gain = base - 2 * spread as Cost + next(5 * spread) as Cost;
                                pack(gain, next(n as u64 + 2) as u32, next(m as u64) as u32)
                            }
                        };
                        match queue.bucket(key) {
                            Some(_) => windowed += 1,
                            None => outside += 1,
                        }
                        queue.push(key);
                        heap.push(key);
                    }
                    1 => assert_eq!(queue.pop(), heap.pop(), "{ctx}"),
                    _ => assert_eq!(queue.peek(), heap.peek().copied(), "{ctx}"),
                }
            }
            if pass % 2 == 0 {
                while let Some(top) = heap.pop() {
                    assert_eq!(queue.peek(), Some(top), "pass {pass} drain");
                    assert_eq!(queue.pop(), Some(top), "pass {pass} drain");
                }
                assert_eq!(queue.pop(), None, "pass {pass}");
            }
        }
        assert!(
            windowed > 0 && outside > 0,
            "{windowed} windowed, {outside} outside"
        );
    }

    #[test]
    fn max_passes_caps_work() {
        let p = chain_problem(12);
        let start = Assignment::from_parts(vec![0, 3, 0, 3, 0, 3]).unwrap();
        let out = GfmSolver::new(GfmConfig {
            max_passes: 1,
            ..GfmConfig::default()
        })
        .solve(&p, Some(&start), &mut NoopObserver)
        .unwrap();
        assert_eq!(out.iterations, 1);
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

    fn arb_feasible_instance() -> impl Strategy<Value = (Problem, Assignment)> {
        (3usize..9, 2usize..5).prop_flat_map(|(n, m)| {
            let edges = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 1i64..5),
                0..14,
            );
            let cons = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 1i64..4),
                0..6,
            );
            (Just((n, m)), edges, cons).prop_map(|((n, m), edges, cons)| {
                let mut circuit = Circuit::new();
                for j in 0..n {
                    circuit.add_component(format!("c{j}"), 1 + (j as u64 % 3));
                }
                for ((a, b), w) in edges {
                    circuit
                        .add_connection(ComponentId::new(a), ComponentId::new(b), w)
                        .unwrap();
                }
                let mut tc = TimingConstraints::new(n);
                for ((a, b), dc) in cons {
                    tc.add(ComponentId::new(a), ComponentId::new(b), dc).unwrap();
                }
                // Everything in partition 0 with ample capacity: trivially
                // feasible start (distance 0 satisfies all limits >= 1).
                let problem = ProblemBuilder::new(
                    circuit,
                    PartitionTopology::grid(1, m, 10_000).unwrap(),
                )
                .timing(tc)
                .build()
                .unwrap();
                let start = Assignment::all_in_first(n);
                (problem, start)
            })
        })
    }

    /// Instances where moves get rejected: mixed component sizes, every
    /// capacity equal to the start's fullest partition, timing constraints
    /// met with no slack at the start, one-way and two-way connections,
    /// and an optional linear term. The start is feasible by construction.
    /// Sizes and weights stay small so gains tie often: the stale-gain
    /// rule's tie and dead-entry cases decide a move only when a re-priced
    /// gain ties a live move of a larger index, which about one instance in
    /// a few hundred hits.
    fn arb_constrained_instance() -> impl Strategy<Value = (Problem, Assignment, bool)> {
        (4usize..18, 1usize..3, 2usize..4).prop_flat_map(|(n, rows, cols)| {
            let m = rows * cols;
            let sizes = proptest::collection::vec(1u64..3, n);
            let edges = proptest::collection::vec(
                (
                    (0..n, 0..n).prop_filter("no self", |(a, b)| a != b),
                    1i64..3,
                    proptest::bool::ANY,
                ),
                1..32,
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
        fn gfm_preserves_feasibility_and_never_regresses(
            (problem, start) in arb_feasible_instance()
        ) {
            prop_assume!(check_feasibility(&problem, &start).is_feasible());
            let eval = Evaluator::new(&problem);
            let out = GfmSolver::default()
                .solve(&problem, Some(&start), &mut NoopObserver)
                .unwrap();
            prop_assert!(check_feasibility(&problem, &out.assignment).is_feasible());
            prop_assert!(out.objective <= eval.cost(&start));
            prop_assert_eq!(out.objective, eval.cost(&out.assignment));
        }

        #[test]
        fn gfm_is_bit_identical_across_thread_counts(
            (problem, start) in arb_feasible_instance()
        ) {
            prop_assume!(check_feasibility(&problem, &start).is_feasible());
            assert_matches_reference(&problem, &start, GfmConfig::default(), &[1, 2, 4, 8]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn gfm_matches_reference_under_tight_constraints(
            (problem, start, hill_climbing) in arb_constrained_instance()
        ) {
            let config = GfmConfig { hill_climbing, ..GfmConfig::default() };
            assert_matches_reference(&problem, &start, config, &[1, 2, 4, 8]);
            let out = GfmSolver::new(config)
                .solve(&problem, Some(&start), &mut NoopObserver)
                .unwrap();
            prop_assert!(check_feasibility(&problem, &out.assignment).is_feasible());
            prop_assert_eq!(out.objective, Evaluator::new(&problem).cost(&out.assignment));
        }
    }
}
