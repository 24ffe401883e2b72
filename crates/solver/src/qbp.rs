//! The generalized Burkard heuristic (§4.2–4.3 of the paper) for the
//! timing-embedded Quadratic Boolean Program
//! `min_{y ∈ S} yᵀQ̂y`, where `S` is the set of capacity-feasible
//! assignments.
//!
//! Per iteration `k`:
//!
//! 1. **STEP 3** — compute `η⁽ᵏ⁾` (a linearization of `Q̂` at the current
//!    iterate `u⁽ᵏ⁾`) and `ξ⁽ᵏ⁾ = ω·u⁽ᵏ⁾`; our `η` kernel is sparse,
//!    `O((E+T)·M)`, never materializing `Q̂` (§4.3);
//! 2. **STEP 4** — solve the Generalized Assignment Problem
//!    `z = min_{u ∈ S} η·u` (Martello–Toth-style heuristic);
//! 3. **STEP 5** — accumulate the search direction
//!    `h ← h + η / max(1, |z − ξ|)`;
//! 4. **STEP 6** — solve the GAP `min_{u ∈ S} h·u` to obtain `u⁽ᵏ⁺¹⁾`;
//! 5. **STEP 7** — keep the best `yᵀQ̂y` seen.
//!
//! The paper runs 100 iterations per circuit; quality improves with more.

use crate::api::{moved_from, CommonOpts, Configure, SolveReport, Solver};
use crate::gap::{solve_gap_observed_par, solve_gap_par, GapConfig, GapInstance, GapScratch};
use qbp_core::exec::{catch_panic, ExecCtx, ExecStatus};
use qbp_core::{
    check_feasibility, Assignment, ComponentId, Cost, Error, Evaluator, PartitionProfile, Problem,
    QMatrix,
};
use qbp_observe::{
    BatchPhase, EtaFallbackReason, NoopObserver, SolveEvent, SolveObserver, SolverId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How the timing-violation penalty embedded in `Q̂` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub enum PenaltyMode {
    /// A caller-supplied constant (the paper uses 50).
    Fixed(Cost),
    /// Slightly above twice the largest single-entry base cost (default):
    /// big enough to dominate any local trade-off, small enough to avoid the
    /// numerical-accuracy concern of §3.2.
    #[default]
    Auto,
    /// The provably sufficient Theorem-1 bound `U > 2·Σ|q|` — the embedding
    /// is then unconditionally exact, at the price of very large entries.
    Theorem1,
}


/// Which linearization coefficients STEP 3 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EtaMode {
    /// `η_s = Σ_r q̂[r][s]·u[r]` — the form printed in the paper's STEP-3
    /// pseudocode (default; this is what the paper ran).
    #[default]
    Pseudocode,
    /// `η_s = Σ_r q̂[r][s]·u[r] + ω_s·u_s` — the form of the paper's eq. (3),
    /// following Balas & Mazzola's linearization.
    BalasMazzola,
}

/// Configuration of the QBP solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QbpConfig {
    /// Number of Burkard iterations (paper: 100). "The more CPU time spent,
    /// the better the results."
    pub iterations: usize,
    /// Penalty selection for the timing embedding.
    pub penalty: PenaltyMode,
    /// STEP-3 linearization variant.
    pub eta_mode: EtaMode,
    /// Seed for the random initial iterate used when none is supplied.
    pub seed: u64,
    /// Shift-improvement sweeps inside each GAP subproblem solve.
    pub gap_improvement_passes: usize,
    /// Enable pairwise-swap improvement inside GAP solves (slower, slightly
    /// better subproblem optima).
    pub gap_swap_improvement: bool,
    /// Length of the recent-iterate window used to detect fixed points and
    /// short cycles (default 8). Restarts (reset `h`, re-randomize the
    /// iterate, keep the incumbent) keep the deterministic loop from burning
    /// the remaining iterations at a fixed point, so "the more CPU time
    /// spent, the better the results" (§5) holds. `0` disables stall
    /// restarts entirely and runs the literal STEPs 1–8.
    pub stall_window: usize,
    /// Polish violated GAP candidates with sequential coordinate descent on
    /// the embedded objective `yᵀQ̂y` before incumbent comparison. GAP
    /// subproblems only see timing through the penalties frozen at the
    /// current iterate, so simultaneous reassignment leaves residual
    /// violations; the monotone descent closes them. An enhancement over the
    /// paper's pseudocode; disable for the literal loop.
    pub repair_candidates: bool,
    /// Record per-iteration statistics in [`QbpOutcome::history`].
    pub track_history: bool,
    /// Worker threads: `0` (default) resolves to one per available core,
    /// `1` forces every serial path, higher values cap the pools. The budget
    /// drives both [`QbpSolver::solve_multistart`]'s run fan-out and the
    /// intra-solve η-row batches of a single solve (multistart's parallel
    /// branch pins its inner solves to `threads: 1`, so the two levels never
    /// oversubscribe). The answer is bit-identical for every setting — runs
    /// are independent and reduced in run order, and the η fan-out writes
    /// disjoint columns via `qbp_core::par`.
    pub threads: usize,
}

impl Default for QbpConfig {
    fn default() -> Self {
        QbpConfig {
            iterations: 100,
            penalty: PenaltyMode::Auto,
            eta_mode: EtaMode::Pseudocode,
            seed: 0x5EED_CAFE,
            gap_improvement_passes: 2,
            gap_swap_improvement: false,
            stall_window: STALL_WINDOW,
            repair_candidates: true,
            track_history: false,
            threads: 0,
        }
    }
}

impl QbpConfig {
    /// Whether stall restarts are active: the window must be non-zero.
    pub(crate) fn restarts_enabled(&self) -> bool {
        self.stall_window > 0
    }
}

impl Configure for QbpConfig {
    fn apply_common(&mut self, opts: &CommonOpts) {
        self.seed = opts.seed;
        if let Some(iterations) = opts.iterations {
            self.iterations = iterations;
        }
        if let Some(stall_window) = opts.stall_window {
            self.stall_window = stall_window;
        }
        self.threads = opts.threads;
    }

    fn common(&self) -> CommonOpts {
        CommonOpts {
            seed: self.seed,
            iterations: Some(self.iterations),
            stall_window: Some(self.stall_window),
            threads: self.threads,
        }
    }
}

/// Reusable buffers for [`QbpSolver::solve_with`]: the η cache with the
/// assignment it linearizes (enabling [`QMatrix::eta_update`]'s incremental
/// patch), the `f64` mirror handed to the GAP solver, the accumulated
/// direction `h`, the stall-detection fingerprint window, and scratch for the
/// GAP and descent subroutines. After the first iteration warms the buffers,
/// the solver's inner loop performs no heap allocation beyond the `O(N)`
/// assignment clones it hands to the incumbent bookkeeping.
///
/// A workspace may be reused across solves (the multistart driver runs many
/// seeds through one workspace per worker); results are bit-identical to
/// solving with a fresh workspace because the η cache records exactly which
/// assignment it reflects and every other buffer is reinitialized per solve.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    eta: Vec<Cost>,
    /// The assignment `eta` currently linearizes; `None` when the cache is
    /// cold.
    eta_source: Option<Assignment>,
    /// Incremental per-partition neighbor-weight aggregates backing full η
    /// recomputes ([`QMatrix::eta_profiled`]); `None` until the first full
    /// recompute builds it.
    profile: Option<PartitionProfile>,
    /// The assignment `profile` currently aggregates; patched forward (or
    /// rebuilt) on the next full recompute.
    profile_source: Option<Assignment>,
    /// Balas–Mazzola variant scratch: raw η plus the ω diagonal. Kept apart
    /// so the incremental cache in `eta` stays pristine.
    eta_bm: Vec<Cost>,
    eta_f: Vec<f64>,
    h: Vec<f64>,
    recent: VecDeque<u64>,
    gap: GapScratch,
    descent: DescentScratch,
}

impl SolveWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-iteration record (STEP 7's bookkeeping), for convergence studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration number, starting at 1.
    pub iteration: usize,
    /// `yᵀQ̂y` of the iterate produced in STEP 6.
    pub embedded_value: Cost,
    /// Plain objective of that iterate.
    pub objective: Cost,
    /// Directed timing-constraint violations of that iterate.
    pub timing_violations: usize,
    /// Whether STEP 6's GAP solve was capacity-feasible.
    pub capacity_feasible: bool,
    /// Whether this iterate improved the incumbent.
    pub improved: bool,
}

/// Result of a QBP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct QbpOutcome {
    /// Best assignment found (by embedded value, among capacity-feasible
    /// iterates).
    pub assignment: Assignment,
    /// `yᵀQ̂y` of [`QbpOutcome::assignment`].
    pub embedded_value: Cost,
    /// Plain objective of the assignment.
    pub objective: Cost,
    /// Whether the assignment satisfies C1 **and** C2. Per Theorem 2, when
    /// this is `true` the penalty embedding was valid for this run
    /// regardless of the penalty's magnitude.
    pub feasible: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Per-iteration statistics (only when
    /// [`QbpConfig::track_history`] is set).
    pub history: Vec<IterationStats>,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// How the solve finished: natural termination, or wound down early by
    /// an expired budget / fired cancel token (best-so-far kept).
    pub status: ExecStatus,
}

/// Result of a warm re-solve ([`QbpSolver::solve_warm`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmOutcome {
    /// Re-solved assignment.
    pub assignment: Assignment,
    /// `yᵀQ̂y` of [`WarmOutcome::assignment`].
    pub embedded_value: Cost,
    /// Plain objective of the assignment.
    pub objective: Cost,
    /// Whether the assignment satisfies C1 **and** C2.
    pub feasible: bool,
    /// Whether the localized pass had to escalate to a capped full solve.
    pub escalated: bool,
    /// Wall-clock time of the re-solve.
    pub elapsed: Duration,
    /// How the re-solve finished (escalation solves honor the caller's
    /// budget and cancellation token).
    pub status: ExecStatus,
}

/// Iteration cap of the first escalation rung of [`QbpSolver::solve_warm`]:
/// enough Burkard iterations to re-place a localized disturbance, far below
/// the paper's 100-iteration cold budget.
pub(crate) const WARM_ESCALATION_ITERATIONS: usize = 12;

/// The generalized Burkard heuristic solver.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder};
/// use qbp_solver::{QbpConfig, QbpSolver};
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut circuit = Circuit::new();
/// let a = circuit.add_component("a", 10);
/// let b = circuit.add_component("b", 20);
/// let c = circuit.add_component("c", 15);
/// circuit.add_wires(a, b, 5)?;
/// circuit.add_wires(b, c, 2)?;
/// let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 30)?).build()?;
///
/// let outcome = QbpSolver::new(QbpConfig::default()).solve(&problem, None)?;
/// assert!(outcome.feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QbpSolver {
    config: QbpConfig,
}

impl QbpSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: QbpConfig) -> Self {
        QbpSolver { config }
    }

    /// The solver's configuration.
    pub fn config(&self) -> &QbpConfig {
        &self.config
    }

    fn build_qmatrix<'p>(&self, problem: &'p Problem) -> Result<QMatrix<'p>, Error> {
        match self.config.penalty {
            PenaltyMode::Fixed(p) => QMatrix::new(problem, p),
            PenaltyMode::Auto => QMatrix::with_auto_penalty(problem),
            PenaltyMode::Theorem1 => QMatrix::new(problem, QMatrix::theorem1_penalty(problem)),
        }
    }

    /// Runs the heuristic. `initial` seeds the first iterate `u⁽¹⁾`; when
    /// `None`, a uniformly random assignment is used — §5 notes QBP
    /// "maintained the same kind of good results from any arbitrary initial
    /// solution" (the initial iterate need not be feasible).
    ///
    /// # Errors
    ///
    /// Returns an error when the initial assignment does not match the
    /// problem's dimensions or the penalty configuration is invalid.
    pub fn solve(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
    ) -> Result<QbpOutcome, Error> {
        self.solve_with(problem, initial, &mut SolveWorkspace::new())
    }

    /// [`QbpSolver::solve`] with caller-owned scratch buffers — the
    /// allocation-free variant for drivers that solve many times (multistart,
    /// benchmarks). The outcome is bit-identical to [`QbpSolver::solve`]
    /// regardless of the workspace's prior contents.
    ///
    /// # Errors
    ///
    /// Returns an error when the initial assignment does not match the
    /// problem's dimensions or the penalty configuration is invalid.
    pub fn solve_with(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
        ws: &mut SolveWorkspace,
    ) -> Result<QbpOutcome, Error> {
        self.solve_observed(problem, initial, ws, &mut NoopObserver)
    }

    /// [`QbpSolver::solve_with`] plus observability: streams the iteration
    /// lifecycle (η recomputes vs. incremental patches, STEP 4/6 GAP solves,
    /// penalty hits, repair sweeps, stall restarts, incumbent improvements)
    /// to `obs`. The solve itself is bit-identical for every observer — the
    /// observer only watches.
    ///
    /// # Errors
    ///
    /// Returns an error when the initial assignment does not match the
    /// problem's dimensions or the penalty configuration is invalid.
    pub fn solve_observed(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
        ws: &mut SolveWorkspace,
        obs: &mut dyn SolveObserver,
    ) -> Result<QbpOutcome, Error> {
        self.solve_observed_exec(problem, initial, ws, &ExecCtx::unbounded(), obs)
    }

    /// [`QbpSolver::solve_observed`] under an execution context: the
    /// Burkard loop polls `exec` at each iteration boundary and winds down
    /// to the best-so-far incumbent when the budget expires or the token
    /// fires. When the context is bounded and no feasible incumbent exists
    /// yet, the `B = 0` feasibility bootstrap ([`QbpSolver::find_feasible`])
    /// runs first as uninterruptible minimum work, so a budgeted solve on a
    /// feasible instance returns a *feasible* best-so-far even when the
    /// budget expires before the first improvement iteration. With
    /// [`ExecCtx::unbounded`] the checks short-circuit and the solve —
    /// including its event trace — is byte-identical to
    /// [`QbpSolver::solve_observed`].
    ///
    /// # Errors
    ///
    /// Returns an error when the initial assignment does not match the
    /// problem's dimensions or the penalty configuration is invalid.
    pub fn solve_observed_exec(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
        ws: &mut SolveWorkspace,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<QbpOutcome, Error> {
        let start = Instant::now();
        let q = self.build_qmatrix(problem)?;
        let eval = Evaluator::new(problem);
        let m = problem.m();
        let n = problem.n();
        let sizes: Vec<u64> = (0..n)
            .map(|j| problem.circuit().size(ComponentId::new(j)))
            .collect();
        let capacities = problem.topology().capacities().to_vec();
        let gap_config = GapConfig {
            improvement_passes: self.config.gap_improvement_passes,
            swap_improvement: self.config.gap_swap_improvement,
        };

        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Qbp,
            components: n,
            partitions: m,
        });

        // STEP 1 & 2: bounds ω, initial iterate, incumbent.
        let omega = q.omega();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut u = match initial {
            Some(a) => {
                problem.validate_assignment(a)?;
                a.clone()
            }
            None => Assignment::from_fn(n, |_| {
                qbp_core::PartitionId::new(rng.random_range(0..m))
            }),
        };
        let mut best: Option<(Assignment, Cost)> = None;
        let consider = |asg: &Assignment,
                            value: Cost,
                            best: &mut Option<(Assignment, Cost)>|
         -> bool {
            if best.as_ref().is_none_or(|(_, bv)| value < *bv) {
                *best = Some((asg.clone(), value));
                true
            } else {
                false
            }
        };
        // Seed the incumbent only if u is capacity-feasible; a fully
        // feasible start also seeds the projection anchor.
        let mut anchor: Option<(Assignment, Cost)> = None;
        if capacity_feasible(&u, &sizes, &capacities, m) {
            let v = q.value(&u);
            consider(&u, v, &mut best);
            if q.violation_count(&u) == 0 {
                anchor = Some((u.clone(), v));
            }
        }
        // Bounded solves guarantee a feasible best-so-far before the budget
        // can fire: when nothing feasible seeds the incumbent, the B = 0
        // bootstrap runs to completion first as uninterruptible minimum
        // work (see `docs/ROBUSTNESS.md`).
        let mut status = ExecStatus::Completed;
        if !exec.is_unbounded() && anchor.is_none() {
            if let Some(feas) = self.find_feasible(problem)? {
                let v = q.value(&feas);
                consider(&feas, v, &mut best);
                anchor = Some((feas, v));
            }
        }

        let mn = m * n;
        ws.h.clear();
        ws.h.resize(mn, 0.0);
        ws.eta_f.clear();
        ws.eta_f.resize(mn, 0.0);
        ws.recent.clear();
        let mut history = Vec::new();
        // Intra-solve thread budget for the full-η fan-out. Multistart's
        // parallel branch hands each run `threads: 1`, so run-level and
        // η-level parallelism never oversubscribe each other.
        let intra_threads = qbp_core::par::effective_threads(self.config.threads);

        let mut executed = self.config.iterations;
        // Whether the previous iteration ended in a stall reset — the next
        // η fallback is then attributed to the reset, not to ordinary GAP
        // drift (the restart replaces the iterate wholesale by design).
        let mut after_reset = false;
        for k in 1..=self.config.iterations {
            if let Some(stop) = exec.check(k) {
                match stop {
                    ExecStatus::Cancelled => {
                        obs.on_event(&SolveEvent::Cancelled { iteration: k });
                    }
                    _ => obs.on_event(&SolveEvent::BudgetExhausted { iteration: k }),
                }
                status = stop;
                executed = k - 1;
                break;
            }
            obs.on_event(&SolveEvent::IterationStarted { iteration: k });
            // STEP 3: the η cache records which assignment it linearizes, so
            // successive iterates pay only for the components that moved
            // (bit-identical to a fresh computation; see
            // [`QMatrix::eta_update`]). Full recomputes go through the
            // embedded partition profile: O(M) aggregated axpys per column
            // instead of one walk per adjacency record.
            // When the patch path is skipped, attribute the full recompute
            // to one of three causes (surfaced as an `EtaFallback` event so
            // η regressions stay diagnosable): no usable cached surface
            // (cold), the iterate was just replaced by a stall reset (the
            // random restart relocates nearly every component by design),
            // or the GAP step genuinely moved more than half the
            // components.
            let fallback = match ws.eta_source.as_ref() {
                None => Some(EtaFallbackReason::Cold),
                Some(prev) => {
                    if ws.eta.len() != mn {
                        Some(EtaFallbackReason::Cold)
                    } else if count_moved(prev, &u) <= n / 2 {
                        None
                    } else if after_reset {
                        Some(EtaFallbackReason::Stall)
                    } else {
                        Some(EtaFallbackReason::MovedFraction)
                    }
                }
            };
            after_reset = false;
            let patchable = fallback.is_none();
            if let Some(reason) = fallback {
                obs.on_event(&SolveEvent::EtaFallback {
                    iteration: k,
                    reason,
                });
            }
            // Sync the embedded profile every iteration, not just when the
            // η cache misses: keeping it in lockstep with the iterate means
            // its source never drifts more than one iteration behind, so the
            // O(moved·deg) patch path stays under the N/2 rebuild threshold
            // whenever the iterates themselves are close.
            let (rebuilt, moved, sync_chunks) = sync_profile(&q, ws, &u, intra_threads);
            if sync_chunks > 1 {
                obs.on_event(&SolveEvent::ParallelBatch {
                    iteration: k,
                    phase: BatchPhase::ProfileSync,
                    tasks: sync_chunks,
                    threads: intra_threads,
                });
            }
            obs.on_event(&SolveEvent::ProfileUpdated {
                iteration: k,
                rebuilt,
                moved,
            });
            let incremental = if patchable {
                let prev = ws.eta_source.as_ref().expect("checked above");
                let patched = q.eta_update(prev, &u, &mut ws.eta);
                debug_assert!(patched, "eta_update must patch below the N/2 threshold");
                patched
            } else {
                let tasks = q.eta_profiled_par(
                    &u,
                    ws.profile.as_ref().expect("sync_profile installs a profile"),
                    &mut ws.eta,
                    intra_threads,
                );
                if tasks > 1 {
                    obs.on_event(&SolveEvent::ParallelBatch {
                        iteration: k,
                        phase: BatchPhase::Eta,
                        tasks,
                        threads: intra_threads,
                    });
                }
                false
            };
            obs.on_event(&SolveEvent::EtaComputed {
                iteration: k,
                incremental,
            });
            // Fault-injection point: a corrupted η surface misguides the
            // subproblem (search quality degrades) but can never produce a
            // silent wrong answer — every candidate's objective is
            // recomputed from `q` itself, never read off η.
            if qbp_core::fault::fault_point(qbp_core::fault::POINT_ETA_KERNEL).is_corrupt() {
                for v in ws.eta.iter_mut() {
                    *v = v.wrapping_mul(3).wrapping_add(1);
                }
            }
            let eta_k: &[Cost] = if self.config.eta_mode == EtaMode::BalasMazzola {
                // The ω diagonal is iterate-dependent; add it on a scratch
                // copy so the incremental cache stays the raw η.
                ws.eta_bm.clear();
                ws.eta_bm.extend_from_slice(&ws.eta);
                for j in 0..n {
                    let r = u.part_index(j) + j * m;
                    ws.eta_bm[r] += omega[r];
                }
                &ws.eta_bm
            } else {
                &ws.eta
            };
            let xi = q.xi(&omega, &u);
            for (dst, &src) in ws.eta_f.iter_mut().zip(eta_k.iter()) {
                *dst = src as f64;
            }
            let inst = GapInstance {
                m,
                n,
                costs: &ws.eta_f,
                sizes: &sizes,
                capacities: &capacities,
            };
            // STEP 4: z = min_{u ∈ S} η·u. Besides providing z, the
            // minimizer is the Gauss–Seidel candidate "place every component
            // optimally against the current iterate" — evaluating it for the
            // incumbent is nearly free and often catches consistent
            // (timing-clean) solutions the h-driven STEP 6 skips past.
            let step4 =
                solve_gap_observed_par(&inst, &gap_config, &mut ws.gap, k, intra_threads, obs);
            let z = step4.cost;
            if step4.feasible {
                let mut step4_asg = Assignment::from_parts(step4.assignment)
                    .expect("GAP returns one entry per component");
                if self.config.repair_candidates && q.violation_count(&step4_asg) > 0 {
                    let cleaned = embedded_descent(
                        &q, &mut step4_asg, &sizes, &capacities, 4, &mut ws.descent,
                    );
                    obs.on_event(&SolveEvent::RepairApplied {
                        iteration: k,
                        cleaned,
                    });
                }
                let v4 = q.value(&step4_asg);
                consider(&step4_asg, v4, &mut best);
                if self.config.repair_candidates {
                    promote_candidate(
                        &q, &step4_asg, v4, &sizes, &capacities, &mut anchor, &mut best,
                        &mut ws.descent,
                    );
                }
            }
            // STEP 5: accumulate direction.
            let scale = (z - xi as f64).abs().max(1.0);
            for (hr, &e) in ws.h.iter_mut().zip(eta_k.iter()) {
                *hr += e as f64 / scale;
            }
            // STEP 6: next iterate from the accumulated direction.
            let h_inst = GapInstance {
                m,
                n,
                costs: &ws.h,
                sizes: &sizes,
                capacities: &capacities,
            };
            let next =
                solve_gap_observed_par(&h_inst, &gap_config, &mut ws.gap, k, intra_threads, obs);
            let next_asg = Assignment::from_parts(next.assignment.clone())
                .expect("GAP returns one entry per component");
            // STEP 7: track the best capacity-feasible iterate by yᵀQ̂y
            // (after an optional repair polish on a *copy* — the raw iterate
            // drives the next iteration, as in the paper).
            let value = q.value(&next_asg);
            let violations = q.violation_count(&next_asg);
            if violations > 0 {
                obs.on_event(&SolveEvent::PenaltyHits {
                    iteration: k,
                    violations,
                });
            }
            let improved = if next.feasible {
                let mut improved = consider(&next_asg, value, &mut best);
                if self.config.repair_candidates {
                    if violations > 0 {
                        let mut polished = next_asg.clone();
                        let cleaned = embedded_descent(
                            &q, &mut polished, &sizes, &capacities, 4, &mut ws.descent,
                        );
                        obs.on_event(&SolveEvent::RepairApplied {
                            iteration: k,
                            cleaned,
                        });
                        let pv = q.value(&polished);
                        improved |= consider(&polished, pv, &mut best);
                        improved |= promote_candidate(
                            &q, &polished, pv, &sizes, &capacities, &mut anchor, &mut best,
                            &mut ws.descent,
                        );
                    } else {
                        improved |= promote_candidate(
                            &q, &next_asg, value, &sizes, &capacities, &mut anchor, &mut best,
                            &mut ws.descent,
                        );
                    }
                }
                improved
            } else {
                false
            };
            if self.config.track_history {
                history.push(IterationStats {
                    iteration: k,
                    embedded_value: value,
                    objective: eval.cost(&next_asg),
                    timing_violations: violations,
                    capacity_feasible: next.feasible,
                    improved,
                });
            }
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: k,
                value,
                feasible: next.feasible,
                improved,
            });
            let fingerprint = assignment_fingerprint(&next_asg);
            if self.config.restarts_enabled() && ws.recent.contains(&fingerprint) {
                // Fixed point or short cycle: η, h and the GAP answers would
                // repeat. Diversify from a fresh random iterate; the
                // incumbent is kept by STEP 7's bookkeeping.
                obs.on_event(&SolveEvent::StallReset { iteration: k });
                after_reset = true;
                ws.h.fill(0.0);
                ws.recent.clear();
                let fresh = Assignment::from_fn(n, |_| {
                    qbp_core::PartitionId::new(rng.random_range(0..m))
                });
                ws.eta_source = Some(std::mem::replace(&mut u, fresh));
            } else {
                if ws.recent.len() >= self.config.stall_window.max(1) {
                    ws.recent.pop_front();
                }
                ws.recent.push_back(fingerprint);
                ws.eta_source = Some(std::mem::replace(&mut u, next_asg));
            }
        }

        let (assignment, embedded_value) = best.unwrap_or_else(|| {
            let v = q.value(&u);
            (u.clone(), v)
        });
        let feasible = check_feasibility(problem, &assignment).is_feasible();
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: executed,
            value: embedded_value,
            feasible,
        });
        Ok(QbpOutcome {
            objective: eval.cost(&assignment),
            embedded_value,
            assignment,
            feasible,
            iterations: executed,
            history,
            elapsed: start.elapsed(),
            status,
        })
    }

    /// Runs [`QbpSolver::solve`] from `runs` different seeds and returns the
    /// best outcome (feasible outcomes strictly preferred; ties broken by
    /// embedded value, then by lowest run index). The iteration budget of
    /// each run is the configured one — total work scales linearly with
    /// `runs`.
    ///
    /// Runs are fanned across a [`std::thread::scope`] worker pool sized by
    /// [`QbpConfig::threads`] (`0` = one worker per available core, capped at
    /// `runs`). Each run is an independent deterministic solve of its derived
    /// seed, workers claim run indices from a shared counter, and the winner
    /// is reduced **in run order** after all runs complete — so the returned
    /// outcome is bit-identical to the serial execution (`threads == 1`)
    /// for any thread count, differing only in wall-clock `elapsed`.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-run-index solver error; `runs == 0` is an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (which the solver itself never
    /// does for validated inputs).
    pub fn solve_multistart(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
        runs: usize,
    ) -> Result<QbpOutcome, Error> {
        self.solve_multistart_observed(problem, initial, runs, &mut NoopObserver)
    }

    /// [`QbpSolver::solve_multistart`] plus observability. Per-iteration
    /// events of the individual runs are **not** streamed (workers race, and
    /// interleaving their streams would make traces scheduling-dependent);
    /// instead one [`SolveEvent::RunCompleted`] per run is emitted in run
    /// order after all runs finish, bracketed by `SolveStarted` /
    /// `SolveFinished`. The trace is therefore bit-identical for every
    /// thread count, like the answer itself.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-run-index solver error; `runs == 0` is an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (which the solver itself never
    /// does for validated inputs).
    pub fn solve_multistart_observed(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
        runs: usize,
        obs: &mut dyn SolveObserver,
    ) -> Result<QbpOutcome, Error> {
        self.solve_multistart_exec(problem, initial, runs, &ExecCtx::unbounded(), obs)
    }

    /// [`QbpSolver::solve_multistart_observed`] under an execution context,
    /// with worker-panic isolation. Each run is wrapped in
    /// [`catch_panic`], so one poisoned run surfaces as a typed
    /// [`Error::Internal`] — reported as a [`SolveEvent::WorkerPanicked`] in
    /// run order — while the surviving runs' results are reduced normally;
    /// the error is only propagated when *no* run survives. Run 0 always
    /// executes (minimum work); before each later run the deadline and
    /// token are re-checked and remaining runs are skipped once either
    /// fires. The returned outcome's status is the merge of the stop cause
    /// and every surviving run's own status.
    ///
    /// # Errors
    ///
    /// `runs == 0` is an error; validation errors propagate at the lowest
    /// failing run index; [`Error::Internal`] only when every run panicked.
    pub fn solve_multistart_exec(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
        runs: usize,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<QbpOutcome, Error> {
        if runs == 0 {
            return Err(Error::NegativeValue {
                what: "multistart run count",
                value: 0,
            });
        }
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Qbp,
            components: problem.n(),
            partitions: problem.m(),
        });
        let threads = self.effective_threads(runs);
        // Gate for *starting* new runs: deadline and token only — the
        // iteration cap belongs to the runs' own Burkard loops.
        let run_gate = exec.uncapped();
        let mut slots: Vec<Option<Result<QbpOutcome, Error>>> = Vec::new();
        slots.resize_with(runs, || None);
        let mut stopped = ExecStatus::Completed;
        if threads <= 1 {
            let mut ws = SolveWorkspace::new();
            for (r, slot) in slots.iter_mut().enumerate() {
                if r > 0 {
                    if let Some(stop) = run_gate.check(1) {
                        stopped = stop;
                        break;
                    }
                }
                let solver = QbpSolver::new(self.run_config(r));
                let out = catch_panic(|| {
                    solver.solve_observed_exec(problem, initial, &mut ws, exec, &mut NoopObserver)
                })
                .and_then(|r| r);
                let abort = matches!(out, Err(ref e) if !matches!(e, Error::Internal { .. }));
                *slot = Some(out);
                if abort {
                    break;
                }
            }
        } else {
            let counter = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let counter = &counter;
                let run_gate = &run_gate;
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut ws = SolveWorkspace::new();
                            let mut local = Vec::new();
                            let mut stop_seen = None;
                            loop {
                                let r = counter.fetch_add(1, Ordering::Relaxed);
                                if r >= runs {
                                    break;
                                }
                                if r > 0 {
                                    if let Some(stop) = run_gate.check(1) {
                                        stop_seen = Some(stop);
                                        break;
                                    }
                                }
                                // Inner solves run strictly serial: the run
                                // fan-out already owns the thread budget.
                                let solver = QbpSolver::new(QbpConfig {
                                    threads: 1,
                                    ..self.run_config(r)
                                });
                                let out = catch_panic(|| {
                                    solver.solve_observed_exec(
                                        problem,
                                        initial,
                                        &mut ws,
                                        exec,
                                        &mut NoopObserver,
                                    )
                                })
                                .and_then(|r| r);
                                local.push((r, out));
                            }
                            (local, stop_seen)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (local, stop_seen) =
                        handle.join().expect("multistart worker panicked");
                    for (r, out) in local {
                        slots[r] = Some(out);
                    }
                    if let Some(stop) = stop_seen {
                        stopped = stopped.merge(stop);
                    }
                }
            });
        }
        let mut best: Option<QbpOutcome> = None;
        let mut status = stopped;
        let mut first_panic: Option<Error> = None;
        for (r, slot) in slots.into_iter().enumerate() {
            match slot {
                // Run never started: the budget fired first.
                None => {}
                Some(Ok(out)) => {
                    status = status.merge(out.status);
                    obs.on_event(&SolveEvent::RunCompleted {
                        run: r,
                        value: out.embedded_value,
                        feasible: out.feasible,
                    });
                    if Self::outcome_improves(&out, best.as_ref()) {
                        best = Some(out);
                    }
                }
                Some(Err(e @ Error::Internal { .. })) => {
                    obs.on_event(&SolveEvent::WorkerPanicked { run: r });
                    if first_panic.is_none() {
                        first_panic = Some(e);
                    }
                }
                Some(Err(e)) => return Err(e),
            }
        }
        let Some(mut best) = best else {
            return Err(first_panic.unwrap_or(Error::Internal {
                message: "no multistart run produced an outcome".into(),
            }));
        };
        best.status = status;
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: self.config.iterations * runs,
            value: best.embedded_value,
            feasible: best.feasible,
        });
        Ok(best)
    }

    /// The per-run config of multistart run `r`: the same knobs under a
    /// deterministically derived seed.
    fn run_config(&self, r: usize) -> QbpConfig {
        QbpConfig {
            seed: self.config.seed.wrapping_add(r as u64).wrapping_mul(0x9E37_79B9),
            ..self.config
        }
    }

    /// The serial incumbent rule: feasible beats infeasible, then lower
    /// embedded value wins; on full ties the earlier run is kept (callers
    /// iterate in run order).
    fn outcome_improves(out: &QbpOutcome, best: Option<&QbpOutcome>) -> bool {
        match best {
            None => true,
            Some(b) => {
                (out.feasible, std::cmp::Reverse(out.embedded_value))
                    > (b.feasible, std::cmp::Reverse(b.embedded_value))
            }
        }
    }

    /// Resolves [`QbpConfig::threads`] against the machine and the run
    /// count.
    fn effective_threads(&self, runs: usize) -> usize {
        let hw = match self.config.threads {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            t => t,
        };
        hw.min(runs).max(1)
    }

    /// Produces an initial *feasible* solution by solving the `B = 0`
    /// feasibility problem (§5: "the fastest way to obtain an initial
    /// feasible solution is to use QBP algorithm with matrix B set to all
    /// zeros. This will generate an initial feasible solution in a few
    /// iterations"). With `B = 0` the accumulated direction `h` adds
    /// nothing, so the loop degenerates to the pure alternation
    /// `u ← GAP(η(u))` — each round re-places every component against its
    /// partners' frozen positions, driving the penalty count down — plus the
    /// repair sweep and cycle-detected random restarts. Returns `None` when
    /// the iteration budget ends without a fully feasible assignment.
    ///
    /// The result is deliberately *wire-length-blind*: it is the paper's
    /// "initial solution" for the method comparison, not an optimized one.
    ///
    /// # Errors
    ///
    /// Propagates penalty-configuration errors.
    pub fn find_feasible(&self, problem: &Problem) -> Result<Option<Assignment>, Error> {
        let feas = problem.feasibility_problem();
        let q = match self.config.penalty {
            PenaltyMode::Fixed(p) => QMatrix::new(&feas, p)?,
            PenaltyMode::Auto => QMatrix::with_auto_penalty(&feas)?,
            PenaltyMode::Theorem1 => QMatrix::new(&feas, QMatrix::theorem1_penalty(&feas))?,
        };
        let _eval = Evaluator::new(&feas);
        let m = feas.m();
        let n = feas.n();
        let sizes: Vec<u64> = (0..n)
            .map(|j| feas.circuit().size(ComponentId::new(j)))
            .collect();
        let capacities = feas.topology().capacities().to_vec();
        let gap_config = GapConfig {
            improvement_passes: self.config.gap_improvement_passes,
            swap_improvement: false,
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xB0);
        let mut u = Assignment::from_fn(n, |_| {
            qbp_core::PartitionId::new(rng.random_range(0..m))
        });
        let mut ws = SolveWorkspace::new();
        ws.eta_f.resize(m * n, 0.0);
        let intra_threads = qbp_core::par::effective_threads(self.config.threads);
        let budget = self.config.iterations.max(30);
        for _ in 0..budget {
            match ws.eta_source.as_ref() {
                Some(prev) => {
                    q.eta_update(prev, &u, &mut ws.eta);
                }
                None => q.eta(&u, &mut ws.eta),
            }
            for (dst, &src) in ws.eta_f.iter_mut().zip(ws.eta.iter()) {
                *dst = src as f64;
            }
            let inst = GapInstance {
                m,
                n,
                costs: &ws.eta_f,
                sizes: &sizes,
                capacities: &capacities,
            };
            let (sol, _) = solve_gap_par(&inst, &gap_config, &mut ws.gap, intra_threads);
            let mut next = Assignment::from_parts(sol.assignment)
                .expect("GAP returns one entry per component");
            if sol.feasible
                && (q.violation_count(&next) == 0
                    || embedded_descent(&q, &mut next, &sizes, &capacities, 12, &mut ws.descent))
            {
                debug_assert!(check_feasibility(problem, &next).is_feasible());
                return Ok(Some(next));
            }
            let fp = assignment_fingerprint(&next);
            if ws.recent.contains(&fp) {
                ws.recent.clear();
                let fresh = Assignment::from_fn(n, |_| {
                    qbp_core::PartitionId::new(rng.random_range(0..m))
                });
                ws.eta_source = Some(std::mem::replace(&mut u, fresh));
            } else {
                if ws.recent.len() >= STALL_WINDOW {
                    ws.recent.pop_front();
                }
                ws.recent.push_back(fp);
                ws.eta_source = Some(std::mem::replace(&mut u, next));
            }
        }
        Ok(None)
    }

    /// Warm re-solve for incremental (ECO) flows: repairs `initial` around
    /// the `dirty` component set instead of solving from scratch.
    ///
    /// The ladder has three rungs, each only climbed when the previous one
    /// leaves the assignment infeasible:
    ///
    /// 1. **Localized descent** — sequential coordinate descent on `yᵀQ̂y`
    ///    restricted to the dirty components and their one-hop neighborhood
    ///    (wires *and* timing constraints). Most small deltas resolve here in
    ///    O(dirty·deg·M), which is what makes an ECO edit stream orders of
    ///    magnitude cheaper than cold solves.
    /// 2. **Capped full solve** — the regular Burkard loop seeded from the
    ///    polished assignment, capped at [`WARM_ESCALATION_ITERATIONS`]
    ///    iterations.
    /// 3. **Full-budget solve** — the configured cold budget, as a last
    ///    resort.
    ///
    /// The result of the highest rung climbed is returned (a later rung's
    /// answer is only preferred when it is feasible or strictly better), with
    /// [`WarmOutcome::escalated`] reporting whether rung 2 or 3 ran. `dirty`
    /// may contain duplicates and out-of-range indices are ignored; an empty
    /// `dirty` set still verifies (and if needed repairs) the assignment.
    ///
    /// # Errors
    ///
    /// Returns an error when `initial` does not match the problem's
    /// dimensions or the penalty configuration is invalid.
    pub fn solve_warm(
        &self,
        problem: &Problem,
        initial: &Assignment,
        dirty: &[usize],
        obs: &mut dyn SolveObserver,
    ) -> Result<WarmOutcome, Error> {
        self.solve_warm_exec(problem, initial, dirty, &ExecCtx::unbounded(), obs)
    }

    /// [`QbpSolver::solve_warm`] under an execution context. Rung 1 (the
    /// localized descent) is bounded work and always runs to completion;
    /// the rung-2/3 escalation solves poll `exec` like any other Burkard
    /// solve and wind down to their best-so-far when it fires.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QbpSolver::solve_warm`].
    pub fn solve_warm_exec(
        &self,
        problem: &Problem,
        initial: &Assignment,
        dirty: &[usize],
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<WarmOutcome, Error> {
        let start = Instant::now();
        problem.validate_assignment(initial)?;
        let q = self.build_qmatrix(problem)?;
        let eval = Evaluator::new(problem);
        let n = problem.n();
        let sizes: Vec<u64> = (0..n)
            .map(|j| problem.circuit().size(ComponentId::new(j)))
            .collect();
        let capacities = problem.topology().capacities().to_vec();
        let mut asg = initial.clone();
        let mut scratch = DescentScratch::default();

        // Rung 1: localized descent over dirty + one-hop frontier.
        let circuit = problem.circuit();
        let timing = problem.timing();
        let mut active = vec![false; n];
        for &j in dirty {
            if j >= n {
                continue;
            }
            active[j] = true;
            let cj = ComponentId::new(j);
            for (o, _) in circuit.out_connections(cj) {
                active[o.index()] = true;
            }
            for (o, _) in circuit.in_connections(cj) {
                active[o.index()] = true;
            }
            for (o, _) in timing.constraints_from(cj) {
                active[o.index()] = true;
            }
            for (o, _) in timing.constraints_into(cj) {
                active[o.index()] = true;
            }
        }
        localized_descent(&q, &mut asg, &sizes, &capacities, &active, 6, &mut scratch);
        if check_feasibility(problem, &asg).is_feasible() {
            // The disturbance is repaired; a short global timing-clean
            // polish catches improving moves just beyond the dirty frontier
            // (two O(N·deg·M) sweeps — still a small fraction of one cold
            // Burkard iteration's GAP solves).
            clean_descent(&q, &mut asg, &sizes, &capacities, 2, &mut scratch);
            let embedded_value = q.value(&asg);
            return Ok(WarmOutcome {
                embedded_value,
                objective: eval.cost(&asg),
                assignment: asg,
                feasible: true,
                escalated: false,
                elapsed: start.elapsed(),
                status: ExecStatus::Completed,
            });
        }

        // Rung 2: capped full solve seeded from the polished assignment.
        let capped = QbpConfig {
            iterations: WARM_ESCALATION_ITERATIONS.min(self.config.iterations.max(1)),
            ..self.config
        };
        let mut out = QbpSolver::new(capped).solve_observed_exec(
            problem,
            Some(&asg),
            &mut SolveWorkspace::new(),
            exec,
            obs,
        )?;

        // Rung 3: full-budget solve, only when the capped one stays
        // infeasible, there is budget beyond the cap, and the context has
        // not already wound rung 2 down.
        if !out.feasible
            && self.config.iterations > capped.iterations
            && out.status.is_completed()
        {
            let full = self.solve_observed_exec(
                problem,
                Some(&asg),
                &mut SolveWorkspace::new(),
                exec,
                obs,
            )?;
            if full.feasible || full.embedded_value < out.embedded_value {
                out = full;
            }
        }
        Ok(WarmOutcome {
            assignment: out.assignment,
            embedded_value: out.embedded_value,
            objective: out.objective,
            feasible: out.feasible,
            escalated: true,
            elapsed: start.elapsed(),
            status: out.status,
        })
    }
}

impl Solver for QbpSolver {
    fn name(&self) -> &'static str {
        "qbp"
    }

    fn solve_exec(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        let out =
            self.solve_observed_exec(problem, init, &mut SolveWorkspace::new(), exec, obs)?;
        Ok(SolveReport {
            solver: "qbp",
            moves_applied: moved_from(init, &out.assignment),
            objective: out.objective,
            embedded_value: Some(out.embedded_value),
            feasible: out.feasible,
            iterations: out.iterations,
            elapsed: out.elapsed,
            auto_profile: None,
            assignment: out.assignment,
            status: out.status,
        })
    }
}

/// Scratch buffers for the descent and projection helpers, reused across the
/// hundreds of polish calls a solve makes. Every buffer is reinitialized on
/// entry, so reuse never changes results.
#[derive(Debug, Clone, Default)]
pub(crate) struct DescentScratch {
    used: Vec<u64>,
    blocked: Vec<bool>,
    hot: Vec<bool>,
    hot_list: Vec<usize>,
    table: MoveDeltaTable,
    /// Swap-pair corrections of the current hot component
    /// ([`QMatrix::swap_corrections`]); zero outside `corr_touched`.
    corr: Vec<Cost>,
    corr_touched: Vec<usize>,
}

/// The descent's exact move-delta table: row `j` holds
/// `D[j][i] = QMatrix::move_delta(asg, j, i)` for every partition `i`.
/// Rows are filled on first read and patched after every committed move, so
/// a descent pays one adjacency walk per component it reads instead of one
/// per delta it evaluates.
#[derive(Debug, Clone, Default)]
struct MoveDeltaTable {
    m: usize,
    deltas: Vec<Cost>,
    filled: Vec<bool>,
}

impl MoveDeltaTable {
    /// Empties the table for an `n × m` descent; the buffers are kept.
    fn reset(&mut self, n: usize, m: usize) {
        self.m = m;
        self.deltas.resize(n * m, 0);
        self.filled.clear();
        self.filled.resize(n, false);
    }

    /// Row `j` under `asg`, filled on first read.
    fn row(&mut self, q: &QMatrix<'_>, asg: &Assignment, j: usize) -> &[Cost] {
        let row = &mut self.deltas[j * self.m..(j + 1) * self.m];
        if !self.filled[j] {
            q.move_delta_row(asg, ComponentId::new(j), row);
            self.filled[j] = true;
        }
        row
    }

    /// Moves `j` to partition `to` in `asg` and patches the filled rows.
    fn commit(&mut self, q: &QMatrix<'_>, asg: &mut Assignment, j: usize, to: usize) {
        let cj = ComponentId::new(j);
        let from = qbp_core::PartitionId::new(asg.part_index(j));
        asg.move_to(cj, qbp_core::PartitionId::new(to));
        q.patch_move_deltas(asg, cj, from, &mut self.deltas, &self.filled);
    }
}

/// Sequential coordinate descent on the embedded objective `yᵀQ̂y`:
/// sweeps the components in index order, moving each to the
/// capacity-feasible partition with the most negative embedded delta. Every
/// accepted move strictly decreases `yᵀQ̂y`, so the descent is monotone and
/// terminates at a local minimum; because the penalty dominates the base
/// costs, it removes timing violations before polishing wire length.
/// Returns `true` when the assignment ends fully timing-clean.
pub(crate) fn embedded_descent(
    q: &QMatrix<'_>,
    asg: &mut Assignment,
    sizes: &[u64],
    capacities: &[u64],
    max_sweeps: usize,
    scratch: &mut DescentScratch,
) -> bool {
    descent_impl(q, asg, sizes, capacities, max_sweeps, false, None, scratch)
}

/// [`embedded_descent`] restricted to an *active* component set: only
/// components with `active[j]` are considered for moves and swap initiation
/// (swap partners may be any component). This is the localized repair pass of
/// [`QbpSolver::solve_warm`] — after a netlist delta, only the dirty
/// components and their immediate neighbors need re-placement, so the sweep
/// cost is O(active·deg·M) instead of O(N·deg·M).
pub(crate) fn localized_descent(
    q: &QMatrix<'_>,
    asg: &mut Assignment,
    sizes: &[u64],
    capacities: &[u64],
    active: &[bool],
    max_sweeps: usize,
    scratch: &mut DescentScratch,
) -> bool {
    descent_impl(q, asg, sizes, capacities, max_sweeps, false, Some(active), scratch)
}

/// [`embedded_descent`] restricted to timing-clean transitions: every
/// accepted move or swap must keep all timing constraints satisfied, so a
/// feasible input stays feasible throughout. (The unrestricted descent can
/// profitably *introduce* a violation when a hub component's wire savings
/// exceed one penalty.)
pub(crate) fn clean_descent(
    q: &QMatrix<'_>,
    asg: &mut Assignment,
    sizes: &[u64],
    capacities: &[u64],
    max_sweeps: usize,
    scratch: &mut DescentScratch,
) -> bool {
    descent_impl(q, asg, sizes, capacities, max_sweeps, true, None, scratch)
}

/// The shared descent engine. Each sweep has a move phase (every component,
/// in index order, takes its best capacity-feasible move) and a swap phase
/// (hot components trade places with their best partner). All deltas come
/// from a [`MoveDeltaTable`] kept exact across commits: a move reads `D[j]`,
/// and a swap of `j` with `l` costs `D[j][A(l)] + D[l][A(j)]` plus the
/// record-pair correction of [`QMatrix::swap_corrections`], which is 0 unless
/// `l` is a record partner of `j`. In clean mode the timing checks run only
/// for a candidate that would become the best or would set `blocked[j]`;
/// every other candidate is already rejected by its delta, so the decisions
/// are those of evaluating every check.
#[allow(clippy::too_many_arguments)]
fn descent_impl(
    q: &QMatrix<'_>,
    asg: &mut Assignment,
    sizes: &[u64],
    capacities: &[u64],
    max_sweeps: usize,
    clean_only: bool,
    active: Option<&[bool]>,
    scratch: &mut DescentScratch,
) -> bool {
    let problem = q.problem();
    let m = problem.m();
    let n = problem.n();
    let DescentScratch {
        used,
        blocked,
        hot,
        hot_list,
        table,
        corr,
        corr_touched,
    } = scratch;
    used.clear();
    used.resize(m, 0);
    for (j, &s) in sizes.iter().enumerate() {
        used[asg.part_index(j)] += s;
    }
    table.reset(n, m);
    corr.clear();
    corr.resize(n, 0);
    let d = problem.topology().delay();
    for _ in 0..max_sweeps {
        let mut changed = false;
        // Move phase. `blocked[j]` records an improving move that failed
        // only on capacity — those components are the swap candidates in
        // clean mode.
        blocked.clear();
        blocked.resize(n, false);
        for j in 0..n {
            if active.is_some_and(|a| !a[j]) {
                continue;
            }
            let cj = ComponentId::new(j);
            let cur = asg.part_index(j);
            let mut best: (Cost, usize) = (0, cur);
            for (i, &delta) in table.row(q, asg, j).iter().enumerate() {
                if i == cur {
                    continue;
                }
                let timing_ok = || {
                    !clean_only
                        || qbp_core::move_is_timing_feasible(
                            problem,
                            asg,
                            cj,
                            qbp_core::PartitionId::new(i),
                        )
                };
                if used[i] + sizes[j] > capacities[i] {
                    if clean_only && delta < 0 && !blocked[j] && timing_ok() {
                        blocked[j] = true;
                    }
                    continue;
                }
                if delta < best.0 && timing_ok() {
                    best = (delta, i);
                }
            }
            if best.1 != cur {
                used[cur] -= sizes[j];
                used[best.1] += sizes[j];
                table.commit(q, asg, j, best.1);
                changed = true;
            }
        }
        // Swap phase: in penalty mode, components incident to a violated
        // constraint (single moves cannot realize "two components trade
        // places" under tight capacities); in clean mode, components whose
        // improving move was capacity-blocked.
        hot.clear();
        hot.extend_from_slice(blocked);
        if !clean_only {
            for (a, b, limit) in problem.timing().iter() {
                if d[(asg.part_index(a.index()), asg.part_index(b.index()))] > limit {
                    hot[a.index()] = true;
                    hot[b.index()] = true;
                }
            }
        }
        hot_list.clear();
        for (j, &h) in hot.iter().enumerate() {
            if h && active.is_none_or(|a| a[j]) {
                hot_list.push(j);
            }
        }
        for &j in hot_list.iter() {
            let cj = ComponentId::new(j);
            let ij = asg.part_index(j);
            q.swap_corrections(asg, cj, corr, corr_touched);
            let mut best: (Cost, usize) = (0, j);
            for l in 0..n {
                let il = asg.part_index(l);
                if l == j || il == ij {
                    continue;
                }
                // Capacity after trading places.
                if used[ij] - sizes[j] + sizes[l] > capacities[ij]
                    || used[il] - sizes[l] + sizes[j] > capacities[il]
                {
                    continue;
                }
                let delta = table.row(q, asg, j)[il] + table.row(q, asg, l)[ij] + corr[l];
                if delta < best.0
                    && (!clean_only
                        || qbp_core::swap_is_timing_feasible(problem, asg, cj, ComponentId::new(l)))
                {
                    best = (delta, l);
                }
            }
            for &l in corr_touched.iter() {
                corr[l] = 0;
            }
            corr_touched.clear();
            if best.1 != j {
                let l = best.1;
                let il = asg.part_index(l);
                used[ij] = used[ij] - sizes[j] + sizes[l];
                used[il] = used[il] - sizes[l] + sizes[j];
                table.commit(q, asg, j, il);
                table.commit(q, asg, l, ij);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    q.violation_count(asg) == 0
}

/// Integrates a candidate into the feasible-anchor bookkeeping. A clean
/// candidate may become the new projection anchor; a violated candidate is
/// projected from the anchor onto the feasible region, polished by
/// [`clean_descent`], and offered to the incumbent. Returns whether the
/// incumbent improved.
#[allow(clippy::too_many_arguments)]
fn promote_candidate(
    q: &QMatrix<'_>,
    candidate: &Assignment,
    value: Cost,
    sizes: &[u64],
    capacities: &[u64],
    anchor: &mut Option<(Assignment, Cost)>,
    best: &mut Option<(Assignment, Cost)>,
    scratch: &mut DescentScratch,
) -> bool {
    if q.violation_count(candidate) == 0 {
        if anchor.as_ref().is_none_or(|(_, av)| value < *av) {
            *anchor = Some((candidate.clone(), value));
        }
        // Polish promising clean candidates with the timing-clean descent
        // (bounded to near-incumbent candidates to keep the per-iteration
        // cost proportionate).
        let near_incumbent = best
            .as_ref()
            .is_none_or(|(_, bv)| value <= bv.saturating_add(bv / 10));
        if near_incumbent {
            let mut polished = candidate.clone();
            clean_descent(q, &mut polished, sizes, capacities, 2, scratch);
            let v = q.value(&polished);
            let mut improved = false;
            if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
                *best = Some((polished.clone(), v));
                improved = true;
            }
            if anchor.as_ref().is_none_or(|(_, av)| v < *av) {
                *anchor = Some((polished, v));
            }
            return improved;
        }
        return false; // the caller already offered the candidate itself
    }
    let Some((anchor_asg, _)) = anchor.clone() else {
        return false;
    };
    let mut projected = project_toward(q, &anchor_asg, candidate, sizes, capacities, scratch);
    clean_descent(q, &mut projected, sizes, capacities, 3, scratch);
    let v = q.value(&projected);
    let mut improved = false;
    if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
        *best = Some((projected.clone(), v));
        improved = true;
    }
    if anchor.as_ref().is_none_or(|(_, av)| v < *av) {
        *anchor = Some((projected, v));
    }
    improved
}

/// Projects `target` onto the feasible region reachable from `base` by
/// feasibility-preserving single moves: components are re-homed to their
/// `target` partitions one at a time, skipping any reassignment that would
/// break capacity or timing. The result realizes as much of the linearized
/// minimizer's global direction as feasibility permits while staying
/// violation-free (assuming `base` is violation-free).
pub(crate) fn project_toward(
    q: &QMatrix<'_>,
    base: &Assignment,
    target: &Assignment,
    sizes: &[u64],
    capacities: &[u64],
    scratch: &mut DescentScratch,
) -> Assignment {
    let problem = q.problem();
    let m = problem.m();
    let mut asg = base.clone();
    let used = &mut scratch.used;
    used.clear();
    used.resize(m, 0);
    for (j, &s) in sizes.iter().enumerate() {
        used[asg.part_index(j)] += s;
    }
    // Two passes: capacity freed by earlier moves lets later ones land.
    for _ in 0..2 {
        let mut changed = false;
        for (j, &size) in sizes.iter().enumerate() {
            let cj = ComponentId::new(j);
            let cur = asg.part_index(j);
            let want = target.part_index(j);
            if want == cur || used[want] + size > capacities[want] {
                continue;
            }
            let pw = qbp_core::PartitionId::new(want);
            if !qbp_core::move_is_timing_feasible(problem, &asg, cj, pw) {
                continue;
            }
            used[cur] -= size;
            used[want] += size;
            asg.move_to(cj, pw);
            changed = true;
        }
        if !changed {
            break;
        }
    }
    asg
}

/// Length of the recent-iterate window used to detect short cycles.
pub(crate) const STALL_WINDOW: usize = 8;

/// Number of components assigned to different partitions in `prev` vs.
/// `next` — the same threshold quantity [`QMatrix::eta_update`] uses to pick
/// between patching and a full recompute.
pub(crate) fn count_moved(prev: &Assignment, next: &Assignment) -> usize {
    (0..prev.len())
        .filter(|&j| prev.part_index(j) != next.part_index(j))
        .count()
}

/// Brings the workspace's embedded partition profile in sync with `u`:
/// patches it forward from its recorded source assignment when one exists
/// (and matches the problem's dimensions), otherwise rebuilds it from
/// scratch. Rebuilds fan across up to `threads` workers (bit-identical to
/// the serial rebuild; see [`PartitionProfile::rebuild_par`]). Returns
/// `(rebuilt, moved, chunks)` for observability — `chunks > 1` means worker
/// threads actually ran.
fn sync_profile(
    q: &QMatrix<'_>,
    ws: &mut SolveWorkspace,
    u: &Assignment,
    threads: usize,
) -> (bool, usize, usize) {
    let n = q.problem().n();
    let m = q.problem().m();
    // Fault-injection point: a corrupted profile cache is *detected* by
    // dropping it, which forces the rebuild branch below — the sync then
    // reconstructs ground truth from `q` and `u`, so the corruption costs a
    // rebuild, never a wrong profile.
    if qbp_core::fault::fault_point(qbp_core::fault::POINT_PROFILE_SYNC).is_corrupt() {
        ws.profile = None;
        ws.profile_source = None;
    }
    let result = match (ws.profile.as_mut(), ws.profile_source.as_ref()) {
        (Some(p), Some(prev)) if p.n() == n && p.m() == m => p.update_par(prev, u, threads),
        _ => {
            let (profile, chunks) = PartitionProfile::embedded_par(q, u, threads);
            ws.profile = Some(profile);
            (true, n, chunks)
        }
    };
    match ws.profile_source.as_mut() {
        Some(src) if src.len() == n => src.clone_from(u),
        _ => ws.profile_source = Some(u.clone()),
    }
    result
}

/// Cheap content hash of an assignment for cycle detection.
pub(crate) fn assignment_fingerprint(asg: &Assignment) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    asg.as_slice().hash(&mut hasher);
    hasher.finish()
}

fn capacity_feasible(asg: &Assignment, sizes: &[u64], capacities: &[u64], m: usize) -> bool {
    let mut used = vec![0u64; m];
    for j in 0..sizes.len() {
        used[asg.part_index(j)] += sizes[j];
    }
    used.iter().zip(capacities).all(|(u, c)| u <= c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exhaustive_constrained, exhaustive_qbp};
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};

    fn paper_problem(cap: u64) -> Problem {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("c", 1);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(b, d, 2).unwrap();
        let mut tc = TimingConstraints::new(3);
        tc.add_symmetric(a, b, 1).unwrap();
        tc.add_symmetric(b, d, 1).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, cap).unwrap())
            .timing(tc)
            .build()
            .unwrap()
    }

    #[test]
    fn solves_paper_example_to_optimum() {
        let problem = paper_problem(3);
        let outcome = QbpSolver::new(QbpConfig {
            iterations: 30,
            ..QbpConfig::default()
        })
        .solve(&problem, None)
        .unwrap();
        assert!(outcome.feasible);
        let (_, opt) = exhaustive_constrained(&problem).unwrap();
        assert_eq!(outcome.objective, opt, "heuristic should hit the optimum here");
    }

    #[test]
    fn tight_capacity_forces_spreading() {
        // Capacity 1 per partition: every component in its own partition.
        let problem = paper_problem(1);
        let outcome = QbpSolver::new(QbpConfig {
            iterations: 50,
            ..QbpConfig::default()
        })
        .solve(&problem, None)
        .unwrap();
        assert!(outcome.feasible, "must satisfy capacity 1 everywhere");
        let (_, opt) = exhaustive_constrained(&problem).unwrap();
        assert_eq!(outcome.objective, opt);
    }

    #[test]
    fn respects_supplied_initial_assignment() {
        let problem = paper_problem(3);
        let initial = Assignment::from_parts(vec![3, 3, 3]).unwrap();
        let outcome = QbpSolver::new(QbpConfig {
            iterations: 20,
            ..QbpConfig::default()
        })
        .solve(&problem, Some(&initial))
        .unwrap();
        assert!(outcome.feasible);
    }

    #[test]
    fn rejects_mismatched_initial() {
        let problem = paper_problem(3);
        let initial = Assignment::from_parts(vec![0, 1]).unwrap();
        assert!(QbpSolver::default().solve(&problem, Some(&initial)).is_err());
    }

    #[test]
    fn history_is_recorded_when_requested() {
        let problem = paper_problem(3);
        let outcome = QbpSolver::new(QbpConfig {
            iterations: 7,
            track_history: true,
            ..QbpConfig::default()
        })
        .solve(&problem, None)
        .unwrap();
        assert_eq!(outcome.history.len(), 7);
        assert_eq!(outcome.history[0].iteration, 1);
        // Incumbent values along the run never go below the final answer.
        for s in &outcome.history {
            if s.capacity_feasible {
                assert!(s.embedded_value >= outcome.embedded_value);
            }
        }
    }

    #[test]
    fn penalty_modes_all_reach_feasibility() {
        let problem = paper_problem(2);
        for penalty in [
            PenaltyMode::Fixed(50),
            PenaltyMode::Auto,
            PenaltyMode::Theorem1,
        ] {
            let outcome = QbpSolver::new(QbpConfig {
                iterations: 30,
                penalty,
                ..QbpConfig::default()
            })
            .solve(&problem, None)
            .unwrap();
            assert!(outcome.feasible, "penalty mode {penalty:?}");
        }
    }

    #[test]
    fn eta_modes_both_work() {
        let problem = paper_problem(2);
        for eta_mode in [EtaMode::Pseudocode, EtaMode::BalasMazzola] {
            let outcome = QbpSolver::new(QbpConfig {
                iterations: 30,
                eta_mode,
                ..QbpConfig::default()
            })
            .solve(&problem, None)
            .unwrap();
            assert!(outcome.feasible, "eta mode {eta_mode:?}");
        }
    }

    #[test]
    fn matches_exhaustive_embedded_minimum_on_tiny_instance() {
        let problem = paper_problem(2);
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let (_, opt) = exhaustive_qbp(&q).unwrap();
        let outcome = QbpSolver::new(QbpConfig {
            iterations: 60,
            ..QbpConfig::default()
        })
        .solve(&problem, None)
        .unwrap();
        assert_eq!(outcome.embedded_value, opt);
    }

    #[test]
    fn find_feasible_satisfies_all_constraints() {
        let problem = paper_problem(1);
        let asg = QbpSolver::default().find_feasible(&problem).unwrap().unwrap();
        assert!(check_feasibility(&problem, &asg).is_feasible());
    }

    #[test]
    fn multistart_never_worse_than_single() {
        let problem = paper_problem(2);
        let solver = QbpSolver::new(QbpConfig {
            iterations: 10,
            ..QbpConfig::default()
        });
        let single = solver.solve(&problem, None).unwrap();
        let multi = solver.solve_multistart(&problem, None, 5).unwrap();
        assert!(multi.feasible || !single.feasible);
        if multi.feasible && single.feasible {
            assert!(multi.embedded_value <= single.embedded_value);
        }
    }

    #[test]
    fn multistart_rejects_zero_runs() {
        let problem = paper_problem(2);
        assert!(QbpSolver::default()
            .solve_multistart(&problem, None, 0)
            .is_err());
    }

    /// Field-wise equality excluding the wall-clock `elapsed`.
    fn assert_same_outcome(a: &QbpOutcome, b: &QbpOutcome) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.embedded_value, b.embedded_value);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_multistart_matches_serial_bit_for_bit() {
        let problem = paper_problem(2);
        let base = QbpConfig {
            iterations: 12,
            seed: 7,
            track_history: true,
            threads: 1,
            ..QbpConfig::default()
        };
        let serial = QbpSolver::new(base).solve_multistart(&problem, None, 8).unwrap();
        for threads in [2, 3, 4, 0] {
            let par = QbpSolver::new(QbpConfig { threads, ..base })
                .solve_multistart(&problem, None, 8)
                .unwrap();
            assert_same_outcome(&par, &serial);
        }
    }

    #[test]
    fn intra_solve_eta_batches_match_serial_bit_for_bit() {
        // A single run with threads > 1 takes the serial multistart branch,
        // so the thread budget flows into the η-row batches of the descent
        // itself — the result must not depend on how the rows were chunked.
        let problem = paper_problem(2);
        let base = QbpConfig {
            iterations: 15,
            seed: 11,
            track_history: true,
            threads: 1,
            ..QbpConfig::default()
        };
        let serial = QbpSolver::new(base).solve(&problem, None).unwrap();
        for threads in [2, 4, 8, 0] {
            let par = QbpSolver::new(QbpConfig { threads, ..base })
                .solve(&problem, None)
                .unwrap();
            assert_same_outcome(&par, &serial);
        }
    }

    #[test]
    fn parallel_multistart_matches_serial_under_balas_mazzola() {
        // The Balas–Mazzola η variant exercises the workspace's ω-diagonal
        // scratch copy; the guarantee must hold there too.
        let problem = paper_problem(2);
        let base = QbpConfig {
            iterations: 10,
            seed: 41,
            eta_mode: EtaMode::BalasMazzola,
            track_history: true,
            threads: 1,
            ..QbpConfig::default()
        };
        let serial = QbpSolver::new(base).solve_multistart(&problem, None, 5).unwrap();
        let par = QbpSolver::new(QbpConfig { threads: 4, ..base })
            .solve_multistart(&problem, None, 5)
            .unwrap();
        assert_same_outcome(&par, &serial);
    }

    /// Deterministic pseudo-random instance big enough to cross every
    /// parallel grain in the solve path: `n` over `GAP_PAR_MIN_JOBS`, so the
    /// GAP lane fan and the parallel profile rebuilds actually run.
    fn lcg_problem(n: usize, rows: usize, cols: usize) -> Problem {
        let mut c = Circuit::new();
        for j in 0..n {
            c.add_component(format!("c{j}"), 1 + (j as u64 % 3));
        }
        let mut state = 0x0DDB_A115_5EED_BA5Eu64;
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
        ProblemBuilder::new(c, PartitionTopology::grid(rows, cols, (2 * n) as u64).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn full_solve_is_bit_identical_across_threads_on_large_instances() {
        // Covers M = 8 (exact SIMD width), M = 16, and M = 5 (padded rows).
        for (n, rows, cols) in [(520usize, 2usize, 4usize), (256, 2, 8), (820, 1, 5)] {
            let problem = lcg_problem(n, rows, cols);
            assert!(n >= crate::gap::GAP_PAR_MIN_JOBS);
            let base = QbpConfig {
                iterations: 6,
                seed: 5,
                track_history: true,
                threads: 1,
                ..QbpConfig::default()
            };
            let serial = QbpSolver::new(base).solve(&problem, None).unwrap();
            for threads in [2, 4, 8] {
                let par = QbpSolver::new(QbpConfig { threads, ..base })
                    .solve(&problem, None)
                    .unwrap();
                assert_same_outcome(&par, &serial);
            }
        }
    }

    #[test]
    fn budgeted_wind_down_is_bit_identical_across_threads() {
        // An iteration cap that lands mid-solve: the wind-down to the
        // incumbent must cross the parallel rebuild/descent paths the same
        // way for every thread budget.
        use qbp_core::exec::Budget;
        let problem = lcg_problem(520, 2, 4);
        let base = QbpConfig {
            iterations: 30,
            seed: 17,
            track_history: true,
            threads: 1,
            ..QbpConfig::default()
        };
        let exec = ExecCtx::with_budget(Budget::with_max_iters(4));
        let run = |threads: usize| {
            let mut ws = SolveWorkspace::new();
            QbpSolver::new(QbpConfig { threads, ..base })
                .solve_observed_exec(&problem, None, &mut ws, &exec, &mut NoopObserver)
                .unwrap()
        };
        let serial = run(1);
        assert!(serial.iterations <= 4, "cap must land mid-solve");
        for threads in [2, 4, 8] {
            assert_same_outcome(&run(threads), &serial);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let problem = paper_problem(2);
        let config = QbpConfig {
            iterations: 20,
            seed: 3,
            track_history: true,
            ..QbpConfig::default()
        };
        let solver = QbpSolver::new(config);
        let fresh = solver.solve(&problem, None).unwrap();
        // Warm the workspace on a different seed (its η cache then reflects
        // some unrelated assignment), then re-solve the original config.
        let mut ws = SolveWorkspace::new();
        QbpSolver::new(QbpConfig { seed: 1234, ..config })
            .solve_with(&problem, None, &mut ws)
            .unwrap();
        let reused = solver.solve_with(&problem, None, &mut ws).unwrap();
        assert_same_outcome(&fresh, &reused);
    }

    #[test]
    fn solve_warm_repairs_locally_without_escalation() {
        // Cold-solve the paper problem, then knock one component to a bad
        // partition: the dirty component plus its frontier is exactly the
        // disturbance, so the localized rung must restore feasibility.
        let problem = paper_problem(3);
        let cold = QbpSolver::new(QbpConfig {
            iterations: 30,
            ..QbpConfig::default()
        })
        .solve(&problem, None)
        .unwrap();
        assert!(cold.feasible);
        let mut disturbed = cold.assignment.clone();
        let moved = ComponentId::new(1);
        let elsewhere =
            qbp_core::PartitionId::new((disturbed.part_index(1) + 2) % problem.m());
        disturbed.move_to(moved, elsewhere);
        let warm = QbpSolver::new(QbpConfig {
            iterations: 30,
            ..QbpConfig::default()
        })
        .solve_warm(&problem, &disturbed, &[1], &mut qbp_observe::NoopObserver)
        .unwrap();
        assert!(warm.feasible);
        assert!(!warm.escalated, "a one-component knock must repair locally");
        assert!(warm.embedded_value <= cold.embedded_value + cold.embedded_value / 20 + 1);
    }

    #[test]
    fn solve_warm_escalates_from_hopeless_start() {
        // Everything stacked in one partition of capacity 1 cannot be fixed
        // by moving only the dirty frontier of a single component — the
        // warm solve must escalate and still end feasible.
        let problem = paper_problem(1);
        let stacked = Assignment::from_parts(vec![0, 0, 0]).unwrap();
        let warm = QbpSolver::new(QbpConfig {
            iterations: 50,
            ..QbpConfig::default()
        })
        .solve_warm(&problem, &stacked, &[], &mut qbp_observe::NoopObserver)
        .unwrap();
        assert!(warm.feasible);
        assert!(warm.escalated);
        let (_, opt) = exhaustive_constrained(&problem).unwrap();
        assert_eq!(warm.objective, opt);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let problem = paper_problem(3);
        let config = QbpConfig {
            iterations: 15,
            seed: 99,
            ..QbpConfig::default()
        };
        let a = QbpSolver::new(config).solve(&problem, None).unwrap();
        let b = QbpSolver::new(config).solve(&problem, None).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective, b.objective);
    }
}

#[cfg(test)]
mod descent_equivalence {
    use super::*;
    use proptest::prelude::*;
    use qbp_core::{Circuit, PartitionId, PartitionTopology, ProblemBuilder, TimingConstraints};

    /// The descent without the move-delta table: every candidate delta is a
    /// fresh adjacency walk (`move_delta` per partition, `swap_delta` per
    /// partner) and every clean-mode timing check runs. The table-driven
    /// engine must make exactly these decisions.
    fn reference_descent(
        q: &QMatrix<'_>,
        asg: &mut Assignment,
        sizes: &[u64],
        capacities: &[u64],
        max_sweeps: usize,
        clean_only: bool,
        active: Option<&[bool]>,
    ) -> bool {
        let problem = q.problem();
        let (m, n) = (problem.m(), problem.n());
        let mut used = vec![0u64; m];
        for (j, &s) in sizes.iter().enumerate() {
            used[asg.part_index(j)] += s;
        }
        let d = problem.topology().delay();
        for _ in 0..max_sweeps {
            let mut changed = false;
            let mut hot = vec![false; n];
            for j in 0..n {
                if active.is_some_and(|a| !a[j]) {
                    continue;
                }
                let cj = ComponentId::new(j);
                let cur = asg.part_index(j);
                let mut best: (Cost, usize) = (0, cur);
                for i in (0..m).filter(|&i| i != cur) {
                    let pi = PartitionId::new(i);
                    if clean_only && !qbp_core::move_is_timing_feasible(problem, asg, cj, pi) {
                        continue;
                    }
                    if used[i] + sizes[j] > capacities[i] {
                        if clean_only && q.move_delta(asg, cj, pi) < 0 {
                            hot[j] = true;
                        }
                        continue;
                    }
                    let delta = q.move_delta(asg, cj, pi);
                    if delta < best.0 {
                        best = (delta, i);
                    }
                }
                if best.1 != cur {
                    used[cur] -= sizes[j];
                    used[best.1] += sizes[j];
                    asg.move_to(cj, PartitionId::new(best.1));
                    changed = true;
                }
            }
            if !clean_only {
                for (a, b, limit) in problem.timing().iter() {
                    if d[(asg.part_index(a.index()), asg.part_index(b.index()))] > limit {
                        hot[a.index()] = true;
                        hot[b.index()] = true;
                    }
                }
            }
            for j in 0..n {
                if !hot[j] || active.is_some_and(|a| !a[j]) {
                    continue;
                }
                let cj = ComponentId::new(j);
                let mut best: (Cost, usize) = (0, j);
                for l in 0..n {
                    let (ij, il) = (asg.part_index(j), asg.part_index(l));
                    if l == j || il == ij {
                        continue;
                    }
                    if used[ij] - sizes[j] + sizes[l] > capacities[ij]
                        || used[il] - sizes[l] + sizes[j] > capacities[il]
                    {
                        continue;
                    }
                    let cl = ComponentId::new(l);
                    if clean_only && !qbp_core::swap_is_timing_feasible(problem, asg, cj, cl) {
                        continue;
                    }
                    let delta = q.swap_delta(asg, cj, cl);
                    if delta < best.0 {
                        best = (delta, l);
                    }
                }
                if best.1 != j {
                    let l = best.1;
                    let (ij, il) = (asg.part_index(j), asg.part_index(l));
                    used[ij] = used[ij] - sizes[j] + sizes[l];
                    used[il] = used[il] - sizes[l] + sizes[j];
                    asg.swap(cj, ComponentId::new(l));
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        q.violation_count(asg) == 0
    }

    fn sizes_and_capacities(problem: &Problem) -> (Vec<u64>, Vec<u64>) {
        let sizes = (0..problem.n())
            .map(|j| problem.circuit().size(ComponentId::new(j)))
            .collect();
        (sizes, problem.topology().capacities().to_vec())
    }

    /// Runs all three table-driven descents through one shared scratch and
    /// checks each against the reference.
    fn assert_matches_reference(q: &QMatrix<'_>, start: &Assignment, active: &[bool]) {
        let (sizes, caps) = sizes_and_capacities(q.problem());
        let mut scratch = DescentScratch::default();
        type Run<'a> = (&'a str, usize, bool, Option<&'a [bool]>);
        let runs: [Run<'_>; 3] = [
            ("embedded", 4, false, None),
            ("clean", 3, true, None),
            ("localized", 6, false, Some(active)),
        ];
        for (name, sweeps, clean, act) in runs {
            let mut got = start.clone();
            let got_clean = match (clean, act) {
                (true, _) => clean_descent(q, &mut got, &sizes, &caps, sweeps, &mut scratch),
                (false, Some(a)) => {
                    localized_descent(q, &mut got, &sizes, &caps, a, sweeps, &mut scratch)
                }
                (false, None) => {
                    embedded_descent(q, &mut got, &sizes, &caps, sweeps, &mut scratch)
                }
            };
            let mut want = start.clone();
            let want_clean = reference_descent(q, &mut want, &sizes, &caps, sweeps, clean, act);
            assert_eq!(got, want, "{name} descent assignment");
            assert_eq!(got_clean, want_clean, "{name} descent clean flag");
        }
    }

    /// Three unit-size components on a 1×3 line, one per partition, every
    /// partition full: no single move fits, so only a swap can improve.
    fn full_line(timing: &[(usize, usize, i64)], linear: Option<Vec<Vec<Cost>>>) -> Problem {
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..3).map(|j| c.add_component(format!("c{j}"), 1)).collect();
        c.add_wires(ids[0], ids[1], 1).unwrap();
        let mut tc = TimingConstraints::new(3);
        for &(a, b, limit) in timing {
            tc.add(ids[a], ids[b], limit).unwrap();
        }
        let mut builder =
            ProblemBuilder::new(c, PartitionTopology::grid(1, 3, 1).unwrap()).timing(tc);
        if let Some(rows) = linear {
            builder = builder.linear_cost(qbp_core::DenseMatrix::from_rows(rows).unwrap());
        }
        builder.build().unwrap()
    }

    #[test]
    fn penalty_mode_swap_repairs_a_violation() {
        // c0 and c2 sit two hops apart under a one-hop limit; trading c0
        // with c1 closes the violation.
        let problem = full_line(&[(0, 2, 1), (2, 0, 1)], None);
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let start = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        assert_eq!(q.violation_count(&start), 2);
        let (sizes, caps) = sizes_and_capacities(&problem);
        let mut asg = start.clone();
        assert!(embedded_descent(&q, &mut asg, &sizes, &caps, 4, &mut DescentScratch::default()));
        assert_ne!(asg, start, "only a swap can remove the violation");
        assert_matches_reference(&q, &start, &[true, false, false]);
    }

    #[test]
    fn clean_mode_swaps_capacity_blocked_components() {
        // c0 prefers partition 1 and c1 prefers partition 0, but every
        // partition is full: both moves are blocked, the swap is not.
        let linear = vec![vec![5, 0, 0], vec![0, 5, 0], vec![0, 0, 0]];
        let problem = full_line(&[], Some(linear));
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let start = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        let (sizes, caps) = sizes_and_capacities(&problem);
        let mut asg = start.clone();
        clean_descent(&q, &mut asg, &sizes, &caps, 2, &mut DescentScratch::default());
        assert_eq!(asg.as_slice(), &[1, 0, 2]);
        assert_matches_reference(&q, &start, &[false, true, true]);
    }

    /// A random instance with tight capacities (one largest component of
    /// slack per partition), a capacity-feasible first-fit start, and an
    /// active mask.
    fn arb_tight_instance() -> impl Strategy<Value = (Problem, Vec<u32>, Vec<bool>)> {
        (4usize..14, 2usize..6).prop_flat_map(|(n, m)| {
            let sizes = proptest::collection::vec(1u64..4, n);
            let edges = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 1i64..6),
                0..3 * n,
            );
            let cons = proptest::collection::vec(
                (
                    (0..n, 0..n).prop_filter("no self", |(a, b)| a != b),
                    0i64..3,
                    proptest::bool::ANY,
                ),
                0..n,
            );
            let prefs = proptest::collection::vec(0usize..m, n);
            let active = proptest::collection::vec(proptest::bool::ANY, n);
            (Just((n, m)), sizes, edges, cons, prefs, active).prop_map(
                |((n, m), sizes, edges, cons, prefs, active)| {
                    let mut c = Circuit::new();
                    for (j, &s) in sizes.iter().enumerate() {
                        c.add_component(format!("c{j}"), s);
                    }
                    for ((a, b), w) in edges {
                        c.add_connection(ComponentId::new(a), ComponentId::new(b), w).unwrap();
                    }
                    let mut tc = TimingConstraints::new(n);
                    for ((a, b), limit, both) in cons {
                        let (ca, cb) = (ComponentId::new(a), ComponentId::new(b));
                        if both {
                            tc.add_symmetric(ca, cb, limit).unwrap();
                        } else {
                            tc.add(ca, cb, limit).unwrap();
                        }
                    }
                    let total: u64 = sizes.iter().sum();
                    let cap = total.div_ceil(m as u64) + 3;
                    let topo = PartitionTopology::grid(1, m, cap).unwrap();
                    let problem = ProblemBuilder::new(c, topo).timing(tc).build().unwrap();
                    // First fit from each component's preferred partition.
                    let mut used = vec![0u64; m];
                    let parts = prefs
                        .iter()
                        .zip(&sizes)
                        .map(|(&pref, &s)| {
                            let i = (0..m)
                                .map(|k| (pref + k) % m)
                                .find(|&i| used[i] + s <= cap)
                                .expect("one component of slack per partition");
                            used[i] += s;
                            i as u32
                        })
                        .collect();
                    (problem, parts, active)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn table_descents_match_the_reference_scan(
            (problem, parts, active) in arb_tight_instance()
        ) {
            let start = Assignment::from_parts(parts).unwrap();
            for q in [
                QMatrix::with_auto_penalty(&problem).unwrap(),
                QMatrix::new(&problem, 50).unwrap(),
            ] {
                assert_matches_reference(&q, &start, &active);
            }
        }
    }
}
