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
use crate::gap::{solve_gap_with, GapInstance, GapScratch};
use qbp_core::exec::{catch_panic, ExecCtx, ExecStatus};
use qbp_core::{
    check_feasibility, Assignment, ComponentId, Cost, Error, Evaluator, Problem, QMatrix,
};
use qbp_observe::{
    EtaFallbackReason, NoopObserver, SolveEvent, SolveObserver, SolverId, SubproblemKind,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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

impl PenaltyMode {
    /// `Q̂` of `problem` under this penalty choice.
    pub(crate) fn qmatrix(self, problem: &Problem) -> Result<QMatrix<'_>, Error> {
        match self {
            PenaltyMode::Fixed(p) => QMatrix::new(problem, p),
            PenaltyMode::Auto => QMatrix::with_auto_penalty(problem),
            PenaltyMode::Theorem1 => QMatrix::new(problem, QMatrix::theorem1_penalty(problem)),
        }
    }
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
    /// Worker threads of [`QbpSolver::solve_multistart`]'s run fan-out:
    /// `0` (default) resolves to one per available core, `1` runs the
    /// restarts one after another. A single solve is serial at any setting.
    /// The answer is bit-identical for every setting — runs are independent
    /// and reduced in run order.
    pub threads: usize,
}

impl Default for QbpConfig {
    fn default() -> Self {
        QbpConfig {
            iterations: 100,
            penalty: PenaltyMode::Auto,
            eta_mode: EtaMode::Pseudocode,
            seed: 0x5EED_CAFE,
            stall_window: STALL_WINDOW,
            repair_candidates: true,
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
}

/// Reusable buffers for one Burkard solve: the η cache with the assignment
/// it linearizes (enabling [`QMatrix::eta_update`]'s incremental patch), the
/// list of components that moved since, the `f64` mirror handed to the GAP
/// solver, the accumulated direction `h`, the stall-detection fingerprint
/// window, and scratch for the GAP and descent subroutines. After the first
/// iteration warms the buffers, the solver's inner loop performs no heap
/// allocation beyond the `O(N)` assignment clones it hands to the incumbent
/// bookkeeping.
///
/// A multistart worker runs every seed it claims through one workspace (a
/// run forked from a shared prefix takes a clone of the prefix's); the
/// results are bit-identical to solving with a fresh workspace because the
/// η cache records exactly which assignment it reflects, the descent's
/// move-delta table is emptied at the start of each solve, and every other
/// buffer is reinitialized per solve.
#[derive(Debug, Clone, Default)]
struct SolveWorkspace {
    eta: Vec<Cost>,
    /// The assignment `eta` currently linearizes; `None` when the cache is
    /// cold.
    eta_source: Option<Assignment>,
    /// The components in which `eta_source` and the iterate differ,
    /// collected once per iteration for the event's count and the patch.
    movers: Vec<usize>,
    /// Balas–Mazzola variant scratch: raw η plus the ω diagonal. Kept apart
    /// so the incremental cache in `eta` stays pristine.
    eta_bm: Vec<Cost>,
    eta_f: Vec<f64>,
    h: Vec<f64>,
    recent: VecDeque<u64>,
    gap: GapScratch,
    descent: DescentScratch,
}

/// What every iteration of a Burkard solve on one `Q̂` reads and none
/// writes: the component sizes, the partition capacities and the bound
/// vector `ω` of STEP 1.
#[derive(Debug)]
struct LoopInputs {
    sizes: Vec<u64>,
    capacities: Vec<u64>,
    omega: Vec<Cost>,
}

impl LoopInputs {
    fn new(q: &QMatrix<'_>) -> LoopInputs {
        let problem = q.problem();
        LoopInputs {
            sizes: (0..problem.n())
                .map(|j| problem.circuit().size(ComponentId::new(j)))
                .collect(),
            capacities: problem.topology().capacities().to_vec(),
            omega: q.omega(),
        }
    }
}

/// A Burkard solve between two iterations: everything STEPs 3–7 carry from
/// one iteration to the next. [`QbpSolver::iterate`] advances it. Run
/// without a generator, the loop pauses where a stall reset is about to draw
/// its fresh iterate. A solve from a supplied initial assignment that skips
/// the `B = 0` bootstrap reads its seed nowhere before that draw, so
/// [`QbpSolver::solve_multistart`] runs that prefix once and finishes every
/// run from a clone of the paused state.
#[derive(Debug, Clone)]
struct Burkard {
    /// The iterate `u⁽ᵏ⁾`.
    u: Assignment,
    /// STEP 7's incumbent: the best capacity-feasible assignment by `yᵀQ̂y`.
    best: Option<(Assignment, Cost)>,
    /// The best fully feasible assignment seen, which violated candidates
    /// are projected from.
    anchor: Option<(Assignment, Cost)>,
    /// Why the loop stopped, once the context has stopped it.
    status: ExecStatus,
    /// Whether the previous iteration ended in a stall reset — the next η
    /// fallback is then attributed to the reset, not to ordinary GAP drift
    /// (the restart replaces the iterate wholesale by design).
    after_reset: bool,
    /// The next iteration to run; `k − 1` iterations have run.
    k: usize,
    ws: SolveWorkspace,
}

impl Burkard {
    /// STEPs 1–2 from the first iterate `u`: the incumbent is seeded only if
    /// `u` is capacity-feasible, and a fully feasible `u` also seeds the
    /// projection anchor. `ws` may hold what any solve of the same `q` left
    /// in it; its per-solve buffers are reset here.
    fn new(q: &QMatrix<'_>, inp: &LoopInputs, u: Assignment, mut ws: SolveWorkspace) -> Burkard {
        let m = q.problem().m();
        let mut best = None;
        let mut anchor = None;
        if capacity_feasible(&u, &inp.sizes, &inp.capacities, m) {
            let v = q.value(&u);
            consider(&mut best, &u, v);
            if q.violation_count(&u) == 0 {
                anchor = Some((u.clone(), v));
            }
        }
        let mn = m * u.len();
        ws.h.clear();
        ws.h.resize(mn, 0.0);
        ws.eta_f.clear();
        ws.eta_f.resize(mn, 0.0);
        ws.recent.clear();
        // The descents carry their move-delta table over from call to call;
        // the workspace's last solve may have filled it under another Q̂.
        ws.descent.clear_table();
        Burkard {
            u,
            best,
            anchor,
            status: ExecStatus::Completed,
            after_reset: false,
            k: 1,
            ws,
        }
    }

    /// Whether the `B = 0` bootstrap must run before the loop: bounded
    /// solves guarantee a feasible best-so-far before the budget can fire,
    /// so when nothing feasible seeds the anchor, the bootstrap runs to
    /// completion first as uninterruptible minimum work (see
    /// `docs/ROBUSTNESS.md`). It reads the seed.
    fn needs_bootstrap(&self, exec: &ExecCtx) -> bool {
        !exec.is_unbounded() && self.anchor.is_none()
    }

    /// Finishes a stall reset: a uniformly random iterate drawn from `rng`
    /// replaces `u`, which η still linearizes.
    fn redraw(&mut self, m: usize, rng: &mut StdRng) {
        let fresh = random_assignment(self.u.len(), m, rng);
        self.ws.eta_source = Some(std::mem::replace(&mut self.u, fresh));
    }

    /// The report of a loop that has ended: the incumbent (or the last
    /// iterate when nothing capacity-feasible was seen), recomputed
    /// feasibility and objective, and `k − 1` iterations.
    fn finish(
        self,
        q: &QMatrix<'_>,
        initial: Option<&Assignment>,
        start: Instant,
        obs: &mut dyn SolveObserver,
    ) -> SolveReport {
        let problem = q.problem();
        let executed = self.k - 1;
        let (assignment, embedded_value) = self.best.unwrap_or_else(|| {
            let v = q.value(&self.u);
            (self.u, v)
        });
        let feasible = check_feasibility(problem, &assignment).is_feasible();
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: executed,
            value: embedded_value,
            feasible,
        });
        SolveReport {
            solver: "qbp",
            moves_applied: moved_from(initial, &assignment),
            objective: Evaluator::new(problem).cost(&assignment),
            embedded_value: Some(embedded_value),
            feasible,
            iterations: executed,
            elapsed: start.elapsed(),
            auto_profile: None,
            assignment,
            status: self.status,
        }
    }
}

/// What the shared prefix of an initial-seeded multistart leaves for its
/// runs ([`QbpSolver::solve_multistart`]).
#[derive(Debug)]
enum Prefix {
    /// The loop ended before its first stall reset: every run's report.
    Ended(SolveReport),
    /// The loop paused at its first stall reset, before the draw; each run
    /// finishes a clone under its own seed.
    Paused(LoopInputs, Box<Burkard>),
}

/// Offers `asg`, of embedded value `value`, to an incumbent slot; returns
/// whether it took the slot (only a strictly lower value does).
fn consider(best: &mut Option<(Assignment, Cost)>, asg: &Assignment, value: Cost) -> bool {
    if best.as_ref().is_none_or(|(_, bv)| value < *bv) {
        *best = Some((asg.clone(), value));
        true
    } else {
        false
    }
}

/// A uniformly random assignment of `n` components to `m` partitions: the
/// first iterate of a solve without an initial assignment, and the fresh
/// iterate of a stall reset.
fn random_assignment(n: usize, m: usize, rng: &mut StdRng) -> Assignment {
    Assignment::from_fn(n, |_| qbp_core::PartitionId::new(rng.random_range(0..m)))
}

/// Iteration cap of the first escalation rung of [`QbpSolver::solve_warm`]:
/// enough Burkard iterations to re-place a localized disturbance, far below
/// the paper's 100-iteration cold budget.
pub(crate) const WARM_ESCALATION_ITERATIONS: usize = 12;

/// `yᵀQ̂y` of a report from the Burkard loop, which always carries it.
fn embedded(report: &SolveReport) -> Cost {
    report
        .embedded_value
        .expect("Burkard reports carry the embedded value")
}

/// The generalized Burkard heuristic solver.
///
/// [`Solver::solve_exec`] runs STEPs 1–8 from `init`; when `init` is `None`
/// the first iterate is a uniformly random assignment — §5 notes QBP
/// "maintained the same kind of good results from any arbitrary initial
/// solution" (the initial iterate need not be feasible). The loop polls the
/// execution context at each iteration boundary and winds down to the best
/// incumbent when it fires. When the context is bounded and no feasible
/// incumbent exists yet, the `B = 0` feasibility bootstrap
/// ([`QbpSolver::find_feasible`]) runs first as uninterruptible minimum
/// work, so a budgeted solve on a feasible instance returns a *feasible*
/// best-so-far even when the budget expires before the first improvement
/// iteration. The observer sees the iteration lifecycle (η recomputes vs.
/// incremental patches, STEP 4/6 GAP solves, penalty hits, repair sweeps,
/// stall restarts, incumbent improvements); the solve is bit-identical for
/// every observer.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder};
/// use qbp_observe::NoopObserver;
/// use qbp_solver::{QbpConfig, QbpSolver, Solver};
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
/// let report = QbpSolver::new(QbpConfig::default()).solve(&problem, None, &mut NoopObserver)?;
/// assert!(report.feasible);
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

    /// The Burkard loop behind [`Solver::solve_exec`] on the caller's `Q̂`
    /// and scratch buffers. Only the `B = 0` bootstrap of a bounded solve
    /// reads [`QbpConfig::penalty`], for a matrix of its own problem.
    /// The report is bit-identical for any prior contents of `ws` left by
    /// solves of the same `q`, as in multistart. The η cache is patched
    /// forward from what it holds, so it must come from the same `q`; the
    /// descent's move-delta table is emptied here whatever it holds.
    fn solve_in(
        &self,
        q: &QMatrix<'_>,
        initial: Option<&Assignment>,
        ws: &mut SolveWorkspace,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        let start = Instant::now();
        let problem = q.problem();
        let (m, n) = (problem.m(), problem.n());
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Qbp,
            components: n,
            partitions: m,
        });

        // STEP 1 & 2: bounds ω, initial iterate, incumbent.
        let inp = LoopInputs::new(q);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let u = match initial {
            Some(a) => {
                problem.validate_assignment(a)?;
                a.clone()
            }
            None => random_assignment(n, m, &mut rng),
        };
        let mut st = Burkard::new(q, &inp, u, std::mem::take(ws));
        if st.needs_bootstrap(exec) {
            if let Some(feas) = self.find_feasible(problem)? {
                let v = q.value(&feas);
                consider(&mut st.best, &feas, v);
                st.anchor = Some((feas, v));
            }
        }
        let paused = self.iterate(q, &inp, &mut st, Some(&mut rng), exec, obs);
        debug_assert!(!paused, "a loop with a generator never pauses");
        *ws = std::mem::take(&mut st.ws);
        Ok(st.finish(q, initial, start, obs))
    }

    /// STEPs 3–7 from iteration `st.k` on. Returns `false` once the loop has
    /// ended: every configured iteration ran, or `exec` stopped it and
    /// `st.status` says why. Returns `true` when a stall reset needs its
    /// fresh iterate and `rng` is `None`: the reset has cleared `h` and the
    /// window but drawn nothing, and [`Burkard::redraw`] finishes it.
    fn iterate(
        &self,
        q: &QMatrix<'_>,
        inp: &LoopInputs,
        st: &mut Burkard,
        mut rng: Option<&mut StdRng>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> bool {
        let problem = q.problem();
        let (m, n) = (problem.m(), problem.n());
        let mn = m * n;
        let LoopInputs {
            sizes,
            capacities,
            omega,
        } = inp;
        while st.k <= self.config.iterations {
            let k = st.k;
            if let Some(stop) = exec.check(k) {
                match stop {
                    ExecStatus::Cancelled => {
                        obs.on_event(&SolveEvent::Cancelled { iteration: k });
                    }
                    _ => obs.on_event(&SolveEvent::BudgetExhausted { iteration: k }),
                }
                st.status = stop;
                return false;
            }
            obs.on_event(&SolveEvent::IterationStarted { iteration: k });
            // STEP 3: the η cache records which assignment it linearizes, so
            // successive iterates pay only for the components that moved
            // (bit-identical to a fresh computation; see
            // [`QMatrix::eta_update`]).
            // Fault-injection point: a corrupted η cache is *detected* by
            // dropping its source, which forces a cold full recompute from
            // `q` and `u` — the corruption costs one recompute, never a
            // wrong η.
            if qbp_core::fault::fault_point(qbp_core::fault::POINT_ETA_SYNC).is_corrupt() {
                st.ws.eta_source = None;
            }
            let source = st.ws.eta_source.as_ref().filter(|_| st.ws.eta.len() == mn);
            // One scan collects the movers for the event's count, the N/2
            // rule and the patch.
            let moved = match source {
                Some(prev) => {
                    prev.movers_into(&st.u, &mut st.ws.movers);
                    st.ws.movers.len()
                }
                None => n,
            };
            // When the patch path is skipped, attribute the full recompute
            // to one of three causes (surfaced as an `EtaFallback` event so
            // η regressions stay diagnosable): no usable cached surface
            // (cold), the iterate was just replaced by a stall reset (the
            // random restart relocates nearly every component by design),
            // or the GAP step genuinely moved more than half the
            // components.
            let fallback = if source.is_none() {
                Some(EtaFallbackReason::Cold)
            } else if moved <= n / 2 {
                None
            } else if st.after_reset {
                Some(EtaFallbackReason::Stall)
            } else {
                Some(EtaFallbackReason::MovedFraction)
            };
            st.after_reset = false;
            if let Some(reason) = fallback {
                obs.on_event(&SolveEvent::EtaFallback {
                    iteration: k,
                    reason,
                });
            }
            obs.on_event(&SolveEvent::ProfileUpdated {
                iteration: k,
                rebuilt: fallback.is_some(),
                moved,
            });
            let incremental = match (fallback, source) {
                (None, Some(prev)) => {
                    let patched = q.eta_update(prev, &st.u, &st.ws.movers, &mut st.ws.eta);
                    debug_assert!(patched, "eta_update must patch below the N/2 threshold");
                    patched
                }
                _ => {
                    q.eta(&st.u, &mut st.ws.eta);
                    false
                }
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
                for v in st.ws.eta.iter_mut() {
                    *v = v.wrapping_mul(3).wrapping_add(1);
                }
            }
            let eta_k: &[Cost] = if self.config.eta_mode == EtaMode::BalasMazzola {
                // The ω diagonal is iterate-dependent; add it on a scratch
                // copy so the incremental cache stays the raw η.
                let bm = &mut st.ws.eta_bm;
                bm.clear();
                bm.extend_from_slice(&st.ws.eta);
                for j in 0..n {
                    let r = st.u.part_index(j) + j * m;
                    bm[r] += omega[r];
                }
                bm
            } else {
                &st.ws.eta
            };
            let xi = q.xi(omega, &st.u);
            for (dst, &src) in st.ws.eta_f.iter_mut().zip(eta_k.iter()) {
                *dst = src as f64;
            }
            let inst = GapInstance {
                m,
                n,
                costs: &st.ws.eta_f,
                sizes,
                capacities,
            };
            // STEP 4: z = min_{u ∈ S} η·u. Besides providing z, the
            // minimizer is the Gauss–Seidel candidate "place every component
            // optimally against the current iterate" — evaluating it for the
            // incumbent is nearly free and often catches consistent
            // (timing-clean) solutions the h-driven STEP 6 skips past.
            let step4 = solve_gap_with(&inst, &mut st.ws.gap);
            obs.on_event(&SolveEvent::SubproblemSolved {
                iteration: k,
                kind: SubproblemKind::Gap,
                cost: step4.cost,
                feasible: step4.feasible,
            });
            let z = step4.cost;
            if step4.feasible {
                let mut step4_asg = Assignment::from_parts(step4.assignment)
                    .expect("GAP returns one entry per component");
                if self.config.repair_candidates && q.violation_count(&step4_asg) > 0 {
                    let cleaned = embedded_descent(
                        q, &mut step4_asg, sizes, capacities, 4, &mut st.ws.descent,
                    );
                    obs.on_event(&SolveEvent::RepairApplied {
                        iteration: k,
                        cleaned,
                    });
                }
                let v4 = q.value(&step4_asg);
                consider(&mut st.best, &step4_asg, v4);
                if self.config.repair_candidates {
                    promote_candidate(
                        q, &step4_asg, v4, sizes, capacities, &mut st.anchor, &mut st.best,
                        &mut st.ws.descent,
                    );
                }
            }
            // STEP 5: accumulate direction.
            let scale = (z - xi as f64).abs().max(1.0);
            for (hr, &e) in st.ws.h.iter_mut().zip(eta_k.iter()) {
                *hr += e as f64 / scale;
            }
            // STEP 6: next iterate from the accumulated direction.
            let h_inst = GapInstance {
                m,
                n,
                costs: &st.ws.h,
                sizes,
                capacities,
            };
            let next = solve_gap_with(&h_inst, &mut st.ws.gap);
            obs.on_event(&SolveEvent::SubproblemSolved {
                iteration: k,
                kind: SubproblemKind::Gap,
                cost: next.cost,
                feasible: next.feasible,
            });
            let next_asg = Assignment::from_parts(next.assignment)
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
                let mut improved = consider(&mut st.best, &next_asg, value);
                if self.config.repair_candidates {
                    if violations > 0 {
                        let mut polished = next_asg.clone();
                        let cleaned = embedded_descent(
                            q, &mut polished, sizes, capacities, 4, &mut st.ws.descent,
                        );
                        obs.on_event(&SolveEvent::RepairApplied {
                            iteration: k,
                            cleaned,
                        });
                        let pv = q.value(&polished);
                        improved |= consider(&mut st.best, &polished, pv);
                        improved |= promote_candidate(
                            q, &polished, pv, sizes, capacities, &mut st.anchor, &mut st.best,
                            &mut st.ws.descent,
                        );
                    } else {
                        improved |= promote_candidate(
                            q, &next_asg, value, sizes, capacities, &mut st.anchor,
                            &mut st.best, &mut st.ws.descent,
                        );
                    }
                }
                improved
            } else {
                false
            };
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: k,
                value,
                feasible: next.feasible,
                improved,
            });
            st.k = k + 1;
            let fingerprint = assignment_fingerprint(&next_asg);
            if self.config.restarts_enabled() && st.ws.recent.contains(&fingerprint) {
                // Fixed point or short cycle: η, h and the GAP answers would
                // repeat. Diversify from a fresh random iterate; the
                // incumbent is kept by STEP 7's bookkeeping.
                obs.on_event(&SolveEvent::StallReset { iteration: k });
                st.after_reset = true;
                st.ws.h.fill(0.0);
                st.ws.recent.clear();
                let Some(rng) = rng.as_deref_mut() else {
                    return true;
                };
                st.redraw(m, rng);
            } else {
                if st.ws.recent.len() >= self.config.stall_window.max(1) {
                    st.ws.recent.pop_front();
                }
                st.ws.recent.push_back(fingerprint);
                st.ws.eta_source = Some(std::mem::replace(&mut st.u, next_asg));
            }
        }
        false
    }

    /// The part of a multistart from `initial` that every run shares, run
    /// under this solver's (run 0's) config: the loop up to its first stall
    /// reset, which is where a run first reads its seed. `Ok(None)` when
    /// the `B = 0` bootstrap would read the seed first; the runs are then
    /// solved independently.
    fn shared_prefix(
        &self,
        q: &QMatrix<'_>,
        initial: &Assignment,
        exec: &ExecCtx,
        start: Instant,
    ) -> Result<Option<Prefix>, Error> {
        q.problem().validate_assignment(initial)?;
        let inp = LoopInputs::new(q);
        let mut st = Burkard::new(q, &inp, initial.clone(), SolveWorkspace::default());
        if st.needs_bootstrap(exec) {
            return Ok(None);
        }
        Ok(Some(if self.iterate(q, &inp, &mut st, None, exec, &mut NoopObserver) {
            Prefix::Paused(inp, Box::new(st))
        } else {
            Prefix::Ended(st.finish(q, Some(initial), start, &mut NoopObserver))
        }))
    }

    /// Finishes one run from the paused shared prefix `st`: the stall reset
    /// draws its fresh iterate from this solver's seed, and the loop runs to
    /// its end. The report equals that of [`QbpSolver::solve_in`] from
    /// `initial`.
    fn resume(
        &self,
        q: &QMatrix<'_>,
        inp: &LoopInputs,
        mut st: Burkard,
        initial: Option<&Assignment>,
        exec: &ExecCtx,
        start: Instant,
    ) -> SolveReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        st.redraw(q.problem().m(), &mut rng);
        let paused = self.iterate(q, inp, &mut st, Some(&mut rng), exec, &mut NoopObserver);
        debug_assert!(!paused, "a loop with a generator never pauses");
        st.finish(q, initial, start, &mut NoopObserver)
    }

    /// Runs the Burkard loop from `runs` different seeds and returns the
    /// best run's report (feasible reports strictly preferred; ties broken
    /// by embedded value, then by lowest run index), so its `iterations`
    /// are the winning run's. The iteration budget of each run is the
    /// configured one — total work scales linearly with `runs`.
    ///
    /// Runs are fanned across a [`std::thread::scope`] worker pool sized by
    /// [`QbpConfig::threads`] (`0` = one worker per available core, capped at
    /// `runs`). Each run is an independent deterministic solve of its derived
    /// seed, workers claim run indices from a shared counter and reuse one
    /// workspace each, and the winner is reduced **in run order** after all
    /// runs complete — so the returned report is bit-identical to the serial
    /// execution (`threads == 1`) for any thread count, differing only in
    /// wall-clock `elapsed`, which spans the whole multistart.
    ///
    /// A run from a supplied `initial` reads its seed first when its first
    /// stall reset draws a fresh iterate, unless a bounded solve with no
    /// feasible start runs the `B = 0` bootstrap, which reads it at once.
    /// Without the bootstrap, every run is the same up to that reset, so the
    /// loop runs that far once, under run 0's config. Each run then finishes
    /// from a clone of the paused state with its own seed, on the same
    /// worker pool; if the loop ends before any reset, every run's report is
    /// run 0's. Either way each run's report is bit-identical to its
    /// independent solve.
    ///
    /// Per-iteration events of the individual runs are **not** streamed to
    /// `obs` (workers race, and interleaving their streams would make traces
    /// scheduling-dependent); instead one [`SolveEvent::RunCompleted`] per
    /// run is emitted in run order after all runs finish, bracketed by
    /// `SolveStarted` / `SolveFinished`, whose `iterations` is the sum over
    /// the runs that ran. The trace is therefore bit-identical for every
    /// thread count, like the answer itself.
    ///
    /// Each run polls `exec` like a single solve and is wrapped in
    /// [`catch_panic`], so one poisoned run surfaces as a
    /// [`SolveEvent::WorkerPanicked`] in run order while the surviving
    /// runs' results are reduced normally. A panic in the shared prefix is
    /// run 0's, and the other runs are then solved independently. Run 0
    /// always executes (minimum work); before each later run the deadline
    /// and token are re-checked and remaining runs are skipped once either
    /// fires. The returned status is the merge of the stop cause and every
    /// surviving run's own status.
    ///
    /// # Errors
    ///
    /// `runs == 0` is an error; validation errors propagate at the lowest
    /// failing run index; [`Error::Internal`] only when every run panicked.
    pub fn solve_multistart(
        &self,
        problem: &Problem,
        initial: Option<&Assignment>,
        runs: usize,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        if runs == 0 {
            return Err(Error::NegativeValue {
                what: "multistart run count",
                value: 0,
            });
        }
        let start = Instant::now();
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Qbp,
            components: problem.n(),
            partitions: problem.m(),
        });
        // Every run solves the same `Q̂`: build it once, before the fan.
        let q = self.config.penalty.qmatrix(problem)?;
        let q = &q;
        let threads = self.effective_threads(runs);
        // Gate for *starting* new runs: deadline and token only — the
        // iteration cap belongs to the runs' own Burkard loops.
        let run_gate = exec.uncapped();
        let mut slots: Vec<Option<Result<SolveReport, Error>>> = Vec::new();
        slots.resize_with(runs, || None);
        let prefix = match initial {
            None => None,
            Some(a) => {
                let run0 = QbpSolver::new(self.run_config(0));
                match catch_panic(|| run0.shared_prefix(q, a, exec, start)).and_then(|r| r) {
                    Ok(prefix) => prefix,
                    Err(e @ Error::Internal { .. }) => {
                        slots[0] = Some(Err(e));
                        None
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        let run = |r: usize, ws: &mut SolveWorkspace| {
            let solver = QbpSolver::new(self.run_config(r));
            catch_panic(|| match &prefix {
                None => solver.solve_in(q, initial, ws, exec, &mut NoopObserver),
                Some(Prefix::Ended(report)) => Ok(report.clone()),
                Some(Prefix::Paused(inp, st)) => {
                    Ok(solver.resume(q, inp, (**st).clone(), initial, exec, start))
                }
            })
            .and_then(|r| r)
        };
        // Runs whose slot the prefix already filled.
        let first = usize::from(slots[0].is_some());
        let mut stopped = ExecStatus::Completed;
        if threads <= 1 {
            let mut ws = SolveWorkspace::default();
            for (r, slot) in slots.iter_mut().enumerate().skip(first) {
                if r > 0 {
                    if let Some(stop) = run_gate.check(1) {
                        stopped = stop;
                        break;
                    }
                }
                let out = run(r, &mut ws);
                let abort = matches!(out, Err(ref e) if !matches!(e, Error::Internal { .. }));
                *slot = Some(out);
                if abort {
                    break;
                }
            }
        } else {
            let counter = AtomicUsize::new(first);
            std::thread::scope(|scope| {
                let counter = &counter;
                let run_gate = &run_gate;
                let run = &run;
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut ws = SolveWorkspace::default();
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
                                local.push((r, run(r, &mut ws)));
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
        let mut best: Option<SolveReport> = None;
        let mut status = stopped;
        let mut iterations = 0;
        let mut first_panic: Option<Error> = None;
        for (r, slot) in slots.into_iter().enumerate() {
            match slot {
                // Run never started: the budget fired first.
                None => {}
                Some(Ok(out)) => {
                    status = status.merge(out.status);
                    iterations += out.iterations;
                    obs.on_event(&SolveEvent::RunCompleted {
                        run: r,
                        value: embedded(&out),
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
        best.elapsed = start.elapsed();
        obs.on_event(&SolveEvent::SolveFinished {
            iterations,
            value: embedded(&best),
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
    fn outcome_improves(out: &SolveReport, best: Option<&SolveReport>) -> bool {
        match best {
            None => true,
            Some(b) => {
                (out.feasible, std::cmp::Reverse(embedded(out)))
                    > (b.feasible, std::cmp::Reverse(embedded(b)))
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
        let q = self.config.penalty.qmatrix(&feas)?;
        let m = feas.m();
        let n = feas.n();
        let sizes: Vec<u64> = (0..n)
            .map(|j| feas.circuit().size(ComponentId::new(j)))
            .collect();
        let capacities = feas.topology().capacities().to_vec();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xB0);
        let mut u = random_assignment(n, m, &mut rng);
        let mut ws = SolveWorkspace::default();
        ws.eta_f.resize(m * n, 0.0);
        let budget = self.config.iterations.max(30);
        for _ in 0..budget {
            match ws.eta_source.as_ref() {
                Some(prev) => {
                    prev.movers_into(&u, &mut ws.movers);
                    q.eta_update(prev, &u, &ws.movers, &mut ws.eta);
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
            let sol = solve_gap_with(&inst, &mut ws.gap);
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
                let fresh = random_assignment(n, m, &mut rng);
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
    /// the `dirty` component set instead of solving from scratch, on the
    /// caller's `q` (typically a patched body lent through
    /// [`QMatrix::from_body`]). Returns the report and whether the re-solve
    /// escalated past the localized pass.
    ///
    /// The ladder has three rungs, each only climbed when the previous one
    /// leaves the assignment infeasible:
    ///
    /// 1. **Localized descent** — sequential coordinate descent on `yᵀQ̂y`
    ///    restricted to the dirty components and their one-hop neighborhood
    ///    (wires *and* timing constraints). Most small deltas resolve here in
    ///    O(dirty·deg·M), which is what makes an ECO edit stream orders of
    ///    magnitude cheaper than cold solves. This rung is bounded work and
    ///    always runs to completion.
    /// 2. **Capped full solve** — the regular Burkard loop seeded from the
    ///    polished assignment, capped at 12 iterations.
    /// 3. **Full-budget solve** — the configured cold budget, as a last
    ///    resort.
    ///
    /// Every rung runs on `q`, so [`QbpConfig::penalty`] only matters to the
    /// `B = 0` bootstrap of a bounded escalation. The rung-2/3 solves poll
    /// `exec` like any other Burkard solve and wind down to their
    /// best-so-far when it fires. The result of the highest rung climbed is
    /// returned (a later rung's answer is only preferred when it is feasible
    /// or strictly better); the report's `iterations` counts the escalation
    /// solves' Burkard iterations. `dirty` may contain duplicates and
    /// out-of-range indices are ignored; an empty `dirty` set still verifies
    /// (and if needed repairs) the assignment.
    ///
    /// The rung-1 descents run on `state`'s move-delta table, which carries
    /// over from one call to the next. Between calls the caller must
    /// [`WarmState::invalidate`] every row whose `Q̂` records changed, or
    /// replace `state` when `q` changed wholesale; the report is then
    /// bit-identical to a call with a fresh [`WarmState::default`].
    ///
    /// # Errors
    ///
    /// Returns an error when `initial` does not match the problem's
    /// dimensions, and propagates the escalation solves' errors.
    pub fn solve_warm(
        &self,
        q: &QMatrix<'_>,
        initial: &Assignment,
        dirty: &[usize],
        state: &mut WarmState,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<(SolveReport, bool), Error> {
        let start = Instant::now();
        let problem = q.problem();
        problem.validate_assignment(initial)?;
        let n = problem.n();
        let sizes: Vec<u64> = (0..n)
            .map(|j| problem.circuit().size(ComponentId::new(j)))
            .collect();
        let capacities = problem.topology().capacities().to_vec();
        let mut asg = initial.clone();
        let scratch = &mut state.descent;

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
        localized_descent(q, &mut asg, &sizes, &capacities, &active, 6, scratch);
        if check_feasibility(problem, &asg).is_feasible() {
            // The disturbance is repaired; a short global timing-clean
            // polish catches improving moves just beyond the dirty frontier
            // (two O(N·deg·M) sweeps — still a small fraction of one cold
            // Burkard iteration's GAP solves).
            clean_descent(q, &mut asg, &sizes, &capacities, 2, scratch);
            let report = SolveReport {
                solver: "qbp",
                moves_applied: moved_from(Some(initial), &asg),
                objective: Evaluator::new(problem).cost(&asg),
                embedded_value: Some(q.value(&asg)),
                feasible: true,
                iterations: 0,
                elapsed: start.elapsed(),
                auto_profile: None,
                assignment: asg,
                status: ExecStatus::Completed,
            };
            return Ok((report, false));
        }

        // Rung 2: capped full solve seeded from the polished assignment.
        let capped = QbpConfig {
            iterations: WARM_ESCALATION_ITERATIONS.min(self.config.iterations.max(1)),
            ..self.config
        };
        let mut out = QbpSolver::new(capped).solve_in(
            q,
            Some(&asg),
            &mut SolveWorkspace::default(),
            exec,
            obs,
        )?;
        let mut iterations = out.iterations;

        // Rung 3: full-budget solve, only when the capped one stays
        // infeasible, there is budget beyond the cap, and the context has
        // not already wound rung 2 down.
        if !out.feasible
            && self.config.iterations > capped.iterations
            && out.status.is_completed()
        {
            let full = self.solve_in(q, Some(&asg), &mut SolveWorkspace::default(), exec, obs)?;
            iterations += full.iterations;
            if full.feasible || embedded(&full) < embedded(&out) {
                out = full;
            }
        }
        out.moves_applied = moved_from(Some(initial), &out.assignment);
        out.iterations = iterations;
        out.elapsed = start.elapsed();
        Ok((out, true))
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
        let q = self.config.penalty.qmatrix(problem)?;
        self.solve_in(&q, init, &mut SolveWorkspace::default(), exec, obs)
    }
}

/// Number of move-delta tables a [`DescentScratch`] keeps. A solve's
/// descents start from a few assignment families that lie far apart (the
/// GAP answers of STEP 4 and STEP 6, the promotion's anchor projections), so
/// one table per family keeps each family's filled rows alive between its
/// calls.
const TABLE_POOL: usize = 3;

/// Scratch buffers for the descent and projection helpers, reused across the
/// hundreds of polish calls a solve makes. The per-call buffers are
/// reinitialized on entry. The pooled move-delta tables carry over from one
/// call to the next: each records the assignment its rows are exact for, and
/// a descent brings the nearest one forward to its start
/// ([`DescentScratch::sync_table`]), so every filled row is exact when a
/// descent reads it. Rows are exact only for the `Q̂` records they were
/// filled under, so a caller that switches `Q̂` empties the pool first
/// ([`DescentScratch::clear_table`]), and one that edits records forgets
/// their rows ([`WarmState::invalidate`]). Reuse never changes results.
#[derive(Debug, Clone, Default)]
pub(crate) struct DescentScratch {
    used: Vec<u64>,
    blocked: Vec<bool>,
    hot: Vec<bool>,
    hot_list: Vec<usize>,
    tables: [MoveDeltaTable; TABLE_POOL],
    /// The `clock` reading of each table's last descent; the smallest marks
    /// the least recently used table.
    last_used: [u64; TABLE_POOL],
    /// Descents run through this scratch so far.
    clock: u64,
    /// Swap-pair corrections of the current hot component
    /// ([`QMatrix::swap_corrections`]); zero outside `corr_touched`.
    corr: Vec<Cost>,
    corr_touched: Vec<usize>,
}

impl DescentScratch {
    /// Empties every pooled move-delta table, keeping its buffers. A solve
    /// calls this before its first descent: a reused workspace may hold rows
    /// filled under another `Q̂`, and each run of a multistart worker then
    /// starts from an empty pool, as a fresh solve does.
    pub(crate) fn clear_table(&mut self) {
        for table in &mut self.tables {
            table.source = None;
        }
    }

    /// Picks the table a descent from `asg` runs on, makes it exact for
    /// `asg` and returns its index. The table whose source differs from
    /// `asg` in the fewest components (the lowest index among equals) is
    /// patched forward when that is at most `N/2` components (the threshold
    /// of [`QMatrix::eta_update`]); otherwise the least recently used table
    /// is emptied and restarts at `asg`. Which table serves a descent only
    /// decides which rows are already filled: every filled row of every
    /// table is exact for its own source, so the descent reads the same
    /// deltas from any of them.
    fn sync_table(&mut self, q: &QMatrix<'_>, asg: &Assignment) -> usize {
        let (n, m) = (q.problem().n(), q.problem().m());
        let nearest = self
            .tables
            .iter()
            .enumerate()
            .filter_map(|(k, table)| Some((table.distance(asg, m)?, k)))
            .filter(|&(moved, _)| moved <= n / 2)
            .min();
        let k = match nearest {
            Some((_, k)) => {
                self.tables[k].patch_to(q, asg);
                k
            }
            None => {
                let k = (0..TABLE_POOL)
                    .min_by_key(|&k| self.last_used[k])
                    .expect("the pool is not empty");
                self.tables[k].restart(n, m, asg);
                k
            }
        };
        self.clock += 1;
        self.last_used[k] = self.clock;
        k
    }
}

/// The solver state a caller carries from one [`QbpSolver::solve_warm`] to
/// the next: the descent scratch, whose pooled move-delta tables keep the
/// rows the last warm solves filled, each exact for the assignment it was
/// last synced to. The next call brings the nearest table forward to its own
/// start (by the `N/2` rule of [`QMatrix::eta_update`]), so an edit stream
/// refills only the rows an edit changed.
///
/// A row is exact only for the `Q̂` records it was filled under. A netlist
/// edit changes the records of the components it touches and no others, so
/// after patching `Q̂` the caller calls [`WarmState::invalidate`] on exactly
/// those rows; after a change of dimensions it starts over from
/// [`WarmState::default`]. [`WarmState::is_exact`] audits every pooled
/// table.
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    descent: DescentScratch,
}

impl WarmState {
    /// Forgets the move-delta rows of `rows` in every pooled table, whose
    /// `Q̂` records changed; they refill on their next read. Rows a table
    /// does not hold (an empty table holds none) are ignored.
    pub fn invalidate(&mut self, rows: &[usize]) {
        for table in &mut self.descent.tables {
            for &j in rows {
                if let Some(f) = table.filled.get_mut(j) {
                    *f = false;
                }
            }
        }
    }

    /// Whether every filled row of every pooled move-delta table equals
    /// [`QMatrix::move_delta_row`] under `q` at the assignment that table is
    /// synced to. Empty tables pass; a table whose dimensions do not match
    /// `q` fails. `O(filled · (deg + constraints) · M)`.
    pub fn is_exact(&self, q: &QMatrix<'_>) -> bool {
        self.descent.tables.iter().all(|table| table.is_exact(q))
    }
}

/// An exact move-delta table of the descent: row `j` holds
/// `D[j][i] = QMatrix::move_delta(source, j, i)` for every partition `i`,
/// where `source` is the assignment the table is synced to. Rows are filled
/// on first read and patched after every committed move, so a descent pays
/// one adjacency walk per component it reads instead of one per delta it
/// evaluates. The table outlives the descent: a later one that starts at
/// most `N/2` components away patches it forward
/// ([`DescentScratch::sync_table`]), so rows filled by earlier calls stay in
/// use.
#[derive(Debug, Clone, Default)]
struct MoveDeltaTable {
    m: usize,
    deltas: Vec<Cost>,
    filled: Vec<bool>,
    /// The assignment every filled row is exact for; `None` when the table
    /// is empty.
    source: Option<Assignment>,
}

impl MoveDeltaTable {
    /// The number of components in which the source differs from `asg`, or
    /// `None` when the table is empty or was filled at other dimensions.
    fn distance(&self, asg: &Assignment, m: usize) -> Option<usize> {
        let source = self.source.as_ref()?;
        (self.m == m && source.len() == asg.len()).then(|| count_moved(source, asg))
    }

    /// Empties the table (the buffers are kept) and restarts it at `asg`.
    fn restart(&mut self, n: usize, m: usize, asg: &Assignment) {
        self.m = m;
        self.deltas.resize(n * m, 0);
        self.filled.clear();
        self.filled.resize(n, false);
        self.source = Some(asg.clone());
    }

    /// Makes the filled rows exact for `asg`, which has the source's
    /// dimensions: each component in which they differ is moved in turn and
    /// patched like a committed move.
    fn patch_to(&mut self, q: &QMatrix<'_>, asg: &Assignment) {
        let n = asg.len();
        let source = self.source.as_mut().expect("only a synced table is patched");
        for j in 0..n {
            let (from, to) = (source.part_index(j), asg.part_index(j));
            if from != to {
                let cj = ComponentId::new(j);
                source.move_to(cj, qbp_core::PartitionId::new(to));
                let from = qbp_core::PartitionId::new(from);
                q.patch_move_deltas(source, cj, from, &mut self.deltas, &self.filled);
            }
        }
    }

    /// Row `j` under `asg` (the synced source), filled on first read.
    fn row(&mut self, q: &QMatrix<'_>, asg: &Assignment, j: usize) -> &[Cost] {
        let row = &mut self.deltas[j * self.m..(j + 1) * self.m];
        if !self.filled[j] {
            q.move_delta_row(asg, ComponentId::new(j), row);
            self.filled[j] = true;
        }
        row
    }

    /// Fills every row not yet filled under `asg` (the synced source).
    fn fill_all(&mut self, q: &QMatrix<'_>, asg: &Assignment) {
        for j in 0..self.filled.len() {
            self.row(q, asg, j);
        }
    }

    /// Whether every filled row equals [`QMatrix::move_delta_row`] under
    /// `q` at the source; see [`WarmState::is_exact`].
    fn is_exact(&self, q: &QMatrix<'_>) -> bool {
        let Some(source) = self.source.as_ref() else {
            return true;
        };
        let (n, m) = (q.problem().n(), q.problem().m());
        if source.len() != n || self.m != m || self.filled.len() != n {
            return false;
        }
        let mut fresh = vec![0; m];
        (0..n).filter(|&j| self.filled[j]).all(|j| {
            q.move_delta_row(source, ComponentId::new(j), &mut fresh);
            self.deltas[j * m..(j + 1) * m] == fresh[..]
        })
    }

    /// Moves `j` to partition `to` in `asg` and in the source, and patches
    /// the filled rows.
    fn commit(&mut self, q: &QMatrix<'_>, asg: &mut Assignment, j: usize, to: usize) {
        let cj = ComponentId::new(j);
        let from = qbp_core::PartitionId::new(asg.part_index(j));
        let to = qbp_core::PartitionId::new(to);
        asg.move_to(cj, to);
        self.source
            .as_mut()
            .expect("a descent syncs the table before committing")
            .move_to(cj, to);
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
/// from a pooled [`MoveDeltaTable`] kept exact across commits: a move reads
/// `D[j]`, and a swap of `j` with `l` costs `D[j][A(l)] + D[l][A(j)]` plus the
/// record-pair correction of [`QMatrix::swap_corrections`], which is 0 unless
/// `l` is a record partner of `j`.
///
/// Three shortcuts cut work without changing a decision. A move-phase row
/// with no negative entry is skipped: its component stays put and is not
/// capacity-blocked, since both need a negative delta. The swap scan walks
/// the filled table as one flat array and rejects a partner on
/// `delta >= best` before its same-partition and capacity checks; every
/// check is a pure test, so only the order of the tests changes. In clean
/// mode the timing checks run only for a candidate that would become the
/// best or would set `blocked[j]`; every other candidate is already rejected
/// by its delta, so the decisions are those of evaluating every check.
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
    let k = scratch.sync_table(q, asg);
    let DescentScratch {
        used,
        blocked,
        hot,
        hot_list,
        tables,
        corr,
        corr_touched,
        ..
    } = scratch;
    let table = &mut tables[k];
    used.clear();
    used.resize(m, 0);
    for (j, &s) in sizes.iter().enumerate() {
        used[asg.part_index(j)] += s;
    }
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
            let row = table.row(q, asg, j);
            // The OR of the row is negative iff some entry is.
            if row.iter().fold(0, |acc, &delta| acc | delta) >= 0 {
                continue;
            }
            let cj = ComponentId::new(j);
            let cur = asg.part_index(j);
            let mut best: (Cost, usize) = (0, cur);
            for (i, &delta) in row.iter().enumerate() {
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
        if !hot_list.is_empty() {
            // Every component is a partner, and commits keep filled rows
            // exact, so the scans below read the table without filling.
            table.fill_all(q, asg);
        }
        for &j in hot_list.iter() {
            let cj = ComponentId::new(j);
            let ij = asg.part_index(j);
            q.swap_corrections(asg, cj, corr, corr_touched);
            let row_j = &table.deltas[j * m..(j + 1) * m];
            let partners = asg.as_slice().iter().zip(table.deltas.chunks_exact(m));
            let mut best: (Cost, usize) = (0, j);
            for (l, ((&il, row_l), &c)) in partners.zip(corr.iter()).enumerate() {
                let il = il as usize;
                let delta = row_j[il] + row_l[ij] + c;
                // `il == ij` also rejects `l == j`.
                if delta >= best.0 || il == ij {
                    continue;
                }
                // Capacity after trading places.
                if used[ij] - sizes[j] + sizes[l] > capacities[ij]
                    || used[il] - sizes[l] + sizes[j] > capacities[il]
                {
                    continue;
                }
                if !clean_only
                    || qbp_core::swap_is_timing_feasible(problem, asg, cj, ComponentId::new(l))
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
    let Some((anchor_asg, _)) = anchor.as_ref() else {
        return false;
    };
    let mut projected = project_toward(q, anchor_asg, candidate, sizes, capacities, scratch);
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
fn count_moved(prev: &Assignment, next: &Assignment) -> usize {
    (0..prev.len())
        .filter(|&j| prev.part_index(j) != next.part_index(j))
        .count()
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
    use std::time::Duration;

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

    /// An unbudgeted, unobserved solve.
    fn solve(config: QbpConfig, problem: &Problem, initial: Option<&Assignment>) -> SolveReport {
        QbpSolver::new(config)
            .solve(problem, initial, &mut NoopObserver)
            .unwrap()
    }

    /// A solve's report with the wall clock zeroed, and its event stream.
    fn traced(
        run: impl FnOnce(&mut dyn SolveObserver) -> Result<SolveReport, Error>,
    ) -> (SolveReport, Vec<SolveEvent>) {
        let mut events = Vec::new();
        let report = run(&mut events).unwrap();
        let report = SolveReport {
            elapsed: Duration::ZERO,
            ..report
        };
        (report, events)
    }

    #[test]
    fn solves_paper_example_to_optimum() {
        let problem = paper_problem(3);
        let config = QbpConfig {
            iterations: 30,
            ..QbpConfig::default()
        };
        let report = solve(config, &problem, None);
        assert!(report.feasible);
        let (_, opt) = exhaustive_constrained(&problem).unwrap();
        assert_eq!(report.objective, opt, "heuristic should hit the optimum here");
    }

    #[test]
    fn tight_capacity_forces_spreading() {
        // Capacity 1 per partition: every component in its own partition.
        let problem = paper_problem(1);
        let config = QbpConfig {
            iterations: 50,
            ..QbpConfig::default()
        };
        let report = solve(config, &problem, None);
        assert!(report.feasible, "must satisfy capacity 1 everywhere");
        let (_, opt) = exhaustive_constrained(&problem).unwrap();
        assert_eq!(report.objective, opt);
    }

    #[test]
    fn respects_supplied_initial_assignment() {
        let problem = paper_problem(3);
        let initial = Assignment::from_parts(vec![3, 3, 3]).unwrap();
        let config = QbpConfig {
            iterations: 20,
            ..QbpConfig::default()
        };
        assert!(solve(config, &problem, Some(&initial)).feasible);
    }

    #[test]
    fn rejects_mismatched_initial() {
        let problem = paper_problem(3);
        let initial = Assignment::from_parts(vec![0, 1]).unwrap();
        assert!(QbpSolver::default()
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .is_err());
    }

    #[test]
    fn iteration_events_never_undercut_the_incumbent() {
        let problem = paper_problem(3);
        let config = QbpConfig {
            iterations: 7,
            ..QbpConfig::default()
        };
        let (report, events) = traced(|obs| QbpSolver::new(config).solve(&problem, None, obs));
        let finished: Vec<(usize, Cost, bool)> = events
            .iter()
            .filter_map(|e| match *e {
                SolveEvent::IterationFinished {
                    iteration,
                    value,
                    feasible,
                    ..
                } => Some((iteration, value, feasible)),
                _ => None,
            })
            .collect();
        assert_eq!(finished.len(), 7);
        assert_eq!(finished[0].0, 1);
        // Iterate values along the run never go below the final answer.
        for &(_, value, capacity_feasible) in &finished {
            if capacity_feasible {
                assert!(value >= embedded(&report));
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
            let config = QbpConfig {
                iterations: 30,
                penalty,
                ..QbpConfig::default()
            };
            assert!(solve(config, &problem, None).feasible, "penalty mode {penalty:?}");
        }
    }

    #[test]
    fn eta_modes_both_work() {
        let problem = paper_problem(2);
        for eta_mode in [EtaMode::Pseudocode, EtaMode::BalasMazzola] {
            let config = QbpConfig {
                iterations: 30,
                eta_mode,
                ..QbpConfig::default()
            };
            assert!(solve(config, &problem, None).feasible, "eta mode {eta_mode:?}");
        }
    }

    #[test]
    fn matches_exhaustive_embedded_minimum_on_tiny_instance() {
        let problem = paper_problem(2);
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let (_, opt) = exhaustive_qbp(&q).unwrap();
        let config = QbpConfig {
            iterations: 60,
            ..QbpConfig::default()
        };
        assert_eq!(solve(config, &problem, None).embedded_value, Some(opt));
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
        let single = solver.solve(&problem, None, &mut NoopObserver).unwrap();
        let multi = solver
            .solve_multistart(&problem, None, 5, &ExecCtx::unbounded(), &mut NoopObserver)
            .unwrap();
        assert!(multi.feasible || !single.feasible);
        if multi.feasible && single.feasible {
            assert!(multi.embedded_value <= single.embedded_value);
        }
    }

    #[test]
    fn multistart_rejects_zero_runs() {
        let problem = paper_problem(2);
        assert!(QbpSolver::default()
            .solve_multistart(&problem, None, 0, &ExecCtx::unbounded(), &mut NoopObserver)
            .is_err());
    }

    #[test]
    fn parallel_multistart_matches_serial_bit_for_bit() {
        let problem = paper_problem(2);
        let base = QbpConfig {
            iterations: 12,
            seed: 7,
            threads: 1,
            ..QbpConfig::default()
        };
        let run = |threads| {
            traced(|obs| {
                QbpSolver::new(QbpConfig { threads, ..base }).solve_multistart(
                    &problem,
                    None,
                    8,
                    &ExecCtx::unbounded(),
                    obs,
                )
            })
        };
        let serial = run(1);
        for threads in [2, 3, 4, 0] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn single_solve_ignores_the_thread_budget() {
        // A single solve runs serially at any thread budget (the budget
        // only sizes multistart's run fan), so the result must not depend
        // on it.
        let problem = paper_problem(2);
        let base = QbpConfig {
            iterations: 15,
            seed: 11,
            threads: 1,
            ..QbpConfig::default()
        };
        let run = |threads| {
            traced(|obs| QbpSolver::new(QbpConfig { threads, ..base }).solve(&problem, None, obs))
        };
        let serial = run(1);
        for threads in [2, 4, 8, 0] {
            assert_eq!(run(threads), serial, "threads={threads}");
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
            threads: 1,
            ..QbpConfig::default()
        };
        let run = |threads| {
            traced(|obs| {
                QbpSolver::new(QbpConfig { threads, ..base }).solve_multistart(
                    &problem,
                    None,
                    5,
                    &ExecCtx::unbounded(),
                    obs,
                )
            })
        };
        assert_eq!(run(4), run(1));
    }

    /// Deterministic pseudo-random instance of a few hundred components:
    /// large enough that a thread-dependent path inside one solve would
    /// have rows to split at every thread count the tests use.
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
        // Covers M = 8 and M = 16 (whole unrolled blocks) and M = 5 (a
        // scalar tail in the row kernels).
        for (n, rows, cols) in [(520usize, 2usize, 4usize), (256, 2, 8), (820, 1, 5)] {
            let problem = lcg_problem(n, rows, cols);
            let base = QbpConfig {
                iterations: 6,
                seed: 5,
                threads: 1,
                ..QbpConfig::default()
            };
            let run = |threads| {
                traced(|obs| {
                    QbpSolver::new(QbpConfig { threads, ..base }).solve(&problem, None, obs)
                })
            };
            let serial = run(1);
            for threads in [2, 4, 8] {
                assert_eq!(run(threads), serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn budgeted_wind_down_is_bit_identical_across_threads() {
        // An iteration cap that lands mid-solve: the wind-down to the
        // incumbent must be the same for every thread budget.
        use qbp_core::exec::Budget;
        let problem = lcg_problem(520, 2, 4);
        let base = QbpConfig {
            iterations: 30,
            seed: 17,
            threads: 1,
            ..QbpConfig::default()
        };
        let exec = ExecCtx::with_budget(Budget::with_max_iters(4));
        let run = |threads| {
            traced(|obs| {
                QbpSolver::new(QbpConfig { threads, ..base }).solve_exec(&problem, None, &exec, obs)
            })
        };
        let serial = run(1);
        assert!(serial.0.iterations <= 4, "cap must land mid-solve");
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let problem = paper_problem(2);
        let config = QbpConfig {
            iterations: 20,
            seed: 3,
            ..QbpConfig::default()
        };
        let solver = QbpSolver::new(config);
        let unbounded = ExecCtx::unbounded();
        let fresh = traced(|obs| solver.solve(&problem, None, obs));
        // Warm the workspace on a different seed (its η cache then reflects
        // some unrelated assignment), then re-solve the original config.
        let mut ws = SolveWorkspace::default();
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let warmup = QbpSolver::new(QbpConfig { seed: 1234, ..config })
            .solve_in(&q, None, &mut ws, &unbounded, &mut NoopObserver)
            .unwrap();
        assert_eq!(warmup.assignment.len(), problem.n());
        let reused = traced(|obs| solver.solve_in(&q, None, &mut ws, &unbounded, obs));
        // The η-cache events report what the cache held (a warm cache may
        // patch where a cold one recomputes); every other event, like the
        // report, must be the same.
        let decisions = |(report, events): (SolveReport, Vec<SolveEvent>)| {
            let events: Vec<SolveEvent> = events
                .into_iter()
                .filter(|e| {
                    !matches!(
                        e,
                        SolveEvent::EtaFallback { .. }
                            | SolveEvent::EtaComputed { .. }
                            | SolveEvent::ProfileUpdated { .. }
                    )
                })
                .collect();
            (report, events)
        };
        assert_eq!(decisions(fresh), decisions(reused));
    }

    /// [`lcg_problem`] on a 2×3 grid with a one-hop timing limit on every
    /// third wire, so the penalty shapes `Q̂`.
    fn timed_lcg_problem(n: usize) -> Problem {
        let base = lcg_problem(n, 2, 3);
        let mut tc = TimingConstraints::new(n);
        for (a, b, _) in base.circuit().edges().step_by(3) {
            if tc.get(a, b).is_none() {
                tc.add(a, b, 1).unwrap();
            }
        }
        let topo = PartitionTopology::grid(2, 3, (n / 4) as u64 + 6).unwrap();
        let builder = ProblemBuilder::new(base.circuit().clone(), topo);
        builder.timing(tc).build().unwrap()
    }

    /// `n` components of sizes 1–3 on a 2×3 grid with LCG wires of weight
    /// 1–9 drawn from `seed`, a one-hop limit on every third wire when
    /// `timed`, and capacities a few units above an even share.
    fn random_problem(seed: u64, n: usize, timed: bool) -> Problem {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut c = Circuit::new();
        let sizes: Vec<u64> = (0..n).map(|_| 1 + (next() % 3) as u64).collect();
        for (j, &size) in sizes.iter().enumerate() {
            c.add_component(format!("c{j}"), size);
        }
        let mut tc = TimingConstraints::new(n);
        for e in 0..3 * n {
            let (a, b) = (next() % n, next() % n);
            if a == b {
                continue;
            }
            let (ca, cb) = (ComponentId::new(a), ComponentId::new(b));
            c.add_connection(ca, cb, 1 + (next() % 9) as i64).unwrap();
            if timed && e % 3 == 0 && tc.get(ca, cb).is_none() {
                tc.add(ca, cb, 1).unwrap();
            }
        }
        let cap = sizes.iter().sum::<u64>().div_ceil(6) + 4;
        let topo = PartitionTopology::grid(2, 3, cap).unwrap();
        ProblemBuilder::new(c, topo).timing(tc).build().unwrap()
    }

    /// The multistart as `runs` independent solves of `run_config(r)`,
    /// reduced in run order: the report (wall clock zeroed) and the event
    /// stream the multistart must emit.
    fn independent_runs(
        solver: &QbpSolver,
        problem: &Problem,
        initial: Option<&Assignment>,
        runs: usize,
        exec: &ExecCtx,
    ) -> (SolveReport, Vec<SolveEvent>) {
        let q = solver.config.penalty.qmatrix(problem).unwrap();
        let mut events = vec![SolveEvent::SolveStarted {
            solver: SolverId::Qbp,
            components: problem.n(),
            partitions: problem.m(),
        }];
        let (mut best, mut status, mut iterations) = (None, ExecStatus::Completed, 0);
        for r in 0..runs {
            let out = QbpSolver::new(solver.run_config(r))
                .solve_in(&q, initial, &mut SolveWorkspace::default(), exec, &mut NoopObserver)
                .unwrap();
            status = status.merge(out.status);
            iterations += out.iterations;
            events.push(SolveEvent::RunCompleted {
                run: r,
                value: embedded(&out),
                feasible: out.feasible,
            });
            if QbpSolver::outcome_improves(&out, best.as_ref()) {
                best = Some(out);
            }
        }
        let best = SolveReport {
            status,
            elapsed: Duration::ZERO,
            ..best.unwrap()
        };
        events.push(SolveEvent::SolveFinished {
            iterations,
            value: embedded(&best),
            feasible: best.feasible,
        });
        (best, events)
    }

    #[test]
    fn seeded_multistart_equals_its_independent_runs() {
        use qbp_core::exec::Budget;
        // Which way each multistart went: (paused, ended, per-run) counts,
        // unbounded and under the iteration cap.
        let mut paths = [[0usize; 3]; 2];
        for (seed, timed) in [(11u64, false), (12, true), (13, false), (14, true)] {
            let problem = random_problem(seed, 40, timed);
            let base = QbpConfig {
                iterations: 24,
                seed: seed * 7,
                ..QbpConfig::default()
            };
            // A start from a short solve: fully feasible on these
            // instances, so even a bounded solve skips the bootstrap.
            let start = solve(QbpConfig { iterations: 6, ..base }, &problem, None).assignment;
            assert!(check_feasibility(&problem, &start).is_feasible(), "seed {seed}");
            for stall_window in [0, STALL_WINDOW] {
                for (bounded, exec) in [
                    (0, ExecCtx::unbounded()),
                    (1, ExecCtx::with_budget(Budget::with_max_iters(15))),
                ] {
                    let config = QbpConfig { stall_window, ..base };
                    let solver = QbpSolver::new(config);
                    let q = config.penalty.qmatrix(&problem).unwrap();
                    let run0 = QbpSolver::new(solver.run_config(0));
                    let prefix = run0.shared_prefix(&q, &start, &exec, Instant::now());
                    let path = match prefix.unwrap() {
                        Some(Prefix::Paused(..)) => 0,
                        Some(Prefix::Ended(_)) => 1,
                        None => 2,
                    };
                    paths[bounded][path] += 1;
                    for runs in [1, 2, 3, 5] {
                        let want = independent_runs(&solver, &problem, Some(&start), runs, &exec);
                        for threads in [1, 2] {
                            let got = traced(|obs| {
                                QbpSolver::new(QbpConfig { threads, ..config })
                                    .solve_multistart(&problem, Some(&start), runs, &exec, obs)
                            });
                            assert_eq!(
                                got, want,
                                "seed {seed}, window {stall_window}, bounded {bounded}, \
                                 {runs} runs, {threads} threads"
                            );
                        }
                    }
                }
            }
        }
        for (bounded, [paused, ended, per_run]) in paths.into_iter().enumerate() {
            assert!(paused > 0 && ended > 0, "bounded {bounded}: {paused} paused, {ended} ended");
            assert_eq!(per_run, 0, "bounded {bounded}: a feasible start skips the bootstrap");
        }
    }

    #[test]
    fn bounded_multistart_from_an_infeasible_start_solves_each_run() {
        // The bootstrap of a bounded solve with no feasible start reads the
        // seed before the loop, so no prefix is shared: every run must equal
        // its own independent solve, bootstrap included. A cap of 0 returns
        // each run's bootstrap answer as it is.
        use qbp_core::exec::Budget;
        for ((seed, timed), cap) in [(21u64, true), (22, false)].into_iter().zip([0, 5]) {
            let problem = random_problem(seed, 40, timed);
            let stacked = Assignment::from_fn(problem.n(), |_| qbp_core::PartitionId::new(0));
            let exec = ExecCtx::with_budget(Budget::with_max_iters(cap));
            let config = QbpConfig {
                iterations: 20,
                seed,
                ..QbpConfig::default()
            };
            let solver = QbpSolver::new(config);
            let q = config.penalty.qmatrix(&problem).unwrap();
            let prefix = QbpSolver::new(solver.run_config(0))
                .shared_prefix(&q, &stacked, &exec, Instant::now())
                .unwrap();
            assert!(prefix.is_none(), "seed {seed}: the bootstrap reads the seed");
            for runs in [2, 3] {
                let want = independent_runs(&solver, &problem, Some(&stacked), runs, &exec);
                for threads in [1, 2] {
                    let got = traced(|obs| {
                        QbpSolver::new(QbpConfig { threads, ..config })
                            .solve_multistart(&problem, Some(&stacked), runs, &exec, obs)
                    });
                    assert_eq!(got, want, "seed {seed}, {runs} runs, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn descent_table_from_another_penalty_is_not_reused() {
        // A workspace whose pooled move-delta tables are full and exact for
        // the start `x`, but under a penalty of 1: a solve from `x` must
        // empty every table before its first descent, or its repairs read
        // the cheap penalty and the event stream changes.
        let problem = timed_lcg_problem(40);
        let cheap = QMatrix::new(&problem, 1).unwrap();
        for seed in 1..=3 {
            let early = QbpConfig {
                iterations: 3,
                seed: seed + 100,
                ..QbpConfig::default()
            };
            let x = solve(early, &problem, None).assignment;
            let config = QbpConfig {
                iterations: 3,
                seed,
                ..QbpConfig::default()
            };
            let solver = QbpSolver::new(config);
            let fresh = traced(|obs| solver.solve(&problem, Some(&x), obs));
            let mut ws = SolveWorkspace::default();
            for table in &mut ws.descent.tables {
                table.restart(problem.n(), problem.m(), &x);
                table.fill_all(&cheap, &x);
            }
            let q = QMatrix::with_auto_penalty(&problem).unwrap();
            let reused =
                traced(|obs| solver.solve_in(&q, Some(&x), &mut ws, &ExecCtx::unbounded(), obs));
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn solve_warm_repairs_locally_without_escalation() {
        // Cold-solve the paper problem, then knock one component to a bad
        // partition: the dirty component plus its frontier is exactly the
        // disturbance, so the localized rung must restore feasibility.
        let problem = paper_problem(3);
        let config = QbpConfig {
            iterations: 30,
            ..QbpConfig::default()
        };
        let cold = solve(config, &problem, None);
        assert!(cold.feasible);
        let mut disturbed = cold.assignment.clone();
        let moved = ComponentId::new(1);
        let elsewhere =
            qbp_core::PartitionId::new((disturbed.part_index(1) + 2) % problem.m());
        disturbed.move_to(moved, elsewhere);
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let mut state = WarmState::default();
        let (warm, escalated) = QbpSolver::new(config)
            .solve_warm(
                &q,
                &disturbed,
                &[1],
                &mut state,
                &ExecCtx::unbounded(),
                &mut NoopObserver,
            )
            .unwrap();
        assert!(warm.feasible);
        assert!(!escalated, "a one-component knock must repair locally");
        let (warm, cold) = (embedded(&warm), embedded(&cold));
        assert!(warm <= cold + cold / 20 + 1);
        // The carried rows are exact for `q`, not for another penalty,
        // until they are forgotten.
        let cheap = QMatrix::new(&problem, 1).unwrap();
        assert!(state.is_exact(&q));
        assert!(!state.is_exact(&cheap));
        state.invalidate(&[0, 1, 2, 99]);
        assert!(state.is_exact(&cheap));
    }

    #[test]
    fn solve_warm_escalates_from_hopeless_start() {
        // Everything stacked in one partition of capacity 1 cannot be fixed
        // by moving only the dirty frontier of a single component — the
        // warm solve must escalate and still end feasible.
        let problem = paper_problem(1);
        let stacked = Assignment::from_parts(vec![0, 0, 0]).unwrap();
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let (warm, escalated) = QbpSolver::new(QbpConfig {
            iterations: 50,
            ..QbpConfig::default()
        })
        .solve_warm(
            &q,
            &stacked,
            &[],
            &mut WarmState::default(),
            &ExecCtx::unbounded(),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(warm.feasible);
        assert!(escalated);
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
        let a = solve(config, &problem, None);
        let b = solve(config, &problem, None);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective, b.objective);
    }
}

#[cfg(test)]
mod descent_equivalence {
    use super::*;
    use proptest::prelude::*;
    use qbp_core::{
        Circuit, DenseMatrix, PartitionId, PartitionTopology, ProblemBuilder, TimingConstraints,
    };

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

    /// `asg` with every `stride`-th component moved one partition on.
    fn shifted(asg: &Assignment, m: usize, stride: usize) -> Assignment {
        let parts = (0..asg.len())
            .map(|j| (asg.part_index(j) + usize::from(j % stride == 0)) % m)
            .map(|i| i as u32)
            .collect();
        Assignment::from_parts(parts).unwrap()
    }

    /// Index of the pooled table the last descent through `scratch` ran on.
    fn most_recent(scratch: &DescentScratch) -> usize {
        (0..TABLE_POOL)
            .max_by_key(|&k| scratch.last_used[k])
            .unwrap()
    }

    /// Every filled row of every pooled move-delta table must equal fresh
    /// per-partition `move_delta` calls at that table's own source, and the
    /// table the last descent ran on must sit at the assignment it ended on.
    fn assert_pool_exact(q: &QMatrix<'_>, scratch: &DescentScratch, end: &Assignment, run: &str) {
        let m = q.problem().m();
        let last = &scratch.tables[most_recent(scratch)];
        assert_eq!(last.source.as_ref(), Some(end), "{run}: table source");
        for (k, table) in scratch.tables.iter().enumerate() {
            let Some(source) = table.source.as_ref() else {
                continue;
            };
            for j in (0..source.len()).filter(|&j| table.filled[j]) {
                for i in 0..m {
                    let want = q.move_delta(source, ComponentId::new(j), PartitionId::new(i));
                    assert_eq!(table.deltas[j * m + i], want, "{run}: table {k} D[{j}][{i}]");
                }
            }
        }
    }

    type Run<'a> = (&'a str, usize, bool, Option<&'a [bool]>);

    /// The three descent kinds: name, sweeps, clean mode, active mask.
    fn runs(active: &[bool]) -> [Run<'_>; 3] {
        [
            ("embedded", 4, false, None),
            ("clean", 3, true, None),
            ("localized", 6, false, Some(active)),
        ]
    }

    /// Runs one table-driven descent from `from` through `scratch`, checks
    /// it against the reference and audits the pool; returns where it
    /// ended.
    fn check_descent(
        q: &QMatrix<'_>,
        (name, sweeps, clean, act): Run<'_>,
        from: &Assignment,
        scratch: &mut DescentScratch,
        leg: &str,
    ) -> Assignment {
        let (sizes, caps) = sizes_and_capacities(q.problem());
        let run = format!("{name} descent from the {leg} start");
        let mut got = from.clone();
        let got_clean = match (clean, act) {
            (true, _) => clean_descent(q, &mut got, &sizes, &caps, sweeps, scratch),
            (false, Some(a)) => localized_descent(q, &mut got, &sizes, &caps, a, sweeps, scratch),
            (false, None) => embedded_descent(q, &mut got, &sizes, &caps, sweeps, scratch),
        };
        let mut want = from.clone();
        let want_clean = reference_descent(q, &mut want, &sizes, &caps, sweeps, clean, act);
        assert_eq!(got, want, "{run}: assignment");
        assert_eq!(got_clean, want_clean, "{run}: clean flag");
        assert_pool_exact(q, scratch, &got, &run);
        got
    }

    /// Runs all three table-driven descents through `scratch` and checks
    /// each against the reference. Each kind runs from `start`, then from
    /// its own end with every third component moved (at most `N/2` differ,
    /// so a pooled table is patched forward), then from there with every
    /// component moved (more than `N/2` differ, so a table is recycled).
    /// Then each kind alternates between `start` and `start` with every
    /// component moved, A, B, A, B, so a descent can find its nearest
    /// table behind the most recent one.
    fn assert_matches_reference(
        q: &QMatrix<'_>,
        start: &Assignment,
        active: &[bool],
        scratch: &mut DescentScratch,
    ) {
        let m = q.problem().m();
        for kind in runs(active) {
            let mut from = start.clone();
            for (leg, stride) in [("given", 0), ("patched", 3), ("emptied", 1)] {
                if stride > 0 {
                    from = shifted(&from, m, stride);
                }
                from = check_descent(q, kind, &from, scratch, leg);
            }
        }
        let far = shifted(start, m, 1);
        for kind in runs(active) {
            for (leg, from) in [("A", start), ("B", &far), ("A", start), ("B", &far)] {
                check_descent(q, kind, from, scratch, &format!("interleaved {leg}"));
            }
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
            builder = builder.linear_cost(DenseMatrix::from_rows(rows).unwrap());
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
        let mut scratch = DescentScratch::default();
        assert_matches_reference(&q, &start, &[true, false, false], &mut scratch);
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
        let mut scratch = DescentScratch::default();
        assert_matches_reference(&q, &start, &[false, true, true], &mut scratch);
    }

    /// A random instance with tight capacities (one largest component of
    /// slack per partition), a capacity-feasible first-fit start, and an
    /// active mask. `B` (entries 0–4) and `D` (entries 0–3) are drawn cell
    /// by cell, so they are asymmetric with mostly nonzero diagonals and a
    /// kernel reading a row where it should read a column shows.
    fn arb_tight_instance() -> impl Strategy<Value = (Problem, Vec<u32>, Vec<bool>)> {
        (4usize..14, 2usize..6).prop_flat_map(|(n, m)| {
            let cells = |hi: i64| proptest::collection::vec(0i64..hi, m * m);
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
            let lines = (cells(5), cells(4));
            (Just((n, m)), sizes, edges, cons, prefs, active, lines).prop_map(
                |((n, m), sizes, edges, cons, prefs, active, (b, d))| {
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
                    let square = |v: Vec<i64>| DenseMatrix::from_fn(m, m, |r, k| v[r * m + k]);
                    let topo = PartitionTopology::new(vec![cap; m], square(b), square(d)).unwrap();
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

    /// `n` components of sizes 1–3 on a `rows × cols` grid with LCG wires
    /// of weight 1–9, a one-hop limit on every fourth wire, capacities one
    /// largest component above an even share, and a first-fit start from
    /// scattered preferred partitions.
    fn grid_instance(n: usize, rows: usize, cols: usize) -> (Problem, Assignment) {
        let m = rows * cols;
        let mut state = 0x5EED_0FD1_5C0D_E5E5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut c = Circuit::new();
        let sizes: Vec<u64> = (0..n).map(|j| 1 + (j as u64 % 3)).collect();
        for (j, &size) in sizes.iter().enumerate() {
            c.add_component(format!("c{j}"), size);
        }
        let mut tc = TimingConstraints::new(n);
        for e in 0..3 * n {
            let (a, b) = (next() % n, next() % n);
            if a == b {
                continue;
            }
            let (ca, cb) = (ComponentId::new(a), ComponentId::new(b));
            c.add_connection(ca, cb, 1 + (next() % 9) as i64).unwrap();
            if e % 4 == 0 && tc.get(ca, cb).is_none() {
                tc.add(ca, cb, 1).unwrap();
            }
        }
        let cap = sizes.iter().sum::<u64>().div_ceil(m as u64) + 3;
        let topo = PartitionTopology::grid(rows, cols, cap).unwrap();
        let problem = ProblemBuilder::new(c, topo).timing(tc).build().unwrap();
        let mut used = vec![0u64; m];
        let parts = sizes
            .iter()
            .map(|&size| {
                let pref = next() % m;
                let i = (0..m)
                    .map(|k| (pref + k) % m)
                    .find(|&i| used[i] + size <= cap)
                    .expect("one component of slack per partition");
                used[i] += size;
                i as u32
            })
            .collect();
        (problem, Assignment::from_parts(parts).unwrap())
    }

    #[test]
    fn twenty_partitions_match_the_reference_and_reuse_an_older_table() {
        // The proptest draws M in 2..6; twenty partitions make rows wider
        // than any small fixed-width buffer.
        let (problem, start) = grid_instance(60, 4, 5);
        let (sizes, caps) = sizes_and_capacities(&problem);
        let m = problem.m();
        let active: Vec<bool> = (0..problem.n()).map(|j| j % 3 != 0).collect();
        for q in [
            QMatrix::with_auto_penalty(&problem).unwrap(),
            QMatrix::new(&problem, 50).unwrap(),
        ] {
            assert_matches_reference(&q, &start, &active, &mut DescentScratch::default());
            // A, B, A through a fresh scratch, where A is a local minimum of
            // the clean descent and B is A with every component moved. B
            // lies more than N/2 away from A's table, so it takes a second
            // one, and the second descent from A goes back to the first.
            let mut a = start.clone();
            clean_descent(&q, &mut a, &sizes, &caps, 50, &mut DescentScratch::default());
            let b = shifted(&a, m, 1);
            let mut scratch = DescentScratch::default();
            let mut end = a.clone();
            clean_descent(&q, &mut end, &sizes, &caps, 2, &mut scratch);
            assert_eq!(end, a, "A is a local minimum");
            let first = most_recent(&scratch);
            clean_descent(&q, &mut b.clone(), &sizes, &caps, 2, &mut scratch);
            assert_ne!(most_recent(&scratch), first, "B must not patch A's table");
            let mut again = a.clone();
            clean_descent(&q, &mut again, &sizes, &caps, 2, &mut scratch);
            assert_eq!(most_recent(&scratch), first, "A must find its own table");
            assert_eq!(again, a);
            assert_pool_exact(&q, &scratch, &again, "second descent from A");
        }
    }

    #[test]
    fn warm_state_audits_and_invalidates_every_pooled_table() {
        let (problem, start) = grid_instance(40, 4, 5);
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        let (n, m) = (problem.n(), problem.m());
        let mut state = WarmState::default();
        for (k, table) in state.descent.tables.iter_mut().enumerate() {
            let source = shifted(&start, m, k + 1);
            table.restart(n, m, &source);
            table.fill_all(&q, &source);
        }
        assert!(state.is_exact(&q), "a full, exact pool passes");
        // A row that no longer matches Q̂, as after an edit nobody reported,
        // fails the audit in whichever table it sits.
        let (j, cell) = (7, 7 * m + 1);
        for k in 0..TABLE_POOL {
            state.descent.tables[k].deltas[cell] += 1;
            assert!(!state.is_exact(&q), "a stale row in table {k} passes");
            state.descent.tables[k].deltas[cell] -= 1;
        }
        // Invalidating the row forgets it in every table, so the stale
        // values are never read; out-of-range rows are ignored.
        for table in &mut state.descent.tables {
            table.deltas[cell] += 1;
        }
        state.invalidate(&[j, n + 5]);
        for (k, table) in state.descent.tables.iter().enumerate() {
            assert!(!table.filled[j], "table {k} still holds row {j}");
            assert_eq!(table.filled.iter().filter(|&&f| f).count(), n - 1, "table {k}");
        }
        assert!(state.is_exact(&q), "forgotten rows are not audited");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn table_descents_match_the_reference_scan(
            (problem, parts, active) in arb_tight_instance()
        ) {
            let start = Assignment::from_parts(parts).unwrap();
            // One scratch for both penalties, emptied between them as a
            // solve empties it before its first descent.
            let mut scratch = DescentScratch::default();
            for q in [
                QMatrix::with_auto_penalty(&problem).unwrap(),
                QMatrix::new(&problem, 50).unwrap(),
            ] {
                scratch.clear_table();
                assert_matches_reference(&q, &start, &active, &mut scratch);
            }
        }
    }
}
