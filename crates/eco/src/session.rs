//! The ECO session: a live problem + solver-state pair that absorbs
//! [`NetlistDelta`]s in place and re-solves warm.

use crate::delta::{EditOp, NetlistDelta};
use qbp_core::exec::{catch_panic, ExecCtx};
use qbp_core::{Assignment, ComponentId, Error, Problem, QBody, QMatrix};
use qbp_observe::{NoopObserver, SolveEvent, SolveObserver};
use qbp_solver::{moved_from, PenaltyMode, QbpConfig, QbpSolver, SolveReport, Solver, WarmState};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Iteration cap of the quality-refresh solve (mirrors the solver's warm
/// escalation cap).
const REFRESH_ITERATIONS: usize = 12;

/// Retries of a capped-escalation re-solve whose worker panicked
/// ([`Error::Internal`]); each retry backs off exponentially (1 ms, 2 ms).
/// Retries make sense precisely for panics — the descent is deterministic
/// for a given seed, but a panic can come from a transient environment
/// fault, and the warm result below stays a valid fallback either way.
const ESCALATION_RETRIES: usize = 2;

/// Configuration of an [`EcoSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct EcoConfig {
    /// Timing penalty embedded in `Q̂`. `None` resolves the auto penalty
    /// once at session creation and then freezes it — a stable penalty is
    /// what makes patched state comparable bit-for-bit against fresh
    /// construction across the whole edit stream.
    pub penalty: Option<qbp_core::Cost>,
    /// Rebuild instead of patching when the touched rows reach this
    /// percentage of all rows (default 75, mirroring the solver's 3N/4
    /// patch-vs-rebuild rule).
    pub rebuild_threshold_pct: usize,
    /// Solver knobs for cold and warm solves. The penalty mode inside is
    /// overridden with the session's frozen penalty.
    pub solver: QbpConfig,
    /// Quality-refresh cadence: every `refresh_every`-th delta, the warm
    /// re-solve is followed by a capped full solve seeded from its result
    /// (the same cap as the infeasibility escalation rung). Localized
    /// repair keeps each edit feasible but lets quality drift over a long
    /// stream; the periodic re-anchor bounds that drift while staying far
    /// cheaper than cold solves. `0` disables (default 32).
    pub refresh_every: usize,
}

impl Default for EcoConfig {
    fn default() -> Self {
        EcoConfig {
            penalty: None,
            rebuild_threshold_pct: 75,
            solver: QbpConfig::default(),
            refresh_every: 32,
        }
    }
}

/// What applying one delta did to the session state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyReport {
    /// 1-based sequence number of the delta within the session.
    pub delta_seq: usize,
    /// Canonical ops applied (after dedup/merge).
    pub ops: usize,
    /// CSR rows re-derived and spliced in place (0 on the rebuild path).
    pub patched_rows: usize,
    /// Whether the staleness threshold (or a component addition) forced a
    /// full state rebuild instead of row patches.
    pub rebuilt: bool,
    /// The dirty component set: every component whose `Q̂` rows changed.
    /// Feed this to [`EcoSession::resolve`].
    pub dirty: Vec<usize>,
}

/// A live incremental-re-partitioning session.
///
/// The session owns the [`Problem`], the current [`Assignment`], the sparse
/// `Q̂` state ([`QBody`]) and the warm solver's [`WarmState`], and keeps
/// them consistent across [`NetlistDelta`]s: small deltas patch the CSR
/// rows of the touched components in `O(touched · deg)`, large ones (or
/// component additions) rebuild, per [`EcoConfig::rebuild_threshold_pct`],
/// and every touched component's move-delta row is forgotten. Warm
/// re-solves run on the patched `Q̂` and on the move-delta rows the previous
/// edit left exact. After every apply and resolve the state is bit-identical
/// to building from scratch on the mutated problem
/// ([`EcoSession::state_matches_fresh`]).
///
/// ```
/// use qbp_core::{Assignment, ComponentId, PartitionTopology, ProblemBuilder};
/// use qbp_eco::{EcoConfig, EcoSession, NetlistDelta};
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let problem = ProblemBuilder::on(PartitionTopology::grid(2, 2, 10)?)
///     .component("a", 1)
///     .component("b", 1)
///     .component("c", 1)
///     .pair("a", "b", 5)
///     .build()?;
/// let mut session = EcoSession::new(problem, EcoConfig::default())?;
/// let delta = NetlistDelta::new()
///     .add_pair(ComponentId::new(1), ComponentId::new(2), 3);
/// let (apply, solve) = session.apply_and_resolve(&delta, &mut qbp_observe::NoopObserver)?;
/// assert!(solve.feasible);
/// assert!(!apply.rebuilt);
/// assert!(session.state_matches_fresh());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EcoSession {
    problem: Problem,
    penalty: qbp_core::Cost,
    /// `None` only transiently while a `QMatrix` temporarily owns the body.
    body: Option<QBody>,
    assignment: Assignment,
    /// The warm solver's move-delta rows, carried from edit to edit.
    warm: WarmState,
    config: EcoConfig,
    deltas: usize,
}

impl EcoSession {
    /// Opens a session by cold-solving `problem` for the initial
    /// assignment.
    ///
    /// # Errors
    ///
    /// Propagates solver and penalty-configuration errors.
    pub fn new(problem: Problem, config: EcoConfig) -> Result<Self, Error> {
        let penalty = Self::resolve_penalty(&problem, &config);
        let solver = QbpSolver::new(QbpConfig {
            penalty: PenaltyMode::Fixed(penalty),
            ..config.solver
        });
        let report = solver.solve(&problem, None, &mut NoopObserver)?;
        Self::with_assignment_and_penalty(problem, report.assignment, penalty, config)
    }

    /// Opens a session around an existing assignment (e.g. the result of a
    /// previous batch run). The assignment need not be feasible; the first
    /// [`EcoSession::resolve`] will repair it.
    ///
    /// # Errors
    ///
    /// Returns an error when the assignment does not match the problem's
    /// dimensions or the penalty configuration is invalid.
    pub fn with_assignment(
        problem: Problem,
        assignment: Assignment,
        config: EcoConfig,
    ) -> Result<Self, Error> {
        let penalty = Self::resolve_penalty(&problem, &config);
        Self::with_assignment_and_penalty(problem, assignment, penalty, config)
    }

    fn resolve_penalty(problem: &Problem, config: &EcoConfig) -> qbp_core::Cost {
        config
            .penalty
            .unwrap_or_else(|| QMatrix::auto_penalty(problem))
    }

    fn with_assignment_and_penalty(
        problem: Problem,
        assignment: Assignment,
        penalty: qbp_core::Cost,
        config: EcoConfig,
    ) -> Result<Self, Error> {
        problem.validate_assignment(&assignment)?;
        let body = QBody::build(&problem, penalty)?;
        Ok(EcoSession {
            problem,
            penalty,
            body: Some(body),
            assignment,
            warm: WarmState::default(),
            config,
            deltas: 0,
        })
    }

    /// The current (mutated) problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The current assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The frozen timing penalty of this session.
    pub fn penalty(&self) -> qbp_core::Cost {
        self.penalty
    }

    /// Number of deltas applied so far.
    pub fn deltas_applied(&self) -> usize {
        self.deltas
    }

    /// Validates, canonicalizes and applies `delta` in place, keeping the
    /// CSR `Q̂` rows in sync and forgetting the touched components'
    /// move-delta rows, and emits one
    /// [`SolveEvent::DeltaApplied`]. The assignment is *not*
    /// re-solved — call [`EcoSession::resolve`] with the returned dirty set
    /// (or use [`EcoSession::apply_and_resolve`]).
    ///
    /// # Errors
    ///
    /// Returns the first validation error; the session is unchanged in that
    /// case.
    pub fn apply(
        &mut self,
        delta: &NetlistDelta,
        obs: &mut dyn SolveObserver,
    ) -> Result<ApplyReport, Error> {
        delta.validate(&self.problem)?;
        let mut canonical = delta.clone();
        canonical.canonicalize();

        let old_n = self.problem.n();
        let mut touched: Vec<usize> = Vec::new();
        let mut touched_all = false;
        for op in canonical.ops() {
            match op {
                EditOp::AddComponent { name, size } => {
                    let id = self
                        .problem
                        .add_component(name.clone(), *size)
                        .expect("validated delta applies infallibly");
                    touched.push(id.index());
                }
                EditOp::RemoveComponent { id } => {
                    // The partners lose records too — capture them before
                    // the detach drops the adjacency.
                    let c = self.problem.circuit();
                    let t = self.problem.timing();
                    touched.push(id.index());
                    touched.extend(c.out_connections(*id).map(|(o, _)| o.index()));
                    touched.extend(c.in_connections(*id).map(|(o, _)| o.index()));
                    touched.extend(t.constraints_from(*id).map(|(o, _)| o.index()));
                    touched.extend(t.constraints_into(*id).map(|(o, _)| o.index()));
                    self.problem
                        .detach_component(*id)
                        .expect("validated delta applies infallibly");
                }
                EditOp::AddPair { a, b, weight } | EditOp::ReweightPair { a, b, weight } => {
                    self.problem
                        .set_pair_weight(*a, *b, *weight)
                        .expect("validated delta applies infallibly");
                    touched.push(a.index());
                    touched.push(b.index());
                }
                EditOp::RemovePair { a, b } => {
                    self.problem
                        .set_pair_weight(*a, *b, 0)
                        .expect("validated delta applies infallibly");
                    touched.push(a.index());
                    touched.push(b.index());
                }
                EditOp::SetTimingBound { a, b, bound } => {
                    self.problem
                        .set_timing_bound(*a, *b, *bound)
                        .expect("validated delta applies infallibly");
                    touched.push(a.index());
                    touched.push(b.index());
                }
                EditOp::TightenCycleTime { delta } => {
                    self.problem
                        .tighten_cycle_time(*delta)
                        .expect("validated delta applies infallibly");
                    touched_all = true;
                }
            }
        }

        let n = self.problem.n();
        if n > old_n {
            // Place each new component in the partition with the most free
            // capacity (deterministic: lowest index wins ties).
            let m = self.problem.m();
            let capacities = self.problem.topology().capacities();
            let mut used = vec![0u64; m];
            for j in 0..old_n {
                used[self.assignment.part_index(j)] +=
                    self.problem.circuit().size(ComponentId::new(j));
            }
            let mut parts: Vec<u32> = self.assignment.as_slice().to_vec();
            for j in old_n..n {
                let size = self.problem.circuit().size(ComponentId::new(j));
                let best = (0..m)
                    .max_by_key(|&i| (capacities[i].saturating_sub(used[i]), std::cmp::Reverse(i)))
                    .expect("m >= 1");
                used[best] += size;
                parts.push(best as u32);
            }
            self.assignment = Assignment::from_parts(parts)
                .expect("placement stays within partition range");
        }

        touched.sort_unstable();
        touched.dedup();
        if touched_all {
            touched = (0..n).collect();
        }

        // Patch vs. rebuild: component additions change the row count and
        // always rebuild; otherwise the staleness threshold decides.
        let stale = touched.len() * 100 >= n * self.config.rebuild_threshold_pct;
        let (patched_rows, rebuilt) = if n != old_n || stale {
            self.body = Some(QBody::build(&self.problem, self.penalty)?);
            (0, true)
        } else {
            let body = self.body.as_mut().expect("body present between applies");
            (body.patch_rows(&self.problem, &touched), false)
        };
        // An edit changes the `Q̂` records of the components it touches and
        // no others, so only their move-delta rows go stale; a new
        // component changes the table's dimensions.
        if n == old_n {
            self.warm.invalidate(&touched);
        } else {
            self.warm = WarmState::default();
        }

        self.deltas += 1;
        obs.on_event(&SolveEvent::DeltaApplied {
            delta: self.deltas,
            ops: canonical.len(),
            patched_rows,
            rebuilt,
        });
        Ok(ApplyReport {
            delta_seq: self.deltas,
            ops: canonical.len(),
            patched_rows,
            rebuilt,
            dirty: touched,
        })
    }

    /// Re-solves warm from the current assignment: a localized descent over
    /// `dirty` and its one-hop frontier, escalating to a capped (then, if
    /// needed, full-budget) solve only when the local pass leaves the
    /// assignment infeasible ([`QbpSolver::solve_warm`]). Every
    /// [`EcoConfig::refresh_every`]-th delta additionally runs the capped
    /// solve as a quality re-anchor (reported as `escalated`). Updates the
    /// session's assignment and emits one [`SolveEvent::WarmSolve`].
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn resolve(
        &mut self,
        dirty: &[usize],
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        self.resolve_exec(dirty, &ExecCtx::unbounded(), obs)
    }

    /// [`EcoSession::resolve`] under an execution budget: the warm descent
    /// and its escalation rungs check `exec` at iteration boundaries, and the
    /// quality-refresh solve is both budgeted and panic-isolated — a worker
    /// panic ([`Error::Internal`]) retries up to twice with exponential
    /// backoff, then falls back to the warm result (the refresh is an
    /// optional polish; losing it degrades quality, never correctness).
    ///
    /// # Errors
    ///
    /// Propagates solver errors other than refresh-rung worker panics.
    pub fn resolve_exec(
        &mut self,
        dirty: &[usize],
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        let solver = QbpSolver::new(QbpConfig {
            penalty: PenaltyMode::Fixed(self.penalty),
            ..self.config.solver
        });
        // Lend the patched body to the warm solve, and take it back even if
        // the solve unwinds (the move-delta rows are then dropped, since a
        // descent may have stopped between a move and its patch).
        let q = QMatrix::from_body(
            &self.problem,
            self.body.take().expect("body present between applies"),
        );
        let run = catch_unwind(AssertUnwindSafe(|| {
            solver.solve_warm(&q, &self.assignment, dirty, &mut self.warm, exec, obs)
        }));
        self.body = Some(q.into_body());
        let (mut warm, mut escalated) = match run {
            Ok(result) => result?,
            Err(panic) => {
                self.warm = WarmState::default();
                resume_unwind(panic)
            }
        };
        // Quality-refresh rung: localized repair keeps each edit feasible
        // but the assignment drifts from what a from-scratch solve would
        // find as local fixes stack up. Every `refresh_every`-th delta,
        // re-anchor with a capped full solve seeded from the warm result,
        // keeping it only when it is no worse.
        if self.config.refresh_every > 0
            && self.deltas.is_multiple_of(self.config.refresh_every)
            && !escalated
            && warm.status.is_completed()
        {
            let capped = QbpConfig {
                iterations: REFRESH_ITERATIONS.min(self.config.solver.iterations.max(1)),
                penalty: PenaltyMode::Fixed(self.penalty),
                ..self.config.solver
            };
            let capped_solver = QbpSolver::new(capped);
            let mut polished = None;
            for attempt in 0..=ESCALATION_RETRIES {
                let run = catch_panic(|| {
                    capped_solver.solve_exec(&self.problem, Some(&warm.assignment), exec, obs)
                })
                .and_then(|r| r);
                match run {
                    Ok(out) => {
                        polished = Some(out);
                        break;
                    }
                    Err(Error::Internal { .. }) => {
                        obs.on_event(&SolveEvent::WorkerPanicked { run: attempt });
                        if attempt < ESCALATION_RETRIES {
                            std::thread::sleep(Duration::from_millis(1 << attempt));
                        }
                        // Retries exhausted: keep the warm result.
                    }
                    Err(e) => return Err(e),
                }
            }
            escalated = true;
            if let Some(polished) = polished {
                warm.status = warm.status.merge(polished.status);
                if (polished.feasible && !warm.feasible)
                    || (polished.feasible == warm.feasible
                        && polished.embedded_value <= warm.embedded_value)
                {
                    warm.embedded_value = polished.embedded_value;
                    warm.objective = polished.objective;
                    warm.feasible = polished.feasible;
                    warm.assignment = polished.assignment;
                }
            }
        }
        obs.on_event(&SolveEvent::WarmSolve {
            delta: self.deltas,
            dirty: dirty.len(),
            escalated,
            value: warm
                .embedded_value
                .expect("QBP reports carry the embedded value"),
            feasible: warm.feasible,
        });
        let moves_applied = moved_from(Some(&self.assignment), &warm.assignment);
        self.assignment = warm.assignment.clone();
        Ok(SolveReport {
            solver: "qbp-eco",
            moves_applied,
            iterations: 0,
            ..warm
        })
    }

    /// Re-anchors the session with a full-budget solve seeded from the
    /// current assignment, adopting the result only when it is no worse
    /// (feasible-first, then embedded value). ECO flows call this between
    /// edit bursts — or right after [`EcoSession::with_assignment`] on a
    /// rough baseline — to buy cold-solve quality once without paying it
    /// per edit.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn reanchor(&mut self, obs: &mut dyn SolveObserver) -> Result<SolveReport, Error> {
        let solver = QbpSolver::new(QbpConfig {
            penalty: PenaltyMode::Fixed(self.penalty),
            ..self.config.solver
        });
        let out = solver.solve(&self.problem, Some(&self.assignment), obs)?;
        let body = self.body.take().expect("body present between applies");
        let q = QMatrix::from_body(&self.problem, body);
        let current_value = q.value(&self.assignment);
        let current_feasible =
            qbp_core::check_feasibility(&self.problem, &self.assignment).is_feasible();
        self.body = Some(q.into_body());
        let adopt = (out.feasible && !current_feasible)
            || (out.feasible == current_feasible && out.embedded_value <= Some(current_value));
        let (moves_applied, objective, embedded, feasible) = if adopt {
            let moves = moved_from(Some(&self.assignment), &out.assignment);
            self.assignment = out.assignment;
            (moves, out.objective, out.embedded_value, out.feasible)
        } else {
            let eval = qbp_core::Evaluator::new(&self.problem);
            (0, eval.cost(&self.assignment), Some(current_value), current_feasible)
        };
        Ok(SolveReport {
            solver: "qbp-eco",
            moves_applied,
            objective,
            embedded_value: embedded,
            feasible,
            assignment: self.assignment.clone(),
            ..out
        })
    }

    /// [`EcoSession::apply`] followed by [`EcoSession::resolve`] on the
    /// delta's dirty set.
    ///
    /// # Errors
    ///
    /// Returns validation errors (session unchanged) or solver errors (delta
    /// applied, assignment unchanged).
    pub fn apply_and_resolve(
        &mut self,
        delta: &NetlistDelta,
        obs: &mut dyn SolveObserver,
    ) -> Result<(ApplyReport, SolveReport), Error> {
        let apply = self.apply(delta, obs)?;
        let solve = self.resolve(&apply.dirty, obs)?;
        Ok((apply, solve))
    }

    /// Audits the incremental state: rebuilds `Q̂` from scratch on the
    /// current problem and compares it bit-for-bit against the live patched
    /// body, then checks every carried move-delta row against a fresh fill
    /// under that `Q̂` ([`WarmState::is_exact`]). `true` means everything
    /// matches. Used by the equivalence proptests and the `eco_bench` gate;
    /// `O(E + T)` plus one fill per carried row, so cheap enough to run per
    /// edit in audits.
    pub fn state_matches_fresh(&self) -> bool {
        let Ok(fresh) = QBody::build(&self.problem, self.penalty) else {
            return false;
        };
        if self.body.as_ref() != Some(&fresh) {
            return false;
        }
        self.warm.is_exact(&QMatrix::from_body(&self.problem, fresh))
    }

    /// Cold-solves the current (mutated) problem from scratch with the
    /// session's solver config and frozen penalty — the reference point for
    /// warm-vs-cold quality and speed comparisons. Does not change the
    /// session.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn cold_solve(&self) -> Result<SolveReport, Error> {
        let solver = QbpSolver::new(QbpConfig {
            penalty: PenaltyMode::Fixed(self.penalty),
            ..self.config.solver
        });
        solver.solve(&self.problem, None, &mut NoopObserver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A seeded instance of `n` components on a 2×3 grid with tight
    /// capacities and one-to-two-hop timing limits on a fifth of the wires,
    /// so edits break feasibility often enough to escalate.
    fn timed_problem(n: usize, seed: u64) -> Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..n)
            .map(|j| c.add_component(format!("c{j}"), rng.random_range(1..=2u64)))
            .collect();
        let mut tc = TimingConstraints::new(n);
        for _ in 0..3 * n {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            if a == b {
                continue;
            }
            let w = rng.random_range(1..=6);
            c.add_wires(ids[a], ids[b], w).unwrap();
            if rng.random_range(0..5) == 0 && tc.get(ids[a], ids[b]).is_none() {
                let limit = rng.random_range(1..=2);
                tc.add_symmetric(ids[a], ids[b], limit).unwrap();
            }
        }
        let cap = c.total_size().div_ceil(6) + 4;
        ProblemBuilder::new(c, PartitionTopology::grid(2, 3, cap).unwrap())
            .timing(tc)
            .build()
            .unwrap()
    }

    /// One seeded edit of any of the seven kinds against `problem`.
    fn random_edit(rng: &mut StdRng, problem: &Problem) -> EditOp {
        let n = problem.n();
        let a = ComponentId::new(rng.random_range(0..n));
        let b = ComponentId::new((a.index() + rng.random_range(1..n)) % n);
        match rng.random_range(0..100) {
            0..=29 => EditOp::ReweightPair {
                a,
                b,
                weight: rng.random_range(1..=8),
            },
            30..=44 => EditOp::AddPair {
                a,
                b,
                weight: rng.random_range(1..=4),
            },
            45..=59 => EditOp::RemovePair { a, b },
            60..=84 => EditOp::SetTimingBound {
                a,
                b,
                bound: [None, Some(1), Some(2), Some(3)][rng.random_range(0..4)],
            },
            85..=91 => EditOp::RemoveComponent { id: a },
            92..=95 => EditOp::AddComponent {
                name: format!("x{n}"),
                size: 1,
            },
            _ => EditOp::TightenCycleTime {
                delta: rng.random_range(0..=1),
            },
        }
    }

    #[test]
    fn carried_warm_state_is_invisible() {
        // Two sessions take the same seeded stream. One carries its
        // move-delta rows from edit to edit; the other starts every resolve
        // from an empty table. Reports (but their wall clock), events and
        // apply reports must agree, and the carried rows must audit clean.
        let mut kinds = [false; 7];
        let mut paths = [false; 2];
        let mut repair_escalated = false;
        for (refresh_every, seed) in [(0, 11u64), (1, 12), (7, 13), (32, 14)] {
            let config = EcoConfig {
                solver: QbpConfig {
                    iterations: 10,
                    seed,
                    ..QbpConfig::default()
                },
                refresh_every,
                ..EcoConfig::default()
            };
            let mut carried = EcoSession::new(timed_problem(48, seed), config).unwrap();
            let mut fresh = carried.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            for edit in 1..=70 {
                let op = random_edit(&mut rng, carried.problem());
                kinds[match op {
                    EditOp::AddComponent { .. } => 0,
                    EditOp::RemoveComponent { .. } => 1,
                    EditOp::AddPair { .. } => 2,
                    EditOp::RemovePair { .. } => 3,
                    EditOp::ReweightPair { .. } => 4,
                    EditOp::SetTimingBound { .. } => 5,
                    EditOp::TightenCycleTime { .. } => 6,
                }] = true;
                let mut delta = NetlistDelta::new();
                delta.push(op);
                let at = format!("refresh_every {refresh_every}, edit {edit}");
                let apply = carried.apply(&delta, &mut NoopObserver).unwrap();
                let fresh_apply = fresh.apply(&delta, &mut NoopObserver).unwrap();
                assert_eq!(fresh_apply, apply, "{at}");
                paths[usize::from(apply.rebuilt)] = true;
                fresh.warm = WarmState::default();
                let mut events = (Vec::new(), Vec::new());
                let got = carried.resolve(&apply.dirty, &mut events.0).unwrap();
                let want = fresh.resolve(&apply.dirty, &mut events.1).unwrap();
                let report = |r: SolveReport| SolveReport {
                    elapsed: Duration::ZERO,
                    ..r
                };
                assert_eq!(report(got), report(want), "{at}");
                assert_eq!(events.0, events.1, "{at}");
                let escalated = |e: &SolveEvent| match *e {
                    SolveEvent::WarmSolve { escalated, .. } => escalated,
                    _ => false,
                };
                repair_escalated |= refresh_every == 0 && events.0.iter().any(escalated);
                assert!(carried.state_matches_fresh(), "{at}");
            }
        }
        assert_eq!(kinds, [true; 7], "every edit kind must occur");
        assert_eq!(paths, [true; 2], "both apply paths must run");
        assert!(repair_escalated, "some localized repair must escalate");
    }
}
