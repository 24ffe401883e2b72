//! Bench-side tracing. Spans are recorded around the benchmark's own calls
//! into the library, and between consecutive [`SolveEvent`]s inside those
//! calls, each interval named after the layer that ran in it. Nothing inside
//! the solvers changes: the recorder is one more [`SolveObserver`].
//!
//! Interval mapping (an interval is named by the event that closes it):
//!
//! | closing event | interval | span |
//! |---|---|---|
//! | `solve_started` (QBP) | call → start: Q̂ build | `core.qbuild` |
//! | `iteration_started` #1 | STEP 1–2 set-up | `core.qbuild` |
//! | `profile_updated`, then `eta_computed` | profile sync | `core.profile_sync` |
//! | `profile_updated`, then anything else | GFM/GKL pass | `gfm.sweep` / `gkl.sweep` |
//! | `eta_computed` | STEP 3 | `core.eta` |
//! | 1st `subproblem_solved` | STEP 4 GAP | `gap.step4` |
//! | `repair_applied` after it | STEP-4 candidate descent | `repair.step4` |
//! | 2nd `subproblem_solved` | promotion, STEP 5, STEP 6 GAP | `gap.step6` |
//! | `penalty_hits` | evaluation of the STEP-6 iterate | `qbp.promote` |
//! | `repair_applied` after it | STEP-6 candidate descent | `repair.step6` |
//! | `iteration_finished` | promotion | `qbp.promote` |
//! | next `iteration_started` / `stall_reset` / `solve_finished` | restart bookkeeping | `qbp.tail` |
//! | `level_coarsened` | heavy-edge matching | `ml.coarsen` |
//! | `run_completed` | coarse multistart | `ml.coarse_solve` |
//! | `level_refined` | parent of one level's refinement | `ml.refine` |
//!
//! Parallel-batch, fallback and per-move events fall inside intervals and
//! close none. Whatever no interval covers stays in the enclosing call
//! span's self time.

use qbp_observe::{
    CountersObserver, NoopObserver, SolveEvent, SolveObserver, SolverId, TeeObserver,
};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::time::Instant;

/// The bench call whose first interval is the QBP solver building Q̂.
pub const QBP_CALL: &str = "qbp.solve";

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, once that span has closed.
    pub parent: Option<usize>,
    /// Top-level bench call this span belongs to (1-based).
    pub solve: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Each span's duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration());
        }
    }
    own
}

/// The boundary the current interval started at, as far as naming the
/// interval depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// A bench call began, or an event that names nothing after it.
    Call,
    SolveFinished,
    Profile,
    /// `iteration_finished` or `stall_reset`.
    IterationEnd,
    /// Any other event.
    Step,
}

/// What the current iteration is, known once its profile sync resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IterKind {
    Unknown,
    Qbp,
    Sweep,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: u64,
    first_child: usize,
}

/// Span recorder and event-interval mapper.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    solve: u32,
    prev_t: u64,
    prev: Mark,
    qbuild_call: bool,
    solver: Option<SolverId>,
    gaps: u8,
    kind: IterKind,
    /// Interval closed by a `profile_updated` whose owner the next event
    /// decides.
    pending_profile: Option<(u64, u64)>,
    /// Start and first-child index of the multilevel phase in progress.
    ml_mark: Option<(u64, usize)>,
    /// Warm re-solves that ran a capped solve (escalation or refresh).
    pub escalations: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            solve: 0,
            prev_t: 0,
            prev: Mark::Call,
            qbuild_call: false,
            solver: None,
            gaps: 0,
            kind: IterKind::Unknown,
            pending_profile: None,
            ml_mark: None,
            escalations: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        self.begin_at(self.now(), name);
    }

    pub fn end(&mut self) {
        self.end_at(self.now());
    }

    pub fn begin_at(&mut self, t: u64, name: &'static str) {
        if self.open.is_empty() {
            self.solve += 1;
        }
        self.open.push(Open {
            name,
            start: t,
            first_child: self.spans.len(),
        });
        self.prev_t = t;
        self.prev = Mark::Call;
        self.qbuild_call = name == QBP_CALL;
        self.solver = None;
        self.gaps = 0;
        self.kind = IterKind::Unknown;
        self.pending_profile = None;
        self.ml_mark = None;
    }

    /// Closes the innermost open call span.
    ///
    /// # Panics
    ///
    /// Panics when no call span is open (a benchmark bug).
    pub fn end_at(&mut self, t: u64) {
        if let Some((start, end)) = self.pending_profile.take() {
            let sweep = self.sweep();
            self.leaf(sweep, start, end);
        }
        let open = self.open.pop().expect("end without begin");
        self.close(open.name, open.start, t, open.first_child);
        self.prev_t = t;
        self.prev = Mark::Call;
    }

    fn leaf(&mut self, name: &'static str, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            solve: self.solve,
        });
    }

    /// Records a span and adopts every parentless span since `first_child`.
    fn close(&mut self, name: &'static str, start: u64, end: u64, first_child: usize) {
        let idx = self.spans.len();
        for child in &mut self.spans[first_child..] {
            if child.parent.is_none() {
                child.parent = Some(idx);
            }
        }
        self.leaf(name, start, end);
    }

    fn sweep(&self) -> &'static str {
        match self.solver {
            Some(SolverId::Gkl) => "gkl.sweep",
            _ => "gfm.sweep",
        }
    }

    /// Name of an interval that starts at the end of an iteration.
    fn after_iteration(&self) -> Option<&'static str> {
        match (self.prev, self.kind) {
            (Mark::IterationEnd, IterKind::Qbp) => Some("qbp.tail"),
            (Mark::IterationEnd, _) => Some(self.sweep()),
            _ => None,
        }
    }

    pub fn event_at(&mut self, t: u64, event: &SolveEvent) {
        use SolveEvent as E;
        if inside_interval(event) {
            return;
        }
        if let Some((start, end)) = self.pending_profile.take() {
            let qbp = matches!(event, E::EtaComputed { .. });
            self.kind = if qbp { IterKind::Qbp } else { IterKind::Sweep };
            let name = if qbp {
                "core.profile_sync"
            } else {
                self.sweep()
            };
            self.leaf(name, start, end);
        }
        if let E::ProfileUpdated { .. } = event {
            self.pending_profile = Some((self.prev_t, t));
            self.prev_t = t;
            self.prev = Mark::Profile;
            return;
        }
        let (name, mark) = match *event {
            E::SolveStarted { solver, .. } => {
                let builds_q = solver == SolverId::Qbp
                    && (self.prev == Mark::SolveFinished
                        || (self.prev == Mark::Call && self.qbuild_call));
                self.solver.get_or_insert(solver);
                (builds_q.then_some("core.qbuild"), Mark::Step)
            }
            E::IterationStarted { iteration } => {
                let name = if iteration == 1 && self.prev != Mark::Profile {
                    "core.qbuild"
                } else if self.prev == Mark::IterationEnd && self.kind == IterKind::Qbp {
                    "qbp.tail"
                } else {
                    self.sweep()
                };
                self.gaps = 0;
                self.kind = IterKind::Unknown;
                (Some(name), Mark::Step)
            }
            E::EtaComputed { .. } => (Some("core.eta"), Mark::Step),
            E::SubproblemSolved { .. } => {
                self.gaps = self.gaps.saturating_add(1);
                let name = if self.gaps == 1 {
                    "gap.step4"
                } else {
                    "gap.step6"
                };
                (Some(name), Mark::Step)
            }
            E::RepairApplied { .. } => {
                let name = if self.gaps == 1 {
                    "repair.step4"
                } else {
                    "repair.step6"
                };
                (Some(name), Mark::Step)
            }
            E::PenaltyHits { .. } => (Some("qbp.promote"), Mark::Step),
            E::IterationFinished { .. } => {
                let name = match self.kind {
                    IterKind::Qbp => "qbp.promote",
                    _ => self.sweep(),
                };
                (Some(name), Mark::IterationEnd)
            }
            E::StallReset { .. } => (Some("qbp.tail"), Mark::IterationEnd),
            E::SolveFinished { .. } => (self.after_iteration(), Mark::SolveFinished),
            E::LevelCoarsened { .. } => (Some("ml.coarsen"), Mark::Step),
            E::RunCompleted { .. } => {
                self.leaf("ml.coarse_solve", self.prev_t, t);
                self.ml_mark = Some((t, self.spans.len()));
                (None, Mark::Step)
            }
            E::LevelRefined { .. } => {
                if let Some(name) = self.after_iteration() {
                    self.leaf(name, self.prev_t, t);
                }
                if let Some((start, first_child)) = self.ml_mark {
                    self.close("ml.refine", start, t, first_child);
                }
                self.ml_mark = Some((t, self.spans.len()));
                (None, Mark::Step)
            }
            E::WarmSolve { escalated, .. } => {
                self.escalations += u64::from(escalated);
                (None, Mark::Call)
            }
            _ => (None, Mark::Call),
        };
        if let Some(name) = name {
            self.leaf(name, self.prev_t, t);
        }
        self.prev_t = t;
        self.prev = mark;
    }

    /// Inclusive and self nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let own = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = out.entry(span.name).or_default();
            entry.0 += span.duration();
            entry.1 += own;
        }
        out
    }

    /// Writes every span as a JSON array.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating, writing or flushing the file.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {own}, \"parent\": {parent}, \"solve\": {}}}{sep}",
                s.name, s.start, s.end, s.solve
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Events that fall inside an interval instead of closing one.
fn inside_interval(event: &SolveEvent) -> bool {
    use SolveEvent as E;
    matches!(
        event,
        E::ParallelBatch { .. }
            | E::EtaFallback { .. }
            | E::MoveEvaluated { .. }
            | E::BudgetExhausted { .. }
            | E::Cancelled { .. }
            | E::WorkerPanicked { .. }
            | E::AutoConfigured { .. }
    )
}

impl SolveObserver for Recorder {
    fn on_event(&mut self, event: &SolveEvent) {
        if !inside_interval(event) {
            let t = self.now();
            self.event_at(t, event);
        }
    }
}

/// What the workloads call the library through. When `on`, every call is
/// recorded as a span and its events are fanned out to the recorder and to
/// [`CountersObserver`]s for the call's name and for all calls; otherwise
/// calls get a [`NoopObserver`].
#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    pub rec: Recorder,
    /// Event counts per call name.
    pub counts: BTreeMap<&'static str, CountersObserver>,
    /// Event counts over every call.
    pub total: CountersObserver,
}

impl Tracer {
    /// Runs `f` inside a span named `name`, without an observer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.rec.begin(name);
        let out = f();
        self.rec.end();
        out
    }

    /// Runs a library call that takes an observer.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut dyn SolveObserver) -> R,
    ) -> R {
        if !self.on {
            return f(&mut NoopObserver);
        }
        self.rec.begin(name);
        let out = {
            let mut tee = TeeObserver::new();
            tee.push(&mut self.rec);
            tee.push(self.counts.entry(name).or_default());
            tee.push(&mut self.total);
            f(&mut tee)
        };
        self.rec.end();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_observe::{BatchPhase, EtaFallbackReason, MoveKind, SubproblemKind};

    fn gap(iteration: usize) -> SolveEvent {
        SolveEvent::SubproblemSolved {
            iteration,
            kind: SubproblemKind::Gap,
            cost: 0.0,
            feasible: true,
        }
    }

    fn profile(iteration: usize) -> SolveEvent {
        SolveEvent::ProfileUpdated {
            iteration,
            rebuilt: false,
            moved: 1,
        }
    }

    fn finished(iteration: usize) -> SolveEvent {
        SolveEvent::IterationFinished {
            iteration,
            value: 0,
            feasible: true,
            improved: false,
        }
    }

    fn started(solver: SolverId) -> SolveEvent {
        SolveEvent::SolveStarted {
            solver,
            components: 4,
            partitions: 2,
        }
    }

    fn solve_finished() -> SolveEvent {
        SolveEvent::SolveFinished {
            iterations: 1,
            value: 0,
            feasible: true,
        }
    }

    /// Feeds `(time, event)` pairs inside one bench call and returns the
    /// recorded spans as `(name, start, end)`.
    fn replay(call: &'static str, events: &[(u64, SolveEvent)], end: u64) -> Recorder {
        let mut rec = Recorder::default();
        rec.begin_at(0, call);
        for (t, e) in events {
            rec.event_at(*t, e);
        }
        rec.end_at(end);
        rec
    }

    fn names(rec: &Recorder) -> Vec<(&'static str, u64, u64)> {
        rec.spans.iter().map(|s| (s.name, s.start, s.end)).collect()
    }

    #[test]
    fn qbp_iterations_map_to_their_steps() {
        use SolveEvent as E;
        let rec = replay(
            QBP_CALL,
            &[
                (10, started(SolverId::Qbp)),
                (12, E::IterationStarted { iteration: 1 }),
                (
                    14,
                    E::EtaFallback {
                        iteration: 1,
                        reason: EtaFallbackReason::Cold,
                    },
                ),
                (20, profile(1)),
                (
                    25,
                    E::EtaComputed {
                        iteration: 1,
                        incremental: false,
                    },
                ),
                (30, gap(1)),
                (
                    40,
                    E::RepairApplied {
                        iteration: 1,
                        cleaned: false,
                    },
                ),
                (50, gap(1)),
                (
                    52,
                    E::PenaltyHits {
                        iteration: 1,
                        violations: 3,
                    },
                ),
                (
                    60,
                    E::RepairApplied {
                        iteration: 1,
                        cleaned: true,
                    },
                ),
                (62, finished(1)),
                (63, E::IterationStarted { iteration: 2 }),
                (65, profile(2)),
                (
                    66,
                    E::EtaComputed {
                        iteration: 2,
                        incremental: true,
                    },
                ),
                (
                    68,
                    E::ParallelBatch {
                        iteration: 2,
                        phase: BatchPhase::Gap,
                        tasks: 2,
                        threads: 2,
                    },
                ),
                (70, gap(2)),
                (75, gap(2)),
                (78, finished(2)),
                (79, E::StallReset { iteration: 2 }),
                (80, solve_finished()),
            ],
            81,
        );
        assert_eq!(
            names(&rec),
            vec![
                ("core.qbuild", 0, 10),
                ("core.qbuild", 10, 12),
                ("core.profile_sync", 12, 20),
                ("core.eta", 20, 25),
                ("gap.step4", 25, 30),
                ("repair.step4", 30, 40),
                ("gap.step6", 40, 50),
                ("qbp.promote", 50, 52),
                ("repair.step6", 52, 60),
                ("qbp.promote", 60, 62),
                ("qbp.tail", 62, 63),
                ("core.profile_sync", 63, 65),
                ("core.eta", 65, 66),
                ("gap.step4", 66, 70),
                ("gap.step6", 70, 75),
                ("qbp.promote", 75, 78),
                ("qbp.tail", 78, 79),
                ("qbp.tail", 79, 80),
                (QBP_CALL, 0, 81),
            ]
        );
        let call = rec.spans.len() - 1;
        assert!(rec.spans[..call].iter().all(|s| s.parent == Some(call)));
        assert_eq!(
            self_times(&rec.spans)[call],
            1,
            "only the return is uncovered"
        );
    }

    #[test]
    fn profile_sync_without_eta_is_a_baseline_sweep() {
        use SolveEvent as E;
        for (solver, call, sweep) in [
            (SolverId::Gfm, "gfm.solve", "gfm.sweep"),
            (SolverId::Gkl, "gkl.solve", "gkl.sweep"),
        ] {
            let rec = replay(
                call,
                &[
                    (2, started(solver)),
                    (5, profile(0)),
                    (6, E::IterationStarted { iteration: 1 }),
                    (
                        7,
                        E::ParallelBatch {
                            iteration: 1,
                            phase: BatchPhase::Sweep,
                            tasks: 2,
                            threads: 2,
                        },
                    ),
                    (20, profile(1)),
                    (
                        21,
                        E::MoveEvaluated {
                            iteration: 1,
                            kind: MoveKind::Shift,
                            delta: -1,
                            accepted: true,
                        },
                    ),
                    (22, finished(1)),
                    (23, solve_finished()),
                ],
                24,
            );
            assert_eq!(
                names(&rec),
                vec![
                    (sweep, 2, 5),
                    (sweep, 5, 6),
                    (sweep, 6, 20),
                    (sweep, 20, 22),
                    (sweep, 22, 23),
                    (call, 0, 24),
                ]
            );
        }
    }

    #[test]
    fn mlqbp_phases_parent_their_inner_solves() {
        use SolveEvent as E;
        let coarsened = |level| E::LevelCoarsened {
            level,
            from_components: 8,
            to_components: 4,
        };
        let run = |run| E::RunCompleted {
            run,
            value: 0,
            feasible: true,
        };
        let rec = replay(
            "ml.solve",
            &[
                (1, started(SolverId::Mlqbp)),
                (
                    5,
                    E::ParallelBatch {
                        iteration: 0,
                        phase: BatchPhase::Coarsen,
                        tasks: 2,
                        threads: 2,
                    },
                ),
                (10, coarsened(1)),
                (11, coarsened(2)),
                (50, run(0)),
                (51, run(1)),
                // GFM refinement of the finest level.
                (55, profile(0)),
                (56, E::IterationStarted { iteration: 1 }),
                (60, profile(1)),
                (61, finished(1)),
                // Capped QBP descent of the same level.
                (65, E::IterationStarted { iteration: 1 }),
                (66, profile(1)),
                (
                    67,
                    E::EtaComputed {
                        iteration: 1,
                        incremental: false,
                    },
                ),
                (68, gap(1)),
                (70, gap(1)),
                (71, finished(1)),
                (
                    72,
                    E::LevelRefined {
                        level: 1,
                        value: 0,
                        improved: true,
                    },
                ),
                (73, solve_finished()),
            ],
            74,
        );
        assert_eq!(
            names(&rec),
            vec![
                ("ml.coarsen", 1, 10),
                ("ml.coarsen", 10, 11),
                ("ml.coarse_solve", 11, 50),
                ("ml.coarse_solve", 50, 51),
                ("gfm.sweep", 51, 55),
                ("gfm.sweep", 55, 56),
                ("gfm.sweep", 56, 60),
                ("gfm.sweep", 60, 61),
                ("core.qbuild", 61, 65),
                ("core.profile_sync", 65, 66),
                ("core.eta", 66, 67),
                ("gap.step4", 67, 68),
                ("gap.step6", 68, 70),
                ("qbp.promote", 70, 71),
                ("qbp.tail", 71, 72),
                ("ml.refine", 51, 72),
                ("ml.solve", 0, 74),
            ]
        );
        let (refine, call) = (15, 16);
        assert!(rec.spans[4..refine]
            .iter()
            .all(|s| s.parent == Some(refine)));
        assert!(rec.spans[..4].iter().all(|s| s.parent == Some(call)));
        assert_eq!(rec.spans[refine].parent, Some(call));
        assert_eq!(self_times(&rec.spans)[refine], 0);
        assert_eq!(self_times(&rec.spans)[call], 3);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |start, end, parent| Span {
            name: "s",
            start,
            end,
            parent,
            solve: 1,
        };
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(12, 20, Some(1)),
            span(40, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn nested_calls_share_a_solve_id() {
        let mut rec = Recorder::default();
        rec.begin_at(0, "outer");
        rec.begin_at(1, "inner");
        rec.end_at(2);
        rec.end_at(3);
        rec.begin_at(4, "next");
        rec.end_at(5);
        let solves: Vec<u32> = rec.spans.iter().map(|s| s.solve).collect();
        assert_eq!(solves, vec![1, 1, 2]);
        assert_eq!(rec.spans[0].parent, Some(1));
        assert_eq!(rec.totals()["outer"], (3, 2));
    }
}
