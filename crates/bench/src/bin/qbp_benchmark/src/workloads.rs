//! The four workloads: a seeded set-up, and one closed-loop round that
//! makes every library call of the workload once, one call at a time, and
//! re-checks every answer outside the timed region.

use crate::trace::{Tracer, QBP_CALL};
use qbp_baselines::{GfmConfig, GfmSolver, GklConfig, GklSolver};
use qbp_core::{check_feasibility, Assignment, Cost, Evaluator, Problem};
use qbp_eco::{EcoConfig, EcoSession, EditOp, NetlistDelta};
use qbp_gen::{
    build_instance_with_witness, eco_edit_stream, scaled_spec, ClusteredCircuit, EcoStreamOptions,
    SuiteOptions, PAPER_SUITE,
};
use qbp_multilevel::{MlqbpConfig, MlqbpSolver};
use qbp_observe::{CountersObserver, NoopObserver};
use qbp_solver::{greedy_first_fit, scramble_feasible, QbpConfig, QbpSolver, Solver};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTiming,
    PaperNotiming,
    ClusteredMl,
    EcoStream,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTiming,
        Workload::PaperNotiming,
        Workload::ClusteredMl,
        Workload::EcoStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTiming => "paper_timing",
            Workload::PaperNotiming => "paper_notiming",
            Workload::ClusteredMl => "clustered_ml",
            Workload::EcoStream => "eco_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes. A round must stay short enough that a run of
/// `run_seconds` holds at least three of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// The paper suite with timing constraints (Table III).
    pub timing: Suite,
    /// The paper suite with timing constraints removed (Table II).
    pub notiming: Suite,
    /// Components of each clustered circuit.
    pub clustered_n: usize,
    /// Independently seeded clustered circuits per round.
    pub clustered_copies: u64,
    /// Scale of the ckta circuits the edit streams mutate.
    pub eco_scale: f64,
    /// Edits per stream. At least 1000, so one stream leaves ten samples
    /// beyond its 99th percentile.
    pub eco_edits: usize,
    /// Independently seeded circuits, each with its own stream, per round.
    pub eco_copies: u64,
}

/// Scale of the seven paper circuits, and how many independently seeded
/// copies of the suite one round solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Suite {
    pub scale: f64,
    pub copies: u64,
}

pub const FULL: Sizes = Sizes {
    timing: Suite {
        scale: 0.3,
        copies: 1,
    },
    notiming: Suite {
        scale: 1.0,
        copies: 2,
    },
    clustered_n: 4000,
    clustered_copies: 3,
    eco_scale: 0.5,
    eco_edits: 1000,
    eco_copies: 2,
};

/// Sizes for the tests: every workload in seconds.
#[cfg(test)]
pub const SMOKE: Sizes = Sizes {
    timing: Suite {
        scale: 0.05,
        copies: 1,
    },
    notiming: Suite {
        scale: 0.05,
        copies: 1,
    },
    clustered_n: 2000,
    clustered_copies: 1,
    eco_scale: 0.1,
    eco_edits: 50,
    eco_copies: 1,
};

/// Threads of the extra clustered solve in traced rounds: the two cores of
/// the host the bounds were calibrated on. Measured rounds run serially, as
/// the paper's protocol does: on that shared host a 2-thread solve slowed
/// by up to 30% whenever another tenant was busy, three times as much as a
/// serial one.
const PARALLEL_THREADS: usize = 2;

/// One circuit of the paper suite with the feasible start all three
/// methods share.
pub struct Circuit {
    pub problem: Problem,
    pub start: Assignment,
    /// Feasible-start steps that came up empty before one succeeded.
    pub fallbacks: usize,
}

pub enum Inputs {
    Paper(Vec<Circuit>),
    /// Clustered circuits with their planted witnesses.
    Clustered(Vec<(Problem, Assignment)>),
    Eco {
        /// Sessions opened on feasible placements of the unedited circuits,
        /// each with the edit stream it replays.
        sessions: Vec<(EcoSession, Vec<EditOp>)>,
        refresh_every: usize,
    },
}

/// Derives the seed of the `copy`th independent instance.
fn copy_seed(seed: u64, copies: u64, copy: u64) -> u64 {
    seed.wrapping_mul(copies).wrapping_add(copy)
}

/// Builds a workload's inputs from `seed`: every generator seed and solver
/// seed derives from it. Set-up also includes the work a user does once
/// before the measured calls: the paper protocol's shared feasible starts,
/// and the ECO session's baseline placement.
///
/// # Errors
///
/// Returns the message of a generator or solver error, or of a circuit
/// without any feasible start.
pub fn setup(w: Workload, sizes: &Sizes, seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    match w {
        Workload::PaperTiming | Workload::PaperNotiming => {
            let timing = w == Workload::PaperTiming;
            let Suite { scale, copies } = if timing { sizes.timing } else { sizes.notiming };
            let mut circuits = Vec::new();
            for copy in 0..copies {
                let options = SuiteOptions {
                    seed: copy_seed(seed, copies, copy),
                    ..SuiteOptions::default()
                };
                for spec in &PAPER_SUITE {
                    let (problem, witness) = tr
                        .span("gen.instance", || {
                            build_instance_with_witness(&scaled_spec(spec, scale), &options)
                        })
                        .map_err(|e| e.to_string())?;
                    let problem = if timing {
                        problem
                    } else {
                        problem.without_timing()
                    };
                    let (start, fallbacks) = tr
                        .span("start.search", || feasible_start(&problem, seed, &witness))
                        .ok_or(format!("{}: no feasible start", spec.name))?;
                    circuits.push(Circuit {
                        problem,
                        start,
                        fallbacks,
                    });
                }
            }
            Ok(Inputs::Paper(circuits))
        }
        Workload::ClusteredMl => {
            let copies = sizes.clustered_copies;
            let circuits = tr.span("gen.instance", || {
                (0..copies)
                    .map(|copy| {
                        ClusteredCircuit::new(sizes.clustered_n)
                            .seed(copy_seed(seed, copies, copy))
                            .build_problem()
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            Ok(Inputs::Clustered(circuits.map_err(|e| e.to_string())?))
        }
        Workload::EcoStream => {
            let config = EcoConfig {
                solver: QbpConfig {
                    seed,
                    threads: 1,
                    ..QbpConfig::default()
                },
                ..EcoConfig::default()
            };
            let copies = sizes.eco_copies;
            let sessions = (0..copies)
                .map(|copy| eco_session(sizes, copy_seed(seed, copies, copy), &config, tr))
                .collect::<Result<_, _>>()?;
            Ok(Inputs::Eco {
                sessions,
                refresh_every: config.refresh_every,
            })
        }
    }
}

/// An ECO session on a freshly generated ckta, and the edit stream for it.
/// Edits land on an accepted placement: the cold solve's answer (the
/// planted witness when that is infeasible) polished by a full-budget
/// reanchor, so every set-up pays for the same two solves.
fn eco_session(
    sizes: &Sizes,
    seed: u64,
    config: &EcoConfig,
    tr: &mut Tracer,
) -> Result<(EcoSession, Vec<EditOp>), String> {
    let (problem, witness, stream) = tr
        .span("gen.instance", || {
            let spec = scaled_spec(&PAPER_SUITE[0], sizes.eco_scale);
            let options = SuiteOptions {
                seed,
                ..SuiteOptions::default()
            };
            let (problem, witness) = build_instance_with_witness(&spec, &options)?;
            let stream = eco_edit_stream(
                &problem,
                &EcoStreamOptions {
                    edits: sizes.eco_edits,
                    seed,
                    structural: true,
                },
            );
            Ok::<_, qbp_core::Error>((problem, witness, stream))
        })
        .map_err(|e| e.to_string())?;
    let session =
        EcoSession::with_assignment(problem, witness, config.clone()).map_err(|e| e.to_string())?;
    let cold = session.cold_solve().map_err(|e| e.to_string())?;
    let mut session = if cold.feasible {
        EcoSession::with_assignment(session.problem().clone(), cold.assignment, config.clone())
            .map_err(|e| e.to_string())?
    } else {
        session
    };
    let _ = session
        .reanchor(&mut NoopObserver)
        .map_err(|e| e.to_string())?;
    if !check_feasibility(session.problem(), session.assignment()).is_feasible() {
        return Err("no feasible placement to open the ECO session on".into());
    }
    Ok((session, stream))
}

/// What one round did and measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Seconds inside the timed library calls.
    pub wall: f64,
    /// Latency of each ECO edit (apply plus re-solve), in milliseconds.
    pub edits_ms: Vec<f64>,
    /// Summed final wire cost of the round's answers.
    pub cost: Cost,
    /// Final wire cost per method (`qbp`, `gfm`, `gkl`, `ml`, `eco`).
    pub method_cost: BTreeMap<&'static str, Cost>,
    pub attempted: usize,
    /// Calls that returned an error or an infeasible answer.
    pub failed: usize,
    /// Output-check failures: a reported cost or feasibility the benchmark
    /// could not reproduce, diverged incremental state, thread-dependent
    /// answers.
    pub errors: Vec<String>,
    /// Feasible-start steps that came up empty before one succeeded.
    pub start_fallbacks: usize,
    /// QBP answers that violated a constraint, so the paper protocol kept
    /// the shared start instead.
    pub qbp_infeasible: usize,
    /// Seconds of the parallel clustered solves (traced rounds only).
    pub solve_parallel: Option<f64>,
    /// Parallel batches those solves fanned out, and their worker chunks.
    pub par_batches: u64,
    pub par_tasks: u64,
}

impl Round {
    /// Re-derives feasibility and wire cost of a returned assignment from
    /// the problem alone, compares them with what the call reported, and
    /// returns the recomputed feasibility.
    fn check(
        &mut self,
        tr: &mut Tracer,
        what: &str,
        problem: &Problem,
        asg: &Assignment,
        (reported_cost, reported_feasible): (Cost, bool),
    ) -> bool {
        let (feasible, cost) = tr.span("bench.verify", || {
            (
                check_feasibility(problem, asg).is_feasible(),
                Evaluator::new(problem).cost(asg),
            )
        });
        if reported_cost != cost {
            self.errors.push(format!(
                "{what}: reported cost {reported_cost}, recomputed {cost}"
            ));
        }
        if reported_feasible != feasible {
            self.errors.push(format!(
                "{what}: reported feasible={reported_feasible}, recomputed {feasible}"
            ));
        }
        feasible
    }

    /// [`Round::check`] for a call whose answer must be feasible.
    fn check_feasible(
        &mut self,
        tr: &mut Tracer,
        what: &str,
        problem: &Problem,
        asg: &Assignment,
        reported: (Cost, bool),
    ) {
        if !self.check(tr, what, problem, asg, reported) {
            self.failed += 1;
        }
    }
}

fn timed<R>(wall: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *wall += t.elapsed().as_secs_f64();
    out
}

/// Runs one round on freshly set-up inputs.
pub fn round(inputs: Inputs, seed: u64, tr: &mut Tracer) -> Round {
    let mut r = Round::default();
    match inputs {
        Inputs::Paper(circuits) => paper_round(&circuits, seed, tr, &mut r),
        Inputs::Clustered(circuits) => {
            for (problem, witness) in &circuits {
                clustered_solve(problem, witness, seed, tr, &mut r);
            }
        }
        Inputs::Eco {
            sessions,
            refresh_every,
        } => {
            for (session, stream) in sessions {
                eco_stream(session, &stream, refresh_every, tr, &mut r);
            }
        }
    }
    r
}

/// The paper's shared feasible start: QBP on the `B = 0` feasibility problem
/// under four growing budgets, then greedy first-fit, then a feasible random
/// walk away from the planted witness. Returns the start and how many steps
/// came up empty before it.
fn feasible_start(
    problem: &Problem,
    seed: u64,
    witness: &Assignment,
) -> Option<(Assignment, usize)> {
    for attempt in 0..4 {
        let config = QbpConfig {
            iterations: 10 * (attempt + 1),
            seed: seed.wrapping_add(attempt as u64 * 7919),
            threads: 1,
            ..QbpConfig::default()
        };
        if let Ok(Some(start)) = QbpSolver::new(config).find_feasible(problem) {
            return Some((start, attempt));
        }
    }
    if let Some(start) = greedy_first_fit(problem, seed, 200) {
        return Some((start, 4));
    }
    check_feasibility(problem, witness).is_feasible().then(|| {
        (
            scramble_feasible(problem, witness, 20 * problem.n(), seed),
            5,
        )
    })
}

/// Tables II/III protocol: per circuit, QBP (100 iterations), GFM (passes
/// until one stops improving) and GKL (at most 6 outer loops) from the same
/// feasible start, all serial. The interchange baselines must stay
/// feasible; a QBP answer that violates a constraint is replaced by the
/// start, as in the paper, whose QBP column never reports an infeasible
/// result.
fn paper_round(circuits: &[Circuit], seed: u64, tr: &mut Tracer, r: &mut Round) {
    let qbp = QbpSolver::new(QbpConfig {
        seed,
        threads: 1,
        ..QbpConfig::default()
    });
    let gfm = GfmSolver::new(GfmConfig {
        seed,
        threads: 1,
        ..GfmConfig::default()
    });
    let gkl = GklSolver::new(GklConfig {
        seed,
        threads: 1,
        ..GklConfig::default()
    });
    let methods: [(&'static str, &'static str, &dyn Solver); 3] = [
        ("qbp", QBP_CALL, &qbp),
        ("gfm", "gfm.solve", &gfm),
        ("gkl", "gkl.solve", &gkl),
    ];
    for c in circuits {
        r.start_fallbacks += c.fallbacks;
        for (method, call, solver) in methods {
            r.attempted += 1;
            let out = timed(&mut r.wall, || {
                tr.call(call, |obs| solver.solve(&c.problem, Some(&c.start), obs))
            });
            let Ok(rep) = out else {
                r.failed += 1;
                continue;
            };
            let reported = (rep.objective, rep.feasible);
            let cost = if method == "qbp" {
                if r.check(tr, call, &c.problem, &rep.assignment, reported) {
                    rep.objective
                } else {
                    r.qbp_infeasible += 1;
                    Evaluator::new(&c.problem).cost(&c.start)
                }
            } else {
                r.check_feasible(tr, call, &c.problem, &rep.assignment, reported);
                rep.objective
            };
            r.cost += cost;
            *r.method_cost.entry(method).or_default() += cost;
        }
    }
}

/// One serial mlqbp V-cycle from the planted witness. Traced rounds add an
/// untraced [`PARALLEL_THREADS`]-thread solve, whose answer must be
/// bit-identical.
fn clustered_solve(
    problem: &Problem,
    witness: &Assignment,
    seed: u64,
    tr: &mut Tracer,
    r: &mut Round,
) {
    let solver = |threads| {
        MlqbpSolver::new(MlqbpConfig {
            qbp: QbpConfig {
                seed,
                threads,
                ..QbpConfig::default()
            },
            ..MlqbpConfig::default()
        })
    };
    r.attempted += 1;
    let out = timed(&mut r.wall, || {
        tr.call("ml.solve", |obs| {
            solver(1).solve(problem, Some(witness), obs)
        })
    });
    let Ok(rep) = out else {
        r.failed += 1;
        return;
    };
    r.check_feasible(
        tr,
        "ml.solve",
        problem,
        &rep.assignment,
        (rep.objective, rep.feasible),
    );
    r.cost += rep.objective;
    *r.method_cost.entry("ml").or_default() += rep.objective;
    if tr.on {
        let mut counters = CountersObserver::new();
        let parallel = timed(r.solve_parallel.get_or_insert(0.0), || {
            tr.span("ml.solve_parallel", || {
                solver(PARALLEL_THREADS).solve(problem, Some(witness), &mut counters)
            })
        });
        let counts = counters.snapshot();
        r.par_batches += counts.parallel_batches;
        r.par_tasks += counts.parallel_tasks;
        if !parallel.is_ok_and(|p| p.assignment == rep.assignment) {
            r.errors
                .push("serial and parallel mlqbp answers differ".into());
        }
    }
}

/// Replays an edit stream: each edit is applied and re-solved before the
/// next one is sent.
fn eco_stream(
    mut session: EcoSession,
    stream: &[EditOp],
    refresh_every: usize,
    tr: &mut Tracer,
    r: &mut Round,
) {
    for op in stream {
        let mut delta = NetlistDelta::new();
        delta.push(op.clone());
        let refresh =
            refresh_every > 0 && (session.deltas_applied() + 1).is_multiple_of(refresh_every);
        let resolve = if refresh { "eco.refresh" } else { "eco.warm" };
        r.attempted += 1;
        let mut edit = 0.0;
        let out = timed(&mut edit, || {
            let apply = tr.call("eco.apply", |obs| session.apply(&delta, obs))?;
            tr.call(resolve, |obs| session.resolve(&apply.dirty, obs))
        });
        r.wall += edit;
        r.edits_ms.push(edit * 1e3);
        let Ok(rep) = out else {
            r.failed += 1;
            continue;
        };
        let what = format!("eco edit {}", session.deltas_applied());
        let reported = (rep.objective, rep.feasible);
        r.check_feasible(tr, &what, session.problem(), &rep.assignment, reported);
        if !tr.span("bench.verify", || session.state_matches_fresh()) {
            r.errors
                .push(format!("{what}: patched state differs from a fresh build"));
        }
    }
    let cost = Evaluator::new(session.problem()).cost(session.assignment());
    r.cost += cost;
    *r.method_cost.entry("eco").or_default() += cost;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a workload's calls read, as text.
    fn fingerprint(w: Workload, seed: u64) -> String {
        match setup(w, &SMOKE, seed, &mut Tracer::default()).expect("smoke set-up") {
            Inputs::Paper(circuits) => circuits
                .iter()
                .map(|c| format!("{:?}{:?}", c.problem, c.start))
                .collect(),
            Inputs::Clustered(circuits) => format!("{circuits:?}"),
            Inputs::Eco { sessions, .. } => sessions
                .iter()
                .map(|(s, stream)| format!("{:?}{:?}{stream:?}", s.problem(), s.assignment()))
                .collect(),
        }
    }

    #[test]
    fn the_seed_feeds_every_generator() {
        for w in Workload::ALL {
            let first = fingerprint(w, 1);
            assert_eq!(
                first,
                fingerprint(w, 1),
                "{}: same seed, same inputs",
                w.name()
            );
            assert_ne!(
                first,
                fingerprint(w, 2),
                "{}: new seed, new inputs",
                w.name()
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }
}
