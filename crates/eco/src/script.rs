//! ECO edit scripts: one JSON object per line, one edit per line.
//!
//! The format is deliberately flat so it round-trips through `jq` and the
//! trace tooling:
//!
//! ```text
//! {"op": "add_component", "name": "u99", "size": 3}
//! {"op": "remove_component", "c": "u42"}
//! {"op": "add_pair", "a": 3, "b": 17, "weight": 2}
//! {"op": "remove_pair", "a": "u3", "b": "u17"}
//! {"op": "reweight_pair", "a": 3, "b": 17, "weight": 9}
//! {"op": "set_timing_bound", "a": 3, "b": 17, "bound": 4}
//! {"op": "set_timing_bound", "a": 3, "b": 17}            // no bound = remove
//! {"op": "tighten_cycle_time", "delta": 1}
//! ```
//!
//! Component references (`a`, `b`, `c`) are either 0-based indices (JSON
//! numbers) or component names (JSON strings, escapes allowed); names
//! resolve against the session's problem at application time. Blank lines
//! and lines starting with `#` are skipped. Lines are written and scanned by
//! [`qbp_observe::json`].

use crate::delta::{EditOp, NetlistDelta};
use crate::session::EcoSession;
use qbp_core::io::ParseError;
use qbp_core::{ComponentId, Cost, Error, ExecCtx, ExecStatus, Problem, QbpError};
use qbp_observe::json::{self, Scalar, Writer};
use qbp_observe::SolveObserver;

/// A component reference in a script: index or name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompRef {
    /// 0-based component index.
    Id(usize),
    /// Component name, resolved against the problem when the edit applies.
    Name(String),
}

impl CompRef {
    /// Resolves against `problem` (names by linear scan, first match).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownComponentName`] for an unresolvable name and
    /// [`Error::ComponentOutOfRange`] for an out-of-range index.
    pub fn resolve(&self, problem: &Problem) -> Result<ComponentId, Error> {
        match self {
            CompRef::Id(i) => {
                if *i >= problem.n() {
                    return Err(Error::ComponentOutOfRange {
                        id: ComponentId::new(*i),
                        len: problem.n(),
                    });
                }
                Ok(ComponentId::new(*i))
            }
            CompRef::Name(name) => problem
                .circuit()
                .iter()
                .find(|(_, c)| c.name() == name)
                .map(|(id, _)| id)
                .ok_or_else(|| Error::UnknownComponentName(name.clone())),
        }
    }
}

/// One parsed script line: an edit whose component references may still be
/// names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOp {
    /// `{"op": "add_component", "name": ..., "size": ...}`
    AddComponent {
        /// Name of the new component.
        name: String,
        /// Size of the new component.
        size: u64,
    },
    /// `{"op": "remove_component", "c": ...}`
    RemoveComponent {
        /// The component to detach.
        c: CompRef,
    },
    /// `{"op": "add_pair", "a": ..., "b": ..., "weight": ...}`
    AddPair {
        /// First endpoint.
        a: CompRef,
        /// Second endpoint.
        b: CompRef,
        /// Symmetric weight.
        weight: Cost,
    },
    /// `{"op": "remove_pair", "a": ..., "b": ...}`
    RemovePair {
        /// First endpoint.
        a: CompRef,
        /// Second endpoint.
        b: CompRef,
    },
    /// `{"op": "reweight_pair", "a": ..., "b": ..., "weight": ...}`
    ReweightPair {
        /// First endpoint.
        a: CompRef,
        /// Second endpoint.
        b: CompRef,
        /// New symmetric weight.
        weight: Cost,
    },
    /// `{"op": "set_timing_bound", "a": ..., "b": ..., "bound": ...?}`
    SetTimingBound {
        /// First endpoint.
        a: CompRef,
        /// Second endpoint.
        b: CompRef,
        /// New bound; absent = remove the constraint.
        bound: Option<i64>,
    },
    /// `{"op": "tighten_cycle_time", "delta": ...}`
    TightenCycleTime {
        /// Amount subtracted from every bound.
        delta: i64,
    },
}

impl ScriptOp {
    /// Resolves names to ids against `problem`, yielding an applicable
    /// [`EditOp`].
    ///
    /// # Errors
    ///
    /// Returns name/range resolution errors (see [`CompRef::resolve`]).
    pub fn resolve(&self, problem: &Problem) -> Result<EditOp, Error> {
        Ok(match self {
            ScriptOp::AddComponent { name, size } => EditOp::AddComponent {
                name: name.clone(),
                size: *size,
            },
            ScriptOp::RemoveComponent { c } => EditOp::RemoveComponent {
                id: c.resolve(problem)?,
            },
            ScriptOp::AddPair { a, b, weight } => EditOp::AddPair {
                a: a.resolve(problem)?,
                b: b.resolve(problem)?,
                weight: *weight,
            },
            ScriptOp::RemovePair { a, b } => EditOp::RemovePair {
                a: a.resolve(problem)?,
                b: b.resolve(problem)?,
            },
            ScriptOp::ReweightPair { a, b, weight } => EditOp::ReweightPair {
                a: a.resolve(problem)?,
                b: b.resolve(problem)?,
                weight: *weight,
            },
            ScriptOp::SetTimingBound { a, b, bound } => EditOp::SetTimingBound {
                a: a.resolve(problem)?,
                b: b.resolve(problem)?,
                bound: *bound,
            },
            ScriptOp::TightenCycleTime { delta } => EditOp::TightenCycleTime { delta: *delta },
        })
    }
}

/// Serializes one edit as a script line (ids, not names — the canonical
/// machine form, and what the generator emits). Names are JSON strings,
/// escaped as needed.
pub fn format_edit(op: &EditOp) -> String {
    let line = |name: &str| Writer::object().field("op", name);
    let pair = |name: &str, a: &ComponentId, b: &ComponentId| {
        line(name).field("a", a.index()).field("b", b.index())
    };
    match op {
        EditOp::AddComponent { name, size } => line("add_component")
            .field("name", name.as_str())
            .field("size", *size),
        EditOp::RemoveComponent { id } => line("remove_component").field("c", id.index()),
        EditOp::AddPair { a, b, weight } => pair("add_pair", a, b).field("weight", *weight),
        EditOp::RemovePair { a, b } => pair("remove_pair", a, b),
        EditOp::ReweightPair { a, b, weight } => {
            pair("reweight_pair", a, b).field("weight", *weight)
        }
        EditOp::SetTimingBound { a, b, bound } => {
            let line = pair("set_timing_bound", a, b);
            match bound {
                Some(d) => line.field("bound", *d),
                None => line,
            }
        }
        EditOp::TightenCycleTime { delta } => line("tighten_cycle_time").field("delta", *delta),
    }
    .finish()
}

/// Serializes a whole delta, one line per op.
pub fn format_delta(delta: &NetlistDelta) -> String {
    let mut s = String::new();
    for op in delta.ops() {
        s.push_str(&format_edit(op));
        s.push('\n');
    }
    s
}

/// Parses a whole script: one op per non-blank, non-`#` line, keeping
/// 1-based line numbers for error reporting.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first malformed line.
pub fn parse_script(text: &str) -> Result<Vec<(usize, ScriptOp)>, ParseError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if !line.is_empty() && !line.starts_with('#') {
            ops.push((i + 1, parse_line(line, i + 1)?));
        }
    }
    Ok(ops)
}

/// One script line: a flat JSON object whose every value is a string or an
/// integer, naming its edit in `"op"`.
fn parse_line(line: &str, lineno: usize) -> Result<ScriptOp, ParseError> {
    let bad = |expected| ParseError::BadArguments {
        line: lineno,
        expected,
    };
    let flat = "a flat JSON object of string/integer fields";
    let fields = json::parse_object(line).map_err(|_| bad(flat))?;
    let typed = |(_, value): &(String, Scalar)| {
        matches!(value, Scalar::Str(_)) || value.parse::<i64>().is_some()
    };
    if !fields.0.iter().all(typed) {
        return Err(bad(flat));
    }
    let int = |key| {
        let value = fields.get(key).and_then(Scalar::parse::<i64>);
        value.ok_or(bad("an integer field"))
    };
    let comp = |key| match fields.get(key) {
        Some(Scalar::Str(name)) => Ok(CompRef::Name(name.clone())),
        value => match value.and_then(Scalar::parse::<i64>) {
            Some(i) if i >= 0 => Ok(CompRef::Id(i as usize)),
            _ => Err(bad("a component index or name")),
        },
    };
    let Some(Scalar::Str(op)) = fields.get("op") else {
        return Err(bad("an \"op\" field naming the edit"));
    };
    Ok(match op.as_str() {
        "add_component" => {
            let Some(Scalar::Str(name)) = fields.get("name") else {
                return Err(bad("a \"name\" string field"));
            };
            let size = u64::try_from(int("size")?).map_err(|_| bad("a non-negative size"))?;
            ScriptOp::AddComponent {
                name: name.clone(),
                size,
            }
        }
        "remove_component" => ScriptOp::RemoveComponent { c: comp("c")? },
        "add_pair" => ScriptOp::AddPair {
            a: comp("a")?,
            b: comp("b")?,
            weight: int("weight")?,
        },
        "remove_pair" => ScriptOp::RemovePair {
            a: comp("a")?,
            b: comp("b")?,
        },
        "reweight_pair" => ScriptOp::ReweightPair {
            a: comp("a")?,
            b: comp("b")?,
            weight: int("weight")?,
        },
        "set_timing_bound" => ScriptOp::SetTimingBound {
            a: comp("a")?,
            b: comp("b")?,
            bound: match fields.get("bound") {
                None => None,
                Some(value) => Some(value.parse().ok_or(bad("an integer bound"))?),
            },
        },
        "tighten_cycle_time" => ScriptOp::TightenCycleTime {
            delta: int("delta")?,
        },
        other => {
            return Err(ParseError::UnknownDirective {
                line: lineno,
                directive: other.to_string(),
            })
        }
    })
}

/// Summary of a script run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptSummary {
    /// Edits applied (one delta per script line).
    pub edits: usize,
    /// Warm re-solves that escalated past the localized pass.
    pub escalations: usize,
    /// Applies that took the rebuild path.
    pub rebuilds: usize,
    /// Whether every warm re-solve ended feasible.
    pub all_feasible: bool,
    /// Embedded objective after the last edit.
    pub final_value: Cost,
    /// How the run ended: [`ExecStatus::Completed`] when every line was
    /// applied and re-solved, otherwise the budget/cancel status that
    /// stopped the script (later lines are left unapplied).
    pub status: ExecStatus,
}

/// Runs a script against a session: each line becomes a one-op
/// [`NetlistDelta`] that is applied and warm-resolved in order. Each warm
/// re-solve runs inside `exec`, and once the budget expires (or the cancel
/// token fires) the script stops *between* lines — the session keeps every
/// edit applied so far with a feasible assignment, later lines are left
/// unapplied, and the summary's `status` reports why. Pass
/// [`ExecCtx::unbounded`] to run every line.
///
/// # Errors
///
/// Returns a [`QbpError::Parse`] for malformed script lines and lifts
/// validation/solver errors ([`QbpError::Model`]); the session keeps all
/// edits applied before the failing line.
pub fn run_script(
    session: &mut EcoSession,
    text: &str,
    exec: &ExecCtx,
    obs: &mut dyn SolveObserver,
) -> Result<ScriptSummary, QbpError> {
    /// Forwards every event and counts escalated warm solves on the way.
    struct EscalationTee<'a> {
        inner: &'a mut dyn SolveObserver,
        escalations: usize,
    }
    impl qbp_observe::SolveObserver for EscalationTee<'_> {
        fn on_event(&mut self, event: &qbp_observe::SolveEvent) {
            if matches!(
                event,
                qbp_observe::SolveEvent::WarmSolve {
                    escalated: true,
                    ..
                }
            ) {
                self.escalations += 1;
            }
            self.inner.on_event(event);
        }
    }

    let ops = parse_script(text)?;
    let mut tee = EscalationTee {
        inner: obs,
        escalations: 0,
    };
    let mut summary = ScriptSummary {
        edits: 0,
        escalations: 0,
        rebuilds: 0,
        all_feasible: true,
        final_value: 0,
        status: ExecStatus::Completed,
    };
    for (_, op) in &ops {
        // Line boundaries are the script's cooperative checkpoints: a
        // stopped run never leaves a half-applied edit behind.
        if let Some(stop) = exec.check(summary.edits) {
            summary.status = stop;
            break;
        }
        let edit = op.resolve(session.problem())?;
        let mut delta = NetlistDelta::new();
        delta.push(edit);
        let apply = session.apply(&delta, &mut tee)?;
        let solve = session.resolve_exec(&apply.dirty, exec, &mut tee)?;
        summary.edits += 1;
        summary.rebuilds += apply.rebuilt as usize;
        summary.all_feasible &= solve.feasible;
        summary.final_value = solve.embedded_value.unwrap_or(solve.objective);
        summary.status = summary.status.merge(solve.status);
    }
    summary.escalations = tee.escalations;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_round_trips_through_format_and_parse() {
        let delta = NetlistDelta::new()
            .add_component("u9", 3)
            .remove_component(ComponentId::new(2))
            .add_pair(ComponentId::new(0), ComponentId::new(1), 5)
            .remove_pair(ComponentId::new(0), ComponentId::new(1))
            .reweight_pair(ComponentId::new(0), ComponentId::new(1), 7)
            .set_timing_bound(ComponentId::new(0), ComponentId::new(1), Some(4))
            .set_timing_bound(ComponentId::new(0), ComponentId::new(1), None)
            .tighten_cycle_time(2);
        let text = format_delta(&delta);
        let parsed = parse_script(&text).unwrap();
        assert_eq!(parsed.len(), delta.len());
        // Ids resolve to themselves on any problem large enough.
        let p = qbp_core::ProblemBuilder::on(
            qbp_core::PartitionTopology::grid(2, 2, 100).unwrap(),
        )
        .component("a", 1)
        .component("b", 1)
        .component("c", 1)
        .build()
        .unwrap();
        for ((_, op), want) in parsed.iter().zip(delta.ops()) {
            assert_eq!(&op.resolve(&p).unwrap(), want);
        }
    }

    #[test]
    fn edit_lines_are_pinned() {
        let id = ComponentId::new;
        let pinned = [
            (
                EditOp::AddComponent { name: "u99".into(), size: 3 },
                r#"{"op": "add_component", "name": "u99", "size": 3}"#,
                ScriptOp::AddComponent { name: "u99".into(), size: 3 },
            ),
            (
                EditOp::RemoveComponent { id: id(42) },
                r#"{"op": "remove_component", "c": 42}"#,
                ScriptOp::RemoveComponent { c: CompRef::Id(42) },
            ),
            (
                EditOp::AddPair { a: id(3), b: id(17), weight: 2 },
                r#"{"op": "add_pair", "a": 3, "b": 17, "weight": 2}"#,
                ScriptOp::AddPair { a: CompRef::Id(3), b: CompRef::Id(17), weight: 2 },
            ),
            (
                EditOp::RemovePair { a: id(3), b: id(17) },
                r#"{"op": "remove_pair", "a": 3, "b": 17}"#,
                ScriptOp::RemovePair { a: CompRef::Id(3), b: CompRef::Id(17) },
            ),
            (
                EditOp::ReweightPair { a: id(3), b: id(17), weight: 9 },
                r#"{"op": "reweight_pair", "a": 3, "b": 17, "weight": 9}"#,
                ScriptOp::ReweightPair { a: CompRef::Id(3), b: CompRef::Id(17), weight: 9 },
            ),
            (
                EditOp::SetTimingBound { a: id(3), b: id(17), bound: Some(4) },
                r#"{"op": "set_timing_bound", "a": 3, "b": 17, "bound": 4}"#,
                ScriptOp::SetTimingBound { a: CompRef::Id(3), b: CompRef::Id(17), bound: Some(4) },
            ),
            (
                EditOp::SetTimingBound { a: id(3), b: id(17), bound: None },
                r#"{"op": "set_timing_bound", "a": 3, "b": 17}"#,
                ScriptOp::SetTimingBound { a: CompRef::Id(3), b: CompRef::Id(17), bound: None },
            ),
            (
                EditOp::TightenCycleTime { delta: -1 },
                r#"{"op": "tighten_cycle_time", "delta": -1}"#,
                ScriptOp::TightenCycleTime { delta: -1 },
            ),
        ];
        for (edit, line, script_op) in pinned {
            assert_eq!(format_edit(&edit), line);
            assert_eq!(parse_script(line).unwrap(), [(1, script_op)], "{line}");
        }
    }

    #[test]
    fn escaped_names_decode_and_non_integers_stay_rejected() {
        let ops = parse_script(r#"{"op": "add_pair", "a": "x\"y", "b": "tab\there", "weight": 2}"#)
            .unwrap();
        assert_eq!(
            ops[0].1,
            ScriptOp::AddPair {
                a: CompRef::Name("x\"y".into()),
                b: CompRef::Name("tab\there".into()),
                weight: 2
            }
        );
        for line in [
            r#"{"op": "tighten_cycle_time", "delta": true}"#,
            r#"{"op": "tighten_cycle_time", "delta": 1, "note": null}"#,
            r#"{"op": "tighten_cycle_time", "delta": 1, "x": false}"#,
            r#"{"op": "tighten_cycle_time", "delta": 1.5}"#,
            r#"{"op": "tighten_cycle_time", "delta": 1, "x": 1e3}"#,
            r#"{"op": "tighten_cycle_time", "delta": 1, "x": -}"#,
            r#"{"op": "add_component", "name": "a\qb", "size": 1}"#,
            // Not JSON: a `+` sign, a raw tab, a trailing comma, a repeat.
            r#"{"op": "tighten_cycle_time", "delta": +2}"#,
            "{\"op\": \"add_component\", \"name\": \"a\tb\", \"size\": 1}",
            r#"{"op": "tighten_cycle_time", "delta": 1,}"#,
            r#"{"op": "tighten_cycle_time", "delta": 1, "delta": 2}"#,
        ] {
            assert!(
                matches!(parse_script(line), Err(ParseError::BadArguments { line: 1, .. })),
                "{line}"
            );
        }
    }

    #[test]
    fn parse_skips_comments_and_reports_line_numbers() {
        let text = "# header\n\n{\"op\": \"tighten_cycle_time\", \"delta\": 1}\nnot json\n";
        let err = parse_script(text).unwrap_err();
        assert!(matches!(err, ParseError::BadArguments { line: 4, .. }));
        assert!(matches!(
            parse_script("{\"op\": \"frobnicate\"}").unwrap_err(),
            ParseError::UnknownDirective { line: 1, .. }
        ));
    }

    #[test]
    fn names_resolve_against_problem() {
        let p = qbp_core::ProblemBuilder::on(
            qbp_core::PartitionTopology::grid(2, 2, 100).unwrap(),
        )
        .component("alpha", 1)
        .component("beta", 1)
        .build()
        .unwrap();
        let ops = parse_script("{\"op\": \"add_pair\", \"a\": \"alpha\", \"b\": \"beta\", \"weight\": 2}")
            .unwrap();
        let edit = ops[0].1.resolve(&p).unwrap();
        assert_eq!(
            edit,
            EditOp::AddPair {
                a: ComponentId::new(0),
                b: ComponentId::new(1),
                weight: 2
            }
        );
        assert!(matches!(
            parse_script("{\"op\": \"add_pair\", \"a\": \"ghost\", \"b\": 0, \"weight\": 1}")
                .unwrap()[0]
                .1
                .resolve(&p),
            Err(Error::UnknownComponentName(_))
        ));
    }
}
