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
//! numbers) or component names (JSON strings); names resolve against the
//! session's problem at application time. Blank lines and lines starting
//! with `#` are skipped.

use crate::delta::{EditOp, NetlistDelta};
use crate::session::EcoSession;
use qbp_core::io::ParseError;
use qbp_core::{ComponentId, Cost, Error, ExecCtx, ExecStatus, Problem, QbpError};
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
/// machine form, and what the generator emits).
pub fn format_edit(op: &EditOp) -> String {
    match op {
        EditOp::AddComponent { name, size } => {
            format!("{{\"op\": \"add_component\", \"name\": \"{name}\", \"size\": {size}}}")
        }
        EditOp::RemoveComponent { id } => {
            format!("{{\"op\": \"remove_component\", \"c\": {}}}", id.index())
        }
        EditOp::AddPair { a, b, weight } => format!(
            "{{\"op\": \"add_pair\", \"a\": {}, \"b\": {}, \"weight\": {weight}}}",
            a.index(),
            b.index()
        ),
        EditOp::RemovePair { a, b } => format!(
            "{{\"op\": \"remove_pair\", \"a\": {}, \"b\": {}}}",
            a.index(),
            b.index()
        ),
        EditOp::ReweightPair { a, b, weight } => format!(
            "{{\"op\": \"reweight_pair\", \"a\": {}, \"b\": {}, \"weight\": {weight}}}",
            a.index(),
            b.index()
        ),
        EditOp::SetTimingBound { a, b, bound } => match bound {
            Some(d) => format!(
                "{{\"op\": \"set_timing_bound\", \"a\": {}, \"b\": {}, \"bound\": {d}}}",
                a.index(),
                b.index()
            ),
            None => format!(
                "{{\"op\": \"set_timing_bound\", \"a\": {}, \"b\": {}}}",
                a.index(),
                b.index()
            ),
        },
        EditOp::TightenCycleTime { delta } => {
            format!("{{\"op\": \"tighten_cycle_time\", \"delta\": {delta}}}")
        }
    }
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

// --- minimal flat-JSON-object scanner -----------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Num(i64),
    Str(String),
}

fn parse_line(line: &str, lineno: usize) -> Result<Vec<(String, Scalar)>, ParseError> {
    let bad = || ParseError::BadArguments {
        line: lineno,
        expected: "a flat JSON object of string/integer fields",
    };
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(bad)?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // key
        rest = rest.strip_prefix('"').ok_or_else(bad)?;
        let end = rest.find('"').ok_or_else(bad)?;
        let key = rest[..end].to_string();
        rest = rest[end + 1..].trim_start();
        rest = rest.strip_prefix(':').ok_or_else(bad)?.trim_start();
        // value: string or integer
        if let Some(s) = rest.strip_prefix('"') {
            let end = s.find('"').ok_or_else(bad)?;
            fields.push((key, Scalar::Str(s[..end].to_string())));
            rest = s[end + 1..].trim_start();
        } else {
            let end = rest
                .find(|c: char| c == ',' || c.is_whitespace())
                .unwrap_or(rest.len());
            let num: i64 = rest[..end].parse().map_err(|_| bad())?;
            fields.push((key, Scalar::Num(num)));
            rest = rest[end..].trim_start();
        }
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(bad());
        }
    }
    Ok(fields)
}

fn field<'f>(fields: &'f [(String, Scalar)], key: &str) -> Option<&'f Scalar> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn comp_ref(
    fields: &[(String, Scalar)],
    key: &'static str,
    lineno: usize,
) -> Result<CompRef, ParseError> {
    match field(fields, key) {
        Some(Scalar::Num(i)) if *i >= 0 => Ok(CompRef::Id(*i as usize)),
        Some(Scalar::Str(s)) => Ok(CompRef::Name(s.clone())),
        _ => Err(ParseError::BadArguments {
            line: lineno,
            expected: "a component index or name",
        }),
    }
}

fn num(fields: &[(String, Scalar)], key: &'static str, lineno: usize) -> Result<i64, ParseError> {
    match field(fields, key) {
        Some(Scalar::Num(i)) => Ok(*i),
        _ => Err(ParseError::BadArguments {
            line: lineno,
            expected: "an integer field",
        }),
    }
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
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields = parse_line(line, lineno)?;
        let op_name = match field(&fields, "op") {
            Some(Scalar::Str(s)) => s.clone(),
            _ => {
                return Err(ParseError::BadArguments {
                    line: lineno,
                    expected: "an \"op\" field naming the edit",
                })
            }
        };
        let op = match op_name.as_str() {
            "add_component" => {
                let name = match field(&fields, "name") {
                    Some(Scalar::Str(s)) => s.clone(),
                    _ => {
                        return Err(ParseError::BadArguments {
                            line: lineno,
                            expected: "a \"name\" string field",
                        })
                    }
                };
                let size = num(&fields, "size", lineno)?;
                if size < 0 {
                    return Err(ParseError::BadArguments {
                        line: lineno,
                        expected: "a non-negative size",
                    });
                }
                ScriptOp::AddComponent {
                    name,
                    size: size as u64,
                }
            }
            "remove_component" => ScriptOp::RemoveComponent {
                c: comp_ref(&fields, "c", lineno)?,
            },
            "add_pair" => ScriptOp::AddPair {
                a: comp_ref(&fields, "a", lineno)?,
                b: comp_ref(&fields, "b", lineno)?,
                weight: num(&fields, "weight", lineno)?,
            },
            "remove_pair" => ScriptOp::RemovePair {
                a: comp_ref(&fields, "a", lineno)?,
                b: comp_ref(&fields, "b", lineno)?,
            },
            "reweight_pair" => ScriptOp::ReweightPair {
                a: comp_ref(&fields, "a", lineno)?,
                b: comp_ref(&fields, "b", lineno)?,
                weight: num(&fields, "weight", lineno)?,
            },
            "set_timing_bound" => ScriptOp::SetTimingBound {
                a: comp_ref(&fields, "a", lineno)?,
                b: comp_ref(&fields, "b", lineno)?,
                bound: field(&fields, "bound")
                    .map(|v| match v {
                        Scalar::Num(d) => Ok(*d),
                        _ => Err(ParseError::BadArguments {
                            line: lineno,
                            expected: "an integer bound",
                        }),
                    })
                    .transpose()?,
            },
            "tighten_cycle_time" => ScriptOp::TightenCycleTime {
                delta: num(&fields, "delta", lineno)?,
            },
            _ => {
                return Err(ParseError::UnknownDirective {
                    line: lineno,
                    directive: op_name,
                })
            }
        };
        ops.push((lineno, op));
    }
    Ok(ops)
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
