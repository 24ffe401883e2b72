//! The complete partitioning problem `PP(α, β)` and its builder.

use crate::{
    Assignment, Circuit, Cost, DenseMatrix, Error, PartitionTopology, TimingConstraints,
};
use serde::{Deserialize, Serialize};

/// A performance-driven partitioning problem `PP(α, β)`:
///
/// > minimize `α·Σ p[i][j]·x[i][j] + β·Σ a[j1][j2]·b[i1][i2]·x[i1][j1]·x[i2][j2]`
/// > subject to C1 (capacity), C2 (timing), C3 (one partition each).
///
/// Built via [`ProblemBuilder`], which validates that all the pieces agree on
/// dimensions. The linear term's `P` matrix is optional; when absent the
/// problem is a pure interconnect-cost minimization (`P = 0`).
///
/// Any `PP(α, β)` is equivalent to a `PP(1, 1)` on scaled matrices (§3); the
/// scale factors are retained here and applied on the fly by
/// [`Evaluator`](crate::Evaluator) and [`QMatrix`](crate::QMatrix), which is
/// equivalent and avoids copying.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    circuit: Circuit,
    topology: PartitionTopology,
    timing: TimingConstraints,
    linear_cost: Option<DenseMatrix<Cost>>,
    alpha: Cost,
    beta: Cost,
}

impl Problem {
    /// The circuit being partitioned.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The partition topology.
    pub fn topology(&self) -> &PartitionTopology {
        &self.topology
    }

    /// The sparse timing constraints `D_C`.
    pub fn timing(&self) -> &TimingConstraints {
        &self.timing
    }

    /// The linear cost matrix `P` (`M×N`), if any.
    pub fn linear_cost(&self) -> Option<&DenseMatrix<Cost>> {
        self.linear_cost.as_ref()
    }

    /// The entry `p[i][j]`, treating an absent `P` as all zeros.
    #[inline]
    pub fn p(&self, i: usize, j: usize) -> Cost {
        self.linear_cost.as_ref().map_or(0, |p| p[(i, j)])
    }

    /// Scale factor `α` of the linear term.
    pub fn alpha(&self) -> Cost {
        self.alpha
    }

    /// Scale factor `β` of the quadratic term.
    pub fn beta(&self) -> Cost {
        self.beta
    }

    /// Number of partitions `M`.
    pub fn m(&self) -> usize {
        self.topology.len()
    }

    /// Number of components `N`.
    pub fn n(&self) -> usize {
        self.circuit.len()
    }

    /// Returns a copy of this problem with `B` zeroed and the linear term
    /// dropped — the feasibility-search problem the paper uses to produce
    /// initial feasible solutions ("use QBP algorithm with matrix B set to
    /// all zeros").
    pub fn feasibility_problem(&self) -> Problem {
        Problem {
            circuit: self.circuit.clone(),
            topology: self.topology.zero_wire_cost(),
            timing: self.timing.clone(),
            linear_cost: None,
            alpha: 0,
            beta: 1,
        }
    }

    /// Returns a copy with the timing constraints removed (the paper's
    /// "without Timing Constraints" configuration, Table II).
    pub fn without_timing(&self) -> Problem {
        Problem {
            circuit: self.circuit.clone(),
            topology: self.topology.clone(),
            timing: TimingConstraints::new(self.circuit.len()),
            linear_cost: self.linear_cost.clone(),
            alpha: self.alpha,
            beta: self.beta,
        }
    }

    /// Returns a copy with different scale factors.
    ///
    /// # Errors
    ///
    /// Returns an error if either factor is negative.
    pub fn with_scales(&self, alpha: Cost, beta: Cost) -> Result<Problem, Error> {
        for (what, v) in [("alpha", alpha), ("beta", beta)] {
            if v < 0 {
                return Err(Error::NegativeValue { what, value: v });
            }
        }
        Ok(Problem {
            alpha,
            beta,
            ..self.clone()
        })
    }

    // ------------------------------------------------------------------
    // Audited ECO mutation entry points.
    //
    // These are the only ways to change a `Problem` after construction;
    // each preserves every invariant `ProblemBuilder::build` establishes
    // (dimensional agreement, non-negative weights, total size within total
    // capacity), so downstream incremental state (`QBody` patches) can
    // trust the problem it re-derives rows from. Higher-level delta
    // application lives in the `qbp-eco` crate.
    // ------------------------------------------------------------------

    /// Appends a new component, growing the timing-constraint dimension and
    /// (when a linear cost `P` is present) appending a zero cost column.
    /// Returns the new component's id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityImpossible`] when the enlarged total size
    /// exceeds the total capacity (the problem would have no feasible
    /// assignment); the problem is left unchanged in that case.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        size: crate::Size,
    ) -> Result<crate::ComponentId, Error> {
        let total_size = self.circuit.total_size() + size;
        let total_capacity = self.topology.total_capacity();
        if total_size > total_capacity {
            return Err(Error::CapacityImpossible {
                total_size,
                total_capacity,
            });
        }
        let id = self.circuit.add_component(name, size);
        self.timing.grow(self.circuit.len());
        if let Some(p) = self.linear_cost.take() {
            let m = p.rows();
            let n = p.cols();
            let grown = DenseMatrix::from_fn(m, n + 1, |i, j| if j < n { p[(i, j)] } else { 0 });
            self.linear_cost = Some(grown);
        }
        Ok(id)
    }

    /// Overwrites the symmetric connection weight of a pair
    /// (`a[a][b] = a[b][a] = weight`; 0 removes). Returns the previous
    /// `(a→b, b→a)` weights.
    ///
    /// # Errors
    ///
    /// Returns an error if either id is out of range, `a == b`, or the
    /// weight is negative.
    pub fn set_pair_weight(
        &mut self,
        a: crate::ComponentId,
        b: crate::ComponentId,
        weight: Cost,
    ) -> Result<(Cost, Cost), Error> {
        self.circuit.set_wires(a, b, weight)
    }

    /// Overwrites the symmetric timing bound on a pair (`None` removes; a
    /// bound of [`crate::NO_CONSTRAINT`] also removes). Returns the previous
    /// `(a→b, b→a)` bounds.
    ///
    /// # Errors
    ///
    /// Returns an error if either id is out of range, `a == b`, or the bound
    /// is negative.
    pub fn set_timing_bound(
        &mut self,
        a: crate::ComponentId,
        b: crate::ComponentId,
        bound: Option<crate::Delay>,
    ) -> Result<(Option<crate::Delay>, Option<crate::Delay>), Error> {
        let limit = bound.unwrap_or(crate::NO_CONSTRAINT);
        let ab = self.timing.set(a, b, limit)?;
        let ba = self.timing.set(b, a, limit)?;
        Ok((ab, ba))
    }

    /// Detaches a component: removes every connection and timing constraint
    /// incident to it, leaving an isolated zero-degree component so ids stay
    /// stable (the ECO semantics of "remove component"). Returns the number
    /// of directed connection records and constraints removed.
    ///
    /// # Errors
    ///
    /// Returns an error if `j` is out of range.
    pub fn detach_component(&mut self, j: crate::ComponentId) -> Result<(usize, usize), Error> {
        let edges = self.circuit.detach_component(j)?;
        let constraints = self.timing.detach(j)?;
        Ok((edges, constraints))
    }

    /// Tightens every timing bound by `delta` (clamping at 0): the global
    /// "cycle time shrank" edit. Returns the number of constraints changed.
    ///
    /// # Errors
    ///
    /// Returns an error if `delta` is negative.
    pub fn tighten_cycle_time(&mut self, delta: crate::Delay) -> Result<usize, Error> {
        self.timing.tighten_all(delta)
    }

    /// Checks an assignment vector has the right length and in-range
    /// partitions for this problem.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first mismatch found.
    pub fn validate_assignment(&self, assignment: &Assignment) -> Result<(), Error> {
        if assignment.len() != self.n() {
            return Err(Error::AssignmentLengthMismatch {
                expected: self.n(),
                found: assignment.len(),
            });
        }
        assignment.validate(self.m())
    }
}

/// Builder for [`Problem`], validating dimensional consistency at `build`.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut circuit = Circuit::new();
/// let a = circuit.add_component("a", 10);
/// let b = circuit.add_component("b", 20);
/// circuit.add_wires(a, b, 5)?;
///
/// let mut timing = TimingConstraints::new(2);
/// timing.add_symmetric(a, b, 1)?;
///
/// let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 50)?)
///     .timing(timing)
///     .scales(1, 1)
///     .build()?;
/// assert_eq!(problem.m(), 4);
/// assert_eq!(problem.n(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    circuit: Circuit,
    topology: PartitionTopology,
    timing: Option<TimingConstraints>,
    linear_cost: Option<DenseMatrix<Cost>>,
    alpha: Cost,
    beta: Cost,
    /// Name-referenced fluent edits, resolved (and validated) at `build`.
    pending: Vec<FluentOp>,
}

/// One deferred fluent-builder edit (names resolve at `build`).
#[derive(Debug, Clone)]
enum FluentOp {
    Pair(String, String, Cost),
    TimingBound(String, String, crate::Delay),
}

impl ProblemBuilder {
    /// Starts building a problem over the given circuit and topology.
    pub fn new(circuit: Circuit, topology: PartitionTopology) -> Self {
        ProblemBuilder {
            circuit,
            topology,
            timing: None,
            linear_cost: None,
            alpha: 1,
            beta: 1,
            pending: Vec::new(),
        }
    }

    /// Starts a *fluent* build over an empty circuit: declare components,
    /// pairs and timing bounds by name and let `build` resolve and validate
    /// everything, instead of hand-assembling a [`Circuit`] and
    /// [`TimingConstraints`] first.
    ///
    /// ```
    /// use qbp_core::{PartitionTopology, ProblemBuilder};
    ///
    /// # fn main() -> Result<(), qbp_core::Error> {
    /// let problem = ProblemBuilder::on(PartitionTopology::grid(2, 2, 100)?)
    ///     .component("alu", 40)
    ///     .component("cache", 30)
    ///     .pair("alu", "cache", 5)
    ///     .timing_bound("alu", "cache", 1)
    ///     .build()?;
    /// assert_eq!(problem.n(), 2);
    /// assert_eq!(problem.timing().len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn on(topology: PartitionTopology) -> Self {
        ProblemBuilder::new(Circuit::new(), topology)
    }

    /// Fluent shorthand for [`ProblemBuilder::on`] with `m` identical
    /// partitions of the given capacity in a row (zero inter-partition
    /// structure beyond the 1×m grid).
    ///
    /// # Errors
    ///
    /// Returns an error when `m` is 0 (an empty topology).
    pub fn uniform(m: usize, capacity: crate::Size) -> Result<Self, Error> {
        Ok(ProblemBuilder::on(PartitionTopology::grid(1, m, capacity)?))
    }

    /// Declares a component (fluent form of [`Circuit::add_component`]).
    pub fn component(mut self, name: impl Into<String>, size: crate::Size) -> Self {
        self.circuit.add_component(name, size);
        self
    }

    /// Declares `weight` wires between two named components in both
    /// directions (fluent form of [`Circuit::add_wires`]; resolved and
    /// validated at `build`).
    pub fn pair(mut self, a: impl Into<String>, b: impl Into<String>, weight: Cost) -> Self {
        self.pending.push(FluentOp::Pair(a.into(), b.into(), weight));
        self
    }

    /// Declares a symmetric timing bound between two named components
    /// (fluent form of [`TimingConstraints::add_symmetric`]; resolved and
    /// validated at `build`).
    pub fn timing_bound(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        max_delay: crate::Delay,
    ) -> Self {
        self.pending
            .push(FluentOp::TimingBound(a.into(), b.into(), max_delay));
        self
    }

    /// Sets the timing constraints (default: none).
    pub fn timing(mut self, timing: TimingConstraints) -> Self {
        self.timing = Some(timing);
        self
    }

    /// Sets the linear cost matrix `P` (`M×N`; default: zero).
    pub fn linear_cost(mut self, p: DenseMatrix<Cost>) -> Self {
        self.linear_cost = Some(p);
        self
    }

    /// Sets the scale factors `(α, β)` (default: `(1, 1)`).
    pub fn scales(mut self, alpha: Cost, beta: Cost) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Number of partitions in the topology being built (used by the text
    /// parser to size the linear-cost matrix before `build`).
    pub fn topology_len(&self) -> usize {
        self.topology.len()
    }

    /// Number of components in the circuit being built.
    pub fn circuit_len(&self) -> usize {
        self.circuit.len()
    }

    /// Validates and builds the problem.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit is empty, dimensions disagree, the
    /// scale factors or any `P` entry are negative, or the total component
    /// size exceeds the total capacity (no assignment could satisfy C1).
    pub fn build(mut self) -> Result<Problem, Error> {
        let n = self.circuit.len();
        let m = self.topology.len();
        if n == 0 {
            return Err(Error::EmptyCircuit);
        }
        let mut timing = self.timing.unwrap_or_else(|| TimingConstraints::new(n));
        if !self.pending.is_empty() {
            let names: std::collections::HashMap<String, crate::ComponentId> = self
                .circuit
                .iter()
                .map(|(id, c)| (c.name().to_string(), id))
                .collect();
            let resolve = |name: &str| {
                names
                    .get(name)
                    .copied()
                    .ok_or_else(|| Error::UnknownComponentName(name.to_string()))
            };
            for op in std::mem::take(&mut self.pending) {
                match op {
                    FluentOp::Pair(a, b, w) => {
                        self.circuit.add_wires(resolve(&a)?, resolve(&b)?, w)?;
                    }
                    FluentOp::TimingBound(a, b, dc) => {
                        timing.add_symmetric(resolve(&a)?, resolve(&b)?, dc)?;
                    }
                }
            }
        }
        let timing = timing;
        if timing.component_count() != n {
            return Err(Error::DimensionMismatch {
                what: "timing constraints",
                expected: (n, n),
                found: (timing.component_count(), timing.component_count()),
            });
        }
        if let Some(p) = &self.linear_cost {
            if p.rows() != m || p.cols() != n {
                return Err(Error::DimensionMismatch {
                    what: "linear cost matrix P",
                    expected: (m, n),
                    found: (p.rows(), p.cols()),
                });
            }
            if let Some(&v) = p.iter().find(|&&v| v < 0) {
                return Err(Error::NegativeValue {
                    what: "linear cost",
                    value: v,
                });
            }
        }
        for (what, v) in [("alpha", self.alpha), ("beta", self.beta)] {
            if v < 0 {
                return Err(Error::NegativeValue { what, value: v });
            }
        }
        let total_size = self.circuit.total_size();
        let total_capacity = self.topology.total_capacity();
        if total_size > total_capacity {
            return Err(Error::CapacityImpossible {
                total_size,
                total_capacity,
            });
        }
        Ok(Problem {
            circuit: self.circuit,
            topology: self.topology,
            timing,
            linear_cost: self.linear_cost,
            alpha: self.alpha,
            beta: self.beta,
        })
    }
}

/// Builds the MCM/TCM *deviation* cost matrix of §2.2.1:
/// `p[i][j] = s_j · distance(i, A_initial(j))`, where the distance is the
/// topology's wire-cost matrix `B` (Manhattan distance for grid topologies).
///
/// Solving `PP(1, 0)` with this `P` finds the feasible assignment that
/// minimally deviates from an experienced designer's initial (possibly
/// violating) assignment.
///
/// # Errors
///
/// Returns an error if the assignment length does not match the circuit or
/// references a partition outside the topology.
pub fn deviation_cost_matrix(
    circuit: &Circuit,
    topology: &PartitionTopology,
    initial: &Assignment,
) -> Result<DenseMatrix<Cost>, Error> {
    if initial.len() != circuit.len() {
        return Err(Error::AssignmentLengthMismatch {
            expected: circuit.len(),
            found: initial.len(),
        });
    }
    initial.validate(topology.len())?;
    let m = topology.len();
    let n = circuit.len();
    let b = topology.wire_cost();
    let mut p = DenseMatrix::filled(m, n, 0);
    for j in 0..n {
        let size = circuit.size(crate::ComponentId::new(j)) as Cost;
        let home = initial.part_index(j);
        for i in 0..m {
            p[(i, j)] = size * b[(i, home)];
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComponentId;

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_component("a", 10);
        let b = c.add_component("b", 20);
        let d = c.add_component("c", 15);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(b, d, 2).unwrap();
        c
    }

    // Ported to the fluent constructor: same structure and assertions as the
    // historical hand-assembled version, built by name instead.
    #[test]
    fn builder_defaults() {
        let p = ProblemBuilder::on(PartitionTopology::grid(2, 2, 100).unwrap())
            .component("a", 10)
            .component("b", 20)
            .component("c", 15)
            .pair("a", "b", 5)
            .pair("b", "c", 2)
            .build()
            .unwrap();
        assert_eq!(p.m(), 4);
        assert_eq!(p.n(), 3);
        assert_eq!((p.alpha(), p.beta()), (1, 1));
        assert!(p.linear_cost().is_none());
        assert_eq!(p.p(3, 2), 0);
        assert!(p.timing().is_empty());
        // The fluent build is the same problem the hand-assembled path makes.
        let hand = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .build()
            .unwrap();
        assert_eq!(p, hand);
    }

    #[test]
    fn builder_rejects_empty_circuit() {
        let r = ProblemBuilder::new(Circuit::new(), PartitionTopology::grid(2, 2, 1).unwrap())
            .build();
        assert_eq!(r.unwrap_err(), Error::EmptyCircuit);
    }

    // Ported to the fluent constructor (was hand-assembled via small_circuit).
    #[test]
    fn builder_rejects_capacity_impossible() {
        let r = ProblemBuilder::on(PartitionTopology::grid(2, 2, 10).unwrap())
            .component("a", 10)
            .component("b", 20)
            .component("c", 15)
            .pair("a", "b", 5)
            .build();
        assert!(matches!(r, Err(Error::CapacityImpossible { .. })));
    }

    #[test]
    fn fluent_builder_resolves_names_and_bounds() {
        let p = ProblemBuilder::uniform(3, 50)
            .unwrap()
            .component("x", 10)
            .component("y", 20)
            .pair("x", "y", 4)
            .timing_bound("x", "y", 1)
            .build()
            .unwrap();
        assert_eq!(p.m(), 3);
        let (x, y) = (ComponentId::new(0), ComponentId::new(1));
        assert_eq!(p.circuit().connection(x, y), 4);
        assert_eq!(p.circuit().connection(y, x), 4);
        assert_eq!(p.timing().get(x, y), Some(1));
        assert_eq!(p.timing().get(y, x), Some(1));
    }

    #[test]
    fn fluent_builder_rejects_unknown_names() {
        let r = ProblemBuilder::uniform(2, 50)
            .unwrap()
            .component("x", 1)
            .pair("x", "ghost", 1)
            .build();
        assert_eq!(r.unwrap_err(), Error::UnknownComponentName("ghost".into()));
        let r = ProblemBuilder::uniform(2, 50)
            .unwrap()
            .component("x", 1)
            .component("y", 1)
            .timing_bound("phantom", "y", 2)
            .build();
        assert!(matches!(r, Err(Error::UnknownComponentName(_))));
    }

    #[test]
    fn mutation_entry_points_preserve_invariants() {
        let mut p = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .build()
            .unwrap();
        let (a, b) = (ComponentId::new(0), ComponentId::new(1));
        // Pair weight overwrite, both directions.
        assert_eq!(p.set_pair_weight(a, b, 9).unwrap(), (5, 5));
        assert_eq!(p.circuit().connection(a, b), 9);
        assert_eq!(p.circuit().connection(b, a), 9);
        // Timing bound set / remove.
        assert_eq!(p.set_timing_bound(a, b, Some(3)).unwrap(), (None, None));
        assert_eq!(p.timing().len(), 2);
        assert_eq!(
            p.set_timing_bound(a, b, None).unwrap(),
            (Some(3), Some(3))
        );
        assert!(p.timing().is_empty());
        // Component append grows timing and respects capacity.
        let id = p.add_component("late", 7).unwrap();
        assert_eq!(id.index(), 3);
        assert_eq!(p.n(), 4);
        assert_eq!(p.timing().component_count(), 4);
        assert!(matches!(
            p.add_component("whale", 100_000),
            Err(Error::CapacityImpossible { .. })
        ));
        assert_eq!(p.n(), 4, "failed add must leave the problem unchanged");
        // Detach keeps ids stable.
        let (edges, _) = p.detach_component(b).unwrap();
        assert_eq!(edges, 4);
        assert_eq!(p.n(), 4);
        // Cycle-time tightening clamps at zero.
        p.set_timing_bound(a, id, Some(2)).unwrap();
        assert_eq!(p.tighten_cycle_time(1).unwrap(), 2);
        assert_eq!(p.timing().get(a, id), Some(1));
    }

    #[test]
    fn add_component_grows_linear_cost_with_zero_column() {
        let c = small_circuit();
        let topo = PartitionTopology::grid(2, 2, 100).unwrap();
        let initial = Assignment::from_parts(vec![0, 3, 1]).unwrap();
        let pmat = deviation_cost_matrix(&c, &topo, &initial).unwrap();
        let mut p = ProblemBuilder::new(c, topo).linear_cost(pmat).build().unwrap();
        p.add_component("late", 1).unwrap();
        let lc = p.linear_cost().unwrap();
        assert_eq!((lc.rows(), lc.cols()), (4, 4));
        for i in 0..4 {
            assert_eq!(p.p(i, 3), 0);
        }
        // Pre-existing entries survive untouched.
        assert_eq!(p.p(3, 0), 10 * 2);
    }

    #[test]
    fn builder_rejects_wrong_p_shape() {
        let p = DenseMatrix::filled(3, 3, 0);
        let r = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .linear_cost(p)
            .build();
        assert!(matches!(r, Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn builder_rejects_wrong_timing_size() {
        let r = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .timing(TimingConstraints::new(7))
            .build();
        assert!(matches!(r, Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn builder_rejects_negative_scales_and_p() {
        let topo = PartitionTopology::grid(2, 2, 100).unwrap();
        assert!(matches!(
            ProblemBuilder::new(small_circuit(), topo.clone())
                .scales(-1, 1)
                .build(),
            Err(Error::NegativeValue { .. })
        ));
        let mut p = DenseMatrix::filled(4, 3, 0);
        p[(0, 0)] = -2;
        assert!(matches!(
            ProblemBuilder::new(small_circuit(), topo).linear_cost(p).build(),
            Err(Error::NegativeValue { .. })
        ));
    }

    #[test]
    fn feasibility_problem_zeroes_b_keeps_timing() {
        let mut tc = TimingConstraints::new(3);
        tc.add(ComponentId::new(0), ComponentId::new(1), 1).unwrap();
        let p = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        let f = p.feasibility_problem();
        assert_eq!(f.topology().wire_cost().max_entry(), 0);
        assert_eq!(f.timing().len(), 1);
        assert_eq!(f.alpha(), 0);
    }

    #[test]
    fn without_timing_drops_constraints() {
        let mut tc = TimingConstraints::new(3);
        tc.add(ComponentId::new(0), ComponentId::new(1), 1).unwrap();
        let p = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        assert!(p.without_timing().timing().is_empty());
        assert_eq!(p.timing().len(), 1);
    }

    #[test]
    fn validate_assignment() {
        let p = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .build()
            .unwrap();
        let good = Assignment::from_parts(vec![0, 1, 3]).unwrap();
        assert!(p.validate_assignment(&good).is_ok());
        let short = Assignment::from_parts(vec![0, 1]).unwrap();
        assert!(matches!(
            p.validate_assignment(&short),
            Err(Error::AssignmentLengthMismatch { .. })
        ));
        let bad = Assignment::from_parts(vec![0, 1, 9]).unwrap();
        assert!(matches!(
            p.validate_assignment(&bad),
            Err(Error::PartitionOutOfRange { .. })
        ));
    }

    #[test]
    fn deviation_matrix_matches_definition() {
        let c = small_circuit();
        let topo = PartitionTopology::grid(2, 2, 100).unwrap();
        let initial = Assignment::from_parts(vec![0, 3, 1]).unwrap();
        let p = deviation_cost_matrix(&c, &topo, &initial).unwrap();
        // p[i][j] = s_j * manhattan(i, initial_j).
        assert_eq!(p[(0, 0)], 0); // already home
        assert_eq!(p[(3, 0)], 10 * 2); // size 10, distance 2
        assert_eq!(p[(0, 1)], 20 * 2);
        assert_eq!(p[(1, 2)], 0);
        assert_eq!(p[(2, 2)], 15 * 2);
    }

    #[test]
    fn deviation_matrix_validates_input() {
        let c = small_circuit();
        let topo = PartitionTopology::grid(2, 2, 100).unwrap();
        let bad_len = Assignment::from_parts(vec![0, 1]).unwrap();
        assert!(deviation_cost_matrix(&c, &topo, &bad_len).is_err());
        let bad_part = Assignment::from_parts(vec![0, 1, 8]).unwrap();
        assert!(deviation_cost_matrix(&c, &topo, &bad_part).is_err());
    }

    #[test]
    fn with_scales_validates() {
        let p = ProblemBuilder::new(small_circuit(), PartitionTopology::grid(2, 2, 100).unwrap())
            .build()
            .unwrap();
        assert!(p.with_scales(2, 3).is_ok());
        assert!(p.with_scales(-1, 0).is_err());
    }
}
