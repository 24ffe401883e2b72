//! Hierarchical circuit generation — a second synthetic family with the
//! recursive module structure (and Rent-style wire-length statistics) that
//! real RTL hierarchies exhibit.
//!
//! Components are the leaves of a balanced module tree; wires are drawn
//! between pairs whose lowest common ancestor sits at a tree level chosen
//! from a geometric distribution: most wires stay inside leaf modules, a
//! controlled fraction crosses higher levels. This family stresses
//! partitioners differently from [`SyntheticCircuit`](crate::SyntheticCircuit)'s
//! spatial clustering: the "natural clusters" are exactly the modules, so a
//! good partitioner's cut should track module boundaries.

use qbp_core::{Circuit, ComponentId, Cost, Size};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configurable hierarchical generator.
///
/// ```
/// use qbp_gen::HierarchicalCircuit;
///
/// let circuit = HierarchicalCircuit::new(64, 300).seed(3).build();
/// assert_eq!(circuit.len(), 64);
/// assert_eq!(circuit.total_wire_weight(), 2 * 300);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalCircuit {
    components: usize,
    wires: Cost,
    branching: usize,
    locality: f64,
    size_min: Size,
    size_max: Size,
    seed: u64,
}

impl HierarchicalCircuit {
    /// A generator for `components` leaves and `wires` symmetric wires.
    pub fn new(components: usize, wires: Cost) -> Self {
        HierarchicalCircuit {
            components,
            wires,
            branching: 4,
            locality: 0.65,
            size_min: 2,
            size_max: 200,
            seed: 0x4149,
        }
    }

    /// Module-tree branching factor (default 4).
    pub fn branching(mut self, branching: usize) -> Self {
        assert!(branching >= 2, "branching must be at least 2");
        self.branching = branching;
        self
    }

    /// Probability that a wire stays within the current module at each tree
    /// level (default 0.65): higher = more local wiring, fewer global nets.
    pub fn locality(mut self, locality: f64) -> Self {
        assert!((0.0..1.0).contains(&locality), "locality in [0, 1)");
        self.locality = locality;
        self
    }

    /// Component size range (log-uniform, like the paper's circuits).
    pub fn size_range(mut self, min: Size, max: Size) -> Self {
        assert!(min >= 1 && max >= min, "need 1 <= min <= max");
        self.size_min = min;
        self.size_max = max;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the circuit.
    ///
    /// # Panics
    ///
    /// Panics when wires are requested with fewer than two components.
    pub fn build(&self) -> Circuit {
        assert!(
            self.wires == 0 || self.components >= 2,
            "wires require at least two components"
        );
        let n = self.components;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut circuit = Circuit::with_capacity(n);
        let (lo, hi) = ((self.size_min as f64).ln(), (self.size_max as f64).ln());
        for j in 0..n {
            let size = (lo + (hi - lo) * rng.random::<f64>()).exp().round() as Size;
            circuit.add_component(format!("leaf{j}"), size.max(1));
        }
        if n < 2 || self.wires == 0 {
            return circuit;
        }
        // Leaves in index order are the tree's leaf order; the module at
        // level L containing leaf j spans `branching^L` consecutive leaves.
        let mut remaining = self.wires;
        while remaining > 0 {
            let a = rng.random_range(0..n);
            // Walk up the tree geometrically: stay local with probability
            // `locality` per level.
            let mut span = self.branching;
            while span < n && rng.random::<f64>() > self.locality {
                span *= self.branching;
            }
            let span = span.min(n);
            let base = (a / span) * span;
            let width = span.min(n - base);
            if width < 2 {
                continue;
            }
            let mut b = base + rng.random_range(0..width);
            let mut guard = 0;
            while b == a && guard < 8 {
                b = base + rng.random_range(0..width);
                guard += 1;
            }
            if b == a {
                continue;
            }
            let w = rng.random_range(1..=3).min(remaining);
            circuit
                .add_wires(ComponentId::new(a), ComponentId::new(b), w)
                .expect("valid distinct pair");
            remaining -= w;
        }
        circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_requested_statistics() {
        let c = HierarchicalCircuit::new(100, 400).seed(1).build();
        assert_eq!(c.len(), 100);
        assert_eq!(c.total_wire_weight(), 800);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = HierarchicalCircuit::new(50, 200).seed(9).build();
        let b = HierarchicalCircuit::new(50, 200).seed(9).build();
        let c = HierarchicalCircuit::new(50, 200).seed(10).build();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn locality_concentrates_wires_in_modules() {
        // Count wires fully inside the 16-leaf level-2 modules.
        let inside = |c: &Circuit| -> usize {
            c.edges()
                .filter(|(a, b, _)| a.index() / 16 == b.index() / 16)
                .count()
        };
        let local = HierarchicalCircuit::new(64, 400).locality(0.9).seed(4).build();
        let global = HierarchicalCircuit::new(64, 400).locality(0.05).seed(4).build();
        assert!(
            inside(&local) > inside(&global),
            "high locality must concentrate wires ({} vs {})",
            inside(&local),
            inside(&global)
        );
    }

    #[test]
    fn no_self_loops_and_symmetric() {
        let c = HierarchicalCircuit::new(40, 200).seed(6).build();
        for (a, b, w) in c.edges() {
            assert_ne!(a, b);
            assert!(w > 0);
            assert_eq!(c.connection(b, a), c.connection(a, b));
        }
    }

    #[test]
    fn zero_wires_and_custom_branching() {
        let c = HierarchicalCircuit::new(27, 0).branching(3).build();
        assert_eq!(c.directed_edge_count(), 0);
        let c = HierarchicalCircuit::new(27, 100).branching(3).seed(2).build();
        assert_eq!(c.total_wire_weight(), 200);
    }

    #[test]
    fn partitioner_recovers_module_structure() {
        // Four 16-leaf modules onto four partitions: the min-cut partition
        // should place most of each module together.
        use qbp_core::{PartitionTopology, ProblemBuilder};
        let circuit = HierarchicalCircuit::new(64, 500)
            .locality(0.9)
            .size_range(2, 4)
            .seed(8)
            .build();
        let total = circuit.total_size();
        let topo = PartitionTopology::uniform(4, total / 4 + 24).expect("uniform");
        let problem = ProblemBuilder::new(circuit, topo).build().expect("problem");
        let solver = qbp_solver::QbpSolver::new(qbp_solver::QbpConfig {
            iterations: 60,
            ..qbp_solver::QbpConfig::default()
        });
        let out = qbp_solver::Solver::solve(&solver, &problem, None, &mut qbp_observe::NoopObserver)
            .expect("solve");
        assert!(out.feasible);
        // The cut should be well below a random 4-way partition's expected
        // 75% of wires.
        let cut = out.objective / 2;
        let wires = problem.circuit().total_wire_weight() / 2;
        assert!(
            cut * 2 < wires,
            "cut {cut} should be far below half the {wires} wires"
        );
    }
}
