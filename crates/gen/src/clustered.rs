//! Streamed million-component clustered circuit generation.
//!
//! [`SyntheticCircuit`](crate::SyntheticCircuit) finds each component's
//! spatial neighbor pool with a strip scan: about a millisecond at the
//! paper's ~550 components, but `O(N^1.5)` time on its uniform positions,
//! and it holds the whole circuit in memory. This generator gets the same
//! *clustered* connectivity structure directly from construction:
//! components are grouped into fixed-size clusters (ring + random chords
//! inside each cluster, sparse links between adjacent clusters), which is
//! both `O(N)` to generate and a realistic stand-in for hierarchical
//! netlists.
//!
//! Two consumption paths share one deterministic generation skeleton (each
//! phase re-seeds its own RNG, so they emit identical circuits):
//!
//! * [`ClusteredCircuit::write_qbp`] streams `.qbp` lines straight to any
//!   writer — the edge set is never held in memory, so a million-component
//!   file costs `O(M + cluster)` working memory to emit;
//! * [`ClusteredCircuit::build_problem`] assembles the [`Problem`] in memory
//!   together with the planted witness assignment (cluster `k` → partition
//!   `k mod M`), which is feasible by construction: every timing constraint
//!   is intra-cluster (co-located under the witness, delay 0) and the
//!   uniform capacity is the maximum witness partition load plus slack.

use qbp_core::{
    Assignment, Circuit, ComponentId, Cost, Delay, PartitionTopology, Problem, ProblemBuilder,
    Size, TimingConstraints,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Write;

/// Configurable streamed generator for clustered circuits. See the module
/// docs for the structure it emits.
///
/// ```
/// use qbp_gen::ClusteredCircuit;
///
/// let (problem, witness) = ClusteredCircuit::new(200).seed(7).build_problem().unwrap();
/// assert_eq!(problem.n(), 200);
/// assert!(qbp_core::check_feasibility(&problem, &witness).is_feasible());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteredCircuit {
    components: usize,
    cluster: usize,
    chords_per_cluster: usize,
    inter_links: usize,
    timing_per_cluster: usize,
    grid: (usize, usize),
    capacity_slack_pct: u64,
    seed: u64,
}

impl ClusteredCircuit {
    /// A generator for `components` components on the paper's 4×4 grid,
    /// with 16-component clusters, two random intra-cluster chords and one
    /// timing constraint per cluster, and two links between adjacent
    /// clusters.
    pub fn new(components: usize) -> ClusteredCircuit {
        ClusteredCircuit {
            components,
            cluster: 16,
            chords_per_cluster: 2,
            inter_links: 2,
            timing_per_cluster: 1,
            grid: (4, 4),
            capacity_slack_pct: 25,
            seed: 0xC1_057E5,
        }
    }

    /// RNG seed — generation is fully deterministic per seed.
    pub fn seed(mut self, seed: u64) -> ClusteredCircuit {
        self.seed = seed;
        self
    }

    /// Components per cluster (≥ 2). Default 16.
    pub fn cluster_size(mut self, cluster: usize) -> ClusteredCircuit {
        assert!(cluster >= 2, "clusters need at least 2 components");
        self.cluster = cluster;
        self
    }

    /// Timing constraints planted per cluster (all intra-cluster, so the
    /// witness stays feasible). Default 1.
    pub fn timing_per_cluster(mut self, t: usize) -> ClusteredCircuit {
        self.timing_per_cluster = t;
        self
    }

    /// Number of partitions (`rows × cols` of the Manhattan grid).
    pub fn partitions(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    fn cluster_count(&self) -> usize {
        self.components.div_ceil(self.cluster)
    }

    fn cluster_bounds(&self, k: usize) -> (usize, usize) {
        let start = k * self.cluster;
        (start, ((k + 1) * self.cluster).min(self.components))
    }

    /// Phase A: log-uniform component sizes (2..=200, the paper's "about 2
    /// orders of magnitude"), plus the witness partition loads they imply.
    fn sizes_pass(&self, mut f: impl FnMut(usize, Size)) -> Vec<Size> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let m = self.partitions();
        let mut loads = vec![0u64; m];
        let (lo, hi) = (2f64.ln(), 200f64.ln());
        for j in 0..self.components {
            let size = ((lo + (hi - lo) * rng.random::<f64>()).exp().round() as Size).max(1);
            loads[(j / self.cluster) % m] += size;
            f(j, size);
        }
        loads
    }

    /// Phase B: intra-cluster ring + chords, then sparse inter-cluster
    /// links. Symmetric wires.
    fn edges_pass(&self, mut f: impl FnMut(usize, usize, Cost)) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0ED_6E5);
        let clusters = self.cluster_count();
        for k in 0..clusters {
            let (start, end) = self.cluster_bounds(k);
            let len = end - start;
            if len < 2 {
                continue;
            }
            for j in start..end - 1 {
                f(j, j + 1, rng.random_range(1..=3));
            }
            if len >= 3 {
                f(end - 1, start, rng.random_range(1..=3));
            }
            for _ in 0..self.chords_per_cluster {
                let a = start + rng.random_range(0..len);
                let b = start + rng.random_range(0..len);
                if a != b {
                    f(a, b, rng.random_range(1..=2));
                }
            }
        }
        for k in 0..clusters.saturating_sub(1) {
            let (a0, a1) = self.cluster_bounds(k);
            let (b0, b1) = self.cluster_bounds(k + 1);
            for _ in 0..self.inter_links {
                let a = a0 + rng.random_range(0..a1 - a0);
                let b = b0 + rng.random_range(0..b1 - b0);
                f(a, b, 1);
            }
            // One longer-range net every fourth cluster, so the instance is
            // not a pure chain of clusters.
            if k % 4 == 0 && k + 2 < clusters {
                let target = k + 2 + rng.random_range(0..clusters - k - 2);
                let (c0, c1) = self.cluster_bounds(target);
                let a = a0 + rng.random_range(0..a1 - a0);
                let b = c0 + rng.random_range(0..c1 - c0);
                f(a, b, 1);
            }
        }
    }

    /// Phase C: intra-cluster timing constraints (limit 0..=2 — co-located
    /// endpoints under the witness see delay 0, so any non-negative limit is
    /// satisfied).
    fn timing_pass(&self, mut f: impl FnMut(usize, usize, Delay)) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0071_3176);
        for k in 0..self.cluster_count() {
            let (start, end) = self.cluster_bounds(k);
            let len = end - start;
            if len < 2 {
                continue;
            }
            for _ in 0..self.timing_per_cluster {
                let a = start + rng.random_range(0..len);
                let b = start + rng.random_range(0..len);
                if a != b {
                    f(a, b, rng.random_range(0..=2));
                }
            }
        }
    }

    /// Uniform partition capacity: the maximum witness partition load plus
    /// the configured slack, so the planted witness always fits.
    fn capacity_from(&self, loads: &[Size]) -> Size {
        let max = loads.iter().copied().max().unwrap_or(1).max(1);
        max + max * self.capacity_slack_pct / 100
    }

    /// Streams the instance as `.qbp` text. Working memory is `O(M)` — the
    /// edge and timing phases go straight from the RNG to `w`, so a
    /// million-component file never exists in memory.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `w`.
    pub fn write_qbp<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "# clustered instance: {} components, seed {}", self.components, self.seed)?;
        writeln!(w, "qbp 1")?;
        let mut err = None;
        let loads = self.sizes_pass(|j, size| {
            if err.is_none() {
                err = writeln!(w, "component blk{j} {size}").err();
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        writeln!(w, "grid {} {} {}", self.grid.0, self.grid.1, self.capacity_from(&loads))?;
        let mut err = None;
        self.edges_pass(|a, b, wires| {
            if err.is_none() {
                err = writeln!(w, "wires {a} {b} {wires}").err();
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        let mut err = None;
        self.timing_pass(|a, b, limit| {
            if err.is_none() {
                err = writeln!(w, "timing {a} {b} {limit}").err();
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Assembles the instance in memory, together with the planted witness
    /// (cluster `k` → partition `k mod M`), which is feasible by
    /// construction. Bit-identical to parsing [`ClusteredCircuit::write_qbp`]
    /// output (tested).
    ///
    /// # Errors
    ///
    /// Propagates [`qbp_core::Error`] from problem assembly (not expected
    /// for any valid configuration).
    pub fn build_problem(&self) -> Result<(Problem, Assignment), qbp_core::Error> {
        let mut circuit = Circuit::with_capacity(self.components);
        let loads = self.sizes_pass(|j, size| {
            circuit.add_component(format!("blk{j}"), size);
        });
        let mut err = None;
        self.edges_pass(|a, b, w| {
            if err.is_none() {
                err = circuit
                    .add_wires(ComponentId::new(a), ComponentId::new(b), w)
                    .err();
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        let mut timing = TimingConstraints::new(self.components);
        let mut err = None;
        self.timing_pass(|a, b, limit| {
            if err.is_none() {
                err = timing
                    .add(ComponentId::new(a), ComponentId::new(b), limit)
                    .err();
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        let topology = PartitionTopology::grid(self.grid.0, self.grid.1, self.capacity_from(&loads))?;
        let m = self.partitions();
        let problem = ProblemBuilder::new(circuit, topology).timing(timing).build()?;
        let parts: Vec<u32> = (0..self.components)
            .map(|j| ((j / self.cluster) % m) as u32)
            .collect();
        let witness = Assignment::from_parts(parts)?;
        Ok((problem, witness))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::io::read_problem;

    #[test]
    fn witness_is_feasible_by_construction() {
        for n in [5, 40, 333, 1000] {
            let (problem, witness) = ClusteredCircuit::new(n).seed(3).build_problem().unwrap();
            assert_eq!(problem.n(), n);
            assert!(
                qbp_core::check_feasibility(&problem, &witness).is_feasible(),
                "witness infeasible at n = {n}"
            );
        }
    }

    #[test]
    fn streamed_qbp_round_trips_to_the_built_problem() {
        let gen = ClusteredCircuit::new(150).seed(11);
        let mut text = Vec::new();
        gen.write_qbp(&mut text).unwrap();
        let parsed = read_problem(std::io::Cursor::new(&text)).unwrap();
        let (built, _) = gen.build_problem().unwrap();
        assert_eq!(parsed, built);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ClusteredCircuit::new(100).seed(5).build_problem().unwrap();
        let b = ClusteredCircuit::new(100).seed(5).build_problem().unwrap();
        let c = ClusteredCircuit::new(100).seed(6).build_problem().unwrap();
        assert_eq!(a.0, b.0);
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn generation_is_linear_ish_in_components() {
        // The point of this generator: 50k components must be instant (the
        // neighbor-pool generator would take minutes here).
        let start = std::time::Instant::now();
        let (problem, _) = ClusteredCircuit::new(50_000).build_problem().unwrap();
        assert_eq!(problem.n(), 50_000);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "clustered generation too slow: {:?}",
            start.elapsed()
        );
    }
}
