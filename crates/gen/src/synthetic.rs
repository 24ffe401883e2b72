//! Synthetic "industrial-like" circuit generation.
//!
//! The paper evaluates on seven proprietary industrial circuits, described
//! only by their statistics (Table I): component count, wire count, timing
//! constraint count, with component sizes "ranging about 2 orders of
//! magnitude in the same circuit". This generator reproduces those
//! statistics: log-uniform sizes, and spatially clustered connectivity
//! (components get virtual positions; wires prefer near neighbors), which
//! gives the locality structure real netlists have and which partitioners
//! exploit.

use qbp_core::{Circuit, ComponentId, Cost, Size};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configurable generator for synthetic circuits.
///
/// Each component gets a virtual position in the unit square and a
/// neighbor pool: the 12 other components nearest to it, by squared
/// distance with ties to the lower index. A local wire (probability
/// [`locality`](SyntheticCircuit::locality)) draws its far endpoint from
/// the near endpoint's pool. The pools come from a strip scan that reads
/// about `√(12·N)` candidates per component on uniform positions, so
/// generation takes `O(N^1.5)` time and `O(N)` memory beyond the circuit.
/// On a 2-vCPU x86-64 host a full-scale suite circuit (339–607
/// components) builds in about a millisecond, a 16× copy (up to 9 712
/// components) in 8–24 ms.
///
/// ```
/// use qbp_gen::SyntheticCircuit;
///
/// let circuit = SyntheticCircuit::new(50, 300).seed(7).build();
/// assert_eq!(circuit.len(), 50);
/// // Total symmetric wire count matches the request.
/// assert_eq!(circuit.total_wire_weight(), 2 * 300);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticCircuit {
    components: usize,
    wires: Cost,
    size_min: Size,
    size_max: Size,
    locality: f64,
    neighbor_pool: usize,
    max_bundle: Cost,
    seed: u64,
}

impl SyntheticCircuit {
    /// A generator for `components` components connected by `wires` wires
    /// (counting each symmetric wire once; the `A` matrix sums to twice
    /// this).
    pub fn new(components: usize, wires: Cost) -> Self {
        SyntheticCircuit {
            components,
            wires,
            size_min: 2,
            size_max: 200,
            locality: 0.8,
            neighbor_pool: 12,
            max_bundle: 4,
            seed: 0x0510_CEA7,
        }
    }

    /// Sets the size range; sizes are drawn log-uniformly so the ratio
    /// `size_max / size_min` spans the paper's "about 2 orders of magnitude"
    /// with the defaults.
    pub fn size_range(mut self, min: Size, max: Size) -> Self {
        assert!(min >= 1 && max >= min, "need 1 <= min <= max");
        self.size_min = min;
        self.size_max = max;
        self
    }

    /// Probability that a wire's far endpoint is drawn from the near
    /// endpoint's spatial neighborhood rather than uniformly (0 = random
    /// graph, 1 = fully local). Default 0.8.
    pub fn locality(mut self, locality: f64) -> Self {
        assert!((0.0..=1.0).contains(&locality), "locality in [0, 1]");
        self.locality = locality;
        self
    }

    /// Maximum wires added per sampled pair (bundles model buses). Default 4.
    pub fn max_bundle(mut self, max_bundle: Cost) -> Self {
        assert!(max_bundle >= 1, "bundle size must be positive");
        self.max_bundle = max_bundle;
        self
    }

    /// RNG seed — generation is fully deterministic per seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the generator was configured with zero components but a
    /// positive wire count (wires need two distinct endpoints, so at least
    /// two components are required).
    pub fn build(&self) -> Circuit {
        self.build_with_positions().0
    }

    /// Generates the circuit together with the virtual unit-square positions
    /// used for clustering — useful for planting spatially coherent witness
    /// assignments (see `qbp-gen`'s suite builder).
    ///
    /// # Panics
    ///
    /// Same conditions as [`SyntheticCircuit::build`].
    pub fn build_with_positions(&self) -> (Circuit, Vec<(f64, f64)>) {
        assert!(
            self.wires == 0 || self.components >= 2,
            "wires require at least two components"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.components;
        let mut circuit = Circuit::with_capacity(n);
        // Log-uniform sizes.
        let (lo, hi) = ((self.size_min as f64).ln(), (self.size_max as f64).ln());
        for j in 0..n {
            let size = (lo + (hi - lo) * rng.random::<f64>()).exp().round() as Size;
            circuit.add_component(format!("blk{j}"), size.max(1));
        }
        // Virtual positions in the unit square; neighbor pools by distance
        // (they read no randomness, so no draw below depends on how they
        // are found).
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        if n < 2 || self.wires == 0 {
            return (circuit, pos);
        }
        let pool = self.neighbor_pool.min(n - 1).max(1);
        let neighbors = nearest_pools(&pos, pool);
        let mut remaining = self.wires;
        while remaining > 0 {
            let j1 = rng.random_range(0..n);
            let j2 = if rng.random::<f64>() < self.locality {
                neighbors[j1 * pool + rng.random_range(0..pool)] as usize
            } else {
                let mut k = rng.random_range(0..n);
                while k == j1 {
                    k = rng.random_range(0..n);
                }
                k
            };
            if j1 == j2 {
                continue;
            }
            let w = rng.random_range(1..=self.max_bundle).min(remaining);
            circuit
                .add_wires(ComponentId::new(j1), ComponentId::new(j2), w)
                .expect("generated endpoints are valid and distinct");
            remaining -= w;
        }
        (circuit, pos)
    }
}

fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

/// Each component's `pool` nearest other components, in ascending
/// `(squared distance, index)` order, flattened with stride `pool`
/// (`1 <= pool < pos.len()`).
///
/// The components are cut, in ascending `x`, into strips of about
/// `√(n·pool)`, and each strip is sorted by `y`. A component scans its own
/// strip outward from its `y`, then the strips to its right and to its
/// left. A scan stops once the squared `y` gap (within a strip) or `x` gap
/// (to the next strip) alone exceeds the `pool`-th best distance so far.
/// On uniform positions that reads `O(√(n·pool))` candidates per
/// component instead of all `n − 1`.
///
/// The selection is exact. Rounding is monotone, so along a scan the
/// computed squared gap never falls, and it never exceeds the computed
/// [`dist2`] it is a term of: a scan stops only where no later candidate
/// could enter the list. Candidates are ranked by `(distance, index)`, the
/// order of a stable sort by distance, and a squared distance of finite
/// positions is never NaN or `-0.0`, so `<` on it orders exactly as
/// `f64::total_cmp` does.
fn nearest_pools(pos: &[(f64, f64)], pool: usize) -> Vec<u32> {
    let n = pos.len();
    debug_assert!(pool >= 1 && pool < n);
    let per = (n * pool).isqrt();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| pos[a as usize].0.total_cmp(&pos[b as usize].0));
    // Each strip's least and greatest `x`, read before it is sorted by `y`.
    let mut x_span = Vec::with_capacity(n.div_ceil(per));
    for strip in order.chunks_mut(per) {
        let (first, last) = (strip[0] as usize, strip[strip.len() - 1] as usize);
        x_span.push((pos[first].0, pos[last].0));
        strip.sort_by(|&a, &b| pos[a as usize].1.total_cmp(&pos[b as usize].1));
    }
    let points: Vec<((f64, f64), u32)> = order.iter().map(|&k| (pos[k as usize], k)).collect();
    let mut strip_of = vec![0; n];
    for (rank, &k) in order.iter().enumerate() {
        strip_of[k as usize] = rank / per;
    }
    let strips: Vec<&[((f64, f64), u32)]> = points.chunks(per).collect();
    let mut pools = vec![0; n * pool];
    let mut best = Nearest {
        list: Vec::with_capacity(pool + 1),
        pool,
    };
    for (j, &pj) in pos.iter().enumerate() {
        best.list.clear();
        // Offers `k` unless its squared `y` gap alone rules it out, and
        // says whether the scan should go on.
        let visit = |&(pk, k): &((f64, f64), u32), best: &mut Nearest| {
            let dy = pj.1 - pk.1;
            if dy * dy > best.bound() {
                return false;
            }
            if k as usize != j {
                best.offer(dist2(pj, pk), k);
            }
            true
        };
        let scan = |strip: &[((f64, f64), u32)], best: &mut Nearest| {
            let mid = strip.partition_point(|&(pk, _)| pk.1 < pj.1);
            for point in &strip[mid..] {
                if !visit(point, best) {
                    break;
                }
            }
            for point in strip[..mid].iter().rev() {
                if !visit(point, best) {
                    break;
                }
            }
        };
        let own = strip_of[j];
        scan(strips[own], &mut best);
        for (strip, &(min_x, _)) in strips[own + 1..].iter().zip(&x_span[own + 1..]) {
            let dx = pj.0 - min_x;
            if dx * dx > best.bound() {
                break;
            }
            scan(strip, &mut best);
        }
        for (strip, &(_, max_x)) in strips[..own].iter().zip(&x_span[..own]).rev() {
            let dx = pj.0 - max_x;
            if dx * dx > best.bound() {
                break;
            }
            scan(strip, &mut best);
        }
        for (slot, &(_, k)) in pools[j * pool..(j + 1) * pool].iter_mut().zip(&best.list) {
            *slot = k;
        }
    }
    pools
}

/// The best `pool` candidates offered so far, ascending by
/// `(squared distance, index)`.
struct Nearest {
    list: Vec<(f64, u32)>,
    pool: usize,
}

impl Nearest {
    /// The distance a candidate must not exceed to enter the list.
    fn bound(&self) -> f64 {
        match self.list.get(self.pool - 1) {
            Some(&(d, _)) => d,
            None => f64::INFINITY,
        }
    }

    fn offer(&mut self, d: f64, k: u32) {
        let precedes = |&(e, i): &(f64, u32)| e < d || (e == d && i < k);
        if self.list.len() == self.pool {
            if precedes(&self.list[self.pool - 1]) {
                return;
            }
            self.list.pop();
        }
        let at = self.list.partition_point(precedes);
        self.list.insert(at, (d, k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pools as a full stable sort builds them: every other component
    /// ordered by squared distance under `f64::total_cmp`, ties in index
    /// order, truncated to `pool`. [`nearest_pools`] must reproduce it
    /// entry for entry.
    fn sorted_pools(pos: &[(f64, f64)], pool: usize) -> Vec<Vec<u32>> {
        let n = pos.len();
        (0..n)
            .map(|j| {
                let mut order: Vec<u32> = (0..n as u32).filter(|&k| k as usize != j).collect();
                order.sort_by(|&a, &b| {
                    let da = dist2(pos[j], pos[a as usize]);
                    let db = dist2(pos[j], pos[b as usize]);
                    da.total_cmp(&db)
                });
                order.truncate(pool);
                order
            })
            .collect()
    }

    /// Positions on a dyadic grid (exact arithmetic, so squared distances
    /// tie exactly), where some points duplicate an earlier one and some
    /// mirror an earlier one around a third, which ties their distances to
    /// that third point. A side of 4 forces many ties; 2²⁰ almost none.
    fn arb_positions() -> impl Strategy<Value = Vec<(f64, f64)>> {
        (2usize..41, 0usize..3).prop_flat_map(|(n, grid)| {
            let side = [4u32, 16, 1 << 20][grid];
            let draw = (0..side, 0..side, 0u8..4, 0usize..n, 0usize..n);
            proptest::collection::vec(draw, n).prop_map(move |draws| {
                let scale = 1.0 / f64::from(side);
                let mut pos: Vec<(f64, f64)> = Vec::with_capacity(draws.len());
                for (k, &(x, y, kind, a, b)) in draws.iter().enumerate() {
                    let fresh = (f64::from(x) * scale, f64::from(y) * scale);
                    let p = match kind {
                        1 if k > 0 => pos[a % k],
                        2 if k > 0 => {
                            let (c, o) = (pos[a % k], pos[b % k]);
                            (2.0 * c.0 - o.0, 2.0 * c.1 - o.1)
                        }
                        _ => fresh,
                    };
                    pos.push(p);
                }
                pos
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn nearest_pools_match_the_full_sort(pos in arb_positions()) {
            let n = pos.len();
            for neighbor_pool in [1, 3, 12, n - 1, n + 5] {
                let pool = neighbor_pool.min(n - 1).max(1);
                let fast = nearest_pools(&pos, pool);
                let reference = sorted_pools(&pos, pool);
                for (j, (got, want)) in fast.chunks(pool).zip(&reference).enumerate() {
                    prop_assert_eq!(got, want.as_slice(), "component {} of {}, pool {}", j, n, pool);
                }
            }
        }
    }

    #[test]
    fn matches_requested_statistics() {
        let c = SyntheticCircuit::new(100, 500).seed(3).build();
        assert_eq!(c.len(), 100);
        assert_eq!(c.total_wire_weight(), 1000); // symmetric double count
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticCircuit::new(40, 200).seed(5).build();
        let b = SyntheticCircuit::new(40, 200).seed(5).build();
        let c = SyntheticCircuit::new(40, 200).seed(6).build();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sizes_span_two_orders_of_magnitude() {
        let c = SyntheticCircuit::new(300, 100).seed(1).build();
        let sizes: Vec<u64> = c.iter().map(|(_, comp)| comp.size()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min >= 1);
        assert!(
            max as f64 / min as f64 >= 30.0,
            "expected wide size spread, got {min}..{max}"
        );
    }

    #[test]
    fn locality_increases_clustering() {
        // With high locality, the average number of *distinct* partners per
        // component is lower (wires concentrate in neighbor pools).
        let local = SyntheticCircuit::new(80, 600).locality(0.95).seed(9).build();
        let global = SyntheticCircuit::new(80, 600).locality(0.0).seed(9).build();
        assert!(local.directed_edge_count() < global.directed_edge_count());
    }

    #[test]
    fn no_self_loops_and_symmetric() {
        let c = SyntheticCircuit::new(30, 150).seed(11).build();
        for (a, b, w) in c.edges() {
            assert_ne!(a, b);
            assert_eq!(c.connection(b, a), c.connection(a, b), "symmetric A");
            assert!(w > 0);
        }
    }

    #[test]
    fn custom_size_range_respected() {
        let c = SyntheticCircuit::new(50, 0).size_range(10, 20).seed(2).build();
        for (_, comp) in c.iter() {
            assert!((10..=20).contains(&comp.size()), "size {}", comp.size());
        }
    }

    #[test]
    fn zero_wires_allowed() {
        let c = SyntheticCircuit::new(5, 0).build();
        assert_eq!(c.directed_edge_count(), 0);
    }
}
