//! Linear Assignment Problem (LAP) solver: the Jonker–Volgenant flavor of
//! the Hungarian algorithm with dual potentials, `O(n³)`.
//!
//! In Burkard's original heuristic for the Quadratic Assignment Problem, the
//! two minimization subproblems (STEP 4 and STEP 6) are LAPs over the
//! permutation solution space. The [`QapSolver`](crate::QapSolver) uses this
//! module; it is also the `M = N`, equal-sizes special case of the paper's
//! §2.2.2.

use qbp_core::{Cost, DenseMatrix};

/// A solved linear assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct LapSolution {
    /// `row_to_col[r]` is the column assigned to row `r`.
    pub row_to_col: Vec<usize>,
    /// Total cost of the assignment, in the input's units.
    pub cost: f64,
}

/// Solves the square min-cost assignment problem on an `n×n` cost matrix
/// given in row-major order.
///
/// Returns the optimal permutation and its cost. Costs may be arbitrary
/// finite floats; integer-valued inputs below 2⁵³ are handled exactly.
///
/// # Panics
///
/// Panics if `costs.len() != n*n` or any cost is non-finite.
pub fn solve_lap(n: usize, costs: &[f64]) -> LapSolution {
    assert_eq!(costs.len(), n * n, "cost matrix must be n*n");
    assert!(
        costs.iter().all(|c| c.is_finite()),
        "costs must be finite"
    );
    if n == 0 {
        return LapSolution {
            row_to_col: Vec::new(),
            cost: 0.0,
        };
    }
    // Shortest-augmenting-path Hungarian with potentials (1-based internal
    // indexing; p[j] is the row matched to column j, p[0] holds the row
    // currently being inserted).
    let inf = f64::INFINITY;
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = costs[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut row_to_col = vec![0usize; n];
    for j in 1..=n {
        row_to_col[p[j] - 1] = j - 1;
    }
    let cost = row_to_col
        .iter()
        .enumerate()
        .map(|(r, &c)| costs[r * n + c])
        .sum();
    LapSolution { row_to_col, cost }
}

/// Convenience wrapper for exact integer costs; the returned cost is
/// recomputed in `i64` from the optimal permutation.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn solve_lap_int(costs: &DenseMatrix<Cost>) -> (Vec<usize>, Cost) {
    assert!(costs.is_square(), "LAP requires a square cost matrix");
    let n = costs.rows();
    let floats: Vec<f64> = costs.iter().map(|&c| c as f64).collect();
    let sol = solve_lap(n, &floats);
    let exact = sol
        .row_to_col
        .iter()
        .enumerate()
        .map(|(r, &c)| costs[(r, c)])
        .sum();
    (sol.row_to_col, exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(n: usize, costs: &[f64]) -> f64 {
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for pos in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        perms(n)
            .into_iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .map(|(r, &c)| costs[r * n + c])
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn trivial_sizes() {
        let s = solve_lap(0, &[]);
        assert_eq!(s.cost, 0.0);
        let s = solve_lap(1, &[7.0]);
        assert_eq!(s.row_to_col, vec![0]);
        assert_eq!(s.cost, 7.0);
    }

    #[test]
    fn known_3x3() {
        // Classic example: optimal = 5 (0→1, 1→0, 2→2).
        let costs = [4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0];
        let s = solve_lap(3, &costs);
        assert_eq!(s.cost, 5.0);
        // Permutation validity.
        let mut seen = [false; 3];
        for &c in &s.row_to_col {
            assert!(!seen[c]);
            seen[c] = true;
        }
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        // Deterministic pseudo-random matrices (LCG) up to n = 6.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 100) as f64
        };
        for n in 2..=6 {
            for _ in 0..5 {
                let costs: Vec<f64> = (0..n * n).map(|_| next()).collect();
                let s = solve_lap(n, &costs);
                assert_eq!(s.cost, brute_force(n, &costs), "n = {n}");
            }
        }
    }

    #[test]
    fn handles_negative_costs() {
        let costs = [-5.0, 2.0, 3.0, -1.0];
        let s = solve_lap(2, &costs);
        assert_eq!(s.cost, -6.0);
        assert_eq!(s.row_to_col, vec![0, 1]);
    }

    #[test]
    fn integer_wrapper_is_exact() {
        let m = DenseMatrix::from_rows(vec![
            vec![10, 2, 8],
            vec![7, 9, 1],
            vec![3, 6, 4],
        ])
        .unwrap();
        let (perm, cost) = solve_lap_int(&m);
        assert_eq!(cost, 2 + 1 + 3);
        assert_eq!(perm, vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn rejects_wrong_length() {
        let _ = solve_lap(2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_costs() {
        let _ = solve_lap(1, &[f64::INFINITY]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn lap_result_is_valid_permutation_and_optimal(
            n in 2usize..6,
            seed in 0u64..1000,
        ) {
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 50) as f64
            };
            let costs: Vec<f64> = (0..n * n).map(|_| next()).collect();
            let s = solve_lap(n, &costs);
            // Valid permutation.
            let mut seen = vec![false; n];
            for &c in &s.row_to_col {
                prop_assert!(!seen[c]);
                seen[c] = true;
            }
            // Not beaten by any single transposition (local optimality check,
            // cheap necessary condition).
            for a in 0..n {
                for b in a + 1..n {
                    let (ca, cb) = (s.row_to_col[a], s.row_to_col[b]);
                    let cur = costs[a * n + ca] + costs[b * n + cb];
                    let alt = costs[a * n + cb] + costs[b * n + ca];
                    prop_assert!(cur <= alt + 1e-9);
                }
            }
        }
    }
}
