//! The implicit, timing-embedded cost matrix `Q̂` of the Quadratic Boolean
//! Program, and the sparse linear-algebra kernels (`yᵀQ̂y`, `η`, `ω`) used by
//! the generalized Burkard heuristic.
//!
//! Following §3 of the paper, the partitioning objective is flattened into
//! `yᵀQy` with
//!
//! ```text
//! q[r1][r2] = β·a[j1][j2]·b[i1][i2] + α·p'[r1][r2]      (p' only on the diagonal)
//! ```
//!
//! and the timing constraints C2 are *embedded* by overwriting every entry
//! whose candidate pair of assignments violates timing — i.e.
//! `D(i1,i2) > D_C(j1,j2)` — with a penalty (Theorem 1 uses a provably
//! sufficient `U`; Theorem 2 justifies any penalty provided the returned
//! minimizer is verified timing-feasible, which is how the paper runs with a
//! fixed penalty of 50).
//!
//! `Q̂` is never materialized by solvers (§4.3): this type stores only merged
//! per-component lists of *interesting* partners (connected or constrained)
//! and computes entries, `yᵀQ̂y`, `η` and `ω` by walking them.

use crate::{
    Assignment, ComponentId, Cost, Delay, DenseMatrix, Error, PairIndex, PartitionId, Problem,
    NO_CONSTRAINT,
};
use std::hint::select_unpredictable;

/// Default fixed penalty, matching the paper's experiments ("we set
/// `q̂ = 50` for those candidate assignments in which Timing Constraints are
/// violated").
pub const PAPER_PENALTY: Cost = 50;

/// One merged "interesting partner" record: the partner component, the
/// connection weight `a` (0 when only a constraint exists), and the timing
/// limit ([`NO_CONSTRAINT`] when only a connection exists). Used only during
/// construction and row patching; the kernels walk the flattened [`Csr`]
/// form.
#[derive(Debug, Clone, Copy)]
struct Pair {
    other: u32,
    weight: Cost,
    limit: Delay,
}

/// Flat CSR adjacency: per-component merged pair records in one contiguous
/// struct-of-arrays block (`other` / `weight` / `limit`), with the
/// unconstrained records (`limit == NO_CONSTRAINT`) packed *first* within
/// each row so the pure-connection prefix is walked without touching
/// `limit` at all. `split[j]` is the absolute index where row `j`'s
/// timing-constrained suffix begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr {
    /// Row start offsets, length `n + 1`.
    pub(crate) off: Vec<u32>,
    /// Absolute start of row `j`'s constrained suffix (`off[j] ≤ split[j] ≤
    /// off[j+1]`).
    pub(crate) split: Vec<u32>,
    /// Partner component per record.
    pub(crate) other: Vec<u32>,
    /// Connection weight per record (0 for pure constraints).
    pub(crate) weight: Vec<Cost>,
    /// Timing limit per record ([`NO_CONSTRAINT`] across the prefix).
    pub(crate) limit: Vec<Delay>,
}

impl Csr {
    /// Packs whole nested rows at once: the historical build path, kept as
    /// the streamed build's test reference.
    #[cfg(test)]
    fn from_rows(rows: &[Vec<Pair>]) -> Csr {
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut csr = Csr {
            off: Vec::with_capacity(rows.len() + 1),
            split: Vec::with_capacity(rows.len()),
            other: Vec::with_capacity(total),
            weight: Vec::with_capacity(total),
            limit: Vec::with_capacity(total),
        };
        csr.off.push(0);
        for row in rows {
            for p in row.iter().filter(|p| p.limit == NO_CONSTRAINT) {
                csr.other.push(p.other);
                csr.weight.push(p.weight);
                csr.limit.push(p.limit);
            }
            csr.split.push(csr.other.len() as u32);
            for p in row.iter().filter(|p| p.limit != NO_CONSTRAINT) {
                csr.other.push(p.other);
                csr.weight.push(p.weight);
                csr.limit.push(p.limit);
            }
            csr.off.push(csr.other.len() as u32);
        }
        csr
    }

    /// Splices row `j` to hold exactly `row`, repacking the unconstrained
    /// prefix / constrained suffix split and shifting all following offsets.
    /// `O(row + n + tail records)` — the tail memmove is sequential and in
    /// practice far cheaper than a full rebuild.
    fn replace_row(&mut self, j: usize, row: &[Pair]) {
        let (lo, _, hi) = self.bounds(j);
        let uncon = row.iter().filter(|p| p.limit == NO_CONSTRAINT);
        let con = row.iter().filter(|p| p.limit != NO_CONSTRAINT);
        let ordered: Vec<&Pair> = uncon.chain(con).collect();
        let n_uncon = row.iter().filter(|p| p.limit == NO_CONSTRAINT).count();
        self.other.splice(lo..hi, ordered.iter().map(|p| p.other));
        self.weight.splice(lo..hi, ordered.iter().map(|p| p.weight));
        self.limit.splice(lo..hi, ordered.iter().map(|p| p.limit));
        let delta = row.len() as i64 - (hi - lo) as i64;
        self.split[j] = (lo + n_uncon) as u32;
        for s in &mut self.split[j + 1..] {
            *s = (*s as i64 + delta) as u32;
        }
        for o in &mut self.off[j + 1..] {
            *o = (*o as i64 + delta) as u32;
        }
    }

    #[inline]
    fn bounds(&self, j: usize) -> (usize, usize, usize) {
        (
            self.off[j] as usize,
            self.split[j] as usize,
            self.off[j + 1] as usize,
        )
    }

    /// The pure-connection prefix of row `j`: `(partner, weight)`.
    #[inline]
    pub(crate) fn unconstrained(&self, j: usize) -> impl Iterator<Item = (usize, Cost)> + '_ {
        let (lo, mid, _) = self.bounds(j);
        self.other[lo..mid]
            .iter()
            .zip(&self.weight[lo..mid])
            .map(|(&o, &w)| (o as usize, w))
    }

    /// The timing-constrained suffix of row `j`: `(partner, weight, limit)`.
    #[inline]
    pub(crate) fn constrained(&self, j: usize) -> impl Iterator<Item = (usize, Cost, Delay)> + '_ {
        let (_, mid, hi) = self.bounds(j);
        self.other[mid..hi]
            .iter()
            .zip(&self.weight[mid..hi])
            .zip(&self.limit[mid..hi])
            .map(|((&o, &w), &l)| (o as usize, w, l))
    }

    /// Every record of row `j`: `(partner, weight, limit)`.
    #[inline]
    pub(crate) fn all(&self, j: usize) -> impl Iterator<Item = (usize, Cost, Delay)> + '_ {
        let (lo, _, hi) = self.bounds(j);
        self.other[lo..hi]
            .iter()
            .zip(&self.weight[lo..hi])
            .zip(&self.limit[lo..hi])
            .map(|((&o, &w), &l)| (o as usize, w, l))
    }

    /// The records of row `j` whose partner is `l`: `(weight, limit)`. Only
    /// the partner column is read for the others.
    #[inline]
    fn records_to(&self, j: usize, l: usize) -> impl Iterator<Item = (Cost, Delay)> + '_ {
        let (lo, _, hi) = self.bounds(j);
        (lo..hi)
            .zip(&self.other[lo..hi])
            .filter(move |&(_, &o)| o as usize == l)
            .map(|(r, _)| (self.weight[r], self.limit[r]))
    }

    /// Bytes of heap owned by the CSR tables (capacity, not length), for the
    /// allocation audit in `scale_bench`.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.off.capacity() * size_of::<u32>()
            + self.split.capacity() * size_of::<u32>()
            + self.other.capacity() * size_of::<u32>()
            + self.weight.capacity() * size_of::<Cost>()
            + self.limit.capacity() * size_of::<Delay>()
    }
}

/// Streaming CSR assembler with checked `u32` offsets: rows are appended one
/// at a time from a caller-owned scratch buffer and the running record total
/// is validated against the index ceiling, so million-component builds never
/// materialize the nested per-row pair lists and can never silently wrap the
/// compact offsets past `u32::MAX`.
struct CsrStream {
    csr: Csr,
    cap: u64,
    what: &'static str,
}

impl CsrStream {
    fn with_capacity(n: usize, records: usize, cap: u64, what: &'static str) -> CsrStream {
        let mut csr = Csr {
            off: Vec::with_capacity(n + 1),
            split: Vec::with_capacity(n),
            other: Vec::with_capacity(records),
            weight: Vec::with_capacity(records),
            limit: Vec::with_capacity(records),
        };
        csr.off.push(0);
        CsrStream { csr, cap, what }
    }

    /// Appends one merged row, repacking into the unconstrained-prefix /
    /// constrained-suffix layout of [`Csr`].
    fn push_row(&mut self, row: &[Pair]) -> Result<(), Error> {
        let total = self.csr.other.len() as u64 + row.len() as u64;
        if total > self.cap {
            return Err(Error::IndexOverflow {
                what: self.what,
                records: total,
                cap: self.cap,
            });
        }
        for p in row.iter().filter(|p| p.limit == NO_CONSTRAINT) {
            self.csr.other.push(p.other);
            self.csr.weight.push(p.weight);
            self.csr.limit.push(p.limit);
        }
        self.csr.split.push(self.csr.other.len() as u32);
        for p in row.iter().filter(|p| p.limit != NO_CONSTRAINT) {
            self.csr.other.push(p.other);
            self.csr.weight.push(p.weight);
            self.csr.limit.push(p.limit);
        }
        self.csr.off.push(self.csr.other.len() as u32);
        Ok(())
    }

    fn finish(self) -> Csr {
        self.csr
    }
}

/// The owned, problem-detached payload of a [`QMatrix`]: the penalty and
/// both CSR adjacencies (out / in).
///
/// [`QMatrix`] borrows its `Problem`; a body owns no borrow, so callers that
/// *mutate* the problem between solves (the ECO session in `qbp-eco`) hold a
/// `QBody` across edits, patch it in place with [`QBody::patch_rows`], and
/// re-wrap it with [`QMatrix::from_body`] when they need the kernels.
///
/// Equality is bit-exact structural equality of every internal table, which
/// is how the ECO tests assert "patched state == from-scratch construction".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QBody {
    penalty: Cost,
    out: Csr,
    inc: Csr,
}

impl QBody {
    /// Builds the body for `problem` with the given timing-violation
    /// penalty — exactly what [`QMatrix::new`] constructs internally.
    ///
    /// Construction streams one merged row at a time into the compact CSR
    /// tables (reusing a single scratch row) instead of materializing the
    /// historical nested `Vec<Vec<_>>` pair lists first, so transient memory
    /// at build time is `O(max degree)` on top of the final tables. Offsets
    /// are `u32` and checked: a problem whose merged adjacency exceeds
    /// `u32::MAX` records is rejected with [`Error::IndexOverflow`] instead
    /// of silently wrapping.
    ///
    /// # Errors
    ///
    /// Returns an error if `penalty` is not positive or the adjacency
    /// exceeds the compact index ceiling.
    pub fn build(problem: &Problem, penalty: Cost) -> Result<Self, Error> {
        Self::build_with_index_cap(problem, penalty, u32::MAX as u64)
    }

    /// [`QBody::build`] with an injectable index ceiling in place of the
    /// real `u32::MAX`, so tests can exercise the overflow path without
    /// constructing four billion edges.
    fn build_with_index_cap(
        problem: &Problem,
        penalty: Cost,
        cap: u64,
    ) -> Result<Self, Error> {
        if penalty <= 0 {
            return Err(Error::NegativeValue {
                what: "timing penalty",
                value: penalty,
            });
        }
        let n = problem.n();
        if n as u64 > cap {
            return Err(Error::IndexOverflow {
                what: "component ids",
                records: n as u64,
                cap,
            });
        }
        // Upper bound on merged records per direction: every connection plus
        // every constraint-only record (constraints merged into an existing
        // connection record shrink this, never grow it).
        let reserve = problem.circuit().edges().count() + problem.timing().len();
        let mut out = CsrStream::with_capacity(n, reserve, cap, "out adjacency");
        let mut inc = CsrStream::with_capacity(n, reserve, cap, "in adjacency");
        let mut scratch = Vec::new();
        for j in 0..n {
            Self::out_row_into(problem, j, &mut scratch);
            out.push_row(&scratch)?;
            Self::in_row_into(problem, j, &mut scratch);
            inc.push_row(&scratch)?;
        }
        Ok(QBody {
            penalty,
            out: out.finish(),
            inc: inc.finish(),
        })
    }

    /// The historical two-phase construction — nested pair rows for the
    /// whole circuit, then [`Csr::from_rows`] — kept as the equivalence
    /// reference for the streaming build path: the two are property-tested
    /// bit-identical over random circuits.
    #[cfg(test)]
    fn build_nested_reference(problem: &Problem, penalty: Cost) -> Result<Self, Error> {
        if penalty <= 0 {
            return Err(Error::NegativeValue {
                what: "timing penalty",
                value: penalty,
            });
        }
        let (out_rows, in_rows) = Self::merged_rows(problem);
        Ok(QBody {
            penalty,
            out: Csr::from_rows(&out_rows),
            inc: Csr::from_rows(&in_rows),
        })
    }

    /// Bytes of heap owned by the body's CSR adjacencies, for the allocation
    /// audit in `scale_bench`.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inc.heap_bytes()
    }

    /// The historical nested layout: per-component merged pair rows, built
    /// by seeding with connections and then attaching timing limits to
    /// existing records (or creating weight-0 records for pure constraints).
    #[cfg(test)]
    fn merged_rows(problem: &Problem) -> (Vec<Vec<Pair>>, Vec<Vec<Pair>>) {
        let n = problem.n();
        let mut out_pairs: Vec<Vec<Pair>> = vec![Vec::new(); n];
        let mut in_pairs: Vec<Vec<Pair>> = vec![Vec::new(); n];
        for (j1, j2, w) in problem.circuit().edges() {
            out_pairs[j1.index()].push(Pair {
                other: j2.index() as u32,
                weight: w,
                limit: NO_CONSTRAINT,
            });
            in_pairs[j2.index()].push(Pair {
                other: j1.index() as u32,
                weight: w,
                limit: NO_CONSTRAINT,
            });
        }
        for (j1, j2, limit) in problem.timing().iter() {
            let out = &mut out_pairs[j1.index()];
            match out.iter_mut().find(|p| p.other == j2.index() as u32) {
                Some(p) => p.limit = p.limit.min(limit),
                None => out.push(Pair {
                    other: j2.index() as u32,
                    weight: 0,
                    limit,
                }),
            }
            let inc = &mut in_pairs[j2.index()];
            match inc.iter_mut().find(|p| p.other == j1.index() as u32) {
                Some(p) => p.limit = p.limit.min(limit),
                None => inc.push(Pair {
                    other: j1.index() as u32,
                    weight: 0,
                    limit,
                }),
            }
        }
        (out_pairs, in_pairs)
    }

    /// The out row of component `j` exactly as a fresh [`QBody::build`]
    /// would store it: connection records in the circuit's stored order,
    /// then constraint-only partners in the timing table's stored order.
    fn out_row(problem: &Problem, j: usize) -> Vec<Pair> {
        let mut row = Vec::new();
        Self::out_row_into(problem, j, &mut row);
        row
    }

    /// [`QBody::out_row`] writing into a reusable scratch buffer, so the
    /// streaming build allocates one row's worth of scratch for the whole
    /// circuit instead of one `Vec` per component.
    fn out_row_into(problem: &Problem, j: usize, row: &mut Vec<Pair>) {
        row.clear();
        let id = ComponentId::new(j);
        row.extend(problem.circuit().out_connections(id).map(|(k, w)| Pair {
            other: k.index() as u32,
            weight: w,
            limit: NO_CONSTRAINT,
        }));
        for (k, limit) in problem.timing().constraints_from(id) {
            match row.iter_mut().find(|p| p.other == k.index() as u32) {
                Some(p) => p.limit = p.limit.min(limit),
                None => row.push(Pair {
                    other: k.index() as u32,
                    weight: 0,
                    limit,
                }),
            }
        }
    }

    /// The in row of component `j` exactly as a fresh [`QBody::build`]
    /// would store it. A fresh build emits in-records in ascending *source*
    /// order (it iterates `edges()` / `timing().iter()` source-major, and
    /// each source contributes at most one record per target), so the local
    /// recompute sorts both contribution lists by source — the circuit's
    /// stored `in_edges` order is chronological and must NOT be used as-is.
    fn in_row(problem: &Problem, j: usize) -> Vec<Pair> {
        let mut row = Vec::new();
        Self::in_row_into(problem, j, &mut row);
        row
    }

    /// [`QBody::in_row`] writing into a reusable scratch buffer (see
    /// [`QBody::out_row_into`]).
    fn in_row_into(problem: &Problem, j: usize, row: &mut Vec<Pair>) {
        row.clear();
        let id = ComponentId::new(j);
        row.extend(problem.circuit().in_connections(id).map(|(k, w)| Pair {
            other: k.index() as u32,
            weight: w,
            limit: NO_CONSTRAINT,
        }));
        row.sort_unstable_by_key(|p| p.other);
        let mut cons: Vec<(u32, Delay)> = problem
            .timing()
            .constraints_into(id)
            .map(|(k, l)| (k.index() as u32, l))
            .collect();
        cons.sort_unstable_by_key(|&(k, _)| k);
        for (k, limit) in cons {
            match row.iter_mut().find(|p| p.other == k) {
                Some(p) => p.limit = p.limit.min(limit),
                None => row.push(Pair {
                    other: k,
                    weight: 0,
                    limit,
                }),
            }
        }
    }

    /// Re-derives the out and in rows of every component in `touched` from
    /// the (already mutated) `problem`, splicing them into the CSR tables in
    /// place. Returns the number of CSR rows spliced (two per touched
    /// component).
    ///
    /// Cost is `O(touched·deg + tail-memmove)` per row — far below a full
    /// rebuild for small deltas. The result is **bit-identical** to
    /// `QBody::build` on the mutated problem (property-tested), so callers
    /// may mix patching and rebuilding freely.
    ///
    /// # Panics
    ///
    /// Panics if the component count changed since this body was built (use
    /// [`QBody::build`] for dimension changes) or an index is out of range.
    pub fn patch_rows(&mut self, problem: &Problem, touched: &[usize]) -> usize {
        assert_eq!(
            self.out.split.len(),
            problem.n(),
            "component count changed; rebuild the body instead of patching"
        );
        let mut rows: Vec<usize> = touched.to_vec();
        rows.sort_unstable();
        rows.dedup();
        let mut patched = 0;
        for &j in &rows {
            self.out.replace_row(j, &Self::out_row(problem, j));
            self.inc.replace_row(j, &Self::in_row(problem, j));
            patched += 2;
        }
        patched
    }

    /// The penalty this body embeds timing violations with.
    pub fn penalty(&self) -> Cost {
        self.penalty
    }

    /// Number of component rows (the `N` the body was built for).
    pub fn rows(&self) -> usize {
        self.out.split.len()
    }
}

/// The implicit `Q̂` matrix: the paper's timing-embedded quadratic cost.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints,
///                QMatrix, Assignment, Evaluator};
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut circuit = Circuit::new();
/// let a = circuit.add_component("a", 1);
/// let b = circuit.add_component("b", 1);
/// circuit.add_wires(a, b, 5)?;
/// let mut tc = TimingConstraints::new(2);
/// tc.add_symmetric(a, b, 1)?;
/// let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 10)?)
///     .timing(tc)
///     .build()?;
///
/// let q = QMatrix::new(&problem, 50)?;
/// // A timing-feasible assignment: yᵀQ̂y equals the plain objective (Lemma 1).
/// let ok = Assignment::from_parts(vec![0, 1])?;
/// assert_eq!(q.value(&ok), Evaluator::new(&problem).cost(&ok));
/// // A violating assignment pays the penalty on both directed entries.
/// let bad = Assignment::from_parts(vec![0, 3])?;
/// assert_eq!(q.value(&bad), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QMatrix<'a> {
    problem: &'a Problem,
    body: QBody,
    /// `Bᵀ` and `Dᵀ`: row `i` holds column `i` of `B` and `D`, so the
    /// move-delta kernels read an out-record's entries `(candidate, i)` as
    /// one contiguous row.
    b_t: DenseMatrix<Cost>,
    d_t: DenseMatrix<Delay>,
    /// A lower bound on every [`QMatrix::pair_correction`]; see
    /// [`QMatrix::pair_floor`].
    pair_floor: Cost,
}

/// The transpose of a square topology matrix.
fn transposed<T: Copy>(mat: &DenseMatrix<T>) -> DenseMatrix<T> {
    DenseMatrix::from_fn(mat.cols(), mat.rows(), |r, c| mat[(c, r)])
}

/// A lower bound on every pair correction of `body` on `problem`'s
/// topology; see [`QMatrix::pair_floor`]. Walks the records' weights only
/// when some diagonal entry of `B` is positive.
fn pair_floor(problem: &Problem, body: &QBody) -> Cost {
    let topology = problem.topology();
    let (b, d) = (topology.wire_cost(), topology.delay());
    let m = problem.m();
    let max_b_diag = (0..m).map(|i| b[(i, i)]).max().unwrap_or(0);
    let penalized_diag = (0..m).any(|i| d[(i, i)] > 0);
    if max_b_diag == 0 && !penalized_diag {
        return 0;
    }
    let max_w = body.out.weight.iter().copied().max().unwrap_or(0);
    let plain = problem.beta().saturating_mul(max_w).saturating_mul(max_b_diag);
    let diag = if penalized_diag {
        plain.max(body.penalty)
    } else {
        plain
    };
    // Two records (one per direction), two diagonal entries each.
    diag.saturating_mul(4).saturating_neg()
}

impl<'a> QMatrix<'a> {
    /// Builds the implicit `Q̂` for `problem` with the given timing-violation
    /// penalty.
    ///
    /// # Errors
    ///
    /// Returns an error if `penalty` is not positive. (A penalty of at least
    /// [`QMatrix::theorem1_penalty`] makes the embedding *unconditionally*
    /// exact; smaller positive values — like the paper's 50 — are justified
    /// a posteriori by Theorem 2 whenever the minimizer found is
    /// timing-feasible.)
    pub fn new(problem: &'a Problem, penalty: Cost) -> Result<Self, Error> {
        Ok(QMatrix::from_body(problem, QBody::build(problem, penalty)?))
    }

    /// Wraps a prebuilt (possibly patched) [`QBody`] so the kernels can run
    /// against it. The ECO session uses this to re-materialize the matrix
    /// after mutating the problem and patching the body in place.
    ///
    /// # Panics
    ///
    /// Panics if the body's row count does not match `problem.n()`.
    pub fn from_body(problem: &'a Problem, body: QBody) -> Self {
        assert_eq!(
            body.rows(),
            problem.n(),
            "QBody row count does not match the problem"
        );
        let topology = problem.topology();
        QMatrix {
            problem,
            pair_floor: pair_floor(problem, &body),
            body,
            b_t: transposed(topology.wire_cost()),
            d_t: transposed(topology.delay()),
        }
    }

    /// Releases the owned body, dropping the problem borrow.
    pub fn into_body(self) -> QBody {
        self.body
    }

    /// The owned payload backing this matrix.
    pub fn body(&self) -> &QBody {
        &self.body
    }

    /// Builds `Q̂` with the penalty [`QMatrix::auto_penalty`] chooses.
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates the positivity check of
    /// [`QMatrix::new`].
    pub fn with_auto_penalty(problem: &'a Problem) -> Result<Self, Error> {
        QMatrix::new(problem, QMatrix::auto_penalty(problem))
    }

    /// The automatically chosen penalty: strictly larger than twice the
    /// largest possible single-entry base cost (and at least the paper's
    /// 50), so one violation always costs more than re-routing the heaviest
    /// wire bundle across the topology, while staying far below the
    /// Theorem-1 bound to avoid swamping the cost landscape (§3.2's
    /// numerical-accuracy concern). Reads only the problem, so a caller
    /// that needs the value builds no matrix for it. Saturates on overflow.
    pub fn auto_penalty(problem: &Problem) -> Cost {
        let max_w = problem
            .circuit()
            .edges()
            .map(|(_, _, w)| w)
            .max()
            .unwrap_or(0);
        let max_b = problem.topology().wire_cost().max_entry();
        let max_p = problem.linear_cost().map_or(0, DenseMatrix::max_entry);
        let bound = 2 * problem
            .beta()
            .saturating_mul(max_w)
            .saturating_mul(max_b)
            .saturating_add(problem.alpha().saturating_mul(max_p))
            .saturating_add(1);
        bound.max(PAPER_PENALTY)
    }

    /// The Theorem-1 penalty bound: any `U > 2·Σ|q|` makes
    /// `QBP(Q')` *unconditionally* equivalent to the timing-constrained
    /// `QBP_R(Q)`.
    ///
    /// `Σ|q| = β·(Σ a)·(Σ b) + α·Σ p` because every `a[j1][j2]·b[i1][i2]`
    /// product appears exactly once in the flattened matrix. Saturates on
    /// overflow.
    pub fn theorem1_penalty(problem: &Problem) -> Cost {
        let sum_a = problem.circuit().total_wire_weight();
        let sum_b: Cost = problem
            .topology()
            .wire_cost()
            .iter()
            .fold(0i64, |acc, &v| acc.saturating_add(v));
        let sum_p = problem.linear_cost().map_or(0, DenseMatrix::abs_sum);
        problem
            .beta()
            .saturating_mul(sum_a)
            .saturating_mul(sum_b)
            .saturating_add(problem.alpha().saturating_mul(sum_p))
            .saturating_mul(2)
            .saturating_add(1)
    }

    /// The penalty in force.
    pub fn penalty(&self) -> Cost {
        self.body.penalty
    }

    /// The underlying problem.
    pub fn problem(&self) -> &'a Problem {
        self.problem
    }

    /// `true` when assigning `j1 → i1` and `j2 → i2` violates the timing
    /// constraint on `(j1, j2)` (if any).
    pub fn violates(
        &self,
        i1: PartitionId,
        j1: ComponentId,
        i2: PartitionId,
        j2: ComponentId,
    ) -> bool {
        match self.problem.timing().get(j1, j2) {
            Some(limit) => self.problem.topology().delay()[(i1.index(), i2.index())] > limit,
            None => false,
        }
    }

    /// The entry `q̂[r1][r2]`.
    ///
    /// Runs in `O(deg)` (constraint lookup); use [`QMatrix::dense`] to
    /// inspect whole small matrices.
    pub fn entry(&self, r1: PairIndex, r2: PairIndex) -> Cost {
        let m = self.problem.m();
        let (i1, j1) = r1.parts(m);
        let (i2, j2) = r2.parts(m);
        if self.violates(i1, j1, i2, j2) {
            return self.body.penalty;
        }
        let base = self.problem.beta()
            * self.problem.circuit().connection(j1, j2)
            * self.problem.topology().wire_cost()[(i1.index(), i2.index())];
        if r1 == r2 {
            base + self.problem.alpha() * self.problem.p(i1.index(), j1.index())
        } else {
            base
        }
    }

    /// Materializes `Q̂` as a dense `MN × MN` matrix — for tests, worked
    /// examples and tiny exact solves. Memory is `O((MN)²)`; keep `M·N`
    /// small.
    pub fn dense(&self) -> DenseMatrix<Cost> {
        let m = self.problem.m();
        let n = self.problem.n();
        let mn = m * n;
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let mut q = DenseMatrix::filled(mn, mn, 0);
        for j in 0..n {
            for i in 0..m {
                let r = i + j * m;
                q[(r, r)] = self.problem.alpha() * self.problem.p(i, j);
            }
            for (k, w, limit) in self.body.out.all(j) {
                for i1 in 0..m {
                    for i2 in 0..m {
                        let entry = if d[(i1, i2)] > limit {
                            self.body.penalty
                        } else {
                            self.problem.beta() * w * b[(i1, i2)]
                        };
                        let r1 = i1 + j * m;
                        let r2 = i2 + k * m;
                        q[(r1, r2)] += entry;
                    }
                }
            }
        }
        q
    }

    /// The quadratic form `yᵀQ̂y` for the boolean vector `y` induced by
    /// `assignment`.
    ///
    /// For timing-feasible assignments this equals the plain objective
    /// (Lemma 1: `Q` and `Q̂` coincide over the feasible region); every
    /// violated directed constraint pair adds `penalty` *instead of* its
    /// base interconnect term.
    ///
    /// Runs in `O(E + T)`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the problem's dimensions.
    pub fn value(&self, assignment: &Assignment) -> Cost {
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let alpha = self.problem.alpha();
        let mut total = 0;
        for j in 0..self.problem.n() {
            let ij = assignment.part_index(j);
            total += alpha * self.problem.p(ij, j);
            let brow = b.row(ij);
            for (k, w) in self.body.out.unconstrained(j) {
                total += beta * w * brow[assignment.part_index(k)];
            }
            let drow = d.row(ij);
            for (k, w, limit) in self.body.out.constrained(j) {
                let ik = assignment.part_index(k);
                if drow[ik] > limit {
                    total += self.body.penalty;
                } else {
                    total += beta * w * brow[ik];
                }
            }
        }
        total
    }

    /// The `Q̂` entry of one merged record as a function of
    /// `(weight, limit, row partition, column partition)`: the penalty when
    /// the record's timing limit is violated, otherwise `β·w·b[row][col]`.
    /// An unconstrained record's limit is [`NO_CONSTRAINT`] (`Delay::MAX`),
    /// which no delay exceeds.
    fn record_entry(&self) -> impl Fn(Cost, Delay, usize, usize) -> Cost + '_ {
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let penalty = self.body.penalty;
        move |w, limit, i_row, i_col| {
            if d[(i_row, i_col)] > limit {
                penalty
            } else {
                beta * w * b[(i_row, i_col)]
            }
        }
    }

    /// Exact change in `yᵀQ̂y` if component `j` moves to partition `to`
    /// (0 when `to` is its current partition).
    ///
    /// This is the embedded-objective analogue of
    /// [`Evaluator::move_delta`](crate::Evaluator::move_delta): identical for
    /// timing-clean neighborhoods, and additionally charges/discharges the
    /// penalty on every timing-constrained pair incident to `j`. Runs in
    /// `O(deg(j) + constraints(j))`.
    ///
    /// # Panics
    ///
    /// Panics if `j` or `to` is out of range.
    pub fn move_delta(&self, assignment: &Assignment, j: ComponentId, to: PartitionId) -> Cost {
        let from = assignment.part_index(j.index());
        let to_i = to.index();
        if from == to_i {
            return 0;
        }
        let mut delta = self.problem.alpha()
            * (self.problem.p(to_i, j.index()) - self.problem.p(from, j.index()));
        let entry = self.record_entry();
        for (k, w, limit) in self.body.out.all(j.index()) {
            let ik = assignment.part_index(k);
            delta += entry(w, limit, to_i, ik) - entry(w, limit, from, ik);
        }
        for (k, w, limit) in self.body.inc.all(j.index()) {
            let ik = assignment.part_index(k);
            delta += entry(w, limit, ik, to_i) - entry(w, limit, ik, from);
        }
        delta
    }

    /// Exact change in `yᵀQ̂y` if components `j1` and `j2` swap partitions
    /// (0 when they share a partition or `j1 == j2`) — the embedded-objective
    /// analogue of [`Evaluator::swap_delta`](crate::Evaluator::swap_delta).
    ///
    /// Runs in `O(deg(j1) + deg(j2) + constraints(j1) + constraints(j2))`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap_delta(&self, assignment: &Assignment, j1: ComponentId, j2: ComponentId) -> Cost {
        if j1 == j2 {
            return 0;
        }
        let i1 = assignment.part_index(j1.index());
        let i2 = assignment.part_index(j2.index());
        if i1 == i2 {
            return 0;
        }
        let entry = self.record_entry();
        let mut delta = self.problem.alpha()
            * (self.problem.p(i2, j1.index()) - self.problem.p(i1, j1.index())
                + self.problem.p(i1, j2.index())
                - self.problem.p(i2, j2.index()));
        // Pairs incident to j1 (the j1–j2 pairs handled separately below).
        for (k, w, limit) in self.body.out.all(j1.index()) {
            if k == j2.index() {
                delta += entry(w, limit, i2, i1) - entry(w, limit, i1, i2);
                continue;
            }
            let ik = assignment.part_index(k);
            delta += entry(w, limit, i2, ik) - entry(w, limit, i1, ik);
        }
        for (k, w, limit) in self.body.inc.all(j1.index()) {
            if k == j2.index() {
                continue; // mirrored by j2's out record below
            }
            let ik = assignment.part_index(k);
            delta += entry(w, limit, ik, i2) - entry(w, limit, ik, i1);
        }
        for (k, w, limit) in self.body.out.all(j2.index()) {
            if k == j1.index() {
                delta += entry(w, limit, i1, i2) - entry(w, limit, i2, i1);
                continue;
            }
            let ik = assignment.part_index(k);
            delta += entry(w, limit, i1, ik) - entry(w, limit, i2, ik);
        }
        for (k, w, limit) in self.body.inc.all(j2.index()) {
            if k == j1.index() {
                continue;
            }
            let ik = assignment.part_index(k);
            delta += entry(w, limit, ik, i1) - entry(w, limit, ik, i2);
        }
        delta
    }

    /// Every move delta of `j` in one walk of its records: fills `row`
    /// (length `M`) with `row[i] = move_delta(assignment, j, i)`, so
    /// `row[A(j)] = 0`. Runs in `O((deg(j) + constraints(j))·M)`, the cost of
    /// one [`QMatrix::move_delta`] call per partition but with a single pass
    /// over the adjacency. Exact integer arithmetic: every entry equals the
    /// per-partition call bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != M` or `j` is out of range.
    pub fn move_delta_row(&self, assignment: &Assignment, j: ComponentId, row: &mut [Cost]) {
        let m = self.problem.m();
        assert_eq!(row.len(), m, "move-delta row length must equal M");
        let jx = j.index();
        let from = assignment.part_index(jx);
        let alpha = self.problem.alpha();
        let p_from = self.problem.p(from, jx);
        for (i, v) in row.iter_mut().enumerate() {
            *v = alpha * (self.problem.p(i, jx) - p_from);
        }
        let topology = self.problem.topology();
        // Out records j → k: entry (candidate, A(k)), column A(k) of B, D.
        let columns = (&self.b_t, &self.d_t);
        self.add_record_deltas(&self.body.out, jx, columns, assignment, from, row);
        // In records k → j: entry (A(k), candidate), row A(k) of B, D.
        let rows = (topology.wire_cost(), topology.delay());
        self.add_record_deltas(&self.body.inc, jx, rows, assignment, from, row);
    }

    /// Adds the move deltas of row `j`'s records in `csr` to `row`. A
    /// record to partner `k` prices candidate `i` at entry `i` of line
    /// `A(k)` of `lines` (a row of `B`, `D` or of their transposes), re-based
    /// at the current partition `from`. The unconstrained prefix is a plain
    /// `β·w·(b[i] − b[from])` sweep; the constrained suffix selects the
    /// penalty or `β·w·b[i]` per entry without branching. Which entries
    /// exceed a record's limit follows no pattern a branch predictor can
    /// learn, and a plain `if` lets the compiler branch around the multiply,
    /// so the select is [`select_unpredictable`].
    #[inline]
    fn add_record_deltas(
        &self,
        csr: &Csr,
        j: usize,
        (b_lines, d_lines): (&DenseMatrix<Cost>, &DenseMatrix<Delay>),
        assignment: &Assignment,
        from: usize,
        row: &mut [Cost],
    ) {
        let beta = self.problem.beta();
        let penalty = self.body.penalty;
        for (k, w) in csr.unconstrained(j) {
            let c = beta * w;
            let b = b_lines.row(assignment.part_index(k));
            let base = b[from];
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += c * (bv - base);
            }
        }
        for (k, w, limit) in csr.constrained(j) {
            let c = beta * w;
            let line = assignment.part_index(k);
            let (b, d) = (b_lines.row(line), d_lines.row(line));
            let entry = |bv: Cost, dv: Delay| select_unpredictable(dv > limit, penalty, c * bv);
            let base = entry(b[from], d[from]);
            for (v, (&bv, &dv)) in row.iter_mut().zip(b.iter().zip(d)) {
                *v += entry(bv, dv) - base;
            }
        }
    }

    /// Keeps a move-delta table exact across one committed move. `table`
    /// holds row `k` (a [`QMatrix::move_delta_row`]) at `k·M..(k+1)·M`,
    /// meaningful where `filled[k]`; `assignment` already has `j` in its new
    /// partition and `from` is the partition it left. Only `j` and its
    /// record partners have deltas that depend on `A(j)`:
    ///
    /// - each filled partner row `k` gains the changed record's term,
    ///   re-based at `k`'s own partition so `D[k][A(k)]` stays 0;
    /// - `j`'s own row becomes `D[j][i] − D[j][A(j)]` (its partners did not
    ///   move, so only the reference partition changed).
    ///
    /// Unfilled rows are skipped. Runs in `O((deg(j) + constraints(j))·M)`
    /// with exact integer arithmetic, so a patched row equals a fresh
    /// [`QMatrix::move_delta_row`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `filled` is shorter than the problem requires
    /// or an index is out of range.
    pub fn patch_move_deltas(
        &self,
        assignment: &Assignment,
        j: ComponentId,
        from: PartitionId,
        table: &mut [Cost],
        filled: &[bool],
    ) {
        let m = self.problem.m();
        let jx = j.index();
        let (from, to) = (from.index(), assignment.part_index(jx));
        if from == to {
            return;
        }
        let topology = self.problem.topology();
        let (out, inc) = (&self.body.out, &self.body.inc);
        let moved = (from, to);
        // j → k records sit in k's row as in-records: entry (A(j), candidate),
        // rows `from` and `to` of B, D.
        let rows = (topology.wire_cost(), topology.delay());
        self.shift_record_deltas(out, jx, rows, assignment, moved, table, filled);
        // k → j records sit in k's row as out-records: entry (candidate, A(j)),
        // columns `from` and `to` of B, D.
        let columns = (&self.b_t, &self.d_t);
        self.shift_record_deltas(inc, jx, columns, assignment, moved, table, filled);
        if filled[jx] {
            let row = &mut table[jx * m..(jx + 1) * m];
            let base = row[to];
            for v in row.iter_mut() {
                *v -= base;
            }
        }
    }

    /// Patches the filled partner rows of row `j`'s records in `csr` for `j`
    /// moving `from → to`. A record to partner `k` prices `k`'s candidate `i`
    /// at entry `i` of line `A(j)` of `lines`, so `k`'s row gains
    /// `e(to, i) − e(from, i)`, re-based at `A(k)`. The unconstrained prefix
    /// is a plain `β·w·(Δb[i] − Δb[A(k)])` sweep; the constrained suffix
    /// selects per entry without branching, as in
    /// [`QMatrix::add_record_deltas`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn shift_record_deltas(
        &self,
        csr: &Csr,
        j: usize,
        (b_lines, d_lines): (&DenseMatrix<Cost>, &DenseMatrix<Delay>),
        assignment: &Assignment,
        (from, to): (usize, usize),
        table: &mut [Cost],
        filled: &[bool],
    ) {
        let m = self.problem.m();
        let beta = self.problem.beta();
        let penalty = self.body.penalty;
        let (b_old, b_new) = (b_lines.row(from), b_lines.row(to));
        let (d_old, d_new) = (d_lines.row(from), d_lines.row(to));
        for (k, w) in csr.unconstrained(j).filter(|&(k, _)| filled[k]) {
            let c = beta * w;
            let ik = assignment.part_index(k);
            let base = b_new[ik] - b_old[ik];
            let row = &mut table[k * m..(k + 1) * m];
            for (v, (&bn, &bo)) in row.iter_mut().zip(b_new.iter().zip(b_old)) {
                *v += c * (bn - bo - base);
            }
        }
        for (k, w, limit) in csr.constrained(j).filter(|&(k, ..)| filled[k]) {
            let c = beta * w;
            let ik = assignment.part_index(k);
            let entry = |bv: Cost, dv: Delay| select_unpredictable(dv > limit, penalty, c * bv);
            let base = entry(b_new[ik], d_new[ik]) - entry(b_old[ik], d_old[ik]);
            let row = &mut table[k * m..(k + 1) * m];
            let new = b_new.iter().zip(d_new);
            let old = b_old.iter().zip(d_old);
            for (v, ((&bn, &dn), (&bo, &dl))) in row.iter_mut().zip(new.zip(old)) {
                *v += entry(bn, dn) - entry(bo, dl) - base;
            }
        }
    }

    /// The pair term that separates a swap of `j` and `l` from its two
    /// single moves: `swap_delta(j, l) − move_delta(j, A(l)) −
    /// move_delta(l, A(j))`. With `i1 = A(j)`, `i2 = A(l)` and `e` a
    /// record's `Q̂` entry, each record between the two contributes
    /// `e(i1, i2) + e(i2, i1) − e(i1, i1) − e(i2, i2)`, and a pair with no
    /// record between them has none (0). One walk of `j`'s records, reading
    /// a record's weight and limit only when its partner is `l`:
    /// `O(deg(j) + constraints(j))`. Never below [`QMatrix::pair_floor`].
    ///
    /// # Panics
    ///
    /// Panics if `j` or `l` is out of range.
    pub fn pair_correction(&self, assignment: &Assignment, j: ComponentId, l: ComponentId) -> Cost {
        let (jx, lx) = (j.index(), l.index());
        let (i1, i2) = (assignment.part_index(jx), assignment.part_index(lx));
        let entry = self.record_entry();
        [&self.body.out, &self.body.inc]
            .into_iter()
            .flat_map(|csr| csr.records_to(jx, lx))
            .map(|(w, limit)| {
                entry(w, limit, i1, i2) + entry(w, limit, i2, i1)
                    - entry(w, limit, i1, i1)
                    - entry(w, limit, i2, i2)
            })
            .sum()
    }

    /// A lower bound on [`QMatrix::pair_correction`] for every pair and
    /// every assignment, fixed when the matrix is built.
    ///
    /// Every `Q̂` entry is non-negative (the penalty is positive; `β`,
    /// weights and `B` are non-negative), so a record's term
    /// `e(i1, i2) + e(i2, i1) − e(i1, i1) − e(i2, i2)` is at least minus
    /// its two diagonal entries, and a pair has at most two records, one
    /// per direction. A diagonal entry `e(i, i)` is `β·w·B[i][i]`, or the
    /// penalty when `D[i][i]` exceeds the record's limit, which needs
    /// `D[i][i] > 0` since limits are non-negative. So the floor is 0 when
    /// `B` and `D` have zero diagonals (every grid), and otherwise
    /// `−4·max(β·w_max·max B[i][i], penalty if some D[i][i] > 0)`.
    pub fn pair_floor(&self) -> Cost {
        self.pair_floor
    }

    /// Every violated directed timing constraint `(j1, j2)` under
    /// `assignment`: `D(A(j1), A(j2))` exceeds the limit. Walks the
    /// constrained suffix of the out adjacency, which holds one record per
    /// constrained ordered pair with that pair's limit, in ascending `j1`.
    /// A row without constraints costs two sequential loads, so sparse
    /// constraint sets scan as fast as dense ones per constraint.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the problem's dimensions.
    pub fn violations<'s>(
        &'s self,
        assignment: &'s Assignment,
    ) -> impl Iterator<Item = (usize, usize)> + 's {
        let d = self.problem.topology().delay();
        let out = &self.body.out;
        out.split
            .iter()
            .zip(&out.off[1..])
            .enumerate()
            .filter(|(_, (lo, hi))| lo < hi)
            .flat_map(move |(j1, (&lo, &hi))| {
                let drow = d.row(assignment.part_index(j1));
                let (lo, hi) = (lo as usize, hi as usize);
                out.other[lo..hi]
                    .iter()
                    .zip(&out.limit[lo..hi])
                    .filter(move |&(&j2, &limit)| drow[assignment.part_index(j2 as usize)] > limit)
                    .map(move |(&j2, _)| (j1, j2 as usize))
            })
    }

    /// Number of directed timing-constraint pairs violated by `assignment`
    /// (the count of penalty entries active in [`QMatrix::value`]); the
    /// length of [`QMatrix::violations`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the problem's dimensions.
    pub fn violation_count(&self, assignment: &Assignment) -> usize {
        self.violations(assignment).count()
    }

    /// STEP 3 of the generalized Burkard heuristic: computes
    /// `η[s] = Σ_r q̂[r][s]·u[r]` for every `s`, where `u` is the boolean
    /// vector of `assignment`.
    ///
    /// `out` is resized to `M·N`. Runs in `O((E + T)·M + N)` — this is the
    /// sparse kernel that makes the heuristic practical on circuits with
    /// hundreds of components (§4.3); compare
    /// [`QMatrix::eta_dense_reference`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the problem's dimensions.
    pub fn eta(&self, assignment: &Assignment, out: &mut Vec<Cost>) {
        let m = self.problem.m();
        let n = self.problem.n();
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let alpha = self.problem.alpha();
        out.clear();
        out.resize(m * n, 0);
        for j in 0..n {
            let slot = &mut out[j * m..(j + 1) * m];
            // Pure connections first (the CSR prefix): β·w·b[ik][i] for
            // every candidate i, no limit checks.
            for (k, w) in self.body.inc.unconstrained(j) {
                let coeff = beta * w;
                let brow = b.row(assignment.part_index(k));
                for (i, v) in slot.iter_mut().enumerate() {
                    *v += coeff * brow[i];
                }
            }
            for (k, w, limit) in self.body.inc.constrained(j) {
                let ik = assignment.part_index(k);
                let coeff = beta * w;
                let brow = b.row(ik);
                let drow = d.row(ik);
                for (i, v) in slot.iter_mut().enumerate() {
                    *v += if drow[i] > limit {
                        self.body.penalty
                    } else {
                        coeff * brow[i]
                    };
                }
            }
            // Diagonal contribution from u[(A(j), j)] = 1.
            let ij = assignment.part_index(j);
            slot[ij] += alpha * self.problem.p(ij, j);
        }
    }

    /// Incremental [`QMatrix::eta`]: patches `eta` (previously computed for
    /// `prev`) in place so it equals `eta` freshly computed for `next`.
    /// `moved` lists the components whose partition differs between the two,
    /// in any order ([`Assignment::movers_into`] collects them in one scan),
    /// so a caller that also reports the mover count scans `N` once.
    ///
    /// Only components whose partition changed contribute: moving `k` from
    /// `p` to `q` shifts the row index of every contribution `k` makes to its
    /// partners' slots (the mirror of `in_pairs[partner]`'s `k`-record lives
    /// in `out_pairs[k]` with identical merged weight/limit), plus `k`'s own
    /// diagonal term. Cost is `O(moved·deg·M)` instead of the full
    /// `O((E + T)·M + N)` — a large win for the heuristic's inner loop,
    /// where successive iterates typically differ in a handful of positions.
    /// All arithmetic is exact integer addition, so the patched vector is
    /// bit-identical to a fresh computation.
    ///
    /// Falls back to a full recompute (and returns `false`) when `eta` has
    /// the wrong length (cold buffer) or more than `N/2` components moved —
    /// past that point the patch walks most of the pair lists anyway and the
    /// dense sweep's sequential access wins.
    ///
    /// # Panics
    ///
    /// Panics if either assignment does not match the problem's dimensions
    /// or `moved` names a component out of range. Debug builds also check
    /// that `moved` is exactly the mover set.
    pub fn eta_update(
        &self,
        prev: &Assignment,
        next: &Assignment,
        moved: &[usize],
        eta: &mut Vec<Cost>,
    ) -> bool {
        let m = self.problem.m();
        let n = self.problem.n();
        debug_assert!(
            moved.iter().all(|&k| prev.part_index(k) != next.part_index(k))
                && moved.len()
                    == (0..n).filter(|&j| prev.part_index(j) != next.part_index(j)).count(),
            "`moved` must list exactly the components that differ"
        );
        if eta.len() != m * n || moved.len() > n / 2 {
            self.eta(next, eta);
            return false;
        }
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let alpha = self.problem.alpha();
        for &k in moved {
            let from = prev.part_index(k);
            let to = next.part_index(k);
            for (j, w) in self.body.out.unconstrained(k) {
                let slot = &mut eta[j * m..(j + 1) * m];
                let coeff = beta * w;
                let b_old = b.row(from);
                let b_new = b.row(to);
                for (i, v) in slot.iter_mut().enumerate() {
                    *v += coeff * (b_new[i] - b_old[i]);
                }
            }
            for (j, w, limit) in self.body.out.constrained(k) {
                let slot = &mut eta[j * m..(j + 1) * m];
                let coeff = beta * w;
                let (b_old, d_old) = (b.row(from), d.row(from));
                let (b_new, d_new) = (b.row(to), d.row(to));
                for (i, v) in slot.iter_mut().enumerate() {
                    let old = if d_old[i] > limit {
                        self.body.penalty
                    } else {
                        coeff * b_old[i]
                    };
                    let new = if d_new[i] > limit {
                        self.body.penalty
                    } else {
                        coeff * b_new[i]
                    };
                    *v += new - old;
                }
            }
            let slot = &mut eta[k * m..(k + 1) * m];
            slot[from] -= alpha * self.problem.p(from, k);
            slot[to] += alpha * self.problem.p(to, k);
        }
        true
    }

    /// Reference implementation of [`QMatrix::eta`] via the dense matrix —
    /// `O((MN)²)`, used by tests and the sparse-vs-dense ablation benchmark.
    pub fn eta_dense_reference(&self, assignment: &Assignment) -> Vec<Cost> {
        let m = self.problem.m();
        let n = self.problem.n();
        let q = self.dense();
        let y = assignment.indicator_vector(m);
        let mut eta = vec![0; m * n];
        for (s, e) in eta.iter_mut().enumerate() {
            for (r, &set) in y.iter().enumerate() {
                if set {
                    *e += q[(r, s)];
                }
            }
        }
        eta
    }

    /// The constant bound vector `ω` of eq. (2):
    /// `ω[r] ≥ Σ_s q̂[r][s]·y[s]` for every capacity-feasible `y`.
    ///
    /// Computed as `ω[(i,j)] = α·p[i][j] + Σ_{partners k of j} max_{i2}
    /// q̂[(i,j)][(i2,k)]`, which dominates any single choice of partner
    /// partitions. Runs in `O((E + T)·M)` (plus `O(M²)` preprocessing).
    pub fn omega(&self) -> Vec<Cost> {
        let m = self.problem.m();
        let n = self.problem.n();
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let alpha = self.problem.alpha();
        // max_b_row[i] = max_{i2} b[i][i2].
        let max_b_row: Vec<Cost> = (0..m)
            .map(|i| b.row(i).iter().copied().max().unwrap_or(0))
            .collect();
        let mut omega = vec![0; m * n];
        for j in 0..n {
            let slot = &mut omega[j * m..(j + 1) * m];
            for (i, v) in slot.iter_mut().enumerate() {
                *v = alpha * self.problem.p(i, j);
            }
            for (_, w) in self.body.out.unconstrained(j) {
                let coeff = beta * w;
                for (i, v) in slot.iter_mut().enumerate() {
                    *v += coeff * max_b_row[i];
                }
            }
            for (_, w, limit) in self.body.out.constrained(j) {
                let coeff = beta * w;
                for (i, v) in slot.iter_mut().enumerate() {
                    let mut best = Cost::MIN;
                    let brow = b.row(i);
                    let drow = d.row(i);
                    for i2 in 0..m {
                        let e = if drow[i2] > limit {
                            self.body.penalty
                        } else {
                            coeff * brow[i2]
                        };
                        best = best.max(e);
                    }
                    *v += best;
                }
            }
        }
        omega
    }

    /// `ξ = Σ_r ω[r]·u[r]` for the boolean vector of `assignment` (STEP 3).
    ///
    /// # Panics
    ///
    /// Panics if `omega` or the assignment have the wrong length.
    pub fn xi(&self, omega: &[Cost], assignment: &Assignment) -> Cost {
        let m = self.problem.m();
        assert_eq!(omega.len(), m * self.problem.n(), "omega length mismatch");
        (0..self.problem.n())
            .map(|j| omega[assignment.part_index(j) + j * m])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, Evaluator, PartitionTopology, ProblemBuilder, TimingConstraints};

    /// The exact worked example of §3.3: components a, b, c on a 2×2 grid,
    /// A(a,b) = 5, A(b,c) = 2, D_C(a,b) = D_C(b,c) = 1, penalty 50.
    fn paper_problem() -> Problem {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("c", 1);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(b, d, 2).unwrap();
        let mut tc = TimingConstraints::new(3);
        tc.add_symmetric(a, b, 1).unwrap();
        tc.add_symmetric(b, d, 1).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 10).unwrap())
            .timing(tc)
            .build()
            .unwrap()
    }

    /// The paper's printed 12×12 Q̂ (with all p entries zero).
    fn paper_qhat() -> DenseMatrix<Cost> {
        let rows: Vec<Vec<Cost>> = vec![
            //        a1 a2 a3 a4   b1 b2 b3 b4   c1 c2 c3 c4
            /* a1 */ vec![0, 0, 0, 0, 0, 5, 5, 50, 0, 0, 0, 0],
            /* a2 */ vec![0, 0, 0, 0, 5, 0, 50, 5, 0, 0, 0, 0],
            /* a3 */ vec![0, 0, 0, 0, 5, 50, 0, 5, 0, 0, 0, 0],
            /* a4 */ vec![0, 0, 0, 0, 50, 5, 5, 0, 0, 0, 0, 0],
            /* b1 */ vec![0, 5, 5, 50, 0, 0, 0, 0, 0, 2, 2, 50],
            /* b2 */ vec![5, 0, 50, 5, 0, 0, 0, 0, 2, 0, 50, 2],
            /* b3 */ vec![5, 50, 0, 5, 0, 0, 0, 0, 2, 50, 0, 2],
            /* b4 */ vec![50, 5, 5, 0, 0, 0, 0, 0, 50, 2, 2, 0],
            /* c1 */ vec![0, 0, 0, 0, 0, 2, 2, 50, 0, 0, 0, 0],
            /* c2 */ vec![0, 0, 0, 0, 2, 0, 50, 2, 0, 0, 0, 0],
            /* c3 */ vec![0, 0, 0, 0, 2, 50, 0, 2, 0, 0, 0, 0],
            /* c4 */ vec![0, 0, 0, 0, 50, 2, 2, 0, 0, 0, 0, 0],
        ];
        DenseMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn dense_reproduces_paper_example_matrix() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        assert_eq!(q.dense(), paper_qhat());
    }

    #[test]
    fn entry_agrees_with_dense_everywhere() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let dense = q.dense();
        let mn = problem.m() * problem.n();
        for r1 in 0..mn {
            for r2 in 0..mn {
                assert_eq!(
                    q.entry(PairIndex::new(r1), PairIndex::new(r2)),
                    dense[(r1, r2)],
                    "entry ({r1},{r2})"
                );
            }
        }
    }

    #[test]
    fn diagonal_carries_linear_cost() {
        let circuit = {
            let mut c = Circuit::new();
            let a = c.add_component("a", 1);
            let b = c.add_component("b", 1);
            c.add_wires(a, b, 5).unwrap();
            c
        };
        let topo = PartitionTopology::grid(2, 2, 10).unwrap();
        let p = DenseMatrix::from_fn(4, 2, |i, j| (10 * i + j) as Cost);
        let problem = ProblemBuilder::new(circuit, topo)
            .linear_cost(p)
            .build()
            .unwrap();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let dense = q.dense();
        for j in 0..2 {
            for i in 0..4 {
                let r = i + j * 4;
                assert_eq!(dense[(r, r)], (10 * i + j) as Cost);
            }
        }
    }

    #[test]
    fn value_equals_objective_when_feasible() {
        // Lemma 1: Q and Q̂ coincide over the feasible region.
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let eval = Evaluator::new(&problem);
        let feasible = Assignment::from_parts(vec![0, 1, 3]).unwrap();
        assert_eq!(q.violation_count(&feasible), 0);
        assert_eq!(q.value(&feasible), eval.cost(&feasible));
    }

    #[test]
    fn value_pays_penalty_per_violated_directed_pair() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        // a→1, b→4 (violates a↔b both ways), c→4 (b,c same partition: fine).
        let asg = Assignment::from_parts(vec![0, 3, 3]).unwrap();
        assert_eq!(q.violation_count(&asg), 2);
        // Base cost: a-b pair replaced by penalties; b-c at distance 0.
        assert_eq!(q.value(&asg), 2 * 50);
    }

    #[test]
    fn value_matches_dense_quadratic_form() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let dense = q.dense();
        for parts in [[0u32, 1, 3], [0, 3, 3], [2, 2, 2], [1, 0, 2], [3, 0, 1]] {
            let asg = Assignment::from_parts(parts.to_vec()).unwrap();
            let y = asg.indicator_vector(problem.m());
            let mut expect = 0;
            for (r1, &y1) in y.iter().enumerate() {
                if !y1 {
                    continue;
                }
                for (r2, &y2) in y.iter().enumerate() {
                    if y2 {
                        expect += dense[(r1, r2)];
                    }
                }
            }
            assert_eq!(q.value(&asg), expect, "parts {parts:?}");
        }
    }

    #[test]
    fn move_delta_matches_value_recompute() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        for parts in [[0u32, 1, 3], [0, 3, 3], [2, 2, 2], [1, 0, 2]] {
            let asg = Assignment::from_parts(parts.to_vec()).unwrap();
            for j in 0..3 {
                for i in 0..4 {
                    let mut moved = asg.clone();
                    moved.move_to(ComponentId::new(j), PartitionId::new(i));
                    assert_eq!(
                        q.move_delta(&asg, ComponentId::new(j), PartitionId::new(i)),
                        q.value(&moved) - q.value(&asg),
                        "parts {parts:?} move c{j} -> p{i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_eta_matches_dense_reference() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let mut eta = Vec::new();
        for parts in [[0u32, 1, 3], [0, 3, 3], [2, 2, 2], [1, 0, 2]] {
            let asg = Assignment::from_parts(parts.to_vec()).unwrap();
            q.eta(&asg, &mut eta);
            assert_eq!(eta, q.eta_dense_reference(&asg), "parts {parts:?}");
        }
    }

    #[test]
    fn omega_bounds_all_row_sums() {
        // ω[r] must dominate Σ_s q̂[r][s]·y[s] for every assignment y.
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let omega = q.omega();
        let dense = q.dense();
        let m = problem.m();
        let n = problem.n();
        // Enumerate all M^N assignments.
        for code in 0..(m as u64).pow(n as u32) {
            let mut parts = Vec::with_capacity(n);
            let mut c = code;
            for _ in 0..n {
                parts.push((c % m as u64) as u32);
                c /= m as u64;
            }
            let asg = Assignment::from_parts(parts).unwrap();
            let y = asg.indicator_vector(m);
            for r in 0..m * n {
                let row_sum: Cost = y
                    .iter()
                    .enumerate()
                    .filter(|&(_, &set)| set)
                    .map(|(s, _)| dense[(r, s)])
                    .sum();
                assert!(
                    omega[r] >= row_sum,
                    "omega[{r}] = {} < row sum {} at {:?}",
                    omega[r],
                    row_sum,
                    asg.as_slice()
                );
            }
        }
    }

    #[test]
    fn xi_is_omega_dot_u() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let omega = q.omega();
        let asg = Assignment::from_parts(vec![0, 3, 1]).unwrap();
        let y = asg.indicator_vector(problem.m());
        let direct: Cost = y
            .iter()
            .enumerate()
            .filter(|&(_, &set)| set)
            .map(|(r, _)| omega[r])
            .sum();
        assert_eq!(q.xi(&omega, &asg), direct);
    }

    #[test]
    fn theorem1_penalty_exceeds_twice_abs_sum() {
        let problem = paper_problem();
        let u = QMatrix::theorem1_penalty(&problem);
        // Build the *unembedded* Q (no penalty active ⇒ use a Q̂ whose
        // penalty never triggers: strip timing).
        let plain = problem.without_timing();
        let q = QMatrix::new(&plain, 1).unwrap();
        let abs_sum = q.dense().abs_sum();
        assert!(u > 2 * abs_sum, "U = {u} vs 2Σ|q| = {}", 2 * abs_sum);
    }

    #[test]
    fn auto_penalty_dominates_heaviest_edge_term() {
        let problem = paper_problem();
        let q = QMatrix::with_auto_penalty(&problem).unwrap();
        // Heaviest single base entry is 5·2 = 10; auto must exceed it and be
        // at least the paper's 50.
        assert!(q.penalty() >= 50);
        assert!(q.penalty() > 2 * 10);
        assert_eq!(QMatrix::auto_penalty(&problem), q.penalty());
    }

    #[test]
    fn patch_rows_delete_then_readd_pair() {
        let mut problem = paper_problem();
        let mut body = QBody::build(&problem, PAPER_PENALTY).unwrap();
        let (a, b) = (ComponentId::new(0), ComponentId::new(1));
        // Delete the connection (constraint-only record remains), re-add it,
        // then delete and re-add the timing bound: every intermediate body
        // must be bit-identical to a from-scratch build on the edited state.
        problem.set_pair_weight(a, b, 0).unwrap();
        body.patch_rows(&problem, &[0, 1]);
        assert_eq!(body, QBody::build(&problem, PAPER_PENALTY).unwrap());
        problem.set_pair_weight(a, b, 5).unwrap();
        body.patch_rows(&problem, &[0, 1]);
        assert_eq!(body, QBody::build(&problem, PAPER_PENALTY).unwrap());
        problem.set_timing_bound(a, b, None).unwrap();
        body.patch_rows(&problem, &[0, 1]);
        assert_eq!(body, QBody::build(&problem, PAPER_PENALTY).unwrap());
        problem.set_timing_bound(a, b, Some(1)).unwrap();
        body.patch_rows(&problem, &[0, 1]);
        assert_eq!(body, QBody::build(&problem, PAPER_PENALTY).unwrap());
    }

    #[test]
    fn body_roundtrips_through_matrix() {
        let problem = paper_problem();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let dense = q.dense();
        let body = q.into_body();
        assert_eq!(body.penalty(), PAPER_PENALTY);
        assert_eq!(body.rows(), problem.n());
        let q2 = QMatrix::from_body(&problem, body);
        assert_eq!(q2.dense(), dense);
    }

    #[test]
    fn build_past_index_cap_errors_instead_of_panicking() {
        let problem = paper_problem();
        // 5 merged out-records (a→b, b→a from symmetric timing, b→c, c→b,
        // plus merges) exceed a cap of 2; the real u32::MAX ceiling is
        // exercised by the same path.
        let err = QBody::build_with_index_cap(&problem, PAPER_PENALTY, 2).unwrap_err();
        match err {
            Error::IndexOverflow { records, cap, .. } => {
                assert!(records > cap);
                assert_eq!(cap, 2);
            }
            other => panic!("expected IndexOverflow, got {other:?}"),
        }
        // And it lifts to QbpError::Model at the API boundary.
        let lifted: crate::QbpError = err.into();
        assert!(matches!(lifted, crate::QbpError::Model(Error::IndexOverflow { .. })));
    }

    #[test]
    fn streamed_build_matches_nested_reference_on_paper_example() {
        let problem = paper_problem();
        let streamed = QBody::build(&problem, PAPER_PENALTY).unwrap();
        let nested = QBody::build_nested_reference(&problem, PAPER_PENALTY).unwrap();
        assert_eq!(streamed, nested);
        assert!(streamed.heap_bytes() > 0);
    }

    #[test]
    fn nonpositive_penalty_rejected() {
        let problem = paper_problem();
        assert!(QMatrix::new(&problem, 0).is_err());
        assert!(QMatrix::new(&problem, -5).is_err());
    }

    #[test]
    fn embedding_is_exact_on_small_instance() {
        // Theorem 1 empirically: with U from theorem1_penalty, the
        // unconstrained minimum over capacity-feasible assignments equals
        // the timing-constrained minimum of the original objective.
        let problem = paper_problem();
        let u = QMatrix::theorem1_penalty(&problem);
        let q = QMatrix::new(&problem, u).unwrap();
        let eval = Evaluator::new(&problem);
        let m = problem.m();
        let n = problem.n();
        let mut best_embedded: Option<(Cost, Assignment)> = None;
        let mut best_constrained: Option<Cost> = None;
        for code in 0..(m as u64).pow(n as u32) {
            let mut parts = Vec::with_capacity(n);
            let mut c = code;
            for _ in 0..n {
                parts.push((c % m as u64) as u32);
                c /= m as u64;
            }
            let asg = Assignment::from_parts(parts).unwrap();
            // Capacity always satisfied here (sizes 1, caps 10).
            let v = q.value(&asg);
            if best_embedded.as_ref().is_none_or(|(bv, _)| v < *bv) {
                best_embedded = Some((v, asg.clone()));
            }
            if q.violation_count(&asg) == 0 {
                let c0 = eval.cost(&asg);
                if best_constrained.is_none_or(|b| c0 < b) {
                    best_constrained = Some(c0);
                }
            }
        }
        let (bv, basg) = best_embedded.unwrap();
        assert_eq!(q.violation_count(&basg), 0, "minimizer must be feasible");
        assert_eq!(bv, best_constrained.unwrap());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};
    use proptest::prelude::*;

    /// An `m`-partition topology whose `B` (entries 0–4) and `D` (entries
    /// 0–3) are drawn cell by cell: asymmetric, diagonals mostly nonzero.
    /// On such a topology a kernel that reads a row of `B` or `D` where it
    /// should read a column gives wrong deltas, which a grid (symmetric,
    /// zero diagonal) hides.
    fn arb_topology(m: usize) -> impl Strategy<Value = PartitionTopology> {
        let cells = |hi: i64| proptest::collection::vec(0i64..hi, m * m);
        (cells(5), cells(4)).prop_map(move |(b, d)| {
            let square = |v: Vec<i64>| DenseMatrix::from_fn(m, m, |r, c| v[r * m + c]);
            PartitionTopology::new(vec![1000; m], square(b), square(d)).unwrap()
        })
    }

    fn arb_timed_problem() -> impl Strategy<Value = (Problem, Vec<u32>)> {
        (2usize..6, 2usize..5).prop_flat_map(|(n, m)| {
            let edges = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 1i64..5),
                0..10,
            );
            let cons = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 0i64..3),
                0..8,
            );
            let parts = proptest::collection::vec(0u32..m as u32, n);
            let topo = arb_topology(m);
            (edges, cons, parts, topo).prop_map(move |(edges, cons, parts, topo)| {
                let mut circuit = Circuit::new();
                for j in 0..n {
                    circuit.add_component(format!("c{j}"), 1);
                }
                for ((a, b), w) in edges {
                    circuit
                        .add_connection(ComponentId::new(a), ComponentId::new(b), w)
                        .unwrap();
                }
                let mut tc = TimingConstraints::new(n);
                for ((a, b), dc) in cons {
                    tc.add(ComponentId::new(a), ComponentId::new(b), dc).unwrap();
                }
                let problem = ProblemBuilder::new(circuit, topo).timing(tc).build().unwrap();
                (problem, parts)
            })
        })
    }

    /// A problem large enough (`n ≥ 4`) that single-component moves stay
    /// under the `N/2` fallback threshold and exercise the incremental
    /// patch, plus a random move sequence to replay.
    fn arb_move_sequence() -> impl Strategy<Value = (Problem, Vec<u32>, Vec<(usize, usize)>)> {
        (4usize..12).prop_flat_map(|n| {
            let m = 4usize;
            let edges = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 1i64..5),
                0..20,
            );
            let cons = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 0i64..3),
                0..12,
            );
            let parts = proptest::collection::vec(0u32..m as u32, n);
            let moves = proptest::collection::vec((0..n, 0..m), 0..16);
            let topo = arb_topology(m);
            (edges, cons, parts, moves, topo).prop_map(move |(edges, cons, parts, moves, topo)| {
                let mut circuit = Circuit::new();
                for j in 0..n {
                    circuit.add_component(format!("c{j}"), 1);
                }
                for ((a, b), w) in edges {
                    circuit
                        .add_connection(ComponentId::new(a), ComponentId::new(b), w)
                        .unwrap();
                }
                let mut tc = TimingConstraints::new(n);
                for ((a, b), dc) in cons {
                    tc.add(ComponentId::new(a), ComponentId::new(b), dc).unwrap();
                }
                let problem = ProblemBuilder::new(circuit, topo).timing(tc).build().unwrap();
                (problem, parts, moves)
            })
        })
    }

    /// An instance plus a netlist-edit script: each edit is
    /// `(op, a, b, v)` with op 0 = set pair weight (`v % 5`, 0 deletes),
    /// 1 = set/remove timing bound, 2 = detach component `a`, 3 = tighten
    /// every bound (touches all rows — the patch-vs-rebuild threshold
    /// crossing case). Deletions followed by re-adds of the same pair arise
    /// naturally from repeated op-0/op-1 entries on the same `(a, b)`.
    /// `(op, a, b, v)` rows from the doc comment above.
    type EditScript = Vec<(usize, usize, usize, i64)>;

    fn arb_edit_script() -> impl Strategy<Value = (Problem, Vec<u32>, EditScript)> {
        (3usize..8).prop_flat_map(|n| {
            let m = 4usize;
            let edges = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 1i64..5),
                0..15,
            );
            let cons = proptest::collection::vec(
                ((0..n, 0..n).prop_filter("no self", |(a, b)| a != b), 0i64..3),
                0..10,
            );
            let parts = proptest::collection::vec(0u32..m as u32, n);
            let edits = proptest::collection::vec((0usize..4, 0..n, 0..n, 0i64..6), 1..14);
            (Just(n), edges, cons, parts, edits).prop_map(|(n, edges, cons, parts, edits)| {
                let mut circuit = Circuit::new();
                for j in 0..n {
                    circuit.add_component(format!("c{j}"), 1);
                }
                for ((a, b), w) in edges {
                    circuit
                        .add_connection(ComponentId::new(a), ComponentId::new(b), w)
                        .unwrap();
                }
                let mut tc = TimingConstraints::new(n);
                for ((a, b), dc) in cons {
                    tc.add(ComponentId::new(a), ComponentId::new(b), dc).unwrap();
                }
                let topo = PartitionTopology::grid(2, 2, 1000).unwrap();
                let problem = ProblemBuilder::new(circuit, topo).timing(tc).build().unwrap();
                (problem, parts, edits)
            })
        })
    }

    /// The violated directed constraints as `TimingConstraints` lists them,
    /// sorted; [`QMatrix::violations`] must yield the same pairs.
    fn timing_violations(problem: &Problem, asg: &Assignment) -> Vec<(usize, usize)> {
        let d = problem.topology().delay();
        let mut pairs: Vec<(usize, usize)> = problem
            .timing()
            .iter()
            .map(|(a, b, limit)| (a.index(), b.index(), limit))
            .filter(|&(a, b, limit)| d[(asg.part_index(a), asg.part_index(b))] > limit)
            .map(|(a, b, _)| (a, b))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    fn record_violations(q: &QMatrix<'_>, asg: &Assignment) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = q.violations(asg).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Checks a move-delta table against the kernels it stands for: every
    /// filled row equals per-partition `move_delta`, and for every pair the
    /// swap delta splits into the two move deltas plus the pair correction,
    /// which is never below the matrix's pair floor.
    fn check_move_delta_table(
        q: &QMatrix<'_>,
        asg: &Assignment,
        table: &mut [Cost],
        filled: &mut [bool],
    ) -> Result<(), TestCaseError> {
        let (n, m) = (q.problem().n(), q.problem().m());
        for j in 0..n {
            let cj = ComponentId::new(j);
            if filled[j] {
                for i in 0..m {
                    prop_assert_eq!(
                        table[j * m + i],
                        q.move_delta(asg, cj, PartitionId::new(i)),
                        "D[{}][{}]", j, i
                    );
                }
            } else {
                // Fill the rest, so the pair identity sees every row.
                q.move_delta_row(asg, cj, &mut table[j * m..(j + 1) * m]);
                filled[j] = true;
            }
        }
        for j in 0..n {
            for l in 0..n {
                let (cj, cl) = (ComponentId::new(j), ComponentId::new(l));
                let (ij, il) = (asg.part_index(j), asg.part_index(l));
                let corr = q.pair_correction(asg, cj, cl);
                prop_assert_eq!(
                    q.swap_delta(asg, cj, cl),
                    table[j * m + il] + table[l * m + ij] + corr,
                    "swap c{} <-> c{}", j, l
                );
                prop_assert!(
                    corr >= q.pair_floor(),
                    "c{} <-> c{}: correction {} below the floor {}", j, l, corr, q.pair_floor()
                );
            }
        }
        Ok(())
    }

    #[test]
    fn pair_floor_bounds_corrections_on_penalized_diagonals() {
        // B has a positive diagonal and D[0][0] = 1 exceeds the zero limits,
        // so a correction can be negative; a grid's floor is 0.
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..3).map(|j| c.add_component(format!("c{j}"), 1)).collect();
        c.add_wires(ids[0], ids[1], 2).unwrap();
        c.add_connection(ids[1], ids[2], 3).unwrap();
        let mut tc = TimingConstraints::new(3);
        tc.add_symmetric(ids[0], ids[1], 0).unwrap();
        tc.add(ids[2], ids[0], 0).unwrap();
        let b = DenseMatrix::from_rows(vec![vec![3, 1], vec![1, 0]]).unwrap();
        let d = DenseMatrix::from_rows(vec![vec![1, 0], vec![0, 0]]).unwrap();
        let topo = PartitionTopology::new(vec![10, 10], b, d).unwrap();
        let grid = PartitionTopology::grid(1, 2, 10).unwrap();
        let on_grid = ProblemBuilder::new(c.clone(), grid).timing(tc.clone()).build().unwrap();
        let problem = ProblemBuilder::new(c, topo).timing(tc).build().unwrap();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        // −4·max(β·w_max·max B[i][i], penalty) = −4·max(1·3·3, 50).
        assert_eq!(q.pair_floor(), -200);
        let mut lowest = 0;
        for code in 0..8u32 {
            let asg = Assignment::from_parts((0..3).map(|j| code >> j & 1).collect()).unwrap();
            let (mut table, mut filled) = (vec![0; 6], vec![false; 3]);
            check_move_delta_table(&q, &asg, &mut table, &mut filled).unwrap();
            for (j, l) in (0..3).flat_map(|j| (0..3).map(move |l| (j, l))) {
                let corr = q.pair_correction(&asg, ComponentId::new(j), ComponentId::new(l));
                lowest = lowest.min(corr);
            }
        }
        // c0 in p0, c1 in p1: each direction's record gives
        // 2 + 2 − 50 − 0, so the floor is needed and holds.
        assert_eq!(lowest, -92);
        assert_eq!(QMatrix::new(&on_grid, PAPER_PENALTY).unwrap().pair_floor(), 0);
    }

    #[test]
    fn swap_identity_covers_one_and_two_way_constrained_records() {
        // c0 → c1: wire plus a one-way limit; c1 ↔ c2: limits both ways and
        // a wire against one of them; c2 → c3: a wire only; c3 → c0: a
        // limit only.
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..4).map(|j| c.add_component(format!("c{j}"), 1)).collect();
        c.add_connection(ids[0], ids[1], 3).unwrap();
        c.add_connection(ids[2], ids[1], 2).unwrap();
        c.add_connection(ids[2], ids[3], 4).unwrap();
        let mut tc = TimingConstraints::new(4);
        tc.add(ids[0], ids[1], 1).unwrap();
        tc.add_symmetric(ids[1], ids[2], 0).unwrap();
        tc.add(ids[3], ids[0], 1).unwrap();
        let problem = ProblemBuilder::new(c, PartitionTopology::grid(1, 3, 10).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
        let (n, m) = (problem.n(), problem.m());
        for code in 0..(m as u32).pow(n as u32) {
            let parts = (0..n).map(|j| code / (m as u32).pow(j as u32) % m as u32).collect();
            let asg = Assignment::from_parts(parts).unwrap();
            let mut table = vec![0; n * m];
            let mut filled = vec![false; n];
            check_move_delta_table(&q, &asg, &mut table, &mut filled).unwrap();
        }
    }

    proptest! {
        // The descent's move-delta table: rows filled lazily, then patched
        // across random committed moves and swaps (both halves), must stay
        // equal to fresh `move_delta` calls, and swap deltas must split into
        // table entries plus the pair correction.
        #[test]
        fn move_delta_table_stays_exact_across_commits(
            (problem, parts) in arb_timed_problem(),
            ops in proptest::collection::vec((proptest::bool::ANY, 0usize..8, 0usize..8), 0..12),
            prefill in proptest::collection::vec(proptest::bool::ANY, 8),
        ) {
            let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
            let (n, m) = (problem.n(), problem.m());
            let mut asg = Assignment::from_parts(parts).unwrap();
            let mut table = vec![0; n * m];
            let mut filled = vec![false; n];
            for j in (0..n).filter(|&j| prefill[j]) {
                q.move_delta_row(&asg, ComponentId::new(j), &mut table[j * m..(j + 1) * m]);
                filled[j] = true;
            }
            for (swap, a, b) in ops {
                let j = a % n;
                // A swap commits as two single moves, each patched.
                let l = b % n;
                let commits = if swap {
                    vec![(j, asg.part_index(l)), (l, asg.part_index(j))]
                } else {
                    vec![(j, b % m)]
                };
                for (k, to) in commits {
                    let from = PartitionId::new(asg.part_index(k));
                    asg.move_to(ComponentId::new(k), PartitionId::new(to));
                    q.patch_move_deltas(&asg, ComponentId::new(k), from, &mut table, &filled);
                }
                for k in (0..n).filter(|&k| filled[k]) {
                    for i in 0..m {
                        prop_assert_eq!(
                            table[k * m + i],
                            q.move_delta(&asg, ComponentId::new(k), PartitionId::new(i)),
                            "D[{}][{}] after {} of c{}", k, i, if swap { "swap" } else { "move" }, j
                        );
                    }
                }
            }
            check_move_delta_table(&q, &asg, &mut table, &mut filled)?;
        }

        // The ECO bit-identity invariant, and the premise of carrying a
        // move-delta table across edits: after every netlist edit, the
        // row-patched `QBody` equals its from-scratch counterpart built on
        // the edited problem, bit for bit, and every move-delta row outside
        // the touched set equals its fill under the `Q̂` before the edit.
        #[test]
        fn patched_body_matches_fresh_and_keeps_untouched_move_rows(
            (mut problem, parts, edits) in arb_edit_script()
        ) {
            let asg = Assignment::from_parts(parts).unwrap();
            let (n, m) = (problem.n(), problem.m());
            let fill = |q: &QMatrix<'_>| {
                let mut table = vec![0; n * m];
                for (j, row) in table.chunks_mut(m).enumerate() {
                    q.move_delta_row(&asg, ComponentId::new(j), row);
                }
                table
            };
            let mut body = QBody::build(&problem, PAPER_PENALTY).unwrap();
            for (op, a, b, v) in edits {
                if a == b {
                    continue;
                }
                let before = fill(&QMatrix::from_body(&problem, body.clone()));
                let (ca, cb) = (ComponentId::new(a), ComponentId::new(b));
                let touched: Vec<usize> = match op {
                    0 => {
                        problem.set_pair_weight(ca, cb, v % 5).unwrap();
                        vec![a, b]
                    }
                    1 => {
                        let bound = if v % 4 == 3 { None } else { Some(v % 4) };
                        problem.set_timing_bound(ca, cb, bound).unwrap();
                        vec![a, b]
                    }
                    2 => {
                        // Capture partners before the detach empties them.
                        let t: Vec<usize> = std::iter::once(a)
                            .chain(problem.circuit().out_connections(ca).map(|(k, _)| k.index()))
                            .chain(problem.circuit().in_connections(ca).map(|(k, _)| k.index()))
                            .chain(problem.timing().constraints_from(ca).map(|(k, _)| k.index()))
                            .chain(problem.timing().constraints_into(ca).map(|(k, _)| k.index()))
                            .collect();
                        problem.detach_component(ca).unwrap();
                        t
                    }
                    _ => {
                        problem.tighten_cycle_time(v % 2).unwrap();
                        (0..problem.n()).collect()
                    }
                };
                body.patch_rows(&problem, &touched);
                let fresh = QBody::build(&problem, PAPER_PENALTY).unwrap();
                prop_assert_eq!(&body, &fresh, "body diverged after op {}", op);
                let patched = QMatrix::from_body(&problem, body.clone());
                prop_assert_eq!(
                    record_violations(&patched, &asg),
                    timing_violations(&problem, &asg),
                    "violations after op {}", op
                );
                let after = fill(&patched);
                for j in (0..n).filter(|j| !touched.contains(j)) {
                    prop_assert_eq!(
                        &before[j * m..(j + 1) * m],
                        &after[j * m..(j + 1) * m],
                        "untouched row {} changed after op {}", j, op
                    );
                }
            }
        }

        #[test]
        fn eta_update_matches_fresh_eta((problem, parts, moves) in arb_move_sequence()) {
            let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
            let start = Assignment::from_parts(parts).unwrap();
            let mut cur = start.clone();
            let mut eta = Vec::new();
            q.eta(&cur, &mut eta);
            let mut fresh = Vec::new();
            let mut movers = Vec::new();
            // Single-component steps: the incremental patch must track a
            // fresh recomputation bit for bit across the whole sequence
            // (no drift).
            for (j, i) in moves {
                let mut next = cur.clone();
                next.move_to(ComponentId::new(j), PartitionId::new(i));
                cur.movers_into(&next, &mut movers);
                prop_assert!(movers.len() <= 1);
                q.eta_update(&cur, &next, &movers, &mut eta);
                q.eta(&next, &mut fresh);
                prop_assert_eq!(&eta, &fresh, "after moving c{} -> p{}", j, i);
                cur = next;
            }
            // Bulk jump back to the start: exercises the >N/2 fallback on
            // scrambled assignments and the no-op path on identical ones.
            cur.movers_into(&start, &mut movers);
            let patched = q.eta_update(&cur, &start, &movers, &mut eta);
            prop_assert_eq!(patched, movers.len() <= problem.n() / 2);
            q.eta(&start, &mut fresh);
            prop_assert_eq!(&eta, &fresh);
            // Cold buffer: wrong length must trigger a full recompute.
            let mut cold = Vec::new();
            prop_assert!(!q.eta_update(&cur, &start, &movers, &mut cold));
            prop_assert_eq!(&cold, &fresh);
        }

        #[test]
        fn sparse_kernels_match_dense((problem, parts) in arb_timed_problem()) {
            let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
            let asg = Assignment::from_parts(parts).unwrap();
            // η.
            let mut eta = Vec::new();
            q.eta(&asg, &mut eta);
            prop_assert_eq!(&eta, &q.eta_dense_reference(&asg));
            // yᵀQ̂y.
            let dense = q.dense();
            let y = asg.indicator_vector(problem.m());
            let mut expect = 0;
            for (r1, &y1) in y.iter().enumerate() {
                if !y1 { continue; }
                for (r2, &y2) in y.iter().enumerate() {
                    if y2 { expect += dense[(r1, r2)]; }
                }
            }
            prop_assert_eq!(q.value(&asg), expect);
        }

        #[test]
        fn value_feasible_iff_equals_cost((problem, parts) in arb_timed_problem()) {
            let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
            let asg = Assignment::from_parts(parts).unwrap();
            let cost = crate::Evaluator::new(&problem).cost(&asg);
            let violated = timing_violations(&problem, &asg);
            prop_assert_eq!(record_violations(&q, &asg), violated.clone());
            prop_assert_eq!(q.violation_count(&asg), violated.len());
            if q.violation_count(&asg) == 0 {
                prop_assert_eq!(q.value(&asg), cost);
            } else {
                prop_assert!(q.value(&asg) != cost || q.penalty() == 0);
            }
        }

        #[test]
        fn embedded_swap_delta_matches_value((problem, parts) in arb_timed_problem()) {
            let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
            let asg = Assignment::from_parts(parts).unwrap();
            for j1 in 0..problem.n() {
                for j2 in 0..problem.n() {
                    let mut swapped = asg.clone();
                    swapped.swap(ComponentId::new(j1), ComponentId::new(j2));
                    prop_assert_eq!(
                        q.swap_delta(&asg, ComponentId::new(j1), ComponentId::new(j2)),
                        q.value(&swapped) - q.value(&asg),
                        "swap c{} <-> c{}", j1, j2
                    );
                }
            }
        }

        #[test]
        fn embedded_move_delta_matches_value((problem, parts) in arb_timed_problem()) {
            let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
            let asg = Assignment::from_parts(parts).unwrap();
            for j in 0..problem.n() {
                for i in 0..problem.m() {
                    let mut moved = asg.clone();
                    moved.move_to(ComponentId::new(j), PartitionId::new(i));
                    prop_assert_eq!(
                        q.move_delta(&asg, ComponentId::new(j), PartitionId::new(i)),
                        q.value(&moved) - q.value(&asg)
                    );
                }
            }
        }

        #[test]
        fn omega_dominates_for_sampled_assignments((problem, parts) in arb_timed_problem()) {
            let q = QMatrix::new(&problem, PAPER_PENALTY).unwrap();
            let omega = q.omega();
            let dense = q.dense();
            let asg = Assignment::from_parts(parts).unwrap();
            let y = asg.indicator_vector(problem.m());
            for r in 0..omega.len() {
                let row_sum: Cost = y.iter().enumerate()
                    .filter(|&(_, &s)| s)
                    .map(|(s, _)| dense[(r, s)])
                    .sum();
                prop_assert!(omega[r] >= row_sum);
            }
        }

        // The compact streaming build (checked u32 offsets, no nested
        // intermediate) must be bit-identical to the historical two-phase
        // nested construction: same tables, same costs, same η rows.
        #[test]
        fn streamed_build_matches_nested_reference((problem, parts) in arb_timed_problem()) {
            let streamed = QBody::build(&problem, PAPER_PENALTY).unwrap();
            let nested = QBody::build_nested_reference(&problem, PAPER_PENALTY).unwrap();
            prop_assert_eq!(&streamed, &nested);
            let qs = QMatrix::from_body(&problem, streamed);
            let qn = QMatrix::from_body(&problem, nested);
            let asg = Assignment::from_parts(parts).unwrap();
            prop_assert_eq!(qs.value(&asg), qn.value(&asg));
            let (mut eta_s, mut eta_n) = (Vec::new(), Vec::new());
            qs.eta(&asg, &mut eta_s);
            qn.eta(&asg, &mut eta_n);
            prop_assert_eq!(eta_s, eta_n);
        }
    }
}
