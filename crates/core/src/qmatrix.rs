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
    Assignment, ComponentId, Cost, Delay, DenseMatrix, Error, PairIndex, PartitionId,
    PartitionProfile, Problem, NO_CONSTRAINT,
};

/// Default fixed penalty, matching the paper's experiments ("we set
/// `q̂ = 50` for those candidate assignments in which Timing Constraints are
/// violated").
pub const PAPER_PENALTY: Cost = 50;

/// One merged "interesting partner" record: the partner component, the
/// connection weight `a` (0 when only a constraint exists), and the timing
/// limit ([`NO_CONSTRAINT`] when only a connection exists). Used only during
/// construction (and by the nested-layout benchmark baseline); the kernels
/// walk the flattened [`Csr`] form.
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
    /// practice far cheaper than a full [`Csr::from_rows`] rebuild.
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

    /// The timing-constrained suffix of row `j`:
    /// `(record index, partner, weight, limit)`. The record index addresses
    /// parallel per-record side tables (e.g. limit classes).
    #[inline]
    pub(crate) fn constrained(
        &self,
        j: usize,
    ) -> impl Iterator<Item = (usize, usize, Cost, Delay)> + '_ {
        let (_, mid, hi) = self.bounds(j);
        (mid..hi).map(move |e| {
            (
                e,
                self.other[e] as usize,
                self.weight[e],
                self.limit[e],
            )
        })
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

    /// Bytes of heap owned by the CSR tables (capacity, not length), for the
    /// allocation audit in `perf_snapshot`.
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
    /// constrained-suffix layout of [`Csr::from_rows`].
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

/// Sentinel limit class for records outside the class tables (unconstrained
/// records, or constrained ones past [`MAX_LIMIT_CLASSES`]).
pub(crate) const NO_CLASS: u16 = u16::MAX;

/// Cap on distinct-limit classes; pathological instances with more distinct
/// limits fall back to the explicit per-record walk for the overflow.
const MAX_LIMIT_CLASSES: usize = 256;

/// Per-(limit class, source partition) violation structure: for class `c`
/// (limit `limits[c]`) and a constrained in-record whose source sits in
/// partition `p`, the candidate target partitions `i` split into a violating
/// set (`d[p][i] > limits[c]`, the entry is `penalty`) and a satisfying set
/// (the entry is the base interconnect term). Because the split depends only
/// on `(c, p)`, the smaller of the two sets is precomputed once — indices
/// *and* their wire costs `b[p][i]`, flat and contiguous — and shared by
/// every record of the class: the η kernel then touches
/// `min(|viol|, |sat|)` entries per cell with a sequential patch-table scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TimingClasses {
    m: usize,
    /// Sorted distinct limits, at most [`MAX_LIMIT_CLASSES`] of them.
    limits: Vec<Delay>,
    /// `folded[c·M + p]`: `|viol| ≤ |sat|`, i.e. the record's weight is
    /// folded into the per-partition base aggregate and only the violating
    /// entries are patched (otherwise the penalty is applied row-wide and
    /// only the satisfying entries are patched).
    folded: Vec<bool>,
    /// Patch table: entries `patch_off[c·M + p]..patch_off[c·M + p + 1]` of
    /// the parallel arrays list the patched target partitions — the
    /// violating set when folded, the satisfying set otherwise — with each
    /// index's wire cost `b[p][i]` inlined so the kernel's hot loop reads
    /// sequentially instead of chasing `b` rows.
    patch_off: Vec<u32>,
    patch_idx: Vec<u16>,
    patch_b: Vec<Cost>,
}

impl TimingClasses {
    fn build(problem: &Problem, out: &Csr) -> TimingClasses {
        let m = problem.m();
        let d = problem.topology().delay();
        let b = problem.topology().wire_cost();
        let mut limits: Vec<Delay> = out
            .limit
            .iter()
            .copied()
            .filter(|&l| l != NO_CONSTRAINT)
            .collect();
        limits.sort_unstable();
        limits.dedup();
        limits.truncate(MAX_LIMIT_CLASSES);
        let mut folded = Vec::with_capacity(limits.len() * m);
        let mut patch_off = Vec::with_capacity(limits.len() * m + 1);
        let mut patch_idx = Vec::new();
        let mut patch_b = Vec::new();
        patch_off.push(0);
        for &l in &limits {
            for p in 0..m {
                let drow = d.row(p);
                let v: Vec<u16> = (0..m).filter(|&i| drow[i] > l).map(|i| i as u16).collect();
                let s: Vec<u16> = (0..m).filter(|&i| drow[i] <= l).map(|i| i as u16).collect();
                let fold = v.len() <= s.len();
                folded.push(fold);
                for &i in if fold { &v } else { &s } {
                    patch_idx.push(i);
                    patch_b.push(b.row(p)[i as usize]);
                }
                patch_off.push(patch_idx.len() as u32);
            }
        }
        TimingClasses {
            m,
            limits,
            folded,
            patch_off,
            patch_idx,
            patch_b,
        }
    }

    /// Number of distinct-limit classes in the tables.
    #[inline]
    pub(crate) fn class_count(&self) -> usize {
        self.limits.len()
    }

    /// Class index for a limit value, or [`NO_CLASS`] when the limit fell
    /// past the class cap.
    #[inline]
    pub(crate) fn class_of(&self, limit: Delay) -> u16 {
        match self.limits.binary_search(&limit) {
            Ok(c) => c as u16,
            Err(_) => NO_CLASS,
        }
    }

    /// Whether records of class `c` with their source in partition `p` fold
    /// their weight into the base per-partition aggregate.
    #[inline]
    pub(crate) fn folded(&self, c: u16, p: usize) -> bool {
        c != NO_CLASS && self.folded[c as usize * self.m + p]
    }

    /// The flat `(offsets, indices, wire costs)` patch tables, for
    /// [`PartitionProfile`](crate::PartitionProfile) to copy.
    pub(crate) fn patch_tables(&self) -> (&[u32], &[u16], &[Cost]) {
        (&self.patch_off, &self.patch_idx, &self.patch_b)
    }

    /// Bytes of heap owned by the class tables, for the allocation audit.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.limits.capacity() * size_of::<Delay>()
            + self.folded.capacity() * size_of::<bool>()
            + self.patch_off.capacity() * size_of::<u32>()
            + self.patch_idx.capacity() * size_of::<u16>()
            + self.patch_b.capacity() * size_of::<Cost>()
    }
}

/// The owned, problem-detached payload of a [`QMatrix`]: the penalty, both
/// CSR adjacencies (out / in), and the precomputed timing-class patch tables.
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
    classes: TimingClasses,
    in_class: Vec<u16>,
    has_overflow: bool,
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
    /// constructing four billion edges. Production callers use
    /// [`QBody::build`].
    pub fn build_with_index_cap(
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
        Self::assemble(problem, penalty, out.finish(), inc.finish())
    }

    /// The historical two-phase construction — nested pair rows for the
    /// whole circuit, then [`Csr::from_rows`] — preserved as the equivalence
    /// reference for the streaming build path: the two are property-tested
    /// bit-identical over random circuits. Not for production use; it holds
    /// the full nested layout in memory.
    #[doc(hidden)]
    pub fn build_nested_reference(problem: &Problem, penalty: Cost) -> Result<Self, Error> {
        if penalty <= 0 {
            return Err(Error::NegativeValue {
                what: "timing penalty",
                value: penalty,
            });
        }
        let (out_rows, in_rows) = Self::merged_rows(problem);
        let out = Csr::from_rows(&out_rows);
        let inc = Csr::from_rows(&in_rows);
        Self::assemble(problem, penalty, out, inc)
    }

    /// Shared tail of both build paths: timing-class tables, per-record
    /// class ids, and the overflow flag.
    fn assemble(problem: &Problem, penalty: Cost, out: Csr, inc: Csr) -> Result<Self, Error> {
        let classes = TimingClasses::build(problem, &out);
        let in_class: Vec<u16> = inc
            .limit
            .iter()
            .map(|&l| {
                if l == NO_CONSTRAINT {
                    NO_CLASS
                } else {
                    classes.class_of(l)
                }
            })
            .collect();
        let has_overflow =
            (0..problem.n()).any(|j| inc.constrained(j).any(|(e, ..)| in_class[e] == NO_CLASS));
        Ok(QBody {
            penalty,
            out,
            inc,
            classes,
            in_class,
            has_overflow,
        })
    }

    /// Bytes of heap owned by the body's tables (CSR adjacencies, class
    /// tables, per-record class ids), for the allocation audit in
    /// `perf_snapshot`.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.out.heap_bytes()
            + self.inc.heap_bytes()
            + self.in_class.capacity() * size_of::<u16>()
            + self.classes.heap_bytes()
    }

    /// Estimated peak heap of the nested two-phase build path
    /// ([`QBody::build_nested_reference`]) for this body's adjacency: the
    /// final tables plus, transiently, one `Vec` header per row and one
    /// [`Pair`] per record for both directions. The streaming build never
    /// materializes that nested side, so `heap_bytes()` relative to this is
    /// the layout reduction reported by the bench harness's `scale_bench`.
    pub fn nested_layout_bytes(&self) -> usize {
        use std::mem::size_of;
        let rows = (self.out.off.len().saturating_sub(1)) + (self.inc.off.len().saturating_sub(1));
        let records = self.out.other.len() + self.inc.other.len();
        self.heap_bytes() + rows * size_of::<Vec<Pair>>() + records * size_of::<Pair>()
    }

    /// The historical nested layout: per-component merged pair rows, built
    /// by seeding with connections and then attaching timing limits to
    /// existing records (or creating weight-0 records for pure constraints).
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
    /// place, then refreshes the timing-class tables if the distinct-limit
    /// set changed. Returns the number of CSR rows spliced (two per touched
    /// component).
    ///
    /// Cost is `O(touched·deg + tail-memmove)` per row plus an `O(T)`
    /// distinct-limit scan — far below a full rebuild for small deltas. The
    /// result is **bit-identical** to `QBody::build` on the mutated problem
    /// (property-tested), so callers may mix patching and rebuilding freely.
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
            let out_row = Self::out_row(problem, j);
            self.out.replace_row(j, &out_row);
            let in_row = Self::in_row(problem, j);
            let (lo, _, hi) = self.inc.bounds(j);
            self.inc.replace_row(j, &in_row);
            let (nlo, _, nhi) = self.inc.bounds(j);
            let new_classes: Vec<u16> = (nlo..nhi)
                .map(|e| {
                    let l = self.inc.limit[e];
                    if l == NO_CONSTRAINT {
                        NO_CLASS
                    } else {
                        self.classes.class_of(l)
                    }
                })
                .collect();
            self.in_class.splice(lo..hi, new_classes);
            patched += 2;
        }
        // The class tables depend only on (topology, distinct limit set);
        // rebuild them — and remap every record's class — only when the set
        // actually changed.
        let mut limits: Vec<Delay> = self
            .out
            .limit
            .iter()
            .copied()
            .filter(|&l| l != NO_CONSTRAINT)
            .collect();
        limits.sort_unstable();
        limits.dedup();
        limits.truncate(MAX_LIMIT_CLASSES);
        if limits != self.classes.limits {
            self.classes = TimingClasses::build(problem, &self.out);
            self.in_class = self
                .inc
                .limit
                .iter()
                .map(|&l| {
                    if l == NO_CONSTRAINT {
                        NO_CLASS
                    } else {
                        self.classes.class_of(l)
                    }
                })
                .collect();
        }
        self.has_overflow = self.classes.class_count() == MAX_LIMIT_CLASSES
            && self
                .inc
                .limit
                .iter()
                .zip(&self.in_class)
                .any(|(&l, &c)| l != NO_CONSTRAINT && c == NO_CLASS);
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
        Ok(QMatrix {
            problem,
            body: QBody::build(problem, penalty)?,
        })
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
        QMatrix { problem, body }
    }

    /// Releases the owned body, dropping the problem borrow.
    pub fn into_body(self) -> QBody {
        self.body
    }

    /// The owned payload backing this matrix.
    pub fn body(&self) -> &QBody {
        &self.body
    }

    /// The flattened out-pair adjacency (`j → partner` records).
    pub(crate) fn out_csr(&self) -> &Csr {
        &self.body.out
    }

    /// The precomputed per-(limit class, partition) violation tables.
    pub(crate) fn timing_classes(&self) -> &TimingClasses {
        &self.body.classes
    }

    /// Builds `Q̂` with an automatically chosen penalty: strictly larger than
    /// twice the largest possible single-entry base cost (and at least the
    /// paper's 50), so one violation always costs more than re-routing the
    /// heaviest wire bundle across the topology, while staying far below the
    /// Theorem-1 bound to avoid swamping the cost landscape (§3.2's
    /// numerical-accuracy concern).
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates the positivity check of
    /// [`QMatrix::new`].
    pub fn with_auto_penalty(problem: &'a Problem) -> Result<Self, Error> {
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
        QMatrix::new(problem, bound.max(PAPER_PENALTY))
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
                        let entry = if limit != NO_CONSTRAINT && d[(i1, i2)] > limit {
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
            for (_, k, w, limit) in self.body.out.constrained(j) {
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
    fn record_entry(&self) -> impl Fn(Cost, Delay, usize, usize) -> Cost + '_ {
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let penalty = self.body.penalty;
        move |w, limit, i_row, i_col| {
            if limit != NO_CONSTRAINT && d[(i_row, i_col)] > limit {
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
        let entry = self.record_entry();
        let p_from = self.problem.p(from, jx);
        for (i, v) in row.iter_mut().enumerate() {
            *v = alpha * (self.problem.p(i, jx) - p_from);
        }
        // Out records j → k: entry (candidate, A(k)).
        for (k, w, limit) in self.body.out.all(jx) {
            let ik = assignment.part_index(k);
            let base = entry(w, limit, from, ik);
            for (i, v) in row.iter_mut().enumerate() {
                *v += entry(w, limit, i, ik) - base;
            }
        }
        // In records k → j: entry (A(k), candidate).
        for (k, w, limit) in self.body.inc.all(jx) {
            let ik = assignment.part_index(k);
            let base = entry(w, limit, ik, from);
            for (i, v) in row.iter_mut().enumerate() {
                *v += entry(w, limit, ik, i) - base;
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
        let entry = self.record_entry();
        // j → k records sit in k's row as in-records: entry (A(j), candidate).
        for (k, w, limit) in self.body.out.all(jx) {
            if !filled[k] {
                continue;
            }
            let ik = assignment.part_index(k);
            let shift = |i: usize| entry(w, limit, to, i) - entry(w, limit, from, i);
            let base = shift(ik);
            for (i, v) in table[k * m..(k + 1) * m].iter_mut().enumerate() {
                *v += shift(i) - base;
            }
        }
        // k → j records sit in k's row as out-records: entry (candidate, A(j)).
        for (k, w, limit) in self.body.inc.all(jx) {
            if !filled[k] {
                continue;
            }
            let ik = assignment.part_index(k);
            let shift = |i: usize| entry(w, limit, i, to) - entry(w, limit, i, from);
            let base = shift(ik);
            for (i, v) in table[k * m..(k + 1) * m].iter_mut().enumerate() {
                *v += shift(i) - base;
            }
        }
        if filled[jx] {
            let row = &mut table[jx * m..(jx + 1) * m];
            let base = row[to];
            for v in row.iter_mut() {
                *v -= base;
            }
        }
    }

    /// The pair terms that separate a swap from its two single moves: for
    /// every record partner `l` of `j`, adds
    /// `swap_delta(j, l) − move_delta(j, A(l)) − move_delta(l, A(j))` to
    /// `corr[l]` and pushes `l` onto `touched` (once per record, so a
    /// partner joined in both directions appears twice). With `i1 = A(j)`,
    /// `i2 = A(l)` and `e` a record's `Q̂` entry, each record between the two
    /// contributes `e(i1, i2) + e(i2, i1) − e(i1, i1) − e(i2, i2)`; a
    /// component with no record to `j` needs no correction. Callers zero
    /// `corr` at the `touched` indices before the next use. Runs in
    /// `O(deg(j) + constraints(j))`.
    ///
    /// # Panics
    ///
    /// Panics if `corr` is shorter than `N` or `j` is out of range.
    pub fn swap_corrections(
        &self,
        assignment: &Assignment,
        j: ComponentId,
        corr: &mut [Cost],
        touched: &mut Vec<usize>,
    ) {
        let jx = j.index();
        let i1 = assignment.part_index(jx);
        let entry = self.record_entry();
        let records = self.body.out.all(jx).chain(self.body.inc.all(jx));
        for (l, w, limit) in records {
            let i2 = assignment.part_index(l);
            corr[l] += entry(w, limit, i1, i2) + entry(w, limit, i2, i1)
                - entry(w, limit, i1, i1)
                - entry(w, limit, i2, i2);
            touched.push(l);
        }
    }

    /// Number of directed timing-constraint pairs violated by `assignment`
    /// (the count of penalty entries active in [`QMatrix::value`]).
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the problem's dimensions.
    pub fn violation_count(&self, assignment: &Assignment) -> usize {
        let d = self.problem.topology().delay();
        self.problem
            .timing()
            .iter()
            .filter(|&(j1, j2, limit)| {
                d[(
                    assignment.part_index(j1.index()),
                    assignment.part_index(j2.index()),
                )] > limit
            })
            .count()
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
            for (_, k, w, limit) in self.body.inc.constrained(j) {
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
    /// Panics if either assignment does not match the problem's dimensions.
    pub fn eta_update(
        &self,
        prev: &Assignment,
        next: &Assignment,
        eta: &mut Vec<Cost>,
    ) -> bool {
        let m = self.problem.m();
        let n = self.problem.n();
        if eta.len() != m * n {
            self.eta(next, eta);
            return false;
        }
        let moved: Vec<usize> = (0..n)
            .filter(|&j| prev.part_index(j) != next.part_index(j))
            .collect();
        if moved.len() > n / 2 {
            self.eta(next, eta);
            return false;
        }
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let alpha = self.problem.alpha();
        for &k in &moved {
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
            for (_, j, w, limit) in self.body.out.constrained(k) {
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

    /// Profile-accelerated [`QMatrix::eta`]: identical output, computed from
    /// the per-partition aggregated neighbor weights of `profile` (an
    /// embedded [`PartitionProfile`] of this matrix, synced to `assignment`).
    ///
    /// Per column `j`, the unconstrained mass — plus every *folded*
    /// constrained record (see [`TimingClasses`]) — collapses to at most one
    /// row-axpy per occupied source partition (`O(M)` lookups instead of one
    /// walk per record), and the timing fix-ups collapse to one elementwise
    /// add of the profile's precomputed correction row plus one row-wide
    /// penalty. No per-record work remains (records past the limit-class cap
    /// excepted). All arithmetic is exact integer addition and cancellation,
    /// so the result is bit-identical to [`QMatrix::eta`] (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `profile` was not built with this matrix's dimensions or
    /// the assignment does not match the problem's dimensions.
    pub fn eta_profiled(
        &self,
        assignment: &Assignment,
        profile: &PartitionProfile,
        out: &mut Vec<Cost>,
    ) {
        let m = self.problem.m();
        let n = self.problem.n();
        assert_eq!(profile.m(), m, "profile partition count mismatch");
        assert_eq!(profile.n(), n, "profile component count mismatch");
        out.clear();
        out.resize(m * n, 0);
        for j in 0..n {
            self.eta_profiled_column(j, &mut out[j * m..(j + 1) * m], assignment, profile);
        }
    }

    /// Parallel [`QMatrix::eta_profiled`]: fans the η columns across up to
    /// `threads` scoped workers via [`crate::par::for_each_row`]. Each column
    /// is an independent pure function of the (shared, read-only) assignment
    /// and profile writing a disjoint `M`-slot of `out`, so the result is
    /// bit-identical to the serial kernel for every thread count.
    ///
    /// Returns the number of worker chunks used (`1` = the serial loop ran).
    ///
    /// # Panics
    ///
    /// Panics like [`QMatrix::eta_profiled`].
    pub fn eta_profiled_par(
        &self,
        assignment: &Assignment,
        profile: &PartitionProfile,
        out: &mut Vec<Cost>,
        threads: usize,
    ) -> usize {
        let m = self.problem.m();
        let n = self.problem.n();
        assert_eq!(profile.m(), m, "profile partition count mismatch");
        assert_eq!(profile.n(), n, "profile component count mismatch");
        out.clear();
        out.resize(m * n, 0);
        crate::par::for_each_row(threads, m, out, |j, slot| {
            self.eta_profiled_column(j, slot, assignment, profile);
        })
    }

    /// One column of [`QMatrix::eta_profiled`]: accumulates η row `j` into
    /// `slot` (length `M`, pre-zeroed). Forced inline so both the serial
    /// column loop and the parallel chunk closure hoist the topology/weight
    /// lookups out of their column loops instead of paying a call per column.
    #[inline(always)]
    fn eta_profiled_column(
        &self,
        j: usize,
        slot: &mut [Cost],
        assignment: &Assignment,
        profile: &PartitionProfile,
    ) {
        let b = self.problem.topology().wire_cost();
        let d = self.problem.topology().delay();
        let beta = self.problem.beta();
        let alpha = self.problem.alpha();
        // 1. Base: one 4-lane-unrolled axpy per occupied source partition
        //    covers every unconstrained in-record and every folded
        //    constrained one.
        for (p, &wsum) in profile.in_row(j).iter().enumerate() {
            if wsum != 0 {
                crate::profile::axpy(slot, beta * wsum, b.row(p));
            }
        }
        // 2. Constrained fix-ups straight from the profile's
        //    penalty-relevant tally: one elementwise row add plus one
        //    row-wide penalty (batched below), no per-record work. Columns
        //    without a packed correction row contribute nothing.
        let mut pen_all: Cost = 0;
        if let Some((fix, pen)) = profile.constrained_fix(j) {
            crate::profile::add_rows(slot, fix);
            pen_all += pen;
        }
        if self.body.has_overflow {
            // Overflow classes: never folded, never cell-tallied; walk
            // them explicitly like the plain kernel.
            for (e, k, w, limit) in self.body.inc.constrained(j) {
                if self.body.in_class[e] != NO_CLASS {
                    continue;
                }
                let p = assignment.part_index(k);
                let coeff = beta * w;
                let drow = d.row(p);
                for ((v, &bv), &dv) in slot.iter_mut().zip(b.row(p)).zip(drow) {
                    *v += if dv > limit { self.body.penalty } else { coeff * bv };
                }
            }
        }
        if pen_all != 0 {
            for v in slot.iter_mut() {
                *v += pen_all;
            }
        }
        // 3. Diagonal contribution from u[(A(j), j)] = 1.
        let ij = assignment.part_index(j);
        slot[ij] += alpha * self.problem.p(ij, j);
    }

    /// Snapshots the merged pair lists in the historical nested
    /// `Vec<Vec<_>>` layout for [`NestedEtaBaseline`].
    pub fn nested_eta_baseline(&self) -> NestedEtaBaseline {
        let (_, in_rows) = QBody::merged_rows(self.problem);
        NestedEtaBaseline { in_pairs: in_rows }
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
            for (_, _, w, limit) in self.body.out.constrained(j) {
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

/// The pre-CSR nested adjacency layout (`Vec<Vec<_>>` pair rows), preserved
/// as the honest comparison baseline for the kernel-regression benchmark in
/// `perf_snapshot`: [`NestedEtaBaseline::eta`] replicates the historical
/// pointer-chasing η walk, so old-vs-new kernel timings compare the data
/// layout and aggregation strategy, not two different algorithms.
#[derive(Debug, Clone)]
pub struct NestedEtaBaseline {
    in_pairs: Vec<Vec<Pair>>,
}

impl NestedEtaBaseline {
    /// The historical η kernel: per column, walk the nested in-pair list and
    /// branch on each record's limit. The output is identical to
    /// [`QMatrix::eta`]; only the memory layout (and therefore the speed)
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `assignment` mismatch the snapshot's dimensions.
    pub fn eta(&self, q: &QMatrix<'_>, assignment: &Assignment, out: &mut Vec<Cost>) {
        let problem = q.problem();
        let m = problem.m();
        let n = problem.n();
        assert_eq!(self.in_pairs.len(), n, "baseline dimension mismatch");
        let b = problem.topology().wire_cost();
        let d = problem.topology().delay();
        let beta = problem.beta();
        let alpha = problem.alpha();
        let penalty = q.penalty();
        out.clear();
        out.resize(m * n, 0);
        for j in 0..n {
            let slot = &mut out[j * m..(j + 1) * m];
            for pair in &self.in_pairs[j] {
                let ik = assignment.part_index(pair.other as usize);
                let coeff = beta * pair.weight;
                let brow = b.row(ik);
                if pair.limit == NO_CONSTRAINT {
                    for (i, v) in slot.iter_mut().enumerate() {
                        *v += coeff * brow[i];
                    }
                } else {
                    let drow = d.row(ik);
                    for (i, v) in slot.iter_mut().enumerate() {
                        *v += if drow[i] > pair.limit {
                            penalty
                        } else {
                            coeff * brow[i]
                        };
                    }
                }
            }
            let ij = assignment.part_index(j);
            slot[ij] += alpha * problem.p(ij, j);
        }
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
            (Just((n, m)), edges, cons, parts).prop_map(|((n, m), edges, cons, parts)| {
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
                let topo = PartitionTopology::grid(1, m, 1000).unwrap();
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
            (Just(n), edges, cons, parts, moves).prop_map(|(n, edges, cons, parts, moves)| {
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

    /// Checks a move-delta table against the kernels it stands for: every
    /// filled row equals per-partition `move_delta`, and for every pair the
    /// swap delta splits into the two move deltas plus the pair correction.
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
        let mut corr = vec![0; n];
        let mut touched = Vec::new();
        for j in 0..n {
            q.swap_corrections(asg, ComponentId::new(j), &mut corr, &mut touched);
            for l in 0..n {
                let (ij, il) = (asg.part_index(j), asg.part_index(l));
                prop_assert_eq!(
                    q.swap_delta(asg, ComponentId::new(j), ComponentId::new(l)),
                    table[j * m + il] + table[l * m + ij] + corr[l],
                    "swap c{} <-> c{}", j, l
                );
            }
            for &l in &touched {
                corr[l] = 0;
            }
            touched.clear();
        }
        Ok(())
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

        // The ECO bit-identity invariant: after every netlist edit, the
        // row-patched `QBody` and the structure-patched embedded
        // `PartitionProfile` must equal their from-scratch counterparts
        // built on the edited problem, bit for bit.
        #[test]
        fn patched_body_and_profile_match_fresh(
            (mut problem, parts, edits) in arb_edit_script()
        ) {
            let asg = Assignment::from_parts(parts).unwrap();
            let mut body = QBody::build(&problem, PAPER_PENALTY).unwrap();
            let mut profile = {
                let q = QMatrix::from_body(&problem, body.clone());
                crate::PartitionProfile::embedded(&q, &asg)
            };
            for (op, a, b, v) in edits {
                if a == b {
                    continue;
                }
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
                let q = QMatrix::from_body(&problem, body.clone());
                profile.patch_structure(&q, &asg, &touched);
                let fresh_profile = crate::PartitionProfile::embedded(&q, &asg);
                prop_assert_eq!(&profile, &fresh_profile, "profile diverged after op {}", op);
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
            // Single-component steps: the incremental patch must track a
            // fresh recomputation bit for bit across the whole sequence
            // (no drift).
            for (j, i) in moves {
                let mut next = cur.clone();
                next.move_to(ComponentId::new(j), PartitionId::new(i));
                q.eta_update(&cur, &next, &mut eta);
                q.eta(&next, &mut fresh);
                prop_assert_eq!(&eta, &fresh, "after moving c{} -> p{}", j, i);
                cur = next;
            }
            // Bulk jump back to the start: exercises the >N/2 fallback on
            // scrambled assignments and the no-op path on identical ones.
            q.eta_update(&cur, &start, &mut eta);
            q.eta(&start, &mut fresh);
            prop_assert_eq!(&eta, &fresh);
            // Cold buffer: wrong length must trigger a full recompute.
            let mut cold = Vec::new();
            prop_assert!(!q.eta_update(&cur, &start, &mut cold));
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
