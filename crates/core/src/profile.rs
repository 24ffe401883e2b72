//! Incremental per-partition neighbor-weight aggregates.
//!
//! [`PartitionProfile`] maintains, for each component `j` and partition `p`,
//! the aggregated neighbor weight `w[j][p] = Σ_{k ∈ N(j), A(k) = p} a[j][k]`
//! (separately for the out and in edge directions), updated in `O(deg(j))`
//! per committed move. The profile is the shared table behind the fast gain
//! kernels: QBP's η row evaluation
//! ([`QMatrix::eta_profiled`](crate::QMatrix::eta_profiled)), GFM's move
//! gains ([`Evaluator::move_delta_profiled`](crate::Evaluator)), and the
//! rows of GKL's move-delta table
//! ([`Evaluator::move_delta_row_profiled`](crate::Evaluator)) all become
//! `O(M)` table lookups instead of `O(deg·M)` adjacency walks, with
//! bit-identical integer results (`Σ_k β·w_k·x = β·(Σ_k w_k)·x` exactly in
//! `i64`).
//!
//! # Structure-of-arrays layout
//!
//! Aggregate rows are stored flat with their stride padded from `M` up to
//! [`padded_partitions`]`(M)` — the next multiple of [`SIMD_LANES`] — and the
//! pad lanes pinned at zero. The hot reduce/axpy loops ([`dot_diff`],
//! [`dot_diff2`], [`axpy`]) run as explicitly 4-lane-unrolled chunks over
//! `&[i64; 4]` blocks, which stable Rust autovectorizes; zero pad lanes
//! contribute nothing, so results stay bit-identical to the scalar loops
//! (`i64` addition is exact and reassociation-safe). Plain profiles
//! additionally carry padded copies of the wire-cost matrix `B` (row-major
//! and transposed), turning the in-direction column walks `b[(p, t)]` of the
//! move/swap kernels into contiguous row dots.

use crate::qmatrix::NO_CLASS;
use crate::{Assignment, Cost, Problem, QMatrix};

/// Fold tag for records that always belong in the base aggregate
/// (unconstrained connections).
const TAG_ALWAYS: u16 = u16::MAX;

/// Fold tag for records that never belong in the base aggregate
/// (timing-constrained records past the limit-class cap).
const TAG_NEVER: u16 = u16::MAX - 1;

/// `fix_idx` sentinel for a column with no constrained-correction row.
const NO_FIX_ROW: u32 = u32::MAX;

/// Number of `i64` lanes the hot kernels unroll by (the stride of the
/// structure-of-arrays padding). Chosen to fill a 256-bit vector register
/// with `i64`s; stable-Rust autovectorization needs no wider hint.
pub const SIMD_LANES: usize = 4;

/// A partition count rounded up to the next [`SIMD_LANES`] multiple: the
/// stride of every padded aggregate row.
pub const fn padded_partitions(m: usize) -> usize {
    (m + SIMD_LANES - 1) & !(SIMD_LANES - 1)
}

/// `Σ_p w[p]·(x[p] − y[p])` over padded rows, 4 lanes at a time with no
/// branches and no tail (all slices have [`padded_partitions`] length).
/// Exact `i64`, so lane-split accumulation is bit-identical to the scalar
/// left-to-right sum.
#[inline]
pub(crate) fn dot_diff(w: &[Cost], x: &[Cost], y: &[Cost]) -> Cost {
    debug_assert_eq!(w.len() % SIMD_LANES, 0);
    debug_assert!(w.len() == x.len() && w.len() == y.len());
    let mut acc = [0 as Cost; SIMD_LANES];
    for ((wc, xc), yc) in w
        .chunks_exact(SIMD_LANES)
        .zip(x.chunks_exact(SIMD_LANES))
        .zip(y.chunks_exact(SIMD_LANES))
    {
        let wc: &[Cost; SIMD_LANES] = wc.try_into().expect("exact chunk");
        let xc: &[Cost; SIMD_LANES] = xc.try_into().expect("exact chunk");
        let yc: &[Cost; SIMD_LANES] = yc.try_into().expect("exact chunk");
        for l in 0..SIMD_LANES {
            acc[l] += wc[l] * (xc[l] - yc[l]);
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `Σ_p (w1[p] − w2[p])·(x[p] − y[p])` over padded rows — the fused
/// differenced pass of the swap kernel, same contract as [`dot_diff`].
#[inline]
pub(crate) fn dot_diff2(w1: &[Cost], w2: &[Cost], x: &[Cost], y: &[Cost]) -> Cost {
    debug_assert_eq!(w1.len() % SIMD_LANES, 0);
    debug_assert!(w1.len() == w2.len() && w1.len() == x.len() && w1.len() == y.len());
    let mut acc = [0 as Cost; SIMD_LANES];
    for (((wc1, wc2), xc), yc) in w1
        .chunks_exact(SIMD_LANES)
        .zip(w2.chunks_exact(SIMD_LANES))
        .zip(x.chunks_exact(SIMD_LANES))
        .zip(y.chunks_exact(SIMD_LANES))
    {
        let wc1: &[Cost; SIMD_LANES] = wc1.try_into().expect("exact chunk");
        let wc2: &[Cost; SIMD_LANES] = wc2.try_into().expect("exact chunk");
        let xc: &[Cost; SIMD_LANES] = xc.try_into().expect("exact chunk");
        let yc: &[Cost; SIMD_LANES] = yc.try_into().expect("exact chunk");
        for l in 0..SIMD_LANES {
            acc[l] += (wc1[l] - wc2[l]) * (xc[l] - yc[l]);
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `slot[i] += coeff·row[i]` for `i < slot.len()`, 4-lane-unrolled main
/// chunks plus a scalar tail (`row` may be longer than `slot`; extra entries
/// are ignored). Bit-identical to the scalar loop — every slot entry
/// receives exactly one exact-`i64` addition.
#[inline(always)]
pub(crate) fn axpy(slot: &mut [Cost], coeff: Cost, row: &[Cost]) {
    let main = slot.len() & !(SIMD_LANES - 1);
    let (s4, s_tail) = slot.split_at_mut(main);
    let (r4, r_tail) = row[..s4.len() + s_tail.len()].split_at(main);
    for (sc, rc) in s4
        .chunks_exact_mut(SIMD_LANES)
        .zip(r4.chunks_exact(SIMD_LANES))
    {
        let rc: &[Cost; SIMD_LANES] = rc.try_into().expect("exact chunk");
        sc[0] += coeff * rc[0];
        sc[1] += coeff * rc[1];
        sc[2] += coeff * rc[2];
        sc[3] += coeff * rc[3];
    }
    for (v, &bv) in s_tail.iter_mut().zip(r_tail) {
        *v += coeff * bv;
    }
}

/// `slot[i] += row[i]` for `i < slot.len()`, unrolled like [`axpy`].
#[inline(always)]
pub(crate) fn add_rows(slot: &mut [Cost], row: &[Cost]) {
    let main = slot.len() & !(SIMD_LANES - 1);
    let (s4, s_tail) = slot.split_at_mut(main);
    let (r4, r_tail) = row[..s4.len() + s_tail.len()].split_at(main);
    for (sc, rc) in s4
        .chunks_exact_mut(SIMD_LANES)
        .zip(r4.chunks_exact(SIMD_LANES))
    {
        let rc: &[Cost; SIMD_LANES] = rc.try_into().expect("exact chunk");
        sc[0] += rc[0];
        sc[1] += rc[1];
        sc[2] += rc[2];
        sc[3] += rc[3];
    }
    for (v, &bv) in s_tail.iter_mut().zip(r_tail) {
        *v += bv;
    }
}

/// Incremental per-partition aggregated neighbor weights, maintained with
/// `O(deg)` updates per committed move.
///
/// Two flavours share the struct:
///
/// * **Plain** ([`PartitionProfile::plain`]) — built from the circuit alone;
///   tracks both directions (`out_row` / `in_row`) over every connection.
///   Backs the profiled move/swap gain kernels of
///   [`Evaluator`](crate::Evaluator) used by the GFM/GKL baselines.
/// * **Embedded** ([`PartitionProfile::embedded`]) — built from a
///   [`QMatrix`]; tracks only the in direction, and a record's weight is
///   counted only while its limit class is *folded* for the source partition
///   (see the class tables inside `QMatrix`). Backs
///   [`QMatrix::eta_profiled`](crate::QMatrix::eta_profiled).
///
/// Aggregate rows live in a flat structure-of-arrays buffer with stride
/// [`PartitionProfile::padded_m`] (pad lanes pinned at zero); the public
/// `*_row` accessors return the logical `M`-length prefix, the `*_row_padded`
/// ones the full stride for the branchless 4-lane kernels.
///
/// The profile owns a copy of the adjacency it tracks, so
/// [`PartitionProfile::apply_move`] needs no access to the circuit or matrix
/// — and it never reads the assignment: a committed swap is simply two
/// `apply_move` calls (the patches are order-independent because a mover's
/// own rows aggregate its *partners'* positions, never its own).
#[derive(Debug, Clone)]
pub struct PartitionProfile {
    n: usize,
    m: usize,
    /// The padded row stride: `padded_partitions(m)`.
    m_pad: usize,
    /// `out_agg[j·M_pad + p] = Σ_{k ∈ out(j), A(k) = p} a[j][k]`. Empty for
    /// embedded profiles (η consumes only the in direction).
    out_agg: Vec<Cost>,
    /// `in_agg[j·M_pad + p] = Σ_{k ∈ in(j), A(k) = p} a[k][j]`, restricted to
    /// folded records for embedded profiles.
    in_agg: Vec<Cost>,
    /// Padded copy of the wire-cost matrix: `b_pad[p·M_pad + t] = b[p][t]`
    /// (plain profiles only; zero pad lanes).
    b_pad: Vec<Cost>,
    /// Padded transpose of the wire-cost matrix:
    /// `bt_pad[t·M_pad + p] = b[p][t]` — one contiguous row per *target*
    /// partition, turning in-direction column walks into row dots (plain
    /// profiles only).
    bt_pad: Vec<Cost>,
    /// Tracked out adjacency (CSR offsets / partner / weight / fold tag):
    /// walking row `j` patches the `in_agg` of `j`'s out-partners.
    out_off: Vec<u32>,
    out_other: Vec<u32>,
    out_w: Vec<Cost>,
    out_tag: Vec<u16>,
    /// Tracked in adjacency (plain profiles only): walking row `j` patches
    /// the `out_agg` of `j`'s in-partners.
    in_off: Vec<u32>,
    in_other: Vec<u32>,
    in_w: Vec<Cost>,
    /// `folded[c·M + p]` copied from the matrix's limit-class tables
    /// (embedded profiles only).
    folded: Vec<bool>,
    /// Packed-row index of the constrained-correction tally (embedded
    /// profiles of a matrix with limit classes only): `fix_idx[j]` is either
    /// [`NO_FIX_ROW`] — column `j` has no class-tagged in-records — or the
    /// packed row of `j`'s tally in `fix`/`pen`. Rows are allocated lazily on
    /// a column's first class-tagged record, so only the (usually small)
    /// constrained minority of components pays the `M_pad`-wide row; on
    /// timing-sparse circuits this is the profile's biggest allocation saved.
    fix_idx: Vec<u32>,
    /// Penalty-relevant tally for timing-constrained partners, packed by
    /// `fix_idx`: `fix[r·M_pad + i]` accumulates, over the column's
    /// class-tagged constrained in-records, the exact fix-up the η kernel
    /// applies on top of the base aggregate — `penalty − β·w·b[p][i]` on the
    /// violating entries of folded records, `β·w·b[p][i] − penalty` on the
    /// satisfying entries of unfolded ones — while `pen[r]` carries the
    /// unfolded records' row-wide penalty. Zero-weight timing pairs still
    /// tally: they contribute pure penalty entries.
    fix: Vec<Cost>,
    pen: Vec<Cost>,
    /// Patch tables copied from the matrix's limit classes (embedded
    /// profiles only): entries `patch_off[c·M + p]..patch_off[c·M + p + 1]`
    /// of the parallel index/wire-cost arrays are the η-kernel patch list
    /// for class `c` and source partition `p` — the violating set when
    /// folded, the satisfying set otherwise.
    patch_off: Vec<u32>,
    patch_idx: Vec<u16>,
    patch_b: Vec<Cost>,
    /// The matrix's timing penalty and the problem's interconnect
    /// coefficient β (embedded profiles only).
    penalty: Cost,
    beta: Cost,
}

impl PartitionProfile {
    /// Builds a plain (circuit-direction) profile synced to `assignment`:
    /// both `out_row` and `in_row` aggregate every nonzero connection.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not match the problem's dimensions.
    pub fn plain(problem: &Problem, assignment: &Assignment) -> Self {
        let mut profile = Self::plain_unsynced(problem);
        profile.rebuild(assignment);
        profile
    }

    /// [`PartitionProfile::plain`] with the initial sync fanned across up to
    /// `threads` workers ([`PartitionProfile::rebuild_par`]); bit-identical
    /// for every thread count. Returns the profile and the number of worker
    /// chunks the sync used (`1` = serial).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not match the problem's dimensions.
    pub fn plain_par(problem: &Problem, assignment: &Assignment, threads: usize) -> (Self, usize) {
        let mut profile = Self::plain_unsynced(problem);
        let chunks = profile.rebuild_par(assignment, threads);
        (profile, chunks)
    }

    /// The structure-assembly half of [`PartitionProfile::plain`]: CSR
    /// copies and padded wire-cost tables built, aggregates still zero.
    fn plain_unsynced(problem: &Problem) -> Self {
        let n = problem.n();
        let m = problem.m();
        let m_pad = padded_partitions(m);
        let circuit = problem.circuit();
        let b = problem.topology().wire_cost();
        let mut b_pad = vec![0; m * m_pad];
        let mut bt_pad = vec![0; m * m_pad];
        for p in 0..m {
            for (t, &v) in b.row(p).iter().enumerate() {
                b_pad[p * m_pad + t] = v;
                bt_pad[t * m_pad + p] = v;
            }
        }
        let mut profile = PartitionProfile {
            n,
            m,
            m_pad,
            out_agg: vec![0; n * m_pad],
            in_agg: vec![0; n * m_pad],
            b_pad,
            bt_pad,
            out_off: Vec::with_capacity(n + 1),
            out_other: Vec::new(),
            out_w: Vec::new(),
            out_tag: Vec::new(),
            in_off: Vec::with_capacity(n + 1),
            in_other: Vec::new(),
            in_w: Vec::new(),
            folded: Vec::new(),
            fix_idx: Vec::new(),
            fix: Vec::new(),
            pen: Vec::new(),
            patch_off: Vec::new(),
            patch_idx: Vec::new(),
            patch_b: Vec::new(),
            penalty: 0,
            beta: 0,
        };
        profile.out_off.push(0);
        profile.in_off.push(0);
        for j in 0..n {
            let id = crate::ComponentId::new(j);
            for (k, w) in circuit.out_connections(id) {
                profile.out_other.push(k.index() as u32);
                profile.out_w.push(w);
                profile.out_tag.push(TAG_ALWAYS);
            }
            profile.out_off.push(profile.out_other.len() as u32);
            for (k, w) in circuit.in_connections(id) {
                profile.in_other.push(k.index() as u32);
                profile.in_w.push(w);
            }
            profile.in_off.push(profile.in_other.len() as u32);
        }
        profile
    }

    /// Builds an embedded (η-direction) profile of `q` synced to
    /// `assignment`: `in_row(j)` holds the base aggregate consumed by
    /// [`QMatrix::eta_profiled`](crate::QMatrix::eta_profiled) —
    /// unconstrained in-weights plus the constrained in-weights whose limit
    /// class is folded for the source's current partition. `out_row` is not
    /// tracked.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not match the problem's dimensions.
    pub fn embedded(q: &QMatrix<'_>, assignment: &Assignment) -> Self {
        let mut profile = Self::embedded_unsynced(q);
        profile.rebuild(assignment);
        profile
    }

    /// [`PartitionProfile::embedded`] with the initial sync fanned across up
    /// to `threads` workers ([`PartitionProfile::rebuild_par`]);
    /// bit-identical for every thread count — including the lazy
    /// constrained-correction row packing order. Returns the profile and the
    /// number of worker chunks the sync used (`1` = serial).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not match the problem's dimensions.
    pub fn embedded_par(q: &QMatrix<'_>, assignment: &Assignment, threads: usize) -> (Self, usize) {
        let mut profile = Self::embedded_unsynced(q);
        let chunks = profile.rebuild_par(assignment, threads);
        (profile, chunks)
    }

    /// The structure-assembly half of [`PartitionProfile::embedded`]: CSR
    /// copy and class tables built, aggregates still zero.
    fn embedded_unsynced(q: &QMatrix<'_>) -> Self {
        let problem = q.problem();
        let n = problem.n();
        let m = problem.m();
        let m_pad = padded_partitions(m);
        let classes = q.timing_classes();
        let out = q.out_csr();
        let mut profile = PartitionProfile {
            n,
            m,
            m_pad,
            out_agg: Vec::new(),
            in_agg: vec![0; n * m_pad],
            b_pad: Vec::new(),
            bt_pad: Vec::new(),
            out_off: Vec::with_capacity(n + 1),
            out_other: Vec::new(),
            out_w: Vec::new(),
            out_tag: Vec::new(),
            in_off: Vec::new(),
            in_other: Vec::new(),
            in_w: Vec::new(),
            folded: Vec::with_capacity(classes.class_count() * m),
            fix_idx: Vec::new(),
            fix: Vec::new(),
            pen: Vec::new(),
            patch_off: Vec::new(),
            patch_idx: Vec::new(),
            patch_b: Vec::new(),
            penalty: q.penalty(),
            beta: problem.beta(),
        };
        for c in 0..classes.class_count() {
            for p in 0..m {
                profile.folded.push(classes.folded(c as u16, p));
            }
        }
        if classes.class_count() > 0 {
            let (off, idx, b) = classes.patch_tables();
            profile.patch_off = off.to_vec();
            profile.patch_idx = idx.to_vec();
            profile.patch_b = b.to_vec();
            // Correction rows themselves are allocated lazily, on each
            // column's first class-tagged record (see `ensure_fix_row`).
            profile.fix_idx = vec![NO_FIX_ROW; n];
        }
        profile.out_off.push(0);
        for j in 0..n {
            for (k, w) in out.unconstrained(j) {
                profile.out_other.push(k as u32);
                profile.out_w.push(w);
                profile.out_tag.push(TAG_ALWAYS);
            }
            for (_, k, w, limit) in out.constrained(j) {
                profile.out_other.push(k as u32);
                profile.out_w.push(w);
                let c = classes.class_of(limit);
                profile
                    .out_tag
                    .push(if c == NO_CLASS { TAG_NEVER } else { c });
            }
            profile.out_off.push(profile.out_other.len() as u32);
        }
        profile
    }

    /// Number of partitions `M` (the logical length of each aggregate row).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The padded aggregate-row stride: [`padded_partitions`]`(M)`.
    pub fn padded_m(&self) -> usize {
        self.m_pad
    }

    /// Number of components `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of heap owned by the profile's buffers (capacity, not length),
    /// for the allocation audit in `perf_snapshot`: the aggregate rows, the
    /// padded wire-cost copies, the tracked adjacencies, and the timing
    /// patch tables.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.out_agg.capacity()
            + self.in_agg.capacity()
            + self.b_pad.capacity()
            + self.bt_pad.capacity()
            + self.out_w.capacity()
            + self.in_w.capacity()
            + self.fix.capacity()
            + self.pen.capacity()
            + self.patch_b.capacity())
            * size_of::<Cost>()
            + (self.out_off.capacity()
                + self.out_other.capacity()
                + self.in_off.capacity()
                + self.in_other.capacity()
                + self.patch_off.capacity()
                + self.fix_idx.capacity())
                * size_of::<u32>()
            + (self.out_tag.capacity() + self.patch_idx.capacity()) * size_of::<u16>()
            + self.folded.capacity() * size_of::<bool>()
    }

    /// Estimated heap of this profile under the pre-compaction layout, where
    /// the constrained-correction tally was dense — one `M_pad`-wide `fix`
    /// row and one `pen` slot for *every* component instead of only the
    /// constrained minority (and no `fix_idx`). `heap_bytes()` relative to
    /// this is the layout reduction reported by the bench harness's
    /// `scale_bench`.
    pub fn dense_layout_bytes(&self) -> usize {
        use std::mem::size_of;
        if self.fix_idx.is_empty() {
            return self.heap_bytes();
        }
        self.heap_bytes() - self.fix_idx.capacity() * size_of::<u32>()
            - (self.fix.capacity() + self.pen.capacity()) * size_of::<Cost>()
            + self.n * (self.m_pad + 1) * size_of::<Cost>()
    }

    /// The out-direction aggregate row of `j`:
    /// `out_row(j)[p] = Σ_{k ∈ out(j), A(k) = p} a[j][k]`.
    ///
    /// # Panics
    ///
    /// Panics on embedded profiles (which do not track the out direction) or
    /// when `j` is out of range.
    pub fn out_row(&self, j: usize) -> &[Cost] {
        assert!(
            !self.out_agg.is_empty(),
            "embedded profiles do not track the out direction"
        );
        &self.out_agg[j * self.m_pad..j * self.m_pad + self.m]
    }

    /// [`PartitionProfile::out_row`] at the full padded stride (pad lanes
    /// are zero), for the branchless 4-lane kernels.
    #[inline]
    pub(crate) fn out_row_padded(&self, j: usize) -> &[Cost] {
        &self.out_agg[j * self.m_pad..(j + 1) * self.m_pad]
    }

    /// The in-direction aggregate row of `j`:
    /// `in_row(j)[p] = Σ_{k ∈ in(j), A(k) = p} a[k][j]` (restricted to
    /// folded records for embedded profiles).
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn in_row(&self, j: usize) -> &[Cost] {
        &self.in_agg[j * self.m_pad..j * self.m_pad + self.m]
    }

    /// [`PartitionProfile::in_row`] at the full padded stride (pad lanes are
    /// zero).
    #[inline]
    pub(crate) fn in_row_padded(&self, j: usize) -> &[Cost] {
        &self.in_agg[j * self.m_pad..(j + 1) * self.m_pad]
    }

    /// Row `p` of the padded wire-cost copy: `b[p][·]` at the padded stride
    /// (plain profiles only).
    #[inline]
    pub(crate) fn wire_row_padded(&self, p: usize) -> &[Cost] {
        &self.b_pad[p * self.m_pad..(p + 1) * self.m_pad]
    }

    /// Row `t` of the padded wire-cost transpose: `b[·][t]` as a contiguous
    /// row at the padded stride (plain profiles only).
    #[inline]
    pub(crate) fn wire_col_padded(&self, t: usize) -> &[Cost] {
        &self.bt_pad[t * self.m_pad..(t + 1) * self.m_pad]
    }

    /// The constrained-correction row of column `j` and its row-wide
    /// penalty: the η kernel adds the row elementwise and the penalty to
    /// every entry. `None` when the profile tracks no limit classes or
    /// column `j` has no correction row (its tally is identically zero
    /// either way, so skipping the add is bit-identical).
    pub(crate) fn constrained_fix(&self, j: usize) -> Option<(&[Cost], Cost)> {
        let r = *self.fix_idx.get(j)?;
        if r == NO_FIX_ROW {
            return None;
        }
        let r = r as usize;
        Some((
            &self.fix[r * self.m_pad..r * self.m_pad + self.m],
            self.pen[r],
        ))
    }

    /// The packed correction row of column `k`, allocating a zeroed one on
    /// the column's first class-tagged record.
    #[inline]
    fn ensure_fix_row(&mut self, k: usize) -> usize {
        let r = self.fix_idx[k];
        if r != NO_FIX_ROW {
            return r as usize;
        }
        let r = self.pen.len();
        self.fix_idx[k] = r as u32;
        self.fix.resize(self.fix.len() + self.m_pad, 0);
        self.pen.push(0);
        r
    }

    /// Adds (`sign = 1`) or removes (`sign = -1`) one class-`c` record of
    /// weight `w` with its source in partition `p` from partner column `k`'s
    /// correction tally, by replaying the `(c, p)` patch list.
    #[inline]
    fn replay(&mut self, k: usize, c: u16, p: usize, sign: Cost, w: Cost) {
        let r = self.ensure_fix_row(k);
        let cp = c as usize * self.m + p;
        let s = self.patch_off[cp] as usize;
        let t = self.patch_off[cp + 1] as usize;
        let coeff = self.beta * w;
        let row = &mut self.fix[r * self.m_pad..r * self.m_pad + self.m];
        if self.folded[cp] {
            for (&i, &bi) in self.patch_idx[s..t].iter().zip(&self.patch_b[s..t]) {
                row[i as usize] += sign * (self.penalty - coeff * bi);
            }
        } else {
            self.pen[r] += sign * self.penalty;
            for (&i, &bi) in self.patch_idx[s..t].iter().zip(&self.patch_b[s..t]) {
                row[i as usize] += sign * (coeff * bi - self.penalty);
            }
        }
    }

    /// Whether a record with fold tag `tag` counts toward the base aggregate
    /// while its source sits in partition `p`.
    #[inline]
    fn folds(&self, tag: u16, p: usize) -> bool {
        match tag {
            TAG_ALWAYS => true,
            TAG_NEVER => false,
            c => self.folded[c as usize * self.m + p],
        }
    }

    /// Recomputes every aggregate from scratch for `assignment` (`O(E + T)`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not match the profile's dimensions.
    pub fn rebuild(&mut self, assignment: &Assignment) {
        assert_eq!(assignment.len(), self.n, "assignment length mismatch");
        let m_pad = self.m_pad;
        self.in_agg.fill(0);
        self.out_agg.fill(0);
        self.fix.fill(0);
        self.pen.fill(0);
        let track_out = !self.out_agg.is_empty();
        for j in 0..self.n {
            let pj = assignment.part_index(j);
            for e in self.out_off[j] as usize..self.out_off[j + 1] as usize {
                let k = self.out_other[e] as usize;
                let w = self.out_w[e];
                let tag = self.out_tag[e];
                if tag < TAG_NEVER {
                    // Class-tagged record: tally its η fix-up (zero-weight
                    // timing pairs included — they are pure penalty).
                    self.replay(k, tag, pj, 1, w);
                }
                if w == 0 {
                    continue;
                }
                if self.folds(tag, pj) {
                    self.in_agg[k * m_pad + pj] += w;
                }
                if track_out {
                    self.out_agg[j * m_pad + assignment.part_index(k)] += w;
                }
            }
        }
    }

    /// [`PartitionProfile::rebuild`] fanned across up to `threads` scoped
    /// workers. Returns the number of worker chunks used (`1` = the serial
    /// rebuild ran). **Bit-identical to the serial rebuild for every thread
    /// count**:
    ///
    /// * **Plain profiles** are rebuilt row-locally — each worker owns a
    ///   contiguous range of aggregate rows and derives `in_row(k)` from the
    ///   in-CSR and `out_row(j)` from the out-CSR, so no two workers touch
    ///   the same slot and every slot receives the same exact-`i64` sum the
    ///   serial source-major sweep produces (addition is commutative and
    ///   exact; the CSR directions mirror each other, which the incremental
    ///   `apply_move` path already relies on).
    /// * **Embedded profiles** fold per-source contributions, which scatter
    ///   into partner columns, so each worker scans a contiguous *source*
    ///   chunk into a private dense partial (aggregate and correction
    ///   tallies plus the chunk-local first-encounter order of corrected
    ///   columns); a
    ///   serial merge then adds the partials in chunk order. Values are
    ///   exact commutative sums, and the lazy `fix_idx` packing order is
    ///   reproduced exactly: concatenating chunk-local first encounters in
    ///   chunk order visits columns in the serial sweep's global
    ///   first-encounter order for any contiguous chunking.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not match the profile's dimensions.
    pub fn rebuild_par(&mut self, assignment: &Assignment, threads: usize) -> usize {
        assert_eq!(assignment.len(), self.n, "assignment length mismatch");
        // Cap the embedded path's transient dense partials at ~256 MiB
        // total. The cap changes only how wide the fan is, never the result.
        let workers = crate::par::workers_for(threads, self.n).min(if self.in_off.is_empty() {
            ((1usize << 25) / (self.n * self.m_pad).max(1)).max(1)
        } else {
            usize::MAX
        });
        if workers <= 1 {
            self.rebuild(assignment);
            return 1;
        }
        if !self.in_off.is_empty() {
            self.rebuild_par_plain(assignment, workers)
        } else {
            self.rebuild_par_embedded(assignment, workers)
        }
    }

    /// Row-local parallel rebuild of a plain profile (both CSR directions
    /// present, no fold tags other than "always", no correction rows).
    fn rebuild_par_plain(&mut self, assignment: &Assignment, workers: usize) -> usize {
        let m_pad = self.m_pad;
        let mut in_agg = std::mem::take(&mut self.in_agg);
        let mut out_agg = std::mem::take(&mut self.out_agg);
        let this = &*self;
        let chunks = crate::par::for_each_row(workers, m_pad, &mut in_agg, |k, slot| {
            slot.fill(0);
            for e in this.in_off[k] as usize..this.in_off[k + 1] as usize {
                slot[assignment.part_index(this.in_other[e] as usize)] += this.in_w[e];
            }
        });
        crate::par::for_each_row(workers, m_pad, &mut out_agg, |j, slot| {
            slot.fill(0);
            for e in this.out_off[j] as usize..this.out_off[j + 1] as usize {
                slot[assignment.part_index(this.out_other[e] as usize)] += this.out_w[e];
            }
        });
        self.in_agg = in_agg;
        self.out_agg = out_agg;
        chunks
    }

    /// Chunked-partial parallel rebuild of an embedded profile: private
    /// per-worker partials over contiguous source chunks, merged serially in
    /// chunk order (see [`PartitionProfile::rebuild_par`] for the
    /// determinism argument).
    fn rebuild_par_embedded(&mut self, assignment: &Assignment, workers: usize) -> usize {
        struct Partial {
            in_agg: Vec<Cost>,
            /// Corrected columns in chunk-local first-encounter order; the
            /// `i`-th entry's tally is row `i` of `fix` / `pen`.
            enc: Vec<u32>,
            fix: Vec<Cost>,
            pen: Vec<Cost>,
        }
        let n = self.n;
        let m = self.m;
        let m_pad = self.m_pad;
        let this = &*self;
        let partials = crate::par::map_chunks(workers, n, |_, range| {
            let mut part = Partial {
                in_agg: vec![0; n * m_pad],
                enc: Vec::new(),
                fix: Vec::new(),
                pen: Vec::new(),
            };
            let mut local_row = vec![NO_FIX_ROW; if this.fix_idx.is_empty() { 0 } else { n }];
            for j in range {
                let pj = assignment.part_index(j);
                for e in this.out_off[j] as usize..this.out_off[j + 1] as usize {
                    let k = this.out_other[e] as usize;
                    let w = this.out_w[e];
                    let tag = this.out_tag[e];
                    if tag < TAG_NEVER {
                        // Chunk-local mirror of `replay` (sign +1) into the
                        // private partial tallies.
                        let mut r = local_row[k] as usize;
                        if local_row[k] == NO_FIX_ROW {
                            r = part.pen.len();
                            local_row[k] = r as u32;
                            part.enc.push(k as u32);
                            part.fix.resize(part.fix.len() + m_pad, 0);
                            part.pen.push(0);
                        }
                        let cp = tag as usize * m + pj;
                        let s = this.patch_off[cp] as usize;
                        let t = this.patch_off[cp + 1] as usize;
                        let coeff = this.beta * w;
                        let row = &mut part.fix[r * m_pad..r * m_pad + m];
                        if this.folded[cp] {
                            for (&i, &bi) in this.patch_idx[s..t].iter().zip(&this.patch_b[s..t])
                            {
                                row[i as usize] += this.penalty - coeff * bi;
                            }
                        } else {
                            part.pen[r] += this.penalty;
                            for (&i, &bi) in this.patch_idx[s..t].iter().zip(&this.patch_b[s..t])
                            {
                                row[i as usize] += coeff * bi - this.penalty;
                            }
                        }
                    }
                    if w != 0 && this.folds(tag, pj) {
                        part.in_agg[k * m_pad + pj] += w;
                    }
                }
            }
            part
        });
        let chunks = partials.len();
        self.in_agg.fill(0);
        self.fix.fill(0);
        self.pen.fill(0);
        for part in partials {
            add_rows(&mut self.in_agg, &part.in_agg);
            for (i, &k) in part.enc.iter().enumerate() {
                let r = self.ensure_fix_row(k as usize);
                add_rows(
                    &mut self.fix[r * m_pad..(r + 1) * m_pad],
                    &part.fix[i * m_pad..(i + 1) * m_pad],
                );
                self.pen[r] += part.pen[i];
            }
        }
        chunks
    }

    /// [`PartitionProfile::update`] with the rebuild branch fanned across up
    /// to `threads` workers; the patch branch is already `O(moved·deg)` and
    /// stays serial. Returns `(rebuilt, moved, chunks)`; bit-identical to
    /// the serial update for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if either assignment does not match the profile's dimensions.
    pub fn update_par(
        &mut self,
        prev: &Assignment,
        next: &Assignment,
        threads: usize,
    ) -> (bool, usize, usize) {
        assert_eq!(prev.len(), self.n, "prev assignment length mismatch");
        assert_eq!(next.len(), self.n, "next assignment length mismatch");
        let moved: Vec<usize> = (0..self.n)
            .filter(|&j| prev.part_index(j) != next.part_index(j))
            .collect();
        if moved.len() * 4 > self.n * 3 {
            let chunks = self.rebuild_par(next, threads);
            return (true, moved.len(), chunks);
        }
        for &j in &moved {
            self.apply_move(j, prev.part_index(j), next.part_index(j));
        }
        (false, moved.len(), 1)
    }

    /// Patches the aggregates for a committed move of component `j` from
    /// partition `from` to partition `to` (`O(deg(j))`).
    ///
    /// Only the *partners'* rows change — a component's own rows aggregate
    /// its neighbors' positions — so the patch never reads the assignment
    /// and a swap is exactly two `apply_move` calls, in either order.
    ///
    /// # Panics
    ///
    /// Panics if `j`, `from` or `to` is out of range.
    pub fn apply_move(&mut self, j: usize, from: usize, to: usize) {
        if from == to {
            return;
        }
        assert!(j < self.n && from < self.m && to < self.m, "index out of range");
        let m_pad = self.m_pad;
        for e in self.out_off[j] as usize..self.out_off[j + 1] as usize {
            let k = self.out_other[e] as usize;
            let w = self.out_w[e];
            let tag = self.out_tag[e];
            if tag < TAG_NEVER {
                // Class-tagged record: re-tally its η fix-up for the new
                // source partition (zero-weight timing pairs included).
                self.replay(k, tag, from, -1, w);
                self.replay(k, tag, to, 1, w);
            }
            if w == 0 {
                continue;
            }
            match tag {
                TAG_ALWAYS => {
                    self.in_agg[k * m_pad + from] -= w;
                    self.in_agg[k * m_pad + to] += w;
                }
                TAG_NEVER => {}
                c => {
                    if self.folded[c as usize * self.m + from] {
                        self.in_agg[k * m_pad + from] -= w;
                    }
                    if self.folded[c as usize * self.m + to] {
                        self.in_agg[k * m_pad + to] += w;
                    }
                }
            }
        }
        if !self.out_agg.is_empty() {
            for e in self.in_off[j] as usize..self.in_off[j + 1] as usize {
                let k = self.in_other[e] as usize;
                let w = self.in_w[e];
                self.out_agg[k * m_pad + from] -= w;
                self.out_agg[k * m_pad + to] += w;
            }
        }
    }

    /// Syncs a profile reflecting `prev` to reflect `next`: patches each
    /// moved component with [`PartitionProfile::apply_move`] when at most
    /// `3N/4` moved, otherwise rebuilds from scratch.
    ///
    /// The threshold is deliberately looser than the `N/2` fallback of
    /// [`QMatrix::eta_update`](crate::QMatrix::eta_update): a patch costs
    /// `O(moved · (deg + M))` against a rebuild's `O(E + N·M)`, so patching
    /// stays cheaper until nearly every component moved; `3N/4` leaves
    /// margin for the patch path's worse constant factors.
    ///
    /// Returns `(rebuilt, moved)` — whether the full rebuild path ran, and
    /// how many components changed partition.
    ///
    /// # Panics
    ///
    /// Panics if either assignment does not match the profile's dimensions.
    pub fn update(&mut self, prev: &Assignment, next: &Assignment) -> (bool, usize) {
        assert_eq!(prev.len(), self.n, "prev assignment length mismatch");
        assert_eq!(next.len(), self.n, "next assignment length mismatch");
        let moved: Vec<usize> = (0..self.n)
            .filter(|&j| prev.part_index(j) != next.part_index(j))
            .collect();
        if moved.len() * 4 > self.n * 3 {
            self.rebuild(next);
            return (true, moved.len());
        }
        for &j in &moved {
            self.apply_move(j, prev.part_index(j), next.part_index(j));
        }
        (false, moved.len())
    }

    /// Syncs an **embedded** profile to a structurally edited matrix: for
    /// each component in `touched` (whose adjacency or constraints changed
    /// in `q` since this profile was built), un-applies the old stored out
    /// row from the aggregates, splices in the row `q` now holds, and
    /// re-applies it — `O(touched·(deg + M))` plus an `O(E + T)` audit scan.
    /// `assignment` must be the assignment the profile is currently synced
    /// to (positions are unchanged by a structure edit).
    ///
    /// Falls back to a full [`PartitionProfile::embedded`] rebuild (and
    /// returns `true`) when the patch cannot be local: the dimensions or the
    /// matrix's limit-class tables changed (a new distinct timing limit
    /// re-maps class indices profile-wide), or the audit scan finds any row
    /// outside `touched` disagreeing with `q` (a caller that under-reported
    /// the touched set still gets a correct profile). Either way the result
    /// is **bit-identical** to a fresh `embedded(q, assignment)`
    /// (property-tested): all aggregate arithmetic is exact `i64`
    /// add/subtract, so un-apply + re-apply cancels exactly.
    ///
    /// # Panics
    ///
    /// Panics on plain profiles (rebuild those with
    /// [`PartitionProfile::plain`]) or when `assignment` mismatches `q`.
    pub fn patch_structure(
        &mut self,
        q: &QMatrix<'_>,
        assignment: &Assignment,
        touched: &[usize],
    ) -> bool {
        assert!(
            self.out_agg.is_empty(),
            "patch_structure applies to embedded profiles only"
        );
        let problem = q.problem();
        if self.n != problem.n() || self.m != problem.m() {
            *self = Self::embedded(q, assignment);
            return true;
        }
        assert_eq!(assignment.len(), self.n, "assignment length mismatch");
        let classes = q.timing_classes();
        let class_tables_match = self.penalty == q.penalty()
            && self.beta == problem.beta()
            && self.folded.len() == classes.class_count() * self.m
            && (0..classes.class_count()).all(|c| {
                (0..self.m).all(|p| self.folded[c * self.m + p] == classes.folded(c as u16, p))
            })
            && {
                if classes.class_count() > 0 {
                    let (off, idx, b) = classes.patch_tables();
                    self.patch_off == off && self.patch_idx == idx && self.patch_b == b
                } else {
                    self.patch_off.is_empty()
                }
            };
        if !class_tables_match {
            *self = Self::embedded(q, assignment);
            return true;
        }
        let out = q.out_csr();
        let m_pad = self.m_pad;
        let mut rows: Vec<usize> = touched.to_vec();
        rows.sort_unstable();
        rows.dedup();
        for &j in &rows {
            assert!(j < self.n, "touched component out of range");
            let pj = assignment.part_index(j);
            // Un-apply the old stored row (mirror of the rebuild body,
            // sign −1).
            for e in self.out_off[j] as usize..self.out_off[j + 1] as usize {
                let k = self.out_other[e] as usize;
                let w = self.out_w[e];
                let tag = self.out_tag[e];
                if tag < TAG_NEVER {
                    self.replay(k, tag, pj, -1, w);
                }
                if w != 0 && self.folds(tag, pj) {
                    self.in_agg[k * m_pad + pj] -= w;
                }
            }
            // Splice in the row the matrix now holds.
            let mut no: Vec<u32> = Vec::new();
            let mut nw: Vec<Cost> = Vec::new();
            let mut nt: Vec<u16> = Vec::new();
            for (k, w) in out.unconstrained(j) {
                no.push(k as u32);
                nw.push(w);
                nt.push(TAG_ALWAYS);
            }
            for (_, k, w, limit) in out.constrained(j) {
                no.push(k as u32);
                nw.push(w);
                let c = classes.class_of(limit);
                nt.push(if c == NO_CLASS { TAG_NEVER } else { c });
            }
            let lo = self.out_off[j] as usize;
            let hi = self.out_off[j + 1] as usize;
            let delta = no.len() as i64 - (hi - lo) as i64;
            self.out_other.splice(lo..hi, no);
            self.out_w.splice(lo..hi, nw);
            self.out_tag.splice(lo..hi, nt);
            for o in &mut self.out_off[j + 1..] {
                *o = (*o as i64 + delta) as u32;
            }
            // Re-apply the new row (sign +1).
            for e in lo..self.out_off[j + 1] as usize {
                let k = self.out_other[e] as usize;
                let w = self.out_w[e];
                let tag = self.out_tag[e];
                if tag < TAG_NEVER {
                    self.replay(k, tag, pj, 1, w);
                }
                if w != 0 && self.folds(tag, pj) {
                    self.in_agg[k * m_pad + pj] += w;
                }
            }
        }
        // Audit: every stored row must now agree with the matrix record for
        // record. Catches under-reported touched sets and the corner case
        // where a changed limit set produced coincidentally identical class
        // tables but shifted class indices.
        let mut ok = true;
        'rows: for j in 0..self.n {
            let hi = self.out_off[j + 1] as usize;
            let mut e = self.out_off[j] as usize;
            for (k, w) in out.unconstrained(j) {
                if e >= hi
                    || self.out_other[e] != k as u32
                    || self.out_w[e] != w
                    || self.out_tag[e] != TAG_ALWAYS
                {
                    ok = false;
                    break 'rows;
                }
                e += 1;
            }
            for (_, k, w, limit) in out.constrained(j) {
                let c = classes.class_of(limit);
                let tag = if c == NO_CLASS { TAG_NEVER } else { c };
                if e >= hi
                    || self.out_other[e] != k as u32
                    || self.out_w[e] != w
                    || self.out_tag[e] != tag
                {
                    ok = false;
                    break 'rows;
                }
                e += 1;
            }
            if e != hi {
                ok = false;
                break;
            }
        }
        if !ok {
            *self = Self::embedded(q, assignment);
            return true;
        }
        false
    }

    /// Whether column `j`'s constrained-correction tally matches `other`'s,
    /// by value: an absent packed row equals a present all-zero one.
    fn fix_column_eq(&self, other: &Self, j: usize) -> bool {
        match (self.constrained_fix(j), other.constrained_fix(j)) {
            (None, None) => true,
            (Some((row, pen)), None) | (None, Some((row, pen))) => {
                pen == 0 && row.iter().all(|&v| v == 0)
            }
            (Some((ra, pa)), Some((rb, pb))) => pa == pb && ra == rb,
        }
    }
}

/// Equality is structural except for the constrained-correction tally, which
/// is compared by *value per column*: packed `fix` rows are allocated lazily
/// in first-touch order, so an incrementally patched profile and a freshly
/// built one can pack semantically identical rows differently (including a
/// cancelled-to-zero row versus no row at all).
impl PartialEq for PartitionProfile {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.m == other.m
            && self.m_pad == other.m_pad
            && self.out_agg == other.out_agg
            && self.in_agg == other.in_agg
            && self.b_pad == other.b_pad
            && self.bt_pad == other.bt_pad
            && self.out_off == other.out_off
            && self.out_other == other.out_other
            && self.out_w == other.out_w
            && self.out_tag == other.out_tag
            && self.in_off == other.in_off
            && self.in_other == other.in_other
            && self.in_w == other.in_w
            && self.folded == other.folded
            && self.patch_off == other.patch_off
            && self.patch_idx == other.patch_idx
            && self.patch_b == other.patch_b
            && self.penalty == other.penalty
            && self.beta == other.beta
            && (0..self.n).all(|j| self.fix_column_eq(other, j))
    }
}

impl Eq for PartitionProfile {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Circuit, ComponentId, Evaluator, PartitionId, PartitionTopology, ProblemBuilder,
        TimingConstraints,
    };

    fn diamond_problem() -> Problem {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("d", 1);
        let e = c.add_component("e", 1);
        c.add_connection(a, b, 5).unwrap();
        c.add_connection(a, d, 3).unwrap();
        c.add_connection(b, e, 2).unwrap();
        c.add_connection(d, e, 7).unwrap();
        c.add_connection(e, a, 1).unwrap();
        let mut tc = TimingConstraints::new(4);
        tc.add(a, e, 1).unwrap();
        tc.add_symmetric(b, d, 2).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 100).unwrap())
            .timing(tc)
            .build()
            .unwrap()
    }

    #[test]
    fn plain_rows_match_direct_aggregation() {
        let problem = diamond_problem();
        let asg = Assignment::from_parts(vec![0, 1, 2, 3]).unwrap();
        let profile = PartitionProfile::plain(&problem, &asg);
        let circuit = problem.circuit();
        for j in 0..problem.n() {
            let mut out = vec![0; problem.m()];
            let mut inn = vec![0; problem.m()];
            for (k, w) in circuit.out_connections(ComponentId::new(j)) {
                out[asg.part_index(k.index())] += w;
            }
            for (k, w) in circuit.in_connections(ComponentId::new(j)) {
                inn[asg.part_index(k.index())] += w;
            }
            assert_eq!(profile.out_row(j), &out[..], "out row {j}");
            assert_eq!(profile.in_row(j), &inn[..], "in row {j}");
        }
    }

    #[test]
    fn padded_rows_carry_zero_pad_lanes() {
        // M = 3, 4, 5, 16 cover under-, exactly-, and over-one-lane-block
        // logical widths; pad lanes must stay zero through move sequences.
        for m in [3usize, 4, 5, 16] {
            let mut c = Circuit::new();
            let ids: Vec<_> = (0..6)
                .map(|j| c.add_component(format!("c{j}"), 1))
                .collect();
            for w in ids.windows(2) {
                c.add_connection(w[0], w[1], 3).unwrap();
            }
            c.add_connection(ids[5], ids[0], 2).unwrap();
            let problem =
                ProblemBuilder::new(c, PartitionTopology::grid(1, m, 100).unwrap())
                    .build()
                    .unwrap();
            let mut asg = Assignment::from_fn(6, |j| PartitionId::new(j.index() % m));
            let mut profile = PartitionProfile::plain(&problem, &asg);
            assert_eq!(profile.padded_m(), padded_partitions(m));
            assert!(profile.padded_m().is_multiple_of(SIMD_LANES) && profile.padded_m() >= m);
            for step in 0..5usize {
                let j = step % 6;
                let to = (step * 2 + 1) % m;
                let from = asg.part_index(j);
                asg.move_to(ComponentId::new(j), PartitionId::new(to));
                profile.apply_move(j, from, to);
                for jj in 0..6 {
                    assert_eq!(profile.out_row(jj).len(), m);
                    assert!(profile.out_row_padded(jj)[m..].iter().all(|&v| v == 0));
                    assert!(profile.in_row_padded(jj)[m..].iter().all(|&v| v == 0));
                }
            }
            assert_eq!(profile, PartitionProfile::plain(&problem, &asg));
        }
    }

    #[test]
    fn apply_move_matches_rebuild() {
        let problem = diamond_problem();
        let mut asg = Assignment::from_parts(vec![0, 0, 1, 2]).unwrap();
        let mut profile = PartitionProfile::plain(&problem, &asg);
        let moves = [(0, 3), (2, 0), (3, 1), (0, 2), (1, 3)];
        for (j, to) in moves {
            let from = asg.part_index(j);
            asg.move_to(ComponentId::new(j), PartitionId::new(to));
            profile.apply_move(j, from, to);
            assert_eq!(profile, PartitionProfile::plain(&problem, &asg));
        }
    }

    #[test]
    fn swap_is_two_moves_in_either_order() {
        let problem = diamond_problem();
        let mut asg = Assignment::from_parts(vec![0, 1, 2, 3]).unwrap();
        let mut ab = PartitionProfile::plain(&problem, &asg);
        let mut ba = ab.clone();
        // Swap components 0 and 3 (adjacent in the circuit).
        ab.apply_move(0, 0, 3);
        ab.apply_move(3, 3, 0);
        ba.apply_move(3, 3, 0);
        ba.apply_move(0, 0, 3);
        asg.swap(ComponentId::new(0), ComponentId::new(3));
        let fresh = PartitionProfile::plain(&problem, &asg);
        assert_eq!(ab, fresh);
        assert_eq!(ba, fresh);
    }

    #[test]
    fn update_patches_small_diffs_and_rebuilds_large_ones() {
        let problem = diamond_problem();
        let prev = Assignment::from_parts(vec![0, 1, 2, 3]).unwrap();
        let mut profile = PartitionProfile::plain(&problem, &prev);
        // Three moves out of four: still the patch path (3 ≤ 3·4/4).
        let next = Assignment::from_parts(vec![2, 3, 2, 0]).unwrap();
        let (rebuilt, moved) = profile.update(&prev, &next);
        assert!(!rebuilt);
        assert_eq!(moved, 3);
        assert_eq!(profile, PartitionProfile::plain(&problem, &next));
        // Every component moved: rebuild path (4 > 3·4/4).
        let far = Assignment::from_parts(vec![0, 1, 3, 2]).unwrap();
        let (rebuilt, moved) = profile.update(&next, &far);
        assert!(rebuilt);
        assert_eq!(moved, 4);
        assert_eq!(profile, PartitionProfile::plain(&problem, &far));
    }

    #[test]
    fn embedded_profile_backs_eta_profiled() {
        let problem = diamond_problem();
        let q = QMatrix::new(&problem, 50).unwrap();
        let mut asg = Assignment::from_parts(vec![0, 1, 2, 3]).unwrap();
        let mut profile = PartitionProfile::embedded(&q, &asg);
        let (mut fresh, mut fast) = (Vec::new(), Vec::new());
        q.eta(&asg, &mut fresh);
        q.eta_profiled(&asg, &profile, &mut fast);
        assert_eq!(fresh, fast);
        for (j, to) in [(0, 3), (3, 0), (1, 2), (2, 1)] {
            let from = asg.part_index(j);
            asg.move_to(ComponentId::new(j), PartitionId::new(to));
            profile.apply_move(j, from, to);
            q.eta(&asg, &mut fresh);
            q.eta_profiled(&asg, &profile, &mut fast);
            assert_eq!(fresh, fast, "after moving {j} to {to}");
        }
    }

    #[test]
    fn profiled_move_and_swap_deltas_match_plain() {
        let problem = diamond_problem();
        let eval = Evaluator::new(&problem);
        let asg = Assignment::from_parts(vec![0, 1, 1, 3]).unwrap();
        let profile = PartitionProfile::plain(&problem, &asg);
        for j in 0..4 {
            for to in 0..4 {
                assert_eq!(
                    eval.move_delta(&asg, ComponentId::new(j), PartitionId::new(to)),
                    eval.move_delta_profiled(
                        &profile,
                        &asg,
                        ComponentId::new(j),
                        PartitionId::new(to)
                    ),
                    "move {j} -> {to}"
                );
            }
            for j2 in 0..4 {
                assert_eq!(
                    eval.swap_delta(&asg, ComponentId::new(j), ComponentId::new(j2)),
                    eval.swap_delta_profiled_lookup(
                        &profile,
                        &asg,
                        ComponentId::new(j),
                        ComponentId::new(j2)
                    ),
                    "swap {j} <-> {j2}"
                );
            }
        }
    }

    #[test]
    fn lane_helpers_match_scalar_reference() {
        // Deterministic pseudo-random padded rows at several widths.
        for m_pad in [4usize, 8, 16] {
            let gen = |salt: i64| -> Vec<Cost> {
                (0..m_pad)
                    .map(|i| ((i as i64 * 37 + salt * 11) % 23) - 7)
                    .collect()
            };
            let (w, w2, x, y) = (gen(1), gen(2), gen(3), gen(4));
            let scalar: Cost = (0..m_pad).map(|p| w[p] * (x[p] - y[p])).sum();
            assert_eq!(dot_diff(&w, &x, &y), scalar);
            let scalar2: Cost = (0..m_pad).map(|p| (w[p] - w2[p]) * (x[p] - y[p])).sum();
            assert_eq!(dot_diff2(&w, &w2, &x, &y), scalar2);
            for logical in [m_pad - 3, m_pad - 1, m_pad] {
                let mut slot = gen(5)[..logical].to_vec();
                let mut expect = slot.clone();
                for (v, &bv) in expect.iter_mut().zip(&x) {
                    *v += 3 * bv;
                }
                axpy(&mut slot, 3, &x);
                assert_eq!(slot, expect, "axpy logical={logical}");
                let mut slot2 = gen(6)[..logical].to_vec();
                let mut expect2 = slot2.clone();
                for (v, &bv) in expect2.iter_mut().zip(&y) {
                    *v += bv;
                }
                add_rows(&mut slot2, &y);
                assert_eq!(slot2, expect2, "add_rows logical={logical}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{
        Circuit, ComponentId, Evaluator, PartitionId, PartitionTopology, ProblemBuilder,
        TimingConstraints,
    };
    use proptest::prelude::*;

    /// A random timed problem, a random feasible-by-construction start, and a
    /// random committed-move sequence — the sequence is long relative to `N`
    /// so runs routinely cross the `3N/4` bulk-update threshold.
    fn arb_timed_instance() -> impl Strategy<
        Value = (
            Problem,
            Assignment,
            Vec<(usize, usize)>,
        ),
    > {
        (4usize..10, 2usize..6).prop_flat_map(|(n, m)| {
            let edges = proptest::collection::vec(
                (
                    (0..n, 0..n).prop_filter("no self loop", |(a, b)| a != b),
                    1i64..9,
                ),
                0..20,
            );
            let constraints = proptest::collection::vec(
                (
                    (0..n, 0..n).prop_filter("no self loop", |(a, b)| a != b),
                    1i64..4,
                ),
                0..8,
            );
            let parts = proptest::collection::vec(0u32..m as u32, n);
            let moves = proptest::collection::vec((0..n, 0..m), 1..24);
            (Just((n, m)), edges, constraints, parts, moves).prop_map(
                |((n, m), edges, constraints, parts, moves)| {
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
                    for ((a, b), l) in constraints {
                        tc.add(ComponentId::new(a), ComponentId::new(b), l).unwrap();
                    }
                    let topo = PartitionTopology::grid(1, m, 1000).unwrap();
                    let problem = ProblemBuilder::new(circuit, topo).timing(tc).build().unwrap();
                    let asg = Assignment::from_parts(parts).unwrap();
                    (problem, asg, moves)
                },
            )
        })
    }

    proptest! {
        // Satellite-3 coverage, η side: a patched embedded profile keeps
        // `eta_profiled` bit-identical to a fresh `eta` across random
        // committed-move sequences, including bulk `update` jumps that cross
        // the `3N/4` fallback threshold.
        #[test]
        fn profiled_eta_stays_bit_identical((problem, start, moves) in arb_timed_instance()) {
            let q = QMatrix::new(&problem, 50).unwrap();
            let mut asg = start.clone();
            let mut profile = PartitionProfile::embedded(&q, &asg);
            let (mut fresh, mut fast) = (Vec::new(), Vec::new());
            for (step, &(j, to)) in moves.iter().enumerate() {
                let from = asg.part_index(j);
                asg.move_to(ComponentId::new(j), PartitionId::new(to));
                profile.apply_move(j, from, to);
                q.eta(&asg, &mut fresh);
                q.eta_profiled(&asg, &profile, &mut fast);
                prop_assert_eq!(&fresh, &fast, "after move #{}", step);
            }
            // Bulk jump all the way back to the start: exercises whichever
            // side of the 3N/4 patch-vs-rebuild threshold the run lands on.
            let (_, moved) = profile.update(&asg, &start);
            prop_assert_eq!(moved, (0..problem.n())
                .filter(|&j| asg.part_index(j) != start.part_index(j)).count());
            q.eta(&start, &mut fresh);
            q.eta_profiled(&start, &profile, &mut fast);
            prop_assert_eq!(&fresh, &fast, "after bulk update");
        }

        // Gain side: profiled move and swap gains from a patched plain
        // profile are bit-identical to the adjacency-walking deltas at
        // every step.
        #[test]
        fn profiled_gains_stay_bit_identical((problem, start, moves) in arb_timed_instance()) {
            let eval = Evaluator::new(&problem);
            let n = problem.n();
            let m = problem.m();
            let mut asg = start;
            let mut profile = PartitionProfile::plain(&problem, &asg);
            for &(j, to) in &moves {
                for cand in 0..n {
                    for p in 0..m {
                        prop_assert_eq!(
                            eval.move_delta(&asg, ComponentId::new(cand), PartitionId::new(p)),
                            eval.move_delta_profiled(
                                &profile, &asg, ComponentId::new(cand), PartitionId::new(p)),
                            "move {} -> {}", cand, p
                        );
                    }
                    let other = (cand + j) % n;
                    prop_assert_eq!(
                        eval.swap_delta(&asg, ComponentId::new(cand), ComponentId::new(other)),
                        eval.swap_delta_profiled_lookup(
                            &profile, &asg, ComponentId::new(cand), ComponentId::new(other)),
                        "swap {} <-> {}", cand, other
                    );
                }
                let from = asg.part_index(j);
                asg.move_to(ComponentId::new(j), PartitionId::new(to));
                profile.apply_move(j, from, to);
            }
            prop_assert_eq!(&profile, &PartitionProfile::plain(&problem, &asg));
        }

        // Tentpole coverage: the fanned rebuild (plain row-local, embedded
        // chunk-merge) is bit-identical to the serial rebuild — including
        // the lazy `fix_idx` packing order — across thread counts, both
        // cold (`*_par` constructors) and mid-sequence (`rebuild_par` /
        // `update_par` after committed moves).
        #[test]
        fn parallel_rebuild_is_bit_identical((problem, start, moves) in arb_timed_instance()) {
            let q = QMatrix::new(&problem, 50).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let (plain, _) = PartitionProfile::plain_par(&problem, &start, threads);
                prop_assert_eq!(&plain, &PartitionProfile::plain(&problem, &start));
                let (embedded, _) = PartitionProfile::embedded_par(&q, &start, threads);
                prop_assert_eq!(&embedded, &PartitionProfile::embedded(&q, &start));
            }
            let mut asg = start.clone();
            for &(j, to) in &moves {
                asg.move_to(ComponentId::new(j), PartitionId::new(to));
            }
            for threads in [1usize, 2, 4, 8] {
                let mut plain = PartitionProfile::plain(&problem, &start);
                plain.rebuild_par(&asg, threads);
                prop_assert_eq!(&plain, &PartitionProfile::plain(&problem, &asg));
                let mut embedded = PartitionProfile::embedded(&q, &start);
                embedded.rebuild_par(&asg, threads);
                prop_assert_eq!(&embedded, &PartitionProfile::embedded(&q, &asg));
                let mut upd = PartitionProfile::embedded(&q, &start);
                let (rebuilt, moved, _) = upd.update_par(&start, &asg, threads);
                let mut upd_serial = PartitionProfile::embedded(&q, &start);
                let (rebuilt_s, moved_s) = upd_serial.update(&start, &asg);
                prop_assert_eq!((rebuilt, moved), (rebuilt_s, moved_s));
                prop_assert_eq!(&upd, &upd_serial);
            }
        }
    }
}
