//! Incremental per-partition neighbor-weight aggregates.
//!
//! [`PartitionProfile`] maintains, for each component `j` and partition `p`,
//! the aggregated neighbor weight `w[j][p] = Σ_{k ∈ N(j), A(k) = p} a[j][k]`
//! (separately for the out and in edge directions), updated in `O(deg(j))`
//! per committed move. The profile is the shared table behind QBP's η row
//! evaluation ([`QMatrix::eta_profiled`](crate::QMatrix::eta_profiled)) and
//! the rows of GFM's and GKL's move-delta tables
//! ([`Evaluator::move_delta_row_profiled`](crate::Evaluator)): each row
//! becomes `O(M)` table lookups instead of an `O(deg·M)` adjacency walk,
//! with bit-identical integer results (`Σ_k β·w_k·x = β·(Σ_k w_k)·x` exactly
//! in `i64`).
//!
//! Aggregate rows are stored flat at stride `M`. The row-accumulation loops
//! ([`axpy`], [`add_rows`]) run as 4-lane-unrolled chunks plus a scalar
//! tail, which stable Rust autovectorizes; every slot still receives exactly
//! one exact-`i64` addition per call, so results are bit-identical to the
//! scalar loops. Plain profiles also carry the transpose of the wire-cost
//! matrix `B`, so the move-delta kernels read its columns `b[·][t]` as
//! contiguous rows.

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

/// Number of `i64` lanes [`axpy`] and [`add_rows`] unroll by: a 256-bit
/// vector register of `i64`s.
const LANES: usize = 4;

/// `slot[i] += coeff·row[i]` for `i < slot.len()`, 4-lane-unrolled main
/// chunks plus a scalar tail (`row` may be longer than `slot`; extra entries
/// are ignored). Bit-identical to the scalar loop — every slot entry
/// receives exactly one exact-`i64` addition.
#[inline(always)]
pub(crate) fn axpy(slot: &mut [Cost], coeff: Cost, row: &[Cost]) {
    let main = slot.len() & !(LANES - 1);
    let (s4, s_tail) = slot.split_at_mut(main);
    let (r4, r_tail) = row[..s4.len() + s_tail.len()].split_at(main);
    for (sc, rc) in s4.chunks_exact_mut(LANES).zip(r4.chunks_exact(LANES)) {
        let rc: &[Cost; LANES] = rc.try_into().expect("exact chunk");
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
    let main = slot.len() & !(LANES - 1);
    let (s4, s_tail) = slot.split_at_mut(main);
    let (r4, r_tail) = row[..s4.len() + s_tail.len()].split_at(main);
    for (sc, rc) in s4.chunks_exact_mut(LANES).zip(r4.chunks_exact(LANES)) {
        let rc: &[Cost; LANES] = rc.try_into().expect("exact chunk");
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
///   Backs the move-delta rows of [`Evaluator`](crate::Evaluator) that the
///   GFM/GKL baselines fill their gain tables from.
/// * **Embedded** ([`PartitionProfile::embedded`]) — built from a
///   [`QMatrix`]; tracks only the in direction, and a record's weight is
///   counted only while its limit class is *folded* for the source partition
///   (see the class tables inside `QMatrix`). Backs
///   [`QMatrix::eta_profiled`](crate::QMatrix::eta_profiled).
///
/// Aggregate rows live in one flat buffer per direction at stride `M`.
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
    /// `out_agg[j·M + p] = Σ_{k ∈ out(j), A(k) = p} a[j][k]`. Empty for
    /// embedded profiles (η consumes only the in direction).
    out_agg: Vec<Cost>,
    /// `in_agg[j·M + p] = Σ_{k ∈ in(j), A(k) = p} a[k][j]`, restricted to
    /// folded records for embedded profiles.
    in_agg: Vec<Cost>,
    /// Transpose of the wire-cost matrix: `bt[t·M + p] = b[p][t]` — one
    /// contiguous row per *target* partition, so the move-delta kernels
    /// read columns of `B` as rows (plain profiles only).
    bt: Vec<Cost>,
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
    /// constrained minority of components pays the `M`-wide row; on
    /// timing-sparse circuits this is the profile's biggest allocation saved.
    fix_idx: Vec<u32>,
    /// Penalty-relevant tally for timing-constrained partners, packed by
    /// `fix_idx`: `fix[r·M + i]` accumulates, over the column's
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
        let n = problem.n();
        let m = problem.m();
        let circuit = problem.circuit();
        let b = problem.topology().wire_cost();
        let mut bt = vec![0; m * m];
        for p in 0..m {
            for (t, &v) in b.row(p).iter().enumerate() {
                bt[t * m + p] = v;
            }
        }
        let mut profile = PartitionProfile {
            n,
            m,
            out_agg: vec![0; n * m],
            in_agg: vec![0; n * m],
            bt,
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
        profile.rebuild(assignment);
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
        let problem = q.problem();
        let n = problem.n();
        let m = problem.m();
        let classes = q.timing_classes();
        let out = q.out_csr();
        let mut profile = PartitionProfile {
            n,
            m,
            out_agg: Vec::new(),
            in_agg: vec![0; n * m],
            bt: Vec::new(),
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
        profile.rebuild(assignment);
        profile
    }

    /// Number of partitions `M` (the logical length of each aggregate row).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of components `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of heap owned by the profile's buffers (capacity, not length),
    /// for the allocation audit in `scale_bench`: the aggregate rows, the
    /// transposed wire-cost copy, the tracked adjacencies, and the timing
    /// patch tables.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.out_agg.capacity()
            + self.in_agg.capacity()
            + self.bt.capacity()
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
        &self.out_agg[j * self.m..(j + 1) * self.m]
    }

    /// The in-direction aggregate row of `j`:
    /// `in_row(j)[p] = Σ_{k ∈ in(j), A(k) = p} a[k][j]` (restricted to
    /// folded records for embedded profiles).
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn in_row(&self, j: usize) -> &[Cost] {
        &self.in_agg[j * self.m..(j + 1) * self.m]
    }

    /// Row `t` of the wire-cost transpose: `b[·][t]` as a contiguous row
    /// (plain profiles only).
    #[inline]
    pub(crate) fn wire_col(&self, t: usize) -> &[Cost] {
        &self.bt[t * self.m..(t + 1) * self.m]
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
            &self.fix[r * self.m..(r + 1) * self.m],
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
        self.fix.resize(self.fix.len() + self.m, 0);
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
        let row = &mut self.fix[r * self.m..(r + 1) * self.m];
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
        let m = self.m;
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
                    self.in_agg[k * m + pj] += w;
                }
                if track_out {
                    self.out_agg[j * m + assignment.part_index(k)] += w;
                }
            }
        }
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
        let m = self.m;
        assert!(j < self.n && from < m && to < m, "index out of range");
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
                    self.in_agg[k * m + from] -= w;
                    self.in_agg[k * m + to] += w;
                }
                TAG_NEVER => {}
                c => {
                    if self.folded[c as usize * m + from] {
                        self.in_agg[k * m + from] -= w;
                    }
                    if self.folded[c as usize * m + to] {
                        self.in_agg[k * m + to] += w;
                    }
                }
            }
        }
        if !self.out_agg.is_empty() {
            for e in self.in_off[j] as usize..self.in_off[j + 1] as usize {
                let k = self.in_other[e] as usize;
                let w = self.in_w[e];
                self.out_agg[k * m + from] -= w;
                self.out_agg[k * m + to] += w;
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
            && self.out_agg == other.out_agg
            && self.in_agg == other.in_agg
            && self.bt == other.bt
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
        Circuit, ComponentId, PartitionId, PartitionTopology, ProblemBuilder, TimingConstraints,
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
    fn apply_move_matches_rebuild_at_several_widths() {
        // M = 3, 4, 5, 16 cover row strides under, at and past one unrolled
        // block of the row kernels.
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
            for step in 0..5usize {
                let j = step % 6;
                let to = (step * 2 + 1) % m;
                let from = asg.part_index(j);
                asg.move_to(ComponentId::new(j), PartitionId::new(to));
                profile.apply_move(j, from, to);
                for jj in 0..6 {
                    assert_eq!(profile.out_row(jj).len(), m);
                    assert_eq!(profile.in_row(jj).len(), m);
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
    fn lane_helpers_match_scalar_reference() {
        // Deterministic pseudo-random rows: slot lengths below, at and past
        // one unrolled block, each with and without a scalar tail.
        let gen = |salt: i64, len: usize| -> Vec<Cost> {
            (0..len)
                .map(|i| ((i as i64 * 37 + salt * 11) % 23) - 7)
                .collect()
        };
        for width in [4usize, 8, 16] {
            let (x, y) = (gen(3, width), gen(4, width));
            for logical in [width - 3, width - 1, width] {
                let mut slot = gen(5, logical);
                let mut expect = slot.clone();
                for (v, &bv) in expect.iter_mut().zip(&x) {
                    *v += 3 * bv;
                }
                axpy(&mut slot, 3, &x);
                assert_eq!(slot, expect, "axpy logical={logical}");
                let mut slot2 = gen(6, logical);
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

        // Gain side: the move-delta rows GFM and GKL fill from a patched
        // plain profile are bit-identical to the adjacency-walking deltas
        // at every step, and with the mutual-pair correction they price
        // swaps exactly too.
        #[test]
        fn profiled_move_rows_stay_bit_identical((problem, start, moves) in arb_timed_instance()) {
            let eval = Evaluator::new(&problem);
            let n = problem.n();
            let m = problem.m();
            let circuit = problem.circuit();
            let mut asg = start;
            let mut profile = PartitionProfile::plain(&problem, &asg);
            let mut rows = vec![0; n * m];
            for &(j, to) in &moves {
                for (cand, row) in rows.chunks_mut(m).enumerate() {
                    eval.move_delta_row_profiled(&profile, &asg, ComponentId::new(cand), row);
                    for (p, &d) in row.iter().enumerate() {
                        prop_assert_eq!(
                            eval.move_delta(&asg, ComponentId::new(cand), PartitionId::new(p)),
                            d,
                            "move {} -> {}", cand, p
                        );
                    }
                }
                for cand in 0..n {
                    let other = (cand + j) % n;
                    let (c1, c2) = (ComponentId::new(cand), ComponentId::new(other));
                    let (i1, i2) = (asg.part_index(cand), asg.part_index(other));
                    let wm = circuit.connection(c1, c2) + circuit.connection(c2, c1);
                    let corr = eval.swap_correction(PartitionId::new(i1), PartitionId::new(i2), wm);
                    let via_rows = rows[cand * m + i2] + rows[other * m + i1] + corr;
                    prop_assert_eq!(
                        eval.swap_delta(&asg, c1, c2),
                        via_rows,
                        "swap {} <-> {}", cand, other
                    );
                }
                let from = asg.part_index(j);
                asg.move_to(ComponentId::new(j), PartitionId::new(to));
                profile.apply_move(j, from, to);
            }
            prop_assert_eq!(&profile, &PartitionProfile::plain(&problem, &asg));
        }
    }
}
