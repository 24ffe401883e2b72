//! Deterministic speculative move batches for greedy interchange sweeps.
//!
//! The serial FM/KL-style sweep is a loop over a max-heap: pop the best
//! candidate, recompute its gain against the current state (heap entries go
//! stale as moves commit), and either apply it or push it back. That loop is
//! inherently sequential — each pop depends on every commit before it — but
//! the expensive part, *gain revalidation*, is a pure function of a frozen
//! state snapshot. This module batches the loop:
//!
//! 1. **Prefetch**: pop up to [`BatchQueue::prefetch`]`(limit)` entries from
//!    the heap, in pop order, into a buffer.
//! 2. **Speculate**: revalidate all buffered entries concurrently against
//!    the frozen pre-batch state ([`BatchQueue::evaluate`]).
//! 3. **Commit (serial)**: walk the buffer in order, replaying the serial
//!    loop's decisions exactly. A speculative gain is *valid* iff none of
//!    the entry's dependencies were touched since the prefetch (tracked by a
//!    [`TouchLog`]); a touched entry is revalidated serially, which is
//!    exactly what the serial loop would have computed. If a commit pushes a
//!    new heap entry that strictly beats the next buffered one, the batch
//!    aborts: the remainder is pushed back ([`BatchQueue::requeue_from`])
//!    and a fresh round starts — again matching the serial pop order.
//!
//! Under that discipline the batched sweep consumes entries in exactly the
//! serial pop order and applies exactly the serial decisions, so the result
//! (and the emitted move/profile event stream) is **bit-identical to the
//! serial sweep for every thread count and every batch size**. Ties need no
//! special care: heap entries are full tuples, so equal entries are
//! interchangeable copies.
//!
//! The helpers are generic over the heap entry type; the GFM baseline
//! instantiates them with its `(GainKey, u32, u32)` move entries.

use std::collections::BinaryHeap;

/// Default number of heap entries prefetched per speculative round. Constant
/// (never derived from the thread count) so the consumed-entry sequence is
/// trivially identical for every thread budget; correctness does not depend
/// on the value, only the speculation hit rate does.
pub const SPECULATIVE_BATCH: usize = 64;

/// Epoch-stamped dirty set: tracks which components were touched (moved, or
/// adjacent to a move) since the last [`begin_round`](TouchLog::begin_round).
/// Used by the commit phase to decide whether a speculative gain computed
/// against the frozen pre-round state is still exact.
#[derive(Debug, Clone, Default)]
pub struct TouchLog {
    stamp: Vec<u64>,
    epoch: u64,
}

impl TouchLog {
    /// A log for `n` components, all untouched.
    pub fn new(n: usize) -> Self {
        TouchLog {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Resets the log for `n` components (reusing the allocation).
    pub fn reset(&mut self, n: usize) {
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.epoch = 1;
    }

    /// Starts a new round: everything counts as untouched again.
    pub fn begin_round(&mut self) {
        self.epoch += 1;
    }

    /// Marks component `j` touched in the current round.
    #[inline]
    pub fn touch(&mut self, j: usize) {
        self.stamp[j] = self.epoch;
    }

    /// Whether component `j` was touched since the current round began.
    #[inline]
    pub fn touched(&self, j: usize) -> bool {
        self.stamp[j] == self.epoch
    }
}

/// Reusable prefetch buffer for one speculative round over a max-heap.
#[derive(Debug, Clone)]
pub struct BatchQueue<E> {
    buf: Vec<E>,
}

impl<E> Default for BatchQueue<E> {
    fn default() -> Self {
        BatchQueue { buf: Vec::new() }
    }
}

impl<E: Ord + Copy> BatchQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        BatchQueue { buf: Vec::new() }
    }

    /// Pops up to `limit` entries from `heap` (in pop order, i.e. descending)
    /// into the buffer, replacing any previous contents. Returns the number
    /// prefetched.
    pub fn prefetch(&mut self, heap: &mut BinaryHeap<E>, limit: usize) -> usize {
        self.buf.clear();
        while self.buf.len() < limit {
            match heap.pop() {
                Some(e) => self.buf.push(e),
                None => break,
            }
        }
        self.buf.len()
    }

    /// The prefetched entries, best first.
    pub fn entries(&self) -> &[E] {
        &self.buf
    }

    /// Revalidates every buffered entry concurrently with `f`, a pure
    /// function of the entry and the frozen pre-round state. Results come
    /// back in buffer order; the second element is the number of worker
    /// chunks used (`1` = the serial loop ran).
    pub fn evaluate<R, F>(&self, threads: usize, f: F) -> (Vec<R>, usize)
    where
        R: Send,
        E: Sync,
        F: Fn(&E) -> R + Sync,
    {
        let rows = self.buf.len();
        let tasks = crate::par::workers_for(threads, rows);
        let out = crate::par::map_collect(threads, rows, |i| f(&self.buf[i]));
        (out, tasks)
    }

    /// Pushes entries `from..` back into the heap (the abort path: a commit
    /// produced a better candidate than the rest of the batch).
    pub fn requeue_from(&mut self, heap: &mut BinaryHeap<E>, from: usize) {
        for &e in &self.buf[from..] {
            heap.push(e);
        }
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_log_rounds_are_independent() {
        let mut log = TouchLog::new(4);
        log.touch(1);
        assert!(log.touched(1));
        assert!(!log.touched(0));
        log.begin_round();
        assert!(!log.touched(1));
        log.touch(3);
        assert!(log.touched(3));
        log.reset(2);
        assert!(!log.touched(0) && !log.touched(1));
    }

    #[test]
    fn prefetch_preserves_pop_order_and_requeue_restores() {
        let mut heap: BinaryHeap<(i64, u32)> = [(5, 0), (9, 1), (1, 2), (7, 3)].into();
        let mut q = BatchQueue::new();
        assert_eq!(q.prefetch(&mut heap, 3), 3);
        assert_eq!(q.entries(), &[(9, 1), (7, 3), (5, 0)]);
        assert_eq!(heap.len(), 1);
        // Abort after consuming the first entry: the rest goes back.
        q.requeue_from(&mut heap, 1);
        assert_eq!(heap.len(), 3);
        assert_eq!(q.prefetch(&mut heap, 10), 3);
        assert_eq!(q.entries(), &[(7, 3), (5, 0), (1, 2)]);
        assert_eq!(q.prefetch(&mut heap, 10), 0);
    }

    #[test]
    fn evaluate_is_order_preserving_for_any_thread_count() {
        let mut heap: BinaryHeap<(i64, u32)> = (0..40).map(|i| (i as i64, i)).collect();
        let mut q = BatchQueue::new();
        q.prefetch(&mut heap, 40);
        let expect: Vec<i64> = q.entries().iter().map(|&(g, _)| g * 3).collect();
        for threads in [1usize, 2, 4, 8] {
            let (got, tasks) = q.evaluate(threads, |&(g, _)| g * 3);
            assert_eq!(got, expect, "threads={threads}");
            assert!(tasks >= 1 && tasks <= threads);
        }
    }
}
