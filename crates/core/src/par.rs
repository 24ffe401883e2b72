//! Deterministic intra-solve data parallelism: scoped-thread chunked maps
//! with in-order reduction.
//!
//! The solvers' hot loops — η-row batches, profile rebuilds, matching
//! candidate scans — are maps of a pure function over a row index. This
//! module fans such maps across a [`std::thread::scope`] worker pool under a
//! hard determinism contract: **the result is bit-identical for every thread
//! count**, because
//!
//! * each row is computed by the same pure function regardless of which
//!   worker runs it (all gain/η arithmetic is exact `i64`),
//! * rows are partitioned into contiguous chunks whose boundaries depend
//!   only on `(rows, workers)`, never on scheduling, and
//! * results land in their row's slot ([`for_each_row`]) or are concatenated
//!   in chunk order ([`map_collect`]) — no racing reduction.
//!
//! One worker (`threads == 1`, or too few rows to be worth fanning out) runs
//! the plain serial loop, so the serial path *is* the parallel path with a
//! single chunk.

/// Minimum rows per worker before fanning out is worthwhile: below this the
/// spawn/join overhead dwarfs the row work and the serial loop wins.
const MIN_ROWS_PER_WORKER: usize = 2;

/// Resolves a requested thread count against the machine: `0` means one
/// worker per available core; an explicit `t` is honored as-is (even beyond
/// the core count — useful for exercising the parallel paths on small
/// machines and in CI).
pub fn effective_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        t => t,
    }
}

/// Number of worker chunks a map over `rows` rows actually uses under a
/// `threads` budget: capped so every worker gets at least
/// [`MIN_ROWS_PER_WORKER`] rows, and never below 1. `1` means the serial
/// loop runs.
pub fn workers_for(threads: usize, rows: usize) -> usize {
    threads.min(rows / MIN_ROWS_PER_WORKER).max(1)
}

/// Applies `f(row, &mut data[row*stride..][..stride])` to every row of a
/// flat row-major buffer, fanning contiguous row chunks across up to
/// `threads` scoped workers. Returns the number of chunks used (`1` = the
/// serial loop ran).
///
/// `f` must be a pure function of the row index and the slot contents it is
/// given; under that contract the output is bit-identical for every thread
/// count (rows write disjoint slots, chunk boundaries depend only on the
/// row count).
///
/// # Panics
///
/// Panics if `stride` is zero or does not divide `data.len()`, or if a
/// worker panics. A worker panic is isolated per chunk (every other worker
/// runs to completion, keeping its rows intact) and re-raised with the
/// lowest-chunk payload, so the surfaced panic is deterministic for any
/// thread count; callers that need a typed error wrap the whole map in
/// [`crate::exec::catch_panic`].
pub fn for_each_row<T, F>(threads: usize, stride: usize, data: &mut [T], f: F) -> usize
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(stride > 0, "stride must be positive");
    assert_eq!(data.len() % stride, 0, "stride must divide the buffer");
    let rows = data.len() / stride;
    let workers = workers_for(threads, rows);
    if workers <= 1 {
        for (r, slot) in data.chunks_mut(stride).enumerate() {
            f(r, slot);
        }
        return 1;
    }
    // Balanced contiguous chunks: the first `rem` workers take one extra row.
    let base = rows / workers;
    let rem = rows % workers;
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut row0 = 0;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let take = base + usize::from(w < rem);
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(take * stride);
                rest = tail;
                let start = row0;
                row0 += take;
                scope.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        for (i, slot) in chunk.chunks_mut(stride).enumerate() {
                            f(start + i, slot);
                        }
                    }))
                })
            })
            .collect();
        // Join everyone before re-raising, lowest chunk first: isolation
        // (no worker is torn down mid-row) plus a deterministic payload.
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join().expect("worker catches its own panics") {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    workers
}

/// Maps `f` over `0..rows` and returns the results in index order, fanning
/// contiguous index ranges across up to `threads` scoped workers. Per-chunk
/// result vectors are concatenated in chunk order, so the output is exactly
/// `(0..rows).map(f).collect()` for every thread count (under the same
/// purity contract as [`for_each_row`]).
///
/// # Panics
///
/// Panics if a worker panics: each chunk is isolated (the others run to
/// completion) and the lowest-chunk payload is re-raised, so the surfaced
/// panic is deterministic for any thread count; callers that need a typed
/// error wrap the whole map in [`crate::exec::catch_panic`].
pub fn map_collect<R, F>(threads: usize, rows: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers_for(threads, rows);
    if workers <= 1 {
        return (0..rows).map(f).collect();
    }
    let base = rows / workers;
    let rem = rows % workers;
    std::thread::scope(|scope| {
        let f = &f;
        let mut start = 0;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let take = base + usize::from(w < rem);
                let range = start..start + take;
                start += take;
                scope.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        range.map(f).collect::<Vec<R>>()
                    }))
                })
            })
            .collect();
        let mut out = Vec::with_capacity(rows);
        let mut first_panic = None;
        for handle in handles {
            match handle.join().expect("worker catches its own panics") {
                Ok(chunk) => out.extend(chunk),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        out
    })
}

/// Maps `f` over the balanced contiguous chunks of `0..rows` (one task per
/// worker) and returns the per-chunk results in chunk order. Unlike
/// [`map_collect`], `f` sees a whole `Range` at once, so a task can build
/// one aggregate (a partial histogram, a partial profile) per chunk instead
/// of one value per row. Chunk boundaries depend only on `(rows, workers)`,
/// so a serial in-chunk-order merge of the results is deterministic for
/// every thread count.
///
/// # Panics
///
/// Panics if a worker panics, with the same per-chunk isolation and
/// lowest-chunk re-raise discipline as [`map_collect`].
pub fn map_chunks<R, F>(threads: usize, rows: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    let workers = workers_for(threads, rows);
    if workers <= 1 {
        return vec![f(0, 0..rows)];
    }
    let base = rows / workers;
    let rem = rows % workers;
    std::thread::scope(|scope| {
        let f = &f;
        let mut start = 0;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let take = base + usize::from(w < rem);
                let range = start..start + take;
                start += take;
                scope.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(w, range)))
                })
            })
            .collect();
        let mut out = Vec::with_capacity(workers);
        let mut first_panic = None;
        for handle in handles {
            match handle.join().expect("worker catches its own panics") {
                Ok(chunk) => out.push(chunk),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_honors_explicit_requests() {
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn workers_never_exceed_rows_over_min_chunk() {
        assert_eq!(workers_for(8, 3), 1);
        assert_eq!(workers_for(8, 4), 2);
        assert_eq!(workers_for(2, 100), 2);
        assert_eq!(workers_for(1, 100), 1);
        assert_eq!(workers_for(0, 100), 1);
    }

    #[test]
    fn for_each_row_matches_serial_for_any_thread_count() {
        for rows in [0usize, 1, 3, 7, 16, 33] {
            for stride in [1usize, 4, 5] {
                let mut serial = vec![0i64; rows * stride];
                for (r, slot) in serial.chunks_mut(stride).enumerate() {
                    for (i, v) in slot.iter_mut().enumerate() {
                        *v = (r * 31 + i) as i64;
                    }
                }
                for threads in [1usize, 2, 4, 8] {
                    let mut out = vec![0i64; rows * stride];
                    let chunks = for_each_row(threads, stride, &mut out, |r, slot| {
                        for (i, v) in slot.iter_mut().enumerate() {
                            *v = (r * 31 + i) as i64;
                        }
                    });
                    assert!(chunks >= 1 && chunks <= threads.max(1));
                    assert_eq!(out, serial, "rows={rows} stride={stride} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn map_collect_preserves_index_order() {
        let expect: Vec<usize> = (0..57).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 4, 8, 16] {
            assert_eq!(map_collect(threads, 57, |i| i * i), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_covers_rows_in_order_for_any_thread_count() {
        for rows in [0usize, 1, 5, 16, 33] {
            for threads in [1usize, 2, 4, 8] {
                let chunks = map_chunks(threads, rows, |w, range| (w, range));
                assert!(!chunks.is_empty());
                let mut next = 0;
                for (i, (w, range)) in chunks.iter().enumerate() {
                    assert_eq!(*w, i);
                    assert_eq!(range.start, next);
                    next = range.end;
                }
                assert_eq!(next, rows, "rows={rows} threads={threads}");
            }
        }
    }

    #[test]
    fn map_collect_handles_empty_and_tiny_inputs() {
        assert_eq!(map_collect::<usize, _>(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_collect(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn map_collect_panics_deterministically_across_thread_counts() {
        for threads in [2usize, 4, 8] {
            let err = crate::exec::catch_panic(|| {
                map_collect(threads, 16, |i| {
                    if i == 5 || i == 11 {
                        panic!("poisoned row {i}");
                    }
                    i
                })
            })
            .expect_err("the poisoned rows must surface");
            match err {
                crate::Error::Internal { message } => assert!(
                    message.contains("poisoned row 5"),
                    "threads={threads}: lowest chunk must win, got {message:?}"
                ),
                other => panic!("expected Internal, got {other:?}"),
            }
        }
    }

    #[test]
    fn for_each_row_panics_deterministically_and_keeps_other_chunks() {
        for threads in [2usize, 4, 8] {
            let mut data = vec![0i64; 16];
            let err = crate::exec::catch_panic(|| {
                for_each_row(threads, 1, &mut data, |r, slot| {
                    if r == 3 {
                        panic!("poisoned row {r}");
                    }
                    slot[0] = r as i64;
                })
            })
            .expect_err("the poisoned row must surface");
            match err {
                crate::Error::Internal { message } => assert!(
                    message.contains("poisoned row 3"),
                    "threads={threads}: got {message:?}"
                ),
                other => panic!("expected Internal, got {other:?}"),
            }
            // Every row outside the poisoned chunk still got written: the
            // other workers were not torn down by the panic.
            let written = data.iter().filter(|&&v| v != 0).count();
            assert!(written >= 16 - 16_usize.div_ceil(threads) - 1, "threads={threads}");
        }
    }
}
