//! Parallel fan-out over contiguous chunks of a mutable slice, executed
//! on the global work-stealing pool in [`crate::pool`].
//!
//! The kernels in this crate (matmul, im2col, elementwise map) all write
//! disjoint regions of one output buffer, each region a whole number of
//! fixed-size *units* (a matrix row, an im2col row, a single element).
//! [`par_chunks_mut`] splits the buffer into chunks along unit boundaries
//! and publishes them as stealable pool jobs; the caller helps execute
//! jobs until its own dispatch completes. No external dependencies — the
//! pool is `std` threads with per-worker deques parked on a condvar.
//!
//! # Invariants
//!
//! * **Structural partitioning, bit-identical results.** The split is by
//!   *position* (whole units, contiguous, in order), never by value, and
//!   every unit's output depends only on that unit's inputs. The result
//!   is therefore bit-identical for every thread count and every steal
//!   schedule, including 1 thread — which runs inline on the caller's
//!   thread, reproducing the serial kernels exactly. No reduction ever
//!   crosses a chunk boundary, and *which* thread runs a chunk never
//!   affects what it writes.
//! * **Nested calls compose.** A dispatch issued from a pool worker (a
//!   kernel inside another kernel's chunk) pushes its jobs onto that
//!   worker's own deque and helps drain them; idle threads steal across
//!   the nesting boundary. Nothing ever falls back to inline-serial just
//!   because of *where* it was called from — only work size decides.
//! * **Environment, not API.** The pool size comes from the
//!   `MERSIT_THREADS` environment variable (default: available
//!   parallelism), latched once at the first parallel dispatch; `1`
//!   disables threading entirely. `pool::shutdown()` drops the pool and
//!   the next dispatch re-reads the variable.
//!
//! # Chunk sizing: steal granularity ≠ dispatch granularity
//!
//! Two constants govern the split, and they answer different questions:
//!
//! * `PAR_WORK_TARGET` (2¹³ ≈ 8k elementary ops) is the **steal
//!   granularity floor** — the minimum work per *chunk*, because a chunk
//!   is the unit a thief takes. A pool pop/steal costs ~0.1–1 µs against
//!   ~0.8 µs for a serial 8k-op pass on the reference container, so
//!   below this the queue traffic cannot pay for itself and the call
//!   degrades gracefully to the serial path. Callers express it per
//!   kernel via [`min_units`].
//! * `CHUNKS_PER_THREAD` (4) is the **dispatch granularity** — how
//!   many chunks to publish per requested thread, work permitting. With
//!   an exclusive pool and perfectly uniform chunks, `chunks == threads`
//!   would be optimal (zero excess queue traffic). But under a shared
//!   pool the threads are *not* exclusively ours: a concurrent sweep,
//!   batch shard, or nested kernel may hold some of them mid-dispatch,
//!   and uneven chunk runtimes leave tails. Oversubscribing ~4× keeps a
//!   margin of stealable jobs so whoever frees up first rebalances the
//!   tail, at a bounded (≤4×) increase in per-dispatch queue operations.
//!
//! So the chunk count is `min(threads × CHUNKS_PER_THREAD, units /
//! min_units_per_chunk)`, clamped to at least 1.
//!
//! # Observability
//!
//! When the `MERSIT_OBS` toggle is on (see `mersit-obs`), each dispatch
//! records a `tensor.par.dispatch` span plus `tensor.pool.dispatches` /
//! `tensor.pool.chunks` counters, each executed chunk a
//! `tensor.par.chunk` span, and the chunk sizes land in the
//! `tensor.par.chunk_units` histogram; `tensor.pool.size`, the
//! `tensor.pool.queue_depth` histogram, and the `tensor.pool.local_hits`
//! / `tensor.pool.steals` counters describe the pool itself. Thread
//! utilization for a run is `sum(chunk total_ns) / (dispatch total_ns ×
//! pool size)`. Serial (inline) calls are counted under
//! `tensor.par.calls_serial`. With the toggle off this instrumentation
//! is a single atomic load per dispatch.

use std::slice;

use crate::pool;

/// Approximate number of elementary operations worth queueing as one
/// stealable chunk; below this, pool traffic dominates. See the module
/// docs ("Chunk sizing") for how this floor interacts with
/// [`CHUNKS_PER_THREAD`].
const PAR_WORK_TARGET: usize = 1 << 13;

/// Chunks published per requested thread (work permitting): the
/// oversubscription margin that lets work-stealing rebalance tails and
/// absorb threads lost to concurrent dispatches. See the module docs.
const CHUNKS_PER_THREAD: usize = 4;

/// Minimum units per chunk so that each chunk carries roughly
/// `PAR_WORK_TARGET` (2¹³) operations, given the per-unit cost.
#[must_use]
pub fn min_units(work_per_unit: usize) -> usize {
    (PAR_WORK_TARGET / work_per_unit.max(1)).max(1)
}

/// Number of threads the live worker pool runs dispatches on (workers +
/// dispatcher), initializing the pool if needed. This is the value
/// benchmark reports should record as "threads used".
#[must_use]
pub fn pool_size() -> usize {
    pool::handle().size
}

/// Splits `data` into contiguous chunks of whole `unit`-sized blocks and
/// runs `f(first_unit_index, chunk)` across the pool, publishing up to
/// [`pool_size`]` × CHUNKS_PER_THREAD` chunks (capped so each carries at
/// least `min_units_per_chunk` units).
///
/// # Panics
///
/// Panics if `unit` is zero or does not divide `data.len()`. Panics from
/// `f` propagate to the caller after the dispatch completes.
pub fn par_chunks_mut<T, F>(data: &mut [T], unit: usize, min_units_per_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    split(None, data, unit, min_units_per_chunk, f);
}

/// Raw base pointer of the output buffer, smuggled into the `Fn(usize)`
/// chunk closure. Sound because chunk index → slice bounds is injective
/// (disjoint ranges) and every chunk index is executed exactly once.
struct SyncPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor method (not field access) so the closure captures the
    /// whole `Sync` wrapper rather than the bare pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// [`par_chunks_mut`] with an explicit thread-count target (used by tests
/// and benchmarks to compare scaling without touching the environment).
/// The chunks still execute on the live pool of [`pool_size`] threads.
///
/// # Panics
///
/// Panics if `unit` is zero or does not divide `data.len()`. Panics from
/// `f` propagate to the caller after the dispatch completes.
pub fn par_chunks_mut_with<T, F>(
    threads: usize,
    data: &mut [T],
    unit: usize,
    min_units_per_chunk: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    split(Some(threads), data, unit, min_units_per_chunk, f);
}

/// The body of [`par_chunks_mut`] (`threads: None`: split for the pool's
/// size) and [`par_chunks_mut_with`].
fn split<T, F>(
    threads: Option<usize>,
    data: &mut [T],
    unit: usize,
    min_units_per_chunk: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "unit size must be positive");
    assert!(
        data.len().is_multiple_of(unit),
        "buffer of {} elements is not whole units of {unit}",
        data.len()
    );
    let units = data.len() / unit;
    let by_work = units / min_units_per_chunk.max(1);
    // Only a call that can split consults the pool, and only once: the
    // handle gives the size to split for and takes the dispatch.
    let pool = (by_work > 1 && threads.is_none_or(|t| t > 1)).then(pool::handle);
    let threads = threads.or(pool.as_ref().map(|p| p.size)).unwrap_or(1);
    let obs_on = mersit_obs::enabled();
    let Some(pool) = pool.filter(|_| threads > 1) else {
        if obs_on {
            mersit_obs::incr("tensor.par.calls_serial");
            mersit_obs::observe("tensor.par.chunk_units", units as f64);
        }
        f(0, data);
        return;
    };
    if obs_on {
        mersit_obs::incr("tensor.par.calls_parallel");
    }
    let _dispatch = if obs_on {
        mersit_obs::span("tensor.par.dispatch")
    } else {
        mersit_obs::SpanGuard::inert()
    };
    let per = units.div_ceil(threads.saturating_mul(CHUNKS_PER_THREAD).min(by_work));
    let n_chunks = units.div_ceil(per);
    let len = data.len();
    let base = SyncPtr(data.as_mut_ptr());
    let run = move |idx: usize| {
        let first = idx * per;
        let start = first * unit;
        let end = ((first + per) * unit).min(len);
        // SAFETY: chunk `idx` owns exactly `[start, end)`; ranges of
        // distinct indices are disjoint, each index runs exactly once,
        // and the dispatcher blocks until all chunks finish, so `base`
        // outlives every access.
        let chunk = unsafe { slice::from_raw_parts_mut(base.get().add(start), end - start) };
        let _chunk_span = if obs_on {
            mersit_obs::observe("tensor.par.chunk_units", (chunk.len() / unit) as f64);
            mersit_obs::span("tensor.par.chunk")
        } else {
            mersit_obs::SpanGuard::inert()
        };
        f(first, chunk);
    };
    pool::dispatch(&pool, n_chunks, &run);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_unit_exactly_once() {
        for threads in [1, 2, 3, 7, 16] {
            let mut data = vec![0u32; 12 * 5];
            par_chunks_mut_with(threads, &mut data, 5, 1, |first, chunk| {
                for (u, block) in chunk.chunks_mut(5).enumerate() {
                    for (j, x) in block.iter_mut().enumerate() {
                        *x += ((first + u) * 5 + j) as u32 + 1;
                    }
                }
            });
            let want: Vec<u32> = (1..=60).collect();
            assert_eq!(data, want, "threads={threads}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut data = vec![0.0f32; 1000];
            par_chunks_mut_with(threads, &mut data, 1, 1, |first, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = ((first + i) as f32).sin();
                }
            });
            data
        };
        let base = run(1);
        for threads in [2, 3, 5, 13] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn min_units_caps_parallelism() {
        // 10 units, but each chunk must carry at least 6 → single chunk.
        let mut data = vec![0u8; 10];
        par_chunks_mut_with(8, &mut data, 1, 6, |first, chunk| {
            // With one chunk the whole slice arrives at once.
            assert_eq!(first, 0);
            assert_eq!(chunk.len(), 10);
        });
    }

    #[test]
    fn oversubscription_caps_at_available_work() {
        // 12 units, min 1: threads=16 would target 64 chunks, but only
        // 12 units exist — every chunk still carries a whole unit.
        let mut data = vec![0u8; 12];
        let seen = std::sync::Mutex::new(Vec::new());
        par_chunks_mut_with(16, &mut data, 1, 1, |first, chunk| {
            seen.lock().unwrap().push((first, chunk.len()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let total: usize = seen.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 12);
        assert!(seen.iter().all(|&(_, l)| l >= 1));
    }

    #[test]
    #[should_panic(expected = "not whole units")]
    fn ragged_buffer_panics() {
        let mut data = vec![0u8; 7];
        par_chunks_mut_with(2, &mut data, 2, 1, |_, _| {});
    }

    #[test]
    fn pool_size_is_positive() {
        assert!(pool_size() >= 1);
    }

    #[test]
    fn min_units_scales_inversely_with_work() {
        assert_eq!(min_units(usize::MAX), 1);
        assert!(min_units(1) > min_units(1024));
    }

    #[test]
    fn empty_buffer_is_a_noop() {
        let mut data: Vec<u8> = Vec::new();
        par_chunks_mut_with(4, &mut data, 3, 1, |_, chunk| {
            assert!(chunk.is_empty());
        });
    }
}
