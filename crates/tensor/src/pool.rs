//! Global work-stealing scheduler behind [`crate::par`]: lazily spawned
//! once, sized by `MERSIT_THREADS` at its build (the variable's only
//! reader), parked on a condvar when idle.
//!
//! The previous pool pushed every fan-out onto one shared task list and
//! ran any dispatch issued *from* a worker thread inline-serially, so
//! nested parallelism (a GEMM inside a batch shard inside a format
//! sweep) collapsed to one thread per outer chunk. This scheduler makes
//! nesting compose: every dispatch — from any thread, at any depth —
//! publishes stealable per-chunk jobs, and every thread that waits on a
//! dispatch helps execute whatever work is runnable.
//!
//! # Design
//!
//! * **Per-worker deques + one injector.** Each worker owns a deque of
//!   `Job`s (one job = one chunk of one task). A dispatch issued *on* a
//!   worker pushes its jobs onto that worker's own deque; a dispatch
//!   from any other thread (the main thread, an external sweep thread)
//!   pushes onto the shared injector queue.
//! * **LIFO locally, FIFO steals.** The publishing thread pops its own
//!   queue from the back — the most recently pushed, cache-hot,
//!   innermost work. Everyone else steals from the front — the oldest,
//!   outermost chunks, which represent the largest stealable units of
//!   work. Victims are scanned starting at a per-thread random offset so
//!   stealers don't convoy on one queue.
//! * **Help-while-wait join.** A dispatcher never blocks while runnable
//!   work exists anywhere: after publishing, it loops { own-queue pop →
//!   steal → run } until its task completes, and only parks on the
//!   task's condvar when every remaining chunk of *its* task is already
//!   executing on some other thread. Workers, dispatchers, and external
//!   threads all run the same loop, so a worker that hits a nested
//!   dispatch inside a chunk drains its own subtasks (and any steals)
//!   instead of serializing. Deadlock-free: a parked joiner's chunks are
//!   in-execution elsewhere, and any chain of waiting threads bottoms
//!   out at a frame making progress (tasks nest strictly, so the wait
//!   graph is acyclic).
//! * **Panics propagate — across steals.** A panicking chunk is caught
//!   on whichever thread ran it (owner or thief), stored in the task,
//!   and re-raised (`resume_unwind`) on the dispatcher after the whole
//!   task completes.
//! * **Clean shutdown, lazy re-init.** [`shutdown`] flags the pool,
//!   wakes and joins every worker, and drops the handle; the next
//!   dispatch transparently builds a fresh pool (re-reading
//!   `MERSIT_THREADS`). Shutdown concurrent with in-flight dispatches is
//!   safe: a worker's deque is necessarily empty when it exits its idle
//!   loop (only its own in-flight dispatches fill it, and those drain
//!   before returning), and exiting workers defensively hand any
//!   leftovers to the injector where the owning dispatcher self-serves
//!   them.
//!
//! # Observability
//!
//! With `MERSIT_OBS` on: `tensor.pool.size` (workers + dispatcher,
//! recorded once at creation), `tensor.pool.dispatches`,
//! `tensor.pool.chunks`, `tensor.pool.local_hits` (jobs executed by
//! their publishing thread via a LIFO pop), `tensor.pool.steals` (jobs
//! taken from another thread's queue or the injector via a FIFO pop),
//! and the `tensor.pool.queue_depth` histogram (total queued jobs right
//! after each publish). `local_hits + steals` is every chunk that went
//! through the queues; chunks of inline dispatches (single chunk, or a
//! pool of size 1) bypass them.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::env;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

thread_local! {
    /// `(pool generation, worker index)` on pool workers; `None` on
    /// every other thread. The generation guards against a worker of an
    /// old (shut down) pool being mistaken for a worker of the current
    /// one.
    static WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
    /// Per-thread xorshift state for randomized victim selection.
    static STEAL_RNG: Cell<u64> = const { Cell::new(0) };
}

/// Pool generations, so stale worker TLS never aliases a fresh pool.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Seeds for [`STEAL_RNG`] (one per thread, deterministic, no clock).
static RNG_SEED: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

fn next_rand() -> u64 {
    STEAL_RNG.with(|c| {
        let mut x = c.get();
        if x == 0 {
            // splitmix64 of a fresh seed, so threads start decorrelated.
            let mut z = RNG_SEED.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x = (z ^ (z >> 31)) | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        x
    })
}

/// One published fan-out: `chunks` jobs pushed to a queue, completion
/// tracked by `completed` and announced on `done_cv`.
struct Task {
    /// Type-erased `&F where F: Fn(usize) + Sync`, valid until the
    /// dispatcher returns (it blocks until every chunk completed, so the
    /// borrow outlives every invocation).
    data: *const (),
    call: unsafe fn(*const (), usize),
    chunks: usize,
    completed: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points at an `F: Sync` borrowed by the dispatcher for
// the task's whole lifetime (it blocks until `completed == chunks`), and
// is only ever used through `call` as `&F`.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    fn is_done(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.chunks
    }

    /// Runs one chunk, capturing a panic into the task, and announces
    /// completion when this was the last chunk. The panic is stored
    /// *before* the completion increment so the dispatcher always
    /// observes it.
    fn run_chunk(&self, idx: usize) {
        // SAFETY: each chunk index is queued exactly once; `data` is a
        // live `&F` for the task's lifetime (see struct docs).
        let r = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, idx) }));
        if let Err(p) = r {
            self.panic.lock().unwrap().get_or_insert(p);
        }
        if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.chunks {
            let mut done = self.done.lock().unwrap();
            *done = true;
            drop(done);
            self.done_cv.notify_all();
        }
    }
}

/// One stealable unit of work: a single chunk of a task.
struct Job {
    task: Arc<Task>,
    idx: usize,
}

impl Job {
    fn run(self) {
        self.task.run_chunk(self.idx);
    }
}

/// Sleep/shutdown state for idle workers. `epoch` increments on every
/// publish; a worker records it before scanning and parks only if it is
/// unchanged after a failed scan, so wakeups are never lost.
struct Sleep {
    shutdown: bool,
    epoch: u64,
}

pub(crate) struct Inner {
    /// `queues[INJECTOR]` is the injector (external dispatchers);
    /// `queues[1 + w]` is worker `w`'s deque.
    queues: Vec<Mutex<VecDeque<Job>>>,
    sleep: Mutex<Sleep>,
    work_cv: Condvar,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Total threads a dispatch can use (spawned workers + dispatcher).
    pub(crate) size: usize,
    generation: u64,
}

const INJECTOR: usize = 0;

static POOL: Mutex<Option<Arc<Inner>>> = Mutex::new(None);

impl Inner {
    /// This thread's worker index in *this* pool, if any.
    fn worker_id(&self) -> Option<usize> {
        WORKER
            .with(Cell::get)
            .and_then(|(generation, idx)| (generation == self.generation).then_some(idx))
    }

    /// The queue this thread publishes to and pops LIFO: its own deque
    /// on a worker, the injector everywhere else.
    fn home_queue(me: Option<usize>) -> usize {
        me.map_or(INJECTOR, |w| w + 1)
    }

    /// Publishes every chunk of `task` onto this thread's home queue and
    /// wakes the pool.
    fn publish(&self, me: Option<usize>, task: &Arc<Task>, obs_on: bool) {
        let home = Self::home_queue(me);
        {
            let mut q = self.queues[home].lock().unwrap();
            for idx in 0..task.chunks {
                q.push_back(Job {
                    task: Arc::clone(task),
                    idx,
                });
            }
        }
        if obs_on {
            let depth: usize = self.queues.iter().map(|q| q.lock().unwrap().len()).sum();
            mersit_obs::observe("tensor.pool.queue_depth", depth as f64);
        }
        let mut s = self.sleep.lock().unwrap();
        s.epoch = s.epoch.wrapping_add(1);
        drop(s);
        self.work_cv.notify_all();
    }

    /// One scheduling decision: LIFO pop of the home queue, else a FIFO
    /// steal from the other queues starting at a random victim.
    fn find_job(&self, me: Option<usize>) -> Option<(Job, bool)> {
        let home = Self::home_queue(me);
        if let Some(job) = self.queues[home].lock().unwrap().pop_back() {
            return Some((job, true));
        }
        let n = self.queues.len();
        let start = next_rand() as usize % n;
        for i in 0..n {
            let qi = (start + i) % n;
            if qi == home {
                continue;
            }
            if let Some(job) = self.queues[qi].lock().unwrap().pop_front() {
                return Some((job, false));
            }
        }
        None
    }

    /// Runs `job`, bumping the local-hit / steal counters.
    fn run_job(job: Job, local: bool, obs_on: bool) {
        if obs_on {
            if local {
                mersit_obs::incr("tensor.pool.local_hits");
            } else {
                mersit_obs::incr("tensor.pool.steals");
            }
        }
        job.run();
    }

    /// Help-while-wait join: run any available job until `task`
    /// completes, parking on the task's condvar only when nothing is
    /// runnable anywhere (which implies every remaining chunk of `task`
    /// is already executing on another thread).
    fn join(&self, me: Option<usize>, task: &Task) {
        let obs_on = mersit_obs::enabled();
        while !task.is_done() {
            if let Some((job, local)) = self.find_job(me) {
                Self::run_job(job, local, obs_on);
                continue;
            }
            let done = task.done.lock().unwrap();
            if !*done {
                // Completion notifies under `done`, so this cannot miss
                // it; a spurious wake just re-runs the scan.
                let _unused = task.done_cv.wait(done).unwrap();
            }
        }
    }
}

fn worker_loop(inner: &Inner, index: usize) {
    WORKER.with(|w| w.set(Some((inner.generation, index))));
    loop {
        let epoch = inner.sleep.lock().unwrap().epoch;
        if let Some((job, local)) = inner.find_job(Some(index)) {
            Inner::run_job(job, local, mersit_obs::enabled());
            continue;
        }
        let mut s = inner.sleep.lock().unwrap();
        loop {
            if s.shutdown {
                drop(s);
                // Defensive: the deque should be empty here (our own
                // dispatches drain before returning to the idle loop),
                // but hand any stragglers to the injector and wake their
                // dispatchers so no join can strand.
                let leftovers: Vec<Job> =
                    inner.queues[index + 1].lock().unwrap().drain(..).collect();
                if !leftovers.is_empty() {
                    let mut inj = inner.queues[INJECTOR].lock().unwrap();
                    for job in leftovers {
                        let task = Arc::clone(&job.task);
                        inj.push_back(job);
                        drop(task.done.lock().unwrap());
                        task.done_cv.notify_all();
                    }
                }
                return;
            }
            if s.epoch != epoch {
                break;
            }
            s = inner.work_cv.wait(s).unwrap();
        }
    }
}

/// Worker-thread count: `MERSIT_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism. `1` disables threading.
/// Read only when [`handle`] builds a pool.
fn thread_count() -> usize {
    if let Ok(v) = env::var("MERSIT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The live pool, building it on first use. `MERSIT_THREADS` (via
/// [`thread_count`]) is read once here; later changes take effect only
/// after a [`shutdown`]. Each call takes `POOL`'s lock once.
pub(crate) fn handle() -> Arc<Inner> {
    let mut guard = POOL.lock().unwrap();
    if let Some(inner) = guard.as_ref() {
        return inner.clone();
    }
    let size = thread_count();
    let inner = Arc::new(Inner {
        queues: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
        sleep: Mutex::new(Sleep {
            shutdown: false,
            epoch: 0,
        }),
        work_cv: Condvar::new(),
        handles: Mutex::new(Vec::new()),
        size,
        generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
    });
    let mut handles = Vec::with_capacity(size - 1);
    for i in 0..size - 1 {
        let worker = Arc::clone(&inner);
        handles.push(
            thread::Builder::new()
                .name(format!("mersit-pool-{i}"))
                .spawn(move || worker_loop(&worker, i))
                .expect("spawn pool worker"),
        );
    }
    *inner.handles.lock().unwrap() = handles;
    if mersit_obs::enabled() {
        mersit_obs::add("tensor.pool.size", size as u64);
        // Pin the utilization counters into the schema even before the
        // first queued job.
        mersit_obs::add("tensor.pool.local_hits", 0);
        mersit_obs::add("tensor.pool.steals", 0);
    }
    *guard = Some(Arc::clone(&inner));
    inner
}

/// True on a pool worker thread (of any pool generation). Nested
/// dispatches no longer special-case this — they queue onto the worker's
/// own deque — but tests use it to pin thread identities.
#[must_use]
pub fn is_worker_thread() -> bool {
    WORKER.with(Cell::get).is_some()
}

/// Runs `run(idx)` for every `idx in 0..chunks` across `inner` (the
/// [`handle`] the caller took), returning when all chunks finished. May
/// be called from any thread, including pool workers mid-chunk (the
/// subtasks are pushed onto that worker's deque and are stealable).
/// Panics from chunks are re-raised here after completion.
pub(crate) fn dispatch<F: Fn(usize) + Sync>(inner: &Inner, chunks: usize, run: &F) {
    /// Monomorphized un-eraser for [`Task::data`].
    unsafe fn trampoline<F: Fn(usize) + Sync>(p: *const (), idx: usize) {
        unsafe { (*p.cast::<F>())(idx) }
    }
    if chunks == 0 {
        return;
    }
    let obs_on = mersit_obs::enabled();
    if obs_on {
        mersit_obs::incr("tensor.pool.dispatches");
        mersit_obs::add("tensor.pool.chunks", chunks as u64);
    }
    let task = Arc::new(Task {
        data: std::ptr::from_ref(run).cast::<()>(),
        call: trampoline::<F>,
        chunks,
        completed: AtomicUsize::new(0),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    if chunks == 1 || inner.size == 1 {
        // Nothing could be stolen (single chunk) or there is nobody to
        // steal (no workers): run inline, skipping the queues.
        if obs_on {
            mersit_obs::observe("tensor.pool.queue_depth", 0.0);
        }
        for idx in 0..chunks {
            task.run_chunk(idx);
        }
    } else {
        let me = inner.worker_id();
        inner.publish(me, &task, obs_on);
        inner.join(me, &task);
    }
    let payload = task.panic.lock().unwrap().take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

/// Stops and joins every worker and drops the pool handle. The next
/// dispatch lazily builds a fresh pool (re-reading `MERSIT_THREADS`).
/// Safe to call concurrently with in-flight dispatches: their
/// dispatchers self-serve whatever the exiting workers leave behind.
pub fn shutdown() {
    let inner = POOL.lock().unwrap().take();
    let Some(inner) = inner else { return };
    inner.sleep.lock().unwrap().shutdown = true;
    inner.work_cv.notify_all();
    let handles = std::mem::take(&mut *inner.handles.lock().unwrap());
    for h in handles {
        h.join().expect("pool worker exited abnormally");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// [`super::dispatch`] on the live pool.
    fn dispatch<F: Fn(usize) + Sync>(chunks: usize, run: &F) {
        super::dispatch(&handle(), chunks, run);
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        dispatch(hits.len(), &|idx| {
            hits[idx].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn zero_chunk_dispatch_is_a_noop() {
        let ran = AtomicU64::new(0);
        dispatch(0, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn nested_dispatch_completes_from_any_thread() {
        // Two levels of nesting from inside chunks: both the worker and
        // the dispatcher sides must push-and-help rather than deadlock.
        let total = AtomicUsize::new(0);
        dispatch(4, &|_| {
            dispatch(3, &|_| {
                dispatch(2, &|_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 3 * 2);
    }

    #[test]
    fn panic_in_chunk_reaches_dispatcher() {
        let caught = std::panic::catch_unwind(|| {
            dispatch(4, &|idx| assert!(idx != 2, "boom at {idx}"));
        });
        let payload = caught.expect_err("chunk panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 2"), "payload was {msg:?}");
        // The pool survives a panicking task.
        let ran = AtomicU64::new(0);
        dispatch(3, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn size_is_positive_and_stable() {
        let s = handle().size;
        assert!(s >= 1);
        assert_eq!(handle().size, s);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
