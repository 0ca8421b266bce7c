//! Stress and lifecycle tests for the global work-stealing pool: many
//! small dispatches, deeply nested scopes, concurrent external
//! dispatchers (the server/sweep shape), panic propagation across
//! steals, and shutdown/re-init under load. One `#[test]` fn — the pool
//! and the obs registry are process-global, and `pool::shutdown`
//! mid-dispatch of a *parallel* sibling test would skew its obs
//! assertions' timing expectations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mersit_tensor::{par_chunks_mut, par_chunks_mut_with, pool, pool_size};

/// Recursive nested dispatch: each level fans out over the slice and the
/// leaves increment. Exercises dispatch-from-worker at every depth — on
/// the stealing pool these all queue (no inline-serial fallback), so the
/// whole tree is stealable.
fn nested_fill(depth: usize, data: &mut [u64], hits: &AtomicUsize) {
    if depth == 0 {
        for x in data.iter_mut() {
            *x += 1;
        }
        hits.fetch_add(data.len(), Ordering::Relaxed);
        return;
    }
    par_chunks_mut_with(3, data, 1, 1, |_, chunk| {
        nested_fill(depth - 1, chunk, hits);
    });
}

#[test]
fn pool_lifecycle_and_stress() {
    // Warm the pool and pin its size invariants.
    let size = pool_size();
    assert!(size >= 1);
    assert!(!pool::is_worker_thread(), "test runs on the main thread");

    // Many small dispatches: the pool must survive rapid-fire publish /
    // complete cycles without leaking queue entries or dropping chunks.
    let counter = AtomicUsize::new(0);
    for round in 0..2000 {
        let mut data = vec![0u8; 16];
        par_chunks_mut_with(4, &mut data, 1, 1, |_, chunk| {
            counter.fetch_add(chunk.len(), Ordering::Relaxed);
            for x in chunk.iter_mut() {
                *x = 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1), "round {round}");
    }
    assert_eq!(counter.load(Ordering::Relaxed), 2000 * 16);

    // Nested dispatch: an inner par call inside an outer chunk must
    // complete (queued on the worker's own deque and helped/stolen, never
    // inline-serial) and produce the same bytes as the flat loop.
    let mut outer = vec![0u32; 8 * 4];
    par_chunks_mut_with(4, &mut outer, 4, 1, |first, chunk| {
        let mut inner = vec![0u32; 32];
        par_chunks_mut_with(3, &mut inner, 1, 1, |f2, c2| {
            for (i, x) in c2.iter_mut().enumerate() {
                *x = (f2 + i) as u32;
            }
        });
        for (u, block) in chunk.chunks_mut(4).enumerate() {
            for (j, x) in block.iter_mut().enumerate() {
                *x = inner[(first + u) * 4 + j];
            }
        }
    });
    let want: Vec<u32> = (0..32).collect();
    assert_eq!(outer, want);

    // Deeply nested scopes: five levels of dispatch-from-dispatch. Every
    // element is visited exactly once per leaf, whatever thread stole
    // which level.
    let hits = AtomicUsize::new(0);
    let mut deep = vec![0u64; 81];
    nested_fill(5, &mut deep, &hits);
    assert!(deep.iter().all(|&x| x == 1), "every leaf ran exactly once");
    assert_eq!(hits.load(Ordering::Relaxed), 81);

    // Concurrent external dispatchers — the sweep/server shape: several
    // non-pool threads each issuing their own stream of dispatches into
    // the one shared pool, with nested dispatches inside. All streams
    // must complete with correct bytes.
    let total = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for t in 0..4usize {
            let total = Arc::clone(&total);
            s.spawn(move || {
                for round in 0..50 {
                    let mut data = vec![0u32; 64];
                    par_chunks_mut_with(4, &mut data, 1, 1, |first, chunk| {
                        // Nested dispatch from inside an externally
                        // published chunk.
                        let mut scratch = vec![0u32; 8];
                        par_chunks_mut_with(2, &mut scratch, 1, 1, |f2, c2| {
                            for (i, x) in c2.iter_mut().enumerate() {
                                *x = (f2 + i) as u32;
                            }
                        });
                        for (i, x) in chunk.iter_mut().enumerate() {
                            *x = (first + i) as u32 + scratch[7] - 7;
                        }
                    });
                    let want: Vec<u32> = (0..64).collect();
                    assert_eq!(data, want, "dispatcher {t} round {round}");
                    total.fetch_add(data.len(), Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 64);

    // Panic in a chunk propagates to the dispatcher — including when the
    // panicking chunk was *stolen* (many chunks + a worker pool make a
    // steal overwhelmingly likely; correctness must not depend on who
    // ran it) — and the pool stays usable afterwards.
    let caught = std::panic::catch_unwind(|| {
        let mut data = vec![0u8; 64];
        par_chunks_mut_with(8, &mut data, 1, 1, |first, _| {
            assert!(first != 2, "stress boom {first}");
        });
    });
    assert!(caught.is_err(), "chunk panic must reach the caller");
    // Panic across a *nested* dispatch: the inner dispatcher (a pool
    // worker or helping thread) re-raises, the outer catches and
    // re-raises again to us.
    let caught = std::panic::catch_unwind(|| {
        let mut data = vec![0u8; 16];
        par_chunks_mut_with(4, &mut data, 1, 1, |_, chunk| {
            let mut inner = vec![0u8; 8];
            par_chunks_mut_with(2, &mut inner, 1, 1, |f2, _| {
                assert!(f2 != 4, "nested boom {f2}");
            });
            for x in chunk.iter_mut() {
                *x = 1;
            }
        });
    });
    assert!(caught.is_err(), "nested chunk panic must reach the caller");
    let mut data = vec![0u8; 8];
    par_chunks_mut_with(4, &mut data, 1, 1, |_, chunk| {
        for x in chunk.iter_mut() {
            *x = 7;
        }
    });
    assert!(data.iter().all(|&x| x == 7), "pool usable after panic");

    // Shutdown under load: external dispatchers keep issuing work while
    // the main thread shuts the pool down repeatedly. In-flight
    // dispatchers self-serve whatever exiting workers leave; every
    // dispatch completes correctly against a pool in an arbitrary
    // lifecycle state. The interleaving is forced rather than left to the
    // scheduler: every load thread finishes a round before the shutdowns
    // start and another one after they end, so the shutdowns overlap live
    // dispatch streams and each stream survives them.
    let stop = AtomicUsize::new(0);
    let rounds: [AtomicUsize; 2] = Default::default();
    std::thread::scope(|s| {
        let loads: Vec<_> = rounds
            .iter()
            .map(|done| {
                let stop = &stop;
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        let round = done.load(Ordering::Relaxed);
                        let mut data = vec![0u16; 48];
                        par_chunks_mut_with(4, &mut data, 1, 1, |first, chunk| {
                            for (i, x) in chunk.iter_mut().enumerate() {
                                *x = (first + i) as u16;
                            }
                        });
                        let want: Vec<u16> = (0..48).collect();
                        assert_eq!(data, want, "round {round} under shutdown");
                        done.fetch_add(1, Ordering::Release);
                    }
                    done.load(Ordering::Relaxed)
                })
            })
            .collect();
        // Waits until load thread `t` has finished `target` rounds. A
        // stuck stream fails the test by name instead of hanging it (the
        // stop flag lets the other threads exit first).
        let wait_for = |t: usize, target: usize, when: &str| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while rounds[t].load(Ordering::Acquire) < target {
                if Instant::now() > deadline {
                    stop.store(1, Ordering::Relaxed);
                    panic!("load thread {t} finished no round {when} within 60 s");
                }
                std::thread::yield_now();
            }
        };
        for t in 0..rounds.len() {
            wait_for(t, 1, "before the shutdowns");
        }
        for _ in 0..10 {
            pool::shutdown();
            std::thread::yield_now();
        }
        for (t, done) in rounds.iter().enumerate() {
            wait_for(t, done.load(Ordering::Acquire) + 1, "after the shutdowns");
        }
        stop.store(1, Ordering::Relaxed);
        for l in loads {
            assert!(l.join().unwrap() > 0, "load thread made progress");
        }
    });

    // The latched pool owns the thread count: changing `MERSIT_THREADS`
    // without a shutdown moves no dispatch's split.
    let env = std::env::var_os("MERSIT_THREADS");
    std::env::set_var("MERSIT_THREADS", (pool_size() + 5).to_string());
    let chunks = |threads: Option<usize>| {
        let seen = AtomicUsize::new(0);
        let count = |_: usize, _: &mut [u8]| {
            seen.fetch_add(1, Ordering::Relaxed);
        };
        let mut data = vec![0u8; 4096];
        match threads {
            Some(t) => par_chunks_mut_with(t, &mut data, 1, 1, count),
            None => par_chunks_mut(&mut data, 1, 1, count),
        }
        seen.into_inner()
    };
    assert_eq!(
        chunks(None),
        chunks(Some(pool_size())),
        "par_chunks_mut splits for the latched pool size, not the environment"
    );
    match env {
        Some(v) => std::env::set_var("MERSIT_THREADS", v),
        None => std::env::remove_var("MERSIT_THREADS"),
    }

    // Shutdown joins the workers; the next dispatch transparently builds
    // a fresh pool of the same (env-derived) size.
    pool::shutdown();
    pool::shutdown(); // idempotent
    let mut data = vec![0u16; 64];
    par_chunks_mut_with(4, &mut data, 1, 1, |first, chunk| {
        for (i, x) in chunk.iter_mut().enumerate() {
            *x = (first + i) as u16;
        }
    });
    let want: Vec<u16> = (0..64).collect();
    assert_eq!(data, want, "dispatch after shutdown re-initializes");
    assert_eq!(pool_size(), size, "re-init reads the same environment");
}
