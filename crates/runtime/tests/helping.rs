//! The waiting policy's contract, observed from outside: a lane that
//! has to wait works. Interleavings are forced with barriers — a test
//! passes only if two different threads are inside the bodies at
//! once — and everything that could hang runs under a watchdog.

use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use wino_runtime::{chunk_ranges, parallel_for, parallel_for_chunks, scope, Runtime};

/// Runs `f` on its own thread and fails the test if it has not
/// returned in time (a deadlocked pool would otherwise hang the
/// suite). A panic inside `f` is re-raised here.
fn watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    thread::spawn(move || {
        let _ = done.send(panic::catch_unwind(AssertUnwindSafe(f)));
    });
    match result.recv_timeout(Duration::from_secs(120)) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => panic::resume_unwind(payload),
        Err(_) => panic!("{what}: no result after 120 s — deadlock"),
    }
}

fn on_worker() -> bool {
    thread::current()
        .name()
        .is_some_and(|name| name.starts_with("wino-worker-"))
}

/// Two outer chunks meet at `both`, so one of them is on the pool's
/// only worker; that one runs `nested`, the other returns and its
/// lane — the region's owner, now waiting on the outer latch — is the
/// only one free to help.
fn with_the_caller_waiting(rt: &Runtime, nested: impl Fn() + Sync) {
    let both = Barrier::new(2);
    rt.install(|| {
        parallel_for(0..2, |_| {
            both.wait();
            if on_worker() {
                nested();
            }
        })
    });
}

#[test]
fn a_region_issued_from_a_worker_shares_its_chunks() {
    let seen = watchdog("nested region", || {
        let rt = Runtime::with_threads(2);
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        with_the_caller_waiting(&rt, || {
            // Both inner chunks must be in flight at once: run inline
            // on the worker, the first would wait here for ever.
            let inner = Barrier::new(2);
            parallel_for(0..2, |_| {
                inner.wait();
                seen.lock().unwrap().insert(thread::current().id());
            });
        });
        seen.into_inner().unwrap()
    });
    assert_eq!(seen.len(), 2, "nested chunks ran on {seen:?}");
}

#[test]
fn a_scopes_caller_runs_its_own_branches() {
    let (caller, ran_on) = watchdog("scope on a 1-worker pool", || {
        let rt = Runtime::with_threads(2);
        let ran_on = Mutex::new(HashSet::<ThreadId>::new());
        // Two branches that wait for each other, one worker: the
        // caller has to run one of them.
        let both = Barrier::new(2);
        rt.install(|| {
            scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        both.wait();
                        ran_on.lock().unwrap().insert(thread::current().id());
                    });
                }
            })
        });
        (thread::current().id(), ran_on.into_inner().unwrap())
    });
    assert!(
        ran_on.contains(&caller),
        "caller {caller:?} not in {ran_on:?}"
    );
    assert_eq!(ran_on.len(), 2);
}

#[test]
fn every_lane_nested_at_once_finishes() {
    const ROUNDS: usize = 10_000;
    for lanes in 1..=4usize {
        let total = watchdog("mixed rounds", move || {
            let rt = &Runtime::with_threads(lanes);
            let total = AtomicUsize::new(0);
            let bump = &|n: usize| {
                total.fetch_add(n, Ordering::Relaxed);
            };
            rt.install(|| {
                for round in 0..ROUNDS {
                    match round % 4 {
                        // As many branches as lanes, each opening a region:
                        // every lane is an owner waiting on its own latch.
                        0 => scope(|s| {
                            for _ in 0..lanes {
                                s.spawn(|| parallel_for(0..16, |_| bump(1)));
                            }
                        }),
                        // More branches than lanes, uneven regions.
                        1 => scope(|s| {
                            for b in 0..2 * lanes + 1 {
                                s.spawn(move || {
                                    parallel_for_chunks(0..4 + 8 * b, 2, |c| bump(c.len()))
                                });
                            }
                        }),
                        // Regions inside chunks inside a region.
                        2 => parallel_for(0..2 * lanes, |_| {
                            parallel_for(0..8, |_| parallel_for(0..3, |_| bump(1)));
                        }),
                        // A scope opened inside a region (its spawns run
                        // inline) next to a plain region.
                        _ => parallel_for(0..lanes + 1, |i| {
                            if i % 2 == 0 {
                                scope(|s| s.spawn(|| parallel_for(0..8, |_| bump(1))));
                            } else {
                                parallel_for(0..8, |_| bump(1));
                            }
                        }),
                    }
                }
            });
            total.load(Ordering::Relaxed)
        });
        let uneven: usize = (0..2 * lanes + 1).map(|b| 4 + 8 * b).sum();
        let per_four_rounds = 16 * lanes + uneven + 2 * lanes * 8 * 3 + 8 * (lanes + 1);
        assert_eq!(total, ROUNDS / 4 * per_four_rounds, "{lanes} lanes");
    }
}

#[test]
fn a_panic_in_a_helped_chunk_reaches_that_regions_owner() {
    watchdog("helped panic", || {
        let rt = Runtime::with_threads(2);
        let caught_by_owner = Mutex::new(None::<String>);
        with_the_caller_waiting(&rt, || {
            let owner = thread::current().id();
            let inner = Barrier::new(2);
            // The worker owns this region; the chunk that panics is
            // the one the waiting caller helps with.
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_for(0..2, |_| {
                    inner.wait();
                    if thread::current().id() != owner {
                        panic!("helped boom");
                    }
                });
            }));
            let payload = result.expect_err("the helped chunk's panic must reach the owner");
            *caught_by_owner.lock().unwrap() =
                payload.downcast_ref::<&str>().map(|s| s.to_string());
        });
        // Rules 1–3: contained on the helping lane (this thread came
        // back from its wait), re-raised at the nested region's owner
        // with the original payload — and nowhere else.
        assert_eq!(
            caught_by_owner.into_inner().unwrap().as_deref(),
            Some("helped boom")
        );
        // Rule 4: the pool is usable, helping included.
        let total = AtomicUsize::new(0);
        with_the_caller_waiting(&rt, || {
            parallel_for(0..64, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    });
}

thread_local! {
    /// Stands in for the engines' per-thread workspace: held mutably
    /// across a whole engine call, regions included.
    static WORKSPACE: RefCell<usize> = const { RefCell::new(0) };
}

#[test]
fn a_lane_waiting_inside_a_region_never_starts_a_branch() {
    watchdog("re-entrancy", || {
        for lanes in [2, 3] {
            let rt = Runtime::with_threads(lanes);
            // Windows in which a region's owner waited while another
            // lane held one of its chunks and branches were queued.
            let windows = AtomicUsize::new(0);
            while windows.load(Ordering::Relaxed) < 8 {
                let started = AtomicUsize::new(0);
                let branches = 8 * lanes;
                rt.install(|| {
                    scope(|s| {
                        for _ in 0..branches {
                            s.spawn(|| {
                                started.fetch_add(1, Ordering::Relaxed);
                                // A branch started underneath a suspended
                                // one on this thread fails this borrow.
                                WORKSPACE.with(|ws| {
                                    let mut ws = ws.borrow_mut();
                                    let owner = thread::current().id();
                                    let (done, held) =
                                        (AtomicUsize::new(0), AtomicBool::new(false));
                                    let chunks = chunk_ranges(0..32, lanes, 1).len();
                                    parallel_for_chunks(0..32, 1, |_| {
                                        let helper = thread::current().id() != owner;
                                        if helper && !held.swap(true, Ordering::Relaxed) {
                                            // Hold the owner in its wait: the
                                            // other chunks get done, then it
                                            // has nothing left but to wait
                                            // on this one, for longer than
                                            // it polls before parking.
                                            while done.load(Ordering::Acquire) + 1 < chunks {
                                                std::hint::spin_loop();
                                            }
                                            if started.load(Ordering::Relaxed) < branches {
                                                windows.fetch_add(1, Ordering::Relaxed);
                                            }
                                            thread::sleep(Duration::from_micros(500));
                                        }
                                        done.fetch_add(1, Ordering::Release);
                                    });
                                    *ws += 1;
                                });
                            });
                        }
                    })
                });
            }
        }
    });
}
