//! Persistent worker pool for the parallel compute phase.
//!
//! The previous parallel path spawned fresh scoped threads every cycle
//! (`std::thread::scope` in `network.rs`), so each tick paid thread
//! creation, stack setup, and teardown — tens of microseconds against a
//! per-cycle compute of a few microseconds on small meshes. That made
//! sharding a *pessimization* (BENCH_pr3: speedup 0.952). This pool
//! spawns its workers **once** when the [`crate::Network`] is built and
//! parks them between cycles; a tick hands work over with one
//! mutex/condvar rendezvous instead of N thread spawns.
//!
//! # Epoch/barrier protocol
//!
//! Shared state holds an `epoch` counter and an optional type-erased
//! task pointer. [`WorkerPool::run`] publishes the task, bumps the
//! epoch, and wakes the workers; each worker runs the task with its own
//! index (the network pins each shard to one index, so a shard's arena
//! stays in one worker's cache across cycles), then decrements
//! `remaining`. The caller's thread runs index 0 itself — a network
//! parks `min(shards, host cores) - 1` workers — and then blocks on the
//! `done` condvar until `remaining` hits zero. A worker re-runs only
//! when the epoch moves again, so a slow wake-up cannot double-execute
//! a cycle.
//!
//! # Why the one `unsafe` is sound
//!
//! The task is borrowed from the caller's stack and smuggled to the
//! workers as a raw pointer ([`TaskRef`]), erasing the lifetime — the
//! same move `std::thread::scope` performs internally. The borrow is
//! protected by the barrier: `run` does not return (normally *or* by
//! unwinding — the caller-side shard runs under `catch_unwind`) until
//! every worker has decremented `remaining` for this epoch, and workers
//! only dereference the pointer between observing the epoch and that
//! decrement. All accesses are ordered by the mutex, so Miri and
//! ThreadSanitizer see the happens-before edges (CI runs both against
//! this pool).
#![allow(unsafe_code)]

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Lifetime-erased borrow of the per-cycle task. The `'static` is a
/// lie told by [`WorkerPool::run`], which also owns the proof that the
/// pointee outlives every use (see module docs); construction is
/// confined to that method.
type TaskRef = &'static (dyn Fn(usize) + Sync);

/// Rendezvous state, guarded by one mutex.
struct State {
    /// Bumped once per `run`; a worker executes at most once per epoch.
    epoch: u64,
    /// The current cycle's task; `None` outside a `run`.
    task: Option<TaskRef>,
    /// Workers still running the current epoch.
    remaining: usize,
    /// A worker's task panicked this epoch (re-raised by `run`).
    panicked: bool,
    /// Set once by `Drop`; workers exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: new epoch or shutdown.
    start: Condvar,
    /// Signals the caller: `remaining` reached zero.
    done: Condvar,
}

/// Locks the state, treating poison as benign: the state is plain data
/// and every transition below is panic-free, so a poisoned lock only
/// means some *task* panicked — which `panicked` already records.
fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    match shared.state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Condvar wait with the same poison policy as [`lock`].
fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A fixed set of parked worker threads executing one task per epoch.
/// Worker `w` always receives index `w + 1`; index 0 belongs to the
/// thread calling [`WorkerPool::run`].
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` parked threads. `WorkerPool::new(0)` is valid
    /// and degenerates to running everything on the caller's thread.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("disco-shard-{}", w + 1))
                    .spawn(move || worker_loop(&shared, w + 1));
                match spawned {
                    Ok(handle) => handle,
                    Err(e) => panic!("failed to spawn compute worker {}: {e}", w + 1),
                }
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of parked worker threads (excludes the caller's thread).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `task(i)` for every index in `0..=workers()`: index 0 on the
    /// calling thread, the rest on the parked workers, all concurrently.
    /// Returns only after every index has completed. If any invocation
    /// panics, the panic is re-raised here — after the barrier, so the
    /// task borrow never escapes.
    pub(crate) fn run(&self, task: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            task(0);
            return;
        }
        // SAFETY: the only lifetime extension in the pool. The barrier
        // below keeps this function from returning — normally or by
        // unwinding — until every worker has finished with the borrow,
        // so the pointee strictly outlives all uses of the erased
        // reference (which never leaves `Shared.state`).
        let erased: TaskRef =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), TaskRef>(task) };
        {
            let mut st = lock(&self.shared);
            debug_assert!(st.task.is_none(), "run() is not reentrant");
            st.task = Some(erased);
            st.remaining = self.handles.len();
            st.epoch = st.epoch.wrapping_add(1);
            self.shared.start.notify_all();
        }
        // Shard 0 runs here, overlapping the workers. Catch a panic so
        // the barrier below still executes and the borrow stays sound.
        let local = catch_unwind(AssertUnwindSafe(|| task(0)));
        let worker_panicked = {
            let mut st = lock(&self.shared);
            while st.remaining != 0 {
                st = wait(&self.shared.done, st);
            }
            st.task = None;
            std::mem::replace(&mut st.panicked, false)
        };
        if let Err(payload) = local {
            resume_unwind(payload);
        }
        if worker_panicked {
            // Compute is pure; a worker panic is a simulator bug.
            panic!("compute-phase worker panicked");
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a task already tripped the
            // `panicked` flag or aborted; nothing useful to add here.
            let _ = handle.join();
        }
    }
}

/// Parked worker: wait for a fresh epoch, run the task with this
/// worker's pinned index, decrement the barrier, repeat.
fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(task) = st.task {
                        seen = st.epoch;
                        break task;
                    }
                }
                st = wait(&shared.start, st);
            }
        };
        // `run` holds the caller blocked until this worker's decrement
        // below, so the pointee (a stack borrow in `run`'s caller) is
        // alive for the whole call despite the erased lifetime.
        let result = catch_unwind(AssertUnwindSafe(|| task(index)));
        let mut st = lock(shared);
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        for _ in 0..100 {
            let hits = [
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            ];
            pool.run(&|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
            }
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        pool.run(&|i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.workers(), 0);
    }

    #[test]
    fn results_visible_after_run_returns() {
        // The barrier must publish worker writes to the caller.
        let pool = WorkerPool::new(2);
        let slots: Vec<Mutex<u64>> = (0..3).map(|_| Mutex::new(0)).collect();
        for round in 1..=50u64 {
            pool.run(&|i| {
                let mut slot = match slots[i].lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                *slot = round * (i as u64 + 1);
            });
            for (i, slot) in slots.iter().enumerate() {
                let got = match slot.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                assert_eq!(*got, round * (i as u64 + 1));
            }
        }
    }

    #[test]
    fn worker_panic_is_reraised_after_the_barrier() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must propagate");
        // The pool must still be usable for the next epoch.
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_still_waits_for_workers() {
        let pool = WorkerPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|i| {
                if i == 0 {
                    panic!("local boom");
                }
            });
        }));
        assert!(result.is_err());
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
