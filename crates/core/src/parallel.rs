//! Work-stealing scoped-thread pool used by the parallel verification engine.
//!
//! PR 3's engine fanned out *fixed* batches of jobs between level barriers; a
//! deep, narrow hierarchy exposed almost no job supply per level, so workers
//! idled while one slow `(T, β)` pinned its whole level. The pool here runs a
//! **dynamic** job set instead: handlers may push follow-on jobs while they
//! run (the verifier's readiness scheduler pushes a task's `(T, β)` pair
//! jobs the moment its last child commits — see [`crate::verifier`] and
//! DESIGN.md §5.6).
//!
//! Shape: one global injector queue for seed and cross-task jobs plus one
//! deque per worker. A worker pops its own deque newest-first (so the pair
//! jobs its last commit released run next), then the injector oldest-first,
//! then steals oldest-first from siblings. Everything is
//! `std::sync::Mutex` + `Condvar` over `VecDeque` — no new dependencies, and
//! `std::thread::scope` keeps jobs free to borrow from the caller's stack and
//! propagates worker panics to the caller (a panicking handler aborts the
//! pool rather than deadlocking the remaining workers).
//!
//! Determinism note: the pool itself promises nothing about execution order.
//! The engine's determinism contract is restored above it by buffering every
//! result into a slot keyed by its canonical `(task, β, τ_in)` position and
//! reducing in that order (DESIGN.md §5.6). This covers witness retention
//! for free: the retained run details of DESIGN.md §5.7 travel *inside* the
//! buffered `RtEntry` values, so the reconstructed counterexample inherits
//! the same thread-count independence without any pool-level support.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Handle a job handler uses to push follow-on jobs into the pool.
///
/// Jobs pushed through a worker's handle land on that worker's own deque
/// (popped newest-first by the owner, stolen oldest-first by siblings).
pub(crate) struct WorkerHandle<'p, J> {
    pool: &'p PoolShared<J>,
    worker: usize,
}

impl<J: Send> WorkerHandle<'_, J> {
    /// Enqueues a follow-on job.
    pub(crate) fn push(&self, job: J) {
        self.pool.push(Some(self.worker), job);
    }
}

struct PoolShared<J> {
    /// `deques[0]` is the global injector; `deques[1 + w]` belongs to worker
    /// `w`. Each has its own lock so pushes and steals on different queues
    /// never contend.
    deques: Vec<Mutex<VecDeque<J>>>,
    /// Jobs pushed but not yet completed. A handler pushes its follow-on
    /// jobs *before* its own completion is counted, so `pending == 0` really
    /// means the job graph is drained.
    pending: AtomicUsize,
    /// Set when a handler panicked; workers drain out instead of parking so
    /// `std::thread::scope` can propagate the panic.
    aborted: AtomicBool,
    /// Guards nothing but the sleep/wake protocol: a worker re-checks the
    /// queues while holding this lock before parking, and every push notifies
    /// under it, so a job pushed concurrently with a park attempt is never
    /// lost.
    sleep: Mutex<()>,
    wake: Condvar,
}

impl<J: Send> PoolShared<J> {
    fn new(workers: usize) -> Self {
        PoolShared {
            deques: (0..=workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn push(&self, worker: Option<usize>, job: J) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let deque = match worker {
            Some(w) => &self.deques[w + 1],
            None => &self.deques[0],
        };
        deque.lock().expect("pool queue poisoned").push_back(job);
        let _guard = self.sleep.lock().expect("pool sleep lock poisoned");
        self.wake.notify_one();
    }

    /// Own deque newest-first, injector oldest-first, then steal oldest-first
    /// from siblings (starting after `worker` so thieves spread out).
    fn try_pop(&self, worker: usize) -> Option<J> {
        if let Some(job) = self.deques[worker + 1]
            .lock()
            .expect("pool queue poisoned")
            .pop_back()
        {
            return Some(job);
        }
        if let Some(job) = self.deques[0]
            .lock()
            .expect("pool queue poisoned")
            .pop_front()
        {
            return Some(job);
        }
        let workers = self.deques.len() - 1;
        for offset in 1..workers {
            let victim = 1 + (worker + offset) % workers;
            if let Some(job) = self.deques[victim]
                .lock()
                .expect("pool queue poisoned")
                .pop_front()
            {
                return Some(job);
            }
        }
        None
    }

    /// Blocks until a job is available, the pool is drained (`None`), or the
    /// pool aborted after a panic (`None`).
    fn next_job(&self, worker: usize) -> Option<J> {
        if self.aborted.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(job) = self.try_pop(worker) {
            return Some(job);
        }
        let mut guard = self.sleep.lock().expect("pool sleep lock poisoned");
        loop {
            if self.aborted.load(Ordering::SeqCst) || self.pending.load(Ordering::SeqCst) == 0 {
                // Wake any sibling still parked so it observes the same
                // terminal state and exits too.
                self.wake.notify_all();
                return None;
            }
            // Re-check under the sleep lock: a push between the lock-free
            // scan above and this park would otherwise be missed (its
            // notification fires only after we start waiting).
            if let Some(job) = self.try_pop(worker) {
                return Some(job);
            }
            guard = self.wake.wait(guard).expect("pool sleep lock poisoned");
        }
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.sleep.lock().expect("pool sleep lock poisoned");
            self.wake.notify_all();
        }
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        let _guard = self.sleep.lock().expect("pool sleep lock poisoned");
        self.wake.notify_all();
    }
}

/// Runs a dynamic job set on up to `threads` scoped workers: `seed` jobs go
/// to the global injector, and `handler` may push follow-on jobs through its
/// [`WorkerHandle`] at any time. Returns when every pushed job has completed.
///
/// With `threads <= 1` everything runs inline on the calling thread (no
/// thread is spawned): the calling thread drains its own deque newest-first
/// and the injector oldest-first, exactly like a lone worker would.
///
/// # Panics
/// A panic in `handler` aborts the pool (remaining queued jobs are dropped,
/// parked workers drain out) and is then propagated to the caller by
/// `std::thread::scope`, matching the inline one-worker panic behaviour.
pub(crate) fn run_pool<J, F>(threads: usize, seed: impl IntoIterator<Item = J>, handler: F)
where
    J: Send,
    F: Fn(J, &WorkerHandle<'_, J>) + Sync,
{
    let workers = threads.max(1);
    let shared: PoolShared<J> = PoolShared::new(workers);
    for job in seed {
        shared.push(None, job);
    }
    if workers == 1 {
        let handle = WorkerHandle {
            pool: &shared,
            worker: 0,
        };
        while let Some(job) = shared.try_pop(0) {
            handler(job, &handle);
            shared.pending.fetch_sub(1, Ordering::SeqCst);
        }
        return;
    }
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let shared = &shared;
            let handler = &handler;
            scope.spawn(move || {
                let handle = WorkerHandle {
                    pool: shared,
                    worker,
                };
                while let Some(job) = shared.next_job(worker) {
                    match catch_unwind(AssertUnwindSafe(|| handler(job, &handle))) {
                        Ok(()) => shared.complete_one(),
                        Err(payload) => {
                            shared.abort();
                            resume_unwind(payload);
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The fixed-batch pattern the verifier used to need: results land in
    /// slots keyed by job index, so the output is in job order no matter
    /// which worker ran what.
    fn run_indexed<T: Send, F: Fn(usize) -> T + Sync>(threads: usize, n: usize, f: F) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        run_pool(threads, 0..n, |i, _| {
            *slots[i].lock().unwrap() = Some(f(i));
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every job ran"))
            .collect()
    }

    #[test]
    fn indexed_results_come_back_in_job_order() {
        let out = run_indexed(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = run_indexed(1, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_indexed(16, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn zero_jobs_yield_empty() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
        // And the pool itself returns immediately with nothing seeded.
        run_pool::<usize, _>(4, std::iter::empty(), |_, _| unreachable!());
    }

    /// Handlers can keep spawning follow-on jobs; the pool only returns once
    /// the whole dynamically-grown job graph has drained.
    #[test]
    fn dynamically_spawned_jobs_all_run() {
        for threads in [1usize, 2, 8] {
            let count = AtomicUsize::new(0);
            // runs(j) = 1 + Σ_{k<j} runs(k) = 2^j, so seeds 0..5 give
            // 1 + 2 + 4 + 8 + 16 = 31 handler invocations in total.
            run_pool(threads, 0..5usize, |j, handle| {
                count.fetch_add(1, Ordering::SeqCst);
                for k in 0..j {
                    handle.push(k);
                }
            });
            assert_eq!(count.load(Ordering::SeqCst), 31, "threads={threads}");
        }
    }

    /// A chain where each job enables the next via shared state: exercises
    /// park/wake (workers must sleep while the chain is elsewhere) without
    /// deadlocking.
    #[test]
    fn sequential_chain_through_the_pool_terminates() {
        let hops = AtomicUsize::new(0);
        run_pool(8, [0usize], |j, handle| {
            hops.fetch_add(1, Ordering::SeqCst);
            if j < 200 {
                handle.push(j + 1);
            }
        });
        assert_eq!(hops.load(Ordering::SeqCst), 201);
    }

    // `std::thread::scope` re-panics with its own message after joining, so
    // only the fact of the panic (not the payload) is asserted here.
    #[test]
    #[should_panic(expected = "panicked")]
    fn handler_panic_propagates_instead_of_deadlocking() {
        run_pool(4, 0..32usize, |j, _| {
            if j == 7 {
                panic!("job 7 panicked");
            }
        });
    }
}
