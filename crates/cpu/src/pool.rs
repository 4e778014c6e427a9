//! The shared worker pool behind every parallel algorithm in the workspace.
//!
//! The parallel kernels ([`crate::parsort`], [`crate::onesweep`],
//! [`crate::paradis`], [`crate::multiway`]) used to call
//! `std::thread::scope` on every invocation. A simulated sort applies
//! thousands of data effects, each of which may fan out into worker
//! threads — at ~100 µs per `std::thread` spawn+join cycle the spawn storm
//! itself becomes a measurable wall-clock cost, and the OS sees an endless
//! churn of short-lived threads. This module replaces that with one
//! process-wide pool of daemon workers, spawned lazily on first use:
//!
//! * [`scope`] is a drop-in replacement for `std::thread::scope`: closures
//!   may borrow from the caller's stack, every spawned task is guaranteed
//!   to finish before `scope` returns, and a panicking task resurfaces as a
//!   panic in the caller (first panic wins, like `std::thread::scope`).
//! * [`threads`] is the worker budget parallel algorithms should chunk by:
//!   the machine's available parallelism, overridable with the
//!   `MSORT_POOL_THREADS` environment variable so CI can force
//!   multi-threaded execution on single-core runners (and single-threaded
//!   execution anywhere).
//!
//! # Deadlock freedom
//!
//! The pool spawns `threads() - 1` workers (the calling thread is the
//! n-th). A thread waiting in [`scope`] *helps*: while its own tasks are
//! unfinished it pops and runs queued tasks — anyone's — instead of
//! blocking. Nested scopes (a pooled task that itself calls [`scope`], as
//! PARADIS' bucket recursion does) therefore always make progress, even
//! with zero workers: the scoping thread runs its own queue dry before
//! sleeping, and only sleeps when every remaining task of its scope is
//! running on some other thread.
//!
//! Tasks never block on other tasks (kernels only join via [`scope`],
//! which helps), so helping cannot self-deadlock.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Queue + wakeup shared by workers and helping waiters.
struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Notified on task push *and* on scope-task completion (completions
    /// wake helping waiters whose predicate lives outside the mutex).
    cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Worker budget for parallel algorithms: `MSORT_POOL_THREADS` if set (and
/// ≥ 1), otherwise the machine's available parallelism. Constant for the
/// process lifetime, so chunking decisions derived from it are
/// deterministic run-to-run.
#[must_use]
pub fn threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("MSORT_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
    })
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });
        // The calling thread participates via helping waits, so n threads
        // of parallelism need n - 1 workers. Workers are daemon threads:
        // they hold only the Arc and die with the process.
        for i in 0..threads().saturating_sub(1) {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("msort-pool-{i}"))
                .spawn(move || worker_loop(&s))
                .expect("spawn pool worker");
        }
        Pool { shared }
    })
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool mutex");
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = shared.cv.wait(q).expect("pool mutex");
            }
        };
        // Tasks are panic-wrapped at submission ([`Scope::spawn`] stores
        // the payload); a stray unwind would otherwise silently kill the
        // worker.
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

/// Per-scope completion state.
struct ScopeState {
    /// Tasks spawned and not yet finished.
    pending: AtomicUsize,
    /// First panic payload from a task of this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Handle passed to the [`scope`] closure; spawns borrowing tasks.
pub struct Scope<'scope, 'env: 'scope> {
    shared: &'static Shared,
    state: Arc<ScopeState>,
    /// Invariant lifetimes, exactly like `std::thread::Scope`.
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Run `f` on the pool. `f` may borrow from the environment of the
    /// enclosing [`scope`] call; it is guaranteed to finish before that
    /// call returns.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `scope` joins every spawned task (even when the scope
        // closure panics) before returning, so the task never outlives
        // 'env; the transmute only erases that lifetime.
        let boxed: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        let state = Arc::clone(&self.state);
        let shared = self.shared;
        let task: Task = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(boxed)) {
                state
                    .panic
                    .lock()
                    .expect("scope panic slot")
                    .get_or_insert(payload);
            }
            state.pending.fetch_sub(1, Ordering::AcqRel);
            // Serialize with waiters: acquiring the queue mutex before
            // notifying guarantees a waiter that saw pending > 0 is already
            // parked in `cv.wait` (it checks under the same mutex).
            drop(shared.queue.lock().expect("pool mutex"));
            shared.cv.notify_all();
        });
        self.shared
            .queue
            .lock()
            .expect("pool mutex")
            .push_back(task);
        self.shared.cv.notify_one();
    }
}

/// Pooled equivalent of `std::thread::scope`: tasks spawned on the scope
/// may borrow from the caller and are joined before this returns. The
/// calling thread helps run queued tasks while it waits. If any task
/// panicked, the first payload is resumed here (after all tasks finished);
/// a panic in `f` itself also waits for spawned tasks first.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    let p = pool();
    let sc = Scope {
        shared: &p.shared,
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }),
        scope_marker: PhantomData,
        env_marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&sc)));
    // Join: help with queued work, sleep only when everything left is
    // already running elsewhere. Must complete even if `f` panicked —
    // spawned tasks borrow 'env.
    {
        let shared = sc.shared;
        let mut q = shared.queue.lock().expect("pool mutex");
        while sc.state.pending.load(Ordering::Acquire) != 0 {
            if let Some(task) = q.pop_front() {
                drop(q);
                task();
                q = shared.queue.lock().expect("pool mutex");
            } else {
                q = shared.cv.wait(q).expect("pool mutex");
            }
        }
    }
    let panic = sc.state.panic.lock().expect("scope panic slot").take();
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(r) => {
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_all_tasks_and_joins() {
        let counter = AtomicU64::new(0);
        scope(|s| {
            for i in 0..64u64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    fn scope_tasks_borrow_and_mutate_disjoint_slices() {
        let mut data = vec![0u32; 1000];
        let chunk = 100;
        scope(|s| {
            for (i, part) in data.chunks_mut(chunk).enumerate() {
                s.spawn(move || {
                    for v in part {
                        *v = i as u32;
                    }
                });
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / chunk) as u32);
        }
    }

    #[test]
    fn nested_scopes_complete() {
        // A pooled task that itself opens a scope: helping makes this
        // progress even when every worker is busy (or there are none).
        let total = AtomicU64::new(0);
        scope(|outer| {
            for _ in 0..8 {
                let total = &total;
                outer.spawn(move || {
                    scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_scope_returns_closure_result() {
        assert_eq!(scope(|_| 42), 42);
    }

    #[test]
    fn panicking_task_resurfaces_after_join() {
        let finished = Arc::new(AtomicU64::new(0));
        let fin = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("task boom"));
                let fin = Arc::clone(&fin);
                s.spawn(move || {
                    fin.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "scope must propagate the task panic");
        // The sibling task still ran to completion before the panic
        // resurfaced (scope joins everything first).
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn threads_is_at_least_one_and_stable() {
        let a = threads();
        let b = threads();
        assert!(a >= 1);
        assert_eq!(a, b);
    }
}
