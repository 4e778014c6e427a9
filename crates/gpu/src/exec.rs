//! Conflict-aware wall-clock executor for data effects.
//!
//! Since PR 1 the simulated *clocks* are fast, but every data effect — the
//! real host-memory copy/sort/merge behind each completed op — used to run
//! serially on the driver thread inside `complete_op`. This module makes
//! those effects concurrent in *wall-clock* time without perturbing
//! anything observable:
//!
//! * Each effect is submitted as a job tagged with its buffer read/write
//!   set ([`Access`] ranges over `World` buffer indices).
//! * Two jobs **conflict** when they touch overlapping ranges of the same
//!   buffer and at least one writes. A new job waits for every live
//!   conflicting job submitted before it; non-conflicting jobs (ops on
//!   different GPUs, disjoint ranges) run concurrently on the shared
//!   worker pool.
//! * Jobs are submitted in simulated completion order, which is itself
//!   deterministic, so conflicting jobs always run in the order the serial
//!   executor ran them and the final buffer state is bit-identical. (The
//!   kernels additionally chunk by the process-wide
//!   [`msort_cpu::pool::threads`] budget, never by this executor's thread
//!   count, so even *within* one effect the output never depends on how
//!   effects were scheduled.)
//! * The driver joins via [`EffectExecutor::flush`] before any return to
//!   host code and via [`EffectExecutor::wait_writes`] before snapshotting
//!   a copy source, so no read ever observes a half-applied effect.
//! * Dispatch is **size-aware**: a job whose access set covers at most
//!   [`INLINE_MAX_ELEMS`] physical elements costs less than the hand-off to
//!   a pool worker, so `submit` runs it on the driver thread — after
//!   joining exactly the live jobs it conflicts with, before returning.
//!   The driver is the only submitter, so such a job runs after every
//!   earlier conflicting job and before every later one: the serial order.
//!
//! With `threads <= 1` the executor degenerates to the serial seed
//! behavior: submit runs every job inline and the joins are no-ops.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// One contiguous physical-index range of one buffer, read or written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    /// `World` buffer index (`BufId.0`).
    pub buf: usize,
    /// First physical element index touched.
    pub lo: usize,
    /// One past the last physical element index touched.
    pub hi: usize,
    /// `true` for writes, `false` for reads.
    pub write: bool,
}

impl Access {
    fn conflicts(&self, other: &Access) -> bool {
        (self.write || other.write)
            && self.buf == other.buf
            && self.lo < other.hi
            && other.lo < self.hi
    }
}

fn sets_conflict(a: &[Access], b: &[Access]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.conflicts(y)))
}

/// Jobs whose access set covers at most this many physical elements (reads
/// plus writes, scratch included) run on the submitting thread instead of
/// the pool. Like `primitives::PARALLEL_MIN_KEYS`, the dispatch depends only
/// on the job's *size* (never on the thread count), so a given effect
/// always takes the same path.
///
/// Rule: the largest power of two at which the default device sort —
/// per element the slowest effect the drivers issue — still costs less than
/// one hand-off to a pool worker, so below it no overlap can pay for the
/// hand-off. Probe numbers from `MSORT_POOL_THREADS=2 cargo run -p
/// msort-bench --release --example tune` on the 2-core CI container (u32):
///
/// ```text
/// pool hand-off round trip: 38.51 us
/// n= 1024: copy  0.041 us, device sort thrust    8.76 / stehle    8.03 / mgpu   39.99 us
/// n= 4096: copy  0.128 us, device sort thrust   31.36 / stehle   37.07 / mgpu  219.53 us
/// n= 8192: copy  0.874 us, device sort thrust   68.17 / stehle   78.87 / mgpu  509.23 us
/// ```
///
/// A device sort of `n` keys covers `2n` elements with its scratch, so the
/// 4 Ki-key sort (31 µs) is the last one under the 38.5 µs hand-off: 8 Ki
/// elements. Copies and merges of that size cost under 1 µs and 10 µs. The
/// ModernGPU-like merge sort is ~7× slower per key and only the Table 2
/// experiment runs it; inline it merely forgoes overlap. End to end at pool
/// width 2 a 2 Ki floor is 20–55 % slower than this one on `perf`'s
/// `cluster_sort` and `serve_overload` (their 2–4 Ki-element sorts go to
/// the pool) and floors from 8 Ki to 64 Ki are within run-to-run noise.
/// `tests/exec_determinism.rs` straddles this value by name.
const INLINE_MAX_ELEMS: usize = 1 << 13;

/// A submitted effect. `run` is `Some` while the job waits for conflicting
/// predecessors; once dispatched it stays in the map as a placeholder (so
/// later jobs still order against it) until its closure finishes.
struct Job {
    accesses: Vec<Access>,
    run: Option<Box<dyn FnOnce() + Send + 'static>>,
    /// Unfinished earlier jobs this one conflicts with.
    deps: usize,
    /// Later jobs waiting on this one.
    dependents: Vec<u64>,
}

#[derive(Default)]
struct Inner {
    /// Live jobs (waiting, ready, or running) by id.
    jobs: HashMap<u64, Job>,
    next_id: u64,
    /// First panic payload from any job.
    panic: Option<Box<dyn Any + Send + 'static>>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Notified after every job completion (the driver's join predicates
    /// live on `inner`).
    cv: Condvar,
}

impl Shared {
    /// Dispatch a ready job's closure onto the pool.
    fn dispatch(self: &Arc<Self>, id: u64, run: Box<dyn FnOnce() + Send + 'static>) {
        let shared = Arc::clone(self);
        msort_cpu::pool::spawn(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
                let mut inner = shared.inner.lock().expect("exec mutex");
                inner.panic.get_or_insert(payload);
            }
            shared.complete(id);
        });
    }

    /// Remove a finished job, release its dependents, dispatch the newly
    /// ready ones, and wake the driver.
    fn complete(self: &Arc<Self>, id: u64) {
        let mut ready: Vec<(u64, Box<dyn FnOnce() + Send + 'static>)> = Vec::new();
        {
            let mut inner = self.inner.lock().expect("exec mutex");
            let job = inner.jobs.remove(&id).expect("completed job is live");
            debug_assert!(job.run.is_none(), "completed job was dispatched");
            for dep in job.dependents {
                let d = inner.jobs.get_mut(&dep).expect("dependent is live");
                d.deps -= 1;
                if d.deps == 0 {
                    if let Some(run) = d.run.take() {
                        ready.push((dep, run));
                    }
                }
            }
        }
        // Enqueue ready dependents before notifying: a helping waiter woken
        // by the notify must be able to find the work.
        for (dep, run) in ready {
            self.dispatch(dep, run);
        }
        self.cv.notify_all();
    }
}

/// The wall-clock effect executor owned by a `GpuSystem`.
pub(crate) struct EffectExecutor {
    shared: Arc<Shared>,
    threads: usize,
}

impl EffectExecutor {
    pub(crate) fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner::default()),
                cv: Condvar::new(),
            }),
            threads: msort_cpu::pool::threads(),
        }
    }

    /// Effect-level concurrency budget. `1` forces the serial baseline
    /// (submit applies inline). Callers must be flushed when changing it.
    pub(crate) fn set_threads(&mut self, threads: usize) {
        debug_assert!(
            self.shared
                .inner
                .lock()
                .expect("exec mutex")
                .jobs
                .is_empty(),
            "set_threads requires a flushed executor"
        );
        self.threads = threads.max(1);
    }

    fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Submit an effect job. Serial mode runs it inline. Otherwise a job of
    /// at most [`INLINE_MAX_ELEMS`] elements runs right here once every live
    /// job it conflicts with has finished (its panic is stored for the next
    /// [`EffectExecutor::flush`], like a pooled job's), and a larger one
    /// runs on the pool once every earlier live job it conflicts with
    /// finished. Nothing is allocated unless the job goes to the pool.
    ///
    /// # Safety contract (not enforced by types)
    /// `run` may capture raw views of `World` buffer memory; the caller
    /// guarantees those stay valid until the job completes (the system
    /// flushes before any world access or drop) and that `accesses` covers
    /// every byte the closure touches.
    pub(crate) fn submit(&self, accesses: &[Access], run: impl FnOnce() + Send + 'static) {
        if self.is_serial() {
            run();
            return;
        }
        let elems: usize = accesses.iter().map(|a| a.hi - a.lo).sum();
        if elems <= INLINE_MAX_ELEMS {
            self.join_conflicts(accesses);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
                let mut inner = self.shared.inner.lock().expect("exec mutex");
                inner.panic.get_or_insert(payload);
            }
            return;
        }
        let (id, runnable) = {
            let mut inner = self.shared.inner.lock().expect("exec mutex");
            let id = inner.next_id;
            inner.next_id += 1;
            let mut deps = 0usize;
            let mut blockers: Vec<u64> = Vec::new();
            for (&jid, job) in &inner.jobs {
                if sets_conflict(&job.accesses, accesses) {
                    deps += 1;
                    blockers.push(jid);
                }
            }
            for jid in blockers {
                inner
                    .jobs
                    .get_mut(&jid)
                    .expect("blocker is live")
                    .dependents
                    .push(id);
            }
            let run: Box<dyn FnOnce() + Send + 'static> = Box::new(run);
            let (stored, runnable) = if deps == 0 {
                (None, Some(run))
            } else {
                (Some(run), None)
            };
            inner.jobs.insert(
                id,
                Job {
                    accesses: accesses.to_vec(),
                    run: stored,
                    deps,
                    dependents: Vec::new(),
                },
            );
            (id, runnable)
        };
        if let Some(run) = runnable {
            self.shared.dispatch(id, run);
        }
    }

    /// Block until no live job *writes* into `[lo, hi)` of buffer `buf`
    /// (used before a copy snapshots its source — concurrent readers are
    /// fine, a half-applied writer is not). Helps the pool while waiting.
    pub(crate) fn wait_writes(&self, buf: usize, lo: usize, hi: usize) {
        if self.is_serial() || lo >= hi {
            return;
        }
        self.join_conflicts(&[Access {
            buf,
            lo,
            hi,
            write: false,
        }]);
    }

    /// Block until no live job conflicts with `accesses`.
    fn join_conflicts(&self, accesses: &[Access]) {
        self.join(|inner| {
            !inner
                .jobs
                .values()
                .any(|j| sets_conflict(&j.accesses, accesses))
        });
    }

    /// Block until every submitted job has completed, then propagate the
    /// first job panic if any. Helps the pool while waiting.
    pub(crate) fn flush(&self) {
        if self.is_serial() {
            return;
        }
        self.join(|inner| inner.jobs.is_empty());
        let panic = self.shared.inner.lock().expect("exec mutex").panic.take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// [`EffectExecutor::flush`] that swallows job panics — for `Drop`,
    /// where the wait is mandatory (jobs hold raw views of the world being
    /// dropped) but a double panic would abort.
    pub(crate) fn quiet_flush(&self) {
        if self.is_serial() {
            return;
        }
        self.join(|inner| inner.jobs.is_empty());
        self.shared.inner.lock().expect("exec mutex").panic.take();
    }

    /// Wait until `done(inner)` holds, running queued pool tasks on this
    /// thread whenever the condition is pending (so progress is guaranteed
    /// even with zero pool workers).
    fn join(&self, done: impl Fn(&Inner) -> bool) {
        let mut inner = self.shared.inner.lock().expect("exec mutex");
        loop {
            if done(&inner) {
                return;
            }
            drop(inner);
            if msort_cpu::pool::try_help() {
                inner = self.shared.inner.lock().expect("exec mutex");
                continue;
            }
            inner = self.shared.inner.lock().expect("exec mutex");
            if done(&inner) {
                return;
            }
            inner = self.shared.cv.wait(inner).expect("exec mutex");
        }
    }
}

/// `Send` raw view of a `&mut [K]` captured by an effect job. The job's
/// access set plus the conflict ordering guarantee exclusive use.
pub(crate) struct RawSlice<K> {
    ptr: *mut K,
    len: usize,
}

impl<K> RawSlice<K> {
    pub(crate) fn new(slice: &mut [K]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// The underlying allocation must still be live and no other code may
    /// access the range for the duration of the returned borrow — both
    /// hold inside a job whose access set covers this slice.
    pub(crate) unsafe fn as_mut<'a>(&self) -> &'a mut [K] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

// SAFETY: dereferences are guarded by the executor's conflict ordering.
unsafe impl<K: Send> Send for RawSlice<K> {}

/// `Send` raw view of a `&[K]` captured by an effect job.
pub(crate) struct RawSliceConst<K> {
    ptr: *const K,
    len: usize,
}

impl<K> RawSliceConst<K> {
    pub(crate) fn new(slice: &[K]) -> Self {
        Self {
            ptr: slice.as_ptr(),
            len: slice.len(),
        }
    }

    /// The captured range as raw byte bounds (overlap checks against the
    /// job's output window).
    pub(crate) fn byte_range(&self) -> (usize, usize) {
        let start = self.ptr as usize;
        (start, start + self.len * std::mem::size_of::<K>())
    }

    /// # Safety
    /// Same liveness/aliasing contract as [`RawSlice::as_mut`], for reads.
    pub(crate) unsafe fn as_ref<'a>(&self) -> &'a [K] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

// SAFETY: dereferences are guarded by the executor's conflict ordering.
unsafe impl<K: Sync> Send for RawSliceConst<K> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `w`/`r` ranges are in units of one above-floor job, so every
    /// non-empty range goes to the pool; `small_w` ranges stay inline.
    const UNIT: usize = INLINE_MAX_ELEMS + 1;

    fn w(buf: usize, lo: usize, hi: usize) -> Access {
        Access {
            buf,
            lo: lo * UNIT,
            hi: hi * UNIT,
            write: true,
        }
    }

    fn r(buf: usize, lo: usize, hi: usize) -> Access {
        Access {
            write: false,
            ..w(buf, lo, hi)
        }
    }

    fn small_w(buf: usize, lo: usize, hi: usize) -> Access {
        assert!(hi - lo <= INLINE_MAX_ELEMS);
        Access {
            buf,
            lo,
            hi,
            write: true,
        }
    }

    #[test]
    fn conflict_rules() {
        assert!(w(0, 0, 10).conflicts(&r(0, 5, 15)));
        assert!(w(0, 0, 10).conflicts(&w(0, 9, 10)));
        assert!(!w(0, 0, 10).conflicts(&w(1, 0, 10)), "different buffers");
        assert!(!w(0, 0, 10).conflicts(&w(0, 10, 20)), "disjoint ranges");
        assert!(!r(0, 0, 10).conflicts(&r(0, 0, 10)), "read-read");
    }

    #[test]
    fn serial_mode_runs_inline() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(1);
        let hit = AtomicUsize::new(0);
        ex.submit(&[w(0, 0, 4)], {
            let hit = &hit as *const AtomicUsize as usize;
            move || {
                // SAFETY: inline execution — the reference outlives the call.
                unsafe { &*(hit as *const AtomicUsize) }.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1, "ran before submit returned");
        ex.flush();
    }

    #[test]
    fn conflicting_jobs_run_in_submission_order() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..16u32 {
            let log = Arc::clone(&log);
            // All jobs write the same range: fully ordered.
            ex.submit(&[w(0, 0, 8)], move || {
                log.lock().unwrap().push(i);
            });
        }
        ex.flush();
        assert_eq!(*log.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn disjoint_jobs_all_complete() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..64usize {
            let count = Arc::clone(&count);
            ex.submit(&[w(i % 8, (i / 8) * 10, (i / 8) * 10 + 10)], move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        ex.flush();
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn wait_writes_blocks_on_writers_only() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        let data = Arc::new(Mutex::new(0u32));
        {
            let data = Arc::clone(&data);
            ex.submit(&[w(3, 0, 100)], move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                *data.lock().unwrap() = 7;
            });
        }
        ex.wait_writes(3, 50, 60);
        assert_eq!(*data.lock().unwrap(), 7, "writer finished before return");
        // A pure reader on the same range must not block wait_writes.
        {
            let data = Arc::clone(&data);
            ex.submit(&[r(3, 0, 100)], move || {
                let _ = *data.lock().unwrap();
            });
        }
        ex.wait_writes(3, 0, 100); // returns despite the live reader
        ex.flush();
    }

    #[test]
    fn chain_through_read_after_write() {
        // writer(buf 0) -> reader(buf 0)+writer(buf 1) -> reader(buf 1):
        // the diamond must execute in dependency order.
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        let cell = Arc::new(Mutex::new(Vec::new()));
        for (i, acc) in [
            vec![w(0, 0, 10)],
            vec![r(0, 0, 10), w(1, 0, 10)],
            vec![r(1, 0, 10)],
        ]
        .into_iter()
        .enumerate()
        {
            let cell = Arc::clone(&cell);
            ex.submit(&acc, move || cell.lock().unwrap().push(i));
        }
        ex.flush();
        assert_eq!(*cell.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn flush_propagates_job_panic() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        // A pooled job's panic and an inline job's resurface the same way.
        for access in [w(0, 0, 1), small_w(0, 0, 1)] {
            ex.submit(&[access], || panic!("effect boom"));
            let err = catch_unwind(AssertUnwindSafe(|| ex.flush()));
            assert!(err.is_err());
            ex.flush(); // panic consumed; executor is reusable
        }
    }

    #[test]
    fn small_job_waits_for_conflicting_pooled_job() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        let data = Arc::new(Mutex::new(0u32));
        {
            let data = Arc::clone(&data);
            ex.submit(&[w(0, 0, 1)], move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                *data.lock().unwrap() = 7;
            });
        }
        let seen = Arc::new(Mutex::new(None));
        {
            let (data, seen) = (Arc::clone(&data), Arc::clone(&seen));
            ex.submit(&[small_w(0, 5, 6)], move || {
                *seen.lock().unwrap() = Some(*data.lock().unwrap());
            });
        }
        // Inline: done when submit returns, after the sleeping writer.
        assert_eq!(*seen.lock().unwrap(), Some(7));
        ex.flush();
    }

    #[test]
    fn small_jobs_run_on_the_submitting_thread() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        let me = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        let small_tx = tx.clone();
        ex.submit(&[small_w(0, 0, INLINE_MAX_ELEMS)], move || {
            small_tx.send(std::thread::current().id()).unwrap();
        });
        assert_eq!(
            rx.try_recv(),
            Ok(me),
            "at the floor: inline, done on return"
        );
        if msort_cpu::pool::threads() > 1 {
            ex.submit(
                &[small_w(1, 0, INLINE_MAX_ELEMS), small_w(2, 0, 1)],
                move || {
                    tx.send(std::thread::current().id()).unwrap();
                },
            );
            // Receive before flushing: a helping flush could run the job here.
            assert_ne!(rx.recv(), Ok(me), "above the floor: pooled");
        }
        ex.flush();
    }

    #[test]
    fn mixed_sizes_on_one_range_replay_in_submission_order() {
        let mut ex = EffectExecutor::new();
        ex.set_threads(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32u32 {
            let log = Arc::clone(&log);
            let access = if i % 3 == 0 {
                w(0, 0, 1)
            } else {
                small_w(0, 0, 8)
            };
            ex.submit(&[access], move || {
                log.lock().unwrap().push(i);
            });
        }
        ex.flush();
        assert_eq!(*log.lock().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn raw_slice_round_trip() {
        let mut v = vec![1u32, 2, 3];
        let raw = RawSlice::new(&mut v);
        // SAFETY: exclusive access in this test.
        unsafe { raw.as_mut()[1] = 9 };
        assert_eq!(v, vec![1, 9, 3]);
        let rc = RawSliceConst::new(&v);
        assert_eq!(unsafe { rc.as_ref() }, &[1, 9, 3]);
        let (lo, hi) = rc.byte_range();
        assert_eq!(hi - lo, 12);
    }
}
