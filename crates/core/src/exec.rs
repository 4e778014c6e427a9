//! Resumable sort drivers: each multi-GPU sort as an explicit state
//! machine over a *caller-provided* [`GpuSystem`].
//!
//! A single-shot sort — one private system, one job, one clock — cannot
//! express a sort *service*: many jobs in flight at once, contending for
//! the same links on one shared simulated clock.
//!
//! A [`SortDriver`] splits a sort at exactly its host-synchronization
//! points. Each [`SortDriver::step`] call enqueues the next phase's
//! operations and returns the ops to wait for; the caller decides how to
//! advance the clock — [`drive`] runs a single driver to completion
//! (reproducing the classic single-job behavior bit-for-bit), while a
//! scheduler such as `msort-serve` interleaves many drivers on one
//! [`GpuSystem`], stepping whichever job's frontier completed first.
//!
//! Because host-side work between phases (pivot selection, splitter
//! selection) reads only the stepping job's own buffers, interleaving
//! drivers never changes any job's *data* — only its timing, which is the
//! point: co-scheduled jobs genuinely contend in the fluid-flow engine.

use crate::report::SortReport;
use msort_data::SortKey;
use msort_gpu::{GpuSystem, OpId};

/// What a driver wants after enqueuing a phase.
#[derive(Debug, Clone)]
pub enum DriverStep {
    /// Work was enqueued; call [`SortDriver::step`] again once **all**
    /// listed ops have completed.
    Wait(Vec<OpId>),
    /// The sort finished: output, validation, and report are available.
    Done,
}

/// A sort expressed as a resumable state machine over a shared executor.
pub trait SortDriver<K: SortKey> {
    /// Enqueue the next phase. Called once to start the sort and again
    /// every time the previously returned wait-set has fully completed;
    /// a finished driver keeps returning [`DriverStep::Done`].
    fn step(&mut self, sys: &mut GpuSystem<'_, K>) -> DriverStep;

    /// Take the sorted output (physical payload). Valid once `step`
    /// returned [`DriverStep::Done`]; panics before that.
    fn take_output(&mut self) -> Vec<K>;

    /// Whether the output was verified sorted.
    fn validated(&self) -> bool;

    /// Free every buffer this driver allocated (device and host). Called
    /// by schedulers to return device memory to the fleet when the job's
    /// gang lease ends.
    fn release(&mut self, sys: &mut GpuSystem<'_, K>);

    /// Build the per-job report. Valid once the driver is done.
    fn report(&self, sys: &GpuSystem<'_, K>) -> SortReport;
}

/// Run `driver` to completion as the only job on `sys`.
///
/// For a single job this is exactly the classic phase loop: every wait-set
/// drains fully before the next phase is planned, so timings are
/// bit-identical to the pre-driver implementations.
pub fn drive<K: SortKey, D: SortDriver<K> + ?Sized>(sys: &mut GpuSystem<'_, K>, driver: &mut D) {
    loop {
        match driver.step(sys) {
            DriverStep::Done => return,
            DriverStep::Wait(mut ops) => loop {
                ops.retain(|&o| !sys.op_done(o));
                if ops.is_empty() {
                    break;
                }
                sys.run_until(&ops, None);
            },
        }
    }
}
