//! The reference scheduler: the one serve loop over linear-scan
//! bookkeeping.
//!
//! [`ReferenceService`] is [`Service`] — the same `submit`, `try_dispatch`,
//! `elastic_adjust`, `dispatch`, `step_ready` and `finish` as
//! [`crate::SortService`] — instantiated over [`Linear`], which keeps no
//! index and no counter and answers every question the loop asks by
//! rescanning:
//!
//! * *who runs next* — rebuild the `QueueView` list and scan it with
//!   `QueuePolicy::pick`, per pick;
//! * *how long is the backlog* — re-collect every pending and running job
//!   and sum it with [`estimate_queue_wait`], per SLO admission;
//! * *which GPUs are free* — re-collect the free set, per placement
//!   attempt;
//! * *how many slots are active / leased / demanded* — count the lease
//!   flags and sum the queue, per resize pass.
//!
//! The running set is not on the list: gang leases bound it by the fleet,
//! so [`Service`] keeps it as a plain list for both bookkeepings.
//!
//! It is O(n²) in offered jobs — which is exactly why it stays: each
//! answer is simple enough to audit by eye, and the differential test
//! (`tests/differential.rs`) proves [`crate::service::Indexed`] gives the
//! loop the same answers — a **bit-identical** [`crate::ServiceReport`] on
//! randomized workloads across every queue policy × admission × fleet ×
//! fault plan. What the two share (the loop, `QueuePolicy::pick`'s
//! comparison tuples, the report's timeline dedupe) the differential
//! cannot check; `tests/golden.rs` pins that against drift with a
//! `ServiceReport` digest.

use crate::cost::estimate_queue_wait;
use crate::job::TenantId;
use crate::queue::{QueuePolicy, QueueView};
use crate::service::{Bookkeeping, Fleet, Pending, Running, Service, Tallies};
use msort_data::SortKey;
use msort_sim::SimDuration;

/// The linear-scan service — see the module docs for why it exists.
pub type ReferenceService<'p, K> = Service<'p, K, Linear>;

/// Bookkeeping as one plain list, rescanned on every question.
pub struct Linear {
    policy: QueuePolicy,
    pending: Vec<(QueueView, Pending)>,
}

impl Bookkeeping for Linear {
    /// Index into `pending`.
    type Ticket = usize;

    fn new(policy: QueuePolicy, _active: usize) -> Self {
        Self {
            policy,
            pending: Vec::new(),
        }
    }

    fn queue_len(&self) -> usize {
        self.pending.len()
    }

    fn enqueue(&mut self, view: QueueView, pending: Pending) {
        self.pending.push((view, pending));
    }

    fn head(&mut self, credit: &dyn Fn(TenantId) -> f64) -> Option<(usize, &Pending)> {
        let views: Vec<QueueView> = self.pending.iter().map(|&(view, _)| view).collect();
        let i = self.policy.pick(&views, credit)?;
        Some((i, &self.pending[i].1))
    }

    fn dequeue(&mut self, i: usize) -> (QueueView, Pending) {
        self.pending.remove(i)
    }

    fn queue_wait<K: SortKey>(&self, running: &[Running<K>], fleet_gpus: usize) -> SimDuration {
        let backlog: Vec<(SimDuration, usize)> = self
            .pending
            .iter()
            .map(|(view, p)| (view.cost, p.job.gpus))
            .chain(running.iter().map(|r| (r.cost, r.gang.len())))
            .collect();
        estimate_queue_wait(&backlog, fleet_gpus)
    }

    fn tallies(&self, fleet: &Fleet) -> Tallies {
        Tallies {
            active: fleet.active.iter().filter(|&&a| a).count(),
            leased: fleet.leased.iter().filter(|&&l| l).count(),
            queued_gpus: self.pending.iter().map(|(_, p)| p.job.gpus).sum(),
        }
    }

    fn free_gpus(&self, fleet: &Fleet, need: usize, out: &mut Vec<usize>) -> bool {
        fleet.collect_free(out);
        out.len() >= need
    }
}
