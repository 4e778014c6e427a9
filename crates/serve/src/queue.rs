//! Pluggable queue policies: which pending job is dispatched next.
//!
//! All policies respect the [`DeadlineClass`](crate::DeadlineClass):
//! interactive jobs are considered before batch jobs. Within a class:
//!
//! * [`QueuePolicy::Fifo`] — arrival order;
//! * [`QueuePolicy::Sjf`] — shortest estimated cost first (from
//!   [`crate::cost::estimate_job_cost`]), arrival order as tie-break;
//! * [`QueuePolicy::Edf`] — earliest deadline first: jobs with an SLO
//!   (per-job or per-tenant) order by their absolute deadline instant;
//!   best-effort jobs (no SLO) sort behind every deadline, FIFO among
//!   themselves. This is the policy SLO-aware serving wants: within a
//!   class the job closest to blowing its budget runs next;
//! * [`QueuePolicy::WeightedFair`] — the tenant with the least normalized
//!   service (charged work ÷ weight) goes first, FIFO within the tenant.
//!
//! Dispatch is strictly head-of-line: the scheduler asks for *one*
//! candidate, and if that job cannot be placed (gang or memory
//! unavailable) nothing behind it runs. That keeps every policy's ordering
//! meaningful and starvation-free at the price of head-of-line blocking —
//! the paper's gang-scheduling trade-off.

use crate::job::TenantId;
use msort_sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

/// Total-order key for an f64 tenant credit.
///
/// The mapping is the standard sign-magnitude → biased transform: negative
/// floats have their bits inverted, non-negative floats get the sign bit
/// set, so `credit_key(a) < credit_key(b)` iff `a < b` for every pair of
/// non-NaN floats (and every NaN maps to one totally-ordered bucket at the
/// extremes instead of poisoning comparisons). Both the linear-scan
/// [`QueuePolicy::pick`] and the ordered [`IndexedQueue`] credit index
/// compare credits through this key, so WeightedFair ties resolve
/// identically in both paths by construction.
pub(crate) fn credit_key(credit: f64) -> u64 {
    let bits = credit.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Dispatch-order policy for the pending-job queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueuePolicy {
    /// First in, first out (within deadline class).
    Fifo,
    /// Shortest (estimated) job first.
    Sjf,
    /// Earliest (absolute) deadline first; best-effort jobs last.
    Edf,
    /// Weighted per-tenant fair share.
    WeightedFair,
}

/// What a policy sees of a queued job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueView {
    /// Submission sequence number (global arrival order).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Estimated solo service time.
    pub cost: SimDuration,
    /// `true` for [`crate::DeadlineClass::Interactive`].
    pub interactive: bool,
    /// Absolute deadline (submit + SLO), if the job has one.
    pub deadline: Option<SimTime>,
}

impl QueueView {
    fn class_rank(&self) -> u8 {
        u8::from(!self.interactive)
    }

    /// Deadline as an orderable key: best-effort jobs sort last.
    fn deadline_rank(&self) -> u64 {
        self.deadline.map_or(u64::MAX, |d| d.0)
    }
}

impl QueuePolicy {
    /// Index of the entry to dispatch next, or `None` on an empty queue.
    /// `credit(t)` is tenant `t`'s charged work ÷ weight so far; only
    /// [`QueuePolicy::WeightedFair`] consults it.
    pub(crate) fn pick(
        &self,
        queue: &[QueueView],
        credit: &dyn Fn(TenantId) -> f64,
    ) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        let by_key = |key: &dyn Fn(&QueueView) -> (u8, u64, u64)| -> usize {
            // Cache the incumbent's key: recomputing it per comparison made
            // the scan cost two key evaluations per entry.
            let mut best = 0;
            let mut best_key = key(&queue[0]);
            for (i, v) in queue.iter().enumerate().skip(1) {
                let k = key(v);
                if k < best_key {
                    best = i;
                    best_key = k;
                }
            }
            best
        };
        match self {
            QueuePolicy::Fifo => Some(by_key(&|v| (v.class_rank(), v.seq, 0))),
            QueuePolicy::Sjf => Some(by_key(&|v| (v.class_rank(), v.cost.0, v.seq))),
            QueuePolicy::Edf => Some(by_key(&|v| (v.class_rank(), v.deadline_rank(), v.seq))),
            QueuePolicy::WeightedFair => {
                // Pick the least-served tenant present (lower id on ties),
                // then FIFO within that tenant. Credits compare through
                // `credit_key`, the same total order the indexed path's
                // BTree index uses — see `credit_key`'s docs.
                let mut tenant = queue[0].tenant;
                let mut tenant_key = credit_key(credit(tenant));
                for v in &queue[1..] {
                    let k = credit_key(credit(v.tenant));
                    if (k, v.tenant) < (tenant_key, tenant) {
                        tenant = v.tenant;
                        tenant_key = k;
                    }
                }
                let mut best: Option<(usize, (u8, u64))> = None;
                for (i, v) in queue.iter().enumerate() {
                    if v.tenant != tenant {
                        continue;
                    }
                    let k = (v.class_rank(), v.seq);
                    if best.is_none_or(|(_, bk)| k < bk) {
                        best = Some((i, k));
                    }
                }
                best.map(|(i, _)| i)
            }
        }
    }
}

/// The indexed pending queue: every [`QueuePolicy`] answers "who runs
/// next?" in O(log n) instead of the linear scan `pick` performs.
///
/// * Fifo/Sjf/Edf keep one min-heap over exactly the `(class, …, seq)`
///   tuples `pick` compares, so the head — including every seq tie-break —
///   is the entry the scan would have chosen.
/// * WeightedFair keeps per-tenant FIFO deques (one per deadline class)
///   under an ordered `(credit_key, tenant)` index, so the least-served
///   tenant's head-of-line job is one ordered lookup away.
///
/// Mid-queue removals (shed, timeout, dispatch of a non-head entry) don't
/// restructure anything: the entry just leaves the `entries` map, and the
/// stale heap/deque slot is discarded when it surfaces (lazy
/// invalidation). Sequence numbers are globally unique and never reused,
/// so "still in `entries`" is a complete liveness test.
/// The Fifo/Sjf/Edf comparison tuple: `(deadline-class rank, policy
/// key, seq tie-break)` — exactly what the linear scan compares.
type PolicyKey = (u8, u64, u64);

pub(crate) struct IndexedQueue<T> {
    policy: QueuePolicy,
    /// Live queued jobs by submission seq.
    entries: HashMap<u64, (QueueView, T)>,
    /// Fifo/Sjf/Edf: min-heap of `(policy key, seq)`, lazily invalidated.
    heap: BinaryHeap<Reverse<(PolicyKey, u64)>>,
    /// WeightedFair: per-tenant seq FIFOs, `[interactive, batch]`.
    tenants: HashMap<TenantId, [VecDeque<u64>; 2]>,
    /// WeightedFair: tenants ordered by `(credit_key, id)`.
    by_credit: BTreeSet<(u64, u32)>,
    /// Current credit key per tenant (to locate its `by_credit` entry).
    credits: HashMap<TenantId, u64>,
}

impl<T> IndexedQueue<T> {
    pub fn new(policy: QueuePolicy) -> Self {
        Self {
            policy,
            entries: HashMap::new(),
            heap: BinaryHeap::new(),
            tenants: HashMap::new(),
            by_credit: BTreeSet::new(),
            credits: HashMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    fn key(&self, v: &QueueView) -> PolicyKey {
        match self.policy {
            QueuePolicy::Fifo => (v.class_rank(), v.seq, 0),
            QueuePolicy::Sjf => (v.class_rank(), v.cost.0, v.seq),
            QueuePolicy::Edf => (v.class_rank(), v.deadline_rank(), v.seq),
            QueuePolicy::WeightedFair => unreachable!("WeightedFair uses the tenant index"),
        }
    }

    /// Enqueue a job. Its `QueueView` is immutable from here on (class,
    /// cost, and deadline are fixed at submission), which is what lets the
    /// heap key stand for the entry forever.
    pub fn push(&mut self, view: QueueView, payload: T) {
        let seq = view.seq;
        if self.policy == QueuePolicy::WeightedFair {
            let tenant = view.tenant;
            if let std::collections::hash_map::Entry::Vacant(e) = self.credits.entry(tenant) {
                // First sighting: index the tenant at zero credit (the same
                // starting credit the service's tenant table assigns).
                let k = credit_key(0.0);
                e.insert(k);
                self.by_credit.insert((k, tenant.0));
            }
            self.tenants.entry(tenant).or_default()[usize::from(view.class_rank())].push_back(seq);
        } else {
            self.heap.push(Reverse((self.key(&view), seq)));
        }
        self.entries.insert(seq, (view, payload));
    }

    /// Record tenant `t`'s new credit (charged work ÷ weight). O(log
    /// tenants); no queued entry moves — only the tenant's rank does.
    pub fn set_credit(&mut self, tenant: TenantId, credit: f64) {
        let k = credit_key(credit);
        match self.credits.insert(tenant, k) {
            Some(old) if old == k => {}
            Some(old) => {
                self.by_credit.remove(&(old, tenant.0));
                self.by_credit.insert((k, tenant.0));
            }
            None => {
                self.by_credit.insert((k, tenant.0));
            }
        }
    }

    /// Seq of the entry [`QueuePolicy::pick`] would choose, or `None` on
    /// an empty queue. `&mut` because surfacing stale heads retires them.
    pub fn pick(&mut self) -> Option<u64> {
        if self.policy == QueuePolicy::WeightedFair {
            // Least-credit tenant with a live entry; interactive FIFO
            // outranks batch FIFO within the tenant.
            for &(_, tid) in &self.by_credit {
                // Tenants can be indexed before their first job (credit
                // updates arrive from the service's tenant table).
                let Some(deques) = self.tenants.get_mut(&TenantId(tid)) else {
                    continue;
                };
                for q in deques.iter_mut() {
                    while let Some(&seq) = q.front() {
                        if self.entries.contains_key(&seq) {
                            break;
                        }
                        q.pop_front();
                    }
                }
                match (deques[0].front(), deques[1].front()) {
                    (Some(&s), _) => return Some(s),
                    (None, Some(&s)) => return Some(s),
                    (None, None) => {}
                }
            }
            None
        } else {
            while let Some(&Reverse((_, seq))) = self.heap.peek() {
                if self.entries.contains_key(&seq) {
                    return Some(seq);
                }
                self.heap.pop();
            }
            None
        }
    }

    pub fn get(&self, seq: u64) -> Option<&(QueueView, T)> {
        self.entries.get(&seq)
    }

    /// Remove an entry anywhere in the queue (dispatch, shed, timeout).
    /// O(1): index residue is invalidated lazily.
    pub fn remove(&mut self, seq: u64) -> Option<(QueueView, T)> {
        self.entries.remove(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(seq: u64, tenant: u32, cost_us: u64, interactive: bool) -> QueueView {
        QueueView {
            seq,
            tenant: TenantId(tenant),
            cost: SimDuration::from_micros(cost_us),
            interactive,
            deadline: None,
        }
    }

    fn vd(seq: u64, deadline_us: Option<u64>, interactive: bool) -> QueueView {
        QueueView {
            deadline: deadline_us.map(|d| SimTime::ZERO + SimDuration::from_micros(d)),
            ..v(seq, 0, 1, interactive)
        }
    }

    #[test]
    fn fifo_is_arrival_order_with_interactive_priority() {
        let q = [v(0, 0, 5, false), v(1, 1, 1, false), v(2, 2, 9, true)];
        let p = QueuePolicy::Fifo;
        assert_eq!(p.pick(&q, &|_| 0.0), Some(2), "interactive jumps ahead");
        let q2 = [v(0, 0, 5, false), v(1, 1, 1, false)];
        assert_eq!(p.pick(&q2, &|_| 0.0), Some(0));
        assert_eq!(p.pick(&[], &|_| 0.0), None);
    }

    #[test]
    fn sjf_prefers_cheapest_then_earliest() {
        let p = QueuePolicy::Sjf;
        let q = [v(0, 0, 9, false), v(1, 1, 2, false), v(2, 2, 2, false)];
        assert_eq!(
            p.pick(&q, &|_| 0.0),
            Some(1),
            "cost tie goes to earlier seq"
        );
    }

    #[test]
    fn edf_orders_by_deadline_within_class() {
        let p = QueuePolicy::Edf;
        // Tightest deadline wins, regardless of arrival order.
        let q = [
            vd(0, Some(90), false),
            vd(1, Some(10), false),
            vd(2, None, false),
        ];
        assert_eq!(p.pick(&q, &|_| 0.0), Some(1));
        // Best-effort jobs (no deadline) sort behind every deadline, FIFO
        // among themselves.
        let q2 = [vd(0, None, false), vd(1, None, false)];
        assert_eq!(p.pick(&q2, &|_| 0.0), Some(0));
        // Class still dominates: an interactive job outranks a tighter
        // batch deadline.
        let q3 = [vd(0, Some(1), false), vd(1, Some(500), true)];
        assert_eq!(p.pick(&q3, &|_| 0.0), Some(1));
        // Deadline tie → earlier submission.
        let q4 = [vd(5, Some(10), false), vd(3, Some(10), false)];
        assert_eq!(p.pick(&q4, &|_| 0.0), Some(1));
    }

    #[test]
    fn weighted_fair_picks_least_served_tenant() {
        let p = QueuePolicy::WeightedFair;
        let q = [v(0, 0, 5, false), v(1, 1, 5, false), v(2, 0, 5, false)];
        // Tenant 0 has been served 3× as much as tenant 1.
        let credit = |t: TenantId| if t.0 == 0 { 3.0 } else { 1.0 };
        assert_eq!(p.pick(&q, &credit), Some(1));
        // Equal credit: lower tenant id, FIFO within it.
        assert_eq!(p.pick(&q, &|_| 0.0), Some(0));
    }

    #[test]
    fn credit_key_is_monotone() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-12,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(credit_key(w[0]) <= credit_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_ne!(credit_key(-0.0), credit_key(0.0));
        assert!(credit_key(-0.0) < credit_key(0.0), "-0 sorts before +0");
    }

    /// The indexed queue must agree with the linear-scan `pick` on every
    /// policy, under interleaved pushes, mid-queue removals, and credit
    /// updates — the structural claim the whole PR rests on.
    #[test]
    fn indexed_queue_matches_linear_pick_under_churn() {
        use msort_data::Rng;
        for policy in [
            QueuePolicy::Fifo,
            QueuePolicy::Sjf,
            QueuePolicy::Edf,
            QueuePolicy::WeightedFair,
        ] {
            for seed in 0..4u64 {
                let mut rng = Rng::seed_from_u64(0xC0FF_EE00 ^ seed);
                let mut linear: Vec<QueueView> = Vec::new();
                let mut indexed: IndexedQueue<()> = IndexedQueue::new(policy);
                let mut credits: std::collections::HashMap<TenantId, f64> =
                    std::collections::HashMap::new();
                let mut seq = 0u64;
                for step in 0..600 {
                    match rng.below(10) {
                        // Push (weighted toward growth so the queue deepens).
                        0..=5 => {
                            let view = QueueView {
                                seq,
                                tenant: TenantId(rng.u32_in(0..4)),
                                cost: SimDuration::from_micros(rng.u64_in(1..50)),
                                interactive: rng.chance(0.3),
                                deadline: rng
                                    .chance(0.5)
                                    .then(|| SimTime(rng.u64_in(0..1_000_000))),
                            };
                            credits.entry(view.tenant).or_insert(0.0);
                            indexed.push(view, ());
                            linear.push(view);
                            seq += 1;
                        }
                        // Remove a random mid-queue entry (shed/timeout).
                        6..=7 if !linear.is_empty() => {
                            let i = rng.usize_in(0..linear.len());
                            let victim = linear.swap_remove(i);
                            assert!(indexed.remove(victim.seq).is_some());
                        }
                        // Charge a tenant (dispatch-side credit bump).
                        _ => {
                            let t = TenantId(rng.u32_in(0..4));
                            let c = credits.entry(t).or_insert(0.0);
                            *c += rng.f64() * 10.0;
                            indexed.set_credit(t, *c);
                        }
                    }
                    let want = policy
                        .pick(&linear, &|t| credits.get(&t).copied().unwrap_or(0.0))
                        .map(|i| linear[i].seq);
                    assert_eq!(
                        indexed.pick(),
                        want,
                        "policy {policy:?} seed {seed} step {step}"
                    );
                    assert_eq!(indexed.len(), linear.len());
                }
            }
        }
    }
}
