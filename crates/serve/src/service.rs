//! The sort service: admission, queueing, gang placement, and concurrent
//! execution of many sort jobs on one shared simulated clock.
//!
//! [`SortService::serve`] consumes any open-loop [`Workload`] — a trace
//! replay, a Poisson stream, a diurnal cycle, an MMPP burst source — and
//! drives every admitted job's [`SortDriver`] over a single [`GpuSystem`],
//! so co-scheduled jobs genuinely contend for links in the fluid-flow
//! engine (and reroute around injected faults together). Gang leases are
//! exclusive: a GPU serves one job at a time, and a job's device buffers
//! are freed the moment it completes.
//!
//! Scheduling is deliberately simple and fully deterministic:
//!
//! 1. admit every arrival whose timestamp is due, subject to the
//!    [`AdmissionPolicy`] (backpressure and SLO-aware shedding reject, they
//!    never block the clock);
//! 2. resize the active fleet under the [`FleetPolicy`] (elastic fleets
//!    lease GPUs in against queued demand and out after an idle window);
//! 3. dispatch head-of-line jobs chosen by the [`QueuePolicy`] onto gangs
//!    chosen by the [`PlacementPolicy`] while active GPUs and device
//!    memory allow;
//! 4. step every running job whose wait-set has drained;
//! 5. advance the shared clock to the next job-op completion, arrival, or
//!    elastic lease-release instant.
//!
//! That loop exists once, as [`Service`]. It owns the running set — a
//! plain list in dispatch order, which exclusive gang leases bound by the
//! fleet, so stepping and frontier collection simply scan it — and is
//! generic over the bookkeeping of everything that grows with offered
//! load: how the pending queue, the admission backlog and the fleet
//! tallies are *stored and queried*. [`SortService`] runs it over
//! [`Indexed`], built for million-job runs: an `IndexedQueue` (per-policy
//! heaps / an ordered tenant-credit index) answers "who runs next" in
//! O(log n), SLO admission reads an incrementally maintained backlog
//! gang-nanosecond counter, and the fleet tallies are maintained counts.
//! [`crate::ReferenceService`] runs the same loop over
//! [`crate::reference::Linear`], which answers every one of those
//! questions by rescanning, and a differential test proves both produce
//! bit-identical [`ServiceReport`]s. The bookkeeping trait is private to
//! the crate, so these two are the only implementations there can be.

use crate::cost::{device_footprint_keys, estimate_job_cost, estimate_queue_wait_ns};
use crate::job::{DeadlineClass, JobAlgo, SortJob, TenantId};
use crate::placement::PlacementPolicy;
use crate::queue::{IndexedQueue, QueuePolicy, QueueView};
use crate::report::{push_step, JobOutcome, RejectReason, RejectedJob, ServiceReport};
use crate::workload::Workload;
use msort_core::{Algorithm, DriverStep, RunConfig, SortDriver};
use msort_data::{generate_into, is_sorted, same_multiset, SortKey};
use msort_gpu::{Fidelity, GpuSystem, OpId};
use msort_sim::{GpuSortAlgo, SimDuration, SimTime};
use msort_topology::Platform;
use msort_trace::{groups, ArgValue, Recorder, TrackId};

/// What the service does with a feasible submission whose latency budget
/// is in doubt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything feasible; only queue backpressure refuses work.
    Permissive,
    /// Refuse jobs whose SLO cannot be met: a deadline no idle fleet could
    /// reach is rejected as unattainable, and a deadline the current
    /// backlog would blow is shed at the door — goodput over throughput
    /// under overload. Jobs without an SLO are always admitted.
    SloAware,
}

/// How the service sizes its active GPU fleet over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Every configured fleet GPU is active for the whole run.
    Fixed,
    /// Lease GPUs in and out against demand. The active set grows
    /// immediately to cover leased gangs plus queued gang sizes (an
    /// arriving burst never waits on a timer) and shrinks — never below
    /// `min_gpus`, never a leased GPU — once a GPU has sat idle for
    /// `idle_release` (hysteresis against thrashing on job boundaries).
    Elastic {
        /// Floor on the active set (0 allows scale-to-zero between
        /// bursts).
        min_gpus: usize,
        /// Idle time before an unleased GPU is released.
        idle_release: SimDuration,
    },
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queue (dispatch-order) policy.
    pub policy: QueuePolicy,
    /// Gang placement policy.
    pub placement: PlacementPolicy,
    /// Admission policy for feasible submissions.
    pub admission: AdmissionPolicy,
    /// Fleet-sizing policy.
    pub fleet_policy: FleetPolicy,
    /// Run-level settings shared by every job: fidelity, the fault
    /// schedule for the shared fabric, and the observability recorder.
    /// The algorithm part is ignored — each job picks its own.
    pub run: RunConfig,
    /// GPUs the service may lease (default: the whole platform). Under
    /// [`FleetPolicy::Elastic`] this is the *maximum* fleet.
    pub fleet: Option<Vec<usize>>,
    /// Maximum pending jobs before submissions are rejected.
    pub max_queue_depth: usize,
    /// Fair-share weights (tenants default to weight 1).
    pub tenant_weights: Vec<(TenantId, f64)>,
    /// Per-tenant latency SLOs: the default submit-to-finish budget for a
    /// tenant's jobs (a job's own [`SortJob::with_slo`] overrides it).
    pub tenant_slos: Vec<(TenantId, SimDuration)>,
}

impl ServeConfig {
    /// FIFO + topology-aware placement at full fidelity, permissive
    /// admission, fixed whole fleet, queue depth 1024, equal weights,
    /// pristine fabric.
    #[must_use]
    pub fn new() -> Self {
        Self {
            policy: QueuePolicy::Fifo,
            placement: PlacementPolicy::TopologyAware,
            admission: AdmissionPolicy::Permissive,
            fleet_policy: FleetPolicy::Fixed,
            run: RunConfig::new(),
            fleet: None,
            max_queue_depth: 1024,
            tenant_weights: Vec::new(),
            tenant_slos: Vec::new(),
        }
    }

    /// Select the queue policy.
    #[must_use]
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Select the placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Select the admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Lease GPUs elastically: scale up against demand, release after
    /// `idle_release` of idleness, never below `min_gpus`.
    #[must_use]
    pub fn elastic(mut self, min_gpus: usize, idle_release: SimDuration) -> Self {
        self.fleet_policy = FleetPolicy::Elastic {
            min_gpus,
            idle_release,
        };
        self
    }

    /// Use sampled fidelity with the given factor.
    #[must_use]
    pub fn sampled(mut self, scale: u64) -> Self {
        self.run.fidelity = Fidelity::Sampled { scale };
        self
    }

    /// Adopt `run` wholesale (fidelity, faults, recorder, seed). Any
    /// algorithm it names is ignored — each job picks its own.
    #[must_use]
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Attach a recorder (pass an enabled one to capture a trace).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.run.recorder = recorder;
        self
    }

    /// Restrict the service to the given GPUs.
    #[must_use]
    pub fn with_fleet(mut self, fleet: Vec<usize>) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Cap the pending queue (backpressure threshold).
    #[must_use]
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Give `tenant` fair-share weight `weight` (> 0).
    #[must_use]
    pub fn with_weight(mut self, tenant: TenantId, weight: f64) -> Self {
        assert!(weight > 0.0, "tenant weight must be positive");
        self.tenant_weights.push((tenant, weight));
        self
    }

    /// Give `tenant`'s jobs a default latency SLO (> 0): jobs without
    /// their own [`SortJob::with_slo`] inherit `submit + slo` as their
    /// deadline for EDF ordering, SLO-aware admission, and goodput.
    #[must_use]
    pub fn with_slo(mut self, tenant: TenantId, slo: SimDuration) -> Self {
        assert!(slo > SimDuration::ZERO, "tenant SLO must be positive");
        self.tenant_slos.push((tenant, slo));
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A queued job's payload. Its policy-visible fields travel beside it as
/// a [`QueueView`].
pub(crate) struct Pending {
    at: SimTime,
    pub(crate) job: SortJob,
}

/// A job holding a gang lease.
pub(crate) struct Running<K: SortKey> {
    seq: u64,
    tenant: TenantId,
    keys: u64,
    algorithm: &'static str,
    pub(crate) gang: Vec<usize>,
    submitted: SimTime,
    started: SimTime,
    deadline: Option<SimTime>,
    pub(crate) cost: SimDuration,
    input: Vec<K>,
    driver: Box<dyn SortDriver<K>>,
    /// Ops of the current phase the job is waiting on.
    wait: Vec<OpId>,
    /// Per-job trace track (dummy when the recorder is disabled).
    track: TrackId,
}

/// Upper bound on pooled input-generation buffers. Two per concurrently
/// running job covers the steady state (every finish returns two); the cap
/// only matters for pathological burst shapes.
const SCRATCH_POOL_CAP: usize = 32;

struct TenantEntry {
    id: TenantId,
    weight: f64,
    /// Σ (estimated cost ÷ weight) over dispatched jobs — the normalized
    /// service the fair-share policy equalizes.
    credit: f64,
}

/// Per-slot lease state of the fleet, one entry per fleet GPU in
/// ascending GPU order.
pub(crate) struct Fleet {
    pub(crate) gpus: Vec<usize>,
    pub(crate) leased: Vec<bool>,
    /// Which slots the service currently holds (always all-true under
    /// [`FleetPolicy::Fixed`]).
    pub(crate) active: Vec<bool>,
    /// When each slot last became idle (lease released or slot activated).
    idle_since: Vec<SimTime>,
}

impl Fleet {
    /// Collect the free (active, unleased) GPUs into `out`.
    pub(crate) fn collect_free(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.gpus
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.active[i] && !self.leased[i])
                .map(|(_, &gpu)| gpu),
        );
    }
}

/// The counts the elastic fleet policy steers by.
pub(crate) struct Tallies {
    /// #active slots.
    pub(crate) active: usize,
    /// #leased slots (leased slots are always active).
    pub(crate) leased: usize,
    /// Σ gang size over pending jobs.
    pub(crate) queued_gpus: usize,
}

/// What [`Service`] asks of its bookkeeping: the pending queue, the
/// admission backlog and the fleet tallies. Every decision stays in the
/// loop; an implementation only chooses how the answers are stored. The
/// trait is crate-private, which seals it: the two implementations in
/// this crate are the only ones there can be.
pub(crate) trait Bookkeeping: Sized {
    /// Names one queued job between [`Self::head`] and
    /// [`Self::dequeue`]; stale after any other queue mutation.
    type Ticket: Copy;

    /// Empty bookkeeping for a fleet with `active` slots held.
    fn new(policy: QueuePolicy, active: usize) -> Self;

    /// Number of pending jobs.
    fn queue_len(&self) -> usize;
    fn enqueue(&mut self, view: QueueView, pending: Pending);
    /// The job the queue policy dispatches next. `credit(t)` is tenant
    /// `t`'s charged work ÷ weight.
    fn head(&mut self, credit: &dyn Fn(TenantId) -> f64) -> Option<(Self::Ticket, &Pending)>;
    fn dequeue(&mut self, ticket: Self::Ticket) -> (QueueView, Pending);
    /// `tenant` was charged for a dispatch; its credit is now `credit`.
    fn charged(&mut self, _tenant: TenantId, _credit: f64) {}

    /// [`crate::estimate_queue_wait`] over every pending job and every
    /// job in `running`.
    fn queue_wait<K: SortKey>(&self, running: &[Running<K>], fleet_gpus: usize) -> SimDuration;
    /// A job of estimated `cost` on `gang` GPUs left the running set.
    fn left_running(&mut self, _cost: SimDuration, _gang: usize) {}

    fn tallies(&self, fleet: &Fleet) -> Tallies;
    /// Collect the free GPUs into `out`; `false` if there are fewer
    /// than `need` (`out` is then unspecified).
    fn free_gpus(&self, fleet: &Fleet, need: usize, out: &mut Vec<usize>) -> bool;
    /// The active set was resized to `active` slots.
    fn set_active(&mut self, _active: usize) {}
    /// `gpus` slots were just leased (or released).
    fn leases_changed(&mut self, _gpus: usize, _leased: bool) {}
}

/// The serve loop: a multi-tenant sort service over one platform and one
/// simulated clock, generic over its bookkeeping `B`. Use it through
/// [`SortService`] (or [`crate::ReferenceService`], the test oracle).
pub struct Service<'p, K: SortKey, B> {
    sys: GpuSystem<'p, K>,
    book: B,
    /// Jobs holding a gang lease, in dispatch order. Leases are exclusive,
    /// so the fleet size bounds the list.
    running: Vec<Running<K>>,
    recorder: Recorder,
    policy: QueuePolicy,
    placement: PlacementPolicy,
    admission: AdmissionPolicy,
    fleet_policy: FleetPolicy,
    fidelity: Fidelity,
    max_queue_depth: usize,
    fleet: Fleet,
    /// Reused buffer for the free-GPU list handed to placement.
    free_scratch: Vec<usize>,
    rr_cursor: usize,
    tenants: Vec<TenantEntry>,
    tenant_slos: Vec<(TenantId, SimDuration)>,
    /// Pooled input-generation buffers (see [`SCRATCH_POOL_CAP`]).
    scratch: Vec<Vec<K>>,
    next_seq: u64,
    outcomes: Vec<JobOutcome>,
    rejected: Vec<RejectedJob>,
    queue_depth: Vec<(SimTime, usize)>,
    fleet_log: Vec<(SimTime, usize)>,
    admission_track: TrackId,
    fleet_track: TrackId,
}

/// The service: [`Service`] over the [`Indexed`] bookkeeping.
pub type SortService<'p, K> = Service<'p, K, Indexed>;

// The private bound is the point: it seals `B` to this crate's two
// bookkeepings while `new` and `serve` stay callable from outside.
#[allow(private_bounds)]
impl<'p, K: SortKey, B: Bookkeeping> Service<'p, K, B> {
    /// Create a service over `platform`.
    ///
    /// # Panics
    /// Panics if the configured fleet names a GPU the platform lacks,
    /// contains duplicates, or is smaller than an elastic `min_gpus`.
    #[must_use]
    pub fn new(platform: &'p Platform, config: ServeConfig) -> Self {
        let mut sys = config.run.build_system(platform);
        // The serve loop never reads per-op history, so completed ops are
        // reclaimed as the clock drains them.
        sys.set_op_reclaim(true);
        let mut gpus = config
            .fleet
            .unwrap_or_else(|| (0..platform.topology.gpu_count()).collect());
        gpus.sort_unstable();
        let before = gpus.len();
        gpus.dedup();
        assert_eq!(before, gpus.len(), "fleet must not repeat GPUs");
        for &g in &gpus {
            assert!(
                g < platform.topology.gpu_count(),
                "fleet GPU {g} does not exist on {}",
                platform.id.name()
            );
        }
        let mut tenants: Vec<TenantEntry> = config
            .tenant_weights
            .iter()
            .map(|&(id, weight)| TenantEntry {
                id,
                weight,
                credit: 0.0,
            })
            .collect();
        tenants.sort_by_key(|t| t.id);
        let mut tenant_slos = config.tenant_slos;
        tenant_slos.sort_by_key(|&(t, _)| t);
        let active = match config.fleet_policy {
            FleetPolicy::Fixed => vec![true; gpus.len()],
            FleetPolicy::Elastic { min_gpus, .. } => {
                assert!(
                    min_gpus <= gpus.len(),
                    "elastic min_gpus {min_gpus} exceeds the {}-GPU fleet",
                    gpus.len()
                );
                (0..gpus.len()).map(|i| i < min_gpus).collect()
            }
        };
        let recorder = config.run.recorder;
        let (admission_track, fleet_track) = if recorder.is_enabled() {
            (
                recorder.track(groups::SERVICE, "admission"),
                recorder.track(groups::SERVICE, "fleet"),
            )
        } else {
            (TrackId(u32::MAX), TrackId(u32::MAX))
        };
        let initial = active.iter().filter(|&&a| a).count();
        Self {
            book: B::new(config.policy, initial),
            sys,
            running: Vec::new(),
            recorder,
            policy: config.policy,
            placement: config.placement,
            admission: config.admission,
            fleet_policy: config.fleet_policy,
            fidelity: config.run.fidelity,
            max_queue_depth: config.max_queue_depth,
            fleet: Fleet {
                idle_since: vec![SimTime::ZERO; gpus.len()],
                leased: vec![false; gpus.len()],
                active,
                gpus,
            },
            free_scratch: Vec::new(),
            rr_cursor: 0,
            tenants,
            tenant_slos,
            scratch: Vec::new(),
            next_seq: 0,
            outcomes: Vec::new(),
            rejected: Vec::new(),
            queue_depth: Vec::new(),
            fleet_log: vec![(SimTime::ZERO, initial)],
            admission_track,
            fleet_track,
        }
    }

    /// Drive `workload` to exhaustion and report. Arrivals are pulled
    /// lazily — the source may be generated on the fly — and each job's
    /// input is materialized from its seed only at submission, so an
    /// open-loop run never holds the whole stream in memory. Each output
    /// is validated as a sorted permutation of its generated input.
    ///
    /// Unbounded generators must be bounded (a job budget or
    /// [`crate::OpenLoop::until`] horizon) or the run never terminates.
    #[must_use]
    pub fn serve<W: Workload>(mut self, mut workload: W) -> ServiceReport {
        let mut next = workload.next_arrival();
        loop {
            let now = self.sys.now();
            while next.as_ref().is_some_and(|&(t, _)| t <= now) {
                let (at, job) = next.take().expect("checked is_some above");
                self.submit(at, job);
                next = workload.next_arrival();
            }
            // Resize, dispatch, and step to a fixpoint: a finished job
            // frees its gang (and may let the fleet shrink), a resized
            // fleet may let the next head-of-line job dispatch, all within
            // the same instant.
            loop {
                let resized = self.elastic_adjust();
                let dispatched = self.try_dispatch();
                let stepped = self.step_ready();
                if !resized && !dispatched && !stepped {
                    break;
                }
            }
            if cfg!(debug_assertions) {
                self.check_conservation();
            }
            if self.running.is_empty() && self.book.queue_len() == 0 && next.is_none() {
                break;
            }
            // The running set is bounded by the fleet (gang leases are
            // exclusive), so collecting the undone frontier is O(fleet),
            // not O(offered jobs). Completed waits must be filtered here:
            // `run_until` returns immediately on an already-done op.
            let frontier: Vec<OpId> = self
                .running
                .iter()
                .flat_map(|r| r.wait.iter().copied())
                .filter(|&o| !self.sys.op_done(o))
                .collect();
            let mut deadline = next.as_ref().map(|&(t, _)| t);
            if let Some(release) = self.next_release_time() {
                deadline = Some(deadline.map_or(release, |d| d.min(release)));
            }
            assert!(
                !frontier.is_empty() || deadline.is_some(),
                "sort service stalled: {} queued jobs but nothing runnable",
                self.book.queue_len()
            );
            self.sys.run_until(&frontier, deadline);
        }
        debug_assert!(
            {
                let t = self.book.tallies(&self.fleet);
                t.queued_gpus == 0 && t.leased == 0 && !self.fleet.leased.contains(&true)
            },
            "gangs still queued or slots still leased"
        );
        debug_assert_eq!(
            self.book.queue_wait(&self.running, 1),
            SimDuration::ZERO,
            "backlog gang-ns left behind"
        );
        self.into_report()
    }

    /// Job and GPU conservation, checked at every fixpoint of the loop in
    /// debug builds: every offered job is in exactly one place, the
    /// tallies agree with the lease flags and the running set, and every
    /// unleased GPU has all its device memory back.
    fn check_conservation(&self) {
        assert_eq!(
            self.next_seq as usize,
            self.outcomes.len() + self.rejected.len() + self.book.queue_len() + self.running.len(),
            "offered = completed + rejected + queued + running"
        );
        let t = self.book.tallies(&self.fleet);
        assert!(
            t.leased <= t.active && t.active <= self.fleet.gpus.len(),
            "leased {} <= active {} <= fleet {}",
            t.leased,
            t.active,
            self.fleet.gpus.len()
        );
        let gangs: usize = self.running.iter().map(|r| r.gang.len()).sum();
        assert_eq!(t.leased, gangs, "leased slots = running gangs");
        let world = self.sys.world();
        let topo = &self.sys.platform().topology;
        for (i, &gpu) in self.fleet.gpus.iter().enumerate() {
            if !self.fleet.leased[i] {
                assert_eq!(
                    world.gpu_free_bytes(gpu),
                    topo.gpu_memory_bytes(gpu),
                    "unleased GPU {gpu} still holds device memory"
                );
            }
        }
    }

    fn tenant_index(&mut self, id: TenantId) -> usize {
        match self.tenants.binary_search_by_key(&id, |t| t.id) {
            Ok(i) => i,
            Err(i) => {
                self.tenants.insert(
                    i,
                    TenantEntry {
                        id,
                        weight: 1.0,
                        credit: 0.0,
                    },
                );
                i
            }
        }
    }

    /// The job's effective latency budget: its own SLO, else its tenant's.
    fn effective_slo(&self, job: &SortJob) -> Option<SimDuration> {
        job.slo.or_else(|| {
            self.tenant_slos
                .binary_search_by_key(&job.tenant, |&(t, _)| t)
                .ok()
                .map(|i| self.tenant_slos[i].1)
        })
    }

    /// Why `job` can never run on this service, if it can't.
    fn infeasible(&self, job: &SortJob) -> Option<String> {
        let g = job.gpus;
        let scale = self.fidelity.scale();
        if job.keys == 0 {
            return Some("zero keys".into());
        }
        if g == 0 {
            return Some("zero GPUs".into());
        }
        if g > self.fleet.gpus.len() {
            return Some(format!(
                "gang of {g} exceeds the {}-GPU fleet",
                self.fleet.gpus.len()
            ));
        }
        if job.algo == JobAlgo::P2p && !g.is_power_of_two() {
            return Some(format!("P2P sort needs a power-of-two gang, got {g}"));
        }
        if !job.keys.is_multiple_of(g as u64 * scale) {
            return Some(format!(
                "{} keys do not divide into {g} chunks of whole samples (scale {scale})",
                job.keys
            ));
        }
        let need = device_footprint_keys(job, scale) * K::DATA_TYPE.key_bytes();
        let min_mem = self
            .fleet
            .gpus
            .iter()
            .map(|&i| self.sys.platform().topology.gpu_memory_bytes(i))
            .min()
            .expect("fleet is non-empty");
        if need > min_mem {
            return Some(format!(
                "footprint of {need} B/GPU exceeds device memory of {min_mem} B"
            ));
        }
        None
    }

    fn reject(&mut self, seq: u64, tenant: TenantId, at: SimTime, reason: RejectReason) {
        if self.recorder.is_enabled() {
            let name = match &reason {
                RejectReason::QueueFull => "reject-queue-full",
                RejectReason::Infeasible(_) => "reject-infeasible",
                RejectReason::SloUnattainable(_) => "reject-slo-unattainable",
                RejectReason::Shed(_) => "shed",
            };
            self.recorder.instant_args(
                self.admission_track,
                name,
                "admission",
                at.0,
                vec![
                    ("tenant".to_string(), ArgValue::Str(tenant.to_string())),
                    ("seq".to_string(), ArgValue::U64(seq)),
                ],
            );
        }
        self.rejected.push(RejectedJob {
            seq,
            tenant,
            at,
            reason,
        });
    }

    fn submit(&mut self, at: SimTime, job: SortJob) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tenant_index(job.tenant);
        if let Some(why) = self.infeasible(&job) {
            self.reject(seq, job.tenant, at, RejectReason::Infeasible(why));
            return;
        }
        if self.book.queue_len() >= self.max_queue_depth {
            self.reject(seq, job.tenant, at, RejectReason::QueueFull);
            return;
        }
        let cost = estimate_job_cost(self.sys.platform(), &job, K::DATA_TYPE);
        let slo = self.effective_slo(&job);
        let deadline = slo.map(|s| at + s);
        if self.admission == AdmissionPolicy::SloAware {
            if let (Some(slo), Some(deadline)) = (slo, deadline) {
                if cost > slo {
                    self.reject(
                        seq,
                        job.tenant,
                        at,
                        RejectReason::SloUnattainable(format!(
                            "solo service time {cost} exceeds the {slo} SLO"
                        )),
                    );
                    return;
                }
                // Predicted completion = now + optimistic queue wait +
                // solo cost, with the wait bounded by work conservation
                // over the *maximum* fleet (an elastic fleet scales up
                // before the backlog drains, so admission assumes it
                // will). Optimism sheds conservatively: a shed job truly
                // had no chance.
                let wait = self.book.queue_wait(&self.running, self.fleet.gpus.len());
                if self.sys.now() + wait + cost > deadline {
                    self.reject(
                        seq,
                        job.tenant,
                        at,
                        RejectReason::Shed(format!(
                            "predicted wait {wait} + service {cost} blows the {slo} SLO"
                        )),
                    );
                    return;
                }
            }
        }
        let view = QueueView {
            seq,
            tenant: job.tenant,
            cost,
            interactive: job.deadline == DeadlineClass::Interactive,
            deadline,
        };
        self.book.enqueue(view, Pending { at, job });
        push_step(&mut self.queue_depth, self.sys.now(), self.book.queue_len());
    }

    /// Demand-driven active-set target for an elastic fleet: enough GPUs
    /// for every leased gang plus every queued gang, clamped to
    /// `[min_gpus, fleet]`.
    fn fleet_target(&self, t: &Tallies, min_gpus: usize) -> usize {
        (t.leased + t.queued_gpus).clamp(min_gpus, self.fleet.gpus.len())
    }

    /// One elastic resize pass. Returns `true` if the active set changed.
    fn elastic_adjust(&mut self) -> bool {
        let FleetPolicy::Elastic {
            min_gpus,
            idle_release,
        } = self.fleet_policy
        else {
            return false;
        };
        let now = self.sys.now();
        let t = self.book.tallies(&self.fleet);
        let target = self.fleet_target(&t, min_gpus);
        let fleet = &mut self.fleet;
        let mut count = t.active;
        // Scale up immediately — a burst must not queue behind a timer.
        // Lowest slot first, mirrored by highest-first release below, so
        // the fleet grows and shrinks from opposite ends deterministically.
        for i in 0..fleet.active.len() {
            if count >= target {
                break;
            }
            if !fleet.active[i] {
                fleet.active[i] = true;
                fleet.idle_since[i] = now;
                count += 1;
            }
        }
        for i in (0..fleet.active.len()).rev() {
            if count <= target {
                break;
            }
            if fleet.active[i] && !fleet.leased[i] && now.since(fleet.idle_since[i]) >= idle_release
            {
                fleet.active[i] = false;
                count -= 1;
            }
        }
        if count == t.active {
            return false;
        }
        self.book.set_active(count);
        push_step(&mut self.fleet_log, now, count);
        true
    }

    /// The earliest instant an idle GPU becomes releasable, if the fleet
    /// is elastic and above target — a clock deadline, so releases happen
    /// at their exact hysteresis expiry rather than the next op edge.
    fn next_release_time(&self) -> Option<SimTime> {
        let FleetPolicy::Elastic {
            min_gpus,
            idle_release,
        } = self.fleet_policy
        else {
            return None;
        };
        let t = self.book.tallies(&self.fleet);
        if t.active <= self.fleet_target(&t, min_gpus) {
            return None;
        }
        let fleet = &self.fleet;
        (0..fleet.gpus.len())
            .filter(|&i| fleet.active[i] && !fleet.leased[i])
            .map(|i| fleet.idle_since[i] + idle_release)
            .min()
    }

    fn set_leased(&mut self, gang: &[usize], leased: bool) {
        let now = self.sys.now();
        for &g in gang {
            let i = self
                .fleet
                .gpus
                .binary_search(&g)
                .expect("gang GPUs come from the fleet");
            debug_assert_ne!(self.fleet.leased[i], leased, "lease transitions are exact");
            self.fleet.leased[i] = leased;
            if !leased {
                self.fleet.idle_since[i] = now;
            }
        }
        self.book.leases_changed(gang.len(), leased);
    }

    /// Dispatch head-of-line jobs while the policy's next pick is
    /// placeable. Returns `true` if anything was dispatched.
    fn try_dispatch(&mut self) -> bool {
        let mut any = false;
        loop {
            let tenants = &self.tenants;
            let credit = |t: TenantId| -> f64 {
                tenants
                    .binary_search_by_key(&t, |e| e.id)
                    .map_or(0.0, |i| tenants[i].credit)
            };
            let Some((ticket, pending)) = self.book.head(&credit) else {
                break;
            };
            let g = pending.job.gpus;
            let need = device_footprint_keys(&pending.job, self.fidelity.scale())
                * K::DATA_TYPE.key_bytes();
            let mut free = std::mem::take(&mut self.free_scratch);
            let mut cursor = self.rr_cursor;
            let placed = if self.book.free_gpus(&self.fleet, g, &mut free) {
                self.placement.place(
                    self.sys.platform(),
                    self.sys.constraint_table(),
                    &free,
                    g,
                    &mut cursor,
                )
            } else {
                None
            };
            self.free_scratch = free;
            let Some(gang) = placed else {
                break;
            };
            if gang
                .iter()
                .any(|&d| self.sys.world().gpu_free_bytes(d) < need)
            {
                break;
            }
            self.rr_cursor = cursor;
            let (view, pending) = self.book.dequeue(ticket);
            push_step(&mut self.queue_depth, self.sys.now(), self.book.queue_len());
            let ti = self.tenant_index(view.tenant);
            self.tenants[ti].credit += view.cost.as_secs_f64() / self.tenants[ti].weight;
            // The tenant table stays authoritative; bookkeeping that keeps
            // its own credit order follows it.
            let credit = self.tenants[ti].credit;
            self.book.charged(view.tenant, credit);
            self.dispatch(view, pending, gang);
            any = true;
        }
        any
    }

    /// Lease `gang` to `job`, build its driver, and step it once (which
    /// enqueues its first phase).
    fn dispatch(&mut self, view: QueueView, pending: Pending, gang: Vec<usize>) {
        let seq = view.seq;
        let Pending { at, job } = pending;
        let scale = self.fidelity.scale();
        let phys = (job.keys / scale) as usize;
        // Inputs are generated into pooled buffers: the driver consumes
        // `data` and `input` rides along for end-of-job validation, and
        // both come back to the pool in `finish`, so a million-job run
        // reuses a handful of allocations instead of making two per job.
        let mut data = self.scratch.pop().unwrap_or_default();
        generate_into(job.dist, phys, job.seed, &mut data);
        let mut input = self.scratch.pop().unwrap_or_default();
        input.clear();
        input.extend_from_slice(&data);
        self.set_leased(&gang, true);
        let driver = Algorithm::placed(job.algo, gang.clone(), GpuSortAlgo::ThrustLike, 0).driver(
            &mut self.sys,
            data,
            job.keys,
        );
        let started = self.sys.now();
        let track = if self.recorder.is_enabled() {
            let track = self.recorder.track(
                &groups::tenant(job.tenant.0),
                &format!("job {seq} ({})", job.algo.name()),
            );
            self.recorder.span(track, "queued", "job", at.0, started.0);
            self.recorder.instant_args(
                track,
                "placed",
                "job",
                started.0,
                vec![("gang".to_string(), ArgValue::Str(format!("{gang:?}")))],
            );
            track
        } else {
            TrackId(u32::MAX)
        };
        self.running.push(Running {
            seq,
            tenant: job.tenant,
            keys: job.keys,
            algorithm: job.algo.name(),
            gang,
            submitted: at,
            started,
            deadline: view.deadline,
            cost: view.cost,
            input,
            driver,
            wait: Vec::new(),
            track,
        });
        self.step_job(self.running.len() - 1);
    }

    /// Step `running[i]`: park it on its next wait set, or finish it and
    /// take it off the list. Returns `true` while the job is still running.
    fn step_job(&mut self, i: usize) -> bool {
        match self.running[i].driver.step(&mut self.sys) {
            DriverStep::Wait(ops) => {
                self.running[i].wait = ops;
                true
            }
            DriverStep::Done => {
                let r = self.running.remove(i);
                self.book.left_running(r.cost, r.gang.len());
                self.finish(r);
                false
            }
        }
    }

    /// Step every running job whose wait set has drained, in dispatch
    /// order. One sweep per call: a job that parks on an already-complete
    /// wait set is caught by the next call. Returns `true` if any job
    /// advanced.
    fn step_ready(&mut self) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < self.running.len() {
            let sys = &self.sys;
            self.running[i].wait.retain(|&o| !sys.op_done(o));
            if self.running[i].wait.is_empty() {
                progressed = true;
                if !self.step_job(i) {
                    // `running[i]` is now the next job.
                    continue;
                }
            }
            i += 1;
        }
        progressed
    }

    /// Validate, release, and record a completed job.
    fn finish(&mut self, mut r: Running<K>) {
        let output = r.driver.take_output();
        let validated =
            r.driver.validated() && is_sorted(&output) && same_multiset(&r.input, &output);
        r.driver.release(&mut self.sys);
        self.set_leased(&r.gang, false);
        if self.recorder.is_enabled() {
            let end = self.sys.now();
            // "job" (submitted → finished) encloses "queued" and
            // "executing" on the same track, so the span tree nests.
            self.recorder
                .span(r.track, "job", "job", r.submitted.0, end.0);
            self.recorder
                .span(r.track, "executing", "job", r.started.0, end.0);
            if validated {
                self.recorder.instant(r.track, "validated", "job", end.0);
            }
        }
        self.outcomes.push(JobOutcome {
            seq: r.seq,
            tenant: r.tenant,
            keys: r.keys,
            algorithm: r.algorithm,
            gpus: r.gang,
            submitted: r.submitted,
            started: r.started,
            finished: self.sys.now(),
            deadline: r.deadline,
            validated,
        });
        self.recycle(output);
        self.recycle(r.input);
    }

    /// Return a key buffer to the input-generation scratch pool. The pool
    /// is capped so an idle service doesn't pin gang-sized allocations.
    fn recycle(&mut self, buf: Vec<K>) {
        if self.scratch.len() < SCRATCH_POOL_CAP && buf.capacity() > 0 {
            self.scratch.push(buf);
        }
    }

    fn into_report(self) -> ServiceReport {
        // Counter samples are emitted from the deduplicated fleet log (one
        // per recorded change), so the trace mirrors the report exactly.
        if self.recorder.is_enabled() {
            for &(at, n) in &self.fleet_log {
                self.recorder
                    .counter(self.fleet_track, "active_gpus", at.0, n as f64);
            }
        }
        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        ServiceReport {
            platform: self.sys.platform().id.name().to_string(),
            policy: self.policy,
            placement: self.placement,
            outcomes: self.outcomes,
            rejected: self.rejected,
            queue_depth: self.queue_depth,
            fleet_size: self.fleet_log,
            makespan,
            weights: self.tenants.iter().map(|t| (t.id, t.weight)).collect(),
        }
    }
}

/// Incrementally maintained bookkeeping: every question [`Service`] asks
/// is answered from an index or a counter.
pub struct Indexed {
    /// The indexed pending queue: O(log n) pick under every policy.
    queue: IndexedQueue<Pending>,
    /// Σ gang size over pending jobs (the elastic fleet-target demand).
    queued_gpus: usize,
    /// Σ estimated cost × gang size over pending **and** running jobs, in
    /// gang-nanoseconds: added at enqueue, subtracted when the job leaves
    /// the running set — exact integers, so bit-identical to a fresh sum.
    backlog_gang_ns: u128,
    active_count: usize,
    leased_count: usize,
}

impl Bookkeeping for Indexed {
    type Ticket = u64;

    fn new(policy: QueuePolicy, active: usize) -> Self {
        Self {
            queue: IndexedQueue::new(policy),
            queued_gpus: 0,
            backlog_gang_ns: 0,
            active_count: active,
            leased_count: 0,
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn enqueue(&mut self, view: QueueView, pending: Pending) {
        self.backlog_gang_ns += u128::from(view.cost.0) * pending.job.gpus as u128;
        self.queued_gpus += pending.job.gpus;
        self.queue.push(view, pending);
    }

    fn head(&mut self, _credit: &dyn Fn(TenantId) -> f64) -> Option<(u64, &Pending)> {
        let seq = self.queue.pick()?;
        let (_, pending) = self.queue.get(seq).expect("picked entry is live");
        Some((seq, pending))
    }

    fn dequeue(&mut self, seq: u64) -> (QueueView, Pending) {
        let (view, pending) = self.queue.remove(seq).expect("picked entry is live");
        self.queued_gpus -= pending.job.gpus;
        (view, pending)
    }

    fn charged(&mut self, tenant: TenantId, credit: f64) {
        self.queue.set_credit(tenant, credit);
    }

    fn queue_wait<K: SortKey>(&self, _running: &[Running<K>], fleet_gpus: usize) -> SimDuration {
        estimate_queue_wait_ns(self.backlog_gang_ns, fleet_gpus)
    }

    fn left_running(&mut self, cost: SimDuration, gang: usize) {
        self.backlog_gang_ns -= u128::from(cost.0) * gang as u128;
    }

    fn tallies(&self, _fleet: &Fleet) -> Tallies {
        Tallies {
            active: self.active_count,
            leased: self.leased_count,
            queued_gpus: self.queued_gpus,
        }
    }

    /// When the counts can't cover the gang (the overload steady state)
    /// the attempt bails in O(1), without collecting the free set.
    fn free_gpus(&self, fleet: &Fleet, need: usize, out: &mut Vec<usize>) -> bool {
        if self.active_count - self.leased_count < need {
            return false;
        }
        fleet.collect_free(out);
        true
    }

    fn set_active(&mut self, active: usize) {
        self.active_count = active;
    }

    fn leases_changed(&mut self, gpus: usize, leased: bool) {
        if leased {
            self.leased_count += gpus;
        } else {
            self.leased_count -= gpus;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TraceWorkload;
    use msort_data::Distribution;

    fn job(tenant: u32, keys: u64) -> SortJob {
        SortJob::new(TenantId(tenant), keys)
    }

    fn trace(arrivals: Vec<(SimTime, SortJob)>) -> TraceWorkload {
        TraceWorkload::new(arrivals)
    }

    #[test]
    fn single_job_completes_and_validates() {
        let p = Platform::ibm_ac922();
        let svc = SortService::<u32>::new(&p, ServeConfig::new());
        let report = svc.serve(trace(vec![(SimTime::ZERO, job(0, 1 << 12))]));
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.all_validated());
        assert!(report.makespan > SimTime::ZERO);
        assert_eq!(report.outcomes[0].gpus, vec![0, 1]);
        assert!(report.outcomes[0].latency() >= report.outcomes[0].service_time());
        assert_eq!(
            report.fleet_size,
            vec![(SimTime::ZERO, p.topology.gpu_count())]
        );
    }

    #[test]
    fn every_algorithm_runs_under_the_service() {
        let p = Platform::dgx_a100();
        for algo in JobAlgo::all() {
            let svc = SortService::<u64>::new(&p, ServeConfig::new());
            let report = svc.serve(trace(vec![(
                SimTime::ZERO,
                job(0, 1 << 12)
                    .with_algo(algo)
                    .with_dist(Distribution::ReverseSorted),
            )]));
            assert_eq!(report.outcomes.len(), 1, "{algo:?}");
            assert!(report.all_validated(), "{algo:?}");
            assert_eq!(report.outcomes[0].algorithm, algo.name());
        }
    }

    #[test]
    fn infeasible_jobs_are_rejected_not_wedged() {
        let p = Platform::ibm_ac922();
        let svc = SortService::<u32>::new(&p, ServeConfig::new());
        let report = svc.serve(trace(vec![
            (SimTime::ZERO, job(0, 1 << 12).with_gpus(3)), // non-pow2 P2P
            (SimTime::ZERO, job(1, 1 << 12).with_gpus(8)), // bigger than fleet
            (SimTime::ZERO, job(2, 0)),                    // empty
            (SimTime::ZERO, job(3, 1 << 12)),              // fine
        ]));
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.rejected.len(), 3);
        assert!(report
            .rejected
            .iter()
            .all(|r| matches!(r.reason, RejectReason::Infeasible(_))));
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let p = Platform::ibm_ac922();
        let svc = SortService::<u32>::new(
            &p,
            ServeConfig::new()
                .with_max_queue_depth(1)
                .with_fleet(vec![0, 1]),
        );
        // One job runs, the next waits in the depth-1 queue, and the third
        // arrival finds the queue full and bounces.
        let report = svc.serve(trace(vec![
            (SimTime::ZERO, job(0, 1 << 12)),
            (SimTime(1), job(1, 1 << 12)),
            (SimTime(2), job(2, 1 << 12)),
        ]));
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].reason, RejectReason::QueueFull);
        assert_eq!(report.rejected[0].tenant, TenantId(2));
    }

    #[test]
    fn concurrent_jobs_share_the_clock_and_contend() {
        // Two 2-GPU jobs on a 4-GPU fleet run concurrently: both start at
        // t=0 and each finishes later than it would alone.
        let p = Platform::dgx_a100();
        let solo = SortService::<u32>::new(&p, ServeConfig::new().with_fleet(vec![0, 1, 2, 3]))
            .serve(trace(vec![(SimTime::ZERO, job(0, 1 << 14))]));
        let duo = SortService::<u32>::new(&p, ServeConfig::new().with_fleet(vec![0, 1, 2, 3]))
            .serve(trace(vec![
                (SimTime::ZERO, job(0, 1 << 14)),
                (SimTime::ZERO, job(1, 1 << 14).with_seed(7)),
            ]));
        assert_eq!(duo.outcomes.len(), 2);
        assert!(duo.all_validated());
        assert_eq!(duo.outcomes[0].started, SimTime::ZERO);
        assert_eq!(duo.outcomes[1].started, SimTime::ZERO, "both run at once");
        let gangs: Vec<_> = duo.outcomes.iter().map(|o| o.gpus.clone()).collect();
        assert_ne!(gangs[0], gangs[1], "gang leases are exclusive");
        let solo_latency = solo.outcomes[0].latency();
        assert!(
            duo.outcomes.iter().all(|o| o.latency() >= solo_latency),
            "contention must not make a job faster than solo"
        );
    }

    #[test]
    fn interactive_jobs_jump_the_batch_queue() {
        let p = Platform::ibm_ac922();
        let svc = SortService::<u32>::new(&p, ServeConfig::new().with_fleet(vec![0, 1]));
        // One running job, then two queued: the interactive one (submitted
        // last) must start before the batch one.
        let report = svc.serve(trace(vec![
            (SimTime::ZERO, job(0, 1 << 12)),
            (SimTime(1), job(1, 1 << 12)),
            (SimTime(2), job(2, 1 << 12).interactive()),
        ]));
        assert_eq!(report.outcomes.len(), 3);
        let started = |t: u32| {
            report
                .outcomes
                .iter()
                .find(|o| o.tenant == TenantId(t))
                .unwrap()
                .started
        };
        assert!(started(2) < started(1), "interactive dispatches first");
    }

    #[test]
    fn slo_admission_rejects_unattainable_and_sheds() {
        let p = Platform::ibm_ac922();
        let solo = estimate_job_cost(&p, &job(0, 1 << 12), msort_data::DataType::U32);
        let slo = SimDuration::from_secs_f64(solo.as_secs_f64() * 2.5);
        let cfg = ServeConfig::new()
            .with_fleet(vec![0, 1])
            .with_admission(AdmissionPolicy::SloAware);
        let report = SortService::<u32>::new(&p, cfg).serve(trace(vec![
            // Impossible even on an idle fleet.
            (SimTime::ZERO, job(0, 1 << 12).with_slo(SimDuration(1))),
            // Admitted: starts immediately.
            (SimTime::ZERO, job(1, 1 << 12).with_slo(slo)),
            // Admitted: predicted wait ≈ 1 solo cost keeps it in budget.
            (SimTime::ZERO, job(2, 1 << 12).with_slo(slo)),
            // Shed: two jobs of backlog blow the 2.5× budget.
            (SimTime::ZERO, job(3, 1 << 12).with_slo(slo)),
            // No SLO: SLO-aware admission leaves best-effort work alone.
            (SimTime::ZERO, job(4, 1 << 12)),
        ]));
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.rejected.len(), 2);
        assert!(matches!(
            report.rejected[0].reason,
            RejectReason::SloUnattainable(_)
        ));
        assert!(matches!(report.rejected[1].reason, RejectReason::Shed(_)));
        assert_eq!(report.shed_jobs(), 2);
        // Deadline plumbing: admitted SLO jobs carry submit + slo, the
        // best-effort job carries none (and so always counts as goodput).
        for o in &report.outcomes {
            match o.tenant {
                TenantId(4) => assert_eq!(o.deadline, None),
                _ => assert_eq!(o.deadline, Some(SimTime::ZERO + slo)),
            }
        }
        // (Whether the admitted jobs *actually* met the budget is a cost-
        // model calibration question — at tiny sizes the solo estimate
        // undershoots the simulated latency — so admission behavior, not
        // attainment, is what this test pins.)
    }

    #[test]
    fn tenant_slo_applies_when_the_job_has_none() {
        let p = Platform::ibm_ac922();
        let cfg = ServeConfig::new()
            .with_fleet(vec![0, 1])
            .with_slo(TenantId(7), SimDuration(1))
            .with_admission(AdmissionPolicy::SloAware);
        let report = SortService::<u32>::new(&p, cfg).serve(trace(vec![
            (SimTime::ZERO, job(7, 1 << 12)),
            (SimTime::ZERO, job(8, 1 << 12)),
        ]));
        // Tenant 7 inherits the impossible 1 ns SLO; tenant 8 has none.
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].tenant, TenantId(8));
        assert_eq!(report.outcomes[0].deadline, None);
        assert!(matches!(
            report.rejected[0].reason,
            RejectReason::SloUnattainable(_)
        ));
    }

    #[test]
    fn elastic_fleet_scales_up_then_releases_idle_gpus() {
        let p = Platform::dgx_a100();
        let idle_release = SimDuration::from_millis(1);
        let cfg = ServeConfig::new().elastic(2, idle_release);
        // A t=0 burst of three 2-GPU jobs, then a lone straggler long
        // after the burst drains and the hysteresis window expires.
        let report = SortService::<u32>::new(&p, cfg).serve(trace(vec![
            (SimTime::ZERO, job(0, 1 << 12)),
            (SimTime::ZERO, job(1, 1 << 12).with_seed(2)),
            (SimTime::ZERO, job(2, 1 << 12).with_seed(3)),
            (
                SimTime::ZERO + SimDuration::from_secs_f64(1.0),
                job(3, 1 << 12).with_seed(4),
            ),
        ]));
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.all_validated());
        let sizes: Vec<usize> = report.fleet_size.iter().map(|&(_, n)| n).collect();
        // The min_gpus floor entry and the burst's same-instant scale-up
        // collapse into one deduplicated sample: the fleet held 2 GPUs for
        // zero simulated time before the t=0 burst leased it up to 6.
        assert_eq!(sizes[0], 6, "burst demand leases the fleet up to 3 gangs");
        assert_eq!(
            *sizes.last().unwrap(),
            2,
            "idle GPUs are released back to min_gpus"
        );
        assert!(
            report.fleet_size.windows(2).all(|w| w[0].1 != w[1].1),
            "the deduplicated timeline never repeats a value"
        );
        // The burst ran concurrently (scale-up worked), and the release
        // happened at the hysteresis expiry, not a job edge.
        let burst_starts: Vec<SimTime> = report
            .outcomes
            .iter()
            .filter(|o| o.submitted == SimTime::ZERO)
            .map(|o| o.started)
            .collect();
        assert!(
            burst_starts.iter().all(|&s| s == SimTime::ZERO),
            "every burst job starts immediately on a scaled-up fleet"
        );
        let mean = report.mean_fleet_size();
        assert!(
            mean > 2.0 && mean < 6.0,
            "time-weighted mean fleet {mean} sits between floor and peak"
        );
    }

    #[test]
    fn elastic_never_releases_leased_gpus() {
        let p = Platform::ibm_ac922();
        // Zero-hysteresis elastic fleet: eligible GPUs release instantly,
        // so any correctness slip would release a leased one mid-job.
        let cfg = ServeConfig::new()
            .with_fleet(vec![0, 1, 2, 3])
            .elastic(0, SimDuration::ZERO);
        let report = SortService::<u32>::new(&p, cfg).serve(trace(vec![
            (SimTime::ZERO, job(0, 1 << 12)),
            (SimTime(1_000), job(1, 1 << 12).with_seed(5)),
        ]));
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.all_validated());
        assert_eq!(
            report.fleet_size.last().map(|&(_, n)| n),
            Some(0),
            "scale-to-zero after the last job"
        );
    }
}
