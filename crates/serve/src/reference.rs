//! The golden reference scheduler: the pre-indexing serve loop, kept
//! verbatim as a differential baseline.
//!
//! [`ReferenceService`] is the linear-scan implementation
//! [`crate::SortService`] used before the indexed rebuild: every dispatch
//! rebuilds a [`QueueView`] vec and scans it with [`QueuePolicy::pick`],
//! every SLO admission re-collects the full backlog, the free set is
//! re-collected per placement attempt, and every `step_ready` rescans
//! every running job's wait list. It is O(n²) in offered jobs — which is
//! exactly why it stays: it is simple enough to audit by eye, and the
//! differential test (`tests/differential.rs`) proves the indexed service
//! produces the **bit-identical** [`ServiceReport`] on randomized
//! workloads across every queue policy × admission × fleet × fault plan.
//! Any future scheduler change that breaks equivalence is caught against
//! this module, the same way the flow engine's event-queue rebuild (PR 1)
//! kept its O(n²) rate solver as a differential oracle.
//!
//! Shared pieces are shared deliberately — [`QueuePolicy::pick`],
//! [`crate::cost::estimate_queue_wait`], and the report's `push_step`
//! timeline dedupe — so the two implementations can only diverge in the
//! scheduling *structures*, never in policy arithmetic.

use crate::cost::{device_footprint_keys, estimate_job_cost, estimate_queue_wait};
use crate::job::{DeadlineClass, JobAlgo, SortJob, TenantId};
use crate::placement::PlacementPolicy;
use crate::queue::{QueuePolicy, QueueView};
use crate::report::{push_step, JobOutcome, RejectReason, RejectedJob, ServiceReport};
use crate::service::{AdmissionPolicy, FleetPolicy, ServeConfig};
use crate::workload::Workload;
use msort_core::{Algorithm, DriverStep, SortDriver};
use msort_data::{generate, is_sorted, same_multiset, SortKey};
use msort_gpu::{Fidelity, GpuSystem, OpId};
use msort_sim::{GpuSortAlgo, SimDuration, SimTime};
use msort_topology::Platform;
use msort_trace::{groups, ArgValue, Recorder, TrackId};

/// A queued job.
struct Pending {
    seq: u64,
    at: SimTime,
    job: SortJob,
    cost: SimDuration,
    deadline: Option<SimTime>,
}

/// A job holding a gang lease.
struct Running<K: SortKey> {
    seq: u64,
    tenant: TenantId,
    keys: u64,
    algorithm: &'static str,
    gang: Vec<usize>,
    submitted: SimTime,
    started: SimTime,
    deadline: Option<SimTime>,
    cost: SimDuration,
    input: Vec<K>,
    driver: Box<dyn SortDriver<K>>,
    wait: Vec<OpId>,
    /// Per-job trace track (dummy when the recorder is disabled).
    track: TrackId,
}

struct TenantEntry {
    id: TenantId,
    weight: f64,
    /// Σ (estimated cost ÷ weight) over dispatched jobs.
    credit: f64,
}

/// The linear-scan service — see the module docs for why it exists.
pub struct ReferenceService<'p, K: SortKey> {
    sys: GpuSystem<'p, K>,
    recorder: Recorder,
    policy: QueuePolicy,
    placement: PlacementPolicy,
    admission: AdmissionPolicy,
    fleet_policy: FleetPolicy,
    fidelity: Fidelity,
    max_queue_depth: usize,
    fleet: Vec<usize>,
    leased: Vec<bool>,
    active: Vec<bool>,
    idle_since: Vec<SimTime>,
    rr_cursor: usize,
    tenants: Vec<TenantEntry>,
    tenant_slos: Vec<(TenantId, SimDuration)>,
    pending: Vec<Pending>,
    running: Vec<Running<K>>,
    next_seq: u64,
    outcomes: Vec<JobOutcome>,
    rejected: Vec<RejectedJob>,
    queue_depth: Vec<(SimTime, usize)>,
    fleet_log: Vec<(SimTime, usize)>,
    admission_track: TrackId,
    fleet_track: TrackId,
}

impl<'p, K: SortKey> ReferenceService<'p, K> {
    /// Create a reference service over `platform`. Accepts the same
    /// [`ServeConfig`] as [`crate::SortService::new`].
    ///
    /// # Panics
    /// Panics if the configured fleet names a GPU the platform lacks,
    /// contains duplicates, or is smaller than an elastic `min_gpus`.
    #[must_use]
    pub fn new(platform: &'p Platform, config: ServeConfig) -> Self {
        let mut sys = config.run.build_system(platform);
        // Reclamation is observationally free for the serve path (it never
        // reads per-op history), and the reference must survive the scale
        // bench's 100k-job runs.
        sys.set_op_reclaim(true);
        let mut fleet = config
            .fleet
            .unwrap_or_else(|| (0..platform.topology.gpu_count()).collect());
        fleet.sort_unstable();
        let before = fleet.len();
        fleet.dedup();
        assert_eq!(before, fleet.len(), "fleet must not repeat GPUs");
        for &g in &fleet {
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
            FleetPolicy::Fixed => vec![true; fleet.len()],
            FleetPolicy::Elastic { min_gpus, .. } => {
                assert!(
                    min_gpus <= fleet.len(),
                    "elastic min_gpus {min_gpus} exceeds the {}-GPU fleet",
                    fleet.len()
                );
                (0..fleet.len()).map(|i| i < min_gpus).collect()
            }
        };
        let leased = vec![false; fleet.len()];
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
            sys,
            recorder,
            policy: config.policy,
            placement: config.placement,
            admission: config.admission,
            fleet_policy: config.fleet_policy,
            fidelity: config.run.fidelity,
            max_queue_depth: config.max_queue_depth,
            idle_since: vec![SimTime::ZERO; fleet.len()],
            fleet,
            leased,
            active,
            rr_cursor: 0,
            tenants,
            tenant_slos,
            pending: Vec::new(),
            running: Vec::new(),
            next_seq: 0,
            outcomes: Vec::new(),
            rejected: Vec::new(),
            queue_depth: Vec::new(),
            fleet_log: vec![(SimTime::ZERO, initial)],
            admission_track,
            fleet_track,
        }
    }

    /// Drive `workload` to exhaustion and report — the same contract as
    /// [`crate::SortService::serve`], via linear scans.
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
            loop {
                let resized = self.elastic_adjust();
                let dispatched = self.try_dispatch();
                let stepped = self.step_ready();
                if !resized && !dispatched && !stepped {
                    break;
                }
            }
            if self.running.is_empty() && self.pending.is_empty() && next.is_none() {
                break;
            }
            let frontier: Vec<OpId> = self
                .running
                .iter()
                .flat_map(|r| r.wait.iter().copied())
                .collect();
            let mut deadline = next.as_ref().map(|&(t, _)| t);
            if let Some(release) = self.next_release_time() {
                deadline = Some(deadline.map_or(release, |d| d.min(release)));
            }
            assert!(
                !frontier.is_empty() || deadline.is_some(),
                "sort service stalled: {} queued jobs but nothing runnable",
                self.pending.len()
            );
            self.sys.run_until(&frontier, deadline);
        }
        self.into_report()
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

    fn effective_slo(&self, job: &SortJob) -> Option<SimDuration> {
        job.slo.or_else(|| {
            self.tenant_slos
                .binary_search_by_key(&job.tenant, |&(t, _)| t)
                .ok()
                .map(|i| self.tenant_slos[i].1)
        })
    }

    fn infeasible(&self, job: &SortJob) -> Option<String> {
        let g = job.gpus;
        let scale = self.fidelity.scale();
        if job.keys == 0 {
            return Some("zero keys".into());
        }
        if g == 0 {
            return Some("zero GPUs".into());
        }
        if g > self.fleet.len() {
            return Some(format!(
                "gang of {g} exceeds the {}-GPU fleet",
                self.fleet.len()
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
        if self.pending.len() >= self.max_queue_depth {
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
                // The full-backlog re-collect the indexed service replaces
                // with its incremental gang-ns counter.
                let backlog: Vec<(SimDuration, usize)> = self
                    .pending
                    .iter()
                    .map(|p| (p.cost, p.job.gpus))
                    .chain(self.running.iter().map(|r| (r.cost, r.gang.len())))
                    .collect();
                let wait = estimate_queue_wait(&backlog, self.fleet.len());
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
        self.pending.push(Pending {
            seq,
            at,
            job,
            cost,
            deadline,
        });
        push_step(&mut self.queue_depth, self.sys.now(), self.pending.len());
    }

    fn active_gpu_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    fn fleet_target(&self, min_gpus: usize) -> usize {
        let leased = self.leased.iter().filter(|&&l| l).count();
        let queued: usize = self.pending.iter().map(|p| p.job.gpus).sum();
        (leased + queued).clamp(min_gpus, self.fleet.len())
    }

    fn elastic_adjust(&mut self) -> bool {
        let FleetPolicy::Elastic {
            min_gpus,
            idle_release,
        } = self.fleet_policy
        else {
            return false;
        };
        let now = self.sys.now();
        let target = self.fleet_target(min_gpus);
        let before = self.active_gpu_count();
        let mut count = before;
        for i in 0..self.active.len() {
            if count >= target {
                break;
            }
            if !self.active[i] {
                self.active[i] = true;
                self.idle_since[i] = now;
                count += 1;
            }
        }
        for i in (0..self.active.len()).rev() {
            if count <= target {
                break;
            }
            if self.active[i] && !self.leased[i] && now.since(self.idle_since[i]) >= idle_release {
                self.active[i] = false;
                count -= 1;
            }
        }
        if count == before {
            return false;
        }
        push_step(&mut self.fleet_log, now, count);
        true
    }

    fn next_release_time(&self) -> Option<SimTime> {
        let FleetPolicy::Elastic {
            min_gpus,
            idle_release,
        } = self.fleet_policy
        else {
            return None;
        };
        if self.active_gpu_count() <= self.fleet_target(min_gpus) {
            return None;
        }
        (0..self.fleet.len())
            .filter(|&i| self.active[i] && !self.leased[i])
            .map(|i| self.idle_since[i] + idle_release)
            .min()
    }

    fn free_gpus(&self) -> Vec<usize> {
        self.fleet
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.active[i] && !self.leased[i])
            .map(|(_, &g)| g)
            .collect()
    }

    fn set_leased(&mut self, gang: &[usize], leased: bool) {
        let now = self.sys.now();
        for &g in gang {
            let i = self
                .fleet
                .iter()
                .position(|&f| f == g)
                .expect("gang GPUs come from the fleet");
            self.leased[i] = leased;
            if !leased {
                self.idle_since[i] = now;
            }
        }
    }

    fn try_dispatch(&mut self) -> bool {
        let mut any = false;
        loop {
            // The per-pick rebuild the indexed service replaces with its
            // persistent IndexedQueue.
            let views: Vec<QueueView> = self
                .pending
                .iter()
                .map(|p| QueueView {
                    seq: p.seq,
                    tenant: p.job.tenant,
                    cost: p.cost,
                    interactive: p.job.deadline == DeadlineClass::Interactive,
                    deadline: p.deadline,
                })
                .collect();
            let tenants = &self.tenants;
            let credit = |t: TenantId| -> f64 {
                tenants
                    .binary_search_by_key(&t, |e| e.id)
                    .map_or(0.0, |i| tenants[i].credit)
            };
            let Some(i) = self.policy.pick(&views, &credit) else {
                break;
            };
            let g = self.pending[i].job.gpus;
            let free = self.free_gpus();
            if free.len() < g {
                break;
            }
            let mut cursor = self.rr_cursor;
            let placed = self.placement.place(
                self.sys.platform(),
                self.sys.constraint_table(),
                &free,
                g,
                &mut cursor,
            );
            let Some(gang) = placed else {
                break;
            };
            let need = device_footprint_keys(&self.pending[i].job, self.fidelity.scale())
                * K::DATA_TYPE.key_bytes();
            if gang
                .iter()
                .any(|&d| self.sys.world().gpu_free_bytes(d) < need)
            {
                break;
            }
            self.rr_cursor = cursor;
            let Pending {
                seq,
                at,
                job,
                cost,
                deadline,
            } = self.pending.remove(i);
            push_step(&mut self.queue_depth, self.sys.now(), self.pending.len());
            let ti = self.tenant_index(job.tenant);
            self.tenants[ti].credit += cost.as_secs_f64() / self.tenants[ti].weight;
            self.dispatch(seq, at, job, cost, deadline, gang);
            any = true;
        }
        any
    }

    fn dispatch(
        &mut self,
        seq: u64,
        at: SimTime,
        job: SortJob,
        cost: SimDuration,
        deadline: Option<SimTime>,
        gang: Vec<usize>,
    ) {
        let scale = self.fidelity.scale();
        let phys = (job.keys / scale) as usize;
        let data: Vec<K> = generate(job.dist, phys, job.seed);
        let input = data.clone();
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
        let running = Running {
            seq,
            tenant: job.tenant,
            keys: job.keys,
            algorithm: job.algo.name(),
            gang,
            submitted: at,
            started,
            deadline,
            cost,
            input,
            driver,
            wait: Vec::new(),
            track,
        };
        self.running.push(running);
        let idx = self.running.len() - 1;
        match self.running[idx].driver.step(&mut self.sys) {
            DriverStep::Wait(ops) => self.running[idx].wait = ops,
            DriverStep::Done => {
                let r = self.running.remove(idx);
                self.finish(r);
            }
        }
    }

    /// The per-step wait-list rescan the indexed service replaces with
    /// op-completion wakeups.
    fn step_ready(&mut self) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < self.running.len() {
            let sys = &self.sys;
            self.running[i].wait.retain(|&o| !sys.op_done(o));
            if !self.running[i].wait.is_empty() {
                i += 1;
                continue;
            }
            progressed = true;
            match self.running[i].driver.step(&mut self.sys) {
                DriverStep::Wait(ops) => {
                    self.running[i].wait = ops;
                    i += 1;
                }
                DriverStep::Done => {
                    let r = self.running.remove(i);
                    self.finish(r);
                }
            }
        }
        progressed
    }

    fn finish(&mut self, mut r: Running<K>) {
        let output = r.driver.take_output();
        let validated =
            r.driver.validated() && is_sorted(&output) && same_multiset(&r.input, &output);
        r.driver.release(&mut self.sys);
        self.set_leased(&r.gang, false);
        if self.recorder.is_enabled() {
            let end = self.sys.now();
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
