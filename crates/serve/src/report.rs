//! Service-level reporting: per-job outcomes, per-tenant statistics,
//! queue-depth timeline, and latency percentiles.

use crate::job::TenantId;
use crate::placement::PlacementPolicy;
use crate::queue::QueuePolicy;
use msort_sim::{SimDuration, SimTime};

/// One completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Global submission sequence number.
    pub seq: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Logical keys sorted.
    pub keys: u64,
    /// Algorithm label.
    pub algorithm: &'static str,
    /// The gang the job ran on, sorted ascending.
    pub gpus: Vec<usize>,
    /// When the job entered the queue.
    pub submitted: SimTime,
    /// When its gang lease began (first phase enqueued).
    pub started: SimTime,
    /// When the sorted output was read back and validated.
    pub finished: SimTime,
    /// Absolute deadline (submit + effective SLO), if the job had one.
    pub deadline: Option<SimTime>,
    /// Output verified sorted *and* a permutation of the generated input.
    pub validated: bool,
}

impl JobOutcome {
    /// Queueing + service time.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.finished.since(self.submitted)
    }

    /// Time spent executing (excludes queueing).
    #[must_use]
    pub fn service_time(&self) -> SimDuration {
        self.finished.since(self.started)
    }

    /// `true` when the job finished within its SLO — or had none
    /// (best-effort work always counts as goodput once it completes).
    #[must_use]
    pub fn met_slo(&self) -> bool {
        self.deadline.is_none_or(|d| self.finished <= d)
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Backpressure: the pending queue was at its configured depth.
    QueueFull,
    /// The job could never run on this service (gang larger than the
    /// fleet, footprint beyond device memory, invalid shape...).
    Infeasible(String),
    /// SLO-aware admission: even an idle fleet could not finish the job
    /// inside its latency budget — the deadline is unattainable, not
    /// merely at risk, so admitting it would only burn capacity.
    SloUnattainable(String),
    /// Load shedding: the backlog's estimated queue wait already blows
    /// the job's deadline, so it is turned away at the door instead of
    /// timing out in the queue (goodput over throughput under overload).
    Shed(String),
}

/// One refused submission.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedJob {
    /// Global submission sequence number.
    pub seq: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// When it was refused.
    pub at: SimTime,
    /// Why.
    pub reason: RejectReason,
}

/// Aggregate view of one tenant's service.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Configured fair-share weight.
    pub weight: f64,
    /// Completed jobs.
    pub jobs: u64,
    /// Completed logical keys.
    pub keys: u64,
    /// Mean completed-job latency.
    pub mean_latency: SimDuration,
}

/// Append `(at, value)` to a step-function timeline, deduplicating:
/// a sample equal to the current level is dropped, and several
/// transitions at one instant collapse to the final value (the
/// intermediate levels never existed for any observer of the step
/// function). Shared by the indexed service and the golden reference so
/// both emit bit-identical timelines.
pub(crate) fn push_step(log: &mut Vec<(SimTime, usize)>, at: SimTime, value: usize) {
    if let Some(&(last_at, last_v)) = log.last() {
        if last_v == value {
            return;
        }
        if last_at == at {
            log.pop();
            // The pop may expose an equal predecessor (A → B → A within
            // one instant): dropping the sample keeps the level at A.
            if log.last().is_some_and(|&(_, v)| v == value) {
                return;
            }
            log.push((at, value));
            return;
        }
    }
    log.push((at, value));
}

/// Everything one [`crate::SortService::serve`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Platform name.
    pub platform: String,
    /// Queue policy the run used.
    pub policy: QueuePolicy,
    /// Placement policy the run used.
    pub placement: PlacementPolicy,
    /// Completed jobs in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Refused submissions in refusal order.
    pub rejected: Vec<RejectedJob>,
    /// `(time, pending jobs)` step function, recorded only when the value
    /// changes (several same-instant transitions coalesce into the final
    /// value), so million-job runs stay bounded by the number of *distinct*
    /// depths visited, not the number of events.
    pub queue_depth: Vec<(SimTime, usize)>,
    /// `(time, active GPUs)` step function, deduplicated the same way as
    /// [`queue_depth`](Self::queue_depth); a fixed fleet logs one sample
    /// at t=0. Each sample holds until the next.
    pub fleet_size: Vec<(SimTime, usize)>,
    /// Clock value when the last job completed.
    pub makespan: SimTime,
    /// Tenant weights in effect (ascending tenant id).
    pub weights: Vec<(TenantId, f64)>,
}

impl ServiceReport {
    /// Total logical keys across completed jobs.
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.outcomes.iter().map(|o| o.keys).sum()
    }

    /// Service throughput in million keys per second of simulated time
    /// (0 for an empty or zero-duration run).
    #[must_use]
    pub fn throughput_mkeys(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_keys() as f64 / secs / 1e6
    }

    /// `true` when every completed job validated.
    #[must_use]
    pub fn all_validated(&self) -> bool {
        self.outcomes.iter().all(|o| o.validated)
    }

    /// Offered load: every submission the service saw, completed or
    /// refused.
    #[must_use]
    pub fn offered_jobs(&self) -> u64 {
        (self.outcomes.len() + self.rejected.len()) as u64
    }

    /// Completed jobs per second of simulated time (0 for an empty or
    /// zero-duration run, mirroring `SortReport::mkeys_per_sec`).
    #[must_use]
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / secs
    }

    /// Goodput: completed jobs that met their SLO (best-effort jobs count
    /// once they complete).
    #[must_use]
    pub fn goodput_jobs(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.met_slo()).count() as u64
    }

    /// Goodput in jobs per second of simulated time (0 for an empty or
    /// zero-duration run).
    #[must_use]
    pub fn goodput_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.goodput_jobs() as f64 / secs
    }

    /// Fraction of *offered* jobs that completed within SLO — the number
    /// an operator watches under overload, where shed and timed-out work
    /// both count against the service. 1.0 for an idle run (no offers,
    /// nothing violated).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        let offered = self.offered_jobs();
        if offered == 0 {
            return 1.0;
        }
        self.goodput_jobs() as f64 / offered as f64
    }

    /// Submissions refused by SLO-aware admission (shed or unattainable),
    /// as opposed to backpressure/infeasibility rejects.
    #[must_use]
    pub fn shed_jobs(&self) -> u64 {
        self.rejected
            .iter()
            .filter(|r| {
                matches!(
                    r.reason,
                    RejectReason::Shed(_) | RejectReason::SloUnattainable(_)
                )
            })
            .count() as u64
    }

    /// Time-weighted mean of the [`fleet_size`](Self::fleet_size) step
    /// function over `[0, makespan]`; 0 when the run never logged a
    /// sample or had zero duration.
    #[must_use]
    pub fn mean_fleet_size(&self) -> f64 {
        let end = self.makespan;
        if self.fleet_size.is_empty() || end == SimTime::ZERO {
            return self.fleet_size.last().map_or(0.0, |&(_, n)| n as f64);
        }
        let mut weighted = 0.0;
        for (i, &(at, n)) in self.fleet_size.iter().enumerate() {
            if at >= end {
                break;
            }
            let until = self.fleet_size.get(i + 1).map_or(end, |&(t, _)| t.min(end));
            weighted += n as f64 * until.since(at).as_secs_f64();
        }
        weighted / end.as_secs_f64()
    }

    /// Nearest-rank latency percentile over completed jobs (`p` in
    /// `0.0..=100.0`); zero when nothing completed.
    ///
    /// Nearest-rank is used *consistently*, small samples included: the
    /// reported value is the ⌈p/100 · n⌉-th smallest latency — an actual
    /// observation, never an interpolation. So p99 over 5 jobs is the
    /// maximum (rank 5), and p95 over exactly 20 jobs is the 19th value,
    /// not the 20th: the rank is computed in integer arithmetic, because
    /// `0.95 × 20` in floating point lands a hair above 19.0 and a naive
    /// `ceil` would skip to the max.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> SimDuration {
        if self.outcomes.is_empty() {
            return SimDuration::ZERO;
        }
        let mut lat: Vec<SimDuration> = self.outcomes.iter().map(JobOutcome::latency).collect();
        lat.sort_unstable();
        lat[Self::nearest_rank(p, lat.len()) - 1]
    }

    /// ⌈p/100 · n⌉ clamped to `1..=n`, computed exactly. `p` is taken at
    /// millipercent resolution (p99.999 still resolves; beyond that the
    /// difference cannot matter for any feasible sample count).
    fn nearest_rank(p: f64, n: usize) -> usize {
        let millipercent = (p * 1_000.0).round() as u128;
        let rank = (millipercent * n as u128).div_ceil(100_000) as usize;
        rank.clamp(1, n)
    }

    /// Median latency.
    #[must_use]
    pub fn p50_latency(&self) -> SimDuration {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile latency.
    #[must_use]
    pub fn p95_latency(&self) -> SimDuration {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile latency.
    #[must_use]
    pub fn p99_latency(&self) -> SimDuration {
        self.latency_percentile(99.0)
    }

    /// Mean latency over completed jobs.
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        if self.outcomes.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self.outcomes.iter().map(|o| o.latency().0).sum();
        SimDuration(total / self.outcomes.len() as u64)
    }

    /// Per-tenant aggregates over completed jobs, ascending tenant id.
    /// Tenants with a configured weight appear even with zero completions.
    #[must_use]
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let mut tenants: Vec<TenantId> = self.weights.iter().map(|&(t, _)| t).collect();
        for o in &self.outcomes {
            if !tenants.contains(&o.tenant) {
                tenants.push(o.tenant);
            }
        }
        tenants.sort_unstable();
        tenants
            .into_iter()
            .map(|t| {
                let weight = self
                    .weights
                    .iter()
                    .find(|&&(w, _)| w == t)
                    .map_or(1.0, |&(_, w)| w);
                let mine: Vec<&JobOutcome> =
                    self.outcomes.iter().filter(|o| o.tenant == t).collect();
                let jobs = mine.len() as u64;
                let keys = mine.iter().map(|o| o.keys).sum();
                let mean_latency = mine
                    .iter()
                    .map(|o| o.latency().0)
                    .sum::<u64>()
                    .checked_div(jobs)
                    .map_or(SimDuration::ZERO, SimDuration);
                TenantStats {
                    tenant: t,
                    weight,
                    jobs,
                    keys,
                    mean_latency,
                }
            })
            .collect()
    }

    /// Worst absolute deviation between a tenant's share of completed keys
    /// and its weight's share of the total weight. 0 is perfectly fair;
    /// only meaningful when the run kept every tenant backlogged.
    #[must_use]
    pub fn fair_share_error(&self) -> f64 {
        let stats = self.tenant_stats();
        let total_keys: u64 = stats.iter().map(|s| s.keys).sum();
        let total_weight: f64 = stats.iter().map(|s| s.weight).sum();
        if total_keys == 0 || total_weight <= 0.0 {
            return 0.0;
        }
        stats
            .iter()
            .map(|s| {
                let share = s.keys as f64 / total_keys as f64;
                let target = s.weight / total_weight;
                (share - target).abs()
            })
            .fold(0.0, f64::max)
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{:?}/{:?} on {}: {} jobs ({} rejected, {} shed) in {} at {:.0} Mkeys/s, \
             {:.0} jobs/s ({:.0} good), p50 {} p95 {} p99 {}, fair-share err {:.3}",
            self.policy,
            self.placement,
            self.platform,
            self.outcomes.len(),
            self.rejected.len(),
            self.shed_jobs(),
            self.makespan,
            self.throughput_mkeys(),
            self.jobs_per_sec(),
            self.goodput_per_sec(),
            self.p50_latency(),
            self.p95_latency(),
            self.p99_latency(),
            self.fair_share_error(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(seq: u64, tenant: u32, keys: u64, lat_ms: u64) -> JobOutcome {
        JobOutcome {
            seq,
            tenant: TenantId(tenant),
            keys,
            algorithm: "P2P sort",
            gpus: vec![0, 1],
            submitted: SimTime::ZERO,
            started: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_millis(lat_ms),
            deadline: None,
            validated: true,
        }
    }

    fn report(outcomes: Vec<JobOutcome>) -> ServiceReport {
        ServiceReport {
            platform: "test".into(),
            policy: QueuePolicy::Fifo,
            placement: PlacementPolicy::RoundRobin,
            makespan: outcomes
                .iter()
                .map(|o| o.finished)
                .max()
                .unwrap_or(SimTime::ZERO),
            outcomes,
            rejected: Vec::new(),
            queue_depth: Vec::new(),
            fleet_size: Vec::new(),
            weights: vec![(TenantId(0), 1.0), (TenantId(1), 1.0)],
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = report((0..100).map(|i| outcome(i, 0, 1000, i + 1)).collect());
        assert_eq!(r.p50_latency(), SimDuration::from_millis(50));
        assert_eq!(r.p95_latency(), SimDuration::from_millis(95));
        assert_eq!(r.p99_latency(), SimDuration::from_millis(99));
        assert_eq!(r.latency_percentile(100.0), SimDuration::from_millis(100));
        assert_eq!(report(vec![]).p99_latency(), SimDuration::ZERO);
    }

    #[test]
    fn percentiles_stay_nearest_rank_on_small_samples() {
        // n = 20, p95: ⌈0.95·20⌉ = 19 — the 19th value, not the max. A
        // float ceil would round 19.000000000000004 up to 20 and silently
        // report p95 == p100 on every 20-job run.
        let r = report((0..20).map(|i| outcome(i, 0, 1000, i + 1)).collect());
        assert_eq!(r.p95_latency(), SimDuration::from_millis(19));
        assert_eq!(r.p99_latency(), SimDuration::from_millis(20));
        // n = 5: p50 is the 3rd value, p95 and p99 are the max.
        let r5 = report((0..5).map(|i| outcome(i, 0, 1000, i + 1)).collect());
        assert_eq!(r5.p50_latency(), SimDuration::from_millis(3));
        assert_eq!(r5.p95_latency(), SimDuration::from_millis(5));
        assert_eq!(r5.p99_latency(), SimDuration::from_millis(5));
        // n = 1: everything is that single observation, p=0 included.
        let r1 = report(vec![outcome(0, 0, 1000, 7)]);
        assert_eq!(r1.latency_percentile(0.0), SimDuration::from_millis(7));
        assert_eq!(r1.p99_latency(), SimDuration::from_millis(7));
        // Fractional percentiles resolve exactly: p99.9 over 1000 jobs is
        // the 999th value.
        let big = report((0..1000).map(|i| outcome(i, 0, 1, i + 1)).collect());
        assert_eq!(big.latency_percentile(99.9), SimDuration::from_millis(999));
    }

    #[test]
    fn goodput_counts_slo_met_jobs_only() {
        let mut met = outcome(0, 0, 1000, 5);
        met.deadline = Some(SimTime::ZERO + SimDuration::from_millis(10));
        let mut missed = outcome(1, 0, 1000, 50);
        missed.deadline = Some(SimTime::ZERO + SimDuration::from_millis(10));
        let best_effort = outcome(2, 1, 1000, 80);
        assert!(met.met_slo());
        assert!(!missed.met_slo());
        assert!(best_effort.met_slo(), "no deadline means always goodput");
        let mut r = report(vec![met, missed, best_effort]);
        assert_eq!(r.goodput_jobs(), 2);
        assert_eq!(r.offered_jobs(), 3);
        r.rejected.push(RejectedJob {
            seq: 3,
            tenant: TenantId(0),
            at: SimTime::ZERO,
            reason: RejectReason::Shed("backlog".into()),
        });
        r.rejected.push(RejectedJob {
            seq: 4,
            tenant: TenantId(0),
            at: SimTime::ZERO,
            reason: RejectReason::QueueFull,
        });
        assert_eq!(r.offered_jobs(), 5);
        assert_eq!(r.shed_jobs(), 1, "QueueFull is backpressure, not shedding");
        assert!((r.slo_attainment() - 0.4).abs() < 1e-12);
        assert!(r.jobs_per_sec() > 0.0);
        assert!(r.goodput_per_sec() < r.jobs_per_sec());
        assert_eq!(report(vec![]).jobs_per_sec(), 0.0, "zero-jobs guard");
        assert_eq!(report(vec![]).goodput_per_sec(), 0.0);
        assert_eq!(report(vec![]).slo_attainment(), 1.0);
    }

    #[test]
    fn mean_fleet_size_is_time_weighted() {
        let mut r = report(vec![outcome(0, 0, 1000, 100)]);
        // 4 GPUs for the first quarter, 8 for the rest: mean 7.
        r.fleet_size = vec![
            (SimTime::ZERO, 4),
            (SimTime::ZERO + SimDuration::from_millis(25), 8),
        ];
        assert!((r.mean_fleet_size() - 7.0).abs() < 1e-9);
        // No samples → 0; zero-duration run falls back to the last sample.
        assert_eq!(report(vec![]).mean_fleet_size(), 0.0);
        let mut z = report(vec![]);
        z.fleet_size = vec![(SimTime::ZERO, 4)];
        assert_eq!(z.mean_fleet_size(), 4.0);
    }

    #[test]
    fn fair_share_error_measures_key_share_deviation() {
        // Tenant 0 got 3×, tenant 1 got 1× with equal weights: shares are
        // 0.75/0.25 against targets 0.5/0.5 → error 0.25.
        let r = report(vec![outcome(0, 0, 3000, 1), outcome(1, 1, 1000, 1)]);
        assert!((r.fair_share_error() - 0.25).abs() < 1e-12);
        let fair = report(vec![outcome(0, 0, 1000, 1), outcome(1, 1, 1000, 1)]);
        assert_eq!(fair.fair_share_error(), 0.0);
        assert_eq!(report(vec![]).fair_share_error(), 0.0);
    }

    #[test]
    fn tenant_stats_cover_weighted_but_idle_tenants() {
        let r = report(vec![outcome(0, 0, 1000, 4)]);
        let stats = r.tenant_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].jobs, 1);
        assert_eq!(stats[0].mean_latency, SimDuration::from_millis(4));
        assert_eq!(stats[1].jobs, 0, "tenant 1 has a weight but no jobs");
        assert_eq!(r.total_keys(), 1000);
        assert!(r.all_validated());
        assert!(r.summary().contains("1 jobs"));
    }

    #[test]
    fn zero_duration_run_reports_finite_throughput() {
        let r = report(vec![]);
        assert_eq!(r.throughput_mkeys(), 0.0);
        assert!(r.throughput_mkeys().is_finite());
    }

    #[test]
    fn push_step_dedupes_levels_and_instants() {
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let mut log = Vec::new();
        push_step(&mut log, t(0), 2);
        push_step(&mut log, t(1), 2); // no change → dropped
        push_step(&mut log, t(2), 5);
        push_step(&mut log, t(2), 7); // same instant → overwritten
        push_step(&mut log, t(3), 7); // no change → dropped
        assert_eq!(log, vec![(t(0), 2), (t(2), 7)]);
        // A → B → A within one instant leaves the level at A with no
        // sample: the step function never changed.
        let mut bounce = vec![(t(0), 2)];
        push_step(&mut bounce, t(4), 9);
        push_step(&mut bounce, t(4), 2);
        assert_eq!(bounce, vec![(t(0), 2)]);
        // A fresh log records its first sample whatever it is.
        let mut fresh = Vec::new();
        push_step(&mut fresh, t(0), 0);
        assert_eq!(fresh, vec![(t(0), 0)]);
    }
}
