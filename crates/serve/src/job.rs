//! Sort jobs: what a tenant asks the service to do.

use msort_data::Distribution;
use msort_sim::SimDuration;

/// Opaque tenant identity. Tenants own jobs, weights, and per-tenant
/// statistics in the [`crate::ServiceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Latency expectation of a job. Interactive jobs jump ahead of batch jobs
/// at every queue decision (within the active policy's ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeadlineClass {
    /// Latency-sensitive: dispatched before any batch job the policy would
    /// otherwise pick.
    Interactive,
    /// Throughput-oriented (the default).
    Batch,
}

/// Which multi-GPU sort algorithm executes the job: the core crate's
/// family tag. HET jobs run in-core; P2P gangs must be a power of two.
pub use msort_core::Family as JobAlgo;

/// One sort request: `keys` logical keys of `dist` data, sorted by `algo`
/// on a gang of `gpus` devices. The service generates the input from
/// `seed` (deterministically) and validates the output against it.
#[derive(Debug, Clone, PartialEq)]
pub struct SortJob {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Logical keys to sort. Must be a multiple of `gpus × scale` for the
    /// chosen fidelity.
    pub keys: u64,
    /// Input data distribution.
    pub dist: Distribution,
    /// Sort algorithm.
    pub algo: JobAlgo,
    /// Gang size (GPUs leased exclusively for the job's lifetime).
    pub gpus: usize,
    /// Latency class.
    pub deadline: DeadlineClass,
    /// Latency SLO: the submit-to-finish budget this job must meet to
    /// count as goodput. `None` falls back to the owning tenant's
    /// configured target (`ServeConfig::with_slo`), or best-effort if the
    /// tenant has none. The deadline instant is `submit time + slo`; the
    /// EDF queue policy and SLO-aware admission both key off it.
    pub slo: Option<SimDuration>,
    /// Seed for the generated input.
    pub seed: u64,
}

impl SortJob {
    /// A batch uniform-distribution P2P job on two GPUs.
    #[must_use]
    pub fn new(tenant: TenantId, keys: u64) -> Self {
        Self {
            tenant,
            keys,
            dist: Distribution::Uniform,
            algo: JobAlgo::P2p,
            gpus: 2,
            deadline: DeadlineClass::Batch,
            slo: None,
            seed: 1,
        }
    }

    /// Select the input distribution.
    #[must_use]
    pub fn with_dist(mut self, dist: Distribution) -> Self {
        self.dist = dist;
        self
    }

    /// Select the sort algorithm.
    #[must_use]
    pub fn with_algo(mut self, algo: JobAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Select the gang size.
    #[must_use]
    pub fn with_gpus(mut self, gpus: usize) -> Self {
        self.gpus = gpus;
        self
    }

    /// Mark the job latency-sensitive.
    #[must_use]
    pub fn interactive(mut self) -> Self {
        self.deadline = DeadlineClass::Interactive;
        self
    }

    /// Give the job its own latency SLO (submit-to-finish budget),
    /// overriding the tenant-level target.
    #[must_use]
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Select the input seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips() {
        let j = SortJob::new(TenantId(3), 1 << 20)
            .with_algo(JobAlgo::Het)
            .with_gpus(4)
            .with_dist(Distribution::ReverseSorted)
            .interactive()
            .with_slo(SimDuration::from_millis(5))
            .with_seed(99);
        assert_eq!(j.tenant, TenantId(3));
        assert_eq!(j.keys, 1 << 20);
        assert_eq!(j.algo, JobAlgo::Het);
        assert_eq!(j.gpus, 4);
        assert_eq!(j.dist, Distribution::ReverseSorted);
        assert_eq!(j.deadline, DeadlineClass::Interactive);
        assert_eq!(j.slo, Some(SimDuration::from_millis(5)));
        assert_eq!(j.seed, 99);
        assert_eq!(JobAlgo::Rp.name(), "RP sort");
    }

    #[test]
    fn deadline_classes_order_interactive_first() {
        assert!(DeadlineClass::Interactive < DeadlineClass::Batch);
    }
}
