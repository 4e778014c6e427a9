//! msort-serve: a multi-tenant sort-service scheduler with
//! contention-aware GPU placement.
//!
//! The paper measures one sort at a time on an otherwise idle machine. A
//! database serving many tenants never gets that luxury: sort requests
//! arrive as a stream, gangs of GPUs must be leased and returned, and
//! every placement decision changes which PCIe switches, NVLink cliques,
//! and host interconnects the concurrent jobs fight over. This crate
//! builds that service layer on top of the repo's virtual GPU runtime:
//!
//! * [`job`] — [`SortJob`]: tenant, size, distribution, algorithm
//!   ([`JobAlgo`]), gang size, and deadline class;
//! * [`queue`] — pluggable dispatch policies ([`QueuePolicy`]): FIFO,
//!   shortest-job-first over a calibrated cost model, and weighted
//!   per-tenant fair share;
//! * [`placement`] — gang placement ([`PlacementPolicy`]): a round-robin
//!   baseline and topology-aware placement via
//!   [`msort_topology::best_gpu_set`], which also routes around injected
//!   link faults;
//! * [`cost`] — solo cost and device-footprint estimates used for SJF
//!   ordering, fair-share charging, and admission control;
//! * [`workload`] — open-loop [`Workload`] sources: [`TraceWorkload`]
//!   replay of an explicit job list, and seeded [`OpenLoop`] generators
//!   (Poisson, diurnal, bursty MMPP) over a weighted [`JobMix`];
//! * [`service`] — [`SortService`]: admission with backpressure and
//!   SLO-aware shedding ([`AdmissionPolicy`]), an elastic GPU fleet
//!   ([`FleetPolicy`]), exclusive gang leases with device-memory
//!   accounting, and the event loop that interleaves every running job's
//!   [`msort_core::SortDriver`] on **one** shared simulated clock, so
//!   co-scheduled jobs genuinely contend in the fluid-flow engine;
//! * [`report`] — [`ServiceReport`]: per-job outcomes, per-tenant
//!   throughput and fair-share error, queue-depth and fleet-size
//!   timelines, goodput and SLO attainment, and p50/p95/p99 latency;
//! * [`mod@reference`] — [`ReferenceService`]: the same serve loop over
//!   linear-scan bookkeeping (the pending list rescanned on every
//!   question), the differential oracle for [`SortService`]'s indexed
//!   bookkeeping.
//!
//! Everything is bit-reproducible: same workload seed, same
//! configuration (including a [`msort_sim::FaultPlan`]) → the identical
//! report.
//!
//! ```
//! use msort_serve::{JobMix, OpenLoop, ServeConfig, SortJob, SortService, TenantId};
//! use msort_topology::Platform;
//!
//! let dgx = Platform::dgx_a100();
//! let mix = JobMix::of(SortJob::new(TenantId(0), 1 << 12))
//!     .and(SortJob::new(TenantId(1), 1 << 12), 2.0);
//! let svc = SortService::<u32>::new(&dgx, ServeConfig::new());
//! let report = svc.serve(OpenLoop::poisson(200.0, mix, 8, 42));
//! assert_eq!(report.offered_jobs(), 8);
//! assert!(report.all_validated());
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod job;
pub mod placement;
pub mod queue;
pub mod reference;
pub mod report;
pub mod service;
pub mod workload;

pub use cost::{device_footprint_keys, estimate_job_cost, estimate_queue_wait};
pub use job::{DeadlineClass, JobAlgo, SortJob, TenantId};
pub use placement::PlacementPolicy;
pub use queue::QueuePolicy;
pub use reference::ReferenceService;
pub use report::{JobOutcome, RejectReason, RejectedJob, ServiceReport, TenantStats};
pub use service::{AdmissionPolicy, FleetPolicy, ServeConfig, SortService};
pub use workload::{ArrivalProcess, JobMix, OpenLoop, TraceWorkload, Workload};
