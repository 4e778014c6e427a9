//! **multi-gpu-sort** — a from-scratch Rust reproduction of
//! *Evaluating Multi-GPU Sorting with Modern Interconnects* (Maltenberger,
//! Ilic, Tolovski, Rabl — SIGMOD 2022).
//!
//! The crate re-exports the whole workspace behind one facade:
//!
//! * [`data`] — sort keys (u32/i32/f32/u64/i64/f64 with order-preserving
//!   radix images), the paper's data distributions, generators, validation;
//! * [`topology`] — interconnect topology graphs, routing, max-min fair
//!   bandwidth allocation, and the paper's three calibrated platforms
//!   (IBM AC922, DELTA D22x, NVIDIA DGX A100);
//! * [`sim`] — the discrete-event fluid-flow simulator and the calibrated
//!   kernel/CPU cost models;
//! * [`gpu`] — the virtual GPU runtime (devices, buffers, streams, copy
//!   engines, device sort/merge primitives);
//! * [`cpu`] — real CPU algorithms: PARADIS parallel in-place radix sort,
//!   LSB/MSB radix sorts, loser-tree multiway merge, parallel multiway
//!   merge;
//! * [`core`] — the paper's contribution: **P2P sort** and **HET sort**
//!   (with the 2n/3n large-data pipelines and eager merging), GPU-set
//!   selection, baselines, and per-run reports;
//! * [`cluster`] — multi-node platforms: 2/4/8-node clusters of the paper
//!   machines joined by InfiniBand HDR/NDR or Slingshot NIC fabrics, for
//!   the cross-node sort ([`core::cross_node`]);
//! * [`serve`] — the multi-tenant sort service: open-loop workload
//!   sources (trace replay, Poisson/diurnal/bursty generators), queue
//!   policies with SLO-aware admission, an elastic GPU fleet,
//!   topology-aware gang placement, and concurrent jobs contending on one
//!   shared simulated clock;
//! * [`trace`] — cross-layer observability: the [`trace::Recorder`] every
//!   layer reports into (GPU op spans, link-utilization counters, flow
//!   lifecycles, fault instants, per-tenant job spans), the unified
//!   Chrome/Perfetto exporter, and the metrics summarizer. Attach one via
//!   [`core::RunConfig::with_recorder`] or `ServeConfig::with_recorder`.
//!
//! # Quickstart
//!
//! ```
//! use multi_gpu_sort::prelude::*;
//!
//! // Sort 1M uniform keys on a simulated DGX A100 with P2P sort (4 GPUs).
//! let platform = Platform::dgx_a100();
//! let mut keys: Vec<u32> = generate(Distribution::Uniform, 1 << 20, 42);
//! let report = p2p_sort(&platform, &P2pConfig::new(4), &mut keys, 1 << 20);
//! assert!(report.validated);
//! assert!(is_sorted(&keys));
//! println!("{}", report.summary());
//! ```

#![forbid(unsafe_code)]

pub use msort_cluster as cluster;
pub use msort_core as core;
pub use msort_cpu as cpu;
pub use msort_data as data;
pub use msort_gpu as gpu;
pub use msort_serve as serve;
pub use msort_sim as sim;
pub use msort_topology as topology;
pub use msort_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use msort_cluster::{cluster_of, delta_d22x_cluster, dgx_a100_cluster, ibm_ac922_cluster};
    pub use msort_core::{
        best_p2p_route, cpu_only_sort, cross_node_sort, drive, het_sort, mwms_sort, p2p_sort,
        rp_sort, run_sort, sample_sort, single_gpu_sort, Algorithm, CrossNodeConfig,
        CrossNodeDriver, HetConfig, InnerAlgo, LargeDataApproach, MwmsConfig, P2pConfig,
        PhaseBreakdown, RpConfig, RunConfig, SampleSortConfig, SortDriver, SortReport,
    };
    pub use msort_data::{generate, is_sorted, same_multiset, DataType, Distribution, SortKey};
    pub use msort_gpu::{Fidelity, GpuSystem, Phase};
    pub use msort_serve::{
        AdmissionPolicy, ArrivalProcess, FleetPolicy, JobAlgo, JobMix, OpenLoop, PlacementPolicy,
        QueuePolicy, ServeConfig, ServiceReport, SortJob, SortService, TenantId, TraceWorkload,
        Workload,
    };
    pub use msort_sim::{
        CostModel, FaultEvent, FaultPlan, FlowSim, GpuSortAlgo, SimDuration, SimTime,
    };
    pub use msort_topology::{
        best_gpu_set, gbps, ClusterLayout, Endpoint, Fabric, FabricHealth, GpuModel, LinkState,
        NodeKind, Platform, PlatformId, TopologyBuilder,
    };
    pub use msort_trace::{
        chrome_trace, json_valid, summarize, MetricsSummary, Recorder, TraceData,
    };
}
