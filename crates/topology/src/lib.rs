//! Interconnect topology graphs for multi-GPU platforms.
//!
//! The paper's central observation is that *topology decides performance*:
//! which GPUs share a PCIe switch, whether P2P transfers traverse the
//! host-side CPU interconnect, and how much DRAM bandwidth the copy streams
//! compete for. This crate models exactly that structure:
//!
//! * [`graph`] — nodes (CPU sockets with their NUMA memory, PCIe switches,
//!   GPUs, NVSwitch, NICs), links with per-direction and duplex capacities,
//!   and a builder for custom systems;
//! * [`route`] — shortest-path routing between host memory and GPU memory
//!   endpoints; [`Platform::route`] answers from a table each platform
//!   fills per source on first use;
//! * [`constraint`] — translation of a route into the set of capacity
//!   constraints a transfer consumes (link directions, duplex caps, DRAM
//!   read/write/aggregate caps);
//! * [`allocate`] — weighted max-min fair ("progressive filling") rate
//!   allocation across concurrently active transfers;
//! * [`placement`] — topology-aware gang scoring: which GPU subsets share
//!   the fewest constraints (distinct PCIe switches, NVLink cliques) for a
//!   sort's traffic pattern, degrading gracefully on unhealthy fabrics;
//! * [`platforms`] — the paper's three systems (IBM AC922, DELTA D22x M4 PS,
//!   NVIDIA DGX A100) with link capacities calibrated to the paper's own
//!   single-stream measurements (Figures 2–7), plus builders for custom
//!   platforms.
//!
//! Everything here is pure and time-free; the discrete-event machinery that
//! advances transfers over time lives in `msort-sim`.
//!
//! ```
//! use msort_topology::{Platform, Endpoint, allocate_rates};
//!
//! // A single NVLink-fed copy stream on the AC922 sustains 72 GB/s.
//! let ac922 = Platform::ibm_ac922();
//! let route = ac922.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
//! let rates = allocate_rates(ac922.constraint_table(), &[ac922.flow_request(&route)]);
//! assert!((rates[0] / 1e9 - 72.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod allocate;
pub mod constraint;
pub mod graph;
pub mod health;
pub mod placement;
pub mod platforms;
pub mod route;

pub use allocate::{allocate_rates, FlowRequest, RateAllocator};
pub use constraint::{ConstraintId, ConstraintTable, ConstraintVec};
pub use graph::{
    gbps, GpuModel, Link, LinkId, LinkKind, MemSpec, Node, NodeId, NodeKind, Topology,
    TopologyBuilder, TopologyError,
};
pub use health::{FabricHealth, LinkState};
pub use placement::{best_gpu_set, score_gpu_set, SetScore};
pub use platforms::{append_paper_node, ClusterLayout, Fabric, Platform, PlatformId};
pub use route::{Endpoint, Route};
