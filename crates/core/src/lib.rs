//! Multi-GPU sorting: the paper's contribution.
//!
//! Five multi-GPU sort families and their cross-node composition over the
//! virtual GPU runtime, all built on one staged-sort skeleton (`stage`:
//! scatter, a family-specific middle, gather, validate, report):
//!
//! * [`p2p`] — **P2P sort** (after Tanasic et al., extended to any
//!   `g = 2^k` GPUs): chunks sort locally, then a recursive merge phase
//!   swaps pivot-determined blocks between GPUs over the P2P interconnects
//!   and re-merges locally, producing the globally sorted array entirely on
//!   the GPUs.
//! * [`het`] — **HET sort** (after Gowanlock et al. / Stehle et al.):
//!   chunks sort on the GPUs and return to host memory, where a parallel
//!   multiway merge produces the output. Includes the large-data chunk-group
//!   pipelines (2n and 3n approaches, Section 5.3) and optional eager
//!   merging.
//! * [`sample`] — **GPU sample sort** (after Leischner et al.):
//!   oversampled splitters partition the raw chunks locally, one all-to-all
//!   bucket exchange, then per-GPU final sorts — the scatter-heavy
//!   interconnect profile.
//! * [`mwms`] — **multiway mergesort** (after Karsin et al.): local chunk
//!   sorts feed a pairwise merge tree across the GPUs — the merge-bound,
//!   point-to-point interconnect profile.
//! * [`cross_node`] — **cross-node sort**: a node-level sample sort over
//!   the cluster platforms' NIC fabric, with any of the above running
//!   inside every node; inter-node NIC flows and intra-node NVLink flows
//!   contend in the same rate allocation.
//! * [`pivot`] — Algorithm 1: leftmost-pivot selection over two sorted
//!   sequences (and concatenated chunk views), plus the block-swap plan
//!   derivation (which chunk pairs exchange which ranges).
//! * [`gpuset`] — GPU set selection and ordering (Section 5.4): which `g`
//!   GPUs to use and how to pair them across merge stages.
//! * [`exec`] — resumable sort drivers: every sort doubles as a
//!   [`SortDriver`] state machine over a caller-provided `GpuSystem`, so a
//!   scheduler (the `msort-serve` crate) can interleave many concurrent
//!   sorts on one shared simulated clock.
//! * [`family`] — [`Family`]: the one tag naming the five single-node
//!   families (re-exported as `InnerAlgo` here and `JobAlgo` in
//!   `msort-serve`), with each family's device-memory footprint.
//! * [`run`] — the shared [`RunConfig`]: one builder for algorithm,
//!   fidelity, fault schedule, observability recorder, and seed, consumed
//!   by every entry point (single-shot sorts, drivers, the serve layer).
//! * [`baseline`] — the CPU-only (PARADIS) and single-GPU baselines every
//!   figure compares against.
//! * [`report`] — per-run reports: end-to-end duration, the four-phase
//!   breakdown of Figures 12–14, and validation of the output.
//!
//! All algorithms work on any [`msort_data::SortKey`] and validate their
//! output on the physical payload after every simulated run.
//!
//! ```
//! use msort_core::{p2p_sort, P2pConfig};
//! use msort_data::{generate, is_sorted, Distribution};
//! use msort_topology::Platform;
//!
//! let dgx = Platform::dgx_a100();
//! let mut keys: Vec<u32> = generate(Distribution::Uniform, 1 << 14, 1);
//! let report = p2p_sort(&dgx, &P2pConfig::new(4), &mut keys, 1 << 14);
//! assert!(report.validated && is_sorted(&keys));
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cross_node;
pub mod exec;
pub mod family;
pub mod gpuset;
pub mod het;
pub mod mwms;
pub mod p2p;
pub mod pivot;
pub mod report;
pub mod rp;
pub mod run;
pub mod sample;
mod stage;

pub use baseline::{cpu_only_sort, single_gpu_sort};
pub use cross_node::{cross_node_sort, CrossNodeConfig, CrossNodeDriver, InnerAlgo};
pub use exec::{drive, DriverStep, SortDriver};
pub use family::Family;
pub use gpuset::{default_gpu_set, search_gpu_set};
pub use het::{het_sort, HetConfig, HetDriver, LargeDataApproach};
pub use mwms::{mwms_sort, MwmsConfig, MwmsDriver};
pub use p2p::{best_p2p_route, p2p_sort, P2pConfig, P2pDriver};
pub use report::{PhaseBreakdown, SortReport};
pub use rp::{rp_sort, RpConfig, RpDriver};
pub use run::{run_sort, Algorithm, RunConfig};
pub use sample::{sample_sort, SampleSortConfig, SampleSortDriver};
