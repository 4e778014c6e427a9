//! Virtual GPU runtime.
//!
//! This crate gives the sorting algorithms the same programming model they
//! would have on CUDA — devices, device buffers, streams, events,
//! `memcpy` in all four directions (HtoD, DtoH, DtoD, P2P), and device
//! sort/merge primitives — while executing *real data movement* on host
//! memory and advancing the simulated clock of `msort-sim`:
//!
//! * [`buffer`] — the world of buffers: host (NUMA-socket-local) and device
//!   (capacity-checked against the GPU's memory size), with an optional
//!   *sampled* fidelity mode where a buffer of logical length `N` carries a
//!   physical payload of `N / scale` keys so paper-scale workloads (up to
//!   60 B keys) fit in a small container while control flow (pivots, merge
//!   cascades) still runs on real data;
//! * [`system`] — the executor: operations are enqueued on streams (FIFO,
//!   like CUDA streams), may wait on other operations (events), and run
//!   when ready; transfers become fluid flows contending for interconnect
//!   bandwidth, kernels get durations from the calibrated cost models, and
//!   each operation's *data effect* (the actual copy/sort/merge) applies at
//!   its completion time;
//! * [`primitives`] — the bytes every sort, merge and partition op writes:
//!   one stable sort for all four modeled sort algorithms of the paper's
//!   Table 2 (their cost models set only the duration), and one stable
//!   merge (merge-path for two runs, the loser tree above).
//!
//! The runtime intentionally mirrors the paper's implementation choices:
//! memory is pre-allocated outside the timed region, every copy uses
//! pinned-host semantics (the calibrated link rates *are* pinned-copy
//! rates), and bidirectional overlap comes from putting the two directions
//! on different streams, exactly like using both copy engines.
//!
//! ```
//! use msort_gpu::{Fidelity, GpuSystem, Phase};
//! use msort_sim::GpuSortAlgo;
//! use msort_topology::Platform;
//!
//! let dgx = Platform::dgx_a100();
//! let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&dgx, Fidelity::Full);
//! let host = sys.world_mut().import_host(0, vec![3, 1, 2, 0], 4);
//! let dev = sys.world_mut().alloc_gpu(0, 4);
//! let aux = sys.world_mut().alloc_gpu(0, 4);
//! let s = sys.stream();
//! let up = sys.memcpy(s, host, 0, dev, 0, 4, &[], Phase::HtoD);
//! let so = sys.gpu_sort(s, GpuSortAlgo::ThrustLike, dev, (0, 4), aux, &[up]);
//! sys.memcpy(s, dev, 0, host, 0, 4, &[so], Phase::DtoH);
//! sys.synchronize();
//! assert_eq!(sys.world().slice(host, 0, 4), &[0, 1, 2, 3]);
//! ```

#![forbid(unsafe_code)]

pub mod buffer;
pub mod primitives;
pub mod system;

pub use buffer::{BufId, Fidelity, Location, World};
pub use system::{GpuSystem, OpId, Phase, StreamId};
