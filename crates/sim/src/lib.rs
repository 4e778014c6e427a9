//! Discrete-event fluid-flow simulation of multi-GPU data movement and
//! kernel execution.
//!
//! The paper's experiments run on three physical servers we do not have;
//! this crate is the substitute. It provides:
//!
//! * [`time`] — the simulated clock ([`SimTime`], [`SimDuration`]; integer
//!   nanoseconds, so event ordering is exact and deterministic);
//! * [`flows`] — the fluid transfer engine: concurrently active transfers
//!   progress at the max-min fair rates computed from the platform's
//!   constraint table, with rates re-allocated whenever a flow starts or
//!   finishes. Between events every flow advances linearly, so completion
//!   times are exact, not approximated;
//! * [`calibrate`] — kernel and CPU cost models (GPU sort/merge durations,
//!   device-local copies, CPU multiway merge, PARADIS) with constants
//!   anchored to the paper's own measurements (Table 2, Figures 12–15).
//!
//! Consistency check worth knowing about: composing these models end to end
//! reproduces the paper's single-GPU baselines without any further tuning —
//! e.g. sorting 2 B keys on one GPU costs 0.36 s simulated on the AC922
//! (paper: 0.35 s), 0.71 s on the DGX A100 (paper: 0.72 s), and 1.40 s on
//! the DELTA D22x (paper: 1.37 s).
//!
//! ```
//! use msort_sim::{CostModel, GpuSortAlgo};
//! use msort_topology::{GpuModel, PlatformId};
//! use msort_data::DataType;
//!
//! // Table 2's anchor: Thrust sorts 1B u32 keys in 36 ms on an A100.
//! let model = CostModel::for_platform_id(PlatformId::DgxA100);
//! let d = model.gpu_sort(GpuModel::A100, GpuSortAlgo::ThrustLike, DataType::U32, 1_000_000_000);
//! assert!((d.as_millis_f64() - 36.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod fault;
pub mod flows;
pub mod time;

pub use calibrate::{CostModel, GpuSortAlgo};
pub use fault::{FaultEvent, FaultPlan};
pub use flows::{FlowId, FlowSim};
pub use time::{SimDuration, SimTime};
