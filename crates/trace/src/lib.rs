//! Cross-layer observability for the multi-GPU sorting simulator.
//!
//! The paper's findings are visibility findings — which link saturates,
//! which phase dominates, who contends with whom. This crate is the
//! instrument: a [`Recorder`] event bus that every layer feeds
//!
//! * `msort-sim`'s `FlowSim`: per-link utilization counters at each
//!   allocation epoch and per-flow lifecycle events
//!   (start / rate change / interrupt / complete);
//! * fault plans: instant fault/restore events;
//! * `msort-gpu`'s `GpuSystem`: per-stream op spans (its op timeline);
//! * `msort-serve`: per-job spans (queued → placed → executing →
//!   validated) tagged with tenant and gang
//!
//! and two exporters over the shared [`TraceData`]:
//!
//! * [`chrome_trace`] — one unified Chrome/Perfetto trace (a track group
//!   per GPU's streams, per link, per tenant);
//! * [`summarize`] / [`MetricsSummary`] — JSON/CSV aggregates (per-link
//!   mean/peak utilization, per-phase interconnect share, queue-wait vs
//!   service time).
//!
//! The recorder attaches through `msort_core::RunConfig`
//! (`.with_recorder(...)`), consumed uniformly by single-shot sorts, sort
//! drivers and the serve `SortService`.
//!
//! **Overhead contract:** a disabled recorder (the default) costs one
//! branch per instrumentation site — no allocation, no event storage —
//! and recording is purely observational: enabling it never changes a
//! simulated clock value or an output byte.
//!
//! This crate is a leaf: timestamps are plain `u64` nanoseconds (the unit
//! of `msort_sim::SimTime`), so every layer can depend on it.

#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use export::chrome_trace;
pub use json::{json_escape, json_valid};
pub use metrics::{summarize, LinkUtilization, MetricsSummary, PhaseMetrics};
pub use recorder::{groups, ArgValue, Event, EventKind, Recorder, TraceData, Track, TrackId};
