//! The executor: streams, events, and the simulated event loop.
//!
//! Programming model (deliberately CUDA-shaped):
//!
//! 1. create streams with [`GpuSystem::stream`];
//! 2. enqueue operations — each returns an [`OpId`] that doubles as an
//!    event other operations can wait on;
//! 3. operations on one stream run in FIFO order — each op implicitly
//!    waits on the op enqueued before it on its stream; across streams they
//!    run concurrently unless ordered by waits;
//! 4. [`GpuSystem::synchronize`] drives the simulation until every queue
//!    drains, advancing the simulated clock; afterwards the host code can
//!    inspect buffer contents (e.g. for pivot selection) and enqueue the
//!    next phase, exactly like a host thread calling
//!    `cudaDeviceSynchronize` between algorithm phases.
//!
//! Transfers become fluid flows (bandwidth contention handled by the
//! max-min allocator); kernels and CPU tasks get durations from the
//! calibrated cost model; the *data effect* of every operation applies at
//! its completion time, so any host-side read after a `synchronize` sees
//! exactly what real hardware would have produced.

use crate::buffer::{par_copy, BufId, Fidelity, Location, World};
use crate::primitives;
use msort_data::SortKey;
use msort_sim::{CostModel, FaultPlan, FlowId, FlowSim, GpuSortAlgo, SimDuration, SimTime};
use msort_topology::{Endpoint, FlowRequest, LinkId, Platform, Route};
use msort_trace::{groups, Recorder, TrackId};
use std::collections::{HashMap, VecDeque};

/// How many times one transfer may be interrupted by link failures before
/// the run is declared unrecoverable.
const MAX_TRANSFER_RETRIES: u32 = 8;

/// Simulated-time backoff before the first re-issue of an interrupted
/// transfer (the driver's fault-detection latency); doubles per attempt.
const RETRY_BACKOFF: SimDuration = SimDuration(10_000);

/// Handle to an enqueued operation; awaitable as an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(usize);

/// Handle to a stream (FIFO op queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

/// Experiment phase an operation belongs to; used by the harness to build
/// the paper's sort-duration breakdowns (Figures 12–14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Host-to-device copies.
    HtoD,
    /// Device-to-host copies.
    DtoH,
    /// On-GPU sorting.
    Sort,
    /// Merge work (P2P swaps + local merges, or the CPU multiway merge).
    Merge,
    /// Splitter-based bucket partitioning (sample sort's local scatter).
    Partition,
    /// Anything else (pivot selection, bookkeeping).
    Other,
}

impl Phase {
    /// Short display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::HtoD => "HtoD",
            Phase::DtoH => "DtoH",
            Phase::Sort => "sort",
            Phase::Merge => "merge",
            Phase::Partition => "partition",
            Phase::Other => "other",
        }
    }
}

/// How long an operation takes. `Transfer` and `HostFlow` durations emerge
/// from the fluid model; a `Fixed` duration is known when the op is
/// enqueued. What the op does to the bytes is its [`Effect`], which never
/// depends on the timing.
enum OpKind {
    /// A kernel, a CPU task, a device- or host-local copy (device memory
    /// bandwidth, no interconnect involved) or a modeled delay.
    Fixed(SimDuration),
    /// A flow of `bytes` along `route`.
    Transfer { route: Route, bytes: u64 },
    /// A CPU task modeled as a host-memory flow so it *contends with
    /// concurrent transfers for memory bandwidth* (the mechanism behind
    /// the paper's eager-merging slowdown). `bytes` are the total bytes
    /// the task moves; `rate_cap` is its compute-side ceiling.
    HostFlow {
        socket: usize,
        bytes: u64,
        rate_cap: f64,
    },
}

/// What an operation does to the bytes, applied at its completion time.
/// The sort and merge effects are the same code whichever device, cost
/// model or algorithm family timed the op, so a family sets a duration and
/// never an output.
enum Effect<K> {
    None,
    /// Copy `len` keys. The source is read into `staged` when the op
    /// starts and written at completion: real DMA streams the data through
    /// the transfer window, so a source overwritten mid-transfer (the
    /// 3n-approach's in-place data-transfer swap, Figure 10) must not
    /// corrupt the outgoing bytes.
    Copy {
        src: (BufId, u64),
        dst: (BufId, u64),
        len: u64,
        staged: Vec<K>,
    },
    /// Stable sort of `data[range]` by radix image
    /// ([`primitives::device_sort`]); without `aux` it allocates its own
    /// scratch.
    Sort {
        data: BufId,
        range: (u64, u64),
        aux: Option<BufId>,
    },
    /// Stable merge of the sorted runs `inputs` (buffer, offset, len) into
    /// `output` from its offset, ties to the earlier run
    /// ([`primitives::device_merge`]).
    Merge {
        inputs: Vec<(BufId, u64, u64)>,
        output: (BufId, u64),
    },
    /// Stable splitter partition of `data[range]` into contiguous buckets
    /// (sample sort's local scatter). `splitters` are `(key, position)`
    /// pairs in the global sample order.
    Partition {
        data: BufId,
        range: (u64, u64),
        aux: BufId,
        splitters: Vec<(K, u64)>,
    },
}

/// What a started, unfinished op completes (or resumes) on.
#[derive(Clone, Copy, PartialEq)]
enum Wake {
    /// A fixed-duration op (or an empty transfer) completes at this time.
    At(SimTime),
    /// A fluid flow carries the op; it completes when the flow finishes.
    Flow(FlowId),
    /// A transfer interrupted by a link failure (or blocked on a fully
    /// unroutable fabric) re-resolves its route and re-issues its
    /// remaining bytes at this time.
    Retry(SimTime),
}

struct Op<K> {
    stream: StreamId,
    name: &'static str,
    kind: OpKind,
    /// Taken when the op completes.
    effect: Option<Effect<K>>,
    phase: Phase,
    /// `None` while the op is pending.
    started: Option<SimTime>,
    /// `Some` once the op is done.
    finished: Option<SimTime>,
    /// Not-yet-fired waits (incoming dependency edges), the previous op on
    /// the op's stream among them. Readiness is a counter decrement at each
    /// dependency's completion, not a rescan of a wait list — O(edges)
    /// total instead of O(ops · edges).
    blockers: u32,
    /// Ops waiting on this one (outgoing dependency edges, absolute
    /// indices); drained when this op completes.
    subs: Vec<usize>,
    /// Times this transfer was interrupted by a link failure.
    attempts: u32,
    /// Bytes still undelivered after an interruption; `None` before the
    /// first interruption (the full logical size applies).
    pending_bytes: Option<u64>,
}

/// The virtual multi-GPU system: platform + cost model + world + executor.
pub struct GpuSystem<'p, K: SortKey> {
    flows: FlowSim<'p>,
    cost: CostModel,
    world: World<K>,
    /// Retained ops; absolute op index = `ops_base` + ring position. With
    /// op reclamation on (see [`GpuSystem::set_op_reclaim`]) completed
    /// front ops are popped, so a long-running service retains only the
    /// live window instead of every op ever enqueued.
    ops: VecDeque<Op<K>>,
    /// Absolute index of `ops[0]`; ops below it are reclaimed (and done).
    ops_base: usize,
    /// Per stream: the last op enqueued on it (absolute index). The next op
    /// on the stream waits on it, which is all FIFO order takes.
    streams: Vec<Option<usize>>,
    /// Pending ops whose waits have all fired; started by the next
    /// [`GpuSystem::start_ready_ops`] pass.
    ready: Vec<usize>,
    /// Every started, unfinished op with what it completes on. The hardware
    /// holds a handful of these (a few hundred on the largest cluster), so
    /// the event loop scans the list instead of keeping indexes over it.
    in_flight: Vec<(usize, Wake)>,
    reclaim_ops: bool,
    /// Routes resolved over a faulted fabric, keyed by endpoint pair;
    /// empty until the first fault fires (pristine routes are the
    /// platform's). Resolving each pair once is enough while the fabric's
    /// health generation (`route_cache_gen`) is unchanged — any link state
    /// change flushes the cache. The flag records whether the route is a
    /// detour from the pristine-fabric default (i.e. it routes around
    /// unhealthy links).
    route_cache: HashMap<(Endpoint, Endpoint), (Route, bool)>,
    /// Health generation the route cache was built at.
    route_cache_gen: u64,
    /// Transfers routed around unhealthy links: planned detours (the
    /// default path was unhealthy at plan time) plus mid-flight re-routes
    /// of interrupted copies.
    rerouted: u64,
    /// Transfer re-issues after link-failure interruptions.
    retries: u64,
    /// Observability sink; disabled by default. Completed ops emit spans
    /// on a per-stream track (`set_recorder` also forwards the handle to
    /// the flow engine for link/flow/fault events).
    recorder: Recorder,
    /// Per-stream span tracks, created lazily (index = stream id).
    rec_stream_tracks: Vec<TrackId>,
}

impl<'p, K: SortKey> GpuSystem<'p, K> {
    /// Create a system over `platform` at the given fidelity.
    #[must_use]
    pub fn new(platform: &'p Platform, fidelity: Fidelity) -> Self {
        Self {
            flows: FlowSim::new(platform),
            cost: CostModel::for_platform(platform),
            world: World::new(&platform.topology, fidelity),
            ops: VecDeque::new(),
            ops_base: 0,
            streams: Vec::new(),
            ready: Vec::new(),
            in_flight: Vec::new(),
            reclaim_ops: false,
            route_cache: HashMap::new(),
            route_cache_gen: 0,
            rerouted: 0,
            retries: 0,
            recorder: Recorder::disabled(),
            rec_stream_tracks: Vec::new(),
        }
    }

    /// Attach a [`Recorder`]: completed ops emit per-stream spans, and the
    /// underlying flow engine emits link-utilization counters, flow
    /// lifecycle events, and fault instants. A disabled recorder (the
    /// default) costs one branch per completed op.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.flows.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The attached recorder (disabled unless [`GpuSystem::set_recorder`]
    /// installed an enabled one).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Install a fault schedule on the underlying flow engine. A no-op for
    /// empty plans.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        self.flows.schedule_faults(plan);
    }

    /// Transfers that routed around unhealthy links (host fallback or
    /// multi-hop relay after a link fault) — planned detours plus
    /// mid-flight re-routes. 0 on a healthy fabric.
    #[must_use]
    pub fn rerouted_transfers(&self) -> u64 {
        self.rerouted
    }

    /// Transfer re-issues after link-failure interruptions.
    #[must_use]
    pub fn transfer_retries(&self) -> u64 {
        self.retries
    }

    /// The platform being simulated.
    #[must_use]
    pub fn platform(&self) -> &'p Platform {
        self.flows.platform()
    }

    /// The calibrated cost model in effect.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The buffer world (for allocation and data inspection).
    #[must_use]
    pub fn world(&self) -> &World<K> {
        &self.world
    }

    /// Mutable access to the buffer world (allocation between phases).
    pub fn world_mut(&mut self) -> &mut World<K> {
        &mut self.world
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.flows.now()
    }

    /// Create a new stream.
    pub fn stream(&mut self) -> StreamId {
        let id = StreamId(self.streams.len());
        self.streams.push(None);
        id
    }

    /// Reclaim completed ops from the front of the op ring as the
    /// simulation drains them, so a long-running service holds only the
    /// live window of operations. Reclaimed ops lose their spans:
    /// [`GpuSystem::op_span`] returns `None` and they vanish from
    /// [`GpuSystem::ops_busy`] — enable this only when
    /// the driver does not read per-op history (the serve loop doesn't).
    pub fn set_op_reclaim(&mut self, on: bool) {
        self.reclaim_ops = on;
    }

    /// Op at absolute index `idx` (must not be reclaimed).
    fn op(&self, idx: usize) -> &Op<K> {
        &self.ops[idx - self.ops_base]
    }

    fn op_mut(&mut self, idx: usize) -> &mut Op<K> {
        &mut self.ops[idx - self.ops_base]
    }

    /// `true` once the op at absolute index `idx` has completed (reclaimed
    /// ops are done by construction).
    fn op_done_idx(&self, idx: usize) -> bool {
        idx < self.ops_base || self.op(idx).finished.is_some()
    }

    /// When an operation started and finished (after `synchronize`).
    /// `None` for reclaimed ops (see [`GpuSystem::set_op_reclaim`]).
    #[must_use]
    pub fn op_span(&self, op: OpId) -> Option<(SimTime, SimTime)> {
        if op.0 < self.ops_base {
            return None;
        }
        let o = self.op(op.0);
        Some((o.started?, o.finished?))
    }

    /// The stream an operation was enqueued on.
    ///
    /// # Panics
    /// Panics if the op was reclaimed.
    #[must_use]
    pub fn op_stream(&self, op: OpId) -> StreamId {
        assert!(op.0 >= self.ops_base, "op {op:?} was reclaimed");
        self.op(op.0).stream
    }

    /// Total (simulated) time during which at least one of the given
    /// completed ops was running — the union of their intervals, which is
    /// how the paper's sort-duration breakdowns attribute time to
    /// overlapping phases. Restricted to the ops one job enqueued, so
    /// per-job phase breakdowns stay correct when several jobs share this
    /// system.
    #[must_use]
    pub fn ops_busy(&self, ops: &[OpId]) -> SimDuration {
        interval_union(
            ops.iter()
                .filter_map(|id| {
                    if id.0 < self.ops_base {
                        return None;
                    }
                    let o = self.op(id.0);
                    Some((o.started?, o.finished?))
                })
                .collect(),
        )
    }

    /// The constraint table rates are currently allocated against: the
    /// health-adjusted clone once a fault has fired, the platform's
    /// canonical table before (topology-aware placement scores candidate
    /// GPU sets against this, so degraded links repel new gangs).
    #[must_use]
    pub fn constraint_table(&self) -> &msort_topology::ConstraintTable {
        self.flows.constraint_table()
    }

    /// `true` while every link of `route` can carry traffic.
    #[must_use]
    pub fn route_usable(&self, route: &Route) -> bool {
        self.flows.route_usable(route)
    }

    // ---- enqueue API ------------------------------------------------

    /// Enqueue a copy of `len` logical keys from `(src, src_off)` to
    /// `(dst, dst_off)` on `stream`. The direction (HtoD/DtoH/DtoD/P2P)
    /// and its route follow from the buffer locations.
    #[allow(clippy::too_many_arguments)] // mirrors cudaMemcpyAsync's shape
    pub fn memcpy(
        &mut self,
        stream: StreamId,
        src: BufId,
        src_off: u64,
        dst: BufId,
        dst_off: u64,
        len: u64,
        waits: &[OpId],
        phase: Phase,
    ) -> OpId {
        let src_loc = self.world.location(src);
        let dst_loc = self.world.location(dst);
        let copy = Effect::Copy {
            src: (src, src_off),
            dst: (dst, dst_off),
            len,
            staged: Vec::new(),
        };
        let bytes = len * K::DATA_TYPE.key_bytes();
        if src_loc == dst_loc {
            // Device-local (or host-local) copy: modeled as a fixed-duration
            // task at the device's copy bandwidth, not an interconnect flow.
            let duration = match src_loc {
                Location::Gpu { index } => self
                    .cost
                    .dtod_copy(self.platform().topology.gpu_model(index), bytes),
                // Host-local memcpy at the socket's combined stream rate.
                Location::Host { .. } => {
                    SimDuration::from_secs_f64(2.0 * bytes as f64 / self.cost.cpu.merge_bw)
                }
            };
            return self.push_op(
                stream,
                waits,
                "local copy",
                OpKind::Fixed(duration),
                copy,
                phase,
            );
        }

        let route = self.cached_route(src_loc.endpoint(), dst_loc.endpoint());
        let kind = OpKind::Transfer { route, bytes };
        self.push_op(stream, waits, "copy", kind, copy, phase)
    }

    /// The route a new copy from `src` to `dst` is planned on. Until the
    /// first fault fires that is the platform's pristine route, read from
    /// its table. Afterwards it is the best route over the links that are
    /// healthy now, resolved once per pair and health generation: the cache
    /// is flushed whenever the generation moves (a fault fired or a link
    /// was restored), so routes never outlive the link states they assumed.
    fn cached_route(&mut self, src: Endpoint, dst: Endpoint) -> Route {
        let no_route = || panic!("no route from {src:?} to {dst:?}");
        let generation = self.flows.health_generation();
        if generation == 0 {
            return self.platform().route(src, dst).unwrap_or_else(no_route);
        }
        if generation != self.route_cache_gen {
            self.route_cache.clear();
            self.route_cache_gen = generation;
        }
        if let Some((route, detour)) = self.route_cache.get(&(src, dst)) {
            self.rerouted += u64::from(*detour);
            return route.clone();
        }
        // Prefer a currently healthy route. When the fabric has no path at
        // all right now, fall back to the pristine shortest path: the op
        // will retry until a scheduled restore re-opens one.
        let pristine = self.platform().route(src, dst);
        let route = self
            .resolve_route(src, dst)
            .or_else(|| pristine.clone())
            .unwrap_or_else(no_route);
        let detour = pristine.as_ref() != Some(&route);
        self.rerouted += u64::from(detour);
        self.route_cache.insert((src, dst), (route.clone(), detour));
        route
    }

    /// Best route from `src` to `dst` over the *currently healthy* links;
    /// only reached once a fault has fired (before that the platform's
    /// pristine route is the answer and nobody asks).
    ///
    /// GPU-to-GPU copies consider, besides the shortest healthy path,
    /// relaying through each intermediate GPU (the multi-hop extension's
    /// routing) and pick the candidate with the highest single-flow rate
    /// under the health-adjusted capacities — so a severed NVLink falls
    /// back to the best of "another NVLink path" and "through the host".
    fn resolve_route(&self, src: Endpoint, dst: Endpoint) -> Option<Route> {
        debug_assert_ne!(self.flows.health_generation(), 0);
        let platform = self.platform();
        let topo = &platform.topology;
        let usable = |l: LinkId| self.flows.link_usable(l);
        let direct = msort_topology::route::route_with(topo, src, dst, usable);
        if !matches!(
            (src, dst),
            (Endpoint::GpuMem { .. }, Endpoint::GpuMem { .. })
        ) {
            return direct;
        }
        let table = self.flows.constraint_table();
        let score =
            |r: &Route| msort_topology::allocate_rates(table, &[platform.flow_request(r)])[0];
        let mut best: Option<(Route, f64)> = direct.map(|r| {
            let s = score(&r);
            (r, s)
        });
        for via in 0..topo.gpu_count() {
            if let Some(r) = msort_topology::route::route_via_with(topo, src, dst, via, usable) {
                let s = score(&r);
                if best.as_ref().is_none_or(|&(_, b)| s > b) {
                    best = Some((r, s));
                }
            }
        }
        best.map(|(r, _)| r)
    }

    /// Enqueue a copy along an *explicit* route instead of the default
    /// shortest path — the mechanism behind multi-hop P2P routing (paper
    /// Section 7): a pipelined relay through an intermediate GPU occupies
    /// every hop of the relay path simultaneously, which is exactly a
    /// fluid flow over the concatenated route.
    ///
    /// # Panics
    /// Panics if the route's endpoints do not match the buffer locations.
    #[allow(clippy::too_many_arguments)] // mirrors memcpy's shape plus the route
    pub fn memcpy_route(
        &mut self,
        stream: StreamId,
        route: Route,
        src: BufId,
        src_off: u64,
        dst: BufId,
        dst_off: u64,
        len: u64,
        waits: &[OpId],
        phase: Phase,
    ) -> OpId {
        assert_eq!(
            route.src,
            self.world.location(src).endpoint(),
            "route source must match the source buffer"
        );
        assert_eq!(
            route.dst,
            self.world.location(dst).endpoint(),
            "route destination must match the destination buffer"
        );
        let kind = OpKind::Transfer {
            route,
            bytes: len * K::DATA_TYPE.key_bytes(),
        };
        let copy = Effect::Copy {
            src: (src, src_off),
            dst: (dst, dst_off),
            len,
            staged: Vec::new(),
        };
        self.push_op(stream, waits, "copy", kind, copy, phase)
    }

    /// Enqueue an on-GPU k-way merge: the sorted runs described by
    /// `inputs` (buffer, offset, len — all on the same GPU) merge into
    /// `dst[..total]`. Modeled as a pairwise merge tree (`⌈log₂ k⌉`
    /// bandwidth-bound passes). Two runs are the `thrust::merge` pattern of
    /// P2P sort's and multiway mergesort's local merges; more runs are the
    /// radix-partitioned sort's final merge.
    pub fn gpu_multiway_merge(
        &mut self,
        stream: StreamId,
        inputs: Vec<(BufId, u64, u64)>,
        dst: BufId,
        waits: &[OpId],
    ) -> OpId {
        let gpu = match self.world.location(dst) {
            Location::Gpu { index } => index,
            Location::Host { .. } => panic!("gpu_multiway_merge requires device buffers"),
        };
        let model = self.platform().topology.gpu_model(gpu);
        let total: u64 = inputs.iter().map(|&(_, _, l)| l).sum();
        let passes = (inputs.len().max(2) as f64).log2().ceil() as u32;
        let single = self.cost.gpu_merge(model, total * K::DATA_TYPE.key_bytes());
        let duration = SimDuration(single.0 * u64::from(passes.max(1)));
        let merge = Effect::Merge {
            inputs,
            output: (dst, 0),
        };
        let kind = OpKind::Fixed(duration);
        self.push_op(stream, waits, "gpu merge", kind, merge, Phase::Merge)
    }

    /// Enqueue an on-GPU sort of `data[range]` with auxiliary buffer `aux`.
    /// `algo` sets the duration; the bytes are the one stable sort of every
    /// sort op.
    pub fn gpu_sort(
        &mut self,
        stream: StreamId,
        algo: GpuSortAlgo,
        data: BufId,
        range: (u64, u64),
        aux: BufId,
        waits: &[OpId],
    ) -> OpId {
        let gpu = match self.world.location(data) {
            Location::Gpu { index } => index,
            Location::Host { .. } => panic!("gpu_sort requires a device buffer"),
        };
        debug_assert_eq!(self.world.location(aux), Location::Gpu { index: gpu });
        let model = self.platform().topology.gpu_model(gpu);
        let duration = self
            .cost
            .gpu_sort(model, algo, K::DATA_TYPE, range.1 - range.0);
        let sort = Effect::Sort {
            data,
            range,
            aux: Some(aux),
        };
        let kind = OpKind::Fixed(duration);
        self.push_op(stream, waits, "gpu sort", kind, sort, Phase::Sort)
    }

    /// Enqueue an on-GPU splitter partition of `data[range]`: the keys are
    /// stably scattered into `buckets = splitters.len() + 1` contiguous
    /// runs via `aux` (sample sort's local partition pass — one histogram
    /// pass plus one scatter pass, bandwidth-bound like a merge).
    /// Splitters are `(key, sample position)` pairs; comparison is
    /// lexicographic on the radix image so duplicate-heavy inputs still
    /// split evenly.
    pub fn gpu_partition(
        &mut self,
        stream: StreamId,
        data: BufId,
        range: (u64, u64),
        aux: BufId,
        splitters: Vec<(K, u64)>,
        waits: &[OpId],
    ) -> OpId {
        let gpu = match self.world.location(data) {
            Location::Gpu { index } => index,
            Location::Host { .. } => panic!("gpu_partition requires a device buffer"),
        };
        debug_assert_eq!(self.world.location(aux), Location::Gpu { index: gpu });
        let model = self.platform().topology.gpu_model(gpu);
        let duration = self
            .cost
            .gpu_partition(model, (range.1 - range.0) * K::DATA_TYPE.key_bytes());
        let partition = Effect::Partition {
            data,
            range,
            aux,
            splitters,
        };
        let kind = OpKind::Fixed(duration);
        self.push_op(
            stream,
            waits,
            "gpu partition",
            kind,
            partition,
            Phase::Partition,
        )
    }

    /// Enqueue a host-side splitter partition of `data[range]` into
    /// `buckets = splitters.len() + 1` contiguous runs via `aux` — the
    /// node-level bucket pass of the cross-node sort, run by the CPU over
    /// its staging buffer. Costed as one read pass plus one scatter
    /// (read + write) at the socket's combined stream rate.
    pub fn host_partition(
        &mut self,
        stream: StreamId,
        data: BufId,
        range: (u64, u64),
        aux: BufId,
        splitters: Vec<(K, u64)>,
        waits: &[OpId],
    ) -> OpId {
        assert!(
            matches!(self.world.location(data), Location::Host { .. }),
            "host_partition requires a host buffer"
        );
        debug_assert_eq!(self.world.location(aux), self.world.location(data));
        let bytes = (range.1 - range.0) * K::DATA_TYPE.key_bytes();
        let duration = SimDuration::from_secs_f64(3.0 * bytes as f64 / self.cost.cpu.merge_bw);
        let partition = Effect::Partition {
            data,
            range,
            aux,
            splitters,
        };
        let kind = OpKind::Fixed(duration);
        self.push_op(
            stream,
            waits,
            "cpu partition",
            kind,
            partition,
            Phase::Partition,
        )
    }

    /// Enqueue a fixed-duration no-effect task (pivot-selection latency,
    /// modeled overheads).
    pub fn delay(
        &mut self,
        stream: StreamId,
        duration: SimDuration,
        waits: &[OpId],
        phase: Phase,
    ) -> OpId {
        let kind = OpKind::Fixed(duration);
        self.push_op(stream, waits, "delay", kind, Effect::None, phase)
    }

    /// Enqueue a CPU sort of an entire host buffer, timed as PARADIS; the
    /// bytes are the one stable sort of every sort op.
    pub fn cpu_sort(&mut self, stream: StreamId, data: BufId, waits: &[OpId]) -> OpId {
        assert!(matches!(self.world.location(data), Location::Host { .. }));
        let n = self.world.buffer(data).len;
        let duration = self.cost.cpu_paradis(K::DATA_TYPE, n);
        let sort = Effect::Sort {
            data,
            range: (0, n),
            aux: None,
        };
        let kind = OpKind::Fixed(duration);
        self.push_op(stream, waits, "cpu sort", kind, sort, Phase::Sort)
    }

    /// Enqueue a CPU multiway merge of `inputs` (buffer, offset, len) into
    /// `output` starting at `out_off`. Modeled as a host-memory flow, so it
    /// competes with concurrent CPU-GPU transfers for memory bandwidth —
    /// the effect behind the paper's eager-merging result (Section 6.2).
    pub fn cpu_multiway_merge(
        &mut self,
        stream: StreamId,
        inputs: Vec<(BufId, u64, u64)>,
        output: BufId,
        out_off: u64,
        waits: &[OpId],
    ) -> OpId {
        let socket = match self.world.location(output) {
            Location::Host { socket } => socket,
            Location::Gpu { .. } => panic!("multiway merge output must be in host memory"),
        };
        let k = inputs.len().max(2);
        let lens: Vec<u64> = inputs.iter().map(|&(_, _, l)| l).collect();
        let out_bytes: u64 = lens.iter().sum::<u64>() * K::DATA_TYPE.key_bytes();
        let imbalance = self.cost.merge_imbalance_factor(&lens);
        let kind = OpKind::HostFlow {
            socket,
            // The merge reads + writes everything once.
            bytes: 2 * out_bytes,
            rate_cap: self.cost.cpu_merge_rate(k) * 2.0 / imbalance,
        };
        let merge = Effect::Merge {
            inputs,
            output: (output, out_off),
        };
        self.push_op(
            stream,
            waits,
            "cpu multiway merge",
            kind,
            merge,
            Phase::Merge,
        )
    }

    // ---- running ----------------------------------------------------

    /// Drive the simulation until every enqueued operation has completed.
    /// Returns the simulated time.
    ///
    /// # Panics
    /// Panics on a dependency deadlock (an op waits on something that can
    /// never fire).
    pub fn synchronize(&mut self) -> SimTime {
        self.run_inner(None, None)
    }

    /// Drive the simulation until any op in `until_any` completes or the
    /// clock reaches `deadline`, whichever comes first. An op that is
    /// already done returns immediately; with an empty `until_any` the
    /// clock advances to the deadline, processing every event (including
    /// scheduled faults) on the way.
    ///
    /// This is the multi-job entry point: a scheduler holding several
    /// in-flight sorts on one shared system advances the single clock to
    /// its next decision point — a job frontier completing or a new job
    /// arriving — without draining the other jobs' work as
    /// [`GpuSystem::synchronize`] would.
    ///
    /// # Panics
    /// Panics when called without any stop condition, or when no deadline
    /// is given and the awaited ops can never complete.
    pub fn run_until(&mut self, until_any: &[OpId], deadline: Option<SimTime>) -> SimTime {
        assert!(
            !until_any.is_empty() || deadline.is_some(),
            "run_until needs at least one awaited op or a deadline"
        );
        self.run_inner(Some(until_any), deadline)
    }

    /// `true` once `op` has completed.
    #[must_use]
    pub fn op_done(&self, op: OpId) -> bool {
        self.op_done_idx(op.0)
    }

    fn run_inner(&mut self, stop_ops: Option<&[OpId]>, deadline: Option<SimTime>) -> SimTime {
        loop {
            self.reissue_due_retries();
            self.start_ready_ops();
            if let Some(ops) = stop_ops {
                if ops.iter().any(|o| self.op_done(*o)) {
                    return self.flows.now();
                }
            }
            if deadline.is_some_and(|d| self.flows.now() >= d) {
                return self.flows.now();
            }
            // Next event: the earliest fixed completion or retry in flight,
            // or the earliest flow completion.
            let mut next = self
                .in_flight
                .iter()
                .filter_map(|&(_, wake)| match wake {
                    Wake::At(t) | Wake::Retry(t) => Some(t),
                    Wake::Flow(_) => None,
                })
                .min();
            if let Some((t, _)) = self.flows.next_completion() {
                if next.is_none_or(|n| t < n) {
                    next = Some(t);
                }
            }
            let Some(mut t) = next else {
                // Nothing running. With a deadline, idle-advance the clock
                // toward it (scheduled faults still fire on the way, one
                // step at a time so the loop re-checks state after each).
                if let Some(d) = deadline {
                    let step = match self.flows.next_fault_at() {
                        Some(tf) if tf < d => tf,
                        _ => d,
                    };
                    self.flows.advance_to(step);
                    continue;
                }
                // No deadline: either all done or deadlocked.
                let stuck: Vec<usize> = self
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.finished.is_none())
                    .map(|(i, _)| self.ops_base + i)
                    .collect();
                if stop_ops.is_some() {
                    panic!(
                        "run_until: nothing is running and none of the awaited ops \
                         completed (stuck ops: {stuck:?})"
                    );
                }
                assert!(
                    stuck.is_empty(),
                    "deadlock: ops {stuck:?} can never become ready"
                );
                return self.flows.now();
            };
            if let Some(d) = deadline {
                if t > d {
                    t = d;
                }
            }
            // Never step past a scheduled fault in one advance: completion
            // times predicted under pre-fault rates are only valid up to it.
            if let Some(tf) = self.flows.next_fault_at() {
                if tf < t {
                    t = tf;
                }
            }

            let finished_flows = self.flows.advance_to(t);
            // Transfers whose flow a link failure truncated go into backoff
            // before completing anything (their flows are *not* finished).
            self.handle_interrupted_flows();
            // Complete flow-backed ops, in the order the flows finished.
            for fid in finished_flows {
                let (idx, _) = self.in_flight.swap_remove(self.flow_slot(fid));
                self.complete_op(idx, t);
            }
            // Then the fixed ops due now, in (end, index) order: ops ending
            // together apply their effects in the order they were enqueued.
            let mut due = Vec::new();
            self.in_flight.retain(|&(idx, wake)| match wake {
                Wake::At(end) if end <= t => {
                    due.push((end, idx));
                    false
                }
                _ => true,
            });
            due.sort_unstable();
            for (_, idx) in due {
                self.complete_op(idx, t);
            }
            // With reclamation on, drop the completed prefix of the op ring
            // (spans for those ops are gone — see `set_op_reclaim`).
            if self.reclaim_ops {
                while matches!(self.ops.front(), Some(o) if o.finished.is_some()) {
                    self.ops.pop_front();
                    self.ops_base += 1;
                }
            }
        }
    }

    /// Position in `in_flight` of the op the flow `fid` carries.
    fn flow_slot(&self, fid: FlowId) -> usize {
        self.in_flight
            .iter()
            .position(|&(_, wake)| wake == Wake::Flow(fid))
            .expect("every flow in flight carries an op")
    }

    /// Put every op whose flow was truncated by a link failure into
    /// exponential (simulated-time) backoff; the re-issue happens in
    /// [`GpuSystem::reissue_due_retries`] once the backoff expires.
    fn handle_interrupted_flows(&mut self) {
        let now = self.flows.now();
        for (fid, remaining) in self.flows.take_interrupted() {
            let pos = self.flow_slot(fid);
            let idx = self.in_flight[pos].0;
            let attempts = {
                let op = self.op_mut(idx);
                op.attempts += 1;
                op.attempts
            };
            if attempts > MAX_TRANSFER_RETRIES {
                panic!(
                    "transfer op {idx} was interrupted {attempts} times; giving up\nlink health:\n{}",
                    self.flows
                        .health()
                        .map_or_else(String::new, |h| h.describe(&self.platform().topology))
                );
            }
            let backoff = SimDuration(RETRY_BACKOFF.0 << (attempts - 1));
            self.op_mut(idx).pending_bytes = Some(remaining);
            self.in_flight[pos].1 = Wake::Retry(now + backoff);
            self.retries += 1;
        }
    }

    /// Re-issue every retrying transfer whose backoff has expired, in
    /// (at, index) order. Due entries are collected before any launch: a
    /// re-issue that finds the fabric still unroutable re-parks at the
    /// *same* next-fault instant, and must wait for the next pass.
    fn reissue_due_retries(&mut self) {
        let now = self.flows.now();
        let mut due: Vec<(SimTime, usize, usize)> = self
            .in_flight
            .iter()
            .enumerate()
            .filter_map(|(pos, &(idx, wake))| match wake {
                Wake::Retry(at) if at <= now => Some((at, idx, pos)),
                _ => None,
            })
            .collect();
        due.sort_unstable();
        for (_, idx, pos) in due {
            self.in_flight[pos].1 = self.launch_transfer(idx);
        }
    }

    fn push_op(
        &mut self,
        stream: StreamId,
        waits: &[OpId],
        name: &'static str,
        kind: OpKind,
        effect: Effect<K>,
        phase: Phase,
    ) -> OpId {
        let id = self.ops_base + self.ops.len();
        // Register the dependency edges now — the explicit waits plus the
        // previous op on the stream: each unfinished wait gets a subscriber
        // entry pointing back at this op, and the blocker count is what
        // readiness checks against (O(1) per completion instead of
        // rescanning the wait list). A wait on this op itself or a
        // not-yet-enqueued op can never fire — count it as a permanent
        // blocker so `synchronize` reports the deadlock.
        let prev = self.streams[stream.0].replace(id);
        let mut blockers = 0u32;
        for w in waits.iter().map(|w| w.0).chain(prev) {
            if w >= id {
                blockers += 1;
            } else if !self.op_done_idx(w) {
                self.op_mut(w).subs.push(id);
                blockers += 1;
            }
        }
        self.ops.push_back(Op {
            stream,
            name,
            kind,
            effect: Some(effect),
            phase,
            started: None,
            finished: None,
            blockers,
            subs: Vec::new(),
            attempts: 0,
            pending_bytes: None,
        });
        if blockers == 0 {
            self.ready.push(id);
        }
        OpId(id)
    }

    fn start_ready_ops(&mut self) {
        // Starting an op never readies another within the same instant
        // (zero-duration completions go through the outer event loop), so
        // one pass suffices. A stream holds at most one ready op — its
        // successors wait on it — so stream order is a total order here.
        let mut ready = std::mem::take(&mut self.ready);
        ready.sort_unstable_by_key(|&idx| self.op(idx).stream.0);
        for &idx in &ready {
            self.start_op(idx);
        }
        ready.clear();
        self.ready = ready;
    }

    fn start_op(&mut self, idx: usize) {
        let now = self.flows.now();
        let op = &mut self.ops[idx - self.ops_base];
        op.started = Some(now);
        // Copies stage their source bytes now (see `Effect::Copy`).
        if let Some(Effect::Copy {
            src, len, staged, ..
        }) = &mut op.effect
        {
            *staged = self.world.slice(src.0, src.1, *len).to_vec();
        }
        let wake = match &self.op(idx).kind {
            OpKind::Transfer { .. } => self.launch_transfer(idx),
            OpKind::Fixed(duration) => Wake::At(now + *duration),
            OpKind::HostFlow {
                socket,
                bytes,
                rate_cap,
            } => {
                // The flow's byte count is *total* memory traffic (reads +
                // writes), so it loads the read and write caps with weight
                // 1/2 each (half the traffic goes each way) and the
                // combined cap with weight 1.
                let route = Route {
                    src: msort_topology::Endpoint::HostMem { socket: *socket },
                    dst: msort_topology::Endpoint::HostMem { socket: *socket },
                    hops: Vec::new(),
                };
                let table = self.platform().constraint_table();
                let mut constraints = table.route_constraints(&self.platform().topology, &route);
                let mut seen_combined = false;
                constraints.retain_mut(|(id, weight)| {
                    use msort_topology::constraint::ConstraintKind as CK;
                    match table.constraints()[id.0].kind {
                        CK::MemRead { .. } | CK::MemWrite { .. } => {
                            *weight = 0.5;
                            true
                        }
                        CK::MemCombined { .. } => {
                            let keep = !seen_combined;
                            seen_combined = true;
                            keep
                        }
                        _ => true,
                    }
                });
                let request = FlowRequest {
                    constraints,
                    rate_cap: Some(*rate_cap),
                };
                Wake::Flow(self.flows.start_request(request, *bytes))
            }
        };
        self.in_flight.push((idx, wake));
    }

    /// Start (or re-start after an interruption) the flow backing a
    /// transfer op, and return what the op now completes on. If the op's
    /// planned route crosses a failed link, the route is re-resolved over
    /// the healthy fabric first; if no path exists at all, the op retries
    /// at the next scheduled fault event (a restore may re-open one).
    fn launch_transfer(&mut self, idx: usize) -> Wake {
        let now = self.flows.now();
        let (route, bytes) = match &self.op(idx).kind {
            OpKind::Transfer { route, bytes } => (route.clone(), *bytes),
            _ => unreachable!("launch_transfer drives transfer ops only"),
        };
        let bytes = self.op(idx).pending_bytes.unwrap_or(bytes);
        if bytes == 0 {
            return Wake::At(now);
        }
        let route = if self.flows.route_usable(&route) {
            route
        } else if let Some(r) = self.resolve_route(route.src, route.dst) {
            self.rerouted += 1;
            if let OpKind::Transfer { route: stored, .. } = &mut self.op_mut(idx).kind {
                *stored = r.clone();
            }
            r
        } else {
            // No usable path right now. A scheduled restore may re-open one;
            // park until the next fault event and try again then.
            let Some(at) = self.flows.next_fault_at() else {
                panic!(
                    "transfer op {idx} has no usable route and no scheduled restore\nlink health:\n{}",
                    self.flows
                        .health()
                        .map_or_else(String::new, |h| h.describe(&self.platform().topology))
                );
            };
            return Wake::Retry(at);
        };
        Wake::Flow(self.flows.start(&route, bytes))
    }

    fn complete_op(&mut self, idx: usize, t: SimTime) {
        {
            let op = self.op_mut(idx);
            debug_assert!(op.started.is_some(), "op {idx} completes before it started");
            debug_assert!(op.finished.is_none(), "op {idx} completes twice");
            debug_assert_eq!(op.blockers, 0, "op {idx} completes with waits unfired");
            op.finished = Some(t);
        }
        // Wake the dependents (the next op on this op's stream among them):
        // each subscriber loses a blocker, and one left with none is ready.
        let subs = std::mem::take(&mut self.op_mut(idx).subs);
        for sub in subs {
            let op = self.op_mut(sub);
            op.blockers -= 1;
            if op.blockers == 0 {
                self.ready.push(sub);
            }
        }
        if self.recorder.is_enabled() {
            let sid = self.op(idx).stream.0;
            while self.rec_stream_tracks.len() <= sid {
                let n = self.rec_stream_tracks.len();
                self.rec_stream_tracks
                    .push(self.recorder.track(groups::GPU, &format!("stream {n}")));
            }
            let op = self.op(idx);
            self.recorder.span(
                self.rec_stream_tracks[sid],
                op.name,
                op.phase.label(),
                op.started.expect("completed op has started").0,
                t.0,
            );
        }
        let effect = self.op_mut(idx).effect.take().expect("op completes once");
        self.apply_effect(effect);
    }

    /// Apply a completed op's data effect, right here on the driver thread.
    /// Ops complete in simulated-time order, so effects apply in that order
    /// too; the kernels split large inputs over the shared worker pool by
    /// input size alone ([`primitives::PARALLEL_MIN_KEYS`]).
    fn apply_effect(&mut self, effect: Effect<K>) {
        match effect {
            Effect::None => {}
            Effect::Copy {
                dst, len, staged, ..
            } => {
                let dst_off = self.world.physical(dst.1);
                let l = self.world.physical(len);
                par_copy(
                    &mut self.world.data_mut(dst.0)[dst_off..dst_off + l],
                    &staged,
                );
            }
            Effect::Sort { data, range, aux } => {
                let lo = self.world.physical(range.0);
                let hi = self.world.physical(range.1);
                match aux {
                    Some(aux) => {
                        let (d, a) = self.world.two_mut(data, aux);
                        primitives::device_sort(&mut d[lo..hi], &mut a[..hi - lo]);
                    }
                    None => {
                        let d = &mut self.world.data_mut(data)[lo..hi];
                        let mut a = d.to_vec();
                        primitives::device_sort(d, &mut a);
                    }
                }
            }
            Effect::Merge { inputs, output } => {
                let out_off = self.world.physical(output.1);
                self.apply_merge(&inputs, output.0, out_off);
            }
            Effect::Partition {
                data,
                range,
                aux,
                splitters,
            } => {
                let lo = self.world.physical(range.0);
                let hi = self.world.physical(range.1);
                let (d, a) = self.world.two_mut(data, aux);
                primitives::device_partition(&mut d[lo..hi], &mut a[..hi - lo], &splitters);
            }
        }
    }

    /// Zero-copy merge: the output payload leaves the world for the call,
    /// so every input window in another buffer is a plain borrow of the
    /// world. A window living in the output buffer itself is copied first —
    /// the merge would otherwise overwrite unread input.
    fn apply_merge(&mut self, inputs: &[(BufId, u64, u64)], out_buf: BufId, out_off: usize) {
        let mut out = std::mem::take(self.world.data_mut(out_buf));
        let world = &self.world;
        let owned: Vec<Option<Vec<K>>> = inputs
            .iter()
            .map(|&(b, off, len)| {
                (b == out_buf).then(|| {
                    let o = world.physical(off);
                    out[o..o + world.physical(len)].to_vec()
                })
            })
            .collect();
        let runs: Vec<&[K]> = inputs
            .iter()
            .zip(&owned)
            .map(|(&(b, off, len), copy)| match copy {
                Some(copy) => copy.as_slice(),
                None => world.slice(b, off, len),
            })
            .collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        primitives::device_merge(&runs, &mut out[out_off..out_off + total]);
        *self.world.data_mut(out_buf) = out;
    }
}

/// Total time covered by at least one of `intervals` (the busy-time union
/// behind [`GpuSystem::ops_busy`]).
fn interval_union(mut intervals: Vec<(SimTime, SimTime)>) -> SimDuration {
    intervals.sort_unstable();
    let mut total = SimDuration::ZERO;
    let mut cursor: Option<(SimTime, SimTime)> = None;
    for (s, e) in intervals {
        match cursor {
            None => cursor = Some((s, e)),
            Some((cs, ce)) => {
                if s <= ce {
                    cursor = Some((cs, ce.max(e)));
                } else {
                    total += ce.since(cs);
                    cursor = Some((s, e));
                }
            }
        }
    }
    if let Some((cs, ce)) = cursor {
        total += ce.since(cs);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, is_sorted, same_multiset, Distribution};
    use msort_topology::Platform;

    fn system(platform: &Platform) -> GpuSystem<'_, u32> {
        GpuSystem::new(platform, Fidelity::Full)
    }

    #[test]
    fn htod_sort_dtoh_roundtrip() {
        let p = Platform::test_pcie(1);
        let mut sys = system(&p);
        let input: Vec<u32> = generate(Distribution::Uniform, 4096, 7);
        let host = sys.world_mut().import_host(0, input.clone(), 4096);
        let out = sys.world_mut().alloc_host(0, 4096);
        let dev = sys.world_mut().alloc_gpu(0, 4096);
        let aux = sys.world_mut().alloc_gpu(0, 4096);
        let s = sys.stream();
        let up = sys.memcpy(s, host, 0, dev, 0, 4096, &[], Phase::HtoD);
        let sort = sys.gpu_sort(s, GpuSortAlgo::ThrustLike, dev, (0, 4096), aux, &[up]);
        sys.memcpy(s, dev, 0, out, 0, 4096, &[sort], Phase::DtoH);
        let end = sys.synchronize();
        assert!(end > SimTime::ZERO);
        let sorted = sys.world().slice(out, 0, 4096).to_vec();
        assert!(is_sorted(&sorted));
        assert!(same_multiset(&input, &sorted));
    }

    #[test]
    fn stream_order_is_fifo() {
        let p = Platform::test_pcie(1);
        let mut sys = system(&p);
        let a = sys.world_mut().import_host(0, vec![1u32; 1024], 1024);
        let dev = sys.world_mut().alloc_gpu(0, 1024);
        let s = sys.stream();
        let op1 = sys.memcpy(s, a, 0, dev, 0, 1024, &[], Phase::HtoD);
        let op2 = sys.memcpy(s, dev, 0, a, 0, 1024, &[], Phase::DtoH);
        sys.synchronize();
        let (s1, e1) = sys.op_span(op1).unwrap();
        let (s2, _) = sys.op_span(op2).unwrap();
        assert!(s1 < s2);
        assert!(e1 <= s2, "op2 must not start before op1 completes");
    }

    #[test]
    fn equal_time_completions_apply_in_enqueue_order() {
        // Two equal device-local copies into one buffer end at the same
        // instant. The one on the lower stream starts first, but the one
        // enqueued later completes last, so its bytes are what `d` holds.
        let p = Platform::dgx_a100();
        let mut sys = system(&p);
        let n: u64 = 1 << 10;
        let a = sys.world_mut().alloc_gpu(0, n);
        let b = sys.world_mut().alloc_gpu(0, n);
        let d = sys.world_mut().alloc_gpu(0, n);
        sys.world.data_mut(a).fill(1);
        sys.world.data_mut(b).fill(2);
        let s_lo = sys.stream();
        let s_hi = sys.stream();
        let first = sys.memcpy(s_hi, a, 0, d, 0, n, &[], Phase::Merge);
        let second = sys.memcpy(s_lo, b, 0, d, 0, n, &[], Phase::Merge);
        sys.synchronize();
        assert_eq!(sys.op_span(first), sys.op_span(second));
        assert!(sys.world().slice(d, 0, n).iter().all(|&k| k == 2));
    }

    #[test]
    fn cross_stream_ops_overlap() {
        let p = Platform::test_pcie(2);
        let mut sys = system(&p);
        let h = sys.world_mut().import_host(0, vec![3u32; 1 << 20], 1 << 20);
        let d0 = sys.world_mut().alloc_gpu(0, 1 << 20);
        let d1 = sys.world_mut().alloc_gpu(1, 1 << 20);
        let s0 = sys.stream();
        let s1 = sys.stream();
        let a = sys.memcpy(s0, h, 0, d0, 0, 1 << 20, &[], Phase::HtoD);
        let b = sys.memcpy(s1, h, 0, d1, 0, 1 << 20, &[], Phase::HtoD);
        sys.synchronize();
        let (sa, ea) = sys.op_span(a).unwrap();
        let (sb, eb) = sys.op_span(b).unwrap();
        assert_eq!(sa, sb, "independent streams start together");
        // Independent 13 GB/s links: same duration.
        assert_eq!(ea, eb);
    }

    #[test]
    fn waits_across_streams_are_honored() {
        let p = Platform::test_pcie(2);
        let mut sys = system(&p);
        let h = sys.world_mut().import_host(0, vec![9u32; 4096], 4096);
        let d0 = sys.world_mut().alloc_gpu(0, 4096);
        let d1 = sys.world_mut().alloc_gpu(1, 4096);
        let s0 = sys.stream();
        let s1 = sys.stream();
        let a = sys.memcpy(s0, h, 0, d0, 0, 4096, &[], Phase::HtoD);
        let b = sys.memcpy(s1, h, 0, d1, 0, 4096, &[a], Phase::HtoD);
        sys.synchronize();
        let (_, ea) = sys.op_span(a).unwrap();
        let (sb, _) = sys.op_span(b).unwrap();
        assert!(sb >= ea);
    }

    #[test]
    fn p2p_copy_moves_data() {
        let p = Platform::dgx_a100();
        let mut sys = system(&p);
        let d0 = sys.world_mut().alloc_gpu(0, 1024);
        let d5 = sys.world_mut().alloc_gpu(5, 1024);
        // Put recognizable data on GPU 0 without a host transfer.
        let h = sys
            .world_mut()
            .import_host(0, (0..1024u32).rev().collect(), 1024);
        let s = sys.stream();
        let up = sys.memcpy(s, h, 0, d0, 0, 1024, &[], Phase::HtoD);
        sys.memcpy(s, d0, 0, d5, 0, 1024, &[up], Phase::Merge);
        sys.synchronize();
        assert_eq!(sys.world().slice(d5, 0, 3), &[1023, 1022, 1021]);
    }

    #[test]
    fn dtod_local_copy_is_fast() {
        let p = Platform::dgx_a100();
        let mut sys = system(&p);
        let d0 = sys.world_mut().alloc_gpu(0, 1 << 22);
        let d0b = sys.world_mut().alloc_gpu(0, 1 << 22);
        let s = sys.stream();
        let local = sys.memcpy(s, d0, 0, d0b, 0, 1 << 22, &[], Phase::Merge);
        sys.synchronize();
        let (st, en) = sys.op_span(local).unwrap();
        // 16 MiB at 840 GB/s: ~20 us.
        let secs = (en - st).as_secs_f64();
        assert!(secs < 1e-4, "{secs}");
        assert!(secs > 0.0);
    }

    #[test]
    fn cpu_multiway_merge_effect_and_duration() {
        let p = Platform::dgx_a100();
        let mut sys = system(&p);
        let mut runs: Vec<u32> = Vec::new();
        let a: Vec<u32> = (0..512).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..512).map(|x| x * 2 + 1).collect();
        runs.extend_from_slice(&a);
        runs.extend_from_slice(&b);
        let src = sys.world_mut().import_host(0, runs, 1024);
        let out = sys.world_mut().alloc_host(0, 1024);
        let s = sys.stream();
        sys.cpu_multiway_merge(s, vec![(src, 0, 512), (src, 512, 512)], out, 0, &[]);
        let end = sys.synchronize();
        assert!(end > SimTime::ZERO);
        let merged = sys.world().slice(out, 0, 1024).to_vec();
        assert!(is_sorted(&merged));
        assert_eq!(merged[0], 0);
        assert_eq!(merged[1023], 1023);
    }

    #[test]
    fn multiway_merge_copies_windows_living_in_the_output_buffer() {
        let p = Platform::dgx_a100();
        let mut sys = system(&p);
        // In place: both runs sit where the merged output goes.
        let h = sys
            .world_mut()
            .import_host(0, vec![4u32, 5, 6, 7, 0, 1, 2, 3], 8);
        let s = sys.stream();
        sys.cpu_multiway_merge(s, vec![(h, 0, 4), (h, 4, 4)], h, 0, &[]);
        sys.synchronize();
        assert_eq!(sys.world().slice(h, 0, 8), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn cpu_sort_sorts_host_buffer() {
        let p = Platform::ibm_ac922();
        let mut sys = system(&p);
        let input: Vec<u32> = generate(Distribution::ReverseSorted, 2048, 3);
        let h = sys.world_mut().import_host(0, input.clone(), 2048);
        let s = sys.stream();
        sys.cpu_sort(s, h, &[]);
        sys.synchronize();
        let sorted = sys.world().slice(h, 0, 2048).to_vec();
        assert!(is_sorted(&sorted));
        assert!(same_multiset(&input, &sorted));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn circular_wait_panics() {
        let p = Platform::test_pcie(1);
        let mut sys = system(&p);
        let h = sys.world_mut().import_host(0, vec![1u32; 16], 16);
        let d = sys.world_mut().alloc_gpu(0, 16);
        let s0 = sys.stream();
        let s1 = sys.stream();
        // op_b waits on op_c which is behind op_b's... build a cross-stream
        // cycle: b (s0) waits on c (s1); c waits on b.
        let b_id = OpId(0);
        let c = sys.memcpy(s1, h, 0, d, 0, 16, &[b_id], Phase::HtoD);
        let _b = sys.memcpy(s0, h, 0, d, 0, 16, &[c], Phase::HtoD);
        sys.synchronize();
    }

    #[test]
    fn sampled_fidelity_sorts_sample() {
        let p = Platform::test_pcie(1);
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Sampled { scale: 4 });
        let sample: Vec<u32> = generate(Distribution::Uniform, 256, 5);
        let h = sys.world_mut().import_host(0, sample, 1024);
        let d = sys.world_mut().alloc_gpu(0, 1024);
        let aux = sys.world_mut().alloc_gpu(0, 1024);
        let s = sys.stream();
        let up = sys.memcpy(s, h, 0, d, 0, 1024, &[], Phase::HtoD);
        let so = sys.gpu_sort(s, GpuSortAlgo::CubLike, d, (0, 1024), aux, &[up]);
        sys.memcpy(s, d, 0, h, 0, 1024, &[so], Phase::DtoH);
        sys.synchronize();
        assert!(is_sorted(sys.world().slice(h, 0, 1024)));
        assert_eq!(sys.world().buffer(h).data.len(), 256);
    }

    #[test]
    fn link_down_mid_transfer_retries_after_restore() {
        // One GPU on a single PCIe uplink: kill the only link mid-copy, the
        // transfer must park (no alternative route) and finish after the
        // scheduled restore with the data intact.
        let p = Platform::test_pcie(1);
        let mut sys = system(&p);
        let n: u64 = 1 << 20;
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 11);
        let h = sys.world_mut().import_host(0, input.clone(), n);
        let d = sys.world_mut().alloc_gpu(0, n);
        let topo = &p.topology;
        let link = topo.link_between(topo.cpu(0), topo.gpu(0)).unwrap();
        let plan = FaultPlan::new()
            .link_down(SimTime(50_000), link)
            .link_restore(SimTime(400_000), link);
        sys.schedule_faults(&plan);
        let s = sys.stream();
        sys.memcpy(s, h, 0, d, 0, n, &[], Phase::HtoD);
        let end = sys.synchronize();
        assert!(sys.transfer_retries() >= 1, "the copy must be interrupted");
        assert_eq!(sys.rerouted_transfers(), 0, "only one possible route");
        assert!(end > SimTime(400_000), "must finish after the restore");
        assert_eq!(sys.world().slice(d, 0, n), &input[..]);
    }

    #[test]
    fn nvlink_failure_reroutes_p2p_copy() {
        // DELTA's 0--2 NVLink dies while a 0->2 P2P copy is in flight: the
        // retry must come back on a different (relay or host) route and
        // still deliver the bytes.
        let p = Platform::delta_d22x();
        let mut sys = system(&p);
        let n: u64 = 1 << 20;
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 13);
        let h = sys.world_mut().import_host(0, input.clone(), n);
        let d0 = sys.world_mut().alloc_gpu(0, n);
        let d2 = sys.world_mut().alloc_gpu(2, n);
        let topo = &p.topology;
        let link = topo.link_between(topo.gpu(0), topo.gpu(2)).unwrap();
        let s = sys.stream();
        let up = sys.memcpy(s, h, 0, d0, 0, n, &[], Phase::HtoD);
        sys.synchronize();
        // Kill the link a third of the way into the P2P copy.
        let start = sys.now();
        sys.schedule_faults(&FaultPlan::new().link_down(SimTime(start.0 + 30_000), link));
        sys.memcpy(s, d0, 0, d2, 0, n, &[up], Phase::Merge);
        sys.synchronize();
        assert!(sys.transfer_retries() >= 1, "the copy must be interrupted");
        assert!(
            sys.rerouted_transfers() >= 1,
            "the retry must take a different route"
        );
        assert_eq!(sys.world().slice(d2, 0, n), &input[..]);
    }

    /// Routes of the transfer ops whose flow is in flight right now.
    fn in_flight_routes(sys: &GpuSystem<'_, u32>) -> Vec<Route> {
        sys.in_flight
            .iter()
            .filter(|&&(_, wake)| !matches!(wake, Wake::Retry(_)))
            .filter_map(|&(idx, _)| match &sys.op(idx).kind {
                OpKind::Transfer { route, .. } => Some(route.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn restored_link_gets_the_pristine_route_back() {
        // DELTA's 0--2 NVLink goes down and comes back. The platform's
        // route table keeps the route over it throughout, so: while the
        // link is down no copy may be planned or running on that route,
        // and once it is back (generation != 0, every link up) new copies
        // get the table's route again without counting as re-routed.
        let p = Platform::delta_d22x();
        let mut sys = system(&p);
        let n: u64 = 1 << 20;
        let d0 = sys.world_mut().alloc_gpu(0, n);
        let d2 = sys.world_mut().alloc_gpu(2, n);
        let topo = &p.topology;
        let link = topo.link_between(topo.gpu(0), topo.gpu(2)).unwrap();
        let pristine = p.route(Endpoint::gpu(0), Endpoint::gpu(2)).unwrap();
        assert!(pristine.hops.iter().any(|h| h.link == link));
        sys.schedule_faults(
            &FaultPlan::new()
                .link_down(SimTime(30_000), link)
                .link_restore(SimTime(200_000), link),
        );

        // Planned on the pristine fabric, in flight when the link dies.
        let s0 = sys.stream();
        sys.memcpy(s0, d0, 0, d2, 0, n, &[], Phase::Merge);
        assert_eq!(in_flight_routes(&sys), []);
        sys.run_until(&[], Some(SimTime(1)));
        assert_eq!(in_flight_routes(&sys), std::slice::from_ref(&pristine));

        // Down: the interrupted copy is back on a detour, and a copy
        // enqueued now is planned on one.
        sys.run_until(&[], Some(SimTime(50_000)));
        assert_eq!(sys.transfer_retries(), 1);
        assert_eq!(sys.rerouted_transfers(), 1);
        let s1 = sys.stream();
        sys.memcpy(s1, d0, 0, d2, 0, n, &[], Phase::Merge);
        assert_eq!(sys.rerouted_transfers(), 2);
        sys.run_until(&[], Some(SimTime(60_000)));
        let running = in_flight_routes(&sys);
        assert_eq!(running.len(), 2);
        for route in &running {
            assert!(sys.route_usable(route), "{route:?} crosses the dead link");
            assert_ne!(route, &pristine);
        }

        // Restored: the fabric is whole but no longer pristine.
        sys.synchronize();
        assert!(sys.now() > SimTime(200_000));
        assert_ne!(sys.flows.health_generation(), 0);
        assert!(sys.flows.health().unwrap().all_up());
        sys.memcpy(s0, d0, 0, d2, 0, n, &[], Phase::Merge);
        sys.run_until(&[], Some(SimTime(sys.now().0 + 1)));
        assert_eq!(in_flight_routes(&sys), [pristine]);
        assert_eq!(sys.rerouted_transfers(), 2);
        sys.synchronize();
    }

    #[test]
    fn degraded_link_slows_transfer_down() {
        let n: u64 = 1 << 20;
        let mut ends = Vec::new();
        for degrade in [false, true] {
            let p = Platform::test_pcie(1);
            let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
            let h = sys.world_mut().import_host(0, vec![5u32; n as usize], n);
            let d = sys.world_mut().alloc_gpu(0, n);
            if degrade {
                let link = p
                    .topology
                    .link_between(p.topology.cpu(0), p.topology.gpu(0));
                sys.schedule_faults(&FaultPlan::new().link_degrade(SimTime(1), link.unwrap(), 0.5));
            }
            let s = sys.stream();
            sys.memcpy(s, h, 0, d, 0, n, &[], Phase::HtoD);
            ends.push(sys.synchronize());
            assert_eq!(sys.world().slice(d, 0, 4), &[5, 5, 5, 5]);
        }
        assert!(
            ends[1] > ends[0],
            "half capacity must not be faster: {ends:?}"
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let mut ends = Vec::new();
        for schedule in [false, true] {
            let p = Platform::dgx_a100();
            let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
            let h = sys.world_mut().import_host(0, vec![7u32; 4096], 4096);
            let d = sys.world_mut().alloc_gpu(0, 4096);
            if schedule {
                sys.schedule_faults(&FaultPlan::new());
            }
            let s = sys.stream();
            sys.memcpy(s, h, 0, d, 0, 4096, &[], Phase::HtoD);
            ends.push(sys.synchronize());
            assert_eq!(sys.transfer_retries(), 0);
            assert_eq!(sys.rerouted_transfers(), 0);
        }
        assert_eq!(ends[0], ends[1]);
    }

    #[test]
    fn timing_independent_of_fidelity() {
        // The same workload at full and sampled fidelity must produce the
        // same simulated duration (timing uses logical bytes only).
        let p = Platform::ibm_ac922();
        let mut end_times = Vec::new();
        for fidelity in [Fidelity::Full, Fidelity::Sampled { scale: 16 }] {
            let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, fidelity);
            let n: u64 = 1 << 20;
            let phys = (n / fidelity.scale()) as usize;
            let h = sys
                .world_mut()
                .import_host(0, generate(Distribution::Uniform, phys, 9), n);
            let d = sys.world_mut().alloc_gpu(0, n);
            let aux = sys.world_mut().alloc_gpu(0, n);
            let s = sys.stream();
            let up = sys.memcpy(s, h, 0, d, 0, n, &[], Phase::HtoD);
            let so = sys.gpu_sort(s, GpuSortAlgo::ThrustLike, d, (0, n), aux, &[up]);
            sys.memcpy(s, d, 0, h, 0, n, &[so], Phase::DtoH);
            end_times.push(sys.synchronize());
        }
        assert_eq!(end_times[0], end_times[1]);
    }

    /// A two-stream workload with cross-stream dependencies. Returns each
    /// op with the display name and phase it was enqueued under, in
    /// enqueue order.
    fn two_stream_workload(sys: &mut GpuSystem<'_, u32>) -> Vec<(OpId, &'static str, Phase)> {
        let n: u64 = 1 << 12;
        let h = sys
            .world_mut()
            .import_host(0, (0..n as u32).rev().collect(), n);
        let d0 = sys.world_mut().alloc_gpu(0, n);
        let a0 = sys.world_mut().alloc_gpu(0, n);
        let d1 = sys.world_mut().alloc_gpu(1, n);
        let s0 = sys.stream();
        let s1 = sys.stream();
        let up0 = sys.memcpy(s0, h, 0, d0, 0, n, &[], Phase::HtoD);
        let so = sys.gpu_sort(s0, GpuSortAlgo::ThrustLike, d0, (0, n), a0, &[up0]);
        let up1 = sys.memcpy(s1, h, 0, d1, 0, n, &[], Phase::HtoD);
        let p2p = sys.memcpy(s1, d0, 0, d1, 0, n, &[so], Phase::Merge);
        let down = sys.memcpy(s0, d0, 0, h, 0, n, &[so], Phase::DtoH);
        sys.synchronize();
        vec![
            (up0, "copy", Phase::HtoD),
            (so, "gpu sort", Phase::Sort),
            (up1, "copy", Phase::HtoD),
            (p2p, "copy", Phase::Merge),
            (down, "copy", Phase::DtoH),
        ]
    }

    #[test]
    fn every_op_leaves_a_span() {
        let p = Platform::test_pcie(2);
        let mut sys = system(&p);
        let ops = two_stream_workload(&mut sys);
        let spans: Vec<(SimTime, SimTime)> = ops
            .iter()
            .map(|&(op, ..)| sys.op_span(op).expect("completed op has a span"))
            .collect();
        assert!(spans.iter().all(|&(start, end)| end >= start));
        // The dependency chain HtoD -> sort -> DtoH runs in that order.
        let (up, sort, down) = (spans[0], spans[1], spans[4]);
        assert!(up.1 <= sort.0 && sort.1 <= down.0);
    }

    #[test]
    fn recorder_spans_match_op_spans_and_phases() {
        use msort_trace::EventKind;
        let p = Platform::test_pcie(2);
        let rec = Recorder::new();
        let mut sys = system(&p);
        sys.set_recorder(rec.clone());
        assert!(sys.recorder().is_enabled());
        let ops = two_stream_workload(&mut sys);
        let data = rec.snapshot().unwrap();
        let spans: Vec<_> = data
            .events_in_group(groups::GPU)
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .collect();
        assert_eq!(spans.len(), ops.len());
        // Every op has a matching span on its stream's track.
        for &(op, name, phase) in &ops {
            let (start, end) = sys.op_span(op).unwrap();
            assert!(
                spans.iter().any(|s| {
                    s.name == name
                        && s.cat == phase.label()
                        && s.kind
                            == EventKind::Span {
                                start_ns: start.0,
                                end_ns: end.0,
                            }
                        && data.track(s.track).name == format!("stream {}", sys.op_stream(op).0)
                }),
                "{name} op {op:?} ({phase:?}) missing from the recording"
            );
        }
        // The unified exporter renders it as valid JSON.
        assert!(msort_trace::json_valid(&msort_trace::chrome_trace(&data)));
    }

    #[test]
    fn per_stream_ops_are_serial_and_non_overlapping() {
        let p = Platform::test_pcie(2);
        let mut sys = system(&p);
        let ops = two_stream_workload(&mut sys);
        // Within one stream ops run in enqueue order, one at a time.
        let mut last_end: HashMap<StreamId, SimTime> = HashMap::new();
        for &(op, name, _) in &ops {
            let stream = sys.op_stream(op);
            let (start, end) = sys.op_span(op).unwrap();
            if let Some(prev) = last_end.insert(stream, end) {
                assert!(
                    prev <= start,
                    "{stream:?}: '{name}' [{start}, {end}] starts before its predecessor ends at {prev}"
                );
            }
        }
        assert_eq!(last_end.len(), 2, "the workload uses both streams");
    }
}
