//! Fluid transfer engine.
//!
//! Concurrently active transfers are *fluid flows*: at every instant each
//! flow progresses at the max-min fair rate computed by the platform's
//! constraint table. Rates change only when the flow set changes, so the
//! engine advances in events: start a flow → re-allocate; earliest
//! completion → advance the clock exactly there, retire the flow,
//! re-allocate.
//!
//! The same engine drives both the paper's interconnect microbenchmarks
//! (Figures 2–7 are literally "start these flows at t=0, report total bytes
//! over the makespan") and, through the virtual GPU runtime, every copy of
//! the sorting algorithms.
//!
//! # Engine internals
//!
//! * **In-flight list.** `active` holds the flows in flight, in creation
//!   order, and nothing else: a flow leaves it the moment an advance
//!   retires it or a `LinkDown` truncates it, so memory and per-event work
//!   follow what the fabric can hold, not what was ever started. Creation
//!   order is the allocator's float-summation order and the completion
//!   tie-break, so removal always preserves it. A [`FlowId`] is the flow's
//!   creation number; an id no longer in the list reads as done.
//! * **Cached earliest completion.** [`FlowSim::next_completion`] is one
//!   first-smallest pass over `active`, kept until something can move an
//!   eta: a re-allocation, or a clock advance (the per-event
//!   `remaining -= rate·dt` decrement can shift the rounded eta by a
//!   nanosecond). The pass uses exactly the reference engine's arithmetic
//!   (`tests/reference/`), so completion times are bit-identical to it.
//! * **Lazy allocation.** Re-allocation goes through a reusable
//!   [`RateAllocator`] (scratch vectors owned across events, flows read by
//!   reference — no per-event `FlowRequest` clones) and runs at the first
//!   point rates become observable, so a burst of starts and completions
//!   between two events costs one allocation. It is skipped while the
//!   in-flight request sequence is unchanged since the last one
//!   (zero-byte starts): the allocator is a pure function of that
//!   sequence, so the cached rates are exact.

use crate::fault::{FaultEvent, FaultPlan};
use crate::time::{SimDuration, SimTime};
use msort_topology::{
    ConstraintTable, Endpoint, FabricHealth, FlowRequest, LinkId, LinkState, Platform,
    RateAllocator, Route,
};
use msort_trace::{groups, ArgValue, Recorder, TrackId};

/// Handle to an active (or completed) flow: its creation number. Never
/// reused, so an id stays meaningful after its flow has finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(u64);

#[derive(Debug)]
struct ActiveFlow {
    request: FlowRequest,
    remaining: f64,
    rate: f64,
    /// Monotonic creation number, the flow's [`FlowId`]. `active` is
    /// sorted by it: that order is the allocator's input order and breaks
    /// completion-time ties, exactly like the original engine's scan.
    seq: u64,
}

/// Tracks and per-link emission state for an enabled recorder. Present
/// exactly when the attached [`Recorder`] is enabled, so the disabled
/// path stays one `Option` test per site.
#[derive(Debug)]
struct RecState {
    /// Per-link utilization counter series live here.
    links_track: TrackId,
    /// Per-flow async lifecycle events live here.
    flows_track: TrackId,
    /// Fault/restore instants live here.
    faults_track: TrackId,
    /// Last emitted utilization per topology link (`NaN` = never emitted),
    /// so unchanged links don't emit a sample every allocation epoch.
    last_util: Vec<f64>,
    /// Display name per topology link (counter series names).
    link_names: Vec<String>,
}

/// Human-readable endpoint name for flow labels ("gpu3", "host0").
fn endpoint_label(e: Endpoint) -> String {
    match e {
        Endpoint::HostMem { socket } => format!("host{socket}"),
        Endpoint::GpuMem { index } => format!("gpu{index}"),
    }
}

/// The fluid transfer simulator for one platform.
///
/// Typical driving loop:
/// ```
/// use msort_sim::{FlowSim, SimTime};
/// use msort_topology::{Platform, Endpoint};
/// let platform = Platform::test_pcie(2);
/// let mut sim = FlowSim::new(&platform);
/// let r0 = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
/// let r1 = sim.route(Endpoint::HOST0, Endpoint::gpu(1)).unwrap();
/// sim.start(&r0, 1 << 30);
/// sim.start(&r1, 1 << 30);
/// while let Some((t, _flow)) = sim.next_completion() {
///     sim.advance_to(t);
/// }
/// assert!(sim.now() > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct FlowSim<'p> {
    platform: &'p Platform,
    /// The flows in flight, in creation order.
    active: Vec<ActiveFlow>,
    now: SimTime,
    next_seq: u64,
    /// The earliest completion, once computed; cleared by whatever can
    /// move an eta (a re-allocation, a clock advance).
    next: Option<(SimTime, FlowId)>,
    /// `false` until the first allocation (even of nothing: with a
    /// recorder on it opens every link's utilization series at zero), and
    /// again once `active` or a capacity changed since the last one (the
    /// allocator's entire input): rates must be re-solved before they are
    /// next observed.
    rates_fresh: bool,
    allocator: RateAllocator,
    /// Scratch for allocator output (reused across events).
    rates: Vec<f64>,
    /// Scheduled fault events, sorted by firing time; `fault_cursor` is the
    /// index of the next unfired event. Both stay empty/zero for fault-free
    /// simulations.
    faults: Vec<FaultEvent>,
    fault_cursor: usize,
    /// Link health, created lazily when the first fault fires. `None` means
    /// pristine: the allocator reads the platform's canonical table and
    /// every code path is bit-identical to a build without fault support.
    health: Option<FabricHealth>,
    /// Health-adjusted constraint table (same shape as the platform's, with
    /// scaled capacities). Present exactly when `health` is.
    fault_table: Option<ConstraintTable>,
    /// Flows truncated by a `LinkDown`, with their undelivered bytes, not
    /// yet collected via [`FlowSim::take_interrupted`].
    interrupted: Vec<(FlowId, u64)>,
    /// Observability sink; disabled by default. Recording is purely
    /// observational: it never changes a rate, a clock value, or which
    /// flows complete when.
    recorder: Recorder,
    /// Lazily-built track/emission state; `Some` iff `recorder` is enabled.
    rec: Option<RecState>,
}

impl<'p> FlowSim<'p> {
    /// Create an idle simulator at `t = 0`.
    #[must_use]
    pub fn new(platform: &'p Platform) -> Self {
        Self {
            platform,
            active: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            next: None,
            rates_fresh: false,
            allocator: RateAllocator::new(),
            rates: Vec::new(),
            faults: Vec::new(),
            fault_cursor: 0,
            health: None,
            fault_table: None,
            interrupted: Vec::new(),
            recorder: Recorder::disabled(),
            rec: None,
        }
    }

    /// Attach a [`Recorder`]. An enabled recorder receives per-link
    /// utilization counters at every allocation epoch, per-flow lifecycle
    /// events (start / rate change / interrupt / complete), and fault
    /// instants; a disabled one costs a single branch per event site.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.rec = recorder.is_enabled().then(|| {
            let topo = &self.platform.topology;
            let link_names = topo
                .links()
                .iter()
                .map(|l| format!("{} ⇄ {}", topo.node(l.a).name, topo.node(l.b).name))
                .collect::<Vec<_>>();
            RecState {
                links_track: recorder.track(groups::LINKS, "utilization"),
                flows_track: recorder.track(groups::FLOWS, "transfers"),
                faults_track: recorder.track(groups::FAULTS, "fabric"),
                last_util: vec![f64::NAN; link_names.len()],
                link_names,
            }
        });
        self.recorder = recorder;
    }

    /// The attached recorder (disabled unless [`FlowSim::set_recorder`]
    /// installed an enabled one).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The platform being simulated.
    #[must_use]
    pub fn platform(&self) -> &'p Platform {
        self.platform
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Find a route on this platform (convenience wrapper).
    #[must_use]
    pub fn route(
        &self,
        src: msort_topology::Endpoint,
        dst: msort_topology::Endpoint,
    ) -> Option<Route> {
        self.platform.route(src, dst)
    }

    // ---- fault injection --------------------------------------------

    /// Install a fault schedule. A no-op for empty plans: no health state
    /// is created and the engine stays bit-identical to a fault-free run.
    /// Events at or before the current time fire on the next advance.
    ///
    /// # Panics
    /// Panics if called after a scheduled fault has already fired (merge
    /// the plans up front instead).
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        assert_eq!(
            self.fault_cursor, 0,
            "fault plans must be installed before the first fault fires"
        );
        self.faults.extend_from_slice(plan.events());
        self.faults.sort_by_key(FaultEvent::at);
    }

    /// When the next scheduled fault fires, if any remain. Event-loop
    /// drivers must not advance past this time in one step: rates computed
    /// before a fault are only valid up to it.
    #[must_use]
    pub fn next_fault_at(&self) -> Option<SimTime> {
        self.faults.get(self.fault_cursor).map(FaultEvent::at)
    }

    /// Link health, present once a fault has fired.
    #[must_use]
    pub fn health(&self) -> Option<&FabricHealth> {
        self.health.as_ref()
    }

    /// Health generation for cache invalidation: 0 while pristine, bumped
    /// on every link state change.
    #[must_use]
    pub fn health_generation(&self) -> u64 {
        self.health.as_ref().map_or(0, FabricHealth::generation)
    }

    /// `true` while `link` can carry traffic.
    #[must_use]
    pub fn link_usable(&self, link: LinkId) -> bool {
        self.health.as_ref().is_none_or(|h| h.is_usable(link))
    }

    /// `true` while every hop of `route` can carry traffic.
    #[must_use]
    pub fn route_usable(&self, route: &Route) -> bool {
        self.health.as_ref().is_none_or(|h| h.route_usable(route))
    }

    /// The constraint table rates are currently allocated against: the
    /// health-adjusted clone once a fault has fired, the platform's
    /// canonical table before.
    #[must_use]
    pub fn constraint_table(&self) -> &ConstraintTable {
        self.fault_table
            .as_ref()
            .unwrap_or_else(|| self.platform.constraint_table())
    }

    /// Drain the flows truncated by `LinkDown` events since the last call,
    /// each with its undelivered byte count. The flows read as `done` (they
    /// will never progress further); the caller re-issues the remaining
    /// bytes over a surviving route.
    pub fn take_interrupted(&mut self) -> Vec<(FlowId, u64)> {
        std::mem::take(&mut self.interrupted)
    }

    /// Change one link's health state: update the adjusted constraint
    /// table and, on a failure, truncate every in-flight flow whose route
    /// loads the link.
    fn apply_fault(&mut self, ev: FaultEvent) {
        let health = self
            .health
            .get_or_insert_with(|| FabricHealth::new(&self.platform.topology));
        let state = match ev {
            FaultEvent::LinkDown { .. } => LinkState::Down,
            FaultEvent::LinkDegrade { factor, .. } => LinkState::Degraded { factor },
            FaultEvent::LinkRestore { .. } => LinkState::Up,
        };
        health.set(ev.link(), state);
        let base = self.platform.constraint_table();
        let table = self.fault_table.get_or_insert_with(|| base.clone());
        health.apply(base, table);

        if let Some(rs) = &self.rec {
            let name = match ev {
                FaultEvent::LinkDown { .. } => "link down",
                FaultEvent::LinkDegrade { .. } => "link degraded",
                FaultEvent::LinkRestore { .. } => "link restored",
            };
            let mut args = vec![(
                "link".to_string(),
                ArgValue::Str(rs.link_names[ev.link().0].clone()),
            )];
            if let FaultEvent::LinkDegrade { factor, .. } = ev {
                args.push(("factor".to_string(), ArgValue::F64(factor)));
            }
            self.recorder
                .instant_args(rs.faults_track, name, "fault", self.now.0, args);
        }

        if matches!(ev, FaultEvent::LinkDown { .. }) {
            // Truncate in-flight flows over the failed link: they stop
            // delivering at the fault instant and surface through
            // `take_interrupted` with their unfinished bytes.
            let (fwd, bwd, dup) = base.link_constraint_ids(ev.link());
            let (now, rec, recorder) = (self.now.0, &self.rec, &self.recorder);
            let interrupted = &mut self.interrupted;
            self.active.retain(|f| {
                let hit = f
                    .request
                    .constraints
                    .iter()
                    .any(|&(c, _)| c == fwd || c == bwd || Some(c) == dup);
                if hit {
                    let undelivered = f.remaining.ceil() as u64;
                    interrupted.push((FlowId(f.seq), undelivered));
                    if let Some(rs) = rec {
                        recorder.async_instant(
                            rs.flows_track,
                            "interrupted",
                            "flow",
                            f.seq,
                            now,
                            vec![("undelivered_bytes".to_string(), ArgValue::U64(undelivered))],
                        );
                        recorder.async_end(rs.flows_track, "transfer", "flow", f.seq, now);
                    }
                }
                !hit
            });
        }
        // Capacities (and possibly the in-flight set) changed.
        self.rates_fresh = false;
    }

    // ---- flow lifecycle ---------------------------------------------

    /// Start a transfer of `bytes` along `route` at the current time.
    pub fn start(&mut self, route: &Route, bytes: u64) -> FlowId {
        let label = self.rec.is_some().then(|| {
            format!(
                "{} → {}",
                endpoint_label(route.src),
                endpoint_label(route.dst)
            )
        });
        self.start_labeled(self.platform.flow_request(route), bytes, label)
    }

    /// Start a transfer from an explicit allocator request (used for flows
    /// with custom rate caps, e.g. modeled CPU merges contending for host
    /// memory bandwidth).
    pub fn start_request(&mut self, request: FlowRequest, bytes: u64) -> FlowId {
        self.start_labeled(request, bytes, None)
    }

    fn start_labeled(&mut self, request: FlowRequest, bytes: u64, label: Option<String>) -> FlowId {
        let seq = self.next_seq;
        self.next_seq += 1;
        // A zero-byte flow is done at once and never enters `active`.
        if bytes > 0 {
            self.active.push(ActiveFlow {
                request,
                remaining: bytes as f64,
                rate: 0.0,
                seq,
            });
            // No eager re-allocation: rates are computed lazily at the next
            // point they are observable (an advance, an eta query,
            // `rate()`), so a batch of starts costs one allocation, not one
            // per start.
            self.rates_fresh = false;
            if let Some(rs) = &self.rec {
                self.recorder.async_begin(
                    rs.flows_track,
                    label.as_deref().unwrap_or("transfer"),
                    "flow",
                    seq,
                    self.now.0,
                    vec![("bytes".to_string(), ArgValue::U64(bytes))],
                );
            }
        }
        FlowId(seq)
    }

    /// The flow behind `id` while it is in flight (`active` is sorted by
    /// creation number).
    fn in_flight(&self, id: FlowId) -> Option<&ActiveFlow> {
        let i = self.active.binary_search_by_key(&id.0, |f| f.seq).ok()?;
        Some(&self.active[i])
    }

    /// `true` once the flow has delivered all its bytes (or was truncated
    /// by a link failure: it will never progress further).
    #[must_use]
    pub fn is_done(&self, id: FlowId) -> bool {
        self.in_flight(id).is_none()
    }

    /// Current rate (bytes/s) of a flow; zero once completed.
    #[must_use]
    pub fn rate(&mut self, id: FlowId) -> f64 {
        self.ensure_rates();
        self.in_flight(id).map_or(0.0, |f| f.rate)
    }

    /// Number of currently active (unfinished) flows.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Earliest upcoming flow completion `(time, flow)`, if any flow is
    /// active; ties go to the flow created first.
    ///
    /// O(1) while the engine state is unchanged since the last query; after
    /// a start, advance, or re-allocation, one pass over the active flows.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.ensure_rates();
        if self.next.is_none() {
            for f in &self.active {
                // A zero-rate active flow means the allocator starved it —
                // impossible for feasible constraint tables, so when it
                // does happen, dump enough state to debug the table.
                if f.rate <= 0.0 {
                    panic!("{}", self.starvation_report(f));
                }
                let eta = self.now + SimDuration::for_bytes_at(f.remaining.ceil() as u64, f.rate);
                if self.next.is_none_or(|(best, _)| eta < best) {
                    self.next = Some((eta, FlowId(f.seq)));
                }
            }
        }
        self.next
    }

    /// Diagnostic for an allocator-starved flow: the flow's own constraint
    /// list plus the full constraint table with current consumption, with
    /// saturated rows marked.
    fn starvation_report(&self, starved: &ActiveFlow) -> String {
        use std::fmt::Write as _;
        let table = self.constraint_table();
        let mut msg = format!(
            "active flow {} has zero rate: the allocator starved it\n\
             flow: remaining {} B, rate cap {:?}, constraints:\n",
            starved.seq, starved.remaining, starved.request.rate_cap
        );
        for &(c, w) in &starved.request.constraints {
            let _ = writeln!(
                msg,
                "  {:?} weight {w} capacity {:.3e} B/s",
                table.constraints()[c.0].kind,
                table.capacity(c)
            );
        }
        let used = self.constraint_load();
        msg.push_str("constraint table (* = saturated):\n");
        for (i, c) in table.constraints().iter().enumerate() {
            let saturated = used[i] >= c.capacity * 0.999;
            let _ = writeln!(
                msg,
                "  {}[{i}] {:?}: used {:.3e} of {:.3e} B/s",
                if saturated { "*" } else { " " },
                c.kind,
                used[i],
                c.capacity
            );
        }
        // Link health separates a degraded-fabric allocation failure (a
        // flow routed over a dead link) from a genuine modeling bug.
        msg.push_str("link health:\n");
        match &self.health {
            None => msg.push_str("  (no faults scheduled; all links healthy)\n"),
            Some(h) => msg.push_str(&h.describe(&self.platform.topology)),
        }
        msg
    }

    /// Advance the clock to `t`, progressing all active flows linearly and
    /// retiring the ones that finish. Returns the retired flow ids.
    ///
    /// Scheduled faults with firing times in `(now, t]` apply in order:
    /// the clock advances exactly to each fault, the fault fires (rates
    /// re-allocate, downed-link flows truncate), and the advance resumes
    /// under the new capacities. Callers driving an event loop should
    /// still clamp their steps to [`FlowSim::next_fault_at`] — completion
    /// times predicted *before* a fault are not events *after* it, so a
    /// flow that speeds up mid-step would otherwise retire late.
    ///
    /// # Panics
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<FlowId> {
        let mut finished = Vec::new();
        while let Some(&ev) = self.faults.get(self.fault_cursor) {
            if ev.at() > t {
                break;
            }
            self.fault_cursor += 1;
            if ev.at() > self.now {
                self.advance_plain(ev.at(), &mut finished);
            }
            self.apply_fault(ev);
        }
        self.advance_plain(t, &mut finished);
        finished
    }

    /// The fault-free advance: exactly the original engine's arithmetic.
    fn advance_plain(&mut self, t: SimTime, finished: &mut Vec<FlowId>) {
        // Flows progress at the rates of the current active set; compute
        // them now if starts/completions have accumulated since the last
        // allocation.
        self.ensure_rates();
        let dt = t.since(self.now).as_secs_f64();
        self.now = t;
        let already_finished = finished.len();
        let (rec, recorder) = (&self.rec, &self.recorder);
        self.active.retain_mut(|f| {
            f.remaining -= f.rate * dt;
            // Sub-nanosecond residue is a completed flow: rates are exact
            // between events, but `for_bytes_at` rounds up to whole ns.
            let done = f.remaining <= f.rate * 1e-9 + 1e-6;
            if done {
                finished.push(FlowId(f.seq));
                if let Some(rs) = rec {
                    recorder.async_end(rs.flows_track, "transfer", "flow", f.seq, t.0);
                }
            }
            !done
        });
        if dt > 0.0 {
            // The decrement above can move rounded etas by a nanosecond.
            self.next = None;
        }
        if finished.len() > already_finished {
            self.rates_fresh = false;
        }
    }

    /// Run until every flow completes; returns the final time. Steps are
    /// clamped to scheduled fault times so completions predicted before a
    /// fault never overshoot it.
    pub fn run_to_idle(&mut self) -> SimTime {
        while let Some((t, _)) = self.next_completion() {
            let t = match self.next_fault_at() {
                Some(tf) if tf < t => tf,
                _ => t,
            };
            self.advance_to(t);
        }
        self.now
    }

    /// Bring the active flows' rates up to date, unless the active request
    /// sequence is unchanged since the last allocation (then the cached
    /// rates are already exact — the allocator is a pure function of that
    /// sequence). Called lazily wherever rates become observable, so any
    /// burst of starts/completions between two events costs exactly one
    /// allocation.
    fn ensure_rates(&mut self) {
        if self.rates_fresh {
            return;
        }
        // Recording needs the pre-allocation rates to emit rate-*change*
        // events; capture them up front (recorder-on only).
        let old_rates: Option<Vec<f64>> = self
            .rec
            .as_ref()
            .map(|_| self.active.iter().map(|f| f.rate).collect());
        // Pristine runs read the platform's canonical table through the
        // same expression as before any fault support existed; only a
        // fired fault swaps in the health-adjusted clone.
        let table = self
            .fault_table
            .as_ref()
            .unwrap_or_else(|| self.platform.constraint_table());
        let active = &self.active;
        self.allocator
            .allocate_with(table, active.len(), |i| &active[i].request, &mut self.rates);
        for (f, &rate) in self.active.iter_mut().zip(&self.rates) {
            assert!(
                rate.is_finite(),
                "flow {} is unconstrained; give intra-device copies a rate cap",
                f.seq
            );
            f.rate = rate;
        }
        self.rates_fresh = true;
        self.next = None;
        if cfg!(debug_assertions) {
            self.check_capacity();
        }
        if let Some(old_rates) = old_rates {
            self.record_allocation(&old_rates);
        }
    }

    /// Current consumption (Σ rate × weight over `active`) per constraint.
    fn constraint_load(&self) -> Vec<f64> {
        let mut used = vec![0.0f64; self.constraint_table().constraints().len()];
        for f in &self.active {
            for &(c, w) in &f.request.constraints {
                used[c.0] += f.rate * w;
            }
        }
        used
    }

    /// Capacity conservation and max-min optimality: no allocation may load
    /// a constraint beyond its capacity (up to float summation error), and
    /// no flow's rate can be raised — each sits at its rate cap or crosses a
    /// saturated constraint, at the tolerance of
    /// `topology/tests/allocator_props.rs` (twice the allocator's own
    /// saturation epsilon).
    fn check_capacity(&self) {
        let table = self.constraint_table();
        let used = self.constraint_load();
        for (c, &used) in table.constraints().iter().zip(&used) {
            assert!(
                used <= c.capacity * (1.0 + 1e-9) + 1e-6,
                "allocation overloads {:?}: {used} B/s used of {} B/s",
                c.kind,
                c.capacity
            );
        }
        for f in &self.active {
            let capped = f
                .request
                .rate_cap
                .is_some_and(|cap| f.rate >= cap * (1.0 - 1e-9));
            let blocked = f.request.constraints.iter().any(|&(c, w)| {
                let cap = table.capacity(c);
                w > 0.0 && used[c.0] >= cap - 2.0 * (cap * 1e-9).max(1e-6)
            });
            assert!(
                capped || blocked,
                "flow {} (rate {} B/s, cap {:?}) could still be raised: \
                 no saturated constraint on its route",
                f.seq,
                f.rate,
                f.request.rate_cap
            );
        }
    }

    /// Recorder-on only: emit per-flow rate-change events and per-link
    /// utilization counter samples for the allocation that just ran.
    fn record_allocation(&mut self, old_rates: &[f64]) {
        // Per-link utilization: consumption over every constraint, then
        // each link reports the most loaded of its (fwd, bwd, duplex)
        // constraint rows. Unchanged links emit nothing.
        let used = self.constraint_load();
        let Some(rs) = &mut self.rec else { return };
        let at = self.now.0;
        for (k, f) in self.active.iter().enumerate() {
            if old_rates.get(k).copied() != Some(f.rate) {
                self.recorder.async_instant(
                    rs.flows_track,
                    "rate",
                    "flow",
                    f.seq,
                    at,
                    vec![("gbps".to_string(), ArgValue::F64(f.rate / 1e9))],
                );
            }
        }
        let table = self
            .fault_table
            .as_ref()
            .unwrap_or_else(|| self.platform.constraint_table());
        for (i, last) in rs.last_util.iter_mut().enumerate() {
            let (fwd, bwd, dup) = table.link_constraint_ids(LinkId(i));
            let mut util = 0.0f64;
            for c in [Some(fwd), Some(bwd), dup].into_iter().flatten() {
                let cap = table.capacity(c);
                if cap > 0.0 {
                    util = util.max(used[c.0] / cap);
                }
            }
            if last.is_nan() || (util - *last).abs() > 1e-9 {
                self.recorder
                    .counter(rs.links_track, &rs.link_names[i], at, util);
                *last = util;
            }
        }
    }
}

/// Outcome of running a set of same-sized transfers to completion, as the
/// paper's interconnect microbenchmarks report them.
#[derive(Debug, Clone, Copy)]
pub struct TransferReport {
    /// Total bytes moved across all flows.
    pub total_bytes: u64,
    /// Time from first start to last completion.
    pub makespan: SimDuration,
}

impl TransferReport {
    /// Aggregate throughput in decimal GB/s — the figure-of-merit of the
    /// paper's Figures 2–7 (total bytes over the slowest stream's time).
    #[must_use]
    pub fn throughput_gbps(&self) -> f64 {
        self.total_bytes as f64 / self.makespan.as_secs_f64() / 1e9
    }
}

/// Start one flow of `bytes` per route, all at `t = 0`, run to completion,
/// and report aggregate throughput. This is exactly the measurement loop of
/// the paper's transfer benchmarks.
#[must_use]
pub fn measure_concurrent(platform: &Platform, routes: &[Route], bytes: u64) -> TransferReport {
    let mut sim = FlowSim::new(platform);
    for r in routes {
        sim.start(r, bytes);
    }
    let end = sim.run_to_idle();
    TransferReport {
        total_bytes: bytes * routes.len() as u64,
        makespan: end.since(SimTime::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_topology::{gbps, Endpoint, Platform};

    const GIB: u64 = 1 << 30;

    #[test]
    fn single_flow_duration_matches_rate() {
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        sim.start(&r, 13_000_000_000); // 13 GB at 13 GB/s -> 1 s
        let end = sim.run_to_idle();
        assert!((end.as_secs_f64() - 1.0).abs() < 1e-6, "{end}");
    }

    #[test]
    fn two_flows_on_shared_bottleneck_take_twice_as_long() {
        let p = Platform::test_pcie(2);
        // Both flows share the memory read cap? test_pcie read cap is 80,
        // links 13 each: independent. Use the same GPU twice instead: the
        // two flows share one 13 GB/s link.
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        sim.start(&r, 13_000_000_000);
        sim.start(&r, 13_000_000_000);
        let end = sim.run_to_idle();
        assert!((end.as_secs_f64() - 2.0).abs() < 1e-5, "{end}");
    }

    #[test]
    fn staggered_start_speeds_up_survivor() {
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let a = sim.start(&r, 13_000_000_000);
        let b = sim.start(&r, 6_500_000_000);
        // Fair share 6.5 each: b finishes at t=1 having moved 6.5 GB;
        // a then runs alone at 13 GB/s for its remaining 6.5 GB -> t=1.5.
        let (t1, first) = sim.next_completion().unwrap();
        assert_eq!(first, b);
        sim.advance_to(t1);
        assert!(sim.is_done(b));
        assert!(!sim.is_done(a));
        assert!((sim.rate(a) - gbps(13.0)).abs() < 1e3);
        let end = sim.run_to_idle();
        assert!((end.as_secs_f64() - 1.5).abs() < 1e-5, "{end}");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let f = sim.start(&r, 0);
        assert!(sim.is_done(f));
        assert!(sim.next_completion().is_none());
    }

    #[test]
    fn zero_byte_start_leaves_rates_untouched() {
        // A zero-byte flow never enters the active set, so the allocation
        // skip applies and the surviving flow's rate is unchanged.
        let p = Platform::test_pcie(2);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let a = sim.start(&r, GIB);
        let before = sim.rate(a);
        let z = sim.start(&r, 0);
        assert!(sim.is_done(z));
        assert_eq!(sim.rate(a).to_bits(), before.to_bits());
    }

    #[test]
    fn measure_concurrent_reports_aggregate() {
        let p = Platform::test_pcie(2);
        let r0 =
            msort_topology::route::route(&p.topology, Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let r1 =
            msort_topology::route::route(&p.topology, Endpoint::HOST0, Endpoint::gpu(1)).unwrap();
        let rep = measure_concurrent(&p, &[r0, r1], 4 * GIB);
        // Independent 13 GB/s links: aggregate ~26 GB/s.
        assert!((rep.throughput_gbps() - 26.0).abs() < 0.3, "{rep:?}");
    }

    #[test]
    fn ids_of_completed_flows_read_as_done() {
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let f = sim.start(&r, GIB);
        sim.run_to_idle();
        assert!(sim.is_done(f));
        assert_eq!(sim.rate(f), 0.0);
    }

    #[test]
    fn clock_is_monotonic_across_events() {
        let p = Platform::test_pcie(2);
        let mut sim = FlowSim::new(&p);
        let r0 = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let r1 = sim
            .route(Endpoint::gpu(1), Endpoint::HostMem { socket: 0 })
            .unwrap();
        sim.start(&r0, GIB);
        sim.start(&r1, 3 * GIB);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = sim.next_completion() {
            assert!(t >= last);
            sim.advance_to(t);
            last = t;
        }
    }

    #[test]
    fn empty_fault_plan_is_a_no_op() {
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        sim.schedule_faults(&crate::FaultPlan::new());
        assert_eq!(sim.health_generation(), 0);
        assert!(sim.health().is_none());
        assert!(sim.next_fault_at().is_none());
    }

    #[test]
    fn degrade_slows_inflight_flow() {
        // 13 GB at 13 GB/s completes at t=1s fault-free. Degrading the
        // link to 50% at t=0.5s leaves 6.5 GB at 6.5 GB/s: t=1.5s.
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let link = r.hops[0].link;
        sim.schedule_faults(&crate::FaultPlan::new().link_degrade(SimTime(500_000_000), link, 0.5));
        sim.start(&r, 13_000_000_000);
        let end = sim.run_to_idle();
        assert!((end.as_secs_f64() - 1.5).abs() < 1e-6, "{end}");
        assert_eq!(sim.health_generation(), 1);
    }

    #[test]
    fn restore_brings_capacity_back() {
        // Degraded to 50% for [0.5s, 1.0s]: 0.5s at 13, 0.5s at 6.5, then
        // 13 again -> 13·0.5 + 6.5·0.5 = 9.75 GB done at t=1, remaining
        // 3.25 GB at 13 GB/s -> total 1.25s.
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let link = r.hops[0].link;
        sim.schedule_faults(
            &crate::FaultPlan::new()
                .link_degrade(SimTime(500_000_000), link, 0.5)
                .link_restore(SimTime(1_000_000_000), link),
        );
        sim.start(&r, 13_000_000_000);
        let end = sim.run_to_idle();
        assert!((end.as_secs_f64() - 1.25).abs() < 1e-6, "{end}");
    }

    #[test]
    fn link_down_truncates_and_reports_interrupted() {
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let link = r.hops[0].link;
        sim.schedule_faults(&crate::FaultPlan::new().link_down(SimTime(250_000_000), link));
        let f = sim.start(&r, 13_000_000_000);
        // The flow can never complete; the advance stops at the fault.
        sim.advance_to(SimTime(250_000_000));
        let interrupted = sim.take_interrupted();
        assert_eq!(interrupted.len(), 1);
        let (fid, remaining) = interrupted[0];
        assert_eq!(fid, f);
        // 0.25 s at 13 GB/s delivered 3.25 GB of 13 GB.
        assert_eq!(remaining, 9_750_000_000);
        assert!(sim.is_done(f));
        assert_eq!(sim.active_count(), 0);
        assert!(sim.next_completion().is_none());
        assert!(!sim.link_usable(link));
        assert!(!sim.route_usable(&r));
        // A second drain returns nothing.
        assert!(sim.take_interrupted().is_empty());
    }

    #[test]
    fn unaffected_flow_survives_another_links_failure() {
        let p = Platform::test_pcie(2);
        let mut sim = FlowSim::new(&p);
        let r0 = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let r1 = sim.route(Endpoint::HOST0, Endpoint::gpu(1)).unwrap();
        sim.schedule_faults(
            &crate::FaultPlan::new().link_down(SimTime(100_000_000), r1.hops[0].link),
        );
        let a = sim.start(&r0, 13_000_000_000);
        let b = sim.start(&r1, 13_000_000_000);
        let end = sim.run_to_idle();
        assert!(sim.is_done(a));
        // The survivor still takes its full fault-free second.
        assert!((end.as_secs_f64() - 1.0).abs() < 1e-6, "{end}");
        let interrupted = sim.take_interrupted();
        assert_eq!(interrupted.len(), 1);
        assert_eq!(interrupted[0].0, b);
    }

    #[test]
    #[should_panic(expected = "link health")]
    fn starting_over_a_dead_link_panics_with_health_report() {
        let p = Platform::test_pcie(1);
        let mut sim = FlowSim::new(&p);
        let r = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        sim.schedule_faults(&crate::FaultPlan::new().link_down(SimTime(1), r.hops[0].link));
        sim.advance_to(SimTime(1));
        // The caller failed to re-route: zero capacity starves the flow
        // and the diagnostic names the downed link.
        sim.start(&r, 1 << 20);
        let _ = sim.next_completion();
    }

    #[test]
    fn first_observation_opens_every_link_series_at_zero() {
        // An idle engine still allocates once, at its first observation, so
        // a recording shows every link from the start, not from first use.
        let p = Platform::test_pcie(2);
        let mut sim = FlowSim::new(&p);
        let recorder = Recorder::new();
        sim.set_recorder(recorder.clone());
        assert!(sim.next_completion().is_none());
        let data = recorder.snapshot().expect("recorder is enabled");
        let samples: Vec<f64> = data
            .events
            .iter()
            .filter_map(|e| match e.kind {
                msort_trace::EventKind::Counter { value, .. } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(samples, vec![0.0; p.topology.links().len()]);
    }

    #[test]
    fn repeated_queries_are_stable() {
        // next_completion is pure between state changes: repeated calls
        // return the same event.
        let p = Platform::test_pcie(2);
        let mut sim = FlowSim::new(&p);
        let r0 = sim.route(Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let r1 = sim.route(Endpoint::HOST0, Endpoint::gpu(1)).unwrap();
        sim.start(&r0, GIB);
        sim.start(&r1, 2 * GIB);
        let first = sim.next_completion();
        assert_eq!(first, sim.next_completion());
        assert_eq!(first, sim.next_completion());
    }
}
