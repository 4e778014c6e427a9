//! Reference fluid engine: the original O(n)-rescan implementation,
//! preserved verbatim.
//!
//! The optimized engine in [`msort_sim::flows`] (slab storage, completion
//! heap, incremental allocation) must produce **bit-identical** completion
//! times to this one. This module keeps the original engine — including its
//! own private copy of the progressive-filling allocator loop, so the two
//! engines share no allocation code — as the golden model for the
//! differential test in `tests/differential.rs`. It lives beside that test,
//! not in the crate, so it is no part of the public API.
//!
//! Known costs this implementation pays per event (the reason it was
//! replaced): it clones every active flow's `FlowRequest` into a fresh
//! `Vec` on each re-allocation, rescans *all* flows ever started (completed
//! ones included) to find the next completion, and never reuses retired
//! flow slots.

use msort_sim::{SimDuration, SimTime};
use msort_topology::{ConstraintTable, FlowRequest, Platform, Route};

/// Handle to a flow in the reference engine. Plain index: invalidated by
/// [`ReferenceFlowSim::compact`], exactly like the original. The index is
/// public so the differential test can re-derive ids after a compaction
/// shifts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefFlowId(pub usize);

#[derive(Debug)]
struct ActiveFlow {
    request: FlowRequest,
    remaining: f64,
    rate: f64,
    done: bool,
}

/// The original fluid transfer simulator (see module docs).
#[derive(Debug)]
pub struct ReferenceFlowSim<'p> {
    platform: &'p Platform,
    flows: Vec<ActiveFlow>,
    now: SimTime,
}

impl<'p> ReferenceFlowSim<'p> {
    /// Create an idle simulator at `t = 0`.
    #[must_use]
    pub fn new(platform: &'p Platform) -> Self {
        Self {
            platform,
            flows: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Start a transfer of `bytes` along `route` at the current time.
    pub fn start(&mut self, route: &Route, bytes: u64) -> RefFlowId {
        self.start_request(self.platform.flow_request(route), bytes)
    }

    /// Start a transfer from an explicit allocator request.
    pub fn start_request(&mut self, request: FlowRequest, bytes: u64) -> RefFlowId {
        let id = RefFlowId(self.flows.len());
        self.flows.push(ActiveFlow {
            request,
            remaining: bytes as f64,
            rate: 0.0,
            done: bytes == 0,
        });
        self.reallocate();
        id
    }

    /// `true` once the flow has delivered all its bytes.
    #[must_use]
    pub fn is_done(&self, id: RefFlowId) -> bool {
        self.flows[id.0].done
    }

    /// Current rate (bytes/s) of a flow; zero once completed.
    #[must_use]
    pub fn rate(&self, id: RefFlowId) -> f64 {
        if self.flows[id.0].done {
            0.0
        } else {
            self.flows[id.0].rate
        }
    }

    /// Number of currently active (unfinished) flows.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.flows.iter().filter(|f| !f.done).count()
    }

    /// Earliest upcoming flow completion `(time, flow)`, if any flow is
    /// active. O(n) rescan over every flow ever started.
    #[must_use]
    pub fn next_completion(&self) -> Option<(SimTime, RefFlowId)> {
        let mut best: Option<(SimTime, RefFlowId)> = None;
        for (i, f) in self.flows.iter().enumerate() {
            if f.done {
                continue;
            }
            assert!(
                f.rate > 0.0,
                "active flow {i} has zero rate: the allocator starved it"
            );
            let eta = self.now + SimDuration::for_bytes_at(f.remaining.ceil() as u64, f.rate);
            if best.is_none_or(|(t, _)| eta < t) {
                best = Some((eta, RefFlowId(i)));
            }
        }
        best
    }

    /// Advance the clock to `t`, progressing all active flows linearly and
    /// retiring the ones that finish. Returns the retired flow ids.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<RefFlowId> {
        let dt = t.since(self.now).as_secs_f64();
        self.now = t;
        let mut finished = Vec::new();
        for (i, f) in self.flows.iter_mut().enumerate() {
            if f.done {
                continue;
            }
            f.remaining -= f.rate * dt;
            // Sub-nanosecond residue is a completed flow: rates are exact
            // between events, but `for_bytes_at` rounds up to whole ns.
            if f.remaining <= f.rate * 1e-9 + 1e-6 {
                f.remaining = 0.0;
                f.done = true;
                finished.push(RefFlowId(i));
            }
        }
        if !finished.is_empty() {
            self.reallocate();
        }
        finished
    }

    /// Run until every flow completes; returns the final time.
    pub fn run_to_idle(&mut self) -> SimTime {
        while let Some((t, _)) = self.next_completion() {
            self.advance_to(t);
        }
        self.now
    }

    /// Drop all completed flows' bookkeeping (ids of retired flows become
    /// invalid — this is the hazard the optimized engine's generation
    /// counters close).
    pub fn compact(&mut self) {
        self.flows.retain(|f| !f.done);
        // Indices shifted: only valid when no external ids are held.
        self.reallocate();
    }

    fn reallocate(&mut self) {
        let active: Vec<usize> = (0..self.flows.len())
            .filter(|&i| !self.flows[i].done)
            .collect();
        let requests: Vec<FlowRequest> = active
            .iter()
            .map(|&i| self.flows[i].request.clone())
            .collect();
        let rates = reference_allocate_rates(self.platform.constraint_table(), &requests);
        for (&i, &rate) in active.iter().zip(rates.iter()) {
            assert!(
                rate.is_finite(),
                "flow {i} is unconstrained; give intra-device copies a rate cap"
            );
            self.flows[i].rate = rate;
        }
    }
}

/// The original free-function allocator loop, fresh scratch vectors and
/// all. Kept private to this module so the differential test pits two fully
/// independent implementations against each other.
fn reference_allocate_rates(table: &ConstraintTable, flows: &[FlowRequest]) -> Vec<f64> {
    let mut rates = vec![0.0f64; flows.len()];
    if flows.is_empty() {
        return rates;
    }

    let mut remaining: Vec<f64> = table.constraints().iter().map(|c| c.capacity).collect();
    let mut frozen = vec![false; flows.len()];

    loop {
        // Total unfrozen weight per constraint.
        let mut weight = vec![0.0f64; remaining.len()];
        for (f, flow) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            for &(c, w) in &flow.constraints {
                weight[c.0] += w;
            }
        }

        // The uniform rate increment every unfrozen flow can still take.
        let mut delta = f64::INFINITY;
        for (&rem, &w) in remaining.iter().zip(weight.iter()) {
            if w > 0.0 {
                delta = delta.min(rem / w);
            }
        }
        for (f, flow) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            if let Some(cap) = flow.rate_cap {
                delta = delta.min(cap - rates[f]);
            }
        }
        if !delta.is_finite() {
            // Remaining flows are unconstrained.
            for (f, rate) in rates.iter_mut().enumerate() {
                if !frozen[f] {
                    *rate = f64::INFINITY;
                }
            }
            break;
        }
        let delta = delta.max(0.0);

        // Apply the increment and its consumption.
        for (f, flow) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            rates[f] += delta;
            for &(c, w) in &flow.constraints {
                remaining[c.0] = (remaining[c.0] - delta * w).max(0.0);
            }
        }

        // Freeze flows at their cap or on a saturated constraint.
        let mut progressed = false;
        for (f, flow) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            let capped = flow
                .rate_cap
                .is_some_and(|cap| rates[f] >= cap - f64::EPSILON * cap.abs());
            let saturated = flow.constraints.iter().any(|&(c, w)| {
                w > 0.0 && remaining[c.0] <= reference_saturation_epsilon(table.capacity(c))
            });
            if capped || saturated {
                frozen[f] = true;
                progressed = true;
            }
        }
        if frozen.iter().all(|&f| f) {
            break;
        }
        if !progressed {
            // Numerical corner: nothing froze but delta was ~0. Freeze all
            // remaining flows to terminate; their rates are already max-min.
            for f in frozen.iter_mut() {
                *f = true;
            }
            break;
        }
    }
    rates
}

/// Tolerance for deciding a constraint is saturated, relative to its size.
fn reference_saturation_epsilon(capacity: f64) -> f64 {
    (capacity * 1e-9).max(1e-6)
}
