//! Golden differential test: the engine ([`msort_sim::flows`]) against the
//! original engine preserved in `tests/reference/mod.rs`, which keeps
//! every flow ever started and rescans them all.
//!
//! Randomized staggered-flow schedules on all four platforms and a
//! two-node DGX cluster (NIC-crossing routes, the largest constraint table)
//! drive both engines through identical action sequences — route starts
//! (including zero-byte flows), rate-capped host-flow requests shaped like
//! the ones `GpuSystem` starts for CPU work (so capped and multi-round
//! allocations meet the reference loop directly), full advances to the
//! next completion, partial and zero-length advances, and compactions of
//! the reference engine's flow list (the engine itself holds only what is
//! in flight, so it has nothing to compact) — and after every step the
//! test demands
//! **bit-identical** state: same `now()` (integer nanoseconds, so `==` is
//! bit equality), same completion events in the same order, per-flow
//! rates equal down to the last mantissa bit (`f64::to_bits`), and every
//! flow ever created reading done exactly when it has finished. Nothing
//! is approximate: the engine is only correct if it is indistinguishable
//! from the reference.

// The whole original engine is kept, not only the calls this test makes:
// it is the oracle for allocator work to come, and a thinned copy is no
// longer the engine that was replaced.
#[allow(dead_code)]
mod reference;

use msort_cluster::dgx_a100_cluster;
use msort_sim::flows::{FlowId, FlowSim};
use msort_sim::{SimDuration, SimTime};
use msort_topology::constraint::ConstraintKind;
use msort_topology::{gbps, Endpoint, Fabric, FlowRequest, Platform, Route};
use reference::{RefFlowId, ReferenceFlowSim};

/// splitmix64: tiny, seedable, and good enough to scramble action choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// All distinct routable endpoint pairs of a platform.
fn routable_pairs(p: &Platform) -> Vec<Route> {
    let mut endpoints = vec![Endpoint::HOST0];
    for s in 1..p.topology.cpu_count() {
        endpoints.push(Endpoint::HostMem { socket: s });
    }
    for g in 0..p.gpu_count() {
        endpoints.push(Endpoint::gpu(g));
    }
    let mut routes = Vec::new();
    for &a in &endpoints {
        for &b in &endpoints {
            if a == b {
                continue;
            }
            if let Some(r) = msort_topology::route::route(&p.topology, a, b) {
                routes.push(r);
            }
        }
    }
    routes
}

/// The request `GpuSystem::start_op` builds for a host flow on `socket`:
/// the read and write caps at weight 1/2 (half the traffic goes each way),
/// the combined cap once at weight 1, and a per-flow rate cap.
fn host_flow_request(p: &Platform, socket: usize, rate_cap: f64) -> FlowRequest {
    let table = p.constraint_table();
    let here = Endpoint::HostMem { socket };
    let route = Route {
        src: here,
        dst: here,
        hops: Vec::new(),
    };
    let mut constraints = table.route_constraints(&p.topology, &route);
    let mut seen_combined = false;
    constraints.retain_mut(|(id, weight)| match table.constraints()[id.0].kind {
        ConstraintKind::MemRead { .. } | ConstraintKind::MemWrite { .. } => {
            *weight = 0.5;
            true
        }
        ConstraintKind::MemCombined { .. } => !std::mem::replace(&mut seen_combined, true),
        _ => true,
    });
    FlowRequest {
        constraints,
        rate_cap: Some(rate_cap),
    }
}

/// Both engines plus the bookkeeping that maps their ids onto shared
/// creation indices (the new engine's ids are stable; the reference
/// engine's shift on compaction).
struct Pair<'p> {
    new: FlowSim<'p>,
    reference: ReferenceFlowSim<'p>,
    /// Creation index → new-engine id.
    new_ids: Vec<FlowId>,
    /// Reference engine's flow-vec order, as creation indices.
    ref_order: Vec<usize>,
    /// Creation index → finished yet?
    done: Vec<bool>,
}

impl<'p> Pair<'p> {
    fn new(platform: &'p Platform) -> Self {
        Self {
            new: FlowSim::new(platform),
            reference: ReferenceFlowSim::new(platform),
            new_ids: Vec::new(),
            ref_order: Vec::new(),
            done: Vec::new(),
        }
    }

    fn start(&mut self, route: &Route, bytes: u64) {
        let id_new = self.new.start(route, bytes);
        let id_ref = self.reference.start(route, bytes);
        self.started(id_new, id_ref, bytes);
    }

    fn start_request(&mut self, request: FlowRequest, bytes: u64) {
        let id_new = self.new.start_request(request.clone(), bytes);
        let id_ref = self.reference.start_request(request, bytes);
        self.started(id_new, id_ref, bytes);
    }

    fn started(&mut self, id_new: FlowId, id_ref: RefFlowId, bytes: u64) {
        let creation = self.done.len();
        assert_eq!(id_ref.0, self.ref_order.len());
        self.new_ids.push(id_new);
        self.ref_order.push(creation);
        self.done.push(bytes == 0);
        self.check();
    }

    /// Next completion of both engines as (time, creation index).
    fn next_completion(&mut self) -> Option<(SimTime, usize)> {
        let a = self.new.next_completion();
        let b = self.reference.next_completion();
        match (a, b) {
            (None, None) => None,
            (Some((ta, ida)), Some((tb, idb))) => {
                assert_eq!(ta, tb, "completion times diverge");
                let ca = self
                    .new_ids
                    .iter()
                    .position(|&id| id == ida)
                    .expect("known id");
                let cb = self.ref_order[idb.0];
                assert_eq!(ca, cb, "completion flows diverge");
                Some((ta, ca))
            }
            (a, b) => panic!("one engine idle, the other not: {a:?} vs {b:?}"),
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        let fin_new = self.new.advance_to(t);
        let fin_ref = self.reference.advance_to(t);
        let creations_new: Vec<usize> = fin_new
            .iter()
            .map(|id| self.new_ids.iter().position(|n| n == id).expect("known id"))
            .collect();
        let creations_ref: Vec<usize> = fin_ref.iter().map(|id| self.ref_order[id.0]).collect();
        assert_eq!(creations_new, creations_ref, "finished sets diverge");
        for &c in &creations_new {
            self.done[c] = true;
        }
        self.check();
    }

    /// Retire the reference engine's completed flows (its ids shift).
    fn compact(&mut self) {
        self.reference.compact();
        self.ref_order.retain(|&c| !self.done[c]);
        self.check();
    }

    /// Invariants that must hold after every step: identical clocks,
    /// identical active sets, bit-identical rates for every live flow, and
    /// an id reads done exactly once its flow has finished.
    fn check(&mut self) {
        assert_eq!(self.new.now(), self.reference.now());
        assert_eq!(self.new.active_count(), self.reference.active_count());
        for (c, &id) in self.new_ids.iter().enumerate() {
            assert_eq!(self.new.is_done(id), self.done[c], "is_done of flow {c}");
        }
        for (pos, &c) in self.ref_order.iter().enumerate() {
            if self.done[c] {
                continue;
            }
            let r_new = self.new.rate(self.new_ids[c]);
            let r_ref = self.reference.rate(RefFlowId(pos));
            assert_eq!(
                r_new.to_bits(),
                r_ref.to_bits(),
                "rate of flow {c} diverges: {r_new} vs {r_ref}"
            );
        }
    }
}

fn drive(platform: &Platform, seed: u64, steps: usize) {
    let routes = routable_pairs(platform);
    assert!(!routes.is_empty());
    let mut rng = Rng(seed);
    let mut pair = Pair::new(platform);
    // Flow sizes: mixed, occasionally zero bytes.
    let bytes = |rng: &mut Rng| match rng.below(8) {
        0 => 0,
        1 => 1 + rng.below(4096),
        2..=4 => 1 + rng.below(1 << 20),
        _ => 1 + rng.below(1 << 30),
    };
    for _ in 0..steps {
        match rng.below(11) {
            // Start a flow along a route.
            0..=3 => {
                let route = &routes[rng.below(routes.len() as u64) as usize];
                let bytes = bytes(&mut rng);
                pair.start(route, bytes);
            }
            // Advance exactly to the next completion.
            4..=6 => {
                if let Some((t, _)) = pair.next_completion() {
                    pair.advance_to(t);
                }
            }
            // Partial advance: halfway to the next completion.
            7 => {
                if let Some((t, _)) = pair.next_completion() {
                    let dt = t.since(pair.new.now());
                    let half = pair.new.now() + SimDuration(dt.0 / 2);
                    pair.advance_to(half);
                }
            }
            // Zero-length advance.
            8 => {
                let now = pair.new.now();
                pair.advance_to(now);
            }
            // Retire completed flows in the reference engine.
            9 => pair.compact(),
            // Start a rate-capped host flow on a random socket.
            _ => {
                let socket = rng.below(platform.topology.cpu_count() as u64) as usize;
                let cap = gbps((1 + rng.below(40)) as f64);
                let bytes = bytes(&mut rng);
                pair.start_request(host_flow_request(platform, socket, cap), bytes);
            }
        }
    }
    // Drain event by event (not run_to_idle: every completion is compared).
    while let Some((t, _)) = pair.next_completion() {
        pair.advance_to(t);
    }
    assert_eq!(pair.new.now(), pair.reference.now());
    assert_eq!(pair.new.active_count(), 0);
}

#[test]
fn engines_agree_on_randomized_schedules() {
    let platforms = [
        Platform::test_pcie(2),
        Platform::ibm_ac922(),
        Platform::delta_d22x(),
        Platform::dgx_a100(),
        dgx_a100_cluster(2, Fabric::IbHdr),
    ];
    for (pi, p) in platforms.iter().enumerate() {
        for seed in 0..24u64 {
            drive(p, 0xD1F5_0000 + (pi as u64) * 1000 + seed, 40);
        }
    }
}

#[test]
fn engines_agree_on_long_staggered_schedule() {
    // One long schedule on the richest topology: keeps a deep active set
    // alive across many completions and compactions.
    let p = Platform::dgx_a100();
    drive(&p, 0xFEED_FACE, 400);
}
