//! Weighted max-min fair rate allocation ("progressive filling").
//!
//! Given a set of flows, each loading a set of capacity constraints, the
//! allocator raises all flow rates uniformly until some constraint
//! saturates; flows crossing a saturated constraint are frozen at their
//! current rate and filling continues for the rest. A flow may additionally
//! carry an individual rate cap (used to model single-stream inefficiencies
//! such as host-traversing P2P copies, which the paper measures well below
//! the bottleneck link's capacity).
//!
//! This is the standard fluid model of bandwidth sharing: it reproduces the
//! paper's contention effects (GPU pairs sharing a PCIe switch each get half
//! the switch's rate; four P2P streams sharing the X-Bus collapse to a
//! fraction of direct NVLink throughput) without simulating packets.
//!
//! A round costs what is still filling: the unfrozen flows and the
//! constraints they load, not the whole flow set and constraint table (see
//! [`RateAllocator`] for why that leaves the rates bit-identical).

use crate::constraint::{ConstraintTable, ConstraintVec};

/// One flow's demand: the constraints it loads and an optional rate cap.
#[derive(Debug, Clone)]
pub struct FlowRequest {
    /// `(constraint, weight)` pairs; the flow consumes `weight × rate`
    /// against each listed constraint. Stored inline for every real route
    /// (see [`ConstraintVec`]).
    pub constraints: ConstraintVec,
    /// Per-flow maximum rate (bytes/s), if any.
    pub rate_cap: Option<f64>,
}

impl FlowRequest {
    /// Flow with unit weights on `constraints` and no rate cap.
    #[must_use]
    pub fn new(constraints: impl Into<ConstraintVec>) -> Self {
        Self {
            constraints: constraints.into(),
            rate_cap: None,
        }
    }

    /// Attach a rate cap.
    #[must_use]
    pub fn with_cap(mut self, cap: f64) -> Self {
        self.rate_cap = Some(cap);
        self
    }
}

/// Reusable progressive-filling allocator owning its scratch state.
///
/// The free function [`allocate_rates`] builds fresh scratch on every call,
/// which is fine for one-shot use but shows up hard in the event loop of
/// `msort-sim`, where every flow start and completion re-allocates. A
/// `RateAllocator` keeps its scratch between calls, so a steady-state
/// re-allocation performs no heap allocation at all, and takes flows by
/// reference (through an index accessor) instead of requiring a contiguous
/// cloned `Vec<FlowRequest>`.
///
/// Each filling round visits only the flows still filling and the
/// constraints they load; the only whole-table work is one `remaining`
/// initialisation per call. The rates are bit-identical to the original
/// loop (which visited every flow and every constraint each round) because
/// every float operation keeps its operands and its order: per-constraint
/// weight sums and `remaining` decrements run in flow order, then
/// constraint-list order, and the increment is a min, which no scan order
/// changes.
#[derive(Debug, Default)]
pub struct RateAllocator {
    /// Per-constraint total weight of the flows still filling; all zero
    /// between rounds (each round zeroes exactly the entries it summed), so
    /// a zero weight at a summation step marks a constraint not yet in
    /// `loaded` this round.
    weight: Vec<f64>,
    /// Per-constraint remaining capacity.
    remaining: Vec<f64>,
    /// The constraints the flows still filling load, in first-load order.
    /// A constraint whose running sum is still zero at a later entry (after
    /// zero-weight entries) is listed again; the duplicate finds its weight
    /// already zeroed.
    loaded: Vec<usize>,
    /// The flows still filling, in input order.
    live: Vec<usize>,
}

impl RateAllocator {
    /// An allocator with empty scratch (grows on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute max-min fair rates (bytes/s) for the `n` flows returned by
    /// `flow_at`, writing one rate per flow (in order) into `rates`.
    ///
    /// `flow_at(i)` must return the `i`-th flow for `i < n`; taking an
    /// accessor rather than a slice lets callers keep each request inside
    /// a larger per-flow record without cloning per call.
    ///
    /// Flows with an empty constraint list and no cap are unconstrained;
    /// they receive `f64::INFINITY` (callers model such copies — e.g.
    /// intra-device — with explicit rate caps instead).
    pub fn allocate_with<'f>(
        &mut self,
        table: &ConstraintTable,
        n: usize,
        flow_at: impl Fn(usize) -> &'f FlowRequest,
        rates: &mut Vec<f64>,
    ) {
        rates.clear();
        rates.resize(n, 0.0);
        if n == 0 {
            return;
        }

        self.remaining.clear();
        self.remaining
            .extend(table.constraints().iter().map(|c| c.capacity));
        self.weight.resize(self.remaining.len(), 0.0);
        self.live.clear();
        self.live.extend(0..n);

        loop {
            // Weight per constraint of the flows still filling, the
            // constraints they load, and their tightest cap headroom.
            let mut delta = f64::INFINITY;
            for &f in &self.live {
                let flow = flow_at(f);
                for &(c, w) in &flow.constraints {
                    if self.weight[c.0] == 0.0 {
                        self.loaded.push(c.0);
                    }
                    self.weight[c.0] += w;
                }
                if let Some(cap) = flow.rate_cap {
                    delta = delta.min(cap - rates[f]);
                }
            }

            // The uniform rate increment every filling flow can still take;
            // the same pass leaves `weight` all zero for the next round (or
            // call).
            for &c in &self.loaded {
                let w = self.weight[c];
                if w > 0.0 {
                    delta = delta.min(self.remaining[c] / w);
                }
                self.weight[c] = 0.0;
            }
            self.loaded.clear();
            if !delta.is_finite() {
                // Remaining flows are unconstrained.
                for &f in &self.live {
                    rates[f] = f64::INFINITY;
                }
                return;
            }
            let delta = delta.max(0.0);

            // Apply the increment and its consumption.
            for &f in &self.live {
                rates[f] += delta;
                for &(c, w) in &flow_at(f).constraints {
                    self.remaining[c.0] = (self.remaining[c.0] - delta * w).max(0.0);
                }
            }

            // Freeze flows at their cap or on a saturated constraint.
            let filling = self.live.len();
            let remaining = &self.remaining;
            self.live.retain(|&f| {
                let flow = flow_at(f);
                let capped = flow
                    .rate_cap
                    .is_some_and(|cap| rates[f] >= cap - f64::EPSILON * cap.abs());
                let saturated = flow.constraints.iter().any(|&(c, w)| {
                    w > 0.0 && remaining[c.0] <= saturation_epsilon(table.capacity(c))
                });
                !(capped || saturated)
            });
            // Stop once every flow froze, or in the numerical corner where
            // nothing froze because delta was ~0: the rates are max-min.
            if self.live.is_empty() || self.live.len() == filling {
                return;
            }
        }
    }
}

/// Compute max-min fair rates (bytes/s) for `flows` under `table`.
///
/// Returns one rate per flow, in order. This is a convenience wrapper over
/// [`RateAllocator`] for one-shot use; event loops should hold a
/// `RateAllocator` and reuse its scratch.
#[must_use]
pub fn allocate_rates(table: &ConstraintTable, flows: &[FlowRequest]) -> Vec<f64> {
    let mut rates = Vec::with_capacity(flows.len());
    RateAllocator::new().allocate_with(table, flows.len(), |i| &flows[i], &mut rates);
    rates
}

/// Tolerance for deciding a constraint is saturated, relative to its size.
fn saturation_epsilon(capacity: f64) -> f64 {
    (capacity * 1e-9).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintTable;
    use crate::graph::{gbps, GpuModel, LinkKind, MemSpec, TopologyBuilder};
    use crate::platforms::{append_paper_node, CpuModel, Fabric, Platform, PlatformId};
    use crate::route::{route, Endpoint};

    /// CPU0 with one PCIe link to each of two GPUs and a duplex cap.
    fn topo_shared_mem() -> (crate::graph::Topology, ConstraintTable) {
        let mut b = TopologyBuilder::new();
        let c0 = b.cpu(
            0,
            MemSpec {
                capacity_bytes: 1 << 34,
                read_cap: gbps(20.0),
                write_cap: gbps(15.0),
                combined_cap: Some(gbps(24.0)),
            },
        );
        let g0 = b.gpu(0, GpuModel::V100);
        let g1 = b.gpu(1, GpuModel::V100);
        b.link_duplex(c0, g0, LinkKind::Pcie3, gbps(13.0), gbps(20.0));
        b.link_duplex(c0, g1, LinkKind::Pcie3, gbps(13.0), gbps(20.0));
        let t = b.build();
        let table = ConstraintTable::new(&t);
        (t, table)
    }

    fn flow(
        t: &crate::graph::Topology,
        table: &ConstraintTable,
        src: Endpoint,
        dst: Endpoint,
    ) -> FlowRequest {
        let r = route(t, src, dst).unwrap();
        FlowRequest::new(table.route_constraints(t, &r))
    }

    #[test]
    fn single_flow_gets_bottleneck_rate() {
        let (t, table) = topo_shared_mem();
        let f = flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(0));
        let rates = allocate_rates(&table, &[f]);
        assert!((rates[0] - gbps(13.0)).abs() < 1e6, "rate {}", rates[0]);
    }

    #[test]
    fn two_parallel_flows_share_memory_read_cap() {
        let (t, table) = topo_shared_mem();
        let f0 = flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(0));
        let f1 = flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(1));
        let rates = allocate_rates(&table, &[f0, f1]);
        // Each link allows 13, but the memory read cap of 20 splits evenly.
        assert!((rates[0] - gbps(10.0)).abs() < 1e6);
        assert!((rates[1] - gbps(10.0)).abs() < 1e6);
    }

    #[test]
    fn bidirectional_flows_hit_duplex_cap() {
        let (t, table) = topo_shared_mem();
        let up = flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(0));
        let down = flow(&t, &table, Endpoint::gpu(0), Endpoint::HOST0);
        let rates = allocate_rates(&table, &[up, down]);
        // Duplex cap 20 shared evenly: 10 each (below per-dir 13).
        assert!((rates[0] - gbps(10.0)).abs() < 1e6, "up {}", rates[0]);
        assert!((rates[1] - gbps(10.0)).abs() < 1e6, "down {}", rates[1]);
    }

    #[test]
    fn rate_cap_freezes_flow_and_releases_capacity() {
        let (t, table) = topo_shared_mem();
        let f0 = flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(0)).with_cap(gbps(4.0));
        let f1 = flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(1));
        let rates = allocate_rates(&table, &[f0, f1]);
        assert!((rates[0] - gbps(4.0)).abs() < 1e6);
        // f1 takes the rest of the 20 read cap, limited by its 13 link.
        assert!((rates[1] - gbps(13.0)).abs() < 1e6, "f1 {}", rates[1]);
    }

    #[test]
    fn max_min_is_pareto_and_feasible() {
        let (t, table) = topo_shared_mem();
        let flows = vec![
            flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(0)),
            flow(&t, &table, Endpoint::HOST0, Endpoint::gpu(1)),
            flow(&t, &table, Endpoint::gpu(0), Endpoint::HOST0),
            flow(&t, &table, Endpoint::gpu(1), Endpoint::HOST0),
        ];
        let rates = allocate_rates(&table, &flows);
        // Feasibility: per-constraint consumption within capacity.
        let mut used = vec![0.0; table.constraints().len()];
        for (f, fl) in flows.iter().enumerate() {
            for &(c, w) in &fl.constraints {
                used[c.0] += rates[f] * w;
            }
        }
        for (u, c) in used.iter().zip(table.constraints()) {
            assert!(*u <= c.capacity * 1.000001, "{u} > {}", c.capacity);
        }
        // Every flow crosses at least one saturated constraint (Pareto).
        for (f, fl) in flows.iter().enumerate() {
            let bottlenecked = fl
                .constraints
                .iter()
                .any(|&(c, _)| used[c.0] >= table.capacity(c) * 0.999);
            assert!(bottlenecked, "flow {f} has no bottleneck");
        }
    }

    #[test]
    fn empty_flow_list() {
        let (_t, table) = topo_shared_mem();
        assert!(allocate_rates(&table, &[]).is_empty());
    }

    #[test]
    fn unconstrained_flow_is_infinite() {
        let (_t, table) = topo_shared_mem();
        let rates = allocate_rates(&table, &[FlowRequest::new(Vec::new())]);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn uncapped_and_capped_mix_terminates() {
        let (_t, table) = topo_shared_mem();
        let rates = allocate_rates(&table, &[FlowRequest::new(Vec::new()).with_cap(gbps(5.0))]);
        assert!((rates[0] - gbps(5.0)).abs() < 1e6);
    }

    /// An eight-node DGX A100 cluster on HDR InfiniBand, wired the way
    /// `msort_cluster::cluster_of` wires it (that crate depends on this one,
    /// so unit tests here cannot call it).
    fn dgx_cluster() -> Platform {
        let fabric = Fabric::IbHdr;
        let mut b = TopologyBuilder::new();
        let sockets: Vec<_> = (0..8)
            .map(|node| append_paper_node(&mut b, PlatformId::DgxA100, node))
            .collect();
        let switch = b.nic("switch");
        for (node, node_sockets) in sockets.iter().enumerate() {
            for (s, &socket) in node_sockets.iter().enumerate() {
                let nic = b.nic(format!("Node {node} NIC {s}"));
                b.link(socket, nic, fabric.link_kind(), fabric.effective_per_dir());
                b.link(nic, switch, fabric.link_kind(), fabric.effective_per_dir());
            }
        }
        Platform::custom(b.build(), CpuModel::Custom)
    }

    fn requests(p: &Platform, pairs: &[(Endpoint, Endpoint)]) -> Vec<FlowRequest> {
        pairs
            .iter()
            .map(|&(src, dst)| p.flow_request(&p.route(src, dst).unwrap()))
            .collect()
    }

    /// `plain` plus what makes filling take several rounds and exercises
    /// every per-entry path: a cap far below any fair share, a duplicated
    /// entry, a zero-weight entry, and a flow that loads nothing.
    fn multi_round(plain: &[FlowRequest]) -> Vec<FlowRequest> {
        let mut flows = plain.to_vec();
        flows[0].rate_cap = Some(gbps(1.0));
        let first = flows[1].constraints.as_slice()[0];
        flows[1].constraints.push(first);
        let other = flows[3].constraints.as_slice()[0].0;
        flows[2].constraints.push((other, 0.0));
        flows.push(FlowRequest::new(Vec::new()));
        flows
    }

    #[test]
    fn reused_scratch_matches_a_fresh_allocator() {
        let dgx = Platform::dgx_a100();
        let cluster = dgx_cluster();
        let both_ways = |a: Endpoint, b: Endpoint| [(a, b), (b, a)];
        let host: Vec<_> = (0..8)
            .flat_map(|g| both_ways(Endpoint::HOST0, Endpoint::gpu(g)))
            .collect();
        // Node-0 GPU g and a GPU on node g % 7 + 1.
        let cross: Vec<_> = (0..8)
            .flat_map(|g| both_ways(Endpoint::gpu(g), Endpoint::gpu(8 * (g % 7 + 1) + g)))
            .collect();
        let dgx_plain = requests(&dgx, &host);
        let cluster_plain = requests(&cluster, &cross);
        let single = requests(&dgx, &host[..1]);
        let dgx_multi = multi_round(&dgx_plain);
        let cluster_multi = multi_round(&cluster_plain);
        let calls = [
            (&dgx, &dgx_multi),
            (&cluster, &cluster_plain),
            (&dgx, &single),
            (&cluster, &cluster_multi),
            (&dgx, &dgx_plain),
        ];

        let mut shared = RateAllocator::new();
        let mut rates = Vec::new();
        for _ in 0..3 {
            for &(p, flows) in &calls {
                let table = p.constraint_table();
                shared.allocate_with(table, flows.len(), |i| &flows[i], &mut rates);
                let fresh = allocate_rates(table, flows);
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rates), bits(&fresh), "{} flows", flows.len());
                if flows.last().unwrap().constraints.is_empty() {
                    // Multi-round: the capped flow froze first, others rose past it.
                    assert_eq!(rates[0], gbps(1.0));
                    assert!(rates[1..].iter().any(|&r| r.is_finite() && r > gbps(1.0)));
                    assert_eq!(*rates.last().unwrap(), f64::INFINITY);
                }
            }
        }
    }
}
