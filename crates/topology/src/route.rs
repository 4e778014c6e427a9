//! Routing between transfer endpoints.
//!
//! A transfer moves bytes between two *endpoints*: a NUMA node's host memory
//! or a GPU's device memory. The route is the sequence of directed link
//! traversals the copy stream occupies. Routing is shortest-path by link
//! [`hop cost`](crate::graph::LinkKind::hop_cost), which encodes the
//! preference order real CUDA copy engines exhibit (NVLink/NVSwitch over
//! PCIe, direct paths over host-traversing ones).

use crate::graph::{LinkId, NodeId, NodeKind, Topology};
use std::sync::OnceLock;

/// One end of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Host memory attached to CPU `socket`.
    HostMem {
        /// NUMA socket index.
        socket: usize,
    },
    /// Device memory of GPU `index`.
    GpuMem {
        /// System-wide GPU index.
        index: usize,
    },
}

impl Endpoint {
    /// Host memory of socket 0 — where the paper allocates all input data.
    pub const HOST0: Endpoint = Endpoint::HostMem { socket: 0 };

    /// Convenience constructor for a GPU endpoint.
    #[must_use]
    pub fn gpu(index: usize) -> Self {
        Endpoint::GpuMem { index }
    }

    /// Convenience constructor for a host-memory endpoint.
    #[must_use]
    pub fn host(socket: usize) -> Self {
        Endpoint::HostMem { socket }
    }

    /// Resolve to the topology node holding this endpoint's memory.
    #[must_use]
    pub fn node(self, topo: &Topology) -> NodeId {
        match self {
            Endpoint::HostMem { socket } => topo.cpu(socket),
            Endpoint::GpuMem { index } => topo.gpu(index),
        }
    }
}

/// A directed traversal of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// The link being traversed.
    pub link: LinkId,
    /// Node the traversal leaves from.
    pub from: NodeId,
    /// Node the traversal arrives at.
    pub to: NodeId,
}

/// The path of a transfer from `src` to `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Directed link traversals in order (empty for device-local copies).
    pub hops: Vec<Hop>,
}

impl Route {
    /// `true` if the route crosses any CPU socket *between* other nodes —
    /// the paper's "host-traversing" transfers whose single-stream rate is
    /// lower than the bottleneck link (Figures 5a and 6a).
    #[must_use]
    pub fn traverses_host(&self, topo: &Topology) -> bool {
        // Interior nodes only: the first hop leaves the source node, the
        // last arrives at the destination node.
        self.hops
            .iter()
            .skip(1)
            .any(|h| matches!(topo.node(h.from).kind, NodeKind::Cpu { .. }))
    }

    /// `true` if the route crosses the inter-node fabric (traverses a NIC
    /// or fabric-switch node). Such transfers leave the box, so intra-node
    /// calibration policies (e.g. the host-traversing P2P rate cap) do not
    /// apply to them.
    #[must_use]
    pub fn crosses_nic(&self, topo: &Topology) -> bool {
        self.hops
            .iter()
            .any(|h| matches!(topo.node(h.to).kind, NodeKind::Nic))
    }

    /// Number of link traversals.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// `true` when source and destination are the same device (DtoD copy).
    #[must_use]
    pub fn is_local(&self) -> bool {
        self.hops.is_empty()
    }
}

/// Find the cheapest route between two endpoints.
///
/// Returns `None` when the endpoints are disconnected. Equal-cost ties are
/// broken deterministically by node id so repeated runs take identical
/// paths.
#[must_use]
pub fn route(topo: &Topology, src: Endpoint, dst: Endpoint) -> Option<Route> {
    route_with(topo, src, dst, |_| true)
}

/// [`route`] restricted to links for which `usable` returns `true` — the
/// health-aware variant used after fault injection. `route(..)` is exactly
/// `route_with(.., |_| true)`, so the always-healthy path is unchanged.
#[must_use]
pub fn route_with(
    topo: &Topology,
    src: Endpoint,
    dst: Endpoint,
    usable: impl Fn(LinkId) -> bool,
) -> Option<Route> {
    let src_node = src.node(topo);
    let dst_node = dst.node(topo);
    let prev = predecessors(topo, src_node, Some(dst_node), usable);
    let hops = walk_back(&prev, src_node, dst_node)?;
    Some(Route { src, dst, hops })
}

/// Dijkstra over hop costs from `src_node`: every reached node's final hop
/// on its cheapest path. Stops as soon as `target` is selected, or runs to
/// exhaustion for `None`. Hop costs are positive, so a selected node's
/// predecessor chain never changes afterwards: stopping early and running
/// on give the same path to `target`.
///
/// Selection is a linear scan that takes the lowest-index node among equal
/// distances, and relaxation is strict `<`. That visit order *is* the
/// equal-cost tie-break, and [`RouteTable`] must reproduce it, which is why
/// the scan stays where a heap would be asymptotically faster. Hot paths
/// pay for it once per source per [`Platform`](crate::Platform), not per
/// call: the largest cluster topologies have 137 nodes.
fn predecessors(
    topo: &Topology,
    src_node: NodeId,
    target: Option<NodeId>,
    usable: impl Fn(LinkId) -> bool,
) -> Vec<Option<Hop>> {
    let n = topo.nodes().len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<Hop>> = vec![None; n];
    let mut done = vec![false; n];
    dist[src_node.0] = 0.0;

    loop {
        let mut current: Option<usize> = None;
        let mut best = f64::INFINITY;
        for (i, (&d, &fin)) in dist.iter().zip(done.iter()).enumerate() {
            if !fin && d < best {
                best = d;
                current = Some(i);
            }
        }
        let Some(u) = current else { break };
        if target == Some(NodeId(u)) {
            break;
        }
        done[u] = true;
        // GPUs are endpoints, not relays: a copy stream never forwards
        // through a third GPU's memory system (the paper discusses such
        // multi-hop routing only as future work, Section 7).
        if u != src_node.0 && matches!(topo.node(NodeId(u)).kind, NodeKind::Gpu { .. }) {
            continue;
        }
        for &(link_id, v) in topo.neighbors(NodeId(u)) {
            if !usable(link_id) {
                continue;
            }
            let cost = dist[u] + topo.link(link_id).kind.hop_cost();
            if cost < dist[v.0] {
                dist[v.0] = cost;
                prev[v.0] = Some(Hop {
                    link: link_id,
                    from: NodeId(u),
                    to: v,
                });
            }
        }
    }
    prev
}

/// The hops from `src_node` to `dst_node` along `prev`, or `None` when the
/// scan never reached `dst_node`. Empty when the two are the same node.
fn walk_back(prev: &[Option<Hop>], src_node: NodeId, dst_node: NodeId) -> Option<Vec<Hop>> {
    // Count first: every transfer op keeps its route for as long as it
    // lives, so the vector is allocated at exactly its length.
    let mut len = 0;
    let mut cursor = dst_node;
    while cursor != src_node {
        cursor = prev[cursor.0]?.from;
        len += 1;
    }
    let mut hops = Vec::with_capacity(len);
    let mut cursor = dst_node;
    for _ in 0..len {
        let hop = prev[cursor.0].expect("counted above");
        hops.push(hop);
        cursor = hop.from;
    }
    hops.reverse();
    Some(hops)
}

/// The pristine-fabric routes of one topology: per source endpoint (sockets,
/// then GPUs) the full predecessor tree of [`route`]'s scan, built when that
/// source is first asked for. A route is a pure function of the topology, so
/// [`Platform`](crate::Platform) owns one table and every layer above reads
/// it instead of re-running the scan per call.
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    /// Node of every endpoint: sockets in index order, then GPUs.
    nodes: Vec<NodeId>,
    sockets: usize,
    /// Parallel to `nodes`.
    trees: Vec<OnceLock<Vec<Option<Hop>>>>,
}

impl RouteTable {
    /// An empty table for `topo`, whose socket and GPU indices must be
    /// dense ([`Topology::validate`]). Runs no scan.
    pub(crate) fn new(topo: &Topology) -> Self {
        let mut sockets = Vec::new();
        let mut gpus = Vec::new();
        for (i, node) in topo.nodes().iter().enumerate() {
            match node.kind {
                NodeKind::Cpu { socket, .. } => sockets.push((socket, NodeId(i))),
                NodeKind::Gpu { index, .. } => gpus.push((index, NodeId(i))),
                _ => {}
            }
        }
        sockets.sort_unstable();
        gpus.sort_unstable();
        let nodes: Vec<NodeId> = sockets.iter().chain(&gpus).map(|&(_, id)| id).collect();
        Self {
            trees: vec![OnceLock::new(); nodes.len()],
            nodes,
            sockets: sockets.len(),
        }
    }

    /// Position of `endpoint` in `nodes`, or `None` when the topology has
    /// no such socket or GPU.
    fn slot(&self, endpoint: Endpoint) -> Option<usize> {
        match endpoint {
            Endpoint::HostMem { socket } => (socket < self.sockets).then_some(socket),
            Endpoint::GpuMem { index } => {
                (index < self.nodes.len() - self.sockets).then(|| self.sockets + index)
            }
        }
    }

    /// What [`route`]`(topo, src, dst)` returns, for the `topo` this table
    /// was built for; `None` also for an endpoint `topo` does not have.
    pub(crate) fn route(&self, topo: &Topology, src: Endpoint, dst: Endpoint) -> Option<Route> {
        let from = self.slot(src)?;
        let src_node = self.nodes[from];
        let dst_node = self.nodes[self.slot(dst)?];
        let tree = self.trees[from].get_or_init(|| predecessors(topo, src_node, None, |_| true));
        let hops = walk_back(tree, src_node, dst_node)?;
        Some(Route { src, dst, hops })
    }
}

/// Find a route that relays through intermediate GPU `via` — the multi-hop
/// P2P routing the paper proposes as future work (Section 7): a pipelined
/// relay occupies both legs simultaneously, so the concatenated route *is*
/// the right fluid-flow model for it.
///
/// Returns `None` if either leg is unroutable, if `via` coincides with an
/// endpoint, or if a leg would itself cross the host (relays exist to avoid
/// the host side; a host-crossing leg defeats the purpose).
#[must_use]
pub fn route_via(topo: &Topology, src: Endpoint, dst: Endpoint, via: usize) -> Option<Route> {
    route_via_with(topo, src, dst, via, |_| true)
}

/// [`route_via`] restricted to links for which `usable` returns `true` —
/// relay resolution over a partially failed fabric.
#[must_use]
pub fn route_via_with(
    topo: &Topology,
    src: Endpoint,
    dst: Endpoint,
    via: usize,
    usable: impl Fn(LinkId) -> bool,
) -> Option<Route> {
    let mid = Endpoint::gpu(via);
    if src == mid || dst == mid || src == dst {
        return None;
    }
    let first = route_with(topo, src, mid, &usable)?;
    let second = route_with(topo, mid, dst, &usable)?;
    if first.traverses_host(topo) || second.traverses_host(topo) {
        return None;
    }
    let mut hops = first.hops;
    hops.extend(second.hops);
    Some(Route { src, dst, hops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{gbps, GpuModel, LinkKind, MemSpec, TopologyBuilder};

    fn mem() -> MemSpec {
        MemSpec {
            capacity_bytes: 1 << 34,
            read_cap: gbps(100.0),
            write_cap: gbps(100.0),
            combined_cap: None,
        }
    }

    /// CPU0 — GPU0, GPU1 (NVLink); CPU0 — CPU1 (X-Bus); CPU1 — GPU2.
    fn two_socket() -> crate::graph::Topology {
        let mut b = TopologyBuilder::new();
        let c0 = b.cpu(0, mem());
        let c1 = b.cpu(1, mem());
        let g0 = b.gpu(0, GpuModel::V100);
        let g1 = b.gpu(1, GpuModel::V100);
        let g2 = b.gpu(2, GpuModel::V100);
        b.link(c0, g0, LinkKind::NvLink2 { bricks: 3 }, gbps(72.0));
        b.link(c0, g1, LinkKind::NvLink2 { bricks: 3 }, gbps(72.0));
        b.link(c1, g2, LinkKind::NvLink2 { bricks: 3 }, gbps(72.0));
        b.link(c0, c1, LinkKind::XBus, gbps(41.0));
        b.link(g0, g1, LinkKind::NvLink2 { bricks: 3 }, gbps(72.0));
        b.build()
    }

    #[test]
    fn local_gpu_route_is_direct() {
        let t = two_socket();
        let r = route(&t, Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        assert_eq!(r.hop_count(), 1);
        assert!(!r.traverses_host(&t));
    }

    #[test]
    fn remote_gpu_route_crosses_xbus() {
        let t = two_socket();
        let r = route(&t, Endpoint::HOST0, Endpoint::gpu(2)).unwrap();
        assert_eq!(r.hop_count(), 2);
        // src is a CPU node but only interior CPUs count as host traversal.
        assert!(r.traverses_host(&t));
        assert_eq!(t.link(r.hops[0].link).kind, LinkKind::XBus);
    }

    #[test]
    fn p2p_direct_beats_host_path() {
        let t = two_socket();
        let r = route(&t, Endpoint::gpu(0), Endpoint::gpu(1)).unwrap();
        assert_eq!(r.hop_count(), 1);
        assert!(!r.traverses_host(&t));
    }

    #[test]
    fn p2p_remote_traverses_host() {
        let t = two_socket();
        let r = route(&t, Endpoint::gpu(0), Endpoint::gpu(2)).unwrap();
        assert_eq!(r.hop_count(), 3); // GPU0 -> CPU0 -> CPU1 -> GPU2
        assert!(r.traverses_host(&t));
    }

    #[test]
    fn device_local_route_is_empty() {
        let t = two_socket();
        let r = route(&t, Endpoint::gpu(1), Endpoint::gpu(1)).unwrap();
        assert!(r.is_local());
        assert!(!r.traverses_host(&t));
    }

    #[test]
    fn disconnected_returns_none() {
        let mut b = TopologyBuilder::new();
        b.cpu(0, mem());
        b.gpu(0, GpuModel::A100);
        let t = b.build();
        assert!(route(&t, Endpoint::HOST0, Endpoint::gpu(0)).is_none());
    }

    #[test]
    fn route_via_builds_relay() {
        let t = two_socket();
        // GPU 0 -> GPU 1 via... there is no third GPU on socket 0; relay
        // through GPU 1 to GPU 2 would cross the host on the second leg.
        assert!(route_via(&t, Endpoint::gpu(0), Endpoint::gpu(2), 1).is_none());
        // Degenerate cases.
        assert!(route_via(&t, Endpoint::gpu(0), Endpoint::gpu(1), 0).is_none());
        assert!(route_via(&t, Endpoint::gpu(0), Endpoint::gpu(1), 1).is_none());
    }

    #[test]
    fn route_via_on_ring_topology() {
        // Build a DELTA-like NVLink ring: 0-1, 1-3, 2-3, 0-2; relay 0->3
        // via 1 stays entirely on NVLink.
        let mut b = TopologyBuilder::new();
        let c0 = b.cpu(0, mem());
        let gpus: Vec<_> = (0..4).map(|i| b.gpu(i, GpuModel::V100)).collect();
        for &g in &gpus {
            b.link(c0, g, LinkKind::Pcie3, gbps(12.0));
        }
        let nv = LinkKind::NvLink2 { bricks: 2 };
        b.link(gpus[0], gpus[1], nv, gbps(48.0));
        b.link(gpus[1], gpus[3], nv, gbps(24.0));
        b.link(gpus[2], gpus[3], nv, gbps(48.0));
        b.link(gpus[0], gpus[2], nv, gbps(48.0));
        let t = b.build();
        let relay = route_via(&t, Endpoint::gpu(0), Endpoint::gpu(3), 1).unwrap();
        assert_eq!(relay.hop_count(), 2);
        assert!(!relay.traverses_host(&t));
        // The direct route crosses the host (no direct 0-3 link).
        let direct = route(&t, Endpoint::gpu(0), Endpoint::gpu(3)).unwrap();
        assert!(direct.traverses_host(&t));
    }

    #[test]
    fn hops_are_contiguous() {
        let t = two_socket();
        let r = route(&t, Endpoint::gpu(0), Endpoint::gpu(2)).unwrap();
        for w in r.hops.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        assert_eq!(r.hops.first().unwrap().from, t.gpu(0));
        assert_eq!(r.hops.last().unwrap().to, t.gpu(2));
    }
}
