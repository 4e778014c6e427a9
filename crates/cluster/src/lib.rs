//! Multi-node cluster platforms.
//!
//! A cluster here is **one** [`Topology`]: `n` copies of a paper platform's
//! node hardware (appended with globally dense GPU and socket indices by
//! [`msort_topology::append_paper_node`]), plus per-node NICs and a central
//! fabric switch. Because the cluster is a single graph, every existing
//! engine layer works on it unchanged — Dijkstra routing finds cross-node
//! paths through the NICs, the PR-1 [`RateAllocator`] arbitrates NIC
//! contention exactly as it does NVLink, `FabricHealth` degrades NIC links
//! like any other link, and the flow simulator emits per-NIC utilization
//! counters for free.
//!
//! The shape per node: one NIC per CPU socket (two per node), each attached
//! to its socket and to the central fabric switch at the fabric's sustained
//! rate. Cross-node traffic therefore leaves through the socket-local NIC;
//! if that NIC's uplink dies, rerouting falls back to the sibling socket's
//! NIC over the inter-socket link (X-Bus / UPI / Infinity Fabric).
//!
//! Capacities follow De Sensi et al., "Exploring GPU-to-GPU Communication:
//! Insights into Supercomputer Interconnects" (arXiv 2408.14090) — see
//! [`Fabric`] for the numbers.
//!
//! ```
//! use msort_cluster::dgx_a100_cluster;
//! use msort_topology::Fabric;
//!
//! let p = dgx_a100_cluster(2, Fabric::IbHdr);
//! assert_eq!(p.gpu_count(), 16);
//! assert_eq!(p.name(), "2x NVIDIA DGX A100 (InfiniBand HDR)");
//! ```
//!
//! [`RateAllocator`]: msort_topology::RateAllocator
//! [`Topology`]: msort_topology::Topology

#![forbid(unsafe_code)]

use msort_topology::{
    append_paper_node, ClusterLayout, Fabric, Platform, PlatformId, TopologyBuilder,
};

/// Build an `n_nodes`-node cluster of `base` boxes joined by `fabric`.
///
/// Node `k` owns GPUs `k*g .. (k+1)*g` and CPU sockets `2k`, `2k + 1`
/// (globally dense indices — see [`ClusterLayout`]). Each socket gets one
/// NIC (`"Node {k} NIC {s}"`); all NICs meet at one non-blocking fabric
/// switch (`"{fabric} switch"`). Both NIC hops run at the fabric's
/// sustained per-direction rate, so a single cross-node stream is paced by
/// the fabric, and concurrent streams out of one socket contend for its NIC
/// under max-min fairness.
///
/// `n_nodes == 1` is allowed (the fabric sits idle) so scaling sweeps can
/// include a single-node baseline on an identical code path.
///
/// # Panics
/// Panics if `n_nodes == 0` or `base` is [`PlatformId::Custom`].
#[must_use]
pub fn cluster_of(base: PlatformId, n_nodes: usize, fabric: Fabric) -> Platform {
    assert!(n_nodes >= 1, "a cluster needs at least one node");
    let mut b = TopologyBuilder::new();
    let sockets_per_node: Vec<_> = (0..n_nodes)
        .map(|node| append_paper_node(&mut b, base, node))
        .collect();
    let kind = fabric.link_kind();
    let rate = fabric.effective_per_dir();
    let switch = b.nic(format!("{} switch", fabric.name()));
    for (node, sockets) in sockets_per_node.iter().enumerate() {
        for (s, &socket) in sockets.iter().enumerate() {
            let nic = b.nic(format!("Node {node} NIC {s}"));
            // The NIC's host interface is provisioned to line rate; the
            // high hop cost of fabric links keeps intra-node traffic off it.
            b.link(socket, nic, kind, rate);
            b.link(nic, switch, kind, rate);
        }
    }
    let sockets = sockets_per_node[0].len();
    Platform::from_parts(
        base,
        b.build(),
        base.cpu_model(),
        base.host_p2p_policy(),
        Some(ClusterLayout {
            nodes: n_nodes,
            gpus_per_node: base.gpus_per_node(),
            sockets_per_node: sockets,
            nics_per_node: sockets,
            fabric,
        }),
    )
}

/// A cluster of NVIDIA DGX A100 boxes (8 GPUs per node).
#[must_use]
pub fn dgx_a100_cluster(n_nodes: usize, fabric: Fabric) -> Platform {
    cluster_of(PlatformId::DgxA100, n_nodes, fabric)
}

/// A cluster of IBM Power System AC922 boxes (4 GPUs per node).
#[must_use]
pub fn ibm_ac922_cluster(n_nodes: usize, fabric: Fabric) -> Platform {
    cluster_of(PlatformId::IbmAc922, n_nodes, fabric)
}

/// A cluster of DELTA D22x M4 PS boxes (4 GPUs per node).
#[must_use]
pub fn delta_d22x_cluster(n_nodes: usize, fabric: Fabric) -> Platform {
    cluster_of(PlatformId::DeltaD22x, n_nodes, fabric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_topology::route::{route, route_with};
    use msort_topology::{allocate_rates, gbps, Endpoint, NodeKind};

    #[test]
    fn clusters_build_and_validate() {
        for base in PlatformId::paper_set() {
            for fabric in Fabric::all() {
                for nodes in [1, 2, 4, 8] {
                    let p = cluster_of(base, nodes, fabric);
                    let g = base.gpus_per_node();
                    assert_eq!(p.gpu_count(), nodes * g);
                    assert_eq!(p.topology.cpu_count(), 2 * nodes);
                    // Two NICs per node plus the central switch.
                    assert_eq!(p.topology.nics().len(), 2 * nodes + 1);
                    let layout = p.cluster.unwrap();
                    assert_eq!(layout.nodes, nodes);
                    assert_eq!(layout.node_of_gpu(nodes * g - 1), nodes - 1);
                }
            }
        }
    }

    #[test]
    fn cross_node_routes_cross_the_fabric() {
        let p = dgx_a100_cluster(2, Fabric::IbHdr);
        let intra = route(&p.topology, Endpoint::gpu(0), Endpoint::gpu(7)).unwrap();
        assert!(!intra.crosses_nic(&p.topology));
        let inter = route(&p.topology, Endpoint::gpu(0), Endpoint::gpu(8)).unwrap();
        assert!(inter.crosses_nic(&p.topology));
        let host = route(&p.topology, Endpoint::host(0), Endpoint::host(2)).unwrap();
        assert!(host.crosses_nic(&p.topology));
    }

    #[test]
    fn single_cross_node_flow_runs_at_fabric_rate() {
        for fabric in Fabric::all() {
            let p = dgx_a100_cluster(2, fabric);
            let r = route(&p.topology, Endpoint::host(0), Endpoint::host(2)).unwrap();
            let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
            assert!(
                (rates[0] - fabric.effective_per_dir()).abs() < gbps(0.1),
                "{}: {}",
                fabric.name(),
                rates[0]
            );
        }
    }

    #[test]
    fn same_socket_flows_share_one_nic() {
        let p = dgx_a100_cluster(2, Fabric::IbNdr);
        let r1 = route(&p.topology, Endpoint::host(0), Endpoint::host(2)).unwrap();
        let r2 = route(&p.topology, Endpoint::host(0), Endpoint::host(3)).unwrap();
        let rates = allocate_rates(
            p.constraint_table(),
            &[p.flow_request(&r1), p.flow_request(&r2)],
        );
        let half = Fabric::IbNdr.effective_per_dir() / 2.0;
        assert!((rates[0] - half).abs() < gbps(0.1), "{}", rates[0]);
        assert!((rates[1] - half).abs() < gbps(0.1), "{}", rates[1]);
    }

    #[test]
    fn nic_uplink_death_reroutes_via_sibling_nic() {
        let p = dgx_a100_cluster(2, Fabric::IbHdr);
        let clean = route(&p.topology, Endpoint::host(0), Endpoint::host(2)).unwrap();
        // Kill every link of the NIC the clean route uses.
        let dead_nic = clean
            .hops
            .iter()
            .map(|h| h.to)
            .find(|&n| matches!(p.topology.node(n).kind, NodeKind::Nic))
            .unwrap();
        let rerouted = route_with(&p.topology, Endpoint::host(0), Endpoint::host(2), |l| {
            let link = p.topology.link(l);
            link.a != dead_nic && link.b != dead_nic
        })
        .unwrap();
        assert!(rerouted.crosses_nic(&p.topology));
        assert!(rerouted.hops.iter().all(|h| h.to != dead_nic));
        // The detour goes over the sibling socket's NIC, so it is longer.
        assert!(rerouted.hop_count() > clean.hop_count());
    }

    #[test]
    fn cross_node_p2p_is_not_host_p2p_capped() {
        // On the AC922 the host-P2P per-flow cap (32 GB/s) exceeds the HDR
        // fabric rate, so the exemption must leave cross-node flows paced
        // by the NIC, and within-node host P2P still capped.
        let p = ibm_ac922_cluster(2, Fabric::IbNdr);
        let inter = route(&p.topology, Endpoint::gpu(0), Endpoint::gpu(4)).unwrap();
        assert!(inter.crosses_nic(&p.topology));
        let req = p.flow_request(&inter);
        assert!(req.rate_cap.is_none());
        let intra = route(&p.topology, Endpoint::gpu(0), Endpoint::gpu(2)).unwrap();
        assert!(!intra.crosses_nic(&p.topology));
        assert_eq!(p.flow_request(&intra).rate_cap, Some(gbps(32.0)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = cluster_of(PlatformId::DgxA100, 0, Fabric::IbHdr);
    }
}
