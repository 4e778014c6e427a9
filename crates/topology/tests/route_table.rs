//! `Platform::route` against its oracle: on every platform the repository
//! builds, and on one ring with equal-cost paths, the lazily built
//! per-source shortest-path trees must hand out exactly the route the
//! free function [`route`] computes — same hops, same links, same order —
//! for every ordered pair of endpoints.

use msort_cluster::dgx_a100_cluster;
use msort_topology::platforms::CpuModel;
use msort_topology::route::{route, route_with};
use msort_topology::{
    gbps, Endpoint, Fabric, GpuModel, LinkKind, MemSpec, Platform, PlatformId, Route,
    TopologyBuilder,
};

/// Every endpoint of `p`: sockets, then GPUs.
fn endpoints(p: &Platform) -> Vec<Endpoint> {
    (0..p.topology.cpu_count())
        .map(Endpoint::host)
        .chain((0..p.gpu_count()).map(Endpoint::gpu))
        .collect()
}

/// Every ordered pair of `p`'s endpoints, an endpoint with itself included.
fn ordered_pairs(p: &Platform) -> Vec<(Endpoint, Endpoint)> {
    let ends = endpoints(p);
    ends.iter()
        .flat_map(|&a| ends.iter().map(move |&b| (a, b)))
        .collect()
}

/// Two sockets and four GPUs on one ring of equal-cost links,
/// `C0 - G0 - S0 - G1 - C1 - G2 - S1 - G3 - C0`, plus the chords
/// `C0 - C1` and `S0 - S1`, each at the cost of the two-hop ways round:
/// between opposite corners there are always two cheapest paths, and only
/// the scan's visit order picks one.
fn ring() -> Platform {
    let mem = MemSpec {
        capacity_bytes: 64 << 30,
        read_cap: gbps(80.0),
        write_cap: gbps(80.0),
        combined_cap: None,
    };
    let mut b = TopologyBuilder::new();
    let c0 = b.cpu(0, mem);
    let g0 = b.gpu(0, GpuModel::Custom);
    let s0 = b.pcie_switch("S0");
    let g1 = b.gpu(1, GpuModel::Custom);
    let c1 = b.cpu(1, mem);
    let g2 = b.gpu(2, GpuModel::Custom);
    let s1 = b.pcie_switch("S1");
    let g3 = b.gpu(3, GpuModel::Custom);
    let around = [c0, g0, s0, g1, c1, g2, s1, g3];
    for (i, &a) in around.iter().enumerate() {
        b.link(
            a,
            around[(i + 1) % around.len()],
            LinkKind::Custom,
            gbps(10.0),
        );
    }
    // Switch to switch and socket to socket: the relays' own short cuts,
    // each tying with a way round the ring.
    b.link(s0, s1, LinkKind::InfinityFabric, gbps(10.0));
    b.link(c0, c1, LinkKind::InfinityFabric, gbps(10.0));
    Platform::custom(b.build(), CpuModel::Custom)
}

fn platforms() -> Vec<Platform> {
    let mut all: Vec<Platform> = PlatformId::paper_set()
        .into_iter()
        .map(Platform::paper)
        .collect();
    all.push(Platform::test_pcie(4));
    for nodes in [2, 4, 8] {
        for fabric in Fabric::all() {
            all.push(dgx_a100_cluster(nodes, fabric));
        }
    }
    all.push(ring());
    all
}

#[test]
fn table_equals_the_free_function_on_every_ordered_pair() {
    let mut pairs = 0;
    for p in platforms() {
        for (a, b) in ordered_pairs(&p) {
            assert_eq!(
                p.route(a, b),
                route(&p.topology, a, b),
                "{a:?} -> {b:?} on {}",
                p.name()
            );
            pairs += 1;
        }
    }
    // 6² x 2 + 10² + 5² + 3 x (20² + 40² + 80²) + 6²
    assert_eq!(pairs, 25_433);
}

#[test]
fn ring_has_ties_and_the_table_breaks_them_like_the_scan() {
    let p = ring();
    let topo = &p.topology;
    let cost = |r: &Route| -> f64 {
        r.hops
            .iter()
            .map(|h| topo.link(h.link).kind.hop_cost())
            .sum()
    };
    // G0 -> G2 costs the same over the sockets and over the switches; the
    // sockets have the lower node ids, so the scan settles them first.
    let (g0, g2) = (Endpoint::gpu(0), Endpoint::gpu(2));
    let chosen = p.route(g0, g2).unwrap();
    assert!(chosen.traverses_host(topo));
    let chord = topo.link_between(topo.cpu(0), topo.cpu(1)).unwrap();
    let other = route_with(topo, g0, g2, |l| l != chord).unwrap();
    assert!(!other.traverses_host(topo));
    assert_eq!(cost(&chosen), cost(&other));
    assert_eq!(Some(chosen), route(topo, g0, g2));
}

#[test]
fn clones_taken_cold_and_warm_answer_the_same() {
    let p = dgx_a100_cluster(2, Fabric::IbHdr);
    let cold = p.clone();
    let pairs = ordered_pairs(&p);
    let answers: Vec<_> = pairs.iter().map(|&(a, b)| p.route(a, b)).collect();
    let warm = p.clone();
    for (&(a, b), expected) in pairs.iter().zip(&answers) {
        assert_eq!(&cold.route(a, b), expected);
        assert_eq!(&warm.route(a, b), expected);
    }
}

#[test]
fn device_local_pairs_give_the_empty_route() {
    for p in platforms() {
        for e in endpoints(&p) {
            let r = p.route(e, e).expect("an endpoint reaches itself");
            assert!(r.is_local(), "{e:?} on {}", p.name());
            assert_eq!((r.src, r.dst), (e, e));
        }
    }
}
