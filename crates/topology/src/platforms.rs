//! The paper's three evaluation platforms (Table 1), calibrated.
//!
//! Every link capacity below is the paper's own *measured single-stream*
//! rate from Figures 2–7, not the datasheet number; all multi-stream,
//! parallel, and bidirectional results are then *predicted* by the max-min
//! contention model and compared against the paper in EXPERIMENTS.md.
//!
//! Calibration sources, per platform:
//!
//! **IBM Power System AC922** (2× POWER9, 4× V100, NVLink 2.0 everywhere,
//! X-Bus between sockets):
//! * CPU↔GPU and GPU↔GPU three-brick NVLink 2.0: 72 GB/s measured of 75
//!   theoretical (Fig. 2a / 5a); local bidirectional copies reach 127 GB/s,
//!   modeled as a CPU↔GPU duplex cap.
//! * X-Bus: 41 GB/s sustained toward the remote socket, 35 GB/s back
//!   (Fig. 2a), 65 GB/s duplex (remote bidi bar), though host-traversing
//!   *P2P* streams only reach 32 GB/s (Fig. 5a) — modeled as a per-flow
//!   rate cap — and four concurrent P2P streams collapse to 53 GB/s
//!   (Fig. 5b) — modeled as extra duplex weight.
//! * NUMA memory: parallel HtoD saturates at 141 GB/s (read), DtoH at
//!   109 GB/s (write), mixed streams at ~136-137 GB/s combined (Fig. 2b).
//!
//! **DELTA System D22x M4 PS** (2× Xeon Gold 6148, 4× V100, PCIe 3.0 to the
//! host, two-brick NVLink 2.0 P2P ring, UPI between sockets):
//! * PCIe 3.0: 12–13 GB/s per direction measured, 20 GB/s duplex (Fig. 3a).
//! * NVLink 2.0 pairs (0,1), (2,3), (0,2): 48 GB/s (Fig. 6a); pair (1,3) is
//!   single-brick (Table 1b's 25 GB/s link), ~24 GB/s.
//! * UPI: 62 GB/s per direction (never the bottleneck for CPU-GPU copies).
//! * Host-traversing P2P (e.g. 0→3) crosses PCIe twice and reaches only
//!   9 GB/s (Fig. 6a) — per-flow rate cap.
//!
//! **NVIDIA DGX A100** (2× EPYC 7742, 8× A100, NVLink 3.0 NVSwitch, PCIe
//! 4.0 with one switch per GPU *pair*, Infinity Fabric between sockets):
//! * PCIe 4.0: 24–25 GB/s per direction, 39 GB/s duplex (Fig. 4); GPU pairs
//!   (0,1)(2,3)(4,5)(6,7) share one switch uplink — the scalability ceiling
//!   the paper identifies.
//! * NVSwitch: 265 GB/s effective per GPU per direction (serial P2P
//!   measures 279, all-to-all parallel settles at ~265 per stream, Fig. 7).
//! * Memory (socket 0): 88 GB/s read, 100 GB/s write, 112 GB/s combined —
//!   the saturation plateaus of the 4- and 8-GPU bars in Fig. 4.

use crate::constraint::{ConstraintKind, ConstraintTable};
use crate::graph::{gbps, GpuModel, LinkKind, MemSpec, NodeId, Topology, TopologyBuilder};
use crate::route::{Endpoint, Route, RouteTable};
use crate::FlowRequest;
use std::sync::OnceLock;

/// Which system a [`Platform`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// IBM Power System AC922.
    IbmAc922,
    /// DELTA System D22x M4 PS.
    DeltaD22x,
    /// NVIDIA DGX A100.
    DgxA100,
    /// A user-built platform.
    Custom,
}

impl PlatformId {
    /// Display name as used in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PlatformId::IbmAc922 => "IBM Power System AC922",
            PlatformId::DeltaD22x => "DELTA System D22x M4 PS",
            PlatformId::DgxA100 => "NVIDIA DGX A100",
            PlatformId::Custom => "custom platform",
        }
    }

    /// The three paper platforms.
    #[must_use]
    pub const fn paper_set() -> [PlatformId; 3] {
        [
            PlatformId::IbmAc922,
            PlatformId::DeltaD22x,
            PlatformId::DgxA100,
        ]
    }

    /// GPUs in one box of this platform.
    ///
    /// # Panics
    /// Panics for [`PlatformId::Custom`], which has no fixed shape.
    #[must_use]
    pub fn gpus_per_node(self) -> usize {
        match self {
            PlatformId::IbmAc922 | PlatformId::DeltaD22x => 4,
            PlatformId::DgxA100 => 8,
            PlatformId::Custom => panic!("custom platforms have no fixed node shape"),
        }
    }

    /// The host CPU silicon of this platform.
    #[must_use]
    pub fn cpu_model(self) -> CpuModel {
        match self {
            PlatformId::IbmAc922 => CpuModel::Power9,
            PlatformId::DeltaD22x => CpuModel::XeonGold6148,
            PlatformId::DgxA100 => CpuModel::Epyc7742,
            PlatformId::Custom => CpuModel::Custom,
        }
    }

    /// The host-traversing-P2P calibration of this platform, if any.
    #[must_use]
    pub fn host_p2p_policy(self) -> Option<HostP2pPolicy> {
        match self {
            PlatformId::IbmAc922 => Some(HostP2pPolicy {
                rate_cap: gbps(32.0),
                duplex_weight: 1.22,
            }),
            PlatformId::DeltaD22x => Some(HostP2pPolicy {
                rate_cap: gbps(9.0),
                duplex_weight: 1.3,
            }),
            // All-to-all NVSwitch: P2P never traverses the host.
            PlatformId::DgxA100 | PlatformId::Custom => None,
        }
    }
}

/// Host CPU silicon; keys the CPU-side cost models in `msort-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// 2× IBM POWER9, 16 cores @ 2.7 GHz each, SMT4.
    Power9,
    /// 2× Intel Xeon Gold 6148, 20 cores @ 2.4 GHz each.
    XeonGold6148,
    /// 2× AMD EPYC 7742, 64 cores @ 2.25 GHz each.
    Epyc7742,
    /// User-defined.
    Custom,
}

impl CpuModel {
    /// Display string (Table 1).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CpuModel::Power9 => "2x IBM POWER9 (16 x 2.7 GHz)",
            CpuModel::XeonGold6148 => "2x Intel Xeon Gold 6148 (20 x 2.4 GHz)",
            CpuModel::Epyc7742 => "2x AMD EPYC 7742 (64 x 2.25 GHz)",
            CpuModel::Custom => "custom CPU",
        }
    }
}

/// Extra friction for P2P transfers that traverse the host side, which the
/// paper measures to be slower than the bottleneck link would suggest.
#[derive(Debug, Clone, Copy)]
pub struct HostP2pPolicy {
    /// Per-flow rate cap (bytes/s) for host-traversing P2P streams.
    pub rate_cap: f64,
    /// Weight multiplier applied to duplex constraints crossed by such
    /// flows (models the protocol overhead that makes four concurrent
    /// host-traversing P2P streams collapse further than fair sharing).
    pub duplex_weight: f64,
}

/// Inter-node fabric technology for cluster platforms.
///
/// The *effective* per-direction rates are the sustained large-message
/// GPU-to-GPU rates De Sensi et al. report in "Exploring GPU-to-GPU
/// Communication: Insights into Supercomputer Interconnects" (arXiv
/// 2408.14090): about 96% of line rate for 200 Gbit/s InfiniBand HDR and
/// NDR halved lanes, slightly less for Slingshot 11's Ethernet-derived
/// protocol. Theoretical rates are on the [`LinkKind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fabric {
    /// InfiniBand HDR 4x: 200 Gbit/s, ~24.1 GB/s sustained per direction.
    IbHdr,
    /// InfiniBand NDR 4x: 400 Gbit/s, ~48.2 GB/s sustained per direction.
    IbNdr,
    /// HPE Cray Slingshot 11: 200 Gbit/s, ~23.4 GB/s sustained per
    /// direction.
    Slingshot,
}

impl Fabric {
    /// The link technology this fabric's links carry.
    #[must_use]
    pub fn link_kind(self) -> LinkKind {
        match self {
            Fabric::IbHdr => LinkKind::InfiniBandHdr,
            Fabric::IbNdr => LinkKind::InfiniBandNdr,
            Fabric::Slingshot => LinkKind::Slingshot,
        }
    }

    /// Calibrated sustained per-direction rate of one fabric link
    /// (bytes/s).
    #[must_use]
    pub fn effective_per_dir(self) -> f64 {
        match self {
            Fabric::IbHdr => gbps(24.1),
            Fabric::IbNdr => gbps(48.2),
            Fabric::Slingshot => gbps(23.4),
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fabric::IbHdr => "InfiniBand HDR",
            Fabric::IbNdr => "InfiniBand NDR",
            Fabric::Slingshot => "Slingshot",
        }
    }

    /// The CLI flag spelling (`--fabric ib-hdr|ib-ndr|slingshot`).
    #[must_use]
    pub fn flag(self) -> &'static str {
        match self {
            Fabric::IbHdr => "ib-hdr",
            Fabric::IbNdr => "ib-ndr",
            Fabric::Slingshot => "slingshot",
        }
    }

    /// Parse a CLI flag spelling.
    #[must_use]
    pub fn parse(flag: &str) -> Option<Self> {
        match flag {
            "ib-hdr" => Some(Fabric::IbHdr),
            "ib-ndr" => Some(Fabric::IbNdr),
            "slingshot" => Some(Fabric::Slingshot),
            _ => None,
        }
    }

    /// All fabrics, for sweeps.
    #[must_use]
    pub const fn all() -> [Fabric; 3] {
        [Fabric::IbHdr, Fabric::IbNdr, Fabric::Slingshot]
    }
}

/// How a cluster platform's one big topology divides into nodes.
///
/// A cluster is a single [`Topology`] with globally dense GPU and socket
/// indices: node `k` of a cluster of `g`-GPU, `s`-socket boxes owns GPUs
/// `k*g .. (k+1)*g` and sockets `k*s .. (k+1)*s`, plus its NICs. The
/// layout is pure bookkeeping — routing, allocation, and faults operate on
/// the flat graph.
#[derive(Debug, Clone, Copy)]
pub struct ClusterLayout {
    /// Number of nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// CPU sockets per node.
    pub sockets_per_node: usize,
    /// NICs per node (one per socket).
    pub nics_per_node: usize,
    /// The inter-node fabric.
    pub fabric: Fabric,
}

impl ClusterLayout {
    /// The node owning global GPU index `gpu`.
    #[must_use]
    pub fn node_of_gpu(&self, gpu: usize) -> usize {
        gpu / self.gpus_per_node
    }

    /// Global GPU indices of node `node`.
    #[must_use]
    pub fn node_gpus(&self, node: usize) -> std::ops::Range<usize> {
        node * self.gpus_per_node..(node + 1) * self.gpus_per_node
    }

    /// The first (home) socket of node `node` — where that node's sorts
    /// stage their host buffers.
    #[must_use]
    pub fn node_socket(&self, node: usize) -> usize {
        node * self.sockets_per_node
    }
}

/// A complete modeled system: topology + calibration policies.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Which system this is (the *node* hardware, for clusters).
    pub id: PlatformId,
    /// The interconnect graph.
    pub topology: Topology,
    /// Host CPU silicon.
    pub cpu_model: CpuModel,
    /// Host-traversing-P2P calibration, if the platform needs one.
    pub host_p2p: Option<HostP2pPolicy>,
    /// Node layout when this platform is a multi-node cluster.
    pub cluster: Option<ClusterLayout>,
    table: ConstraintTable,
    /// Pristine routes, filled by [`Platform::route`]; building a platform
    /// costs nothing for them.
    routes: OnceLock<RouteTable>,
}

impl Platform {
    /// Build a platform around a custom topology.
    ///
    /// # Panics
    /// Panics if the topology violates a structural invariant (no CPU,
    /// sparse indices, unreachable GPUs) — see
    /// [`msort_topology::graph::Topology::validate`].
    #[must_use]
    pub fn custom(topology: Topology, cpu_model: CpuModel) -> Self {
        Self::from_parts(PlatformId::Custom, topology, cpu_model, None, None)
    }

    /// Assemble a platform from explicit parts, validating the topology and
    /// building the constraint table. This is how constructors outside this
    /// crate (notably `msort-cluster`) mint platforms.
    ///
    /// # Panics
    /// Panics if the topology violates a structural invariant — see
    /// [`crate::graph::Topology::validate`].
    #[must_use]
    pub fn from_parts(
        id: PlatformId,
        topology: Topology,
        cpu_model: CpuModel,
        host_p2p: Option<HostP2pPolicy>,
        cluster: Option<ClusterLayout>,
    ) -> Self {
        if let Err(e) = topology.validate() {
            panic!("invalid topology: {e}");
        }
        let table = ConstraintTable::new(&topology);
        Self {
            id,
            topology,
            cpu_model,
            host_p2p,
            cluster,
            table,
            routes: OnceLock::new(),
        }
    }

    /// Instantiate one of the paper's platforms.
    #[must_use]
    pub fn paper(id: PlatformId) -> Self {
        match id {
            PlatformId::IbmAc922 => Self::ibm_ac922(),
            PlatformId::DeltaD22x => Self::delta_d22x(),
            PlatformId::DgxA100 => Self::dgx_a100(),
            PlatformId::Custom => panic!("use Platform::custom for custom platforms"),
        }
    }

    /// The IBM Power System AC922 (Table 1a).
    #[must_use]
    pub fn ibm_ac922() -> Self {
        Self::one_paper_node(PlatformId::IbmAc922)
    }

    /// The DELTA System D22x M4 PS (Table 1b).
    #[must_use]
    pub fn delta_d22x() -> Self {
        Self::one_paper_node(PlatformId::DeltaD22x)
    }

    /// The NVIDIA DGX A100 (Table 1c).
    #[must_use]
    pub fn dgx_a100() -> Self {
        Self::one_paper_node(PlatformId::DgxA100)
    }

    fn one_paper_node(id: PlatformId) -> Self {
        let mut b = TopologyBuilder::new();
        append_paper_node(&mut b, id, 0);
        Self::from_parts(id, b.build(), id.cpu_model(), id.host_p2p_policy(), None)
    }

    /// The constraint table of this platform's topology.
    #[must_use]
    pub fn constraint_table(&self) -> &ConstraintTable {
        &self.table
    }

    /// The cheapest route between two endpoints on the pristine fabric:
    /// what [`route::route`](crate::route::route) computes on
    /// [`Platform::topology`], answered from a per-source shortest-path
    /// tree that is built the first time the source is asked for.
    ///
    /// Returns `None` when the endpoints are disconnected or the platform
    /// has no such socket or GPU.
    #[must_use]
    pub fn route(&self, src: Endpoint, dst: Endpoint) -> Option<Route> {
        self.routes
            .get_or_init(|| RouteTable::new(&self.topology))
            .route(&self.topology, src, dst)
    }

    /// Build the allocator request for one transfer along `route`, applying
    /// this platform's host-traversing-P2P calibration when it applies.
    #[must_use]
    pub fn flow_request(&self, route: &Route) -> FlowRequest {
        let mut constraints = self.table.route_constraints(&self.topology, route);
        let mut rate_cap = None;
        let is_p2p = matches!(
            (route.src, route.dst),
            (Endpoint::GpuMem { .. }, Endpoint::GpuMem { .. })
        );
        // Host-side P2P friction is a within-node phenomenon; flows that
        // cross the inter-node fabric are paced by the NIC links instead.
        if is_p2p && route.traverses_host(&self.topology) && !route.crosses_nic(&self.topology) {
            if let Some(policy) = self.host_p2p {
                rate_cap = Some(policy.rate_cap);
                for (id, weight) in &mut constraints {
                    if matches!(
                        self.table.constraints()[id.0].kind,
                        ConstraintKind::LinkDuplex { .. }
                    ) {
                        *weight *= policy.duplex_weight;
                    }
                }
            }
        }
        FlowRequest {
            constraints,
            rate_cap,
        }
    }

    /// Number of GPUs.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        self.topology.gpu_count()
    }

    /// Combined GPU memory in bytes (the HET-sort large-data threshold).
    #[must_use]
    pub fn combined_gpu_memory(&self) -> u64 {
        (0..self.gpu_count())
            .map(|g| self.topology.gpu_memory_bytes(g))
            .sum()
    }

    /// Display name; cluster platforms include node count and fabric.
    #[must_use]
    pub fn name(&self) -> String {
        match self.cluster {
            Some(c) if c.nodes > 1 => {
                format!("{}x {} ({})", c.nodes, self.id.name(), c.fabric.name())
            }
            _ => self.id.name().to_owned(),
        }
    }

    /// Multi-line, Table 1-style description of the platform.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.name());
        let _ = writeln!(s, "  CPU: {}", self.cpu_model.name());
        let gpu_model = self.topology.gpu_model(0);
        let _ = writeln!(
            s,
            "  GPUs: {}x NVIDIA {} ({} GB)",
            self.gpu_count(),
            gpu_model.name(),
            gpu_model.memory_bytes() >> 30,
        );
        let _ = writeln!(s, "  Links:");
        for link in self.topology.links() {
            let a = &self.topology.node(link.a).name;
            let bn = &self.topology.node(link.b).name;
            let duplex = link
                .cap_duplex
                .map(|d| format!(", duplex {:.0} GB/s", d / 1e9))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "    {a} -- {bn}: {} ({:.0}/{:.0} GB/s{duplex})",
                link.kind.name(),
                link.cap_ab / 1e9,
                link.cap_ba / 1e9,
            );
        }
        s
    }

    /// A tiny PCIe-only platform for unit tests and examples: one socket,
    /// `g` GPUs, no P2P interconnects, generous memory caps.
    #[must_use]
    pub fn test_pcie(g: usize) -> Self {
        let mem = MemSpec {
            capacity_bytes: 64 * (1 << 30),
            read_cap: gbps(80.0),
            write_cap: gbps(70.0),
            combined_cap: Some(gbps(100.0)),
        };
        let mut b = TopologyBuilder::new();
        let c0 = b.cpu(0, mem);
        for i in 0..g {
            let gpu = b.gpu(i, GpuModel::Custom);
            b.link_duplex(c0, gpu, LinkKind::Pcie3, gbps(13.0), gbps(20.0));
        }
        Self::custom(b.build(), CpuModel::Custom)
    }
}

/// Append one node's worth of a paper platform's hardware to `b`, using
/// globally dense indices: node `k` gets CPU sockets `2k` and `2k + 1` and
/// GPUs `k*g .. (k+1)*g`. Returns the node's CPU socket ids in socket
/// order. The single-box constructors call this with `node = 0`; the
/// cluster constructors in `msort-cluster` call it once per node and then
/// wire the NICs and fabric on top.
///
/// # Panics
/// Panics for [`PlatformId::Custom`], which has no fixed node shape.
pub fn append_paper_node(b: &mut TopologyBuilder, id: PlatformId, node: usize) -> Vec<NodeId> {
    match id {
        PlatformId::IbmAc922 => append_ac922_node(b, node),
        PlatformId::DeltaD22x => append_delta_node(b, node),
        PlatformId::DgxA100 => append_dgx_node(b, node),
        PlatformId::Custom => panic!("custom platforms have no per-node builder"),
    }
}

fn append_ac922_node(b: &mut TopologyBuilder, node: usize) -> Vec<NodeId> {
    let mem = MemSpec {
        capacity_bytes: 256 * (1 << 30),
        read_cap: gbps(141.0),
        write_cap: gbps(109.0),
        combined_cap: Some(gbps(137.0)),
    };
    let c0 = b.cpu(2 * node, mem);
    let c1 = b.cpu(2 * node + 1, mem);
    let g0 = 4 * node;
    let gpus: Vec<_> = (g0..g0 + 4).map(|i| b.gpu(i, GpuModel::V100)).collect();
    let nv3 = LinkKind::NvLink2 { bricks: 3 };
    // CPU-GPU NVLink 2.0: 72 GB/s per direction, 127 GB/s duplex.
    for &g in &gpus[..2] {
        b.link_full(c0, g, nv3, gbps(72.0), gbps(72.0), Some(gbps(127.0)));
    }
    for &g in &gpus[2..] {
        b.link_full(c1, g, nv3, gbps(72.0), gbps(72.0), Some(gbps(127.0)));
    }
    // GPU-GPU NVLink 2.0: full duplex (145 GB/s bidi measured).
    b.link(gpus[0], gpus[1], nv3, gbps(72.5));
    b.link(gpus[2], gpus[3], nv3, gbps(72.5));
    // X-Bus: asymmetric sustained rates, 65 GB/s duplex.
    b.link_full(
        c0,
        c1,
        LinkKind::XBus,
        gbps(41.0),
        gbps(35.0),
        Some(gbps(65.0)),
    );
    vec![c0, c1]
}

fn append_delta_node(b: &mut TopologyBuilder, node: usize) -> Vec<NodeId> {
    let mem = MemSpec {
        capacity_bytes: 755 * (1 << 30),
        read_cap: gbps(100.0),
        write_cap: gbps(90.0),
        combined_cap: Some(gbps(115.0)),
    };
    let c0 = b.cpu(2 * node, mem);
    let c1 = b.cpu(2 * node + 1, mem);
    let g0 = 4 * node;
    let gpus: Vec<_> = (g0..g0 + 4).map(|i| b.gpu(i, GpuModel::V100)).collect();
    // Each GPU has an exclusive PCIe 3.0 path to its socket.
    for &g in &gpus[..2] {
        b.link_full(
            c0,
            g,
            LinkKind::Pcie3,
            gbps(12.3),
            gbps(13.0),
            Some(gbps(20.0)),
        );
    }
    for &g in &gpus[2..] {
        b.link_full(
            c1,
            g,
            LinkKind::Pcie3,
            gbps(12.3),
            gbps(13.0),
            Some(gbps(20.0)),
        );
    }
    // NVLink 2.0 P2P: two bricks on (0,1), (2,3), (0,2); one on (1,3).
    let nv2 = LinkKind::NvLink2 { bricks: 2 };
    b.link(gpus[0], gpus[1], nv2, gbps(48.5));
    b.link(gpus[2], gpus[3], nv2, gbps(48.5));
    b.link(gpus[0], gpus[2], nv2, gbps(48.5));
    b.link(
        gpus[1],
        gpus[3],
        LinkKind::NvLink2 { bricks: 1 },
        gbps(24.0),
    );
    // UPI between sockets.
    b.link(c0, c1, LinkKind::Upi, gbps(62.0));
    vec![c0, c1]
}

fn append_dgx_node(b: &mut TopologyBuilder, node: usize) -> Vec<NodeId> {
    let mem = MemSpec {
        capacity_bytes: 512 * (1 << 30),
        read_cap: gbps(88.0),
        write_cap: gbps(100.0),
        combined_cap: Some(gbps(112.0)),
    };
    let c0 = b.cpu(2 * node, mem);
    let c1 = b.cpu(2 * node + 1, mem);
    let g0 = 8 * node;
    let gpus: Vec<_> = (g0..g0 + 8).map(|i| b.gpu(i, GpuModel::A100)).collect();
    let nvswitch = b.nvswitch();
    // One PCIe 4.0 switch per GPU *pair*: the shared uplink is the
    // bottleneck the paper identifies in Figure 4.
    for pair in 0..4 {
        let sw = b.pcie_switch(format!("PCIe switch {}", 4 * node + pair));
        let cpu = if pair < 2 { c0 } else { c1 };
        b.link_full(
            cpu,
            sw,
            LinkKind::Pcie4,
            gbps(24.5),
            gbps(25.5),
            Some(gbps(39.0)),
        );
        for &g in &gpus[2 * pair..2 * pair + 2] {
            b.link_full(
                sw,
                g,
                LinkKind::Pcie4,
                gbps(24.5),
                gbps(25.5),
                Some(gbps(39.0)),
            );
        }
    }
    // NVLink 3.0 into the NVSwitch fabric: non-blocking all-to-all.
    for &g in &gpus {
        b.link(g, nvswitch, LinkKind::NvLink3, gbps(265.0));
    }
    // AMD Infinity Fabric between sockets; duplex cap calibrated to the
    // remote bidirectional plateau of Figure 4 (GPU pair (4,6): 61 GB/s).
    b.link_full(
        c0,
        c1,
        LinkKind::InfinityFabric,
        gbps(102.0),
        gbps(102.0),
        Some(gbps(61.0)),
    );
    vec![c0, c1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::allocate_rates;
    use crate::route::route;

    #[test]
    fn paper_platforms_build() {
        for id in PlatformId::paper_set() {
            let p = Platform::paper(id);
            assert_eq!(p.id, id);
            assert!(p.gpu_count() >= 4);
            assert_eq!(p.topology.cpu_count(), 2);
            assert!(!p.describe().is_empty());
        }
    }

    #[test]
    fn ac922_local_htod_is_72() {
        let p = Platform::ibm_ac922();
        let r = route(&p.topology, Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
        assert!((rates[0] - gbps(72.0)).abs() < gbps(0.5), "{}", rates[0]);
    }

    #[test]
    fn ac922_remote_htod_is_41_and_dtoh_35() {
        let p = Platform::ibm_ac922();
        let htod = route(&p.topology, Endpoint::HOST0, Endpoint::gpu(2)).unwrap();
        let dtoh = route(&p.topology, Endpoint::gpu(2), Endpoint::HOST0).unwrap();
        let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&htod)]);
        assert!((rates[0] - gbps(41.0)).abs() < gbps(0.5), "{}", rates[0]);
        let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&dtoh)]);
        assert!((rates[0] - gbps(35.0)).abs() < gbps(0.5), "{}", rates[0]);
    }

    #[test]
    fn ac922_host_p2p_capped_at_32() {
        let p = Platform::ibm_ac922();
        let r = route(&p.topology, Endpoint::gpu(0), Endpoint::gpu(2)).unwrap();
        assert!(r.traverses_host(&p.topology));
        let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
        assert!((rates[0] - gbps(32.0)).abs() < gbps(0.5), "{}", rates[0]);
    }

    #[test]
    fn ac922_direct_p2p_is_72() {
        let p = Platform::ibm_ac922();
        let r = route(&p.topology, Endpoint::gpu(0), Endpoint::gpu(1)).unwrap();
        assert!(!r.traverses_host(&p.topology));
        let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
        assert!((rates[0] - gbps(72.5)).abs() < gbps(1.0), "{}", rates[0]);
    }

    #[test]
    fn delta_host_p2p_capped_at_9() {
        let p = Platform::delta_d22x();
        let r = route(&p.topology, Endpoint::gpu(0), Endpoint::gpu(3)).unwrap();
        assert!(r.traverses_host(&p.topology));
        let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
        assert!((rates[0] - gbps(9.0)).abs() < gbps(0.5), "{}", rates[0]);
    }

    #[test]
    fn delta_direct_p2p_pairs() {
        let p = Platform::delta_d22x();
        for (a, bx, expect) in [(0, 1, 48.5), (2, 3, 48.5), (0, 2, 48.5), (1, 3, 24.0)] {
            let r = route(&p.topology, Endpoint::gpu(a), Endpoint::gpu(bx)).unwrap();
            assert!(!r.traverses_host(&p.topology), "({a},{bx})");
            let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
            assert!(
                (rates[0] - gbps(expect)).abs() < gbps(0.5),
                "({a},{bx}): {}",
                rates[0]
            );
        }
    }

    #[test]
    fn dgx_p2p_routes_over_nvswitch() {
        let p = Platform::dgx_a100();
        for (a, bx) in [(0, 1), (0, 7), (3, 4)] {
            let r = route(&p.topology, Endpoint::gpu(a), Endpoint::gpu(bx)).unwrap();
            assert_eq!(r.hop_count(), 2, "({a},{bx}) should go via NVSwitch");
            assert!(!r.traverses_host(&p.topology));
            let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
            assert!((rates[0] - gbps(265.0)).abs() < gbps(1.0));
        }
    }

    #[test]
    fn dgx_pair_shares_pcie_switch() {
        let p = Platform::dgx_a100();
        let r0 = route(&p.topology, Endpoint::HOST0, Endpoint::gpu(0)).unwrap();
        let r1 = route(&p.topology, Endpoint::HOST0, Endpoint::gpu(1)).unwrap();
        let r2 = route(&p.topology, Endpoint::HOST0, Endpoint::gpu(2)).unwrap();
        // (0, 1) share a switch: combined ~24.5; (0, 2) do not: 2 x 24.5.
        let rates = allocate_rates(
            p.constraint_table(),
            &[p.flow_request(&r0), p.flow_request(&r1)],
        );
        assert!(((rates[0] + rates[1]) - gbps(24.5)).abs() < gbps(0.5));
        let rates = allocate_rates(
            p.constraint_table(),
            &[p.flow_request(&r0), p.flow_request(&r2)],
        );
        assert!(((rates[0] + rates[1]) - gbps(49.0)).abs() < gbps(0.5));
    }

    #[test]
    fn route_to_a_socket_the_platform_lacks_is_none() {
        let p = Platform::ibm_ac922();
        assert!(p.route(Endpoint::host(9), Endpoint::gpu(0)).is_none());
        assert!(p.route(Endpoint::gpu(0), Endpoint::host(2)).is_none());
        assert!(p.route(Endpoint::gpu(0), Endpoint::host(1)).is_some());
    }

    #[test]
    fn route_to_a_gpu_the_platform_lacks_is_none() {
        let p = Platform::dgx_a100();
        assert!(p.route(Endpoint::gpu(64), Endpoint::HOST0).is_none());
        assert!(p
            .route(Endpoint::gpu(usize::MAX), Endpoint::HOST0)
            .is_none());
        assert!(p.route(Endpoint::HOST0, Endpoint::gpu(8)).is_none());
        assert!(p.route(Endpoint::HOST0, Endpoint::gpu(7)).is_some());
    }

    #[test]
    fn combined_gpu_memory_matches_models() {
        assert_eq!(
            Platform::ibm_ac922().combined_gpu_memory(),
            4 * 32 * (1 << 30)
        );
        assert_eq!(
            Platform::dgx_a100().combined_gpu_memory(),
            8 * 40 * (1 << 30)
        );
    }

    #[test]
    fn fabric_rates_and_parsing() {
        for f in Fabric::all() {
            // Effective rate never exceeds the link's theoretical rate.
            assert!(f.effective_per_dir() <= f.link_kind().theoretical_per_dir());
            assert_eq!(Fabric::parse(f.flag()), Some(f));
        }
        assert!((Fabric::IbNdr.effective_per_dir() - gbps(48.2)).abs() < 1.0);
        assert_eq!(Fabric::parse("ethernet"), None);
    }

    #[test]
    fn cluster_layout_accessors() {
        let c = ClusterLayout {
            nodes: 4,
            gpus_per_node: 8,
            sockets_per_node: 2,
            nics_per_node: 2,
            fabric: Fabric::IbHdr,
        };
        assert_eq!(c.node_of_gpu(0), 0);
        assert_eq!(c.node_of_gpu(23), 2);
        assert_eq!(c.node_gpus(1), 8..16);
        assert_eq!(c.node_socket(3), 6);
    }

    #[test]
    fn platform_name_mentions_cluster_shape() {
        let mut p = Platform::dgx_a100();
        assert_eq!(p.name(), "NVIDIA DGX A100");
        p.cluster = Some(ClusterLayout {
            nodes: 2,
            gpus_per_node: 8,
            sockets_per_node: 2,
            nics_per_node: 2,
            fabric: Fabric::Slingshot,
        });
        assert_eq!(p.name(), "2x NVIDIA DGX A100 (Slingshot)");
    }

    #[test]
    fn append_paper_node_offsets_indices() {
        let mut b = TopologyBuilder::new();
        append_paper_node(&mut b, PlatformId::DgxA100, 0);
        append_paper_node(&mut b, PlatformId::DgxA100, 1);
        let t = b.build();
        assert_eq!(t.gpu_count(), 16);
        assert_eq!(t.cpu_count(), 4);
        // Without a fabric the two nodes are disconnected islands, which
        // validate() must reject.
        assert!(t.validate().is_err());
    }

    #[test]
    fn test_platform_builds() {
        let p = Platform::test_pcie(2);
        assert_eq!(p.gpu_count(), 2);
        let r = route(&p.topology, Endpoint::HOST0, Endpoint::gpu(1)).unwrap();
        let rates = allocate_rates(p.constraint_table(), &[p.flow_request(&r)]);
        assert!((rates[0] - gbps(13.0)).abs() < gbps(0.5));
    }
}
