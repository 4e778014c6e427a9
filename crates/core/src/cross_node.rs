//! Cross-node sort: node-level sample sort composed with per-node sorts.
//!
//! The cluster platforms (`msort-cluster`) are single [`Platform`]s whose
//! topology spans several nodes joined by NIC links, so one simulation
//! carries both traffic classes: this driver's inter-node exchange flows
//! over the NICs *and* the inner sorts' NVLink/PCIe traffic contend in the
//! same max-min rate allocation.
//!
//! The algorithm is the classic two-level sample sort, lifted one level up
//! (the node level) with the existing single-node sorts as the inner
//! primitive:
//!
//! 1. **Scatter**: the input splits into `n_nodes` equal chunks; chunk `k`
//!    ships from the global input (socket 0) to node `k`'s staging buffer
//!    (its home socket). For `k > 0` these are NIC flows.
//! 2. **Exchange**: the host draws deterministic stride samples from every
//!    staged chunk and keeps `n_nodes − 1` global splitters (reusing
//!    [`msort_cpu::sample::select_splitters`] with nodes as buckets); each
//!    node partitions its chunk into node-buckets on the CPU
//!    ([`msort_gpu::GpuSystem::host_partition`]), then an all-to-all bucket
//!    exchange ships bucket `i` of every chunk to node `i` over the NICs.
//!    Same-node buckets stay put as local copies.
//! 3. **Inner sorts**: every node sorts its received partition with a
//!    full single-node sort ([`Algorithm`]-selectable: P2P, RP, HET,
//!    sample, or multiway mergesort), staged on the node's home socket and
//!    running on the node's own GPUs. The inner drivers advance in
//!    lockstep on the shared system, so their intra-node traffic overlaps
//!    in simulated time.
//! 4. **Gather**: the sorted partitions concatenate back to the global
//!    output in node order — globally sorted by the splitter property.
//!
//! Bucket sizes are data-dependent, but the inner sorts require lengths
//! divisible by `gpus × scale`; each partition is padded to the next
//! multiple with copies of its maximum key, and the pad is truncated from
//! the sorted tail before the gather (the multiset is exact).
//!
//! The NIC-crossing transfers are tracked and reported as
//! [`SortReport::inter_node`]; with a [`Recorder`] attached, every node
//! gets its own track group (`node 0`, `node 1`, ...) with the four
//! phase spans, alongside the per-NIC link-utilization counters the flow
//! simulator already emits.
//!
//! [`Recorder`]: msort_trace::Recorder

use crate::exec::{DriverStep, SortDriver};
use crate::report::{PhaseBreakdown, SortReport};
use crate::run::Algorithm;
use crate::sample::splitter_exchange;
use crate::stage::{self, Middle, Shape, Source, Staged, Staging};
use msort_data::SortKey;
use msort_gpu::{BufId, Fidelity, GpuSystem, Location, OpId};
use msort_sim::{GpuSortAlgo, SimTime};
use msort_topology::{ClusterLayout, Fabric, Platform};

/// Which single-node sort runs inside each node.
pub use crate::family::Family as InnerAlgo;

/// Configuration for [`cross_node_sort`].
#[derive(Debug, Clone)]
pub struct CrossNodeConfig {
    /// The single-node sort each node runs on its partition.
    pub inner: InnerAlgo,
    /// GPUs used per node (`None`: all of the node's GPUs).
    pub gpus_per_node: Option<usize>,
    /// Single-GPU sorting primitive for the inner sorts.
    pub algo: GpuSortAlgo,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
}

impl CrossNodeConfig {
    /// Default configuration: sample sort inside every node, all GPUs.
    #[must_use]
    pub fn new(inner: InnerAlgo) -> Self {
        Self {
            inner,
            gpus_per_node: None,
            algo: GpuSortAlgo::ThrustLike,
            fidelity: Fidelity::Full,
        }
    }

    /// Use sampled fidelity with the given factor.
    #[must_use]
    pub fn sampled(mut self, scale: u64) -> Self {
        self.fidelity = Fidelity::Sampled { scale };
        self
    }
}

/// Where the driver is in the cross-node middle.
enum CrossStep {
    /// Splitter selection + partition + exchange next.
    Exchange,
    /// Exchange drained; inner sorts run in lockstep until all finish.
    InnerSorts,
    /// Inner sorts done and their outputs staged for the gather.
    Sorted,
}

/// Cross-node sort as a resumable [`SortDriver`]. On a single-node
/// platform (no [`ClusterLayout`]) it degenerates to one inner sort with
/// an idle node level.
///
/// The node level runs on the same staging skeleton as the single-node
/// families, with one lane per *node*: the scatter ships node chunks, the
/// middle is the exchange plus the inner sorts, the gather concatenates
/// the sorted partitions.
pub struct CrossNodeDriver<K: SortKey> {
    st: Staging<K>,
    layout: ClusterLayout,
    config: CrossNodeConfig,
    /// Per node: staging buffer and partition scratch on its home socket.
    stage: Vec<(BufId, BufId)>,
    /// Per node: receive buffer for the bucket exchange.
    recv: Vec<BufId>,
    /// Per node: logical keys received in the exchange.
    recv_len: Vec<u64>,
    /// Per node: the inner sort, once constructed (`None`: empty bucket).
    inner: Vec<Option<Box<dyn SortDriver<K>>>>,
    /// The truncated inner outputs, imported for the gather.
    gathered: Vec<Source>,
    /// Exchange copies that crossed the inter-node fabric.
    nic_ops: Vec<OpId>,
    next: CrossStep,
    t_exchanged: SimTime,
}

/// The effective node layout of `platform`: its [`ClusterLayout`], or a
/// synthetic one-node layout for single-box platforms.
fn effective_layout(platform: &Platform) -> ClusterLayout {
    platform.cluster.unwrap_or(ClusterLayout {
        nodes: 1,
        gpus_per_node: platform.gpu_count(),
        sockets_per_node: platform.topology.cpu_count(),
        nics_per_node: 0,
        fabric: Fabric::IbHdr,
    })
}

impl<K: SortKey> CrossNodeDriver<K> {
    /// Prepare a cross-node sort of `data` (physical payload for
    /// `logical_len` keys) on `sys`: import the input on socket 0 and
    /// pre-allocate the per-node staging buffers. Receive buffers are
    /// data-dependent and allocated after splitter selection; the inner
    /// sorts allocate their own device buffers when they start.
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `nodes × scale` (every
    /// node must stage whole samples) or if `config.fidelity` disagrees
    /// with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &CrossNodeConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        let layout = effective_layout(sys.platform());
        let nodes = layout.nodes;
        let per_node = config.gpus_per_node.unwrap_or(layout.gpus_per_node);
        assert!(
            per_node >= 1 && per_node <= layout.gpus_per_node,
            "gpus_per_node {per_node} exceeds the node's {} GPUs",
            layout.gpus_per_node
        );
        let shape = Shape {
            label: format!("Cross-node sort ({} inner)", config.inner.tag()),
            order: (0..nodes)
                .flat_map(|k| layout.node_gpus(k).take(per_node))
                .collect(),
            lanes: nodes,
            even: true,
            algo: config.algo,
            fidelity: config.fidelity,
            home_socket: 0,
        };
        let mut st = Staging::new(sys, shape, data, logical_len);
        let stage = (0..nodes)
            .map(|k| {
                let socket = layout.node_socket(k);
                (
                    st.alloc_host(sys, socket, st.chunk),
                    st.alloc_host(sys, socket, st.chunk),
                )
            })
            .collect();
        Self {
            st,
            layout,
            config: config.clone(),
            stage,
            recv: Vec::with_capacity(nodes),
            recv_len: vec![0; nodes],
            inner: Vec::new(),
            gathered: Vec::new(),
            nic_ops: Vec::new(),
            next: CrossStep::Exchange,
            t_exchanged: SimTime::ZERO,
        }
    }

    /// Hand each node its partition as an inner sort, padded to a multiple
    /// of `gpus × scale` with copies of its maximum key (truncated from
    /// the sorted tail before the gather).
    fn build_inner_sorts(&mut self, sys: &mut GpuSystem<'_, K>) {
        let scale = self.st.scale;
        let per_node = self.st.order.len() / self.layout.nodes;
        for k in 0..self.layout.nodes {
            let len = self.recv_len[k];
            if len == 0 {
                self.inner.push(None);
                continue;
            }
            let set = self.st.order[k * per_node..][..per_node].to_vec();
            let unit = set.len() as u64 * scale;
            let padded = len.div_ceil(unit) * unit;
            let mut part: Vec<K> = sys.world().slice(self.recv[k], 0, len).to_vec();
            if padded > len {
                let pad_key = *part
                    .iter()
                    .max_by_key(|key| key.to_radix())
                    .expect("non-empty partition");
                part.resize((padded / scale) as usize, pad_key);
            }
            let socket = self.layout.node_socket(k);
            let algorithm = Algorithm::placed(self.config.inner, set, self.config.algo, socket);
            self.inner.push(Some(algorithm.driver(sys, part, padded)));
        }
        // The exchange buffers are dead: the partitions now live in the
        // inner sorts' own staging buffers.
        for &(a, b) in &self.stage {
            sys.world_mut().free(a);
            sys.world_mut().free(b);
        }
        for &r in &self.recv {
            sys.world_mut().free(r);
        }
    }

    /// Take the sorted partitions out of the finished inner sorts (pads
    /// truncated) and import them for the gather.
    fn stage_gather(&mut self, sys: &mut GpuSystem<'_, K>) {
        for (k, driver) in self.inner.iter_mut().enumerate() {
            let Some(driver) = driver else {
                continue;
            };
            let len = self.recv_len[k];
            let mut sorted = driver.take_output();
            debug_assert!(driver.validated(), "inner sort {k} failed validation");
            sorted.truncate((len / self.st.scale) as usize);
            driver.release(sys);
            let socket = self.layout.node_socket(k);
            let buf = sys.world_mut().import_host(socket, sorted, len);
            self.gathered.push(Source {
                slot: k,
                buf: self.st.adopt(buf),
                len,
            });
        }
    }

    /// Emit the per-node track groups once the run's phase times are known.
    fn record_node_tracks(&self, sys: &GpuSystem<'_, K>) {
        let rec = sys.recorder();
        if !rec.is_enabled() {
            return;
        }
        let st = &self.st;
        for k in 0..self.layout.nodes {
            let track = rec.track(&format!("node {k}"), "phases");
            for (name, from, to) in [
                ("scatter", st.t0, st.t_staged),
                ("exchange", st.t_staged, self.t_exchanged),
                ("inner sort", self.t_exchanged, st.t_middle),
                ("gather", st.t_middle, st.t_end),
            ] {
                if to > from {
                    rec.span(track, name, "cross-node", from.0, to.0);
                }
            }
        }
    }
}

impl<K: SortKey> Staged<K> for CrossNodeDriver<K> {
    fn staging(&self) -> &Staging<K> {
        &self.st
    }

    fn staging_mut(&mut self) -> &mut Staging<K> {
        &mut self.st
    }
}

impl<K: SortKey> Middle<K> for CrossNodeDriver<K> {
    /// Scatter one chunk per node; for nodes `k > 0` these are NIC flows.
    fn start(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let landing = self.stage.iter().map(|s| (s.0, None));
        self.st.scatter_chunks(sys, landing)
    }

    fn middle(&mut self, sys: &mut GpuSystem<'_, K>) -> Option<Vec<OpId>> {
        match self.next {
            // Global splitters over the staged chunks, a host-side
            // partition pass per node, and the bucket all-to-all over the
            // NICs (same-node buckets are local host copies): sample
            // sort's exchange, one level up.
            CrossStep::Exchange => {
                self.next = CrossStep::InnerSorts;
                let layout = self.layout;
                let exchange = splitter_exchange(
                    &mut self.st,
                    sys,
                    &self.stage,
                    |node| Location::Host {
                        socket: layout.node_socket(node),
                    },
                    GpuSystem::host_partition,
                );
                (self.recv, self.recv_len) = (exchange.recv, exchange.recv_len);
                self.nic_ops = exchange.crossing;
                Some(exchange.wait)
            }
            CrossStep::InnerSorts => {
                if self.inner.is_empty() {
                    self.t_exchanged = sys.now();
                    self.build_inner_sorts(sys);
                }
                // Advance every inner sort one step (lockstep: the returned
                // waits of all nodes drain before the next step, so the
                // per-node pipelines overlap in simulated time). A finished
                // inner sort just reports `Done` again.
                let mut wait = Vec::new();
                let mut running = false;
                for driver in self.inner.iter_mut().flatten() {
                    if let DriverStep::Wait(ops) = driver.step(sys) {
                        running = true;
                        wait.extend(ops);
                    }
                }
                if running {
                    return Some(wait);
                }
                self.stage_gather(sys);
                self.next = CrossStep::Sorted;
                None
            }
            CrossStep::Sorted => None,
        }
    }

    /// The sorted partitions in node order; cross-node copies (`k > 0`)
    /// flow over the NICs.
    fn sources(&self) -> Vec<Source> {
        self.gathered.clone()
    }

    fn phases(&self, _sys: &GpuSystem<'_, K>) -> PhaseBreakdown {
        let st = &self.st;
        PhaseBreakdown {
            htod: st.t_staged.since(st.t0),
            // Splitter selection + host partition + node all-to-all.
            merge: self.t_exchanged.since(st.t_staged),
            sort: st.t_middle.since(self.t_exchanged),
            dtoh: st.t_end.since(st.t_middle),
        }
    }
}

impl<K: SortKey> SortDriver<K> for CrossNodeDriver<K> {
    fn step(&mut self, sys: &mut GpuSystem<'_, K>) -> DriverStep {
        let was_finished = self.st.finished();
        let step = stage::step(self, sys);
        if self.st.finished() && !was_finished {
            self.record_node_tracks(sys);
        }
        step
    }

    fn take_output(&mut self) -> Vec<K> {
        self.st.take_output()
    }

    fn validated(&self) -> bool {
        self.st.validated()
    }

    fn release(&mut self, sys: &mut GpuSystem<'_, K>) {
        self.st.release(sys);
        for driver in self.inner.iter_mut().flatten() {
            driver.release(sys);
        }
    }

    fn report(&self, sys: &GpuSystem<'_, K>) -> SortReport {
        // Node 0 holds the global input and output, so every other node's
        // scatter and gather copy crossed the fabric.
        let gathers = self.gathered.iter().zip(&self.st.dtoh_ops);
        let off_node_gathers = gathers.filter(|(source, _)| source.slot != 0);
        let mut nic_ops: Vec<OpId> = self.st.htod_ops[1..].to_vec();
        nic_ops.extend(&self.nic_ops);
        nic_ops.extend(off_node_gathers.map(|(_, op)| op));
        SortReport {
            platform: sys.platform().name(),
            inter_node: sys.ops_busy(&nic_ops),
            ..self.st.report(sys, self.phases(sys))
        }
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with the
/// cross-node sort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `nodes × scale`, or on the
/// shape constraints of the inner algorithm (e.g. P2P's power-of-two GPU
/// count).
pub fn cross_node_sort<K: SortKey>(
    platform: &Platform,
    config: &CrossNodeConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::cross_node(config.clone()),
        data,
        logical_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_cluster::{dgx_a100_cluster, ibm_ac922_cluster};
    use msort_data::{generate, same_multiset, Distribution};
    use msort_sim::SimDuration;
    use msort_trace::groups;

    #[test]
    fn sorts_on_two_node_dgx_matching_single_node_reference() {
        let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
        let n: u64 = 1 << 14;
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 42);

        let mut data = input.clone();
        let config = CrossNodeConfig::new(InnerAlgo::SampleSort);
        let report = cross_node_sort(&cluster, &config, &mut data, n);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert!(report.inter_node > SimDuration::ZERO);
        assert_eq!(report.gpus.len(), 16);

        // Bit-identical to the single-node reference sort of the same keys.
        let single = Platform::dgx_a100();
        let mut reference = input.clone();
        let ref_report = crate::sample::sample_sort(
            &single,
            &crate::sample::SampleSortConfig::new(8),
            &mut reference,
            n,
        );
        assert!(ref_report.validated);
        assert_eq!(data, reference);
    }

    #[test]
    fn all_inner_algorithms_sort() {
        let cluster = ibm_ac922_cluster(2, Fabric::Slingshot);
        let n: u64 = 1 << 13;
        for inner in InnerAlgo::all() {
            let input: Vec<u32> = generate(
                Distribution::ZipfDuplicates { skew_permille: 800 },
                n as usize,
                7,
            );
            let mut data = input.clone();
            let report = cross_node_sort(&cluster, &CrossNodeConfig::new(inner), &mut data, n);
            assert!(report.validated, "{inner:?}");
            assert!(same_multiset(&input, &data), "{inner:?}");
        }
    }

    #[test]
    fn four_node_cluster_exchanges_more_than_two_node() {
        // Share of the run the inter-node fabric is busy.
        let share = |fabric, nodes: usize, n: u64, fidelity: Fidelity, seed| {
            let cluster = dgx_a100_cluster(nodes, fabric);
            let physical = (n / fidelity.scale()) as usize;
            let mut data: Vec<u32> = generate(Distribution::Uniform, physical, seed);
            let config = CrossNodeConfig {
                fidelity,
                ..CrossNodeConfig::new(InnerAlgo::SampleSort)
            };
            let report = cross_node_sort(&cluster, &config, &mut data, n);
            assert!(report.validated, "{nodes} nodes over {fabric:?}");
            report.inter_node.as_secs_f64() / report.total.as_secs_f64()
        };
        // Strong scaling: the same keys over more nodes.
        let strong = [2, 4].map(|nodes| share(Fabric::IbNdr, nodes, 1 << 14, Fidelity::Full, 3));
        // Weak scaling: 2^18 keys per GPU, so per-node work is constant and
        // the growth is the node-level machinery alone — the scatter over
        // node 0's NIC, the all-to-all bucket exchange, the gather.
        let sampled = Fidelity::Sampled { scale: 256 };
        let weak = [1, 2, 4, 8]
            .map(|nodes| share(Fabric::IbHdr, nodes, (8 * nodes as u64) << 18, sampled, 17));
        assert_eq!(weak[0], 0.0, "one node has no fabric to cross");
        for shares in [&strong[..], &weak[..]] {
            assert!(
                shares.windows(2).all(|w| w[1] > w[0]),
                "inter-node share should grow with node count: {shares:?}"
            );
        }
    }

    #[test]
    fn single_node_platform_degenerates_cleanly() {
        let p = Platform::dgx_a100();
        let n: u64 = 1 << 13;
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 9);
        let mut data = input.clone();
        let report = cross_node_sort(&p, &CrossNodeConfig::new(InnerAlgo::Rp), &mut data, n);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert_eq!(report.inter_node, SimDuration::ZERO);
    }

    #[test]
    fn sampled_fidelity_reaches_billions_of_keys() {
        // The scale-sampled path: 2^32 logical keys over a 2-node DGX
        // cluster with a 2^20 sampling factor — 4096 physical keys stand
        // in for ~4.3 billion logical ones.
        let cluster = dgx_a100_cluster(2, Fabric::IbNdr);
        let scale = 1u64 << 20;
        let n = 1u64 << 32;
        let mut data: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let config = CrossNodeConfig::new(InnerAlgo::SampleSort).sampled(scale);
        let report = cross_node_sort(&cluster, &config, &mut data, n);
        assert!(report.validated);
        assert!(report.keys >= 4_000_000_000);
        assert!(report.inter_node > SimDuration::ZERO);
        assert!(report.mkeys_per_sec() > 0.0);
    }

    #[test]
    fn trace_shows_nic_and_nvlink_counters_and_node_groups() {
        use crate::run::RunConfig;
        let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
        let recorder = msort_trace::Recorder::new();
        let config = RunConfig::cross_node(CrossNodeConfig::new(InnerAlgo::SampleSort))
            .with_recorder(recorder.clone());
        let n: u64 = 1 << 13;
        let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, 5);
        let report = crate::run::run_sort(&cluster, &config, &mut data, n);
        assert!(report.validated);

        let data = recorder.snapshot().unwrap();
        // Per-NIC utilization counters alongside NVLink counters, in one
        // recording: counter series on the links track are named after the
        // link ("CPU 0 ⇄ Node 0 NIC 0", "GPU 3 ⇄ NVSwitch", ...).
        let link_series: Vec<&str> = data
            .events
            .iter()
            .filter(|e| data.track(e.track).group == groups::LINKS)
            .map(|e| e.name.as_str())
            .collect();
        assert!(
            link_series.iter().any(|n| n.contains("NIC")),
            "no NIC counters among {} link series",
            link_series.len()
        );
        assert!(
            link_series.iter().any(|n| n.contains("NVSwitch")),
            "no NVLink counters among {} link series",
            link_series.len()
        );
        // Per-node track groups with the cross-node phase spans.
        for k in 0..2 {
            let group = format!("node {k}");
            assert!(
                data.tracks.iter().any(|t| t.group == group),
                "missing track group {group}"
            );
        }
    }
}
