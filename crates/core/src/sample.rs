//! GPU sample sort — the splitter-based multi-GPU sort of Leischner,
//! Osipov & Sanders (arXiv 0909.5649), lifted to the multi-GPU setting.
//!
//! Where RP sort partitions *sorted* chunks exactly by multisequence
//! selection, sample sort partitions *unsorted* chunks approximately by an
//! oversampled splitter set, and only sorts after the exchange:
//!
//! 1. chunks copy to the GPUs (no local sort — the partition pass works on
//!    raw keys);
//! 2. the host draws `oversample × g` evenly spaced samples per chunk,
//!    sorts the combined sample, and keeps `g − 1` splitters (deterministic
//!    sampling: stride midpoints, no RNG, so runs are bit-reproducible from
//!    the data alone);
//! 3. every GPU histograms + stably scatters its chunk into `g` contiguous
//!    buckets in one partition pass ([`msort_gpu::primitives::device_partition`],
//!    backed by the OneSweep-style tiled counting scatter in
//!    `msort_cpu::sample`);
//! 4. one all-to-all exchange ships bucket `i` of every chunk to GPU `i`;
//! 5. each GPU sorts its received partition, and the chunks gather back in
//!    GPU order — globally sorted by the splitter property.
//!
//! Splitters compare `(radix image, sample position)` lexicographically, so
//! duplicate-heavy inputs still split into bounded buckets (a plain key
//! comparison would dump every duplicate of a hot key into one bucket).
//! The receive partitions are only *approximately* `n/g`; the realized
//! imbalance is reported as [`SortReport::max_partition_keys`] and the
//! receive buffers are sized from the exact histogram counts.
//!
//! The interconnect profile sits between P2P sort and RP sort: like RP it
//! exchanges keys exactly once (all-to-all), but it moves *unsorted* keys
//! and replaces RP's k-way merge with a full local sort — trading merge
//! bandwidth for sort throughput, which wins when the per-GPU sort is fast
//! relative to the fabric (NVSwitch) and loses when the partition pass and
//! the second sort cannot hide behind transfer time.
//!
//! Like the other sorts, the phases live in a resumable driver
//! ([`SampleSortDriver`]); [`sample_sort`] drives it alone.

use crate::family::Family;
use crate::gpuset::resolve_gang;
use crate::report::{PhaseBreakdown, SortReport};
use crate::stage::{staged_driver, Middle, Shape, Source, Staging};
use msort_cpu::sample::{bucket_counts, select_splitters, Splitter};
use msort_data::SortKey;
use msort_gpu::{BufId, Fidelity, GpuSystem, Location, OpId, Phase, StreamId};
use msort_sim::{GpuSortAlgo, SimDuration, SimTime};
use msort_topology::Platform;

/// Configuration for [`sample_sort`].
#[derive(Debug, Clone)]
pub struct SampleSortConfig {
    /// Number of GPUs (any `g >= 1`; the bucket exchange does not need a
    /// power of two).
    pub gpus: usize,
    /// Explicit GPU set (overrides the default; the all-to-all is
    /// order-insensitive, so only membership matters).
    pub gpu_set: Option<Vec<usize>>,
    /// Single-GPU sorting primitive for the post-exchange final sorts.
    pub algo: GpuSortAlgo,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// NUMA socket whose host memory stages the input and output (0 on
    /// single-node platforms; the cross-node driver points each inner sort
    /// at its node's home socket).
    pub home_socket: usize,
}

/// Samples drawn per chunk (a GPU's here, a node's in the cross-node
/// exchange) per bucket. Higher values tighten the bucket-imbalance bound
/// at the cost of a longer (host-side) splitter selection; the classic
/// sample-sort analysis suggests `O(log n)`.
const OVERSAMPLE: usize = 32;

impl SampleSortConfig {
    /// Default configuration.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            gpus,
            gpu_set: None,
            algo: GpuSortAlgo::ThrustLike,
            fidelity: Fidelity::Full,
            home_socket: 0,
        }
    }

    /// Use sampled fidelity with the given factor.
    #[must_use]
    pub fn sampled(mut self, scale: u64) -> Self {
        self.fidelity = Fidelity::Sampled { scale };
        self
    }
}

/// Device keys per GPU for a `chunk`-key share. The partition phase holds
/// chunk + scatter target + the receive partition; the final sort holds 2x
/// the receive partition. The receive partition is approximately a chunk
/// but can reach ~2x on skewed data (the splitter oversampling bound), so
/// this budgets for the worst case.
pub(crate) fn footprint_keys(chunk: u64) -> u64 {
    4 * chunk
}

/// Where the driver is in the sample sort's middle.
enum SampleStep {
    /// Splitter selection + partition + exchange next.
    Partition,
    /// Exchange drained; per-GPU final sorts next.
    FinalSort,
    /// Final sorts drained.
    Sorted,
}

/// Sample sort as a resumable [`SortDriver`](crate::SortDriver) over a
/// caller-provided [`GpuSystem`]. Construction allocates the
/// partition-phase buffers; the data-dependent receive buffers are sized
/// from the splitter histogram mid-run. Timing starts at the first step.
pub struct SampleSortDriver<K: SortKey> {
    st: Staging<K>,
    /// Per GPU: (primary chunk, partition scatter target).
    bufs: Vec<(BufId, BufId)>,
    /// Per GPU: receive buffer, allocated after splitter selection.
    recv: Vec<BufId>,
    /// Per GPU: logical keys received in the exchange.
    recv_len: Vec<u64>,
    next: SampleStep,
    t_exchanged: SimTime,
}

impl<K: SortKey> SampleSortDriver<K> {
    /// Prepare a sample sort of `data` (physical payload for `logical_len`
    /// keys) on `sys`: import the input and pre-allocate the per-GPU
    /// primary and scatter buffers (the receive buffers are data-dependent
    /// and allocated after splitter selection).
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `gpus × scale` (chunks
    /// must hold whole samples), if the buffers exceed GPU memory, or if
    /// `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &SampleSortConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        // The bucket exchange is order-insensitive (one all-to-all, no
        // staged pairings), so membership matters but ordering does not —
        // same policy as RP sort.
        let order = resolve_gang(sys.platform(), config.gpus, &config.gpu_set, true);
        let g = order.len();
        let shape = Shape {
            label: Family::SampleSort.name().into(),
            lanes: g,
            order,
            even: true,
            algo: config.algo,
            fidelity: config.fidelity,
            home_socket: config.home_socket,
        };
        let mut st = Staging::new(sys, shape, data, logical_len);
        let bufs = (0..g)
            .map(|i| {
                (
                    st.alloc_gpu(sys, st.order[i], st.chunk),
                    st.alloc_gpu(sys, st.order[i], st.chunk),
                )
            })
            .collect();
        Self {
            st,
            bufs,
            recv: Vec::with_capacity(g),
            recv_len: vec![0; g],
            next: SampleStep::Partition,
            t_exchanged: SimTime::ZERO,
        }
    }

    /// Per-GPU sort of the received partition. The partition-phase buffers
    /// are dead now; freeing them caps the per-GPU footprint at
    /// max(2 + r, 2r) chunks for realized imbalance r.
    fn final_sorts(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        for &(a, b) in &self.bufs {
            sys.world_mut().free(a);
            sys.world_mut().free(b);
        }
        (0..self.recv.len())
            .map(|i| {
                let len = self.recv_len[i];
                let aux = self.st.alloc_gpu(sys, self.st.order[i], len);
                sys.gpu_sort(
                    self.st.compute[i],
                    self.st.algo,
                    self.recv[i],
                    (0, len),
                    aux,
                    &[],
                )
            })
            .collect()
    }
}

impl<K: SortKey> Middle<K> for SampleSortDriver<K> {
    /// Scatter the raw chunks (no local sort: the partition pass works on
    /// raw keys).
    fn start(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let landing = self.bufs.iter().map(|b| (b.0, None));
        self.st.scatter_chunks(sys, landing)
    }

    fn middle(&mut self, sys: &mut GpuSystem<'_, K>) -> Option<Vec<OpId>> {
        match self.next {
            SampleStep::Partition => {
                self.next = SampleStep::FinalSort;
                let gpus = self.st.order.clone();
                let exchange = splitter_exchange(
                    &mut self.st,
                    sys,
                    &self.bufs,
                    |lane| Location::Gpu { index: gpus[lane] },
                    GpuSystem::gpu_partition,
                );
                (self.recv, self.recv_len) = (exchange.recv, exchange.recv_len);
                Some(exchange.wait)
            }
            SampleStep::FinalSort => {
                self.t_exchanged = sys.now();
                self.next = SampleStep::Sorted;
                Some(self.final_sorts(sys))
            }
            SampleStep::Sorted => None,
        }
    }

    /// Gather in GPU order (bucket i's keys all precede bucket i+1's in
    /// splitter order), skipping empty buckets.
    fn sources(&self) -> Vec<Source> {
        (0..self.recv.len())
            .filter(|&slot| self.recv_len[slot] > 0)
            .map(|slot| Source {
                slot,
                buf: self.recv[slot],
                len: self.recv_len[slot],
            })
            .collect()
    }

    fn phases(&self, _sys: &GpuSystem<'_, K>) -> PhaseBreakdown {
        let st = &self.st;
        PhaseBreakdown {
            htod: st.t_staged.since(st.t0),
            // Splitter selection + partition pass + all-to-all: the
            // inter-GPU phase, reported as the merge slot of the paper's
            // four-phase breakdown.
            merge: self.t_exchanged.since(st.t_staged),
            sort: st.t_middle.since(self.t_exchanged),
            dtoh: st.t_end.since(st.t_middle),
        }
    }
}

staged_driver!(SampleSortDriver);

/// A per-lane partition pass ([`GpuSystem::gpu_partition`] on the GPUs,
/// [`GpuSystem::host_partition`] on the cross-node sort's nodes).
pub(crate) type PartitionOp<'p, K> = fn(
    &mut GpuSystem<'p, K>,
    StreamId,
    BufId,
    (u64, u64),
    BufId,
    Vec<Splitter<K>>,
    &[OpId],
) -> OpId;

/// What [`splitter_exchange`] enqueued.
pub(crate) struct Exchange {
    /// Per lane: the receive buffer, sized from the exact histogram.
    pub recv: Vec<BufId>,
    /// Per lane: logical keys it receives.
    pub recv_len: Vec<u64>,
    /// Every op enqueued.
    pub wait: Vec<OpId>,
    /// The bucket copies that left their lane.
    pub crossing: Vec<OpId>,
}

/// The sample-sort exchange over the skeleton's lanes (GPUs here, nodes in
/// the cross-node sort): pick `lanes − 1` splitters over the raw `chunks`
/// (`.0` of each pair), partition every chunk into buckets via its scratch
/// (`.1`), and ship bucket `i` of every chunk to a fresh receive buffer at
/// `recv_at(i)`. Records the exchanged volume and the realized imbalance
/// on `st`.
pub(crate) fn splitter_exchange<'p, K: SortKey>(
    st: &mut Staging<K>,
    sys: &mut GpuSystem<'p, K>,
    chunks: &[(BufId, BufId)],
    recv_at: impl Fn(usize) -> Location,
    partition: PartitionOp<'p, K>,
) -> Exchange {
    let lanes = chunks.len();
    let (chunk, scale) = (st.chunk, st.scale);

    // Splitter selection (host side, over the raw chunks). Deterministic
    // stride sampling: the splitter set depends only on the data, so runs
    // are bit-reproducible from the seed.
    let views: Vec<&[K]> = chunks
        .iter()
        .map(|c| sys.world().slice(c.0, 0, chunk))
        .collect();
    let splitters: Vec<Splitter<K>> = select_splitters(&views, lanes, OVERSAMPLE);
    // Physical per-(chunk, bucket) histogram; `resize` only matters for
    // the degenerate empty-input case (no samples, one catch-all bucket).
    let counts: Vec<Vec<u64>> = views
        .iter()
        .map(|v| {
            let mut c = bucket_counts(v, &splitters);
            c.resize(lanes, 0);
            c
        })
        .collect();
    drop(views);
    // Selection cost: each lane contributes an O(`OVERSAMPLE`·lanes) sample;
    // model it like the pivot selections of the other sorts, once per
    // contributing chunk.
    let split_cost = sys.cost_model().pivot_selection(chunk);
    let split_op = sys.delay(
        st.host_stream,
        SimDuration(split_cost.0 * lanes as u64),
        &[],
        Phase::Partition,
    );

    let recv_len: Vec<u64> = (0..lanes)
        .map(|i| counts.iter().map(|c| c[i]).sum::<u64>() * scale)
        .collect();
    st.max_partition_keys = recv_len.iter().copied().max().unwrap_or(0);
    let recv: Vec<BufId> = (0..lanes)
        .map(|i| st.alloc(sys, recv_at(i), recv_len[i]))
        .collect();

    let part_ops: Vec<OpId> = (0..lanes)
        .map(|j| {
            let (data, scratch) = chunks[j];
            let range = (0, chunk);
            let waits = &[split_op];
            partition(
                sys,
                st.compute[j],
                data,
                range,
                scratch,
                splitters.clone(),
                waits,
            )
        })
        .collect();

    // The all-to-all. Copies stage their source when they *start* (after
    // the partition op completes), so they ship the scattered buckets.
    let mut wait = vec![split_op];
    let mut crossing = Vec::new();
    let mut recv_off = vec![0u64; lanes];
    for j in 0..lanes {
        let mut send_off = 0u64;
        for i in 0..lanes {
            let len = counts[j][i] * scale;
            if len == 0 {
                continue;
            }
            let s = st.stream(sys);
            let (src, dst) = (chunks[j].0, (recv[i], recv_off[i]));
            let waits = &[part_ops[j]];
            let op = sys.memcpy(s, src, send_off, dst.0, dst.1, len, waits, Phase::Merge);
            if i != j {
                st.swapped_keys += len;
                crossing.push(op);
            }
            send_off += len;
            recv_off[i] += len;
            wait.push(op);
        }
    }
    wait.extend(part_ops);
    Exchange {
        recv,
        recv_len,
        wait,
        crossing,
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with GPU sample
/// sort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `gpus × scale` (chunks must
/// hold whole samples) or the buffers exceed GPU memory.
pub fn sample_sort<K: SortKey>(
    platform: &Platform,
    config: &SampleSortConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::sample(config.clone()),
        data,
        logical_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, same_multiset, Distribution};
    use msort_topology::PlatformId;

    fn run(
        platform: &Platform,
        gpus: usize,
        dist: Distribution,
        n: u64,
        seed: u64,
    ) -> (SortReport, Vec<u32>, Vec<u32>) {
        let input: Vec<u32> = generate(dist, n as usize, seed);
        let mut data = input.clone();
        let report = sample_sort(platform, &SampleSortConfig::new(gpus), &mut data, n);
        (report, input, data)
    }

    #[test]
    fn sorts_on_all_platforms() {
        for id in PlatformId::paper_set() {
            let p = Platform::paper(id);
            let (report, input, output) = run(&p, 4, Distribution::Uniform, 1 << 14, 3);
            assert!(report.validated, "{id:?}");
            assert!(same_multiset(&input, &output), "{id:?}");
        }
    }

    #[test]
    fn sorts_all_distributions() {
        let p = Platform::dgx_a100();
        for dist in Distribution::paper_set() {
            let (report, input, output) = run(&p, 4, dist, 1 << 14, 5);
            assert!(report.validated, "{dist:?}");
            assert!(same_multiset(&input, &output), "{dist:?}");
        }
    }

    #[test]
    fn duplicate_heavy_input_stays_bounded() {
        // The (key, position) splitter tie-break splits hot keys across
        // buckets; without it a 1500-permille Zipf would dump most of the
        // input on one GPU.
        let p = Platform::dgx_a100();
        let n = 1u64 << 15;
        let g = 8;
        let (report, input, output) = run(
            &p,
            g,
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            n,
            7,
        );
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert!(
            report.max_partition_keys <= 2 * (n / g as u64),
            "bucket imbalance {} exceeds 2x the ideal {}",
            report.max_partition_keys,
            n / g as u64
        );
    }

    #[test]
    fn non_power_of_two_gpu_count() {
        let p = Platform::dgx_a100();
        let n = 3 * (1 << 12);
        let (report, input, output) = run(&p, 3, Distribution::Uniform, n, 9);
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert_eq!(report.gpus.len(), 3);
    }

    #[test]
    fn exchanges_once_like_rp() {
        // Sample sort's defining property: at most one all-to-all, so the
        // exchanged volume is bounded by n (strictly less: the diagonal
        // bucket stays local).
        let p = Platform::dgx_a100();
        let n = 1u64 << 16;
        let (report, _, _) = run(&p, 4, Distribution::Uniform, n, 11);
        assert!(report.p2p_swapped_keys < n);
        assert!(report.p2p_swapped_keys > 0);
    }

    #[test]
    fn sampled_fidelity_runs() {
        let p = Platform::dgx_a100();
        let scale = 1u64 << 10;
        let n = (1u64 << 24) / (scale * 8) * (scale * 8);
        let mut data: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let report = sample_sort(&p, &SampleSortConfig::new(8).sampled(scale), &mut data, n);
        assert!(report.validated);
        assert_eq!(report.keys, n);
    }
}
