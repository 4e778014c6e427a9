//! P2P sort: the GPU-only multi-GPU sorting algorithm (Sections 5.2, 5.4).
//!
//! Phase 1 distributes one chunk per GPU and sorts it locally with the
//! fastest single-GPU primitive. Phase 2 merges the chunks *on the GPUs*
//! through a series of merge stages (paper Algorithm 2, generalized to any
//! `g = 2^k`): each stage selects a leftmost pivot over the two sorted
//! half-concatenations, swaps the pivot-determined blocks between GPU
//! pairs over the P2P interconnects (out-of-place, overlapped with the
//! device-local copies of the kept regions), and re-merges the affected
//! chunks locally. Finally all chunks copy back to the host.
//!
//! The recursion is executed level by level: all merge groups at the same
//! recursion depth run concurrently (they occupy disjoint GPU subsets),
//! with a host synchronization between levels — which is where the real
//! implementation also reads device memory to select the next pivots.
//!
//! The sort itself lives in [`P2pDriver`], a resumable
//! [`SortDriver`](crate::exec::SortDriver) whose states are exactly the
//! host-synchronization points above; [`p2p_sort`] is the classic
//! single-job entry point that drives it to completion on a private
//! system. A scheduler can instead interleave many drivers on one shared
//! [`GpuSystem`] so their transfers contend on the same links.

use crate::family::Family;
use crate::gpuset::resolve_gang;
use crate::pivot::{select_pivot, swap_plan, ConcatView, SwapPlan};
use crate::report::SortReport;
use crate::stage::{staged_driver, Middle, Shape, Source, Staging};
use msort_data::SortKey;
use msort_gpu::{BufId, Fidelity, GpuSystem, OpId, Phase};
use msort_sim::GpuSortAlgo;
use msort_topology::{Endpoint, Platform, Route};

/// Configuration for [`p2p_sort`].
#[derive(Debug, Clone)]
pub struct P2pConfig {
    /// Number of GPUs (`2^k`); the set/order comes from
    /// [`crate::default_gpu_set`] unless [`P2pConfig::gpu_order`] is set.
    pub gpus: usize,
    /// Explicit ordered GPU set (overrides the default; used by the
    /// set-order ablation).
    pub gpu_order: Option<Vec<usize>>,
    /// Single-GPU sorting primitive for the local sort phase.
    pub algo: GpuSortAlgo,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// Multi-hop P2P routing (paper Section 7, future work): when a swap's
    /// direct route would traverse the host side, relay it through an
    /// intermediate GPU instead if some relay offers a higher single-flow
    /// rate (e.g. over the DELTA D22x's NVLink ring).
    pub multi_hop: bool,
    /// NUMA socket whose host memory stages the input and output (0 on
    /// single-node platforms; the cross-node driver points each inner sort
    /// at its node's home socket).
    pub home_socket: usize,
}

impl P2pConfig {
    /// Default configuration for `gpus` GPUs: Thrust-like local sort at
    /// full fidelity.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            gpus,
            gpu_order: None,
            algo: GpuSortAlgo::ThrustLike,
            fidelity: Fidelity::Full,
            multi_hop: false,
            home_socket: 0,
        }
    }

    /// Use sampled fidelity with the given factor.
    #[must_use]
    pub fn sampled(mut self, scale: u64) -> Self {
        self.fidelity = Fidelity::Sampled { scale };
        self
    }

    /// Use an explicit ordered GPU set.
    #[must_use]
    pub fn with_order(mut self, order: Vec<usize>) -> Self {
        self.gpu_order = Some(order);
        self
    }

    /// Enable multi-hop P2P routing.
    #[must_use]
    pub fn with_multi_hop(mut self) -> Self {
        self.multi_hop = true;
        self
    }
}

/// The best P2P route from GPU `a` to GPU `b`: the direct route, or — with
/// `multi_hop` — the single-relay route with the highest single-flow rate
/// when that beats the direct path. Returns the route and its estimated
/// single-flow rate in bytes/s.
#[must_use]
pub fn best_p2p_route(platform: &Platform, a: usize, b: usize, multi_hop: bool) -> (Route, f64) {
    let rate_of = |route: &Route| -> f64 {
        msort_topology::allocate_rates(platform.constraint_table(), &[platform.flow_request(route)])
            [0]
    };
    let direct = platform
        .route(Endpoint::gpu(a), Endpoint::gpu(b))
        .expect("platforms are connected");
    let mut best_rate = rate_of(&direct);
    let mut best = direct;
    if multi_hop {
        for via in 0..platform.topology.gpu_count() {
            if let Some(relay) = msort_topology::route::route_via(
                &platform.topology,
                Endpoint::gpu(a),
                Endpoint::gpu(b),
                via,
            ) {
                let rate = rate_of(&relay);
                if rate > best_rate {
                    best_rate = rate;
                    best = relay;
                }
            }
        }
    }
    (best, best_rate)
}

/// Per-GPU buffer state: which buffer currently holds the chunk and which
/// is the auxiliary (they swap roles after a full-chunk exchange, like the
/// pointer swap in the real implementation).
struct ChunkBufs {
    primary: BufId,
    aux: BufId,
}

/// Device keys per GPU for a `chunk`-key share: the chunk and its
/// auxiliary buffer.
pub(crate) fn footprint_keys(chunk: u64) -> u64 {
    2 * chunk
}

/// P2P sort as a resumable [`SortDriver`](crate::exec::SortDriver): each
/// step enqueues one phase (scatter+sort, one merge level, or the gather)
/// onto the caller's [`GpuSystem`] and returns the ops to await.
///
/// Construction allocates every buffer the sort needs (the paper excludes
/// allocation from the timed region); timing starts at the first `step`.
pub struct P2pDriver<K: SortKey> {
    st: Staging<K>,
    multi_hop: bool,
    bufs: Vec<ChunkBufs>,
    levels: Vec<Vec<(usize, usize)>>,
    /// Merge levels drained so far.
    level: usize,
}

impl<K: SortKey> P2pDriver<K> {
    /// Prepare a P2P sort of `data` (a physical payload representing
    /// `logical_len` keys) on `sys`: import the input, pre-allocate the
    /// per-GPU chunk + auxiliary buffers, and create the streams.
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `gpus × scale`, if the
    /// per-GPU chunk (plus its auxiliary buffer) exceeds device memory, or
    /// if `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &P2pConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        let order = resolve_gang(sys.platform(), config.gpus, &config.gpu_order, false);
        let shape = Shape {
            label: Family::P2p.name().into(),
            lanes: order.len(),
            order,
            even: true,
            algo: config.algo,
            fidelity: config.fidelity,
            home_socket: config.home_socket,
        };
        let mut st = Staging::new(sys, shape, data, logical_len);
        let bufs = (0..config.gpus)
            .map(|i| ChunkBufs {
                primary: st.alloc_gpu(sys, st.order[i], st.chunk),
                aux: st.alloc_gpu(sys, st.order[i], st.chunk),
            })
            .collect();
        Self {
            st,
            multi_hop: config.multi_hop,
            bufs,
            levels: merge_levels(config.gpus),
            level: 0,
        }
    }
}

impl<K: SortKey> Middle<K> for P2pDriver<K> {
    fn start(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let landing = self.bufs.iter().map(|b| (b.primary, Some(b.aux)));
        self.st.scatter_chunks(sys, landing)
    }

    /// One merge level. All groups in a level touch disjoint GPU subsets;
    /// pivots are selected from current device data (the previous level
    /// fully drained).
    fn middle(&mut self, sys: &mut GpuSystem<'_, K>) -> Option<Vec<OpId>> {
        let groups = self.levels.get(self.level)?;
        let mut wait = Vec::new();
        for &(start, len) in groups {
            let plan = plan_group(sys, &self.bufs, start, len, self.st.chunk);
            self.st.swapped_keys += plan.transferred_keys() as u64 * self.st.scale;
            let (st, bufs) = (&self.st, &mut self.bufs);
            enqueue_group(sys, st, bufs, start, &plan, self.multi_hop, &mut wait);
        }
        self.level += 1;
        Some(wait)
    }

    fn sources(&self) -> Vec<Source> {
        let len = self.st.chunk;
        let chunks = self.bufs.iter().map(|b| b.primary).enumerate();
        chunks
            .map(|(slot, buf)| Source { slot, buf, len })
            .collect()
    }
}

staged_driver!(P2pDriver);

/// Sort `data` (a physical payload representing `logical_len` keys) on
/// `platform` with P2P sort and return the report. The sorted output is
/// written back into `data`.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `gpus × scale`, if the
/// per-GPU chunk (plus its auxiliary buffer) exceeds device memory, or if
/// the GPU count is not a power of two.
pub fn p2p_sort<K: SortKey>(
    platform: &Platform,
    config: &P2pConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    // The shared RunConfig path builds the system (fidelity + faults +
    // recorder) and drives the P2pDriver to completion.
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::p2p(config.clone()),
        data,
        logical_len,
    )
}

/// The merge levels for `g = 2^k` chunks: each level is a list of
/// `(start, len)` groups over the ordered GPU set, executed concurrently.
/// Levels follow Algorithm 2 unrolled breadth-first: `g - 1` levels total.
fn merge_levels(g: usize) -> Vec<Vec<(usize, usize)>> {
    fn levels_for(start: usize, g: usize) -> Vec<Vec<(usize, usize)>> {
        if g < 2 {
            return Vec::new();
        }
        if g == 2 {
            return vec![vec![(start, 2)]];
        }
        let half = levels_for(start, g / 2)
            .into_iter()
            .zip(levels_for(start + g / 2, g / 2))
            .map(|(mut l, r)| {
                l.extend(r);
                l
            })
            .collect::<Vec<_>>();
        let mut out = half.clone();
        out.push(vec![(start, g)]);
        out.extend(half);
        out
    }
    levels_for(0, g)
}

/// Select the pivot for the group of chunks `start..start+len` and derive
/// its swap plan. Physical data; returns a plan in physical key units.
fn plan_group<K: SortKey>(
    sys: &GpuSystem<'_, K>,
    bufs: &[ChunkBufs],
    start: usize,
    len: usize,
    chunk: u64,
) -> SwapPlan {
    let half = len / 2;
    let a_view = ConcatView::new(
        (start..start + half)
            .map(|i| sys.world().slice(bufs[i].primary, 0, chunk))
            .collect(),
    );
    let b_view = ConcatView::new(
        (start + half..start + len)
            .map(|i| sys.world().slice(bufs[i].primary, 0, chunk))
            .collect(),
    );
    debug_assert!(a_view.is_sorted(), "A half must be sorted before a stage");
    debug_assert!(b_view.is_sorted(), "B half must be sorted before a stage");
    let pivot = select_pivot(&a_view, &b_view);
    let chunk_phys = a_view.len() / half;
    swap_plan(half, chunk_phys, pivot)
}

/// Enqueue one merge group's swap + local merges, pushing every enqueued
/// op into `out_ops`. `plan` is in physical units; all runtime calls use
/// logical units (scaled back up).
fn enqueue_group<K: SortKey>(
    sys: &mut GpuSystem<'_, K>,
    st: &Staging<K>,
    bufs: &mut [ChunkBufs],
    start: usize,
    plan: &SwapPlan,
    multi_hop: bool,
    out_ops: &mut Vec<OpId>,
) {
    let (order, host_stream, compute, scale) = (&st.order, st.host_stream, &st.compute, st.scale);
    let chunk = plan.chunk_len as u64 * scale;
    let group_len = 2 * plan.half;

    // Pivot-selection latency gates the whole group.
    let pd = sys.cost_model().pivot_selection(chunk);
    let pivot_op = sys.delay(host_stream, pd, &[], Phase::Merge);
    out_ops.push(pivot_op);
    if plan.swaps.is_empty() {
        // Leftmost-pivot optimization: nothing to exchange; we still paid
        // the (tiny) pivot-selection latency.
        return;
    }

    // Transfer streams are created per group per stage — cheap, and it
    // mirrors how the real implementation launches one cudaMemcpyPeerAsync
    // per block on its own stream.
    // Received blocks land in each chunk's aux buffer after its kept
    // region; full-chunk receivers get the whole aux buffer.
    let mut recv_deps: Vec<Vec<OpId>> = vec![Vec::new(); group_len];
    let mut recv_cursor: Vec<u64> = (0..group_len)
        .map(|c| {
            let (kept, _) = plan.chunk_exchange(c);
            kept as u64 * scale
        })
        .collect();

    // Kept-region device-local copies (run concurrently with P2P).
    #[allow(clippy::needless_range_loop)] // c indexes the plan, deps, and bufs together
    for c in 0..group_len {
        let (kept, recv) = plan.chunk_exchange(c);
        if recv == 0 {
            continue; // untouched chunk
        }
        let kept = kept as u64 * scale;
        if kept > 0 {
            let gi = start + c;
            // The kept region of an A-side chunk is its prefix; of a
            // B-side chunk its suffix. Both land at the front of aux so
            // aux always holds [kept | received].
            let src_off = if c < plan.half { 0 } else { chunk - kept };
            let s = sys.stream();
            let op = sys.memcpy(
                s,
                bufs[gi].primary,
                src_off,
                bufs[gi].aux,
                0,
                kept,
                &[pivot_op],
                Phase::Merge,
            );
            recv_deps[c].push(op);
            out_ops.push(op);
        }
    }

    // P2P block exchanges (both directions of each pair, concurrently).
    // With multi-hop routing enabled, each direction takes the best relay
    // route when it beats the direct path (paper Section 7).
    for swap in &plan.swaps {
        let len = swap.len as u64 * scale;
        // Each side's block lands in the other side's aux.
        for (from, off, to) in [
            (swap.a_chunk, swap.a_off, swap.b_chunk),
            (swap.b_chunk, swap.b_off, swap.a_chunk),
        ] {
            let (src, dst) = (start + from, start + to);
            let s = sys.stream();
            let (route, _) = best_p2p_route(sys.platform(), order[src], order[dst], multi_hop);
            let op = sys.memcpy_route(
                s,
                route,
                bufs[src].primary,
                off as u64 * scale,
                bufs[dst].aux,
                recv_cursor[to],
                len,
                &[pivot_op],
                Phase::Merge,
            );
            recv_cursor[to] += len;
            recv_deps[to].push(op);
            out_ops.push(op);
        }
    }

    // Local merges (two sorted runs in aux -> primary), or a buffer-role
    // swap when the chunk was exchanged whole (single run, already sorted).
    #[allow(clippy::needless_range_loop)] // c indexes the plan, deps, and bufs together
    for c in 0..group_len {
        let (kept, recv) = plan.chunk_exchange(c);
        if recv == 0 {
            continue;
        }
        let gi = start + c;
        if kept == 0 {
            // Whole chunk replaced: aux holds one sorted run. Swap roles —
            // the zero-cost pointer swap of the real implementation. The
            // enqueued ops already reference the right BufIds, and the
            // role swap only affects *future* stages, which are enqueued
            // after the level fully drains.
            std::mem::swap(&mut bufs[gi].primary, &mut bufs[gi].aux);
            continue;
        }
        let mid = kept as u64 * scale;
        let aux = bufs[gi].aux;
        let mo = sys.gpu_multiway_merge(
            compute[gi],
            vec![(aux, 0, mid), (aux, mid, chunk - mid)],
            bufs[gi].primary,
            &recv_deps[c],
        );
        out_ops.push(mo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, same_multiset, validate_sort, Distribution};
    use msort_sim::SimDuration;
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
        let report = p2p_sort(platform, &P2pConfig::new(gpus), &mut data, n);
        (report, input, data)
    }

    #[test]
    fn sorts_on_two_gpus_all_distributions() {
        let p = Platform::ibm_ac922();
        for dist in Distribution::paper_set() {
            let (report, input, output) = run(&p, 2, dist, 1 << 14, 42);
            assert!(report.validated, "{dist:?}");
            assert!(same_multiset(&input, &output), "{dist:?}");
        }
    }

    #[test]
    fn sorts_on_four_gpus_all_platforms() {
        for id in PlatformId::paper_set() {
            let p = Platform::paper(id);
            let (report, input, output) = run(&p, 4, Distribution::Uniform, 1 << 14, 7);
            assert!(report.validated, "{id:?}");
            assert!(validate_sort(&input, &output).is_valid(), "{id:?}");
            assert_eq!(report.gpus.len(), 4);
        }
    }

    #[test]
    fn sorts_on_eight_gpus_dgx() {
        let p = Platform::dgx_a100();
        let (report, input, output) = run(&p, 8, Distribution::Uniform, 1 << 15, 3);
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert!(report.total > SimDuration::ZERO);
    }

    #[test]
    fn single_gpu_degenerates_to_local_sort() {
        let p = Platform::dgx_a100();
        let (report, input, output) = run(&p, 1, Distribution::Normal, 1 << 12, 9);
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert_eq!(report.p2p_swapped_keys, 0);
        assert_eq!(report.phases.merge, SimDuration::ZERO);
    }

    #[test]
    fn sorted_input_skips_all_swaps() {
        let p = Platform::ibm_ac922();
        let (report, _, _) = run(&p, 4, Distribution::Sorted, 1 << 14, 5);
        assert_eq!(report.p2p_swapped_keys, 0, "leftmost pivot must skip swaps");
    }

    #[test]
    fn reverse_sorted_maximizes_swaps() {
        let p = Platform::ibm_ac922();
        let n = 1u64 << 14;
        let (rev, _, _) = run(&p, 2, Distribution::ReverseSorted, n, 5);
        let (uni, _, _) = run(&p, 2, Distribution::Uniform, n, 5);
        // Reverse-sorted: the leaf merge swaps the full half (n/2 keys each
        // way). Uniform swaps about half that.
        assert_eq!(rev.p2p_swapped_keys, n);
        assert!(uni.p2p_swapped_keys < rev.p2p_swapped_keys);
        assert!(rev.total > uni.total, "more swaps must cost more time");
    }

    #[test]
    fn merge_levels_structure() {
        assert_eq!(merge_levels(2), vec![vec![(0, 2)]]);
        assert_eq!(
            merge_levels(4),
            vec![vec![(0, 2), (2, 2)], vec![(0, 4)], vec![(0, 2), (2, 2)],]
        );
        let l8 = merge_levels(8);
        assert_eq!(l8.len(), 7);
        assert_eq!(l8[3], vec![(0, 8)]);
        assert_eq!(l8[0].len(), 4);
    }

    #[test]
    fn sampled_fidelity_matches_full_timing() {
        let p = Platform::dgx_a100();
        let n = 1u64 << 16;
        // Same logical workload, sorted input so pivots are identical (0)
        // regardless of sampling.
        let full_in: Vec<u32> = generate(Distribution::Sorted, n as usize, 4);
        let mut full = full_in.clone();
        let r_full = p2p_sort(&p, &P2pConfig::new(4), &mut full, n);
        let sample: Vec<u32> = generate(Distribution::Sorted, (n / 16) as usize, 4);
        let mut s = sample;
        let r_sampled = p2p_sort(&p, &P2pConfig::new(4).sampled(16), &mut s, n);
        assert_eq!(r_full.total, r_sampled.total);
        assert!(r_sampled.validated);
    }

    #[test]
    fn sixty_four_bit_keys_sort() {
        let p = Platform::ibm_ac922();
        let input: Vec<u64> = generate(Distribution::Uniform, 1 << 13, 8);
        let mut data = input.clone();
        let report = p2p_sort(&p, &P2pConfig::new(2), &mut data, 1 << 13);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
    }

    #[test]
    fn explicit_gpu_order_is_respected() {
        let p = Platform::ibm_ac922();
        let input: Vec<u32> = generate(Distribution::Uniform, 1 << 14, 2);
        let mut data = input.clone();
        let cfg = P2pConfig::new(4).with_order(vec![0, 2, 1, 3]);
        let report = p2p_sort(&p, &cfg, &mut data, 1 << 14);
        assert!(report.validated);
        assert_eq!(report.gpus, vec![0, 2, 1, 3]);
    }

    #[test]
    fn multi_hop_helps_on_the_delta_ring() {
        // Section 7: on the DELTA, the global merge stage's 0<->3 and
        // 1<->2 swaps can relay over the NVLink ring instead of crossing
        // PCIe 3.0 twice through the host.
        let p = Platform::delta_d22x();
        let (direct, rate_direct) = best_p2p_route(&p, 0, 3, false);
        let (relayed, rate_relay) = best_p2p_route(&p, 0, 3, true);
        assert!(direct.traverses_host(&p.topology));
        assert!(!relayed.traverses_host(&p.topology));
        assert!(
            rate_relay > rate_direct * 2.0,
            "{rate_relay} vs {rate_direct}"
        );

        let scale = 1u64 << 14;
        let n = 1_000_000_000u64 / (scale * 16) * (scale * 16);
        let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 21);
        let mut a = input.clone();
        let base = p2p_sort(
            &p,
            &P2pConfig {
                fidelity: Fidelity::Sampled { scale },
                ..P2pConfig::new(4)
            },
            &mut a,
            n,
        );
        let mut b = input.clone();
        let hopped = p2p_sort(
            &p,
            &P2pConfig {
                fidelity: Fidelity::Sampled { scale },
                ..P2pConfig::new(4)
            }
            .with_multi_hop(),
            &mut b,
            n,
        );
        assert_eq!(a, b);
        assert!(
            hopped.total < base.total,
            "multi-hop {} should beat host-traversing {}",
            hopped.total,
            base.total
        );
        assert!(hopped.validated);
    }

    #[test]
    fn multi_hop_is_noop_on_nvswitch() {
        // Every DGX pair is directly connected at full rate: relays never
        // win, so results and timings are identical.
        let p = Platform::dgx_a100();
        let (direct, r1) = best_p2p_route(&p, 0, 7, false);
        let (best, r2) = best_p2p_route(&p, 0, 7, true);
        assert_eq!(direct, best);
        assert_eq!(r1, r2);
    }

    #[test]
    fn bad_order_is_slower_on_ac922() {
        // The Section 5.4 claim end-to-end: (0,1,2,3) beats (0,2,1,3).
        let p = Platform::ibm_ac922();
        let n = 1u64 << 16;
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 2);
        let mut a = input.clone();
        let good = p2p_sort(&p, &P2pConfig::new(4), &mut a, n);
        let mut b = input.clone();
        let bad = p2p_sort(
            &p,
            &P2pConfig::new(4).with_order(vec![0, 2, 1, 3]),
            &mut b,
            n,
        );
        assert!(good.total < bad.total, "{} !< {}", good.total, bad.total);
        assert_eq!(a, b);
    }
}
