//! Multiway mergesort — the k-way merge-tree multi-GPU sort after Karsin
//! et al. (arXiv 1702.07961).
//!
//! Where P2P sort keeps all `g` GPUs busy through `g − 1` pairwise
//! swap-and-re-merge stages, multiway mergesort treats the sorted chunks as
//! the leaves of a binary merge tree and merges runs *pairwise across
//! GPUs*:
//!
//! 1. chunks sort locally (same phase 1 as P2P/RP sort);
//! 2. `⌈log₂ g⌉` merge levels: at each level, runs pair up; the loser's
//!    run ships whole to the winner's GPU, which concatenates both runs
//!    into a fresh buffer and merges the two runs with
//!    `gpu_multiway_merge` (merge-path,
//!    [`msort_cpu::mergesort::parallel_merge_into`], under the hood). An
//!    odd run gets a bye to the next level;
//! 3. the final run (all `n` keys, on one GPU) copies back to the host in
//!    one DtoH transfer.
//!
//! The data-movement shape is the *opposite* of the all-to-all designs:
//! every level moves half the data point-to-point over whichever links
//! connect the paired GPUs, and the merge work concentrates onto fewer
//! GPUs each level — the top merge runs on one GPU over the full `n`.
//! That makes the algorithm merge-bound (`O(n log g)` merge traffic) and
//! its tail serial, the classic weakness Karsin's analysis predicts for
//! `k = 2`; its strength is simplicity and strictly point-to-point
//! transfers (no g²-stream all-to-all hammering a host interconnect).
//!
//! Memory: the winner of the top-level merge transiently holds `2n` keys
//! (concatenated input + merge output), the steepest footprint of the five
//! algorithm families — the serve layer's admission control accounts for
//! it.
//!
//! Like the other sorts, the phases live in a resumable driver
//! ([`MwmsDriver`]); [`mwms_sort`] drives it alone.

use crate::family::Family;
use crate::gpuset::resolve_gang;
use crate::report::SortReport;
use crate::stage::{staged_driver, Middle, Shape, Source, Staging};
use msort_data::SortKey;
use msort_gpu::{BufId, Fidelity, GpuSystem, OpId, Phase};
use msort_sim::GpuSortAlgo;
use msort_topology::Platform;

/// Configuration for [`mwms_sort`].
#[derive(Debug, Clone)]
pub struct MwmsConfig {
    /// Number of GPUs (any `g >= 1`; odd runs get merge-tree byes).
    pub gpus: usize,
    /// Explicit GPU set (overrides the default). Order matters: adjacent
    /// entries pair first, and earlier entries win the pair (accumulate
    /// the merged runs), so the first entry hosts the final merge.
    pub gpu_set: Option<Vec<usize>>,
    /// Single-GPU sorting primitive for the local sort phase.
    pub algo: GpuSortAlgo,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// NUMA socket whose host memory stages the input and output (0 on
    /// single-node platforms; the cross-node driver points each inner sort
    /// at its node's home socket).
    pub home_socket: usize,
}

impl MwmsConfig {
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

/// Device keys per GPU for a `chunk`-key share on `g` GPUs: the final merge
/// concatenates all `n` keys next to its `n`-key output on one GPU — a
/// transient 2n, the steepest footprint of the five families.
pub(crate) fn footprint_keys(chunk: u64, g: u64) -> u64 {
    2 * g * chunk
}

/// Multiway mergesort as a resumable [`SortDriver`](crate::SortDriver)
/// over a caller-provided [`GpuSystem`]. Merge-tree buffers are allocated
/// level by level (and the consumed level freed), so the footprint peaks
/// at `2n` on the final winner rather than `n log g` fleet-wide.
pub struct MwmsDriver<K: SortKey> {
    st: Staging<K>,
    /// The sorted runs still in the merge tree, each on its lane's GPU.
    runs: Vec<Source>,
    /// This level's concatenated pairs, awaiting their merges: the index
    /// into `runs` and the logical split point (end of the winner's run).
    pending: Vec<(usize, u64)>,
    /// Buffers consumed by the ops the driver is currently waiting on;
    /// freed when the next step runs (i.e. once those ops drained).
    to_free: Vec<BufId>,
}

impl<K: SortKey> MwmsDriver<K> {
    /// Prepare a multiway mergesort of `data` (physical payload for
    /// `logical_len` keys) on `sys`: import the input and pre-allocate the
    /// phase-1 chunk buffers.
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `gpus × scale` (chunks
    /// must hold whole samples), if the buffers exceed GPU memory, or if
    /// `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &MwmsConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        // Adjacent GPUs pair first, so the default set's stage-0-adjacency
        // (fast pairwise links first) is exactly the right order here too.
        let order = resolve_gang(sys.platform(), config.gpus, &config.gpu_set, true);
        let g = order.len();
        let shape = Shape {
            label: Family::MultiwayMerge.name().into(),
            lanes: g,
            order,
            even: true,
            algo: config.algo,
            fidelity: config.fidelity,
            home_socket: config.home_socket,
        };
        let mut st = Staging::new(sys, shape, data, logical_len);
        // Phase-1 buffers: primary chunk + sort scratch per GPU. The
        // scratch buffers die after the local sorts; merge-tree buffers
        // are allocated per level.
        let mut runs = Vec::with_capacity(g);
        let mut scratch = Vec::with_capacity(g);
        for pos in 0..g {
            runs.push(Source {
                slot: pos,
                buf: st.alloc_gpu(sys, st.order[pos], st.chunk),
                len: st.chunk,
            });
            scratch.push(st.alloc_gpu(sys, st.order[pos], st.chunk));
        }
        Self {
            st,
            runs,
            pending: Vec::new(),
            to_free: scratch,
        }
    }

    /// Pair runs and concatenate each pair on the winner's GPU.
    fn concatenate_pairs(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let mut wait = Vec::new();
        let mut next_runs = Vec::with_capacity(self.runs.len().div_ceil(2));
        for pair in std::mem::take(&mut self.runs).chunks(2) {
            let [w, l] = pair else {
                // Odd run out: a bye to the next level.
                next_runs.extend_from_slice(pair);
                continue;
            };
            let total = w.len + l.len;
            let src = self.st.alloc_gpu(sys, self.st.order[w.slot], total);
            // Winner's half moves device-locally; the loser's run crosses
            // the fabric point-to-point.
            let s1 = self.st.stream(sys);
            wait.push(sys.memcpy(s1, w.buf, 0, src, 0, w.len, &[], Phase::Merge));
            let s2 = self.st.stream(sys);
            wait.push(sys.memcpy(s2, l.buf, 0, src, w.len, l.len, &[], Phase::Merge));
            self.st.swapped_keys += l.len;
            self.to_free.extend([w.buf, l.buf]);
            self.pending.push((next_runs.len(), w.len));
            // The concatenation stands in for the run until the merge step
            // points it at the merge output.
            next_runs.push(Source {
                slot: w.slot,
                buf: src,
                len: total,
            });
        }
        self.runs = next_runs;
        wait
    }

    /// The level's pairwise merges. The consumed input runs were freed on
    /// entry (their copies drained), so the peak footprint is src + dst =
    /// 2x the level's run length on each winner.
    fn merge_pairs(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let mut wait = Vec::new();
        for (i, mid) in std::mem::take(&mut self.pending) {
            let run = self.runs[i];
            let dst = self.st.alloc_gpu(sys, self.st.order[run.slot], run.len);
            let stream = self.st.compute[run.slot];
            let runs = vec![(run.buf, 0, mid), (run.buf, mid, run.len - mid)];
            wait.push(sys.gpu_multiway_merge(stream, runs, dst, &[]));
            self.to_free.push(run.buf);
            self.runs[i].buf = dst;
        }
        wait
    }
}

impl<K: SortKey> Middle<K> for MwmsDriver<K> {
    /// Scatter + local sort; the scratch buffers sit in `to_free` and die
    /// once the sorts drain.
    fn start(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let landing = self.runs.iter().zip(&self.to_free);
        self.st
            .scatter_chunks(sys, landing.map(|(run, &aux)| (run.buf, Some(aux))))
    }

    /// Alternates the two halves of a merge level — concatenate the run
    /// pairs, then merge them — until one run remains.
    fn middle(&mut self, sys: &mut GpuSystem<'_, K>) -> Option<Vec<OpId>> {
        for buf in self.to_free.drain(..) {
            sys.world_mut().free(buf);
        }
        if !self.pending.is_empty() {
            return Some(self.merge_pairs(sys));
        }
        (self.runs.len() > 1).then(|| self.concatenate_pairs(sys))
    }

    /// One DtoH transfer of the final run.
    fn sources(&self) -> Vec<Source> {
        vec![self.runs[0]]
    }
}

staged_driver!(MwmsDriver);

/// Sort `data` (physical payload for `logical_len` keys) with multiway
/// mergesort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `gpus × scale` (chunks must
/// hold whole samples) or the buffers exceed GPU memory (note the final
/// winner transiently holds `2n` keys).
pub fn mwms_sort<K: SortKey>(
    platform: &Platform,
    config: &MwmsConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::mwms(config.clone()),
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
        let report = mwms_sort(platform, &MwmsConfig::new(gpus), &mut data, n);
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
    fn non_power_of_two_gpu_count_gets_byes() {
        let p = Platform::dgx_a100();
        for g in [3u64, 5, 6, 7] {
            let n = g * (1 << 12);
            let (report, input, output) = run(&p, g as usize, Distribution::Uniform, n, 9);
            assert!(report.validated, "g={g}");
            assert!(same_multiset(&input, &output), "g={g}");
            assert_eq!(report.gpus.len(), g as usize);
        }
    }

    #[test]
    fn single_gpu_degenerates_to_local_sort() {
        let p = Platform::dgx_a100();
        let (report, input, output) = run(&p, 1, Distribution::Uniform, 1 << 13, 11);
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert_eq!(report.p2p_swapped_keys, 0);
    }

    #[test]
    fn merge_traffic_is_n_log_g_shaped() {
        // Each of the log2(g) levels ships half the data: g=4 moves n
        // keys total (n/2 per level), strictly more point-to-point volume
        // than RP's single exchange on the same input would.
        let p = Platform::dgx_a100();
        let n = 1u64 << 16;
        let (report, _, _) = run(&p, 4, Distribution::Uniform, n, 13);
        assert_eq!(report.p2p_swapped_keys, n);
    }

    #[test]
    fn sampled_fidelity_runs() {
        let p = Platform::dgx_a100();
        let scale = 1u64 << 10;
        let n = (1u64 << 24) / (scale * 8) * (scale * 8);
        let mut data: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let report = mwms_sort(&p, &MwmsConfig::new(8).sampled(scale), &mut data, n);
        assert!(report.validated);
        assert_eq!(report.keys, n);
    }
}
