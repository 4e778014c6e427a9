//! RP sort — the partitioning-based multi-GPU sort the paper proposes as
//! future work (Section 7).
//!
//! P2P sort's merge phase needs `g − 1` merge stages, each re-swapping
//! keys; the paper suggests instead a *partitioning-based* design that
//! exchanges keys between GPUs exactly once (all-to-all), "which would
//! highly benefit systems with many NVSwitch-interconnected GPUs such as
//! the DGX A100". This module implements that design:
//!
//! 1. chunks sort locally (same phase 1 as P2P sort);
//! 2. the host selects `g − 1` *splitters* by multisequence selection over
//!    the sorted chunks at global ranks `i·n/g` — an exact partitioning,
//!    so every GPU ends up with exactly `n/g` keys (perfect balance even
//!    for skewed data, unlike a sampled radix histogram);
//! 3. one all-to-all exchange: GPU `j` sends its `i`-th partition (a
//!    sorted run) to GPU `i`'s receive buffer; its own partition moves by
//!    a device-local copy;
//! 4. each GPU k-way-merges the `g` received runs;
//! 5. chunks copy back to the host in GPU order — the concatenation is
//!    globally sorted by the splitter property.
//!
//! On NVSwitch every flow of the all-to-all runs at full rate, so the
//! merge phase costs ~one chunk transfer regardless of `g`; on systems
//! whose P2P crosses the host (AC922, DELTA), the all-to-all hammers the
//! CPU interconnect with `O(g²)` streams and loses to P2P sort's staged
//! merges — exactly the trade-off the paper predicts.
//!
//! Like the other sorts, the phases live in a resumable driver
//! ([`RpDriver`]) so a scheduler can interleave RP jobs with other work on
//! one shared [`GpuSystem`]; [`rp_sort`] drives it alone.

use crate::family::Family;
use crate::gpuset::resolve_gang;
use crate::report::SortReport;
use crate::stage::{staged_driver, Middle, Shape, Source, Staging};
use msort_cpu::multiway::multisequence_select;
use msort_data::SortKey;
use msort_gpu::{BufId, Fidelity, GpuSystem, OpId, Phase};
use msort_sim::{GpuSortAlgo, SimDuration};
use msort_topology::Platform;

/// Configuration for [`rp_sort`].
#[derive(Debug, Clone)]
pub struct RpConfig {
    /// Number of GPUs (any `g >= 1`; RP sort does not need a power of two,
    /// another advantage over the merge-tree design).
    pub gpus: usize,
    /// Explicit GPU set (overrides the default; RP sort is
    /// order-insensitive, so only membership matters).
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

impl RpConfig {
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

/// Device keys per GPU for a `chunk`-key share on `g` GPUs: the chunk plus
/// a receive and a merge-output buffer — RP sort's 3n footprint is the
/// price of the single exchange — the latter two with slack that absorbs
/// partition-boundary rounding.
pub(crate) fn footprint_keys(chunk: u64, g: u64, scale: u64) -> u64 {
    chunk + 2 * (chunk + g * scale)
}

/// Per-GPU buffers: the primary chunk, the aux (sort scratch, then receive
/// target), and the merge output.
struct RpBufs {
    primary: BufId,
    recv: BufId,
    merged: BufId,
}

/// RP sort as a resumable [`SortDriver`](crate::SortDriver) over a
/// caller-provided [`GpuSystem`]. Construction allocates the 3n-footprint
/// buffers; timing starts at the first step.
pub struct RpDriver<K: SortKey> {
    st: Staging<K>,
    bufs: Vec<RpBufs>,
    /// Per GPU: logical keys received in the exchange (0 before it ran).
    recv_len: Vec<u64>,
    exchanged: bool,
}

impl<K: SortKey> RpDriver<K> {
    /// Prepare an RP sort of `data` (physical payload for `logical_len`
    /// keys) on `sys`: import the input and pre-allocate the per-GPU
    /// primary / receive / merge-output buffers.
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `gpus × scale` (chunks
    /// must hold whole samples), if the buffers exceed GPU memory, or if
    /// `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &RpConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        // RP sort is order-insensitive (no staged pairings), so only the
        // default set's membership matters.
        let order = resolve_gang(sys.platform(), config.gpus, &config.gpu_set, true);
        let g = order.len();
        let shape = Shape {
            label: Family::Rp.name().into(),
            lanes: g,
            order,
            even: true,
            algo: config.algo,
            fidelity: config.fidelity,
            home_socket: config.home_socket,
        };
        let mut st = Staging::new(sys, shape, data, logical_len);
        let padded = st.chunk + g as u64 * st.scale;
        let bufs = (0..g)
            .map(|i| RpBufs {
                primary: st.alloc_gpu(sys, st.order[i], st.chunk),
                recv: st.alloc_gpu(sys, st.order[i], padded),
                merged: st.alloc_gpu(sys, st.order[i], padded),
            })
            .collect();
        Self {
            st,
            bufs,
            recv_len: vec![0; g],
            exchanged: false,
        }
    }
}

impl<K: SortKey> Middle<K> for RpDriver<K> {
    fn start(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let landing = self.bufs.iter().map(|b| (b.primary, Some(b.recv)));
        self.st.scatter_chunks(sys, landing)
    }

    /// Splitter selection, the all-to-all exchange, and the per-GPU k-way
    /// merges, as one step.
    fn middle(&mut self, sys: &mut GpuSystem<'_, K>) -> Option<Vec<OpId>> {
        if std::mem::replace(&mut self.exchanged, true) {
            return None;
        }
        let g = self.bufs.len();
        let (chunk, scale) = (self.st.chunk, self.st.scale);
        let mut wait = Vec::new();

        // Splitter selection (host side, O(g log n) reads of this job's
        // own device buffers).
        let views: Vec<&[K]> = self
            .bufs
            .iter()
            .map(|b| sys.world().slice(b.primary, 0, chunk))
            .collect();
        let total_phys: usize = views.iter().map(|v| v.len()).sum();
        // splits[r][j]: how many keys of chunk j have global rank < r*n/g.
        let splits: Vec<Vec<usize>> = (0..=g)
            .map(|r| multisequence_select(&views, r * total_phys / g))
            .collect();
        drop(views);
        let split_cost = sys.cost_model().pivot_selection(chunk);
        let split_op = sys.delay(
            self.st.host_stream,
            SimDuration(split_cost.0 * g as u64),
            &[],
            Phase::Merge,
        );
        wait.push(split_op);

        // The all-to-all exchange: GPU i receives partition (j -> i) from
        // every j.
        let mut recv_deps: Vec<Vec<OpId>> = vec![Vec::new(); g];
        let mut recv_runs: Vec<Vec<(BufId, u64, u64)>> = vec![Vec::new(); g];
        #[allow(clippy::needless_range_loop)] // i and j index splits and bufs together
        for j in 0..g {
            for i in 0..g {
                let from = splits[i][j] as u64 * scale;
                let len = splits[i + 1][j] as u64 * scale - from;
                if len == 0 {
                    continue;
                }
                let s = self.st.stream(sys);
                let op = sys.memcpy(
                    s,
                    self.bufs[j].primary,
                    from,
                    self.bufs[i].recv,
                    self.recv_len[i],
                    len,
                    &[split_op],
                    Phase::Merge,
                );
                if i != j {
                    self.st.swapped_keys += len;
                }
                recv_runs[i].push((self.bufs[i].recv, self.recv_len[i], len));
                self.recv_len[i] += len;
                recv_deps[i].push(op);
                wait.push(op);
            }
        }

        // Per-GPU k-way merge of the received runs.
        for (i, runs) in recv_runs.into_iter().enumerate() {
            wait.push(sys.gpu_multiway_merge(
                self.st.compute[i],
                runs,
                self.bufs[i].merged,
                &recv_deps[i],
            ));
        }
        Some(wait)
    }

    fn sources(&self) -> Vec<Source> {
        let len = self.st.chunk;
        debug_assert!(
            self.recv_len.iter().all(|&l| l == len),
            "exact selection balances partitions"
        );
        let merged = self.bufs.iter().map(|b| b.merged).enumerate();
        merged
            .map(|(slot, buf)| Source { slot, buf, len })
            .collect()
    }
}

staged_driver!(RpDriver);

/// Sort `data` (physical payload for `logical_len` keys) with RP sort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `gpus × scale` (chunks must
/// hold whole samples) or the buffers exceed GPU memory.
pub fn rp_sort<K: SortKey>(
    platform: &Platform,
    config: &RpConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    // The shared RunConfig path builds the system (fidelity + faults +
    // recorder) and drives the RpDriver to completion.
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::rp(config.clone()),
        data,
        logical_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{p2p_sort, P2pConfig};
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
        let report = rp_sort(platform, &RpConfig::new(gpus), &mut data, n);
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
    fn skewed_data_stays_balanced() {
        // Exact splitter selection keeps partitions equal even for
        // duplicate-heavy input (the debug_assert in phase 5 checks it).
        let p = Platform::dgx_a100();
        let (report, input, output) = run(
            &p,
            8,
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            1 << 15,
            7,
        );
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
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
    fn beats_p2p_sort_on_nvswitch_at_scale() {
        // The paper's Section 7 hypothesis: one all-to-all beats g-1 merge
        // stages on the DGX A100 (at paper scale, 8 GPUs).
        let p = Platform::dgx_a100();
        let scale = 1u64 << 16;
        let n = 8_000_000_000u64 / (scale * 64) * (scale * 64);
        let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let mut a = input.clone();
        let rp = rp_sort(&p, &RpConfig::new(8).sampled(scale), &mut a, n);
        let mut b = input.clone();
        let p2p = p2p_sort(
            &p,
            &P2pConfig {
                fidelity: Fidelity::Sampled { scale },
                ..P2pConfig::new(8)
            },
            &mut b,
            n,
        );
        assert_eq!(a, b);
        assert!(
            rp.phases.merge < p2p.phases.merge,
            "RP merge {} should beat P2P merge {}",
            rp.phases.merge,
            p2p.phases.merge
        );
    }

    #[test]
    fn advantage_is_small_on_host_traversing_systems() {
        // On the AC922 the all-to-all still crosses the X-Bus for half the
        // data — the same unavoidable cross-socket volume as P2P sort's
        // global stage — so RP's gain shrinks to skipping the pair-wise
        // stages. The NVSwitch advantage (previous test) is the big one.
        let p = Platform::ibm_ac922();
        let scale = 1u64 << 16;
        let n = 2_000_000_000u64 / (scale * 16) * (scale * 16);
        let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 17);
        let mut a = input.clone();
        let rp = rp_sort(&p, &RpConfig::new(4).sampled(scale), &mut a, n);
        let mut b = input.clone();
        let p2p = p2p_sort(
            &p,
            &P2pConfig {
                fidelity: Fidelity::Sampled { scale },
                ..P2pConfig::new(4)
            },
            &mut b,
            n,
        );
        let ratio = p2p.total.as_secs_f64() / rp.total.as_secs_f64();
        assert!(
            (0.95..=1.25).contains(&ratio),
            "RP {} vs P2P {} (ratio {ratio:.2}) left the expected band",
            rp.total,
            p2p.total
        );
    }
}
