//! HET sort: the heterogeneous CPU/GPU sorting algorithm (Section 5.3).
//!
//! Chunks sort on the GPUs and return to host memory; the CPU merges the
//! sorted sublists with a parallel multiway merge. For data that fits the
//! combined GPU memory this is one chunk group and one final merge. For
//! larger data, chunk groups stream through the GPUs with bidirectional
//! transfer overlap, in one of two pipelines:
//!
//! * **2n-approach** (this paper's contribution): two buffers per GPU;
//!   sorting blocks copies, but chunks are 1.5× larger, so the final merge
//!   sees fewer sublists;
//! * **3n-approach** (Stehle et al.): three buffers per GPU; copies overlap
//!   the sort (the classic copy/compute overlap the paper shows to no
//!   longer matter).
//!
//! Optional **eager merging** (Gowanlock et al.) merges each completed
//! chunk group on the CPU while the GPUs work on the next one; the paper
//! shows it *hurts* on modern systems because the merge queue grows faster
//! than it drains and the merge steals host memory bandwidth from the
//! transfers — both effects are reproduced by modeling CPU merges as
//! host-memory flows.

use crate::family::Family;
use crate::gpuset::resolve_gang;
use crate::report::{PhaseBreakdown, SortReport};
use crate::stage::{split_by_busy, staged_driver, Middle, Piece, Shape, Source, Staging};
use msort_data::SortKey;
use msort_gpu::{BufId, Fidelity, GpuSystem, OpId};
use msort_sim::GpuSortAlgo;
use msort_topology::Platform;

/// Which large-data pipeline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LargeDataApproach {
    /// Two buffers per GPU; sort blocks copies (Figure 11).
    TwoN,
    /// Three buffers per GPU; copies overlap the sort (Figure 10).
    ThreeN,
}

impl LargeDataApproach {
    /// Device buffers per GPU.
    #[must_use]
    pub fn buffers(self) -> u64 {
        match self {
            LargeDataApproach::TwoN => 2,
            LargeDataApproach::ThreeN => 3,
        }
    }

    /// Display label ("2n" / "3n").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LargeDataApproach::TwoN => "2n",
            LargeDataApproach::ThreeN => "3n",
        }
    }
}

/// Configuration for [`het_sort`].
#[derive(Debug, Clone)]
pub struct HetConfig {
    /// Number of GPUs.
    pub gpus: usize,
    /// Explicit GPU set (overrides the default [`crate::default_gpu_set`]).
    pub gpu_set: Option<Vec<usize>>,
    /// Single-GPU sorting primitive.
    pub algo: GpuSortAlgo,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// Large-data pipeline (irrelevant when one chunk group suffices —
    /// the two approaches then behave identically, as the paper notes).
    pub approach: LargeDataApproach,
    /// Eager merging (Section 5.3); the paper's recommendation is `false`.
    pub eager_merge: bool,
    /// Usable device memory per GPU in bytes (defaults to the full GPU
    /// memory). The paper's 2n-vs-3n comparison fixes this to 33 GB so
    /// both pipelines get the same budget (Section 6.2).
    pub gpu_mem_budget: Option<u64>,
    /// NUMA socket whose host memory stages the input and output (0 on
    /// single-node platforms; the cross-node driver points each inner sort
    /// at its node's home socket).
    pub home_socket: usize,
}

impl HetConfig {
    /// Default configuration: 2n pipeline, no eager merging.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            gpus,
            gpu_set: None,
            algo: GpuSortAlgo::ThrustLike,
            fidelity: Fidelity::Full,
            approach: LargeDataApproach::TwoN,
            eager_merge: false,
            gpu_mem_budget: None,
            home_socket: 0,
        }
    }

    /// Use sampled fidelity with the given factor.
    #[must_use]
    pub fn sampled(mut self, scale: u64) -> Self {
        self.fidelity = Fidelity::Sampled { scale };
        self
    }

    /// Select the large-data pipeline.
    #[must_use]
    pub fn with_approach(mut self, approach: LargeDataApproach) -> Self {
        self.approach = approach;
        self
    }

    /// Enable eager merging.
    #[must_use]
    pub fn with_eager_merge(mut self) -> Self {
        self.eager_merge = true;
        self
    }

    /// Restrict the usable device memory per GPU.
    #[must_use]
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.gpu_mem_budget = Some(bytes);
        self
    }
}

/// How the input divides into chunks: `pieces[group * g + gpu]` is the
/// `(offset, len)` of that chunk in the input, in logical keys. Pieces are
/// nearly equal (they differ by at most one sample) and scale-aligned.
#[derive(Debug, Clone)]
pub struct ChunkPlan {
    /// Chunk `(offset, len)` pairs in input order.
    pub pieces: Vec<(u64, u64)>,
    /// Number of chunk groups.
    pub groups: u64,
    /// GPUs per group.
    pub g: usize,
}

impl ChunkPlan {
    /// Compute the plan for `logical_len` keys over `g` GPUs with at most
    /// `max_chunk_keys` keys per chunk.
    ///
    /// # Panics
    /// Panics if `logical_len` is not a multiple of `scale`, or if
    /// `max_chunk_keys < scale` (a chunk must hold at least one sample).
    #[must_use]
    pub fn compute(logical_len: u64, g: usize, max_chunk_keys: u64, scale: u64) -> Self {
        assert_eq!(logical_len % scale, 0, "input must be whole samples");
        assert!(
            max_chunk_keys >= scale,
            "GPU memory budget too small for even one sample per chunk"
        );
        let samples = logical_len / scale;
        let max_samples = max_chunk_keys / scale;
        let mut groups = samples.div_ceil(max_samples * g as u64).max(1);
        // Nearly-equal split can push the larger pieces one sample over
        // the budget; bump the group count when that happens.
        loop {
            let total = groups * g as u64;
            let base = samples / total;
            let rem = samples % total;
            if base + u64::from(rem > 0) <= max_samples {
                let mut pieces = Vec::with_capacity(total as usize);
                let mut off = 0u64;
                for i in 0..total {
                    let len = (base + u64::from(i < rem)) * scale;
                    pieces.push((off, len));
                    off += len;
                }
                debug_assert_eq!(off, logical_len);
                return Self { pieces, groups, g };
            }
            groups += 1;
        }
    }

    /// Chunk `(offset, len)` for `(group, gpu)`.
    #[must_use]
    pub fn piece(&self, group: u64, gpu: usize) -> (u64, u64) {
        self.pieces[(group * self.g as u64) as usize + gpu]
    }

    /// The largest chunk length in the plan.
    #[must_use]
    pub fn max_len(&self) -> u64 {
        self.pieces.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with HET sort.
/// Returns the report; the sorted output replaces `data`.
///
/// # Panics
/// Panics if `logical_len` is not a multiple of the sampling factor or if
/// even a single-sample chunk exceeds the GPU memory budget.
pub fn het_sort<K: SortKey>(
    platform: &Platform,
    config: &HetConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    // The shared RunConfig path builds the system (fidelity + faults +
    // recorder) and drives the HetDriver to completion.
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::het(config.clone()),
        data,
        logical_len,
    )
}

/// Device keys per GPU for a `chunk`-key share of an in-core sort: the
/// default 2n pipeline double-buffers the chunk.
pub(crate) fn footprint_keys(chunk: u64) -> u64 {
    LargeDataApproach::TwoN.buffers() * chunk
}

/// HET sort as a resumable [`SortDriver`](crate::SortDriver): the chunk
/// groups stream through the GPUs as one pipelined phase (scatter, sort,
/// and the DtoH of every sorted chunk, plus any eager merges), then a
/// single CPU multiway merge produces the output. One chunk group is the
/// in-core case; a single chunk needs no merge at all.
pub struct HetDriver<K: SortKey> {
    st: Staging<K>,
    approach: LargeDataApproach,
    plan: ChunkPlan,
    /// Sorted sublists land here; the final merge writes `host_out`.
    host_runs: BufId,
    /// Staging area for eager-merge outputs (the final merge writes
    /// `host_out` while reading them).
    eager_buf: Option<BufId>,
    /// Per GPU: the pipeline's 2 or 3 device buffers.
    bufs: Vec<Vec<BufId>>,
    merged: bool,
}

impl<K: SortKey> HetDriver<K> {
    /// Prepare a HET sort of `data` on `sys`.
    ///
    /// # Panics
    /// Panics if `logical_len` is not a multiple of the sampling factor,
    /// if even a single-sample chunk exceeds the GPU memory budget, or if
    /// `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &HetConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        let g = config.gpus;
        let order = resolve_gang(sys.platform(), g, &config.gpu_set, false);
        let gpu_mem = order
            .iter()
            .map(|&i| sys.platform().topology.gpu_memory_bytes(i))
            .min()
            .expect("at least one GPU");
        let budget = config.gpu_mem_budget.unwrap_or(gpu_mem).min(gpu_mem);
        let nbuf = config.approach.buffers();
        let max_chunk_keys = budget / nbuf / K::DATA_TYPE.key_bytes();
        let plan = ChunkPlan::compute(logical_len, g, max_chunk_keys, config.fidelity.scale());
        let eager = config.eager_merge && plan.groups > 1;

        let label = if plan.groups > 1 {
            let em = if eager { " + EM" } else { "" };
            format!("HET sort ({}{em})", config.approach.label())
        } else {
            Family::Het.name().into()
        };
        let shape = Shape {
            label,
            lanes: g,
            order,
            even: false,
            algo: config.algo,
            fidelity: config.fidelity,
            home_socket: config.home_socket,
        };
        let mut st = Staging::new(sys, shape, data, logical_len);
        let home = config.home_socket;
        let host_runs = st.alloc_host(sys, home, logical_len);
        let bufs = (0..g)
            .map(|i| {
                (0..nbuf)
                    .map(|_| st.alloc_gpu(sys, st.order[i], plan.max_len()))
                    .collect()
            })
            .collect();
        let eager_buf = eager.then(|| st.alloc_host(sys, home, logical_len));
        Self {
            st,
            approach: config.approach,
            plan,
            host_runs,
            eager_buf,
            bufs,
            merged: false,
        }
    }

    /// The final merge's inputs: every sorted chunk, or — with eager
    /// merging — the `groups − 1` eager outputs plus the last group's
    /// chunks.
    fn merge_inputs(&self) -> Vec<(BufId, u64, u64)> {
        let plan = &self.plan;
        let chunk_of = |&(off, len): &(u64, u64)| (self.host_runs, off, len);
        let Some(eager_buf) = self.eager_buf else {
            return plan.pieces.iter().map(chunk_of).collect();
        };
        let last = (plan.groups as usize - 1) * plan.g;
        let eager_outputs = plan.pieces[..last].chunks(plan.g).map(|group| {
            let (start, end) = (group[0].0, group[plan.g - 1]);
            (eager_buf, start, end.0 + end.1 - start)
        });
        eager_outputs
            .chain(plan.pieces[last..].iter().map(chunk_of))
            .collect()
    }
}

impl<K: SortKey> Middle<K> for HetDriver<K> {
    /// The GPU pipeline over every chunk group; a single group degenerates
    /// to the in-core case (scatter, sort, gather) automatically.
    fn start(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let g = self.plan.g;
        let nbuf = self.bufs[0].len();
        let two_n = self.approach == LargeDataApproach::TwoN;
        // A single chunk over a single GPU needs no CPU merge at all: the
        // sorted chunk copies straight into the output (the paper's plain
        // single-GPU baseline of Figures 12–14).
        let runs_target = if self.plan.pieces.len() == 1 {
            self.st.host_out
        } else {
            self.host_runs
        };
        let mut last_sort: Vec<Option<OpId>> = vec![None; g];
        let mut last_dtoh: Vec<Option<OpId>> = vec![None; g];
        let mut wait = Vec::with_capacity(self.plan.pieces.len());
        for group in 0..self.plan.groups {
            let j = group as usize;
            let first_down = wait.len();
            for i in 0..g {
                let (off, len) = self.plan.piece(group, i);
                // The buffers cycle roles: this group's data buffer was the
                // previous group's sort scratch (2n) or is still draining
                // its DtoH (3n).
                let piece = Piece {
                    slot: i,
                    off,
                    len,
                    dst: self.bufs[i][j % nbuf],
                    aux: Some(self.bufs[i][(j + nbuf - 1) % nbuf]),
                };
                // 2n: the target buffer was the previous sort's aux, so
                // the copy waits for that sort (the paper's explicit
                // synchronization step), and the sort waits for the
                // previous DtoH, which is leaving from its aux buffer.
                // 3n: the in-place data-transfer swap lets the copy
                // overlap the DtoH still draining the same buffer.
                let (copy_waits, sort_waits) = if two_n {
                    (last_sort[i], last_dtoh[i])
                } else {
                    (None, None)
                };
                let so = self
                    .st
                    .scatter(sys, &piece, copy_waits.as_slice(), sort_waits.as_slice());
                last_sort[i] = Some(so);
                // DtoH of the sorted chunk into its slot of the runs buffer.
                let sorted = Source {
                    slot: i,
                    buf: piece.dst,
                    len,
                };
                let down = self.st.gather(sys, sorted, (runs_target, off), &[so]);
                last_dtoh[i] = Some(down);
                wait.push(down);
            }
            // Eager merge of this group (skipped for the last group — no
            // GPU work would remain to overlap with, Section 5.3).
            if let Some(eager_buf) = self.eager_buf.filter(|_| group + 1 < self.plan.groups) {
                let inputs = self.plan.pieces[j * g..(j + 1) * g]
                    .iter()
                    .map(|&(off, len)| (self.host_runs, off, len))
                    .collect();
                let out_off = self.plan.piece(group, 0).0;
                let group_dtoh = wait[first_down..].to_vec();
                wait.push(sys.cpu_multiway_merge(
                    self.st.host_stream,
                    inputs,
                    eager_buf,
                    out_off,
                    &group_dtoh,
                ));
            }
        }
        wait
    }

    /// The final CPU multiway merge (skipped entirely when the single
    /// sorted chunk already landed in the output).
    fn middle(&mut self, sys: &mut GpuSystem<'_, K>) -> Option<Vec<OpId>> {
        if self.plan.pieces.len() == 1 || std::mem::replace(&mut self.merged, true) {
            return None;
        }
        let (stream, out) = (self.st.host_stream, self.st.host_out);
        Some(vec![sys.cpu_multiway_merge(
            stream,
            self.merge_inputs(),
            out,
            0,
            &[],
        )])
    }

    fn sources(&self) -> Vec<Source> {
        Vec::new()
    }

    /// The GPU window splits by busy time (its copies and sorts overlap
    /// across GPUs and groups); the final merge window follows it. Eager
    /// merges (if any) overlapped the GPU window and are folded into it.
    fn phases(&self, sys: &GpuSystem<'_, K>) -> PhaseBreakdown {
        let st = &self.st;
        let busy = [&st.htod_ops, &st.sort_ops, &st.dtoh_ops].map(|ops| sys.ops_busy(ops));
        let [htod, sort, dtoh] = split_by_busy(st.t_staged.since(st.t0), busy);
        PhaseBreakdown {
            htod,
            sort,
            merge: st.t_end.since(st.t_staged),
            dtoh,
        }
    }
}

staged_driver!(HetDriver);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SortDriver;
    use msort_data::{generate, same_multiset, Distribution};
    use msort_sim::SimDuration;
    use msort_topology::PlatformId;

    fn run_cfg(
        platform: &Platform,
        cfg: &HetConfig,
        dist: Distribution,
        n: u64,
        seed: u64,
    ) -> (SortReport, Vec<u32>, Vec<u32>) {
        let input: Vec<u32> = generate(dist, n as usize, seed);
        let mut data = input.clone();
        let report = het_sort(platform, cfg, &mut data, n);
        (report, input, data)
    }

    #[test]
    fn in_core_sorts_all_platforms() {
        for id in PlatformId::paper_set() {
            let p = Platform::paper(id);
            let (report, input, output) =
                run_cfg(&p, &HetConfig::new(4), Distribution::Uniform, 1 << 14, 11);
            assert!(report.validated, "{id:?}");
            assert!(same_multiset(&input, &output), "{id:?}");
            assert!(report.phases.merge > SimDuration::ZERO);
            assert_eq!(report.algorithm, "HET sort");
        }
    }

    #[test]
    fn in_core_all_distributions() {
        let p = Platform::ibm_ac922();
        for dist in Distribution::paper_set() {
            let (report, input, output) = run_cfg(&p, &HetConfig::new(2), dist, 1 << 13, 5);
            assert!(report.validated, "{dist:?}");
            assert!(same_multiset(&input, &output), "{dist:?}");
        }
    }

    #[test]
    fn chunk_plan_respects_budget_and_covers_input() {
        let plan = ChunkPlan::compute(1000, 2, 130, 1);
        assert!(plan.groups >= 4);
        let total: u64 = plan.pieces.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 1000);
        assert!(plan.pieces.iter().all(|&(_, l)| l <= 130 && l > 0));
        // Pieces are contiguous.
        let mut expect = 0;
        for &(off, len) in &plan.pieces {
            assert_eq!(off, expect);
            expect += len;
        }
    }

    #[test]
    fn chunk_plan_scale_alignment() {
        let plan = ChunkPlan::compute(64 * 10, 2, 64 * 3, 64);
        for &(off, len) in &plan.pieces {
            assert_eq!(off % 64, 0);
            assert_eq!(len % 64, 0);
        }
    }

    #[test]
    fn out_of_core_pipelines_sort_correctly() {
        let p = Platform::test_pcie(2);
        for approach in [LargeDataApproach::TwoN, LargeDataApproach::ThreeN] {
            // Budget of 96 KiB per GPU forces several chunk groups for a
            // 64K-key input (2 or 3 buffers of 96/2 or 96/3 KiB).
            let cfg = HetConfig::new(2)
                .with_approach(approach)
                .with_mem_budget(96 * 1024);
            let n = 1u64 << 16;
            let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 3);
            let mut data = input.clone();
            let report = het_sort(&p, &cfg, &mut data, n);
            assert!(report.validated, "{approach:?}");
            assert!(same_multiset(&input, &data), "{approach:?}");
            assert!(report.algorithm.contains(approach.label()));
        }
    }

    #[test]
    fn eager_merge_is_slower_but_correct() {
        // Section 6.2: eager merging decreases performance.
        let p = Platform::dgx_a100();
        let base = HetConfig::new(4).with_mem_budget(1 << 20);
        let n = 1u64 << 20; // forces ~4+ chunk groups at a 1 MiB budget
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 9);

        let mut a = input.clone();
        let plain = het_sort(&p, &base, &mut a, n);
        let mut b = input.clone();
        let eager = het_sort(&p, &base.clone().with_eager_merge(), &mut b, n);
        assert!(plain.validated && eager.validated);
        assert_eq!(a, b);
        assert!(
            eager.total >= plain.total,
            "eager merging should not win: {} vs {}",
            eager.total,
            plain.total
        );
    }

    #[test]
    fn two_n_and_three_n_equal_in_core() {
        // With a single chunk group the approaches are identical (§6.1).
        let p = Platform::ibm_ac922();
        let n = 1u64 << 14;
        let (r2, _, out2) = run_cfg(
            &p,
            &HetConfig::new(2).with_approach(LargeDataApproach::TwoN),
            Distribution::Uniform,
            n,
            4,
        );
        let (r3, _, out3) = run_cfg(
            &p,
            &HetConfig::new(2).with_approach(LargeDataApproach::ThreeN),
            Distribution::Uniform,
            n,
            4,
        );
        assert_eq!(out2, out3);
        assert_eq!(r2.total, r3.total);
    }

    #[test]
    fn sampled_out_of_core_run() {
        let p = Platform::dgx_a100();
        let scale = 1u64 << 10;
        let n = (1u64 << 16) * scale;
        let cfg = HetConfig::new(2).sampled(scale).with_mem_budget(64 << 20);
        let phys = (n / scale) as usize;
        let input: Vec<u32> = generate(Distribution::Uniform, phys, 8);
        let mut data = input.clone();
        let report = het_sort(&p, &cfg, &mut data, n);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert_eq!(report.keys, n);
    }

    #[test]
    fn driver_runs_out_of_core() {
        // The resumable driver streams several chunk groups through a tight
        // memory budget, labels the run by its pipeline, and gives back
        // all device memory.
        let p = Platform::test_pcie(2);
        let n = 1u64 << 16;
        let cfg = HetConfig::new(2).with_mem_budget(96 * 1024);
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 3);
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
        let free_before: Vec<u64> = (0..2).map(|g| sys.world().gpu_free_bytes(g)).collect();
        let mut d = HetDriver::new(&mut sys, &cfg, input.clone(), n);
        crate::exec::drive(&mut sys, &mut d);
        let report = d.report(&sys);
        assert!(d.validated());
        assert_eq!(report.algorithm, "HET sort (2n)");
        assert!(same_multiset(&input, &d.take_output()));
        d.release(&mut sys);
        let free_after: Vec<u64> = (0..2).map(|g| sys.world().gpu_free_bytes(g)).collect();
        assert_eq!(free_before, free_after);
    }

    #[test]
    fn wide_keys_sort() {
        let p = Platform::dgx_a100();
        let input: Vec<f64> = generate(Distribution::Normal, 1 << 13, 6);
        let mut data = input.clone();
        let report = het_sort(&p, &HetConfig::new(2), &mut data, 1 << 13);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
    }
}
