//! Wall-clock effect-executor benchmarks: serial vs pooled execution.
//!
//! PR 5 moved every data effect (staged copies, device sorts/merges, host
//! multiway merges) off the driver thread onto a conflict-aware executor
//! backed by the shared worker pool. These benches measure exactly that
//! delta: the same full-fidelity simulated sort with the executor pinned
//! to one thread (`serial`, the seed behavior) and with the pool width
//! (`pool`). Simulated clocks and outputs are bit-identical between the
//! two — only the wall-clock differs, so the speedup scales with the
//! runner's core count (a 1-core container reports ~1.0x by design).
//!
//! `tiny_effects` is the other end: thousands of served jobs whose every
//! effect touches 64 keys, far below what a hand-off to a pool worker
//! costs. The executor runs those inline, so `pool` must cost what
//! `serial` costs — asserted here whenever the pool has a worker.
//!
//! `MSORT_BENCH_QUICK=1` shrinks the inputs for CI smoke runs.

use msort_bench::Harness;
use msort_core::{run_sort, HetConfig, P2pConfig, RunConfig};
use msort_data::{generate, Distribution};
use msort_serve::{
    JobAlgo, JobMix, OpenLoop, QueuePolicy, ServeConfig, SortJob, SortService, TenantId,
};
use msort_topology::Platform;
use std::hint::black_box;

fn quick() -> bool {
    std::env::var_os("MSORT_BENCH_QUICK").is_some()
}

/// The headline case: full-fidelity 8-GPU P2P sort on the DGX A100.
/// Every key really moves and really gets sorted, so the wall clock is
/// dominated by data effects — the executor's target.
fn bench_p2p_dgx(h: &mut Harness) {
    let n: u64 = if quick() { 1 << 21 } else { 1 << 26 };
    let platform = Platform::dgx_a100();
    let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 11);
    let label = if quick() { "p2p_dgx_2m" } else { "p2p_dgx_64m" };
    for (mode, threads) in [("serial", Some(1)), ("pool", None)] {
        let mut cfg = RunConfig::p2p(P2pConfig::new(8));
        if let Some(t) = threads {
            cfg = cfg.with_effect_threads(t);
        }
        h.bench_throughput(&format!("{label}/{mode}"), n, || {
            let mut d = input.clone();
            black_box(run_sort(&platform, &cfg, &mut d, n).total)
        });
    }
}

/// HET sort leans on the host multiway merge — the zero-copy borrowed-run
/// path — so this case isolates the merge-side win.
fn bench_het_multiway(h: &mut Harness) {
    let n: u64 = if quick() { 1 << 21 } else { 1 << 25 };
    let platform = Platform::dgx_a100();
    let input: Vec<u32> = generate(
        Distribution::ZipfDuplicates { skew_permille: 80 },
        n as usize,
        12,
    );
    let label = if quick() {
        "het_multiway_2m"
    } else {
        "het_multiway_32m"
    };
    for (mode, threads) in [("serial", Some(1)), ("pool", None)] {
        let mut cfg = RunConfig::het(HetConfig::new(4));
        if let Some(t) = threads {
            cfg = cfg.with_effect_threads(t);
        }
        h.bench_throughput(&format!("{label}/{mode}"), n, || {
            let mut d = input.clone();
            black_box(run_sort(&platform, &cfg, &mut d, n).total)
        });
    }
}

/// Many tiny effects: 4 096 one- and two-GPU jobs through `serve` on the
/// DGX at `sampled(64)` (the `serve_scale` mix), so every copy and device
/// sort moves 64–128 keys and the per-effect fixed cost is the whole bill.
fn bench_tiny_effects(h: &mut Harness) {
    let jobs: u64 = 4096;
    let platform = Platform::dgx_a100();
    let mix = JobMix::of(
        SortJob::new(TenantId(0), 1 << 12)
            .with_gpus(1)
            .interactive(),
    )
    .and(
        SortJob::new(TenantId(1), 1 << 12)
            .with_gpus(1)
            .with_algo(JobAlgo::SampleSort),
        0.7,
    )
    .and(SortJob::new(TenantId(2), 1 << 13).with_gpus(2), 0.2);
    for (mode, threads) in [("serial", Some(1)), ("pool", None)] {
        let mut run = RunConfig::new();
        if let Some(t) = threads {
            run = run.with_effect_threads(t);
        }
        let cfg = ServeConfig::new()
            .with_run(run)
            .sampled(64)
            .with_policy(QueuePolicy::Sjf)
            .with_max_queue_depth(usize::MAX);
        h.bench_throughput(&format!("tiny_effects/{mode}"), jobs, || {
            let workload = OpenLoop::poisson(1e6, mix.clone(), jobs, 13);
            let report = SortService::<u32>::new(&platform, cfg.clone()).serve(workload);
            assert!(report.all_validated());
            black_box(report.makespan)
        });
    }
    let results = h.results();
    if results.len() < 2 || msort_cpu::pool::threads() == 1 {
        return; // filtered out, or no pool worker to hand anything to
    }
    // Least-noisy sample of each: the claim is about fixed cost, not jitter.
    let (serial, pool) = (
        results[results.len() - 2].min().as_nanos(),
        results[results.len() - 1].min().as_nanos(),
    );
    println!(
        "tiny_effects: pool / serial = {:.2}",
        pool as f64 / serial as f64
    );
    assert!(
        pool * 4 <= serial * 5,
        "tiny effects must not pay for the pool: pool {pool} ns > 1.25 x serial {serial} ns"
    );
}

fn main() {
    let samples = if quick() { 3 } else { 5 };
    let mut h = Harness::new("exec").sample_size(samples);
    bench_p2p_dgx(&mut h);
    bench_het_multiway(&mut h);
    bench_tiny_effects(&mut h);
    h.finish();
}
