//! Determinism guarantees of the wall-clock effect executor.
//!
//! PR 5 runs data effects (staged copies, device sorts/merges, host
//! multiway merges) concurrently on a shared worker pool instead of
//! inline on the driver thread. The contract is that this is *purely* a
//! wall-clock optimization: sorted outputs, `SortReport`s (including
//! every simulated clock in them), and serve-level `ServiceReport`s are
//! bit-identical whether the executor runs with one thread (the seed's
//! serial behavior) or many.
//!
//! Two mechanisms make that hold, and these tests pin both:
//!
//! * kernels always chunk by the process-wide `msort_cpu::pool::threads()`
//!   (never by the effect budget), so a buffer's bytes never depend on the
//!   effect-level schedule;
//! * conflicting effect jobs are serialized in submission order, which is
//!   the deterministic simulated completion order.
//!
//! `SortReport`/`ServiceReport` intentionally do not implement
//! `PartialEq`; comparing their `Debug` renderings compares every field,
//! including all simulated timings.

use multi_gpu_sort::prelude::*;

const DISTS: [Distribution; 3] = [
    Distribution::Uniform,
    Distribution::ReverseSorted,
    Distribution::ZipfDuplicates { skew_permille: 800 },
];

fn config_for(algo: &str, g: usize) -> RunConfig {
    match algo {
        "p2p" => RunConfig::p2p(P2pConfig::new(g)),
        "rp" => RunConfig::rp(RpConfig::new(g)),
        "het" => RunConfig::het(HetConfig::new(g)),
        "sample" => RunConfig::sample(SampleSortConfig::new(g)),
        "mwms" => RunConfig::mwms(MwmsConfig::new(g)),
        _ => unreachable!(),
    }
}

/// Run one sort with the given effect budget; return the output bytes and
/// the full report rendering.
fn run_once(
    platform: &Platform,
    algo: &str,
    dist: Distribution,
    n: u64,
    effect_threads: usize,
) -> (Vec<u32>, String) {
    let mut data: Vec<u32> = generate(dist, n as usize, 7);
    let cfg = config_for(algo, 4).with_effect_threads(effect_threads);
    let report = run_sort(platform, &cfg, &mut data, n);
    assert!(report.validated, "{algo} on {dist:?} must validate");
    (data, format!("{report:?}"))
}

/// The full matrix: every paper platform x every algorithm x three
/// distributions, serial executor vs four effect threads. Outputs and
/// reports must match byte for byte.
#[test]
fn outputs_and_reports_bit_identical_across_effect_threads() {
    for id in PlatformId::paper_set() {
        let platform = Platform::paper(id);
        // DGX gets the large case (per-GPU chunks cross the parallel-kernel
        // threshold when the pool is wide); the other platforms cover the
        // matrix at a size that keeps the debug-mode suite fast.
        let n: u64 = if id == PlatformId::DgxA100 {
            1 << 18
        } else {
            1 << 16
        };
        for algo in ["p2p", "rp", "het", "sample", "mwms"] {
            for dist in DISTS {
                let (out_serial, rep_serial) = run_once(&platform, algo, dist, n, 1);
                let (out_pool, rep_pool) = run_once(&platform, algo, dist, n, 4);
                assert_eq!(
                    out_serial, out_pool,
                    "{id:?}/{algo}/{dist:?}: output differs between effect_threads 1 and 4"
                );
                assert_eq!(
                    rep_serial, rep_pool,
                    "{id:?}/{algo}/{dist:?}: SortReport differs between effect_threads 1 and 4"
                );
            }
        }
    }
}

/// Sizes chosen so the per-GPU device sorts land just below and just above
/// the parallel-kernel dispatch floor (`PARALLEL_MIN_KEYS`, re-tuned with
/// the OneSweep kernels): with 4 GPUs, `2 * floor` total keys puts every
/// chunk at half the floor (sequential OneSweep) and `8 * floor` puts every
/// chunk at twice the floor (chained-lookback OneSweep, multi-tile). Both
/// sides must stay bit-identical across effect budgets — the dispatch
/// depends only on chunk size, never on who executes the effect.
#[test]
fn dispatch_floor_straddle_bit_identical() {
    let platform = Platform::dgx_a100();
    let floor = msort_gpu::primitives::PARALLEL_MIN_KEYS as u64;
    for n in [2 * floor, 8 * floor] {
        for algo in ["p2p", "het"] {
            for dist in [Distribution::Uniform, DISTS[2]] {
                let (out_serial, rep_serial) = run_once(&platform, algo, dist, n, 1);
                let (out_pool, rep_pool) = run_once(&platform, algo, dist, n, 4);
                assert_eq!(
                    out_serial, out_pool,
                    "{algo}/{dist:?} n={n}: output differs across effect budgets"
                );
                assert_eq!(
                    rep_serial, rep_pool,
                    "{algo}/{dist:?} n={n}: SortReport differs across effect budgets"
                );
            }
        }
    }
}

/// The executor runs an effect inline when its access set covers at most
/// `msort_gpu`'s private `exec::INLINE_MAX_ELEMS` (8 Ki) elements and on the
/// pool above. With 4 GPUs, per-GPU chunks of floor − 1, floor and floor + 1
/// keys straddle it for the copies (a copy covers its chunk), and chunks
/// around half the floor straddle it for the device sorts (a sort covers its
/// chunk plus as much scratch). Who executes an effect must not show.
#[test]
fn inline_floor_straddle_bit_identical() {
    let platform = Platform::dgx_a100();
    let floor: u64 = 1 << 13;
    for chunk in [floor / 2, floor / 2 + 1, floor - 1, floor, floor + 1] {
        let n = 4 * chunk;
        for algo in ["p2p", "het", "sample"] {
            let (out_serial, rep_serial) = run_once(&platform, algo, DISTS[2], n, 1);
            let (out_pool, rep_pool) = run_once(&platform, algo, DISTS[2], n, 4);
            assert_eq!(
                out_serial, out_pool,
                "{algo} n={n}: output differs across effect budgets"
            );
            assert_eq!(
                rep_serial, rep_pool,
                "{algo} n={n}: SortReport differs across effect budgets"
            );
        }
    }
}

/// Sampled fidelity takes different code paths (scaled physical payloads);
/// the invariant must hold there too.
#[test]
fn sampled_fidelity_reports_bit_identical() {
    let platform = Platform::dgx_a100();
    let n: u64 = 1 << 22;
    let scale: u64 = 1 << 8;
    for algo in ["p2p", "het"] {
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let mut data: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 9);
            let cfg = config_for(algo, 4)
                .sampled(scale)
                .with_effect_threads(threads);
            let report = run_sort(&platform, &cfg, &mut data, n);
            runs.push((data, format!("{report:?}")));
        }
        assert_eq!(runs[0], runs[1], "{algo}: sampled run differs");
    }
}

/// The serve layer drives many concurrent jobs through one `GpuSystem`;
/// its `ServiceReport` (per-job spans, per-tenant stats, all simulated
/// times) must not notice the effect budget either.
#[test]
fn service_report_bit_identical_across_effect_threads() {
    let platform = Platform::dgx_a100();
    let arrivals = |seed: u64| -> Vec<(SimTime, SortJob)> {
        (0..6u64)
            .map(|i| {
                let job = SortJob::new(TenantId((i % 3) as u32), 1 << 14)
                    .with_gpus(2)
                    .with_seed(seed + i)
                    .with_dist(DISTS[(i % 3) as usize]);
                (SimTime::ZERO + SimDuration::from_micros(i * 50), job)
            })
            .collect()
    };
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let cfg = ServeConfig::new().with_run(RunConfig::new().with_effect_threads(threads));
        let report = SortService::<u32>::new(&platform, cfg).serve(TraceWorkload::new(arrivals(3)));
        reports.push(format!("{report:?}"));
    }
    assert_eq!(
        reports[0], reports[1],
        "ServiceReport differs between effect_threads 1 and 4"
    );
}

/// Faults compose with the effect pool: a DELTA NVLink killed in the
/// middle of sample sort's splitter/bucket-exchange window must leave
/// output bytes AND the full report (reroute counts, every simulated
/// clock) bit-identical between the serial executor and a 4-thread pool.
/// The exchange copies re-route while partition effects are still in
/// flight on worker threads — exactly the interleaving the determinism
/// contract has to be immune to.
#[test]
fn sample_sort_fault_mid_exchange_bit_identical_across_effect_threads() {
    let platform = Platform::delta_d22x();
    let n: u64 = 1 << 16;
    // Fault-free dry run times the exchange window.
    let mut dry: Vec<u32> = generate(Distribution::Uniform, n as usize, 21);
    let clean = run_sort(
        &platform,
        &RunConfig::sample(SampleSortConfig::new(4)),
        &mut dry,
        n,
    );
    assert!(clean.validated);
    let at = SimTime(clean.phases.htod.0 + clean.phases.merge.0 / 2);
    let topo = &platform.topology;
    let link = topo
        .link_between(topo.gpu(0), topo.gpu(1))
        .expect("DELTA has a 0--1 NVLink");
    let plan = FaultPlan::new().link_down(at, link);

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, 21);
        let cfg = RunConfig::sample(SampleSortConfig::new(4))
            .with_faults(plan.clone())
            .with_effect_threads(threads);
        let report = run_sort(&platform, &cfg, &mut data, n);
        assert!(report.validated, "threads={threads}");
        assert!(
            report.rerouted_transfers >= 1,
            "threads={threads}: the dead link must force reroutes"
        );
        runs.push((data, format!("{report:?}")));
    }
    assert_eq!(
        runs[0], runs[1],
        "faulted sample sort differs between effect_threads 1 and 4"
    );
}

/// The cross-node sort composes inner drivers in lockstep over one shared
/// system — the widest effect-conflict surface in the workspace (two
/// nodes' partitions, exchanges, and inner sorts all in flight). Output
/// bytes and the full report must still be independent of the effect
/// budget.
#[test]
fn cross_node_bit_identical_across_effect_threads() {
    let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
    let n: u64 = 1 << 15;
    for inner in [InnerAlgo::SampleSort, InnerAlgo::P2p] {
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, 23);
            let cfg =
                RunConfig::cross_node(CrossNodeConfig::new(inner)).with_effect_threads(threads);
            let report = run_sort(&cluster, &cfg, &mut data, n);
            assert!(report.validated, "{inner:?} threads={threads}");
            assert!(
                report.inter_node > SimDuration::ZERO,
                "{inner:?} threads={threads}: must cross the fabric"
            );
            runs.push((data, format!("{report:?}")));
        }
        assert_eq!(
            runs[0], runs[1],
            "{inner:?}: cross-node run differs between effect_threads 1 and 4"
        );
    }
}
