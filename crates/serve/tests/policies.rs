//! Policy-level behavior of the sort service: queue policies, placement
//! policies, and per-tenant fairness, all on seeded deterministic
//! workloads.

use msort_data::DataType;
use msort_serve::{
    estimate_job_cost, JobAlgo, PlacementPolicy, QueuePolicy, ServeConfig, SortJob, SortService,
    TenantId, TraceWorkload,
};
use msort_sim::SimTime;
use msort_topology::Platform;

fn run(
    platform: &Platform,
    config: ServeConfig,
    arrivals: Vec<(SimTime, SortJob)>,
) -> msort_serve::ServiceReport {
    SortService::<u32>::new(platform, config).serve(TraceWorkload::new(arrivals))
}

/// One large job then a burst of small ones, all queued behind a 2-GPU
/// fleet. FIFO serves the elephant first and every mouse eats its
/// latency; SJF reorders and the median collapses.
#[test]
fn sjf_beats_fifo_on_a_bimodal_mix() {
    let p = Platform::ibm_ac922();
    // Everything arrives in one burst (all due before the first dispatch
    // decision), elephant first, so the queue policy alone decides order.
    let mut arrivals = vec![(
        SimTime::ZERO,
        SortJob::new(TenantId(0), 1 << 20).with_seed(11),
    )];
    for i in 0..6 {
        arrivals.push((
            SimTime::ZERO,
            SortJob::new(TenantId(1), 1 << 12).with_seed(100 + i),
        ));
    }
    let config = |policy| {
        ServeConfig::new()
            .with_policy(policy)
            .with_fleet(vec![0, 1])
    };
    let fifo = run(&p, config(QueuePolicy::Fifo), arrivals.clone());
    let sjf = run(&p, config(QueuePolicy::Sjf), arrivals);
    assert_eq!(fifo.outcomes.len(), 7);
    assert_eq!(sjf.outcomes.len(), 7);
    assert!(fifo.all_validated() && sjf.all_validated());
    assert!(
        sjf.p50_latency() < fifo.p50_latency(),
        "SJF p50 {} must beat FIFO p50 {}",
        sjf.p50_latency(),
        fifo.p50_latency()
    );
    assert!(
        sjf.mean_latency() < fifo.mean_latency(),
        "SJF mean {} must beat FIFO mean {}",
        sjf.mean_latency(),
        fifo.mean_latency()
    );
    // Both policies sort the same total work; reordering does not change
    // the total completed keys.
    assert_eq!(fifo.total_keys(), sjf.total_keys());
}

/// Topology-aware placement lands gangs on the interconnect-preferred
/// pairs of each paper platform: the same-socket NVLink pair on the
/// AC922, the full-width NVLink pair on the DELTA, and the PCIe
/// switch-disjoint pair on the DGX.
#[test]
fn topology_aware_placement_picks_preferred_pairs() {
    let cases = [
        (Platform::ibm_ac922(), vec![0, 1]),
        (Platform::delta_d22x(), vec![0, 1]),
        (Platform::dgx_a100(), vec![0, 2]),
    ];
    for (p, expected) in cases {
        let report = run(
            &p,
            ServeConfig::new().with_placement(PlacementPolicy::TopologyAware),
            vec![(SimTime::ZERO, SortJob::new(TenantId(0), 1 << 12))],
        );
        assert_eq!(
            report.outcomes[0].gpus, expected,
            "wrong gang on {}",
            report.platform
        );
    }
}

/// On a 3-GPU DGX fleet the jobs serialize (each needs a 2-GPU gang), so
/// per-job gang quality shows up directly in the makespan: topology-aware
/// placement always takes the switch-disjoint pair {0,2}, while round
/// robin's rotating cursor keeps landing on switch-sharing pairs whose
/// scatter/gather halves its PCIe uplink bandwidth.
#[test]
fn topology_aware_beats_round_robin_on_dgx() {
    let p = Platform::dgx_a100();
    // (jobs, keys per job, tenants, first seed, everything but placement)
    let cases = [
        (6u64, 1u64 << 16, 3, 7, ServeConfig::new()),
        (
            12,
            1 << 18,
            4,
            11,
            ServeConfig::new()
                .sampled(64)
                .with_policy(QueuePolicy::WeightedFair),
        ),
    ];
    for (jobs, keys, tenants, seed, base) in cases {
        let arrivals: Vec<(SimTime, SortJob)> = (0..jobs)
            .map(|i| {
                let tenant = TenantId((i % tenants) as u32);
                (
                    SimTime::ZERO,
                    SortJob::new(tenant, keys).with_seed(seed + i),
                )
            })
            .collect();
        let config = |placement| {
            base.clone()
                .with_placement(placement)
                .with_fleet(vec![0, 1, 2])
        };
        let rr = run(&p, config(PlacementPolicy::RoundRobin), arrivals.clone());
        let topo = run(&p, config(PlacementPolicy::TopologyAware), arrivals);
        assert_eq!(rr.outcomes.len() as u64, jobs);
        assert_eq!(topo.outcomes.len() as u64, jobs);
        assert!(rr.all_validated() && topo.all_validated());
        assert!(
            topo.outcomes.iter().all(|o| o.gpus == vec![0, 2]),
            "topology-aware must keep choosing the switch-disjoint pair"
        );
        assert!(
            topo.makespan < rr.makespan,
            "{jobs} jobs: topology-aware makespan {} must beat round-robin {}",
            topo.makespan,
            rr.makespan
        );
        assert!(topo.throughput_mkeys() > rr.throughput_mkeys());
    }
}

/// Four equally weighted tenants saturate a 2-GPU fleet with equal jobs:
/// weighted fair share must serve them near-equally, while the same
/// workload under FIFO is also fair here (arrival interleaving) — the
/// interesting contrast is a skewed arrival mix, where one tenant floods
/// the queue.
#[test]
fn weighted_fair_share_protects_light_tenants_from_a_flood() {
    let p = Platform::ibm_ac922();
    // Tenant 0 floods 12 jobs at t=0; tenants 1-3 submit 4 each slightly
    // later. Under FIFO the flood monopolizes the fleet; fair share
    // round-robins across tenants.
    let mut arrivals = Vec::new();
    for i in 0..12 {
        arrivals.push((
            SimTime::ZERO,
            SortJob::new(TenantId(0), 1 << 14).with_seed(i),
        ));
    }
    for t in 1..4u32 {
        for i in 0..4 {
            arrivals.push((
                SimTime(1),
                SortJob::new(TenantId(t), 1 << 14).with_seed(u64::from(t) * 50 + i),
            ));
        }
    }
    let config = |policy| {
        ServeConfig::new()
            .with_policy(policy)
            .with_fleet(vec![0, 1])
    };
    let fair = run(&p, config(QueuePolicy::WeightedFair), arrivals.clone());
    let fifo = run(&p, config(QueuePolicy::Fifo), arrivals);
    assert_eq!(fair.outcomes.len(), 24);
    assert!(fair.all_validated());
    // The light tenants' jobs finish far earlier under fair share than
    // under FIFO (which drains the flood first).
    let mean_light = |r: &msort_serve::ServiceReport| {
        let stats = r.tenant_stats();
        let light: Vec<_> = stats.iter().filter(|s| s.tenant != TenantId(0)).collect();
        light.iter().map(|s| s.mean_latency.0).sum::<u64>() / light.len() as u64
    };
    assert!(
        mean_light(&fair) < mean_light(&fifo),
        "fair share must protect light tenants: {} vs {}",
        mean_light(&fair),
        mean_light(&fifo)
    );
}

/// Doubling a tenant's weight roughly doubles its share of early service:
/// with two tenants backlogged at 2:1 weights, the heavy tenant's
/// completed keys stay ahead of the light tenant's throughout the run.
#[test]
fn weights_bias_the_fair_share() {
    let p = Platform::dgx_a100();
    let mut arrivals = Vec::new();
    for i in 0..8 {
        arrivals.push((
            SimTime::ZERO,
            SortJob::new(TenantId(0), 1 << 14).with_seed(i),
        ));
        arrivals.push((
            SimTime::ZERO,
            SortJob::new(TenantId(1), 1 << 14).with_seed(100 + i),
        ));
    }
    let report = run(
        &p,
        ServeConfig::new()
            .with_policy(QueuePolicy::WeightedFair)
            .with_fleet(vec![0, 1])
            .with_weight(TenantId(0), 2.0)
            .with_weight(TenantId(1), 1.0),
        arrivals,
    );
    assert_eq!(report.outcomes.len(), 16);
    // Among the first half of completions, the 2× tenant must hold a
    // strict majority.
    let early = &report.outcomes[..8];
    let heavy = early.iter().filter(|o| o.tenant == TenantId(0)).count();
    assert!(heavy > 4, "2x-weighted tenant got {heavy}/8 early slots");
    // Full drain: everyone eventually completes everything.
    assert_eq!(report.tenant_stats()[0].jobs, 8);
    assert_eq!(report.tenant_stats()[1].jobs, 8);
}

/// Cost-model regression for the two PR 7 algorithm families: SJF only
/// works if the calibrated estimates *rank* jobs the way the simulator
/// actually serves them. For SampleSort and MultiwayMerge the solo
/// estimates must order a bimodal mix with no inversion against the
/// measured service times, and SJF must still collapse the median
/// against FIFO when the elephant runs those algorithms.
#[test]
fn sjf_cost_model_ranks_sample_and_mwms_jobs_without_inversion() {
    let p = Platform::dgx_a100();
    for algo in [JobAlgo::SampleSort, JobAlgo::MultiwayMerge] {
        // 1) Estimate vs. measurement: solo-run a small and a large job of
        //    this family; the cost model's ordering must match the
        //    simulator's measured service times.
        let job = |keys: u64, seed: u64| {
            SortJob::new(TenantId(0), keys)
                .with_algo(algo)
                .with_gpus(4)
                .with_seed(seed)
        };
        let small = job(1 << 12, 5);
        let large = job(1 << 18, 6);
        let est_small = estimate_job_cost(&p, &small, DataType::U32);
        let est_large = estimate_job_cost(&p, &large, DataType::U32);
        assert!(
            est_small < est_large,
            "{}: estimate inverted: {est_small:?} !< {est_large:?}",
            algo.name()
        );
        let solo = |j: SortJob| {
            let r = run(&p, ServeConfig::new(), vec![(SimTime::ZERO, j)]);
            assert!(r.all_validated(), "{}", algo.name());
            r.outcomes[0].service_time()
        };
        let meas_small = solo(small);
        let meas_large = solo(large);
        assert!(
            meas_small < meas_large,
            "{}: measured service times inverted",
            algo.name()
        );

        // 2) The ranking pays off end to end: elephant-first bimodal burst,
        //    SJF must reorder and beat FIFO on median latency.
        let mut arrivals = vec![(SimTime::ZERO, job(1 << 18, 11))];
        for i in 0..6 {
            arrivals.push((SimTime::ZERO, job(1 << 12, 100 + i)));
        }
        let config = |policy| {
            ServeConfig::new()
                .with_policy(policy)
                .with_fleet(vec![0, 1, 2, 3])
        };
        let fifo = run(&p, config(QueuePolicy::Fifo), arrivals.clone());
        let sjf = run(&p, config(QueuePolicy::Sjf), arrivals);
        assert!(
            fifo.all_validated() && sjf.all_validated(),
            "{}",
            algo.name()
        );
        assert_eq!(sjf.outcomes.len(), 7);
        assert!(
            sjf.p50_latency() < fifo.p50_latency(),
            "{}: SJF p50 {} must beat FIFO p50 {}",
            algo.name(),
            sjf.p50_latency(),
            fifo.p50_latency()
        );
        assert_eq!(fifo.total_keys(), sjf.total_keys());
    }
}

/// The same arrivals under the same config produce the identical report —
/// the whole service is bit-reproducible.
#[test]
fn service_runs_are_bit_reproducible() {
    let p = Platform::delta_d22x();
    let arrivals: Vec<(SimTime, SortJob)> = (0..10)
        .map(|i| {
            (
                SimTime(i * 1_000_000),
                SortJob::new(TenantId((i % 3) as u32), 1 << 14).with_seed(i),
            )
        })
        .collect();
    let config = ServeConfig::new().with_policy(QueuePolicy::Sjf);
    let a = run(&p, config.clone(), arrivals.clone());
    let b = run(&p, config, arrivals);
    assert_eq!(a, b);
}
