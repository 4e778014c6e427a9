//! Open-loop service load, end to end: a seeded arrival generator drives
//! the full stack — admission, elastic fleet, gang placement, every
//! algorithm family's driver on one shared clock — and the result must be
//! a pure function of (workload seed, config): bit-identical across
//! replays and under injected faults. The recorder must capture the new
//! service-layer signals (fleet-size counter, shed instants) without
//! perturbing the run.

use multi_gpu_sort::prelude::*;
use multi_gpu_sort::trace::{groups, EventKind};

const SCALE: u64 = 64;

/// A bursty MMPP mix across three tenants and three algorithm families —
/// enough concurrency that jobs queue, the fleet flexes, and admission
/// has real decisions to make.
fn open_loop(jobs: u64, seed: u64) -> OpenLoop {
    let mix = JobMix::of(
        SortJob::new(TenantId(0), 1 << 16)
            .with_algo(JobAlgo::Het)
            .interactive(),
    )
    .and(SortJob::new(TenantId(1), 1 << 18).with_gpus(4), 0.5)
    .and(
        SortJob::new(TenantId(2), 1 << 16)
            .with_algo(JobAlgo::Rp)
            .with_gpus(2),
        1.0,
    );
    OpenLoop::new(
        ArrivalProcess::Bursty {
            base_rate: 400.0,
            burst_rate: 20_000.0,
            mean_calm: SimDuration::from_millis(4),
            mean_burst: SimDuration::from_millis(2),
        },
        mix,
        jobs,
        seed,
    )
}

fn config() -> ServeConfig {
    ServeConfig::new()
        .sampled(SCALE)
        .with_policy(QueuePolicy::Edf)
        .with_admission(AdmissionPolicy::SloAware)
        .with_slo(TenantId(0), SimDuration::from_micros(50))
        .with_slo(TenantId(2), SimDuration::from_millis(50))
        .elastic(2, SimDuration::from_millis(2))
}

/// The determinism contract of the redesigned entry point: same seed,
/// same config → the bit-identical `ServiceReport`, replay after replay.
#[test]
fn open_loop_serve_bit_identical_across_replays() {
    let dgx = Platform::dgx_a100();
    let replay = || {
        let report = SortService::<u32>::new(&dgx, config()).serve(open_loop(64, 0xAB5E));
        assert!(report.all_validated());
        format!("{report:?}")
    };
    assert_eq!(
        replay(),
        replay(),
        "ServiceReport must not depend on the replay"
    );
}

/// Three tenants, three algorithm families, gangs of 1 and 2 — small
/// enough gangs that a fixed fleet of the elastic run's mean size is
/// always feasible.
fn small_gang_mix() -> JobMix {
    JobMix::of(
        SortJob::new(TenantId(0), 1 << 16)
            .with_algo(JobAlgo::Het)
            .interactive(),
    )
    .and(SortJob::new(TenantId(1), 1 << 18).with_gpus(2), 0.75)
    .and(SortJob::new(TenantId(2), 1 << 16).with_gpus(2), 0.5)
}

/// The p99 budget the two tests below hold the interactive tenant to.
const P99_BUDGET: SimDuration = SimDuration(150_000);

fn budget_config() -> ServeConfig {
    ServeConfig::new()
        .sampled(SCALE)
        .with_policy(QueuePolicy::Edf)
        .with_admission(AdmissionPolicy::SloAware)
        .with_slo(TenantId(0), P99_BUDGET)
}

/// The elastic-fleet claim: on bursty MMPP arrivals, leasing GPUs
/// elastically beats a fixed fleet of the same (rounded) mean size on p99
/// latency while spending no more GPU-time.
#[test]
fn elastic_fleet_beats_a_fixed_fleet_of_its_mean_size_on_bursts() {
    let dgx = Platform::dgx_a100();
    let bursty = || {
        OpenLoop::new(
            ArrivalProcess::Bursty {
                base_rate: 300.0,
                burst_rate: 15_000.0,
                mean_calm: SimDuration::from_millis(4),
                mean_burst: SimDuration::from_millis(2),
            },
            small_gang_mix(),
            96,
            0xB0B,
        )
    };
    let elastic = SortService::<u32>::new(
        &dgx,
        budget_config().elastic(2, SimDuration::from_millis(1)),
    )
    .serve(bursty());
    // As many fixed GPUs as the elastic run leased on average (rounded;
    // never below the largest gang in the mix).
    let gpus = (elastic.mean_fleet_size().round() as usize).max(2);
    let fixed = SortService::<u32>::new(&dgx, budget_config().with_fleet((0..gpus).collect()))
        .serve(bursty());
    assert!(elastic.all_validated() && fixed.all_validated());
    assert!(
        elastic.mean_fleet_size() <= gpus as f64 + 0.05,
        "elastic must not spend more GPU-time than the fixed-{gpus} fleet (mean {:.2})",
        elastic.mean_fleet_size(),
    );
    assert!(
        elastic.p99_latency() < fixed.p99_latency(),
        "elastic p99 {} must beat a fixed fleet of its mean size ({gpus} GPUs) at {}",
        elastic.p99_latency(),
        fixed.p99_latency(),
    );
}

/// Capacity at a fixed p99 budget: sweeping the offered Poisson rate, the
/// highest rate the elastic fleet serves inside the budget — the knee of
/// the goodput-vs-load curve — is 16 000 jobs/s on the DGX A100 and
/// 4 000 jobs/s on the AC922, whose four GPUs run out one swept rate sooner.
/// Up to the knee nothing is shed.
#[test]
fn capacity_knee_at_a_fixed_p99_budget_per_platform() {
    const RATES: [f64; 5] = [250.0, 1_000.0, 4_000.0, 16_000.0, 64_000.0];
    // (platform, knee rate, p99 at the knee, p99 one rate past it) in ns.
    let cases = [
        (Platform::dgx_a100(), 16_000.0, 136_408, 528_059),
        (Platform::ibm_ac922(), 4_000.0, 116_547, 183_510),
    ];
    for (platform, knee_rate, p99_at_knee, p99_past_knee) in cases {
        let sweep = RATES.map(|rate| {
            let config = budget_config().elastic(2, SimDuration::from_millis(1));
            let report = SortService::<u32>::new(&platform, config).serve(OpenLoop::poisson(
                rate,
                small_gang_mix(),
                96,
                0x5EED,
            ));
            assert!(report.all_validated(), "{:?} at {rate}/s", platform.id);
            report
        });
        assert!(
            sweep[0].p99_latency() <= P99_BUDGET,
            "the lowest swept rate must meet the p99 budget"
        );
        let knee = sweep
            .iter()
            .rposition(|r| r.p99_latency() <= P99_BUDGET)
            .expect("the lowest rate meets the budget");
        assert_eq!(RATES[knee], knee_rate, "knee moved on {:?}", platform.id);
        assert_eq!(sweep[knee].p99_latency(), SimDuration(p99_at_knee));
        assert_eq!(sweep[knee + 1].p99_latency(), SimDuration(p99_past_knee));
        for (rate, report) in RATES.iter().zip(&sweep[..=knee]) {
            assert_eq!(report.shed_jobs(), 0, "{:?} at {rate}/s", platform.id);
        }
    }
}

/// Under bursty overload the elastic fleet flexes between its floor and
/// the burst demand, SLO-aware admission sheds what the backlog could
/// never finish in time, and the queue-depth cap is never breached.
#[test]
fn elastic_fleet_flexes_and_admission_sheds_under_bursts() {
    let dgx = Platform::dgx_a100();
    let report = SortService::<u32>::new(&dgx, config().with_max_queue_depth(16))
        .serve(open_loop(96, 0x10AD));
    assert!(report.all_validated());
    assert_eq!(report.offered_jobs(), 96);

    let sizes: Vec<usize> = report.fleet_size.iter().map(|&(_, n)| n).collect();
    assert_eq!(sizes[0], 2, "fleet starts at its floor");
    let peak = sizes.iter().copied().max().unwrap();
    assert!(peak > 2, "bursts must lease extra GPUs (peak {peak})");
    assert!(
        sizes.windows(2).all(|w| w[0] != w[1]),
        "fleet log only records changes"
    );
    let mean = report.mean_fleet_size();
    assert!(
        mean < peak as f64,
        "elastic mean {mean} must undercut the {peak}-GPU peak"
    );

    assert!(
        report.shed_jobs() > 0,
        "a 10x burst against a tight interactive SLO must shed"
    );
    assert!(report.slo_attainment() < 1.0);
    assert!(
        report.goodput_jobs() > 0,
        "the service still does real work"
    );
    assert!(
        report.queue_depth.iter().all(|&(_, d)| d <= 16),
        "queue cap breached"
    );

    // Interactive jobs with deadlines dispatched EDF: every completed
    // tenant-0 job recorded its 50 µs deadline.
    for o in report.outcomes.iter().filter(|o| o.tenant == TenantId(0)) {
        assert_eq!(o.deadline, Some(o.submitted + SimDuration::from_micros(50)));
    }
}

/// The recorder sees the new service-layer signals — the fleet-size
/// counter track and shed/reject instants — and recording stays purely
/// observational (the report is bit-identical with the recorder on and
/// off).
#[test]
fn recorder_captures_fleet_counter_and_shed_instants() {
    let dgx = Platform::dgx_a100();
    let silent = SortService::<u32>::new(&dgx, config()).serve(open_loop(64, 0x0B5E));
    let recorder = Recorder::new();
    let observed = SortService::<u32>::new(&dgx, config().with_recorder(recorder.clone()))
        .serve(open_loop(64, 0x0B5E));
    assert_eq!(silent, observed, "recording must be purely observational");

    let data = recorder.snapshot().expect("recorder is enabled");
    let fleet_samples: Vec<(u64, f64)> = data
        .events_in_group(groups::SERVICE)
        .filter(|e| e.name == "active_gpus")
        .filter_map(|e| match e.kind {
            EventKind::Counter { at_ns, value } => Some((at_ns, value)),
            _ => None,
        })
        .collect();
    assert_eq!(
        fleet_samples.len(),
        observed.fleet_size.len(),
        "one counter sample per fleet-size change"
    );
    for (&(at, v), &(t, n)) in fleet_samples.iter().zip(&observed.fleet_size) {
        assert_eq!(at, t.0);
        assert!((v - n as f64).abs() < 1e-12);
    }

    let sheds = data
        .events_in_group(groups::SERVICE)
        .filter(|e| {
            matches!(e.kind, EventKind::Instant { .. })
                && (e.name == "shed" || e.name == "reject-slo-unattainable")
        })
        .count() as u64;
    assert_eq!(sheds, observed.shed_jobs(), "one instant per shed job");
    assert!(json_valid(&chrome_trace(&data)));
}

/// FaultPlans compose with the open-loop path: a randomized fault
/// schedule under bursty load still validates every job, still reroutes,
/// and the whole run stays bit-reproducible.
#[test]
fn faults_compose_with_open_loop_serving() {
    let dgx = Platform::dgx_a100();
    let plan = FaultPlan::randomized(&dgx, 0xFA57, SimDuration::from_millis(20));
    let run = || {
        let cfg = config().with_run(RunConfig::new().sampled(SCALE).with_faults(plan.clone()));
        let cfg = cfg
            .with_admission(AdmissionPolicy::SloAware)
            .with_slo(TenantId(0), SimDuration::from_micros(50))
            .elastic(2, SimDuration::from_millis(2));
        SortService::<u32>::new(&dgx, cfg).serve(open_loop(48, 0xF001))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "faulted open-loop runs must replay bit-identically");
    assert!(a.all_validated());
    assert!(a.offered_jobs() == 48);
}
