//! Open-loop service-load benchmark: throughput and latency under load
//! for the redesigned `Workload`-driven serve API, on two paper platforms.
//!
//! Four result families land in `BENCH_serve_load.json`:
//!
//! * `serve_load_wall_*` — real wall-clock of the scheduler end to end
//!   (admission, elastic fleet, gang placement, simulated execution) over
//!   a 96-job Poisson stream, with logical keys as the throughput unit;
//! * `serve_load_p99_*` — the goodput-vs-offered-load curve: one entry
//!   per offered rate, where `elements` carries the simulated goodput in
//!   jobs/s and the sample duration *is* the simulated p99 latency (the
//!   closure spins for exactly that long, so `median_ns` ≈ simulated
//!   p99 ns and the JSON is self-describing);
//! * `serve_load_capacity_*` — jobs/s at a fixed p99 budget: the highest
//!   swept rate whose p99 stays under 150 µs, per platform;
//! * `serve_load_bursty_*` — an elastic fleet against a fixed fleet of
//!   its mean size on a bursty MMPP workload. That elastic wins on p99 at
//!   no extra GPU-time is asserted by `tests/serve_load.rs` in tier-1;
//!   this bench prints and records the two numbers.
//!
//! `MSORT_BENCH_QUICK=1` trims the sweep for CI smoke runs.

use msort_bench::Harness;
use msort_serve::{
    AdmissionPolicy, ArrivalProcess, JobAlgo, JobMix, OpenLoop, QueuePolicy, ServeConfig,
    ServiceReport, SortJob, SortService, TenantId,
};
use msort_sim::SimDuration;
use msort_topology::Platform;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SCALE: u64 = 64;
const JOBS: u64 = 96;
/// The fixed p99 budget the capacity entries answer for.
const P99_BUDGET: SimDuration = SimDuration(150_000);

fn quick() -> bool {
    std::env::var_os("MSORT_BENCH_QUICK").is_some()
}

/// Busy-wait for exactly `d`, so a simulated duration becomes a measured
/// wall-clock sample (sleep granularity would distort sub-millisecond
/// values; a spin is µs-accurate).
fn spin_for(d: SimDuration) {
    let target = Duration::from_nanos(d.0);
    let start = Instant::now();
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// Three tenants, three algorithm families, gangs of 1 and 2 — small
/// enough gangs that a fixed fleet of the elastic run's mean size is
/// always feasible.
fn mix() -> JobMix {
    JobMix::of(
        SortJob::new(TenantId(0), 1 << 16)
            .with_algo(JobAlgo::Het)
            .interactive(),
    )
    .and(SortJob::new(TenantId(1), 1 << 18).with_gpus(2), 0.75)
    .and(SortJob::new(TenantId(2), 1 << 16).with_gpus(2), 0.5)
}

fn elastic_config() -> ServeConfig {
    ServeConfig::new()
        .sampled(SCALE)
        .with_policy(QueuePolicy::Edf)
        .with_admission(AdmissionPolicy::SloAware)
        .with_slo(TenantId(0), P99_BUDGET)
        .elastic(2, SimDuration::from_millis(1))
}

fn serve(platform: &Platform, config: ServeConfig, workload: OpenLoop) -> ServiceReport {
    let report = SortService::<u32>::new(platform, config).serve(workload);
    assert!(report.all_validated());
    report
}

/// Goodput-vs-offered-load sweep plus the capacity-at-fixed-p99 knee,
/// on both paper platforms.
fn bench_offered_load_sweep(h: &mut Harness) {
    let rates: &[f64] = if quick() {
        &[1_000.0, 16_000.0]
    } else {
        &[250.0, 1_000.0, 4_000.0, 16_000.0, 64_000.0]
    };
    for platform in [Platform::dgx_a100(), Platform::ibm_ac922()] {
        let plat = format!("{:?}", platform.id);
        let mut knee: Option<(f64, ServiceReport)> = None;
        for &rate in rates {
            let workload = || OpenLoop::poisson(rate, mix(), JOBS, 0x5EED);
            let report = serve(&platform, elastic_config(), workload());
            println!(
                "{plat} offered {rate:>7.0}/s: goodput {:>8.1}/s  p99 {:>9} ns  \
                 shed {}  attainment {:.2}  mean fleet {:.2}",
                report.goodput_per_sec(),
                report.p99_latency().0,
                report.shed_jobs(),
                report.slo_attainment(),
                report.mean_fleet_size(),
            );
            if report.p99_latency() <= P99_BUDGET {
                knee = Some((rate, report.clone()));
            }
            // One curve point: `elements` = simulated goodput (jobs/s),
            // sample duration = simulated p99 latency.
            let p99 = report.p99_latency();
            h.bench_throughput(
                &format!("serve_load_p99_{plat}/offered_{rate:.0}"),
                report.goodput_per_sec().round() as u64,
                || spin_for(p99),
            );
        }
        let (rate, at_knee) = knee.expect("the lowest swept rate must meet the p99 budget");
        println!(
            "{plat}: capacity at p99 <= {} ns: {:.1} jobs/s (offered {rate:.0}/s)",
            P99_BUDGET.0,
            at_knee.goodput_per_sec(),
        );
        let p99 = at_knee.p99_latency();
        h.bench_throughput(
            &format!(
                "serve_load_capacity_{plat}/p99_le_{}us",
                P99_BUDGET.0 / 1_000
            ),
            at_knee.goodput_per_sec().round() as u64,
            || spin_for(p99),
        );
        // Real scheduler wall-clock at a saturating offered rate.
        let wall_rate = if quick() { 16_000.0 } else { 64_000.0 };
        let keys = serve(
            &platform,
            elastic_config(),
            OpenLoop::poisson(wall_rate, mix(), JOBS, 0x5EED),
        )
        .total_keys();
        h.bench_throughput(
            &format!("serve_load_wall_{plat}/offered_{wall_rate:.0}"),
            keys,
            || {
                let report = serve(
                    &platform,
                    elastic_config(),
                    OpenLoop::poisson(wall_rate, mix(), JOBS, 0x5EED),
                );
                black_box(report.makespan)
            },
        );
    }
}

/// Under a bursty MMPP arrival process: an elastic fleet against a fixed
/// fleet of the same mean size (the comparison `tests/serve_load.rs`
/// asserts).
fn bench_elastic_vs_fixed(h: &mut Harness) {
    let dgx = Platform::dgx_a100();
    let bursty = || {
        OpenLoop::new(
            ArrivalProcess::Bursty {
                base_rate: 300.0,
                burst_rate: 15_000.0,
                mean_calm: SimDuration::from_millis(4),
                mean_burst: SimDuration::from_millis(2),
            },
            mix(),
            JOBS,
            0xB0B,
        )
    };
    let elastic = serve(&dgx, elastic_config(), bursty());
    // A fixed fleet with as many GPUs as the elastic run leased on
    // average (rounded; never below the largest gang in the mix).
    let gpus = (elastic.mean_fleet_size().round() as usize).max(2);
    let fixed_config = ServeConfig::new()
        .sampled(SCALE)
        .with_policy(QueuePolicy::Edf)
        .with_admission(AdmissionPolicy::SloAware)
        .with_slo(TenantId(0), P99_BUDGET)
        .with_fleet((0..gpus).collect());
    let fixed = serve(&dgx, fixed_config, bursty());

    println!(
        "bursty MMPP, DGX: elastic (mean {:.2} GPUs) p99 {} ns vs fixed-{gpus} p99 {} ns",
        elastic.mean_fleet_size(),
        elastic.p99_latency().0,
        fixed.p99_latency().0,
    );
    for (label, report) in [("Elastic", &elastic), ("Fixed", &fixed)] {
        let p99 = report.p99_latency();
        h.bench_throughput(
            &format!("serve_load_bursty_dgx/{label}"),
            report.goodput_per_sec().round() as u64,
            || spin_for(p99),
        );
    }
}

fn main() {
    let samples = if quick() { 2 } else { 5 };
    let mut h = Harness::new("serve_load").sample_size(samples);
    bench_offered_load_sweep(&mut h);
    bench_elastic_vs_fixed(&mut h);
    h.finish();
}
