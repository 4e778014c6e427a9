//! Million-job scale benchmark for the indexed serve core — the one
//! wall-clock claim `perf/` cannot state, because `perf` calls no
//! `Reference*` oracle.
//!
//! * Indexed vs reference: wall-clock of the indexed scheduler against the
//!   golden linear-scan [`ReferenceService`] on identical queued-heavy
//!   workloads (a deep bounded queue, so the reference's per-event rescans
//!   are O(depth) while the indexed core stays O(log depth)). The ≥3x
//!   acceptance claim at the largest size is asserted, not just printed.
//! * The headline: one million offered jobs through the indexed core in a
//!   single open-loop Poisson run, with admission, placement, gang leasing,
//!   and simulated execution all live. The reference is *not* run at this
//!   size — that is the point. The process's peak resident set after it is
//!   printed and bounded: what the stack keeps per job it has already
//!   retired shows here and nowhere else.
//!
//! Every run takes 0.2–22 s, so each is timed once with `Instant`: no
//! warm-up, no repetitions.

use msort_serve::{
    JobAlgo, JobMix, OpenLoop, QueuePolicy, ReferenceService, ServeConfig, ServiceReport, SortJob,
    SortService, TenantId,
};
use msort_topology::Platform;
use std::time::{Duration, Instant};

const SCALE: u64 = 64;
const SEED: u64 = 0x5CA1E;

/// Tiny one-GPU jobs with an occasional two-GPU straggler: at million-job
/// scale the *scheduler* is the measured object, so per-job sort work is
/// kept minimal (sampled fidelity, 2^12 logical keys).
fn mix() -> JobMix {
    JobMix::of(
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
    .and(SortJob::new(TenantId(2), 1 << 13).with_gpus(2), 0.2)
}

/// Queued-heavy configuration: SJF over a deep bounded queue. The cap
/// keeps the reference's O(depth) rescans finite while still forcing
/// every dispatch through a long pick scan; overflow beyond the cap is
/// cheap O(1) backpressure in both implementations.
fn config(depth: usize) -> ServeConfig {
    ServeConfig::new()
        .sampled(SCALE)
        .with_policy(QueuePolicy::Sjf)
        .with_max_queue_depth(depth)
}

/// Offered rate far beyond the DGX's ~2.6M tiny-jobs/s simulated
/// capacity, so the queue pegs at its cap for the whole run —
/// "queued-heavy" by construction (verified by the max-depth print).
const HEAVY_RATE: f64 = 10_000_000.0;
const HEAVY_DEPTH: usize = 8_192;

/// One validated run, end to end (service construction included), and
/// its wall-clock.
fn timed(run: impl FnOnce() -> ServiceReport) -> (ServiceReport, Duration) {
    let start = Instant::now();
    let report = run();
    let wall = start.elapsed();
    assert!(report.all_validated());
    (report, wall)
}

/// The process's peak resident set (`VmHWM`) in kB, where `/proc` has it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Bound on the peak resident set after the million-job run, in MB of
/// 1024 kB: half-way between the ~534 MB the run takes and the 861 MB it
/// took while `GpuSystem` kept an op queue for every stream ever created.
const PEAK_RSS_MAX_MB: u64 = 700;

fn main() {
    let dgx = Platform::dgx_a100();
    let workload = |jobs, rate| OpenLoop::poisson(rate, mix(), jobs, SEED);

    // Indexed vs reference on identical queued-heavy workloads.
    let sizes = [10_000u64, 30_000, 100_000];
    let walls = sizes.map(|jobs| {
        let (report, idx) = timed(|| {
            SortService::<u32>::new(&dgx, config(HEAVY_DEPTH)).serve(workload(jobs, HEAVY_RATE))
        });
        let (_, rf) = timed(|| {
            ReferenceService::<u32>::new(&dgx, config(HEAVY_DEPTH))
                .serve(workload(jobs, HEAVY_RATE))
        });
        let max_depth = report.queue_depth.iter().map(|&(_, d)| d).max();
        println!(
            "jobs {jobs:>8}: indexed {:>8.1} ms  reference {:>8.1} ms  speedup {:.2}x  \
             (completed {}, rejected {}, max depth {})",
            idx.as_secs_f64() * 1e3,
            rf.as_secs_f64() * 1e3,
            rf.as_secs_f64() / idx.as_secs_f64(),
            report.outcomes.len(),
            report.rejected.len(),
            max_depth.unwrap_or(0),
        );
        (idx, rf)
    });
    // The acceptance claim: ≥3x over the reference at the largest size.
    let ([.., largest], [.., (idx, rf)]) = (sizes, walls);
    assert!(
        rf >= 3 * idx,
        "indexed core must beat the reference by >=3x at {largest} jobs \
         (indexed {idx:?}, reference {rf:?})",
    );

    // The headline: one million offered jobs through the indexed core.
    // Offered just under capacity so the service stays busy end to end
    // and (nearly) everything completes — the measured number is the
    // full admission → queue → placement → execution → retire path.
    let (report, wall) = timed(|| {
        SortService::<u32>::new(&dgx, config(usize::MAX)).serve(workload(1_000_000, 1_000_000.0))
    });
    let peak_kb = peak_rss_kb();
    println!(
        "{} offered in {:.1} s ({:.1} us/job): {} completed, {} rejected, makespan {}, \
         p99 {} ns, {} queue-depth samples, peak rss {}",
        report.offered_jobs(),
        wall.as_secs_f64(),
        wall.as_secs_f64() * 1e6 / report.offered_jobs() as f64,
        report.outcomes.len(),
        report.rejected.len(),
        report.makespan,
        report.p99_latency().0,
        report.queue_depth.len(),
        peak_kb.map_or_else(
            || "unreadable".to_string(),
            |kb| format!(
                "{} MB ({} B/job)",
                kb / 1024,
                kb * 1024 / report.offered_jobs()
            )
        ),
    );
    if let Some(kb) = peak_kb {
        assert!(
            kb / 1024 <= PEAK_RSS_MAX_MB,
            "peak resident set {} MB exceeds {PEAK_RSS_MAX_MB} MB after the million-job run",
            kb / 1024
        );
    }
}
