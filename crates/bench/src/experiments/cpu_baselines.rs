//! The paper's CPU-baseline bake-off (Section 6, "CPU Sort Baseline").
//!
//! The authors benchmark gnu_parallel sort, TBB, parallel `std::sort`,
//! PARADIS, and the Polychroniou & Ross LSB radix sort, and pick PARADIS
//! as the platform-independent baseline (the SIMD LSB radix wins only for
//! small inputs on x86). We repeat the bake-off with our real
//! implementations — wall clock on the machine running the harness — and
//! report the modeled PARADIS rates used in the simulated figures.

use crate::ExperimentResult;
use msort_cpu::{parallel_onesweep_sort, parallel_sort, ParadisConfig};
use msort_data::{generate, Distribution};
use msort_sim::CostModel;
use msort_topology::PlatformId;
use std::time::Instant;

fn time_sort(label: &str, r: &mut ExperimentResult, n: usize, f: impl Fn(&mut Vec<u32>)) {
    let input: Vec<u32> = generate(Distribution::Uniform, n, 2022);
    // Warm up once, then take the best of 3 (tiny container, noisy clock).
    let mut best = f64::MAX;
    for _ in 0..3 {
        let mut data = input.clone();
        let start = Instant::now();
        f(&mut data);
        best = best.min(start.elapsed().as_secs_f64());
        assert!(msort_data::is_sorted(&data), "{label} failed to sort");
    }
    r.push_ours(
        format!("{label}: {n} keys [M keys/s]"),
        n as f64 / best / 1e6,
    );
}

/// Run the bake-off.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "cpu-baselines",
        "CPU sorting baselines: real wall-clock on this host + modeled rates",
        "M keys/s",
    );
    let threads = msort_cpu::default_threads();
    for n in [1usize << 18, 1 << 21] {
        time_sort("std::sort_unstable", &mut r, n, |d| d.sort_unstable());
        time_sort(
            "parallel library sort (gnu_parallel-style)",
            &mut r,
            n,
            |d| parallel_sort(d),
        );
        time_sort("PARADIS", &mut r, n, |d| paradis_sort_threads(d, threads));
        time_sort("parallel LSB radix (Polychroniou-style)", &mut r, n, |d| {
            parallel_onesweep_sort(d, threads)
        });
    }
    for id in PlatformId::paper_set() {
        let m = CostModel::for_platform_id(id);
        r.push_ours(
            format!("modeled PARADIS rate on the {}", id.name()),
            m.cpu.paradis_keys_per_sec / 1e6,
        );
    }
    r.note(
        "Wall-clock rows depend on the harness host (the container the \
         tests run in is not a 128-core EPYC); the modeled rows are the \
         calibrated per-platform rates the simulated figures use.",
    );
    r
}

fn paradis_sort_threads(data: &mut [u32], threads: usize) {
    msort_cpu::paradis::paradis_sort_with(
        data,
        ParadisConfig {
            threads,
            small_sort_threshold: 256,
        },
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn bakeoff_runs_and_everything_sorts() {
        let r = super::run();
        // 8 wall-clock rows + 3 modeled rows.
        assert_eq!(r.rows.len(), 11);
        assert!(r.rows.iter().all(|row| row.ours > 0.0));
    }
}
