//! Table 2: single-GPU sorting primitives on the NVIDIA A100 (1 B u32).
//!
//! Runs each modeled primitive through the virtual runtime and reports the
//! kernel duration, which its calibrated cost model sets. The data really
//! gets sorted (at sampled fidelity) by the one stable sort every sort op
//! runs, so the family shows in the duration and never in the bytes.

use crate::ExperimentResult;
use msort_data::{generate, Distribution};
use msort_gpu::{Fidelity, GpuSystem, Phase};
use msort_sim::GpuSortAlgo;
use msort_topology::Platform;

/// Sort duration of one primitive for `n` logical u32 keys on a DGX A100
/// GPU (kernel only — no transfers, matching the paper's Table 2).
#[must_use]
pub fn gpu_sort_duration_ms(algo: GpuSortAlgo, n: u64, scale: u64) -> f64 {
    let p = Platform::dgx_a100();
    let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Sampled { scale });
    let n = n / scale * scale;
    let phys = (n / scale) as usize;
    let host = sys
        .world_mut()
        .import_host(0, generate(Distribution::Uniform, phys, 42), n);
    let dev = sys.world_mut().alloc_gpu(0, n);
    let aux = sys.world_mut().alloc_gpu(0, n);
    let s = sys.stream();
    let up = sys.memcpy(s, host, 0, dev, 0, n, &[], Phase::HtoD);
    let sort = sys.gpu_sort(s, algo, dev, (0, n), aux, &[up]);
    sys.synchronize();
    let (start, end) = sys.op_span(sort).expect("sort ran");
    assert!(msort_data::is_sorted(sys.world().slice(dev, 0, n)));
    end.since(start).as_millis_f64()
}

/// Run Table 2.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new("table2", "NVIDIA A100 GPU sorting 1B integers (4 GB)", "ms");
    let n: u64 = 1_000_000_000;
    let scale = 1 << 20;
    for (algo, paper) in [
        (GpuSortAlgo::ThrustLike, 36.0),
        (GpuSortAlgo::CubLike, 36.0),
        (GpuSortAlgo::StehleLike, 57.0),
        (GpuSortAlgo::MgpuLike, 200.0),
    ] {
        r.push(
            format!("{} ({:?})", algo.name(), algo),
            paper,
            gpu_sort_duration_ms(algo, n, scale),
        );
    }
    r.note(
        "Each primitive's duration comes from its own calibrated cost model; \
         the sorted bytes come from one stable sort (a comparison, 8-bit LSD \
         and OneSweep radix size ladder) for every family.",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces_within_tolerance() {
        let r = run();
        assert!(r.mean_abs_delta().unwrap() < 3.0, "{}", r.to_markdown());
    }

    #[test]
    fn thrust_equals_cub() {
        let t = gpu_sort_duration_ms(GpuSortAlgo::ThrustLike, 1 << 24, 1 << 10);
        let c = gpu_sort_duration_ms(GpuSortAlgo::CubLike, 1 << 24, 1 << 10);
        assert_eq!(t, c);
    }
}
