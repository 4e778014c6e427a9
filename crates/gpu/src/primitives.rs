//! Functional device primitives.
//!
//! Each modeled GPU sort algorithm (paper Table 2) is backed by a real
//! implementation of the same algorithm *family* from `msort-cpu`, so the
//! simulated run produces genuinely sorted data via genuinely different
//! code paths:
//!
//! | Modeled primitive | Functional implementation |
//! |---|---|
//! | Thrust (LSB radix, decoupled lookback) | [`msort_cpu::onesweep`] (single-pass histogram, chained-lookback scatter above 64 Ki keys; below it a size ladder, every rung stable, same bytes: a comparison sort on the radix image up to 256 keys for 32-bit images and 4 Ki for 64-bit ones, then 8-bit LSD radix) with caller-provided auxiliary buffer |
//! | CUB (same kernel family as Thrust) | [`msort_cpu::onesweep`] |
//! | Stehle & Jacobsen (MSB radix) | [`msort_cpu::msb_radix`] (in-place cycle chasing) |
//! | ModernGPU (merge sort) | [`msort_cpu::mergesort`] (merge-path splits) |
//!
//! The *duration* of each primitive comes from the calibrated cost model;
//! the data effect comes from these functions. OneSweep and the classic
//! LSB radix it replaced are both stable LSD sorts, so this rewiring is
//! invisible in the output — only the wall clock moves.

use msort_cpu::{mergesort, msb_radix, paradis};
use msort_data::SortKey;
use msort_sim::GpuSortAlgo;

/// Inputs at or above this many physical keys run the parallel kernel
/// variants; below it the sequential implementations win on dispatch
/// overhead. The dispatch depends only on the input *size* (never on the
/// thread count), so a given buffer always takes the same code path.
///
/// Re-tuned for the OneSweep kernel: 64 Ki keys is exactly two OneSweep
/// scatter tiles (`msort_cpu::onesweep`, 32 Ki-key tiles) — the smallest
/// input where the chained-lookback scatter has any overlap to exploit,
/// so the floor is structural rather than a taste constant. Probe numbers
/// from `cargo run -p msort-bench --release --example tune` on the 1-core
/// CI container: sequential OneSweep runs 64 Ki u32 keys in ~480 µs and
/// the parallel entry's overhead at pool width 1 is within noise (≤2%) at
/// every size from 16 Ki to 1 Mi, while a 2-wide pool on one hardware
/// thread is pure oversubscription (~1.4x slower) — i.e. on this box the
/// floor only needs to bound dispatch overhead, and it does; the
/// parallel win itself needs real cores.
pub const PARALLEL_MIN_KEYS: usize = 1 << 16;

/// Sort `data` in place with the functional counterpart of `algo`, using
/// `aux` as scratch where the algorithm requires it (mirroring
/// `thrust::sort`'s user-provided temporary storage).
pub fn device_sort<K: SortKey>(algo: GpuSortAlgo, data: &mut [K], aux: &mut [K]) {
    device_sort_with(algo, data, aux, msort_cpu::pool::threads());
}

/// [`device_sort`] with an explicit worker budget. Above
/// [`PARALLEL_MIN_KEYS`] each algorithm family dispatches to its parallel
/// counterpart (a real GPU runs these kernels on thousands of threads;
/// this runtime runs them on the shared worker pool).
pub fn device_sort_with<K: SortKey>(
    algo: GpuSortAlgo,
    data: &mut [K],
    aux: &mut [K],
    threads: usize,
) {
    let parallel = threads > 1 && data.len() >= PARALLEL_MIN_KEYS;
    match algo {
        GpuSortAlgo::ThrustLike | GpuSortAlgo::CubLike => {
            if parallel {
                msort_cpu::parallel_onesweep_sort_with_aux(data, aux, threads);
            } else {
                msort_cpu::onesweep_sort_with_aux(data, &mut aux[..data.len()]);
            }
        }
        GpuSortAlgo::StehleLike => {
            if parallel {
                paradis::paradis_sort_with(
                    data,
                    paradis::ParadisConfig {
                        threads,
                        ..Default::default()
                    },
                );
            } else {
                msb_radix::msb_radix_sort(data);
            }
        }
        GpuSortAlgo::MgpuLike => {
            if parallel {
                mergesort::parallel_merge_path_sort(data, aux, threads);
            } else {
                mergesort::merge_path_sort(data);
            }
        }
    }
}

/// Merge the two sorted runs `src[..mid]` and `src[mid..]` into `dst`
/// (the `thrust::merge` pattern used by P2P sort's local merges). Large
/// merges split along merge-path diagonals across the pool, exactly like
/// the per-block tiles of a real GPU merge kernel.
pub fn device_merge_into<K: SortKey>(src: &[K], mid: usize, dst: &mut [K]) {
    let threads = msort_cpu::pool::threads();
    if threads > 1 && dst.len() >= PARALLEL_MIN_KEYS {
        mergesort::parallel_merge_into(&src[..mid], &src[mid..], dst, threads);
    } else {
        mergesort::merge_into(&src[..mid], &src[mid..], dst);
    }
}

/// Stably partition `data` into `splitters.len() + 1` contiguous buckets
/// (sample sort's local scatter pass), using `aux` as the scatter target.
/// Returns the bucket boundaries (a `buckets + 1` prefix-sum vector).
/// Above [`PARALLEL_MIN_KEYS`] the per-tile partitions run across the pool
/// (fixed 32 Ki-key tiles, so the output never depends on its width);
/// below it the sequential path wins on dispatch overhead.
pub fn device_partition<K: SortKey>(
    data: &mut [K],
    aux: &mut [K],
    splitters: &[(K, u64)],
) -> Vec<usize> {
    let budget = if data.len() >= PARALLEL_MIN_KEYS {
        msort_cpu::pool::threads()
    } else {
        1
    };
    msort_cpu::partition_by_splitters(data, &mut aux[..data.len()], splitters, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, is_sorted, same_multiset, Distribution};

    #[test]
    fn all_primitives_sort() {
        for algo in GpuSortAlgo::all() {
            let input: Vec<u32> = generate(Distribution::Uniform, 10_000, 3);
            let mut data = input.clone();
            let mut aux = vec![0u32; data.len()];
            device_sort(algo, &mut data, &mut aux);
            assert!(is_sorted(&data), "{algo:?}");
            assert!(same_multiset(&input, &data), "{algo:?}");
        }
    }

    #[test]
    fn merge_into_merges_runs() {
        let mut src: Vec<u64> = generate(Distribution::Uniform, 1000, 4);
        src[..600].sort_unstable();
        src[600..].sort_unstable();
        let mut dst = vec![0u64; 1000];
        device_merge_into(&src, 600, &mut dst);
        assert!(is_sorted(&dst));
        assert!(same_multiset(&src, &dst));
    }

    #[test]
    fn aux_longer_than_data_is_fine() {
        let mut data: Vec<u32> = generate(Distribution::ReverseSorted, 100, 5);
        let mut aux = vec![0u32; 200];
        device_sort(GpuSortAlgo::ThrustLike, &mut data, &mut aux);
        assert!(is_sorted(&data));
    }
}
