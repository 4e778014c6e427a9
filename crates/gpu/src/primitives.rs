//! Functional device primitives: the bytes every sort, merge and partition
//! op writes.
//!
//! A modeled kernel is its cost, not its code. The duration of each sort
//! primitive of paper Table 2 comes from the calibrated cost model
//! (`msort_sim::calibrate`); the bytes come from one stable sort, whatever
//! the family, the device, or the CPU-side sort timed as PARADIS:
//!
//! | Modeled primitive | Duration | Bytes |
//! |---|---|---|
//! | Thrust (LSB radix, decoupled lookback) | `CostModel::gpu_sort`, Table 2's 36 ms | [`device_sort`] |
//! | CUB (same kernel family as Thrust) | `CostModel::gpu_sort`, 36 ms | [`device_sort`] |
//! | Stehle & Jacobsen (MSB radix) | `CostModel::gpu_sort`, 57 ms | [`device_sort`] |
//! | ModernGPU (merge sort) | `CostModel::gpu_sort`, 200 ms | [`device_sort`] |
//! | PARADIS (CPU) | `CostModel::cpu_paradis` | [`device_sort`] |
//!
//! [`device_sort`] is a ladder whose every rung is a stable sort by radix
//! image ([`msort_cpu::onesweep`]):
//!
//! | Input (keys that agree above the low `d` digits) | Rung |
//! |---|---|
//! | up to 256 keys (32-bit images), 4 Ki (64-bit) | stable comparison sort |
//! | up to 1 MiB of keys, or at most two varying digits | 8-bit LSD radix over the low `d` digits, constant digits skipped |
//! | above 1 MiB of keys with three or more varying digits | MSD scatter on the top varying digit into `aux`, each bucket back down the ladder (in cache) |
//!
//! From [`PARALLEL_MIN_KEYS`] up, with two or more workers, every sort
//! opens with the MSD scatter, its count and scatter split by stripes, and
//! the workers take whole buckets.
//! Any correct sort writes the same bytes for scalar keys, because the
//! radix image is a bijection; stability fixes the order of `Pair`
//! payloads among equal keys too, so a sort's output never depends on the
//! family that timed it, on the rung or on the pool width.

use msort_cpu::{mergesort, parallel_multiway_merge};
use msort_data::SortKey;

/// Inputs at or above this many physical keys run the parallel kernel
/// variants; below it the sequential implementations win on dispatch
/// overhead. The dispatch depends only on the input *size* (never on the
/// thread count), so a given buffer always takes the same code path.
///
/// The device sort's own parallel floor is the same 64 Ki keys
/// (`msort_cpu::onesweep`): below it a sort runs on the calling thread.
/// Probe numbers from `cargo run -p msort-bench --release --example tune`
/// on the 1-core CI container, taken with the single-pass LSD kernel the
/// device sort's top rung replaced: it ran 64 Ki u32 keys in ~480 µs, and
/// the parallel entry's overhead at pool width 1 is within noise (≤2%) at
/// every size from 16 Ki to 1 Mi, while a 2-wide pool on one hardware
/// thread is pure oversubscription (~1.4x slower) — i.e. on this box the
/// floor only needs to bound dispatch overhead, and it does; the
/// parallel win itself needs real cores.
pub const PARALLEL_MIN_KEYS: usize = 1 << 16;

/// Sort `data` in place, stably by radix image, using `aux` as scratch
/// (mirroring `thrust::sort`'s user-provided temporary storage).
pub fn device_sort<K: SortKey>(data: &mut [K], aux: &mut [K]) {
    device_sort_with(data, aux, msort_cpu::pool::threads());
}

/// [`device_sort`] with an explicit worker budget. From
/// [`PARALLEL_MIN_KEYS`] up, a budget of two or more splits the top rung
/// over the shared worker pool (a real GPU runs its sort on thousands of
/// threads). The bytes are the same at every budget.
pub fn device_sort_with<K: SortKey>(data: &mut [K], aux: &mut [K], threads: usize) {
    msort_cpu::parallel_onesweep_sort_with_aux(data, aux, threads);
}

/// Merge the sorted `runs` into `out` (`out.len()` is their total length),
/// stably: among equal keys, an earlier run's go first. Two runs (the
/// `thrust::merge` pattern) merge along merge-path diagonals, split across
/// the pool from [`PARALLEL_MIN_KEYS`] up like the per-block tiles of a
/// real GPU merge kernel; more runs take the loser tree's parallel
/// multiway merge.
pub fn device_merge<K: SortKey>(runs: &[&[K]], out: &mut [K]) {
    let [a, b] = runs else {
        parallel_multiway_merge(runs, out);
        return;
    };
    let threads = msort_cpu::pool::threads();
    if threads > 1 && out.len() >= PARALLEL_MIN_KEYS {
        mergesort::parallel_merge_into(a, b, out, threads);
    } else {
        mergesort::merge_into(a, b, out);
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
        let input: Vec<u32> = generate(Distribution::Uniform, 10_000, 3);
        let mut data = input.clone();
        let mut aux = vec![0u32; data.len()];
        device_sort(&mut data, &mut aux);
        assert!(is_sorted(&data));
        assert!(same_multiset(&input, &data));
    }

    #[test]
    fn merge_into_merges_runs() {
        let mut src: Vec<u64> = generate(Distribution::Uniform, 1000, 4);
        src[..600].sort_unstable();
        src[600..].sort_unstable();
        let mut dst = vec![0u64; 1000];
        device_merge(&[&src[..600], &src[600..]], &mut dst);
        assert!(is_sorted(&dst));
        assert!(same_multiset(&src, &dst));
    }

    #[test]
    fn aux_longer_than_data_is_fine() {
        let mut data: Vec<u32> = generate(Distribution::ReverseSorted, 100, 5);
        let mut aux = vec![0u32; 200];
        device_sort(&mut data, &mut aux);
        assert!(is_sorted(&data));
    }
}
