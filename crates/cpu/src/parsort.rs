//! Parallel comparison sort: chunked local sorts + parallel multiway merge.
//!
//! This is the structure of the library primitives the paper benchmarks as
//! CPU baselines (`gnu_parallel::sort`, TBB `parallel_sort`, parallel
//! `std::sort`): split the input into one chunk per thread, sort chunks
//! locally, then merge them with the parallel multiway merge. The chunk
//! sorts are unstable, so `Pair` payloads among equal keys come out in an
//! order that depends on the thread count; the `cpu-baselines` experiment
//! times it, and no simulated op runs it.

use crate::multiway::{parallel_multiway_merge_with, ParallelMergeConfig};
use msort_data::SortKey;

/// Sort `data` with the default thread count.
pub fn parallel_sort<K: SortKey>(data: &mut [K]) {
    parallel_sort_with(data, crate::default_threads());
}

/// Sort `data` using `threads` worker threads.
pub fn parallel_sort_with<K: SortKey>(data: &mut [K], threads: usize) {
    let n = data.len();
    let threads = threads.max(1);
    if threads == 1 || n < 1 << 14 {
        data.sort_unstable_by(|a, b| a.total_cmp_key(b));
        return;
    }

    // Phase 1: sort one chunk per thread in place.
    let chunk_len = n.div_ceil(threads);
    crate::pool::scope(|scope| {
        for chunk in data.chunks_mut(chunk_len) {
            scope.spawn(move || chunk.sort_unstable_by(|a, b| a.total_cmp_key(b)));
        }
    });

    // Phase 2: parallel multiway merge into a temporary, then copy back.
    let mut merged = vec![data[0]; n];
    {
        let runs: Vec<&[K]> = data.chunks(chunk_len).collect();
        parallel_multiway_merge_with(
            &runs,
            &mut merged,
            ParallelMergeConfig {
                threads,
                sequential_threshold: 0,
            },
        );
    }
    data.copy_from_slice(&merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, is_sorted, same_multiset, Distribution};

    fn check(dist: Distribution, n: usize, threads: usize, seed: u64) {
        let input: Vec<u64> = generate(dist, n, seed);
        let mut sorted = input.clone();
        parallel_sort_with(&mut sorted, threads);
        assert!(is_sorted(&sorted), "{dist:?} n={n} threads={threads}");
        assert!(same_multiset(&input, &sorted));
    }

    #[test]
    fn sorts_large_parallel() {
        check(Distribution::Uniform, 100_000, 4, 1);
        check(Distribution::ReverseSorted, 50_000, 3, 2);
    }

    #[test]
    fn sorts_small_sequential_path() {
        check(Distribution::Uniform, 100, 4, 3);
        check(Distribution::Uniform, 0, 4, 3);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let input: Vec<u32> = generate(Distribution::Uniform, 60_000, 9);
        let mut a = input.clone();
        let mut b = input.clone();
        parallel_sort_with(&mut a, 1);
        parallel_sort_with(&mut b, 5);
        assert_eq!(a, b);
    }
}
