//! Real CPU sorting and merging algorithms.
//!
//! This crate implements, from scratch, every CPU primitive the paper's
//! evaluation depends on:
//!
//! * [`lsb_radix`] — out-of-place least-significant-digit radix sort, the
//!   algorithm family behind Thrust/CUB `sort` and the Polychroniou & Ross
//!   CPU LSB radix sort used as one of the paper's CPU baselines.
//! * [`onesweep`] — OneSweep-style single-pass radix sort (one global
//!   histogram pass over all digit positions, chained-lookback scatter)
//!   behind a size ladder of stable sorts; the bytes of every simulated
//!   sort op, device or host, whatever family's cost timed it
//!   (`msort_gpu::primitives::device_sort`).
//! * [`msb_radix`] — recursive in-place most-significant-digit radix sort,
//!   the family of Stehle & Jacobsen's GPU sort. No simulated op runs it;
//!   it stays as a CPU kernel that the `kernels` benchmark times.
//! * [`mergesort`] — the merge-path two-run merge (`merge_into`,
//!   `parallel_merge_into`, `merge_path_split`) that every simulated
//!   two-run merge op runs, and bottom-up `merge_path_sort`, the family of
//!   the ModernGPU merge sort, which like [`msb_radix`] stays only as a
//!   benchmarked CPU kernel.
//! * [`paradis`] — PARADIS (Cho et al., VLDB 2015): the parallel in-place
//!   radix sort the paper uses as the state-of-the-art CPU baseline.
//! * [`multiway`] — loser-tree k-way merging and a gnu_parallel-style
//!   parallel multiway merge via multisequence selection, used by HET sort's
//!   final CPU merge phase.
//! * [`sample`] — deterministic oversampled splitter selection and the
//!   stable bucket partition (counting scatter), the host kernels behind
//!   the GPU sample sort's local partition phase.
//! * [`parsort`] — a parallel comparison sort (chunked sort + parallel
//!   multiway merge), standing in for library primitives such as
//!   `gnu_parallel::sort` / TBB `parallel_sort`.
//! * [`pool`] — the shared worker pool every parallel algorithm above runs
//!   on: one set of lazily-spawned daemon threads per process instead of a
//!   `std::thread` spawn storm per call.
//!
//! All algorithms are generic over [`msort_data::SortKey`] and sort in the
//! key's total order (floats use the IEEE total-order bit transform). They
//! are functionally exercised by the test suite against `sort_unstable` as
//! ground truth and by property tests across distributions and key types.
//!
//! ```
//! use msort_cpu::paradis_sort;
//! let mut keys = vec![5u32, 3, 9, 1, 7];
//! paradis_sort(&mut keys);
//! assert_eq!(keys, vec![1, 3, 5, 7, 9]);
//! ```

pub mod lsb_radix;
pub mod mergesort;
pub mod msb_radix;
pub mod multiway;
pub mod onesweep;
pub mod paradis;
pub mod parsort;
pub mod pool;
pub mod sample;
pub mod stream;

pub use lsb_radix::lsb_radix_sort;
pub use mergesort::{merge_path_sort, parallel_merge_into};
pub use msb_radix::msb_radix_sort;
pub use multiway::{multiway_merge, parallel_multiway_merge, LoserTree};
pub use onesweep::{
    onesweep_sort, onesweep_sort_with_aux, parallel_onesweep_sort, parallel_onesweep_sort_with_aux,
};
pub use paradis::{paradis_sort, ParadisConfig};
pub use parsort::parallel_sort;
pub use sample::{bucket_counts, bucket_of, partition_by_splitters, select_splitters, Splitter};

/// Number of worker threads to use for the parallel algorithms.
///
/// This is [`pool::threads`]: the machine's available parallelism, or the
/// `MSORT_POOL_THREADS` override. It is constant for the process lifetime,
/// so every chunking decision derived from it is reproducible run-to-run.
#[must_use]
pub fn default_threads() -> usize {
    pool::threads()
}
