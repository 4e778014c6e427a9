//! Bottom-up merge sort with merge-path splitting.
//!
//! This is the algorithm family of the ModernGPU merge sort the paper
//! benchmarks in Table 2 (and loses to radix sort by 5.5×). Runs are doubled
//! bottom-up; each pairwise merge is split into equal-output-size segments by
//! the *merge path* diagonal search (Green, McColl & Bader, ICS 2012 — the
//! same primitive the paper cites for GPU merging), which is what makes the
//! algorithm massively parallel on a real GPU. Here the segments are merged
//! sequentially, but the diagonal search is real and separately tested
//! because the GPU runtime uses it for its merge primitive too.

use msort_data::SortKey;

/// Output segment size used when splitting merges along the merge path; on a
/// GPU this corresponds to the tile processed by one thread block.
const MERGE_SEGMENT: usize = 4096;

/// Sort `data` with bottom-up merge-path merge sort.
pub fn merge_path_sort<K: SortKey>(data: &mut [K]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut aux: Vec<K> = data.to_vec();
    let mut width = 1usize;
    let mut in_data = true;
    while width < n {
        {
            let (src, dst): (&[K], &mut [K]) = if in_data {
                (&*data, &mut aux[..])
            } else {
                (&aux, &mut *data)
            };
            let mut lo = 0usize;
            while lo < n {
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                merge_into(&src[lo..mid], &src[mid..hi], &mut dst[lo..hi]);
                lo = hi;
            }
        }
        in_data = !in_data;
        width *= 2;
    }
    if !in_data {
        data.copy_from_slice(&aux);
    }
}

/// [`merge_into`] parallelized over the shared worker pool: the output is
/// split into one part per thread along merge-path diagonals; each worker
/// merges its disjoint input windows into its disjoint output part. The
/// diagonal split is stable (ties from `a`), so the output is identical to
/// the sequential merge.
pub fn parallel_merge_into<K: SortKey>(a: &[K], b: &[K], out: &mut [K], threads: usize) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let total = out.len();
    let threads = threads.max(1).min(total.max(1));
    if threads == 1 || total < 1 << 14 {
        merge_into(a, b, out);
        return;
    }
    crate::pool::scope(|scope| {
        let mut rest = out;
        let (mut ai, mut bi) = (0usize, 0usize);
        for t in 0..threads {
            let hi_d = (t + 1) * total / threads;
            let (na, nb) = merge_path_split(a, b, hi_d);
            let (part, tail) = rest.split_at_mut(hi_d - (ai + bi));
            rest = tail;
            let (pa, pb) = (&a[ai..na], &b[bi..nb]);
            scope.spawn(move || merge_into(pa, pb, part));
            ai = na;
            bi = nb;
        }
    });
}

/// Merge two sorted runs into `out`, splitting the output into
/// [`MERGE_SEGMENT`]-sized pieces along the merge path.
pub fn merge_into<K: SortKey>(a: &[K], b: &[K], out: &mut [K]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let total = out.len();
    let mut done = 0usize;
    let (mut ai, mut bi) = (0usize, 0usize);
    while done < total {
        let next = (done + MERGE_SEGMENT).min(total);
        let (na, nb) = merge_path_split(a, b, next);
        merge_segment(&a[ai..na], &b[bi..nb], &mut out[done..next]);
        ai = na;
        bi = nb;
        done = next;
    }
}

/// Find the merge-path split for output diagonal `d`: the pair `(i, j)` with
/// `i + j == d` such that merging `a[..i]` and `b[..j]` yields exactly the
/// first `d` output elements. Stable: ties take from `a` first.
#[must_use]
pub fn merge_path_split<K: SortKey>(a: &[K], b: &[K], d: usize) -> (usize, usize) {
    debug_assert!(d <= a.len() + b.len());
    // Binary search over i in [max(0, d - |b|), min(d, |a|)].
    let mut lo = d.saturating_sub(b.len());
    let mut hi = d.min(a.len());
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = d - i;
        // For a stable merge, a[i] goes before b[j-1] iff a[i] <= ... :
        // the split is valid when a[i-1] <= b[j] (a side ok) and
        // b[j-1] < a[i] (b side ok, strict for stability).
        if j > 0 && i < a.len() && b[j - 1].to_radix() >= a[i].to_radix() {
            // Too few elements taken from a (stability: ties come from a).
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let i = lo;
    (i, d - i)
}

/// Branchless two-way merge of complete runs.
///
/// Inside the diagonal-partitioned window the selection is a conditional
/// move, not a branch: the comparison result drives both the value store
/// and the cursor advances as data, so a branch predictor facing
/// comparison-random keys (50% mispredict on uniform inputs) never stalls
/// the loop. There is no per-element bounds test either — the merge-path
/// split guarantees both runs are consumed exactly, so the loop runs while
/// both cursors are in range and the leftover run is bulk-copied.
fn merge_segment<K: SortKey>(a: &[K], b: &[K], out: &mut [K]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (na, nb) = (a.len(), b.len());
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < na && j < nb {
        // SAFETY: the loop condition guarantees i < na and j < nb, and
        // k = i + j < na + nb = out.len().
        unsafe {
            let av = *a.get_unchecked(i);
            let bv = *b.get_unchecked(j);
            // Ties take from `a` — the stability rule every split assumes.
            let take_a = av.to_radix() <= bv.to_radix();
            *out.get_unchecked_mut(k) = if take_a { av } else { bv };
            i += usize::from(take_a);
            j += usize::from(!take_a);
        }
        k += 1;
    }
    out[k..k + (na - i)].copy_from_slice(&a[i..]);
    out[k + (na - i)..].copy_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, is_sorted, same_multiset, Distribution};

    fn check<K: SortKey>(dist: Distribution, n: usize, seed: u64) {
        let input: Vec<K> = generate(dist, n, seed);
        let mut sorted = input.clone();
        merge_path_sort(&mut sorted);
        assert!(is_sorted(&sorted), "{dist:?} n={n} not sorted");
        assert!(same_multiset(&input, &sorted), "{dist:?} n={n} lost keys");
    }

    #[test]
    fn sorts_across_distributions() {
        for dist in Distribution::paper_set() {
            check::<u32>(dist, 10_000, 21);
        }
    }

    #[test]
    fn sorts_key_types_and_edges() {
        check::<f64>(Distribution::Normal, 3_000, 1);
        check::<i64>(Distribution::Uniform, 3_000, 2);
        check::<u32>(Distribution::Uniform, 0, 3);
        check::<u32>(Distribution::Uniform, 1, 3);
        check::<u32>(Distribution::Uniform, 2, 3);
        check::<u32>(Distribution::Uniform, MERGE_SEGMENT * 3 + 17, 3);
    }

    #[test]
    fn merge_path_split_properties() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9];
        let b: Vec<u32> = vec![2, 4, 6, 8];
        for d in 0..=a.len() + b.len() {
            let (i, j) = merge_path_split(&a, &b, d);
            assert_eq!(i + j, d);
            // Everything taken sorts at or before everything not taken.
            if i > 0 && j < b.len() {
                assert!(a[i - 1] <= b[j]);
            }
            if j > 0 && i < a.len() {
                assert!(b[j - 1] <= a[i]);
            }
        }
    }

    #[test]
    fn merge_path_split_duplicates_stable() {
        let a: Vec<u32> = vec![5, 5, 5];
        let b: Vec<u32> = vec![5, 5];
        // With all-equal keys and stability, splits take from `a` first.
        assert_eq!(merge_path_split(&a, &b, 2), (2, 0));
        assert_eq!(merge_path_split(&a, &b, 4), (3, 1));
    }

    #[test]
    fn parallel_merge_into_matches_sequential_exactly() {
        let mut a: Vec<u32> = generate(
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            40_000,
            31,
        );
        let mut b: Vec<u32> = generate(
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            25_000,
            32,
        );
        a.sort_unstable();
        b.sort_unstable();
        let mut seq = vec![0u32; a.len() + b.len()];
        let mut par = vec![0u32; a.len() + b.len()];
        merge_into(&a, &b, &mut seq);
        parallel_merge_into(&a, &b, &mut par, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_merge_small_inputs_take_sequential_path() {
        let a: Vec<u32> = vec![1, 4, 6];
        let b: Vec<u32> = vec![2, 3, 5];
        let mut out = vec![0u32; 6];
        parallel_merge_into(&a, &b, &mut out, 8);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_into_merges() {
        let a: Vec<u32> = (0..5000).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..5000).map(|x| x * 2 + 1).collect();
        let mut out = vec![0u32; 10_000];
        merge_into(&a, &b, &mut out);
        assert!(is_sorted(&out));
        assert_eq!(out[0], 0);
        assert_eq!(out[9999], 9999);
    }
}
