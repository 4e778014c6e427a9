//! The device-sort ladder: one stable sort by radix image, whose rung
//! depends on the input alone.
//!
//! Every simulated sort op writes its bytes with this ladder
//! (`msort_gpu::primitives::device_sort`). Its top rung is a
//! most-significant-digit radix sort whose buckets finish in cache, the
//! shape of Stehle & Jacobsen's hybrid MSB radix sort and of GPU sample
//! sort (Leischner et al.): split the keys into buckets that fit fast
//! memory, then finish each bucket there. Every pass works on 8-bit digits
//! of the key's radix image. A slice whose keys agree on every digit above
//! the low `d` takes one of three rungs:
//!
//! * **comparison:** up to a floor per image width (`COMPARISON_MAX_32`,
//!   `COMPARISON_MAX_64`, whose docs hold the probe numbers), a stable
//!   comparison sort on the image;
//! * **LSD:** up to the cache budget ([`CACHE_BYTES`] of keys), the 8-bit
//!   LSD radix sort over the low `d` digits ([`crate::lsb_radix`]): one
//!   scan counts them all, and a digit that is constant across the slice
//!   costs no pass. A slice of any size on which at most two digits vary
//!   (a Zipf input's 1 024 values, keys of one repeated value) takes it
//!   too: two passes cost no more than a scatter and a pass over its
//!   buckets;
//! * **MSD (the top rung):** above the budget, the same scan picks the
//!   highest digit that is not constant, and one stable scatter by it moves
//!   the keys into the scratch buffer. Each bucket then takes its own rung
//!   over the digits below, with the two buffers' roles swapped, so that it
//!   lands where the caller wants it. A bucket still over the budget
//!   recurses one more MSD level.
//!
//! An input above the budget thus streams through DRAM about twice, once
//! for the count and once for the scatter, after which each bucket is
//! read, sorted and written back while it is cache resident. The
//! single-pass LSD kernel this replaced (OneSweep-style: one histogram
//! scan, then three 2 048-bucket scatters of the whole array) streamed it
//! four times: 24–34 ns per key at 2^19–2^22 u32 keys against 8 at 2^16.
//!
//! [`parallel_onesweep_sort_with_aux`] splits the work over the pool from
//! 64 Ki keys up: it always opens with the MSD scatter, each worker
//! counting and scattering one stripe of the input (a stripe's offsets are
//! the bucket's base plus the earlier stripes' counts), and then the
//! workers take whole buckets, largest first, down the sequential ladder.
//!
//! Determinism: every rung is a stable sort by radix image, and a stable
//! sort has one output, so neither the rung an input takes, nor the pool
//! width, nor the stripe count ever shows in the bytes, `Pair` payloads
//! among equal keys included. That is the property `tests/golden.rs` pins
//! at pool widths 1 and 2. The entry points keep the `onesweep` names of
//! the kernel this ladder replaced.

use crate::lsb_radix::{
    constant, count_digits, lsd_passes, Hists, BUCKETS, DIGIT_BITS, MAX_PASSES,
};
use msort_data::keys::{RadixImage, SortKey};
use std::sync::Mutex;

/// The cache budget in bytes: a slice of at most this many bytes of keys
/// finishes with the in-cache LSD rung, and a longer one takes an MSD
/// scatter first. 1 MiB of keys and 1 MiB of scratch fit the 2–4 MiB
/// per-core L2 of the hosts measured; that is 256 Ki 32-bit keys and 128 Ki
/// 64-bit keys or `Pair<u32>`s. Probe (`cargo run -p msort-bench --release
/// --example tune -- budget`, 2-core host, uniform keys, ns per key; `lsd8`
/// is the LSD rung over the whole slice, `device` the ladder with an MSD
/// scatter from 64 Ki keys up):
///
/// ```text
/// u32 n=2^16: lsd8  7.37, device  7.82
/// u32 n=2^17: lsd8  8.06, device  8.95
/// u32 n=2^18: lsd8 10.49, device 11.22
/// u32 n=2^19: lsd8 11.88, device 11.91
/// u32 n=2^20: lsd8 20.65, device 13.33
/// u64 n=2^16: lsd8 17.02, device 17.04
/// u64 n=2^17: lsd8 23.96, device 29.00
/// u64 n=2^18: lsd8 30.68, device 27.05
/// u64 n=2^20: lsd8 75.51, device 31.14
/// ```
///
/// The LSD rung wins while the slice and its scratch stay in L2, up to
/// 1 MiB of keys at either width, and the MSD rung wins past it.
pub const CACHE_BYTES: usize = 1 << 20;

/// The cache budget in keys of `K`.
fn cache_keys<K>() -> usize {
    CACHE_BYTES / std::mem::size_of::<K>().max(1)
}

/// Below this many keys the parallel entry point runs the sequential
/// ladder: a smaller input has too little to split over the pool.
const PARALLEL_FLOOR: usize = 1 << 16;

/// At or below this many keys with a 32-bit image (`u32`, `i32`, `f32`,
/// `Pair` of those), the ladder takes a stable comparison sort on the
/// image; above it the 8-bit LSD rung.
///
/// Rule for the comparison floors: the largest power of two at which the
/// comparison sort still wins, from `cargo run -p msort-bench --release
/// --example tune -- small` on the 2-core CI container, uniform keys, ns
/// per key, median of 7 (`device` here is the single-pass LSD kernel the
/// top rung replaced):
///
/// ```text
/// n=     128: stable  10.04, unstable   8.79, lsd8  13.52, device  67.42
/// n=     256: stable  13.59, unstable  11.58, lsd8   9.91, device  37.62
/// n=     512: stable  12.44, unstable  11.10, lsd8  12.29, device  28.28
/// n=    1024: stable  16.76, unstable  15.53, lsd8   9.19, device  17.34
/// n=    2048: stable  16.02, unstable  14.28, lsd8   9.46, device  13.09
/// n=    8192: stable  22.38, unstable  12.74, lsd8   7.88, device   9.75
/// n=   65536: stable  26.97, unstable  20.45, lsd8   8.30, device  15.29
/// ```
///
/// Between 128 and 512 keys the two are within a few ns per key of each
/// other either way, so the floor was settled in place, on `perf
/// --workload serve_overload --seconds 4` (whose device sorts are 512 and
/// 2 048 keys), alternating eight pairs per comparison: a floor of 256
/// beats 1 Ki by 4.0 % in median `wall_s` (7 of 8 pairs) and ties 128
/// (−0.6 %, 4 of 8).
const COMPARISON_MAX_32: usize = 1 << 8;

/// [`COMPARISON_MAX_32`] for 64-bit images (`u64`, `i64`, `f64`, `Pair` of
/// those). Same rule and probe:
///
/// ```text
/// n=     512: stable  14.72, unstable  11.73, lsd8  20.96, device  49.39
/// n=    2048: stable  17.24, unstable  13.29, lsd8  18.44, device  27.98
/// n=    4096: stable  20.29, unstable  19.18, lsd8  21.46, device  26.27
/// n=    8192: stable  22.79, unstable  16.65, lsd8  26.97, device  29.56
/// n=   32768: stable  30.19, unstable  21.62, lsd8  19.88, device  29.08
/// n=   65536: stable  32.49, unstable  23.36, lsd8  20.63, device  29.04
/// Kv64:
/// n=    4096: stable  29.50, unstable  21.60, lsd8  29.86, device  36.75
/// n=    8192: stable  48.40, unstable  33.56, lsd8  26.72, device  31.23
/// ```
///
/// Eight digit passes make LSD8 two to three times slower than a
/// comparison sort below 1 Ki keys. The stable sort ties with LSD8 at
/// 4 Ki keys and is 1.5 to 2 times slower from 8 Ki up, so the floor is
/// 4 Ki.
const COMPARISON_MAX_64: usize = 1 << 12;

/// Digits of `K`'s radix image.
fn digits<K: SortKey>() -> usize {
    (K::Radix::BITS / DIGIT_BITS) as usize
}

/// Sort `data` in place with the device-sort ladder, allocating the
/// auxiliary buffer internally.
pub fn onesweep_sort<K: SortKey>(data: &mut [K]) {
    if data.len() <= 1 {
        return;
    }
    let mut aux = vec![data[0]; data.len()];
    onesweep_sort_with_aux(data, &mut aux);
}

/// Sort `data` in place, stably by radix image, with the sequential
/// device-sort ladder (module docs) and a caller-provided auxiliary
/// buffer (`aux.len() >= data.len()`).
///
/// # Panics
/// Panics if `aux.len() < data.len()`.
pub fn onesweep_sort_with_aux<K: SortKey>(data: &mut [K], aux: &mut [K]) {
    let n = data.len();
    assert!(
        aux.len() >= n,
        "auxiliary buffer must cover the input length"
    );
    sort_rung(data, &mut aux[..n], digits::<K>(), false);
}

/// Sort `data` in place with the ladder, its top rung split over `threads`
/// pool workers. The output is bit-identical at every width.
pub fn parallel_onesweep_sort<K: SortKey>(data: &mut [K], threads: usize) {
    if data.len() <= 1 {
        return;
    }
    let mut aux = vec![data[0]; data.len()];
    parallel_onesweep_sort_with_aux(data, &mut aux, threads);
}

/// [`parallel_onesweep_sort`] with a caller-provided auxiliary buffer
/// (`aux.len() >= data.len()`), so the GPU runtime's device-style scratch
/// allocations are reused instead of reallocated. Up to the parallel floor,
/// or with one worker, this is [`onesweep_sort_with_aux`].
///
/// # Panics
/// Panics if `aux.len() < data.len()`.
pub fn parallel_onesweep_sort_with_aux<K: SortKey>(data: &mut [K], aux: &mut [K], threads: usize) {
    let n = data.len();
    assert!(
        aux.len() >= n,
        "auxiliary buffer must cover the input length"
    );
    assert!(
        u32::try_from(n).is_ok(),
        "the device-sort ladder counts keys in u32"
    );
    let aux = &mut aux[..n];
    let digits = digits::<K>();
    if threads <= 1 || n <= PARALLEL_FLOOR {
        sort_rung(data, aux, digits, false);
        return;
    }

    // Count every digit, one stripe per worker.
    let stripe = n.div_ceil(threads);
    let mut stripe_hists: Vec<Hists> = vec![[[0; BUCKETS]; MAX_PASSES]; n.div_ceil(stripe)];
    crate::pool::scope(|scope| {
        for (chunk, hists) in data.chunks(stripe).zip(stripe_hists.iter_mut()) {
            scope.spawn(move || count_digits(chunk, &mut hists[..digits]));
        }
    });
    let mut totals: Hists = [[0; BUCKETS]; MAX_PASSES];
    for hists in &stripe_hists {
        for (total, hist) in totals.iter_mut().zip(hists) {
            for (t, &c) in total.iter_mut().zip(hist) {
                *t += c;
            }
        }
    }
    let Some(p) = top_varying_digit(&totals[..digits], n) else {
        return;
    };

    // Stable scatter into `aux`: stripe s writes bucket b from the bucket's
    // base plus the counts of stripes 0..s.
    let shift = p as u32 * DIGIT_BITS;
    let mut next = exclusive_scan(&totals[p]);
    let offsets: Vec<[usize; BUCKETS]> = stripe_hists
        .iter()
        .map(|hists| {
            let start = next;
            for (o, &c) in next.iter_mut().zip(&hists[p]) {
                *o += c as usize;
            }
            start
        })
        .collect();
    let dst = SendPtr(aux.as_mut_ptr());
    crate::pool::scope(|scope| {
        for (chunk, mut offsets) in data.chunks(stripe).zip(offsets) {
            // SAFETY: stripe s owns [base[b] + earlier[b], base[b] +
            // earlier[b] + own[b]) of every bucket b; these ranges are
            // disjoint across stripes and in bounds of the length-n `aux`.
            scope.spawn(move || unsafe { scatter(chunk, dst, shift, &mut offsets) });
        }
    });

    // Finish the buckets, largest first, each landing back in `data`.
    let mut buckets = split_buckets(aux, data, &totals[p]);
    buckets.sort_by_key(|(a, _)| a.len());
    let queue = Mutex::new(buckets);
    crate::pool::scope(|scope| {
        for _ in 0..threads {
            let queue = &queue;
            scope.spawn(move || loop {
                let next = queue
                    .lock()
                    .expect("no worker panics while holding the bucket queue")
                    .pop();
                let Some((bucket, out)) = next else {
                    break;
                };
                sort_rung(bucket, out, p, true);
            });
        }
    });
}

/// Sort `a` stably by the low `digits` digits of the radix image, landing
/// in `b` when `into_b` and in `a` otherwise (`b.len() == a.len()`; the
/// other slice is scratch). Every key of `a` must agree on the digits above
/// the low `digits`. The rung follows the module docs.
fn sort_rung<K: SortKey>(a: &mut [K], b: &mut [K], digits: usize, into_b: bool) {
    let n = a.len();
    assert_eq!(b.len(), n, "scratch must match the slice");
    let comparison_max = if K::Radix::BITS == 32 {
        COMPARISON_MAX_32
    } else {
        COMPARISON_MAX_64
    };
    if n <= comparison_max {
        let out = if into_b {
            b.copy_from_slice(a);
            b
        } else {
            a
        };
        out.sort_by_key(|k| k.to_radix());
        return;
    }

    let mut hists: Hists = [[0; BUCKETS]; MAX_PASSES];
    count_digits(a, &mut hists[..digits]);
    let hists = &hists[..digits];
    // Two varying digits cost two LSD passes wherever the slice lives, no
    // more than an MSD scatter and a pass over its buckets.
    let varying = hists.iter().filter(|h| !constant(h, n)).count();
    if n <= cache_keys::<K>() || varying <= 2 {
        // SAFETY: the counts are `a`'s, and `b` is as long (asserted).
        unsafe { lsd_passes(a, b, hists, into_b) };
        return;
    }
    let p = top_varying_digit(hists, n).expect("more than two digits vary");
    let mut offsets = exclusive_scan(&hists[p]);
    // SAFETY: `offsets` is the exclusive scan of this digit's counts over
    // `a`, so every key takes a distinct slot of `b`, which is as long.
    unsafe {
        scatter(
            a,
            SendPtr(b.as_mut_ptr()),
            p as u32 * DIGIT_BITS,
            &mut offsets,
        )
    };
    // The buckets now sit in `b`: landing in `b` is landing in place.
    for (bucket, other) in split_buckets(b, a, &hists[p]) {
        sort_rung(bucket, other, p, !into_b);
    }
}

/// The highest digit position whose histogram spreads the `n` keys over
/// more than one bucket; `None` when every key has the same image.
fn top_varying_digit(hists: &[[u32; BUCKETS]], n: usize) -> Option<usize> {
    hists.iter().rposition(|hist| !constant(hist, n))
}

/// Exclusive prefix scan of a histogram: each bucket's first slot.
fn exclusive_scan(hist: &[u32; BUCKETS]) -> [usize; BUCKETS] {
    let mut out = [0; BUCKETS];
    let mut acc = 0;
    for (o, &c) in out.iter_mut().zip(hist) {
        *o = acc;
        acc += c as usize;
    }
    out
}

/// Cut `a` and `b` alike into the non-empty buckets that `hist` counts.
fn split_buckets<'a, K>(
    mut a: &'a mut [K],
    mut b: &'a mut [K],
    hist: &[u32; BUCKETS],
) -> Vec<(&'a mut [K], &'a mut [K])> {
    let mut buckets = Vec::new();
    for &count in hist.iter().filter(|&&c| c > 0) {
        let (head_a, tail_a) = std::mem::take(&mut a).split_at_mut(count as usize);
        let (head_b, tail_b) = std::mem::take(&mut b).split_at_mut(count as usize);
        buckets.push((head_a, head_b));
        a = tail_a;
        b = tail_b;
    }
    buckets
}

/// Stable one-key-at-a-time scatter of `src` into `dst`. `offsets[d]` must
/// be the absolute destination index of the next key with digit `d`; on
/// return `offsets` is advanced past every scattered key.
///
/// # Safety
/// For every key, the destination slot `offsets[digit]` (as advanced by the
/// scatter) must be in bounds of `dst` and not written by anyone else.
unsafe fn scatter<K: SortKey>(src: &[K], dst: SendPtr<K>, shift: u32, offsets: &mut [usize]) {
    for &key in src {
        let d = key.to_radix().digit(shift, DIGIT_BITS);
        // SAFETY: per the function contract the slot is in bounds and
        // exclusively ours.
        unsafe { dst.write(offsets[d], key) };
        offsets[d] += 1;
    }
}

/// `Send` raw-pointer wrapper for the stripes' disjoint-region scatters.
/// Accessed only through [`SendPtr::write`], so closures capture the
/// wrapper, not the raw pointer (edition-2021 closures capture individual
/// fields).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

// SAFETY: dereferences are guarded by region disjointness at the use site.
unsafe impl<T: Send> Send for SendPtr<T> {}

impl<T: Copy> SendPtr<T> {
    /// # Safety
    /// `i` must be in bounds and no other thread may write slot `i`.
    #[inline]
    unsafe fn write(self, i: usize, v: T) {
        unsafe { self.0.add(i).write(v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, is_sorted, same_multiset, Distribution};

    fn check<K: SortKey + PartialEq>(dist: Distribution, n: usize, seed: u64) {
        let input: Vec<K> = generate(dist, n, seed);
        let mut seq = input.clone();
        onesweep_sort(&mut seq);
        assert!(is_sorted(&seq), "{dist:?} n={n} not sorted");
        assert!(same_multiset(&input, &seq), "{dist:?} n={n} lost keys");
        for threads in [2usize, 4] {
            let mut par = input.clone();
            parallel_onesweep_sort(&mut par, threads);
            assert_eq!(par, seq, "{dist:?} n={n} threads={threads} differs");
        }
    }

    /// Above the cache budget, so the MSD rung runs.
    const PASSES_N: usize = PARALLEL_FLOOR + 20_000;

    #[test]
    fn sorts_across_distributions() {
        for dist in Distribution::paper_set() {
            check::<u32>(dist, PASSES_N, 42);
        }
    }

    #[test]
    fn sorts_all_key_types() {
        check::<u32>(Distribution::Uniform, PASSES_N, 1);
        check::<i32>(Distribution::Uniform, PASSES_N, 2);
        check::<f32>(Distribution::Normal, PASSES_N, 3);
        check::<u64>(Distribution::Uniform, PASSES_N, 4);
        check::<i64>(Distribution::Uniform, PASSES_N, 5);
        check::<f64>(Distribution::Normal, PASSES_N, 6);
    }

    #[test]
    fn handles_edge_sizes() {
        for n in [
            0,
            1,
            2,
            255,
            256,
            257,
            PARALLEL_FLOOR - 1,
            PARALLEL_FLOOR,
            PARALLEL_FLOOR + 1,
            PARALLEL_FLOOR + 2,
        ] {
            check::<u32>(Distribution::Uniform, n, 7);
        }
    }

    #[test]
    fn msd_recursion_exercised() {
        // Keys below 2^16 leave the top digits constant, so the top rung
        // scatters on a lower digit; 2^24 keys of one top byte make a bucket
        // over the budget, so the MSD level recurses.
        check::<u32>(Distribution::Uniform, cache_keys::<u32>() + 123, 8);
        let input: Vec<u64> = generate(Distribution::Uniform, 2 * cache_keys::<u64>() + 45, 9);
        let narrow: Vec<u64> = input.iter().map(|k| k >> 48).collect();
        let mut one_top: Vec<u64> = input.iter().map(|k| k >> 8).collect();
        let mut expected = one_top.clone();
        expected.sort_unstable();
        onesweep_sort(&mut one_top);
        assert_eq!(one_top, expected);
        let mut a = narrow.clone();
        let mut b = narrow.clone();
        let mut c = narrow;
        onesweep_sort(&mut a);
        parallel_onesweep_sort(&mut b, 3);
        crate::lsb_radix::lsb_radix_sort(&mut c);
        assert_eq!(a, c);
        assert_eq!(b, c);
        assert!(is_sorted(&a));
    }

    #[test]
    fn matches_lsb_radix_exactly() {
        // A stable sort by radix image has one output: the ladder must agree
        // with the 8-bit LSB kernel bit for bit.
        for dist in [
            Distribution::Uniform,
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
        ] {
            let input: Vec<u64> = generate(dist, 150_000, 10);
            let mut a = input.clone();
            let mut b = input;
            onesweep_sort(&mut a);
            crate::lsb_radix::lsb_radix_sort(&mut b);
            assert_eq!(a, b, "{dist:?}");
        }
    }

    #[test]
    fn constant_input_skips_all_passes() {
        check::<u32>(Distribution::Constant, PASSES_N, 11);
        check::<u64>(Distribution::Constant, 200_000, 12);
    }

    #[test]
    fn narrow_range_skips_high_passes() {
        let mut v: Vec<u32> = (0..100_000u32).map(|i| (i * 7) % 1024).collect();
        let orig = v.clone();
        parallel_onesweep_sort(&mut v, 4);
        assert!(is_sorted(&v));
        assert!(same_multiset(&orig, &v));
    }

    #[test]
    fn with_aux_accepts_oversized_scratch() {
        let input: Vec<u32> = generate(Distribution::Uniform, PASSES_N, 13);
        let mut a = input.clone();
        let mut b = input;
        let mut aux = vec![0u32; a.len() + 77];
        parallel_onesweep_sort_with_aux(&mut a, &mut aux, 4);
        parallel_onesweep_sort(&mut b, 4);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "auxiliary buffer")]
    fn short_aux_panics() {
        let mut d = [3u32, 1, 2];
        let mut aux = [0u32; 2];
        onesweep_sort_with_aux(&mut d, &mut aux);
    }

    #[test]
    fn more_threads_than_buckets() {
        // Three distinct keys: three buckets for four workers.
        let input: Vec<u32> = (0..PARALLEL_FLOOR as u32 + 17)
            .map(|i| (i % 3) << 30)
            .collect();
        let mut a = input.clone();
        parallel_onesweep_sort(&mut a, 4);
        let mut b = input;
        b.sort_unstable();
        assert_eq!(a, b);
        check::<u32>(Distribution::Uniform, PARALLEL_FLOOR + 17, 14);
    }
}
