//! Out-of-place least-significant-digit (LSB) radix sort.
//!
//! This is the algorithm family used by Thrust/CUB `sort` on GPUs and by the
//! Polychroniou & Ross CPU LSB radix sort the paper evaluates as a baseline.
//! It processes the key's radix image in fixed-width digit passes from least
//! to most significant; each pass performs a stable counting-sort scatter
//! into an auxiliary buffer. All per-pass histograms are computed in a single
//! initial scan, and passes whose digit is constant across the input are
//! skipped entirely — the same trick that lets real radix sorts adapt to
//! narrow key ranges.

use msort_data::keys::{RadixImage, SortKey};

/// Digit width in bits. 8 bits (256 buckets) is the sweet spot for cache-
/// resident histograms and matches the classic CPU implementations.
pub const DIGIT_BITS: u32 = 8;

/// Number of buckets per pass.
pub const BUCKETS: usize = 1 << DIGIT_BITS;

/// Passes needed by the widest (64-bit) radix image.
pub(crate) const MAX_PASSES: usize = 64 / DIGIT_BITS as usize;

/// Per digit position, low digit first, the bucket counts of a slice.
pub(crate) type Hists = [[u32; BUCKETS]; MAX_PASSES];

/// Sort `data` in place using LSB radix sort with a caller-provided auxiliary
/// buffer of the same length (mirrors `thrust::sort`'s pre-allocated
/// temporary storage; Section 5.1 of the paper stresses avoiding dynamic
/// allocation in the hot path).
///
/// # Panics
/// Panics if `aux.len() != data.len()`, or if `data` holds more than
/// `u32::MAX` keys (the histograms are `u32` counters on the stack).
pub fn lsb_radix_sort_with_aux<K: SortKey>(data: &mut [K], aux: &mut [K]) {
    assert_eq!(
        data.len(),
        aux.len(),
        "auxiliary buffer must match input length"
    );
    let passes = (K::Radix::BITS / DIGIT_BITS) as usize;
    // One histogram per pass, all filled in a single scan over the input.
    let mut hists: Hists = [[0; BUCKETS]; MAX_PASSES];
    count_digits(data, &mut hists[..passes]);
    // SAFETY: the counts are `data`'s, and `aux` is as long (asserted).
    unsafe { lsd_passes(data, aux, &hists[..passes], false) };
}

/// Add the counts of `keys`' digits to `hists`, one table per digit
/// position, low digit first, in a single scan.
///
/// # Panics
/// Panics if `keys` holds more than `u32::MAX` keys.
pub(crate) fn count_digits<K: SortKey>(keys: &[K], hists: &mut [[u32; BUCKETS]]) {
    assert!(
        u32::try_from(keys.len()).is_ok(),
        "LSB radix sort counts keys in u32"
    );
    // Even and odd keys count into separate tables, summed at the end: a
    // run of keys that share a digit (every key, for a constant digit)
    // then increments two counters in turn instead of waiting on one.
    let mut odd: Hists = [[0; BUCKETS]; MAX_PASSES];
    let odd = &mut odd[..hists.len()];
    let mut pairs = keys.chunks_exact(2);
    for pair in &mut pairs {
        let (even_img, odd_img) = (pair[0].to_radix(), pair[1].to_radix());
        for (p, (hist, odd_hist)) in hists.iter_mut().zip(odd.iter_mut()).enumerate() {
            let shift = p as u32 * DIGIT_BITS;
            hist[even_img.digit(shift, DIGIT_BITS)] += 1;
            odd_hist[odd_img.digit(shift, DIGIT_BITS)] += 1;
        }
    }
    for key in pairs.remainder() {
        let img = key.to_radix();
        for (p, hist) in hists.iter_mut().enumerate() {
            hist[img.digit(p as u32 * DIGIT_BITS, DIGIT_BITS)] += 1;
        }
    }
    for (hist, odd_hist) in hists.iter_mut().zip(odd.iter()) {
        for (c, &o) in hist.iter_mut().zip(odd_hist) {
            *c += o;
        }
    }
}

/// Stable LSD radix sort of `a` by the low `hists.len()` digits of each
/// key's radix image, whose counts [`count_digits`] left in `hists`,
/// landing in `b` when `into_b` and in `a` otherwise; the other slice is
/// scratch (`b.len() == a.len()`). Keys must agree on every digit above
/// those, so this is the full sort by image: the device-sort ladder
/// ([`crate::onesweep`]) calls it on buckets whose top digits an MSD
/// scatter already fixed. A digit that is constant across `a` costs no
/// pass.
///
/// # Safety
/// `hists` must be exactly what [`count_digits`] leaves for `a`, and `b`
/// must be as long as `a`: the scatters write to the slots those counts
/// assign without a bounds check.
pub(crate) unsafe fn lsd_passes<K: SortKey>(
    a: &mut [K],
    b: &mut [K],
    hists: &[[u32; BUCKETS]],
    into_b: bool,
) {
    let n = a.len();
    let mut in_a = true;
    for (p, hist) in hists.iter().enumerate() {
        if constant(hist, n) {
            continue;
        }
        let shift = p as u32 * DIGIT_BITS;
        let mut offsets = [0u32; BUCKETS];
        let mut acc = 0u32;
        for (o, &c) in offsets.iter_mut().zip(hist.iter()) {
            *o = acc;
            acc += c;
        }
        let (src, dst): (&[K], &mut [K]) = if in_a { (&*a, &mut *b) } else { (&*b, &mut *a) };
        for &key in src {
            let slot = &mut offsets[key.to_radix().digit(shift, DIGIT_BITS)];
            // SAFETY: by the function contract `offsets` is the exclusive
            // scan of this digit's counts over the keys (a permutation
            // leaves them unchanged), so the keys take the slots
            // `0..src.len()`, each once, and `dst` is as long as `src`.
            unsafe { *dst.get_unchecked_mut(*slot as usize) = key };
            *slot += 1;
        }
        in_a = !in_a;
    }

    match (in_a, into_b) {
        (true, true) => b.copy_from_slice(a),
        (false, false) => a.copy_from_slice(b),
        _ => {}
    }
}

/// `true` when one bucket of `hist` holds all `n` keys: the digit is the
/// same for every key, and a pass on it moves nothing.
pub(crate) fn constant(hist: &[u32; BUCKETS], n: usize) -> bool {
    hist.iter().any(|&c| c as usize == n)
}

/// Sort `data` in place using LSB radix sort, allocating the auxiliary
/// buffer internally.
pub fn lsb_radix_sort<K: SortKey>(data: &mut [K]) {
    if data.len() <= 1 {
        return;
    }
    let mut aux = vec![data[0]; data.len()];
    lsb_radix_sort_with_aux(data, &mut aux);
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, is_sorted, same_multiset, Distribution};

    fn check<K: SortKey>(dist: Distribution, n: usize, seed: u64) {
        let input: Vec<K> = generate(dist, n, seed);
        let mut sorted = input.clone();
        lsb_radix_sort(&mut sorted);
        assert!(is_sorted(&sorted), "{dist:?} n={n} not sorted");
        assert!(same_multiset(&input, &sorted), "{dist:?} n={n} lost keys");
    }

    #[test]
    fn sorts_u32_across_distributions() {
        for dist in Distribution::paper_set() {
            check::<u32>(dist, 10_000, 42);
        }
    }

    #[test]
    fn sorts_all_key_types() {
        check::<u32>(Distribution::Uniform, 5_000, 1);
        check::<i32>(Distribution::Uniform, 5_000, 2);
        check::<f32>(Distribution::Normal, 5_000, 3);
        check::<u64>(Distribution::Uniform, 5_000, 4);
        check::<i64>(Distribution::Uniform, 5_000, 5);
        check::<f64>(Distribution::Normal, 5_000, 6);
    }

    #[test]
    fn handles_edge_sizes() {
        check::<u32>(Distribution::Uniform, 0, 1);
        check::<u32>(Distribution::Uniform, 1, 1);
        check::<u32>(Distribution::Uniform, 2, 1);
        check::<u32>(Distribution::Uniform, 255, 1);
        check::<u32>(Distribution::Uniform, 256, 1);
        check::<u32>(Distribution::Uniform, 257, 1);
    }

    #[test]
    fn constant_input_skips_all_passes() {
        check::<u32>(Distribution::Constant, 1_000, 1);
        check::<u64>(Distribution::Constant, 1_000, 1);
    }

    #[test]
    fn duplicate_heavy_input() {
        check::<u32>(
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            20_000,
            7,
        );
    }

    #[test]
    fn narrow_range_skips_high_passes() {
        // Keys fit in one byte: three of four passes are trivial.
        let mut v: Vec<u32> = (0..1000u32).map(|i| (i * 7) % 256).collect();
        let orig = v.clone();
        lsb_radix_sort(&mut v);
        assert!(is_sorted(&v));
        assert!(same_multiset(&orig, &v));
    }

    #[test]
    #[should_panic(expected = "auxiliary buffer")]
    fn mismatched_aux_panics() {
        let mut d = [3u32, 1, 2];
        let mut aux = [0u32; 2];
        lsb_radix_sort_with_aux(&mut d, &mut aux);
    }
}
