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
const MAX_PASSES: usize = 64 / DIGIT_BITS as usize;

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
    let n = u32::try_from(data.len()).expect("LSB radix sort counts keys in u32");
    if n <= 1 {
        return;
    }

    let passes = (K::Radix::BITS / DIGIT_BITS) as usize;
    // One histogram per pass, all filled in a single scan over the input.
    let mut hists = [[0u32; BUCKETS]; MAX_PASSES];
    for key in data.iter() {
        let img = key.to_radix();
        for (p, hist) in hists[..passes].iter_mut().enumerate() {
            hist[img.digit(p as u32 * DIGIT_BITS, DIGIT_BITS)] += 1;
        }
    }

    // Ping-pong between `data` and `aux`; track which buffer currently holds
    // the keys so we can skip trivial passes without copying.
    let first = data[0].to_radix();
    let mut in_data = true;
    for (p, hist) in hists[..passes].iter().enumerate() {
        let shift = p as u32 * DIGIT_BITS;
        // A pass is trivial when one bucket holds everything; if one does,
        // it is the bucket of every key, the first included.
        if hist[first.digit(shift, DIGIT_BITS)] == n {
            continue;
        }
        let mut offsets = [0u32; BUCKETS];
        let mut acc = 0u32;
        for (o, &c) in offsets.iter_mut().zip(hist.iter()) {
            *o = acc;
            acc += c;
        }
        let (src, dst): (&mut [K], &mut [K]) = if in_data { (data, aux) } else { (aux, data) };
        for &key in src.iter() {
            let slot = &mut offsets[key.to_radix().digit(shift, DIGIT_BITS)];
            dst[*slot as usize] = key;
            *slot += 1;
        }
        in_data = !in_data;
    }

    if !in_data {
        data.copy_from_slice(aux);
    }
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
