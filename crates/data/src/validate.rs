//! Sortedness and permutation validation used by tests, examples, and the
//! experiment harness (every simulated sort is checked for correctness on
//! its physical payload before timings are reported).
//!
//! The permutation check sorts the input's radix images — 32-bit ones with
//! its own 8-bit LSD counting sort — and compares them with the output's
//! images, which [`validate_sort`] has just shown to be in order: the
//! output is never copied or sorted. The checker is deliberately independent of the
//! kernels in `msort-cpu` (which depends on this crate, not the other way
//! round), so a kernel bug cannot be reproduced by the check that is meant
//! to catch it. It is exact: every key is compared, nothing is sampled or
//! hashed.

use crate::keys::{RadixImage, SortKey};

/// Digit width of the checker's counting sort.
const DIGIT_BITS: u32 = 8;

/// Buckets per counting pass.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Counting passes per image: the counting sort runs on 32-bit images only.
const PASSES: usize = (32 / DIGIT_BITS) as usize;

/// Fewer 32-bit images than this are sorted by comparison instead, and so
/// are 64-bit images of any count. Timed alone against `sort_unstable` on
/// the same uniform images (ns per key, best of 7, 2-core 2.1 GHz Xeon):
///
/// ```text
/// n        u32 comparison  u32 counting  u64 comparison  u64 counting (8 passes)
/// 256           11.2           13.3            7.8            16.5
/// 512            8.6            6.8            8.3            13.8
/// 4 Ki          11.3            6.9           12.0            19.4
/// 64 Ki         20.9           11.5           21.2            25.9
/// 1 Mi          27.1           29.6           27.3            81.3
/// 4 Mi          29.2           26.8           37.2            78.3
/// ```
///
/// Eight passes over 64-bit images lose at every size, by three times once
/// the images outgrow the cache.
const COUNTING_SORT_MIN_KEYS: usize = 512;

/// Outcome of a full sort validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortValidation {
    /// Output is sorted and a permutation of the input.
    Valid,
    /// Output is not in non-decreasing order; holds the first bad index.
    NotSorted {
        /// Index `i` such that `out[i] > out[i + 1]`.
        index: usize,
    },
    /// Output is sorted but is not a permutation of the input.
    NotPermutation,
    /// Output length differs from input length.
    LengthMismatch {
        /// Input length.
        expected: usize,
        /// Output length.
        actual: usize,
    },
}

impl SortValidation {
    /// `true` when the sort is fully valid.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self == SortValidation::Valid
    }
}

/// `true` iff `data` is non-decreasing in the key total order.
#[must_use]
pub fn is_sorted<K: SortKey>(data: &[K]) -> bool {
    first_unsorted_index(data).is_none()
}

/// First index `i` with `data[i] > data[i + 1]`, if any.
#[must_use]
pub fn first_unsorted_index<K: SortKey>(data: &[K]) -> Option<usize> {
    data.windows(2)
        .position(|w| w[0].to_radix() > w[1].to_radix())
}

/// `true` iff `a` and `b` contain the same keys with the same multiplicities
/// (compared by radix image, so a [`crate::Pair`]'s payload is ignored).
#[must_use]
pub fn same_multiset<K: SortKey>(a: &[K], b: &[K]) -> bool {
    a.len() == b.len() && sorted_images(a) == sorted_images(b)
}

/// The radix images of `keys` in non-decreasing order.
///
/// For 32-bit images, an 8-bit LSD counting sort: one pass over `keys`
/// fills every digit's histogram, a digit that is constant across the
/// input costs nothing more, and the first pass that moves anything
/// scatters straight from `keys`. Small inputs, 64-bit images and inputs
/// too long for `u32` counters are sorted by comparison.
pub(crate) fn sorted_images<K: SortKey>(keys: &[K]) -> Vec<K::Radix> {
    let n = keys.len();
    let n32 = match u32::try_from(n) {
        Ok(n32) if K::Radix::BITS == 32 && n >= COUNTING_SORT_MIN_KEYS => n32,
        _ => {
            let mut images: Vec<K::Radix> = keys.iter().map(|k| k.to_radix()).collect();
            images.sort_unstable();
            return images;
        }
    };

    let mut hists = [[0u32; BUCKETS]; PASSES];
    for key in keys {
        let img = key.to_radix();
        for (p, hist) in hists.iter_mut().enumerate() {
            hist[img.digit(p as u32 * DIGIT_BITS, DIGIT_BITS)] += 1;
        }
    }

    let first = keys[0].to_radix();
    // `sorted` holds the images once the first moving pass has run.
    let mut sorted: Vec<K::Radix> = Vec::new();
    let mut aux: Vec<K::Radix> = Vec::new();
    for (p, hist) in hists.iter().enumerate() {
        let shift = p as u32 * DIGIT_BITS;
        if hist[first.digit(shift, DIGIT_BITS)] == n32 {
            continue;
        }
        let mut offsets = [0u32; BUCKETS];
        let mut acc = 0u32;
        for (o, &c) in offsets.iter_mut().zip(hist) {
            *o = acc;
            acc += c;
        }
        if sorted.is_empty() {
            sorted = vec![K::Radix::zero(); n];
            scatter(
                keys.iter().map(|k| k.to_radix()),
                &mut sorted,
                shift,
                &mut offsets,
            );
        } else {
            if aux.is_empty() {
                aux = vec![K::Radix::zero(); n];
            }
            scatter(sorted.iter().copied(), &mut aux, shift, &mut offsets);
            std::mem::swap(&mut sorted, &mut aux);
        }
    }
    if sorted.is_empty() {
        // Every digit is constant: all keys are equal, so already in order.
        sorted = keys.iter().map(|k| k.to_radix()).collect();
    }
    sorted
}

/// One stable counting-sort pass: each image goes to the next free slot of
/// its digit's bucket, whose start `offsets` holds.
fn scatter<R: RadixImage>(
    src: impl Iterator<Item = R>,
    dst: &mut [R],
    shift: u32,
    offsets: &mut [u32; BUCKETS],
) {
    for img in src {
        let slot = &mut offsets[img.digit(shift, DIGIT_BITS)];
        dst[*slot as usize] = img;
        *slot += 1;
    }
}

/// Validate that `output` is a sorted permutation of `input`.
#[must_use]
pub fn validate_sort<K: SortKey>(input: &[K], output: &[K]) -> SortValidation {
    if input.len() != output.len() {
        return SortValidation::LengthMismatch {
            expected: input.len(),
            actual: output.len(),
        };
    }
    if let Some(i) = first_unsorted_index(output) {
        return SortValidation::NotSorted { index: i };
    }
    // The output is in order, so it is the input's sorted images exactly
    // when it is a permutation of the input.
    let permutation = sorted_images(input)
        .iter()
        .zip(output)
        .all(|(&img, key)| img == key.to_radix());
    if !permutation {
        return SortValidation::NotPermutation;
    }
    SortValidation::Valid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_detection() {
        assert!(is_sorted::<u32>(&[]));
        assert!(is_sorted(&[1u32]));
        assert!(is_sorted(&[1u32, 1, 2, 3]));
        assert!(!is_sorted(&[2u32, 1]));
        assert_eq!(first_unsorted_index(&[1u32, 3, 2, 4]), Some(1));
    }

    #[test]
    fn float_sortedness_uses_total_order() {
        assert!(is_sorted(&[-0.0f32, 0.0]));
        assert!(!is_sorted(&[0.0f32, -0.0]));
    }

    #[test]
    fn multiset_checks() {
        assert!(same_multiset(&[3u32, 1, 2], &[1, 2, 3]));
        assert!(!same_multiset(&[1u32, 1, 2], &[1, 2, 2]));
        assert!(!same_multiset(&[1u32], &[1, 1]));
    }

    #[test]
    fn validate_full() {
        let input = [5u32, 3, 9, 1];
        assert!(validate_sort(&input, &[1, 3, 5, 9]).is_valid());
        assert_eq!(
            validate_sort(&input, &[1, 5, 3, 9]),
            SortValidation::NotSorted { index: 1 }
        );
        assert_eq!(
            validate_sort(&input, &[1, 3, 5, 10]),
            SortValidation::NotPermutation
        );
        assert_eq!(
            validate_sort(&input, &[1, 3, 5]),
            SortValidation::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }
}
