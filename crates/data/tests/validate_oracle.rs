//! The validator against a comparison-sort oracle.
//!
//! `validate_sort` and `same_multiset` sort radix images with their own
//! counting sort (32-bit images of 512 keys and more; a comparison sort
//! otherwise). Here both are held to
//! the obvious definition — sort both sides' images with `sort_unstable`
//! and compare — on every distribution, on lengths either side of the
//! cutoff, and on outputs that are correct or broken in one of three ways:
//! one key bumped to the next image, one key overwritten by a copy of
//! another, one adjacent pair swapped. Some of the mutations leave the
//! output valid (a bump of the largest image that wraps onto an equal key,
//! a swap of equal keys); the oracle decides, not the mutation.

use msort_data::keys::RadixImage;
use msort_data::{
    generate, same_multiset, validate_sort, Distribution, Pair, Rng, SortKey, SortValidation,
};

/// Every distribution, then uniform keys shrunk onto five images (`true`),
/// so that nearly every key ties with another.
const CASES: [(Distribution, bool); 9] = [
    (Distribution::Uniform, false),
    (Distribution::Normal, false),
    (Distribution::Sorted, false),
    (Distribution::ReverseSorted, false),
    (Distribution::NearlySorted, false),
    (Distribution::ZipfDuplicates { skew_permille: 800 }, false),
    (
        Distribution::ZipfDuplicates {
            skew_permille: 1500,
        },
        false,
    ),
    (Distribution::Constant, false),
    (Distribution::Uniform, true),
];

/// Lengths around the checker's comparison cutoff (512) and the other
/// powers of two, then a spread up to ~5 000.
const LENGTHS: [usize; 17] = [
    0, 1, 2, 3, 17, 255, 256, 257, 511, 512, 513, 1000, 1023, 1025, 2049, 4096, 4999,
];

fn images<K: SortKey>(keys: &[K]) -> Vec<K::Radix> {
    keys.iter().map(|k| k.to_radix()).collect()
}

fn oracle_multiset<K: SortKey>(a: &[K], b: &[K]) -> bool {
    let (mut ia, mut ib) = (images(a), images(b));
    ia.sort_unstable();
    ib.sort_unstable();
    ia == ib
}

fn oracle_validate<K: SortKey>(input: &[K], output: &[K]) -> SortValidation {
    if input.len() != output.len() {
        return SortValidation::LengthMismatch {
            expected: input.len(),
            actual: output.len(),
        };
    }
    if let Some(index) = output
        .windows(2)
        .position(|w| w[0].to_radix() > w[1].to_radix())
    {
        return SortValidation::NotSorted { index };
    }
    if oracle_multiset(input, output) {
        SortValidation::Valid
    } else {
        SortValidation::NotPermutation
    }
}

/// The correct output and its three one-step mutations at random places.
fn outputs<K: SortKey>(input: &[K], rng: &mut Rng) -> Vec<Vec<K>> {
    let mut sorted = input.to_vec();
    sorted.sort_by_key(|k| k.to_radix());
    let mut out = vec![sorted.clone()];
    if sorted.is_empty() {
        return out;
    }
    let n = sorted.len();

    let mut bumped = sorted.clone();
    let i = rng.usize_in(0..n);
    let next = bumped[i].to_radix().to_u64().wrapping_add(1);
    bumped[i] = K::from_radix(K::Radix::from_u64_trunc(next));
    out.push(bumped);

    if n >= 2 {
        let mut duplicated = sorted.clone();
        let (i, j) = (rng.usize_in(0..n), rng.usize_in(0..n));
        duplicated[i] = duplicated[j];
        out.push(duplicated);

        let mut swapped = sorted;
        swapped.swap(i.min(n - 2), i.min(n - 2) + 1);
        out.push(swapped);
    }
    out
}

/// Every distribution × length × several seeds; returns (cases, invalid).
fn check<K: SortKey>(make: impl Fn(Distribution, usize, u64) -> Vec<K>) -> (usize, usize) {
    let (mut cases, mut invalid) = (0, 0);
    for (d, &(dist, few_images)) in CASES.iter().enumerate() {
        let mut lengths = LENGTHS.to_vec();
        let mut rng = Rng::seed_from_u64(d as u64);
        lengths.extend((0..8).map(|_| rng.usize_in(0..5_000)));
        for (l, &n) in lengths.iter().enumerate() {
            let seed = (d * 100 + l) as u64;
            let mut input = make(dist, n, seed);
            if few_images {
                for k in &mut input {
                    *k = K::from_radix(K::Radix::from_u64_trunc(k.to_radix().to_u64() % 5));
                }
            }
            for output in outputs(&input, &mut Rng::seed_from_u64(seed)) {
                let what = format!("{:?} {dist:?} n={n}", K::DATA_TYPE);
                let expected = oracle_validate(&input, &output);
                assert_eq!(validate_sort(&input, &output), expected, "{what}");
                let multiset = oracle_multiset(&input, &output);
                assert_eq!(same_multiset(&input, &output), multiset, "{what}");
                assert_eq!(same_multiset(&output, &input), multiset, "{what}");
                cases += 1;
                invalid += usize::from(!expected.is_valid());
            }
        }
    }
    (cases, invalid)
}

fn assert_exercised((cases, invalid): (usize, usize)) {
    assert!(cases > 500, "only {cases} cases");
    assert!(
        invalid * 3 > cases && invalid * 10 < cases * 9,
        "{invalid} of {cases} invalid: the mutations must break some outputs and not all"
    );
}

#[test]
fn u32_matches_the_comparison_oracle() {
    assert_exercised(check::<u32>(generate));
}

#[test]
fn u64_matches_the_comparison_oracle() {
    assert_exercised(check::<u64>(generate));
}

#[test]
fn f32_matches_the_comparison_oracle() {
    assert_exercised(check::<f32>(generate));
}

#[test]
fn pairs_match_the_comparison_oracle() {
    // Payload = input position; the checker compares keys only.
    assert_exercised(check::<Pair<u32>>(|dist, n, seed| {
        generate::<u32>(dist, n, seed)
            .into_iter()
            .zip(0u32..)
            .map(|(key, value)| Pair::new(key, value))
            .collect()
    }));
}

#[test]
fn length_mismatch_and_unsorted_are_reported_first() {
    let input: Vec<u32> = generate(Distribution::Uniform, 1_000, 3);
    let mut output = input.clone();
    output.sort_unstable();
    assert_eq!(
        validate_sort(&input, &output[1..]),
        SortValidation::LengthMismatch {
            expected: 1_000,
            actual: 999
        }
    );
    output.swap(10, 11);
    assert_eq!(
        validate_sort(&input, &output),
        SortValidation::NotSorted { index: 10 }
    );
}

#[test]
fn float_specials_are_compared_by_image() {
    // -0.0 and +0.0 are distinct images, and so are NaNs of either sign.
    let mut input: Vec<f32> = generate(Distribution::Uniform, 600, 9);
    input.extend([0.0, -0.0, f32::NAN, -f32::NAN, f32::INFINITY]);
    let mut output = input.clone();
    output.sort_by_key(|k| k.to_radix());
    assert!(validate_sort(&input, &output).is_valid());
    let zero = output.iter().position(|k| k.to_bits() == 0).unwrap();
    output[zero] = -0.0;
    output.sort_by_key(|k| k.to_radix());
    assert_eq!(
        validate_sort(&input, &output),
        SortValidation::NotPermutation
    );
}
