//! The sorted generators against the comparison sort they replaced.
//!
//! `Sorted`, `ReverseSorted` and `NearlySorted` draw uniform keys and sort
//! their radix images (a counting sort for 32-bit images from 512 keys up).
//! The oracle below is the generator as it was before: the same `Rng`
//! stream, `sort_unstable_by(total_cmp_key)` on the keys, then the reverse
//! or the ~1 % window swaps. Every key type, lengths either side of the
//! counting-sort cutoff and several seeds must give the same bytes, `Pair`
//! payloads included.

use msort_data::keys::RadixImage;
use msort_data::{generate, Distribution, Pair, Rng, SortKey};

const LENGTHS: [usize; 7] = [0, 1, 511, 512, 513, 4097, 100_003];
const SEEDS: [u64; 3] = [1, 42, 0xDEAD_BEEF];

/// The old generator, verbatim apart from the dispatch on `dist`.
fn oracle<K: SortKey>(dist: Distribution, n: usize, seed: u64) -> Vec<K> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out: Vec<K> = (0..n)
        .map(|_| {
            let v = rng.u64();
            let img = if K::Radix::BITS == 32 {
                K::Radix::from_u64_trunc(v >> 32)
            } else {
                K::Radix::from_u64_trunc(v)
            };
            K::from_radix(img)
        })
        .collect();
    out.sort_unstable_by(|a, b| a.total_cmp_key(b));
    match dist {
        Distribution::Sorted => {}
        Distribution::ReverseSorted => out.reverse(),
        Distribution::NearlySorted => {
            if out.len() >= 2 {
                for _ in 0..(out.len() / 100).max(1) {
                    let i = rng.usize_in(0..out.len());
                    let lo = i.saturating_sub(50);
                    let hi = (i + 50).min(out.len() - 1);
                    let j = rng.usize_in_incl(lo, hi);
                    out.swap(i, j);
                }
            }
        }
        _ => unreachable!("only the sorted distributions have an oracle"),
    }
    out
}

/// Every distribution, length and seed for `K`; `bytes` is the key's image
/// and, for a `Pair`, its payload.
fn all_cases<K: SortKey>(bytes: impl Fn(&K) -> (u64, u32)) {
    for dist in [
        Distribution::Sorted,
        Distribution::ReverseSorted,
        Distribution::NearlySorted,
    ] {
        for n in LENGTHS {
            for seed in SEEDS {
                let got: Vec<(u64, u32)> =
                    generate::<K>(dist, n, seed).iter().map(&bytes).collect();
                let expected: Vec<(u64, u32)> =
                    oracle::<K>(dist, n, seed).iter().map(&bytes).collect();
                if let Some(i) = (0..n).find(|&i| got[i] != expected[i]) {
                    panic!(
                        "{:?} {dist:?} n={n} seed {seed}: key {i} is {:?}, the oracle's {:?}",
                        K::DATA_TYPE,
                        got[i],
                        expected[i]
                    );
                }
                assert_eq!(got.len(), n);
            }
        }
    }
}

fn scalar<K: SortKey>(k: &K) -> (u64, u32) {
    (k.to_radix().to_u64(), 0)
}

fn pair<K: SortKey>(p: &Pair<K>) -> (u64, u32) {
    (p.key.to_radix().to_u64(), p.value)
}

#[test]
fn u32_keys_match_the_comparison_sort() {
    all_cases::<u32>(scalar);
}

#[test]
fn i32_keys_match_the_comparison_sort() {
    all_cases::<i32>(scalar);
}

#[test]
fn f32_keys_match_the_comparison_sort() {
    all_cases::<f32>(scalar);
}

#[test]
fn u64_keys_match_the_comparison_sort() {
    all_cases::<u64>(scalar);
}

#[test]
fn i64_keys_match_the_comparison_sort() {
    all_cases::<i64>(scalar);
}

#[test]
fn f64_keys_match_the_comparison_sort() {
    all_cases::<f64>(scalar);
}

#[test]
fn pair_keys_match_the_comparison_sort() {
    all_cases::<Pair<u32>>(pair);
    all_cases::<Pair<u64>>(pair);
}
