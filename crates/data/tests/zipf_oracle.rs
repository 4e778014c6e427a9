//! The Zipf generator against the binary-search sampler it replaced.
//!
//! `generate` draws Zipf ranks through a guide table over the CDF, memoised
//! per thread by skew. The oracle below is the sampler as it was before the
//! table: the CDF built on every call and one binary search per key, fed by
//! the same `Rng` stream. Every key type, every skew from flat (0) through
//! the ones whose CDF is 1.0 from the first rank on (100 000, `u32::MAX`),
//! lengths either side of the rank and guide-table sizes, several seeds, and
//! skews interleaved on one thread must give the same bits.

use msort_data::keys::RadixImage;
use msort_data::{generate, Distribution, Pair, Rng, SortKey};

const SKEWS: [u32; 10] = [0, 1, 500, 800, 1000, 1200, 1500, 3000, 100_000, u32::MAX];
const LENGTHS: [usize; 9] = [0, 1, 2, 63, 64, 1023, 1024, 4097, 100_003];
const SEEDS: [u64; 3] = [1, 42, 0xDEAD_BEEF];

/// The binary-search sampler, verbatim apart from its rank count argument.
struct OracleSampler {
    cdf: Vec<f64>,
}

impl OracleSampler {
    fn new(n: usize, skew: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(skew);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

fn value_at_fraction<K: SortKey>(frac: f64) -> K::Radix {
    let max = K::Radix::max_value().to_u64() as f64;
    K::Radix::from_u64_trunc((frac.clamp(0.0, 1.0) * max) as u64)
}

/// The radix images the old generator produced for `n` Zipf keys.
fn oracle_images<K: SortKey>(skew_permille: u32, n: usize, seed: u64) -> Vec<K::Radix> {
    let mut rng = Rng::seed_from_u64(seed);
    let zipf = OracleSampler::new(1024, f64::from(skew_permille) / 1000.0);
    (0..n)
        .map(|_| {
            let rank = zipf.sample(&mut rng);
            let img = value_at_fraction::<K>((rank as f64 + 0.5) / 1024.0);
            K::from_radix(img).to_radix()
        })
        .collect()
}

fn zipf(skew_permille: u32) -> Distribution {
    Distribution::ZipfDuplicates { skew_permille }
}

fn assert_matches_oracle<K: SortKey>(skew_permille: u32, n: usize, seed: u64) {
    let keys: Vec<K> = generate(zipf(skew_permille), n, seed);
    let images: Vec<K::Radix> = keys.iter().map(|k| k.to_radix()).collect();
    let expected = oracle_images::<K>(skew_permille, n, seed);
    if let Some(i) = (0..n).find(|&i| images[i] != expected[i]) {
        panic!(
            "{:?} skew {skew_permille} n={n} seed {seed}: key {i} is {:?}, the oracle's {:?}",
            K::DATA_TYPE,
            images[i],
            expected[i]
        );
    }
    assert_eq!(images.len(), expected.len());
}

fn all_cases<K: SortKey>() {
    for skew in SKEWS {
        for n in LENGTHS {
            for seed in SEEDS {
                assert_matches_oracle::<K>(skew, n, seed);
            }
        }
    }
}

#[test]
fn u32_keys_match_the_binary_search() {
    all_cases::<u32>();
}

#[test]
fn i32_keys_match_the_binary_search() {
    all_cases::<i32>();
}

#[test]
fn f32_keys_match_the_binary_search() {
    all_cases::<f32>();
}

#[test]
fn u64_keys_match_the_binary_search() {
    all_cases::<u64>();
}

#[test]
fn i64_keys_match_the_binary_search() {
    all_cases::<i64>();
}

#[test]
fn f64_keys_match_the_binary_search() {
    all_cases::<f64>();
}

#[test]
fn pair_keys_match_the_binary_search() {
    all_cases::<Pair<u32>>();
    let pairs: Vec<Pair<u32>> = generate(zipf(800), 1000, 3);
    assert!(pairs.iter().all(|p| p.value == 0));
}

/// Skews alternate on one thread, so each call either reuses the memoised
/// tables or replaces them; two threads interleave their own skews.
#[test]
fn interleaved_skews_match_the_binary_search() {
    let schedule = [
        (800, 64),
        (1500, 1023),
        (800, 4097),
        (0, 2),
        (800, 1),
        (u32::MAX, 63),
        (1200, 1024),
        (1200, 100_003),
        (1, 64),
        (800, 0),
        (800, 1024),
    ];
    for (round, &(skew, n)) in schedule.iter().enumerate() {
        assert_matches_oracle::<u32>(skew, n, round as u64);
        assert_matches_oracle::<f64>(skew, n, round as u64 + 100);
    }
    std::thread::scope(|s| {
        for offset in 0..2 {
            s.spawn(move || {
                for (round, &(skew, n)) in schedule.iter().enumerate().skip(offset) {
                    assert_matches_oracle::<u64>(skew, n, round as u64);
                }
            });
        }
    });
}

/// Rank 0 is the smallest key; at skew 0.8 it should be drawn with
/// probability 1 / H, H = Σ_{k=1}^{1024} k^-0.8 ≈ 15.6. Over 200 000 keys the
/// share's standard deviation is ≈ 5.5e-4; the tolerance is about 5 of them.
#[test]
fn rank_zero_share_is_one_over_the_harmonic_number() {
    let n = 200_000;
    let keys: Vec<u32> = generate(zipf(800), n, 11);
    let smallest = *keys.iter().min().expect("non-empty");
    let share = keys.iter().filter(|&&k| k == smallest).count() as f64 / n as f64;
    let h: f64 = (1..=1024).map(|k| f64::from(k).powf(-0.8)).sum();
    assert!(
        (share - 1.0 / h).abs() < 3e-3,
        "rank 0 share {share}, expected {}",
        1.0 / h
    );
}
