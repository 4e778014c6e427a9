//! Deterministic workload generators.
//!
//! All generators are seedable so every experiment, test, and benchmark is
//! reproducible. Generation is defined on the *radix image* domain and then
//! decoded, so the same [`Distribution`] produces order-equivalent data for
//! every key type (a "sorted" f32 workload really is ascending in the float
//! total order).

use crate::dist::Distribution;
use crate::keys::{RadixImage, SortKey};
use crate::rng::Rng;
use crate::validate::sorted_images;
use std::cell::RefCell;

/// A seeded generator for one distribution.
///
/// ```
/// use msort_data::{DataGenerator, Distribution};
/// let gen = DataGenerator::new(Distribution::Uniform, 42);
/// let keys: Vec<u32> = gen.generate(1000);
/// assert_eq!(keys.len(), 1000);
/// // Same seed, same data:
/// assert_eq!(keys, DataGenerator::new(Distribution::Uniform, 42).generate::<u32>(1000));
/// ```
#[derive(Debug, Clone)]
pub struct DataGenerator {
    dist: Distribution,
    seed: u64,
}

impl DataGenerator {
    /// Create a generator for `dist` with the given `seed`.
    #[must_use]
    pub fn new(dist: Distribution, seed: u64) -> Self {
        Self { dist, seed }
    }

    /// The distribution this generator produces.
    #[must_use]
    pub fn distribution(&self) -> Distribution {
        self.dist
    }

    /// Generate `n` keys into a fresh vector.
    #[must_use]
    pub fn generate<K: SortKey>(&self, n: usize) -> Vec<K> {
        let mut out = Vec::with_capacity(n);
        self.generate_extend(n, &mut out);
        out
    }

    /// Generate `n` keys, appending to `out` (reuses its capacity).
    pub fn generate_extend<K: SortKey>(&self, n: usize, out: &mut Vec<K>) {
        let start = out.len();
        out.reserve(n);
        let mut rng = Rng::seed_from_u64(self.seed);
        match self.dist {
            Distribution::Uniform => {
                for _ in 0..n {
                    out.push(K::from_radix(uniform_image::<K>(&mut rng)));
                }
            }
            Distribution::Normal => {
                for _ in 0..n {
                    out.push(K::from_radix(normal_image::<K>(&mut rng)));
                }
            }
            Distribution::Sorted => {
                extend_uniform_sorted::<K>(n, &mut rng, out);
            }
            Distribution::ReverseSorted => {
                extend_uniform_sorted::<K>(n, &mut rng, out);
                out[start..].reverse();
            }
            Distribution::NearlySorted => {
                extend_uniform_sorted::<K>(n, &mut rng, out);
                perturb(&mut out[start..], &mut rng);
            }
            Distribution::ZipfDuplicates { skew_permille } => {
                with_zipf(skew_permille, |zipf| {
                    let images = zipf.images::<K::Radix>();
                    for _ in 0..n {
                        let img = images[zipf.rank(rng.f64())];
                        out.push(K::from_radix(K::Radix::from_u64_trunc(img)));
                    }
                });
            }
            Distribution::Constant => {
                let img = value_at_fraction::<K::Radix>(0.5);
                out.resize(start + n, K::from_radix(img));
            }
        }
        debug_assert_eq!(out.len(), start + n);
    }
}

/// Generate `n` keys of distribution `dist` with `seed` (convenience form).
#[must_use]
pub fn generate<K: SortKey>(dist: Distribution, n: usize, seed: u64) -> Vec<K> {
    DataGenerator::new(dist, seed).generate(n)
}

/// Generate into an existing vector, clearing it first.
pub fn generate_into<K: SortKey>(dist: Distribution, n: usize, seed: u64, out: &mut Vec<K>) {
    out.clear();
    DataGenerator::new(dist, seed).generate_extend(n, out);
}

fn uniform_image<K: SortKey>(rng: &mut Rng) -> K::Radix {
    image_from_u64::<K>(rng.u64())
}

/// Gaussian over the image domain centered at the midpoint, clamped.
fn normal_image<K: SortKey>(rng: &mut Rng) -> K::Radix {
    // Box-Muller on two uniforms; no external distribution crate needed.
    let u1: f64 = rng.f64().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.f64();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let frac = (0.5 + z / 20.0).clamp(0.0, 1.0);
    value_at_fraction::<K::Radix>(frac)
}

/// Sorted uniform sample: draw i.i.d. uniforms and sort the image values.
/// 32-bit images take [`sorted_images`]' radix sort and are mapped back;
/// 64-bit ones, which it would only comparison-sort in a fresh vector, are
/// sorted in place by image. Every key is `from_radix` of its image, so
/// both give the same bytes.
fn extend_uniform_sorted<K: SortKey>(n: usize, rng: &mut Rng, out: &mut Vec<K>) {
    let start = out.len();
    for _ in 0..n {
        out.push(K::from_radix(uniform_image::<K>(rng)));
    }
    if <K::Radix as RadixImage>::BITS != 32 {
        out[start..].sort_unstable_by_key(|k| k.to_radix());
        return;
    }
    let images = sorted_images(&out[start..]);
    for (key, img) in out[start..].iter_mut().zip(images) {
        *key = K::from_radix(img);
    }
}

/// Swap ~1% of positions with a partner within a window of 100 slots.
fn perturb<K: SortKey>(data: &mut [K], rng: &mut Rng) {
    if data.len() < 2 {
        return;
    }
    let swaps = (data.len() / 100).max(1);
    for _ in 0..swaps {
        let i = rng.usize_in(0..data.len());
        let lo = i.saturating_sub(50);
        let hi = (i + 50).min(data.len() - 1);
        let j = rng.usize_in_incl(lo, hi);
        data.swap(i, j);
    }
}

/// Map a fraction in `[0, 1]` onto the radix image domain.
fn value_at_fraction<R: RadixImage>(frac: f64) -> R {
    let max = R::max_value().to_u64() as f64;
    R::from_u64_trunc((frac.clamp(0.0, 1.0) * max) as u64)
}

fn image_from_u64<K: SortKey>(v: u64) -> K::Radix {
    // Use the high bits for 32-bit keys so they still get well-mixed entropy.
    if <K::Radix as RadixImage>::BITS == 32 {
        K::Radix::from_u64_trunc(v >> 32)
    } else {
        K::Radix::from_u64_trunc(v)
    }
}

/// Distinct values of a Zipf input: ranks `0..ZIPF_RANKS`, spread evenly
/// over the key domain so that pivots still land at interesting positions.
const ZIPF_RANKS: usize = 1024;

/// Guide-table entries, one per value of a draw's top 12 bits.
const ZIPF_GUIDE: usize = 1 << 12;

thread_local! {
    /// The sampler of the last skew generated on this thread, so that a run
    /// of small generates builds its tables once.
    static ZIPF_MEMO: RefCell<Option<ZipfSampler>> = const { RefCell::new(None) };
}

/// Run `f` with the sampler for `skew_permille`, building it only when the
/// thread's memo holds another skew.
fn with_zipf<R>(skew_permille: u32, f: impl FnOnce(&ZipfSampler) -> R) -> R {
    ZIPF_MEMO.with_borrow_mut(|memo| {
        if memo
            .as_ref()
            .is_some_and(|z| z.skew_permille != skew_permille)
        {
            *memo = None;
        }
        f(memo.get_or_insert_with(|| ZipfSampler::new(skew_permille)))
    })
}

/// Zipf sampler over ranks `0..ZIPF_RANKS` by inversion: a draw `u` in
/// `[0, 1)` picks the first rank whose cumulative weight reaches `u`.
///
/// A guide table (Chen & Asau's method) replaces the binary search over the
/// CDF with one probe: the draw's top 12 bits index an entry holding the
/// first rank whose CDF reaches the bucket's lower edge, and a short forward
/// scan finishes. That is the rank the binary search finds, from the same
/// single `rng.f64()`, and a per-width table maps it to the same image
/// `value_at_fraction` computes, so every key is unchanged to the bit
/// (`crates/data/tests/zipf_oracle.rs` holds it to that search). Built once
/// per skew and thread ([`with_zipf`]).
///
/// `crates/bench/examples/tune.rs generate`, u32 at skew 800 on a 2-core
/// host, ns per key, binary search (its CDF built on every call) → guide
/// table: 425–448 → 9.5–10.5 at 64 keys (27–29 → 0.6–0.7 µs a call),
/// 100–106 → 8.8–9.7 at 1 Ki, 85–88 → 8.8–10.2 at 64 Ki, 77–79 → 9.8–10.2
/// at 4 Mi. Uniform u32 keys cost 2–3.
struct ZipfSampler {
    skew_permille: u32,
    /// `cdf[i]`: the probability of a rank ≤ `i`. The last entry is exactly
    /// 1.0 (the total divided by itself), above every draw, which ends
    /// every scan.
    cdf: Vec<f64>,
    /// `guide[b]`: the first rank whose `cdf` reaches `b / ZIPF_GUIDE`.
    guide: Vec<u16>,
    /// Rank `r`'s radix image, the middle of its `1 / ZIPF_RANKS` slice of
    /// the domain, for 32-bit and for 64-bit images.
    images_32: Vec<u64>,
    images_64: Vec<u64>,
}

impl ZipfSampler {
    fn new(skew_permille: u32) -> Self {
        let skew = f64::from(skew_permille) / 1000.0;
        let mut cdf = Vec::with_capacity(ZIPF_RANKS);
        let mut acc = 0.0;
        for k in 1..=ZIPF_RANKS {
            acc += 1.0 / (k as f64).powf(skew);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let mut guide = Vec::with_capacity(ZIPF_GUIDE);
        let mut rank = 0;
        for b in 0..ZIPF_GUIDE {
            let edge = b as f64 / ZIPF_GUIDE as f64;
            while cdf[rank] < edge {
                rank += 1;
            }
            guide.push(u16::try_from(rank).expect("ranks fit in u16"));
        }
        let images = |image: fn(f64) -> u64| -> Vec<u64> {
            (0..ZIPF_RANKS)
                .map(|r| image((r as f64 + 0.5) / ZIPF_RANKS as f64))
                .collect()
        };
        Self {
            skew_permille,
            cdf,
            guide,
            images_32: images(|f| value_at_fraction::<u32>(f).to_u64()),
            images_64: images(value_at_fraction::<u64>),
        }
    }

    /// Every rank's image for `R`'s width, widened to `u64`.
    fn images<R: RadixImage>(&self) -> &[u64] {
        if R::BITS == 32 {
            &self.images_32
        } else {
            &self.images_64
        }
    }

    /// The first rank whose `cdf` reaches `u`, for `u` in `[0, 1)`.
    fn rank(&self, u: f64) -> usize {
        // Scaling by a power of two is exact, so `u` lies in bucket `b`, at
        // or above `b / ZIPF_GUIDE`; for a draw of `Rng::f64` (a multiple of
        // 2^-53) `b` is its top 12 bits.
        let b = (u * ZIPF_GUIDE as f64) as usize;
        let mut rank = usize::from(self.guide[b]);
        while self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_sorted;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u32> = generate(Distribution::Uniform, 1000, 7);
        let b: Vec<u32> = generate(Distribution::Uniform, 1000, 7);
        let c: Vec<u32> = generate(Distribution::Uniform, 1000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_is_sorted_for_all_types() {
        assert!(is_sorted(&generate::<u32>(Distribution::Sorted, 500, 1)));
        assert!(is_sorted(&generate::<i32>(Distribution::Sorted, 500, 1)));
        assert!(is_sorted(&generate::<f32>(Distribution::Sorted, 500, 1)));
        assert!(is_sorted(&generate::<u64>(Distribution::Sorted, 500, 1)));
        assert!(is_sorted(&generate::<i64>(Distribution::Sorted, 500, 1)));
        assert!(is_sorted(&generate::<f64>(Distribution::Sorted, 500, 1)));
    }

    #[test]
    fn reverse_sorted_is_descending() {
        let v: Vec<u32> = generate(Distribution::ReverseSorted, 500, 3);
        let mut rev = v.clone();
        rev.reverse();
        assert!(is_sorted(&rev));
        assert!(!is_sorted(&v));
    }

    #[test]
    fn nearly_sorted_is_mostly_sorted() {
        let v: Vec<u32> = generate(Distribution::NearlySorted, 10_000, 3);
        let inversions = v.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(inversions > 0, "perturbation did nothing");
        assert!(
            inversions < v.len() / 20,
            "too many inversions: {inversions}"
        );
    }

    #[test]
    fn normal_is_concentrated() {
        let v: Vec<u32> = generate(Distribution::Normal, 10_000, 5);
        let mid = u32::MAX / 2;
        let band = u32::MAX / 4;
        let inside = v
            .iter()
            .filter(|&&x| x > mid - band && x < mid + band)
            .count();
        // 5 sigma band => essentially everything inside.
        assert!(inside > 9_900, "only {inside} inside the band");
    }

    /// Draws equal to a CDF value or a bucket edge, and their neighbours:
    /// random draws almost never tie, so only here does the scan's strict
    /// `<` meet a tie. The rank must be the binary search's.
    #[test]
    fn zipf_rank_matches_the_binary_search_at_ties() {
        for skew_permille in [0, 800, 1500, 3000, 100_000] {
            let zipf = ZipfSampler::new(skew_permille);
            let search = |u: f64| match zipf
                .cdf
                .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
            {
                Ok(i) | Err(i) => i.min(ZIPF_RANKS - 1),
            };
            let edges = (0..ZIPF_GUIDE).map(|b| b as f64 / ZIPF_GUIDE as f64);
            for at in zipf.cdf.iter().copied().chain(edges) {
                for u in [
                    at,
                    f64::from_bits(at.to_bits() + 1),
                    f64::from_bits(at.to_bits().saturating_sub(1)),
                ] {
                    if (0.0..1.0).contains(&u) {
                        assert_eq!(zipf.rank(u), search(u), "skew {skew_permille}, u = {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_has_many_duplicates() {
        let v: Vec<u32> = generate(
            Distribution::ZipfDuplicates {
                skew_permille: 1200,
            },
            10_000,
            5,
        );
        let mut uniq = v.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() <= 1024);
        assert!(uniq.len() > 10);
    }

    #[test]
    fn constant_is_constant() {
        let v: Vec<u64> = generate(Distribution::Constant, 100, 5);
        assert!(v.iter().all(|&x| x == v[0]));
    }

    #[test]
    fn generate_into_reuses_buffer() {
        let mut buf: Vec<u32> = Vec::new();
        generate_into(Distribution::Uniform, 100, 1, &mut buf);
        assert_eq!(buf.len(), 100);
        generate_into(Distribution::Sorted, 50, 1, &mut buf);
        assert_eq!(buf.len(), 50);
        assert!(is_sorted(&buf));
    }

    #[test]
    fn normal_floats_are_finite() {
        let v: Vec<f64> = generate(Distribution::Normal, 1000, 9);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
