//! Sample-sort host kernels: oversampled splitter selection and the
//! stable bucket partition (the scatter phase of GPU sample sort,
//! Leischner/Osipov/Sanders).
//!
//! Sample sort cuts an input into `b` buckets by `b − 1` *splitters*
//! drawn from the data itself, scatters every key into its bucket, and
//! sorts each bucket independently. Two properties matter for this
//! workspace and shape the API:
//!
//! * **Determinism.** Splitters are drawn at *evenly spaced positions*
//!   (the midpoints of `count` equal strides), never by an RNG — the
//!   multi-GPU driver requires bit-reproducible runs from the data alone,
//!   across every pool width. An evenly spaced sample of an arbitrary
//!   input is exactly as representative as a random one unless the input
//!   correlates value with position at the stride wavelength, which no
//!   paper distribution does.
//! * **Duplicate robustness.** A splitter is a `(key, position)` pair and
//!   the bucket order is lexicographic on `(radix image, position)`. For
//!   duplicate-heavy inputs (Zipf, constant) a key-only comparison would
//!   dump every copy of a frequent key into one bucket; the position
//!   tie-break spreads equal keys across buckets by *where they sit*,
//!   bounding bucket imbalance without sacrificing the sorted-concatenation
//!   property (bucket `i` keys still compare `<=` bucket `i+1` keys).
//!
//! The partition cuts the input into fixed-size tiles (never a function of
//! the worker count). Each tile, in parallel, searches every key's bucket
//! once, keeps the ids in a tile-sized buffer, counts them, and scatters
//! itself stably into its own range of the scratch buffer. Bucket `b` of
//! the output is then tile 0's `b`-segment, tile 1's, and so on: one copy
//! per (tile, bucket) segment puts everything in place, so no scratch
//! proportional to the input beyond `aux` is needed. Output bytes are the
//! stable partition of the input — unique — so every thread count
//! produces identical bytes.

use msort_data::keys::RadixImage;
use msort_data::SortKey;

/// Scatter tile size in keys: a constant, so the (tile, bucket) offset
/// assignment never depends on the thread count.
const TILE: usize = 1 << 15;

/// A splitter: a sampled key plus the chunk-local position it was drawn
/// from. Ordering is lexicographic on `(radix image, position)`.
pub type Splitter<K> = (K, u64);

/// The bucket index of `key` at chunk-local position `pos` under
/// `splitters` (which must be sorted by `(radix, position)`): the number
/// of splitters that compare `<= (key, pos)`. `splitters.len() + 1`
/// buckets exist in total.
#[inline]
#[must_use]
pub fn bucket_of<K: SortKey>(key: K, pos: u64, splitters: &[Splitter<K>]) -> usize {
    let probe = (key.to_radix(), pos);
    splitters.partition_point(|&(sk, sp)| (sk.to_radix(), sp) <= probe)
}

/// Draw `buckets − 1` splitters from `chunks` by oversampling: each chunk
/// contributes up to `buckets × oversample` keys at evenly spaced
/// positions; the pooled sample is sorted and the splitters taken at
/// every `1/buckets` quantile of it.
///
/// Returns fewer than `buckets − 1` splitters only when the chunks hold
/// no keys at all (then zero: a single bucket).
#[must_use]
pub fn select_splitters<K: SortKey>(
    chunks: &[&[K]],
    buckets: usize,
    oversample: usize,
) -> Vec<Splitter<K>> {
    assert!(buckets >= 1, "at least one bucket");
    let per_chunk = buckets * oversample.max(1);
    let mut samples: Vec<Splitter<K>> = Vec::with_capacity(per_chunk * chunks.len());
    for chunk in chunks {
        let count = per_chunk.min(chunk.len());
        for t in 0..count {
            // Stride midpoints: position (2t+1)/(2·count) of the chunk.
            let pos = (2 * t + 1) * chunk.len() / (2 * count);
            samples.push((chunk[pos], pos as u64));
        }
    }
    if samples.is_empty() {
        return Vec::new();
    }
    samples.sort_unstable_by_key(|&(k, p)| (k.to_radix(), p));
    (1..buckets)
        .map(|b| samples[b * samples.len() / buckets])
        .collect()
}

/// Per-bucket key counts of `data` under `splitters`, with each key's
/// position taken as its index in `data`. `counts.len()` is
/// `splitters.len() + 1` and the counts sum to `data.len()`.
#[must_use]
pub fn bucket_counts<K: SortKey>(data: &[K], splitters: &[Splitter<K>]) -> Vec<u64> {
    let decoded = decode(splitters);
    let mut counts = vec![0u64; splitters.len() + 1];
    for (i, key) in data.iter().enumerate() {
        counts[bucket_of_decoded(key.to_radix(), i as u64, &decoded)] += 1;
    }
    counts
}

/// Stable in-place bucket partition of `data` under `splitters`, using
/// `aux` as scratch (`aux.len() >= data.len()`). Returns the bucket
/// boundaries: `boundaries[b]..boundaries[b+1]` is bucket `b`, with
/// `boundaries[0] == 0` and `boundaries.last() == data.len()`.
///
/// Within a bucket, keys keep their input order (the scatter is stable),
/// so the output bytes are unique and identical for every `threads`
/// value — the property `tests/golden.rs` pins at pool widths 1 and 2.
///
/// # Panics
/// Panics if `aux.len() < data.len()` or `splitters` is not sorted by
/// `(radix, position)`.
pub fn partition_by_splitters<K: SortKey>(
    data: &mut [K],
    aux: &mut [K],
    splitters: &[Splitter<K>],
    threads: usize,
) -> Vec<usize> {
    let n = data.len();
    assert!(
        aux.len() >= n,
        "auxiliary buffer must cover the input length"
    );
    let buckets = splitters.len() + 1;
    let decoded = decode(splitters);
    assert!(
        decoded.windows(2).all(|w| w[0] <= w[1]),
        "splitters must be sorted by (radix, position)"
    );
    if n == 0 {
        return vec![0; buckets + 1];
    }
    let aux = &mut aux[..n];
    let tiles = n.div_ceil(TILE);

    // Each tile partitions itself stably into its own range of `aux`,
    // leaving its per-bucket counts in its row of `tile_counts`.
    let mut tile_counts = vec![0usize; tiles * buckets];
    let rows = tile_counts.chunks_mut(buckets);
    let parts = data.chunks(TILE).zip(aux.chunks_mut(TILE)).zip(rows);
    if threads > 1 && tiles > 1 {
        let decoded = &decoded;
        crate::pool::scope(|scope| {
            for (t, ((src, dst), counts)) in parts.enumerate() {
                scope.spawn(move || {
                    partition_tile(src, t * TILE, dst, decoded, &mut vec![0; src.len()], counts);
                });
            }
        });
    } else {
        let mut ids = vec![0; n.min(TILE)];
        for (t, ((src, dst), counts)) in parts.enumerate() {
            partition_tile(src, t * TILE, dst, &decoded, &mut ids, counts);
        }
    }

    // Bucket b is tile 0's b-segment, then tile 1's, ...: copy each
    // (tile, bucket) segment to its global place in tile order.
    let mut boundaries = vec![0usize; buckets + 1];
    let mut starts = vec![0usize; tiles];
    let mut out = 0;
    for b in 0..buckets {
        for (t, start) in starts.iter_mut().enumerate() {
            let len = tile_counts[t * buckets + b];
            let src = t * TILE + *start;
            data[out..out + len].copy_from_slice(&aux[src..src + len]);
            *start += len;
            out += len;
        }
        boundaries[b + 1] = out;
    }
    boundaries
}

/// Stably partition the tile `src` (whose first key sits at chunk-local
/// position `base`) into `dst`, bucket by bucket, and leave its per-bucket
/// key counts in `counts`. Each key's bucket is searched once and kept in
/// `ids` (at least `src.len()` long) for the scatter.
fn partition_tile<K: SortKey>(
    src: &[K],
    base: usize,
    dst: &mut [K],
    decoded: &[u128],
    ids: &mut [u32],
    counts: &mut [usize],
) {
    let ids = &mut ids[..src.len()];
    for (i, (key, id)) in src.iter().zip(ids.iter_mut()).enumerate() {
        let b = bucket_of_decoded(key.to_radix(), (base + i) as u64, decoded);
        counts[b] += 1;
        *id = b as u32;
    }
    let mut offs: Vec<usize> = counts
        .iter()
        .scan(0, |acc, &c| {
            *acc += c;
            Some(*acc - c)
        })
        .collect();
    for (&key, &b) in src.iter().zip(ids.iter()) {
        dst[offs[b as usize]] = key;
        offs[b as usize] += 1;
    }
}

/// A `(radix image, position)` pair as one word, image in the high half:
/// word order is the lexicographic splitter order.
#[inline]
fn word<R: RadixImage>(radix: R, pos: u64) -> u128 {
    (u128::from(radix.to_u64()) << 64) | u128::from(pos)
}

/// Pre-decoded splitters, one [`word`] each.
fn decode<K: SortKey>(splitters: &[Splitter<K>]) -> Vec<u128> {
    splitters
        .iter()
        .map(|&(k, p)| word(k.to_radix(), p))
        .collect()
}

/// [`bucket_of`] over decoded splitters: the number of splitters that are
/// `<=` the probe, counted over all of them with no branch on the data.
/// Sample sort has `g − 1` splitters, seven on an 8-GPU gang, where this
/// count takes under half the time of a binary search (DESIGN §4.9).
#[inline]
fn bucket_of_decoded<R: RadixImage>(radix: R, pos: u64, decoded: &[u128]) -> usize {
    let probe = word(radix, pos);
    decoded.iter().map(|&s| usize::from(s <= probe)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, same_multiset, Distribution, Pair};

    fn check_partition<K: SortKey + PartialEq>(dist: Distribution, n: usize, g: usize, seed: u64) {
        let input: Vec<K> = generate(dist, n, seed);
        let views: Vec<&[K]> = input.chunks(n.div_ceil(g).max(1)).collect();
        let splitters = select_splitters(&views, g, 32);
        assert!(splitters.len() < g);

        let mut data = input.clone();
        let mut aux = vec![input.first().copied().unwrap_or(data[0]); n];
        let bounds = partition_by_splitters(&mut data, &mut aux, &splitters, 1);
        assert_eq!(bounds.len(), splitters.len() + 2);
        assert_eq!(*bounds.last().unwrap(), n);
        assert!(same_multiset(&input, &data), "{dist:?} lost keys");
        // Bucket b's keys all compare <= bucket b+1's keys.
        for b in 1..bounds.len() - 1 {
            if bounds[b] > bounds[b - 1] && bounds[b + 1] > bounds[b] {
                let last_prev = data[bounds[b] - 1];
                let first_next = data[bounds[b]];
                assert!(
                    last_prev.to_radix() <= first_next.to_radix(),
                    "{dist:?}: bucket boundary {b} out of order"
                );
            }
        }
        // Every key sits in the bucket `bucket_counts` predicted.
        let counts = bucket_counts(&input, &splitters);
        for (b, w) in bounds.windows(2).enumerate() {
            assert_eq!(counts[b], (w[1] - w[0]) as u64, "{dist:?} bucket {b}");
        }
        // Parallel partitions are bit-identical.
        for threads in [2usize, 4] {
            let mut par = input.clone();
            let b2 = partition_by_splitters(&mut par, &mut aux, &splitters, threads);
            assert_eq!(par, data, "{dist:?} threads={threads}");
            assert_eq!(b2, bounds);
        }
    }

    #[test]
    fn partitions_across_distributions_u32() {
        for dist in Distribution::paper_set() {
            check_partition::<u32>(dist, 80_000, 8, 11);
        }
    }

    #[test]
    fn partitions_u64_and_floats() {
        check_partition::<u64>(Distribution::Uniform, 70_000, 4, 12);
        check_partition::<f32>(Distribution::Normal, 70_000, 4, 13);
    }

    #[test]
    fn duplicate_heavy_input_stays_balanced() {
        // The (key, position) tie-break must spread a constant input
        // near-evenly across buckets.
        let g = 8;
        let n = 64_000;
        let input = vec![42u32; n];
        let views: Vec<&[u32]> = input.chunks(n / g).collect();
        let splitters = select_splitters(&views, g, 32);
        let counts = {
            // Per-chunk counts, as the multi-GPU driver computes them.
            let mut per_bucket = vec![0u64; g];
            for v in &views {
                for (b, c) in bucket_counts(v, &splitters).iter().enumerate() {
                    per_bucket[b] += c;
                }
            }
            per_bucket
        };
        let max = counts.iter().copied().max().unwrap();
        assert!(
            max as usize <= 2 * n / g,
            "constant input imbalanced: {counts:?}"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let splitters: Vec<Splitter<u32>> = select_splitters(&[&[][..]], 4, 8);
        assert!(splitters.is_empty());
        let mut data: Vec<u32> = vec![];
        let mut aux: Vec<u32> = vec![];
        assert_eq!(
            partition_by_splitters(&mut data, &mut aux, &splitters, 4).len(),
            2
        );
        let mut one = vec![7u32];
        let mut aux = vec![0u32];
        let b = partition_by_splitters(&mut one, &mut aux, &[], 4);
        assert_eq!(b, vec![0, 1]);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn bucket_of_matches_partition_point_semantics() {
        let splitters: Vec<Splitter<u32>> = vec![(10, 5), (10, 9), (20, 0)];
        assert_eq!(bucket_of(5u32, 0, &splitters), 0);
        assert_eq!(bucket_of(10u32, 5, &splitters), 1); // ties go left of later splitters
        assert_eq!(bucket_of(10u32, 7, &splitters), 1);
        assert_eq!(bucket_of(10u32, 9, &splitters), 2);
        assert_eq!(bucket_of(15u32, 0, &splitters), 2);
        assert_eq!(bucket_of(25u32, 0, &splitters), 3);
    }

    /// The branchless search against `bucket_of` (a `partition_point`) on
    /// every key of `input` at its own position and at the positions of
    /// every splitter, for 0 to 63 splitters.
    fn check_search_oracle<K: SortKey>(input: &[K]) {
        for count in 0..64usize {
            let views: Vec<&[K]> = input.chunks(input.len().div_ceil(4)).collect();
            let mut splitters = select_splitters(&views, count + 1, 4);
            splitters.truncate(count);
            assert_eq!(splitters.len(), count);
            let decoded = decode(&splitters);
            let probe = |key: K, pos: u64| {
                assert_eq!(
                    bucket_of_decoded(key.to_radix(), pos, &decoded),
                    bucket_of(key, pos, &splitters),
                    "{:?}, {count} splitters, pos {pos}",
                    K::DATA_TYPE
                );
            };
            for (i, &key) in input.iter().enumerate() {
                probe(key, i as u64);
            }
            // Ties on the image: the position decides.
            for &(key, pos) in &splitters {
                for p in [0, pos.saturating_sub(1), pos, pos + 1, u64::MAX] {
                    probe(key, p);
                }
            }
        }
    }

    #[test]
    fn branchless_search_matches_bucket_of() {
        let dists = [
            Distribution::Uniform,
            Distribution::ZipfDuplicates { skew_permille: 800 },
            Distribution::Constant,
        ];
        for (seed, dist) in dists.into_iter().enumerate() {
            let seed = seed as u64;
            check_search_oracle::<u32>(&generate(dist, 600, seed));
            check_search_oracle::<u64>(&generate(dist, 600, seed));
            check_search_oracle::<f32>(&generate(dist, 600, seed));
            let pairs: Vec<Pair<u32>> = generate::<u32>(dist, 600, seed)
                .into_iter()
                .enumerate()
                .map(|(i, k)| Pair::new(k, i as u32))
                .collect();
            check_search_oracle(&pairs);
        }
        // A partition's buckets are the oracle's buckets.
        let input: Vec<u32> = generate(dists[1], 5_000, 3);
        let splitters = select_splitters(&[&input[..]], 64, 4);
        let mut expected = vec![0u64; splitters.len() + 1];
        for (i, &k) in input.iter().enumerate() {
            expected[bucket_of(k, i as u64, &splitters)] += 1;
        }
        assert_eq!(bucket_counts(&input, &splitters), expected);
    }

    #[test]
    #[should_panic(expected = "auxiliary buffer")]
    fn short_aux_panics() {
        let mut d = vec![3u32, 1, 2];
        let mut aux = vec![0u32; 2];
        let _ = partition_by_splitters(&mut d, &mut aux, &[], 1);
    }

    #[test]
    fn tile_straddling_is_bit_identical() {
        let n = super::TILE * 2 + 321;
        let input: Vec<u64> = generate(Distribution::ZipfDuplicates { skew_permille: 900 }, n, 17);
        let views: Vec<&[u64]> = input.chunks(n / 4).collect();
        let splitters = select_splitters(&views, 4, 16);
        let mut aux = vec![0u64; n];
        let mut serial = input.clone();
        let b1 = partition_by_splitters(&mut serial, &mut aux, &splitters, 1);
        let mut par = input.clone();
        let b2 = partition_by_splitters(&mut par, &mut aux, &splitters, 4);
        assert_eq!(serial, par);
        assert_eq!(b1, b2);
    }
}
