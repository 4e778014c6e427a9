//! Property tests for the PR 6 kernels: the OneSweep single-pass radix
//! sort (sequential, chained-lookback parallel, and the write-combining
//! scatter variant) and the branchless merge-path merge.
//!
//! Three invariant families:
//!
//! * **Equivalence** — every kernel produces exactly `sort_unstable`'s
//!   output (radix order equals numeric order for unsigned keys) across
//!   random, adversarial, and paper-distribution inputs, for u32 and u64.
//! * **Bit-identity across thread counts** — the parallel OneSweep chunks
//!   by fixed-size tiles, never by the worker count, so its output at 1, 2
//!   and 4 threads is byte-for-byte the sequential kernel's output. This is
//!   the property the effect executor's determinism contract rests on.
//! * **Edge cases** — empty, singleton, all-duplicate, already-sorted,
//!   reverse-sorted, and tile-boundary-straddling lengths.
//!
//! PR 7 adds the sample-sort host kernels to the same contract: the
//! splitter partition must be a stable permutation with boundaries that
//! match the predicted histogram, and the k-way merge must equal
//! `sort_unstable` bit-for-bit at every pool width.
//!
//! The loser tree orders one packed (image, run) word per node and the
//! partition scatters each 32 Ki-key tile on its own before copying its
//! bucket segments into place, so both carry their own edges: run counts
//! either side of a power of two, maximal-image heads beside exhausted
//! runs, `Pair` payloads that expose any unstable tie, and inputs of
//! exactly two tiles and one key more with 64 buckets.
//!
//! The device-sort size ladder (comparison sort, 8-bit LSD, OneSweep
//! passes, with bounds per key width) is held to a stable sort by radix
//! image on both sides of every bound, for every scalar key type and for
//! `Pair` keys whose payload is the input position.
//!
//! A modeled kernel is its cost, not its code: every sort op of the GPU
//! runtime — `gpu_sort` under each of the four `GpuSortAlgo` families and
//! the CPU-only baseline's `cpu_sort` — must write exactly those stable
//! bytes, and a two-run merge op on either device must keep run order
//! among equal keys.
//!
//! Offline environment: deterministic seeded loops over the in-tree [`Rng`]
//! stand in for `proptest`, as in `tests/properties.rs`.

use multi_gpu_sort::cpu::multiway::{parallel_multiway_merge_with, ParallelMergeConfig};
use multi_gpu_sort::cpu::{
    bucket_counts, bucket_of, merge_path_sort, multiway_merge, onesweep_sort,
    onesweep_sort_with_aux, parallel_onesweep_sort, parallel_onesweep_sort_with_aux,
    partition_by_splitters, select_splitters, LoserTree,
};
use multi_gpu_sort::data::keys::RadixImage;
use multi_gpu_sort::data::{Pair, Rng};
use multi_gpu_sort::gpu::primitives::device_sort_with;
use multi_gpu_sort::prelude::*;

const CASES: u64 = 32;

/// `msort_cpu::onesweep`'s private size-ladder bounds, mirrored: the
/// comparison-sort floor per radix-image width, and the parallel floor, the
/// top of the 8-bit LSD rung for both widths. Longer inputs run the
/// OneSweep passes.
const COMPARISON_MAX_32: usize = 1 << 8;
const COMPARISON_MAX_64: usize = 1 << 12;
const PARALLEL_FLOOR: usize = 1 << 16;

/// A random length just above the device-sort ladder, so that
/// `onesweep_sort` runs its passes.
fn passes_len(rng: &mut Rng) -> usize {
    PARALLEL_FLOOR + 1 + rng.usize_in(0..3000)
}

fn random_vec_u32(rng: &mut Rng, max_len: usize) -> Vec<u32> {
    let len = rng.usize_in(0..max_len);
    (0..len).map(|_| rng.u32()).collect()
}

fn random_vec_u64(rng: &mut Rng, max_len: usize) -> Vec<u64> {
    let len = rng.usize_in(0..max_len);
    (0..len).map(|_| rng.u64()).collect()
}

#[test]
fn onesweep_matches_std_u32() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let v: Vec<u32> = (0..passes_len(&mut rng)).map(|_| rng.u32()).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut got = v.clone();
        onesweep_sort(&mut got);
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn onesweep_matches_std_u64() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let v: Vec<u64> = (0..passes_len(&mut rng)).map(|_| rng.u64()).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut got = v.clone();
        onesweep_sort(&mut got);
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn onesweep_matches_std_across_distributions() {
    for dist in Distribution::paper_set() {
        let v: Vec<u32> = generate(dist, PARALLEL_FLOOR + 20_000, 23);
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut got = v;
        onesweep_sort(&mut got);
        assert_eq!(got, expected, "{dist:?}");
    }
}

#[test]
fn onesweep_edge_cases() {
    // Lengths around the kernel's internal boundaries: empty, singleton,
    // one short of / exactly at / one past small powers of two, and
    // lengths that straddle 32 Ki-key scatter tiles, below the ladder's
    // top (8-bit LSD) and above it (the OneSweep passes).
    for len in [
        0usize,
        1,
        2,
        3,
        255,
        256,
        257,
        (1 << 15) - 1,
        (1 << 15) + 5,
        (1 << 16) + 1,
        (3 << 15) - 1,
        (3 << 15) + 5,
    ] {
        let mut rng = Rng::seed_from_u64(len as u64);
        let v: Vec<u32> = (0..len).map(|_| rng.u32()).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut got = v;
        onesweep_sort(&mut got);
        assert_eq!(got, expected, "len {len}");
    }
    // All-duplicate input exercises the constant-digit pass skip on every
    // pass at once.
    let mut dup = vec![0xDEAD_BEEFu32; PARALLEL_FLOOR + 10_000];
    onesweep_sort(&mut dup);
    assert!(dup.iter().all(|&k| k == 0xDEAD_BEEF));
    // Already-sorted and reverse-sorted inputs.
    let len = (PARALLEL_FLOOR + 20_000) as u64;
    let mut sorted: Vec<u64> = (0..len).collect();
    onesweep_sort(&mut sorted);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let mut rev: Vec<u64> = (0..len).rev().collect();
    onesweep_sort(&mut rev);
    assert_eq!(rev, (0..len).collect::<Vec<_>>());
}

#[test]
fn parallel_onesweep_bit_identical_across_thread_counts() {
    // Long enough to span multiple scatter tiles so the lookback chain
    // actually runs at width > 1.
    for dist in [
        Distribution::Uniform,
        Distribution::ZipfDuplicates { skew_permille: 800 },
        Distribution::ReverseSorted,
    ] {
        let input: Vec<u32> = generate(dist, 100_000, 77);
        let mut reference = input.clone();
        onesweep_sort(&mut reference);
        for threads in [1usize, 2, 4] {
            let mut par = input.clone();
            parallel_onesweep_sort(&mut par, threads);
            assert_eq!(par, reference, "{dist:?} threads={threads}");
        }
    }
}

#[test]
fn parallel_onesweep_with_aux_bit_identical() {
    let input: Vec<u64> = generate(Distribution::Uniform, 120_000, 91);
    let mut reference = input.clone();
    onesweep_sort(&mut reference);
    for threads in [2usize, 4] {
        let mut par = input.clone();
        // Oversized aux: only the first n slots may be used.
        let mut aux = vec![0u64; input.len() + 33];
        parallel_onesweep_sort_with_aux(&mut par, &mut aux, threads);
        assert_eq!(par, reference, "threads={threads}");
    }
}

/// n = 0, 1, 2 and both sides of every ladder bound for `K`'s image width,
/// paired with how many input patterns to run there: the top bound's
/// inputs are 64 Ki keys, so it gets one pattern (the most awkward one).
fn ladder_sizes<K: SortKey>() -> Vec<(usize, usize)> {
    let comparison_max = if K::Radix::BITS == 32 {
        COMPARISON_MAX_32
    } else {
        COMPARISON_MAX_64
    };
    let mut sizes: Vec<(usize, usize)> = [0, 1, 2, comparison_max, comparison_max + 1]
        .map(|n| (n, usize::MAX))
        .to_vec();
    sizes.extend([(PARALLEL_FLOOR, 1), (PARALLEL_FLOOR + 1, 1)]);
    sizes
}

/// Every entry that reaches the device-sort ladder, on `input`, against a
/// stable sort by radix image. `bytes` is what must match: the image for
/// scalar keys (`NaN != NaN` and `-0.0 == 0.0`, so keys are not compared),
/// the image and the payload for `Pair`s.
fn check_ladder<K: SortKey>(input: &[K], what: &str, bytes: impl Fn(&K) -> (u64, u32)) {
    let mut oracle = input.to_vec();
    oracle.sort_by_key(|k| k.to_radix());
    let expected: Vec<(u64, u32)> = oracle.iter().map(&bytes).collect();
    let got_bytes = |keys: &[K]| -> Vec<(u64, u32)> { keys.iter().map(&bytes).collect() };
    let mut aux = input.to_vec();

    let mut got = input.to_vec();
    onesweep_sort_with_aux(&mut got, &mut aux);
    assert_eq!(got_bytes(&got), expected, "sequential, {what}");

    let mut got = input.to_vec();
    parallel_onesweep_sort_with_aux(&mut got, &mut aux, 2);
    assert_eq!(got_bytes(&got), expected, "parallel, {what}");

    for threads in [1, 2] {
        let mut got = input.to_vec();
        device_sort_with(&mut got, &mut aux, threads);
        assert_eq!(got_bytes(&got), expected, "device width {threads}, {what}");
    }
}

/// Scalar keys across the ladder: four distributions and one input drawn
/// from the type's awkward values (`specials`).
fn check_scalar_ladder<K: SortKey>(specials: &[K]) {
    for (n, patterns) in ladder_sizes::<K>() {
        let mut rng = Rng::seed_from_u64(n as u64);
        let mut inputs: Vec<Vec<K>> = [
            Distribution::Uniform,
            Distribution::Constant,
            Distribution::ReverseSorted,
            Distribution::ZipfDuplicates { skew_permille: 800 },
        ]
        .into_iter()
        .map(|dist| generate(dist, n, 41))
        .collect();
        inputs.push(
            (0..n)
                .map(|_| specials[rng.usize_in(0..specials.len())])
                .collect(),
        );
        for (pattern, input) in inputs.iter().enumerate().rev().take(patterns) {
            let what = format!("{:?} n={n} pattern {pattern}", K::DATA_TYPE);
            check_ladder(input, &what, |k| (k.to_radix().to_u64(), 0));
        }
    }
}

/// `n` keys with eight distinct values drawn from `K`'s uniform input.
fn eight_keys<K: SortKey>(n: usize, seed: u64) -> Vec<K> {
    generate::<K>(Distribution::Uniform, n, seed)
        .into_iter()
        .map(|k| K::from_radix(K::Radix::from_u64_trunc(k.to_radix().to_u64() % 8)))
        .collect()
}

/// `keys` with payload = position, so an unstable sort or merge shows as
/// payloads out of order among equal keys.
fn with_positions<K: SortKey>(keys: Vec<K>) -> Vec<Pair<K>> {
    keys.into_iter()
        .zip(0u32..)
        .map(|(k, v)| Pair::new(k, v))
        .collect()
}

/// `Pair` keys across the ladder: duplicate-heavy keys (Zipf, and eight
/// distinct keys), payload = input position.
fn check_pair_ladder<K: SortKey>() {
    for (n, patterns) in ladder_sizes::<Pair<K>>() {
        let zipf: Vec<K> = generate(
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            n,
            43,
        );
        let eight = eight_keys::<K>(n, 44);
        for (pattern, keys) in [zipf, eight].into_iter().enumerate().rev().take(patterns) {
            let input = with_positions(keys);
            let what = format!("{:?} n={n} pattern {pattern}", <Pair<K>>::DATA_TYPE);
            check_ladder(&input, &what, |p| (p.to_radix().to_u64(), p.value));
        }
    }
}

#[test]
fn device_sort_ladder_matches_a_stable_sort_for_every_key_type() {
    check_scalar_ladder(&[0u32, 1, u32::MAX, u32::MAX - 1, 1 << 31]);
    check_scalar_ladder(&[0u64, 1, u64::MAX, 1 << 63, 1 << 32]);
    check_scalar_ladder(&[0i32, -1, 1, i32::MIN, i32::MAX]);
    check_scalar_ladder(&[0i64, -1, 1, i64::MIN, i64::MAX]);
    check_scalar_ladder(&[
        0.0f32,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffc0_0001),
        f32::from_bits(0x7f80_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -1.5,
    ]);
    check_scalar_ladder(&[
        0.0f64,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0001),
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -1.5,
    ]);
}

#[test]
fn device_sort_ladder_is_stable_for_pairs() {
    check_pair_ladder::<u32>();
    check_pair_ladder::<u64>();
}

// ---- One data path: the family that times a sort never picks its bytes. ----

/// Image and payload of a scalar key (payload 0).
fn scalar_bytes<K: SortKey>(k: &K) -> (u64, u32) {
    (k.to_radix().to_u64(), 0)
}

/// Image and payload of a `Pair`.
fn pair_bytes<K: SortKey>(p: &Pair<K>) -> (u64, u32) {
    (p.to_radix().to_u64(), p.value)
}

/// Panics at the first position where `got` and `expected` differ.
fn assert_same_bytes(got: &[(u64, u32)], expected: &[(u64, u32)], what: &str) {
    assert_eq!(got.len(), expected.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != expected[i]) {
        panic!(
            "{what}: position {i} holds {:?}, the stable sort {:?}",
            got[i], expected[i]
        );
    }
}

/// `input` through every sort op of the runtime, `GpuSystem::gpu_sort`
/// under each `GpuSortAlgo` and `GpuSystem::cpu_sort`; each must write
/// exactly the bytes of a stable sort by radix image.
fn check_sort_ops<K: SortKey>(input: &[K], what: &str, bytes: impl Fn(&K) -> (u64, u32)) {
    let mut oracle = input.to_vec();
    oracle.sort_by_key(|k| k.to_radix());
    let expected: Vec<(u64, u32)> = oracle.iter().map(&bytes).collect();
    let n = input.len() as u64;
    let platform = Platform::dgx_a100();
    let mut sys: GpuSystem<'_, K> = GpuSystem::new(&platform, Fidelity::Full);
    let s = sys.stream();
    let mut sorted = Vec::new();
    for algo in GpuSortAlgo::all() {
        let host = sys.world_mut().import_host(0, input.to_vec(), n);
        let dev = sys.world_mut().alloc_gpu(0, n);
        let aux = sys.world_mut().alloc_gpu(0, n);
        sys.world_mut().copy_range(host, 0, dev, 0, n);
        sys.gpu_sort(s, algo, dev, (0, n), aux, &[]);
        sorted.push((format!("gpu_sort {algo:?}"), dev));
    }
    let host = sys.world_mut().import_host(0, input.to_vec(), n);
    sys.cpu_sort(s, host, &[]);
    sorted.push(("cpu_sort".to_string(), host));
    sys.synchronize();
    for (op, buf) in sorted {
        let got: Vec<(u64, u32)> = sys.world().slice(buf, 0, n).iter().map(&bytes).collect();
        assert_same_bytes(&got, &expected, &format!("{op}, {what}"));
    }
}

/// Both sides of each ladder bound for `K`'s image width; the top one,
/// 64 Ki + 1 keys, is also the smallest input the parallel kernels take.
fn sort_op_sizes<K: SortKey>() -> [usize; 4] {
    let comparison_max = if K::Radix::BITS == 32 {
        COMPARISON_MAX_32
    } else {
        COMPARISON_MAX_64
    };
    [
        comparison_max,
        comparison_max + 1,
        PARALLEL_FLOOR,
        PARALLEL_FLOOR + 1,
    ]
}

#[test]
fn every_sort_op_writes_the_stable_bytes_whatever_the_family() {
    for n in sort_op_sizes::<u32>() {
        let input: Vec<u32> = generate(Distribution::ZipfDuplicates { skew_permille: 800 }, n, 51);
        check_sort_ops(&input, &format!("u32 n={n}"), scalar_bytes);
    }
    for n in sort_op_sizes::<u64>() {
        let input: Vec<u64> = generate(Distribution::Uniform, n, 52);
        check_sort_ops(&input, &format!("u64 n={n}"), scalar_bytes);
    }
    let specials = [
        0.0f32,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -1.5,
    ];
    for n in sort_op_sizes::<f32>() {
        let mut rng = Rng::seed_from_u64(n as u64);
        let input: Vec<f32> = (0..n)
            .map(|_| specials[rng.usize_in(0..specials.len())])
            .collect();
        check_sort_ops(&input, &format!("f32 n={n}"), scalar_bytes);
    }
    for n in sort_op_sizes::<Pair<u32>>() {
        let input = with_positions(eight_keys::<u32>(n, 53));
        check_sort_ops(&input, &format!("Pair<u32> n={n}"), pair_bytes);
    }
    for n in sort_op_sizes::<Pair<u64>>() {
        let input = with_positions(eight_keys::<u64>(n, 54));
        check_sort_ops(&input, &format!("Pair<u64> n={n}"), pair_bytes);
    }
}

/// Two sorted runs of eight distinct keys, payload = position in the
/// concatenation, merged by a two-run `gpu_multiway_merge` and a two-run
/// `cpu_multiway_merge`: among equal keys the first run's must come first,
/// each run in its own order.
fn check_two_run_merges<K: SortKey>(lens: (usize, usize)) {
    let mut first = eight_keys::<K>(lens.0, 55);
    let mut second = eight_keys::<K>(lens.1, 56);
    first.sort_by_key(|k| k.to_radix());
    second.sort_by_key(|k| k.to_radix());
    let input = with_positions([first, second].concat());
    let mut oracle = input.clone();
    oracle.sort_by_key(|p| p.to_radix());
    let expected: Vec<(u64, u32)> = oracle.iter().map(pair_bytes).collect();
    let (a, n) = (lens.0 as u64, input.len() as u64);
    let runs = |buf| vec![(buf, 0, a), (buf, a, n - a)];

    let platform = Platform::dgx_a100();
    let mut sys: GpuSystem<'_, Pair<K>> = GpuSystem::new(&platform, Fidelity::Full);
    let s = sys.stream();
    let host_in = sys.world_mut().import_host(0, input.clone(), n);
    let host_out = sys.world_mut().alloc_host(0, n);
    let dev_in = sys.world_mut().alloc_gpu(0, n);
    let dev_out = sys.world_mut().alloc_gpu(0, n);
    sys.world_mut().copy_range(host_in, 0, dev_in, 0, n);
    sys.gpu_multiway_merge(s, runs(dev_in), dev_out, &[]);
    sys.cpu_multiway_merge(s, runs(host_in), host_out, 0, &[]);
    sys.synchronize();
    for (op, buf) in [
        ("gpu_multiway_merge", dev_out),
        ("cpu_multiway_merge", host_out),
    ] {
        let got: Vec<(u64, u32)> = sys
            .world()
            .slice(buf, 0, n)
            .iter()
            .map(pair_bytes)
            .collect();
        let what = format!("{op} of {lens:?} {:?}", <Pair<K>>::DATA_TYPE);
        assert_same_bytes(&got, &expected, &what);
    }
}

#[test]
fn two_run_merge_ops_keep_run_order() {
    for lens in [(0, 5), (300, 211), (40_000, 30_001)] {
        check_two_run_merges::<u32>(lens);
        check_two_run_merges::<u64>(lens);
    }
}

#[test]
fn branchless_merge_path_matches_std() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(1000 + seed);
        let v = random_vec_u32(&mut rng, 4000);
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut got = v.clone();
        merge_path_sort(&mut got);
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn branchless_merge_path_edge_cases() {
    for len in [0usize, 1, 2, 5, 4095, 4096, 4097] {
        let mut rng = Rng::seed_from_u64(len as u64);
        let v: Vec<u64> = (0..len).map(|_| rng.u64()).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut got = v;
        merge_path_sort(&mut got);
        assert_eq!(got, expected, "len {len}");
    }
}

// ---- Sample-sort splitter partition (PR 7). ----

/// Full permutation check for the splitter partition: the output must be
/// exactly the naive stable partition (per-bucket key lists in input
/// order, concatenated), with boundaries matching `bucket_counts`.
fn check_splitter_partition<K: SortKey + PartialEq + std::fmt::Debug>(
    input: &[K],
    buckets: usize,
    tag: &str,
) {
    let n = input.len();
    let views: Vec<&[K]> = if n == 0 {
        vec![input]
    } else {
        input.chunks(n.div_ceil(buckets)).collect()
    };
    let splitters = select_splitters(&views, buckets, 32);
    assert!(splitters.len() < buckets, "{tag}");

    // The naive reference: walk the input once, appending each key to its
    // `bucket_of` bucket; concatenation is the expected stable partition.
    let mut expect: Vec<Vec<K>> = vec![Vec::new(); splitters.len() + 1];
    for (i, &key) in input.iter().enumerate() {
        expect[bucket_of(key, i as u64, &splitters)].push(key);
    }
    let expected: Vec<K> = expect.iter().flatten().copied().collect();
    let counts = bucket_counts(input, &splitters);
    for (b, bucket) in expect.iter().enumerate() {
        assert_eq!(counts[b] as usize, bucket.len(), "{tag} bucket {b}");
    }

    let mut reference: Option<(Vec<K>, Vec<usize>)> = None;
    for threads in [1usize, 2, 4] {
        let mut data = input.to_vec();
        let mut aux = input.to_vec();
        let bounds = partition_by_splitters(&mut data, &mut aux, &splitters, threads);
        assert_eq!(
            data, expected,
            "{tag} threads={threads}: not the stable partition"
        );
        assert_eq!(*bounds.last().unwrap(), n, "{tag}");
        for (b, w) in bounds.windows(2).enumerate() {
            assert_eq!(counts[b] as usize, w[1] - w[0], "{tag} boundary {b}");
        }
        // Pool widths 1/2/4 must be byte-identical.
        match &reference {
            None => reference = Some((data, bounds)),
            Some((d, bo)) => {
                assert_eq!(&data, d, "{tag} threads={threads}");
                assert_eq!(&bounds, bo, "{tag} threads={threads}");
            }
        }
    }
}

#[test]
fn splitter_partition_is_a_stable_permutation_u32() {
    for dist in Distribution::paper_set() {
        let input: Vec<u32> = generate(dist, 60_000, 41);
        check_splitter_partition(&input, 8, &format!("u32 {dist:?}"));
    }
    for seed in 0..CASES / 4 {
        let mut rng = Rng::seed_from_u64(5000 + seed);
        let input = random_vec_u32(&mut rng, 5000);
        let buckets = 1 + rng.usize_in(1..9);
        check_splitter_partition(&input, buckets, &format!("u32 seed {seed}"));
    }
}

#[test]
fn splitter_partition_is_a_stable_permutation_u64() {
    for dist in Distribution::paper_set() {
        let input: Vec<u64> = generate(dist, 60_000, 43);
        check_splitter_partition(&input, 4, &format!("u64 {dist:?}"));
    }
    for seed in 0..CASES / 4 {
        let mut rng = Rng::seed_from_u64(6000 + seed);
        let input = random_vec_u64(&mut rng, 5000);
        let buckets = 1 + rng.usize_in(1..9);
        check_splitter_partition(&input, buckets, &format!("u64 seed {seed}"));
    }
}

#[test]
fn splitter_partition_edge_cases() {
    // Empty input, single bucket, and tile-straddling lengths.
    check_splitter_partition::<u32>(&[], 4, "empty");
    check_splitter_partition(&[9u32], 4, "singleton");
    let dup = vec![7u64; 40_000];
    check_splitter_partition(&dup, 8, "all-duplicate");
    let straddle: Vec<u32> = generate(Distribution::Uniform, (1 << 15) + 17, 47);
    check_splitter_partition(&straddle, 3, "tile straddle");
    // Exactly two 32 Ki-key tiles and one key past them, 64 buckets: every
    // bucket gathers one segment per tile, in tile order.
    for n in [2 << 15, (2 << 15) + 1] {
        let input: Vec<u32> = generate(Distribution::Uniform, n, 48);
        check_splitter_partition(&input, 64, &format!("u32 n={n} 64 buckets"));
    }
    // Duplicate-heavy keys whose payload is the input position: the
    // expected partition compares payloads too, so any reordering within
    // a bucket — inside a tile or across tiles — is a mismatch.
    for (n, buckets) in [(5_000, 8), (2 << 15, 64), ((2 << 15) + 1, 8)] {
        let keys: Vec<u32> = generate(
            Distribution::ZipfDuplicates {
                skew_permille: 1200,
            },
            n,
            49,
        );
        let input: Vec<Pair<u32>> = (0u32..).zip(keys).map(|(i, k)| Pair::new(k, i)).collect();
        check_splitter_partition(&input, buckets, &format!("Pair<u32> n={n}"));
    }
}

// ---- k-way merge vs. the standard library (PR 7). ----

/// Run counts either side of the loser tree's power-of-two leaf counts,
/// tried before the random draws.
const EDGE_RUN_COUNTS: [usize; 16] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65, 70];

#[test]
fn kway_merge_matches_std_at_every_pool_width() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(7000 + seed);
        let k = EDGE_RUN_COUNTS
            .get(seed as usize)
            .copied()
            .unwrap_or_else(|| rng.usize_in(1..71));
        let max_len = 24_000 / k;
        // Odd runs draw from 64 values, so equal keys meet across runs.
        let mut runs: Vec<Vec<u64>> = (0..k)
            .map(|r| {
                let v = random_vec_u64(&mut rng, max_len);
                v.into_iter()
                    .map(|x| if r % 2 == 1 { x % 64 } else { x })
                    .collect()
            })
            .collect();
        let mut all: Vec<u64> = Vec::new();
        for r in &mut runs {
            r.sort_unstable();
            all.extend_from_slice(r);
        }
        all.sort_unstable();
        let views: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();

        let mut sequential = vec![0u64; all.len()];
        multiway_merge(&views, &mut sequential);
        assert_eq!(sequential, all, "seed {seed} k={k}: loser tree vs std");

        // Pool widths 1/2/4, with the sequential cutoff forced off so the
        // parallel split path actually runs: all byte-identical.
        for threads in [1usize, 2, 4] {
            let mut out = vec![0u64; all.len()];
            parallel_multiway_merge_with(
                &views,
                &mut out,
                ParallelMergeConfig {
                    threads,
                    sequential_threshold: 0,
                },
            );
            assert_eq!(out, all, "seed {seed} threads={threads}: parallel vs std");
        }
    }
}

#[test]
fn kway_merge_duplicate_and_skewed_runs() {
    // Runs of wildly different lengths plus heavy duplication: the
    // multisequence split must still carve identical output at every
    // width. Empty runs come first and runs ending in the type's maximal
    // image after them: an empty run's leaf ties those heads on image, so
    // only the tag's exhausted bit keeps it from winning.
    check_skewed_merge::<u32>(u32::MAX);
    check_skewed_merge::<u64>(u64::MAX);
    check_skewed_merge::<f32>(f32::from_bits(0x7fff_ffff));
    check_skewed_merge::<f64>(f64::from_bits(0x7fff_ffff_ffff_ffff));
}

/// Merge skewed, duplicate-heavy and empty runs plus runs ending in `max`
/// (a key with the maximal radix image) at every pool width; radix images
/// are compared, as NaN keys are not equal to themselves.
fn check_skewed_merge<K: SortKey>(max: K) {
    assert_eq!(max.to_radix(), <K::Radix as RadixImage>::max_value());
    let zipf = Distribution::ZipfDuplicates {
        skew_permille: 1400,
    };
    let runs: Vec<Vec<K>> = vec![
        Vec::new(),
        Vec::new(),
        vec![max],
        generate(zipf, 50_000, 3),
        generate(Distribution::Constant, 10_000, 9),
        generate(Distribution::Uniform, 100, 4),
        Vec::new(),
        generate(Distribution::ReverseSorted, 20_000, 5),
        vec![max; 3],
        generate(Distribution::Uniform, 5, 6)
            .into_iter()
            .chain([max])
            .collect(),
    ]
    .into_iter()
    .map(|mut r| {
        r.sort_unstable_by_key(|k| k.to_radix());
        r
    })
    .collect();
    let image = |keys: &[K]| -> Vec<K::Radix> { keys.iter().map(|k| k.to_radix()).collect() };
    let views: Vec<&[K]> = runs.iter().map(Vec::as_slice).collect();
    let mut all: Vec<K::Radix> = runs.iter().flat_map(|r| image(r)).collect();
    all.sort_unstable();
    let mut sequential = vec![max; all.len()];
    multiway_merge(&views, &mut sequential);
    assert_eq!(image(&sequential), all, "{:?} sequential", K::DATA_TYPE);
    for threads in [1usize, 2, 4] {
        let mut out = vec![max; all.len()];
        parallel_multiway_merge_with(
            &views,
            &mut out,
            ParallelMergeConfig {
                threads,
                sequential_threshold: 0,
            },
        );
        assert_eq!(image(&out), all, "{:?} threads={threads}", K::DATA_TYPE);
    }
}

#[test]
fn kway_merge_of_pairs_is_stable() {
    check_stable_pair_merge::<u32>(0);
    check_stable_pair_merge::<u64>(40);
}

/// Merge runs of `Pair<K>`s whose keys take 32 values (shifted left by
/// `shift` bits) and whose payload is (run, position): the unique stable
/// result is a stable sort of the runs' concatenation — equal keys by run,
/// then by position in the run. The sequential merge, the parallel one at
/// every pool width and a drained `LoserTree` must all produce it.
fn check_stable_pair_merge<K: SortKey + PartialEq>(shift: u32) {
    for seed in 0..CASES / 4 {
        let mut rng = Rng::seed_from_u64(8000 + seed);
        let k = EDGE_RUN_COUNTS[rng.usize_in(0..EDGE_RUN_COUNTS.len())];
        let runs: Vec<Vec<Pair<K>>> = (0..k as u32)
            .map(|r| {
                let mut keys: Vec<K::Radix> = (0..rng.usize_in(0..2000))
                    .map(|_| K::Radix::from_u64_trunc((rng.u64() % 32) << shift))
                    .collect();
                keys.sort_unstable();
                (0u32..)
                    .zip(keys)
                    .map(|(pos, image)| Pair::new(K::from_radix(image), r << 20 | pos))
                    .collect()
            })
            .collect();
        let mut all: Vec<Pair<K>> = runs.iter().flatten().copied().collect();
        all.sort_by_key(|p| p.to_radix());
        let views: Vec<&[Pair<K>]> = runs.iter().map(Vec::as_slice).collect();
        let what = format!("{:?} seed {seed} k={k}", K::DATA_TYPE);
        let blank = vec![Pair::new(K::from_radix(K::Radix::zero()), u32::MAX); all.len()];

        let mut sequential = blank.clone();
        multiway_merge(&views, &mut sequential);
        assert_eq!(sequential, all, "{what}: multiway_merge is not stable");
        let mut tree = LoserTree::new(&views);
        let drained: Vec<Pair<K>> = std::iter::from_fn(|| tree.pop()).collect();
        assert_eq!(drained, sequential, "{what}: LoserTree::pop");
        for threads in [1usize, 2, 4] {
            let mut out = blank.clone();
            parallel_multiway_merge_with(
                &views,
                &mut out,
                ParallelMergeConfig {
                    threads,
                    sequential_threshold: 0,
                },
            );
            assert_eq!(out, all, "{what} threads={threads}: not stable");
        }
    }
}
