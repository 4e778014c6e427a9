//! OneSweep-style single-pass radix sort.
//!
//! The classic parallel LSB radix sort sweeps the keys **twice per digit**:
//! a histogram pass to size the per-thread output regions, then the scatter
//! itself — `2d` full reads for `d` digit passes.
//! OneSweep (Adinets & Merrill, "Onesweep: A Faster Least Significant Digit
//! Radix Sort for GPUs", the kernel family behind the GPUSorting exemplar
//! that beats CUB's `DeviceRadixSort`) removes the per-pass histogram sweep:
//!
//! * **one** global histogram pass up front computes the bucket totals of
//!   *every* digit position in a single scan (totals are permutation
//!   invariant, so they stay valid for all later passes);
//! * each digit pass is then a **single scatter sweep**: the input is cut
//!   into fixed-size tiles; a tile counts its own digits while its keys are
//!   cache resident, resolves its global write offsets by *chained prefix
//!   propagation* from its predecessor tile (the CPU analogue of decoupled
//!   lookback: publish local counts, acquire the running prefix of tile
//!   `t-1`, publish the inclusive prefix for tile `t+1`), and scatters
//!   straight from cache.
//!
//! Keys therefore stream from memory `1 + d` times instead of `2d`. One
//! further single-thread win over [`crate::lsb_radix`]: **wider digits**.
//! 11-bit digits (2048 buckets) need 3 passes for 32-bit keys and 6 for
//! 64-bit keys, vs 4 and 8 at the classic 8-bit width — 25% fewer key
//! reads *and* writes end to end. The histogram working set (6 × 16 KiB)
//! still sits in L2.
//!
//! Determinism: tiles have a **fixed** size (never derived from the thread
//! count), the scatter is stable (within a bucket, keys keep tile order and
//! in-tile order), and stable LSD radix output is unique — so the sequential
//! kernel, the parallel kernel, and [`crate::lsb_radix`] all produce
//! bit-identical outputs for every `MSORT_POOL_THREADS` setting. That is the
//! property `tests/golden.rs` pins at pool widths 1 and 2.
//!
//! Small-input path: [`onesweep_sort_with_aux`] runs a size ladder. Inputs
//! too small to amortise any histogram — up to a floor per radix-image
//! width (`COMPARISON_MAX_32`, `COMPARISON_MAX_64`, whose docs hold the
//! probe numbers) — take a stable comparison sort on the radix image;
//! mid-sized inputs, up to the parallel floor, take the 8-bit LSD kernel
//! ([`crate::lsb_radix`]), whose 256 stack counters per pass cost less than
//! OneSweep's 2 048; the rest take the passes above. Every rung is a stable
//! sort by radix image, so the rung an input takes never shows in the
//! output bytes, `Pair` payloads among equal keys included.

use msort_data::keys::{RadixImage, SortKey};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Digit width in bits. See the module docs for why 11 beats 8 here.
pub const RADIX_BITS: u32 = 11;

/// Number of buckets per digit pass.
pub const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// Tile size (in keys) of the chained-lookback scatter. Constant — never a
/// function of the thread count — so the output-position assignment is
/// identical for every pool width. 32 Ki keys keep a tile (plus its two
/// 16 KiB count tables) L2 resident between
/// the count and the scatter, and put two tiles — the minimum that can
/// overlap — exactly at the device dispatch floor
/// (`msort_gpu::primitives::PARALLEL_MIN_KEYS`, 64 Ki).
const TILE: usize = 1 << 15;

/// Below this many keys (= two tiles) the parallel entry point falls back
/// to the sequential kernel: a single tile has no scatter overlap to win
/// and would pay the lookback state setup for nothing.
const PARALLEL_FLOOR: usize = 2 * TILE;

/// At or below this many keys with a 32-bit image (`u32`, `i32`, `f32`,
/// `Pair` of those), [`onesweep_sort_with_aux`] takes a stable comparison
/// sort on the image; above it, up to [`PARALLEL_FLOOR`], the 8-bit LSD
/// kernel ([`crate::lsb_radix::lsb_radix_sort_with_aux`]); above that, the
/// OneSweep passes.
///
/// Rule for the comparison floors: the largest power of two at which the
/// comparison sort still wins, from `cargo run -p msort-bench --release
/// --example tune` on the 2-core CI container, uniform keys, ns per key,
/// median of 7, built with the ladder cut out so that `device` is the
/// OneSweep passes:
///
/// ```text
/// n=     128: stable  10.04, unstable   8.79, lsd8  13.52, device  67.42
/// n=     256: stable  13.59, unstable  11.58, lsd8   9.91, device  37.62
/// n=     512: stable  12.44, unstable  11.10, lsd8  12.29, device  28.28
/// n=    1024: stable  16.76, unstable  15.53, lsd8   9.19, device  17.34
/// n=    2048: stable  16.02, unstable  14.28, lsd8   9.46, device  13.09
/// n=    8192: stable  22.38, unstable  12.74, lsd8   7.88, device   9.75
/// n=   65536: stable  26.97, unstable  20.45, lsd8   8.30, device  15.29
/// n=  262144: stable  39.11, unstable  21.98, lsd8  11.58, device  15.18
/// n=  524288: stable  27.60, unstable  31.23, lsd8  24.21, device  22.27
/// ```
///
/// Between 128 and 512 keys the two are within a few ns per key of each
/// other either way, so the floor was settled in place, on `perf
/// --workload serve_overload --seconds 4` (whose device sorts are 512 and
/// 2 048 keys), alternating eight pairs per comparison: a floor of 256
/// beats 1 Ki by 4.0 % in median `wall_s` (7 of 8 pairs) and ties 128
/// (−0.6 %, 4 of 8).
/// LSD8 keeps beating the OneSweep passes up to 256 Ki keys on one core,
/// but from [`PARALLEL_FLOOR`] (64 Ki) up a pool of two or more workers
/// sorts with the parallel OneSweep kernel, so the top rung starts there at
/// every pool width.
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

/// Number of digit passes needed to cover `R::BITS` at [`RADIX_BITS`] per
/// pass (the last pass covers the remaining high bits).
#[must_use]
fn pass_count<R: RadixImage>() -> usize {
    R::BITS.div_ceil(RADIX_BITS) as usize
}

/// Sort `data` in place with the sequential OneSweep kernel, allocating the
/// auxiliary buffer internally.
pub fn onesweep_sort<K: SortKey>(data: &mut [K]) {
    if data.len() <= 1 {
        return;
    }
    let mut aux = vec![data[0]; data.len()];
    onesweep_sort_with_aux(data, &mut aux);
}

/// Sort `data` in place with the sequential OneSweep kernel using a
/// caller-provided auxiliary buffer (`aux.len() >= data.len()`). Inputs of
/// at most 64 Ki keys take the size ladder in the module docs instead; the
/// bytes written are the same.
///
/// # Panics
/// Panics if `aux.len() < data.len()`.
pub fn onesweep_sort_with_aux<K: SortKey>(data: &mut [K], aux: &mut [K]) {
    let n = data.len();
    assert!(
        aux.len() >= n,
        "auxiliary buffer must cover the input length"
    );
    let aux = &mut aux[..n];
    let comparison_max = if K::Radix::BITS == 32 {
        COMPARISON_MAX_32
    } else {
        COMPARISON_MAX_64
    };
    if n <= comparison_max {
        data.sort_by_key(|k| k.to_radix());
        return;
    }
    if n <= PARALLEL_FLOOR {
        crate::lsb_radix::lsb_radix_sort_with_aux(data, aux);
        return;
    }

    // One global histogram pass: bucket totals of every digit position.
    let passes = pass_count::<K::Radix>();
    let mut hists = vec![vec![0usize; RADIX_BUCKETS]; passes];
    scan_all_digits(data, &mut hists);

    let mut offsets = vec![0usize; RADIX_BUCKETS];
    let mut in_data = true;
    for (p, hist) in hists.iter().enumerate() {
        // A pass whose digit is constant across the input moves nothing.
        if hist.contains(&n) {
            continue;
        }
        let shift = p as u32 * RADIX_BITS;
        exclusive_scan(hist, &mut offsets);
        let (src, dst): (&[K], SendPtr<K>) = if in_data {
            (&*data, SendPtr(aux.as_mut_ptr()))
        } else {
            (&*aux, SendPtr(data.as_mut_ptr()))
        };
        // SAFETY: `offsets` is the exclusive scan of the full bucket totals
        // for this pass, so every key scatters to a unique in-bounds slot of
        // the opposite ping-pong buffer.
        unsafe { scatter(src, dst, shift, &mut offsets) };
        in_data = !in_data;
    }
    if !in_data {
        data.copy_from_slice(aux);
    }
}

/// Sort `data` in place with the parallel OneSweep kernel: `threads` pool
/// workers pull fixed-size tiles off a shared ticket and resolve their
/// scatter offsets by chained prefix propagation. Falls back to
/// [`onesweep_sort_with_aux`] below the parallel floor; the output is
/// bit-identical either way.
pub fn parallel_onesweep_sort<K: SortKey>(data: &mut [K], threads: usize) {
    if data.len() <= 1 {
        return;
    }
    let mut aux = vec![data[0]; data.len()];
    parallel_onesweep_sort_with_aux(data, &mut aux, threads);
}

/// [`parallel_onesweep_sort`] with a caller-provided auxiliary buffer
/// (`aux.len() >= data.len()`), so the GPU runtime's device-style scratch
/// allocations are reused instead of reallocated.
///
/// # Panics
/// Panics if `aux.len() < data.len()`.
pub fn parallel_onesweep_sort_with_aux<K: SortKey>(data: &mut [K], aux: &mut [K], threads: usize) {
    let n = data.len();
    assert!(
        aux.len() >= n,
        "auxiliary buffer must cover the input length"
    );
    let threads = threads.max(1).min(n.max(1));
    if n <= 1 {
        return;
    }
    let aux = &mut aux[..n];
    if threads == 1 || n < PARALLEL_FLOOR {
        onesweep_sort_with_aux(data, aux);
        return;
    }

    // Global histogram pass, parallel over stripes. Totals are stripe-order
    // independent, but the reduction still runs in fixed stripe order.
    let passes = pass_count::<K::Radix>();
    let stripe = n.div_ceil(threads);
    let mut stripe_hists: Vec<Vec<usize>> =
        vec![vec![0usize; passes * RADIX_BUCKETS]; n.div_ceil(stripe)];
    crate::pool::scope(|scope| {
        for (chunk, hist) in data.chunks(stripe).zip(stripe_hists.iter_mut()) {
            scope.spawn(move || {
                for key in chunk {
                    let img = key.to_radix();
                    for p in 0..passes {
                        hist[p * RADIX_BUCKETS + img.digit(p as u32 * RADIX_BITS, RADIX_BITS)] += 1;
                    }
                }
            });
        }
    });
    let mut hists = vec![vec![0usize; RADIX_BUCKETS]; passes];
    for sh in &stripe_hists {
        for (p, hist) in hists.iter_mut().enumerate() {
            for (t, &c) in hist.iter_mut().zip(&sh[p * RADIX_BUCKETS..]) {
                *t += c;
            }
        }
    }

    // Chained-lookback state, reused across passes. `counts[t * B + b]` is
    // the *inclusive* prefix (tiles 0..=t) of bucket b once `done[t]` is
    // set; tile counts fit u32 because TILE < 2^32.
    let tiles = n.div_ceil(TILE);
    let counts: Vec<AtomicU32> = (0..tiles * RADIX_BUCKETS)
        .map(|_| AtomicU32::new(0))
        .collect();
    let done: Vec<AtomicU32> = (0..tiles).map(|_| AtomicU32::new(0)).collect();
    let ticket = AtomicUsize::new(0);

    let mut bases = vec![0usize; RADIX_BUCKETS];
    let mut in_data = true;
    for (p, hist) in hists.iter().enumerate() {
        if hist.contains(&n) {
            continue;
        }
        let shift = p as u32 * RADIX_BITS;
        exclusive_scan(hist, &mut bases);
        for d in &done {
            d.store(0, Ordering::Relaxed);
        }
        ticket.store(0, Ordering::Relaxed);

        let (src, dst): (&[K], SendPtr<K>) = if in_data {
            // SAFETY: `data` and `aux` are distinct allocations of length n;
            // the raw-derived views only erase the ping-pong borrow.
            (
                unsafe { std::slice::from_raw_parts(data.as_ptr(), n) },
                SendPtr(aux.as_mut_ptr()),
            )
        } else {
            (
                unsafe { std::slice::from_raw_parts(aux.as_ptr(), n) },
                SendPtr(data.as_mut_ptr()),
            )
        };

        let workers = threads.min(tiles);
        crate::pool::scope(|scope| {
            for _ in 0..workers {
                let (counts, done, ticket, bases) = (&counts, &done, &ticket, &bases);
                scope.spawn(move || {
                    let mut local = vec![0u32; RADIX_BUCKETS];
                    let mut offsets = vec![0usize; RADIX_BUCKETS];
                    loop {
                        let t = ticket.fetch_add(1, Ordering::Relaxed);
                        if t >= tiles {
                            break;
                        }
                        let tile = &src[t * TILE..((t + 1) * TILE).min(n)];
                        // Count this tile's digits (the tile is now cache
                        // resident for the scatter below).
                        local.iter_mut().for_each(|c| *c = 0);
                        for key in tile {
                            local[key.to_radix().digit(shift, RADIX_BITS)] += 1;
                        }
                        // Chained prefix resolution: acquire the inclusive
                        // prefix of tile t-1, publish ours for tile t+1.
                        // Progress is guaranteed because tickets are issued
                        // in tile order: tile t-1 is always already running
                        // on some worker when tile t waits for it.
                        if t > 0 {
                            let mut spins = 0u32;
                            while done[t - 1].load(Ordering::Acquire) == 0 {
                                spins += 1;
                                if spins < 1 << 10 {
                                    std::hint::spin_loop();
                                } else {
                                    std::thread::yield_now();
                                }
                            }
                        }
                        let prev =
                            (t > 0).then(|| &counts[(t - 1) * RADIX_BUCKETS..t * RADIX_BUCKETS]);
                        let own = &counts[t * RADIX_BUCKETS..(t + 1) * RADIX_BUCKETS];
                        for (b, (own_c, &loc)) in own.iter().zip(&local).enumerate() {
                            let excl = prev.map_or(0, |pc| pc[b].load(Ordering::Relaxed));
                            own_c.store(excl + loc, Ordering::Relaxed);
                            offsets[b] = bases[b] + excl as usize;
                        }
                        done[t].store(1, Ordering::Release);
                        // SAFETY: [bases[b] + excl[b], bases[b] + incl[b])
                        // ranges are pairwise disjoint across (tile, bucket)
                        // pairs by the prefix construction and in bounds of
                        // the length-n destination.
                        unsafe { scatter(tile, dst, shift, &mut offsets) };
                    }
                });
            }
        });
        in_data = !in_data;
    }
    if !in_data {
        data.copy_from_slice(aux);
    }
}

/// Fill one histogram per digit pass in a single scan over `data`.
fn scan_all_digits<K: SortKey>(data: &[K], hists: &mut [Vec<usize>]) {
    for key in data {
        let img = key.to_radix();
        for (p, hist) in hists.iter_mut().enumerate() {
            hist[img.digit(p as u32 * RADIX_BITS, RADIX_BITS)] += 1;
        }
    }
}

/// Exclusive prefix scan of `hist` into `out`.
fn exclusive_scan(hist: &[usize], out: &mut [usize]) {
    let mut acc = 0usize;
    for (o, &c) in out.iter_mut().zip(hist) {
        *o = acc;
        acc += c;
    }
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
        let d = key.to_radix().digit(shift, RADIX_BITS);
        // SAFETY: per the function contract the slot is in bounds and
        // exclusively ours.
        unsafe { dst.write(offsets[d], key) };
        offsets[d] += 1;
    }
}

/// `Send` raw-pointer wrapper for disjoint-region scatters. Accessed only
/// through [`SendPtr::write`] / explicit `copy_nonoverlapping` so closures
/// capture the wrapper, not the raw pointer (edition-2021 closures capture
/// individual fields).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// SAFETY: dereferences are guarded by region disjointness at the use site.
unsafe impl<T: Send> Send for SendPtr<T> {}

impl<T: Copy> SendPtr<T> {
    /// # Safety
    /// `i` must be in bounds and no other thread may write slot `i`.
    #[inline]
    pub(crate) unsafe fn write(self, i: usize, v: T) {
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

    /// Above the size ladder, so the OneSweep passes themselves run.
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
    fn tile_boundaries_exercised() {
        // Straddle one and two tile boundaries so the lookback chain runs.
        check::<u32>(Distribution::Uniform, TILE + 123, 8);
        check::<u64>(Distribution::Uniform, 2 * TILE + 45, 9);
    }

    #[test]
    fn matches_lsb_radix_exactly() {
        // Stable LSD radix output is unique: OneSweep must agree with the
        // 8-bit LSB kernel bit for bit despite the different digit width.
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
    fn more_threads_than_tiles() {
        check::<u32>(Distribution::Uniform, PARALLEL_FLOOR + 17, 14);
    }
}
