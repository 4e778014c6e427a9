//! One-off tuning probes (not shipped in CI) behind the size-dispatch
//! constants: `primitives::PARALLEL_MIN_KEYS` (sequential vs parallel device
//! sort, copy vs par_copy), the device-sort ladder of `msort_cpu::onesweep`
//! (its comparison floors per key width, and `CACHE_BYTES`, the cache budget
//! above which the MSD rung scatters before the in-cache LSD rung), plus
//! the cost of input generation per distribution (the Zipf sampler's guide
//! table).
//!
//! `cargo run --release --example tune [-- parallel|small|budget|generate]`
//! runs the named probe, or all four.
use msort_data::{generate, Distribution, Pair, SortKey};
use std::time::Instant;

fn med(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median over 7 rounds of the mean seconds per call of `f` over `reps` calls.
fn time_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    med((0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect())
}

fn main() {
    let threads = msort_cpu::pool::threads();
    println!("pool threads = {threads}");
    let only = std::env::args().nth(1);
    let run = |probe: &str| only.is_none() || only.as_deref() == Some(probe);
    if run("parallel") {
        parallel_floor_probe(threads);
    }
    if run("small") {
        small_sort_probe();
    }
    if run("budget") {
        budget_probe();
    }
    if run("generate") {
        generate_probe();
    }
}

fn parallel_floor_probe(threads: usize) {
    for shift in [14usize, 15, 16, 17, 18, 20] {
        let n = 1usize << shift;
        let input: Vec<u32> = generate(Distribution::Uniform, n, 7);
        let mut aux = vec![0u32; n];
        let reps = (1 << 24) / n.max(1);
        let seq = time_per_call(reps, || {
            let mut d = input.clone();
            msort_cpu::onesweep_sort_with_aux(&mut d, &mut aux);
            std::hint::black_box(d.len());
        });
        let par = time_per_call(reps, || {
            let mut d = input.clone();
            msort_cpu::parallel_onesweep_sort_with_aux(&mut d, &mut aux, threads);
            std::hint::black_box(d.len());
        });
        println!(
            "n=2^{shift}: seq {:.1} us, par {:.1} us ({:.2}x)",
            seq * 1e6,
            par * 1e6,
            seq / par,
        );
    }

    // Copy floor: serial copy_from_slice vs a pool-split copy, same split
    // rule as msort-gpu's par_copy.
    for shift in [18usize, 20, 22] {
        let n = (1usize << shift) / 4; // bytes -> u32 keys
        let src: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let mut dst = vec![0u32; n];
        let reps = (1 << 26) / n.max(1);
        let ser = time_per_call(reps, || {
            dst.copy_from_slice(&src);
            std::hint::black_box(dst[0]);
        });
        let par = time_per_call(reps, || {
            let chunk = n.div_ceil(threads.min(8));
            msort_cpu::pool::scope(|s| {
                for (d, sr) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                    s.spawn(move || d.copy_from_slice(sr));
                }
            });
            std::hint::black_box(dst[0]);
        });
        println!(
            "copy 2^{shift} B: serial {:.1} us, pooled {:.1} us ({:.2}x)",
            ser * 1e6,
            par * 1e6,
            ser / par,
        );
    }
}

const SMALL_SIZES: [usize; 16] = [
    64,
    128,
    256,
    512,
    1024,
    1536,
    2048,
    4096,
    8192,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
];

/// Seconds per call of `work(data, scratch)` on a fresh copy of `input`, the
/// copy included (callers subtract the cost of an empty `work`).
fn on_fresh_copy<K: SortKey>(input: &[K], mut work: impl FnMut(&mut [K], &mut [K])) -> f64 {
    let mut data = input.to_vec();
    let mut scratch = input.to_vec();
    time_per_call(((1 << 21) / input.len()).max(1), || {
        data.copy_from_slice(input);
        work(&mut data, &mut scratch);
        std::hint::black_box(&data[0]);
    })
}

/// The device-sort size ladder's three rungs on uniform keys, in ns per key:
/// a stable comparison sort on the radix image (`stable`, the ladder's
/// bottom rung; `unstable` shows what giving up stability would buy), the
/// 8-bit LSD kernel (`lsd8`), and `onesweep_sort_with_aux` (`device`),
/// which *is* the ladder below its top rung. To see the raw OneSweep passes
/// at every size, build once with the two ladder tests at the top of
/// `msort_cpu::onesweep::onesweep_sort_with_aux` cut out.
fn small_sort_probe() {
    ladder_rows::<u32>();
    ladder_rows::<u64>();
    ladder_rows::<Pair<u32>>();
}

fn ladder_rows<K: SortKey>() {
    println!("small sorts, {:?} uniform, ns/key:", K::DATA_TYPE);
    for n in SMALL_SIZES {
        let input: Vec<K> = generate(Distribution::Uniform, n, 7);
        let copy = on_fresh_copy(&input, |_, _| {});
        let per_key = |t: f64| (t - copy) * 1e9 / n as f64;
        let stable = per_key(on_fresh_copy(&input, |d, _| {
            d.sort_by_key(|k| k.to_radix())
        }));
        let unstable = per_key(on_fresh_copy(&input, |d, _| {
            d.sort_unstable_by_key(|k| k.to_radix());
        }));
        let lsd8 = per_key(on_fresh_copy(
            &input,
            msort_cpu::lsb_radix::lsb_radix_sort_with_aux,
        ));
        let device = per_key(on_fresh_copy(&input, msort_cpu::onesweep_sort_with_aux));
        println!(
            "n={n:8}: stable {stable:6.2}, unstable {unstable:6.2}, lsd8 {lsd8:6.2}, device {device:6.2}"
        );
    }
}

/// The cache budget: the LSD rung over the whole slice (`lsd8`) against
/// the whole ladder (`device`, which takes the MSD rung above
/// `CACHE_BYTES` of keys and is the LSD rung below), in ns per key, for
/// uniform and Zipf (800 permille) keys. The budget belongs where `lsd8`
/// leaves cache and starts losing to an MSD scatter; to see the MSD rung
/// below the budget, build once with a smaller `CACHE_BYTES`.
fn budget_probe() {
    budget_rows::<u32>();
    budget_rows::<u64>();
}

fn budget_rows<K: SortKey>() {
    println!(
        "cache budget, {:?}, ns/key (CACHE_BYTES = {}):",
        K::DATA_TYPE,
        msort_cpu::onesweep::CACHE_BYTES
    );
    for shift in [12usize, 14, 15, 16, 17, 18, 19, 20, 22] {
        let n = 1 << shift;
        let row: Vec<String> = [
            Distribution::Uniform,
            Distribution::ZipfDuplicates { skew_permille: 800 },
        ]
        .iter()
        .map(|&dist| {
            let input: Vec<K> = generate(dist, n, 7);
            let copy = on_fresh_copy(&input, |_, _| {});
            let per_key = |t: f64| (t - copy) * 1e9 / n as f64;
            let lsd8 = per_key(on_fresh_copy(
                &input,
                msort_cpu::lsb_radix::lsb_radix_sort_with_aux,
            ));
            let device = per_key(on_fresh_copy(&input, msort_cpu::onesweep_sort_with_aux));
            format!("{}: lsd8 {lsd8:6.2}, device {device:6.2}", dist.label())
        })
        .collect();
        println!("  n=2^{shift:2}: {}", row.join("; "));
    }
}

const DISTRIBUTIONS: [Distribution; 7] = [
    Distribution::Uniform,
    Distribution::Normal,
    Distribution::Sorted,
    Distribution::ReverseSorted,
    Distribution::NearlySorted,
    Distribution::ZipfDuplicates { skew_permille: 800 },
    Distribution::Constant,
];

/// `generate` per distribution and size, in ns per key and µs per call,
/// best of 7 rounds of at least 1 Mi keys each. Each call allocates its
/// output and, for Zipf, finds the sampler's tables memoised from the
/// previous call.
fn generate_probe() {
    generate_rows::<u32>();
    generate_rows::<u64>();
}

fn generate_rows<K: SortKey>() {
    println!("generate, {:?}, ns/key (us/call):", K::DATA_TYPE);
    for dist in DISTRIBUTIONS {
        let row: Vec<String> = [64usize, 1 << 10, 1 << 16, 1 << 22]
            .iter()
            .map(|&n| {
                let reps = ((1 << 20) / n).max(1);
                let best = (0..7)
                    .map(|_| {
                        let t = Instant::now();
                        for seed in 0..reps {
                            std::hint::black_box(generate::<K>(dist, n, seed as u64));
                        }
                        t.elapsed().as_secs_f64() / reps as f64
                    })
                    .fold(f64::INFINITY, f64::min);
                format!("n={n}: {:.2} ({:.1})", best * 1e9 / n as f64, best * 1e6)
            })
            .collect();
        println!("  {:16} {}", dist.label(), row.join(", "));
    }
}
