//! One-off tuning probes (not shipped in CI) behind the size-dispatch
//! constants: `primitives::PARALLEL_MIN_KEYS` (seq vs parallel onesweep, copy
//! vs par_copy) and `onesweep`'s small-sort crossover (radix passes vs
//! comparison sort).
use msort_data::{generate, Distribution};
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
    parallel_floor_probe(threads);
    small_sort_probe();
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

const SMALL_SIZES: [usize; 10] = [32, 64, 128, 256, 512, 1024, 1536, 2048, 4096, 8192];

/// Seconds per call of `work(data, scratch)` on a fresh copy of `input`, the
/// copy included (callers subtract the cost of an empty `work`).
fn on_fresh_copy(input: &[u32], mut work: impl FnMut(&mut [u32], &mut [u32])) -> f64 {
    let mut data = input.to_vec();
    let mut scratch = vec![0u32; input.len()];
    time_per_call((1 << 21) / input.len(), || {
        data.copy_from_slice(input);
        work(&mut data, &mut scratch);
        std::hint::black_box(data[0]);
    })
}

/// OneSweep vs a comparison sort on the radix image. `onesweep_sort_with_aux`
/// is itself that comparison sort up to its private crossover; to re-tune the
/// crossover, build once with `SMALL_SORT_MAX_KEYS = 1` in
/// `msort_cpu::onesweep` so the OneSweep column is the radix passes at every
/// size.
fn small_sort_probe() {
    println!("small sorts, u32 uniform:");
    for n in SMALL_SIZES {
        let input: Vec<u32> = generate(Distribution::Uniform, n, 7);
        let copy = on_fresh_copy(&input, |_, _| {});
        let cmp = on_fresh_copy(&input, |d, _| d.sort_unstable_by_key(|k| *k)) - copy;
        let onesweep = on_fresh_copy(&input, msort_cpu::onesweep_sort_with_aux) - copy;
        println!(
            "n={n:5}: comparison {:6.2} us, onesweep {:6.2} us",
            cmp * 1e6,
            onesweep * 1e6,
        );
    }
}
