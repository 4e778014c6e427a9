//! `kernels`: sequential `msort_cpu` calls, no simulator anywhere.

use super::{sub_seed, Bench, Rep};
use crate::spans::Spans;
use msort_cpu::{
    bucket_of, lsb_radix_sort, merge_path_sort, msb_radix_sort, multiway_merge,
    onesweep_sort_with_aux, paradis_sort, partition_by_splitters, select_splitters, Splitter,
};
use msort_data::{generate, validate_sort, Distribution, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const M1: usize = 1 << 20;
const M4: usize = 1 << 22;
const M8: usize = 1 << 23;
const RUNS: usize = 8;
const BUCKETS: usize = 8;

#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    Onesweep,
    LsbRadix,
    MergePath,
    Multiway,
    Paradis,
    MsbRadix,
    Partition,
}

/// Indices into `Kernels::inputs`.
const U1M: usize = 0;
const U8M: usize = 1;
const Z8M: usize = 2;
const U4M: usize = 3;
const SORTED_RUNS: usize = 4;

/// One repetition, in order: (metric, kernel, input, calls).
const CALLS: [(&str, Kernel, usize, usize); 9] = [
    ("cpu.onesweep_1m_mkeys_s", Kernel::Onesweep, U1M, 8),
    ("cpu.onesweep_8m_mkeys_s", Kernel::Onesweep, U8M, 1),
    ("cpu.onesweep_8m_zipf_mkeys_s", Kernel::Onesweep, Z8M, 1),
    ("cpu.lsb_radix_1m_mkeys_s", Kernel::LsbRadix, U1M, 1),
    ("cpu.merge_path_4m_mkeys_s", Kernel::MergePath, U4M, 1),
    ("cpu.multiway_k8_mkeys_s", Kernel::Multiway, SORTED_RUNS, 1),
    ("cpu.paradis_8m_mkeys_s", Kernel::Paradis, U8M, 1),
    ("cpu.msb_radix_8m_mkeys_s", Kernel::MsbRadix, U8M, 1),
    ("cpu.partition_8m_mkeys_s", Kernel::Partition, U8M, 1),
];

pub struct Kernels {
    inputs: Vec<Vec<u32>>,
    splitters: Vec<Splitter<u32>>,
    aux: Vec<u32>,
    /// One buffer per call of the coming repetition: a fresh copy of the
    /// input, or the zeroed output of the multiway merge.
    staged: Vec<Vec<u32>>,
    /// Per call of the last repetition: its buffer and, for the partition,
    /// the bucket boundaries; `None` if it panicked.
    done: Vec<Option<(Vec<u32>, Vec<usize>)>>,
    /// Per input: a sorted output `validate_sort` accepted. Every sort of
    /// that input must produce exactly this.
    sorted: Vec<Option<Vec<u32>>>,
    /// The stable partition of `U8M`, computed key by key with `bucket_of`.
    partitioned: Option<(Vec<u32>, Vec<usize>)>,
}

impl Kernels {
    pub fn new(seed: u64, spans: &Spans) -> Self {
        let zipf = Distribution::ZipfDuplicates { skew_permille: 800 };
        let mut inputs: Vec<Vec<u32>> = spans.time("data.generate_s", || {
            vec![
                generate(Distribution::Uniform, M1, sub_seed(seed, 0)),
                generate(Distribution::Uniform, M8, sub_seed(seed, 1)),
                generate(zipf, M8, sub_seed(seed, 2)),
                generate(Distribution::Uniform, M4, sub_seed(seed, 3)),
            ]
        });
        // Eight sorted runs back to back, each a running sum of random
        // gaps small enough that 2^20 of them stay below 2^32.
        let mut rng = Rng::seed_from_u64(sub_seed(seed, 4));
        let mut runs = Vec::with_capacity(M8);
        for _ in 0..RUNS {
            let mut key = 0u32;
            for _ in 0..M8 / RUNS {
                key += rng.u32() >> 20;
                runs.push(key);
            }
        }
        inputs.push(runs);
        let splitters = select_splitters(&[&inputs[U8M]], BUCKETS, 32);
        Self {
            sorted: inputs.iter().map(|_| None).collect(),
            inputs,
            splitters,
            aux: vec![0; M8],
            staged: Vec::new(),
            done: Vec::new(),
            partitioned: None,
        }
    }
}

impl Bench for Kernels {
    fn prepare(&mut self) {
        self.staged = CALLS
            .iter()
            .flat_map(|&(_, kernel, input, calls)| (0..calls).map(move |_| (kernel, input)))
            .map(|(kernel, input)| match kernel {
                Kernel::Multiway => vec![0; self.inputs[input].len()],
                _ => self.inputs[input].clone(),
            })
            .collect();
    }

    fn run(&mut self, spans: &Spans) {
        let mut staged = std::mem::take(&mut self.staged).into_iter();
        let (inputs, splitters, aux) = (&self.inputs, &self.splitters, &mut self.aux);
        let mut done = Vec::new();
        for &(metric, kernel, input, calls) in &CALLS {
            for _ in 0..calls {
                let mut data = staged.next().expect("prepare staged one buffer per call");
                let outcome = spans.time(metric, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut boundaries = Vec::new();
                        match kernel {
                            Kernel::Onesweep => {
                                onesweep_sort_with_aux(&mut data, &mut aux[..inputs[input].len()]);
                            }
                            Kernel::LsbRadix => lsb_radix_sort(&mut data),
                            Kernel::MergePath => merge_path_sort(&mut data),
                            Kernel::Paradis => paradis_sort(&mut data),
                            Kernel::MsbRadix => msb_radix_sort(&mut data),
                            Kernel::Multiway => {
                                let runs: Vec<&[u32]> = inputs[input].chunks(M8 / RUNS).collect();
                                multiway_merge(&runs, &mut data);
                            }
                            Kernel::Partition => {
                                boundaries =
                                    partition_by_splitters(&mut data, &mut aux[..], splitters, 1);
                            }
                        }
                        (data, boundaries)
                    }))
                    .ok()
                });
                done.push(outcome);
            }
        }
        self.done = done;
    }

    fn finish(&mut self, spans: &Spans) -> Rep {
        let mut rep = Rep {
            items: self.done.len() as u64,
            ..Rep::default()
        };
        let mut done = std::mem::take(&mut self.done).into_iter();
        for &(metric, kernel, input, calls) in &CALLS {
            rep.call_keys
                .push((metric, (calls * self.inputs[input].len()) as u64));
            for _ in 0..calls {
                let valid = match done.next().expect("run left one outcome per call") {
                    None => false,
                    Some(output) if kernel == Kernel::Partition => {
                        let expected = self.partitioned.get_or_insert_with(|| {
                            stable_partition(&self.inputs[input], &self.splitters)
                        });
                        output == *expected
                    }
                    Some((output, _)) => match &self.sorted[input] {
                        Some(reference) => output == *reference,
                        None => {
                            let ok = spans
                                .time("data.validate_s", || {
                                    validate_sort(&self.inputs[input], &output)
                                })
                                .is_valid();
                            if ok {
                                self.sorted[input] = Some(output);
                            }
                            ok
                        }
                    },
                };
                if !valid {
                    rep.failed += 1;
                }
            }
        }
        rep
    }
}

/// What `partition_by_splitters` must produce: every key sent to
/// `bucket_of(key, position)`, input order kept within a bucket.
fn stable_partition(input: &[u32], splitters: &[Splitter<u32>]) -> (Vec<u32>, Vec<usize>) {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); splitters.len() + 1];
    for (pos, &key) in input.iter().enumerate() {
        buckets[bucket_of(key, pos as u64, splitters)].push(key);
    }
    let mut boundaries = vec![0];
    for b in &buckets {
        boundaries.push(boundaries.last().expect("starts non-empty") + b.len());
    }
    (buckets.concat(), boundaries)
}
