//! `sort_full` and `cluster_sort`: lists of `run_sort` calls.

use super::{fingerprint, sub_seed, Bench, Rep, PANICKED};
use crate::spans::Spans;
use msort_cluster::dgx_a100_cluster;
use msort_core::{
    run_sort, Algorithm, CrossNodeConfig, CrossNodeDriver, DriverStep, HetConfig, InnerAlgo,
    MwmsConfig, MwmsDriver, P2pConfig, P2pDriver, RpConfig, RpDriver, RunConfig, SampleSortConfig,
    SampleSortDriver, SortDriver, SortReport,
};
use msort_data::{generate, validate_sort, Distribution};
use msort_gpu::GpuSystem;
use msort_topology::{Fabric, Platform};
use msort_trace::Recorder;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Keys per `sort_full` sort. The issue sized this at 2^24 (3.9 s per
/// repetition); 2^22 keeps five timed repetitions inside a 10 s run. The
/// arrays are 16 MiB each, four times the 4 MiB L2 of a core here and a
/// sixteenth of the shared 260 MiB L3.
pub const FULL_KEYS: u64 = 1 << 22;
/// Logical keys and sampling factor of every `cluster_sort` sort: 2^16
/// physical keys stand for 2^32.
pub const CLUSTER_KEYS: u64 = 1 << 32;
pub const CLUSTER_SCALE: u64 = 1 << 16;
/// Sweeps over the 45 cluster configurations per repetition (the issue's
/// six, halved with the other multipliers).
pub const CLUSTER_SWEEPS: usize = 3;

const ZIPF: Distribution = Distribution::ZipfDuplicates { skew_permille: 800 };

struct Case {
    platform: usize,
    input: usize,
    logical: u64,
    config: RunConfig,
}

pub struct SortSuite {
    platforms: Vec<Platform>,
    inputs: Vec<Vec<u32>>,
    cases: Vec<Case>,
    sweeps: usize,
    /// One fresh copy of its input per sort of the coming repetition.
    staged: Vec<Vec<u32>>,
    /// Per sort of the last repetition: report and output, or `None` if it
    /// panicked.
    done: Vec<Option<(SortReport, Vec<u32>)>>,
    /// Per case: an output that `validate_sort` accepted. Sorting is
    /// deterministic, so a later output is right iff it equals this one.
    reference: Vec<Option<Vec<u32>>>,
}

impl SortSuite {
    /// Five full-fidelity sorts on the DGX A100: P2P g=8 uniform, RP g=8
    /// Zipf, HET g=4 uniform, sample sort g=8 Zipf, multiway mergesort
    /// g=4 uniform.
    pub fn full(seed: u64, spans: &Spans) -> Self {
        let n = FULL_KEYS as usize;
        let inputs = spans.time("data.generate_s", || {
            vec![
                generate(Distribution::Uniform, n, sub_seed(seed, 0)),
                generate(ZIPF, n, sub_seed(seed, 1)),
            ]
        });
        let case = |input, config| Case {
            platform: 0,
            input,
            logical: FULL_KEYS,
            config,
        };
        Self::new(
            vec![Platform::dgx_a100()],
            inputs,
            vec![
                case(0, RunConfig::p2p(P2pConfig::new(8))),
                case(1, RunConfig::rp(RpConfig::new(8))),
                case(0, RunConfig::het(HetConfig::new(4))),
                case(1, RunConfig::sample(SampleSortConfig::new(8))),
                case(0, RunConfig::mwms(MwmsConfig::new(4))),
            ],
            1,
        )
    }

    /// `cross_node_sort` over {2,4,8} DGX nodes x three fabrics x five
    /// inner algorithms, sampled.
    pub fn cluster(seed: u64, spans: &Spans) -> Self {
        let physical = (CLUSTER_KEYS / CLUSTER_SCALE) as usize;
        let inputs = spans.time("data.generate_s", || {
            vec![generate(Distribution::Uniform, physical, sub_seed(seed, 0))]
        });
        let mut platforms = Vec::new();
        let mut cases = Vec::new();
        for nodes in [2, 4, 8] {
            for fabric in [Fabric::IbHdr, Fabric::IbNdr, Fabric::Slingshot] {
                platforms.push(dgx_a100_cluster(nodes, fabric));
                for inner in InnerAlgo::all() {
                    cases.push(Case {
                        platform: platforms.len() - 1,
                        input: 0,
                        logical: CLUSTER_KEYS,
                        config: RunConfig::cross_node(
                            CrossNodeConfig::new(inner).sampled(CLUSTER_SCALE),
                        ),
                    });
                }
            }
        }
        Self::new(platforms, inputs, cases, CLUSTER_SWEEPS)
    }

    fn new(
        platforms: Vec<Platform>,
        inputs: Vec<Vec<u32>>,
        cases: Vec<Case>,
        sweeps: usize,
    ) -> Self {
        let reference = cases.iter().map(|_| None).collect();
        Self {
            platforms,
            inputs,
            cases,
            sweeps,
            staged: Vec::new(),
            done: Vec::new(),
            reference,
        }
    }
}

impl Bench for SortSuite {
    fn prepare(&mut self) {
        self.staged = (0..self.sweeps)
            .flat_map(|_| &self.cases)
            .map(|case| self.inputs[case.input].clone())
            .collect();
    }

    fn run(&mut self, spans: &Spans) {
        let staged = std::mem::take(&mut self.staged);
        self.done = staged
            .into_iter()
            .zip(self.cases.iter().cycle())
            .map(|(mut data, case)| {
                let platform = &self.platforms[case.platform];
                catch_unwind(AssertUnwindSafe(|| {
                    let report = if spans.enabled() {
                        traced_sort(platform, &case.config, &mut data, case.logical, spans)
                    } else {
                        run_sort(platform, &case.config, &mut data, case.logical)
                    };
                    (report, data)
                }))
                .ok()
            })
            .collect();
    }

    fn finish(&mut self, spans: &Spans) -> Rep {
        let mut rep = Rep {
            items: self.done.len() as u64,
            ..Rep::default()
        };
        let (mut sim_ns, mut rerouted, mut swapped) = (0u64, 0u64, 0u64);
        for (i, done) in std::mem::take(&mut self.done).into_iter().enumerate() {
            let case = i % self.cases.len();
            let Some((report, output)) = done else {
                rep.failed += 1;
                rep.prints.push(PANICKED);
                continue;
            };
            let mut print = fingerprint();
            format!("{report:?}").hash(&mut print);
            rep.prints.push(print.finish());
            sim_ns += report.total.0;
            rerouted += report.rerouted_transfers;
            swapped += report.p2p_swapped_keys;

            let valid = report.validated
                && match &self.reference[case] {
                    Some(reference) => output == *reference,
                    None => {
                        let input = &self.inputs[self.cases[case].input];
                        let ok = spans
                            .time("data.validate_s", || validate_sort(input, &output))
                            .is_valid();
                        if ok {
                            self.reference[case] = Some(output);
                        }
                        ok
                    }
                };
            if !valid {
                rep.failed += 1;
            }
        }
        rep.exact = vec![
            ("sim_time_ns", sim_ns as f64),
            ("core.rerouted_transfers", rerouted as f64),
            ("core.p2p_swapped_keys", swapped as f64),
        ];
        rep
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        for case in &mut self.cases {
            case.config.recorder = recorder.clone();
        }
    }
}

/// `run_sort` one layer down: the same public calls in the same order,
/// each inside a span. HET's pipeline has no public driver (`HetDriver` is
/// the in-core variant `run_sort` does not use), so it stays one span.
fn traced_sort(
    platform: &Platform,
    config: &RunConfig,
    data: &mut Vec<u32>,
    n: u64,
    spans: &Spans,
) -> SortReport {
    let algorithm = config.algorithm.as_ref().expect("every case names one");
    // `run_sort` first copies the run-level fidelity into the algorithm's
    // config; every case here was built by `RunConfig::p2p(..)` and its
    // siblings, which lifted it from there, so the two already agree (the
    // drivers assert it).
    match algorithm {
        Algorithm::P2p(c) => hand_drive(platform, config, data, spans, false, |sys, input| {
            P2pDriver::new(sys, c, input, n)
        }),
        Algorithm::Rp(c) => hand_drive(platform, config, data, spans, false, |sys, input| {
            RpDriver::new(sys, c, input, n)
        }),
        Algorithm::SampleSort(c) => {
            hand_drive(platform, config, data, spans, false, |sys, input| {
                SampleSortDriver::new(sys, c, input, n)
            })
        }
        Algorithm::MultiwayMerge(c) => {
            hand_drive(platform, config, data, spans, false, |sys, input| {
                MwmsDriver::new(sys, c, input, n)
            })
        }
        Algorithm::CrossNode(c) => hand_drive(platform, config, data, spans, true, |sys, input| {
            CrossNodeDriver::new(sys, c, input, n)
        }),
        Algorithm::Het(_) => spans.time("core.run_sort_s", || run_sort(platform, config, data, n)),
    }
}

/// The benchmark's copy of `msort_core::drive` and of the `run_sort` arm
/// around it. `finish` holds `report`, `take_output`, `release` (which
/// `run_sort` calls for the cross-node driver only) and the drops.
fn hand_drive<'p, D: SortDriver<u32>>(
    platform: &'p Platform,
    config: &RunConfig,
    data: &mut Vec<u32>,
    spans: &Spans,
    release: bool,
    new: impl FnOnce(&mut GpuSystem<'p, u32>, Vec<u32>) -> D,
) -> SortReport {
    let mut sys: GpuSystem<'p, u32> =
        spans.time("gpu.system_new_s", || config.build_system(platform));
    let input = std::mem::take(data);
    let mut driver = spans.time("core.driver_new_s", || new(&mut sys, input));
    loop {
        match spans.time("core.step_s", || driver.step(&mut sys)) {
            DriverStep::Done => break,
            DriverStep::Wait(mut ops) => loop {
                ops.retain(|&o| !sys.op_done(o));
                if ops.is_empty() {
                    break;
                }
                spans.time("gpu.run_until_s", || sys.run_until(&ops, None));
            },
        }
    }
    spans.time("core.finish_s", || {
        let report = driver.report(&sys);
        *data = driver.take_output();
        if release {
            driver.release(&mut sys);
        }
        drop(driver);
        drop(sys);
        report
    })
}
