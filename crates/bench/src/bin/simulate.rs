//! `simulate` — run one multi-GPU sort on a simulated platform.
//!
//! ```text
//! simulate --platform dgx-a100 --algo p2p --gpus 4 --keys 2e9 \
//!          --dist uniform --type u32 [--scale 2097152] [--multi-hop] \
//!          [--nodes N] [--fabric ib-hdr|ib-ndr|slingshot] \
//!          [--approach 2n|3n] [--eager-merge] [--trace out.json]
//! ```
//!
//! With `--nodes N` (N > 1) the platform becomes an N-node cluster of the
//! selected box joined by the `--fabric` interconnect, and the sort runs
//! as the cross-node sort with `--algo` as the per-node inner sort.
//!
//! With `--serve` the binary switches from one sort to open-loop service
//! mode: a seeded arrival process (`--process`, `--rate`, `--jobs`)
//! drives a multi-tenant sort service with EDF queueing, SLO-aware
//! admission (`--slo-us`) and an elastic GPU fleet, and the service
//! report is printed instead of a sort report.
//!
//! Prints the sort report (total simulated duration + phase breakdown) and
//! optionally writes a Chrome trace of the run.

use msort_cluster::cluster_of;
use msort_core::{
    cpu_only_sort, cross_node_sort, het_sort, mwms_sort, p2p_sort, rp_sort, sample_sort,
    single_gpu_sort, CrossNodeConfig, Family, HetConfig, LargeDataApproach, MwmsConfig, P2pConfig,
    RpConfig, SampleSortConfig, SortReport,
};
use msort_data::{generate, DataType, Distribution};
use msort_gpu::Fidelity;
use msort_sim::GpuSortAlgo;
use msort_topology::{Fabric, Platform, PlatformId};

/// What `--algo` names: a multi-GPU sort family or one of the two
/// single-device baselines.
#[derive(Clone, Copy)]
enum Algo {
    Family(Family),
    SingleGpu,
    CpuOnly,
}

/// Parsed command-line options.
struct Options {
    platform: PlatformId,
    algo: Algo,
    gpus: usize,
    keys: u64,
    dist: Distribution,
    data_type: DataType,
    scale: u64,
    multi_hop: bool,
    approach: LargeDataApproach,
    eager_merge: bool,
    primitive: GpuSortAlgo,
    trace: Option<String>,
    seed: u64,
    nodes: usize,
    fabric: Fabric,
    serve: bool,
    rate: f64,
    jobs: u64,
    process: String,
    slo_us: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            platform: PlatformId::DgxA100,
            algo: Algo::Family(Family::P2p),
            gpus: 4,
            keys: 1 << 24,
            dist: Distribution::Uniform,
            data_type: DataType::U32,
            scale: 1,
            multi_hop: false,
            approach: LargeDataApproach::TwoN,
            eager_merge: false,
            primitive: GpuSortAlgo::ThrustLike,
            trace: None,
            seed: 42,
            nodes: 1,
            fabric: Fabric::IbHdr,
            serve: false,
            rate: 4_000.0,
            jobs: 96,
            process: "poisson".to_owned(),
            slo_us: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--platform ac922|delta|dgx-a100] [--algo p2p|het|rp|sample|mwms|1gpu|cpu]\n\
         \x20               [--gpus N] [--keys N|Xe9] [--dist uniform|normal|sorted|reverse|nearly|zipf]\n\
         \x20               [--type u32|i32|f32|u64|i64|f64|kv32|kv64] [--scale N] [--seed N]\n\
         \x20               [--multi-hop] [--approach 2n|3n] [--eager-merge]\n\
         \x20               [--nodes N] [--fabric ib-hdr|ib-ndr|slingshot]\n\
         \x20               [--primitive thrust|cub|stehle|mgpu] [--trace file.json]\n\
         \x20               [--serve] [--rate R] [--jobs N] [--process poisson|diurnal|bursty]\n\
         \x20               [--slo-us N]\n\
         \n\
         --nodes N (N > 1) simulates an N-node cluster of the chosen platform\n\
         joined by the --fabric interconnect (default ib-hdr); the sort runs\n\
         as the cross-node sort with --algo as the per-node inner sort and\n\
         --gpus as the GPUs used per node.\n\
         \n\
         --serve switches to open-loop service mode: a seeded arrival\n\
         process (--process poisson|diurnal|bursty at --rate jobs/s,\n\
         --jobs arrivals total) drives a multi-tenant sort service with\n\
         EDF queueing, SLO-aware admission (--slo-us sets tenant 0's\n\
         latency budget) and an elastic GPU fleet; prints the service\n\
         report instead of a single sort report."
    );
    std::process::exit(2);
}

fn parse_count(s: &str) -> Option<u64> {
    if let Ok(v) = s.parse::<u64>() {
        return Some(v);
    }
    s.parse::<f64>()
        .ok()
        .filter(|v| *v >= 0.0)
        .map(|v| v as u64)
}

fn parse(args: &[String]) -> Option<Options> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("missing value for {name}");
            }
            v.cloned()
        };
        match arg.as_str() {
            "--platform" => {
                opts.platform = match value("--platform")?.as_str() {
                    "ac922" | "ibm" => PlatformId::IbmAc922,
                    "delta" | "d22x" => PlatformId::DeltaD22x,
                    "dgx-a100" | "dgx" => PlatformId::DgxA100,
                    other => {
                        eprintln!("unknown platform '{other}'");
                        return None;
                    }
                }
            }
            "--algo" => {
                opts.algo = match value("--algo")?.as_str() {
                    "1gpu" => Algo::SingleGpu,
                    "cpu" => Algo::CpuOnly,
                    family => match family.parse() {
                        Ok(family) => Algo::Family(family),
                        Err(e) => {
                            eprintln!("{e}, or 1gpu, cpu");
                            return None;
                        }
                    },
                }
            }
            "--gpus" => opts.gpus = value("--gpus")?.parse().ok()?,
            "--keys" => opts.keys = parse_count(&value("--keys")?)?,
            "--scale" => opts.scale = value("--scale")?.parse().ok()?,
            "--seed" => opts.seed = value("--seed")?.parse().ok()?,
            "--dist" => {
                opts.dist = match value("--dist")?.as_str() {
                    "uniform" => Distribution::Uniform,
                    "normal" => Distribution::Normal,
                    "sorted" => Distribution::Sorted,
                    "reverse" | "reverse-sorted" => Distribution::ReverseSorted,
                    "nearly" | "nearly-sorted" => Distribution::NearlySorted,
                    "zipf" => Distribution::ZipfDuplicates {
                        skew_permille: 1200,
                    },
                    other => {
                        eprintln!("unknown distribution '{other}'");
                        return None;
                    }
                }
            }
            "--type" => {
                opts.data_type = match value("--type")?.as_str() {
                    "u32" => DataType::U32,
                    "i32" => DataType::I32,
                    "f32" => DataType::F32,
                    "u64" => DataType::U64,
                    "i64" => DataType::I64,
                    "f64" => DataType::F64,
                    "kv32" => DataType::Kv32,
                    "kv64" => DataType::Kv64,
                    other => {
                        eprintln!("unknown data type '{other}'");
                        return None;
                    }
                }
            }
            "--approach" => {
                opts.approach = match value("--approach")?.as_str() {
                    "2n" => LargeDataApproach::TwoN,
                    "3n" => LargeDataApproach::ThreeN,
                    other => {
                        eprintln!("unknown approach '{other}'");
                        return None;
                    }
                }
            }
            "--primitive" => {
                opts.primitive = match value("--primitive")?.as_str() {
                    "thrust" => GpuSortAlgo::ThrustLike,
                    "cub" => GpuSortAlgo::CubLike,
                    "stehle" => GpuSortAlgo::StehleLike,
                    "mgpu" => GpuSortAlgo::MgpuLike,
                    other => {
                        eprintln!("unknown primitive '{other}'");
                        return None;
                    }
                }
            }
            "--nodes" => {
                opts.nodes = value("--nodes")?.parse().ok()?;
                if opts.nodes == 0 {
                    eprintln!("--nodes must be at least 1");
                    return None;
                }
            }
            "--fabric" => {
                let v = value("--fabric")?;
                let Some(f) = Fabric::parse(&v) else {
                    eprintln!("unknown fabric '{v}' (ib-hdr, ib-ndr, slingshot)");
                    return None;
                };
                opts.fabric = f;
            }
            "--serve" => opts.serve = true,
            "--rate" => opts.rate = value("--rate")?.parse().ok().filter(|r| *r > 0.0)?,
            "--jobs" => opts.jobs = value("--jobs")?.parse().ok().filter(|j| *j > 0)?,
            "--process" => {
                let v = value("--process")?;
                if !matches!(v.as_str(), "poisson" | "diurnal" | "bursty") {
                    eprintln!("unknown arrival process '{v}' (poisson, diurnal, bursty)");
                    return None;
                }
                opts.process = v;
            }
            "--slo-us" => opts.slo_us = Some(value("--slo-us")?.parse().ok()?),
            "--multi-hop" => opts.multi_hop = true,
            "--eager-merge" => opts.eager_merge = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--help" | "-h" => return None,
            other => {
                eprintln!("unknown argument '{other}'");
                return None;
            }
        }
    }
    Some(opts)
}

fn run_typed<K: msort_data::SortKey>(opts: &Options, platform: &Platform) -> SortReport {
    let scale = opts.scale.max(1);
    // Align the key count so every algorithm's chunking divides evenly.
    let align = scale * opts.gpus.max(1) as u64 * 8 * opts.nodes as u64;
    let n = (opts.keys / align * align).max(align);
    let fidelity = if scale == 1 {
        Fidelity::Full
    } else {
        Fidelity::Sampled { scale }
    };
    let mut data: Vec<K> = generate(opts.dist, (n / scale) as usize, opts.seed);
    if opts.nodes > 1 {
        let Algo::Family(inner) = opts.algo else {
            eprintln!("--nodes > 1 needs --algo p2p|het|rp|sample|mwms");
            usage()
        };
        let mut cfg = CrossNodeConfig::new(inner);
        cfg.fidelity = fidelity;
        cfg.algo = opts.primitive;
        cfg.gpus_per_node = Some(opts.gpus);
        return cross_node_sort(platform, &cfg, &mut data, n);
    }
    match opts.algo {
        Algo::Family(Family::P2p) => {
            let mut cfg = P2pConfig {
                fidelity,
                algo: opts.primitive,
                ..P2pConfig::new(opts.gpus)
            };
            cfg.multi_hop = opts.multi_hop;
            p2p_sort(platform, &cfg, &mut data, n)
        }
        Algo::Family(Family::Het) => {
            let mut cfg = HetConfig {
                fidelity,
                algo: opts.primitive,
                ..HetConfig::new(opts.gpus)
            };
            cfg.approach = opts.approach;
            cfg.eager_merge = opts.eager_merge;
            het_sort(platform, &cfg, &mut data, n)
        }
        Algo::Family(Family::Rp) => {
            let cfg = RpConfig {
                fidelity,
                algo: opts.primitive,
                ..RpConfig::new(opts.gpus)
            };
            rp_sort(platform, &cfg, &mut data, n)
        }
        Algo::Family(Family::SampleSort) => {
            let cfg = SampleSortConfig {
                fidelity,
                algo: opts.primitive,
                ..SampleSortConfig::new(opts.gpus)
            };
            sample_sort(platform, &cfg, &mut data, n)
        }
        Algo::Family(Family::MultiwayMerge) => {
            let cfg = MwmsConfig {
                fidelity,
                algo: opts.primitive,
                ..MwmsConfig::new(opts.gpus)
            };
            mwms_sort(platform, &cfg, &mut data, n)
        }
        Algo::SingleGpu => single_gpu_sort(platform, fidelity, opts.primitive, &mut data, n),
        Algo::CpuOnly => cpu_only_sort(platform, fidelity, &mut data, n),
    }
}

/// Open-loop service mode: a seeded arrival process against a
/// multi-tenant sort service with SLO-aware admission and an elastic
/// fleet. Serving is u32-only (the mix is fixed; `--type` is ignored).
fn run_serve(opts: &Options, platform: &Platform) {
    use msort_serve::{
        AdmissionPolicy, ArrivalProcess, JobAlgo, JobMix, OpenLoop, QueuePolicy, ServeConfig,
        SortJob, SortService, TenantId,
    };
    use msort_sim::SimDuration;

    let mix = JobMix::of(
        SortJob::new(TenantId(0), 1 << 16)
            .with_algo(JobAlgo::Het)
            .interactive(),
    )
    .and(SortJob::new(TenantId(1), 1 << 18).with_gpus(2), 0.75)
    .and(SortJob::new(TenantId(2), 1 << 16).with_gpus(2), 0.5);
    let process = match opts.process.as_str() {
        "diurnal" => ArrivalProcess::Diurnal {
            rate: opts.rate,
            amplitude: 0.8,
            period: SimDuration::from_millis(20),
        },
        "bursty" => ArrivalProcess::Bursty {
            base_rate: opts.rate / 4.0,
            burst_rate: opts.rate * 4.0,
            mean_calm: SimDuration::from_millis(4),
            mean_burst: SimDuration::from_millis(2),
        },
        _ => ArrivalProcess::Poisson { rate: opts.rate },
    };
    let mut config = ServeConfig::new()
        .sampled(opts.scale.max(1))
        .with_policy(QueuePolicy::Edf)
        .with_admission(AdmissionPolicy::SloAware)
        .elastic(2, SimDuration::from_millis(1));
    if let Some(us) = opts.slo_us {
        config = config.with_slo(TenantId(0), SimDuration::from_micros(us));
    }
    let workload = OpenLoop::new(process, mix, opts.jobs, opts.seed);
    let report = SortService::<u32>::new(platform, config).serve(workload);
    println!("{}", report.summary());
    println!(
        "offered: {} jobs ({} at {:.0}/s)  |  goodput: {:.1} jobs/s  |  \
         SLO attainment: {:.1}%  |  shed: {}  |  mean fleet: {:.2} GPUs  |  \
         validated: {}",
        report.offered_jobs(),
        opts.process,
        opts.rate,
        report.goodput_per_sec(),
        report.slo_attainment() * 100.0,
        report.shed_jobs(),
        report.mean_fleet_size(),
        report.all_validated(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args) else { usage() };
    if opts.serve {
        let platform = Platform::paper(opts.platform);
        run_serve(&opts, &platform);
        return;
    }
    let platform = if opts.nodes > 1 {
        cluster_of(opts.platform, opts.nodes, opts.fabric)
    } else {
        Platform::paper(opts.platform)
    };
    let gpus_avail = if opts.nodes > 1 {
        opts.platform.gpus_per_node()
    } else {
        platform.gpu_count()
    };
    if opts.gpus == 0 || opts.gpus > gpus_avail {
        eprintln!(
            "--gpus must be between 1 and {} on the {}",
            gpus_avail,
            platform.name()
        );
        std::process::exit(2);
    }
    if matches!(opts.algo, Algo::Family(Family::P2p)) && !opts.gpus.is_power_of_two() {
        eprintln!(
            "--algo p2p needs a power-of-two GPU count (got {})",
            opts.gpus
        );
        std::process::exit(2);
    }
    if opts.trace.is_some() {
        eprintln!(
            "note: --trace re-runs the workload to capture the timeline; \
             reported numbers are from the first run"
        );
    }

    let report = match opts.data_type {
        DataType::U32 => run_typed::<u32>(&opts, &platform),
        DataType::I32 => run_typed::<i32>(&opts, &platform),
        DataType::F32 => run_typed::<f32>(&opts, &platform),
        DataType::U64 => run_typed::<u64>(&opts, &platform),
        DataType::I64 => run_typed::<i64>(&opts, &platform),
        DataType::F64 => run_typed::<f64>(&opts, &platform),
        DataType::Kv32 => run_typed::<msort_data::Pair<u32>>(&opts, &platform),
        DataType::Kv64 => run_typed::<msort_data::Pair<u64>>(&opts, &platform),
    };

    println!("{}", report.summary());
    println!(
        "throughput: {:.1} M keys/s  |  {} of {} data  |  validated: {}",
        report.mkeys_per_sec(),
        report.total,
        human_bytes(report.bytes),
        report.validated,
    );
    if report.p2p_swapped_keys > 0 {
        println!(
            "P2P exchange volume: {:.2} B keys",
            report.p2p_swapped_keys as f64 / 1e9
        );
    }
    if report.inter_node > msort_sim::SimDuration::ZERO {
        println!(
            "inter-node fabric busy: {} ({:.0}% of total)",
            report.inter_node,
            100.0 * report.inter_node.as_secs_f64() / report.total.as_secs_f64()
        );
    }

    if let Some(ref path) = opts.trace {
        // Re-run on a traced system. Keep it simple: only u32 runs get a
        // trace (the common case for the paper's experiments).
        let trace = trace_u32(&opts, &platform);
        std::fs::write(path, trace).expect("write trace file");
        println!("wrote Chrome trace to {path} (open in chrome://tracing)");
    }
}

/// Re-run the u32 version of the workload capturing the op timeline.
fn trace_u32(opts: &Options, platform: &Platform) -> String {
    use msort_gpu::{GpuSystem, Phase};
    let scale = opts.scale.max(1);
    let align = scale * opts.gpus.max(1) as u64 * 8;
    let n = (opts.keys / align * align).max(align);
    let fidelity = if scale == 1 {
        Fidelity::Full
    } else {
        Fidelity::Sampled { scale }
    };
    // A minimal traced workload: scatter + sort + gather on each GPU (the
    // full algorithms manage their own GpuSystem internally; the trace of
    // phase structure is what users inspect).
    let mut sys: GpuSystem<'_, u32> = GpuSystem::new(platform, fidelity);
    let recorder = msort_trace::Recorder::new();
    sys.set_recorder(recorder.clone());
    let data: Vec<u32> = generate(opts.dist, (n / scale) as usize, opts.seed);
    let host = sys.world_mut().import_host(0, data, n);
    let chunk = n / opts.gpus as u64;
    for i in 0..opts.gpus {
        let dev = sys.world_mut().alloc_gpu(i, chunk);
        let aux = sys.world_mut().alloc_gpu(i, chunk);
        let cs = sys.stream();
        let up = sys.memcpy(cs, host, i as u64 * chunk, dev, 0, chunk, &[], Phase::HtoD);
        let so = sys.gpu_sort(cs, opts.primitive, dev, (0, chunk), aux, &[up]);
        sys.memcpy(
            cs,
            dev,
            0,
            host,
            i as u64 * chunk,
            chunk,
            &[so],
            Phase::DtoH,
        );
    }
    sys.synchronize();
    // The unified exporter: op spans per stream plus link-utilization
    // counters and flow lifetimes from the same run.
    msort_trace::chrome_trace(&recorder.snapshot().expect("recorder is enabled"))
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{b} B")
    }
}
