//! Golden digests: cross-commit drift detection for every sort family.
//!
//! `properties` and `chaos` compare a run only with itself, so a refactor
//! that moves every clock by one nanosecond passes them both. This suite
//! pins a 64-bit digest of `format!("{report:?}")` plus the output bytes
//! for a fixed matrix of runs; the table below was printed by
//! `print_goldens` and must not change unless a PR *means* to change
//! simulated results (then regenerate it with
//! `cargo test --test golden -- --ignored --nocapture print_goldens`).
//! The `parallel` rows sort enough keys to reach the pool-parallel kernels:
//! CI runs this suite at `MSORT_POOL_THREADS` 1 and 2, and the same digests
//! must hold at both.

use multi_gpu_sort::gpu::primitives::PARALLEL_MIN_KEYS;
use multi_gpu_sort::prelude::*;
use std::fmt::Debug;

/// FNV-1a over the report's debug rendering and the output's LE bytes.
fn digest(report: &impl Debug, output: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(format!("{report:?}").as_bytes());
    for key in output {
        eat(&key.to_le_bytes());
    }
    h
}

fn sort_digest(platform: &Platform, config: &RunConfig, logical: u64, seed: u64) -> u64 {
    dist_digest(platform, config, logical, Distribution::Uniform, seed)
}

fn dist_digest(
    platform: &Platform,
    config: &RunConfig,
    logical: u64,
    dist: Distribution,
    seed: u64,
) -> u64 {
    let phys = (logical / config.fidelity.scale()) as usize;
    let mut data: Vec<u32> = generate(dist, phys, seed);
    let report = run_sort(platform, config, &mut data, logical);
    assert!(report.validated, "{}", report.algorithm);
    digest(&report, &data)
}

fn families(gpus: usize) -> [(&'static str, RunConfig); 5] {
    [
        ("p2p", RunConfig::p2p(P2pConfig::new(gpus))),
        ("rp", RunConfig::rp(RpConfig::new(gpus))),
        ("het", RunConfig::het(HetConfig::new(gpus))),
        ("sample", RunConfig::sample(SampleSortConfig::new(gpus))),
        ("mwms", RunConfig::mwms(MwmsConfig::new(gpus))),
    ]
}

/// A seeded 200-job service run: SJF over all five families on an elastic
/// DGX fleet, busy enough that jobs queue and co-run.
fn service_digest() -> u64 {
    let dgx = Platform::dgx_a100();
    let job = |tenant, keys, algo, gpus| {
        SortJob::new(TenantId(tenant), keys)
            .with_algo(algo)
            .with_gpus(gpus)
    };
    let mix = JobMix::of(job(0, 1 << 16, JobAlgo::P2p, 2))
        .and(job(1, 1 << 17, JobAlgo::Rp, 4), 1.0)
        .and(job(2, 1 << 16, JobAlgo::Het, 2).interactive(), 1.0)
        .and(job(3, 3 << 15, JobAlgo::SampleSort, 3), 1.0)
        .and(job(0, 1 << 17, JobAlgo::MultiwayMerge, 4), 0.5);
    let config = ServeConfig::new()
        .sampled(64)
        .with_policy(QueuePolicy::Sjf)
        .elastic(2, SimDuration::from_millis(2));
    let report =
        SortService::<u32>::new(&dgx, config).serve(OpenLoop::poisson(20_000.0, mix, 200, 0x601D));
    assert!(report.all_validated());
    assert_eq!(report.offered_jobs(), 200);
    digest(&report, &[])
}

/// Every pinned case in table order.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let n: u64 = 1 << 14;

    // Five families x four platforms x {full, sampled}.
    let platforms = [
        ("ac922", Platform::ibm_ac922()),
        ("delta", Platform::delta_d22x()),
        ("dgx", Platform::dgx_a100()),
        ("pcie4", Platform::test_pcie(4)),
    ];
    for (pname, platform) in &platforms {
        for (fname, config) in families(4) {
            out.push((
                format!("{fname}/{pname}/full"),
                sort_digest(platform, &config, n, 11),
            ));
            out.push((
                format!("{fname}/{pname}/sampled"),
                sort_digest(platform, &config.sampled(1 << 10), n << 10, 12),
            ));
        }
    }

    // HET out of core: a 96 KiB budget forces several chunk groups.
    let pcie2 = Platform::test_pcie(2);
    let tight = |approach| {
        HetConfig::new(2)
            .with_approach(approach)
            .with_mem_budget(96 * 1024)
    };
    for (name, config) in [
        ("het-ooc/2n", tight(LargeDataApproach::TwoN)),
        ("het-ooc/3n", tight(LargeDataApproach::ThreeN)),
        (
            "het-ooc/3n+em",
            tight(LargeDataApproach::ThreeN).with_eager_merge(),
        ),
    ] {
        out.push((
            name.to_string(),
            sort_digest(&pcie2, &RunConfig::het(config), 1 << 16, 13),
        ));
    }

    // Cross-node: two DGX nodes, every inner family.
    let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
    for inner in InnerAlgo::all() {
        let config = RunConfig::cross_node(CrossNodeConfig::new(inner));
        out.push((
            format!("cross-node/{inner:?}"),
            sort_digest(&cluster, &config, n, 14),
        ));
    }

    // One faulted run: reroutes and retries are part of the clock.
    let dgx = Platform::dgx_a100();
    let plan = FaultPlan::randomized(&dgx, 0xFA17, SimDuration::from_micros(400));
    let faulted = RunConfig::p2p(P2pConfig::new(4)).with_faults(plan);
    out.push((
        "p2p/dgx/faulted".to_string(),
        sort_digest(&dgx, &faulted, 1 << 13, 15),
    ));

    out.push(("serve/sjf-elastic-200".to_string(), service_digest()));

    // Every family above the parallel-kernel floor: chunks of twice
    // `PARALLEL_MIN_KEYS`, so sorts, merges, partitions and copies split
    // over the pool whenever it is wider than one thread.
    let wide = 8 * PARALLEL_MIN_KEYS as u64;
    for (fname, config) in families(4) {
        for (dname, dist, seed) in [
            ("uniform", Distribution::Uniform, 16),
            (
                "zipf",
                Distribution::ZipfDuplicates { skew_permille: 800 },
                17,
            ),
        ] {
            out.push((
                format!("{fname}/dgx/parallel/{dname}"),
                dist_digest(&dgx, &config, wide, dist, seed),
            ));
        }
    }
    out
}

/// Recorded at the commit before the staged-sort skeleton landed; the
/// `parallel` rows at the last commit that had the effect executor, where
/// pool widths 1 and 2 printed the same ten digests.
const GOLDEN: &[(&str, u64)] = &[
    ("p2p/ac922/full", 0x6afc9ae0c3c09f01),
    ("p2p/ac922/sampled", 0x56715c926984a469),
    ("rp/ac922/full", 0x41a4e25ec6119b98),
    ("rp/ac922/sampled", 0xdcd39e3d20fdd330),
    ("het/ac922/full", 0x68f853698cc49c9c),
    ("het/ac922/sampled", 0xdc6b29788857a854),
    ("sample/ac922/full", 0xd0520c668e4f7dae),
    ("sample/ac922/sampled", 0x01816fe3add5502a),
    ("mwms/ac922/full", 0x9a25486d4d93e781),
    ("mwms/ac922/sampled", 0xa78fac98c06a381a),
    ("p2p/delta/full", 0x5566d598d61ff175),
    ("p2p/delta/sampled", 0x1a7bdad92f7c1fe7),
    ("rp/delta/full", 0x6bfba2d1ddc3bc9e),
    ("rp/delta/sampled", 0x2e60fd5eb915e395),
    ("het/delta/full", 0xda1a12b59835809f),
    ("het/delta/sampled", 0xe94d3c55276cba83),
    ("sample/delta/full", 0x2c29000400f4a639),
    ("sample/delta/sampled", 0xe96c417fd621bf46),
    ("mwms/delta/full", 0xa6002e2a3a0b62e6),
    ("mwms/delta/sampled", 0x59b487dd7aa5fb77),
    ("p2p/dgx/full", 0xcce03c6992e53320),
    ("p2p/dgx/sampled", 0xd000fde97e335125),
    ("rp/dgx/full", 0x01a099d62a6a3600),
    ("rp/dgx/sampled", 0x1fb0f9ee158fa4a0),
    ("het/dgx/full", 0xefbc69a1d8057ae6),
    ("het/dgx/sampled", 0x06216f02521238f5),
    ("sample/dgx/full", 0x92ca8368d5027944),
    ("sample/dgx/sampled", 0x617d24770962964a),
    ("mwms/dgx/full", 0x6baf5a155db7b721),
    ("mwms/dgx/sampled", 0x96a325d5d992e4c8),
    ("p2p/pcie4/full", 0x7a2c222767b4f119),
    ("p2p/pcie4/sampled", 0x72cade5bc59a9794),
    ("rp/pcie4/full", 0xe2456cbfa2b3c7d8),
    ("rp/pcie4/sampled", 0x9839ec24b2cb9a08),
    ("het/pcie4/full", 0xdd65bea41672c918),
    ("het/pcie4/sampled", 0x86980f9aa40d3d26),
    ("sample/pcie4/full", 0x253f1c25600ddac2),
    ("sample/pcie4/sampled", 0x22b2bec786643561),
    ("mwms/pcie4/full", 0x4d3004688340af3e),
    ("mwms/pcie4/sampled", 0x24d99b2e438c2a61),
    ("het-ooc/2n", 0xecf351c30392ecf6),
    ("het-ooc/3n", 0x7d73ca31caca7f79),
    ("het-ooc/3n+em", 0x3db1aece9fcb74cb),
    ("cross-node/P2p", 0x1e1e16f28a644760),
    ("cross-node/Rp", 0x504f8a4b2341f859),
    ("cross-node/Het", 0x1447ef0b0490b083),
    ("cross-node/SampleSort", 0x3506010456081813),
    ("cross-node/MultiwayMerge", 0x93360a6dbdd08850),
    ("p2p/dgx/faulted", 0x2a978001bc70a4cc),
    ("serve/sjf-elastic-200", 0xf98976975c5d4a99),
    ("p2p/dgx/parallel/uniform", 0x6ab46bc76024a3c3),
    ("p2p/dgx/parallel/zipf", 0x906e4c99b5b01ae2),
    ("rp/dgx/parallel/uniform", 0xf856e527180e0066),
    ("rp/dgx/parallel/zipf", 0x13d70e38598b6b9d),
    ("het/dgx/parallel/uniform", 0xc0cbdf64cbbc8b51),
    ("het/dgx/parallel/zipf", 0xea21c0cca988b912),
    ("sample/dgx/parallel/uniform", 0x7ec85b8c5280f9d1),
    ("sample/dgx/parallel/zipf", 0xc19476a9ccb621ff),
    ("mwms/dgx/parallel/uniform", 0x8d04f8af78dfdec3),
    ("mwms/dgx/parallel/zipf", 0x12f6101d67bf8b0c),
];

#[test]
fn digests_match_the_recorded_goldens() {
    let got = cases();
    assert_eq!(got.len(), GOLDEN.len(), "case list and table diverged");
    for ((name, digest), (gname, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "case order diverged");
        assert_eq!(
            digest, want,
            "{name}: simulated result drifted from the recorded golden"
        );
    }
}

#[test]
#[ignore = "prints the GOLDEN table; run by hand to regenerate it"]
fn print_goldens() {
    for (name, digest) in cases() {
        println!("    (\"{name}\", 0x{digest:016x}),");
    }
}
