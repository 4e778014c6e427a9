//! Chaos harness: seeded fault injection across platforms and algorithms.
//!
//! Every test here either uses a hand-built [`FaultPlan`] (the targeted
//! scenarios) or a seeded [`FaultPlan::randomized`] schedule; each failing
//! assertion carries the seed, and re-running with that seed replays the
//! exact fault schedule and the exact simulated run, e.g.:
//!
//! ```text
//! cargo test --release --test chaos randomized_chaos -- --nocapture
//! ```
//!
//! Simulated runs are pure functions of (input seed, config, fault plan),
//! so "reproducible" means *bit-identical*: same simulated end time, same
//! output bytes.

use multi_gpu_sort::data::{validate_sort, SortValidation};
use multi_gpu_sort::prelude::*;

fn uniform(n: usize, seed: u64) -> Vec<u32> {
    generate(Distribution::Uniform, n, seed)
}

/// Sorted-permutation check with a seed-carrying panic message.
fn assert_sorted_permutation(input: &[u32], output: &[u32], tag: &str) {
    let v = validate_sort(input, output);
    assert!(
        matches!(v, SortValidation::Valid),
        "{tag}: output is not a sorted permutation: {v:?}"
    );
}

/// The acceptance scenario: a DELTA D22x NVLink between merge partners
/// dies mid-merge. P2P sort's first merge stage swaps GPU 0's and GPU 1's
/// pivot blocks across exactly the 0--1 NVLink; with it dead the affected
/// copies must come back on a different route (NVLink relay through the
/// ring, or host fallback), the sort must still validate, and the whole
/// run must be bit-reproducible.
#[test]
fn delta_nvlink_death_mid_merge_reroutes_and_completes() {
    let p = Platform::delta_d22x();
    let n: u64 = 1 << 14;
    let input = uniform(n as usize, 0xDE17A);

    // Fault-free dry run to time the merge phase.
    let mut dry = input.clone();
    let clean = p2p_sort(&p, &P2pConfig::new(4), &mut dry, n);
    assert!(clean.validated);
    assert_eq!(clean.rerouted_transfers, 0);
    assert!(clean.p2p_swapped_keys > 0, "the merge must exchange blocks");
    // 1 us into the merge phase: during stage 1's pivot selection or its
    // pair-wise swaps (phases are sequential in in-core P2P sort, so the
    // merge starts at total - merge - dtoh).
    let at = SimTime(clean.total.0 - clean.phases.merge.0 - clean.phases.dtoh.0 + 1_000);

    let topo = &p.topology;
    let link = topo
        .link_between(topo.gpu(0), topo.gpu(1))
        .expect("DELTA has a 0--1 NVLink");
    let plan = FaultPlan::new().link_down(at, link);

    let run = |input: &[u32]| {
        let mut data = input.to_vec();
        let config = RunConfig::p2p(P2pConfig::new(4)).with_faults(plan.clone());
        let report = run_sort(&p, &config, &mut data, n);
        (report, data)
    };
    let (report, output) = run(&input);
    assert!(report.validated, "sort must survive the NVLink failure");
    assert_sorted_permutation(&input, &output, "nvlink death");
    assert!(
        report.rerouted_transfers >= 1,
        "swaps over the dead 0--1 NVLink must reroute"
    );
    // The detours cannot speed the sort up; they may not slow it down
    // either (the tiny pivot-block swaps hide under the local merges).
    assert!(
        report.total >= clean.total,
        "losing a 48.5 GB/s link cannot make the sort faster"
    );

    // Bit-reproducible: same inputs, same plan, same everything.
    let (report2, output2) = run(&input);
    assert_eq!(report.total, report2.total);
    assert_eq!(report.rerouted_transfers, report2.rerouted_transfers);
    assert_eq!(output, output2);
}

/// An empty fault plan is *exactly* the fault-free simulation — same
/// simulated clock, same output bytes, through the shared RunConfig
/// fault path.
#[test]
fn empty_fault_plan_is_bitwise_noop() {
    let p = Platform::dgx_a100();
    let n: u64 = 1 << 13;
    let input = uniform(n as usize, 0xE417);
    let mut a = input.clone();
    let plain = p2p_sort(&p, &P2pConfig::new(4), &mut a, n);
    let mut b = input.clone();
    let config = RunConfig::p2p(P2pConfig::new(4)).with_faults(FaultPlan::new());
    let with_empty = run_sort(&p, &config, &mut b, n);
    assert_eq!(plain.total, with_empty.total);
    assert_eq!(a, b);
    assert_eq!(with_empty.rerouted_transfers, 0);
}

/// Run `sort` under a seeded random fault schedule spanning the fault-free
/// run's duration and assert a sorted permutation comes out. `sort`
/// returns `(input, output, simulated duration)`.
fn chaos_case(
    platform: &Platform,
    seed: u64,
    sort: impl Fn(&Platform, FaultPlan) -> (Vec<u32>, Vec<u32>, SimDuration),
) {
    // Fault-free dry run fixes the horizon so faults land inside the run.
    let (_, _, horizon) = sort(platform, FaultPlan::new());
    let plan = FaultPlan::randomized(platform, seed, horizon);
    let (input, output, _) = sort(platform, plan);
    assert_sorted_permutation(&input, &output, &format!("seed {seed}"));
}

/// Randomized chaos across all four platforms and all three sorts.
#[test]
fn randomized_chaos_all_platforms() {
    for seed in 0..6u64 {
        for p in [
            Platform::ibm_ac922(),
            Platform::delta_d22x(),
            Platform::dgx_a100(),
            Platform::test_pcie(2),
        ] {
            let g = p.gpu_count().min(4);
            chaos_case(&p, seed, |p, faults| {
                let n: u64 = 1 << 13;
                let input = uniform(n as usize, 0xBAD + seed);
                let mut data = input.clone();
                let config = RunConfig::p2p(P2pConfig::new(g)).with_faults(faults);
                let report = run_sort(p, &config, &mut data, n);
                assert!(report.validated, "seed {seed} on {}", p.id.name());
                (input, data, report.total)
            });
        }
    }
}

/// HET sort (CPU merge pipeline) under random faults, including the
/// out-of-core chunked path.
#[test]
fn randomized_chaos_het_sort() {
    for seed in 100..104u64 {
        let p = Platform::test_pcie(2);
        chaos_case(&p, seed, |p, faults| {
            let n: u64 = 1 << 12;
            let input: Vec<u32> = uniform(n as usize, seed);
            let mut data = input.clone();
            let cfg =
                RunConfig::het(HetConfig::new(2).with_mem_budget(4 * 1024)).with_faults(faults);
            let report = run_sort(p, &cfg, &mut data, n);
            assert!(report.validated, "seed {seed}");
            (input, data, report.total)
        });
    }
}

/// RP sort (radix-partitioned exchange) under random faults.
#[test]
fn randomized_chaos_rp_sort() {
    for seed in 200..204u64 {
        let p = Platform::dgx_a100();
        chaos_case(&p, seed, |p, faults| {
            let n: u64 = 1 << 12;
            let input = uniform(n as usize, seed);
            let mut data = input.clone();
            let config = RunConfig::rp(RpConfig::new(4)).with_faults(faults);
            let report = run_sort(p, &config, &mut data, n);
            assert!(report.validated, "seed {seed}");
            (input, data, report.total)
        });
    }
}

/// Sample sort (splitter partition + all-to-all bucket exchange) under
/// random faults: the exchange is the fault surface — every GPU pair
/// carries a bucket copy, so a dead link mid-run forces reroutes.
#[test]
fn randomized_chaos_sample_sort() {
    for seed in 300..304u64 {
        let p = Platform::dgx_a100();
        chaos_case(&p, seed, |p, faults| {
            let n: u64 = 1 << 13;
            let input = uniform(n as usize, seed);
            let mut data = input.clone();
            let config = RunConfig::sample(SampleSortConfig::new(4)).with_faults(faults);
            let report = run_sort(p, &config, &mut data, n);
            assert!(report.validated, "seed {seed}");
            (input, data, report.total)
        });
    }
}

/// Multiway mergesort (pairwise merge tree) under random faults across
/// two interconnect generations, including a non-power-of-two gang whose
/// odd run rides a bye through level one.
#[test]
fn randomized_chaos_multiway_mergesort() {
    for seed in 400..404u64 {
        for (p, g) in [(Platform::delta_d22x(), 4), (Platform::ibm_ac922(), 3)] {
            chaos_case(&p, seed, |p, faults| {
                let n: u64 = 12_288; // divisible by both gang sizes
                let input = uniform(n as usize, seed);
                let mut data = input.clone();
                let config = RunConfig::mwms(MwmsConfig::new(g)).with_faults(faults);
                let report = run_sort(p, &config, &mut data, n);
                assert!(report.validated, "seed {seed} on {}", p.id.name());
                (input, data, report.total)
            });
        }
    }
}

/// Targeted scenario for the new exchange phase: the DELTA 0--1 NVLink
/// dies in the middle of sample sort's bucket exchange window. The
/// all-to-all ships a bucket across every GPU pair, so the 0<->1 copies
/// must reroute; the output must be byte-identical to the fault-free
/// run's (faults bend routes and clocks, never data), and the faulted run
/// must itself be bit-reproducible.
#[test]
fn delta_nvlink_death_mid_bucket_exchange() {
    let p = Platform::delta_d22x();
    let n: u64 = 1 << 14;
    let input = uniform(n as usize, 0x5A3E);

    let mut dry = input.clone();
    let clean = sample_sort(&p, &SampleSortConfig::new(4), &mut dry, n);
    assert!(clean.validated);
    assert_eq!(clean.rerouted_transfers, 0);
    assert!(clean.p2p_swapped_keys > 0, "the exchange must ship buckets");
    // Halfway through the merge window (splitter partition + exchange):
    // even if this lands during the partition kernels, the exchange
    // copies that follow still find the link down.
    let at = SimTime(clean.phases.htod.0 + clean.phases.merge.0 / 2);

    let topo = &p.topology;
    let link = topo
        .link_between(topo.gpu(0), topo.gpu(1))
        .expect("DELTA has a 0--1 NVLink");
    let plan = FaultPlan::new().link_down(at, link);

    let run = |input: &[u32]| {
        let mut data = input.to_vec();
        let config = RunConfig::sample(SampleSortConfig::new(4)).with_faults(plan.clone());
        let report = run_sort(&p, &config, &mut data, n);
        (report, data)
    };
    let (report, output) = run(&input);
    assert!(
        report.validated,
        "sample sort must survive the NVLink death"
    );
    assert_sorted_permutation(&input, &output, "bucket exchange kill");
    assert_eq!(output, dry, "faults must never change the sorted bytes");
    assert!(
        report.rerouted_transfers >= 1,
        "bucket copies over the dead 0--1 NVLink must reroute"
    );
    assert!(
        report.total >= clean.total,
        "losing a link cannot make the exchange faster"
    );

    let (report2, output2) = run(&input);
    assert_eq!(report.total, report2.total);
    assert_eq!(report.rerouted_transfers, report2.rerouted_transfers);
    assert_eq!(output, output2);
}

/// Cross-node scenario: one NIC uplink dies in the middle of the node
/// all-to-all bucket exchange on a 2-node DGX cluster. Node 1's traffic
/// must come back through its surviving sibling NIC (over the inter-socket
/// link), the sort must validate, the sorted bytes must match the clean
/// run exactly, and the faulted run must be bit-reproducible.
#[test]
fn cluster_nic_death_mid_bucket_exchange() {
    let p = dgx_a100_cluster(2, Fabric::IbHdr);
    let n: u64 = 1 << 14;
    let input = uniform(n as usize, 0xD1C2);

    let clean_config = || RunConfig::cross_node(CrossNodeConfig::new(InnerAlgo::SampleSort));
    let mut dry = input.clone();
    let clean = run_sort(&p, &clean_config(), &mut dry, n);
    assert!(clean.validated);
    assert_eq!(clean.rerouted_transfers, 0);
    assert!(
        clean.inter_node > SimDuration::ZERO,
        "the exchange must use the fabric"
    );
    // Halfway through the merge window (splitter selection + host
    // partition + node all-to-all): the exchange copies that follow find
    // the NIC uplink down.
    let at = SimTime(clean.phases.htod.0 + clean.phases.merge.0 / 2);

    let topo = &p.topology;
    let nic = *topo
        .nics()
        .iter()
        .find(|&&id| topo.node(id).name == "Node 1 NIC 0")
        .expect("2-node cluster has node 1's NIC 0");
    let switch = *topo
        .nics()
        .iter()
        .find(|&&id| topo.node(id).name.contains("switch"))
        .expect("the cluster has a fabric switch");
    let link = topo
        .link_between(nic, switch)
        .expect("every NIC has a switch uplink");
    let plan = FaultPlan::new().link_down(at, link);

    let run = |input: &[u32]| {
        let mut data = input.to_vec();
        let config = clean_config().with_faults(plan.clone());
        let report = run_sort(&p, &config, &mut data, n);
        (report, data)
    };
    let (report, output) = run(&input);
    assert!(report.validated, "the sort must survive the NIC death");
    assert_sorted_permutation(&input, &output, "NIC uplink kill");
    assert_eq!(output, dry, "faults must never change the sorted bytes");
    assert!(
        report.rerouted_transfers >= 1,
        "node 1's exchange copies must reroute via the surviving NIC"
    );
    assert!(
        report.total >= clean.total,
        "losing a NIC uplink cannot make the exchange faster"
    );

    let (report2, output2) = run(&input);
    assert_eq!(report.total, report2.total);
    assert_eq!(report.rerouted_transfers, report2.rerouted_transfers);
    assert_eq!(output, output2);
}

/// Fixed-seed chaos runs for CI: DELTA D22x, all three sorts where they
/// apply, with the run repeated to pin bit-reproducibility. CI invokes
/// `cargo test --release --test chaos chaos_fixed_seed`.
fn fixed_seed_case(seed: u64) {
    let p = Platform::delta_d22x();
    let n: u64 = 1 << 13;
    let input = uniform(n as usize, seed);
    // Horizon wide enough to cover the run; later events simply never fire.
    let plan = FaultPlan::randomized(&p, seed, SimDuration(2_000_000));
    let run = |input: &[u32]| {
        let mut data = input.to_vec();
        let config = RunConfig::p2p(P2pConfig::new(4)).with_faults(plan.clone());
        let report = run_sort(&p, &config, &mut data, n);
        (report, data)
    };
    let (report, output) = run(&input);
    assert!(report.validated, "seed {seed}");
    assert_sorted_permutation(&input, &output, &format!("seed {seed}"));
    let (report2, output2) = run(&input);
    assert_eq!(report.total, report2.total, "seed {seed} not reproducible");
    assert_eq!(output, output2, "seed {seed} not reproducible");
}

#[test]
fn chaos_fixed_seed_a() {
    fixed_seed_case(0xC0FFEE);
}

#[test]
fn chaos_fixed_seed_b() {
    fixed_seed_case(0x5EEDB);
}
