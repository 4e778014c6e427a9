//! Randomized-property tests over the core invariants of the reproduction:
//! sorting correctness across arbitrary inputs and configurations, pivot
//! selection laws, allocator feasibility, merge correctness.
//!
//! The build environment is offline, so instead of `proptest` these use
//! deterministic seeded loops over the workspace's own [`Rng`]: every case
//! is reproducible from its printed seed, and coverage is equivalent to the
//! original property tests (dozens of randomized cases per invariant,
//! including empty inputs and adversarial bit patterns).

use multi_gpu_sort::core::pivot::{select_pivot_slices, swap_plan};
use multi_gpu_sort::core::{DriverStep, Family};
use multi_gpu_sort::cpu::multiway::{multisequence_select, multiway_merge};
use multi_gpu_sort::cpu::{lsb_radix_sort, merge_path_sort, msb_radix_sort, paradis_sort};
use multi_gpu_sort::data::Rng;
use multi_gpu_sort::prelude::*;
use multi_gpu_sort::topology::{allocate_rates, ConstraintTable, FlowRequest};

/// Number of randomized cases per invariant (matches the proptest budget
/// the original suite used).
const CASES: u64 = 48;

fn random_vec_u32(rng: &mut Rng, max_len: usize) -> Vec<u32> {
    let len = rng.usize_in(0..max_len);
    (0..len).map(|_| rng.u32()).collect()
}

fn random_vec_u64(rng: &mut Rng, max_len: usize) -> Vec<u64> {
    let len = rng.usize_in(0..max_len);
    (0..len).map(|_| rng.u64()).collect()
}

// ---- CPU sorting algorithms vs. the standard library. ----

#[test]
fn lsb_radix_matches_std() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let mut v = random_vec_u32(&mut rng, 2000);
        let mut expected = v.clone();
        expected.sort_unstable();
        lsb_radix_sort(&mut v);
        assert_eq!(v, expected, "seed {seed}");
    }
}

#[test]
fn msb_radix_matches_std() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(1000 + seed);
        let mut v = random_vec_u64(&mut rng, 2000);
        let mut expected = v.clone();
        expected.sort_unstable();
        msb_radix_sort(&mut v);
        assert_eq!(v, expected, "seed {seed}");
    }
}

#[test]
fn merge_path_sort_matches_std() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(2000 + seed);
        let mut v: Vec<i32> = random_vec_u32(&mut rng, 2000)
            .into_iter()
            .map(|x| x as i32)
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        merge_path_sort(&mut v);
        assert_eq!(v, expected, "seed {seed}");
    }
}

#[test]
fn paradis_matches_std_on_floats() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(3000 + seed);
        // Arbitrary bit patterns: includes NaNs, infinities, -0.0.
        let mut v: Vec<f32> = random_vec_u32(&mut rng, 3000)
            .into_iter()
            .map(f32::from_bits)
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable_by(|a, b| a.total_cmp_key(b));
        paradis_sort(&mut v);
        assert_eq!(v.len(), expected.len(), "seed {seed}");
        for (a, b) in v.iter().zip(&expected) {
            assert_eq!(a.to_radix(), b.to_radix(), "seed {seed}");
        }
    }
}

// ---- Multiway merge. ----

#[test]
fn multiway_merge_matches_flat_sort() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(4000 + seed);
        let k = rng.usize_in(1..9);
        let mut runs: Vec<Vec<u32>> = (0..k).map(|_| random_vec_u32(&mut rng, 200)).collect();
        let mut all: Vec<u32> = Vec::new();
        for r in &mut runs {
            r.sort_unstable();
            all.extend_from_slice(r);
        }
        let views: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let mut out = vec![0u32; all.len()];
        multiway_merge(&views, &mut out);
        all.sort_unstable();
        assert_eq!(out, all, "seed {seed}");
    }
}

#[test]
fn multisequence_select_is_a_valid_split() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(5000 + seed);
        let k = rng.usize_in(1..6);
        let runs: Vec<Vec<u32>> = (0..k)
            .map(|_| {
                let mut r = random_vec_u32(&mut rng, 150);
                r.sort_unstable();
                r
            })
            .collect();
        let views: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let total: usize = views.iter().map(|v| v.len()).sum();
        let rank = ((total as f64) * rng.f64()) as usize;
        let splits = multisequence_select(&views, rank);
        assert_eq!(splits.iter().sum::<usize>(), rank, "seed {seed}");
        let max_before = views
            .iter()
            .zip(&splits)
            .filter_map(|(r, &s)| r[..s].last().copied())
            .max();
        let min_after = views
            .iter()
            .zip(&splits)
            .filter_map(|(r, &s)| r.get(s).copied())
            .min();
        if let (Some(mb), Some(ma)) = (max_before, min_after) {
            assert!(mb <= ma, "seed {seed}");
        }
    }
}

// ---- Pivot selection (Algorithm 1). ----

#[test]
fn pivot_is_valid_and_leftmost() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(6000 + seed);
        let n = rng.usize_in(1..300);
        // Build two equal-size sorted arrays from independent pools.
        let mut a: Vec<u32> = (0..n).map(|_| rng.u32()).collect();
        let mut b: Vec<u32> = generate(Distribution::Uniform, n, rng.u64());
        a.sort_unstable();
        b.sort_unstable();
        let p = select_pivot_slices(&a, &b);
        assert!(p <= n, "seed {seed}");
        // Validity: max of the new A side <= min of the new B side.
        let max_a = a[..n - p].iter().chain(b[..p].iter()).max().copied();
        let min_b = a[n - p..].iter().chain(b[p..].iter()).min().copied();
        if let (Some(ma), Some(mb)) = (max_a, min_b) {
            assert!(ma <= mb, "seed {seed}");
        }
        // Leftmost: p - 1 must be invalid (when p > 0).
        if p > 0 {
            let q = p - 1;
            let max_a = a[..n - q].iter().chain(b[..q].iter()).max().copied();
            let min_b = a[n - q..].iter().chain(b[q..].iter()).min().copied();
            if let (Some(ma), Some(mb)) = (max_a, min_b) {
                assert!(ma > mb, "seed {seed}: p={p} not leftmost");
            }
        }
    }
}

#[test]
fn swap_plan_partitions_pivot() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(7000 + seed);
        let half = rng.usize_in(1..5);
        let chunk = rng.usize_in(1..100);
        let pivot = ((half * chunk) as f64 * rng.f64()) as usize;
        let plan = swap_plan(half, chunk, pivot);
        let total: usize = plan.swaps.iter().map(|s| s.len).sum();
        assert_eq!(total, pivot, "seed {seed}");
        // Each chunk's kept + received == chunk size; at most one partial pair.
        let partials = plan.swaps.iter().filter(|s| s.len < chunk).count();
        assert!(partials <= 1, "seed {seed}");
        for c in 0..2 * half {
            let (kept, recv) = plan.chunk_exchange(c);
            assert_eq!(kept + recv, chunk, "seed {seed}");
        }
    }
}

// ---- Max-min fair allocation. ----

#[test]
fn allocation_is_feasible_and_pareto() {
    use multi_gpu_sort::topology::{LinkKind, MemSpec};
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(8000 + seed);
        let n_flows = rng.usize_in(1..7);
        let caps: Vec<f64> = (0..3).map(|_| 1.0 + rng.f64() * 99.0).collect();
        // A tiny topology whose constraint capacities come from `caps`.
        let mut b = TopologyBuilder::new();
        let cpu = b.cpu(
            0,
            MemSpec {
                capacity_bytes: 1 << 30,
                read_cap: gbps(caps[0]),
                write_cap: gbps(caps[1]),
                combined_cap: Some(gbps(caps[2])),
            },
        );
        let g0 = b.gpu(0, GpuModel::Custom);
        let g1 = b.gpu(1, GpuModel::Custom);
        b.link(cpu, g0, LinkKind::Pcie3, gbps(13.0));
        b.link(cpu, g1, LinkKind::Pcie3, gbps(13.0));
        let topo = b.build();
        let table = ConstraintTable::new(&topo);

        // Random flows between random endpoints.
        let endpoints = [Endpoint::HOST0, Endpoint::gpu(0), Endpoint::gpu(1)];
        let mut flows = Vec::new();
        for _ in 0..n_flows {
            let src = endpoints[rng.usize_in(0..3)];
            let dst = endpoints[rng.usize_in(0..3)];
            if src == dst {
                continue;
            }
            let route = multi_gpu_sort::topology::route::route(&topo, src, dst).unwrap();
            flows.push(FlowRequest::new(table.route_constraints(&topo, &route)));
        }
        let rates = allocate_rates(&table, &flows);
        // Feasibility.
        let mut used = vec![0.0f64; table.constraints().len()];
        for (f, fl) in flows.iter().enumerate() {
            assert!(rates[f] >= 0.0, "seed {seed}");
            assert!(rates[f].is_finite(), "seed {seed}");
            for &(c, w) in fl.constraints.iter() {
                used[c.0] += rates[f] * w;
            }
        }
        for (u, c) in used.iter().zip(table.constraints()) {
            assert!(
                *u <= c.capacity * 1.0001,
                "seed {seed}: {u} > {}",
                c.capacity
            );
        }
        // Pareto: every flow crosses at least one ~saturated constraint.
        for fl in &flows {
            let bottleneck = fl
                .constraints
                .iter()
                .any(|&(c, _)| used[c.0] >= table.capacity(c) * 0.999);
            assert!(bottleneck, "seed {seed}");
        }
    }
}

// ---- End-to-end sorting as a property. ----

#[test]
fn p2p_sort_any_input() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(9000 + seed);
        let raw = random_vec_u32(&mut rng, 512);
        let g = 1usize << rng.usize_in(0..3);
        // Pad to a multiple of g.
        let mut input = raw;
        while !input.len().is_multiple_of(g * 2) {
            input.push(0);
        }
        if input.is_empty() {
            continue;
        }
        let n = input.len() as u64;
        let platform = Platform::dgx_a100();
        let mut data = input.clone();
        let report = p2p_sort(&platform, &P2pConfig::new(g), &mut data, n);
        assert!(report.validated, "seed {seed}");
        assert!(same_multiset(&input, &data), "seed {seed}");
    }
}

#[test]
fn every_sort_every_platform_every_distribution() {
    // The full cross product: all FIVE algorithm families (P2P, HET, RP,
    // sample sort, multiway mergesort) on each paper platform, over every
    // key distribution the generator knows, must produce a sorted
    // permutation of the input. One seeded case per combination — the
    // seed tags reproduce any failure exactly.
    use multi_gpu_sort::core::{rp_sort, RpConfig};
    let distributions = [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::Sorted,
        Distribution::ReverseSorted,
        Distribution::NearlySorted,
        Distribution::ZipfDuplicates {
            skew_permille: 1200,
        },
        Distribution::Constant,
    ];
    let platforms = [
        Platform::ibm_ac922(),
        Platform::delta_d22x(),
        Platform::dgx_a100(),
    ];
    let mut seed = 11_000u64;
    for platform in &platforms {
        for &dist in &distributions {
            seed += 1;
            // 4 GPUs everywhere; n divisible by g^2 for RP sort.
            let n: u64 = 1 << 12;
            let input: Vec<u32> = generate(dist, n as usize, seed);
            let tag = || format!("seed {seed} {dist:?} on {}", platform.id.name());

            let mut p2p = input.clone();
            let r = p2p_sort(platform, &P2pConfig::new(4), &mut p2p, n);
            assert!(r.validated, "p2p {}", tag());
            assert!(same_multiset(&input, &p2p), "p2p {}", tag());

            let mut het = input.clone();
            let r = het_sort(platform, &HetConfig::new(4), &mut het, n);
            assert!(r.validated, "het {}", tag());
            assert!(same_multiset(&input, &het), "het {}", tag());

            let mut rp = input.clone();
            let r = rp_sort(platform, &RpConfig::new(4), &mut rp, n);
            assert!(r.validated, "rp {}", tag());
            assert!(same_multiset(&input, &rp), "rp {}", tag());

            let mut sample = input.clone();
            let r = sample_sort(platform, &SampleSortConfig::new(4), &mut sample, n);
            assert!(r.validated, "sample {}", tag());
            assert!(same_multiset(&input, &sample), "sample {}", tag());

            let mut mwms = input.clone();
            let r = mwms_sort(platform, &MwmsConfig::new(4), &mut mwms, n);
            assert!(r.validated, "mwms {}", tag());
            assert!(same_multiset(&input, &mwms), "mwms {}", tag());

            // All five algorithms agree on the result.
            assert_eq!(p2p, het, "p2p vs het {}", tag());
            assert_eq!(p2p, rp, "p2p vs rp {}", tag());
            assert_eq!(p2p, sample, "p2p vs sample {}", tag());
            assert_eq!(p2p, mwms, "p2p vs mwms {}", tag());
        }
    }
}

#[test]
fn five_algorithms_bit_reproducible_from_seed() {
    // The whole run is a pure function of (seed, config): regenerating the
    // input from the seed and re-running must reproduce the output bytes
    // AND every field of the report (all simulated clocks included).
    // `SortReport` has no `PartialEq` by design; its Debug rendering
    // compares every field.
    let platform = Platform::delta_d22x();
    let n: u64 = 1 << 12;
    let run = |algo: &str, seed: u64| -> (Vec<u32>, String) {
        let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, seed);
        let report = match algo {
            "p2p" => p2p_sort(&platform, &P2pConfig::new(4), &mut data, n),
            "rp" => {
                use multi_gpu_sort::core::{rp_sort, RpConfig};
                rp_sort(&platform, &RpConfig::new(4), &mut data, n)
            }
            "het" => het_sort(&platform, &HetConfig::new(4), &mut data, n),
            "sample" => sample_sort(&platform, &SampleSortConfig::new(4), &mut data, n),
            "mwms" => mwms_sort(&platform, &MwmsConfig::new(4), &mut data, n),
            _ => unreachable!(),
        };
        assert!(report.validated, "{algo}");
        (data, format!("{report:?}"))
    };
    for algo in ["p2p", "rp", "het", "sample", "mwms"] {
        let (out_a, rep_a) = run(algo, 31_337);
        let (out_b, rep_b) = run(algo, 31_337);
        assert_eq!(out_a, out_b, "{algo}: output not reproducible from seed");
        assert_eq!(rep_a, rep_b, "{algo}: report not reproducible from seed");
        assert!(is_sorted(&out_a), "{algo}");
    }
}

#[test]
fn sample_sort_bucket_imbalance_bounded_on_skewed_input() {
    // Duplicate-heavy Zipf input is sample sort's adversary: a key-only
    // splitter comparison would dump every copy of the hot key into one
    // bucket. The (key, position) tie-break bounds the largest receive
    // partition — surfaced via `SortReport::max_partition_keys` — to ~2x
    // the even share even at heavy skew.
    let g = 8;
    let n: u64 = 1 << 15;
    for &skew_permille in &[1200u32, 1500] {
        let dist = Distribution::ZipfDuplicates { skew_permille };
        let input: Vec<u32> = generate(dist, n as usize, 0x5A17);
        let mut data = input.clone();
        let report = sample_sort(
            &Platform::dgx_a100(),
            &SampleSortConfig::new(g),
            &mut data,
            n,
        );
        assert!(report.validated, "skew {skew_permille}");
        assert!(same_multiset(&input, &data), "skew {skew_permille}");
        assert!(
            report.max_partition_keys > 0,
            "sample sort must report its largest bucket"
        );
        assert!(
            report.max_partition_keys <= 2 * (n / g as u64),
            "skew {skew_permille}: largest bucket {} exceeds 2x the even share {}",
            report.max_partition_keys,
            n / g as u64
        );
    }
}

#[test]
fn het_sort_any_input() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(10_000 + seed);
        let len = rng.usize_in(1..512);
        let input: Vec<u64> = (0..len).map(|_| rng.u64()).collect();
        let budget_kib = rng.u64_in(2..64);
        let n = input.len() as u64;
        let platform = Platform::test_pcie(2);
        let cfg = HetConfig::new(2).with_mem_budget(budget_kib * 1024);
        let mut data = input.clone();
        let report = het_sort(&platform, &cfg, &mut data, n);
        assert!(report.validated, "seed {seed}");
        assert!(same_multiset(&input, &data), "seed {seed}");
    }
}

// ---- Cross-node sort. ----

#[test]
fn cross_node_sorted_permutation_across_distributions() {
    let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
    let n: u64 = 1 << 13;
    let mut seed = 20_000u64;
    for dist in [
        Distribution::Uniform,
        Distribution::ReverseSorted,
        Distribution::ZipfDuplicates {
            skew_permille: 1200,
        },
        Distribution::Constant,
    ] {
        for inner in [
            InnerAlgo::SampleSort,
            InnerAlgo::P2p,
            InnerAlgo::MultiwayMerge,
        ] {
            seed += 1;
            let input: Vec<u32> = generate(dist, n as usize, seed);
            let mut data = input.clone();
            let report = cross_node_sort(&cluster, &CrossNodeConfig::new(inner), &mut data, n);
            assert!(report.validated, "seed {seed} {dist:?} {inner:?}");
            assert!(is_sorted(&data), "seed {seed} {dist:?} {inner:?}");
            assert!(
                same_multiset(&input, &data),
                "seed {seed} {dist:?} {inner:?}"
            );
        }
    }
}

#[test]
fn cross_node_agrees_with_single_node_sorts() {
    // The same keys sorted on a 2-node cluster and on one DGX box must
    // produce byte-identical output (sorting is a pure function of the
    // input multiset), even though the cluster run crosses the fabric.
    let cluster = dgx_a100_cluster(2, Fabric::IbNdr);
    let single = Platform::dgx_a100();
    let n: u64 = 1 << 14;
    let input: Vec<u32> = generate(Distribution::Normal, n as usize, 0xAC_C0DE);

    let mut cross = input.clone();
    let rc = cross_node_sort(
        &cluster,
        &CrossNodeConfig::new(InnerAlgo::SampleSort),
        &mut cross,
        n,
    );
    assert!(rc.validated);
    assert!(rc.inter_node > SimDuration::ZERO, "must use the fabric");

    for (name, out) in [
        ("p2p", {
            let mut d = input.clone();
            let r = p2p_sort(&single, &P2pConfig::new(8), &mut d, n);
            assert!(r.validated);
            d
        }),
        ("mwms", {
            let mut d = input.clone();
            let r = mwms_sort(&single, &MwmsConfig::new(8), &mut d, n);
            assert!(r.validated);
            d
        }),
    ] {
        assert_eq!(cross, out, "cross-node vs single-node {name} diverge");
    }
}

// ---- Device memory: footprint formula vs. real allocations. ----

/// Step `driver` to completion; return the peak device bytes any GPU held
/// (sampled after every step, where all allocation happens).
fn drive_watching_memory(
    sys: &mut GpuSystem<'_, u32>,
    driver: &mut dyn SortDriver<u32>,
    initial: &[u64],
) -> u64 {
    let mut peak = 0;
    loop {
        let step = driver.step(sys);
        for (gpu, &free) in initial.iter().enumerate() {
            peak = peak.max(free - sys.world().gpu_free_bytes(gpu));
        }
        let DriverStep::Wait(mut ops) = step else {
            return peak;
        };
        while !ops.is_empty() {
            sys.run_until(&ops, None);
            ops.retain(|&op| !sys.op_done(op));
        }
    }
}

#[test]
fn device_footprint_bounds_real_allocations_and_release_returns_them() {
    // The footprint admission control budgets with is a formula; the
    // drivers' allocations are code. Pin one against the other: the peak
    // stays within the footprint (exactly at it for the families whose
    // buffers are data-independent), and release gives everything back.
    let dgx = Platform::dgx_a100();
    let free_bytes = |sys: &GpuSystem<'_, u32>| -> Vec<u64> {
        let gpus = 0..sys.platform().gpu_count();
        gpus.map(|g| sys.world().gpu_free_bytes(g)).collect()
    };
    let dists = [
        Distribution::Uniform,
        Distribution::ZipfDuplicates {
            skew_permille: 1500,
        },
        Distribution::Sorted,
    ];
    let mut cases = 0;
    for family in Family::all() {
        for g in [1usize, 2, 3, 4, 8] {
            if !g.is_power_of_two() && matches!(family, Family::P2p | Family::Het) {
                continue;
            }
            for dist in dists {
                let case = format!("{family:?} g={g} {dist:?}");
                let n = g as u64 * (1 << 11);
                let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&dgx, Fidelity::Full);
                let initial = free_bytes(&sys);
                let input = generate(dist, n as usize, 30_000 + cases);
                let algorithm =
                    Algorithm::placed(family, (0..g).collect(), GpuSortAlgo::ThrustLike, 0);
                let mut driver = algorithm.driver(&mut sys, input, n);
                let peak = drive_watching_memory(&mut sys, &mut *driver, &initial);
                assert!(driver.validated(), "{case}");

                let footprint = family.device_footprint_keys(n, g, 1) * 4;
                if family == Family::SampleSort {
                    assert!(peak <= footprint, "{case}: peak {peak} > {footprint}");
                } else {
                    assert_eq!(peak, footprint, "{case}");
                }
                driver.release(&mut sys);
                assert_eq!(free_bytes(&sys), initial, "{case}: release leaked");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 69);

    // Cross-node jobs are never admitted by the serve layer, so they have
    // no footprint formula — but they must give everything back too.
    let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
    let n: u64 = 1 << 13;
    let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&cluster, Fidelity::Full);
    let initial = free_bytes(&sys);
    let input = generate(Distribution::Uniform, n as usize, 31_000);
    let config = CrossNodeConfig::new(InnerAlgo::P2p);
    let mut driver = CrossNodeDriver::new(&mut sys, &config, input, n);
    let peak = drive_watching_memory(&mut sys, &mut driver, &initial);
    assert!(driver.validated() && peak > 0);
    driver.release(&mut sys);
    assert_eq!(free_bytes(&sys), initial, "cross-node release leaked");
}
