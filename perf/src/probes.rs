//! Layer probes: a fixed call pattern against one layer's public
//! functions, sampled at least twenty times, reported as the median cost
//! of one call. They say what a layer costs in isolation; the traced pass
//! says how much of a workload it is.

use crate::report::Values;
use crate::stats::{median, single};
use crate::workloads::{sub_seed, Serve};
use msort_cluster::dgx_a100_cluster;
use msort_data::{generate, validate_sort, DataType, Distribution};
use msort_gpu::{Fidelity, GpuSystem, Phase};
use msort_serve::{estimate_job_cost, PlacementPolicy, SortJob, Workload};
use msort_sim::{FlowSim, GpuSortAlgo};
use msort_topology::route::route;
use msort_topology::{best_gpu_set, Endpoint, Fabric, FlowRequest, Platform, RateAllocator, Route};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 21;

/// Median over [`SAMPLES`] of the seconds one `pattern(state)` takes, with
/// a fresh untimed `prepare()` before each. One more sample runs first and
/// is dropped: it warms caches and lazy tables.
fn sample_with<S>(mut prepare: impl FnMut() -> S, mut pattern: impl FnMut(S)) -> f64 {
    let samples: Vec<f64> = (0..=SAMPLES)
        .map(|_| {
            let state = prepare();
            let start = Instant::now();
            pattern(state);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples[1..])
}

fn sample(mut pattern: impl FnMut()) -> f64 {
    sample_with(|| (), |()| pattern())
}

/// Host to every GPU and back on a single node: 16 routes on the DGX.
fn host_routes(platform: &Platform) -> Vec<Route> {
    (0..platform.gpu_count())
        .flat_map(|g| {
            [
                (Endpoint::HOST0, Endpoint::gpu(g)),
                (Endpoint::gpu(g), Endpoint::HOST0),
            ]
        })
        .map(|(src, dst)| route(&platform.topology, src, dst).expect("host reaches every GPU"))
        .collect()
}

/// Every pair of a node-0 GPU and a GPU of another node, both directions.
fn remote_pairs(cluster: &Platform) -> Vec<(Endpoint, Endpoint)> {
    let per_node = 8;
    (0..per_node)
        .flat_map(|local| (per_node..cluster.gpu_count()).map(move |remote| (local, remote)))
        .flat_map(|(l, r)| {
            [
                (Endpoint::gpu(l), Endpoint::gpu(r)),
                (Endpoint::gpu(r), Endpoint::gpu(l)),
            ]
        })
        .collect()
}

fn allocate_ns(platform: &Platform, routes: &[Route]) -> f64 {
    let flows: Vec<FlowRequest> = routes.iter().map(|r| platform.flow_request(r)).collect();
    let mut allocator = RateAllocator::new();
    let mut rates = Vec::new();
    let calls = 16;
    let secs = sample(|| {
        for _ in 0..calls {
            allocator.allocate_with(
                platform.constraint_table(),
                flows.len(),
                |i| &flows[i],
                &mut rates,
            );
            black_box(&rates);
        }
    });
    secs * 1e9 / calls as f64
}

/// 256 flows in staggered waves (32 upfront, each completion starts the
/// next): wall time per flow start or completion.
fn flow_event_ns(platform: &Platform, routes: &[Route]) -> f64 {
    const TOTAL: usize = 256;
    const UPFRONT: usize = 32;
    const BYTES: u64 = 1 << 24;
    let secs = sample(|| {
        let mut sim = FlowSim::new(platform);
        let mut started = 0;
        while started < UPFRONT {
            sim.start(&routes[started % routes.len()], BYTES);
            started += 1;
        }
        while let Some((t, _)) = sim.next_completion() {
            for _ in 0..sim.advance_to(t).len() {
                if started < TOTAL {
                    sim.start(&routes[started % routes.len()], BYTES);
                    started += 1;
                }
            }
        }
        black_box(sim.now());
    });
    secs * 1e9 / (2 * TOTAL) as f64
}

/// 512 copies of 1 Ki keys between host and the eight GPUs on eight
/// streams, from the first enqueue to the end of `synchronize`.
fn memcpy_op_ns(platform: &Platform, fidelity: Fidelity) -> f64 {
    const COPIES: u64 = 512;
    const KEYS: u64 = 1 << 10;
    let gpus = platform.gpu_count();
    let secs = sample_with(
        || {
            let mut sys: GpuSystem<u32> = GpuSystem::new(platform, fidelity);
            let host = sys.world_mut().alloc_host(0, KEYS * COPIES);
            let bufs: Vec<_> = (0..gpus)
                .map(|g| sys.world_mut().alloc_gpu(g, KEYS * 64))
                .collect();
            let streams: Vec<_> = (0..8).map(|_| sys.stream()).collect();
            (sys, host, bufs, streams)
        },
        |(mut sys, host, bufs, streams)| {
            for i in 0..COPIES {
                let stream = streams[(i % 8) as usize];
                let buf = bufs[i as usize % gpus];
                let (host_off, dev_off) = (i * KEYS, (i / 8) % 64 * KEYS);
                if i % 2 == 0 {
                    sys.memcpy(stream, host, host_off, buf, dev_off, KEYS, &[], Phase::HtoD);
                } else {
                    sys.memcpy(stream, buf, dev_off, host, host_off, KEYS, &[], Phase::DtoH);
                }
            }
            black_box(sys.synchronize());
        },
    );
    secs * 1e9 / COPIES as f64
}

/// 64 device sorts of 1 Ki keys over the eight GPUs, full fidelity.
fn sort_op_ns(platform: &Platform) -> f64 {
    const SORTS: u64 = 64;
    const KEYS: u64 = 1 << 10;
    let gpus = platform.gpu_count();
    let input: Vec<u32> = generate(Distribution::Uniform, KEYS as usize, 1);
    let secs = sample_with(
        || {
            let mut sys: GpuSystem<u32> = GpuSystem::new(platform, Fidelity::Full);
            let host = sys.world_mut().import_host(0, input.clone(), KEYS);
            let streams: Vec<_> = (0..gpus).map(|_| sys.stream()).collect();
            let bufs: Vec<_> = (0..SORTS as usize)
                .map(|i| {
                    let data = sys.world_mut().alloc_gpu(i % gpus, KEYS);
                    let aux = sys.world_mut().alloc_gpu(i % gpus, KEYS);
                    sys.memcpy(streams[i % gpus], host, 0, data, 0, KEYS, &[], Phase::HtoD);
                    (data, aux)
                })
                .collect();
            sys.synchronize();
            (sys, streams, bufs)
        },
        |(mut sys, streams, bufs)| {
            for (i, &(data, aux)) in bufs.iter().enumerate() {
                let stream = streams[i % gpus];
                sys.gpu_sort(stream, GpuSortAlgo::ThrustLike, data, (0, KEYS), aux, &[]);
            }
            black_box(sys.synchronize());
        },
    );
    secs * 1e9 / SORTS as f64
}

/// The first `n` jobs of the `serve_overload` arrival stream.
fn overload_jobs(seed: u64, n: usize) -> Vec<SortJob> {
    let mut arrivals = Serve::overload(seed).arrivals();
    std::iter::from_fn(|| arrivals.next_arrival())
        .take(n)
        .map(|(_, job)| job)
        .collect()
}

/// Run every probe. Only the data and arrival probes depend on `seed`.
#[must_use]
pub fn run_all(seed: u64) -> Values {
    let dgx = Platform::dgx_a100();
    let dgx_routes = host_routes(&dgx);
    let cluster = dgx_a100_cluster(8, Fabric::IbHdr);
    let pairs = remote_pairs(&cluster);
    let cluster_routes: Vec<Route> = pairs
        .iter()
        .map(|&(src, dst)| {
            route(&cluster.topology, src, dst).expect("the fabric connects all GPUs")
        })
        .collect();
    let mut out: Values = Vec::new();

    out.push((
        "topology.allocate_ns",
        single(allocate_ns(&dgx, &dgx_routes)),
    ));
    out.push((
        "topology.allocate_cluster_ns",
        single(allocate_ns(&cluster, &cluster_routes)),
    ));
    let route_s = sample(|| {
        for &(src, dst) in &pairs {
            black_box(route(&cluster.topology, src, dst));
        }
    });
    out.push((
        "topology.route_ns",
        single(route_s * 1e9 / pairs.len() as f64),
    ));
    let fleet: Vec<usize> = (0..dgx.gpu_count()).collect();
    let gang_sizes = [1, 2, 4];
    let best_s = sample(|| {
        for g in gang_sizes {
            black_box(best_gpu_set(&dgx, dgx.constraint_table(), &fleet, g));
        }
    });
    out.push((
        "topology.best_gpu_set_ns",
        single(best_s * 1e9 / gang_sizes.len() as f64),
    ));
    let build_s = sample(|| {
        black_box(dgx_a100_cluster(8, Fabric::IbHdr));
    });
    out.push(("cluster.build_ms", single(build_s * 1e3)));

    out.push((
        "sim.flow_event_ns",
        single(flow_event_ns(&dgx, &dgx_routes)),
    ));
    out.push((
        "sim.flow_event_cluster_ns",
        single(flow_event_ns(&cluster, &cluster_routes)),
    ));
    out.push((
        "gpu.memcpy_op_ns",
        single(memcpy_op_ns(&dgx, Fidelity::Full)),
    ));
    out.push((
        "gpu.memcpy_op_sampled_ns",
        single(memcpy_op_ns(&dgx, Fidelity::Sampled { scale: 64 })),
    ));
    out.push(("gpu.sort_op_ns", single(sort_op_ns(&dgx))));

    let jobs = overload_jobs(seed, 2_000);
    let cost_s = sample(|| {
        for job in &jobs {
            black_box(estimate_job_cost(&dgx, job, DataType::U32));
        }
    });
    out.push((
        "serve.cost_ns_per_job",
        single(cost_s * 1e9 / jobs.len() as f64),
    ));
    // Placement costs ~100x a cost estimate; a tenth of the jobs keeps the
    // probe under a second.
    let placed = &jobs[..200];
    let place_s = sample(|| {
        let mut cursor = 0;
        for job in placed {
            black_box(PlacementPolicy::TopologyAware.place(
                &dgx,
                dgx.constraint_table(),
                &fleet,
                job.gpus,
                &mut cursor,
            ));
        }
    });
    out.push((
        "serve.place_ns_per_job",
        single(place_s * 1e9 / placed.len() as f64),
    ));

    let n = 1 << 20;
    let data_seed = sub_seed(seed, 1);
    let generate_s = sample(|| {
        black_box(generate::<u32>(Distribution::Uniform, n, data_seed));
    });
    out.push(("data.generate_mkeys_s", single(n as f64 / generate_s / 1e6)));
    let input: Vec<u32> = generate(Distribution::Uniform, n, data_seed);
    let mut sorted = input.clone();
    sorted.sort_unstable();
    let validate_s = sample(|| {
        assert!(black_box(validate_sort(&input, &sorted)).is_valid());
    });
    out.push(("data.validate_mkeys_s", single(n as f64 / validate_s / 1e6)));
    out
}
