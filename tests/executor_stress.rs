//! Stress and robustness tests for the virtual GPU runtime: randomized
//! operation DAGs, the new extension primitives, and failure modes.
//!
//! Randomized cases use deterministic seeded loops over the workspace [`Rng`]
//! (the build environment is offline, so no `proptest`); every failure is
//! reproducible from its printed seed.

use multi_gpu_sort::data::Rng;
use multi_gpu_sort::gpu::{GpuSystem, OpId, Phase};
use multi_gpu_sort::prelude::*;

/// Random DAGs of copies and delays across random streams with random
/// backward waits: the executor must terminate, run every op exactly once,
/// start no op before its waits finished, and run each stream in FIFO
/// order.
#[test]
fn random_dags_terminate() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n_ops = rng.usize_in(1..40);
        let ops: Vec<(usize, usize, u64)> = (0..n_ops)
            .map(|_| (rng.usize_in(0..6), rng.usize_in(0..4), rng.u64_in(1..64)))
            .collect();
        let wait_mask = rng.u64();

        let platform = Platform::dgx_a100();
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&platform, Fidelity::Full);
        let host = sys.world_mut().import_host(0, vec![7u32; 1 << 16], 1 << 16);
        let devs: Vec<_> = (0..4)
            .map(|g| sys.world_mut().alloc_gpu(g, 1 << 10))
            .collect();
        let streams: Vec<_> = (0..6).map(|_| sys.stream()).collect();

        let mut issued = Vec::new();
        let mut wait_lists = Vec::new();
        for (i, &(s, g, len)) in ops.iter().enumerate() {
            // Waits reference only *earlier* ops (guaranteed acyclic).
            let waits: Vec<_> = issued
                .iter()
                .enumerate()
                .filter(|(j, _)| wait_mask >> ((i + j) % 64) & 1 == 1)
                .map(|(_, &op)| op)
                .take(3)
                .collect();
            let op = if i % 3 == 0 {
                sys.delay(
                    streams[s],
                    SimDuration::from_micros(len),
                    &waits,
                    Phase::Other,
                )
            } else if i % 3 == 1 {
                sys.memcpy(streams[s], host, 0, devs[g], 0, len, &waits, Phase::HtoD)
            } else {
                sys.memcpy(streams[s], devs[g], 0, host, len, len, &waits, Phase::DtoH)
            };
            issued.push(op);
            wait_lists.push(waits);
        }
        let end = sys.synchronize();
        assert!(end > SimTime::ZERO, "seed {seed}");
        // Every op ran, no op finished before it started, and no op started
        // before any of its waits or the previous op on its stream finished.
        let mut stream_last = [None; 6];
        for (i, (&op, waits)) in issued.iter().zip(&wait_lists).enumerate() {
            let (start, finish) = sys.op_span(op).expect("op completed");
            assert!(finish >= start, "seed {seed}");
            for &w in waits {
                let (_, w_finish) = sys.op_span(w).expect("wait completed");
                assert!(
                    start >= w_finish,
                    "seed {seed}: op {i} starts before a wait"
                );
            }
            let s = ops[i].0;
            if let Some(prev_finish) = stream_last[s].replace(finish) {
                assert!(
                    start >= prev_finish,
                    "seed {seed}: op {i} overtakes its stream"
                );
            }
        }
    }
}

/// RP sort as a property: any input length divisible by g, any data.
#[test]
fn rp_sort_any_input() {
    use multi_gpu_sort::core::{rp_sort, RpConfig};
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(100 + seed);
        let len = rng.usize_in(1..600);
        let raw: Vec<u32> = (0..len).map(|_| rng.u32()).collect();
        let g = rng.usize_in(1..5);
        let mut input = raw;
        while !input.len().is_multiple_of(g) {
            input.push(u32::MAX);
        }
        let n = input.len() as u64;
        let platform = Platform::dgx_a100();
        let mut data = input.clone();
        let report = rp_sort(&platform, &RpConfig::new(g), &mut data, n);
        assert!(report.validated, "seed {seed}");
        assert!(same_multiset(&input, &data), "seed {seed}");
    }
}

/// Random DAGs of *data effects* sharing buffers: sorts over random
/// subranges, pairwise merges, and overlapping copies, on random streams
/// with random waits. Effects apply in simulated completion order, which
/// the seed alone decides, so two runs of one DAG must leave bit-identical
/// buffer contents.
#[test]
fn random_effect_dags_replay_bit_identical() {
    for seed in 0..16u64 {
        let run = || -> Vec<Vec<u32>> {
            let mut rng = Rng::seed_from_u64(9_000 + seed);
            let platform = Platform::dgx_a100();
            let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&platform, Fidelity::Full);
            let n: u64 = 1 << 12;
            let host = sys.world_mut().import_host(
                0,
                (0..n as u32)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect(),
                n,
            );
            let gpus = 4usize;
            let data: Vec<_> = (0..gpus).map(|g| sys.world_mut().alloc_gpu(g, n)).collect();
            let aux: Vec<_> = (0..gpus).map(|g| sys.world_mut().alloc_gpu(g, n)).collect();
            let streams: Vec<_> = (0..4).map(|_| sys.stream()).collect();
            let mut issued: Vec<OpId> = (0..gpus)
                .map(|g| sys.memcpy(streams[g % 4], host, 0, data[g], 0, n, &[], Phase::HtoD))
                .collect();
            for i in 0..24 {
                let s = streams[rng.usize_in(0..4)];
                let g = rng.usize_in(0..gpus);
                let waits: Vec<OpId> = (0..rng.usize_in(0..3))
                    .map(|_| issued[rng.usize_in(0..issued.len())])
                    .collect();
                let op = match i % 4 {
                    0 => {
                        // Sort a random subrange (overlaps copies and merges
                        // touching the same buffer).
                        let lo = rng.u64_in(0..n / 2);
                        let hi = lo + rng.u64_in(1..n - lo);
                        sys.gpu_sort(
                            s,
                            GpuSortAlgo::ThrustLike,
                            data[g],
                            (lo, hi),
                            aux[g],
                            &waits,
                        )
                    }
                    1 => {
                        // Merge the halves of one buffer into its neighbor's
                        // aux (cross-buffer read/write edges).
                        let len = rng.u64_in(2..n);
                        let mid = len / 2;
                        let runs = vec![(data[g], 0, mid), (data[g], mid, len - mid)];
                        sys.gpu_multiway_merge(s, runs, aux[g], &waits)
                    }
                    2 => {
                        // Device-to-device copy with ranges that overlap
                        // other ops' windows.
                        let len = rng.u64_in(1..n / 2);
                        let src_off = rng.u64_in(0..n - len);
                        let dst_off = rng.u64_in(0..n - len);
                        let dst = data[(g + 1) % gpus];
                        sys.memcpy(s, data[g], src_off, dst, dst_off, len, &waits, Phase::Merge)
                    }
                    _ => sys.delay(
                        s,
                        SimDuration::from_micros(rng.u64_in(1..32)),
                        &waits,
                        Phase::Other,
                    ),
                };
                issued.push(op);
            }
            sys.synchronize();
            let mut out: Vec<Vec<u32>> = Vec::new();
            for g in 0..gpus {
                out.push(sys.world().slice(data[g], 0, n).to_vec());
                out.push(sys.world().slice(aux[g], 0, n).to_vec());
            }
            out
        };
        assert_eq!(run(), run(), "seed {seed}: world contents diverged");
    }
}

#[test]
fn gpu_multiway_merge_op_merges() {
    let platform = Platform::dgx_a100();
    let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&platform, Fidelity::Full);
    // Three sorted runs in one device buffer.
    let runs: Vec<u32> = (0..300).map(|i| (i % 100) * 3 + i / 100).collect();
    let host = sys.world_mut().import_host(0, runs, 300);
    let dev = sys.world_mut().alloc_gpu(0, 300);
    let out = sys.world_mut().alloc_gpu(0, 300);
    let s = sys.stream();
    let up = sys.memcpy(s, host, 0, dev, 0, 300, &[], Phase::HtoD);
    sys.gpu_multiway_merge(
        s,
        vec![(dev, 0, 100), (dev, 100, 100), (dev, 200, 100)],
        out,
        &[up],
    );
    sys.synchronize();
    let merged = sys.world().slice(out, 0, 300).to_vec();
    assert!(is_sorted(&merged));
    assert_eq!(merged, (0..300u32).collect::<Vec<_>>());
}

#[test]
fn memcpy_route_relay_moves_data_and_takes_longer_hops() {
    use multi_gpu_sort::topology::route::{route, route_via};
    let platform = Platform::delta_d22x();
    let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&platform, Fidelity::Full);
    let host = sys
        .world_mut()
        .import_host(0, (0..64u32).rev().collect(), 64);
    let d0 = sys.world_mut().alloc_gpu(0, 64);
    let d3 = sys.world_mut().alloc_gpu(3, 64);
    let s = sys.stream();
    let up = sys.memcpy(s, host, 0, d0, 0, 64, &[], Phase::HtoD);
    let relay = route_via(&platform.topology, Endpoint::gpu(0), Endpoint::gpu(3), 2)
        .expect("ring relay exists");
    sys.memcpy_route(s, relay, d0, 0, d3, 0, 64, &[up], Phase::Merge);
    sys.synchronize();
    assert_eq!(sys.world().slice(d3, 0, 3), &[63, 62, 61]);

    // Sanity: the relay route is longer in hops than the direct route is
    // in... hops via host (2 vs 3) but faster in bandwidth (covered by
    // unit tests); here we only check data integrity and route shapes.
    let direct = route(&platform.topology, Endpoint::gpu(0), Endpoint::gpu(3)).unwrap();
    assert!(direct.traverses_host(&platform.topology));
}

#[test]
#[should_panic(expected = "route source must match")]
fn memcpy_route_rejects_mismatched_endpoints() {
    let platform = Platform::dgx_a100();
    let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&platform, Fidelity::Full);
    let d0 = sys.world_mut().alloc_gpu(0, 16);
    let d1 = sys.world_mut().alloc_gpu(1, 16);
    let wrong = multi_gpu_sort::topology::route::route(
        &platform.topology,
        Endpoint::gpu(2),
        Endpoint::gpu(1),
    )
    .unwrap();
    let s = sys.stream();
    let _ = sys.memcpy_route(s, wrong, d0, 0, d1, 0, 16, &[], Phase::Merge);
}

#[test]
#[should_panic(expected = "only 4 GPUs")]
fn too_many_gpus_panics() {
    let platform = Platform::ibm_ac922();
    let mut data: Vec<u32> = generate(Distribution::Uniform, 1 << 10, 1);
    let _ = p2p_sort(&platform, &P2pConfig::new(8), &mut data, 1 << 10);
}

#[test]
#[should_panic(expected = "budget too small")]
fn impossible_memory_budget_panics() {
    let platform = Platform::test_pcie(2);
    let cfg = HetConfig::new(2).with_mem_budget(4); // 4 bytes per GPU
    let mut data: Vec<u32> = generate(Distribution::Uniform, 1 << 10, 1);
    let _ = het_sort(&platform, &cfg, &mut data, 1 << 10);
}

#[test]
fn chrome_trace_of_a_full_sort() {
    // A full P2P sort produces a coherent multi-stream trace.
    let platform = Platform::dgx_a100();
    let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&platform, Fidelity::Full);
    let recorder = Recorder::new();
    sys.set_recorder(recorder.clone());
    let host = sys
        .world_mut()
        .import_host(0, generate(Distribution::Uniform, 1 << 12, 3), 1 << 12);
    let dev = sys.world_mut().alloc_gpu(0, 1 << 12);
    let aux = sys.world_mut().alloc_gpu(0, 1 << 12);
    let s = sys.stream();
    let up = sys.memcpy(s, host, 0, dev, 0, 1 << 12, &[], Phase::HtoD);
    let so = sys.gpu_sort(s, GpuSortAlgo::ThrustLike, dev, (0, 1 << 12), aux, &[up]);
    sys.memcpy(s, dev, 0, host, 0, 1 << 12, &[so], Phase::DtoH);
    sys.synchronize();
    let trace = chrome_trace(&recorder.snapshot().expect("recorder is enabled"));
    assert!(json_valid(&trace));
    assert!(trace.contains("gpu sort"));
    assert!(trace.contains("HtoD"));
    assert!(trace.contains("DtoH"));
}
