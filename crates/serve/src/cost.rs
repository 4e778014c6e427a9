//! Job cost and footprint estimation for admission control and SJF.
//!
//! The estimates reuse the calibrated machinery the simulator itself runs
//! on: single-flow rates from the platform's constraint table (what one
//! uncontended copy stream sustains) and the [`CostModel`]'s kernel
//! timings. They are *solo* estimates — a scheduler cannot know the future
//! contention a job will see — but they are monotone in job size and
//! consistent across jobs, which is all shortest-job-first and fair-share
//! accounting need.

use crate::job::{JobAlgo, SortJob};
use msort_data::DataType;
use msort_sim::{CostModel, GpuSortAlgo, SimDuration};
use msort_topology::{allocate_rates, Endpoint, Platform};

/// Uncontended single-flow rate (bytes/s) between two endpoints on the
/// pristine fabric.
fn single_flow_rate(platform: &Platform, src: Endpoint, dst: Endpoint) -> f64 {
    let r = platform
        .route(src, dst)
        .expect("platform endpoints are connected");
    allocate_rates(platform.constraint_table(), &[platform.flow_request(&r)])[0]
}

/// Estimated solo service time of `job` on `platform` for keys of `dt`.
///
/// Models the canonical four phases: scatter and gather at the host↔GPU
/// single-flow rate, the local sort from the calibrated kernel model, and
/// an algorithm-specific merge term (P2P swap levels, the RP all-to-all
/// exchange, or the CPU multiway merge).
#[must_use]
pub fn estimate_job_cost(platform: &Platform, job: &SortJob, dt: DataType) -> SimDuration {
    let g = job.gpus.max(1) as u64;
    let chunk = job.keys.div_ceil(g);
    let kb = dt.key_bytes();
    let chunk_bytes = chunk * kb;
    let model = CostModel::for_platform(platform);
    let gm = platform.topology.gpu_model(0);

    let host_rate = single_flow_rate(platform, Endpoint::HOST0, Endpoint::gpu(0));
    let p2p_rate = if platform.topology.gpu_count() > 1 {
        single_flow_rate(platform, Endpoint::gpu(0), Endpoint::gpu(1))
    } else {
        host_rate
    };

    let copy = 2.0 * chunk_bytes as f64 / host_rate;
    let sort = model
        .gpu_sort(gm, GpuSortAlgo::ThrustLike, dt, chunk)
        .as_secs_f64();
    let merge = if g <= 1 {
        0.0
    } else {
        match job.algo {
            JobAlgo::P2p => {
                // log2(g) swap levels; each moves about half a chunk per
                // GPU and re-merges the chunk locally.
                let levels = (g as f64).log2().ceil();
                levels
                    * (chunk_bytes as f64 / 2.0 / p2p_rate
                        + model.gpu_merge_mgpu(gm, chunk_bytes).as_secs_f64())
            }
            JobAlgo::Rp => {
                // One all-to-all exchange: (g-1)/g of the chunk leaves the
                // GPU, then one g-way local merge.
                chunk_bytes as f64 * (g - 1) as f64 / g as f64 / p2p_rate
                    + model.gpu_merge_mgpu(gm, chunk_bytes).as_secs_f64()
            }
            JobAlgo::Het => model
                .cpu_multiway_merge(job.keys * kb, g as usize)
                .as_secs_f64(),
            JobAlgo::SampleSort => {
                // One local partition pass, then the all-to-all ships
                // (g-1)/g of the chunk (the second sort is the `sort`
                // term — sample sort's only sort runs post-exchange on a
                // chunk-sized partition).
                model.gpu_partition(gm, chunk_bytes).as_secs_f64()
                    + chunk_bytes as f64 * (g - 1) as f64 / g as f64 / p2p_rate
            }
            JobAlgo::MultiwayMerge => {
                // ceil(log2 g) pairwise levels: level l (1-based) ships a
                // 2^(l-1)-chunk loser run point-to-point and merges
                // 2^l chunks on the winner; plus the gather is one full-n
                // DtoH instead of per-GPU chunks.
                let levels = (g as f64).log2().ceil() as u32;
                let mut secs = 0.0;
                for l in 1..=levels {
                    let run_bytes = chunk_bytes as f64 * f64::from(1u32 << (l - 1));
                    secs += run_bytes / p2p_rate;
                    secs += model.gpu_merge(gm, (2.0 * run_bytes) as u64).as_secs_f64();
                }
                secs + (job.keys * kb - chunk_bytes) as f64 / host_rate
            }
        }
    };
    // Inter-node surcharge on cluster platforms: the input scatters from
    // node 0 over its NIC, each node ships (n-1)/n of its partition in the
    // bucket all-to-all (nodes send concurrently, so per-node bytes), and
    // the sorted partitions gather back through node 0's NIC. All three
    // legs pace at the fabric's effective per-direction rate.
    let inter_node = match platform.cluster {
        Some(c) if c.nodes > 1 => {
            let nodes = c.nodes as f64;
            let nic_rate = c.fabric.effective_per_dir();
            let bytes = (job.keys * kb) as f64;
            let crossing = bytes * (nodes - 1.0) / nodes;
            (2.0 * crossing + crossing / nodes) / nic_rate
        }
        _ => 0.0,
    };
    SimDuration::from_secs_f64(copy + sort + merge + inter_node)
}

/// Estimated time until a newly queued job could start, given the backlog
/// ahead of it: the gang-seconds of queued and in-flight work divided by
/// the active fleet's size (work conservation — gang scheduling can only
/// do worse, so this is an optimistic bound and sheds conservatively).
///
/// `backlog` is `(estimated solo cost, gang size)` for every pending job
/// plus every running job (charging a running job its full estimate keeps
/// the bound cheap and deterministic; the alternative — tracking per-job
/// progress — would couple admission to simulator internals).
#[must_use]
pub fn estimate_queue_wait(backlog: &[(SimDuration, usize)], active_gpus: usize) -> SimDuration {
    let gang_ns: u128 = backlog
        .iter()
        .map(|&(cost, gpus)| u128::from(cost.0) * gpus as u128)
        .sum();
    estimate_queue_wait_ns(gang_ns, active_gpus)
}

/// [`estimate_queue_wait`] from a pre-accumulated backlog total, in
/// **gang-nanoseconds** (Σ estimated cost × gang size). The total is an
/// exact integer, so a counter maintained incrementally (+= on submit and
/// dispatch, -= on completion) yields bit-identical waits to a fresh sum
/// over the backlog — u128 addition is associative and commutative, which
/// f64 accumulation is not. This is what lets the indexed service answer
/// admission in O(1) and still mirror the reference exactly.
#[must_use]
pub fn estimate_queue_wait_ns(gang_ns: u128, active_gpus: usize) -> SimDuration {
    if active_gpus == 0 {
        // An all-leased-out elastic fleet: the caller scales up before
        // admitting, so report an empty queue rather than infinity.
        return SimDuration::ZERO;
    }
    SimDuration((gang_ns / active_gpus as u128) as u64)
}

/// Device memory footprint of `job`, in **logical keys per GPU** (the unit
/// the buffer [`msort_gpu::World`] accounts in): the per-family formula
/// [`JobAlgo::device_footprint_keys`] keeps beside the drivers'
/// allocations, so admission control matches what construction requests.
#[must_use]
pub fn device_footprint_keys(job: &SortJob, scale: u64) -> u64 {
    job.algo.device_footprint_keys(job.keys, job.gpus, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TenantId;

    #[test]
    fn cost_is_monotone_in_keys() {
        let p = Platform::ibm_ac922();
        let small = SortJob::new(TenantId(0), 1 << 12);
        let large = SortJob::new(TenantId(0), 1 << 20);
        let cs = estimate_job_cost(&p, &small, DataType::U32);
        let cl = estimate_job_cost(&p, &large, DataType::U32);
        assert!(cl > cs, "{cl:?} vs {cs:?}");
    }

    #[test]
    fn cost_is_positive_for_every_algorithm() {
        let p = Platform::dgx_a100();
        for algo in JobAlgo::all() {
            let j = SortJob::new(TenantId(0), 1 << 16).with_algo(algo);
            assert!(estimate_job_cost(&p, &j, DataType::U64) > SimDuration::ZERO);
        }
    }

    #[test]
    fn cluster_platforms_cost_more_and_slower_fabrics_cost_most() {
        let single = Platform::dgx_a100();
        let job = SortJob::new(TenantId(0), 1 << 22).with_gpus(8);
        let base = estimate_job_cost(&single, &job, DataType::U32);
        let mut by_fabric = Vec::new();
        for fabric in [msort_topology::Fabric::IbNdr, msort_topology::Fabric::IbHdr] {
            let cluster = msort_cluster::dgx_a100_cluster(4, fabric);
            let cost = estimate_job_cost(&cluster, &job, DataType::U32);
            assert!(cost > base, "{fabric:?} adds an inter-node term");
            by_fabric.push(cost);
        }
        assert!(
            by_fabric[1] > by_fabric[0],
            "HDR (24.1 GB/s) must cost more than NDR (48.2 GB/s)"
        );
    }

    #[test]
    fn queue_wait_is_work_conserving() {
        let c = SimDuration::from_millis(10);
        // 3 jobs × 2 GPUs × 10 ms = 60 gang-ms over 4 GPUs → 15 ms.
        let wait = estimate_queue_wait(&[(c, 2), (c, 2), (c, 2)], 4);
        assert_eq!(wait, SimDuration::from_millis(15));
        assert_eq!(estimate_queue_wait(&[], 4), SimDuration::ZERO);
        assert_eq!(estimate_queue_wait(&[(c, 2)], 0), SimDuration::ZERO);
    }

    #[test]
    fn footprints_rank_multiway_merge_heaviest() {
        // 4 GPUs: at g=2 the sample-sort and merge-tree footprints tie
        // (both 2n); the gap opens with the gang size.
        let j = |algo| {
            SortJob::new(TenantId(0), 1 << 16)
                .with_algo(algo)
                .with_gpus(4)
        };
        let p2p = device_footprint_keys(&j(JobAlgo::P2p), 1);
        let rp = device_footprint_keys(&j(JobAlgo::Rp), 1);
        let het = device_footprint_keys(&j(JobAlgo::Het), 1);
        let sample = device_footprint_keys(&j(JobAlgo::SampleSort), 1);
        let mwms = device_footprint_keys(&j(JobAlgo::MultiwayMerge), 1);
        assert!(rp > p2p, "RP's 3n footprint must exceed P2P's 2n");
        assert_eq!(p2p, het);
        assert!(sample > rp, "sample sort budgets for bucket imbalance");
        assert!(
            mwms > sample,
            "the merge tree's 2n-on-one-GPU peak tops the table"
        );
    }
}
