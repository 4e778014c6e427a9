//! Interconnect explorer: reproduce the paper's transfer analysis
//! (Sections 4.2 / 4.3) interactively for all three platforms, and show
//! how topology drives every number.
//!
//! ```text
//! cargo run --release --example interconnect_explorer
//! ```

use multi_gpu_sort::prelude::*;
use multi_gpu_sort::sim::flows::measure_concurrent;
use multi_gpu_sort::topology::Route;

const GIB4: u64 = 4 << 30;

fn route(p: &Platform, src: Endpoint, dst: Endpoint) -> Route {
    p.route(src, dst).expect("connected")
}

fn show(p: &Platform, label: &str, routes: &[Route]) {
    let report = measure_concurrent(p, routes, GIB4);
    println!(
        "  {label:<38} {:>8.1} GB/s  ({} streams x 4 GiB, makespan {})",
        report.throughput_gbps(),
        routes.len(),
        report.makespan,
    );
}

fn main() {
    for id in PlatformId::paper_set() {
        let p = Platform::paper(id);
        println!("\n=== {} ===", id.name());
        println!("{}", p.describe());

        println!("CPU-GPU transfers (Figures 2-4):");
        let g = |i: usize| Endpoint::gpu(i);
        show(
            &p,
            "serial HtoD, local GPU 0",
            &[route(&p, Endpoint::HOST0, g(0))],
        );
        let remote = p.gpu_count() / 2; // first GPU on the remote socket
        show(
            &p,
            &format!("serial HtoD, remote GPU {remote}"),
            &[route(&p, Endpoint::HOST0, g(remote))],
        );
        show(
            &p,
            "serial bidirectional, GPU 0",
            &[
                route(&p, Endpoint::HOST0, g(0)),
                route(&p, g(0), Endpoint::HOST0),
            ],
        );
        let all: Vec<Route> = (0..p.gpu_count())
            .map(|i| route(&p, Endpoint::HOST0, g(i)))
            .collect();
        show(&p, "parallel HtoD, all GPUs", &all);

        println!("P2P transfers (Figures 5-7):");
        show(&p, "serial P2P 0 -> 1", &[route(&p, g(0), g(1))]);
        let far = p.gpu_count() - 1;
        show(
            &p,
            &format!("serial P2P 0 -> {far}"),
            &[route(&p, g(0), g(far))],
        );
        // The merge-phase pattern: GPU i <-> GPU (g-1-i), bidirectional.
        let mut pairs = Vec::new();
        for i in 0..p.gpu_count() / 2 {
            pairs.push(route(&p, g(i), g(far - i)));
            pairs.push(route(&p, g(far - i), g(i)));
        }
        show(&p, "parallel P2P merge pattern (all GPUs)", &pairs);
    }

    // How the transfer profiles above translate into end-to-end sorts:
    // the scatter-heavy (sample sort) and merge-bound (multiway mergesort)
    // algorithm profiles on the DGX, plus one cluster point where the same
    // sort spans two nodes over an InfiniBand HDR fabric.
    let n: u64 = 1 << 20;
    let dgx = Platform::dgx_a100();
    println!("\n=== algorithm sweep (1M uniform keys, 8 GPUs/node) ===");
    let mut keys: Vec<u32> = generate(Distribution::Uniform, n as usize, 7);
    let r = sample_sort(&dgx, &SampleSortConfig::new(8), &mut keys, n);
    println!(
        "  {:<38} {:>8.1} Mkeys/s",
        "sample sort, DGX A100",
        r.mkeys_per_sec()
    );
    let mut keys: Vec<u32> = generate(Distribution::Uniform, n as usize, 7);
    let r = mwms_sort(&dgx, &MwmsConfig::new(8), &mut keys, n);
    println!(
        "  {:<38} {:>8.1} Mkeys/s",
        "multiway mergesort, DGX A100",
        r.mkeys_per_sec()
    );
    let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
    let mut keys: Vec<u32> = generate(Distribution::Uniform, n as usize, 7);
    let r = cross_node_sort(
        &cluster,
        &CrossNodeConfig::new(InnerAlgo::SampleSort),
        &mut keys,
        n,
    );
    println!(
        "  {:<38} {:>8.1} Mkeys/s  (fabric busy {:.0}% of run)",
        "cross-node sample sort, 2x DGX A100",
        r.mkeys_per_sec(),
        100.0 * r.inter_node.as_secs_f64() / r.total.as_secs_f64(),
    );

    println!(
        "\nTakeaway (paper Section 4): NVSwitch keeps every P2P stream at \
         full rate; on the other systems the global merge stage must cross \
         the host side and collapses to the CPU interconnect's bandwidth — \
         and across nodes, to the NIC fabric's."
    );
}
