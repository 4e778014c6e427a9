//! Figures 2–7: CPU-GPU and P2P data transfer benchmarks.
//!
//! The measurement loop is the paper's: 4 GB pinned buffers, one flow per
//! copy stream, all flows start at `t = 0`, reported value is total bytes
//! over the makespan in decimal GB/s. Serial = one flow; parallel = one
//! flow per GPU; bidirectional = one flow per direction.

use super::TRANSFER_BYTES;
use crate::ExperimentResult;
use msort_sim::flows::measure_concurrent;
use msort_topology::{Endpoint, Platform, Route};

/// Transfer directions of the CPU-GPU benchmarks.
#[derive(Clone, Copy)]
enum Dir {
    HtoD,
    DtoH,
    Bidi,
}

fn cpu_gpu_routes(platform: &Platform, gpus: &[usize], dir: Dir) -> Vec<Route> {
    let mut routes = Vec::new();
    for &g in gpus {
        match dir {
            Dir::HtoD => routes.push(route(platform, Endpoint::HOST0, Endpoint::gpu(g))),
            Dir::DtoH => routes.push(route(platform, Endpoint::gpu(g), Endpoint::HOST0)),
            Dir::Bidi => {
                routes.push(route(platform, Endpoint::HOST0, Endpoint::gpu(g)));
                routes.push(route(platform, Endpoint::gpu(g), Endpoint::HOST0));
            }
        }
    }
    routes
}

fn route(platform: &Platform, src: Endpoint, dst: Endpoint) -> Route {
    platform.route(src, dst).expect("connected")
}

/// Aggregate GB/s for one scenario.
fn gbps_for(platform: &Platform, routes: &[Route]) -> f64 {
    measure_concurrent(platform, routes, TRANSFER_BYTES).throughput_gbps()
}

fn cpu_gpu_case(platform: &Platform, gpus: &[usize], dir: Dir) -> f64 {
    gbps_for(platform, &cpu_gpu_routes(platform, gpus, dir))
}

/// Bidirectional P2P pairs: one flow per direction per pair.
fn p2p_pairs(platform: &Platform, pairs: &[(usize, usize)]) -> f64 {
    let mut routes = Vec::new();
    for &(a, b) in pairs {
        routes.push(route(platform, Endpoint::gpu(a), Endpoint::gpu(b)));
        routes.push(route(platform, Endpoint::gpu(b), Endpoint::gpu(a)));
    }
    gbps_for(platform, &routes)
}

/// One-directional serial P2P copy.
fn p2p_serial(platform: &Platform, a: usize, b: usize) -> f64 {
    gbps_for(
        platform,
        &[route(platform, Endpoint::gpu(a), Endpoint::gpu(b))],
    )
}

/// Figure 2: CPU-GPU data transfers on the IBM AC922.
#[must_use]
pub fn fig2() -> ExperimentResult {
    let p = Platform::ibm_ac922();
    let mut r = ExperimentResult::new("fig2", "CPU-GPU data transfers on the IBM AC922", "GB/s");
    // (a) serial, per GPU locality class.
    for (label, gpu, paper) in [
        ("serial {0,1} HtoD", 0, 72.0),
        ("serial {2,3} HtoD", 2, 41.0),
    ] {
        r.push(label, paper, cpu_gpu_case(&p, &[gpu], Dir::HtoD));
    }
    for (label, gpu, paper) in [
        ("serial {0,1} DtoH", 0, 72.0),
        ("serial {2,3} DtoH", 2, 35.0),
    ] {
        r.push(label, paper, cpu_gpu_case(&p, &[gpu], Dir::DtoH));
    }
    for (label, gpu, paper) in [
        ("serial {0,1} HtoD/DtoH", 0, 127.0),
        ("serial {2,3} HtoD/DtoH", 2, 65.0),
    ] {
        r.push(label, paper, cpu_gpu_case(&p, &[gpu], Dir::Bidi));
    }
    // (b) parallel.
    let sets: [(&str, &[usize]); 3] = [
        ("(0,1)", &[0, 1]),
        ("(2,3)", &[2, 3]),
        ("(0,1,2,3)", &[0, 1, 2, 3]),
    ];
    let paper_vals = [
        [141.0, 109.0, 136.0],
        [39.0, 30.0, 53.0],
        [74.0, 54.0, 98.0],
    ];
    for ((name, set), paper) in sets.iter().zip(paper_vals) {
        r.push(
            format!("parallel {name} HtoD"),
            paper[0],
            cpu_gpu_case(&p, set, Dir::HtoD),
        );
        r.push(
            format!("parallel {name} DtoH"),
            paper[1],
            cpu_gpu_case(&p, set, Dir::DtoH),
        );
        r.push(
            format!("parallel {name} HtoD/DtoH"),
            paper[2],
            cpu_gpu_case(&p, set, Dir::Bidi),
        );
    }
    r.note(
        "X-Bus sustained rates (41/35 GB/s) and the NUMA memory caps are \
         calibrated from the paper's serial bars; all parallel and \
         bidirectional bars are model predictions.",
    );
    r
}

/// Figure 3: CPU-GPU data transfers on the DELTA D22x.
#[must_use]
pub fn fig3() -> ExperimentResult {
    let p = Platform::delta_d22x();
    let mut r = ExperimentResult::new("fig3", "CPU-GPU data transfers on the DELTA D22x", "GB/s");
    for (label, gpu, dir, paper) in [
        ("serial {0,1} HtoD", 0, Dir::HtoD, 12.0),
        ("serial {2,3} HtoD", 2, Dir::HtoD, 12.0),
        ("serial {0,1} DtoH", 0, Dir::DtoH, 13.0),
        ("serial {2,3} DtoH", 2, Dir::DtoH, 13.0),
        ("serial {0,1} HtoD/DtoH", 0, Dir::Bidi, 20.0),
        ("serial {2,3} HtoD/DtoH", 2, Dir::Bidi, 20.0),
    ] {
        r.push(label, paper, cpu_gpu_case(&p, &[gpu], dir));
    }
    let sets: [(&str, &[usize]); 3] = [
        ("(0,1)", &[0, 1]),
        ("(2,3)", &[2, 3]),
        ("(0,1,2,3)", &[0, 1, 2, 3]),
    ];
    let paper_vals = [[24.0, 26.0, 40.0], [24.0, 25.0, 40.0], [49.0, 51.0, 79.0]];
    for ((name, set), paper) in sets.iter().zip(paper_vals) {
        r.push(
            format!("parallel {name} HtoD"),
            paper[0],
            cpu_gpu_case(&p, set, Dir::HtoD),
        );
        r.push(
            format!("parallel {name} DtoH"),
            paper[1],
            cpu_gpu_case(&p, set, Dir::DtoH),
        );
        r.push(
            format!("parallel {name} HtoD/DtoH"),
            paper[2],
            cpu_gpu_case(&p, set, Dir::Bidi),
        );
    }
    r.note("PCIe 3.0 shows no NUMA effects; parallel copies scale 4x (exclusive switches).");
    r
}

/// Figure 4: CPU-GPU data transfers on the DGX A100.
#[must_use]
pub fn fig4() -> ExperimentResult {
    let p = Platform::dgx_a100();
    let mut r = ExperimentResult::new("fig4", "CPU-GPU data transfers on the DGX A100", "GB/s");
    let cases: [(&str, &[usize], [f64; 3]); 7] = [
        ("{0-3} serial", &[0], [24.0, 24.0, 39.0]),
        ("{4-7} serial", &[4], [24.0, 25.0, 32.0]),
        ("(0,1)", &[0, 1], [25.0, 26.0, 29.0]),
        ("(0,2)", &[0, 2], [49.0, 47.0, 82.0]),
        ("(4,6)", &[4, 6], [46.0, 47.0, 61.0]),
        ("(0,2,4,6)", &[0, 2, 4, 6], [87.0, 92.0, 113.0]),
        ("(0-7)", &[0, 1, 2, 3, 4, 5, 6, 7], [89.0, 104.0, 111.0]),
    ];
    for (name, set, paper) in cases {
        r.push(
            format!("{name} HtoD"),
            paper[0],
            cpu_gpu_case(&p, set, Dir::HtoD),
        );
        r.push(
            format!("{name} DtoH"),
            paper[1],
            cpu_gpu_case(&p, set, Dir::DtoH),
        );
        r.push(
            format!("{name} HtoD/DtoH"),
            paper[2],
            cpu_gpu_case(&p, set, Dir::Bidi),
        );
    }
    r.note(
        "GPU pairs (0,1)(2,3)(4,5)(6,7) share one PCIe switch uplink, so \
         (0,1) does not scale while (0,2) does — the paper's scalability \
         ceiling. The paper's 32 GB/s remote serial bidi bar is the \
         'discrepancy to be investigated' (we predict the local 39).",
    );
    r
}

/// Figure 5: P2P data transfers on the IBM AC922.
#[must_use]
pub fn fig5() -> ExperimentResult {
    let p = Platform::ibm_ac922();
    let mut r = ExperimentResult::new("fig5", "P2P data transfers on the IBM AC922", "GB/s");
    r.push("serial 0->1", 72.0, p2p_serial(&p, 0, 1));
    r.push("serial 0->2", 32.0, p2p_serial(&p, 0, 2));
    r.push("serial 0->3", 33.0, p2p_serial(&p, 0, 3));
    r.push("parallel 0<->1", 145.0, p2p_pairs(&p, &[(0, 1)]));
    r.push("parallel 2<->3", 145.0, p2p_pairs(&p, &[(2, 3)]));
    r.push(
        "parallel 0<->3, 1<->2",
        53.0,
        p2p_pairs(&p, &[(0, 3), (1, 2)]),
    );
    r.note(
        "Host-traversing P2P streams cap at 32 GB/s (calibrated); the \
         four-stream collapse to 53 GB/s is predicted by the X-Bus duplex \
         weight.",
    );
    r
}

/// Figure 6: P2P data transfers on the DELTA D22x.
#[must_use]
pub fn fig6() -> ExperimentResult {
    let p = Platform::delta_d22x();
    let mut r = ExperimentResult::new("fig6", "P2P data transfers on the DELTA D22x", "GB/s");
    r.push("serial 0->1", 48.0, p2p_serial(&p, 0, 1));
    r.push("serial 0->2", 48.0, p2p_serial(&p, 0, 2));
    r.push("serial 0->3", 9.0, p2p_serial(&p, 0, 3));
    r.push("parallel 0<->1", 97.0, p2p_pairs(&p, &[(0, 1)]));
    r.push("parallel 2<->3", 97.0, p2p_pairs(&p, &[(2, 3)]));
    r.push(
        "parallel 0<->3, 1<->2",
        30.0,
        p2p_pairs(&p, &[(0, 3), (1, 2)]),
    );
    r.note("Pairs (0,3) and (1,2) have no direct NVLink: they cross PCIe 3.0 twice.");
    r
}

/// Figure 7: P2P data transfers on the DGX A100.
#[must_use]
pub fn fig7() -> ExperimentResult {
    let p = Platform::dgx_a100();
    let mut r = ExperimentResult::new("fig7", "P2P data transfers on the DGX A100", "GB/s");
    r.push("serial i->j", 279.0, p2p_serial(&p, 0, 5));
    r.push("parallel 0<->1", 530.0, p2p_pairs(&p, &[(0, 1)]));
    r.push("parallel 0<->2", 453.0, p2p_pairs(&p, &[(0, 2)]));
    r.push(
        "parallel 0<->6, 2<->4",
        894.0,
        p2p_pairs(&p, &[(0, 6), (2, 4)]),
    );
    r.push(
        "parallel 0<->3, 1<->2",
        1060.0,
        p2p_pairs(&p, &[(0, 3), (1, 2)]),
    );
    r.push(
        "parallel all 8 (0<->7 ... 3<->4)",
        2116.0,
        p2p_pairs(&p, &[(0, 7), (1, 6), (2, 5), (3, 4)]),
    );
    r.note(
        "NVSwitch is uniform in the model (265 GB/s per GPU per direction); \
         the paper's 530-vs-453 spread between equivalent pairs is \
         measurement variance the model cannot (and should not) encode.",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_deltas_are_small() {
        let r = fig2();
        assert!(r.mean_abs_delta().unwrap() < 12.0, "{:?}", r.to_markdown());
    }

    #[test]
    fn fig3_deltas_are_small() {
        let r = fig3();
        assert!(r.mean_abs_delta().unwrap() < 10.0, "{}", r.to_markdown());
    }

    #[test]
    fn fig5_and_fig6_deltas() {
        assert!(
            fig5().mean_abs_delta().unwrap() < 10.0,
            "{}",
            fig5().to_markdown()
        );
        assert!(
            fig6().mean_abs_delta().unwrap() < 10.0,
            "{}",
            fig6().to_markdown()
        );
    }

    #[test]
    fn fig7_shape_holds() {
        let r = fig7();
        // 8-GPU all-to-all must scale ~8x over serial.
        let serial = r.rows[0].ours;
        let all8 = r.rows.last().unwrap().ours;
        assert!(all8 / serial > 7.0, "{}", r.to_markdown());
    }
}
