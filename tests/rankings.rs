//! Which sort family wins on which interconnect: the simulated five-way
//! ranking on each paper platform (the paper's Figs. 12–14 ask this of P2P
//! and HET; RP, sample sort and multiway mergesort are this reproduction's
//! extensions). Simulated totals are exact and deterministic, so the
//! orderings are asserted outright.

use multi_gpu_sort::core::Family::{self, Het, MultiwayMerge, P2p, Rp, SampleSort};
use multi_gpu_sort::prelude::*;

/// 1 Gi u32 keys on a 4-GPU gang: multiway mergesort's transient 2n
/// concatenation (8 GB) still fits the smallest paper GPU (32 GB V100), so
/// all five families run on every platform.
const KEYS: u64 = 1 << 30;
const SCALE: u64 = 1 << 18;
const GPUS: usize = 4;

fn config_for(family: Family) -> RunConfig {
    let config = match family {
        P2p => RunConfig::p2p(P2pConfig::new(GPUS)),
        Rp => RunConfig::rp(RpConfig::new(GPUS)),
        Het => RunConfig::het(HetConfig::new(GPUS)),
        SampleSort => RunConfig::sample(SampleSortConfig::new(GPUS)),
        MultiwayMerge => RunConfig::mwms(MwmsConfig::new(GPUS)),
    };
    config.sampled(SCALE)
}

#[test]
fn five_way_ranking_per_platform() {
    // Fastest first. One all-to-all exchange (sample, RP) beats a merge
    // tree everywhere. The DELTA D22x is the one platform whose 4-GPU P2P
    // merge crosses the host side, which puts HET just ahead of it there
    // (the paper's Fig. 13 has the two tied at 0.64 s).
    let p2p_ahead = [SampleSort, Rp, P2p, Het, MultiwayMerge];
    let het_ahead = [SampleSort, Rp, Het, P2p, MultiwayMerge];
    let expected = [
        (PlatformId::IbmAc922, p2p_ahead),
        (PlatformId::DeltaD22x, het_ahead),
        (PlatformId::DgxA100, p2p_ahead),
    ];
    assert_eq!(PlatformId::paper_set(), expected.map(|(id, _)| id));
    let input: Vec<u32> = generate(Distribution::Uniform, (KEYS / SCALE) as usize, 71);
    for (id, order) in expected {
        let platform = Platform::paper(id);
        let totals = order.map(|family| {
            let report = run_sort(&platform, &config_for(family), &mut input.clone(), KEYS);
            assert!(report.validated, "{family:?} on {id:?} must validate");
            report.total
        });
        for (pair, t) in order.windows(2).zip(totals.windows(2)) {
            assert!(
                t[0] < t[1],
                "{id:?}: {:?} ({}) must beat {:?} ({})",
                pair[0],
                t[0],
                pair[1],
                t[1]
            );
        }
    }
}
