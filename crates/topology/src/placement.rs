//! Topology-aware GPU set scoring for gang placement.
//!
//! A sort job running on a gang of GPUs generates a predictable traffic
//! pattern: host↔device scatter/gather flows plus pairwise P2P merge
//! traffic inside the gang. Which *constraints* those flows share decides
//! the gang's contended throughput — two GPUs under one PCIe switch fight
//! for its uplink, a cross-socket pair drags every swap over the CPU
//! interconnect, a pair on a half-width NVLink halves the merge rate.
//!
//! [`score_gpu_set`] turns that into a number: it replays the pattern's
//! canonical routes against a [`ConstraintTable`] (the platform's
//! calibrated table, or a health-adjusted clone when links are degraded)
//! and reports the most-loaded constraint relative to its capacity. Lower
//! is better; a gang whose traffic must cross a downed link scores
//! infinite, so degraded fabrics fall back gracefully to whatever healthy
//! placement remains. [`best_gpu_set`] enumerates the candidate subsets of
//! a fleet and returns the deterministic argmin.

use crate::constraint::{ConstraintId, ConstraintTable, ConstraintVec};
use crate::platforms::Platform;
use crate::route::Endpoint;
use std::borrow::Borrow;
use std::cell::OnceCell;

/// How much a gang's traffic pattern loads its tightest shared constraint.
///
/// Ordered lexicographically: first by [`SetScore::bottleneck`] (relative
/// load on the most-contended constraint), then by [`SetScore::total`]
/// (sum of relative loads — breaks ties between gangs whose bottleneck is
/// an unshared resource, e.g. per-GPU PCIe links, in favor of the gang
/// with faster interior links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetScore {
    /// Maximum over constraints of `load / capacity` (dimensionless).
    /// `f64::INFINITY` when some required route crosses a zero-capacity
    /// (downed) constraint.
    pub bottleneck: f64,
    /// Sum of `load / capacity` over all loaded constraints.
    pub total: f64,
}

impl SetScore {
    /// Comparison key: bottleneck first, total as tie-break.
    #[must_use]
    pub fn key(&self) -> (f64, f64) {
        (self.bottleneck, self.total)
    }

    /// `true` when `self` is a strictly better (lower) score than `other`.
    #[must_use]
    pub fn beats(&self, other: &SetScore) -> bool {
        self.key() < other.key()
    }
}

/// Score the gang `gpus` on `platform` against `table`.
///
/// `table` is usually [`Platform::constraint_table`]; pass a
/// health-adjusted clone (same constraint indexing) to score against a
/// degraded fabric. The modeled pattern is one scatter + one gather flow
/// per GPU (host socket 0, where the paper allocates all input) and one
/// P2P flow per direction per GPU pair — the traffic shape of every sort
/// in `msort-core`.
#[must_use]
pub fn score_gpu_set(platform: &Platform, table: &ConstraintTable, gpus: &[usize]) -> SetScore {
    let endpoint = |gpu: Option<usize>| gpu.map_or(Endpoint::HOST0, Endpoint::gpu);
    score_pattern(table, gpus, |src, dst| {
        flow_constraints(platform, endpoint(src), endpoint(dst))
    })
}

/// The weighted constraints of one flow of the gang's traffic pattern.
fn flow_constraints(platform: &Platform, src: Endpoint, dst: Endpoint) -> ConstraintVec {
    let r = platform
        .route(src, dst)
        .expect("platform endpoints are connected");
    platform.flow_request(&r).constraints
}

/// Add up the gang's flows in their canonical order — host→member and
/// member→host per member, then each pair both ways — and reduce the loads
/// against `table`'s capacities. `flow(src, dst)` yields one flow's
/// constraints (`None` = host socket 0); the fixed order makes the score the
/// same `f64` bit for bit however the lists are obtained.
fn score_pattern<C: Borrow<ConstraintVec>>(
    table: &ConstraintTable,
    members: &[usize],
    flow: impl Fn(Option<usize>, Option<usize>) -> C,
) -> SetScore {
    let mut load = vec![0.0f64; table.constraints().len()];
    let mut add_flow = |src, dst| {
        for &(id, w) in flow(src, dst).borrow().as_slice() {
            load[id.0] += w;
        }
    };
    for &m in members {
        add_flow(None, Some(m));
        add_flow(Some(m), None);
    }
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            add_flow(Some(a), Some(b));
            add_flow(Some(b), Some(a));
        }
    }

    let mut bottleneck = 0.0f64;
    let mut total = 0.0f64;
    for (i, &l) in load.iter().enumerate() {
        if l <= 0.0 {
            continue;
        }
        let cap = table.capacity(ConstraintId(i));
        let ratio = if cap > 0.0 { l / cap } else { f64::INFINITY };
        bottleneck = bottleneck.max(ratio);
        total += ratio;
    }
    SetScore { bottleneck, total }
}

/// The best `g`-GPU subset of `fleet` by [`score_gpu_set`], or `None` when
/// `fleet` has fewer than `g` GPUs or `g == 0`.
///
/// Candidates are enumerated in lexicographic order over `fleet`'s own
/// ordering and compared strictly, so the result is deterministic: ties go
/// to the earliest candidate. The returned set preserves `fleet` order.
#[must_use]
pub fn best_gpu_set(
    platform: &Platform,
    table: &ConstraintTable,
    fleet: &[usize],
    g: usize,
) -> Option<Vec<usize>> {
    if g == 0 || fleet.len() < g {
        return None;
    }
    // Candidates share endpoint pairs (70 four-GPU gangs of an 8-GPU fleet
    // replay 1400 flows over 72 distinct pairs), so resolve each pair's
    // route once, when a candidate first needs it. Row/column `n` is the host.
    let n = fleet.len();
    let endpoint = |i: usize| fleet.get(i).map_or(Endpoint::HOST0, |&g| Endpoint::gpu(g));
    let flows: Vec<OnceCell<ConstraintVec>> = vec![OnceCell::new(); (n + 1) * (n + 1)];
    let mut best: Option<(SetScore, Vec<usize>)> = None;
    for combo in combinations(n, g) {
        let score = score_pattern(table, &combo, |src, dst| {
            let (src, dst) = (src.unwrap_or(n), dst.unwrap_or(n));
            flows[src * (n + 1) + dst]
                .get_or_init(|| flow_constraints(platform, endpoint(src), endpoint(dst)))
        });
        match &best {
            Some((incumbent, _)) if !score.beats(incumbent) => {}
            _ => best = Some((score, combo)),
        }
    }
    best.map(|(_, combo)| combo.iter().map(|&i| fleet[i]).collect())
}

/// All `k`-element index subsets of `0..n` in lexicographic order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        // Advance the rightmost index that can still move.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] < n - (k - i) {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkId;
    use crate::health::{FabricHealth, LinkState};

    #[test]
    fn combinations_are_lexicographic_and_complete() {
        let c = combinations(4, 2);
        assert_eq!(
            c,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(combinations(8, 4).len(), 70);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn ac922_prefers_same_socket_pairs() {
        // NVLink-connected same-socket pairs beat any pair that drags the
        // merge traffic over the X-Bus (Section 5.4).
        let p = Platform::ibm_ac922();
        let t = p.constraint_table();
        let fleet = [0, 1, 2, 3];
        let best = best_gpu_set(&p, t, &fleet, 2).unwrap();
        assert_eq!(best, vec![0, 1]);
        let same = score_gpu_set(&p, t, &[2, 3]);
        let cross = score_gpu_set(&p, t, &[0, 2]);
        assert!(same.beats(&cross), "{same:?} vs {cross:?}");
    }

    #[test]
    fn delta_prefers_full_nvlink_pairs() {
        // (0,1) rides a full-width NVLink; (1,3) only a half-width one;
        // (0,3) has no NVLink at all and must cross the host.
        let p = Platform::delta_d22x();
        let t = p.constraint_table();
        let full = score_gpu_set(&p, t, &[0, 1]);
        let half = score_gpu_set(&p, t, &[1, 3]);
        let hostp = score_gpu_set(&p, t, &[0, 3]);
        assert!(full.beats(&half), "{full:?} vs {half:?}");
        assert!(half.beats(&hostp), "{half:?} vs {hostp:?}");
        assert_eq!(best_gpu_set(&p, t, &[0, 1, 2, 3], 2).unwrap(), vec![0, 1]);
    }

    #[test]
    fn dgx_prefers_switch_disjoint_pairs() {
        // GPUs 0 and 1 share one PCIe switch uplink for their host
        // traffic; 0 and 2 sit under distinct switches. P2P goes over
        // NVSwitch either way, so the uplink is the bottleneck.
        let p = Platform::dgx_a100();
        let t = p.constraint_table();
        let shared = score_gpu_set(&p, t, &[0, 1]);
        let disjoint = score_gpu_set(&p, t, &[0, 2]);
        assert!(disjoint.beats(&shared), "{disjoint:?} vs {shared:?}");
        let best = best_gpu_set(&p, t, &[0, 1, 2, 3], 2).unwrap();
        assert_eq!(best, vec![0, 2]);
    }

    #[test]
    fn downed_link_scores_infinite_and_falls_back() {
        // Kill the AC922's GPU0-GPU1 NVLink: the (0,1) gang's merge
        // traffic would cross a zero-capacity constraint, so placement
        // falls back to the other same-socket pair.
        let p = Platform::ibm_ac922();
        let nv01 = p
            .topology
            .links()
            .iter()
            .enumerate()
            .find(|(_, l)| {
                let a = &p.topology.node(l.a).kind;
                let b = &p.topology.node(l.b).kind;
                matches!(a, crate::graph::NodeKind::Gpu { index: 0, .. })
                    && matches!(b, crate::graph::NodeKind::Gpu { index: 1, .. })
            })
            .map(|(i, _)| LinkId(i))
            .expect("AC922 has a GPU0-GPU1 NVLink");
        let mut health = FabricHealth::new(&p.topology);
        health.set(nv01, LinkState::Down);
        let mut adjusted = p.constraint_table().clone();
        health.apply(p.constraint_table(), &mut adjusted);
        let dead = score_gpu_set(&p, &adjusted, &[0, 1]);
        assert!(dead.bottleneck.is_infinite());
        let best = best_gpu_set(&p, &adjusted, &[0, 1, 2, 3], 2).unwrap();
        assert_eq!(best, vec![2, 3], "placement must avoid the dead link");
    }

    #[test]
    fn best_set_is_the_argmin_of_per_candidate_scores() {
        // `best_gpu_set` scores from routes resolved once per call; the
        // winner must be what scoring every candidate alone picks.
        for p in [
            Platform::dgx_a100(),
            Platform::ibm_ac922(),
            Platform::delta_d22x(),
        ] {
            let t = p.constraint_table();
            let fleet: Vec<usize> = (0..p.gpu_count()).rev().collect();
            for g in 1..=fleet.len().min(4) {
                let mut best: Option<(SetScore, Vec<usize>)> = None;
                for combo in combinations(fleet.len(), g) {
                    let set: Vec<usize> = combo.iter().map(|&i| fleet[i]).collect();
                    let score = score_gpu_set(&p, t, &set);
                    match &best {
                        Some((incumbent, _)) if !score.beats(incumbent) => {}
                        _ => best = Some((score, set)),
                    }
                }
                assert_eq!(best_gpu_set(&p, t, &fleet, g), best.map(|(_, set)| set));
            }
        }
    }

    #[test]
    fn scoring_is_deterministic() {
        let p = Platform::dgx_a100();
        let t = p.constraint_table();
        let a = best_gpu_set(&p, t, &[0, 1, 2, 3, 4, 5, 6, 7], 4).unwrap();
        let b = best_gpu_set(&p, t, &[0, 1, 2, 3, 4, 5, 6, 7], 4).unwrap();
        assert_eq!(a, b);
        assert!(best_gpu_set(&p, t, &[0, 1], 4).is_none());
        assert!(best_gpu_set(&p, t, &[0, 1], 0).is_none());
    }
}
