//! The unified run configuration: one builder for everything that used to
//! be scattered per-algorithm ctor arguments.
//!
//! Every entry point — the single-shot sorts ([`crate::p2p_sort`],
//! [`crate::rp_sort`], [`crate::het_sort`]), hand-driven
//! [`SortDriver`](crate::SortDriver)s and the serve-layer `SortService` —
//! consumes the same [`RunConfig`]: which [`Algorithm`] to run, at what
//! [`Fidelity`], under which [`FaultPlan`], observed by which [`Recorder`],
//! with which seed.
//! [`Algorithm::driver`] is the one place a configured algorithm turns
//! into its resumable driver.
//!
//! ```
//! use msort_core::{run_sort, P2pConfig, RunConfig};
//! use msort_data::{generate, Distribution};
//! use msort_topology::Platform;
//! use msort_trace::Recorder;
//!
//! let dgx = Platform::dgx_a100();
//! let recorder = Recorder::new();
//! let config = RunConfig::p2p(P2pConfig::new(4)).with_recorder(recorder.clone());
//! let mut keys: Vec<u32> = generate(Distribution::Uniform, 1 << 14, 7);
//! let report = run_sort(&dgx, &config, &mut keys, 1 << 14);
//! assert!(report.validated);
//! // The recording covers op spans AND link/flow events of the same run.
//! assert!(!recorder.snapshot().unwrap().events.is_empty());
//! ```

use crate::cross_node::{CrossNodeConfig, CrossNodeDriver};
use crate::exec::{drive, SortDriver};
use crate::family::Family;
use crate::het::{HetConfig, HetDriver};
use crate::mwms::{MwmsConfig, MwmsDriver};
use crate::p2p::{P2pConfig, P2pDriver};
use crate::report::SortReport;
use crate::rp::{RpConfig, RpDriver};
use crate::sample::{SampleSortConfig, SampleSortDriver};
use msort_data::SortKey;
use msort_gpu::{Fidelity, GpuSystem};
use msort_sim::{FaultPlan, GpuSortAlgo};
use msort_topology::Platform;
use msort_trace::Recorder;

/// Which multi-GPU sort to run, with its algorithm-specific knobs.
#[derive(Debug, Clone)]
pub enum Algorithm {
    /// P2P sort (GPU-only merge over the P2P interconnects).
    P2p(P2pConfig),
    /// RP sort (radix-partitioned all-to-all exchange).
    Rp(RpConfig),
    /// HET sort (GPU chunk sorts + host multiway merge).
    Het(HetConfig),
    /// GPU sample sort (splitter partition + one all-to-all + local sorts).
    SampleSort(SampleSortConfig),
    /// Multiway mergesort (pairwise merge tree over the interconnect).
    MultiwayMerge(MwmsConfig),
    /// Cross-node sort (node-level sample sort over the NIC fabric, one of
    /// the above running inside every node).
    CrossNode(CrossNodeConfig),
}

impl Algorithm {
    /// `family` with its default knobs, placed by the caller: on exactly
    /// the GPUs of `set` (in the family's pairing order), sorting chunks
    /// with `algo`, staging host buffers on `home_socket`. This is how a
    /// scheduler that leases gangs (the serve layer, the cross-node sort)
    /// names the sort it wants.
    #[must_use]
    pub fn placed(family: Family, set: Vec<usize>, algo: GpuSortAlgo, home_socket: usize) -> Self {
        let g = set.len();
        macro_rules! place {
            ($variant:ident, $config:ident, $set:ident) => {
                Algorithm::$variant($config {
                    $set: Some(set),
                    algo,
                    home_socket,
                    ..$config::new(g)
                })
            };
        }
        match family {
            Family::P2p => place!(P2p, P2pConfig, gpu_order),
            Family::Rp => place!(Rp, RpConfig, gpu_set),
            Family::Het => place!(Het, HetConfig, gpu_set),
            Family::SampleSort => place!(SampleSort, SampleSortConfig, gpu_set),
            Family::MultiwayMerge => place!(MultiwayMerge, MwmsConfig, gpu_set),
        }
    }

    /// Build this algorithm's resumable driver over `sys` for `data` (the
    /// physical payload of `logical_len` keys) — the one constructor
    /// behind [`run_sort`], the serve layer, and the cross-node sort's
    /// inner sorts. The driver runs at the *system's* fidelity, whatever
    /// the algorithm config's own `fidelity` field says.
    ///
    /// # Panics
    /// Panics on the shape constraints of the algorithm (see its driver's
    /// `new`).
    pub fn driver<K: SortKey>(
        &self,
        sys: &mut GpuSystem<'_, K>,
        data: Vec<K>,
        logical_len: u64,
    ) -> Box<dyn SortDriver<K>> {
        let fidelity = sys.world().fidelity();
        macro_rules! build {
            ($driver:ident, $config:expr) => {{
                let mut config = $config.clone();
                config.fidelity = fidelity;
                Box::new($driver::new(sys, &config, data, logical_len))
            }};
        }
        match self {
            Algorithm::P2p(c) => build!(P2pDriver, c),
            Algorithm::Rp(c) => build!(RpDriver, c),
            Algorithm::Het(c) => build!(HetDriver, c),
            Algorithm::SampleSort(c) => build!(SampleSortDriver, c),
            Algorithm::MultiwayMerge(c) => build!(MwmsDriver, c),
            Algorithm::CrossNode(c) => build!(CrossNodeDriver, c),
        }
    }
}

/// The shared run configuration. See the [module docs](self).
///
/// Run-level settings (fidelity, faults, recorder, seed) live here, not on
/// the algorithm config: the per-algorithm constructors
/// ([`RunConfig::p2p`] and its siblings) lift `fidelity` out of the
/// algorithm config they are given, and a fault plan lives nowhere else.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The sort to run (`None` for configs that only carry run-level
    /// settings, e.g. for a serve fleet whose algorithm is per-job).
    pub algorithm: Option<Algorithm>,
    /// Simulation fidelity, applied to whatever algorithm runs.
    pub fidelity: Fidelity,
    /// Scheduled link faults (empty: pristine fabric, bit-identical to a
    /// build without fault support).
    pub faults: FaultPlan,
    /// Observability sink; disabled by default. Recording is purely
    /// observational: clocks and outputs are bit-identical either way.
    pub recorder: Recorder,
    /// Seed for harnesses that generate data or randomize schedules from
    /// the run configuration (the sorts themselves take explicit data).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl RunConfig {
    /// An algorithm-less configuration: full fidelity, no faults, recorder
    /// disabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            algorithm: None,
            fidelity: Fidelity::Full,
            faults: FaultPlan::new(),
            recorder: Recorder::disabled(),
            seed: 0,
        }
    }

    fn with_algorithm(fidelity: Fidelity, algorithm: Algorithm) -> Self {
        Self {
            algorithm: Some(algorithm),
            fidelity,
            ..Self::new()
        }
    }

    /// Run P2P sort. Lifts `fidelity` out of `config`.
    #[must_use]
    pub fn p2p(config: P2pConfig) -> Self {
        Self::with_algorithm(config.fidelity, Algorithm::P2p(config))
    }

    /// Run RP sort. Lifts `fidelity` out of `config`.
    #[must_use]
    pub fn rp(config: RpConfig) -> Self {
        Self::with_algorithm(config.fidelity, Algorithm::Rp(config))
    }

    /// Run HET sort. Lifts `fidelity` out of `config`.
    #[must_use]
    pub fn het(config: HetConfig) -> Self {
        Self::with_algorithm(config.fidelity, Algorithm::Het(config))
    }

    /// Run GPU sample sort. Lifts `fidelity` out of `config`.
    #[must_use]
    pub fn sample(config: SampleSortConfig) -> Self {
        Self::with_algorithm(config.fidelity, Algorithm::SampleSort(config))
    }

    /// Run multiway mergesort. Lifts `fidelity` out of `config`.
    #[must_use]
    pub fn mwms(config: MwmsConfig) -> Self {
        Self::with_algorithm(config.fidelity, Algorithm::MultiwayMerge(config))
    }

    /// Run the cross-node sort. Lifts `fidelity` out of `config`.
    #[must_use]
    pub fn cross_node(config: CrossNodeConfig) -> Self {
        Self::with_algorithm(config.fidelity, Algorithm::CrossNode(config))
    }

    /// Use sampled fidelity with the given factor.
    #[must_use]
    pub fn sampled(mut self, scale: u64) -> Self {
        self.fidelity = Fidelity::Sampled { scale };
        self
    }

    /// Inject the given fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a recorder (pass an enabled one to capture a trace).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Set the harness seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build a [`GpuSystem`] with this configuration's fidelity, fault
    /// schedule, and recorder installed — the one place every entry point
    /// gets its executor from.
    #[must_use]
    pub fn build_system<'p, K: SortKey>(&self, platform: &'p Platform) -> GpuSystem<'p, K> {
        let mut sys = GpuSystem::new(platform, self.fidelity);
        sys.schedule_faults(&self.faults);
        sys.set_recorder(self.recorder.clone());
        sys
    }
}

/// Sort `data` (physical payload for `logical_len` keys) on `platform`
/// under `config`. The sorted output replaces `data`.
///
/// This is the single-shot entry point behind the classic wrappers
/// ([`crate::p2p_sort`] and its siblings), which only name the algorithm.
///
/// # Panics
/// Panics if `config.algorithm` is `None` (construct it with
/// `RunConfig::p2p/rp/het/sample/mwms`), or on the shape constraints of
/// the selected algorithm (see its classic entry point's docs).
pub fn run_sort<K: SortKey>(
    platform: &Platform,
    config: &RunConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    let algorithm = config
        .algorithm
        .as_ref()
        .expect("RunConfig has no algorithm; construct it with RunConfig::p2p/rp/het/sample/mwms");
    let mut sys: GpuSystem<'_, K> = config.build_system(platform);
    let mut driver = algorithm.driver(&mut sys, std::mem::take(data), logical_len);
    drive(&mut sys, &mut *driver);
    let report = driver.report(&sys);
    *data = driver.take_output();
    debug_assert!(
        report.validated,
        "{} produced unsorted output",
        report.algorithm
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, is_sorted, same_multiset, Distribution};

    #[test]
    fn run_sort_matches_the_classic_entry_points() {
        let dgx = Platform::dgx_a100();
        let n: u64 = 1 << 14;
        for (config, classic) in [
            (
                RunConfig::p2p(P2pConfig::new(4)),
                Box::new(|d: &mut Vec<u32>| crate::p2p_sort(&dgx, &P2pConfig::new(4), d, n))
                    as Box<dyn Fn(&mut Vec<u32>) -> SortReport>,
            ),
            (
                RunConfig::rp(RpConfig::new(4)),
                Box::new(|d: &mut Vec<u32>| crate::rp_sort(&dgx, &RpConfig::new(4), d, n)),
            ),
            (
                RunConfig::het(HetConfig::new(4)),
                Box::new(|d: &mut Vec<u32>| crate::het_sort(&dgx, &HetConfig::new(4), d, n)),
            ),
        ] {
            let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 11);
            let mut a = input.clone();
            let mut b = input.clone();
            let ra = run_sort(&dgx, &config, &mut a, n);
            let rb = classic(&mut b);
            assert_eq!(a, b, "{} outputs diverge", ra.algorithm);
            assert_eq!(ra.total, rb.total, "clocks diverge");
            assert!(is_sorted(&a) && same_multiset(&a, &input));
        }
    }

    #[test]
    fn config_constructors_lift_fidelity() {
        let config = RunConfig::p2p(P2pConfig::new(2).sampled(8));
        assert!(matches!(config.fidelity, Fidelity::Sampled { scale: 8 }));
        assert!(config.faults.is_empty());
        assert!(!config.recorder.is_enabled());
    }

    #[test]
    #[should_panic(expected = "RunConfig has no algorithm")]
    fn run_sort_without_algorithm_panics() {
        let p = Platform::dgx_a100();
        let mut data: Vec<u32> = vec![1, 2];
        let _ = run_sort(&p, &RunConfig::new(), &mut data, 2);
    }
}
