//! The seven workloads. Each is set up from the seed alone, then run one
//! repetition at a time; only [`Bench::run`] is timed.

mod kernels;
mod paper_repro;
mod serve;
mod sorts;

pub use serve::Serve;

use crate::spans::Spans;
use msort_data::Rng;
use msort_trace::Recorder;
use std::collections::hash_map::DefaultHasher;

/// What one repetition produced, gathered outside the timed region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Items attempted (experiments, sorts, offered jobs, kernel calls).
    pub items: u64,
    /// Items that panicked or whose output is not a sorted permutation of
    /// its input.
    pub failed: u64,
    /// Fingerprints of everything simulated, one per item (one for the
    /// whole run on the serve workloads, where a difference fails every
    /// offered job). They must repeat from repetition to repetition.
    pub prints: Vec<u64>,
    /// Simulated results and counts of this repetition, by metric name.
    pub exact: Vec<(&'static str, f64)>,
    /// Keys each timed call processed, for the kernels' Mkeys/s.
    pub call_keys: Vec<(&'static str, u64)>,
}

pub trait Bench {
    /// Untimed, before every repetition: stage fresh copies of the inputs.
    fn prepare(&mut self) {}
    /// Timed: nothing but calls into the program's public functions. With
    /// spans on, the same calls one layer down, each inside a span.
    fn run(&mut self, spans: &Spans);
    /// Untimed: validate what `run` left behind and report it.
    fn finish(&mut self, spans: &Spans) -> Rep;
    /// Attach the program's own `Recorder` to the coming repetitions (the
    /// workloads with a run configuration to attach it to).
    fn set_recorder(&mut self, _recorder: Recorder) {}
}

/// Set a workload up: platforms, inputs, configurations. Everything that
/// depends on chance is drawn from `seed`; the program only ever sees the
/// generated inputs.
///
/// # Panics
/// Panics on a name that is not in `metrics::WORKLOADS`.
#[must_use]
pub fn build(name: &str, seed: u64, spans: &Spans) -> Box<dyn Bench> {
    match name {
        "paper_repro" => Box::new(paper_repro::PaperRepro::new()),
        "sort_full" => Box::new(sorts::SortSuite::full(seed, spans)),
        "cluster_sort" => Box::new(sorts::SortSuite::cluster(seed, spans)),
        "serve_poisson" | "serve_poisson_mt" => Box::new(serve::Serve::poisson(seed)),
        "serve_overload" => Box::new(serve::Serve::overload(seed)),
        "kernels" => Box::new(kernels::Kernels::new(seed, spans)),
        other => panic!("unknown workload '{other}'"),
    }
}

/// The metric a span's self time is added to: the span's own name, except
/// that `paper_repro` names its spans after the experiment.
#[must_use]
pub fn metric_of_span(span: &str) -> &str {
    match span.strip_prefix(paper_repro::SPAN_PREFIX) {
        Some(experiment) => paper_repro::metric_of(experiment),
        None => span,
    }
}

/// The `index`-th seed derived from the run's `--seed`.
#[must_use]
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.u64()
}

/// A fresh fingerprint hasher. Fingerprints are only ever compared
/// within one process, and `DefaultHasher::new()` is keyed the same every
/// time, so equal inputs give equal fingerprints.
#[must_use]
pub fn fingerprint() -> DefaultHasher {
    DefaultHasher::new()
}

/// Fingerprint of an item that panicked: never equal to a real one's.
pub const PANICKED: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, Distribution};

    #[test]
    fn a_seed_gives_the_same_inputs_and_another_seed_others() {
        assert_eq!(sub_seed(1, 0), sub_seed(1, 0));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        let a: Vec<u32> = generate(Distribution::Uniform, 1 << 10, sub_seed(7, 3));
        let b: Vec<u32> = generate(Distribution::Uniform, 1 << 10, sub_seed(7, 3));
        let c: Vec<u32> = generate(Distribution::Uniform, 1 << 10, sub_seed(8, 3));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
