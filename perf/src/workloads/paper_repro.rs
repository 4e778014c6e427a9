//! `paper_repro`: regenerate every table and figure at `PAPER_SCALE`.

use super::{fingerprint, Bench, Rep, PANICKED};
use crate::spans::Spans;
use msort_bench::{run_experiment, ExperimentResult};
use msort_sim::CostModel;
use msort_topology::{Platform, PlatformId};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The experiments of one repetition, pinned here so that a later change
/// to `msort_bench::ALL_EXPERIMENTS` does not silently change the work
/// measured. At this commit it is all 24 of them.
pub const EXPERIMENTS: [&str; 24] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "fig1",
    "fig12",
    "fig13",
    "fig14",
    "fig15a",
    "fig15b",
    "fig16",
    "datatypes",
    "gpuset",
    "pivot-ablation",
    "multiway",
    "rp-sort",
    "multihop",
    "conclusion",
    "cpu-baselines",
    "whatif",
];

/// The experiment that times real CPU sorts on this host.
const CPU_BASELINES: &str = "cpu-baselines";

/// Rows that are host wall-clock measurements, not simulated results: they
/// differ from run to run and stay out of the fingerprints. (None of them
/// has a paper value, so `paper_mad_pct` is exact regardless.)
fn host_timed(experiment: &str, label: &str) -> bool {
    label.starts_with("this host:")
        || (experiment == CPU_BASELINES && !label.starts_with("modeled"))
}

pub const SPAN_PREFIX: &str = "repro:";

/// The per-layer metric an experiment's span is summed into.
#[must_use]
pub fn metric_of(experiment: &str) -> &'static str {
    match experiment {
        "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" => "repro.transfers_s",
        CPU_BASELINES => "repro.cpu_baselines_s",
        _ => "repro.sorts_s",
    }
}

pub struct PaperRepro {
    /// Per experiment: its result sections, or `None` if it panicked.
    results: Vec<Option<Vec<ExperimentResult>>>,
}

impl PaperRepro {
    /// The experiments build what they need themselves, so there is nothing
    /// to prepare. What a session pays before its first experiment is
    /// constructing the paper's three platforms and their cost models, so
    /// that is what `setup_s` measures here.
    pub fn new() -> Self {
        for id in PlatformId::paper_set() {
            black_box((Platform::paper(id), CostModel::for_platform_id(id)));
        }
        Self {
            results: Vec::new(),
        }
    }
}

impl Bench for PaperRepro {
    fn run(&mut self, spans: &Spans) {
        self.results = EXPERIMENTS
            .iter()
            .map(|name| {
                spans.time(&format!("{SPAN_PREFIX}{name}"), || {
                    catch_unwind(AssertUnwindSafe(|| run_experiment(name))).ok()
                })
            })
            .collect();
    }

    fn finish(&mut self, _spans: &Spans) -> Rep {
        let mut rep = Rep {
            items: EXPERIMENTS.len() as u64,
            ..Rep::default()
        };
        let mut deltas = Vec::new();
        for (name, sections) in EXPERIMENTS.iter().zip(&self.results) {
            let Some(sections) = sections else {
                rep.failed += 1;
                rep.prints.push(PANICKED);
                continue;
            };
            let mut print = fingerprint();
            for section in sections {
                deltas.extend(section.mean_abs_delta());
                for row in &section.rows {
                    if host_timed(name, &row.label) {
                        continue;
                    }
                    row.label.hash(&mut print);
                    row.ours.to_bits().hash(&mut print);
                    row.paper.map(f64::to_bits).hash(&mut print);
                }
            }
            rep.prints.push(print.finish());
        }
        if !deltas.is_empty() {
            let mad = deltas.iter().sum::<f64>() / deltas.len() as f64;
            rep.exact.push(("paper_mad_pct", mad));
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_experiment_still_exists() {
        for e in EXPERIMENTS {
            assert!(msort_bench::ALL_EXPERIMENTS.contains(&e), "{e}");
        }
    }

    #[test]
    fn every_experiment_has_a_layer_metric() {
        for e in EXPERIMENTS {
            assert!(crate::metrics::find(metric_of(e)).is_some());
        }
        assert_eq!(
            super::super::metric_of_span("repro:fig4"),
            "repro.transfers_s"
        );
        assert_eq!(super::super::metric_of_span("core.step_s"), "core.step_s");
    }
}
