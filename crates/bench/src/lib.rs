//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment module produces an [`ExperimentResult`] — a set of rows
//! with the paper's reported value and our simulated value side by side —
//! and the `reproduce` binary prints them (and can write the whole set to
//! `EXPERIMENTS.md`).
//!
//! Run a single experiment:
//! ```text
//! cargo run -p msort-bench --bin reproduce -- fig5
//! ```
//! or everything:
//! ```text
//! cargo run -p msort-bench --bin reproduce -- all
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod result;

pub use result::{ExperimentResult, Row};

/// Default sampling factor for paper-scale simulated runs: one physical
/// key per ~2 M logical keys keeps a 60 B-key experiment's payload around
/// 30 K keys while pivot fractions stay statistically faithful.
pub const PAPER_SCALE: u64 = 1 << 21;

/// The list of all experiment names understood by the `reproduce` binary,
/// in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
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

/// Run one experiment by name.
///
/// # Panics
/// Panics on an unknown experiment name.
#[must_use]
pub fn run_experiment(name: &str) -> Vec<ExperimentResult> {
    use experiments as ex;
    match name {
        "table1" => vec![ex::table1::run()],
        "fig2" => vec![ex::transfers::fig2()],
        "fig3" => vec![ex::transfers::fig3()],
        "fig4" => vec![ex::transfers::fig4()],
        "fig5" => vec![ex::transfers::fig5()],
        "fig6" => vec![ex::transfers::fig6()],
        "fig7" => vec![ex::transfers::fig7()],
        "table2" => vec![ex::table2::run()],
        "fig1" => vec![ex::fig1::run()],
        "fig12" => ex::scaling::fig12(),
        "fig13" => ex::scaling::fig13(),
        "fig14" => ex::scaling::fig14(),
        "fig15a" => vec![ex::large::fig15a()],
        "fig15b" => vec![ex::large::fig15b()],
        "fig16" => vec![ex::distributions::fig16()],
        "datatypes" => vec![ex::datatypes::run()],
        "gpuset" => vec![ex::ablations::gpuset_order()],
        "pivot-ablation" => vec![ex::ablations::pivot_leftmost()],
        "multiway" => vec![ex::ablations::multiway_utilization()],
        "rp-sort" => vec![ex::extensions::rp_vs_p2p()],
        "multihop" => vec![ex::extensions::multihop()],
        "conclusion" => vec![ex::conclusion::run()],
        "cpu-baselines" => vec![ex::cpu_baselines::run()],
        "whatif" => vec![ex::whatif::run()],
        other => panic!("unknown experiment '{other}'; see ALL_EXPERIMENTS"),
    }
}
