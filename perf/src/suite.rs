//! The whole benchmark in one command: every workload in a child process
//! of its own, then what no single workload can say — the layer probes
//! and the pool-width ratios — and one JSON document of all of it.

use crate::json::{number, Json};
use crate::metrics::{self, WORKLOADS};
use crate::report::{short, text_of, Values};
use crate::stats::single;
use crate::{child, probes};
use std::path::PathBuf;

pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    /// Directory for one Chrome trace of benchmark spans per workload.
    pub traces: Option<PathBuf>,
}

fn wall_of(record: &Json) -> Option<f64> {
    record.get("end_to_end")?.get("wall_s")?.get("value")?.num()
}

/// Run every workload, print every metric, return the document.
pub fn run_suite(opts: &SuiteOptions) -> Result<String, String> {
    let mut records: Vec<(String, Json)> = Vec::new();
    for w in WORKLOADS {
        eprintln!("perf: running {} ...", w.name);
        let mut args: Vec<String> = [
            "--workload",
            w.name,
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            "both",
        ]
        .map(String::from)
        .to_vec();
        if let Some(dir) = &opts.traces {
            args.push("--trace-out".to_string());
            args.push(
                dir.join(format!("{}.trace.json", w.name))
                    .display()
                    .to_string(),
            );
        }
        let (raw, record) = child::run(&args)?;
        print!("{}", text_of(&record));
        records.push((raw, record));
    }

    // Measured across workloads or outside any of them.
    eprintln!("perf: running the layer probes ...");
    let mut cross: Values = probes::run_all(opts.seed);
    let wall = |name: &str| {
        records
            .iter()
            .map(|(_, r)| r)
            .find(|r| r.get("workload").and_then(Json::str) == Some(name))
            .and_then(wall_of)
            .ok_or_else(|| format!("{name} reported no wall_s"))
    };
    cross.push((
        "gpu.pool2_over_pool1",
        single(wall("serve_poisson_mt")? / wall("serve_poisson")?),
    ));
    cross.push((
        "gpu.pool2_over_pool1_sort_full",
        single(child::wall_s("sort_full", opts.seed, 2, 1)? / wall("sort_full")?),
    ));
    println!("== across workloads ==");
    for (name, s) in &cross {
        let unit = metrics::find(name).map_or("", |d| d.unit);
        println!("    {name:<32} {:>16} {unit}", short(s.median));
    }
    let raw: Vec<&str> = records.iter().map(|(raw, _)| raw.as_str()).collect();
    Ok(document(opts, &raw, &cross))
}

/// The result file: every workload's record and the cross-workload
/// metrics, with the run's parameters and the host's core count.
fn document(opts: &SuiteOptions, records: &[&str], cross: &Values) -> String {
    let members: Vec<String> = cross
        .iter()
        .map(|(name, s)| {
            let unit = metrics::find(name).map_or("", |d| d.unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(s.median)
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"schema\": \"msort-perf/1\", \"seed\": {}, \"seconds\": {}, \"nproc\": {nproc},\n \
         \"workloads\": [\n  {}\n ],\n \"cross_workload\": {{{}}}}}\n",
        opts.seed,
        number(opts.seconds),
        records.join(",\n  "),
        members.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadResult;
    use crate::stats::summarize;

    #[test]
    fn result_file_is_valid_json_and_agrees_with_itself() {
        let records: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                WorkloadResult {
                    workload: w.name,
                    repeatable: true,
                    end_to_end: vec![("wall_s", summarize(&[1.0, 1.1, 0.9]))],
                    per_layer: vec![("core.steps", single(12.0))],
                    ..WorkloadResult::default()
                }
                .to_json()
            })
            .collect();
        let raw: Vec<&str> = records.iter().map(String::as_str).collect();
        let opts = SuiteOptions {
            seed: 9,
            seconds: 2.5,
            traces: None,
        };
        let cross = vec![("gpu.pool2_over_pool1", single(2.25))];
        let doc = Json::parse(&document(&opts, &raw, &cross)).expect("valid JSON");
        assert_eq!(doc.get("seed").unwrap().num(), Some(9.0));
        assert_eq!(doc.get("workloads").unwrap().items().len(), WORKLOADS.len());
        let ratio = doc
            .get("cross_workload")
            .unwrap()
            .get("gpu.pool2_over_pool1");
        assert_eq!(ratio.unwrap().get("unit").unwrap().str(), Some("ratio"));
        assert_eq!(crate::agree::agree(&doc, &doc).1, 0);
    }
}
