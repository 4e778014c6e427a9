//! The names the rest of the repository refers to: workloads, metrics,
//! units, directions and regression bounds. `BENCHMARK.json` at the root
//! lists the same names; a test below keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What `perf agree` demands of a metric between two runs of one commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// May be worse by at most this share of the first run's median.
    Rel(f64),
    /// `setup_s`: a regression only when worse by more than the share
    /// *and* by more than `abs` seconds, so a 2 ms set-up cannot fail on
    /// scheduler noise.
    RelAndAbs { rel: f64, abs: f64 },
    /// Simulated results and counts: bit-equal, or a model change.
    Exact,
    /// Reported, never gates.
    None,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn m(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator pays (host time, memory) and gets
/// (simulated results, accuracy against the paper), per workload.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", Lower, Gate::Rel(0.10)),
    m("cpu_s", "s", Lower, Gate::Rel(0.10)),
    m("peak_rss_mb", "MB", Lower, Gate::Rel(0.10)),
    m(
        "setup_s",
        "s",
        Lower,
        Gate::RelAndAbs {
            rel: 0.25,
            abs: 0.05,
        },
    ),
    m("failed_share", "share", Lower, Gate::Exact),
    m("sim_time_ns", "ns", Lower, Gate::Exact),
    m("sim_p99_latency_ns", "ns", Lower, Gate::Exact),
    m("sim_goodput_per_s", "1/s", Higher, Gate::Exact),
    m("paper_mad_pct", "%", Lower, Gate::Exact),
];

/// The four end-to-end metrics `BENCHMARK.json` bounds. Its contract wants
/// every end-to-end metric on every workload, never 0 and never reading
/// the same on every run, so the exact ones (0 failures, bit-equal
/// simulated times, metrics only some workloads have) are listed there
/// under `per_layer`, unbounded; `perf agree` is what holds them equal.
pub const CONTRACT_END_TO_END: &[&str] = &["wall_s", "cpu_s", "peak_rss_mb", "setup_s"];

/// `wall_s` and `cpu_s` of `serve_poisson_mt` get 15 %: two threads on a
/// shared two-core host repeat less tightly than one.
#[must_use]
pub fn gate_for(def: &MetricDef, workload: &str) -> Gate {
    match (def.name, workload) {
        ("wall_s" | "cpu_s", "serve_poisson_mt") => Gate::Rel(0.15),
        _ => def.gate,
    }
}

/// Single-layer metrics. None gates a host-time regression; the exact
/// counts must repeat so that two commits compare at equal work.
pub const PER_LAYER: &[MetricDef] = &[
    // Traced pass: host seconds of self time in one repetition.
    m("gpu.system_new_s", "s", Lower, Gate::None),
    m("core.driver_new_s", "s", Lower, Gate::None),
    m("core.step_s", "s", Lower, Gate::None),
    m("core.steps", "count", Lower, Gate::Exact),
    m("gpu.run_until_s", "s", Lower, Gate::None),
    m("gpu.run_until_calls", "count", Lower, Gate::Exact),
    m("core.finish_s", "s", Lower, Gate::None),
    m("core.run_sort_s", "s", Lower, Gate::None),
    m("data.generate_s", "s", Lower, Gate::None),
    m("data.validate_s", "s", Lower, Gate::None),
    m("serve.new_s", "s", Lower, Gate::None),
    m("serve.workload_next_s", "s", Lower, Gate::None),
    m("serve.workload_next_calls", "count", Lower, Gate::Exact),
    m("serve.loop_s", "s", Lower, Gate::None),
    m("repro.transfers_s", "s", Lower, Gate::None),
    m("repro.sorts_s", "s", Lower, Gate::None),
    m("repro.cpu_baselines_s", "s", Lower, Gate::None),
    m("bench.untraced_s", "s", Lower, Gate::None),
    m("cpu.onesweep_1m_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m("cpu.onesweep_8m_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m(
        "cpu.onesweep_8m_zipf_mkeys_s",
        "Mkeys/s",
        Higher,
        Gate::None,
    ),
    m("cpu.lsb_radix_1m_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m("cpu.merge_path_4m_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m("cpu.multiway_k8_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m("cpu.paradis_8m_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m("cpu.msb_radix_8m_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m("cpu.partition_8m_mkeys_s", "Mkeys/s", Higher, Gate::None),
    // Layer probes: median over >= 20 samples of a fixed call pattern.
    m("topology.allocate_ns", "ns", Lower, Gate::None),
    m("topology.allocate_cluster_ns", "ns", Lower, Gate::None),
    m("topology.route_ns", "ns", Lower, Gate::None),
    m("topology.best_gpu_set_ns", "ns", Lower, Gate::None),
    m("cluster.build_ms", "ms", Lower, Gate::None),
    m("sim.flow_event_ns", "ns", Lower, Gate::None),
    m("sim.flow_event_cluster_ns", "ns", Lower, Gate::None),
    m("gpu.memcpy_op_ns", "ns", Lower, Gate::None),
    m("gpu.memcpy_op_sampled_ns", "ns", Lower, Gate::None),
    m("gpu.sort_op_ns", "ns", Lower, Gate::None),
    m("serve.cost_ns_per_job", "ns", Lower, Gate::None),
    m("serve.place_ns_per_job", "ns", Lower, Gate::None),
    m("data.generate_mkeys_s", "Mkeys/s", Higher, Gate::None),
    m("data.validate_mkeys_s", "Mkeys/s", Higher, Gate::None),
    // Ratios and exact counts.
    m("gpu.pool2_over_pool1", "ratio", Lower, Gate::None),
    m("gpu.pool2_over_pool1_sort_full", "ratio", Lower, Gate::None),
    m("trace.recorder_on_over_off", "ratio", Lower, Gate::None),
    m("trace.events", "count", Lower, Gate::Exact),
    m("trace.export_s", "s", Lower, Gate::None),
    m("gpu.ops", "count", Lower, Gate::Exact),
    m("sim.link_samples", "count", Lower, Gate::Exact),
    m("host_ns_per_op", "ns", Lower, Gate::None),
    m("serve.offered", "count", Higher, Gate::Exact),
    m("serve.completed", "count", Higher, Gate::Exact),
    m("serve.rejected", "count", Lower, Gate::Exact),
    m("serve.shed", "count", Lower, Gate::Exact),
    m("serve.max_queue_depth", "count", Lower, Gate::Exact),
    m("serve.mean_fleet", "gpus", Lower, Gate::Exact),
    m("core.rerouted_transfers", "count", Lower, Gate::Exact),
    m("core.p2p_swapped_keys", "keys", Lower, Gate::Exact),
    m("bench.trace_overhead_pct", "%", Lower, Gate::None),
    m("bench.warmup_over_median", "ratio", Lower, Gate::None),
];

#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The metrics `BENCHMARK.json` lists under `per_layer`: the exact
/// end-to-end ones (see [`CONTRACT_END_TO_END`]) and every layer metric.
pub fn contract_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .filter(|d| !CONTRACT_END_TO_END.contains(&d.name))
        .chain(PER_LAYER)
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// `MSORT_POOL_THREADS` of the process that runs it.
    pub pool_threads: usize,
    /// Fewest timed repetitions, however short `--seconds` is.
    pub min_reps: usize,
    /// What one item is (the unit `failed_share` counts).
    pub item: &'static str,
    pub why: &'static str,
    /// Printed with every result of the workload.
    pub note: Option<&'static str>,
}

const OPEN_LOOP: Option<&str> = Some(
    "open loop in simulated time from the program's seeded generator; latency is \
     finished - submitted; generator lateness is zero by construction",
);

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper_repro",
        pool_threads: 1,
        min_reps: 5,
        item: "experiment",
        why: "regenerates every table and figure: all drivers, GpuSystem and FlowSim on tiny payloads plus the CPU bake-off's real sorts; carries the accuracy metric; the seed does not reach it",
        note: None,
    },
    WorkloadDef {
        name: "sort_full",
        pool_threads: 1,
        min_reps: 5,
        item: "sort",
        why: "five full-fidelity sorts where every key really moves: cpu kernels, the gpu effect executor and validation do the work, the event loop almost none",
        note: None,
    },
    WorkloadDef {
        name: "cluster_sort",
        pool_threads: 1,
        min_reps: 5,
        item: "sort",
        why: "sampled cross-node sorts on 16-64 GPUs with NICs and switches: the largest constraint tables and flow counts, so sim and topology do the work and kernels none",
        note: None,
    },
    WorkloadDef {
        name: "serve_poisson",
        pool_threads: 1,
        min_reps: 5,
        item: "offered job",
        why: "open loop below capacity where nearly every job runs: the fixed per-job cost of the whole stack serve-core-gpu-sim-topology",
        note: OPEN_LOOP,
    },
    WorkloadDef {
        name: "serve_overload",
        pool_threads: 1,
        min_reps: 5,
        item: "offered job",
        why: "bursty overload with SLO shedding, elastic fleet, full queue and link faults: three in five arrivals never run, so admission, cost estimates, queue and placement do the work",
        note: OPEN_LOOP,
    },
    WorkloadDef {
        name: "serve_poisson_mt",
        pool_threads: 2,
        min_reps: 3,
        item: "offered job",
        why: "serve_poisson byte for byte at pool width 2: effects go to a pool worker instead of running inline, the path an inline-small-effects change would touch",
        note: OPEN_LOOP,
    },
    WorkloadDef {
        name: "kernels",
        pool_threads: 1,
        min_reps: 5,
        item: "kernel call",
        why: "bare sequential msort_cpu kernels with no simulator: a kernel change shows alone and an event-loop change must not move it",
        note: None,
    },
];

#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(contract_per_layer().count() <= 128);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let j = manifest();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            j.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::str).expect(f).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |defs: Vec<&MetricDef>| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.word().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<&MetricDef> = CONTRACT_END_TO_END
            .iter()
            .map(|n| find(n).expect("contract metric is registered"))
            .collect();
        assert_eq!(listed("end_to_end"), ours(e2e));
        assert_eq!(listed("per_layer"), ours(contract_per_layer().collect()));

        let workloads: Vec<(&str, &str)> = j
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::str).unwrap(),
                    w.get("why").and_then(Json::str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        assert_eq!(j.get("paths").unwrap().items(), [Json::Str("perf".into())]);
    }

    #[test]
    fn benchmark_json_bounds_are_no_tighter_than_agree() {
        // The driver's bound has to hold on every workload, so it is the
        // widest one `perf agree` uses for that metric.
        let j = manifest();
        for e in j.get("end_to_end").unwrap().items() {
            let name = e.get("name").and_then(Json::str).unwrap();
            let bound = e.get("bound").and_then(Json::num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
            let def = find(name).unwrap();
            for w in WORKLOADS {
                let rel = match gate_for(def, w.name) {
                    Gate::Rel(rel) | Gate::RelAndAbs { rel, .. } => rel,
                    other => panic!("{name} gate {other:?}"),
                };
                assert!(bound >= rel, "{name} on {}", w.name);
            }
        }
    }
}
