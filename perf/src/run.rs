//! Running one workload in this process: set-up, warm-up, the timed
//! repetitions with all tracing off, and the traced pass.

use crate::metrics::{WorkloadDef, END_TO_END};
use crate::proc_stat::{cpu_seconds, peak_rss_mb};
use crate::report::{Values, WorkloadResult};
use crate::spans::{self_times, Spans};
use crate::stats::{median, single, summarize};
use crate::workloads::{self, metric_of_span, Bench, Rep};
use crate::{child, probes};
use msort_trace::{chrome_trace, groups, json_valid, Recorder};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per end-to-end pass, `setup_s` being their median: at least
/// three, and as many more (to a cap) as fit in a quarter of a second, so
/// that a set-up of microseconds is a median of hundreds.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1001;
const SETUP_BUDGET_S: f64 = 0.25;
/// Untraced repetitions a traced-only run takes as its base line.
const TRACE_BASE_REPS: usize = 3;
/// The span around the whole traced repetition; its self time is what no
/// layer span covers.
const REP_SPAN: &str = "rep";
/// Workloads that get one more repetition with the program's own
/// `Recorder` on. Not `serve_poisson`: 32 000 jobs' events would be held in
/// memory at once, which measures the allocator, not the recorder.
const RECORDED: [&str; 3] = ["sort_full", "cluster_sort", "serve_overload"];

pub struct Options {
    pub def: &'static WorkloadDef,
    pub seed: u64,
    /// `MSORT_POOL_THREADS` of this process.
    pub pool_threads: usize,
    pub seconds: f64,
    /// Fixed number of timed repetitions instead of `seconds`.
    pub reps: Option<usize>,
    /// Run the end-to-end pass (tracing off).
    pub end_to_end: bool,
    /// Run the traced pass.
    pub traced: bool,
    /// With the traced pass: also run the layer probes and the
    /// cross-process ratios. The suite does both itself, once.
    pub extras: bool,
    /// Where to write the benchmark's own spans as a Chrome trace.
    pub trace_out: Option<PathBuf>,
}

/// Totals over every repetition of a run, and the check that simulated
/// results repeat.
#[derive(Default)]
struct Tally {
    first: Option<Rep>,
    attempted: u64,
    failed: u64,
    repeatable: bool,
}

impl Tally {
    fn absorb(&mut self, rep: Rep) {
        let mut failed = rep.failed;
        match &self.first {
            None => {
                self.repeatable = true;
                self.first = Some(rep.clone());
            }
            Some(first) => {
                let same_exact = rep.exact.len() == first.exact.len()
                    && rep
                        .exact
                        .iter()
                        .zip(&first.exact)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                if !same_exact || rep.prints != first.prints {
                    self.repeatable = false;
                    // Per-item fingerprints name the items that moved;
                    // otherwise every item of the repetition is suspect.
                    let per_item = rep.prints.len() as u64 == rep.items
                        && rep.prints.len() == first.prints.len();
                    let moved = if per_item {
                        let n = rep.prints.iter().zip(&first.prints);
                        n.filter(|(a, b)| a != b).count() as u64
                    } else {
                        0
                    };
                    let moved = if moved == 0 { rep.items } else { moved };
                    failed = (failed + moved).min(rep.items);
                }
            }
        }
        self.attempted += rep.items;
        self.failed += failed;
    }
}

/// One repetition: stage inputs, time `run`, validate. Returns wall and
/// CPU seconds of `run` alone.
fn repetition(
    bench: &mut dyn Bench,
    run_spans: &Spans,
    check_spans: &Spans,
    tally: &mut Tally,
) -> (f64, f64) {
    bench.prepare();
    let cpu = cpu_seconds();
    let start = Instant::now();
    run_spans.time(REP_SPAN, || bench.run(run_spans));
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu;
    tally.absorb(bench.finish(check_spans));
    (wall, cpu)
}

/// Run `opts.def` here and now.
///
/// # Panics
/// Panics if the pool is not `opts.pool_threads` wide (`main` fixes the
/// width before the first thread exists).
#[must_use]
pub fn run_workload(opts: &Options) -> WorkloadResult {
    let name = opts.def.name;
    let pool_threads = msort_cpu::default_threads();
    assert_eq!(pool_threads, opts.pool_threads, "MSORT_POOL_THREADS");
    let spans = if opts.traced {
        Spans::on(name)
    } else {
        Spans::off()
    };
    let off = Spans::off();
    let mut result = WorkloadResult {
        workload: name,
        seed: opts.seed,
        pool_threads,
        ..WorkloadResult::default()
    };

    // Set-up, several times over; the last one is kept (and is the one
    // whose input generation the traced pass reports as `data.generate_s`).
    let mut setup_s = Vec::new();
    let budget = Instant::now();
    while opts.end_to_end
        && (setup_s.len() + 1 < MIN_SETUPS
            || (setup_s.len() + 1 < MAX_SETUPS && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S))
    {
        let start = Instant::now();
        let discarded = workloads::build(name, opts.seed, &off);
        setup_s.push(start.elapsed().as_secs_f64());
        drop(discarded);
    }
    let start = Instant::now();
    let mut bench = workloads::build(name, opts.seed, &spans);
    setup_s.push(start.elapsed().as_secs_f64());
    let bench = bench.as_mut();

    let mut tally = Tally::default();
    let (warm_wall, _) = repetition(bench, &off, &spans, &mut tally);

    let (seconds, min_reps) = match (opts.reps, opts.end_to_end) {
        (Some(reps), _) => (0.0, reps),
        (None, true) => (opts.seconds, opts.def.min_reps),
        (None, false) => (0.0, TRACE_BASE_REPS),
    };
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let timed = Instant::now();
    while walls.len() < min_reps || timed.elapsed().as_secs_f64() < seconds {
        let (wall, cpu) = repetition(bench, &off, &off, &mut tally);
        walls.push(wall);
        cpus.push(cpu);
    }
    let wall_median = median(&walls);

    if opts.end_to_end {
        result.end_to_end = vec![
            ("wall_s", summarize(&walls)),
            ("cpu_s", summarize(&cpus)),
            ("peak_rss_mb", single(peak_rss_mb())),
            ("setup_s", summarize(&setup_s)),
        ];
    }
    let mut layers: Values = Vec::new();
    if opts.traced {
        layers.push(("bench.warmup_over_median", single(warm_wall / wall_median)));
        traced_pass(bench, &spans, wall_median, &mut tally, &mut layers);
        if RECORDED.contains(&name) {
            recorded_pass(bench, wall_median, &mut tally, &mut layers);
        }
        if opts.extras {
            ratios(opts, wall_median, &mut layers, &mut result.notes);
            layers.extend(probes::run_all(opts.seed));
        }
        if let Some(path) = &opts.trace_out {
            let trace = chrome_trace(&spans.data().expect("spans are on"));
            write_json(path, &trace);
        }
    }

    // Simulated results and counts, as the first repetition had them (the
    // tally holds every later one equal to it).
    let first = tally.first.as_ref().expect("the warm-up ran");
    for &(metric, value) in &first.exact {
        if END_TO_END.iter().any(|d| d.name == metric) {
            result.end_to_end.push((metric, single(value)));
        } else {
            layers.push((metric, single(value)));
        }
    }
    let share = tally.failed as f64 / tally.attempted as f64;
    result.end_to_end.push(("failed_share", single(share)));
    result.notes.extend(opts.def.note.map(String::from));
    result.per_layer = layers;
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    result.repeatable = tally.repeatable;
    result
}

/// One repetition with the benchmark's spans around every public call,
/// folded into per-layer self times.
fn traced_pass(
    bench: &mut dyn Bench,
    spans: &Spans,
    wall_median: f64,
    tally: &mut Tally,
    layers: &mut Values,
) {
    let (wall, _) = repetition(bench, spans, &Spans::off(), tally);
    // Everything recorded so far: the set-up's and the first validation's
    // spans lie outside the repetition and are reported beside it.
    let data = spans.data().expect("spans are on");

    let mut seconds: Vec<(&'static str, f64)> = Vec::new();
    let mut add =
        |metric: &'static str, value: f64| match seconds.iter_mut().find(|s| s.0 == metric) {
            Some(slot) => slot.1 += value,
            None => seconds.push((metric, value)),
        };
    for (span, st) in self_times(&data) {
        let secs = st.self_ns as f64 / 1e9;
        if span == REP_SPAN {
            add("bench.untraced_s", secs);
            continue;
        }
        let Some(def) = crate::metrics::find(metric_of_span(&span)) else {
            panic!("span '{span}' has no per-layer metric");
        };
        add(def.name, secs);
        let calls = match def.name {
            "core.step_s" => Some("core.steps"),
            "gpu.run_until_s" => Some("gpu.run_until_calls"),
            "serve.workload_next_s" => Some("serve.workload_next_calls"),
            _ => None,
        };
        if let Some(calls) = calls {
            add(calls, st.calls as f64);
        }
    }
    // The kernels' spans are reported as throughput over the keys the
    // calls under that name processed.
    let call_keys = &tally.first.as_ref().expect("warm-up ran").call_keys;
    for (metric, value) in seconds {
        let value = match call_keys.iter().find(|(m, _)| *m == metric) {
            Some(&(_, keys)) => keys as f64 / value / 1e6,
            None => value,
        };
        layers.push((metric, single(value)));
    }
    layers.push((
        "bench.trace_overhead_pct",
        single((wall - wall_median) / wall_median * 100.0),
    ));
}

/// One repetition with the program's own `Recorder` on: what recording
/// costs, how much it records, and the op count that makes
/// `host_ns_per_op` comparable between commits.
fn recorded_pass(bench: &mut dyn Bench, wall_median: f64, tally: &mut Tally, layers: &mut Values) {
    let recorder = Recorder::new();
    bench.set_recorder(recorder.clone());
    let off = Spans::off();
    let (wall, _) = repetition(bench, &off, &off, tally);
    let data = recorder.snapshot().expect("recorder is on");
    let start = Instant::now();
    let trace = chrome_trace(&data);
    let export_s = start.elapsed().as_secs_f64();
    assert!(json_valid(&trace), "chrome_trace wrote invalid JSON");
    let ops = data.events_in_group(groups::GPU).count() as f64;
    layers.extend([
        ("trace.recorder_on_over_off", single(wall / wall_median)),
        ("trace.events", single(data.events.len() as f64)),
        ("trace.export_s", single(export_s)),
        ("gpu.ops", single(ops)),
        (
            "sim.link_samples",
            single(data.events_in_group(groups::LINKS).count() as f64),
        ),
        ("host_ns_per_op", single(wall_median * 1e9 / ops)),
    ]);
}

/// The pool-width ratios need a second process at the other width.
fn ratios(opts: &Options, wall_median: f64, layers: &mut Values, notes: &mut Vec<String>) {
    let (metric, other, pool, reps) = match opts.def.name {
        "serve_poisson_mt" => ("gpu.pool2_over_pool1", "serve_poisson", 1, 3),
        "sort_full" => ("gpu.pool2_over_pool1_sort_full", "sort_full", 2, 1),
        _ => return,
    };
    match child::wall_s(other, opts.seed, pool, reps) {
        Ok(other_wall) => {
            let ratio = if pool == 1 {
                wall_median / other_wall
            } else {
                other_wall / wall_median
            };
            layers.push((metric, single(ratio)));
        }
        Err(e) => notes.push(format!("{metric} not measured: {e}")),
    }
}

/// Write a JSON document the benchmark produced, certified first.
///
/// # Panics
/// Panics if the text is not valid JSON or the file cannot be written.
pub fn write_json(path: &std::path::Path, text: &str) {
    assert!(
        json_valid(text),
        "refusing to write invalid JSON to {}",
        path.display()
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(prints: &[u64], sim: f64) -> Rep {
        Rep {
            items: prints.len() as u64,
            prints: prints.to_vec(),
            exact: vec![("sim_time_ns", sim)],
            ..Rep::default()
        }
    }

    #[test]
    fn a_simulated_result_that_moves_fails_its_item() {
        let mut t = Tally::default();
        t.absorb(rep(&[1, 2, 3], 10.0));
        t.absorb(rep(&[1, 2, 3], 10.0));
        assert!(t.repeatable);
        assert_eq!((t.attempted, t.failed), (6, 0));
        t.absorb(rep(&[1, 9, 3], 10.0));
        assert!(!t.repeatable);
        assert_eq!((t.attempted, t.failed), (9, 1));
        // A moved total with equal fingerprints cannot be pinned on an
        // item: the whole repetition fails.
        t.absorb(rep(&[1, 2, 3], 11.0));
        assert_eq!((t.attempted, t.failed), (12, 4));
    }

    #[test]
    fn validation_failures_and_moved_items_do_not_exceed_the_items() {
        let mut t = Tally::default();
        t.absorb(rep(&[1, 2], 1.0));
        let mut bad = rep(&[7, 8], 1.0);
        bad.failed = 2;
        t.absorb(bad);
        assert_eq!((t.attempted, t.failed), (4, 2));
    }
}
