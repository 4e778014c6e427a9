//! `perf`: the repository's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf [--seed N] [--seconds S] [--out FILE] [--traces DIR] [--twice]
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perf agree A.json B.json
//! ```

mod agree;
mod child;
mod json;
mod metrics;
mod probes;
mod proc_stat;
mod report;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  perf [--seed N] [--seconds S] [--out FILE] [--traces DIR] [--twice]
      run all seven workloads, check every output, print every metric
  perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      run one workload; the last line of output is its JSON summary
  perf agree A.json B.json
      hold the second result file against the first one's bounds";

/// Environment the program reads and a benchmark run must not inherit.
const SCRUBBED_ENV: [&str; 3] = ["MSORT_WC_SCATTER", "MSORT_BENCH_QUICK", "MSORT_BENCH_JSON"];

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<String>,
    out: Option<PathBuf>,
    traces: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    pool: Option<usize>,
    reps: Option<usize>,
    twice: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--twice" {
            args.twice = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.to_string()),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("between 0 and 3600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = Some(value.to_string()),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--traces" => args.traces = Some(PathBuf::from(value)),
            // Between this binary and its own child processes.
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--pool" => args.pool = Some(value.parse().map_err(|_| bad("a thread count"))?),
            "--reps" => args.reps = Some(value.parse().map_err(|_| bad("a count"))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Fix the pool width and scrub the environment. Must run before the first
/// call into the program: the pool reads its width once.
fn pin_environment(pool_threads: usize) {
    std::env::set_var("MSORT_POOL_THREADS", pool_threads.to_string());
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
}

fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let def = metrics::workload(name).ok_or_else(|| {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; one of: {}", names.join(" "))
    })?;
    let (end_to_end, traced) = match args.trace.as_deref().unwrap_or("0") {
        "0" => (true, false),
        "1" => (false, true),
        "both" => (true, true),
        other => return Err(format!("--trace {other}: not 0 or 1")),
    };
    let pool_threads = args.pool.unwrap_or(def.pool_threads);
    pin_environment(pool_threads);
    let result = run::run_workload(&run::Options {
        def,
        seed: args.seed.unwrap_or(1),
        pool_threads,
        seconds: args.seconds.unwrap_or(10.0),
        reps: args.reps,
        end_to_end,
        traced,
        // `--trace both` is the suite's child: the suite runs the probes
        // and the cross-process ratios itself, once.
        extras: traced && !end_to_end,
        trace_out: args.trace_out.clone(),
    });
    let record = result.to_json();
    print!("{}", report::text_of(&Json::parse(&record)?));
    println!("{record}");
    println!("{}", result.contract_line(traced && !end_to_end));
    // A run that printed its summary exits 0; `correct` is in the summary.
    Ok(ExitCode::SUCCESS)
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    pin_environment(1);
    let opts = suite::SuiteOptions {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(10.0),
        traces: args.traces.clone(),
    };
    let first = suite::run_suite(&opts)?;
    if let Some(out) = &args.out {
        run::write_json(out, &first);
        println!("wrote {}", out.display());
    }
    let mut ok = all_correct(&Json::parse(&first)?);
    if args.twice {
        let second = suite::run_suite(&opts)?;
        if let Some(out) = &args.out {
            let path = PathBuf::from(format!("{}.second", out.display()));
            run::write_json(&path, &second);
            println!("wrote {}", path.display());
        }
        let (table, violations) = agree::agree(&Json::parse(&first)?, &Json::parse(&second)?);
        print!("{table}");
        ok &= violations == 0 && all_correct(&Json::parse(&second)?);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// No failed item and no simulated result that moved, on any workload.
fn all_correct(doc: &Json) -> bool {
    let records = doc.get("workloads").map_or(&[][..], Json::items);
    let mut ok = records.len() == metrics::WORKLOADS.len();
    for r in records {
        let failed = r.get("failed").and_then(Json::num);
        if failed != Some(0.0) || r.get("repeatable") != Some(&Json::Bool(true)) {
            println!(
                "FAILED: {} has failed items or simulated results that do not repeat",
                r.get("workload").and_then(Json::str).unwrap_or("?")
            );
            ok = false;
        }
    }
    ok
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    if argv.first().map(String::as_str) == Some("agree") {
        let [_, a, b] = argv else {
            return Err("agree takes exactly two files".to_string());
        };
        let (table, violations) = agree::agree(&read_doc(Path::new(a))?, &read_doc(Path::new(b))?);
        print!("{table}");
        return Ok(if violations == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let args = parse_args(argv)?;
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
