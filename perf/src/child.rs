//! Re-running this binary as a child process: every workload of the suite
//! gets a fresh allocator, its own `VmHWM` and its own pool width.

use crate::json::Json;
use std::process::{Command, Stdio};

/// The line of a run's output that carries its full record.
pub const RECORD_PREFIX: &str = "{\"workload\"";

/// Run `perf <args>` to completion and return the record it printed, as
/// text and parsed.
pub fn run(args: &[String]) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn perf {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "perf {} exited with {}",
            args.join(" "),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let record = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with(RECORD_PREFIX))
        .ok_or_else(|| format!("perf {} printed no record", args.join(" ")))?;
    Ok((record.to_string(), Json::parse(record)?))
}

/// Median `wall_s` of `reps` untraced repetitions of `workload` at pool
/// width `pool`, in a process of its own.
pub fn wall_s(workload: &str, seed: u64, pool: usize, reps: usize) -> Result<f64, String> {
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--pool",
        &pool.to_string(),
        "--reps",
        &reps.to_string(),
    ]
    .map(String::from);
    run(&args)?
        .1
        .get("end_to_end")
        .and_then(|e| e.get("wall_s"))
        .and_then(|w| w.get("value"))
        .and_then(Json::num)
        .ok_or_else(|| "child record has no wall_s".to_string())
}
