//! `perf agree A.json B.json`: does the second run hold the first one's
//! numbers? The bounds of `metrics` per metric and workload, bit-equality
//! for everything simulated or counted. This is the local form of the
//! ROADMAP's `bench-diff`, and how two runs of one commit are shown to
//! agree.

use crate::json::Json;
use crate::metrics::{gate_for, Better, Gate, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::short;
use std::fmt::Write as _;

/// Whether `second` is a regression against `first` under `gate`.
#[must_use]
pub fn regressed(gate: Gate, better: Better, first: f64, second: f64) -> bool {
    // How much worse the second value is, as a positive number.
    let worse_by = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    match gate {
        Gate::None => false,
        Gate::Exact => first.to_bits() != second.to_bits(),
        Gate::Rel(rel) => worse_by > rel * first.abs(),
        Gate::RelAndAbs { rel, abs } => worse_by > rel * first.abs() && worse_by > abs,
    }
}

fn value(record: &Json, section: &str, metric: &str) -> Option<f64> {
    record.get(section)?.get(metric)?.get("value")?.num()
}

fn record<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .items()
        .iter()
        .find(|r| r.get("workload").and_then(Json::str) == Some(workload))
}

/// Compare two result documents. Returns the table to print and the
/// number of violations.
#[must_use]
pub fn agree(first: &Json, second: &Json) -> (String, usize) {
    let mut table = String::new();
    let mut violations = Vec::new();
    let _ = writeln!(
        table,
        "{:<17} {:>29} {:>29} {:>29} {:>29}   exact",
        "workload", "wall_s", "cpu_s", "peak_rss_mb", "setup_s"
    );
    for w in WORKLOADS {
        let (Some(a), Some(b)) = (record(first, w.name), record(second, w.name)) else {
            violations.push(format!("{}: missing from one of the files", w.name));
            continue;
        };
        let _ = write!(table, "{:<17}", w.name);
        let mut exact_checked = 0;
        let mut exact_moved = Vec::new();
        let sections = [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)];
        for (section, defs) in sections {
            for def in defs {
                let gate = gate_for(def, w.name);
                let (x, y) = match (value(a, section, def.name), value(b, section, def.name)) {
                    (None, None) => continue,
                    (Some(x), Some(y)) => (x, y),
                    _ => {
                        violations.push(format!("{} {}: in one file only", w.name, def.name));
                        continue;
                    }
                };
                let bad = regressed(gate, def.better, x, y);
                match gate {
                    Gate::None => {}
                    Gate::Exact => {
                        exact_checked += 1;
                        if bad {
                            exact_moved.push(def.name);
                        }
                    }
                    Gate::Rel(_) | Gate::RelAndAbs { .. } => {
                        let change = (y - x) / x * 100.0;
                        let cell = format!("{}->{} {change:+.1}%", short(x), short(y));
                        let _ = write!(table, " {cell:>28}{}", if bad { "!" } else { " " });
                    }
                }
                if bad {
                    violations.push(format!(
                        "{} {}: {x} -> {y} ({} is better, gate {gate:?})",
                        w.name,
                        def.name,
                        def.better.word()
                    ));
                }
            }
        }
        let _ = if exact_moved.is_empty() {
            writeln!(table, "  {exact_checked} equal")
        } else {
            writeln!(table, "  MOVED: {}", exact_moved.join(" "))
        };
    }
    for v in &violations {
        let _ = writeln!(table, "violation: {v}");
    }
    let _ = writeln!(
        table,
        "{}",
        if violations.is_empty() {
            "the two runs agree"
        } else {
            "the two runs do NOT agree"
        }
    );
    (table, violations.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn relative_bound_counts_only_the_worse_direction() {
        let gate = Gate::Rel(0.10);
        assert!(!regressed(gate, Lower, 1.0, 1.09));
        assert!(regressed(gate, Lower, 1.0, 1.11));
        assert!(!regressed(gate, Lower, 1.0, 0.5));
        assert!(!regressed(gate, Higher, 100.0, 91.0));
        assert!(regressed(gate, Higher, 100.0, 89.0));
        assert!(!regressed(gate, Higher, 100.0, 150.0));
    }

    #[test]
    fn setup_needs_both_the_share_and_the_milliseconds() {
        let gate = Gate::RelAndAbs {
            rel: 0.25,
            abs: 0.05,
        };
        // +100 % but only 2 ms: noise on a tiny set-up.
        assert!(!regressed(gate, Lower, 0.002, 0.004));
        // +60 ms but only 6 %.
        assert!(!regressed(gate, Lower, 1.0, 1.06));
        // +30 % and 90 ms.
        assert!(regressed(gate, Lower, 0.3, 0.39));
    }

    #[test]
    fn exact_means_bit_equal_and_none_never_gates() {
        assert!(!regressed(Gate::Exact, Lower, 0.1 + 0.2, 0.1 + 0.2));
        assert!(regressed(Gate::Exact, Lower, 0.1 + 0.2, 0.3));
        assert!(regressed(Gate::Exact, Higher, 5.0, 6.0));
        assert!(!regressed(Gate::None, Lower, 1.0, 100.0));
    }

    fn doc(wall: f64, sim: f64, steps: f64) -> Json {
        let records: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"workload\": \"{}\", \"end_to_end\": {{\"wall_s\": {{\"value\": {wall}}}, \
                     \"sim_time_ns\": {{\"value\": {sim}}}}}, \
                     \"per_layer\": {{\"core.steps\": {{\"value\": {steps}}}, \
                     \"core.step_s\": {{\"value\": {wall}}}}}}}",
                    w.name
                )
            })
            .collect();
        Json::parse(&format!("{{\"workloads\": [{}]}}", records.join(", "))).unwrap()
    }

    #[test]
    fn documents_agree_within_bounds_and_not_beyond() {
        let base = doc(1.0, 5e9, 40.0);
        let (table, n) = agree(&base, &doc(1.08, 5e9, 40.0));
        assert_eq!(n, 0, "{table}");
        assert_eq!(table.lines().count(), WORKLOADS.len() + 2);
        // serve_poisson_mt has 15 %, the six others 10 %.
        let (_, n) = agree(&base, &doc(1.12, 5e9, 40.0));
        assert_eq!(n, WORKLOADS.len() - 1);
        // A simulated time or an exact count that moves fails everywhere;
        // an ungated layer time never does.
        let (_, n) = agree(&base, &doc(1.0, 5e9 + 1.0, 40.0));
        assert_eq!(n, WORKLOADS.len());
        let (table, n) = agree(&base, &doc(1.0, 5e9, 41.0));
        assert_eq!(n, WORKLOADS.len());
        assert!(table.contains("MOVED: core.steps"));
    }
}
