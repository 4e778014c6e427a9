//! One workload's results: as text for a reader, as JSON for `perf agree`
//! and later runs, and as the one-line summary `BENCHMARK.json` specifies.

use crate::json::{number, Json};
use crate::metrics::{self, contract_per_layer, CONTRACT_END_TO_END};
use crate::stats::Summary;
use msort_trace::json_escape;
use std::fmt::Write as _;

pub type Values = Vec<(&'static str, Summary)>;

#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub workload: &'static str,
    pub seed: u64,
    pub pool_threads: usize,
    /// Items attempted and failed over every repetition of the run.
    pub attempted: u64,
    pub failed: u64,
    /// Every simulated number and fingerprint repeated bit for bit.
    pub repeatable: bool,
    /// Filled by the end-to-end pass (tracing off).
    pub end_to_end: Values,
    /// Filled by the traced pass, except the exact counts, which every
    /// pass knows.
    pub per_layer: Values,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.repeatable
    }

    /// The full record, one JSON object on one line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let values = |vs: &Values| {
            let members: Vec<String> = vs
                .iter()
                .map(|(name, s)| {
                    let unit = metrics::find(name).map_or("", |d| d.unit);
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"min\": {}, \
                         \"max\": {}, \"samples\": {}}}",
                        number(s.median),
                        number(s.min),
                        number(s.max),
                        s.samples
                    )
                })
                .collect();
            format!("{{{}}}", members.join(", "))
        };
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"pool_threads\": {}, \"attempted\": {}, \
             \"failed\": {}, \"repeatable\": {}, \"end_to_end\": {}, \"per_layer\": {}, \
             \"notes\": [{}]}}",
            self.workload,
            self.seed,
            self.pool_threads,
            self.attempted,
            self.failed,
            self.repeatable,
            values(&self.end_to_end),
            values(&self.per_layer),
            notes.join(", ")
        )
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed` and
    /// `metrics` — every bounded end-to-end metric after an untraced run,
    /// every `per_layer` metric of `BENCHMARK.json` after a traced one. A
    /// metric this workload does not have (a layer it never enters, a
    /// probe not run) reads 0.
    #[must_use]
    pub fn contract_line(&self, traced: bool) -> String {
        let lookup = |name: &str| {
            self.end_to_end
                .iter()
                .chain(&self.per_layer)
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, s)| s.median)
        };
        let names: Vec<&metrics::MetricDef> = if traced {
            contract_per_layer().collect()
        } else {
            CONTRACT_END_TO_END
                .iter()
                .map(|n| metrics::find(n).expect("registered"))
                .collect()
        };
        let members: Vec<String> = names
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    number(lookup(d.name)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        )
    }
}

/// A record as a reader wants it: every metric by name with its unit, one
/// per line, the median first and min, max and sample count beside it.
#[must_use]
pub fn text_of(record: &Json) -> String {
    let mut out = String::new();
    let name = record.get("workload").and_then(Json::str).unwrap_or("?");
    let num = |key: &str| record.get(key).and_then(Json::num).unwrap_or(f64::NAN);
    let _ = write!(
        out,
        "== {name} (seed {}, MSORT_POOL_THREADS={}",
        num("seed"),
        num("pool_threads")
    );
    if let Some(def) = metrics::workload(name) {
        let _ = write!(out, ", item = {}) ==\n   {}", def.item, def.why);
    }
    out.push('\n');
    for note in record.get("notes").map_or(&[][..], Json::items) {
        let _ = writeln!(out, "   note: {}", note.str().unwrap_or(""));
    }
    for (title, section) in [("end to end", "end_to_end"), ("per layer", "per_layer")] {
        let members = record.get(section).map_or(&[][..], Json::members);
        if members.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  {title}:");
        for (metric, v) in members {
            let field = |f: &str| v.get(f).and_then(Json::num).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::str).unwrap_or("");
            let _ = write!(out, "    {metric:<32} {:>16} {unit}", short(field("value")));
            if field("samples") > 1.0 {
                let _ = write!(
                    out,
                    "   (min {} max {} n={})",
                    short(field("min")),
                    short(field("max")),
                    field("samples")
                );
            }
            out.push('\n');
        }
    }
    let _ = writeln!(
        out,
        "  items attempted {} failed {}; simulated results repeat: {}",
        num("attempted"),
        num("failed"),
        record.get("repeatable") == Some(&Json::Bool(true))
    );
    out
}

/// Six significant digits for the tables; the JSON keeps them all.
#[must_use]
pub fn short(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v}")
    } else if v.abs() >= 1e5 {
        format!("{v:.0}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{single, summarize};
    use msort_trace::json_valid;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "kernels",
            seed: 3,
            pool_threads: 1,
            attempted: 96,
            failed: 0,
            repeatable: true,
            end_to_end: vec![
                ("wall_s", summarize(&[1.25, 1.5, 1.0])),
                ("setup_s", single(0.3)),
            ],
            per_layer: vec![("cpu.paradis_8m_mkeys_s", single(41.5))],
            notes: vec!["a \"quoted\" note".to_string()],
        }
    }

    #[test]
    fn json_record_is_valid_and_reads_back() {
        let text = sample().to_json();
        assert!(json_valid(&text) && !text.contains('\n'));
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.get("workload").unwrap().str(), Some("kernels"));
        let names: Vec<&str> = j
            .get("end_to_end")
            .unwrap()
            .members()
            .iter()
            .map(|m| m.0.as_str())
            .collect();
        assert_eq!(names, ["wall_s", "setup_s"]);
        let wall = j.get("end_to_end").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit").unwrap().str(), Some("s"));
        assert_eq!(wall.get("min").unwrap().num(), Some(1.0));
        assert_eq!(wall.get("samples").unwrap().num(), Some(3.0));
    }

    #[test]
    fn text_names_every_metric_with_its_unit() {
        let text = text_of(&Json::parse(&sample().to_json()).unwrap());
        assert!(text.contains("== kernels (seed 3, MSORT_POOL_THREADS=1, item = kernel call)"));
        assert!(text.contains("wall_s") && text.contains("1.25000 s   (min 1 max 1.50000 n=3)"));
        assert!(text.contains("cpu.paradis_8m_mkeys_s") && text.contains("41.5000 Mkeys/s"));
        assert!(text.contains("note: a \"quoted\" note"));
    }

    #[test]
    fn contract_line_has_exactly_the_listed_metrics() {
        for traced in [false, true] {
            let line = sample().contract_line(traced);
            let j = Json::parse(&line).unwrap();
            let keys: Vec<&str> = j.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let got: Vec<&str> = j
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = if traced {
                contract_per_layer().map(|d| d.name).collect()
            } else {
                CONTRACT_END_TO_END.to_vec()
            };
            assert_eq!(got, want);
            for (name, v) in j.get("metrics").unwrap().members() {
                let unit = v.get("unit").and_then(Json::str).unwrap();
                assert_eq!(unit, metrics::find(name).unwrap().unit, "{name}");
                assert!(v.get("value").and_then(Json::num).is_some());
            }
        }
    }

    #[test]
    fn table_numbers_keep_six_digits() {
        assert_eq!(short(1.234_567_89), "1.23457");
        assert_eq!(short(0.001_234_567), "0.00123457");
        assert_eq!(short(123_456.7), "123457");
        assert_eq!(short(42.0), "42");
    }
}
