//! Chrome trace-event export of a [`TraceData`].
//!
//! The output loads in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! each track **group** becomes a process (named via `process_name`
//! metadata), each track a thread within it, so one file shows GPU
//! streams, link-utilization counters, fault instants, flow lifetimes,
//! and per-tenant job spans side by side. Timestamps are microseconds of
//! simulated time with nanosecond precision (three decimals).
//!
//! All strings pass through [`crate::json_escape`]; the output is always
//! valid RFC 8259 JSON (certified by [`crate::json_valid`] in the tests).

use crate::json::json_escape;
use crate::recorder::{ArgValue, EventKind, TraceData};
use std::fmt::Write as _;

/// A finite JSON number for `v` (non-finite values clamp to 0, keeping
/// the output parseable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn write_args(out: &mut String, args: &[(String, ArgValue)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(", \"args\": {");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": ", json_escape(k));
        match v {
            ArgValue::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(f) => out.push_str(&json_f64(*f)),
        }
    }
    out.push('}');
}

/// Render a recording as one unified Chrome trace-event JSON document.
#[must_use]
pub fn chrome_trace(data: &TraceData) -> String {
    // Processes = track groups in first-use order; threads = tracks.
    let mut pids: Vec<&str> = Vec::new();
    for t in &data.tracks {
        if !pids.contains(&t.group.as_str()) {
            pids.push(&t.group);
        }
    }
    let pid_of = |group: &str| pids.iter().position(|g| *g == group).unwrap();

    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };

    for (pid, group) in pids.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}},\n  \
             {{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"sort_index\": {pid}}}}}",
            json_escape(group),
        );
    }
    for (tid, t) in data.tracks.iter().enumerate() {
        sep(&mut out);
        let pid = pid_of(&t.group);
        let _ = write!(
            out,
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}},\n  \
             {{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"sort_index\": {tid}}}}}",
            json_escape(&t.name),
        );
    }

    for e in &data.events {
        let track = data.track(e.track);
        let pid = pid_of(&track.group);
        let tid = e.track.0;
        let name = json_escape(&e.name);
        let cat = json_escape(&e.cat);
        let ts = e.kind.start_ns() as f64 / 1e3;
        sep(&mut out);
        match e.kind {
            EventKind::Span { start_ns, end_ns } => {
                let dur = end_ns.saturating_sub(start_ns) as f64 / 1e3;
                let _ = write!(
                    out,
                    "  {{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \
                     \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"pid\": {pid}, \"tid\": {tid}"
                );
            }
            EventKind::Instant { .. } => {
                let _ = write!(
                    out,
                    "  {{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {ts:.3}, \"pid\": {pid}, \"tid\": {tid}"
                );
            }
            EventKind::Counter { value, .. } => {
                let _ = write!(
                    out,
                    "  {{\"name\": \"{name}\", \"ph\": \"C\", \"ts\": {ts:.3}, \
                     \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"value\": {}}}}}",
                    json_f64(value),
                );
                continue;
            }
            EventKind::AsyncBegin { id, .. }
            | EventKind::AsyncInstant { id, .. }
            | EventKind::AsyncEnd { id, .. } => {
                let ph = match e.kind {
                    EventKind::AsyncBegin { .. } => 'b',
                    EventKind::AsyncInstant { .. } => 'n',
                    _ => 'e',
                };
                let _ = write!(
                    out,
                    "  {{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"{ph}\", \
                     \"id\": {id}, \"ts\": {ts:.3}, \"pid\": {pid}, \"tid\": {tid}"
                );
            }
        }
        write_args(&mut out, &e.args);
        out.push('}');
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::json_valid;
    use crate::recorder::{groups, Recorder};

    fn sample() -> TraceData {
        let rec = Recorder::new();
        let s0 = rec.track(groups::GPU, "stream 0");
        let link = rec.track(groups::LINKS, "utilization");
        let flows = rec.track(groups::FLOWS, "flows");
        let t0 = rec.track(&groups::tenant(0), "job 0 (P2P sort)");
        rec.span(s0, "gpu sort", "sort", 1_000, 5_500);
        rec.span_args(
            t0,
            "job",
            "job",
            0,
            9_000,
            vec![
                ("tenant".into(), ArgValue::U64(0)),
                ("gang".into(), ArgValue::Str("0,1".into())),
                ("share".into(), ArgValue::F64(0.5)),
            ],
        );
        rec.counter(link, "GPU 0 ⇄ GPU 1", 2_000, 0.75);
        rec.instant(
            rec.track(groups::FAULTS, "fabric"),
            "link down",
            "fault",
            3_000,
        );
        rec.async_begin(flows, "flow", "flow", 7, 1_500, Vec::new());
        rec.async_instant(
            flows,
            "rate",
            "flow",
            7,
            2_000,
            vec![("gbps".into(), ArgValue::F64(25.0))],
        );
        rec.async_end(flows, "flow", "flow", 7, 4_000);
        rec.snapshot().unwrap()
    }

    #[test]
    fn exporter_emits_valid_json() {
        let json = chrome_trace(&sample());
        assert!(json_valid(&json), "invalid JSON:\n{json}");
        assert!(json_valid(&chrome_trace(&TraceData::default())));
    }

    #[test]
    fn exporter_covers_all_event_shapes_and_metadata() {
        let json = chrome_trace(&sample());
        for needle in [
            "\"ph\": \"X\"",
            "\"ph\": \"i\"",
            "\"ph\": \"C\"",
            "\"ph\": \"b\"",
            "\"ph\": \"n\"",
            "\"ph\": \"e\"",
            "\"ph\": \"M\"",
            "\"process_name\"",
            "\"thread_name\"",
            "gpu streams",
            "tenant0",
            "GPU 0 ⇄ GPU 1",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // ts/dur are microseconds: the 4500 ns span renders as 4.500.
        assert!(json.contains("\"dur\": 4.500"));
    }

    #[test]
    fn exporter_escapes_hostile_names() {
        let rec = Recorder::new();
        let t = rec.track("g\"roup\\", "tr\nack");
        rec.span_args(
            t,
            "na\"me",
            "c\\at",
            0,
            1,
            vec![("k\"ey".into(), ArgValue::Str("v\nal".into()))],
        );
        let json = chrome_trace(&rec.snapshot().unwrap());
        assert!(json_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("na\\\"me"));
    }

    #[test]
    fn non_finite_counter_values_stay_parseable() {
        let rec = Recorder::new();
        let t = rec.track(groups::LINKS, "utilization");
        rec.counter(t, "x", 0, f64::NAN);
        rec.counter(t, "x", 1, f64::INFINITY);
        let json = chrome_trace(&rec.snapshot().unwrap());
        assert!(json_valid(&json), "invalid JSON:\n{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}
