//! The benchmark's own host-time spans, recorded around the calls into
//! each layer's public functions.
//!
//! Spans go through `msort_trace::Recorder` (timestamps are host
//! nanoseconds since the `Spans` was created, not simulated time) so the
//! trace file is written by `msort_trace::chrome_trace`, the exporter the
//! program already has. All spans of one workload share one track: the
//! benchmark calls the program from a single thread, so spans nest.

use msort_trace::{EventKind, Recorder, TraceData, TrackId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Track group of the benchmark's spans in the trace file.
pub const GROUP: &str = "perf host time";

/// A span sink that is either recording or a no-op.
pub struct Spans {
    rec: Recorder,
    track: TrackId,
    origin: Instant,
}

impl Spans {
    /// No spans: [`Spans::time`] just calls the closure.
    #[must_use]
    pub fn off() -> Self {
        Self::with(Recorder::disabled(), "")
    }

    /// Record spans on a track named after `workload`.
    #[must_use]
    pub fn on(workload: &str) -> Self {
        Self::with(Recorder::new(), workload)
    }

    fn with(rec: Recorder, workload: &str) -> Self {
        let track = rec.track(GROUP, workload);
        Self {
            rec,
            track,
            origin: Instant::now(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.rec.is_enabled() {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        self.rec
            .span(self.track, name, "host", start, self.now_ns());
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far; `None` when off.
    #[must_use]
    pub fn data(&self) -> Option<TraceData> {
        self.rec.snapshot()
    }
}

/// Self time and call count of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub calls: u64,
}

/// Per span name: the summed self time — each span's duration minus the
/// part of that interval its child spans cover — and the number of spans.
#[must_use]
pub fn self_times(data: &TraceData) -> BTreeMap<String, SelfTime> {
    // (start, end, emission index, name)
    let mut spans: Vec<(u64, u64, usize, &str)> = data
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            EventKind::Span { start_ns, end_ns } => Some((start_ns, end_ns, i, e.name.as_str())),
            _ => None,
        })
        .collect();
    // Parents before children: earlier start, then later end; a parent
    // closes after its child, so on a full tie the later emission is the
    // parent.
    spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(b.2.cmp(&a.2)));

    struct Open<'a> {
        name: &'a str,
        start: u64,
        end: u64,
        /// Summed duration of direct children (they never overlap: the
        /// benchmark calls the program from one thread).
        covered: u64,
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    let mut close = |o: Open<'_>| {
        let entry = out.entry(o.name.to_string()).or_default();
        entry.self_ns += (o.end - o.start).saturating_sub(o.covered);
        entry.calls += 1;
    };
    let mut stack: Vec<Open<'_>> = Vec::new();
    for (start, end, _, name) in spans {
        while stack.last().is_some_and(|top| top.end <= start) {
            close(stack.pop().expect("checked non-empty"));
        }
        if let Some(parent) = stack.last_mut() {
            parent.covered += end - start;
        }
        stack.push(Open {
            name,
            start,
            end,
            covered: 0,
        });
    }
    while let Some(o) = stack.pop() {
        close(o);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let rec = Recorder::new();
        let t = rec.track(GROUP, "w");
        // Children are emitted before the parent that encloses them.
        rec.span(t, "grandchild", "host", 20, 30);
        rec.span(t, "child", "host", 10, 40);
        rec.span(t, "child", "host", 50, 70);
        rec.span(t, "rep", "host", 0, 100);
        rec.span(t, "after", "host", 100, 130);
        let st = self_times(&rec.snapshot().unwrap());
        assert_eq!(
            st["rep"],
            SelfTime {
                self_ns: 50,
                calls: 1
            }
        );
        assert_eq!(
            st["child"],
            SelfTime {
                self_ns: 40,
                calls: 2
            }
        );
        assert_eq!(st["grandchild"].self_ns, 10);
        assert_eq!(st["after"].self_ns, 30);
        // Self times of a tree sum to the root's duration.
        let inside: u64 = ["rep", "child", "grandchild"]
            .iter()
            .map(|n| st[*n].self_ns)
            .sum();
        assert_eq!(inside, 100);
    }

    #[test]
    fn off_records_nothing_and_still_runs_the_closure() {
        let s = Spans::off();
        assert_eq!(s.time("x", || 7), 7);
        assert!(s.data().is_none());
        let s = Spans::on("w");
        assert_eq!(s.time("outer", || s.time("inner", || 3)), 3);
        let st = self_times(&s.data().unwrap());
        assert_eq!(st["outer"].calls, 1);
        assert_eq!(st["inner"].calls, 1);
    }
}
