//! The execution timeline as data.
//!
//! Every simulated run leaves a complete record of which operation ran
//! when, on which stream; [`GpuSystem::timeline`] exposes it. To *view* a
//! run, attach a [`msort_trace::Recorder`] and export the unified
//! Chrome/Perfetto trace with [`msort_trace::chrome_trace`].

use crate::system::{GpuSystem, Phase};
use msort_data::SortKey;
use msort_sim::SimTime;

/// One completed operation in the timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Display name ("HtoD copy", "gpu sort", ...).
    pub name: &'static str,
    /// The phase the operation was tagged with.
    pub phase: Phase,
    /// Stream index the operation ran on.
    pub stream: usize,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Phase {
    /// Short display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::HtoD => "HtoD",
            Phase::DtoH => "DtoH",
            Phase::Sort => "sort",
            Phase::Merge => "merge",
            Phase::Partition => "partition",
            Phase::Other => "other",
        }
    }

    /// Inverse of [`Phase::label`] (tooling that filters traces by the
    /// `cat` field parses labels back).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "HtoD" => Some(Phase::HtoD),
            "DtoH" => Some(Phase::DtoH),
            "sort" => Some(Phase::Sort),
            "merge" => Some(Phase::Merge),
            "partition" => Some(Phase::Partition),
            "other" => Some(Phase::Other),
            _ => None,
        }
    }
}

impl<K: SortKey> GpuSystem<'_, K> {
    /// The completed-operation timeline, ordered by start time.
    #[must_use]
    pub fn timeline(&self) -> Vec<TimelineEntry> {
        let mut entries = self.timeline_entries();
        entries.sort_by_key(|e| (e.start, e.stream));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Fidelity;
    use msort_sim::GpuSortAlgo;
    use msort_topology::Platform;

    #[test]
    fn timeline_records_all_ops() {
        let p = Platform::test_pcie(1);
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
        let h = sys.world_mut().import_host(0, vec![3u32, 1, 2, 0], 4);
        let d = sys.world_mut().alloc_gpu(0, 4);
        let aux = sys.world_mut().alloc_gpu(0, 4);
        let s = sys.stream();
        let up = sys.memcpy(s, h, 0, d, 0, 4, &[], Phase::HtoD);
        let so = sys.gpu_sort(s, GpuSortAlgo::ThrustLike, d, (0, 4), aux, &[up]);
        sys.memcpy(s, d, 0, h, 0, 4, &[so], Phase::DtoH);
        sys.synchronize();

        let timeline = sys.timeline();
        assert_eq!(timeline.len(), 3);
        assert!(timeline.windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(timeline[0].phase, Phase::HtoD);
        assert_eq!(timeline[1].phase, Phase::Sort);
        assert_eq!(timeline[2].phase, Phase::DtoH);
        for e in &timeline {
            assert!(e.end >= e.start);
        }
    }

    // The build is offline (no serde_json), so trace output is certified
    // by the in-tree RFC 8259 recognizer, shared from `msort-trace` since
    // the unified exporter's tests need it too.
    use msort_trace::json_valid;

    /// A multi-stream workload whose timeline the remaining tests verify.
    fn traced_system(p: &Platform) -> GpuSystem<'_, u32> {
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(p, Fidelity::Full);
        let n: u64 = 1 << 12;
        let h = sys
            .world_mut()
            .import_host(0, (0..n as u32).rev().collect(), n);
        let d0 = sys.world_mut().alloc_gpu(0, n);
        let a0 = sys.world_mut().alloc_gpu(0, n);
        let d1 = sys.world_mut().alloc_gpu(1, n);
        let s0 = sys.stream();
        let s1 = sys.stream();
        let up0 = sys.memcpy(s0, h, 0, d0, 0, n, &[], Phase::HtoD);
        let so = sys.gpu_sort(s0, GpuSortAlgo::ThrustLike, d0, (0, n), a0, &[up0]);
        sys.memcpy(s1, h, 0, d1, 0, n, &[], Phase::HtoD);
        sys.memcpy(s1, d0, 0, d1, 0, n, &[so], Phase::Merge);
        sys.memcpy(s0, d0, 0, h, 0, n, &[so], Phase::DtoH);
        sys.synchronize();
        sys
    }

    #[test]
    fn recorder_mirrors_the_op_timeline() {
        use msort_trace::{groups, EventKind, Recorder};
        let p = Platform::test_pcie(2);
        let rec = Recorder::new();
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
        sys.set_recorder(rec.clone());
        assert!(sys.recorder().is_enabled());
        let sys = {
            // Same workload as `traced_system`, on the recorder-attached
            // system.
            let n: u64 = 1 << 12;
            let h = sys
                .world_mut()
                .import_host(0, (0..n as u32).rev().collect(), n);
            let d0 = sys.world_mut().alloc_gpu(0, n);
            let a0 = sys.world_mut().alloc_gpu(0, n);
            let d1 = sys.world_mut().alloc_gpu(1, n);
            let s0 = sys.stream();
            let s1 = sys.stream();
            let up0 = sys.memcpy(s0, h, 0, d0, 0, n, &[], Phase::HtoD);
            let so = sys.gpu_sort(s0, GpuSortAlgo::ThrustLike, d0, (0, n), a0, &[up0]);
            sys.memcpy(s1, h, 0, d1, 0, n, &[], Phase::HtoD);
            sys.memcpy(s1, d0, 0, d1, 0, n, &[so], Phase::Merge);
            sys.memcpy(s0, d0, 0, h, 0, n, &[so], Phase::DtoH);
            sys.synchronize();
            sys
        };
        let data = rec.snapshot().unwrap();
        // Every timeline entry has a matching span on its stream's track.
        let timeline = sys.timeline();
        let spans: Vec<_> = data
            .events_in_group(groups::GPU)
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .collect();
        assert_eq!(spans.len(), timeline.len());
        for e in &timeline {
            assert!(
                spans.iter().any(|s| {
                    s.name == e.name
                        && s.cat == e.phase.label()
                        && s.kind
                            == EventKind::Span {
                                start_ns: e.start.0,
                                end_ns: e.end.0,
                            }
                        && data.track(s.track).name == format!("stream {}", e.stream)
                }),
                "timeline entry {e:?} missing from the recording"
            );
        }
        // The unified exporter renders it as valid JSON.
        assert!(json_valid(&msort_trace::chrome_trace(&data)));
    }

    #[test]
    fn per_stream_entries_monotonic_and_non_overlapping() {
        let p = Platform::test_pcie(2);
        let sys = traced_system(&p);
        let timeline = sys.timeline();
        assert!(timeline.len() >= 5);
        // Globally ordered by start time.
        assert!(timeline.windows(2).all(|w| w[0].start <= w[1].start));
        // Within one stream ops are serial: ordered and non-overlapping.
        let streams: std::collections::BTreeSet<usize> =
            timeline.iter().map(|e| e.stream).collect();
        for s in streams {
            let ops: Vec<&TimelineEntry> = timeline.iter().filter(|e| e.stream == s).collect();
            for w in ops.windows(2) {
                assert!(
                    w[0].end <= w[1].start,
                    "stream {s}: '{}' [{}, {}] overlaps '{}' [{}, {}]",
                    w[0].name,
                    w[0].start,
                    w[0].end,
                    w[1].name,
                    w[1].start,
                    w[1].end,
                );
            }
        }
    }

    #[test]
    fn phase_labels_round_trip() {
        for phase in [
            Phase::HtoD,
            Phase::DtoH,
            Phase::Sort,
            Phase::Merge,
            Phase::Partition,
            Phase::Other,
        ] {
            assert_eq!(Phase::from_label(phase.label()), Some(phase));
        }
        assert_eq!(Phase::from_label("bogus"), None);
    }
}
