//! End-to-end observability: one multi-tenant serve run under an injected
//! fault plan must produce a single coherent recording fed by every layer
//! — GPU op spans, link-utilization counters, flow lifecycles, fault
//! instants, and per-tenant job spans — and recording must be purely
//! observational (the service report is bit-identical with the recorder
//! on and off).

use multi_gpu_sort::prelude::*;
use multi_gpu_sort::trace::{groups, EventKind, TraceData};

const SCALE: u64 = 64;

/// Three tenants, three algorithms, staggered arrivals — enough overlap
/// that jobs queue behind each other on the 4-GPU fleet.
fn arrivals() -> Vec<(SimTime, SortJob)> {
    let mut jobs = Vec::new();
    for i in 0..3u64 {
        jobs.push((
            SimTime::ZERO,
            SortJob::new(TenantId(0), 1 << 18).with_gpus(4).with_seed(i),
        ));
        jobs.push((
            SimTime::ZERO + SimDuration::from_micros(200 * i),
            SortJob::new(TenantId(1), 1 << 16)
                .with_algo(JobAlgo::Rp)
                .with_gpus(2)
                .with_seed(100 + i),
        ));
        jobs.push((
            SimTime::ZERO + SimDuration::from_micros(100 * i),
            SortJob::new(TenantId(2), 1 << 14)
                .with_algo(JobAlgo::Het)
                .with_gpus(2)
                .with_dist(Distribution::ReverseSorted)
                .interactive()
                .with_seed(200 + i),
        ));
    }
    jobs
}

fn faults(platform: &Platform) -> FaultPlan {
    // The first link touching GPU 0 (its NVSwitch uplink on the DGX).
    let topo = &platform.topology;
    let gpu0 = topo.gpu(0);
    let link = (0..topo.links().len())
        .map(multi_gpu_sort::topology::LinkId)
        .find(|&l| topo.link(l).a == gpu0 || topo.link(l).b == gpu0)
        .expect("GPU 0 has at least one link");
    FaultPlan::new()
        .link_down(SimTime(200_000), link)
        .link_restore(SimTime(2_000_000), link)
}

fn run(platform: &Platform, recorder: Recorder) -> ServiceReport {
    let config = ServeConfig::new().with_fleet(vec![0, 1, 2, 3]).with_run(
        RunConfig::new()
            .sampled(SCALE)
            .with_faults(faults(platform))
            .with_recorder(recorder),
    );
    SortService::<u32>::new(platform, config).serve(TraceWorkload::new(arrivals()))
}

/// Spans on one track must nest: sorted by (start, -end), every span is
/// either disjoint from or fully contained in the enclosing open one.
fn assert_well_nested(data: &TraceData) {
    let mut by_track: Vec<Vec<(u64, u64)>> = vec![Vec::new(); data.tracks.len()];
    for e in &data.events {
        if let EventKind::Span { start_ns, end_ns } = e.kind {
            assert!(end_ns >= start_ns, "span {} ends before it starts", e.name);
            by_track[e.track.0 as usize].push((start_ns, end_ns));
        }
    }
    for (t, mut spans) in by_track.into_iter().enumerate() {
        spans.sort_by_key(|&(s, e)| (s, std::cmp::Reverse(e)));
        let mut open: Vec<(u64, u64)> = Vec::new();
        for (s, e) in spans {
            while matches!(open.last(), Some(&(_, oe)) if oe <= s) {
                open.pop();
            }
            if let Some(&(os, oe)) = open.last() {
                assert!(
                    os <= s && e <= oe,
                    "track '{}': span [{s}, {e}] straddles [{os}, {oe}]",
                    data.tracks[t].name
                );
            }
            open.push((s, e));
        }
    }
}

#[test]
fn serve_run_records_every_layer() {
    let dgx = Platform::dgx_a100();
    let recorder = Recorder::new();
    let report = run(&dgx, recorder.clone());
    assert_eq!(report.outcomes.len(), 9);
    assert!(report.all_validated());

    let data = recorder.snapshot().expect("recorder is enabled");

    // GPU layer: op spans on per-stream tracks, covering compute and
    // copies.
    let gpu_spans: Vec<_> = data
        .events_in_group(groups::GPU)
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .collect();
    assert!(!gpu_spans.is_empty(), "no GPU op spans recorded");
    assert!(gpu_spans.iter().any(|e| e.name == "gpu sort"));
    assert!(gpu_spans.iter().any(|e| e.name.contains("copy")));
    // A stream runs its ops one at a time, and a recycled stream slot opens
    // only after its last owner's ops are done, so the spans on a "stream N"
    // track never overlap, however many jobs' streams the slot served.
    let mut by_stream: Vec<Vec<(u64, u64)>> = vec![Vec::new(); data.tracks.len()];
    for e in &gpu_spans {
        if let EventKind::Span { start_ns, end_ns } = e.kind {
            if data.track(e.track).name.starts_with("stream ") {
                by_stream[e.track.0 as usize].push((start_ns, end_ns));
            }
        }
    }
    assert!(by_stream.iter().any(|spans| !spans.is_empty()));
    for (t, mut spans) in by_stream.into_iter().enumerate() {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "track '{}': spans {:?} and {:?} overlap",
                data.tracks[t].name,
                w[0],
                w[1]
            );
        }
    }

    // FlowSim layer: link-utilization counter samples, and at least one
    // link actually used.
    let counters: Vec<_> = data
        .events_in_group(groups::LINKS)
        .filter_map(|e| match e.kind {
            EventKind::Counter { value, .. } => Some(value),
            _ => None,
        })
        .collect();
    assert!(
        !counters.is_empty(),
        "no link-utilization counters recorded"
    );
    assert!(counters.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
    assert!(counters.iter().any(|&v| v > 0.0), "no link ever utilized");

    // Fault layer: the scheduled down/restore pair shows up as instants.
    let fault_names: Vec<_> = data
        .events_in_group(groups::FAULTS)
        .map(|e| e.name.as_str())
        .collect();
    assert!(fault_names.contains(&"link down"));
    assert!(fault_names.contains(&"link restored"));

    // Flow layer: async transfer lifetimes begin and end.
    assert!(data
        .events_in_group(groups::FLOWS)
        .any(|e| matches!(e.kind, EventKind::AsyncBegin { .. })));
    assert!(data
        .events_in_group(groups::FLOWS)
        .any(|e| matches!(e.kind, EventKind::AsyncEnd { .. })));

    // Serve layer: every tenant got a track group, every job a "job",
    // "executing", and "validated" event; queue-wait shows up because the
    // fleet saturates.
    for tenant in 0..3u32 {
        let group = groups::tenant(tenant);
        let jobs = data
            .events_in_group(&group)
            .filter(|e| e.name == "job")
            .count();
        assert_eq!(jobs, 3, "tenant{tenant} job spans");
        assert!(data
            .events_in_group(&group)
            .any(|e| e.name == "validated" && matches!(e.kind, EventKind::Instant { .. })));
        assert!(data
            .events_in_group(&group)
            .any(|e| e.name == "placed" && matches!(e.kind, EventKind::Instant { .. })));
    }
    let metrics = summarize(&data);
    assert_eq!(metrics.jobs, 9);
    assert!(metrics.queue_wait_ns > 0, "saturated fleet must queue jobs");
    assert!(metrics.service_ns > 0);
    assert!(!metrics.links.is_empty());
    assert!(json_valid(&metrics.to_json()));

    // Span trees nest on every track, and the unified exporter emits
    // RFC 8259-valid JSON for the whole recording.
    assert_well_nested(&data);
    let trace = chrome_trace(&data);
    assert!(json_valid(&trace), "unified Chrome trace is not valid JSON");
    assert!(trace.contains("\"ph\": \"C\""), "missing counter events");
    assert!(trace.contains("\"ph\": \"X\""), "missing span events");
    assert!(trace.contains("\"ph\": \"i\""), "missing instant events");
}

#[test]
fn recording_is_purely_observational() {
    let dgx = Platform::dgx_a100();
    let with_recorder = run(&dgx, Recorder::new());
    let without = run(&dgx, Recorder::disabled());
    // ServiceReport is PartialEq over every outcome timestamp, so this
    // pins bit-identical clocks, not just equal counts.
    assert_eq!(
        with_recorder, without,
        "attaching a recorder changed the simulation"
    );
}
