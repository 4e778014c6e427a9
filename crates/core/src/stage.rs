//! The staged-sort skeleton: everything the sort families share.
//!
//! Every sort the paper evaluates has the same outer shape — scatter the
//! input over the GPUs (usually sorting each chunk as it lands), an
//! algorithm-specific *middle*, gather the result, validate — and is
//! reported in the same four-phase breakdown. [`Staging`] owns that outer
//! shape: the shape asserts, the host staging buffers, tracked streams
//! and device allocations, the scatter and gather copies, the
//! read-output-and-validate finish, idempotent release, phase timestamps,
//! and [`SortReport`] assembly. A family implements
//! [`Middle`] — where its chunks land, its middle one host-synchronized
//! step at a time, where the sorted pieces end up — and [`step`] walks it
//! through the shared sequence; `staged_driver!` turns that into the
//! public [`SortDriver`](crate::SortDriver) impl.

use crate::exec::DriverStep;
use crate::report::{PhaseBreakdown, SortReport};
use msort_data::{is_sorted, SortKey};
use msort_gpu::{BufId, Fidelity, GpuSystem, Location, OpId, Phase, StreamId};
use msort_sim::{GpuSortAlgo, SimDuration, SimTime};

/// What a family tells the skeleton about one sort.
pub(crate) struct Shape {
    /// Report label ("P2P sort", "HET sort (2n + EM)", ...).
    pub label: String,
    /// GPUs used, in the order the report lists them.
    pub order: Vec<usize>,
    /// Transfer lanes: one copy-in, copy-out, and compute stream each (one
    /// lane per GPU; one per node for the cross-node sort).
    pub lanes: usize,
    /// Whether the input splits into one equal chunk per lane (HET plans
    /// its own nearly-equal chunks instead).
    pub even: bool,
    /// Single-GPU primitive for the scatter's local sorts.
    pub algo: GpuSortAlgo,
    /// The fidelity the family's config asks for.
    pub fidelity: Fidelity,
    /// NUMA socket staging the input and output.
    pub home_socket: usize,
}

/// One chunk of the scatter: `len` keys at `off` of the input land in
/// `dst` over lane `slot`; with `aux` (sort scratch) the chunk sorts there.
pub(crate) struct Piece {
    pub slot: usize,
    pub off: u64,
    pub len: u64,
    pub dst: BufId,
    pub aux: Option<BufId>,
}

/// One piece of the gather: `len` sorted keys in `buf`, leaving over lane
/// `slot`.
#[derive(Clone, Copy)]
pub(crate) struct Source {
    pub slot: usize,
    pub buf: BufId,
    pub len: u64,
}

/// Where a staged driver is in the shared phase sequence.
enum Stage {
    /// Nothing enqueued yet.
    Start,
    /// Phase 1 enqueued; the next step stamps its end.
    Scattered,
    /// Inside the family's middle.
    Middle,
    /// Gather enqueued; the next step reads the output.
    Gathering,
    /// Output read; nothing left to do.
    Finished,
}

/// The state every staged sort shares. See the [module docs](self).
pub(crate) struct Staging<K: SortKey> {
    label: String,
    pub order: Vec<usize>,
    pub algo: GpuSortAlgo,
    pub logical_len: u64,
    /// Keys per lane (`logical_len / lanes`).
    pub chunk: u64,
    pub scale: u64,
    pub host_in: BufId,
    pub host_out: BufId,
    pub copy_in: Vec<StreamId>,
    pub copy_out: Vec<StreamId>,
    pub compute: Vec<StreamId>,
    /// Host-side work: pivot/splitter selection latency, CPU merges.
    pub host_stream: StreamId,
    /// Every buffer allocated through the skeleton, for [`Self::release`].
    owned: Vec<BufId>,
    /// Every stream opened through the skeleton (the lanes' and the
    /// middle's one-shot ones), for [`Self::release`].
    streams: Vec<StreamId>,
    stage: Stage,
    /// First step.
    pub t0: SimTime,
    /// Phase 1 drained (first middle step).
    pub t_staged: SimTime,
    /// Middle drained (gather enqueued).
    pub t_middle: SimTime,
    /// Output read.
    pub t_end: SimTime,
    pub htod_ops: Vec<OpId>,
    pub sort_ops: Vec<OpId>,
    pub dtoh_ops: Vec<OpId>,
    /// Keys that crossed between GPUs (or nodes) in the middle.
    pub swapped_keys: u64,
    /// Largest receive partition, for the partitioning families.
    pub max_partition_keys: u64,
    reroutes_at_start: u64,
    output: Option<Vec<K>>,
    validated: bool,
    released: bool,
}

impl<K: SortKey> Staging<K> {
    /// Import `data` (physical payload for `logical_len` keys) on the home
    /// socket, allocate the output buffer, and create the lanes' streams.
    ///
    /// # Panics
    /// Panics if `shape.fidelity` disagrees with the system's, or if an
    /// even split does not divide `logical_len` into whole samples.
    pub fn new(sys: &mut GpuSystem<'_, K>, shape: Shape, data: Vec<K>, logical_len: u64) -> Self {
        let lanes = shape.lanes;
        let scale = sys.world().scale();
        assert_eq!(
            shape.fidelity.scale(),
            scale,
            "driver fidelity must match the system's"
        );
        assert!(
            !shape.even || logical_len.is_multiple_of(lanes as u64 * scale),
            "input length must divide evenly into {lanes} chunks of whole samples"
        );
        let home = shape.home_socket;
        let host_in = sys.world_mut().import_host(home, data, logical_len);
        let host_out = sys.world_mut().alloc_host(home, logical_len);
        let streams: Vec<StreamId> = (0..3 * lanes + 1).map(|_| sys.stream()).collect();
        let [copy_in, copy_out, compute] =
            [0, 1, 2].map(|k| streams[k * lanes..][..lanes].to_vec());
        Self {
            label: shape.label,
            order: shape.order,
            algo: shape.algo,
            logical_len,
            chunk: logical_len / lanes as u64,
            scale,
            host_in,
            host_out,
            copy_in,
            copy_out,
            compute,
            host_stream: streams[3 * lanes],
            owned: vec![host_in, host_out],
            streams,
            stage: Stage::Start,
            t0: SimTime::ZERO,
            t_staged: SimTime::ZERO,
            t_middle: SimTime::ZERO,
            t_end: SimTime::ZERO,
            htod_ops: Vec::with_capacity(lanes),
            sort_ops: Vec::with_capacity(lanes),
            dtoh_ops: Vec::with_capacity(lanes),
            swapped_keys: 0,
            max_partition_keys: 0,
            reroutes_at_start: sys.rerouted_transfers(),
            output: None,
            validated: false,
            released: false,
        }
    }

    /// Allocate a device buffer that [`Self::release`] will free (the
    /// paper excludes allocation from the timed region, and so do we).
    pub fn alloc_gpu(&mut self, sys: &mut GpuSystem<'_, K>, gpu: usize, len: u64) -> BufId {
        self.alloc(sys, Location::Gpu { index: gpu }, len)
    }

    /// Allocate a host buffer that [`Self::release`] will free.
    pub fn alloc_host(&mut self, sys: &mut GpuSystem<'_, K>, socket: usize, len: u64) -> BufId {
        self.alloc(sys, Location::Host { socket }, len)
    }

    /// Allocate a buffer at `at` that [`Self::release`] will free.
    pub fn alloc(&mut self, sys: &mut GpuSystem<'_, K>, at: Location, len: u64) -> BufId {
        let world = sys.world_mut();
        self.adopt(match at {
            Location::Gpu { index } => world.alloc_gpu(index, len),
            Location::Host { socket } => world.alloc_host(socket, len),
        })
    }

    /// Open a stream that [`Self::release`] will free.
    pub fn stream(&mut self, sys: &mut GpuSystem<'_, K>) -> StreamId {
        let stream = sys.stream();
        self.streams.push(stream);
        stream
    }

    /// Hand `buf` to the skeleton to free on release.
    pub fn adopt(&mut self, buf: BufId) -> BufId {
        self.owned.push(buf);
        buf
    }

    /// Enqueue one chunk's HtoD copy and, when the piece carries sort
    /// scratch, its local sort behind it. Returns the op after which the
    /// chunk is ready.
    pub fn scatter(
        &mut self,
        sys: &mut GpuSystem<'_, K>,
        piece: &Piece,
        copy_waits: &[OpId],
        sort_waits: &[OpId],
    ) -> OpId {
        let &Piece { slot, len, dst, .. } = piece;
        let (stream, src) = (self.copy_in[slot], self.host_in);
        let up = sys.memcpy(stream, src, piece.off, dst, 0, len, copy_waits, Phase::HtoD);
        self.htod_ops.push(up);
        let Some(aux) = piece.aux else {
            return up;
        };
        let waits = [&[up], sort_waits].concat();
        let so = sys.gpu_sort(self.compute[slot], self.algo, dst, (0, len), aux, &waits);
        self.sort_ops.push(so);
        so
    }

    /// The in-core phase 1: lane `i`'s equal chunk lands in `landing[i].0`
    /// and sorts there when `landing[i].1` provides scratch.
    pub fn scatter_chunks(
        &mut self,
        sys: &mut GpuSystem<'_, K>,
        landing: impl IntoIterator<Item = (BufId, Option<BufId>)>,
    ) -> Vec<OpId> {
        let len = self.chunk;
        landing
            .into_iter()
            .enumerate()
            .map(|(slot, (dst, aux))| {
                let piece = Piece {
                    slot,
                    off: slot as u64 * len,
                    len,
                    dst,
                    aux,
                };
                self.scatter(sys, &piece, &[], &[])
            })
            .collect()
    }

    /// Enqueue one DtoH copy of `source` to `to` (host buffer, offset).
    pub fn gather(
        &mut self,
        sys: &mut GpuSystem<'_, K>,
        source: Source,
        to: (BufId, u64),
        waits: &[OpId],
    ) -> OpId {
        let (stream, len) = (self.copy_out[source.slot], source.len);
        let op = sys.memcpy(stream, source.buf, 0, to.0, to.1, len, waits, Phase::DtoH);
        self.dtoh_ops.push(op);
        op
    }

    /// Read the output buffer and check it. A failed check is reported,
    /// not hidden: the payload is still handed out.
    pub fn finish(&mut self, sys: &GpuSystem<'_, K>) -> DriverStep {
        self.t_end = sys.now();
        let output = sys.world().buffer(self.host_out).data.clone();
        self.validated = is_sorted(&output);
        self.output = Some(output);
        self.stage = Stage::Finished;
        DriverStep::Done
    }

    /// `true` once [`Self::finish`] ran.
    pub fn finished(&self) -> bool {
        matches!(self.stage, Stage::Finished)
    }

    pub fn take_output(&mut self) -> Vec<K> {
        self.output
            .take()
            .unwrap_or_else(|| panic!("{} has not finished", self.label))
    }

    pub fn validated(&self) -> bool {
        self.validated
    }

    /// Free every buffer and stream the skeleton tracks, so that their
    /// slots go to the next job. Freeing an already freed handle is a no-op
    /// (the handle's generation is stale), so buffers a middle freed
    /// mid-run are safe to free again; the slot's next tenant is untouched.
    ///
    /// # Panics
    /// Panics if an op on one of the streams is still pending.
    pub fn release(&mut self, sys: &mut GpuSystem<'_, K>) {
        if std::mem::replace(&mut self.released, true) {
            return;
        }
        for &buf in &self.owned {
            sys.world_mut().free(buf);
        }
        for &stream in &self.streams {
            sys.free_stream(stream);
        }
    }

    /// The in-core attribution shared by P2P, RP, and multiway mergesort:
    /// phase 1's copies and sorts overlap per GPU, so its window splits by
    /// this job's own busy times (the system may be shared); the middle
    /// and the gather are strictly sequential.
    pub fn four_phases(&self, sys: &GpuSystem<'_, K>) -> PhaseBreakdown {
        let busy = [&self.htod_ops, &self.sort_ops].map(|ops| sys.ops_busy(ops));
        let [htod, sort] = split_by_busy(self.t_staged.since(self.t0), busy);
        PhaseBreakdown {
            htod,
            sort,
            merge: self.t_middle.since(self.t_staged),
            dtoh: self.t_end.since(self.t_middle),
        }
    }

    /// Assemble the per-job report around the family's phase attribution.
    pub fn report(&self, sys: &GpuSystem<'_, K>, phases: PhaseBreakdown) -> SortReport {
        SortReport {
            algorithm: self.label.clone(),
            platform: sys.platform().id.name().into(),
            gpus: self.order.clone(),
            keys: self.logical_len,
            bytes: self.logical_len * K::DATA_TYPE.key_bytes(),
            total: self.t_end.since(self.t0),
            phases,
            validated: self.validated,
            p2p_swapped_keys: self.swapped_keys,
            rerouted_transfers: sys.rerouted_transfers() - self.reroutes_at_start,
            max_partition_keys: self.max_partition_keys,
            inter_node: SimDuration::ZERO,
        }
    }
}

/// A driver that keeps a [`Staging`] (`staged_driver!` implements this).
pub(crate) trait Staged<K: SortKey> {
    fn staging(&self) -> &Staging<K>;
    fn staging_mut(&mut self) -> &mut Staging<K>;
}

/// A sort family, as the skeleton sees it.
pub(crate) trait Middle<K: SortKey>: Staged<K> {
    /// Enqueue phase 1 (the scatter and whatever pipelines behind it) and
    /// return the ops it drains with.
    fn start(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId>;

    /// Enqueue the middle's next host-synchronized step; `None` once the
    /// middle is drained. Called again each time the previous step's ops
    /// completed, so it may read this job's device data.
    fn middle(&mut self, sys: &mut GpuSystem<'_, K>) -> Option<Vec<OpId>>;

    /// The sorted pieces in output order. Empty when the middle already
    /// wrote `host_out` (HET merges on the host).
    fn sources(&self) -> Vec<Source>;

    /// Phase attribution for the report.
    fn phases(&self, sys: &GpuSystem<'_, K>) -> PhaseBreakdown {
        self.staging().four_phases(sys)
    }
}

/// Walk `driver` one step through the shared sequence: phase 1, the
/// middle's steps, the gather, the finish.
pub(crate) fn step<K: SortKey, D: Middle<K>>(
    driver: &mut D,
    sys: &mut GpuSystem<'_, K>,
) -> DriverStep {
    let now = sys.now();
    match driver.staging().stage {
        Stage::Start => {
            let st = driver.staging_mut();
            st.t0 = now;
            st.stage = Stage::Scattered;
            DriverStep::Wait(driver.start(sys))
        }
        Stage::Scattered | Stage::Middle => {
            if matches!(driver.staging().stage, Stage::Scattered) {
                let st = driver.staging_mut();
                st.t_staged = now;
                st.stage = Stage::Middle;
            }
            if let Some(wait) = driver.middle(sys) {
                return DriverStep::Wait(wait);
            }
            let sources = driver.sources();
            let st = driver.staging_mut();
            st.t_middle = now;
            if sources.is_empty() {
                return st.finish(sys);
            }
            st.stage = Stage::Gathering;
            let mut off = 0;
            let mut wait = Vec::with_capacity(sources.len());
            for source in sources {
                wait.push(st.gather(sys, source, (st.host_out, off), &[]));
                off += source.len;
            }
            debug_assert_eq!(off, st.logical_len, "gathered pieces cover the input");
            DriverStep::Wait(wait)
        }
        Stage::Gathering => driver.staging_mut().finish(sys),
        Stage::Finished => DriverStep::Done,
    }
}

/// Implement [`Staged`] and [`SortDriver`](crate::SortDriver) for a driver
/// that keeps its [`Staging`] in a field named `st` and implements
/// [`Middle`].
macro_rules! staged_driver {
    ($driver:ident) => {
        impl<K: msort_data::SortKey> $crate::stage::Staged<K> for $driver<K> {
            fn staging(&self) -> &$crate::stage::Staging<K> {
                &self.st
            }
            fn staging_mut(&mut self) -> &mut $crate::stage::Staging<K> {
                &mut self.st
            }
        }
        impl<K: msort_data::SortKey> $crate::exec::SortDriver<K> for $driver<K> {
            fn step(&mut self, sys: &mut msort_gpu::GpuSystem<'_, K>) -> $crate::exec::DriverStep {
                $crate::stage::step(self, sys)
            }
            fn take_output(&mut self) -> Vec<K> {
                self.st.take_output()
            }
            fn validated(&self) -> bool {
                self.st.validated()
            }
            fn release(&mut self, sys: &mut msort_gpu::GpuSystem<'_, K>) {
                self.st.release(sys);
            }
            fn report(&self, sys: &msort_gpu::GpuSystem<'_, K>) -> $crate::report::SortReport {
                self.st
                    .report(sys, $crate::stage::Middle::phases(self, sys))
            }
        }
    };
}
pub(crate) use staged_driver;

/// Split an overlapped window across phases proportionally to their busy
/// times (the last phase gets the rounding remainder; an all-idle window
/// goes to the first).
pub(crate) fn split_by_busy<const N: usize>(
    total: SimDuration,
    busy: [SimDuration; N],
) -> [SimDuration; N] {
    let denom: u128 = busy.iter().map(|b| u128::from(b.0)).sum();
    let mut parts = [SimDuration::ZERO; N];
    if denom == 0 {
        parts[0] = total;
        return parts;
    }
    let mut rest = total.0;
    for (part, b) in parts.iter_mut().zip(busy).take(N - 1) {
        part.0 = (u128::from(total.0) * u128::from(b.0) / denom) as u64;
        rest -= part.0;
    }
    parts[N - 1].0 = rest;
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_topology::Platform;

    /// The shared finish step reports what it finds: an unsorted payload in
    /// the output buffer must come back as `validated() == false`, and the
    /// payload must still be handed out. (HET's single-shot path used to
    /// report a hard-coded `true`.)
    #[test]
    fn finish_reports_an_unsorted_output_and_still_returns_it() {
        let p = Platform::test_pcie(2);
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
        let payload: Vec<u32> = vec![3, 1, 2, 0];
        let shape = Shape {
            label: "test sort".into(),
            order: vec![0, 1],
            lanes: 2,
            even: true,
            algo: GpuSortAlgo::ThrustLike,
            fidelity: Fidelity::Full,
            home_socket: 0,
        };
        let mut st = Staging::new(&mut sys, shape, payload.clone(), 4);
        let (src, dst) = (st.host_in, st.host_out);
        sys.world_mut().copy_range(src, 0, dst, 0, 4);
        assert!(matches!(st.finish(&sys), DriverStep::Done));
        assert!(!st.validated());
        assert_eq!(st.take_output(), payload);
    }
}
