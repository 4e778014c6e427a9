//! Buffers and the data world.
//!
//! Every buffer lives either in a NUMA node's host memory or in one GPU's
//! device memory. Device allocations are capacity-checked against the GPU
//! model's memory size — the same constraint that forces HET sort's
//! chunk-group design for large data in the paper.
//!
//! # Fidelity
//!
//! A [`World`] has a [`Fidelity`]: with `Full`, logical and physical sizes
//! are equal and every simulated sort is a real sort of every key. With
//! `Sampled(s)`, a buffer of logical length `N` stores `N / s` physical
//! keys: all *timing* uses logical byte counts while all *data-dependent
//! control flow* (pivot selection, merge ordering, validation) runs on the
//! physical sample. Lengths and offsets in the runtime API are always
//! logical and must be multiples of `s`, which keeps the logical↔physical
//! mapping exact.

use msort_data::SortKey;
use msort_topology::Topology;

/// Handle to a buffer in a [`World`]: a slot plus the generation the slot
/// had when the buffer was allocated. [`World::free`] bumps the slot's
/// generation and the next allocation reuses the slot, so a handle that
/// outlives its buffer is *stale*, never an alias of the slot's next
/// tenant: freeing it again is a no-op, and touching its data panics in
/// debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId {
    slot: u32,
    generation: u32,
}

impl BufId {
    /// The buffer's slot: unique among live buffers, reused after a free.
    pub(crate) fn index(self) -> usize {
        self.slot as usize
    }
}

/// Where a buffer's memory lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Pinned host memory on NUMA socket `socket`.
    Host {
        /// NUMA socket index.
        socket: usize,
    },
    /// Device memory of GPU `index`.
    Gpu {
        /// System-wide GPU index.
        index: usize,
    },
}

impl Location {
    /// The transfer endpoint corresponding to this location.
    #[must_use]
    pub fn endpoint(self) -> msort_topology::Endpoint {
        match self {
            Location::Host { socket } => msort_topology::Endpoint::HostMem { socket },
            Location::Gpu { index } => msort_topology::Endpoint::GpuMem { index },
        }
    }
}

/// Simulation fidelity: the logical-to-physical sampling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Physical data equals logical data (tests, examples).
    Full,
    /// One physical key represents `scale` logical keys (figure harness at
    /// paper scale). `Sampled(1)` behaves exactly like `Full`.
    Sampled {
        /// The sampling factor (`>= 1`).
        scale: u64,
    },
}

impl Fidelity {
    /// The sampling factor as a plain integer.
    #[must_use]
    pub fn scale(self) -> u64 {
        match self {
            Fidelity::Full => 1,
            Fidelity::Sampled { scale } => scale.max(1),
        }
    }
}

/// One buffer: location, logical length, physical payload.
#[derive(Debug)]
pub struct Buffer<K> {
    /// Where the buffer lives.
    pub location: Location,
    /// Logical length in keys.
    pub len: u64,
    /// Physical payload (`len / scale` keys).
    pub data: Vec<K>,
}

/// All buffers of one simulation run plus GPU memory accounting.
///
/// Slots are recycled: a freed slot goes on a vacancy list and the next
/// allocation takes it, so a long-running service holds as many slots as
/// it ever had buffers live at once, not one per buffer it ever allocated.
#[derive(Debug)]
pub struct World<K> {
    buffers: Vec<Buffer<K>>,
    /// Per slot, the generation a live handle to it carries.
    generations: Vec<u32>,
    /// Freed slots; the last one freed is reused first.
    vacant: Vec<u32>,
    fidelity: Fidelity,
    /// Remaining device memory per GPU (logical bytes).
    gpu_free: Vec<u64>,
}

impl<K: SortKey> World<K> {
    /// Create an empty world for the GPUs of `topo`.
    #[must_use]
    pub fn new(topo: &Topology, fidelity: Fidelity) -> Self {
        let gpu_free = (0..topo.gpu_count())
            .map(|g| topo.gpu_memory_bytes(g))
            .collect();
        Self {
            buffers: Vec::new(),
            generations: Vec::new(),
            vacant: Vec::new(),
            fidelity,
            gpu_free,
        }
    }

    /// The world's fidelity.
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Logical keys per physical key.
    #[must_use]
    pub fn scale(&self) -> u64 {
        self.fidelity.scale()
    }

    /// Convert a logical key count/offset to physical.
    ///
    /// # Panics
    /// Panics if `logical` is not a multiple of the sampling factor.
    #[must_use]
    pub fn physical(&self, logical: u64) -> usize {
        let s = self.scale();
        assert!(
            logical.is_multiple_of(s),
            "logical count {logical} is not a multiple of the sampling factor {s}"
        );
        usize::try_from(logical / s).expect("physical length fits usize")
    }

    /// Allocate a zero-initialized device buffer of `len` logical keys on
    /// GPU `gpu`.
    ///
    /// # Panics
    /// Panics if the GPU does not have `len × key_bytes` free.
    pub fn alloc_gpu(&mut self, gpu: usize, len: u64) -> BufId {
        let bytes = len * K::DATA_TYPE.key_bytes();
        let free = &mut self.gpu_free[gpu];
        assert!(
            *free >= bytes,
            "GPU {gpu} out of memory: need {bytes} B, {free} B free \
             (the paper's HET sort exists precisely because of this limit)"
        );
        *free -= bytes;
        self.push(Location::Gpu { index: gpu }, len)
    }

    /// Allocate a zero-initialized host buffer of `len` logical keys on
    /// NUMA socket `socket`.
    pub fn alloc_host(&mut self, socket: usize, len: u64) -> BufId {
        self.push(Location::Host { socket }, len)
    }

    /// Free a buffer: device bytes go back to the GPU's pool, the payload
    /// is dropped and the slot is reused by the next allocation. Freeing a
    /// stale handle (one already freed) does nothing, in every build, so a
    /// buffer freed mid-run may be freed again at release.
    pub fn free(&mut self, id: BufId) {
        let slot = id.slot as usize;
        if self.generations[slot] != id.generation {
            return;
        }
        self.generations[slot] = id.generation.wrapping_add(1);
        let buf = &mut self.buffers[slot];
        if let Location::Gpu { index } = buf.location {
            self.gpu_free[index] += buf.len * K::DATA_TYPE.key_bytes();
        }
        buf.len = 0;
        buf.data = Vec::new();
        self.vacant.push(id.slot);
    }

    /// Import host data as a buffer on `socket`. In sampled mode, `data`
    /// must already be the physical sample and `logical_len` the full size.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal `logical_len / scale`.
    pub fn import_host(&mut self, socket: usize, data: Vec<K>, logical_len: u64) -> BufId {
        assert_eq!(
            data.len(),
            self.physical(logical_len),
            "physical payload must be logical_len / scale"
        );
        self.insert(Buffer {
            location: Location::Host { socket },
            len: logical_len,
            data,
        })
    }

    /// Buffers allocated and not yet freed.
    #[must_use]
    pub fn live_buffers(&self) -> usize {
        self.buffers.len() - self.vacant.len()
    }

    /// Slots the world holds, live or vacant: the most buffers that were
    /// ever live at once.
    #[must_use]
    pub fn buffer_slots(&self) -> usize {
        self.buffers.len()
    }

    /// Remaining device memory on `gpu` in (logical) bytes.
    #[must_use]
    pub fn gpu_free_bytes(&self, gpu: usize) -> u64 {
        self.gpu_free[gpu]
    }

    /// The buffer behind a handle.
    #[must_use]
    pub fn buffer(&self, id: BufId) -> &Buffer<K> {
        &self.buffers[self.slot(id)]
    }

    /// Location of a buffer.
    #[must_use]
    pub fn location(&self, id: BufId) -> Location {
        self.buffers[self.slot(id)].location
    }

    /// Physical view of a logical key range of a buffer.
    #[must_use]
    pub fn slice(&self, id: BufId, offset: u64, len: u64) -> &[K] {
        let (o, l) = (self.physical(offset), self.physical(len));
        &self.buffers[self.slot(id)].data[o..o + l]
    }

    /// Copy a logical range between two buffers' physical payloads outside
    /// of simulated time (setup/teardown plumbing; simulated copies go
    /// through the executor's `memcpy`).
    pub fn copy_range(&mut self, src: BufId, src_off: u64, dst: BufId, dst_off: u64, len: u64) {
        let (so, do_, l) = (
            self.physical(src_off),
            self.physical(dst_off),
            self.physical(len),
        );
        if l == 0 {
            return;
        }
        let (src, dst) = (self.slot(src), self.slot(dst));
        if src == dst {
            self.buffers[src].data.copy_within(so..so + l, do_);
            return;
        }
        let (a, b) = split_two(&mut self.buffers, src, dst);
        par_copy(&mut b.data[do_..do_ + l], &a.data[so..so + l]);
    }

    /// Mutable physical payload of a whole buffer.
    pub(crate) fn data_mut(&mut self, id: BufId) -> &mut Vec<K> {
        let slot = self.slot(id);
        &mut self.buffers[slot].data
    }

    /// Mutable physical views of two distinct buffers.
    pub(crate) fn two_mut(&mut self, a: BufId, b: BufId) -> (&mut [K], &mut [K]) {
        let (a, b) = (self.slot(a), self.slot(b));
        let (ba, bb) = split_two(&mut self.buffers, a, b);
        (&mut ba.data, &mut bb.data)
    }

    fn push(&mut self, location: Location, len: u64) -> BufId {
        let physical = self.physical(len);
        self.insert(Buffer {
            location,
            len,
            data: vec![K::from_radix(<K as SortKey>::Radix::zero()); physical],
        })
    }

    /// Store `buffer` in a vacant slot, or in a new one if none is vacant.
    fn insert(&mut self, buffer: Buffer<K>) -> BufId {
        if let Some(slot) = self.vacant.pop() {
            self.buffers[slot as usize] = buffer;
            let generation = self.generations[slot as usize];
            return BufId { slot, generation };
        }
        let slot = u32::try_from(self.buffers.len()).expect("fewer than 2^32 buffer slots");
        self.buffers.push(buffer);
        self.generations.push(0);
        BufId {
            slot,
            generation: 0,
        }
    }

    /// The slot behind a live handle. The generation check costs a compare
    /// on every data access, so release builds skip it; [`World::free`]
    /// checks it in every build.
    fn slot(&self, id: BufId) -> usize {
        let slot = id.slot as usize;
        debug_assert_eq!(
            self.generations[slot], id.generation,
            "stale {id:?}: its buffer was freed"
        );
        slot
    }
}

use msort_data::keys::RadixImage;

/// Below this many bytes a plain `copy_from_slice` beats splitting the copy
/// across the pool. The old `std::thread::scope` version paid OS spawn+join
/// on every call and needed a 4 MiB floor to amortize it; dispatching on the
/// already-running shared pool costs under a handful of microseconds, so the
/// floor drops to 1 MiB. Re-measured alongside the OneSweep kernel work
/// (`cargo run -p msort-bench --release --example tune`, 1-core CI
/// container, release): at 256 KiB the split costs more than the whole
/// serial copy (serial 6.6 µs vs pooled 8.9 µs at pool width 2), at the
/// 1 MiB floor it is near break-even (47.9 µs vs 54.9 µs width-2
/// oversubscribed, 53.6 µs vs 55.8 µs width-1 fallback) and the gap keeps
/// narrowing at 4 MiB (369 µs vs 410 µs) — so 1 MiB remains the smallest
/// size where splitting can pay as soon as a second hardware thread
/// exists, without hurting the single-core worst case by more than ~15%.
const PAR_COPY_MIN_BYTES: usize = 1 << 20;

/// Copy `src` into `dst`, splitting large copies across the shared worker
/// pool. Full-fidelity runs at paper scale move gigabytes per staged host
/// copy; a single-threaded memcpy there is the dominant *wall-clock* cost
/// of the simulation (it never affects simulated time).
pub(crate) fn par_copy<K: Copy + Send + Sync>(dst: &mut [K], src: &[K]) {
    assert_eq!(dst.len(), src.len());
    let bytes = std::mem::size_of_val(src);
    // Memory-bandwidth bound: more than 8 workers stops helping.
    let threads = msort_cpu::pool::threads().min(8);
    if bytes < PAR_COPY_MIN_BYTES || threads < 2 {
        dst.copy_from_slice(src);
        return;
    }
    let chunk = dst.len().div_ceil(threads);
    msort_cpu::pool::scope(|s| {
        for (d, sr) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
            s.spawn(move || d.copy_from_slice(sr));
        }
    });
}

/// Disjoint mutable access to two slots of a vec.
fn split_two<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "need two distinct buffers");
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_topology::Platform;

    fn world(fidelity: Fidelity) -> World<u32> {
        World::new(&Platform::test_pcie(2).topology, fidelity)
    }

    #[test]
    fn alloc_and_accounting() {
        let mut w = world(Fidelity::Full);
        let free0 = w.gpu_free_bytes(0);
        let b = w.alloc_gpu(0, 1024);
        assert_eq!(w.gpu_free_bytes(0), free0 - 4096);
        assert_eq!(w.buffer(b).len, 1024);
        assert_eq!(w.buffer(b).data.len(), 1024);
        w.free(b);
        assert_eq!(w.gpu_free_bytes(0), free0);
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn over_allocation_panics() {
        let mut w = world(Fidelity::Full);
        let cap_keys = w.gpu_free_bytes(0) / 4;
        let _ = w.alloc_gpu(0, cap_keys + 1);
    }

    #[test]
    fn sampled_mode_scales_payload() {
        let mut w: World<u32> = world(Fidelity::Sampled { scale: 8 });
        let b = w.alloc_gpu(0, 800);
        assert_eq!(w.buffer(b).data.len(), 100);
        assert_eq!(w.physical(160), 20);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn unaligned_logical_panics() {
        let w: World<u32> = world(Fidelity::Sampled { scale: 8 });
        let _ = w.physical(100);
    }

    #[test]
    fn import_and_slice() {
        let mut w = world(Fidelity::Full);
        let b = w.import_host(0, vec![5u32, 6, 7, 8], 4);
        assert_eq!(w.slice(b, 1, 2), &[6, 7]);
        assert_eq!(w.location(b), Location::Host { socket: 0 });
    }

    #[test]
    fn copy_between_buffers() {
        let mut w = world(Fidelity::Full);
        let src = w.import_host(0, vec![1u32, 2, 3, 4], 4);
        let dst = w.alloc_gpu(0, 4);
        w.copy_range(src, 1, dst, 0, 3);
        assert_eq!(w.slice(dst, 0, 3), &[2, 3, 4]);
    }

    #[test]
    fn copy_within_buffer() {
        let mut w = world(Fidelity::Full);
        let b = w.import_host(0, vec![1u32, 2, 3, 4], 4);
        w.copy_range(b, 0, b, 2, 2);
        assert_eq!(w.slice(b, 0, 4), &[1, 2, 1, 2]);
    }

    #[test]
    fn par_copy_large_matches_serial() {
        // 8 MiB: exercises the threaded path, not the small-copy fallback.
        let src: Vec<u32> = (0..2u32 << 20)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let mut dst = vec![0u32; src.len()];
        par_copy(&mut dst, &src);
        assert_eq!(dst, src);
    }

    /// A stale handle must not reach the slot's next tenant: with a plain
    /// free list, the second `free(a)` would free `b`.
    #[test]
    fn freeing_a_stale_handle_leaves_the_slots_new_buffer_alone() {
        let mut w = world(Fidelity::Full);
        let free0 = w.gpu_free_bytes(0);
        let a = w.alloc_gpu(0, 64);
        w.free(a);
        let b = w.import_host(0, vec![7u32; 8], 8);
        let c = w.alloc_gpu(0, 32);
        assert_eq!(w.buffer_slots(), 2, "b reused a's slot");
        w.free(a);
        assert_eq!(w.slice(b, 0, 8), &[7; 8]);
        assert_eq!(w.gpu_free_bytes(0), free0 - 32 * 4);
        assert_eq!(w.live_buffers(), 2);
        w.free(b);
        let d = w.alloc_gpu(0, 16);
        w.free(a);
        w.free(b);
        assert_eq!(w.buffer(d).len, 16);
        assert_eq!(w.gpu_free_bytes(0), free0 - (32 + 16) * 4);
        w.free(c);
        w.free(d);
        assert_eq!(w.gpu_free_bytes(0), free0);
        assert_eq!(w.live_buffers(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale")]
    fn touching_a_stale_handle_panics_in_debug() {
        let mut w = world(Fidelity::Full);
        let a = w.alloc_gpu(0, 8);
        w.free(a);
        let _b = w.alloc_gpu(0, 8);
        let _ = w.slice(a, 0, 8);
    }

    #[test]
    fn alloc_free_cycles_reuse_slots() {
        let mut w = world(Fidelity::Full);
        let keep = w.alloc_host(0, 4);
        for i in 0..10_000u64 {
            let b = if i % 2 == 0 {
                w.alloc_gpu((i % 4 / 2) as usize, 4)
            } else {
                w.import_host(0, vec![1, 2], 2)
            };
            w.free(b);
        }
        assert!(w.buffer_slots() <= 2, "{} slots", w.buffer_slots());
        assert_eq!(w.live_buffers(), 1);
        assert_eq!(w.buffer(keep).len, 4);
    }

    #[test]
    fn fidelity_scale() {
        assert_eq!(Fidelity::Full.scale(), 1);
        assert_eq!(Fidelity::Sampled { scale: 0 }.scale(), 1);
        assert_eq!(Fidelity::Sampled { scale: 1000 }.scale(), 1000);
    }
}
