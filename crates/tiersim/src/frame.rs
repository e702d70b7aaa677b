//! Per-component physical frame allocators.
//!
//! Frames carry no data: workloads keep their own state and the simulator
//! only tracks placement. Each frame does carry a *version* counter, bumped
//! on every simulated write, which lets tests prove that a migration
//! protocol loses no update (the copied version must match the source
//! version when the migration commits).

use crate::addr::{PhysAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use crate::tier::ComponentId;

/// Allocation granularity of a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameSize {
    /// 4 KB base frame.
    Base4K,
    /// 2 MB huge frame.
    Huge2M,
}

impl FrameSize {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            FrameSize::Base4K => PAGE_SIZE_4K,
            FrameSize::Huge2M => PAGE_SIZE_2M,
        }
    }
}

/// Allocator for one memory component.
///
/// Internally the component is carved into 2 MB blocks. A huge frame takes a
/// whole block; 4 KB frames are sub-allocated from blocks dedicated to base
/// pages. Blocks freed in either mode return to the shared free list, so
/// space moves freely between huge and base usage.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    component: ComponentId,
    capacity: u64,
    used: u64,
    /// 2 MB block offsets never yet carved.
    next_fresh_block: u64,
    /// Recycled whole 2 MB blocks.
    free_blocks: Vec<u64>,
    /// Recycled 4 KB frames.
    free_small: Vec<u64>,
    /// Current partially-carved block for 4 KB frames: (base, next offset).
    small_cursor: Option<(u64, u64)>,
}

/// Error returned when a component is out of space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Component that could not satisfy the allocation.
    pub component: ComponentId,
    /// Requested frame size.
    pub size: FrameSize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "component {} out of memory for {:?} frame", self.component, self.size)
    }
}

impl std::error::Error for OutOfMemory {}

impl FrameAllocator {
    /// Creates an allocator managing `capacity` bytes of `component`.
    ///
    /// The capacity is rounded down to a whole number of 2 MB blocks.
    pub fn new(component: ComponentId, capacity: u64) -> FrameAllocator {
        FrameAllocator {
            component,
            capacity: capacity & !(PAGE_SIZE_2M - 1),
            used: 0,
            next_fresh_block: 0,
            free_blocks: Vec::new(),
            free_small: Vec::new(),
            small_cursor: None,
        }
    }

    /// Component this allocator serves.
    #[inline]
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// Total managed bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Resizes the managed capacity — a multi-tenant *quota* carved out
    /// of the physical component. The new capacity is rounded down to
    /// whole 2 MB blocks and clamped so it never drops below the bytes
    /// currently allocated (rounded up to a block): a quota change may
    /// deny future allocations, never invalidate live frames. Shrinking
    /// below already-carved offsets is safe — those frames keep their
    /// addresses and recycle through the free lists; only fresh-block
    /// carving is bounded by the new capacity. Returns the effective
    /// capacity after rounding and clamping.
    pub fn set_capacity(&mut self, bytes: u64) -> u64 {
        let floor = (self.used + PAGE_SIZE_2M - 1) & !(PAGE_SIZE_2M - 1);
        self.capacity = (bytes & !(PAGE_SIZE_2M - 1)).max(floor);
        self.capacity
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.used as f64 / self.capacity as f64
    }

    /// True if a frame of `size` can be allocated right now.
    pub fn can_alloc(&self, size: FrameSize) -> bool {
        match size {
            FrameSize::Huge2M => self.block_available(),
            FrameSize::Base4K => {
                !self.free_small.is_empty()
                    || self.small_cursor.is_some()
                    || self.block_available()
            }
        }
    }

    fn block_available(&self) -> bool {
        !self.free_blocks.is_empty() || self.next_fresh_block + PAGE_SIZE_2M <= self.capacity
    }

    fn take_block(&mut self) -> Option<u64> {
        if let Some(b) = self.free_blocks.pop() {
            return Some(b);
        }
        if self.next_fresh_block + PAGE_SIZE_2M <= self.capacity {
            let b = self.next_fresh_block;
            self.next_fresh_block += PAGE_SIZE_2M;
            return Some(b);
        }
        None
    }

    /// Allocates one frame of the given size.
    pub fn alloc(&mut self, size: FrameSize) -> Result<PhysAddr, OutOfMemory> {
        let oom = OutOfMemory { component: self.component, size };
        match size {
            FrameSize::Huge2M => {
                let block = self.take_block().ok_or(oom)?;
                self.used += PAGE_SIZE_2M;
                Ok(PhysAddr::new(self.component, block))
            }
            FrameSize::Base4K => {
                if let Some(off) = self.free_small.pop() {
                    self.used += PAGE_SIZE_4K;
                    return Ok(PhysAddr::new(self.component, off));
                }
                let (base, off) = match self.small_cursor {
                    Some(cur) => cur,
                    None => (self.take_block().ok_or(oom)?, 0),
                };
                let frame = base + off;
                let next = off + PAGE_SIZE_4K;
                self.small_cursor = if next < PAGE_SIZE_2M { Some((base, next)) } else { None };
                self.used += PAGE_SIZE_4K;
                Ok(PhysAddr::new(self.component, frame))
            }
        }
    }

    /// Serializes the allocator's dynamic state. Free-list order is kept
    /// verbatim: future allocations pop from these lists, so a resumed run
    /// hands out the same frames in the same order as the original.
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.u16(self.component);
        w.u64(self.capacity);
        w.u64(self.used);
        w.u64(self.next_fresh_block);
        w.varint(self.free_blocks.len() as u64);
        for &b in &self.free_blocks {
            w.u64(b);
        }
        w.varint(self.free_small.len() as u64);
        for &f in &self.free_small {
            w.u64(f);
        }
        match self.small_cursor {
            Some((base, off)) => {
                w.bool(true);
                w.u64(base);
                w.u64(off);
            }
            None => w.bool(false),
        }
    }

    /// Restores state saved with [`FrameAllocator::save`] into this
    /// allocator. The component id must match.
    pub fn load(&mut self, r: &mut obs::wire::Reader) -> Result<(), String> {
        let component = r.u16()?;
        if component != self.component {
            return Err(format!(
                "frame allocator: component mismatch (saved {component}, have {})",
                self.component
            ));
        }
        self.capacity = r.u64()?;
        self.used = r.u64()?;
        self.next_fresh_block = r.u64()?;
        self.free_blocks = (0..r.varint()?).map(|_| r.u64()).collect::<Result<_, _>>()?;
        self.free_small = (0..r.varint()?).map(|_| r.u64()).collect::<Result<_, _>>()?;
        self.small_cursor = if r.bool()? { Some((r.u64()?, r.u64()?)) } else { None };
        Ok(())
    }

    /// Frees a previously allocated frame.
    ///
    /// Freed huge frames return to the shared block list; freed base frames
    /// go to the small free list (blocks are not coalesced, which is a fair
    /// model of fragmentation under mixed page sizes).
    pub fn free_frame(&mut self, frame: PhysAddr, size: FrameSize) {
        debug_assert_eq!(frame.component(), self.component, "frame belongs to this component");
        match size {
            FrameSize::Huge2M => {
                debug_assert_eq!(frame.offset() % PAGE_SIZE_2M, 0);
                self.free_blocks.push(frame.offset());
                self.used -= PAGE_SIZE_2M;
            }
            FrameSize::Base4K => {
                debug_assert_eq!(frame.offset() % PAGE_SIZE_4K, 0);
                self.free_small.push(frame.offset());
                self.used -= PAGE_SIZE_4K;
            }
        }
    }
}

/// Per-frame version store used to validate migration correctness.
///
/// Every simulated write bumps the version of the written 4 KB frame. A
/// migration mechanism copies versions from source to destination frames;
/// if the application writes the source after the copy, the destination is
/// stale and the mechanism must re-copy (or have switched to a synchronous
/// copy). Tests assert the committed destination version equals the final
/// source version.
/// Versions live in dense per-component vectors indexed by frame number
/// (`offset >> 12`): physical offsets are allocator-bounded and contiguous
/// from zero, so a vector with lazy power-of-two growth replaces the old
/// hash map on the simulated-write hot path (one bump per write).
#[derive(Default, Debug)]
pub struct VersionStore {
    comps: Vec<Vec<u64>>,
}

impl VersionStore {
    /// Creates an empty store.
    pub fn new() -> VersionStore {
        VersionStore::default()
    }

    #[inline]
    fn frame_index(frame: PhysAddr) -> (usize, usize) {
        (frame.component() as usize, (frame.offset() >> 12) as usize)
    }

    /// Current version of a frame (0 if never written).
    #[inline]
    pub fn get(&self, frame: PhysAddr) -> u64 {
        let (c, i) = Self::frame_index(frame);
        self.comps.get(c).and_then(|v| v.get(i)).copied().unwrap_or(0)
    }

    #[inline]
    fn slot(&mut self, frame: PhysAddr) -> &mut u64 {
        let (c, i) = Self::frame_index(frame);
        if c >= self.comps.len() {
            self.comps.resize_with(c + 1, Vec::new);
        }
        let v = &mut self.comps[c];
        if i >= v.len() {
            v.resize((i + 1).next_power_of_two(), 0);
        }
        &mut v[i]
    }

    /// Records a write to a frame, bumping its version.
    #[inline]
    pub fn bump(&mut self, frame: PhysAddr) {
        *self.slot(frame) += 1;
    }

    /// Copies the version from `src` to `dst`, as a data copy would.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr) {
        let v = self.get(src);
        *self.slot(dst) = v;
    }

    /// Serializes all per-frame versions (dense vectors verbatim,
    /// including any trailing zeros from power-of-two growth — load
    /// reproduces the exact growth state).
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.comps.len() as u64);
        for comp in &self.comps {
            w.varint(comp.len() as u64);
            for &v in comp {
                w.varint(v);
            }
        }
    }

    /// Restores a store saved with [`VersionStore::save`].
    pub fn load(r: &mut obs::wire::Reader) -> Result<VersionStore, String> {
        let mut comps = Vec::new();
        for _ in 0..r.varint()? {
            let n = r.varint()?;
            // Every version is a varint of at least one byte, so a longer
            // claimed length is corrupt; checking it first bounds the
            // allocation by the blob's size.
            if n > r.remaining() as u64 {
                return Err(format!(
                    "version store: {n} versions claimed but only {} bytes left",
                    r.remaining()
                ));
            }
            let mut v = Vec::with_capacity(n as usize);
            for _ in 0..n {
                v.push(r.varint()?);
            }
            comps.push(v);
        }
        Ok(VersionStore { comps })
    }

    /// Drops bookkeeping for a freed frame.
    pub fn forget(&mut self, frame: PhysAddr) {
        let (c, i) = Self::frame_index(frame);
        if let Some(slot) = self.comps.get_mut(c).and_then(|v| v.get_mut(i)) {
            *slot = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_allocation_exhausts_capacity() {
        let mut a = FrameAllocator::new(0, 4 * PAGE_SIZE_2M);
        let mut frames = Vec::new();
        for _ in 0..4 {
            frames.push(a.alloc(FrameSize::Huge2M).unwrap());
        }
        assert!(a.alloc(FrameSize::Huge2M).is_err());
        assert_eq!(a.used(), 4 * PAGE_SIZE_2M);
        a.free_frame(frames[0], FrameSize::Huge2M);
        assert!(a.alloc(FrameSize::Huge2M).is_ok());
    }

    #[test]
    fn small_frames_carve_blocks() {
        let mut a = FrameAllocator::new(1, PAGE_SIZE_2M);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..512 {
            let f = a.alloc(FrameSize::Base4K).unwrap();
            assert!(seen.insert(f), "no double allocation");
        }
        assert!(a.alloc(FrameSize::Base4K).is_err());
        assert_eq!(a.free(), 0);
    }

    #[test]
    fn freed_small_frames_recycle() {
        let mut a = FrameAllocator::new(0, PAGE_SIZE_2M);
        let f = a.alloc(FrameSize::Base4K).unwrap();
        a.free_frame(f, FrameSize::Base4K);
        assert_eq!(a.used(), 0);
        let g = a.alloc(FrameSize::Base4K).unwrap();
        assert_eq!(f, g, "recycled frame reused");
    }

    #[test]
    fn mixed_sizes_share_capacity() {
        let mut a = FrameAllocator::new(0, 2 * PAGE_SIZE_2M);
        let h = a.alloc(FrameSize::Huge2M).unwrap();
        let _s = a.alloc(FrameSize::Base4K).unwrap();
        // Second huge block is taken by the small cursor.
        assert!(a.alloc(FrameSize::Huge2M).is_err());
        a.free_frame(h, FrameSize::Huge2M);
        assert!(a.alloc(FrameSize::Huge2M).is_ok());
    }

    #[test]
    fn capacity_rounds_down_to_blocks() {
        let a = FrameAllocator::new(0, PAGE_SIZE_2M + 12345);
        assert_eq!(a.capacity(), PAGE_SIZE_2M);
    }

    #[test]
    fn version_store_tracks_writes() {
        let mut v = VersionStore::new();
        let a = PhysAddr::new(0, 0x1000);
        let b = PhysAddr::new(1, 0x2000);
        assert_eq!(v.get(a), 0);
        v.bump(a);
        v.bump(a);
        v.copy(a, b);
        assert_eq!(v.get(b), 2);
        v.bump(a);
        assert_ne!(v.get(a), v.get(b), "stale copy detectable");
    }

    #[test]
    fn version_store_load_rejects_inflated_lengths() {
        // One component claiming `n` versions, followed by two.
        let blob = |n: u64| {
            let mut w = obs::wire::Writer::new();
            for v in [1, n, 7, 9] {
                w.varint(v);
            }
            w.into_bytes()
        };
        for n in [1u64 << 61, u64::MAX, 3] {
            let bytes = blob(n);
            let err = VersionStore::load(&mut obs::wire::Reader::new(&bytes)).unwrap_err();
            assert!(err.contains("versions claimed"), "n={n}: {err}");
        }
        let bytes = blob(2);
        let v = VersionStore::load(&mut obs::wire::Reader::new(&bytes)).unwrap();
        assert_eq!(v.comps, vec![vec![7, 9]]);
    }
}
