//! The shared, cross-transaction shadow memory (§3.1, §4.3).
//!
//! The shadow memory is a volatile DRAM mirror of the persistent heap.
//! Transactions execute entirely on it; the persistent image is only ever
//! modified by the Reproduce step replaying redo logs. Two configurations:
//!
//! * [`ShadowConfig::Identity`] — shadow size equals heap size and the
//!   mapping is a constant offset (the paper's simple case).
//! * [`ShadowConfig::Paged`] — the shadow is smaller than the heap and
//!   pages are swapped on demand. An evicted page is **discarded, not
//!   written back** (its committed updates live in redo logs); to make that
//!   safe, each page carries a *touching ID* — the last transaction that
//!   wrote it — and a page may only be swapped in once the Reproduce step
//!   has caught up to its touching ID (§4.3).
//!
//! Two paging cost models are provided, mirroring §5.5:
//!
//! * [`PagingMode::Software`] — every access walks the shared page table
//!   (an extra shared load per access); pages are pinned with per-page
//!   reference counts, so eviction is fine-grained.
//! * [`PagingMode::Hardware`] — Dune/TLB-style: after the first touch a
//!   per-transaction view caches the translation ("TLB"), so repeat
//!   accesses skip the shared walk; the price is that every eviction stalls
//!   the world (TLB shootdown), modeled by a global RwLock plus a
//!   configurable stall.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use dude_nvm::{Nvm, Region};
use dude_stm::{VecMemory, WordMemory};
use parking_lot::{Mutex, RwLock};

/// Bytes per shadow page.
pub const PAGE_BYTES: u64 = 4096;
const PAGE_WORDS: usize = (PAGE_BYTES / 8) as usize;
const NO_FRAME: u32 = u32::MAX;

/// Shadow-memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowConfig {
    /// Shadow size == heap size; constant-offset mapping, no paging.
    Identity,
    /// Demand paging with `frames` resident pages.
    Paged {
        /// Number of 4 KiB frames of shadow DRAM.
        frames: usize,
        /// Translation/eviction cost model.
        mode: PagingMode,
    },
}

/// Paging cost model (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagingMode {
    /// Page-table walk on every access; per-page pins; no global stalls.
    Software,
    /// TLB-cached translation per transaction; evictions stall the world
    /// (TLB shootdown).
    Hardware,
}

/// Paging statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShadowStats {
    /// Pages loaded from NVM into the shadow.
    pub swap_ins: u64,
    /// Pages discarded to free a frame.
    pub swap_outs: u64,
    /// Swap-ins that had to wait for Reproduce to catch up to the page's
    /// touching ID.
    pub touch_waits: u64,
}

/// The shadow memory, in either identity or paged configuration.
#[derive(Debug)]
pub enum ShadowMem {
    /// Flat mirror of the whole heap.
    Identity(VecMemory),
    /// Demand-paged mirror.
    Paged(PagedShadow),
}

impl ShadowMem {
    /// Builds a shadow for a heap of `heap_bytes`, backed by `heap_region`
    /// of `nvm`, gated by the Reproduce progress ID: a swap-in calls
    /// `reproduced(touching)`, which waits until the page's touching ID is
    /// reproduced, applying whatever durable transactions the runtime holds
    /// back (DESIGN.md §6, *TID-aligned runs*), and says whether it waited.
    pub fn new(
        config: ShadowConfig,
        heap_bytes: u64,
        nvm: Arc<Nvm>,
        heap_region: Region,
        reproduced: impl Fn(u64) -> bool + Send + Sync + 'static,
    ) -> Self {
        match config {
            ShadowConfig::Identity => ShadowMem::Identity(VecMemory::new(heap_bytes)),
            ShadowConfig::Paged { frames, mode } => ShadowMem::Paged(PagedShadow::new(
                frames,
                heap_bytes,
                nvm,
                heap_region,
                Reproduced(Box::new(reproduced)),
                mode,
            )),
        }
    }

    /// Loads the shadow from the persistent image (after recovery).
    ///
    /// Identity shadows copy eagerly; paged shadows load on demand.
    pub fn populate_from_nvm(&self, nvm: &Nvm, heap_region: Region) {
        if let ShadowMem::Identity(mem) = self {
            let words = heap_region.len() / 8;
            for i in 0..words {
                let v = nvm.read_word(heap_region.start() + i * 8);
                if v != 0 {
                    mem.store(i * 8, v);
                }
            }
        }
    }

    /// Creates a per-transaction access view. Pins taken by the view are
    /// released when it is dropped.
    pub fn view(&self) -> ShadowView<'_> {
        match self {
            ShadowMem::Identity(mem) => ShadowView::Identity(mem),
            ShadowMem::Paged(p) => ShadowView::Paged(PagedView {
                shadow: p,
                pinned: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Records that transaction `tid` wrote `writes`, updating page
    /// touching IDs (§4.3). No-op for identity shadows.
    pub fn note_commit(&self, tid: u64, writes: &[(u64, u64)]) {
        if let ShadowMem::Paged(p) = self {
            let mut last_page = u64::MAX;
            for &(addr, _) in writes {
                let page = addr / PAGE_BYTES;
                if page != last_page {
                    p.pages[page as usize]
                        .touching
                        .fetch_max(tid, Ordering::Release);
                    last_page = page;
                }
            }
        }
    }

    /// Paging statistics (zero for identity shadows).
    pub fn stats(&self) -> ShadowStats {
        match self {
            ShadowMem::Identity(_) => ShadowStats::default(),
            ShadowMem::Paged(p) => ShadowStats {
                swap_ins: p.swap_ins.load(Ordering::Relaxed),
                swap_outs: p.swap_outs.load(Ordering::Relaxed),
                touch_waits: p.touch_waits.load(Ordering::Relaxed),
            },
        }
    }
}

/// Per-page metadata.
#[derive(Debug)]
struct PageEntry {
    /// Resident frame index, or [`NO_FRAME`].
    frame: AtomicU32,
    /// Transactions currently pinning the page.
    refcount: AtomicU32,
    /// ID of the last transaction that wrote the page.
    touching: AtomicU64,
    /// Serializes fault/evict transitions for this page.
    lock: Mutex<()>,
}

/// The wait on the Reproduce progress ID, as [`ShadowMem::new`] takes it.
struct Reproduced(Box<dyn Fn(u64) -> bool + Send + Sync>);

impl fmt::Debug for Reproduced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Reproduced")
    }
}

/// The demand-paged shadow memory.
#[derive(Debug)]
pub struct PagedShadow {
    nvm: Arc<Nvm>,
    heap_region: Region,
    reproduced: Reproduced,
    /// Frame storage: `frames × 512` words.
    frames: Box<[AtomicU64]>,
    pages: Box<[PageEntry]>,
    free_frames: Mutex<Vec<u32>>,
    /// FIFO of resident pages (eviction candidates).
    resident: Mutex<VecDeque<u32>>,
    mode: PagingMode,
    /// Hardware mode: evictions take this exclusively (TLB shootdown).
    world: RwLock<()>,
    /// Modeled shootdown stall per eviction, in nanoseconds.
    shootdown_ns: u64,
    swap_ins: AtomicU64,
    swap_outs: AtomicU64,
    touch_waits: AtomicU64,
}

impl PagedShadow {
    fn new(
        frames: usize,
        heap_bytes: u64,
        nvm: Arc<Nvm>,
        heap_region: Region,
        reproduced: Reproduced,
        mode: PagingMode,
    ) -> Self {
        assert!(frames >= 2, "need at least two shadow frames");
        assert!(
            heap_bytes.is_multiple_of(PAGE_BYTES),
            "heap must be a whole number of pages"
        );
        let n_pages = (heap_bytes / PAGE_BYTES) as usize;
        PagedShadow {
            nvm,
            heap_region,
            reproduced,
            frames: dude_txapi::zeroed_words(frames * PAGE_WORDS),
            pages: (0..n_pages)
                .map(|_| PageEntry {
                    frame: AtomicU32::new(NO_FRAME),
                    refcount: AtomicU32::new(0),
                    touching: AtomicU64::new(0),
                    lock: Mutex::new(()),
                })
                .collect(),
            free_frames: Mutex::new((0..frames as u32).rev().collect()),
            resident: Mutex::new(VecDeque::new()),
            mode,
            world: RwLock::new(()),
            shootdown_ns: 3000,
            swap_ins: AtomicU64::new(0),
            swap_outs: AtomicU64::new(0),
            touch_waits: AtomicU64::new(0),
        }
    }

    /// Pins `page`, faulting it in if absent. Returns its frame index.
    fn pin(&self, page: u32) -> u32 {
        let entry = &self.pages[page as usize];
        let _guard = entry.lock.lock();
        entry.refcount.fetch_add(1, Ordering::AcqRel);
        let frame = entry.frame.load(Ordering::Acquire);
        if frame != NO_FRAME {
            return frame;
        }
        let frame = self.acquire_frame(page);
        // Discard-on-evict is only safe if every committed update to this
        // page has already been reproduced into NVM (§4.3).
        let touching = entry.touching.load(Ordering::Acquire);
        // The sabotage gate exists only in sim builds: swapping in without
        // the wait is the injected §4.3 bug the oracles must catch.
        #[cfg(feature = "sim")]
        let touching = if crate::sabotage::ignore_touch_watermark() {
            0
        } else {
            touching
        };
        if (self.reproduced.0)(touching) {
            self.touch_waits.fetch_add(1, Ordering::Relaxed);
        }
        let src = self.heap_region.start() + u64::from(page) * PAGE_BYTES;
        let base = frame as usize * PAGE_WORDS;
        for i in 0..PAGE_WORDS {
            let v = self.nvm.read_word(src + 8 * i as u64);
            self.frames[base + i].store(v, Ordering::Relaxed);
        }
        entry.frame.store(frame, Ordering::Release);
        self.resident.lock().push_back(page);
        self.swap_ins.fetch_add(1, Ordering::Relaxed);
        frame
    }

    fn unpin(&self, page: u32) {
        self.pages[page as usize]
            .refcount
            .fetch_sub(1, Ordering::AcqRel);
    }

    /// Finds a free frame, evicting an unpinned resident page if needed.
    /// Called with the faulting page's lock held.
    fn acquire_frame(&self, faulting_page: u32) -> u32 {
        loop {
            if let Some(f) = self.free_frames.lock().pop() {
                return f;
            }
            if let Some(f) = self.evict_one(faulting_page) {
                return f;
            }
            // Every candidate was pinned or contended; let pins drain.
            dude_nvm::thread::yield_now();
        }
    }

    fn evict_one(&self, faulting_page: u32) -> Option<u32> {
        // Hardware paging: changing a mapping requires a TLB shootdown that
        // stalls all threads (§4.3 "stall all threads and issue INVVPID").
        let _world = match self.mode {
            PagingMode::Hardware => {
                let g = self.world.write();
                spin_ns(self.shootdown_ns);
                Some(g)
            }
            PagingMode::Software => None,
        };
        let mut resident = self.resident.lock();
        for _ in 0..resident.len() {
            let page = resident.pop_front().expect("non-empty resident list");
            if page == faulting_page {
                resident.push_back(page);
                continue;
            }
            let entry = &self.pages[page as usize];
            // try_lock: the page may be mid-fault on another thread, and we
            // already hold the faulting page's lock (no ordered two-lock
            // acquisition, so never block here).
            let Some(_g) = entry.lock.try_lock() else {
                resident.push_back(page);
                continue;
            };
            if entry.refcount.load(Ordering::Acquire) != 0 {
                resident.push_back(page);
                continue;
            }
            let frame = entry.frame.load(Ordering::Acquire);
            debug_assert_ne!(frame, NO_FRAME, "resident page must have a frame");
            // Discard: committed data is in redo logs / NVM already.
            entry.frame.store(NO_FRAME, Ordering::Release);
            self.swap_outs.fetch_add(1, Ordering::Relaxed);
            return Some(frame);
        }
        None
    }

    #[inline]
    fn frame_word(&self, frame: u32, addr: u64) -> &AtomicU64 {
        let idx = frame as usize * PAGE_WORDS + ((addr % PAGE_BYTES) / 8) as usize;
        &self.frames[idx]
    }
}

/// A per-transaction view of the shadow memory.
///
/// Implements [`WordMemory`], so the TM executes directly on it. Pages
/// touched through the view stay pinned until the view is dropped.
#[derive(Debug)]
pub enum ShadowView<'a> {
    /// Identity mapping: direct flat access.
    Identity(&'a VecMemory),
    /// Paged access with pin tracking.
    Paged(PagedView<'a>),
}

/// Paged view state: the pinned set doubles as the hardware mode's "TLB"
/// (page → frame cache).
#[derive(Debug)]
pub struct PagedView<'a> {
    shadow: &'a PagedShadow,
    pinned: RefCell<Vec<(u32, u32)>>,
}

impl PagedView<'_> {
    #[inline]
    fn frame_of(&self, addr: u64) -> u32 {
        let page = (addr / PAGE_BYTES) as u32;
        let mut pinned = self.pinned.borrow_mut();
        if let Some(&(_, frame)) = pinned.iter().find(|&&(p, _)| p == page) {
            return match self.shadow.mode {
                // Hardware: a TLB hit is free — the cached translation is
                // stable because the page is pinned. Shootdowns only stall
                // threads that are *faulting* (below), which is where the
                // mapping actually changes.
                PagingMode::Hardware => frame,
                // Software: walk the shared page table every access.
                PagingMode::Software => self.shadow.pages[page as usize]
                    .frame
                    .load(Ordering::Acquire),
            };
        }
        // First touch (hardware: a TLB miss): pin and possibly fault the
        // page. Hardware-mode misses contend with in-flight shootdowns via
        // the world lock; the lock is NOT held into `pin` itself, which may
        // evict (taking it exclusively).
        if matches!(self.shadow.mode, PagingMode::Hardware) {
            drop(self.shadow.world.read());
        }
        let frame = self.shadow.pin(page);
        pinned.push((page, frame));
        frame
    }
}

impl WordMemory for ShadowView<'_> {
    #[inline]
    fn load(&self, addr: u64) -> u64 {
        match self {
            ShadowView::Identity(mem) => mem.load(addr),
            ShadowView::Paged(v) => {
                let frame = v.frame_of(addr);
                v.shadow.frame_word(frame, addr).load(Ordering::Relaxed)
            }
        }
    }

    #[inline]
    fn store(&self, addr: u64, val: u64) {
        match self {
            ShadowView::Identity(mem) => mem.store(addr, val),
            ShadowView::Paged(v) => {
                let frame = v.frame_of(addr);
                v.shadow
                    .frame_word(frame, addr)
                    .store(val, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for ShadowView<'_> {
    fn drop(&mut self) {
        if let ShadowView::Paged(v) = self {
            for (page, _) in v.pinned.borrow_mut().drain(..) {
                v.shadow.unpin(page);
            }
        }
    }
}

fn spin_ns(ns: u64) {
    let start = std::time::Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watermark::Watermark;
    use dude_nvm::NvmConfig;

    fn paged(frames: usize, pages: u64, mode: PagingMode) -> (Arc<Nvm>, Arc<Watermark>, ShadowMem) {
        let heap_bytes = pages * PAGE_BYTES;
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(heap_bytes)));
        // A stand-in for the runtime's Reproduce progress.
        let progress = Arc::new(Watermark::default());
        let shadow = ShadowMem::new(
            ShadowConfig::Paged { frames, mode },
            heap_bytes,
            Arc::clone(&nvm),
            Region::new(0, heap_bytes),
            {
                let progress = Arc::clone(&progress);
                move |t| progress.wait(t)
            },
        );
        (nvm, progress, shadow)
    }

    #[test]
    fn identity_roundtrip() {
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(PAGE_BYTES)));
        let shadow = ShadowMem::new(
            ShadowConfig::Identity,
            PAGE_BYTES,
            Arc::clone(&nvm),
            Region::new(0, PAGE_BYTES),
            |_| false,
        );
        let view = shadow.view();
        view.store(8, 42);
        assert_eq!(view.load(8), 42);
        assert_eq!(shadow.stats(), ShadowStats::default());
    }

    #[test]
    fn identity_populates_from_nvm() {
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(PAGE_BYTES)));
        nvm.write_word(16, 99);
        let region = Region::new(0, PAGE_BYTES);
        let shadow = ShadowMem::new(
            ShadowConfig::Identity,
            PAGE_BYTES,
            Arc::clone(&nvm),
            region,
            |_| false,
        );
        shadow.populate_from_nvm(&nvm, region);
        assert_eq!(shadow.view().load(16), 99);
    }

    #[test]
    fn paged_demand_loads_from_nvm() {
        let (nvm, _r, shadow) = paged(2, 8, PagingMode::Software);
        nvm.write_word(3 * PAGE_BYTES + 8, 7);
        let view = shadow.view();
        assert_eq!(view.load(3 * PAGE_BYTES + 8), 7);
        assert_eq!(shadow.stats().swap_ins, 1);
    }

    #[test]
    fn paged_eviction_discards_and_reloads() {
        let (nvm, _r, shadow) = paged(2, 8, PagingMode::Software);
        nvm.write_word(0, 1);
        nvm.write_word(PAGE_BYTES, 2);
        nvm.write_word(2 * PAGE_BYTES, 3);
        {
            let v = shadow.view();
            assert_eq!(v.load(0), 1);
        }
        {
            let v = shadow.view();
            assert_eq!(v.load(PAGE_BYTES), 2);
        }
        {
            // Third page forces an eviction (2 frames).
            let v = shadow.view();
            assert_eq!(v.load(2 * PAGE_BYTES), 3);
        }
        let s = shadow.stats();
        assert_eq!(s.swap_ins, 3);
        assert_eq!(s.swap_outs, 1);
        // The evicted page reloads fine.
        let v = shadow.view();
        assert_eq!(v.load(0), 1);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (_nvm, _r, shadow) = paged(2, 8, PagingMode::Software);
        let v1 = shadow.view();
        v1.store(0, 10); // pin page 0
        v1.store(PAGE_BYTES, 20); // pin page 1: both frames used
                                  // While v1 lives, its dirty (un-reproduced) data must stay.
        assert_eq!(v1.load(0), 10);
        assert_eq!(v1.load(PAGE_BYTES), 20);
        drop(v1);
        // Now a third page can evict one of them.
        let v2 = shadow.view();
        let _ = v2.load(2 * PAGE_BYTES);
        assert_eq!(shadow.stats().swap_outs, 1);
    }

    #[test]
    fn swap_in_waits_for_reproduce_touching_id() {
        let (nvm, reproduced, shadow) = paged(2, 8, PagingMode::Software);
        // Commit tid 5 wrote page 0, then page 0 was evicted.
        {
            let v = shadow.view();
            v.store(0, 55);
        }
        shadow.note_commit(5, &[(0, 55)]);
        {
            // Evict page 0 by touching pages 1 and 2.
            let v = shadow.view();
            let _ = v.load(PAGE_BYTES);
            drop(v);
            let v = shadow.view();
            let _ = v.load(2 * PAGE_BYTES);
        }
        assert!(shadow.stats().swap_outs >= 1);
        // Reproduce catches up on another thread after a delay, writing the
        // reproduced value into NVM.
        let handle = {
            let nvm = Arc::clone(&nvm);
            let reproduced = Arc::clone(&reproduced);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                nvm.write_word(0, 55);
                reproduced.advance(5);
            })
        };
        let start = std::time::Instant::now();
        let v = shadow.view();
        // Must block until reproduced >= 5 and then see the NVM value.
        assert_eq!(v.load(0), 55);
        assert!(start.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(shadow.stats().touch_waits, 1);
        handle.join().unwrap();
    }

    #[test]
    fn hardware_mode_same_semantics() {
        let (nvm, _r, shadow) = paged(2, 8, PagingMode::Hardware);
        nvm.write_word(2 * PAGE_BYTES, 3);
        {
            let v = shadow.view();
            v.store(0, 1);
            assert_eq!(v.load(0), 1);
        }
        {
            let v = shadow.view();
            let _ = v.load(PAGE_BYTES);
        }
        {
            let v = shadow.view();
            assert_eq!(v.load(2 * PAGE_BYTES), 3);
        }
        assert_eq!(shadow.stats().swap_outs, 1);
    }

    #[test]
    fn note_commit_updates_touching_monotonically() {
        let (_nvm, _r, shadow) = paged(2, 8, PagingMode::Software);
        shadow.note_commit(5, &[(0, 1), (8, 2)]);
        shadow.note_commit(3, &[(16, 1)]); // lower tid must not regress
        if let ShadowMem::Paged(p) = &shadow {
            assert_eq!(p.pages[0].touching.load(Ordering::Relaxed), 5);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn concurrent_paged_access_is_exact() {
        use dude_stm::WordMemory as _;
        // Each of 4 threads pins up to 2 pages at once; frames must exceed
        // the worst-case simultaneous pin count (8) or faulting livelocks.
        let (_nvm, _r, shadow) = paged(12, 16, PagingMode::Software);
        let shadow = Arc::new(shadow);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let shadow = Arc::clone(&shadow);
            handles.push(std::thread::spawn(move || {
                // Each thread owns one word on its own page; hammer it while
                // other threads force evictions of unpinned pages.
                for i in 0..200u64 {
                    let view = shadow.view();
                    let addr = t * PAGE_BYTES;
                    let v = view.load(addr);
                    view.store(addr, v + 1);
                    // Touch a rotating page to create pressure.
                    let other = ((t + i) % 16) * PAGE_BYTES + 64;
                    let _ = view.load(other);
                    drop(view);
                    if i % 50 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Counters can be clobbered by eviction (values never reproduced in
        // this raw test) — but only if the page was evicted while unpinned,
        // in which case the counter resets to the NVM value 0. So each
        // counter is ≤ 200 and the shadow machinery never deadlocked or
        // corrupted frames (the real invariant here).
        let view = shadow.view();
        for t in 0..4u64 {
            assert!(view.load(t * PAGE_BYTES) <= 200);
        }
    }
}
