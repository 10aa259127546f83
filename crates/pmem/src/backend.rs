//! Flush/fence backends: what the persistence instructions actually *do*.
//!
//! The paper's persistency model (§2) has exactly two explicit instructions:
//! a *flush* that initiates write-back of a cache line, and a *fence* that
//! waits until every line flushed by this thread since its last fence has
//! reached persistent memory. The [`Backend`] trait captures that pair; the
//! durability policies in the `nvtraverse` crate decide *where* to call them.

use crate::cell::PCell;
use crate::sim;
use crate::word::Word;

/// Size in bytes of one cache line, the granularity of hardware flushes.
pub const CACHE_LINE: usize = 64;

mod pending {
    use std::cell::Cell;

    thread_local! {
        static PENDING: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    pub(super) fn note_flush() {
        PENDING.with(|p| p.set(p.get() + 1));
    }

    #[inline]
    pub(super) fn note_fence() {
        PENDING.with(|p| p.set(0));
    }

    #[inline]
    pub(super) fn any() -> bool {
        PENDING.with(|p| p.get() != 0)
    }
}

/// Write tracking: which cache lines may hold a write whose writer has not
/// fenced yet.
///
/// A fixed-size, volatile table of 2^16 counters indexed by a hash of
/// the line address (`addr >> 6`), plus a thread-local list of the slots
/// the thread holds. A writer holds a line before writing it; the thread's
/// next fence releases every slot it holds, **after** the fence
/// instruction completes. So a zero counter means no tracked write to that
/// line is still waiting for its fence: under the §2 model a flush of it
/// would persist nothing, and readers may skip it (FliT, Wei et al.,
/// PPoPP 2022). A hash collision only makes a line look dirty — one extra
/// flush, never a skipped one.
///
/// The table is never allocated in a pool: after a restart every line
/// holds whatever persisted, so an all-zero table is exact. A thread that
/// exits between a write and its fence (a simulated crash) leaks its
/// holds, which leaves those lines looking dirty for the rest of the
/// process.
pub(crate) mod track {
    use crate::cell::PCell;
    use crate::word::Word;
    use crate::Backend;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// log2 of the number of counters: 2^16 × 4 bytes = 256 KiB.
    const BITS: u32 = 16;

    static TABLE: [AtomicU32; 1 << BITS] = [const { AtomicU32::new(0) }; 1 << BITS];

    /// A compare-and-swap to run after this thread's next fence.
    struct Deferred {
        cas: fn(usize, u64, u64),
        addr: usize,
        current: u64,
        new: u64,
    }

    #[derive(Default)]
    struct Held {
        slots: Vec<u32>,
        deferred: Vec<Deferred>,
    }

    thread_local! {
        static HELD: RefCell<Held> = RefCell::new(Held::default());
    }

    #[inline]
    fn slot(addr: *const u8) -> usize {
        let line = addr as usize as u64 >> 6;
        (line.wrapping_mul(crate::mix::GOLDEN) >> (64 - BITS)) as usize
    }

    #[inline]
    pub(super) fn hold(addr: *const u8) {
        let i = slot(addr);
        TABLE[i].fetch_add(1, Ordering::SeqCst);
        // A thread already tearing down its TLS leaks the hold: the line
        // stays dirty-looking, which costs flushes, never correctness.
        let _ = HELD.try_with(|h| h.borrow_mut().slots.push(i as u32));
    }

    #[inline]
    pub(super) fn maybe_dirty(addr: *const u8) -> bool {
        TABLE[slot(addr)].load(Ordering::SeqCst) != 0
    }

    fn cas_bits<B: Backend>(addr: usize, current: u64, new: u64) {
        // SAFETY: `defer_cas`'s caller keeps the cell allocated until this
        // thread's next fence, which is when this runs; `PCell` is
        // `repr(transparent)` over its 64-bit word for every `T`.
        let cell = unsafe { &*(addr as *const PCell<u64, B>) };
        let _ = cell.compare_exchange(current, new);
    }

    /// # Safety
    ///
    /// `cell` must stay allocated until this thread's next fence.
    pub(super) unsafe fn defer_cas<T: Word, B: Backend>(cell: &PCell<T, B>, current: T, new: T) {
        let d = Deferred {
            cas: cas_bits::<B>,
            addr: cell.addr() as usize,
            current: current.to_bits(),
            new: new.to_bits(),
        };
        HELD.with(|h| h.borrow_mut().deferred.push(d));
    }

    #[inline]
    pub(super) fn deferred_pending() -> bool {
        HELD.try_with(|h| !h.borrow().deferred.is_empty())
            .unwrap_or(false)
    }

    /// Called by every backend's fence once the fence instruction has
    /// completed: drops this thread's holds and runs its deferred CASes.
    #[inline]
    pub(super) fn release() {
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            for i in h.slots.drain(..) {
                TABLE[i as usize].fetch_sub(1, Ordering::SeqCst);
            }
            if h.deferred.is_empty() {
                return;
            }
            let deferred = std::mem::take(&mut h.deferred);
            drop(h);
            for d in &deferred {
                (d.cas)(d.addr, d.current, d.new);
            }
        });
    }

    /// After a simulated crash rollback every cell holds its persisted
    /// value, so this thread's holds can go; its deferred CASes target
    /// pre-crash memory and are dropped unrun.
    pub(crate) fn forget() {
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            h.deferred.clear();
            for i in h.slots.drain(..) {
                TABLE[i as usize].fetch_sub(1, Ordering::SeqCst);
            }
        });
    }
}

/// Whether the calling thread has a compare-and-swap queued with
/// [`Backend::cas_after_fence`] that its next fence will run.
#[inline]
pub fn cas_after_fence_pending() -> bool {
    track::deferred_pending()
}

/// Whether the calling thread has issued a flush (through [`MmapBackend`]
/// or [`Sim`]) since its last fence.
///
/// A fence's only effect in the persistency model is to drain the calling
/// thread's previously initiated write-backs; with none pending it is a
/// no-op, so durability policies consult this to **elide** fences (the
/// pre-CAS fence after a fresh fence, the closing fence of a read-only
/// operation). Purely thread-local — flushes by other threads are their
/// fences' problem, exactly as on hardware.
#[inline]
pub fn flushes_pending() -> bool {
    pending::any()
}

/// A flush/fence implementation.
///
/// Implementations are zero-sized types used as type parameters; all methods
/// are static so the compiler monomorphizes and (for [`Noop`]) fully erases
/// them.
///
/// The paper evaluates on two machines: a Cascade Lake Xeon using
/// `clwb` + `sfence` and an older AMD machine where `clwb` is unavailable
/// and `clflush` is used instead. [`MmapBackend`] picks the right flush
/// instruction for the CPU it runs on, so it covers both.
pub trait Backend: Send + Sync + 'static {
    /// `true` when this backend routes through the crash simulator.
    ///
    /// Cells consult this constant so simulator bookkeeping compiles away
    /// entirely for hardware backends.
    const SIM: bool = false;

    /// Initiates write-back of the cache line containing `addr`.
    ///
    /// The data is only guaranteed persistent after a subsequent
    /// [`Backend::fence`] by the same thread.
    fn flush(addr: *const u8);

    /// Waits until all lines flushed by this thread since its previous fence
    /// are persistent.
    fn fence();

    /// Records that this thread is about to write the line containing
    /// `addr`. Until this thread's next fence completes,
    /// [`maybe_dirty`](Backend::maybe_dirty) reports the line to every
    /// thread. No fence may fall between the hold and the write's own
    /// flush, or that fence would release a write it did not persist.
    #[inline]
    fn hold(addr: *const u8) {
        track::hold(addr);
    }

    /// Whether the line containing `addr` may hold a write still waiting
    /// for its writer's fence. `false` means a flush of it would persist
    /// nothing: every tracked write to the line has been flushed and
    /// fenced.
    #[inline]
    fn maybe_dirty(addr: *const u8) -> bool {
        track::maybe_dirty(addr)
    }

    /// Runs `cell.compare_exchange(current, new)` once this thread's next
    /// fence has completed, discarding the result.
    ///
    /// # Safety
    ///
    /// `cell` must stay allocated until this thread's next fence.
    #[inline]
    unsafe fn cas_after_fence<T: Word>(cell: &PCell<T, Self>, current: T, new: T)
    where
        Self: Sized,
    {
        // SAFETY: forwarded from this method's contract.
        unsafe { track::defer_cas(cell, current, new) }
    }

    /// Flushes every cache line overlapping `[addr, addr + len)`.
    ///
    /// Used to persist a freshly initialized node in one call; deduplicates
    /// by line so a multi-field node on a single line costs one flush.
    fn flush_range(addr: *const u8, len: usize) {
        if len == 0 {
            return;
        }
        let start = addr as usize & !(CACHE_LINE - 1);
        let end = addr as usize + len - 1;
        let mut line = start;
        loop {
            Self::flush(line as *const u8);
            if line >= end & !(CACHE_LINE - 1) {
                break;
            }
            line += CACHE_LINE;
        }
    }
}

/// A backend whose flush and fence are no-ops.
///
/// Instantiating a durability policy with `Noop` yields the original,
/// non-durable algorithm — the "orig" series in every figure of the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Backend for Noop {
    #[inline(always)]
    fn flush(_addr: *const u8) {}
    #[inline(always)]
    fn fence() {}
    #[inline(always)]
    fn hold(_addr: *const u8) {}
    #[inline(always)]
    fn maybe_dirty(_addr: *const u8) -> bool {
        false
    }
    /// Nothing is ever pending, so the CAS runs now.
    // SAFETY: no contract to uphold here — the cell is borrowed for the
    // whole call, and nothing outlives it.
    #[inline(always)]
    unsafe fn cas_after_fence<T: Word>(cell: &PCell<T, Self>, current: T, new: T) {
        let _ = cell.compare_exchange(current, new);
    }
    #[inline(always)]
    fn flush_range(_addr: *const u8, _len: usize) {}
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNKNOWN: u8 = 0;
    const CLWB: u8 = 1;
    const CLFLUSHOPT: u8 = 2;
    const CLFLUSH: u8 = 3;

    static BEST: AtomicU8 = AtomicU8::new(UNKNOWN);

    fn detect() -> u8 {
        // CPUID leaf 7, sub-leaf 0: EBX bit 24 = CLWB, bit 23 = CLFLUSHOPT.
        let ebx = if std::arch::x86_64::__cpuid(0).eax >= 7 {
            std::arch::x86_64::__cpuid_count(7, 0).ebx
        } else {
            0
        };
        let best = if ebx & (1 << 24) != 0 {
            CLWB
        } else if ebx & (1 << 23) != 0 {
            CLFLUSHOPT
        } else {
            CLFLUSH
        };
        BEST.store(best, Ordering::Relaxed);
        best
    }

    /// Issues the best available write-back instruction for `addr`'s line.
    #[inline]
    pub fn flush_writeback(addr: *const u8) {
        let mut best = BEST.load(Ordering::Relaxed);
        if best == UNKNOWN {
            best = detect();
        }
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            match best {
                CLWB => {
                    std::arch::asm!(
                        "clwb [{0}]",
                        in(reg) addr,
                        options(nostack, preserves_flags)
                    );
                }
                CLFLUSHOPT => {
                    std::arch::asm!(
                        "clflushopt [{0}]",
                        in(reg) addr,
                        options(nostack, preserves_flags)
                    );
                }
                _ => std::arch::x86_64::_mm_clflush(addr),
            }
        }
    }

    /// Issues `sfence`.
    #[inline]
    pub fn sfence() {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe { std::arch::x86_64::_mm_sfence() }
    }
}

/// The hardware backend: real flush and fence instructions, counted into
/// the thread's attributed `nvtraverse-obs` metric set.
///
/// The flush is the best write-back instruction the CPU offers, chosen by
/// CPUID at first use: `clwb`, else `clflushopt`, else `clflush`. The fence
/// is `sfence`. That covers both of the paper's machines (§5.1): `clwb` on
/// the Cascade Lake NVRAM machine, `clflush` where `clwb` is unavailable.
/// The instructions work on any memory, so the volatile structures of the
/// benchmarks get the same cost profile as a mapped pool.
///
/// Every flush and fence is recorded (per pool, per phase) when a metric
/// set is attributed with `nvtraverse_obs::attribute_to` or
/// `nvtraverse_obs::counted`; with none attributed nothing is recorded.
///
/// On a DAX mapping of real NVRAM, `clwb`/`sfence` *is* the persistence
/// protocol. On a page-cache-backed mapping of a regular file (every CI
/// machine), written pages already survive process death — the kernel owns
/// them — so `clwb`/`sfence` keeps the paper's cost profile while
/// process-crash durability comes for free. Non-x86-64 targets have no
/// flush instruction, so there every fence `msync`s each pool mapping
/// announced via [`MmapBackend::register_region`] (the `nvtraverse-pool`
/// crate does this when a pool is opened).
#[derive(Debug, Clone, Copy, Default)]
pub struct MmapBackend;

mod mmap_sync {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::RwLock;

    pub(super) static REGIONS: RwLock<Vec<(usize, usize)>> = RwLock::new(Vec::new());
    pub(super) static REGION_COUNT: AtomicUsize = AtomicUsize::new(0);
    /// Whether every fence also `msync`s every registered region: only
    /// where there is no flush instruction to lean on.
    pub(super) const MSYNC_ON_FENCE: bool = cfg!(not(target_arch = "x86_64"));

    #[cfg(unix)]
    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
    unsafe extern "C" {
        fn msync(addr: *mut std::ffi::c_void, len: usize, flags: std::ffi::c_int)
            -> std::ffi::c_int;
    }
    #[cfg(unix)]
    const MS_SYNC: std::ffi::c_int = 4;

    /// Synchronously writes every registered mapping back to its file.
    pub(super) fn msync_all() {
        let regions = REGIONS.read().unwrap_or_else(|e| e.into_inner());
        for &(base, len) in regions.iter() {
            #[cfg(unix)]
            // SAFETY: the region was registered as a live mapping and stays
            // mapped until unregistered.
            unsafe {
                msync(base as *mut std::ffi::c_void, len, MS_SYNC);
            }
            #[cfg(not(unix))]
            let _ = (base, len);
        }
    }

    pub(super) fn region_count() -> usize {
        REGION_COUNT.load(Ordering::Acquire)
    }
}

impl MmapBackend {
    /// Announces a live mapping so the `msync` fallback can reach it.
    /// Idempotent per base address.
    pub fn register_region(base: usize, len: usize) {
        let mut regions = mmap_sync::REGIONS
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if !regions.iter().any(|&(b, _)| b == base) {
            regions.push((base, len));
            mmap_sync::REGION_COUNT.store(regions.len(), std::sync::atomic::Ordering::Release);
        }
    }

    /// Removes a mapping registered with [`MmapBackend::register_region`].
    pub fn unregister_region(base: usize) {
        let mut regions = mmap_sync::REGIONS
            .write()
            .unwrap_or_else(|e| e.into_inner());
        regions.retain(|&(b, _)| b != base);
        mmap_sync::REGION_COUNT.store(regions.len(), std::sync::atomic::Ordering::Release);
    }

    /// Forces an `msync` of every registered region now (e.g. before a
    /// planned shutdown); on x86-64 fences never do.
    pub fn sync_all_regions() {
        mmap_sync::msync_all();
    }
}

impl Backend for MmapBackend {
    /// Also records the flush into the thread's attributed `nvtraverse-obs`
    /// metric set (per-pool, per-phase).
    #[inline]
    fn flush(addr: *const u8) {
        pending::note_flush();
        nvtraverse_obs::on_flush();
        #[cfg(target_arch = "x86_64")]
        x86::flush_writeback(addr);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// See [`MmapBackend::flush`] on where the fence is recorded.
    #[inline]
    fn fence() {
        pending::note_fence();
        nvtraverse_obs::on_fence();
        #[cfg(target_arch = "x86_64")]
        x86::sfence();
        #[cfg(not(target_arch = "x86_64"))]
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        if mmap_sync::MSYNC_ON_FENCE && mmap_sync::region_count() > 0 {
            mmap_sync::msync_all();
        }
        track::release();
    }
}

/// The crash-simulating backend.
///
/// All [`crate::PCell`] accesses, flushes, and fences are routed through the
/// thread's active [`sim::SimHandle`] (established with
/// [`sim::SimHandle::enter`]), which maintains a persisted copy of every
/// cell, buffers flushes per thread, publishes them at fences, and can
/// *crash*: roll every cell back to its persisted copy, poisoning cells that
/// were never persisted.
///
/// # Panics
///
/// Any simulated access panics with [`crate::CrashSignal`] once a crash has
/// been armed and reached — this is how the crash-point tests interrupt an
/// operation mid-flight. Accessing a `Sim`-backed cell without an active
/// handle also panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim;

impl Backend for Sim {
    const SIM: bool = true;

    #[inline]
    fn flush(addr: *const u8) {
        pending::note_flush();
        sim::on_flush(addr as usize);
    }

    #[inline]
    fn fence() {
        pending::note_fence();
        if sim::on_fence() {
            track::release();
        }
    }

    /// In the simulator, flushes operate on 8-byte cells rather than cache
    /// lines, which is strictly more adversarial (no free neighbours).
    fn flush_range(addr: *const u8, len: usize) {
        let start = addr as usize & !7;
        let mut a = start;
        while a < addr as usize + len {
            pending::note_flush();
            sim::on_flush(a);
            a += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_backend_is_callable() {
        let x = 1u64;
        Noop::flush(&x as *const u64 as *const u8);
        Noop::fence();
        Noop::flush_range(&x as *const u64 as *const u8, 8);
    }

    #[test]
    fn hardware_flush_and_fence_execute() {
        // Smoke test: the real instructions must not fault on valid memory.
        let data = vec![0u8; 256];
        MmapBackend::flush(data.as_ptr());
        MmapBackend::fence();
        MmapBackend::flush_range(data.as_ptr(), 256);
        MmapBackend::flush_range(data.as_ptr(), 1);
        MmapBackend::fence();
    }

    #[test]
    fn flush_range_covers_every_line_once() {
        // A 128-byte range starting mid-line spans exactly 3 lines, so 3
        // flushes are recorded. The buffer is line-aligned so the start
        // really is mid-line.
        #[repr(align(64))]
        struct Lines([u8; 256]);
        let data = Lines([0; 256]);
        let unaligned = unsafe { data.0.as_ptr().add(32) };
        let (c, ()) = nvtraverse_obs::counted(|| MmapBackend::flush_range(unaligned, 128));
        assert_eq!(c.flushes, 3);
    }

    #[test]
    fn a_hold_lasts_until_the_holders_next_fence() {
        type B = MmapBackend;
        let x = 0u64;
        let a = &x as *const u64 as *const u8;
        assert!(!B::maybe_dirty(a));
        B::hold(a);
        assert!(B::maybe_dirty(a));
        // Every thread sees the hold; only the holder's fence releases it.
        let addr = a as usize;
        std::thread::spawn(move || {
            assert!(B::maybe_dirty(addr as *const u8));
            B::fence();
            assert!(B::maybe_dirty(addr as *const u8));
        })
        .join()
        .unwrap();
        B::fence();
        assert!(!B::maybe_dirty(a));
    }

    #[test]
    fn cas_after_fence_runs_at_the_next_fence() {
        type B = MmapBackend;
        let c: PCell<u64, B> = PCell::new(1);
        // SAFETY: `c` outlives the fence below.
        unsafe { B::cas_after_fence(&c, 1, 2) };
        assert!(cas_after_fence_pending());
        assert_eq!(c.load(), 1, "not before the fence");
        B::fence();
        assert_eq!(c.load(), 2);
        assert!(!cas_after_fence_pending());
    }

    #[test]
    fn count_records_flushes_and_fences() {
        let x = 0u64;
        let (c, ()) = nvtraverse_obs::counted(|| {
            MmapBackend::flush(&x as *const u64 as *const u8);
            MmapBackend::flush(&x as *const u64 as *const u8);
            MmapBackend::fence();
        });
        assert_eq!((c.flushes, c.fences), (2, 1));
    }

    #[test]
    fn unattributed_flush_and_fence_record_nothing_but_still_track_pending() {
        let x = 0u64;
        let (c, ()) = nvtraverse_obs::counted(|| {
            let _none = nvtraverse_obs::attribute_to(None);
            MmapBackend::flush(&x as *const u64 as *const u8);
            assert!(flushes_pending());
            MmapBackend::fence();
            assert!(!flushes_pending());
        });
        assert_eq!((c.flushes, c.fences), (0, 0));
    }
}
