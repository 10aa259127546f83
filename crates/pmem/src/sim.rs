//! Simulated NVRAM with crash injection.
//!
//! This module implements the paper's persistent-memory model (§2) in
//! software so that durability bugs become test failures:
//!
//! * Every shared cell has a **volatile** value (the real in-memory word —
//!   the "cache") and a **persisted** value held by the [`SimHandle`]
//!   registry (the "NVRAM").
//! * A *flush* records `(address, current value)` in the flushing thread's
//!   private buffer; nothing is persistent yet.
//! * A *fence* publishes the buffered flushes to the persisted copies, one at
//!   a time (so a crash can land between them, modelling lines that persist
//!   in arbitrary order while an `sfence` drains).
//! * A **crash** rolls every registered cell's volatile value back to its
//!   persisted copy. Cells that were registered (allocated) but never
//!   persisted roll back to [`POISON`]; reading poison afterwards panics with
//!   a diagnostic, exactly like dereferencing uninitialized NVRAM after a
//!   real power failure.
//!
//! Crashes are injected by step count: every simulated memory event
//! increments a global step counter, and when the armed step is reached the
//! acting thread panics with [`CrashSignal`]. Unwinding releases no locks
//! (the data structures are lock-free) and drops the thread's un-fenced flush
//! buffer — which is precisely the semantics of losing a cache.
//!
//! The model is deliberately **adversarial**: nothing persists unless
//! explicitly flushed *and* fenced (no spontaneous cache evictions unless
//! enabled with [`SimHandle::set_evict_period`]). A data structure that
//! passes exhaustive crash-point testing under this model is durable under
//! any weaker (more forgiving) persistency behaviour.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The bit pattern written into never-persisted cells by a crash rollback.
///
/// Reading a poisoned cell through [`crate::PCell::load`] panics; validators
/// can inspect raw bits with [`crate::PCell::peek_bits`] instead.
pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// Panic payload used to interrupt an operation at an injected crash point.
///
/// Catch it with [`run_crashable`]; any other panic is propagated unchanged.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal;

impl fmt::Debug for CrashSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CrashSignal (simulated NVRAM crash)")
    }
}

const SHARD_COUNT: usize = 16;

/// Classifies a tracked write for [`SimObserver::on_tracked_write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// An unconditional store.
    Store,
    /// A compare-and-swap (only a *successful* one reports `wrote = true`).
    Cas,
    /// An unconditional swap.
    Swap,
}

/// Passive listener on simulated-NVRAM events, installed with
/// [`SimHandle::set_observer`].
///
/// All methods have empty defaults so observers implement only what they
/// need. Callbacks run on the thread that performed the event, outside the
/// registry's shard locks, and **must not** re-enter the simulator (no
/// `Sim`-backed cell accesses, flushes, or fences from inside a callback).
///
/// Observation is pure: installing an observer never changes step counts,
/// persisted state, or crash behaviour. The `nvtraverse-vet` crate builds
/// its persistency sanitizer on this hook.
pub trait SimObserver: Send + Sync {
    /// Words of `[addr, addr + len)` were registered (allocated).
    fn on_register_range(&self, _addr: usize, _len: usize) {}
    /// Words of `[addr, addr + len)` were deregistered (freed).
    fn on_deregister_range(&self, _addr: usize, _len: usize) {}
    /// Words of `[addr, addr + len)` were declared *volatile by design*:
    /// recovery never reads them, so durability rules do not apply.
    fn on_mark_volatile_range(&self, _addr: usize, _len: usize) {}
    /// A tracked write of the cell at `addr`. `bits` is the cell's value
    /// after the operation; `wrote` is false for a failed CAS.
    fn on_tracked_write(&self, _addr: usize, _bits: u64, _kind: WriteKind, _wrote: bool) {}
    /// The calling thread flushed the cell at `addr`.
    fn on_flush(&self, _addr: usize) {}
    /// The calling thread fenced (its buffered flushes are now persistent).
    fn on_fence(&self) {}
    /// The calling thread skipped a flush of the cell at `addr` because no
    /// write to its line was waiting for a fence (see
    /// [`current_elided_flush`]).
    fn on_elided_flush(&self, _addr: usize) {}
}

/// Per-cell simulated-NVRAM state. Writes are versioned so that a stale
/// flush (snapshotted before a newer write was flushed and fenced) can never
/// *regress* the persisted copy — real hardware persists same-line
/// writebacks in coherence order.
#[derive(Clone, Copy)]
struct Entry {
    persisted: u64,
    persisted_ver: u64,
    latest_ver: u64,
}

impl Entry {
    fn fresh() -> Entry {
        Entry {
            persisted: POISON,
            persisted_ver: 0,
            latest_ver: 1,
        }
    }
}

#[derive(Default)]
struct Registry {
    /// `address -> persisted state` for every registered cell.
    shards: [Mutex<HashMap<usize, Entry>>; SHARD_COUNT],
    /// Global count of simulated memory events.
    step: AtomicU64,
    /// Step at which to crash; 0 means disarmed.
    crash_at: AtomicU64,
    /// Set once the crash step is reached or a crash is triggered manually.
    crashed: AtomicBool,
    /// Spontaneously persist the accessed cell every N steps; 0 = never.
    evict_period: AtomicU64,
    /// Fast path: skip the observer mutex when no observer is installed.
    has_observer: AtomicBool,
    /// The installed [`SimObserver`], if any.
    observer: Mutex<Option<Arc<dyn SimObserver>>>,
}

impl Registry {
    fn shard(&self, addr: usize) -> &Mutex<HashMap<usize, Entry>> {
        // Cells are 8-byte aligned; drop the low bits before sharding.
        &self.shards[(addr >> 3) % SHARD_COUNT]
    }

    fn observer(&self) -> Option<Arc<dyn SimObserver>> {
        if !self.has_observer.load(Ordering::Acquire) {
            return None;
        }
        self.observer.lock().clone()
    }

    /// Applies a fenced flush: persists `bits` unless a newer write of this
    /// cell has already been persisted (monotonicity). A cell deregistered
    /// (freed) since the flush was buffered is skipped — persisting through
    /// it would silently *resurrect* a dangling registration, which a later
    /// rollback would then write through.
    fn persist_versioned(&self, addr: usize, bits: u64, ver: u64) {
        let mut shard = self.shard(addr).lock();
        if let Some(e) = shard.get_mut(&addr) {
            if ver > e.persisted_ver {
                e.persisted = bits;
                e.persisted_ver = ver;
            }
        }
    }

    /// Persists the cell's current volatile value (eviction path). Skips
    /// unregistered cells: the read through `addr` is only sound while the
    /// registration (allocation) is live.
    fn persist_current(&self, addr: usize) {
        let mut shard = self.shard(addr).lock();
        if let Some(e) = shard.get_mut(&addr) {
            // SAFETY: the cell is registered, so `addr` is a live 8-byte
            // aligned allocation; the shard lock serializes with deregister.
            let bits = unsafe { (*(addr as *const AtomicU64)).load(Ordering::SeqCst) };
            e.persisted = bits;
            e.persisted_ver = e.latest_ver;
        }
    }

    /// Performs a volatile write, bumping the cell's write version under the
    /// shard lock so flush snapshots pair values with versions consistently.
    /// Returns whether the operation wrote and the cell's value afterwards.
    fn versioned_write(&self, addr: usize, f: impl FnOnce(&AtomicU64) -> bool) -> (bool, u64) {
        let mut shard = self.shard(addr).lock();
        let e = shard.entry(addr).or_insert_with(Entry::fresh);
        // SAFETY: the caller (a live `PCell` or tracked word) guarantees
        // `addr` points to a live, 8-byte aligned atomic word.
        let cell = unsafe { &*(addr as *const AtomicU64) };
        let wrote = f(cell);
        if wrote {
            e.latest_ver += 1;
        }
        (wrote, cell.load(Ordering::SeqCst))
    }

    /// Snapshots (value, version) for a flush, consistently with writes.
    /// Returns `None` for an unregistered (freed) cell — reading through a
    /// dangling address would be unsound, and buffering the flush would let
    /// the following fence resurrect the registration.
    fn flush_snapshot(&self, addr: usize) -> Option<(u64, u64)> {
        let shard = self.shard(addr).lock();
        let e = shard.get(&addr)?;
        // SAFETY: the cell is registered, so `addr` is a live 8-byte aligned
        // allocation; the shard lock serializes with deregister.
        let bits = unsafe { (*(addr as *const AtomicU64)).load(Ordering::SeqCst) };
        Some((bits, e.latest_ver))
    }

    fn register(&self, addr: usize) {
        self.shard(addr).lock().entry(addr).or_insert_with(Entry::fresh);
    }

    fn deregister(&self, addr: usize) {
        self.shard(addr).lock().remove(&addr);
    }

    /// One simulated memory event. Panics with [`CrashSignal`] when the
    /// armed crash point is reached or a crash was already triggered.
    fn tick(&self, addr: Option<usize>) {
        if self.crashed.load(Ordering::SeqCst) {
            std::panic::panic_any(CrashSignal);
        }
        let step = self.step.fetch_add(1, Ordering::SeqCst) + 1;
        let crash_at = self.crash_at.load(Ordering::SeqCst);
        if crash_at != 0 && step >= crash_at {
            self.crashed.store(true, Ordering::SeqCst);
            std::panic::panic_any(CrashSignal);
        }
        let evict = self.evict_period.load(Ordering::Relaxed);
        if evict != 0 && step.is_multiple_of(evict) {
            if let Some(addr) = addr {
                // A background cache eviction: the line is written back with
                // whatever it currently holds, without the owner's consent.
                self.persist_current(addr);
            }
        }
    }
}

struct Ctx {
    registry: Arc<Registry>,
    /// Flushes issued by this thread since its last fence: (addr, value and
    /// write-version at flush time). Discarded if the thread crashes before
    /// fencing.
    pending: Vec<(usize, u64, u64)>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&mut Ctx) -> R) -> R {
    CTX.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ctx = slot.as_mut().expect(
            "Sim-backed cell accessed without an active SimHandle; \
             call SimHandle::enter() on this thread first",
        );
        f(ctx)
    })
}

/// A handle on one simulated NVRAM instance.
///
/// Cloning the handle shares the same memory; each test typically creates a
/// fresh handle so crash state cannot leak between tests. Threads gain access
/// by calling [`SimHandle::enter`], which installs the handle as the thread's
/// current simulation context until the returned guard drops.
///
/// # Example
///
/// ```
/// use nvtraverse_pmem::{PCell, Sim, SimHandle, Backend};
///
/// let sim = SimHandle::new();
/// let _guard = sim.enter();
/// let cell: PCell<u64, Sim> = PCell::new(0);
/// sim.register_cell(cell.addr() as usize);
/// cell.store(11);
/// Sim::flush(cell.addr());
/// Sim::fence();
/// cell.store(22); // never persisted
/// unsafe { sim.crash_and_rollback() };
/// assert_eq!(cell.load(), 11); // the persisted value survived
/// ```
#[derive(Clone)]
pub struct SimHandle {
    inner: Arc<Registry>,
}

impl fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHandle")
            .field("steps", &self.steps())
            .field("tracked_cells", &self.tracked_cells())
            .field("crashed", &self.crashed())
            .finish()
    }
}

impl Default for SimHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl SimHandle {
    /// Creates a fresh, empty simulated NVRAM.
    pub fn new() -> Self {
        SimHandle {
            inner: Arc::new(Registry::default()),
        }
    }

    /// Installs this handle as the calling thread's simulation context.
    ///
    /// All [`crate::Sim`]-backed cell accesses on this thread are routed to
    /// this handle until the returned guard is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the thread already has an active context (contexts do not
    /// nest; a thread talks to one NVRAM at a time).
    pub fn enter(&self) -> SimGuard {
        CTX.with(|slot| {
            let mut slot = slot.borrow_mut();
            assert!(
                slot.is_none(),
                "this thread already has an active SimHandle context"
            );
            *slot = Some(Ctx {
                registry: Arc::clone(&self.inner),
                pending: Vec::new(),
            });
        });
        SimGuard { _priv: () }
    }

    /// Arms a crash at the given global step count (1-based).
    ///
    /// The thread that performs the `step`-th simulated memory event panics
    /// with [`CrashSignal`] *before* the event takes effect; all other
    /// threads crash at their next event.
    pub fn arm_crash_at_step(&self, step: u64) {
        assert!(step > 0, "crash steps are 1-based");
        self.inner.crash_at.store(step, Ordering::SeqCst);
    }

    /// Makes every thread crash at its next simulated memory event.
    pub fn trigger_crash(&self) {
        self.inner.crashed.store(true, Ordering::SeqCst);
    }

    /// Returns whether a crash has been reached or triggered.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Number of simulated memory events performed so far.
    pub fn steps(&self) -> u64 {
        self.inner.step.load(Ordering::SeqCst)
    }

    /// Number of cells currently registered (allocated in simulated NVRAM).
    pub fn tracked_cells(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Enables spontaneous cache evictions: every `period`-th memory event
    /// also persists the accessed cell with its current value. `0` disables
    /// evictions (the default, maximally adversarial configuration).
    pub fn set_evict_period(&self, period: u64) {
        self.inner.evict_period.store(period, Ordering::SeqCst);
    }

    /// Installs (or with `None`, removes) a [`SimObserver`] receiving every
    /// simulated-NVRAM event on this handle. Replaces any previous observer.
    pub fn set_observer(&self, observer: Option<Arc<dyn SimObserver>>) {
        let mut slot = self.inner.observer.lock();
        self.inner
            .has_observer
            .store(observer.is_some(), Ordering::Release);
        *slot = observer;
    }

    /// Registers one 8-byte cell at `addr` in simulated NVRAM.
    ///
    /// Until first persisted, the cell's persisted copy is [`POISON`], so a
    /// crash before the first flush+fence poisons it.
    pub fn register_cell(&self, addr: usize) {
        self.inner.register(addr);
        if let Some(o) = self.inner.observer() {
            o.on_register_range(addr, 8);
        }
    }

    /// Registers every 8-byte word of `[addr, addr + len)`.
    ///
    /// Data structures call this when allocating a node, so a node that is
    /// linked into the structure but never flushed is fully poisoned by a
    /// crash — the classic "missing `flush(newNode)`" durability bug.
    pub fn register_range(&self, addr: usize, len: usize) {
        debug_assert_eq!(addr % 8, 0, "cells must be 8-byte aligned");
        let words = len.div_ceil(8);
        for i in 0..words {
            self.inner.register(addr + 8 * i);
        }
        if let Some(o) = self.inner.observer() {
            o.on_register_range(addr, len);
        }
    }

    /// Removes every 8-byte word of `[addr, addr + len)` from the registry.
    ///
    /// Must be called before freeing a node's memory, otherwise a later
    /// rollback would write through a dangling pointer.
    pub fn deregister_range(&self, addr: usize, len: usize) {
        let words = len.div_ceil(8);
        for i in 0..words {
            self.inner.deregister(addr + 8 * i);
        }
        if let Some(o) = self.inner.observer() {
            o.on_deregister_range(addr, len);
        }
    }

    /// Returns the persisted bits of the cell at `addr`, if registered.
    pub fn persisted_bits(&self, addr: usize) -> Option<u64> {
        self.inner.shard(addr).lock().get(&addr).map(|e| e.persisted)
    }

    /// Simulates the crash: rolls every registered cell's volatile value back
    /// to its persisted copy and resets crash state so recovery code can run.
    ///
    /// The calling thread's un-fenced flush buffer is discarded (a real crash
    /// loses it; dead worker threads already lost theirs when they unwound).
    ///
    /// # Safety
    ///
    /// Every registered cell must still be live memory, and no other thread
    /// may be accessing the cells concurrently (workers must have crashed or
    /// joined). The crash tests leak nodes instead of reclaiming them to
    /// satisfy the first condition.
    pub unsafe fn crash_and_rollback(&self) -> RollbackReport {
        let mut report = RollbackReport::default();
        for shard in &self.inner.shards {
            for (&addr, e) in shard.lock().iter_mut() {
                report.cells += 1;
                if e.persisted == POISON {
                    report.poisoned += 1;
                }
                e.latest_ver = e.persisted_ver.max(1);
                // SAFETY: the caller guarantees every registered cell is
                // still live memory with no concurrent accessors.
                unsafe { (*(addr as *const AtomicU64)).store(e.persisted, Ordering::SeqCst) };
            }
        }
        // The caller's pending flushes died with the caches.
        CTX.with(|slot| {
            if let Some(ctx) = slot.borrow_mut().as_mut() {
                ctx.pending.clear();
            }
        });
        // Every line now holds its persisted value: nothing the caller
        // wrote before the crash is waiting for a fence any more.
        crate::backend::track::forget();
        self.inner.crash_at.store(0, Ordering::SeqCst);
        self.inner.crashed.store(false, Ordering::SeqCst);
        report
    }
}

/// What a crash rollback touched; useful for sanity assertions in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollbackReport {
    /// Total registered cells rolled back.
    pub cells: usize,
    /// Cells rolled back to [`POISON`] (allocated but never persisted).
    pub poisoned: usize,
}

/// Guard returned by [`SimHandle::enter`]; clears the thread's simulation
/// context when dropped (including during a [`CrashSignal`] unwind, which is
/// how a crashing thread's un-fenced flushes are lost).
#[derive(Debug)]
pub struct SimGuard {
    _priv: (),
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        let ctx = CTX.with(|slot| slot.borrow_mut().take());
        // A thread leaving a crashed simulation drops its write holds: the
        // rollback that must follow leaves every line at its persisted
        // value, so nothing it wrote still waits for a fence.
        if ctx.is_some_and(|c| c.registry.crashed.load(Ordering::SeqCst)) {
            crate::backend::track::forget();
        }
    }
}

// ---- hooks used by `PCell` and the `Sim` backend ----------------------

/// A simulated load of the cell at `addr`.
pub(crate) fn on_load(addr: usize) {
    with_ctx(|ctx| ctx.registry.tick(Some(addr)));
}

/// A simulated store/CAS touching the cell at `addr`. The closure performs
/// the actual atomic operation and reports whether it wrote (a failed CAS
/// does not bump the version).
pub(crate) fn on_write(addr: usize, kind: WriteKind, f: impl FnOnce(&AtomicU64) -> bool) {
    with_ctx(|ctx| {
        ctx.registry.tick(Some(addr));
        let (wrote, bits) = ctx.registry.versioned_write(addr, f);
        if let Some(o) = ctx.registry.observer() {
            o.on_tracked_write(addr, bits, kind, wrote);
        }
    });
}

/// A simulated flush: buffer `(addr, value, version)` thread-locally. A
/// flush of an unregistered (freed) cell buffers nothing — see
/// [`Registry::flush_snapshot`] — but is still reported to the observer,
/// which is how the vet sanitizer surfaces flush-after-free bugs.
pub(crate) fn on_flush(addr: usize) {
    with_ctx(|ctx| {
        ctx.registry.tick(Some(addr));
        if let Some((bits, ver)) = ctx.registry.flush_snapshot(addr) {
            ctx.pending.push((addr, bits, ver));
        }
        if let Some(o) = ctx.registry.observer() {
            o.on_flush(addr);
        }
    });
}

/// A simulated fence: publish the thread's buffered flushes one at a time.
/// Returns whether the fence took effect.
///
/// A fence issued by a destructor while a simulated crash unwinds (a
/// [`FenceBatch`](crate::batch::FenceBatch) open across the crash point)
/// persists nothing — the machine is already down — and returns instead of
/// raising a second [`CrashSignal`] mid-unwind, which would abort.
pub(crate) fn on_fence() -> bool {
    with_ctx(|ctx| {
        if std::thread::panicking() && ctx.registry.crashed.load(Ordering::SeqCst) {
            return false;
        }
        ctx.registry.tick(None);
        while let Some((addr, bits, ver)) = ctx.pending.pop() {
            ctx.registry.persist_versioned(addr, bits, ver);
            // Each persist is its own step so a crash can land between the
            // persists of a single fence (lines drain in arbitrary order).
            ctx.registry.tick(None);
        }
        if let Some(o) = ctx.registry.observer() {
            o.on_fence();
        }
        true
    })
}

/// Deregisters a dropped cell if a context is active on this thread.
pub(crate) fn on_cell_drop(addr: usize) {
    CTX.with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            ctx.registry.deregister(addr);
            if let Some(o) = ctx.registry.observer() {
                o.on_deregister_range(addr, 8);
            }
        }
    });
}

/// Registers every 8-byte word of `[addr, addr + len)` with the calling
/// thread's active simulation context.
///
/// Data-structure allocators call this right after `Box::into_raw`, once the
/// node has its final address. See [`SimHandle::register_range`].
///
/// # Panics
///
/// Panics if the thread has no active context.
pub fn current_register_range(addr: usize, len: usize) {
    with_ctx(|ctx| {
        let words = len.div_ceil(8);
        for i in 0..words {
            ctx.registry.register(addr + 8 * i);
        }
        if let Some(o) = ctx.registry.observer() {
            o.on_register_range(addr, len);
        }
    });
}

/// Deregisters every 8-byte word of `[addr, addr + len)` from the calling
/// thread's active simulation context (before the memory is freed).
///
/// # Panics
///
/// Panics if the thread has no active context.
pub fn current_deregister_range(addr: usize, len: usize) {
    with_ctx(|ctx| {
        let words = len.div_ceil(8);
        for i in 0..words {
            ctx.registry.deregister(addr + 8 * i);
        }
        if let Some(o) = ctx.registry.observer() {
            o.on_deregister_range(addr, len);
        }
    });
}

/// Like [`current_deregister_range`], but a silent no-op when the thread has
/// no active simulation context.
///
/// Reclamation code (EBR collectors draining on teardown, pool `free`) must
/// remove a node's registrations before its memory is returned, yet also
/// runs for hardware backends, on threads whose [`SimGuard`] already
/// dropped, and from TLS destructors during thread exit (EBR handle
/// teardown) — contexts those paths cannot require.
pub fn current_deregister_range_if_active(addr: usize, len: usize) {
    let _ = CTX.try_with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            let words = len.div_ceil(8);
            for i in 0..words {
                ctx.registry.deregister(addr + 8 * i);
            }
            if let Some(o) = ctx.registry.observer() {
                o.on_deregister_range(addr, len);
            }
        }
    });
}

/// Declares every word of `[addr, addr + len)` **volatile by design** to any
/// installed [`SimObserver`]: recovery never reads these words, so the vet
/// sanitizer exempts them from durability rules (e.g. a skiplist's upper
/// tower links, SOFT's volatile `next` pointers, the MS queue's tail
/// shortcut).
///
/// Deliberately *not* a simulated memory event: it neither ticks the step
/// counter nor changes persisted state, so annotating a structure can never
/// shift crash-sweep crash points. A no-op without an active context or
/// observer.
pub fn current_mark_volatile_range(addr: usize, len: usize) {
    CTX.with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            if let Some(o) = ctx.registry.observer() {
                o.on_mark_volatile_range(addr, len);
            }
        }
    });
}

/// Reports to any installed [`SimObserver`] that a durability policy
/// skipped its flush of the cell at `addr`, judging that no write to its
/// line is waiting for a fence.
///
/// Like [`current_mark_volatile_range`], not a simulated memory event: it
/// neither ticks the step counter nor changes persisted state, so the
/// report can never shift crash points. A no-op without an active context
/// or observer.
pub fn current_elided_flush(addr: usize) {
    CTX.with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            if let Some(o) = ctx.registry.observer() {
                o.on_elided_flush(addr);
            }
        }
    });
}

/// A simulated **tracked** store of `bits` to the 8-byte cell at `addr`:
/// counts as one memory event and bumps the cell's write version, so a
/// subsequent flush+fence actually persists the new value.
///
/// For persistent words managed outside [`PCell`](crate::PCell) (e.g. raw
/// descriptor-table slots): a plain `write_volatile` would leave the cell's
/// write version unchanged, and `persist_versioned`'s monotonicity check
/// would then silently discard every later flush of the cell.
///
/// # Panics
///
/// Panics if the thread has no active context.
pub fn current_tracked_write(addr: usize, bits: u64) {
    on_write(addr, WriteKind::Store, |cell| {
        cell.store(bits, Ordering::SeqCst);
        true
    });
}

// ---- test harness helpers ----------------------------------------------

/// Runs `f`, converting a [`CrashSignal`] panic into `Err(CrashSignal)`.
///
/// Panics other than `CrashSignal` are propagated unchanged, so genuine test
/// failures (assertion failures, poison reads) still fail loudly.
///
/// # Example
///
/// ```
/// use nvtraverse_pmem::sim::{run_crashable, CrashSignal};
///
/// let r = run_crashable(|| std::panic::panic_any(CrashSignal));
/// assert!(r.is_err());
/// let ok = run_crashable(|| 42);
/// assert_eq!(ok, Ok(42));
/// ```
pub fn run_crashable<R>(f: impl FnOnce() -> R) -> Result<R, CrashSignal> {
    install_quiet_panic_hook();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            if payload.downcast_ref::<CrashSignal>().is_some() {
                Err(CrashSignal)
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

/// Installs a process-wide panic hook that silences [`CrashSignal`] panics
/// (they are expected control flow in crash tests) while delegating all other
/// panics to the previous hook. Idempotent.
pub fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, PCell, Sim};

    /// Heap-allocates so the registered address stays valid after return.
    fn cell(v: u64, sim: &SimHandle) -> Box<PCell<u64, Sim>> {
        let c = Box::new(PCell::new(v));
        sim.register_cell(c.addr() as usize);
        c
    }

    #[test]
    fn unflushed_store_is_lost_on_crash() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let c = cell(0, &sim);
        c.store(1);
        Sim::flush(c.addr());
        Sim::fence();
        c.store(2); // never flushed
        unsafe { sim.crash_and_rollback() };
        assert_eq!(c.load(), 1);
    }

    #[test]
    fn flush_without_fence_does_not_persist() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let c = cell(0, &sim);
        c.store(5);
        Sim::flush(c.addr());
        Sim::fence();
        c.store(9);
        Sim::flush(c.addr()); // no fence!
        unsafe { sim.crash_and_rollback() };
        assert_eq!(c.load(), 5);
    }

    #[test]
    fn never_persisted_cell_poisons() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let c = cell(7, &sim);
        c.store(8);
        let report = unsafe { sim.crash_and_rollback() };
        assert_eq!(report.poisoned, 1);
        assert_eq!(c.peek_bits(), POISON);
    }

    #[test]
    fn loading_poison_panics_with_diagnostic() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let c = cell(7, &sim);
        unsafe { sim.crash_and_rollback() };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.load()))
            .expect_err("poison load must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poison"), "unhelpful panic message: {msg}");
    }

    #[test]
    fn flush_snapshot_taken_at_flush_time() {
        // The value persisted is the value at *flush* time, not fence time —
        // the adversarial (earliest-allowed) choice.
        let sim = SimHandle::new();
        let _g = sim.enter();
        let c = cell(0, &sim);
        c.store(1);
        Sim::flush(c.addr());
        c.store(2);
        Sim::fence();
        unsafe { sim.crash_and_rollback() };
        assert_eq!(c.load(), 1);
    }

    #[test]
    fn armed_crash_interrupts_at_exact_step() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let c = cell(0, &sim);
        sim.arm_crash_at_step(sim.steps() + 2);
        let r = run_crashable(|| {
            c.store(1); // step +1: survives
            c.store(2); // step +2: crashes *before* taking effect
            c.store(3);
        });
        assert!(r.is_err());
        assert!(sim.crashed());
        assert_eq!(c.peek_bits(), 1, "second store must not have executed");
    }

    #[test]
    fn crash_between_fence_persists_is_possible() {
        // Two cells flushed, crash lands mid-fence: exactly one persists.
        // (pending is drained LIFO; the test only relies on "exactly one".)
        let sim = SimHandle::new();
        let _g = sim.enter();
        let a = cell(0, &sim);
        let b = cell(0, &sim);
        a.store(1);
        b.store(1);
        Sim::flush(a.addr());
        Sim::flush(b.addr());
        // fence = 1 tick + (persist + tick) per entry; crash after the first
        // persist's tick.
        sim.arm_crash_at_step(sim.steps() + 2);
        let r = run_crashable(Sim::fence);
        assert!(r.is_err());
        unsafe { sim.crash_and_rollback() };
        let persisted = [a.peek_bits(), b.peek_bits()];
        let ones = persisted.iter().filter(|&&x| x == 1).count();
        let poisons = persisted.iter().filter(|&&x| x == POISON).count();
        assert_eq!((ones, poisons), (1, 1), "got {persisted:x?}");
    }

    #[test]
    fn stale_flush_cannot_regress_a_newer_persisted_value() {
        // Regression test for the write-versioning fix: thread A flushes an
        // old value; thread B writes, flushes and fences a newer one; A's
        // *later* fence must not roll the persisted copy backwards (real
        // hardware persists same-line writebacks in coherence order).
        let sim = SimHandle::new();
        let g = sim.enter();
        let c: &'static PCell<u64, Sim> = Box::leak(cell(0, &sim));
        drop(g);

        let (a_flushed_tx, a_flushed_rx) = std::sync::mpsc::channel::<()>();
        let (b_done_tx, b_done_rx) = std::sync::mpsc::channel::<()>();
        let sim_a = sim.clone();
        let a = std::thread::spawn(move || {
            let _g = sim_a.enter();
            c.store(1);
            Sim::flush(c.addr()); // snapshot value 1
            a_flushed_tx.send(()).unwrap();
            b_done_rx.recv().unwrap();
            Sim::fence(); // late fence with a stale snapshot
        });
        a_flushed_rx.recv().unwrap();
        {
            let _g = sim.enter();
            c.store(2);
            Sim::flush(c.addr());
            Sim::fence(); // value 2 is now durably persisted
        }
        b_done_tx.send(()).unwrap();
        a.join().unwrap();

        let _g = sim.enter();
        unsafe { sim.crash_and_rollback() };
        assert_eq!(c.load(), 2, "a stale fence regressed the persisted value");
    }

    #[test]
    fn triggered_crash_stops_other_threads_at_next_access() {
        let sim = SimHandle::new();
        let g = sim.enter();
        let c: &'static PCell<u64, Sim> = Box::leak(cell(0, &sim));
        drop(g);
        let sim2 = sim.clone();
        let worker = std::thread::spawn(move || {
            let _g = sim2.enter();
            run_crashable(|| loop {
                c.store(1);
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        sim.trigger_crash();
        let res = worker.join().expect("worker must not die of a real panic");
        assert!(res.is_err(), "worker should have seen the crash");
    }

    #[test]
    fn eviction_persists_without_flush() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        sim.set_evict_period(1); // evict on every access
        let c = cell(0, &sim);
        c.store(3);
        // Evictions snapshot the value *before* the access takes effect, so a
        // later touch of the same line is what writes the 3 back.
        let _ = c.load();
        unsafe { sim.crash_and_rollback() };
        assert_eq!(c.load(), 3, "eviction should have persisted the store");
    }

    #[test]
    fn register_range_covers_all_words() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let block: Box<[u64; 4]> = Box::new([1, 2, 3, 4]);
        let addr = block.as_ptr() as usize;
        sim.register_range(addr, 32);
        assert_eq!(sim.tracked_cells(), 4);
        sim.deregister_range(addr, 32);
        assert_eq!(sim.tracked_cells(), 0);
    }

    #[test]
    fn rollback_resets_crash_state_for_recovery() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let c = cell(0, &sim);
        sim.trigger_crash();
        assert!(run_crashable(|| c.store(1)).is_err());
        unsafe { sim.crash_and_rollback() };
        assert!(!sim.crashed());
        c.store(7); // recovery code can access memory again
        assert_eq!(c.load(), 7);
    }

    #[test]
    fn dropped_cells_deregister() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        {
            let _c = cell(1, &sim);
            assert_eq!(sim.tracked_cells(), 1);
        }
        assert_eq!(sim.tracked_cells(), 0);
    }

    #[test]
    fn contexts_do_not_nest() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let other = SimHandle::new();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| other.enter())).is_err());
    }

    #[test]
    fn access_without_context_panics() {
        let c: PCell<u64, Sim> = PCell::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.load()));
        assert!(r.is_err());
    }
}
