//! Durability policies: *where* flushes and fences are placed.
//!
//! This module is the paper's transformation made executable. A data
//! structure in traversal form performs every shared-memory access through
//! one of the methods of [`Durability`], classified exactly as the paper
//! classifies accesses:
//!
//! * [`t_load`](Durability::t_load) / [`t_load_link`](Durability::t_load_link)
//!   — reads inside the `traverse` method,
//! * [`ensure_reachable`](Durability::ensure_reachable) and
//!   [`make_persistent`](Durability::make_persistent) — the two injected
//!   steps between `traverse` and `critical` (Protocol 1),
//! * [`c_load`](Durability::c_load), [`c_cas`](Durability::c_cas),
//!   [`c_store`](Durability::c_store), … — accesses inside the `critical`
//!   method (Protocol 2),
//! * [`load_fixed`](Durability::load_fixed) — reads of immutable fields,
//!   which never need flushing after initialization (§4.4: "no flush —
//!   immutable"),
//! * [`persist_new_node`](Durability::persist_new_node) — flushing a freshly
//!   initialized node, with the single fence deferred to just before the
//!   linking CAS (§4.2),
//! * [`before_return`](Durability::before_return) — the fence before an
//!   operation returns.
//!
//! Each implementation of the trait is one of the systems compared in the
//! paper's evaluation; see the crate-level table.
//!
//! The closing fence of every durable policy routes through
//! [`nvtraverse_pmem::batch`]: inside a
//! [`FenceBatch`](nvtraverse_pmem::batch::FenceBatch) scope it is deferred
//! to the batch's single shared fence (the server's group-commit path);
//! outside any scope it is issued immediately, exactly as the protocols
//! place it. Only `before_return` defers — every other fence precedes a
//! write and stays put.
//!
//! `NvTraverse` issues no fence of its own in
//! [`make_persistent`](Durability::make_persistent): under the §2 model a
//! fence only drains the issuing thread's flushes, and between
//! `makePersistent` and the next Protocol 2 fence (the pre-fence of the
//! first critical write, or `before_return`) the thread only reads and
//! flushes. That next fence drains the window flushes too, so Algorithm 2's
//! fence there adds nothing. The invariant this relies on: no persistent
//! write in `critical` without a pre-write fence — the `c_*` writes fence
//! themselves, and a structure that writes persistent memory by other means
//! calls [`fence_before_write`](Durability::fence_before_write) first.
//!
//! `NvTraverse` also skips every read-side flush that would persist
//! nothing (after FliT, Wei et al., PPoPP 2022). Each `c_*` write
//! [holds](Backend::hold) its cache line from just before the write until
//! the writer's next fence has completed; `ensure_reachable`,
//! `make_persistent`, `c_load` and `c_load_link` flush a line only if it
//! [may be dirty](Backend::maybe_dirty). A line nobody holds has had every
//! tracked write flushed and fenced, so its flush is a no-op under the §2
//! model. This is sound as long as every mutable word a persist set or a
//! `c_load` can name is written through `c_*`, or before its node is
//! published (`persist_new_node`, drained by the linking CAS's pre-fence);
//! ARCHITECTURE.md records the audit of the raw writers. A lookup of
//! quiescent state therefore costs no flush and no fence.

use crate::marked::MarkedPtr;
use nvtraverse_obs as obs;
use nvtraverse_pmem::{Backend, Noop, PCell, Word};
use std::marker::PhantomData;

/// Issues `B::fence()` only when this thread has unfenced flushes.
///
/// A protocol fence's one job is draining the issuing thread's flush queue
/// (SFENCE semantics — it orders nothing across threads that their own
/// fences don't already order), so with no flush in flight it is a no-op
/// and the policies elide it. [`nvtraverse_pmem::flushes_pending`] is
/// conservative: it can over-report (an extra fence), never under-report,
/// so elision cannot lose a fence that could matter.
#[inline]
fn fence_if_pending<B: Backend>() {
    if nvtraverse_pmem::flushes_pending() {
        B::fence();
    }
}

/// Flushes `addr` only if some thread's write to its line may still be
/// waiting for its fence ([`Backend::maybe_dirty`]). Otherwise the flush
/// would persist nothing, so it is skipped — and, under the crash
/// simulator, reported to the observer so the vet sanitizer can check that
/// the skipped word really was persisted.
#[inline]
fn flush_if_dirty<B: Backend>(addr: *const u8) {
    if B::maybe_dirty(addr) {
        B::flush(addr);
    } else if B::SIM {
        nvtraverse_pmem::sim::current_elided_flush(addr as usize);
    }
}

// Every flush-bearing policy method opens an `obs::phase` scope so that
// flushes and fences recorded by the attributing backend (`MmapBackend`)
// carry the pipeline stage that issued them — the paper's
// traversal/critical split made observable. Methods that cannot flush
// (traversal reads under NvTraverse, the Volatile policy entirely) open no
// scope and stay zero-cost.

/// A durability policy: the placement of flushes and fences.
///
/// All methods are static; policies are zero-sized type parameters, so the
/// "transformation" is applied by the compiler at monomorphization time with
/// no runtime dispatch. For [`Volatile`] every method optimizes to a plain
/// atomic access.
pub trait Durability: Send + Sync + 'static {
    /// The flush/fence backend this policy drives.
    type B: Backend;

    /// Whether the policy produces a durable (recoverable) structure.
    /// `false` only for [`Volatile`].
    const DURABLE: bool;

    // ---- traversal phase -------------------------------------------------

    /// Read of a mutable shared scalar during `traverse`.
    fn t_load<T: Word>(cell: &PCell<T, Self::B>) -> T;

    /// Read of a link (pointer word) during `traverse`.
    fn t_load_link<T>(cell: &PCell<MarkedPtr<T>, Self::B>) -> MarkedPtr<T>;

    // ---- between traverse and critical (Protocol 1) ----------------------

    /// Flush the pointer that connects the traversal's first returned node to
    /// the rest of the tree (the *original parent* of Supplement 2, or the
    /// current parent under the Lemma 4.1 optimization).
    fn ensure_reachable(addr: *const u8);

    /// Flush every field the traversal read in its returned nodes. No
    /// fence: these flushes and [`Durability::ensure_reachable`]'s stay
    /// pending until the next Protocol 2 fence — before the first critical
    /// write, or [`before_return`](Durability::before_return) — which
    /// drains them before anything that depends on them is written or
    /// returned. `NvTraverse` flushes only the fields whose line some
    /// thread's write still holds ([`Backend::maybe_dirty`]): the flush of
    /// any other field would persist nothing.
    fn make_persistent(addrs: &[*const u8]);

    // ---- critical phase (Protocol 2) --------------------------------------

    /// Read of a mutable shared scalar in `critical`: flush after the read.
    fn c_load<T: Word>(cell: &PCell<T, Self::B>) -> T;

    /// Read of a link in `critical`: flush after the read.
    fn c_load_link<T>(cell: &PCell<MarkedPtr<T>, Self::B>) -> MarkedPtr<T>;

    /// Read of an immutable field (initialized before the node was linked
    /// in): never flushed, under any policy.
    #[inline]
    fn load_fixed<T: Word>(cell: &PCell<T, Self::B>) -> T {
        cell.load()
    }

    /// Shared store in `critical`: fence before, flush after.
    fn c_store<T: Word>(cell: &PCell<T, Self::B>, value: T);

    /// Shared CAS on a scalar in `critical`: fence before, flush after.
    ///
    /// # Errors
    ///
    /// `Err(actual)` when the cell did not hold `current`.
    fn c_cas<T: Word>(cell: &PCell<T, Self::B>, current: T, new: T) -> Result<T, T>;

    /// Shared CAS on a link in `critical`: fence before, flush after.
    ///
    /// Link CASes are distinguished from scalar CASes because the
    /// link-and-persist policy tags link words with a dirty bit; the expected
    /// and observed values are compared *modulo* that bit.
    ///
    /// # Errors
    ///
    /// `Err(actual)` (dirty bit stripped) when the link did not hold
    /// `current`.
    fn c_cas_link<T>(
        cell: &PCell<MarkedPtr<T>, Self::B>,
        current: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>>;

    /// Flush a freshly initialized node's memory (before it is linked in).
    /// No fence: "a process executes flushes after initializing each field,
    /// but only needs to fence once before atomically inserting the new node"
    /// (§4.2) — that fence is the one inside the linking
    /// [`c_cas_link`](Durability::c_cas_link).
    fn persist_new_node(addr: *const u8, len: usize);

    /// Fence before the operation returns its result (Protocol 2, last rule).
    fn before_return();

    /// Protocol 2's fence before a persistent write that does not go
    /// through [`c_store`](Durability::c_store) / [`c_cas`](Durability::c_cas)
    /// / [`c_cas_link`](Durability::c_cas_link) (e.g. a detectable
    /// operation's descriptor words): drains this thread's pending flushes
    /// — the window's among them — so the write cannot persist ahead of
    /// the state it was decided on. A no-op unless the policy leaves
    /// Protocol 1 flushes unfenced.
    #[inline(always)]
    fn fence_before_write() {}
}

/// No persistence at all: the original lock-free algorithm.
///
/// This is the paper's non-durable baseline ("orig"); it exists so the exact
/// same data-structure code can be benchmarked with and without durability.
#[derive(Debug, Clone, Copy, Default)]
pub struct Volatile;

impl Durability for Volatile {
    type B = Noop;
    const DURABLE: bool = false;

    #[inline(always)]
    fn t_load<T: Word>(cell: &PCell<T, Noop>) -> T {
        cell.load()
    }
    #[inline(always)]
    fn t_load_link<T>(cell: &PCell<MarkedPtr<T>, Noop>) -> MarkedPtr<T> {
        cell.load()
    }
    #[inline(always)]
    fn ensure_reachable(_addr: *const u8) {}
    #[inline(always)]
    fn make_persistent(_addrs: &[*const u8]) {}
    #[inline(always)]
    fn c_load<T: Word>(cell: &PCell<T, Noop>) -> T {
        cell.load()
    }
    #[inline(always)]
    fn c_load_link<T>(cell: &PCell<MarkedPtr<T>, Noop>) -> MarkedPtr<T> {
        cell.load()
    }
    #[inline(always)]
    fn c_store<T: Word>(cell: &PCell<T, Noop>, value: T) {
        cell.store(value);
    }
    #[inline(always)]
    fn c_cas<T: Word>(cell: &PCell<T, Noop>, current: T, new: T) -> Result<T, T> {
        cell.compare_exchange(current, new)
    }
    #[inline(always)]
    fn c_cas_link<T>(
        cell: &PCell<MarkedPtr<T>, Noop>,
        current: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        cell.compare_exchange(current, new).map(drop)
    }
    #[inline(always)]
    fn persist_new_node(_addr: *const u8, _len: usize) {}
    #[inline(always)]
    fn before_return() {}
}

/// The paper's transformation (§4): nothing persists during the traversal;
/// Protocol 1 persists the traversal's destination; Protocol 2 persists every
/// shared access in the critical method. Reads flush only lines that a
/// write still waiting for its fence holds (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct NvTraverse<B>(PhantomData<fn() -> B>);

impl<B: Backend> Durability for NvTraverse<B> {
    type B = B;
    const DURABLE: bool = true;

    #[inline(always)]
    fn t_load<T: Word>(cell: &PCell<T, B>) -> T {
        // The journey is not persisted.
        cell.load()
    }
    #[inline(always)]
    fn t_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        cell.load()
    }
    #[inline]
    fn ensure_reachable(addr: *const u8) {
        let _p = obs::phase(obs::Phase::Critical);
        flush_if_dirty::<B>(addr);
    }
    #[inline]
    fn make_persistent(addrs: &[*const u8]) {
        // No fence: the next Protocol 2 fence drains these flushes.
        let _p = obs::phase(obs::Phase::Critical);
        for &a in addrs {
            flush_if_dirty::<B>(a);
        }
    }
    #[inline]
    fn c_load<T: Word>(cell: &PCell<T, B>) -> T {
        let _p = obs::phase(obs::Phase::Critical);
        let v = cell.load();
        flush_if_dirty::<B>(cell.addr());
        v
    }
    #[inline]
    fn c_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        let _p = obs::phase(obs::Phase::Critical);
        let v = cell.load();
        flush_if_dirty::<B>(cell.addr());
        v
    }
    // Each write holds its line after the pre-fence (which would otherwise
    // release the hold before the write's own flush) and before the write
    // (so a reader that sees the value also sees the hold).
    #[inline]
    fn c_store<T: Word>(cell: &PCell<T, B>, value: T) {
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
        B::hold(cell.addr());
        cell.store(value);
        B::flush(cell.addr());
    }
    #[inline]
    fn c_cas<T: Word>(cell: &PCell<T, B>, current: T, new: T) -> Result<T, T> {
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
        B::hold(cell.addr());
        let r = cell.compare_exchange(current, new);
        B::flush(cell.addr());
        r
    }
    #[inline]
    fn c_cas_link<T>(
        cell: &PCell<MarkedPtr<T>, B>,
        current: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
        B::hold(cell.addr());
        let r = cell.compare_exchange(current, new);
        B::flush(cell.addr());
        r.map(drop)
    }
    #[inline]
    fn persist_new_node(addr: *const u8, len: usize) {
        let _p = obs::phase(obs::Phase::Critical);
        B::flush_range(addr, len);
    }
    #[inline]
    fn before_return() {
        if nvtraverse_pmem::batch::defer_closing_fence() {
            return; // absorbed by the enclosing FenceBatch
        }
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
    }
    #[inline]
    fn fence_before_write() {
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
    }
}

/// The general transformation of Izraelevitz et al. (DISC 2016): a flush and
/// a fence between every two shared-memory instructions, traversal included.
///
/// Correct for *any* linearizable lock-free algorithm, but as the paper
/// measures, 13×–56× slower than NVTraverse on traversal-dominated
/// structures, because the entire journey is persisted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Izraelevitz<B>(PhantomData<fn() -> B>);

impl<B: Backend> Izraelevitz<B> {
    #[inline]
    fn psync(addr: *const u8) {
        B::flush(addr);
        B::fence();
    }
}

impl<B: Backend> Durability for Izraelevitz<B> {
    type B = B;
    const DURABLE: bool = true;

    #[inline]
    fn t_load<T: Word>(cell: &PCell<T, B>) -> T {
        let _p = obs::phase(obs::Phase::Traversal);
        let v = cell.load();
        Self::psync(cell.addr());
        v
    }
    #[inline]
    fn t_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        let _p = obs::phase(obs::Phase::Traversal);
        let v = cell.load();
        Self::psync(cell.addr());
        v
    }
    #[inline(always)]
    fn ensure_reachable(_addr: *const u8) {
        // Everything was already persisted access-by-access.
    }
    #[inline(always)]
    fn make_persistent(_addrs: &[*const u8]) {}
    #[inline]
    fn c_load<T: Word>(cell: &PCell<T, B>) -> T {
        let _p = obs::phase(obs::Phase::Critical);
        let v = cell.load();
        Self::psync(cell.addr());
        v
    }
    #[inline]
    fn c_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        let _p = obs::phase(obs::Phase::Critical);
        let v = cell.load();
        Self::psync(cell.addr());
        v
    }
    #[inline]
    fn load_fixed<T: Word>(cell: &PCell<T, B>) -> T {
        // The general transformation has no notion of immutability: it
        // persists after this read like any other. Reads of fixed fields
        // happen during the journey, so they count as traversal traffic.
        let _p = obs::phase(obs::Phase::Traversal);
        let v = cell.load();
        Self::psync(cell.addr());
        v
    }
    #[inline]
    fn c_store<T: Word>(cell: &PCell<T, B>, value: T) {
        let _p = obs::phase(obs::Phase::Critical);
        cell.store(value);
        Self::psync(cell.addr());
    }
    #[inline]
    fn c_cas<T: Word>(cell: &PCell<T, B>, current: T, new: T) -> Result<T, T> {
        let _p = obs::phase(obs::Phase::Critical);
        let r = cell.compare_exchange(current, new);
        Self::psync(cell.addr());
        r
    }
    #[inline]
    fn c_cas_link<T>(
        cell: &PCell<MarkedPtr<T>, B>,
        current: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        let _p = obs::phase(obs::Phase::Critical);
        let r = cell.compare_exchange(current, new);
        Self::psync(cell.addr());
        r.map(drop)
    }
    #[inline]
    fn persist_new_node(addr: *const u8, len: usize) {
        let _p = obs::phase(obs::Phase::Critical);
        B::flush_range(addr, len);
        B::fence();
    }
    #[inline(always)]
    fn before_return() {
        if nvtraverse_pmem::batch::defer_closing_fence() {
            return; // absorbed by the enclosing FenceBatch
        }
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
    }
}

/// Link-and-persist (David et al., "Log-Free Concurrent Data Structures",
/// USENIX ATC 2018; also Wang et al., ICDE 2018) — the hand-tuned durable
/// competitor of the paper's §5.3 (the "Log Free" series).
///
/// Every link word carries a *dirty* bit. A modifying CAS installs the new
/// link with the dirty bit set, flushes, and clears the bit with a second
/// CAS after its next fence; any reader that observes a dirty link helps:
/// it flushes the word, fences, clears the bit, and proceeds. A clean link
/// is therefore *known persisted* and is never flushed again — saving
/// flushes under contention at the price of one extra CAS per flush, which
/// is exactly the trade-off the paper's DRAM-machine figures explore.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkPersist<B>(PhantomData<fn() -> B>);

impl<B: Backend> LinkPersist<B> {
    /// The shared read protocol: load; if dirty, persist and help clean.
    /// `at` tags the helping flush+fence with the phase of the read that
    /// triggered it (a dirty link seen mid-traversal is traversal traffic).
    #[inline]
    fn load_link_helping<T>(cell: &PCell<MarkedPtr<T>, B>, at: obs::Phase) -> MarkedPtr<T> {
        let v = cell.load();
        if v.is_dirty() {
            let _p = obs::phase(at);
            B::flush(cell.addr());
            B::fence();
            // Best-effort: if it fails someone else cleaned (or changed) it.
            let _ = cell.compare_exchange(v, v.without_dirty());
            v.without_dirty()
        } else {
            v
        }
    }
}

impl<B: Backend> Durability for LinkPersist<B> {
    type B = B;
    const DURABLE: bool = true;

    #[inline]
    fn t_load<T: Word>(cell: &PCell<T, B>) -> T {
        cell.load()
    }
    #[inline]
    fn t_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        Self::load_link_helping(cell, obs::Phase::Traversal)
    }
    #[inline(always)]
    fn ensure_reachable(_addr: *const u8) {
        // Every link the traversal followed was persisted on sight.
    }
    #[inline(always)]
    fn make_persistent(_addrs: &[*const u8]) {}
    #[inline]
    fn c_load<T: Word>(cell: &PCell<T, B>) -> T {
        let _p = obs::phase(obs::Phase::Critical);
        let v = cell.load();
        B::flush(cell.addr());
        v
    }
    #[inline]
    fn c_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        Self::load_link_helping(cell, obs::Phase::Critical)
    }
    #[inline]
    fn c_store<T: Word>(cell: &PCell<T, B>, value: T) {
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
        cell.store(value);
        B::flush(cell.addr());
    }
    #[inline]
    fn c_cas<T: Word>(cell: &PCell<T, B>, current: T, new: T) -> Result<T, T> {
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
        let r = cell.compare_exchange(current, new);
        B::flush(cell.addr());
        r
    }
    #[inline]
    fn c_cas_link<T>(
        cell: &PCell<MarkedPtr<T>, B>,
        current: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        debug_assert!(!current.is_dirty() && !new.is_dirty());
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
        loop {
            // The stored word may carry the dirty bit; compare modulo it.
            let observed = cell.load();
            if observed.without_dirty() != current {
                // Make sure the failure we report is persisted before the
                // caller acts on it (same help rule as reads).
                if observed.is_dirty() {
                    B::flush(cell.addr());
                    B::fence();
                    let _ = cell.compare_exchange(observed, observed.without_dirty());
                }
                return Err(observed.without_dirty());
            }
            match cell.compare_exchange(observed, new.with_dirty()) {
                Ok(_) => {
                    B::flush(cell.addr());
                    // Clear the dirty bit once this thread's next fence has
                    // made the link durable: a reader that sees it clean
                    // neither flushes nor fences. Failure means a helper
                    // already cleared it.
                    // SAFETY: the link's node is protected by this
                    // operation's EBR guard, and the operation fences before
                    // the guard drops — at its next pre-write fence or at
                    // `before_return`, which does not defer while a clear is
                    // queued.
                    unsafe { B::cas_after_fence(cell, new.with_dirty(), new) };
                    return Ok(());
                }
                Err(_) => continue,
            }
        }
    }
    #[inline]
    fn persist_new_node(addr: *const u8, len: usize) {
        let _p = obs::phase(obs::Phase::Critical);
        B::flush_range(addr, len);
    }
    #[inline]
    fn before_return() {
        // A queued dirty-bit clear must run while this operation's guard
        // still protects its link, so it is not left to a batch's fence.
        if !nvtraverse_pmem::cas_after_fence_pending()
            && nvtraverse_pmem::batch::defer_closing_fence()
        {
            return; // absorbed by the enclosing FenceBatch
        }
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
    }
}

/// SOFT-style minimal flushing (Zuriel et al., "Efficient Lock-Free Durable
/// Sets", OOPSLA 2019): link words are **volatile** — never flushed, never
/// fenced — and the only thing an operation persists is the node's validity
/// header, reaching the one-flush-per-update floor the hardware can't beat.
///
/// The division of labour differs from every other policy here: durability
/// lives in per-node *state* (a sealed/tombstoned validity word), not in the
/// link structure, and recovery rebuilds all links from the surviving valid
/// nodes. Consequently this policy is only correct for structures designed
/// for it (`nvtraverse_structures::soft_list`, `soft_hash`), which route
/// exactly one persistent word (or one fresh node header) through the
/// flushing methods per operation:
///
/// * traversal *and* critical reads are plain loads — SOFT reads are free;
/// * Protocol 1 ([`ensure_reachable`](Durability::ensure_reachable) /
///   [`make_persistent`](Durability::make_persistent)) is empty — there is
///   no persistent link structure to make reachable;
/// * [`c_cas_link`](Durability::c_cas_link) is a plain CAS: links are
///   volatile;
/// * [`c_cas`](Durability::c_cas) / [`c_store`](Durability::c_store) flush
///   the written word (the validity transition) with **no** pre-fence — the
///   single fence of the operation is [`before_return`](Durability::before_return);
/// * [`persist_new_node`](Durability::persist_new_node) flushes the fresh
///   node's validity header (the insert's one flush).
#[derive(Debug, Clone, Copy, Default)]
pub struct Soft<B>(PhantomData<fn() -> B>);

impl<B: Backend> Durability for Soft<B> {
    type B = B;
    const DURABLE: bool = true;

    #[inline(always)]
    fn t_load<T: Word>(cell: &PCell<T, B>) -> T {
        cell.load()
    }
    #[inline(always)]
    fn t_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        cell.load()
    }
    #[inline(always)]
    fn ensure_reachable(_addr: *const u8) {
        // No persistent links: nothing to reconnect.
    }
    #[inline(always)]
    fn make_persistent(_addrs: &[*const u8]) {}
    #[inline(always)]
    fn c_load<T: Word>(cell: &PCell<T, B>) -> T {
        // Unlike NvTraverse, critical reads are free too: correctness never
        // depends on a read value being persistent, only on validity words.
        cell.load()
    }
    #[inline(always)]
    fn c_load_link<T>(cell: &PCell<MarkedPtr<T>, B>) -> MarkedPtr<T> {
        cell.load()
    }
    #[inline]
    fn c_store<T: Word>(cell: &PCell<T, B>, value: T) {
        let _p = obs::phase(obs::Phase::Critical);
        cell.store(value);
        B::flush(cell.addr());
    }
    #[inline]
    fn c_cas<T: Word>(cell: &PCell<T, B>, current: T, new: T) -> Result<T, T> {
        // The validity transition (seal → tombstone): CAS + flush, fence
        // deferred to `before_return` — the remove's single fence.
        let _p = obs::phase(obs::Phase::Critical);
        let r = cell.compare_exchange(current, new);
        B::flush(cell.addr());
        r
    }
    #[inline(always)]
    fn c_cas_link<T>(
        cell: &PCell<MarkedPtr<T>, B>,
        current: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        // Links are volatile state, rebuilt by recovery: plain CAS.
        cell.compare_exchange(current, new).map(drop)
    }
    #[inline]
    fn persist_new_node(addr: *const u8, len: usize) {
        // The insert's one flush: the fresh node's validity header. The
        // SOFT structures pass only the persistent header prefix, not the
        // (volatile) link word.
        let _p = obs::phase(obs::Phase::Critical);
        B::flush_range(addr, len);
    }
    #[inline]
    fn before_return() {
        if nvtraverse_pmem::batch::defer_closing_fence() {
            return; // absorbed by the enclosing FenceBatch
        }
        let _p = obs::phase(obs::Phase::Critical);
        fence_if_pending::<B>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse_obs::counted;
    use nvtraverse_pmem::MmapBackend;

    type CB = MmapBackend;

    #[test]
    fn volatile_never_flushes_or_fences() {
        // Volatile is pinned to the Noop backend, so by construction it
        // cannot flush; this test documents DURABLE = false instead.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(!Volatile::DURABLE);
        }
        let c: PCell<u64, Noop> = PCell::new(1);
        assert_eq!(Volatile::c_load(&c), 1);
        assert_eq!(Volatile::c_cas(&c, 1, 2), Ok(1));
    }

    #[test]
    fn nvtraverse_traversal_reads_are_free() {
        let c: PCell<u64, CB> = PCell::new(1);
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::null());
        let (d, _) = counted(|| {
            let _ = NvTraverse::<CB>::t_load(&c);
            let _ = NvTraverse::<CB>::t_load_link(&l);
            let _ = NvTraverse::<CB>::load_fixed(&c);
        });
        assert_eq!((d.flushes, d.fences), (0, 0), "the journey must be free");
    }

    /// Marks each address as written by this thread and not yet fenced:
    /// the state in which `NvTraverse`'s reads must flush it. The thread's
    /// next fence releases them.
    fn hold(addrs: &[*const u8]) {
        for &a in addrs {
            CB::hold(a);
        }
    }

    #[test]
    fn nvtraverse_critical_read_flushes_only_a_held_line() {
        let c: PCell<u64, CB> = PCell::new(1);
        let (d, _) = counted(|| NvTraverse::<CB>::c_load(&c));
        assert_eq!(
            (d.flushes, d.fences),
            (0, 0),
            "no write waits: nothing to persist"
        );
        hold(&[c.addr()]);
        let (d, _) = counted(|| NvTraverse::<CB>::c_load(&c));
        assert_eq!((d.flushes, d.fences), (1, 0));
        NvTraverse::<CB>::before_return();
    }

    #[test]
    fn nvtraverse_writes_hold_their_line_until_the_next_fence() {
        let c: PCell<u64, CB> = PCell::new(1);
        assert!(!CB::maybe_dirty(c.addr()));
        NvTraverse::<CB>::c_store(&c, 2);
        assert!(CB::maybe_dirty(c.addr()), "written and flushed, not fenced");
        assert_eq!(NvTraverse::<CB>::c_cas(&c, 7, 8), Err(2));
        NvTraverse::<CB>::before_return();
        assert!(
            !CB::maybe_dirty(c.addr()),
            "the closing fence released both holds"
        );
    }

    #[test]
    fn nvtraverse_cas_pre_fence_is_elided_without_pending_flushes() {
        let c: PCell<u64, CB> = PCell::new(1);
        // No flush in flight on this thread: the pre-fence is a no-op and
        // is elided, leaving only the post-CAS flush.
        let (d, r) = counted(|| NvTraverse::<CB>::c_cas(&c, 1, 2));
        assert_eq!(r, Ok(1));
        assert_eq!((d.flushes, d.fences), (1, 0));
        NvTraverse::<CB>::before_return();
    }

    #[test]
    fn nvtraverse_cas_fences_before_when_a_flush_is_pending() {
        let c: PCell<u64, CB> = PCell::new(1);
        hold(&[c.addr()]);
        let (d, r) = counted(|| {
            // The critical read's flush is still unfenced when the CAS
            // runs, so the pre-fence must be issued to persist it.
            let _ = NvTraverse::<CB>::c_load(&c);
            NvTraverse::<CB>::c_cas(&c, 1, 2)
        });
        assert_eq!(r, Ok(1));
        assert_eq!((d.flushes, d.fences), (2, 1));
        NvTraverse::<CB>::before_return();
    }

    #[test]
    fn nvtraverse_make_persistent_skips_quiescent_lines() {
        let a: PCell<u64, CB> = PCell::new(1);
        let b: PCell<u64, CB> = PCell::new(2);
        let (d, _) = counted(|| {
            NvTraverse::<CB>::ensure_reachable(a.addr());
            NvTraverse::<CB>::make_persistent(&[a.addr(), b.addr()]);
            NvTraverse::<CB>::before_return();
        });
        assert_eq!(
            (d.flushes, d.fences),
            (0, 0),
            "a quiescent lookup costs nothing"
        );
    }

    #[test]
    fn nvtraverse_make_persistent_flushes_without_fencing() {
        let a: PCell<u64, CB> = PCell::new(1);
        let b: PCell<u64, CB> = PCell::new(2);
        hold(&[a.addr(), b.addr()]);
        let (d, _) = counted(|| {
            NvTraverse::<CB>::ensure_reachable(a.addr());
            NvTraverse::<CB>::make_persistent(&[a.addr(), b.addr()]);
        });
        assert_eq!((d.flushes, d.fences), (3, 0));
        assert!(nvtraverse_pmem::flushes_pending(), "left for the next fence");
        NvTraverse::<CB>::before_return();
    }

    #[test]
    fn nvtraverse_window_flushes_ride_the_linking_cas_fence() {
        let a: PCell<u64, CB> = PCell::new(1);
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::null());
        hold(&[a.addr(), l.addr()]);
        let (d, r) = counted(|| {
            NvTraverse::<CB>::make_persistent(&[a.addr(), l.addr()]);
            NvTraverse::<CB>::c_cas_link(&l, MarkedPtr::null(), MarkedPtr::null())
        });
        assert!(r.is_ok());
        assert_eq!((d.flushes, d.fences), (3, 1), "one fence: the CAS's pre-fence");
        NvTraverse::<CB>::before_return();
    }

    #[test]
    fn nvtraverse_fence_before_write_drains_pending_flushes() {
        let a: PCell<u64, CB> = PCell::new(1);
        hold(&[a.addr()]);
        let (d, _) = counted(|| {
            NvTraverse::<CB>::make_persistent(&[a.addr()]);
            NvTraverse::<CB>::fence_before_write();
            // Nothing pending now: a second one is elided.
            NvTraverse::<CB>::fence_before_write();
        });
        assert_eq!((d.flushes, d.fences), (1, 1));
    }

    #[test]
    fn nvtraverse_lookup_in_a_batch_fences_only_at_close() {
        use nvtraverse_pmem::batch::FenceBatch;
        let a: PCell<u64, CB> = PCell::new(1);
        hold(&[a.addr()]);
        let (d, _) = counted(|| {
            let b = FenceBatch::<CB>::begin();
            let (inside, _) = counted(|| {
                NvTraverse::<CB>::make_persistent(&[a.addr()]);
                NvTraverse::<CB>::before_return();
            });
            assert_eq!((inside.flushes, inside.fences), (1, 0), "no fence before close");
            assert_eq!(b.close(), 1);
        });
        assert_eq!(d.fences, 1, "the batch's closing fence drains the window flush");
        assert!(!nvtraverse_pmem::flushes_pending());

        // Once that fence released the line, the same lookup is free, and
        // so is the batch around it.
        let (d, _) = counted(|| {
            let b = FenceBatch::<CB>::begin();
            NvTraverse::<CB>::make_persistent(&[a.addr()]);
            NvTraverse::<CB>::before_return();
            assert_eq!(b.close_fenced(), (1, false));
        });
        assert_eq!((d.flushes, d.fences), (0, 0));
    }

    #[test]
    fn izraelevitz_persists_every_traversal_read() {
        let c: PCell<u64, CB> = PCell::new(1);
        let (d, _) = counted(|| {
            let _ = Izraelevitz::<CB>::t_load(&c);
            let _ = Izraelevitz::<CB>::t_load(&c);
            let _ = Izraelevitz::<CB>::load_fixed(&c);
        });
        assert_eq!((d.flushes, d.fences), (3, 3), "the journey costs full price");
    }

    #[test]
    fn izraelevitz_skips_protocol_one() {
        let a: PCell<u64, CB> = PCell::new(1);
        let (d, _) = counted(|| {
            Izraelevitz::<CB>::ensure_reachable(a.addr());
            Izraelevitz::<CB>::make_persistent(&[a.addr()]);
        });
        assert_eq!((d.flushes, d.fences), (0, 0));
    }

    #[test]
    fn link_persist_clean_link_reads_are_free() {
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::null());
        let (d, _) = counted(|| LinkPersist::<CB>::t_load_link(&l));
        assert_eq!((d.flushes, d.fences), (0, 0));
    }

    #[test]
    fn link_persist_dirty_link_read_helps_and_cleans() {
        let node = Box::into_raw(Box::new(1u64));
        let dirty = MarkedPtr::new(node).with_dirty();
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(dirty);
        let (d, v) = counted(|| LinkPersist::<CB>::t_load_link(&l));
        assert_eq!(v, MarkedPtr::new(node), "dirty bit must be stripped");
        assert!(!l.load().is_dirty(), "reader must clean the link");
        assert_eq!((d.flushes, d.fences), (1, 1));
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn link_persist_cas_installs_then_cleans() {
        let node = Box::into_raw(Box::new(1u64));
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::null());
        let (d, r) =
            counted(|| LinkPersist::<CB>::c_cas_link(&l, MarkedPtr::null(), MarkedPtr::new(node)));
        assert!(r.is_ok());
        assert_eq!(d.flushes, 1);
        assert_eq!(
            l.load(),
            MarkedPtr::new(node).with_dirty(),
            "the bit stays set until the writer's fence"
        );
        LinkPersist::<CB>::before_return();
        let stored = l.load();
        assert_eq!(stored, MarkedPtr::new(node));
        assert!(!stored.is_dirty());
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn link_persist_cas_succeeds_against_dirty_current() {
        // Another thread installed `a` but hasn't cleaned it yet; our CAS
        // expecting clean `a` must still succeed (comparison modulo dirty).
        let a = Box::into_raw(Box::new(1u64));
        let b = Box::into_raw(Box::new(2u64));
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::new(a).with_dirty());
        let r = LinkPersist::<CB>::c_cas_link(&l, MarkedPtr::new(a), MarkedPtr::new(b));
        assert!(r.is_ok());
        LinkPersist::<CB>::before_return();
        assert_eq!(l.load(), MarkedPtr::new(b));
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn link_persist_clear_is_not_left_to_a_batch() {
        use nvtraverse_pmem::batch::FenceBatch;
        let node = Box::into_raw(Box::new(1u64));
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::null());
        let b = FenceBatch::<CB>::begin();
        assert!(LinkPersist::<CB>::c_cas_link(&l, MarkedPtr::null(), MarkedPtr::new(node)).is_ok());
        LinkPersist::<CB>::before_return();
        assert!(!l.load().is_dirty(), "the clear ran at the op's own fence");
        assert_eq!(b.close(), 0, "that fence was not deferred");
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn link_persist_cas_failure_reports_clean_value() {
        let a = Box::into_raw(Box::new(1u64));
        let b = Box::into_raw(Box::new(2u64));
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::new(a).with_dirty());
        let r = LinkPersist::<CB>::c_cas_link(&l, MarkedPtr::new(b), MarkedPtr::new(b));
        assert_eq!(r, Err(MarkedPtr::new(a)));
        assert!(!l.load().is_dirty(), "failed CAS must still help clean");
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    /// A reader that sees a link-and-persist link clean neither flushes
    /// nor fences, so the writer may clear the dirty bit only once its own
    /// fence has made the link durable. Here the writer installs a link and
    /// stalls before any fence; a reader on another thread then loads it,
    /// and a crash follows. Whatever the reader returned must have survived.
    #[test]
    fn link_persist_reader_never_returns_an_unfenced_link() {
        use nvtraverse_pmem::sim::SimHandle;
        use nvtraverse_pmem::Sim;
        use std::sync::mpsc;

        let sim = SimHandle::new();
        let node = Box::into_raw(Box::new(7u64));
        let link: Box<PCell<MarkedPtr<u64>, Sim>> = Box::new(PCell::new(MarkedPtr::null()));
        {
            let _g = sim.enter();
            sim.register_cell(link.addr() as usize);
            Sim::flush(link.addr());
            Sim::fence();
        }
        let seen = std::thread::scope(|s| {
            let (installed, wait_installed) = mpsc::channel();
            let (read, wait_read) = mpsc::channel::<()>();
            let (link, sim_w, node_addr) = (&*link, sim.clone(), node as usize);
            s.spawn(move || {
                let _g = sim_w.enter();
                let new = MarkedPtr::new(node_addr as *mut u64);
                let r = LinkPersist::<Sim>::c_cas_link(link, MarkedPtr::null(), new);
                assert!(r.is_ok());
                installed.send(()).unwrap();
                // Stall, unfenced, until the reader is done; then "crash".
                let _ = wait_read.recv();
            });
            wait_installed.recv().unwrap();
            let sim_r = sim.clone();
            let seen = s
                .spawn(move || {
                    let _g = sim_r.enter();
                    let v = LinkPersist::<Sim>::t_load_link(link);
                    LinkPersist::<Sim>::before_return();
                    v
                })
                .join()
                .unwrap();
            read.send(()).unwrap();
            seen
        });
        assert_eq!(
            seen,
            MarkedPtr::new(node),
            "the reader saw the installed link"
        );
        let _g = sim.enter();
        // SAFETY: both threads have joined; the link and node are live.
        unsafe { sim.crash_and_rollback() };
        assert_eq!(
            sim.persisted_bits(link.addr() as usize)
                .map(|b| b & !crate::marked::DIRTY_BIT),
            Some(MarkedPtr::new(node).bits()),
            "the reader returned a link that the crash lost"
        );
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn soft_reads_and_links_are_free() {
        let c: PCell<u64, CB> = PCell::new(1);
        let l: PCell<MarkedPtr<u64>, CB> = PCell::new(MarkedPtr::null());
        let (d, _) = counted(|| {
            let _ = Soft::<CB>::t_load(&c);
            let _ = Soft::<CB>::t_load_link(&l);
            let _ = Soft::<CB>::c_load(&c);
            let _ = Soft::<CB>::c_load_link(&l);
            Soft::<CB>::ensure_reachable(c.addr());
            Soft::<CB>::make_persistent(&[c.addr()]);
            let _ = Soft::<CB>::c_cas_link(&l, MarkedPtr::null(), MarkedPtr::null());
        });
        assert_eq!(
            (d.flushes, d.fences),
            (0, 0),
            "SOFT persists nothing but validity words"
        );
    }

    #[test]
    fn soft_update_shape_is_one_flush_one_fence() {
        // The whole persistence cost of a SOFT update: one flush of the
        // validity word (or fresh header) + the closing fence.
        let v: PCell<u64, CB> = PCell::new(1);
        let (ins, _) = counted(|| {
            Soft::<CB>::persist_new_node(v.addr(), 8);
            Soft::<CB>::before_return();
        });
        assert_eq!((ins.flushes, ins.fences), (1, 1));
        let (rem, r) = counted(|| {
            let r = Soft::<CB>::c_cas(&v, 1, 2);
            Soft::<CB>::before_return();
            r
        });
        assert_eq!(r, Ok(1));
        assert_eq!((rem.flushes, rem.fences), (1, 1));
    }

    #[test]
    fn before_return_defers_inside_a_fence_batch() {
        use nvtraverse_pmem::batch::FenceBatch;
        let n: PCell<u64, CB> = PCell::new(0);
        let (d, _) = counted(|| {
            let b = FenceBatch::<CB>::begin();
            // Something to persist, so the batch's fence is not elided.
            NvTraverse::<CB>::persist_new_node(n.addr(), 8);
            for _ in 0..4 {
                NvTraverse::<CB>::before_return();
                Soft::<CB>::before_return();
            }
            assert_eq!(b.close(), 8, "every closing fence must defer");
        });
        assert_eq!(d.fences, 1, "eight deferred closing fences, one sfence");

        // Outside a batch the protocols are unchanged: after a critical
        // write (flush pending) the closing fence is issued immediately.
        let c: PCell<u64, CB> = PCell::new(0);
        let (d, _) = counted(|| {
            NvTraverse::<CB>::c_store(&c, 1);
            NvTraverse::<CB>::before_return();
        });
        assert_eq!(d.fences, 1);

        // A read-only operation leaves nothing to persist, so the closing
        // fence is elided entirely.
        let (d, _) = counted(NvTraverse::<CB>::before_return);
        assert_eq!(d.fences, 0);
    }

    #[test]
    fn policy_flush_counts_per_op_shape() {
        // The quantity the whole paper is about: per critical-section CAS,
        // NVT pays 1 flush + 1 fence; Izraelevitz pays the same *per access*,
        // traversal included. Simulate a 10-step traversal + 1 CAS.
        let cells: Vec<PCell<u64, CB>> = (0..10).map(PCell::new).collect();
        let target: PCell<u64, CB> = PCell::new(0);

        let (nvt, _) = counted(|| {
            for c in &cells {
                let _ = NvTraverse::<CB>::t_load(c);
            }
            NvTraverse::<CB>::make_persistent(&[cells[9].addr()]);
            let _ = NvTraverse::<CB>::c_cas(&target, 0, 1);
            NvTraverse::<CB>::before_return();
        });
        let (izr, _) = counted(|| {
            for c in &cells {
                let _ = Izraelevitz::<CB>::t_load(c);
            }
            Izraelevitz::<CB>::make_persistent(&[cells[9].addr()]);
            let _ = Izraelevitz::<CB>::c_cas(&target, 1, 2);
            Izraelevitz::<CB>::before_return();
        });
        assert!(
            nvt.flushes * 3 < izr.flushes,
            "NVT {nvt:?} should flush far less than Izraelevitz {izr:?}"
        );
    }
}
