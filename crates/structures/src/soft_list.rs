//! SOFT-style sorted linked list: minimal-flush durability via per-node
//! validity words and **volatile links**.
//!
//! This is the repository's rendition of Zuriel et al., "Efficient Lock-Free
//! Durable Sets" (OOPSLA 2019) — the related-work system that goes one step
//! past NVTraverse: where NVTraverse flushes the destination (the critical
//! section's links), SOFT flushes *nothing structural at all*. Every node
//! carries a persistent validity header (sealed on insert, tombstoned on
//! remove); links are ordinary volatile words; and recovery rebuilds the
//! entire list by collecting the sealed nodes and re-linking them in key
//! order. The per-operation persistence cost is the floor the hardware
//! allows: **one flush + one fence** per update, **zero flushes** per
//! lookup (pinned by `tests/persist_bounds.rs`).
//!
//! # Node layout and the validity protocol
//!
//! A node is seven 64-bit words; the first six are the *persistent header*,
//! the last is the volatile link:
//!
//! ```text
//! [ vstart | key | value | owner | seq | vend ]  [ next ]
//!   ^------------- flushed once -------------^    never flushed
//! ```
//!
//! `vstart` and `vend` are not constants: they are the two halves of a
//! **content-bound seal** (`hdr_seals`), a checksum pair over
//! `(key, value, owner, seq)`. A header counts as durably inserted only if
//! *both* seal words match the seals recomputed from the header's own data
//! words. This is what SOFT's per-chunk alternating validity bits buy in
//! the original paper, obtained here without allocator cooperation:
//!
//! * a **torn header** (crash while the insert's flush was in flight) has
//!   some subset of its words durable; any mix of old and new words fails
//!   the checksum, so it can never be mistaken for a valid node;
//! * a **recycled block** cannot replay its previous life: `seq` is drawn
//!   from a per-list monotonic counter, so even a reinsert of the same
//!   key/value produces different seal words, and a crash that persists
//!   only part of the new header leaves bits that validate as nothing —
//!   in particular, a durably *removed* key can never be resurrected by
//!   reusing its old block (each free path also durably tombstones the
//!   header before the block returns to the allocator).
//!
//! The protocol:
//!
//! * insert: initialize the header with the computed seal pair, flush the
//!   header (one cache line on the volatile path — the node is 64-aligned),
//!   link with a plain CAS, fence before returning. The insert is durably
//!   linearized at that fence.
//! * remove: CAS `vstart` from its seal to `TOMB` and flush it (the durable
//!   linearization point, made durable by the closing fence), then unlink
//!   with plain volatile CASes exactly like Harris's list.
//! * the `owner` word names the owning list (its head sentinel's address),
//!   so recovery in a pool shared by several structures attributes each
//!   node to the right one.
//!
//! # Recovery-rebuild contract
//!
//! The list keeps a volatile *registry* of its allocated nodes (maintained
//! at allocate/retire time; reconstructed from the pool's allocated-block
//! inventory on attach). [`SoftList::recover_soft`] scans the registry,
//! keeps exactly the nodes whose header probes as live (`probe_header`),
//! sorts them by key, and rewrites the whole chain with plain stores. A
//! node whose seal never became durable was an in-flight insert (its
//! operation had not fenced, hence had not returned): dropping it is
//! durably linearizable. A sealed node that was never linked (crash between
//! flush and the link CAS) is *kept* — which is also correct, because its
//! insert had not returned either, and resurrecting an in-flight insert is
//! one of the two allowed outcomes. The same rule is why the recovery GC's
//! tracer must keep valid-but-unlinked nodes (see `PoolTrace` below).
//!
//! When two sealed nodes survive with the same key (possible only with
//! concurrent writers — e.g. a remove whose tombstone flush never became
//! durable racing a completed reinsert), recovery keeps the **newest**
//! insert (highest `seq` — the one whose effect could have been returned
//! to a caller) and durably tombstones and frees the stale twins, so no
//! later crash can resurrect them either.
//!
//! # Concurrency caveat
//!
//! Like the original SOFT, readers here do not help persist concurrently
//! in-flight updates: an operation's effect is durable only once *its own*
//! closing fence ran. The same gap exists between concurrent *writers*: a
//! racing update's durable point is its own fence, so a crash can surface
//! header combinations no sequential history produces — the keep-newest
//! rule above resolves the remove-vs-reinsert shape, but (absent SOFT's
//! `pValid` helping bit) a reader- or writer-dependent operation that
//! returned before the operation it depends on fenced is not covered. The
//! exhaustive crash sweep (`tests/crash_soft.rs`) drives sequential
//! histories, where the gap is unobservable; a multi-threaded deployment
//! that needs strict durable linearizability for dependent operations
//! would add SOFT's `pValid` helping bit.

use nvtraverse::alloc::{clear_pool_full, free, pool_full_seen, try_alloc_node, PoolCtx};
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, SetOp};
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{heap, mix, Backend, PCell, Word, POISON};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `vstart` value of a durably removed node.
pub(crate) const TOMB: u64 = 0x70B5_70B5_70B5_70B5;

/// The persistent header prefix of a [`SoftNode`]: `vstart`, `key`,
/// `value`, `owner`, `seq`, `vend` — everything **except** the volatile
/// link.
pub(crate) const PERSIST_HDR: usize = 6 * 8;

/// The reserved words a computed seal must dodge: [`TOMB`] (a seal equal to
/// it would read as removed) and [`POISON`] (the simulator refuses to store
/// its own poison pattern).
fn dodge_reserved(w: u64) -> u64 {
    if w == TOMB || w == POISON {
        w ^ 1
    } else {
        w
    }
}

/// Computes a header's content-bound seal pair `(vstart, vend)` from its
/// data words. A header is durably live iff both stored seal words equal
/// the pair recomputed from its stored data words — so a crash that
/// persists any *mix* of one node generation's words with another's (torn
/// flush, recycled block) yields a header that validates as nothing. `seq`
/// comes from the owning list's monotonic allocation counter, which is what
/// distinguishes two generations that inserted the same key and value.
pub(crate) fn hdr_seals(key: u64, value: u64, owner: u64, seq: u64) -> (u64, u64) {
    let mut h = 0x5EA1_5EA1_5EA1_5EA1u64;
    for w in [key, value, owner, seq] {
        h = mix::finalize(h ^ w).wrapping_add(mix::GOLDEN);
    }
    (dodge_reserved(h), dodge_reserved(mix::finalize(h)))
}

/// What a raw scan of a candidate block's header words proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HdrProbe {
    /// Both seal words match the data words: a durably inserted node.
    Live { key: u64, owner: u64, seq: u64 },
    /// `vstart` is [`TOMB`] and `vend` still matches: durably removed.
    Tomb { owner: u64, seq: u64 },
    /// Anything else — torn, in-flight, recycled, or foreign bits.
    Invalid,
}

/// Classifies a candidate header from raw (never-faulting) word peeks.
///
/// # Safety
///
/// `n` must point to at least [`PERSIST_HDR`] bytes of readable, 8-aligned
/// memory (any allocated block of node size qualifies — the words need not
/// be a real node; arbitrary bits classify as `Invalid`).
pub(crate) unsafe fn probe_header<K: Word, V: Word, B: Backend>(
    n: *const SoftNode<K, V, B>,
) -> HdrProbe {
    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
    let (vstart, key, value, owner, seq, vend) = unsafe {
        (
            // nvt-lint: begin-allow(raw-pcell-access): validity-window probe reads raw header bits by design (SOFT recovery rule)
            (*n).vstart.peek_bits(),
            (*n).key.peek_bits(),
            (*n).value.peek_bits(),
            (*n).owner.peek_bits(),
            (*n).seq.peek_bits(),
            (*n).vend.peek_bits(),
            // nvt-lint: end-allow(raw-pcell-access)
        )
    };
    let (s0, s1) = hdr_seals(key, value, owner, seq);
    if vend != s1 {
        return HdrProbe::Invalid;
    }
    if vstart == s0 {
        HdrProbe::Live { key, owner, seq }
    } else if vstart == TOMB {
        HdrProbe::Tomb { owner, seq }
    } else {
        HdrProbe::Invalid
    }
}

/// One SOFT node. Field order is the layout contract documented in the
/// [module docs](self): six persistent header words, then the volatile
/// link. Exposed (with private fields) because it appears in the
/// [`TraversalOps`] associated types; user code never constructs nodes.
#[repr(C)]
pub struct SoftNode<K: Word, V: Word, B: Backend> {
    /// Validity word: the content-bound seal ([`hdr_seals`]) while the node
    /// is live, `TOMB` once removed.
    pub(crate) vstart: PCell<u64, B>,
    pub(crate) key: PCell<K, B>,
    pub(crate) value: PCell<V, B>,
    /// Address of the owning list's head sentinel (0 for sentinels):
    /// attributes the node to its structure when a pool holds several.
    pub(crate) owner: PCell<u64, B>,
    /// Per-list monotonic allocation number: makes each node generation's
    /// seals unique (recycled blocks can't replay) and orders duplicate
    /// survivors for recovery's keep-newest rule.
    pub(crate) seq: PCell<u64, B>,
    /// Far-end seal: proves the header flush was not torn.
    pub(crate) vend: PCell<u64, B>,
    /// Volatile link: never flushed, rebuilt by recovery.
    pub(crate) next: PCell<MarkedPtr<SoftNode<K, V, B>>, B>,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for SoftNode<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftNode").finish_non_exhaustive()
    }
}

/// Cache-line-aligned box for the volatile allocation path: a 64-aligned
/// node puts the 48-byte persistent header in exactly one cache line, so
/// the insert's header flush is deterministically one flush (the pool
/// path provides 16-byte alignment). `repr(C)` wrapper: a `*mut AlignedNode` is a `*mut SoftNode`.
#[repr(C, align(64))]
struct AlignedNode<K: Word, V: Word, B: Backend>(SoftNode<K, V, B>);

type NodePtr<K, V, B> = *mut SoftNode<K, V, B>;

/// The traversal window: same shape as the Harris list's (left, the word
/// read from `left.next`, right), minus the parent — SOFT has no
/// `ensureReachable` to feed.
pub struct SoftWindow<K: Word, V: Word, B: Backend> {
    left: NodePtr<K, V, B>,
    left_succ: MarkedPtr<SoftNode<K, V, B>>,
    right: NodePtr<K, V, B>,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for SoftWindow<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftWindow")
            .field("left", &self.left)
            .field("right", &self.right)
            .finish()
    }
}

/// SOFT sorted linked list, parameterized by durability policy.
///
/// Intended for [`Soft<B>`](nvtraverse::policy::Soft) (and the volatile
/// baseline); see the [module docs](self) for the protocol. All operations
/// are lock-free; recovery and the snapshot/consistency helpers are
/// quiescent.
pub struct SoftList<K: Word, V: Word, D: Durability> {
    head: NodePtr<K, V, D::B>,
    collector: Collector,
    /// Which heap this structure's nodes come from (see `HarrisList::ctx`).
    ctx: PoolCtx,
    /// Live-node inventory for the recovery rebuild: every node currently
    /// allocated to this list (pushed at allocation, dropped at
    /// retire/free; rebuilt from the pool's block inventory on attach).
    /// Stored as addresses: raw pointers are not `Send`.
    registry: Mutex<Vec<usize>>,
    /// `head as u64` — the value written into every node's `owner` word.
    owner_tag: u64,
    /// Allocation counter feeding each node's `seq` word. Resumed past the
    /// highest durable `seq` on attach/recovery so node generations never
    /// repeat within one list (the seal-uniqueness invariant).
    next_seq: AtomicU64,
    _marker: PhantomData<fn() -> D>,
}

// SAFETY: same argument as `HarrisList` — the raw pointers are only
// dereferenced through the lock-free protocol or quiescently; the registry
// is mutex-protected.
unsafe impl<K: Word, V: Word, D: Durability> Send for SoftList<K, V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Sync for SoftList<K, V, D> {}

impl<K, V, D> SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates an empty list (its own collector).
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty list that retires nodes into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        let head = Self::alloc_soft(SoftNode {
            vstart: PCell::new(0), // sentinel: never a resurrection candidate
            key: PCell::new(K::from_bits(0)),
            value: PCell::new(V::from_bits(0)),
            owner: PCell::new(0),
            seq: PCell::new(0),
            vend: PCell::new(0),
            next: PCell::new(MarkedPtr::null()),
        })
        .expect("persistent pool exhausted while allocating list head");
        // Persist the empty list so it survives a crash at time zero.
        D::persist_new_node(head as *const u8, PERSIST_HDR);
        D::before_return();
        SoftList {
            head,
            collector,
            ctx: PoolCtx::current(),
            registry: Mutex::new(Vec::new()),
            owner_tag: head as u64,
            next_seq: AtomicU64::new(1),
            _marker: PhantomData,
        }
    }

    /// The collector nodes are retired into.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The head sentinel (for pool root registration by this crate).
    pub(crate) fn head_ptr(&self) -> NodePtr<K, V, D::B> {
        self.head
    }

    /// Rebuilds a list handle around an existing head sentinel with an
    /// **empty registry** — the attach half of the pool lifecycle. The
    /// caller must repopulate the registry (directly from the pool's block
    /// inventory, or via the hash table's shared distribution pass) before
    /// recovery.
    ///
    /// # Safety
    ///
    /// `head` must be the head sentinel of a SOFT list built with the same
    /// `K`/`V`/`D` parameters, reachable and quiescent, and the caller must
    /// not create two dropping handles to the same list.
    pub(crate) unsafe fn attach_at(head: NodePtr<K, V, D::B>, collector: Collector) -> Self {
        SoftList {
            head,
            collector,
            ctx: PoolCtx::current(),
            registry: Mutex::new(Vec::new()),
            owner_tag: head as u64,
            next_seq: AtomicU64::new(1),
            _marker: PhantomData,
        }
    }

    #[inline]
    fn key_of(node: NodePtr<K, V, D::B>) -> K {
        debug_assert!(!node.is_null());
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        D::load_fixed(unsafe { &(*node).key })
    }
}

// Allocation plumbing, kept free of the `K: Ord` bound so `Drop` (which
// must match the struct's own bounds) can reach it.
impl<K: Word, V: Word, D: Durability> SoftList<K, V, D> {
    /// Allocates a node: from the entered pool context when one is active
    /// (the pool registers the node's words with any simulator itself), or
    /// as a cache-line-aligned `Box` on the volatile path — registering
    /// only the node's own words with the simulator, never the alignment
    /// padding (a registration over padding would dangle after free).
    fn alloc_soft(node: SoftNode<K, V, D::B>) -> Option<NodePtr<K, V, D::B>> {
        let p = if PoolCtx::current().is_pooled() {
            try_alloc_node::<_, D::B>(node)?
        } else {
            let p = Box::into_raw(Box::new(AlignedNode(node))) as NodePtr<K, V, D::B>;
            if D::B::SIM {
                nvtraverse_pmem::sim::current_register_range(
                    p as usize,
                    std::mem::size_of::<SoftNode<K, V, D::B>>(),
                );
            }
            p
        };
        // SOFT keeps its links volatile (recovery rebuilds them from the
        // durable payloads); tell any vet observer so `next` is exempt from
        // durability rules.
        // SAFETY: `p` was just allocated and is exclusively ours.
        nvtraverse_pmem::sim::current_mark_volatile_range(
            unsafe { (*p).next.addr() as usize },
            8,
        );
        Some(p)
    }

    /// Frees a node immediately (never-published or teardown path),
    /// routing through the layout it was allocated with: pool blocks as
    /// `SoftNode`, volatile boxes as the 64-aligned wrapper.
    // SAFETY: the caller owns `p` exclusively (never published, or already unlinked at teardown), so freeing it immediately cannot race a traversal.
    unsafe fn free_soft(p: NodePtr<K, V, D::B>) {
        if heap::owner_of(p as *const u8).is_some() {
            // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
            unsafe { free(p) };
        } else {
            // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
            unsafe { free(p as *mut AlignedNode<K, V, D::B>) };
        }
    }

    /// Unregisters `p` and retires it into the collector (same layout
    /// dispatch as [`Self::free_soft`]).
    unsafe fn retire_soft(&self, guard: &Guard, p: NodePtr<K, V, D::B>) {
        self.unregister(p);
        if heap::owner_of(p as *const u8).is_some() {
            // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
            unsafe { guard.retire(p) };
        } else {
            // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
            unsafe { guard.retire(p as *mut AlignedNode<K, V, D::B>) };
        }
    }

    pub(crate) fn register(&self, p: NodePtr<K, V, D::B>) {
        self.registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(p as usize);
    }

    fn unregister(&self, p: NodePtr<K, V, D::B>) {
        let mut reg = self.registry.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = reg.iter().position(|&a| a == p as usize) {
            reg.swap_remove(i);
        }
    }

    /// Advances the allocation counter past a `seq` recovered from a
    /// durable header, so fresh nodes never repeat a generation already on
    /// the heap (called while rebuilding the inventory at attach time and
    /// again by [`SoftList::recover_soft`]).
    pub(crate) fn note_seq(&self, seq: u64) {
        self.next_seq.fetch_max(seq + 1, Ordering::Relaxed);
    }
}

impl<K, V, D> SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    #[inline]
    fn word_of(node: NodePtr<K, V, D::B>) -> MarkedPtr<SoftNode<K, V, D::B>> {
        if node.is_null() {
            MarkedPtr::null()
        } else {
            MarkedPtr::new(node)
        }
    }

    /// Physically disconnects the marked chain between `left` and `right`
    /// (volatile CASes; retired nodes leave the registry). Returns `false`
    /// if the caller must re-traverse.
    fn trim(&self, guard: &Guard, w: &SoftWindow<K, V, D::B>) -> bool {
        if w.left_succ.ptr() == w.right {
            return true;
        }
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let left_next = unsafe { &(*w.left).next };
        match D::c_cas_link(left_next, w.left_succ, Self::word_of(w.right)) {
            Ok(()) => {
                let mut cur = w.left_succ.ptr();
                while !cur.is_null() && cur != w.right {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    // nvt-lint: allow(raw-pcell-access): reading the frozen (marked) chain being trimmed; plain loads suffice
                    let nxt = unsafe { (*cur).next.load() };
                    debug_assert!(nxt.is_marked(), "trimmed an unmarked node");
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    unsafe { self.retire_soft(guard, cur) };
                    cur = nxt.ptr();
                }
                if !w.right.is_null() {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    let rn = D::c_load_link(unsafe { &(*w.right).next });
                    if rn.is_marked() {
                        return false;
                    }
                }
                true
            }
            Err(_) => false,
        }
    }

    fn quiescent_len(&self) -> usize {
        let mut n = 0;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*self.head).next.load().ptr();
            while !cur.is_null() {
                let nw = (*cur).next.load();
                // nvt-lint: end-allow(raw-pcell-access)
                if !nw.is_marked() {
                    n += 1;
                }
                cur = nw.ptr();
            }
        }
        n
    }

    /// Quiescent: collects the unmarked `(key, value)` pairs in list order.
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*self.head).next.load().ptr();
            while !cur.is_null() {
                let nw = (*cur).next.load();
                if !nw.is_marked() {
                    out.push(((*cur).key.load(), (*cur).value.load()));
                    // nvt-lint: end-allow(raw-pcell-access)
                }
                cur = nw.ptr();
            }
        }
        out
    }

    /// Quiescent: verifies structural invariants, returning the number of
    /// live (unmarked) nodes.
    ///
    /// # Errors
    ///
    /// Describes the violation: unsorted keys, a reachable unmarked node
    /// that is not sealed, or (when `allow_marked` is false, e.g. right
    /// after recovery) a reachable marked node.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        let mut live = 0;
        let mut last_key: Option<K> = None;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*self.head).next.load().ptr();
            while !cur.is_null() {
                let nw = (*cur).next.load();
                if nw.is_marked() {
                    if !allow_marked {
                        return Err("reachable marked node after recovery".into());
                    }
                } else {
                    if !matches!(probe_header(cur), HdrProbe::Live { .. }) {
                        return Err("reachable unmarked node is not durably sealed".into());
                    }
                    let k = (*cur).key.load();
                    // nvt-lint: end-allow(raw-pcell-access)
                    if let Some(prev) = last_key.take() {
                        if prev >= k {
                            return Err("keys not strictly increasing".into());
                        }
                    }
                    last_key = Some(k);
                    live += 1;
                }
                cur = nw.ptr();
            }
        }
        Ok(live)
    }

    /// The SOFT recovery procedure: rebuild all links from the surviving
    /// valid nodes (see the [module docs](self) for why each keep/drop
    /// decision is durably linearizable). Quiescent.
    pub fn recover_soft(&self) {
        if !D::DURABLE {
            return;
        }
        let candidates: Vec<usize> = self
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        type Live<K, V, B> = Vec<(K, u64, NodePtr<K, V, B>)>;
        let mut live: Live<K, V, D::B> = Vec::new();
        let mut max_seq = 0u64;
        for a in candidates {
            let n = a as NodePtr<K, V, D::B>;
            // Raw peeks: any of these words may have rolled back to poison
            // (never persisted) under the simulator; the seal checksum
            // rejects every such header without key-filtering real data.
            // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
            match unsafe { probe_header(n) } {
                HdrProbe::Live { key, seq, .. } => {
                    max_seq = max_seq.max(seq);
                    live.push((K::from_bits(key), seq, n));
                }
                HdrProbe::Tomb { seq, .. } => max_seq = max_seq.max(seq),
                HdrProbe::Invalid => {}
            }
        }
        self.note_seq(max_seq);
        // Newest generation first within each key: duplicate sealed nodes
        // only arise from crashed concurrent writers (e.g. a remove whose
        // tombstone flush never drained racing a completed reinsert), and
        // the newest insert is the one whose effect a caller could have
        // been told about.
        live.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stale: Vec<NodePtr<K, V, D::B>> = Vec::new();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe {
            let mut pred = self.head;
            let mut i = 0;
            while i < live.len() {
                let (key, _, n) = live[i];
                // nvt-lint: begin-allow(raw-pcell-access): single-threaded recovery reads raw bits (marks, flags, poison) by design
                (*pred).next.store(MarkedPtr::new(n));
                pred = n;
                i += 1;
                while i < live.len() && live[i].0 == key {
                    stale.push(live[i].2);
                    i += 1;
                }
            }
            (*pred).next.store(MarkedPtr::null());
            // Durably tombstone the stale twins so no later crash can
            // resurrect them, then free them — fence first: the blocks must
            // not reach the allocator (nor, under the simulator, drop their
            // cell registrations) until the tombstones have drained.
            for &n in &stale {
                (*n).vstart.store(TOMB);
                // nvt-lint: end-allow(raw-pcell-access)
                D::B::flush((*n).vstart.addr());
            }
        }
        D::before_return();
        for n in stale {
            self.unregister(n);
            // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
            unsafe { Self::free_soft(n) };
        }
    }
}

impl<K, V, D> TraversalOps for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = SetOp<K, V>;
    /// `Insert` → existing value if the key was present (failure);
    /// `Remove`/`Get` → the value found.
    type Output = Option<V>;
    type Entry = NodePtr<K, V, D::B>;
    type Window = SoftWindow<K, V, D::B>;

    fn find_entry(&self, _guard: &Guard, _input: Self::Input) -> Self::Entry {
        self.head
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        let key = match input {
            SetOp::Insert(k, _) | SetOp::Remove(k) | SetOp::Get(k) => k,
        };
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let head = entry;
            let mut left = head;
            let mut left_succ = D::t_load_link(&(*head).next);
            let mut curr = head;
            let mut succ = left_succ;
            loop {
                if !succ.is_marked() {
                    if curr != head && Self::key_of(curr) >= key {
                        break;
                    }
                    left = curr;
                    left_succ = succ;
                }
                let nxt = succ.ptr();
                if nxt.is_null() {
                    curr = std::ptr::null_mut();
                    break;
                }
                curr = nxt;
                succ = D::t_load_link(&(*curr).next);
            }
            SoftWindow {
                left,
                left_succ,
                right: curr,
            }
        }
    }

    fn collect_persist_set(&self, _w: &Self::Window, _out: &mut PersistSet) {
        // Protocol 1 is empty under SOFT: there are no persistent links to
        // make reachable, and the policy's `make_persistent` is a no-op.
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        match input {
            SetOp::Get(key) => {
                if w.right.is_null() || Self::key_of(w.right) != key {
                    Critical::Done(None)
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                } else if D::c_load(unsafe { &(*w.right).vstart }) == TOMB {
                    // Tombstoned but not yet unlinked: logically absent. (A
                    // linked node's `vstart` is either its seal or `TOMB`.)
                    Critical::Done(None)
                } else {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    Critical::Done(Some(D::load_fixed(unsafe { &(*w.right).value })))
                }
            }
            SetOp::Insert(key, value) => {
                if !self.trim(guard, &w) {
                    return Critical::Restart;
                }
                if !w.right.is_null() && Self::key_of(w.right) == key {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    if D::c_load(unsafe { &(*w.right).vstart }) != TOMB {
                        // Duplicate of a live node: insert fails.
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        return Critical::Done(Some(D::load_fixed(unsafe { &(*w.right).value })));
                    }
                    // Tombstoned twin still linked: help mark it out of the
                    // way, then retry against the updated list.
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    // nvt-lint: allow(raw-pcell-access): raw read feeding a policy-routed helping CAS; durability comes from the CAS route
                    let rn = unsafe { (*w.right).next.load() };
                    if !rn.is_marked() {
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        let _ = D::c_cas_link(unsafe { &(*w.right).next }, rn, rn.with_mark());
                    }
                    return Critical::Restart;
                }
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                let (s0, s1) = hdr_seals(key.to_bits(), value.to_bits(), self.owner_tag, seq);
                let Some(node) = Self::alloc_soft(SoftNode {
                    vstart: PCell::new(s0),
                    key: PCell::new(key),
                    value: PCell::new(value),
                    owner: PCell::new(self.owner_tag),
                    seq: PCell::new(seq),
                    vend: PCell::new(s1),
                    next: PCell::new(Self::word_of(w.right)),
                }) else {
                    // Pool exhausted: report "no effect" through the
                    // duplicate-shaped output (see `HarrisList::critical`).
                    return Critical::Done(Some(value));
                };
                self.register(node);
                // The insert's one flush: the persistent header (not the
                // volatile link word behind it).
                D::persist_new_node(node as *const u8, PERSIST_HDR);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let left_next = unsafe { &(*w.left).next };
                match D::c_cas_link(left_next, Self::word_of(w.right), MarkedPtr::new(node)) {
                    Ok(()) => Critical::Done(None),
                    Err(_) => {
                        self.unregister(node);
                        // The sealed-header flush above may still drain at
                        // some later fence even though the node was never
                        // published. Durably tombstone it before the block
                        // returns to the allocator, so a recycled block can
                        // never replay this generation's seal (an off-hot-
                        // path fence: contended retries only).
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        unsafe {
                            // nvt-lint: allow(raw-pcell-access): SOFT places its own flushes: the tombstone seal is flushed explicitly right here
                            (*node).vstart.store(TOMB);
                            D::B::flush((*node).vstart.addr());
                        }
                        D::before_return();
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        unsafe { Self::free_soft(node) };
                        Critical::Restart
                    }
                }
            }
            SetOp::Remove(key) => {
                if !self.trim(guard, &w) {
                    return Critical::Restart;
                }
                if w.right.is_null() || Self::key_of(w.right) != key {
                    return Critical::Done(None);
                }
                // The durable linearization point: seal → tombstone, one
                // flush, fenced by the operation's closing `before_return`.
                // The expected seal is recomputed from the node's immutable
                // words; a concurrent remove already tombstoned it iff the
                // CAS misses.
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let value = D::load_fixed(unsafe { &(*w.right).value });
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let seq = D::load_fixed(unsafe { &(*w.right).seq });
                let (s0, _) = hdr_seals(key.to_bits(), value.to_bits(), self.owner_tag, seq);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                match D::c_cas(unsafe { &(*w.right).vstart }, s0, TOMB) {
                    Ok(_) => {
                        // Logical deletion done; now the volatile unlink,
                        // Harris-style: mark, then best-effort splice (a
                        // failed splice is finished by a later trim).
                        loop {
                            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                            // nvt-lint: allow(raw-pcell-access): raw read feeding a policy-routed helping CAS; durability comes from the CAS route
                            let rn = unsafe { (*w.right).next.load() };
                            if rn.is_marked() {
                                // An inserter that saw our tombstone helped
                                // mark the node (the duplicate path); the
                                // physical unlink — and the retire — is a
                                // later trim's job.
                                break;
                            }
                            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                            if D::c_cas_link(unsafe { &(*w.right).next }, rn, rn.with_mark())
                                .is_ok()
                            {
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                let left_next = unsafe { &(*w.left).next };
                                if D::c_cas_link(left_next, Self::word_of(w.right), rn).is_ok() {
                                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                    unsafe { self.retire_soft(guard, w.right) };
                                }
                                break;
                            }
                        }
                        Critical::Done(Some(value))
                    }
                    // Already tombstoned by a concurrent remove: a miss.
                    Err(_) => Critical::Done(None),
                }
            }
        }
    }
}

impl<K, V, D> DurableSet<K, V> for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn insert(&self, key: K, value: V) -> bool {
        self.try_insert(key, value)
            .expect("persistent pool exhausted (and volatile fallback would lose data)")
    }

    fn remove(&self, key: K) -> bool {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Remove(key)).is_some()
    }

    fn get(&self, key: K) -> Option<V> {
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Get(key))
    }

    fn len(&self) -> usize {
        self.quiescent_len()
    }

    fn recover(&self) {
        self.recover_soft();
    }

    fn try_insert(&self, key: K, value: V) -> Result<bool, OpError> {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        clear_pool_full();
        let existing = run_operation(self, &guard, SetOp::Insert(key, value));
        if pool_full_seen() {
            return Err(OpError::PoolFull);
        }
        Ok(existing.is_none())
    }

    fn try_remove(&self, key: K) -> Result<bool, OpError> {
        Ok(self.remove(key))
    }
}

use nvtraverse::detect::OpError;

impl<K, V, D> PoolAttach for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        let _scope = PoolCtx::of(pool).enter();
        let list = Self::with_collector(Collector::new());
        pool.set_root_ptr_checked(name, list.head)?;
        Ok(list)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let head = pool.attach_root_ptr::<SoftNode<K, V, D::B>>(name)?;
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        let list = unsafe { Self::attach_at(head, Collector::new()) };
        // Rebuild the node inventory from the pool's allocated blocks:
        // links are volatile, so membership is proved by each candidate's
        // persistent header (sealed, and owned by this list's head).
        let node_size = std::mem::size_of::<SoftNode<K, V, D::B>>() as u64;
        for (off, cap) in pool.live_payloads().ok()? {
            if cap < node_size {
                continue;
            }
            let p = pool.at(off) as NodePtr<K, V, D::B>;
            if p == head {
                continue;
            }
            // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
            match unsafe { probe_header(p) } {
                HdrProbe::Live { owner, seq, .. } if owner == head as u64 => {
                    list.register(p);
                    list.note_seq(seq);
                }
                HdrProbe::Tomb { owner, seq } if owner == head as u64 => {
                    // Durably removed but not yet reused: don't register,
                    // but keep the seq counter ahead of it.
                    list.note_seq(seq);
                }
                _ => {}
            }
        }
        Some(list)
    }

    fn recover_attached(&self) {
        self.recover_soft();
    }

    fn collector_of(&self) -> &Collector {
        &self.collector
    }
}

// SAFETY: SOFT reachability is not link-based — recovery keeps exactly the
// sealed nodes owned by this list, linked or not — so the walk enumerates
// the heap's allocated blocks and marks the ones whose persistent header
// probes as live ([`probe_header`]) with `owner` = this root. A
// valid-but-unlinked node (crash between the header flush and the link CAS)
// is therefore kept, as the recovery-rebuild contract requires; in-flight
// (unsealed) and tombstoned nodes are left for the sweep. Every candidate
// pointer comes from `Marker::at`, which validates it first.
// SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
unsafe impl<K, V, D> nvtraverse::PoolTrace for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) {
        if !marker.mark(root) {
            return;
        }
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe {
            crate::soft_list::soft_mark_owned::<K, V, D::B>(marker, &[root as u64]);
        }
    }
}

/// Shared SOFT mark helper: marks every allocated block whose persistent
/// header probes as [`HdrProbe::Live`] with an `owner` word in `owners`
/// (sorted or not — the slice is tiny for the list tracer, a bucket-head
/// array for the hash tracer).
///
/// # Safety
///
/// Same contract as [`nvtraverse_pool::gc::TraceFn`]: called on a validated
/// quiescent heap; only peeks header words of blocks `Marker::at` vouches
/// for.
pub(crate) unsafe fn soft_mark_owned<K: Word, V: Word, B: Backend>(
    marker: &mut nvtraverse_pool::Marker<'_>,
    owners: &[u64],
) {
    let node_size = std::mem::size_of::<SoftNode<K, V, B>>() as u64;
    for (off, cap) in marker.allocated_payloads() {
        if cap < node_size {
            continue;
        }
        let Some(p) = marker.at(off) else { continue };
        if owners.contains(&(p as u64)) {
            continue; // a head sentinel itself
        }
        let n = p as *const SoftNode<K, V, B>;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        match unsafe { probe_header(n) } {
            HdrProbe::Live { owner, .. } if owners.contains(&owner) => {
                marker.mark(p);
            }
            // Tombstoned nodes are durably removed: sweeping them is what
            // GC is for. Invalid headers are torn/in-flight: also swept.
            _ => {}
        }
    }
}

impl<K, V, D> Default for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D> fmt::Debug for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftList")
            .field("len", &self.quiescent_len())
            .field("durable", &D::DURABLE)
            .finish()
    }
}

impl<K: Word, V: Word, D: Durability> Drop for SoftList<K, V, D> {
    fn drop(&mut self) {
        // Exclusive access: the registry is exactly the set of nodes still
        // owned by the list (live, tombstoned-but-unspliced, or crash
        // garbage); trimmed nodes were unregistered and handed to the
        // collector. No link walk needed — poisoned links can't mislead us.
        let reg = std::mem::take(&mut *self.registry.lock().unwrap_or_else(|e| e.into_inner()));
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            for a in reg {
                Self::free_soft(a as NodePtr<K, V, D::B>);
            }
            Self::free_soft(self.head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Soft, Volatile};
    use nvtraverse_pmem::{MmapBackend, Noop, Sim, SimHandle};

    fn soft_smoke<D: Durability>() {
        let l: SoftList<u64, u64, D> = SoftList::new();
        assert!(l.is_empty());
        assert!(l.insert(2, 20));
        assert!(l.insert(1, 10));
        assert!(l.insert(3, 30));
        assert!(!l.insert(2, 99), "duplicate insert must fail");
        assert_eq!(l.get(2), Some(20), "failed insert must not overwrite");
        assert_eq!(l.len(), 3);
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(l.get(2), None);
        assert_eq!(l.check_consistency(true).unwrap(), 2);
        assert_eq!(l.iter_snapshot(), vec![(1, 10), (3, 30)], "must stay sorted");
    }

    #[test]
    fn soft_semantics() {
        soft_smoke::<Soft<MmapBackend>>();
    }

    #[test]
    fn volatile_semantics() {
        soft_smoke::<Volatile>();
    }

    #[test]
    fn matches_model_on_random_sequential_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let l: SoftList<u64, u64, Soft<Noop>> = SoftList::new();
        let mut model = ModelSet::new();
        for i in 0..3000u64 {
            let k = rng.random_range(0..64);
            match rng.random_range(0..3) {
                0 => assert_eq!(l.insert(k, i), model.insert(k, i), "insert({k})"),
                1 => assert_eq!(l.remove(k), model.remove(k), "remove({k})"),
                _ => assert_eq!(l.get(k), model.get(k), "get({k})"),
            }
        }
        assert_eq!(l.len(), model.len());
        let pairs: Vec<(u64, u64)> = model.iter().collect();
        assert_eq!(l.iter_snapshot(), pairs);
    }

    #[test]
    fn concurrent_disjoint_ranges_keep_all_inserts() {
        const THREADS: u64 = 4;
        const PER: u64 = 300;
        let l: SoftList<u64, u64, Soft<MmapBackend>> = SoftList::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let l = &l;
                s.spawn(move || {
                    let base = t * PER;
                    for k in base..base + PER {
                        assert!(l.insert(k, k));
                    }
                    for k in (base..base + PER).step_by(3) {
                        assert!(l.remove(k));
                    }
                });
            }
        });
        let expected = (THREADS * PER) as usize - (THREADS as usize * PER.div_ceil(3) as usize);
        assert_eq!(l.check_consistency(true).unwrap(), expected);
    }

    #[test]
    fn concurrent_contended_single_key_is_coherent() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let l: SoftList<u64, u64, Soft<MmapBackend>> = SoftList::new();
        let balance = AtomicI64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = &l;
                let balance = &balance;
                s.spawn(move || {
                    for i in 0..2000 {
                        if i % 2 == 0 {
                            if l.insert(42, 1) {
                                balance.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if l.remove(42) {
                            balance.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let final_present = l.contains(42) as i64;
        assert_eq!(balance.load(Ordering::Relaxed), final_present);
        l.check_consistency(true).unwrap();
    }

    #[test]
    fn recovery_rebuilds_links_from_sealed_nodes() {
        let sim = SimHandle::new();
        let guard = sim.enter();
        let l: SoftList<u64, u64, Soft<Sim>> = SoftList::with_collector(Collector::leaking());
        for k in [5u64, 1, 3, 2, 4] {
            assert!(l.insert(k, k * 10));
        }
        assert!(l.remove(3));
        // Crash: all link words (never flushed) roll back to poison; the
        // validity headers survive.
        unsafe { sim.crash_and_rollback() };
        l.recover_soft();
        assert_eq!(l.check_consistency(false).unwrap(), 4);
        assert_eq!(
            l.iter_snapshot(),
            vec![(1, 10), (2, 20), (4, 40), (5, 50)],
            "recovery must rebuild the sorted chain without the tombstoned key"
        );
        assert!(l.insert(3, 33), "list must be fully usable after recovery");
        drop(l);
        drop(guard);
    }

    #[test]
    fn empty_list_operations() {
        let l: SoftList<u64, u64, Soft<Noop>> = SoftList::new();
        assert_eq!(l.get(1), None);
        assert!(!l.remove(1));
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        assert_eq!(l.check_consistency(false).unwrap(), 0);
        l.recover();
        assert!(l.is_empty());
    }

    #[test]
    fn debug_format_mentions_len() {
        let l: SoftList<u64, u64, Volatile> = SoftList::new();
        l.insert(1, 1);
        let s = format!("{l:?}");
        assert!(s.contains("len"), "{s}");
    }

    /// The GC reachability rule, white-box: a sealed node no link reaches
    /// (an insert that crashed between its header flush and its volatile
    /// link CAS) must survive the open-time mark-sweep and be resurrected
    /// by recovery, while a torn header (far-end seal missing) is garbage.
    #[test]
    fn gc_keeps_sealed_but_unlinked_nodes_and_sweeps_torn_ones() {
        use nvtraverse::TypedRoots;
        use nvtraverse_pmem::MmapBackend;
        type L = SoftList<u64, u64, Soft<MmapBackend>>;

        let path = std::env::temp_dir().join(format!(
            "nvt-soft-orphan-{}.pool",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        {
            let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
            let list = pool.create_root::<L>("s").unwrap();
            assert!(list.insert(1, 10));
            assert!(list.insert(2, 20));
            let _scope = PoolCtx::of(list.pool()).enter();
            // The durable footprint of an insert that crashed after its
            // header flush, before publication: fully sealed + owned,
            // unlinked, unregistered.
            let owner = list.head_ptr() as u64;
            let (s0, s1) = hdr_seals(9, 90, owner, 1000);
            L::alloc_soft(SoftNode {
                vstart: PCell::new(s0),
                key: PCell::new(9u64),
                value: PCell::new(90u64),
                owner: PCell::new(owner),
                seq: PCell::new(1000),
                vend: PCell::new(s1),
                next: PCell::new(MarkedPtr::null()),
            })
            .unwrap();
            // And one that crashed *mid*-header-flush: vend never sealed.
            let (t0, _) = hdr_seals(11, 110, owner, 1001);
            L::alloc_soft(SoftNode {
                vstart: PCell::new(t0),
                key: PCell::new(11u64),
                value: PCell::new(110u64),
                owner: PCell::new(owner),
                seq: PCell::new(1001),
                vend: PCell::new(0),
                next: PCell::new(MarkedPtr::null()),
            })
            .unwrap();
            list.close().unwrap();
        }

        let pool = Pool::builder().path(&path).open().unwrap();
        let report = pool.recovery_report();
        assert!(report.gc_ran);
        assert_eq!(report.reclaimed_blocks, 1, "exactly the torn node is garbage");
        let list = pool.root::<L>("s").unwrap();
        assert_eq!(
            list.iter_snapshot(),
            vec![(1, 10), (2, 20), (9, 90)],
            "sealed-but-unlinked must be resurrected; torn must be dropped"
        );
        assert_eq!(list.check_consistency(false).unwrap(), 3);
        drop(list);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// The block-reuse hazard, word-level: a freed node's persisted words
    /// (tombstoned generation A) overlaid with any *partial* persist of the
    /// reusing generation B must classify as garbage — never as a live
    /// header of either generation — even when both generations carry the
    /// same key and value.
    #[test]
    fn recycled_block_word_mixtures_never_probe_live() {
        let owner = 0xABCu64;
        let (a0, a1) = hdr_seals(7, 70, owner, 3);
        let (b0, b1) = hdr_seals(7, 70, owner, 9);
        assert_ne!(a0, b0, "seq must distinguish same-content generations");
        let mk = |vstart, seq, vend| SoftNode::<u64, u64, Noop> {
            vstart: PCell::new(vstart),
            key: PCell::new(7),
            value: PCell::new(70),
            owner: PCell::new(owner),
            seq: PCell::new(seq),
            vend: PCell::new(vend),
            next: PCell::new(MarkedPtr::null()),
        };
        // Generation A's full header: live before the remove, a tombstone
        // after (what the allocator hands out for reuse).
        assert!(matches!(
            unsafe { probe_header(&mk(a0, 3, a1)) },
            HdrProbe::Live { seq: 3, .. }
        ));
        assert!(matches!(
            unsafe { probe_header(&mk(TOMB, 3, a1)) },
            HdrProbe::Tomb { seq: 3, .. }
        ));
        // A crash persisting only generation B's vstart over the freed
        // block: the REVIEW scenario that used to resurrect old data.
        assert_eq!(unsafe { probe_header(&mk(b0, 3, a1)) }, HdrProbe::Invalid);
        // Every other partial overlay is equally invalid.
        assert_eq!(unsafe { probe_header(&mk(TOMB, 3, b1)) }, HdrProbe::Invalid);
        assert_eq!(unsafe { probe_header(&mk(b0, 9, a1)) }, HdrProbe::Invalid);
        assert_eq!(unsafe { probe_header(&mk(a0, 9, b1)) }, HdrProbe::Invalid);
        // Only generation B's complete header is live again.
        assert!(matches!(
            unsafe { probe_header(&mk(b0, 9, b1)) },
            HdrProbe::Live { seq: 9, .. }
        ));
    }

    /// Two durably sealed nodes for one key — the wreckage of a remove
    /// whose tombstone flush never drained racing a completed reinsert —
    /// must resolve to the *newest* generation, and the stale twin must be
    /// durably retired so no later crash resurrects it.
    #[test]
    fn recovery_keeps_the_newest_duplicate_and_durably_retires_the_stale_twin() {
        type L = SoftList<u64, u64, Soft<Sim>>;
        let sim = SimHandle::new();
        let guard = sim.enter();
        let l: L = SoftList::with_collector(Collector::leaking());
        let owner = l.owner_tag;
        for (value, seq) in [(10u64, 5u64), (20, 9)] {
            let (s0, s1) = hdr_seals(1, value, owner, seq);
            let n = L::alloc_soft(SoftNode {
                vstart: PCell::new(s0),
                key: PCell::new(1u64),
                value: PCell::new(value),
                owner: PCell::new(owner),
                seq: PCell::new(seq),
                vend: PCell::new(s1),
                next: PCell::new(MarkedPtr::null()),
            })
            .unwrap();
            l.register(n);
            Soft::<Sim>::persist_new_node(n as *const u8, PERSIST_HDR);
        }
        Soft::<Sim>::before_return();
        unsafe { sim.crash_and_rollback() };
        l.recover_soft();
        assert_eq!(l.get(1), Some(20), "keep-newest: the reinsert's value wins");
        assert_eq!(l.check_consistency(false).unwrap(), 1);
        // The seq counter must have resumed past both generations.
        assert!(l.next_seq.load(Ordering::Relaxed) > 9);
        // Remove the survivor, crash, recover: the stale (1, 10) twin must
        // not come back from the dead.
        assert!(l.remove(1));
        unsafe { sim.crash_and_rollback() };
        l.recover_soft();
        assert_eq!(l.get(1), None, "stale twin resurrected after a later crash");
        assert_eq!(l.check_consistency(false).unwrap(), 0);
        drop(l);
        drop(guard);
    }

    /// The simulator reserves `0xDEAD_BEEF_DEAD_BEEF` as its rollback
    /// poison, but on a real backend those bits are ordinary data: recovery
    /// must never key-filter them away.
    #[test]
    fn poison_looking_bits_are_ordinary_data_on_a_real_backend() {
        const BITS: u64 = 0xDEAD_BEEF_DEAD_BEEF;
        let l: SoftList<u64, u64, Soft<MmapBackend>> = SoftList::new();
        assert!(l.insert(BITS, BITS));
        assert!(l.insert(1, 10));
        l.recover_soft();
        assert_eq!(l.get(BITS), Some(BITS), "recovery dropped poison-shaped data");
        assert_eq!(l.get(1), Some(10));
        assert_eq!(l.check_consistency(false).unwrap(), 2);
    }

    /// Seals are an on-disk format: recovery recomputes them from the
    /// stored words, so a pool written by one build must validate under
    /// the next. Pinned to fixed vectors.
    #[test]
    fn hdr_seals_are_pinned() {
        assert_eq!(hdr_seals(0, 0, 0, 0), (0x0376_1B1B_597E_EE90, 0xFBB6_05D3_7189_B1EC));
        assert_eq!(
            hdr_seals(42, 4200, 0x1000, 1),
            (0x82CC_4ECE_85C7_075D, 0x82B8_2F3A_B1FB_7EFE)
        );
        assert_eq!(
            hdr_seals(u64::MAX, 1, 2, 3),
            (0xEED3_23B3_7112_87B5, 0x46F5_1E26_7D20_315A)
        );
    }
}
