//! A lock-free skiplist whose *bottom level is the persistent core tree* and
//! whose towers are volatile shortcuts — the paper's showcase for Property 2:
//!
//! > "a skiplist can be a traversal data structure, since, while the entire
//! > structure is not a tree, only a linked list at the bottom level holds
//! > all the data in the skiplist, while the rest of the nodes and edges
//! > simply serve as a way to access the linked list faster."
//!
//! Consequences of that split:
//!
//! * Bottom-level `next` words go through the [`Durability`] policy (the
//!   paper's flushes); tower words use **raw** cell operations — they are
//!   never flushed under any policy, because they are recomputed after a
//!   crash ([`SkipList::recover_skiplist`] rebuilds every tower from the
//!   bottom list with write-only passes).
//! * `findEntry` descends the towers (it may snip marked tower links — the
//!   auxiliary structure is not subject to the traverse method's no-write
//!   rule), returning a bottom-level entry node; `traverse` is then exactly
//!   Harris's bottom walk.
//! * `ensureReachable` uses Supplement 2's *original parent* field: the
//!   entry shortcut means the traversal may not know the current parent of
//!   its first returned node, so each node records the address of the
//!   pointer that first linked it into the bottom list.
//!
//! The algorithm follows the lock-free skiplist lineage the paper cites
//! (Michael / Fraser / Herlihy et al.): deletion marks the bottom link (the
//! linearization point), then unlinks the tower levels top-down.

use nvtraverse::alloc::{alloc_node, free, PoolCtx};
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, SetOp};
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{mix, Backend, PCell, Word};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tower height cap: supports the evaluated sizes (≤ a few million keys).
pub const MAX_HEIGHT: usize = 16;

/// One skiplist node. `key`, `value`, `height` and `orig_parent` are
/// immutable; `next[0]` is the persistent bottom link; `next[1..height]` are
/// volatile tower links.
#[repr(C)]
pub struct SkipNode<K: Word, V: Word, B: Backend> {
    key: PCell<K, B>,
    value: PCell<V, B>,
    /// Immutable tower height in `1..=MAX_HEIGHT`.
    height: PCell<u64, B>,
    /// Supplement 2: address of the bottom link that first connected us.
    orig_parent: PCell<u64, B>,
    /// `next[0]` persistent; higher levels volatile (never flushed).
    next: [Link<K, V, B>; MAX_HEIGHT],
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for SkipNode<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipNode")
            .field("height", &self.height)
            .finish()
    }
}

type NodePtr<K, V, B> = *mut SkipNode<K, V, B>;
/// One tower-link word (bottom level persistent, upper levels volatile).
type Link<K, V, B> = PCell<MarkedPtr<SkipNode<K, V, B>>, B>;

/// Traversal window: Harris's bottom-list window plus the tower
/// predecessors `findEntry` computed (auxiliary data for upper linking).
pub struct SkipWindow<K: Word, V: Word, B: Backend> {
    left: NodePtr<K, V, B>,
    left_succ: MarkedPtr<SkipNode<K, V, B>>,
    right: NodePtr<K, V, B>,
    /// Tower predecessors per level (volatile shortcuts; level 0 unused).
    preds: [NodePtr<K, V, B>; MAX_HEIGHT],
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for SkipWindow<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipWindow")
            .field("left", &self.left)
            .field("right", &self.right)
            .finish()
    }
}

/// A lock-free skiplist map, parameterized by durability policy.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::MmapBackend;
/// use nvtraverse_structures::skiplist::SkipList;
///
/// let s: SkipList<u64, u64, NvTraverse<MmapBackend>> = SkipList::new();
/// assert!(s.insert(9, 90));
/// assert_eq!(s.get(9), Some(90));
/// ```
pub struct SkipList<K: Word, V: Word, D: Durability> {
    head: NodePtr<K, V, D::B>,
    collector: Collector,
    /// Which heap this structure's nodes come from — its own pool for a
    /// pooled instance, the volatile heap otherwise. Captured at
    /// construction (from the enclosing allocation scope) and re-entered
    /// around every allocating operation, so concurrent structures in
    /// different pools allocate from the right files.
    ctx: PoolCtx,
    /// Deterministic height source (split-mix of a counter), so crash tests
    /// replay identically.
    height_seq: AtomicU64,
    _marker: PhantomData<fn() -> D>,
}

// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Send for SkipList<K, V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Sync for SkipList<K, V, D> {}

impl<K, V, D> SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty skiplist retiring into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        let head = alloc_node::<_, D::B>(SkipNode {
            key: PCell::new(K::from_bits(0)), // sentinel, never read
            value: PCell::new(V::from_bits(0)),
            height: PCell::new(MAX_HEIGHT as u64),
            orig_parent: PCell::new(0),
            next: std::array::from_fn(|_| PCell::new(MarkedPtr::null())),
        });
        // Only the persistent part of the head needs to survive: flushing
        // the whole node is harmless and simplest.
        Self::mark_tower_volatile(head);
        D::persist_new_node(head as *const u8, std::mem::size_of::<SkipNode<K, V, D::B>>());
        D::before_return();
        SkipList {
            head,
            collector,
            ctx: PoolCtx::current(),
            height_seq: AtomicU64::new(1),
            _marker: PhantomData,
        }
    }

    /// The collector nodes are retired into.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The head tower (for pool root registration below).
    fn head_ptr(&self) -> NodePtr<K, V, D::B> {
        self.head
    }

    /// Declares `node`'s upper tower links (`next[1..]`) volatile by design
    /// to any vet observer: only `next[0]` is part of the durable list,
    /// recovery rebuilds the rest.
    fn mark_tower_volatile(node: NodePtr<K, V, D::B>) {
        // SAFETY: the caller just allocated `node`, so the tower array is
        // live memory and taking element addresses cannot race anything.
        let upper = unsafe { (*node).next[1].addr() as usize };
        nvtraverse_pmem::sim::current_mark_volatile_range(upper, (MAX_HEIGHT - 1) * 8);
    }

    /// Rebuilds a skiplist handle around an existing head tower — the attach
    /// half of the pool lifecycle. The caller must run recovery before any
    /// operation: the persisted tower words are stale (they are volatile
    /// shortcuts that happen to live in pool memory) until
    /// [`SkipList::recover_skiplist`] rebuilds them from the bottom list.
    ///
    /// # Safety
    ///
    /// `head` must be the head tower of a skiplist built with the *same*
    /// `K`/`V`/`D` parameters, reachable and quiescent, and the caller must
    /// not drop two handles to the same structure (the pooled lifecycle
    /// never drops — see `nvtraverse::PooledHandle`).
    pub(crate) unsafe fn attach_at(head: NodePtr<K, V, D::B>, collector: Collector) -> Self {
        SkipList {
            head,
            collector,
            ctx: PoolCtx::current(),
            // recover_skiplist reseeds this past the live node count.
            height_seq: AtomicU64::new(1),
            _marker: PhantomData,
        }
    }

    /// Geometric(1/2) tower height in `1..=MAX_HEIGHT`, deterministic in the
    /// number of prior calls.
    fn next_height(&self) -> usize {
        let n = self.height_seq.fetch_add(1, Ordering::Relaxed);
        let bits = mix::splitmix64(n);
        ((bits.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    #[inline]
    fn key_of(node: NodePtr<K, V, D::B>) -> K {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        D::load_fixed(unsafe { &(*node).key })
    }

    #[inline]
    fn is_head(&self, node: NodePtr<K, V, D::B>) -> bool {
        node == self.head
    }

    /// `key(node) < k`, treating the head as −∞.
    #[inline]
    fn below(&self, node: NodePtr<K, V, D::B>, k: K) -> bool {
        self.is_head(node) || Self::key_of(node) < k
    }

    /// Auxiliary (volatile) walk of one tower level starting at `start`,
    /// snipping marked links on the way. Returns the rightmost node at
    /// `level` with key < `k`.
    ///
    /// Tower accesses are raw — never routed through the policy — because
    /// the towers are recomputed on recovery (Property 2).
    fn aux_walk(
        &self,
        start: NodePtr<K, V, D::B>,
        level: usize,
        k: K,
    ) -> NodePtr<K, V, D::B> {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let mut pred = start;
            loop {
                // nvt-lint: begin-allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
                let mut w = (*pred).next[level].load();
                // A marked word means *pred itself* was deleted at this
                // level. Its tower word is frozen from here on: snipping
                // through it would CAS an **unmarked** successor word into
                // the dead node, un-marking it and re-exposing it at this
                // level — the ROADMAP's livelock (competing walks then
                // re-mark/re-snip the same tower word forever). Hand the
                // marked pred back; callers restart from a live start
                // point (ultimately the never-marked head).
                if w.is_marked() {
                    return pred;
                }
                // Snip marked successors (auxiliary maintenance).
                loop {
                    let curr = w.ptr();
                    if curr.is_null() {
                        return pred;
                    }
                    let cw = (*curr).next[level].load();
                    if cw.is_marked() {
                        // Bypass curr at this level.
                        match (*pred).next[level]
                            .compare_exchange(w, cw.without_mark().untagged())
                            // nvt-lint: end-allow(raw-pcell-access)
                        {
                            Ok(_) => w = cw.without_mark().untagged(),
                            Err(actual) => {
                                if actual.is_marked() {
                                    // pred itself got marked; restart higher.
                                    return pred;
                                }
                                w = actual;
                            }
                        }
                    } else {
                        break;
                    }
                }
                let curr = w.ptr();
                if curr.is_null() || !self.below(curr, k) {
                    return pred;
                }
                pred = curr;
            }
        }
    }

    /// Ensures `node` is no longer linked at `level` (used before retiring).
    ///
    /// Two phases. The first rounds lean on [`SkipList::aux_walk`]'s snipping
    /// as a side effect — the common case removes the node in one pass. If
    /// the node stays reachable past [`Self::UNLINK_GENERIC_ROUNDS`] rounds
    /// (heavy contention keeps invalidating the walk), fall back to a
    /// *targeted* unlink that restarts from the entry (the never-marked
    /// head) every round and CASes exactly this node out. The outer loop is
    /// thereby bounded to generic rounds + however long the single frozen
    /// link takes to snip — `node`'s tower word at `level` is already
    /// marked and (with the un-marking bug fixed above) can never be
    /// re-exposed, so no round can undo another's progress.
    fn unlink_level(&self, node: NodePtr<K, V, D::B>, level: usize, k: K) {
        let mut rounds = 0u32;
        loop {
            if rounds >= Self::UNLINK_GENERIC_ROUNDS {
                if self.targeted_unlink(node, level) {
                    return;
                }
                std::hint::spin_loop();
                continue;
            }
            rounds += 1;
            let pred = self.aux_walk(self.head, level, k);
            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
            // nvt-lint: begin-allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
            let w = unsafe { (*pred).next[level].load() };
            if w.is_marked() {
                // pred died under the walk: its view of the level is
                // useless. Count the round (a competing deleter is making
                // progress here) and restart from the entry.
                continue;
            }
            let mut cur = w.ptr();
            // Check whether node is still reachable at this level from pred
            // onwards (keys ≥ k region).
            let mut reachable = false;
            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
            unsafe {
                let mut hops = 0;
                while !cur.is_null() && hops < 64 {
                    if cur == node {
                        reachable = true;
                        break;
                    }
                    // Past the key means it cannot appear later.
                    if !self.below(cur, k) && Self::key_of(cur) != k {
                        break;
                    }
                    cur = (*cur).next[level].load().ptr();
                    // nvt-lint: end-allow(raw-pcell-access)
                    hops += 1;
                }
            }
            if !reachable {
                return;
            }
            // aux_walk snips as a side effect; loop until gone.
            std::hint::spin_loop();
        }
    }

    /// Generic `unlink_level` rounds before switching to the targeted walk.
    const UNLINK_GENERIC_ROUNDS: u32 = 64;

    /// One round of `unlink_level`'s fallback: walk `level` from the head
    /// and, if `node` is still some predecessor's successor, CAS it out
    /// with its own frozen successor. Returns `true` once `node` is
    /// provably unreachable at this level.
    ///
    /// `node` is marked at `level` (the deleter marked every tower level
    /// before unlinking), so its successor word is frozen — reading it once
    /// is sound — and no walk can ever re-link it.
    fn targeted_unlink(&self, node: NodePtr<K, V, D::B>, level: usize) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
            let node_word = (*node).next[level].load();
            debug_assert!(node_word.is_marked(), "targeted unlink of an unmarked node");
            let replacement = node_word.without_mark().untagged();
            let mut pred = self.head;
            loop {
                let w = (*pred).next[level].load();
                if w.is_marked() {
                    // pred died mid-walk; restart from the entry next round.
                    return false;
                }
                let curr = w.ptr();
                if curr.is_null() {
                    return true; // fell off the level: node is not linked here
                }
                if curr == node {
                    // Snip exactly node. A lost CAS means pred's link moved
                    // (possibly a concurrent walk unlinked node for us) —
                    // re-probe with a fresh walk next round.
                    return (*pred).next[level].compare_exchange(w, replacement).is_ok();
                    // nvt-lint: end-allow(raw-pcell-access)
                }
                pred = curr;
            }
        }
    }

    /// Returns the smallest live `(key, value)`, reading through the policy
    /// (used by the priority queue's `peek`/`pop_min`). Linearizes at the
    /// bottom-link read of the first unmarked node.
    pub fn min_entry(&self) -> Option<(K, V)> {
        // Unlike the quiescent snapshot walks, this runs concurrently with
        // removers: the marked nodes it reads through are retire()d by their
        // deleters, so the walk must hold an epoch pin.
        let _guard = self.collector.pin();
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let mut cur = D::t_load_link(&(*self.head).next[0]);
            loop {
                let node = cur.ptr();
                if node.is_null() {
                    return None;
                }
                let nw = D::t_load_link(&(*node).next[0]);
                if !nw.is_marked() {
                    return Some((
                        D::load_fixed(&(*node).key),
                        D::load_fixed(&(*node).value),
                    ));
                }
                cur = nw;
            }
        }
    }

    /// Quiescent: the live `(key, value)` pairs in key order (the unmarked
    /// bottom list — the persistent core the towers merely accelerate).
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        self.bottom_snapshot(false)
    }

    /// Quiescent bottom-list walk.
    fn bottom_snapshot(&self, include_marked: bool) -> Vec<(K, V)> {
        let mut out = Vec::new();
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*self.head).next[0].load().ptr();
            while !cur.is_null() {
                let nw = (*cur).next[0].load();
                if include_marked || !nw.is_marked() {
                    out.push(((*cur).key.load(), (*cur).value.load()));
                    // nvt-lint: end-allow(raw-pcell-access)
                }
                cur = nw.ptr();
            }
        }
        out
    }

    /// Quiescent: verifies bottom-list sortedness and tower reachability.
    ///
    /// # Errors
    ///
    /// Reports unsorted bottom keys, reachable bottom-marked nodes (when
    /// `allow_marked` is false), or a tower link pointing at a node that is
    /// not alive in the bottom list.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        use std::collections::HashSet;
        let mut live: HashSet<usize> = HashSet::new();
        let mut count = 0;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let mut last: Option<K> = None;
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*self.head).next[0].load().ptr();
            while !cur.is_null() {
                let nw = (*cur).next[0].load();
                if nw.is_marked() {
                    if !allow_marked {
                        return Err("reachable bottom-marked node".into());
                    }
                } else {
                    let k = (*cur).key.load();
                    if let Some(prev) = last.take() {
                        if prev >= k {
                            return Err("bottom keys not strictly increasing".into());
                        }
                    }
                    last = Some(k);
                    live.insert(cur as usize);
                    count += 1;
                }
                cur = nw.ptr();
            }
            // Towers must only reference live bottom nodes (after recovery).
            if !allow_marked {
                for level in 1..MAX_HEIGHT {
                    let mut c = (*self.head).next[level].load().ptr();
                    let mut prev_key: Option<K> = None;
                    while !c.is_null() {
                        if !live.contains(&(c as usize)) {
                            return Err(format!("tower level {level} references dead node"));
                        }
                        let k = (*c).key.load();
                        if let Some(pk) = prev_key.take() {
                            if pk >= k {
                                return Err(format!("tower level {level} unsorted"));
                            }
                        }
                        prev_key = Some(k);
                        c = (*c).next[level].load().ptr();
                        // nvt-lint: end-allow(raw-pcell-access)
                    }
                }
            }
        }
        Ok(count)
    }

    /// Recovery (paper §4 + Property 2): trim marked bottom nodes with the
    /// policy's disconnection CASes, then rebuild every volatile tower from
    /// the bottom list with write-only passes (no tower word is read, so
    /// poisoned towers are safe).
    pub fn recover_skiplist(&self) {
        if !D::DURABLE {
            return;
        }
        let guard = self.collector.pin();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe {
            // Pass 1: disconnect marked bottom nodes (Supplement 1).
            let mut pred = self.head;
            loop {
                // nvt-lint: begin-allow(raw-pcell-access): single-threaded recovery reads raw bits (marks, flags, poison) by design
                let start = (*pred).next[0].load().without_dirty();
                let mut cur = start.ptr();
                while !cur.is_null() {
                    let nw = (*cur).next[0].load();
                    if nw.is_marked() {
                        cur = nw.ptr();
                    } else {
                        break;
                    }
                }
                if cur != start.ptr() {
                    let to = if cur.is_null() {
                        MarkedPtr::null()
                    } else {
                        MarkedPtr::new(cur)
                    };
                    if D::c_cas_link(&(*pred).next[0], start, to).is_ok() {
                        let mut dead = start.ptr();
                        while !dead.is_null() && dead != cur {
                            let nxt = (*dead).next[0].load().ptr();
                            guard.retire(dead);
                            dead = nxt;
                        }
                    } else {
                        continue;
                    }
                }
                if cur.is_null() {
                    break;
                }
                pred = cur;
            }
            // Pass 2: rebuild towers (volatile): store-only, left to right.
            let mut prevs: [NodePtr<K, V, D::B>; MAX_HEIGHT] = [self.head; MAX_HEIGHT];
            let mut count: u64 = 0;
            let mut cur = (*self.head).next[0].load().ptr();
            while !cur.is_null() {
                count += 1;
                let h = (*cur).height.load() as usize;
                // Indexing two arrays in lockstep; an iterator form obscures it.
                #[allow(clippy::needless_range_loop)]
                for level in 1..h {
                    (*prevs[level]).next[level].store(MarkedPtr::new(cur));
                    prevs[level] = cur;
                }
                cur = (*cur).next[0].load().ptr();
            }
            for (level, prev) in prevs.iter().enumerate().skip(1) {
                (**prev).next[level].store(MarkedPtr::null());
                // nvt-lint: end-allow(raw-pcell-access)
            }
            // Reseed the deterministic height source past the surviving
            // population, so a reattached list keeps drawing fresh heights
            // (correctness never depends on this; tower balance across
            // reopen cycles does).
            self.height_seq.store(count + 1, Ordering::Relaxed);
        }
        D::before_return();
    }
}

impl<K, V, D> TraversalOps for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = SetOp<K, V>;
    type Output = Option<V>;
    /// Entry: bottom-level start node plus the tower predecessors.
    type Entry = (NodePtr<K, V, D::B>, [NodePtr<K, V, D::B>; MAX_HEIGHT]);
    type Window = SkipWindow<K, V, D::B>;

    fn find_entry(&self, _guard: &Guard, input: Self::Input) -> Self::Entry {
        let k = match input {
            SetOp::Insert(k, _) | SetOp::Remove(k) | SetOp::Get(k) => k,
        };
        // Descend the volatile towers, snipping marked links: auxiliary
        // maintenance outside the core tree.
        let mut preds = [self.head; MAX_HEIGHT];
        let mut pred = self.head;
        for level in (1..MAX_HEIGHT).rev() {
            pred = self.aux_walk(pred, level, k);
            // A marked result means the walk's start (or end point) died
            // mid-descent; one retry from the never-marked head keeps the
            // shortcut useful. (A still-marked result is fine: `traverse`
            // falls back to the head for marked entry points.)
            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
            // nvt-lint: allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
            if unsafe { (*pred).next[level].load().is_marked() } {
                pred = self.aux_walk(self.head, level, k);
            }
            preds[level] = pred;
        }
        (pred, preds)
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        let k = match input {
            SetOp::Insert(k, _) | SetOp::Remove(k) | SetOp::Get(k) => k,
        };
        let (start, preds) = entry;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // Harris-style bottom walk from the shortcut entry point. The
            // shortcut may have landed on a node that was logically deleted
            // meanwhile; a marked node must never become the window's
            // `left` (trim would CAS its frozen next word, resurrecting it
            // and splicing live nodes out), so fall back to the head — the
            // never-marked sentinel — exactly as a shortcut-less traversal
            // would start. Mid-walk candidates are already mark-checked.
            let mut base = start;
            let mut first = D::t_load_link(&(*base).next[0]);
            if first.is_marked() {
                base = self.head;
                first = D::t_load_link(&(*base).next[0]);
            }
            let mut left = base;
            let mut left_succ = first;
            let mut curr = base;
            let mut succ = left_succ;
            loop {
                if !succ.is_marked() {
                    if curr != base && !self.below(curr, k) {
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
                succ = D::t_load_link(&(*curr).next[0]);
            }
            SkipWindow {
                left,
                left_succ,
                right: curr,
                preds,
            }
        }
    }

    fn collect_persist_set(&self, w: &Self::Window, out: &mut PersistSet) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // Supplement 2: flush the original-parent location of `left`
            // (the entry shortcut hides left's current parent).
            let addr = D::load_fixed(&(*w.left).orig_parent);
            if addr != 0 {
                out.set_parent(addr as *const u8);
            }
            out.push((*w.left).next[0].addr());
            if !w.right.is_null() {
                out.push((*w.right).next[0].addr());
            }
        }
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        // Bottom-list trim, exactly deleteMarkedNodes of the list — except
        // the *deleter* retires (it must first unlink the towers).
        let trim = |w: &SkipWindow<K, V, D::B>| -> bool {
            if w.left_succ.ptr() == w.right {
                return true;
            }
            let to = if w.right.is_null() {
                MarkedPtr::null()
            } else {
                MarkedPtr::new(w.right)
            };
            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
            if D::c_cas_link(unsafe { &(*w.left).next[0] }, w.left_succ, to).is_err() {
                return false;
            }
            if !w.right.is_null() {
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let rn = D::c_load_link(unsafe { &(*w.right).next[0] });
                if rn.is_marked() {
                    return false;
                }
            }
            true
        };

        match input {
            SetOp::Get(key) => {
                if w.right.is_null() || Self::key_of(w.right) != key {
                    Critical::Done(None)
                } else {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    Critical::Done(Some(D::load_fixed(unsafe { &(*w.right).value })))
                }
            }
            SetOp::Insert(key, value) => {
                if !trim(&w) {
                    return Critical::Restart;
                }
                if !w.right.is_null() && Self::key_of(w.right) == key {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    return Critical::Done(Some(D::load_fixed(unsafe { &(*w.right).value })));
                }
                let height = self.next_height();
                let right_word = if w.right.is_null() {
                    MarkedPtr::null()
                } else {
                    MarkedPtr::new(w.right)
                };
                let node = alloc_node::<_, D::B>(SkipNode {
                    key: PCell::new(key),
                    value: PCell::new(value),
                    height: PCell::new(height as u64),
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    orig_parent: PCell::new(unsafe { (*w.left).next[0].addr() } as u64),
                    next: std::array::from_fn(|i| {
                        PCell::new(if i == 0 { right_word } else { MarkedPtr::null() })
                    }),
                });
                Self::mark_tower_volatile(node);
                D::persist_new_node(
                    node as *const u8,
                    std::mem::size_of::<SkipNode<K, V, D::B>>(),
                );
                match D::c_cas_link(
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    unsafe { &(*w.left).next[0] },
                    right_word,
                    MarkedPtr::new(node),
                ) {
                    Ok(()) => {
                        // Bottom link is in (the linearization + persistence
                        // point). Now thread the volatile tower levels.
                        'levels: for level in 1..height {
                            let mut from = if self.below(w.preds[level], key) {
                                w.preds[level]
                            } else {
                                self.head
                            };
                            loop {
                                let pred = self.aux_walk(from, level, key);
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                // nvt-lint: begin-allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
                                let succ = unsafe { (*pred).next[level].load() };
                                if succ.is_marked() {
                                    // pred was deleted under us and its
                                    // tower word is frozen: re-walking from
                                    // it can never make progress. Restart
                                    // the level from the never-marked head.
                                    from = self.head;
                                    continue;
                                }
                                // If we were deleted meanwhile, stop linking.
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                if unsafe { (*node).next[0].load().is_marked() } {
                                    break 'levels;
                                }
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                unsafe {
                                    (*node).next[level].store(succ.untagged());
                                }
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                if unsafe {
                                    (*pred).next[level]
                                        .compare_exchange(succ, MarkedPtr::new(node))
                                        .is_ok()
                                } {
                                    break;
                                }
                            }
                        }
                        Critical::Done(None)
                    }
                    Err(_) => {
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { free(node) };
                        Critical::Restart
                    }
                }
            }
            SetOp::Remove(key) => {
                if !trim(&w) {
                    return Critical::Restart;
                }
                if w.right.is_null() || Self::key_of(w.right) != key {
                    return Critical::Done(None);
                }
                let victim = w.right;
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let bottom = unsafe { &(*victim).next[0] };
                let r_next = D::c_load_link(bottom);
                if r_next.is_marked() {
                    return Critical::Restart;
                }
                match D::c_cas_link(bottom, r_next, r_next.with_mark()) {
                    Ok(()) => {
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        let value = D::load_fixed(unsafe { &(*victim).value });
                        // Mark every tower level (volatile, raw CAS) so that
                        // aux walks snip us out.
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        let height = D::load_fixed(unsafe { &(*victim).height }) as usize;
                        for level in (1..height).rev() {
                            loop {
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                let cw = unsafe { (*victim).next[level].load() };
                                if cw.is_marked() {
                                    break;
                                }
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                if unsafe {
                                    (*victim).next[level]
                                        .compare_exchange(cw, cw.with_mark())
                                        // nvt-lint: end-allow(raw-pcell-access)
                                        .is_ok()
                                } {
                                    break;
                                }
                            }
                        }
                        // Physically unlink: bottom first (policy CAS), then
                        // every tower level, then retire.
                        let _ = D::c_cas_link(
                            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                            unsafe { &(*w.left).next[0] },
                            MarkedPtr::new(victim),
                            r_next,
                        );
                        for level in (1..height).rev() {
                            self.unlink_level(victim, level, key);
                        }
                        // Ensure the bottom removal happened (ours or a
                        // helper's) before retiring.
                        loop {
                            let e = self.find_entry(guard, SetOp::Get(key));
                            let w2 = SkipList::traverse(self, guard, e, SetOp::Get(key));
                            if w2.right != victim {
                                break;
                            }
                            let _ = trim(&SkipWindow {
                                left: w2.left,
                                left_succ: w2.left_succ,
                                right: r_next.without_mark().ptr(),
                                preds: w2.preds,
                            });
                        }
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { guard.retire(victim) };
                        Critical::Done(Some(value))
                    }
                    Err(_) => Critical::Restart,
                }
            }
        }
    }
}

impl<K, V, D> DurableSet<K, V> for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn insert(&self, key: K, value: V) -> bool {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Insert(key, value)).is_none()
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
        self.bottom_snapshot(false).len()
    }

    fn recover(&self) {
        self.recover_skiplist();
    }
}

impl<K, V, D> PoolAttach for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        let _scope = PoolCtx::of(pool).enter();
        let list = Self::with_collector(Collector::new());
        pool.set_root_ptr_checked(name, list.head_ptr())?;
        Ok(list)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let head = pool.attach_root_ptr::<SkipNode<K, V, D::B>>(name)?;
        // Entered so `attach_at`'s context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(head, Collector::new()) })
    }

    fn recover_attached(&self) {
        self.recover_skiplist();
    }

    fn collector_of(&self) -> &Collector {
        &self.collector
    }
}

// SAFETY: the persistent core is exactly the bottom list (`next[0]`), so
// the walk is the Harris-list chain from the head tower through marked
// nodes. Tower levels (`next[1..]`) are volatile shortcuts that
// `recover_skiplist` rebuilds with write-only passes — they are never read
// by recovery and may be stale after a crash, so the trace must not (and
// does not) follow them; every node they could name is on the bottom list.
// SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
unsafe impl<K, V, D> nvtraverse::PoolTrace for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) {
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe {
            crate::trace_chain(marker, root as NodePtr<K, V, D::B>, |n| {
                // nvt-lint: allow(raw-pcell-access): GC tracer follows raw pointers on a quiescent heap
                (*n).next[0].load().ptr()
            });
        }
    }
}

impl<K, V, D> Default for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D> fmt::Debug for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .finish()
    }
}

impl<K: Word, V: Word, D: Durability> Drop for SkipList<K, V, D> {
    fn drop(&mut self) {
        // Poisoned links (unrecovered crash) end the walk; the tail leaks.
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let mut cur = self.head;
            while !cur.is_null() {
                // nvt-lint: allow(raw-pcell-access): teardown/drop owns the structure exclusively; nothing durable happens after it
                let bits = (*cur).next[0].peek_bits();
                let nxt = if bits == nvtraverse_pmem::POISON {
                    std::ptr::null_mut()
                } else {
                    MarkedPtr::<SkipNode<K, V, D::B>>::from_bits_raw(bits).ptr()
                };
                free(cur);
                cur = nxt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Izraelevitz, LinkPersist, NvTraverse, Volatile};
    use nvtraverse_pmem::{MmapBackend, Noop};

    fn smoke<D: Durability>() {
        let s: SkipList<u64, u64, D> = SkipList::new();
        assert!(s.is_empty());
        assert!(s.insert(5, 50));
        assert!(s.insert(1, 10));
        assert!(s.insert(9, 90));
        assert!(!s.insert(5, 99));
        assert_eq!(s.get(5), Some(50));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.get(5), None);
        assert_eq!(s.len(), 2);
        s.check_consistency(false).unwrap();
    }

    #[test]
    fn volatile_semantics() {
        smoke::<Volatile>();
    }

    #[test]
    fn nvtraverse_semantics() {
        smoke::<NvTraverse<MmapBackend>>();
    }

    #[test]
    fn izraelevitz_semantics() {
        smoke::<Izraelevitz<MmapBackend>>();
    }

    #[test]
    fn link_persist_semantics() {
        smoke::<LinkPersist<MmapBackend>>();
    }

    #[test]
    fn towers_accelerate_and_stay_consistent() {
        let s: SkipList<u64, u64, Volatile> = SkipList::new();
        for k in 0..2000u64 {
            assert!(s.insert(k, k));
        }
        assert_eq!(s.check_consistency(false).unwrap(), 2000);
        // Some node must be taller than 1 (probability astronomically high).
        unsafe {
            assert!(
                !(*s.head).next[1].load().is_null(),
                "towers were never built"
            );
        }
        for k in 0..2000u64 {
            assert_eq!(s.get(k), Some(k));
        }
    }

    #[test]
    fn matches_model_on_random_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let s: SkipList<u64, u64, NvTraverse<Noop>> = SkipList::new();
        let mut model = ModelSet::new();
        for i in 0..4000u64 {
            let k = rng.random_range(0..128);
            match rng.random_range(0..3) {
                0 => assert_eq!(s.insert(k, i), model.insert(k, i), "insert({k})"),
                1 => assert_eq!(s.remove(k), model.remove(k), "remove({k})"),
                _ => assert_eq!(s.get(k), model.get(k), "get({k})"),
            }
        }
        let got = s.bottom_snapshot(false);
        let want: Vec<(u64, u64)> = model.iter().collect();
        assert_eq!(got, want);
        s.check_consistency(false).unwrap();
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let s: SkipList<u64, u64, NvTraverse<MmapBackend>> = SkipList::new();
        std::thread::scope(|sc| {
            for tid in 0..4u64 {
                let s = &s;
                sc.spawn(move || {
                    let base = tid * 500;
                    for k in base..base + 500 {
                        assert!(s.insert(k, k));
                    }
                    for k in (base..base + 500).step_by(2) {
                        assert!(s.remove(k));
                    }
                });
            }
        });
        assert_eq!(s.check_consistency(false).unwrap(), 1000);
    }

    #[test]
    fn concurrent_contended_stress() {
        use rand::prelude::*;
        let s: SkipList<u64, u64, NvTraverse<MmapBackend>> = SkipList::new();
        std::thread::scope(|sc| {
            for tid in 0..4u64 {
                let s = &s;
                sc.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(tid);
                    for _ in 0..2000 {
                        let k = rng.random_range(0..64);
                        match rng.random_range(0..10) {
                            0..=3 => {
                                s.insert(k, k);
                            }
                            4..=6 => {
                                s.remove(k);
                            }
                            _ => {
                                s.get(k);
                            }
                        }
                    }
                });
            }
        });
        s.check_consistency(false).unwrap();
    }

    #[test]
    fn recovery_rebuilds_towers_from_bottom() {
        let s: SkipList<u64, u64, NvTraverse<Noop>> = SkipList::new();
        for k in 0..500u64 {
            s.insert(k, k);
        }
        // Wreck the towers (simulating their loss in a crash).
        unsafe {
            for level in 1..MAX_HEIGHT {
                (*s.head).next[level].store(MarkedPtr::null());
            }
        }
        s.recover();
        assert_eq!(s.check_consistency(false).unwrap(), 500);
        for k in 0..500u64 {
            assert_eq!(s.get(k), Some(k), "get({k}) after tower rebuild");
        }
        assert!(s.insert(1000, 1), "usable after recovery");
    }

    #[test]
    fn recovery_trims_bottom_marked_nodes() {
        let s: SkipList<u64, u64, NvTraverse<Noop>> = SkipList::new();
        for k in 0..10u64 {
            s.insert(k, k);
        }
        unsafe {
            // Mark key 4's bottom link by hand (crash mid-delete).
            let mut cur = (*s.head).next[0].load().ptr();
            while !cur.is_null() && (*cur).key.load() != 4 {
                cur = (*cur).next[0].load().ptr();
            }
            let nw = (*cur).next[0].load();
            (*cur).next[0].store(nw.with_mark());
        }
        s.recover();
        assert_eq!(s.get(4), None);
        assert_eq!(s.check_consistency(false).unwrap(), 9);
    }

    /// Livelock hunt (the ROADMAP open item this PR hardens against): loop
    /// the contended concurrent workload, each iteration under a fail-fast
    /// watchdog. A healthy iteration finishes in well under a second even
    /// on the 1-core CI box; a livelocked one trips the 60 s budget
    /// immediately instead of hanging the suite for 20+ minutes.
    ///
    /// Ignored by default (it is a soak, not a unit test). Run with e.g.
    /// `NVT_STRESS_ITERS=500 cargo test --release -p nvtraverse-structures \
    ///  -- --ignored stress_contended_no_livelock --nocapture`.
    #[test]
    #[ignore = "soak test: set NVT_STRESS_ITERS and run with --ignored"]
    fn stress_contended_no_livelock() {
        use rand::prelude::*;
        let iters: usize = std::env::var("NVT_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        for i in 0..iters {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let s: SkipList<u64, u64, NvTraverse<MmapBackend>> = SkipList::new();
                std::thread::scope(|sc| {
                    for tid in 0..4u64 {
                        let s = &s;
                        sc.spawn(move || {
                            // Tiny key range + delete-heavy mix: maximizes
                            // marked-tower traffic, the livelock's habitat.
                            let mut rng =
                                rand::rngs::StdRng::seed_from_u64(tid * 7919 + i as u64);
                            for _ in 0..2000 {
                                let k = rng.random_range(0..32);
                                match rng.random_range(0..10) {
                                    0..=4 => {
                                        s.insert(k, k);
                                    }
                                    5..=8 => {
                                        s.remove(k);
                                    }
                                    _ => {
                                        s.get(k);
                                    }
                                }
                            }
                        });
                    }
                });
                s.check_consistency(false).unwrap();
                let _ = tx.send(());
            });
            if rx.recv_timeout(std::time::Duration::from_secs(60)).is_err() {
                // Fail fast, leaving the stuck iteration's threads behind:
                // the hang itself is the finding.
                panic!("livelock: stress iteration {i} exceeded its 60 s budget");
            }
            if i % 10 == 9 {
                eprintln!("stress: {}/{} iterations clean", i + 1, iters);
            }
        }
    }

    #[test]
    fn height_sequence_is_deterministic_and_bounded() {
        let s1: SkipList<u64, u64, Volatile> = SkipList::new();
        let s2: SkipList<u64, u64, Volatile> = SkipList::new();
        let h1: Vec<usize> = (0..100).map(|_| s1.next_height()).collect();
        let h2: Vec<usize> = (0..100).map(|_| s2.next_height()).collect();
        assert_eq!(h1, h2, "two fresh lists must draw identical heights");
        assert!(h1.iter().all(|&h| (1..=MAX_HEIGHT).contains(&h)));
        assert!(h1.iter().any(|&h| h > 1), "degenerate height sequence");
    }
}
