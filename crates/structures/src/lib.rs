//! Traversal-form lock-free data structures for the NVTraverse reproduction.
//!
//! Every structure evaluated in the paper's §5, written once against the
//! [`Durability`](nvtraverse::Durability) policy interface so the same code
//! instantiates as the original algorithm, the NVTraverse version, the
//! Izraelevitz et al. baseline, or the link-and-persist ("Log Free")
//! competitor:
//!
//! * [`list::HarrisList`] — Harris's sorted linked list (the running example,
//!   paper §2.1/§4.4),
//! * [`hash::HashMapDs`] — fixed-size bucket array of Harris lists (David et
//!   al. style),
//! * [`ellen_bst::EllenBst`] — Ellen et al.'s non-blocking external BST,
//! * [`nm_bst::NmBst`] — Natarajan & Mittal's edge-marking external BST,
//! * [`skiplist::SkipList`] — a lock-free skiplist whose bottom level is the
//!   persistent core tree and whose towers are volatile and rebuilt on
//!   recovery (paper §3, Property 2 discussion),
//! * [`queue::MsQueue`] / [`stack::TreiberStack`] — queue and stack in
//!   traversal form (paper §3: "traversal data structures capture not just
//!   set data structures, but also queues, stacks, …").
//!
//! Every structure (including [`pqueue::PriorityQueue`]) implements
//! [`PoolAttach`](nvtraverse::PoolAttach): it can be created inside a
//! `nvtraverse-pool` file, found again by name after a restart, and
//! recovered — see `nvtraverse::PooledHandle` for the packaged lifecycle
//! and the repository's `ARCHITECTURE.md` for the per-structure recovery
//! table (what each root encodes and what is rebuilt volatile-side).
//! Each also implements [`PoolTrace`](nvtraverse::PoolTrace) — the
//! reachability walk `Pool::open`'s mark-sweep recovery GC uses to sweep
//! crash-stranded blocks; the table's *reachability contract* column
//! documents exactly which links each walk follows.
//!
//! # Example
//!
//! ```
//! use nvtraverse::policy::NvTraverse;
//! use nvtraverse::DurableSet;
//! use nvtraverse_pmem::MmapBackend;
//! use nvtraverse_structures::list::HarrisList;
//!
//! // A durably linearizable sorted list on real flush instructions.
//! let list: HarrisList<u64, u64, NvTraverse<MmapBackend>> = HarrisList::new();
//! assert!(list.insert(3, 30));
//! assert!(list.contains(3));
//! assert!(list.remove(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// The singly-linked chain walk shared by every `PoolTrace` implementation
/// built on a next-pointer chain (list and skiplist bottom level, queue
/// node chain, stack chain): mark `cur`, then follow `next` until the end
/// of the chain or an already-marked node (a shared suffix needs walking
/// only once). Marked/logically-deleted links are followed like any other —
/// a reachable-but-marked node must survive the sweep so `recover()` can
/// trim it through the collector.
///
/// # Safety
///
/// `cur` must be null or a chain node valid under `Pool::open` recovery's
/// quiescence, and `next` must read the node's link word without side
/// effects (raw load, no policy flushes).
pub(crate) unsafe fn trace_chain<N>(
    marker: &mut nvtraverse_pool::Marker<'_>,
    mut cur: *mut N,
    next: impl Fn(*mut N) -> *mut N,
) {
    while !cur.is_null() && marker.mark(cur as *const u8) {
        cur = next(cur);
    }
}

pub mod ellen_bst;
pub mod hash;
pub mod list;
pub mod nm_bst;
pub mod pqueue;
pub mod queue;
pub mod sharded;
pub mod skiplist;
pub mod soft_hash;
pub mod soft_list;
pub mod stack;

/// Convenient aliases for the common instantiations of every structure.
///
/// Every durable alias runs on [`MmapBackend`](nvtraverse_pmem::MmapBackend),
/// the one hardware backend: real flush and fence instructions, counted
/// into whichever `nvtraverse-obs` metric set the thread attributes to.
pub mod prelude {
    use nvtraverse::policy::{Izraelevitz, LinkPersist, NvTraverse, Soft, Volatile};
    use nvtraverse_pmem::MmapBackend;

    /// The paper's "Traverse" series: NVTraverse on hardware flushes.
    pub type DurableList<K, V> = crate::list::HarrisList<K, V, NvTraverse<MmapBackend>>;
    /// The paper's "orig" series: no persistence.
    pub type VolatileList<K, V> = crate::list::HarrisList<K, V, Volatile>;
    /// The paper's "Izraelevitz" series.
    pub type IzraelevitzList<K, V> = crate::list::HarrisList<K, V, Izraelevitz<MmapBackend>>;
    /// The paper's "Log Free" series (link-and-persist).
    pub type LogFreeList<K, V> = crate::list::HarrisList<K, V, LinkPersist<MmapBackend>>;
    /// The SOFT related-work series: volatile links, one validity flush
    /// per update (list form).
    pub type SoftDurableList<K, V> = crate::soft_list::SoftList<K, V, Soft<MmapBackend>>;

    /// Durable hash table.
    pub type DurableHashMap<K, V> = crate::hash::HashMapDs<K, V, NvTraverse<MmapBackend>>;
    /// The SOFT related-work series, hash-table form.
    pub type SoftDurableHashMap<K, V> = crate::soft_hash::SoftHash<K, V, Soft<MmapBackend>>;
    /// Durable Ellen et al. BST.
    pub type DurableEllenBst<K, V> = crate::ellen_bst::EllenBst<K, V, NvTraverse<MmapBackend>>;
    /// Durable Natarajan–Mittal BST.
    pub type DurableNmBst<K, V> = crate::nm_bst::NmBst<K, V, NvTraverse<MmapBackend>>;
    /// Durable skiplist.
    pub type DurableSkipList<K, V> = crate::skiplist::SkipList<K, V, NvTraverse<MmapBackend>>;
    /// Durable Michael–Scott queue.
    pub type DurableQueue<V> = crate::queue::MsQueue<V, NvTraverse<MmapBackend>>;
    /// Durable Treiber stack.
    pub type DurableStack<V> = crate::stack::TreiberStack<V, NvTraverse<MmapBackend>>;
    /// Durable min-priority queue.
    pub type DurablePriorityQueue<K, V> = crate::pqueue::PriorityQueue<K, V, NvTraverse<MmapBackend>>;

    /// A hash-sharded durable set over N independent pool files.
    pub type ShardedDurableSet<K, V> =
        crate::sharded::ShardedSet<crate::hash::HashMapDs<K, V, NvTraverse<MmapBackend>>>;
}
