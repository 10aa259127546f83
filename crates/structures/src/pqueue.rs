//! A durable priority queue on top of the skiplist — the paper's §3 lists
//! priority queues among the shapes traversal data structures capture, and
//! the classic lock-free construction (Shavit–Lotan / Sundell–Tsigas) is a
//! skiplist whose `delete-min` removes the leftmost bottom-level node.
//!
//! `pop_min` traverses zero nodes (the entry point *is* the destination:
//! head's bottom successor), marks it — the linearization and persistence
//! point — and reuses the skiplist's removal machinery for the physical
//! unlink. Recovery is the skiplist's: trim bottom-marked nodes, rebuild the
//! volatile towers.

use crate::skiplist::SkipList;
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach};
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::Word;
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;

/// A concurrent, optionally durable min-priority queue of `(priority, item)`
/// pairs with distinct priorities.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse_pmem::MmapBackend;
/// use nvtraverse_structures::pqueue::PriorityQueue;
///
/// let pq: PriorityQueue<u64, u64, NvTraverse<MmapBackend>> = PriorityQueue::new();
/// pq.push(5, 50);
/// pq.push(1, 10);
/// pq.push(3, 30);
/// assert_eq!(pq.pop_min(), Some((1, 10)));
/// assert_eq!(pq.pop_min(), Some((3, 30)));
/// assert_eq!(pq.pop_min(), Some((5, 50)));
/// assert_eq!(pq.pop_min(), None);
/// ```
pub struct PriorityQueue<K: Word, V: Word, D: Durability> {
    inner: SkipList<K, V, D>,
}

impl<K, V, D> PriorityQueue<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates an empty priority queue.
    pub fn new() -> Self {
        PriorityQueue {
            inner: SkipList::new(),
        }
    }

    /// Creates an empty queue retiring into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        PriorityQueue {
            inner: SkipList::with_collector(collector),
        }
    }

    /// Inserts an item with the given priority; `false` if that priority is
    /// already queued (priorities are unique, as in the classic skiplist
    /// priority queues).
    pub fn push(&self, priority: K, item: V) -> bool {
        self.inner.insert(priority, item)
    }

    /// Returns the minimum queued priority and its item without removing it.
    pub fn peek_min(&self) -> Option<(K, V)> {
        self.inner.min_entry()
    }

    /// Removes and returns the minimum-priority entry.
    ///
    /// Lock-free: competing poppers each claim a distinct minimum (the mark
    /// CAS on the bottom link arbitrates), so no two callers return the same
    /// entry.
    pub fn pop_min(&self) -> Option<(K, V)> {
        loop {
            let (k, v) = self.inner.min_entry()?;
            // Claim it; if somebody else won the race, retry on the new min.
            if self.inner.remove(k) {
                return Some((k, v));
            }
        }
    }

    /// Quiescent: number of queued entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Quiescent: whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Post-crash recovery (delegates to the skiplist: trim marked bottom
    /// nodes, rebuild volatile towers).
    pub fn recover(&self) {
        self.inner.recover();
    }

    /// Quiescent: structural validation, returning the entry count.
    ///
    /// # Errors
    ///
    /// Propagates the skiplist invariant violation, if any.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        self.inner.check_consistency(allow_marked)
    }
}

impl<K, V, D> PoolAttach for PriorityQueue<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Delegates to the underlying skiplist: the registered root *is* the
    /// skiplist head tower, so a pool created by a priority queue can even
    /// be reattached as a plain [`SkipList`] of the same parameters.
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        Ok(PriorityQueue {
            inner: SkipList::create_in_pool(pool, name)?,
        })
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        let inner = unsafe { SkipList::attach_to_pool(pool, name) }?;
        Some(PriorityQueue { inner })
    }

    fn recover_attached(&self) {
        self.inner.recover_attached();
    }

    fn collector_of(&self) -> &Collector {
        self.inner.collector_of()
    }
}

// SAFETY: the registered root *is* the inner skiplist's head tower, so the
// skiplist's bottom-list walk is the priority queue's reachability contract
// verbatim.
unsafe impl<K, V, D> nvtraverse::PoolTrace for PriorityQueue<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) {
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe { <SkipList<K, V, D> as nvtraverse::PoolTrace>::trace(root, marker) }
    }
}

impl<K, V, D> Default for PriorityQueue<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D> fmt::Debug for PriorityQueue<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PriorityQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::policy::{NvTraverse, Volatile};
    use nvtraverse_pmem::{MmapBackend, Noop};

    #[test]
    fn min_order_is_respected() {
        let pq: PriorityQueue<u64, u64, NvTraverse<MmapBackend>> = PriorityQueue::new();
        for p in [7u64, 2, 9, 4, 1, 8] {
            assert!(pq.push(p, p * 10));
        }
        assert!(!pq.push(2, 0), "duplicate priority must be rejected");
        let mut out = Vec::new();
        while let Some((p, v)) = pq.pop_min() {
            assert_eq!(v, p * 10);
            out.push(p);
        }
        assert_eq!(out, vec![1, 2, 4, 7, 8, 9]);
    }

    #[test]
    fn peek_does_not_remove() {
        let pq: PriorityQueue<u64, u64, Volatile> = PriorityQueue::new();
        pq.push(3, 30);
        assert_eq!(pq.peek_min(), Some((3, 30)));
        assert_eq!(pq.len(), 1);
        assert_eq!(pq.pop_min(), Some((3, 30)));
        assert_eq!(pq.peek_min(), None);
    }

    #[test]
    fn signed_priorities() {
        let pq: PriorityQueue<i64, u64, Volatile> = PriorityQueue::new();
        for p in [5i64, -3, 0, -10] {
            pq.push(p, 0);
        }
        assert_eq!(pq.pop_min().unwrap().0, -10);
        assert_eq!(pq.pop_min().unwrap().0, -3);
    }

    #[test]
    fn concurrent_poppers_claim_distinct_minima() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        const N: u64 = 4000;
        let pq: PriorityQueue<u64, u64, NvTraverse<MmapBackend>> = PriorityQueue::new();
        for p in 0..N {
            pq.push(p, p);
        }
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pq = &pq;
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::new();
                    while let Some((p, _)) = pq.pop_min() {
                        local.push(p);
                    }
                    // Each popper's sequence must be increasing: it never
                    // observes an older minimum after a newer one.
                    if let Some(w) = local.windows(2).find(|w| w[0] >= w[1]) {
                        panic!("non-monotone pop: {} then {} (tail: {:?})", w[0], w[1],
                            &local[local.len().saturating_sub(8)..]);
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), N as usize, "lost or duplicated minima");
        assert!(pq.is_empty());
    }

    #[test]
    fn recovery_restores_the_heap() {
        let pq: PriorityQueue<u64, u64, NvTraverse<Noop>> = PriorityQueue::new();
        for p in [5u64, 1, 3] {
            pq.push(p, p);
        }
        pq.recover();
        assert_eq!(pq.check_consistency(false).unwrap(), 3);
        assert_eq!(pq.pop_min(), Some((1, 1)));
    }
}
