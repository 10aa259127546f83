//! A redo-log persistent transactional memory in the spirit of **OneFile**
//! (Ramalhete, Correia, Felber, Cohen — DSN 2019), the PTM baseline of the
//! paper's evaluation (§5, the "Onefile" series).
//!
//! ## Substitution note (see DESIGN.md)
//!
//! Real OneFile is a *wait-free* PTM built on per-word CAS aggregation. This
//! crate implements the same architectural shape with a simpler concurrency
//! control, preserving exactly the performance profile the paper measures:
//!
//! * **read-only transactions are nearly free** — optimistic seqlock reads
//!   with no writes at all, which is why "OneFile does extremely well in
//!   read-only workloads. This is because OneFile is optimized for such
//!   workloads" (§5.2);
//! * **update transactions serialize and double-write** — a writer takes the
//!   single writer lock, persists a redo log (flush per entry + fence),
//!   publishes a commit marker (flush + fence), applies the writes in place
//!   (flush per word + fence) and retires the log — the 2× write
//!   amplification plus serialization that make the PTM lose to NVTraverse
//!   by growing factors as the update percentage rises.
//!
//! Recovery replays a committed-but-unapplied log, giving failure atomicity
//! for whole transactions.
//!
//! [`TmList`] and [`TmBst`] are the set structures built on the PTM for the
//! list and BST figures.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use nvtraverse_pmem::{Backend, PCell, Word};
use parking_lot::Mutex;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum redo-log entries per transaction (set operations write a handful
/// of words; 64 leaves generous headroom).
pub const LOG_CAPACITY: usize = 64;

/// One persistent redo-log slot.
#[repr(C)]
struct LogSlot<B: Backend> {
    addr: PCell<u64, B>,
    value: PCell<u64, B>,
}

/// The persistent transaction engine.
#[repr(C)]
pub struct Ptm<B: Backend> {
    /// Seqlock word: even = stable, odd = update in progress.
    seq: AtomicU64,
    /// Writers serialize (OneFile aggregates writers; the serialization
    /// point is preserved, the mechanism simplified).
    writer: Mutex<()>,
    /// Persistent redo log.
    log: Box<[LogSlot<B>]>,
    /// Persistent number of valid log entries.
    log_len: PCell<u64, B>,
    /// Persistent commit marker: non-zero ⇒ the log must be (re)applied.
    committed: PCell<u64, B>,
    _marker: PhantomData<fn() -> B>,
}

// SAFETY: all mutable state is atomic or guarded by the writer lock.
unsafe impl<B: Backend> Send for Ptm<B> {}
unsafe impl<B: Backend> Sync for Ptm<B> {}

impl<B: Backend> fmt::Debug for Ptm<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ptm")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// A write set collected by an update transaction.
pub struct Tx<'p, B: Backend> {
    ptm: &'p Ptm<B>,
    writes: Vec<(usize, u64)>,
}

impl<B: Backend> fmt::Debug for Tx<'_, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tx")
            .field("writes", &self.writes.len())
            .finish()
    }
}

impl<B: Backend> Tx<'_, B> {
    /// Transactional read: the latest value, including this transaction's
    /// own pending writes (read-your-writes).
    pub fn read<T: Word>(&self, cell: &PCell<T, B>) -> T {
        let addr = cell.addr() as usize;
        for &(a, v) in self.writes.iter().rev() {
            if a == addr {
                return T::from_bits(v);
            }
        }
        cell.load()
    }

    /// Transactional write: buffered in the redo log until commit.
    ///
    /// # Panics
    ///
    /// Panics if the transaction exceeds [`LOG_CAPACITY`] writes.
    pub fn write<T: Word>(&mut self, cell: &PCell<T, B>, value: T) {
        assert!(
            self.writes.len() < LOG_CAPACITY,
            "transaction write set exceeds LOG_CAPACITY"
        );
        self.writes.push((cell.addr() as usize, value.to_bits()));
        let _ = self.ptm; // the lifetime ties writes to this engine
    }
}

impl<B: Backend> Default for Ptm<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Backend> Ptm<B> {
    /// Creates a fresh engine with an empty, persisted log area.
    pub fn new() -> Self {
        let log: Vec<LogSlot<B>> = (0..LOG_CAPACITY)
            .map(|_| LogSlot {
                addr: PCell::new(0),
                value: PCell::new(0),
            })
            .collect();
        let ptm = Ptm {
            seq: AtomicU64::new(0),
            writer: Mutex::new(()),
            log: log.into_boxed_slice(),
            log_len: PCell::new(0),
            committed: PCell::new(0),
            _marker: PhantomData,
        };
        B::flush(ptm.committed.addr());
        B::fence();
        ptm
    }

    /// Runs a read-only transaction. `f` may observe a torn state mid-run
    /// (it is re-executed until it runs entirely between two identical even
    /// seqlock readings), so it must not have side effects.
    pub fn read_txn<R>(&self, f: impl Fn() -> R) -> R {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let r = f();
            if self.seq.load(Ordering::Acquire) == s1 {
                return r;
            }
        }
    }

    /// Runs an update transaction: `f` buffers writes in the [`Tx`]; commit
    /// persists the redo log, marks it committed, applies it in place, and
    /// retires it — each stage fenced, so a crash anywhere yields either the
    /// whole transaction or none of it.
    pub fn update_txn<R>(&self, f: impl FnOnce(&mut Tx<'_, B>) -> R) -> R {
        let _g = self.writer.lock();
        let mut tx = Tx {
            ptm: self,
            writes: Vec::with_capacity(8),
        };
        let r = f(&mut tx);
        if tx.writes.is_empty() {
            return r;
        }
        // Stage 1: persist the redo log.
        for (i, &(addr, value)) in tx.writes.iter().enumerate() {
            self.log[i].addr.store(addr as u64);
            self.log[i].value.store(value);
            B::flush(self.log[i].addr.addr());
            B::flush(self.log[i].value.addr());
        }
        self.log_len.store(tx.writes.len() as u64);
        B::flush(self.log_len.addr());
        B::fence();
        // Stage 2: commit point.
        self.committed.store(1);
        B::flush(self.committed.addr());
        B::fence();
        // Stage 3: apply in place (readers are fenced off by the seqlock).
        self.seq.fetch_add(1, Ordering::AcqRel);
        for &(addr, value) in &tx.writes {
            let cell = unsafe { &*(addr as *const PCell<u64, B>) };
            cell.store(value);
            B::flush(cell.addr());
        }
        B::fence();
        self.seq.fetch_add(1, Ordering::AcqRel);
        // Stage 4: retire the log.
        self.committed.store(0);
        B::flush(self.committed.addr());
        B::fence();
        r
    }

    /// Post-crash recovery: if the commit marker is set, the transaction had
    /// committed but may be partially applied — replay the persisted log.
    pub fn recover(&self) {
        if self.committed.load() == 0 {
            return;
        }
        let n = self.log_len.load() as usize;
        for i in 0..n.min(LOG_CAPACITY) {
            let addr = self.log[i].addr.load();
            let value = self.log[i].value.load();
            let cell = unsafe { &*(addr as *const PCell<u64, B>) };
            cell.store(value);
            B::flush(cell.addr());
        }
        B::fence();
        self.committed.store(0);
        B::flush(self.committed.addr());
        B::fence();
    }
}

// --------------------------------------------------------------------------
// TM-based sorted linked list (the paper's OneFile list baseline).
// --------------------------------------------------------------------------

#[repr(C)]
struct TmNode<K: Word, V: Word, B: Backend> {
    key: PCell<K, B>,
    value: PCell<V, B>,
    next: PCell<*mut TmNode<K, V, B>, B>,
}

/// A sorted-list set whose operations are PTM transactions.
///
/// # Example
///
/// ```
/// use nvtraverse_onefile::TmList;
/// use nvtraverse_pmem::MmapBackend;
///
/// let l: TmList<u64, u64, MmapBackend> = TmList::new();
/// assert!(l.insert(4, 40));
/// assert_eq!(l.get(4), Some(40));
/// assert!(l.remove(4));
/// ```
pub struct TmList<K: Word, V: Word, B: Backend> {
    ptm: Ptm<B>,
    head: *mut TmNode<K, V, B>,
    /// Unlinked nodes parked until drop: optimistic readers may still be
    /// traversing them, and the PTM has no epoch scheme (real OneFile uses
    /// its wait-free reclamation; the graveyard preserves safety at the cost
    /// of reclamation, which is irrelevant to the measured shape).
    graveyard: Mutex<Vec<*mut TmNode<K, V, B>>>,
}

unsafe impl<K: Word, V: Word, B: Backend> Send for TmList<K, V, B> {}
unsafe impl<K: Word, V: Word, B: Backend> Sync for TmList<K, V, B> {}

impl<K, V, B> TmList<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    /// Creates an empty list.
    pub fn new() -> Self {
        let head = Box::into_raw(Box::new(TmNode {
            key: PCell::new(K::from_bits(0)),
            value: PCell::new(V::from_bits(0)),
            next: PCell::new(std::ptr::null_mut()),
        }));
        B::flush_range(head as *const u8, std::mem::size_of::<TmNode<K, V, B>>());
        B::fence();
        TmList {
            ptm: Ptm::new(),
            head,
            graveyard: Mutex::new(Vec::new()),
        }
    }

    /// Find `(pred, curr)` with `curr` the first node with key ≥ `k`,
    /// reading through the transaction.
    fn locate(&self, tx: &Tx<'_, B>, k: K) -> (*mut TmNode<K, V, B>, *mut TmNode<K, V, B>) {
        unsafe {
            let mut pred = self.head;
            let mut curr = tx.read(&(*pred).next);
            while !curr.is_null() && (*curr).key.load() < k {
                pred = curr;
                curr = tx.read(&(*curr).next);
            }
            (pred, curr)
        }
    }

    /// Inserts `key → value`; `false` if present.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.ptm.update_txn(|tx| unsafe {
            let (pred, curr) = self.locate(tx, key);
            if !curr.is_null() && (*curr).key.load() == key {
                return false;
            }
            let node = Box::into_raw(Box::new(TmNode {
                key: PCell::new(key),
                value: PCell::new(value),
                next: PCell::new(curr),
            }));
            B::flush_range(node as *const u8, std::mem::size_of::<TmNode<K, V, B>>());
            tx.write(&(*pred).next, node);
            true
        })
    }

    /// Removes `key`; `false` if absent.
    pub fn remove(&self, key: K) -> bool {
        self.ptm.update_txn(|tx| unsafe {
            let (pred, curr) = self.locate(tx, key);
            if curr.is_null() || (*curr).key.load() != key {
                return false;
            }
            let succ = tx.read(&(*curr).next);
            tx.write(&(*pred).next, succ);
            self.graveyard.lock().push(curr);
            true
        })
    }

    /// Looks up `key` in a read-only transaction.
    pub fn get(&self, key: K) -> Option<V> {
        self.ptm.read_txn(|| unsafe {
            let mut curr = (*self.head).next.load();
            while !curr.is_null() && (*curr).key.load() < key {
                curr = (*curr).next.load();
            }
            if !curr.is_null() && (*curr).key.load() == key {
                Some((*curr).value.load())
            } else {
                None
            }
        })
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Quiescent length.
    pub fn len(&self) -> usize {
        let mut n = 0;
        unsafe {
            let mut c = (*self.head).next.load();
            while !c.is_null() {
                n += 1;
                c = (*c).next.load();
            }
        }
        n
    }

    /// Quiescent emptiness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Post-crash recovery: replay a committed redo log.
    pub fn recover(&self) {
        self.ptm.recover();
    }
}

impl<K, V, B> Default for TmList<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, B> fmt::Debug for TmList<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmList").field("len", &self.len()).finish()
    }
}

impl<K: Word, V: Word, B: Backend> Drop for TmList<K, V, B> {
    fn drop(&mut self) {
        unsafe {
            let mut cur = self.head;
            while !cur.is_null() {
                let nxt = (*cur).next.load();
                drop(Box::from_raw(cur));
                cur = nxt;
            }
            for p in self.graveyard.get_mut().drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

// --------------------------------------------------------------------------
// TM-based internal BST (the paper's OneFile BST baseline).
// --------------------------------------------------------------------------

#[repr(C)]
struct TmBstNode<K: Word, V: Word, B: Backend> {
    key: PCell<K, B>,
    value: PCell<V, B>,
    left: PCell<*mut TmBstNode<K, V, B>, B>,
    right: PCell<*mut TmBstNode<K, V, B>, B>,
}

/// An (internal) BST set whose operations are PTM transactions.
///
/// Because update transactions serialize, the tree logic is sequential —
/// the standard textbook insert/delete — wrapped in failure-atomic
/// transactions: exactly the programming-model win (and performance loss)
/// the paper attributes to PTMs (§1, §5).
pub struct TmBst<K: Word, V: Word, B: Backend> {
    ptm: Ptm<B>,
    root: Box<PCell<*mut TmBstNode<K, V, B>, B>>,
    graveyard: Mutex<Vec<*mut TmBstNode<K, V, B>>>,
}

unsafe impl<K: Word, V: Word, B: Backend> Send for TmBst<K, V, B> {}
unsafe impl<K: Word, V: Word, B: Backend> Sync for TmBst<K, V, B> {}

impl<K, V, B> TmBst<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    /// Creates an empty tree.
    pub fn new() -> Self {
        let root = Box::new(PCell::new(std::ptr::null_mut()));
        B::flush(root.addr());
        B::fence();
        TmBst {
            ptm: Ptm::new(),
            root,
            graveyard: Mutex::new(Vec::new()),
        }
    }

    /// Inserts `key → value`; `false` if present.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.ptm.update_txn(|tx| unsafe {
            // Descend to the attachment cell.
            let mut cell: &PCell<*mut TmBstNode<K, V, B>, B> = &self.root;
            loop {
                let node = tx.read(cell);
                if node.is_null() {
                    break;
                }
                let nk = (*node).key.load();
                if key == nk {
                    return false;
                }
                cell = if key < nk { &(*node).left } else { &(*node).right };
            }
            let node = Box::into_raw(Box::new(TmBstNode {
                key: PCell::new(key),
                value: PCell::new(value),
                left: PCell::new(std::ptr::null_mut()),
                right: PCell::new(std::ptr::null_mut()),
            }));
            B::flush_range(node as *const u8, std::mem::size_of::<TmBstNode<K, V, B>>());
            tx.write(cell, node);
            true
        })
    }

    /// Removes `key`; `false` if absent.
    pub fn remove(&self, key: K) -> bool {
        self.ptm.update_txn(|tx| unsafe {
            let mut cell: &PCell<*mut TmBstNode<K, V, B>, B> = &self.root;
            let mut node = tx.read(cell);
            while !node.is_null() {
                let nk = (*node).key.load();
                if key == nk {
                    break;
                }
                cell = if key < nk { &(*node).left } else { &(*node).right };
                node = tx.read(cell);
            }
            if node.is_null() {
                return false;
            }
            let left = tx.read(&(*node).left);
            let right = tx.read(&(*node).right);
            if left.is_null() {
                tx.write(cell, right);
            } else if right.is_null() {
                tx.write(cell, left);
            } else {
                // Two children: splice the in-order successor up.
                let mut scell = &(*node).right;
                let mut succ = tx.read(scell);
                while !tx.read(&(*succ).left).is_null() {
                    scell = &(*succ).left;
                    succ = tx.read(scell);
                }
                let succ_right = tx.read(&(*succ).right);
                if succ == right {
                    // succ is node's direct right child: keep its right.
                    tx.write(&(*succ).left, left);
                } else {
                    tx.write(scell, succ_right);
                    tx.write(&(*succ).left, left);
                    tx.write(&(*succ).right, right);
                }
                tx.write(cell, succ);
            }
            self.graveyard.lock().push(node);
            true
        })
    }

    /// Looks up `key` in a read-only transaction.
    pub fn get(&self, key: K) -> Option<V> {
        self.ptm.read_txn(|| unsafe {
            let mut node = self.root.load();
            // Bound the walk: a torn read could in principle follow a stale
            // shape; the seqlock re-validation rejects the result anyway.
            let mut budget = 1_000_000;
            while !node.is_null() && budget > 0 {
                let nk = (*node).key.load();
                if key == nk {
                    return Some((*node).value.load());
                }
                node = if key < nk {
                    (*node).left.load()
                } else {
                    (*node).right.load()
                };
                budget -= 1;
            }
            None
        })
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Quiescent: number of keys.
    pub fn len(&self) -> usize {
        fn count<K: Word, V: Word, B: Backend>(n: *mut TmBstNode<K, V, B>) -> usize {
            if n.is_null() {
                0
            } else {
                unsafe { 1 + count((*n).left.load()) + count((*n).right.load()) }
            }
        }
        count(self.root.load())
    }

    /// Quiescent emptiness.
    pub fn is_empty(&self) -> bool {
        self.root.load().is_null()
    }

    /// Post-crash recovery: replay a committed redo log.
    pub fn recover(&self) {
        self.ptm.recover();
    }
}

impl<K, V, B> Default for TmBst<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, B> fmt::Debug for TmBst<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmBst").field("len", &self.len()).finish()
    }
}

impl<K: Word, V: Word, B: Backend> Drop for TmBst<K, V, B> {
    fn drop(&mut self) {
        fn drop_rec<K: Word, V: Word, B: Backend>(n: *mut TmBstNode<K, V, B>) {
            if !n.is_null() {
                unsafe {
                    drop_rec((*n).left.load());
                    drop_rec((*n).right.load());
                    drop(Box::from_raw(n));
                }
            }
        }
        drop_rec(self.root.load());
        for p in self.graveyard.get_mut().drain(..) {
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

impl<K, V, B> nvtraverse::DurableSet<K, V> for TmList<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    fn insert(&self, key: K, value: V) -> bool {
        TmList::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        TmList::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        TmList::get(self, key)
    }
    fn len(&self) -> usize {
        TmList::len(self)
    }
    fn recover(&self) {
        TmList::recover(self);
    }
}

impl<K, V, B> nvtraverse::DurableSet<K, V> for TmBst<K, V, B>
where
    K: Word + Ord,
    V: Word,
    B: Backend,
{
    fn insert(&self, key: K, value: V) -> bool {
        TmBst::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        TmBst::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        TmBst::get(self, key)
    }
    fn len(&self) -> usize {
        TmBst::len(self)
    }
    fn recover(&self) {
        TmBst::recover(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse_pmem::{MmapBackend, Noop};

    #[test]
    fn ptm_read_your_writes() {
        let ptm: Ptm<Noop> = Ptm::new();
        let cell: PCell<u64, Noop> = PCell::new(1);
        ptm.update_txn(|tx| {
            tx.write(&cell, 2);
            assert_eq!(tx.read(&cell), 2, "must see own pending write");
            assert_eq!(cell.load(), 1, "must not write through before commit");
        });
        assert_eq!(cell.load(), 2, "commit must apply");
    }

    #[test]
    fn ptm_empty_txn_commits_nothing() {
        let ptm: Ptm<Noop> = Ptm::new();
        let before = ptm.seq.load(Ordering::Relaxed);
        ptm.update_txn(|_tx| ());
        assert_eq!(ptm.seq.load(Ordering::Relaxed), before);
    }

    #[test]
    fn ptm_last_write_wins_within_txn() {
        let ptm: Ptm<Noop> = Ptm::new();
        let cell: PCell<u64, Noop> = PCell::new(0);
        ptm.update_txn(|tx| {
            tx.write(&cell, 1);
            tx.write(&cell, 2);
            assert_eq!(tx.read(&cell), 2);
        });
        assert_eq!(cell.load(), 2);
    }

    #[test]
    fn ptm_recovery_replays_committed_log() {
        let ptm: Ptm<Noop> = Ptm::new();
        let cell: Box<PCell<u64, Noop>> = Box::new(PCell::new(1));
        // Fabricate "crashed after commit, before apply": log says cell = 9.
        ptm.log[0].addr.store(cell.addr() as u64);
        ptm.log[0].value.store(9);
        ptm.log_len.store(1);
        ptm.committed.store(1);
        ptm.recover();
        assert_eq!(cell.load(), 9);
        assert_eq!(ptm.committed.load(), 0);
    }

    #[test]
    fn ptm_recovery_without_commit_is_noop() {
        let ptm: Ptm<Noop> = Ptm::new();
        let cell: Box<PCell<u64, Noop>> = Box::new(PCell::new(1));
        ptm.log[0].addr.store(cell.addr() as u64);
        ptm.log[0].value.store(9);
        ptm.log_len.store(1);
        // committed == 0: the transaction never reached its commit point.
        ptm.recover();
        assert_eq!(cell.load(), 1);
    }

    #[test]
    fn list_semantics() {
        let l: TmList<u64, u64, MmapBackend> = TmList::new();
        assert!(l.insert(2, 20));
        assert!(l.insert(1, 10));
        assert!(!l.insert(2, 99));
        assert_eq!(l.get(2), Some(20));
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn list_matches_reference_model() {
        use rand::prelude::*;
        use std::collections::BTreeMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let l: TmList<u64, u64, Noop> = TmList::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..2000u64 {
            let k = rng.random_range(0..64);
            match rng.random_range(0..3) {
                0 => {
                    let fresh = !model.contains_key(&k);
                    assert_eq!(l.insert(k, i), fresh, "insert({k})");
                    if fresh {
                        model.insert(k, i);
                    }
                }
                1 => assert_eq!(l.remove(k), model.remove(&k).is_some(), "remove({k})"),
                _ => assert_eq!(l.get(k), model.get(&k).copied(), "get({k})"),
            }
        }
        assert_eq!(l.len(), model.len());
    }

    #[test]
    fn bst_semantics() {
        let t: TmBst<u64, u64, MmapBackend> = TmBst::new();
        for k in [50u64, 30, 70, 20, 40, 60, 80] {
            assert!(t.insert(k, k));
        }
        assert!(!t.insert(50, 1));
        assert_eq!(t.len(), 7);
        // Remove leaf, one-child, two-child, and root cases.
        assert!(t.remove(20)); // leaf
        assert!(t.remove(30)); // one child
        assert!(t.remove(50)); // root with two children
        assert!(!t.remove(50));
        for k in [40u64, 60, 70, 80] {
            assert_eq!(t.get(k), Some(k), "get({k})");
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn bst_two_child_removal_when_successor_is_direct_child() {
        let t: TmBst<u64, u64, Noop> = TmBst::new();
        for k in [10u64, 5, 20, 25] {
            t.insert(k, k);
        }
        assert!(t.remove(10)); // successor (20) is 10's direct right child
        for k in [5u64, 20, 25] {
            assert_eq!(t.get(k), Some(k));
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn bst_matches_reference_model() {
        use rand::prelude::*;
        use std::collections::BTreeMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let t: TmBst<u64, u64, Noop> = TmBst::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..3000u64 {
            let k = rng.random_range(0..128);
            match rng.random_range(0..3) {
                0 => {
                    let fresh = !model.contains_key(&k);
                    assert_eq!(t.insert(k, i), fresh, "insert({k})");
                    if fresh {
                        model.insert(k, i);
                    }
                }
                1 => assert_eq!(t.remove(k), model.remove(&k).is_some(), "remove({k})"),
                _ => assert_eq!(t.get(k), model.get(&k).copied(), "get({k})"),
            }
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let l: std::sync::Arc<TmList<u64, u64, MmapBackend>> = std::sync::Arc::new(TmList::new());
        for k in 0..100u64 {
            l.insert(k * 2, k);
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                let l = std::sync::Arc::clone(&l);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let _ = l.get(i % 200);
                    }
                });
            }
            for t in 0..2u64 {
                let l = std::sync::Arc::clone(&l);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = 1000 + t * 1000 + i;
                        assert!(l.insert(k, i));
                        assert!(l.remove(k));
                    }
                });
            }
        });
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn bst_concurrent_smoke() {
        let t: std::sync::Arc<TmBst<u64, u64, MmapBackend>> = std::sync::Arc::new(TmBst::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    let base = tid * 250;
                    for k in base..base + 250 {
                        assert!(t.insert(k, k));
                    }
                    for k in (base..base + 250).step_by(2) {
                        assert!(t.remove(k));
                    }
                });
            }
        });
        assert_eq!(t.len(), 500);
    }
}
