//! Lock-free hash table: a fixed array of Harris-list buckets.
//!
//! This mirrors the hash table the paper evaluates — "a hash table
//! implemented by David et al. based on Harris's linked-list" (§5) — and the
//! paper's own NVTraverse version, which computes the bucket with a *modulo*
//! rather than a power-of-two bit-mask (§5.3: "This is faster than modulo, a
//! more general function that we use").
//!
//! As a traversal data structure, the table's core is a shallow forest: the
//! bucket array is allocated and persisted once at construction (it is part
//! of the root), and each bucket's sentinel head anchors an independent
//! sorted list. `findEntry` hashes the key to pick the bucket head — a
//! genuine use of the paper's entry-point flexibility (§3: `findEntry`
//! "outputs an entry point into the core tree").

use crate::list::HarrisList;
use nvtraverse::alloc::PoolCtx;
use nvtraverse::detect::{OpError, OpToken};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach};
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::{Backend, MmapBackend, Word};
use nvtraverse_pool::{OpId, OpOutcome, Pool, RawOp};
use std::fmt;
use std::io;

/// A fixed-capacity lock-free hash map with per-bucket Harris lists.
///
/// Named `HashMapDs` ("data structure") to avoid colliding with
/// `std::collections::HashMap` in user code.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::MmapBackend;
/// use nvtraverse_structures::hash::HashMapDs;
///
/// let map: HashMapDs<u64, u64, NvTraverse<MmapBackend>> = HashMapDs::new(64);
/// assert!(map.insert(17, 1700));
/// assert_eq!(map.get(17), Some(1700));
/// ```
pub struct HashMapDs<K: Word + Ord, V: Word, D: Durability> {
    buckets: Box<[HarrisList<K, V, D>]>,
    collector: Collector,
}

impl<K, V, D> HashMapDs<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates a table with `buckets` fixed buckets (rounded up to 1).
    pub fn new(buckets: usize) -> Self {
        Self::with_collector(buckets, Collector::new())
    }

    /// Creates a table whose bucket lists share `collector`.
    pub fn with_collector(buckets: usize, collector: Collector) -> Self {
        let n = buckets.max(1);
        let buckets: Vec<HarrisList<K, V, D>> = (0..n)
            .map(|_| HarrisList::with_collector(collector.clone()))
            .collect();
        HashMapDs {
            buckets: buckets.into_boxed_slice(),
            collector,
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The shared collector.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// `findEntry` for the table: Fibonacci-mix the key bits, then reduce
    /// with the paper's general *modulo*.
    #[inline]
    fn bucket(&self, key: K) -> &HarrisList<K, V, D> {
        self.bucket_for_bits(key.to_bits())
    }

    /// Same bucket choice keyed by raw key bits — recovery classification
    /// only has the descriptor's `key` word, not a `K`.
    #[inline]
    fn bucket_for_bits(&self, key_bits: u64) -> &HarrisList<K, V, D> {
        let mixed = key_bits.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.buckets[(mixed % self.buckets.len() as u64) as usize]
    }

    /// Classifies a recovered operation descriptor against this table's
    /// recovered state by delegating to the owning bucket's
    /// [`HarrisList::classify_op`]. Quiescent; call after
    /// [`recover`](DurableSet::recover). The bucket count must match the
    /// one the descriptor was written under (it is fixed at construction
    /// and persisted in the root table, so a pooled reopen always agrees).
    pub fn classify_op(&self, raw: &RawOp) -> OpOutcome {
        self.bucket_for_bits(raw.key).classify_op(raw)
    }

    /// Quiescent: verifies every bucket's invariants, returning total live
    /// nodes.
    ///
    /// # Errors
    ///
    /// Propagates the first bucket violation, tagged with its index.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        let mut total = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            total += b
                .check_consistency(allow_marked)
                .map_err(|e| format!("bucket {i}: {e}"))?;
        }
        Ok(total)
    }

    /// Quiescent: all `(key, value)` pairs, unordered across buckets.
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter_snapshot())
            .collect()
    }

    /// Bucket count used by [`PoolAttach::create_in_pool`]; pick a custom
    /// count with [`HashMapDs::create_in_pool_with_buckets`].
    pub const DEFAULT_POOL_BUCKETS: usize = 64;

    /// Builds a fresh table of `buckets` buckets whose nodes — and whose
    /// bucket-head table — all live in `pool`, registered under `name`.
    ///
    /// The persistent form is a *bucket table* block
    /// `[bucket_count, head_off 0, …, head_off n-1]` registered as the root:
    /// the `Box<[HarrisList]>` handle is volatile and rebuilt from that
    /// table on every attach.
    ///
    /// # Errors
    ///
    /// Fails when the pool is exhausted or the root registry rejects `name`.
    pub fn create_in_pool_with_buckets(
        pool: &Pool,
        name: &str,
        buckets: usize,
    ) -> io::Result<Self> {
        // Entered so every bucket list's context snapshot captures this
        // pool (the table block itself is allocated via `pool.alloc`).
        let _scope = PoolCtx::of(pool).enter();
        let map = Self::with_collector(buckets, Collector::new());
        let n = map.bucket_count();
        let table = pool
            .alloc((n + 1) * 8, 8)
            .ok_or_else(|| io::Error::other("pool exhausted"))?
            as *mut u64;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            table.write(n as u64);
            for (i, b) in map.buckets.iter().enumerate() {
                let head = b.head_ptr() as *const u8;
                assert!(
                    pool.contains(head),
                    "bucket head not allocated from this pool — was another pool installed?"
                );
                table.add(1 + i).write(pool.offset_of(head));
            }
        }
        MmapBackend::flush_range(table as *const u8, (n + 1) * 8);
        MmapBackend::fence();
        pool.set_root_ptr_checked(name, table)?;
        Ok(map)
    }
}

impl<K, V, D> DurableSet<K, V> for HashMapDs<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn insert(&self, key: K, value: V) -> bool {
        self.bucket(key).insert(key, value)
    }

    fn remove(&self, key: K) -> bool {
        self.bucket(key).remove(key)
    }

    fn get(&self, key: K) -> Option<V> {
        self.bucket(key).get(key)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Recovery runs each bucket's `disconnect` pass. The bucket array itself
    /// is immutable and was persisted at construction.
    fn recover(&self) {
        for b in self.buckets.iter() {
            b.recover();
        }
    }

    fn try_insert(&self, key: K, value: V) -> Result<bool, OpError> {
        self.bucket(key).try_insert(key, value)
    }

    fn try_remove(&self, key: K) -> Result<bool, OpError> {
        self.bucket(key).try_remove(key)
    }

    fn insert_detectable(
        &self,
        token: &mut OpToken,
        key: K,
        value: V,
    ) -> Result<(OpId, bool), OpError> {
        self.bucket(key).insert_detectable(token, key, value)
    }

    fn remove_detectable(&self, token: &mut OpToken, key: K) -> Result<(OpId, bool), OpError> {
        self.bucket(key).remove_detectable(token, key)
    }
}

impl<K, V, D> PoolAttach for HashMapDs<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        Self::create_in_pool_with_buckets(pool, name, Self::DEFAULT_POOL_BUCKETS)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let table = pool.attach_root_ptr::<u64>(name)? as *const u64;
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        let n = unsafe { table.read() } as usize;
        if n == 0 || n > 1 << 24 {
            return None; // not a plausible bucket table
        }
        // Entered so every bucket list's context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        let collector = Collector::new();
        let buckets: Vec<HarrisList<K, V, D>> = (0..n)
            .map(|i| {
                // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
                let head_off = unsafe { table.add(1 + i).read() };
                let head = pool.at(head_off) as *mut crate::list::Node<K, V, D::B>;
                // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
                unsafe { HarrisList::attach_at(head, collector.clone()) }
            })
            .collect();
        Some(HashMapDs {
            buckets: buckets.into_boxed_slice(),
            collector,
        })
    }

    fn recover_attached(&self) {
        self.recover();
    }

    fn collector_of(&self) -> &Collector {
        &self.collector
    }

    fn resolve_detectable(&self, pool: &Pool) {
        for raw in pool.unresolved_ops() {
            pool.resolve_op(raw.id(), self.classify_op(&raw));
        }
    }
}

// SAFETY: the root is the persistent bucket table `[n, head_off…]`; marking
// it and then delegating each bucket head to the Harris list's walk covers
// every block the table's recovery (per-bucket `disconnect`) can reach.
// Bucket offsets are validated by `Marker::at` before dereference.
// SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
unsafe impl<K, V, D> nvtraverse::PoolTrace for HashMapDs<K, V, D>
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
            let table = root as *const u64;
            let n = table.read() as usize;
            if n == 0 || n > 1 << 24 {
                return; // not a plausible bucket table (attach rejects too)
            }
            for i in 0..n {
                let head_off = table.add(1 + i).read();
                if let Some(head) = marker.at(head_off) {
                    <HarrisList<K, V, D> as nvtraverse::PoolTrace>::trace(head, marker);
                }
            }
        }
    }
}

impl<K, V, D> fmt::Debug for HashMapDs<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HashMapDs")
            .field("buckets", &self.buckets.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{NvTraverse, Volatile};
    use nvtraverse_pmem::{MmapBackend, Noop};

    #[test]
    fn basic_semantics() {
        let m: HashMapDs<u64, u64, NvTraverse<MmapBackend>> = HashMapDs::new(16);
        assert!(m.insert(1, 10));
        assert!(m.insert(17, 170)); // likely different bucket
        assert!(!m.insert(1, 11));
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(17), Some(170));
        assert!(m.remove(1));
        assert_eq!(m.get(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn single_bucket_degenerates_to_list() {
        let m: HashMapDs<u64, u64, Volatile> = HashMapDs::new(1);
        for k in 0..100u64 {
            assert!(m.insert(k, k));
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.check_consistency(true).unwrap(), 100);
    }

    #[test]
    fn zero_bucket_request_is_clamped() {
        let m: HashMapDs<u64, u64, Volatile> = HashMapDs::new(0);
        assert_eq!(m.bucket_count(), 1);
        assert!(m.insert(5, 50));
    }

    #[test]
    fn matches_model_on_random_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let m: HashMapDs<u64, u64, NvTraverse<Noop>> = HashMapDs::new(8);
        let mut model = ModelSet::new();
        for i in 0..4000u64 {
            let k = rng.random_range(0..256);
            match rng.random_range(0..3) {
                0 => assert_eq!(m.insert(k, i), model.insert(k, i)),
                1 => assert_eq!(m.remove(k), model.remove(k)),
                _ => assert_eq!(m.get(k), model.get(k)),
            }
        }
        assert_eq!(m.len(), model.len());
        let mut got = m.iter_snapshot();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = model.iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_stress_across_buckets() {
        let m: HashMapDs<u64, u64, NvTraverse<MmapBackend>> = HashMapDs::new(32);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    let base = t * 1000;
                    for k in base..base + 1000 {
                        assert!(m.insert(k, k));
                    }
                    for k in (base..base + 1000).step_by(2) {
                        assert!(m.remove(k));
                    }
                });
            }
        });
        assert_eq!(m.check_consistency(true).unwrap(), 2000);
    }

    #[test]
    fn recovery_recurses_into_buckets() {
        let m: HashMapDs<u64, u64, NvTraverse<Noop>> = HashMapDs::new(4);
        for k in 0..20u64 {
            m.insert(k, k);
        }
        m.recover();
        assert_eq!(m.check_consistency(false).unwrap(), 20);
    }

    #[test]
    fn detectable_ops_route_to_buckets() {
        use nvtraverse::detect::OpTable;

        let m: HashMapDs<u64, u64, NvTraverse<Noop>> = HashMapDs::new(8);
        let table: OpTable<Noop> = OpTable::new(2);
        let mut tok = table.token(0);
        for k in 0..32u64 {
            let (id, fresh) = m.insert_detectable(&mut tok, k, k * 10).unwrap();
            assert!(fresh);
            let raw = table.raw(0).unwrap();
            assert_eq!(raw.id(), id);
            assert_eq!(m.classify_op(&raw), OpOutcome::Committed);
        }
        let (_, removed) = m.remove_detectable(&mut tok, 5).unwrap();
        assert!(removed);
        assert_eq!(m.classify_op(&table.raw(0).unwrap()), OpOutcome::Committed);
        let (_, removed) = m.remove_detectable(&mut tok, 5).unwrap();
        assert!(!removed, "second remove of the same key is a no-op");
        assert_eq!(m.classify_op(&table.raw(0).unwrap()), OpOutcome::NotApplied);
        assert_eq!(m.len(), 31);
    }

    #[test]
    fn buckets_share_one_collector() {
        let m: HashMapDs<u64, u64, Volatile> = HashMapDs::new(4);
        // All buckets retire into the same collector instance.
        let epoch_before = m.collector().epoch();
        for k in 0..50u64 {
            m.insert(k, k);
            m.remove(k);
        }
        m.collector().synchronize();
        assert!(m.collector().epoch() > epoch_before);
    }
}
