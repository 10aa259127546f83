//! SOFT hash table: a fixed array of [`SoftList`] buckets.
//!
//! Same shape as [`crate::hash::HashMapDs`] (David et al.'s per-bucket
//! Harris lists, Fibonacci-mix + modulo bucket choice), but each bucket is
//! the minimal-flush SOFT list: volatile links, one validity flush per
//! update, recovery that rebuilds every bucket chain from the sealed nodes.
//! The bucket-head *table* is persistent (`[n, head_off…]`, flushed once at
//! construction, exactly like the NVTraverse table) — only the node links
//! inside the buckets are volatile.
//!
//! Attach cost note: because links are volatile, re-attaching after a
//! restart takes **one** pass over the pool's allocated blocks (shared by
//! all buckets), distributing each sealed node to the bucket its `owner`
//! word names; see [`crate::soft_list`] for the node-level contract.

use crate::soft_list::{HdrProbe, SoftList, SoftNode};
use nvtraverse::alloc::PoolCtx;
use nvtraverse::detect::OpError;
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach};
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::{Backend, MmapBackend, Word};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;

/// A fixed-capacity lock-free hash map with per-bucket SOFT lists.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::Soft;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::MmapBackend;
/// use nvtraverse_structures::soft_hash::SoftHash;
///
/// let map: SoftHash<u64, u64, Soft<MmapBackend>> = SoftHash::new(64);
/// assert!(map.insert(17, 1700));
/// assert_eq!(map.get(17), Some(1700));
/// ```
pub struct SoftHash<K: Word + Ord, V: Word, D: Durability> {
    buckets: Box<[SoftList<K, V, D>]>,
    collector: Collector,
}

impl<K, V, D> SoftHash<K, V, D>
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
        let buckets: Vec<SoftList<K, V, D>> = (0..n)
            .map(|_| SoftList::with_collector(collector.clone()))
            .collect();
        SoftHash {
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
    /// with the paper's general *modulo* (same choice as `HashMapDs`).
    #[inline]
    fn bucket(&self, key: K) -> &SoftList<K, V, D> {
        let mixed = key.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.buckets[(mixed % self.buckets.len() as u64) as usize]
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

    /// Bucket count used by [`PoolAttach::create_in_pool`].
    pub const DEFAULT_POOL_BUCKETS: usize = 64;

    /// Builds a fresh table of `buckets` buckets whose nodes — and whose
    /// bucket-head table — all live in `pool`, registered under `name`.
    /// Persistent form: the same `[bucket_count, head_off…]` table block as
    /// [`crate::hash::HashMapDs::create_in_pool_with_buckets`].
    ///
    /// # Errors
    ///
    /// Fails when the pool is exhausted or the root registry rejects `name`.
    pub fn create_in_pool_with_buckets(
        pool: &Pool,
        name: &str,
        buckets: usize,
    ) -> io::Result<Self> {
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

impl<K, V, D> DurableSet<K, V> for SoftHash<K, V, D>
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

    /// Recovery rebuilds each bucket's chain from its sealed nodes. The
    /// bucket array itself is immutable and was persisted at construction.
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
}

impl<K, V, D> PoolAttach for SoftHash<K, V, D>
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
        let _scope = PoolCtx::of(pool).enter();
        let collector = Collector::new();
        let mut heads: Vec<(u64, usize)> = Vec::with_capacity(n); // (head addr, bucket idx)
        let buckets: Vec<SoftList<K, V, D>> = (0..n)
            .map(|i| {
                // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
                let head_off = unsafe { table.add(1 + i).read() };
                let head = pool.at(head_off) as *mut SoftNode<K, V, D::B>;
                heads.push((head as u64, i));
                // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
                unsafe { SoftList::attach_at(head, collector.clone()) }
            })
            .collect();
        // One shared inventory pass: hand every sealed node to the bucket
        // its `owner` word names (the bucket lists were attached with empty
        // registries).
        heads.sort_unstable();
        let node_size = std::mem::size_of::<SoftNode<K, V, D::B>>() as u64;
        for (off, cap) in pool.live_payloads().ok()? {
            if cap < node_size {
                continue;
            }
            let p = pool.at(off) as *mut SoftNode<K, V, D::B>;
            if heads.binary_search_by_key(&(p as u64), |h| h.0).is_ok() {
                continue; // a bucket head itself
            }
            // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
            match unsafe { crate::soft_list::probe_header(p) } {
                HdrProbe::Live { owner, seq, .. } => {
                    if let Ok(i) = heads.binary_search_by_key(&owner, |h| h.0) {
                        buckets[heads[i].1].register(p);
                        buckets[heads[i].1].note_seq(seq);
                    }
                }
                // Durably removed but not yet reused: keep the owning
                // bucket's seq counter ahead of it.
                HdrProbe::Tomb { owner, seq } => {
                    if let Ok(i) = heads.binary_search_by_key(&owner, |h| h.0) {
                        buckets[heads[i].1].note_seq(seq);
                    }
                }
                HdrProbe::Invalid => {}
            }
        }
        Some(SoftHash {
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
}

// SAFETY: the root is the persistent bucket table `[n, head_off…]`; SOFT
// reachability is header-proved, not link-based, so after marking the table
// and every bucket head the walk makes one pass over the heap's allocated
// blocks keeping each sealed node owned by any of the heads — linked or not
// (the recovery-rebuild contract of `soft_list`). Offsets are validated by
// `Marker::at` before dereference.
// SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
unsafe impl<K, V, D> nvtraverse::PoolTrace for SoftHash<K, V, D>
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
            let mut heads = Vec::with_capacity(n);
            for i in 0..n {
                let head_off = table.add(1 + i).read();
                if let Some(head) = marker.at(head_off) {
                    marker.mark(head);
                    heads.push(head as u64);
                }
            }
            crate::soft_list::soft_mark_owned::<K, V, D::B>(marker, &heads);
        }
    }
}

impl<K, V, D> fmt::Debug for SoftHash<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftHash")
            .field("buckets", &self.buckets.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Soft, Volatile};
    use nvtraverse_pmem::{MmapBackend, Noop, Sim, SimHandle};

    #[test]
    fn basic_semantics() {
        let m: SoftHash<u64, u64, Soft<MmapBackend>> = SoftHash::new(16);
        assert!(m.insert(1, 10));
        assert!(m.insert(17, 170));
        assert!(!m.insert(1, 11));
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(17), Some(170));
        assert!(m.remove(1));
        assert_eq!(m.get(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_bucket_request_is_clamped() {
        let m: SoftHash<u64, u64, Volatile> = SoftHash::new(0);
        assert_eq!(m.bucket_count(), 1);
        assert!(m.insert(5, 50));
    }

    #[test]
    fn matches_model_on_random_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let m: SoftHash<u64, u64, Soft<Noop>> = SoftHash::new(8);
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
        let m: SoftHash<u64, u64, Soft<MmapBackend>> = SoftHash::new(32);
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
    fn recovery_rebuilds_every_bucket() {
        let sim = SimHandle::new();
        let guard = sim.enter();
        let m: SoftHash<u64, u64, Soft<Sim>> = SoftHash::with_collector(4, Collector::leaking());
        for k in 0..40u64 {
            assert!(m.insert(k, k * 3));
        }
        for k in (0..40u64).step_by(4) {
            assert!(m.remove(k));
        }
        unsafe { sim.crash_and_rollback() };
        m.recover();
        assert_eq!(m.check_consistency(false).unwrap(), 30);
        let mut got = m.iter_snapshot();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..40u64).filter(|k| k % 4 != 0).map(|k| (k, k * 3)).collect();
        assert_eq!(got, want);
        drop(m);
        drop(guard);
    }
}
