//! The served store: a [`ShardedSet`] under one of the two durable
//! policies, behind one non-generic façade.
//!
//! The server is policy-agnostic at the protocol level — the same wire
//! operations run against the NVTraverse transformation or the SOFT
//! minimal-flush tier. [`StoreOps`] is that operation surface, implemented
//! once for every `ShardedSet` of a durable `u64 → u64` shard structure;
//! [`KvStore`] holds it as a trait object, so the shard type is chosen
//! exactly once, in [`KvStore::create`] or [`KvStore::open`]. The policy is
//! stamped into a `policy.kind` file next to the shard manifest before any
//! shard exists. A restart reads that file back: [`KvStore::open`] always
//! reopens with the policy the data was written under (the two layouts are
//! not interchangeable on disk).

use nvtraverse::detect::OpError;
use nvtraverse::policy::{NvTraverse, Soft};
use nvtraverse::{DurableSet, PoolTrace};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_pool::{OpId, OpOutcome, RecoveryReport};
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::sharded::{ShardTokens, ShardedSet};
use nvtraverse_structures::soft_hash::SoftHash;
use std::fmt;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// The store under the NVTraverse policy.
type NvtSet = ShardedSet<HashMapDs<u64, u64, NvTraverse<MmapBackend>>>;
/// The store under the SOFT policy.
type SoftSet = ShardedSet<SoftHash<u64, u64, Soft<MmapBackend>>>;

/// Which durability policy a store runs (and persists) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's transformation over pool-backed hash maps.
    NvTraverse,
    /// SOFT minimal-flush sets (one flush per update, volatile links).
    Soft,
}

impl PolicyKind {
    /// Stable name, used on disk (`policy.kind`) and in STATS/figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::NvTraverse => "nvt",
            PolicyKind::Soft => "soft",
        }
    }

    /// Parses [`PolicyKind::name`] back.
    pub fn from_name(s: &str) -> Option<PolicyKind> {
        match s {
            "nvt" => Some(PolicyKind::NvTraverse),
            "soft" => Some(PolicyKind::Soft),
            _ => None,
        }
    }
}

fn policy_file(dir: &Path) -> PathBuf {
    dir.join("policy.kind")
}

fn read_policy(dir: &Path) -> io::Result<PolicyKind> {
    let text = std::fs::read_to_string(policy_file(dir)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: cannot read policy.kind ({e}) — not a KV store directory",
                dir.display()
            ),
        )
    })?;
    PolicyKind::from_name(text.trim()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: unknown policy {text:?} in policy.kind", dir.display()),
        )
    })
}

/// The store operations over one logical durable set of N shard pools,
/// implemented once for every [`ShardedSet`] of durable `u64 → u64`
/// shards. [`KvStore`] derefs to it, so `store.get(k)` needs no import.
pub trait StoreOps: fmt::Debug + Send + Sync {
    /// Number of shard pools.
    fn shard_count(&self) -> usize;

    /// Which shard `key` routes to.
    fn shard_index_of(&self, key: u64) -> usize;

    /// Total keys across shards (quiescent-accurate, like every `len`).
    fn len(&self) -> usize;

    /// Whether the store holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`.
    fn get(&self, key: u64) -> Option<u64>;

    /// Inserts `key → value`; an exhausted shard pool is
    /// [`OpError::PoolFull`], not a panic.
    fn try_insert(&self, key: u64, value: u64) -> Result<bool, OpError>;

    /// Removes `key`.
    fn try_remove(&self, key: u64) -> Result<bool, OpError>;

    /// [`ShardedSet::detectable_tokens`]; a server claims through
    /// [`KvStore::detectable_tokens`] instead.
    fn detectable_tokens(&self) -> io::Result<ShardTokens>;

    /// [`ShardedSet::insert_detectable`]: [`OpError::Unsupported`] under
    /// SOFT.
    fn insert_detectable(
        &self,
        tokens: &mut ShardTokens,
        key: u64,
        value: u64,
    ) -> Result<(OpId, bool), OpError>;

    /// [`ShardedSet::remove_detectable`]: [`OpError::Unsupported`] under
    /// SOFT.
    fn remove_detectable(
        &self,
        tokens: &mut ShardTokens,
        key: u64,
    ) -> Result<(OpId, bool), OpError>;

    /// Classifies a detectable op against shard `shard`'s open-time
    /// descriptor table; `None` when the shard index is out of range or
    /// the pool can't answer.
    fn op_outcome(&self, shard: usize, id: OpId) -> Option<OpOutcome>;

    /// All shards' pool metrics merged.
    fn metrics_snapshot(&self) -> nvtraverse_obs::Snapshot;

    /// One recovery report per shard, from the last open.
    fn recovery_reports(&self) -> Vec<RecoveryReport>;

    /// Flushes every shard to its file and detaches; the first shard
    /// close failure is returned (the rest still close).
    fn close(self: Box<Self>) -> io::Result<()>;
}

impl<S> StoreOps for ShardedSet<S>
where
    S: PoolTrace + DurableSet<u64, u64> + Send + Sync,
{
    fn shard_count(&self) -> usize {
        ShardedSet::shard_count(self)
    }

    fn shard_index_of(&self, key: u64) -> usize {
        ShardedSet::shard_index_of(self, key)
    }

    fn len(&self) -> usize {
        DurableSet::len(self)
    }

    fn get(&self, key: u64) -> Option<u64> {
        DurableSet::get(self, key)
    }

    fn try_insert(&self, key: u64, value: u64) -> Result<bool, OpError> {
        DurableSet::try_insert(self, key, value)
    }

    fn try_remove(&self, key: u64) -> Result<bool, OpError> {
        DurableSet::try_remove(self, key)
    }

    fn detectable_tokens(&self) -> io::Result<ShardTokens> {
        ShardedSet::detectable_tokens(self)
    }

    fn insert_detectable(
        &self,
        tokens: &mut ShardTokens,
        key: u64,
        value: u64,
    ) -> Result<(OpId, bool), OpError> {
        ShardedSet::insert_detectable(self, tokens, key, value)
    }

    fn remove_detectable(
        &self,
        tokens: &mut ShardTokens,
        key: u64,
    ) -> Result<(OpId, bool), OpError> {
        ShardedSet::remove_detectable(self, tokens, key)
    }

    fn op_outcome(&self, shard: usize, id: OpId) -> Option<OpOutcome> {
        self.shards().nth(shard)?.pool().op_outcome(id)
    }

    fn metrics_snapshot(&self) -> nvtraverse_obs::Snapshot {
        ShardedSet::metrics_snapshot(self)
    }

    fn recovery_reports(&self) -> Vec<RecoveryReport> {
        ShardedSet::recovery_reports(self)
    }

    fn close(self: Box<Self>) -> io::Result<()> {
        ShardedSet::close(*self)
    }
}

/// The served store: one sharded set's [`StoreOps`] (reached by deref)
/// and the policy it was stamped with.
#[derive(Debug)]
pub struct KvStore {
    policy: PolicyKind,
    set: Box<dyn StoreOps>,
}

impl Deref for KvStore {
    type Target = dyn StoreOps;

    fn deref(&self) -> &Self::Target {
        &*self.set
    }
}

impl KvStore {
    /// Creates a fresh store of `shards` pools under `dir`. The policy
    /// stamp is written first, so the shard manifest stays the store's
    /// one commit point; a create that fails takes its stamp back.
    ///
    /// # Errors
    ///
    /// Fails when `dir` already holds a policy stamp; propagates the
    /// stamp write and [`ShardedSet::create`] failures.
    pub fn create(
        dir: impl AsRef<Path>,
        policy: PolicyKind,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<KvStore> {
        use std::io::Write;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut stamp = std::fs::File::options()
            .write(true)
            .create_new(true)
            .open(policy_file(dir))?;
        let set = writeln!(stamp, "{}", policy.name())
            .and_then(|()| stamp.sync_all())
            .and_then(|()| -> io::Result<Box<dyn StoreOps>> {
                Ok(match policy {
                    PolicyKind::NvTraverse => {
                        Box::new(NvtSet::create(dir, shards, capacity_per_shard)?)
                    }
                    PolicyKind::Soft => Box::new(SoftSet::create(dir, shards, capacity_per_shard)?),
                })
            })
            .inspect_err(|_| {
                let _ = std::fs::remove_file(policy_file(dir));
            })?;
        Ok(KvStore { policy, set })
    }

    /// Reopens the store under `dir` with the policy it was created with
    /// (read from `policy.kind`). This is the crash-safe restart path:
    /// every shard pool runs its full recovery (heap walk, mark-sweep GC,
    /// structure `recover()`, op-table classification) before the store
    /// is returned.
    ///
    /// # Errors
    ///
    /// Fails when the directory holds no store, the policy file is
    /// missing or unknown, or any shard fails to open.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<KvStore> {
        let dir = dir.as_ref();
        let policy = read_policy(dir)?;
        let set: Box<dyn StoreOps> = match policy {
            PolicyKind::NvTraverse => Box::new(NvtSet::open(dir)?),
            PolicyKind::Soft => Box::new(SoftSet::open(dir)?),
        };
        Ok(KvStore { policy, set })
    }

    /// [`KvStore::open`] when `dir` holds a store, else
    /// [`KvStore::create`] — the restart-loop entry point.
    ///
    /// # Errors
    ///
    /// Propagates open/create failures; opening a store created under a
    /// different policy than `policy` fails rather than reinterpreting
    /// the data.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        policy: PolicyKind,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<KvStore> {
        let dir = dir.as_ref();
        if !policy_file(dir).exists() {
            return Self::create(dir, policy, shards, capacity_per_shard);
        }
        let on_disk = read_policy(dir)?;
        if on_disk != policy {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{}: store was created with policy {} but {} was requested",
                    dir.display(),
                    on_disk.name(),
                    policy.name()
                ),
            ));
        }
        Self::open(dir)
    }

    /// The policy this store runs under.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Claims one descriptor slot in every shard for a detectable-ops
    /// client; slots are never reused, so hold one bundle per client
    /// ([`ConnTokens`]). [`OpError::Unsupported`] under SOFT, which claims
    /// nothing; [`OpError::PoolFull`] when a shard's table is full.
    pub fn detectable_tokens(&self) -> Result<ShardTokens, OpError> {
        if self.policy == PolicyKind::Soft {
            return Err(OpError::Unsupported);
        }
        self.set.detectable_tokens().map_err(|_| OpError::PoolFull)
    }

    /// [`StoreOps::close`].
    pub fn close(self) -> io::Result<()> {
        self.set.close()
    }
}

/// A connection's lazily claimed [`ShardTokens`]. Descriptor slots are
/// finite and never reused within a pool file's lifetime, so a connection
/// claims on its first detectable op, at most once: a failed claim is
/// remembered, since each retry would strand a slot in every shard before
/// the full one.
#[derive(Debug, Default)]
pub struct ConnTokens {
    claim: Option<Result<ShardTokens, OpError>>,
}

impl ConnTokens {
    /// Fresh, unclaimed.
    pub fn new() -> ConnTokens {
        ConnTokens::default()
    }

    /// The bundle, claimed from `store` on first use; a failed first
    /// claim's error (see [`KvStore::detectable_tokens`]) every time.
    pub fn get_or_claim(&mut self, store: &KvStore) -> Result<&mut ShardTokens, OpError> {
        self.claim
            .get_or_insert_with(|| store.detectable_tokens())
            .as_mut()
            .map_err(|e| *e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::detect::DetectablePool;
    use std::collections::BTreeMap;

    const CAP: u64 = 1 << 20;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nvt-server-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Every file under `dir`, by name, with its bytes.
    fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect()
    }

    /// Free descriptor slots left in shard `shard` (claims them all).
    fn free_slots(dir: &Path, shard: usize) -> usize {
        let set = NvtSet::open(dir).unwrap();
        let free = std::iter::from_fn(|| set.shard(shard).pool().op_token().ok()).count();
        set.close().unwrap();
        free
    }

    /// A connection whose claim failed because one shard's descriptor
    /// table is full must not claim again: every retry would strand a
    /// slot in each earlier shard, for the life of the pool file.
    #[test]
    fn failed_token_claim_is_remembered_not_retried() {
        let dir = tmp_dir("slot-leak");
        KvStore::create(&dir, PolicyKind::NvTraverse, 2, CAP)
            .unwrap()
            .close()
            .unwrap();
        let slots = free_slots(&dir, 1);
        assert!(
            slots > 1,
            "shard 1 must have had a descriptor table to fill"
        );

        let store = KvStore::open(&dir).unwrap();
        let mut conn = ConnTokens::new();
        for _ in 0..10 {
            assert_eq!(conn.get_or_claim(&store).err(), Some(OpError::PoolFull));
        }
        store.close().unwrap();
        assert_eq!(
            free_slots(&dir, 0),
            slots - 1,
            "one failed claim strands at most one slot of the healthy shard"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The stamp is written before the shards, so a stamp that cannot be
    /// written leaves no committed set behind, and a failed shard create
    /// takes its stamp back: either way the directory can still be
    /// created into.
    #[test]
    fn failed_create_leaves_no_store_behind() {
        let dir = tmp_dir("stamp-order");
        std::fs::create_dir_all(dir.join("policy.kind")).unwrap();
        assert!(KvStore::create(&dir, PolicyKind::NvTraverse, 2, CAP).is_err());
        assert!(
            !dir.join("shards.count").exists(),
            "a store without its policy stamp must not be committed"
        );
        std::fs::remove_dir(dir.join("policy.kind")).unwrap();

        assert!(KvStore::create(&dir, PolicyKind::NvTraverse, 0, CAP).is_err());
        assert!(
            !dir.join("policy.kind").exists(),
            "failed create keeps its stamp"
        );

        let store = KvStore::open_or_create(&dir, PolicyKind::NvTraverse, 2, CAP).unwrap();
        assert_eq!(store.try_insert(1, 10), Ok(true));
        store.close().unwrap();
        let store = KvStore::open(&dir).unwrap();
        assert_eq!(store.get(1), Some(10));
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_or_create_refuses_the_other_policy_without_touching_files() {
        for (policy, other) in [
            (PolicyKind::NvTraverse, PolicyKind::Soft),
            (PolicyKind::Soft, PolicyKind::NvTraverse),
        ] {
            let dir = tmp_dir(&format!("other-{}", policy.name()));
            let store = KvStore::create(&dir, policy, 2, CAP).unwrap();
            assert_eq!(store.try_insert(7, 70), Ok(true));
            store.close().unwrap();
            let before = files(&dir);

            let err = KvStore::open_or_create(&dir, other, 2, CAP).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{policy:?}: {err}");
            assert!(
                files(&dir) == before,
                "{policy:?}: a refused open modified a file"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn unknown_or_empty_policy_stamp_is_invalid_data() {
        let dir = tmp_dir("bad-stamp");
        KvStore::create(&dir, PolicyKind::NvTraverse, 1, CAP)
            .unwrap()
            .close()
            .unwrap();
        for text in [
            &b""[..],
            b"\n",
            b"lsm\n",
            b"NVT\n",
            b"nvt soft\n",
            b"\xff\xfe",
        ] {
            std::fs::write(dir.join("policy.kind"), text).unwrap();
            let err = KvStore::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}: {err}");
            let err = KvStore::open_or_create(&dir, PolicyKind::NvTraverse, 1, CAP).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Without its stamp a shard directory is not a store: open says so,
    /// and open_or_create neither reinterprets nor overwrites the shards.
    #[test]
    fn missing_policy_stamp_is_an_error() {
        let dir = tmp_dir("no-stamp");
        KvStore::create(&dir, PolicyKind::NvTraverse, 2, CAP)
            .unwrap()
            .close()
            .unwrap();
        std::fs::remove_file(dir.join("policy.kind")).unwrap();
        let before = files(&dir);

        let err = KvStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        assert!(KvStore::open_or_create(&dir, PolicyKind::Soft, 2, CAP).is_err());
        assert!(files(&dir) == before, "a refused create modified a file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
