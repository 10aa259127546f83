//! The batch executor: N operations, one closing fence, group commit.
//!
//! This is the server's fence-amortization path. A [`Request::Batch`]'s
//! sub-operations execute back to back inside one
//! [`FenceBatch`]: every link CAS and
//! header flush runs exactly where its durability policy puts it, but each
//! operation's *closing* fence (the policies' `before_return`) is deferred
//! and the scope's close issues a single `sfence` — the **batch durability
//! point**. Only then does [`run_batch`] return, so no reply of the batch
//! can escape to the wire before every operation in it is persistent
//! (group commit).
//!
//! The arithmetic this buys, per B-op batch:
//!
//! * **SOFT**: an update is 1 flush + 1 (closing) fence, so a batch costs
//!   B flushes + **1** fence — fences/op = 1/B, the floor.
//! * **NVTraverse**: the closing fence is one of the op's constant fence
//!   count, so a batch saves exactly B−1 fences versus B singles.
//! * **Lookups**, under either policy, cost nothing of their own: a get
//!   writes nothing, so its closing fence is its only one and it defers.
//!   Under NVTraverse a get flushes a window line only while some write to
//!   it waits for its fence; such a flush stays pending until the next
//!   update's pre-CAS fence or the batch's fence drains it. The batch's
//!   fence is issued only if a flush is pending, so a batch of gets of
//!   quiescent keys costs no fence at all.
//!
//! `tests/persist_bounds.rs` pins these counts exactly.

use crate::proto::{Reply, Request};
use crate::store::{ConnTokens, KvStore};
use nvtraverse::detect::OpError;
use nvtraverse_pmem::batch::FenceBatch;
use nvtraverse_pmem::MmapBackend;
use nvtraverse_pool::OpId;

/// What one batch cost, for the server's per-batch obs attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Operations executed.
    pub ops: u64,
    /// Closing fences deferred into the shared fence (one per op whose
    /// policy would have fenced before returning).
    pub deferred_fences: u64,
    /// Real fences issued at the durability point: 1, or 0 for a batch
    /// with no flush pending at its close (e.g. gets of quiescent keys).
    pub closing_fences: u64,
}

fn op_error_reply(e: OpError) -> Reply {
    match e {
        OpError::Unsupported => Reply::Unsupported,
        OpError::PoolFull => Reply::PoolFull,
    }
}

fn update_reply(r: Result<bool, OpError>) -> Reply {
    match r {
        Ok(true) => Reply::Applied,
        Ok(false) => Reply::Miss,
        Err(e) => op_error_reply(e),
    }
}

fn detectable_reply(shard: usize, r: Result<(OpId, bool), OpError>) -> Reply {
    match r {
        Ok((id, applied)) => Reply::Detectable {
            applied,
            shard: shard as u32,
            op_id: id.to_bits(),
        },
        Err(e) => op_error_reply(e),
    }
}

/// Executes one *data* operation (the batchable subset) with whatever
/// fence context the caller established — immediate fences outside a
/// batch, deferred inside one.
///
/// # Panics
///
/// Panics on a non-batchable request (`Stats`/`Shutdown`/`OpOutcome`/
/// nested `Batch`); the protocol decoder never produces one here.
pub fn exec_data_op(store: &KvStore, tokens: &mut ConnTokens, req: &Request) -> Reply {
    match *req {
        Request::Get(k) => store.get(k).map_or(Reply::Miss, Reply::Value),
        Request::Insert(k, v) => update_reply(store.try_insert(k, v)),
        Request::Remove(k) => update_reply(store.try_remove(k)),
        Request::InsertDetectable(k, v) => detectable_reply(
            store.shard_index_of(k),
            tokens
                .get_or_claim(store)
                .and_then(|t| store.insert_detectable(t, k, v)),
        ),
        Request::RemoveDetectable(k) => detectable_reply(
            store.shard_index_of(k),
            tokens
                .get_or_claim(store)
                .and_then(|t| store.remove_detectable(t, k)),
        ),
        ref other => panic!("exec_data_op on non-data request {other:?}"),
    }
}

/// Executes a batch of data operations under one [`FenceBatch`] and
/// returns only after the batch durability point — the group-commit
/// contract. Replies are in operation order.
pub fn run_batch(
    store: &KvStore,
    tokens: &mut ConnTokens,
    reqs: &[Request],
) -> (Vec<Reply>, BatchStats) {
    let scope = FenceBatch::<MmapBackend>::begin();
    let replies: Vec<Reply> = reqs
        .iter()
        .map(|r| exec_data_op(store, tokens, r))
        .collect();
    let (deferred, fenced) = scope.close_fenced();
    // Nothing above this line may write to the connection: the close just
    // issued the one fence that makes every reply's effect persistent.
    let stats = BatchStats {
        ops: reqs.len() as u64,
        deferred_fences: deferred,
        closing_fences: u64::from(fenced),
    };
    (replies, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PolicyKind;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("nvt-server-batch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn batch_replies_match_singles_and_group_commit_runs() {
        for policy in [PolicyKind::NvTraverse, PolicyKind::Soft] {
            let dir = tmp_dir(policy.name());
            let store = KvStore::create(&dir, policy, 2, 1 << 20).unwrap();
            let mut tokens = ConnTokens::new();
            let reqs: Vec<Request> = (0..16u64)
                .map(|k| Request::Insert(k, k * 2))
                .chain((0..16u64).map(Request::Get))
                .chain(std::iter::once(Request::Insert(3, 99))) // duplicate
                .chain(std::iter::once(Request::Remove(100))) // absent
                .collect();
            let (replies, stats) = run_batch(&store, &mut tokens, &reqs);
            assert_eq!(replies.len(), 34);
            assert!(replies[..16].iter().all(|r| *r == Reply::Applied));
            for (k, r) in (0..16u64).zip(&replies[16..32]) {
                assert_eq!(*r, Reply::Value(k * 2));
            }
            assert_eq!(replies[32], Reply::Miss, "duplicate insert");
            assert_eq!(replies[33], Reply::Miss, "absent remove");
            assert_eq!(stats.ops, 34);
            assert!(
                stats.deferred_fences >= 18,
                "every update must defer its closing fence ({policy:?}: {stats:?})"
            );
            assert_eq!(stats.closing_fences, 1, "one shared fence per batch");

            // Gets of keys no pending write touches flush nothing, so the
            // batch's fence drains nothing and is not issued.
            let gets: Vec<Request> = (0..16u64).map(Request::Get).collect();
            let (replies, stats) = run_batch(&store, &mut tokens, &gets);
            assert_eq!(replies[5], Reply::Value(10));
            assert_eq!(stats.deferred_fences, 16, "{policy:?}");
            assert_eq!(stats.closing_fences, 0, "{policy:?}: nothing to fence");
            store.close().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn detectable_ops_in_batches_carry_ids_and_soft_reports_unsupported() {
        let dir = tmp_dir("detectable");
        let store = KvStore::create(&dir, PolicyKind::NvTraverse, 2, 1 << 20).unwrap();
        let mut tokens = ConnTokens::new();
        let (replies, _) = run_batch(
            &store,
            &mut tokens,
            &[
                Request::InsertDetectable(1, 10),
                Request::RemoveDetectable(2),
            ],
        );
        let (shard, op_id) = match replies[0] {
            Reply::Detectable {
                applied: true,
                shard,
                op_id,
            } => {
                assert_eq!(shard as usize, store.shard_index_of(1));
                (shard, op_id)
            }
            ref other => panic!("unexpected {other:?}"),
        };
        assert!(matches!(
            replies[1],
            Reply::Detectable { applied: false, .. }
        ));
        drop(tokens);
        store.close().unwrap();

        // `op_outcome` is the post-restart question: reopen and classify.
        let store = KvStore::open(&dir).unwrap();
        assert_eq!(
            store.op_outcome(shard as usize, nvtraverse_pool::OpId::from_bits(op_id)),
            Some(nvtraverse_pool::OpOutcome::Committed)
        );
        store.close().unwrap();

        let soft_dir = tmp_dir("detectable-soft");
        let store = KvStore::create(&soft_dir, PolicyKind::Soft, 2, 1 << 20).unwrap();
        let mut tokens = ConnTokens::new();
        let (replies, _) = run_batch(&store, &mut tokens, &[Request::InsertDetectable(1, 10)]);
        assert_eq!(replies[0], Reply::Unsupported);
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&soft_dir).unwrap();
    }
}
