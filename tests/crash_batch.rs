//! Crash sweep through the group-commit path: operations run in
//! [`FenceBatch`] scopes, as the server executes a BATCH frame, and a crash
//! is injected at (up to) every simulated memory event.
//!
//! Inside a batch no operation issues its closing fence; under `NvTraverse`
//! a lookup's window flushes and an update's last flushes stay pending until
//! the next operation's pre-write fence or the batch's one shared fence. The
//! group-commit contract is what a client can observe:
//!
//! * every operation of a batch that **closed** before the crash is durable,
//!   and the value it returned is consistent with the recovered state;
//! * operations of the batch still **open** at the crash may land either
//!   way — per key, the recovered entry is the one after the closed batches
//!   or after any prefix of the open batch. This is
//!   `nvtraverse::model::key_verdict`'s rule with the whole open batch in
//!   flight instead of one operation, checked on values as well as on
//!   membership.
//!
//! Run with eviction off and with background eviction on, as
//! `crash_adversaries` does.

mod common;

use common::Step;
use nvtraverse::policy::NvTraverse;
use nvtraverse::DurableSet;
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::batch::FenceBatch;
use nvtraverse_pmem::sim::{install_quiet_panic_hook, run_crashable, SimHandle};
use nvtraverse_pmem::Sim;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use std::cell::RefCell;
use std::collections::BTreeMap;

const MAX_POINTS: usize = 600;

const PREFILL: [(u64, u64); 4] = [(2, 20), (4, 40), (6, 60), (8, 80)];

/// Four batches of 4–8 mixed operations: duplicate inserts, misses,
/// reinsertion, several operations on one key inside one batch, and a get
/// of a key inserted earlier in the same (not yet durable) batch.
fn batches() -> Vec<Vec<Step>> {
    use Step::{Get, Insert, Remove};
    vec![
        vec![Insert(1, 11), Get(2), Remove(4), Insert(5, 55)],
        vec![
            Insert(2, 99),
            Remove(3),
            Remove(2),
            Insert(4, 44),
            Get(5),
            Remove(8),
        ],
        vec![Insert(3, 33), Remove(1), Get(4), Insert(1, 12), Remove(5)],
        vec![
            Insert(7, 77),
            Get(7),
            Remove(7),
            Insert(8, 88),
            Remove(6),
            Insert(6, 66),
            Get(1),
            Remove(9),
        ],
    ]
}

/// What an operation returned: `insert`/`remove` report whether they took
/// effect, `get` the value it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ret {
    Applied(bool),
    Value(Option<u64>),
}

fn exec<S: DurableSet<u64, u64>>(s: &S, op: Step) -> Ret {
    match op {
        Step::Insert(k, v) => Ret::Applied(s.insert(k, v)),
        Step::Remove(k) => Ret::Applied(s.remove(k)),
        Step::Get(k) => Ret::Value(s.get(k)),
    }
}

/// Applies `op` to the sequential model, returning what it must return.
fn apply(model: &mut BTreeMap<u64, u64>, op: Step) -> Ret {
    match op {
        Step::Insert(k, v) => Ret::Applied(match model.entry(k) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(v);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }),
        Step::Remove(k) => Ret::Applied(model.remove(&k).is_some()),
        Step::Get(k) => Ret::Value(model.get(&k).copied()),
    }
}

/// Runs every batch once to learn the workload's step span.
fn step_span<S: DurableSet<u64, u64>>(factory: &impl Fn() -> S) -> (u64, u64) {
    let sim = SimHandle::new();
    let _g = sim.enter();
    let s = factory();
    for (k, v) in PREFILL {
        s.insert(k, v);
    }
    let before = sim.steps();
    for batch in batches() {
        let b = FenceBatch::<Sim>::begin();
        for op in batch {
            exec(&s, op);
        }
        b.close();
    }
    (before, sim.steps())
}

/// One run with a crash at `crash_at`, then recovery and validation.
/// Returns whether the crash fired.
fn run_one<S, F, C>(factory: &F, check: &C, evict_period: u64, crash_at: u64) -> bool
where
    S: DurableSet<u64, u64>,
    F: Fn() -> S,
    C: Fn(&S) -> Result<usize, String>,
{
    let sim = SimHandle::new();
    sim.set_evict_period(evict_period);
    let _g = sim.enter();
    let s = factory();
    for (k, v) in PREFILL {
        s.insert(k, v);
    }
    // Operations of closed batches with their returns; the open batch's
    // operations (the last one possibly in flight).
    let closed: RefCell<Vec<(Step, Ret)>> = RefCell::new(Vec::new());
    let open: RefCell<Vec<Step>> = RefCell::new(Vec::new());
    sim.arm_crash_at_step(crash_at);
    let crashed = run_crashable(|| {
        for batch in batches() {
            let b = FenceBatch::<Sim>::begin();
            let mut rets = Vec::new();
            for op in batch {
                open.borrow_mut().push(op);
                rets.push(exec(&s, op));
            }
            b.close();
            closed
                .borrow_mut()
                .extend(open.take().into_iter().zip(rets));
        }
    })
    .is_err();
    if !crashed {
        sim.arm_crash_at_step(u64::MAX);
    }
    // SAFETY: single-threaded; the leaking collector keeps every node live.
    unsafe { sim.crash_and_rollback() };
    s.recover();
    let at = format!("crash@{crash_at}, evict={evict_period}");
    check(&s).unwrap_or_else(|e| panic!("{at}: invariants: {e}"));

    // Closed operations returned what the sequential model says.
    let mut model: BTreeMap<u64, u64> = PREFILL.into_iter().collect();
    let closed = closed.into_inner();
    for &(op, ret) in &closed {
        assert_eq!(ret, apply(&mut model, op), "{at}: {op:?} returned wrongly");
    }
    let open = open.into_inner();

    let mut keys: Vec<u64> = PREFILL.iter().map(|&(k, _)| k).collect();
    keys.extend(batches().iter().flatten().map(Step::key));
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        let mut allowed = vec![model.get(&k).copied()];
        let mut m = model.clone();
        for &op in &open {
            apply(&mut m, op);
            allowed.push(m.get(&k).copied());
        }
        let got = s.get(k);
        assert!(
            allowed.contains(&got),
            "{at}: key {k} recovered as {got:?}, allowed {allowed:?} (open batch {open:?})"
        );
    }

    // Usable after recovery.
    assert!(s.insert(1000, 1), "{at}: post-recovery insert failed");
    assert_eq!(s.get(1000), Some(1), "{at}: post-recovery get failed");
    crashed
}

/// Crashes at every step of the batched workload (sampled down to
/// `MAX_POINTS` when longer), with and without background eviction.
fn batch_sweep<S, F, C>(factory: F, check: C)
where
    S: DurableSet<u64, u64>,
    F: Fn() -> S,
    C: Fn(&S) -> Result<usize, String>,
{
    install_quiet_panic_hook();
    let (before, total) = step_span(&factory);
    let span = total - before;
    let stride = (span / MAX_POINTS as u64).max(1);
    for evict_period in [0, 1, 7] {
        let mut fired = 0;
        let mut crash_at = before + 1;
        while crash_at <= total + 1 {
            fired += run_one(&factory, &check, evict_period, crash_at) as usize;
            crash_at += stride;
        }
        assert!(fired > 0, "evict={evict_period}: no crash point fired");
    }
}

#[test]
fn list_batches_survive_every_crash_point() {
    batch_sweep(
        || HarrisList::<u64, u64, NvTraverse<Sim>>::with_collector(Collector::leaking()),
        |l| l.check_consistency(false),
    );
}

#[test]
fn hash_batches_survive_every_crash_point() {
    batch_sweep(
        || HashMapDs::<u64, u64, NvTraverse<Sim>>::with_collector(4, Collector::leaking()),
        |m| m.check_consistency(false),
    );
}
