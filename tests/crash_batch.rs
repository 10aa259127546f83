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
//!
//! A second, two-thread sweep checks the other side of the batch: a reader
//! on another thread. `NvTraverse` skips a window flush unless some
//! thread's write to that line still waits for its fence, and a batched
//! write waits until its batch closes. A reader that gets a key the writer
//! just wrote must therefore flush and fence that write itself before it
//! returns the value — every value a reader returned must survive a crash
//! that comes before the writer's batch closes.

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
use std::sync::mpsc;

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

/// The writer's one batch in the reader sweep: inserts and removes on the
/// keys the reader gets, reinsertion and a second write of one key among
/// them.
fn writer_ops() -> Vec<Step> {
    use Step::{Insert, Remove};
    vec![
        Insert(1, 11),
        Remove(2),
        Insert(3, 33),
        Remove(1),
        Insert(2, 22),
        Insert(1, 12),
        Remove(4),
        Remove(3),
    ]
}

/// What one writer/reader race observed.
struct Race {
    /// `(i, key, value)`: right after writer op `i`, the reader's completed
    /// `get(key)` of that op's key returned `value`.
    reads: Vec<(usize, u64, Option<u64>)>,
    /// Writer operations started; the last one may have been cut short.
    started: usize,
    /// The simulator step just before the writer closed its batch, if it
    /// got that far.
    close_step: Option<u64>,
}

/// Runs [`writer_ops`] on a writer thread inside one [`FenceBatch`] while a
/// reader thread, in lockstep, gets each op's key right after the op. The
/// strict alternation keeps the simulator's step sequence deterministic, so
/// a crash can be aimed at every step. A crash on either thread ends both.
fn race<S: DurableSet<u64, u64>>(s: &S, sim: &SimHandle) -> Race {
    let (to_reader, from_writer) = mpsc::channel::<(usize, u64)>();
    let (to_writer, from_reader) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let _g = sim.enter();
            let (mut started, mut close_step) = (0, None);
            let _ = run_crashable(|| {
                let batch = FenceBatch::<Sim>::begin();
                for (i, op) in writer_ops().into_iter().enumerate() {
                    started = i + 1;
                    exec(s, op);
                    if to_reader.send((i, op.key())).is_err() || from_reader.recv().is_err() {
                        return; // the reader crashed
                    }
                }
                close_step = Some(sim.steps());
                batch.close();
            });
            (started, close_step)
        });
        let reader = scope.spawn(move || {
            let _g = sim.enter();
            let mut reads = Vec::new();
            let _ = run_crashable(|| {
                while let Ok((i, k)) = from_writer.recv() {
                    let v = s.get(k);
                    reads.push((i, k, v));
                    if to_writer.send(()).is_err() {
                        return; // the writer crashed
                    }
                }
            });
            reads
        });
        let (started, close_step) = writer.join().unwrap();
        Race {
            reads: reader.join().unwrap(),
            started,
            close_step,
        }
    })
}

/// Crashes the writer/reader race at every step from the end of the
/// prefill to the writer's batch close, recovers, and checks each value
/// the reader returned: per key, the recovered entry must be the one after
/// some prefix of the writer's ops that includes the op the reader saw.
fn reader_sweep<S, F, C>(factory: F, check: C)
where
    S: DurableSet<u64, u64>,
    F: Fn() -> S,
    C: Fn(&S) -> Result<usize, String>,
{
    install_quiet_panic_hook();
    let prefilled = |sim: &SimHandle| {
        let _g = sim.enter();
        let s = factory();
        for (k, v) in PREFILL {
            s.insert(k, v);
        }
        s
    };
    let (before, close) = {
        let sim = SimHandle::new();
        let s = prefilled(&sim);
        let before = sim.steps();
        let r = race(&s, &sim);
        assert_eq!(
            r.reads.len(),
            writer_ops().len(),
            "uncrashed race: every get completes"
        );
        (
            before,
            r.close_step.expect("uncrashed race closes its batch"),
        )
    };
    for evict_period in [0, 1, 7] {
        let mut fired = 0;
        for crash_at in before + 1..=close {
            let sim = SimHandle::new();
            sim.set_evict_period(evict_period);
            let s = prefilled(&sim);
            sim.arm_crash_at_step(crash_at);
            let r = race(&s, &sim);
            let _g = sim.enter();
            if r.close_step.is_none() {
                fired += 1;
            } else {
                sim.arm_crash_at_step(u64::MAX);
            }
            // SAFETY: both threads have joined; the leaking collector keeps
            // every node live.
            unsafe { sim.crash_and_rollback() };
            s.recover();
            let at = format!("crash@{crash_at}, evict={evict_period}");
            check(&s).unwrap_or_else(|e| panic!("{at}: invariants: {e}"));

            let ops = writer_ops();
            // The model after each prefix of the writer's ops: states[j]
            // has ops[..j] applied.
            let mut states = vec![PREFILL.into_iter().collect::<BTreeMap<u64, u64>>()];
            for &op in &ops[..r.started] {
                let mut m = states.last().unwrap().clone();
                apply(&mut m, op);
                states.push(m);
            }
            for &(i, k, v) in &r.reads {
                assert_eq!(
                    v,
                    states[i + 1].get(&k).copied(),
                    "{at}: get({k}) after op {i}"
                );
                let got = s.get(k);
                assert!(
                    states[i + 1..].iter().any(|m| m.get(&k).copied() == got),
                    "{at}: the reader returned {v:?} for key {k} after writer op {i}, \
                     but recovery holds {got:?}"
                );
            }
        }
        assert!(fired > 0, "evict={evict_period}: no crash point fired");
    }
}

#[test]
fn list_reader_of_an_open_batch_survives_every_crash_point() {
    reader_sweep(
        || HarrisList::<u64, u64, NvTraverse<Sim>>::with_collector(Collector::leaking()),
        |l| l.check_consistency(false),
    );
}

#[test]
fn hash_reader_of_an_open_batch_survives_every_crash_point() {
    reader_sweep(
        || HashMapDs::<u64, u64, NvTraverse<Sim>>::with_collector(4, Collector::leaking()),
        |m| m.check_consistency(false),
    );
}
