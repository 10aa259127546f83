//! Negative tests: deliberately broken durability policies must be *caught*
//! by the crash-test harness. This validates that the positive results in
//! `crash_sets.rs` are meaningful — the paper argues its flushes and fences
//! are all necessary ("removing any of them could violate the correctness of
//! some NVTraverse data structure", §4.3), and here we remove them and watch
//! the violations appear.

mod common;

use common::{standard_workload, Step};
use nvtraverse::marked::MarkedPtr;
use nvtraverse::model::{key_verdict, MutOp};
use nvtraverse::policy::Durability;
use nvtraverse::DurableSet;
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::batch::{defer_closing_fence, FenceBatch};
use nvtraverse_pmem::sim::{
    current_elided_flush, install_quiet_panic_hook, run_crashable, SimHandle,
};
use nvtraverse_pmem::{flushes_pending, Backend, PCell, Sim, Word};
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::soft_list::SoftList;
use std::cell::{Cell, RefCell};

/// A policy that claims durability but never flushes or fences: every
/// completed operation evaporates in a crash.
#[derive(Debug, Clone, Copy, Default)]
struct NoFlush;

impl Durability for NoFlush {
    type B = Sim;
    const DURABLE: bool = true;
    fn t_load<T: Word>(c: &PCell<T, Sim>) -> T {
        c.load()
    }
    fn t_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        c.load()
    }
    fn ensure_reachable(_: *const u8) {}
    fn make_persistent(_: &[*const u8]) {}
    fn c_load<T: Word>(c: &PCell<T, Sim>) -> T {
        c.load()
    }
    fn c_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        c.load()
    }
    fn c_store<T: Word>(c: &PCell<T, Sim>, v: T) {
        c.store(v)
    }
    fn c_cas<T: Word>(c: &PCell<T, Sim>, cur: T, new: T) -> Result<T, T> {
        c.compare_exchange(cur, new)
    }
    fn c_cas_link<T>(
        c: &PCell<MarkedPtr<T>, Sim>,
        cur: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        c.compare_exchange(cur, new).map(drop)
    }
    fn persist_new_node(_: *const u8, _: usize) {}
    fn before_return() {}
}

/// A policy that flushes exactly like NVTraverse but never fences: in the
/// simulator (as on real hardware) a flush without a fence guarantees
/// nothing.
#[derive(Debug, Clone, Copy, Default)]
struct NoFence;

impl Durability for NoFence {
    type B = Sim;
    const DURABLE: bool = true;
    fn t_load<T: Word>(c: &PCell<T, Sim>) -> T {
        c.load()
    }
    fn t_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        c.load()
    }
    fn ensure_reachable(addr: *const u8) {
        Sim::flush(addr);
    }
    fn make_persistent(addrs: &[*const u8]) {
        for &a in addrs {
            Sim::flush(a);
        }
        // missing fence
    }
    fn c_load<T: Word>(c: &PCell<T, Sim>) -> T {
        let v = c.load();
        Sim::flush(c.addr());
        v
    }
    fn c_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        let v = c.load();
        Sim::flush(c.addr());
        v
    }
    fn c_store<T: Word>(c: &PCell<T, Sim>, v: T) {
        c.store(v);
        Sim::flush(c.addr());
    }
    fn c_cas<T: Word>(c: &PCell<T, Sim>, cur: T, new: T) -> Result<T, T> {
        let r = c.compare_exchange(cur, new);
        Sim::flush(c.addr());
        r
    }
    fn c_cas_link<T>(
        c: &PCell<MarkedPtr<T>, Sim>,
        cur: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        let r = c.compare_exchange(cur, new);
        Sim::flush(c.addr());
        r.map(drop)
    }
    fn persist_new_node(addr: *const u8, len: usize) {
        Sim::flush_range(addr, len);
    }
    fn before_return() {} // missing fence
}

/// SOFT with its single flush removed: validity headers are written and the
/// closing fence still runs, but nothing is ever flushed — at a crash the
/// seal words roll back and every completed update evaporates. SOFT's whole
/// durability budget is that one header flush, so under-flushing it must be
/// as detectable as gutting NVTraverse.
#[derive(Debug, Clone, Copy, Default)]
struct SoftUnderFlush;

impl Durability for SoftUnderFlush {
    type B = Sim;
    const DURABLE: bool = true;
    fn t_load<T: Word>(c: &PCell<T, Sim>) -> T {
        c.load()
    }
    fn t_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        c.load()
    }
    fn ensure_reachable(_: *const u8) {}
    fn make_persistent(_: &[*const u8]) {}
    fn c_load<T: Word>(c: &PCell<T, Sim>) -> T {
        c.load()
    }
    fn c_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        c.load()
    }
    fn c_store<T: Word>(c: &PCell<T, Sim>, v: T) {
        c.store(v); // missing flush (Soft flushes here)
    }
    fn c_cas<T: Word>(c: &PCell<T, Sim>, cur: T, new: T) -> Result<T, T> {
        c.compare_exchange(cur, new) // missing flush (Soft flushes here)
    }
    fn c_cas_link<T>(
        c: &PCell<MarkedPtr<T>, Sim>,
        cur: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        // Links are volatile under SOFT: plain CAS is correct here.
        c.compare_exchange(cur, new).map(drop)
    }
    fn persist_new_node(_: *const u8, _: usize) {} // missing flush_range
    fn before_return() {
        Sim::fence(); // the fence alone persists nothing
    }
}

/// `NvTraverse` with its write tracking removed: reads skip the flush of
/// every line no write holds, exactly like the real policy, but writes
/// never hold their line. So a read skips the flush of a link another
/// operation wrote and has not fenced yet — and may return a value a crash
/// loses.
#[derive(Debug, Clone, Copy, Default)]
struct NoHold;

impl NoHold {
    fn flush_if_dirty(addr: *const u8) {
        if Sim::maybe_dirty(addr) {
            Sim::flush(addr);
        } else {
            current_elided_flush(addr as usize);
        }
    }

    fn fence_if_pending() {
        if flushes_pending() {
            Sim::fence();
        }
    }
}

impl Durability for NoHold {
    type B = Sim;
    const DURABLE: bool = true;
    fn t_load<T: Word>(c: &PCell<T, Sim>) -> T {
        c.load()
    }
    fn t_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        c.load()
    }
    fn ensure_reachable(addr: *const u8) {
        Self::flush_if_dirty(addr);
    }
    fn make_persistent(addrs: &[*const u8]) {
        for &a in addrs {
            Self::flush_if_dirty(a);
        }
    }
    fn c_load<T: Word>(c: &PCell<T, Sim>) -> T {
        let v = c.load();
        Self::flush_if_dirty(c.addr());
        v
    }
    fn c_load_link<T>(c: &PCell<MarkedPtr<T>, Sim>) -> MarkedPtr<T> {
        let v = c.load();
        Self::flush_if_dirty(c.addr());
        v
    }
    fn c_store<T: Word>(c: &PCell<T, Sim>, v: T) {
        Self::fence_if_pending();
        c.store(v); // missing hold
        Sim::flush(c.addr());
    }
    fn c_cas<T: Word>(c: &PCell<T, Sim>, cur: T, new: T) -> Result<T, T> {
        Self::fence_if_pending();
        let r = c.compare_exchange(cur, new); // missing hold
        Sim::flush(c.addr());
        r
    }
    fn c_cas_link<T>(
        c: &PCell<MarkedPtr<T>, Sim>,
        cur: MarkedPtr<T>,
        new: MarkedPtr<T>,
    ) -> Result<(), MarkedPtr<T>> {
        Self::fence_if_pending();
        let r = c.compare_exchange(cur, new); // missing hold
        Sim::flush(c.addr());
        r.map(drop)
    }
    fn persist_new_node(addr: *const u8, len: usize) {
        Sim::flush_range(addr, len);
    }
    fn before_return() {
        if !defer_closing_fence() {
            Self::fence_if_pending();
        }
    }
    fn fence_before_write() {
        Self::fence_if_pending();
    }
}

/// Like `exhaustive_crash_test`, but collects violations instead of
/// panicking, and without the structure-specific invariant checker (a broken
/// policy may corrupt anything).
fn count_violations_on<S: DurableSet<u64, u64>>(make: impl Fn() -> S) -> usize {
    install_quiet_panic_hook();
    let (prefill, workload) = standard_workload();

    // Pass 1: step span.
    let (steps_before, steps_total) = {
        let sim = SimHandle::new();
        let g = sim.enter();
        let s = make();
        for &(k, v) in &prefill {
            s.insert(k, v);
        }
        let b = sim.steps();
        for op in &workload {
            match *op {
                Step::Insert(k, v) => {
                    s.insert(k, v);
                }
                Step::Remove(k) => {
                    s.remove(k);
                }
                Step::Get(k) => {
                    s.get(k);
                }
            }
        }
        let t = sim.steps();
        drop(s);
        drop(g);
        (b, t)
    };

    let mut violations = 0;
    for crash_at in steps_before + 1..=steps_total {
        let sim = SimHandle::new();
        let g = sim.enter();
        let s = make();
        for &(k, v) in &prefill {
            s.insert(k, v);
        }
        let completed: RefCell<Vec<MutOp>> = RefCell::new(Vec::new());
        let in_flight: Cell<Option<MutOp>> = Cell::new(None);
        sim.arm_crash_at_step(crash_at);
        let _ = run_crashable(|| {
            for op in &workload {
                match *op {
                    Step::Insert(k, v) => {
                        in_flight.set(Some(MutOp::Insert {
                            key: k,
                            succeeded: false,
                        }));
                        let ok = s.insert(k, v);
                        completed.borrow_mut().push(MutOp::Insert {
                            key: k,
                            succeeded: ok,
                        });
                    }
                    Step::Remove(k) => {
                        in_flight.set(Some(MutOp::Remove {
                            key: k,
                            succeeded: false,
                        }));
                        let ok = s.remove(k);
                        completed.borrow_mut().push(MutOp::Remove {
                            key: k,
                            succeeded: ok,
                        });
                    }
                    Step::Get(k) => {
                        s.get(k);
                    }
                }
                in_flight.set(None);
            }
        });
        unsafe { sim.crash_and_rollback() };

        // Recovery or validation may panic on poison — that's a caught bug.
        let verdict_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.recover();
            let completed = completed.borrow();
            let in_flight = in_flight.get();
            let mut keys: Vec<u64> = prefill.iter().map(|&(k, _)| k).collect();
            keys.extend(workload.iter().map(|op| op.key()));
            keys.sort_unstable();
            keys.dedup();
            for k in keys {
                let history: Vec<MutOp> = completed
                    .iter()
                    .copied()
                    .filter(|op| op.key() == k)
                    .collect();
                let fl = in_flight.filter(|op| op.key() == k);
                let initially = prefill.iter().any(|&(pk, _)| pk == k);
                let verdict = key_verdict(initially, &history, fl);
                if !verdict.allows(s.contains(k)) {
                    return false;
                }
            }
            true
        }));
        match verdict_ok {
            Ok(true) => {}
            Ok(false) | Err(_) => violations += 1,
        }
        drop(s);
        drop(g);
    }
    violations
}

fn count_violations<D: Durability<B = Sim>>() -> usize {
    count_violations_on(|| HarrisList::<u64, u64, D>::with_collector(Collector::leaking()))
}

#[test]
fn harness_catches_a_policy_that_never_flushes() {
    let violations = count_violations::<NoFlush>();
    assert!(
        violations > 0,
        "a policy with no flushes at all passed every crash point — \
         the crash harness is not detecting anything"
    );
}

#[test]
fn harness_catches_a_policy_that_never_fences() {
    let violations = count_violations::<NoFence>();
    assert!(
        violations > 0,
        "a policy that flushes but never fences passed every crash point — \
         the simulator is persisting un-fenced flushes"
    );
}

#[test]
fn correct_policy_has_zero_violations_under_the_same_counter() {
    // Sanity for the two tests above: the same violation counter applied to
    // the real transformation reports zero.
    use nvtraverse::policy::NvTraverse;
    let violations = count_violations::<NvTraverse<Sim>>();
    assert_eq!(violations, 0);
}

#[test]
fn harness_catches_an_under_flushing_soft_policy() {
    let violations = count_violations_on(|| {
        SoftList::<u64, u64, SoftUnderFlush>::with_collector(Collector::leaking())
    });
    assert!(
        violations > 0,
        "SOFT with its one header flush removed passed every crash point — \
         either the sweep or the validity protocol is vacuous"
    );
}

#[test]
fn correct_soft_policy_has_zero_violations_under_the_same_counter() {
    use nvtraverse::policy::Soft;
    let violations = count_violations_on(|| {
        SoftList::<u64, u64, Soft<Sim>>::with_collector(Collector::leaking())
    });
    assert_eq!(violations, 0);
}

// ---------------------------------------------------------------------------
// One-run detection: the same mutant policies, but flagged by the
// `nvtraverse-vet` sanitizer from a single non-crashing execution of the
// workload — no crash-point enumeration. Each mutant has a *specific*
// expected diagnostic, so these also pin the finding taxonomy.
// ---------------------------------------------------------------------------

use nvtraverse_vet::{FindingKind, Vet, VetReport};

/// Runs the standard workload once against a fresh `HarrisList<_, _, D>`
/// under the sanitizer. No crash is ever injected.
fn vet_one_run<D: Durability<B = Sim>>() -> VetReport {
    let sim = SimHandle::new();
    let _g = sim.enter();
    let vet = Vet::install(&sim);
    {
        let s = HarrisList::<u64, u64, D>::with_collector(Collector::leaking());
        let (prefill, workload) = standard_workload();
        for &(k, v) in &prefill {
            vet.op("prefill", || s.insert(k, v));
        }
        for op in &workload {
            match *op {
                Step::Insert(k, v) => {
                    vet.op("insert", || s.insert(k, v));
                }
                Step::Remove(k) => {
                    vet.op("remove", || s.remove(k));
                }
                Step::Get(k) => {
                    vet.op("get", || s.get(k));
                }
            }
        }
    }
    vet.finish(&sim)
}

#[test]
fn vet_flags_no_flush_as_unpersisted_publish_in_one_run() {
    let r = vet_one_run::<NoFlush>();
    assert!(
        r.has(FindingKind::UnpersistedPublish),
        "a policy that never flushes published unflushed nodes, but the \
         sanitizer recorded no unpersisted-publish: {:#?}",
        r.findings
    );
}

#[test]
fn vet_flags_no_fence_as_unpersisted_publish_in_one_run() {
    let r = vet_one_run::<NoFence>();
    assert!(
        r.has(FindingKind::UnpersistedPublish),
        "flushes without fences persist nothing, but the sanitizer \
         recorded no unpersisted-publish: {:#?}",
        r.findings
    );
}

#[test]
fn vet_flags_soft_under_flush_as_dirty_at_return_in_one_run() {
    let sim = SimHandle::new();
    let _g = sim.enter();
    let vet = Vet::install(&sim);
    {
        let s = SoftList::<u64, u64, SoftUnderFlush>::with_collector(Collector::leaking());
        let (prefill, workload) = standard_workload();
        for &(k, v) in &prefill {
            vet.op("prefill", || s.insert(k, v));
        }
        for op in &workload {
            match *op {
                Step::Insert(k, v) => {
                    vet.op("insert", || s.insert(k, v));
                }
                Step::Remove(k) => {
                    vet.op("remove", || s.remove(k));
                }
                Step::Get(k) => {
                    vet.op("get", || s.get(k));
                }
            }
        }
    }
    let r = vet.finish(&sim);
    assert!(
        r.has(FindingKind::DirtyAtReturn),
        "SOFT with its header flush removed returns with the validity word \
         dirty, but the sanitizer recorded no dirty-at-return: {:#?}",
        r.findings
    );
}

/// Runs batches of `insert(k)` then `get(k)` — op 2 of each batch reads the
/// link op 1 wrote, still unfenced — then `remove(k)` then `get(k)`, each
/// batch one `Vet::op` (so its closing fence lands inside the scope), and
/// returns the report. No crash is ever injected.
fn vet_batched_run<D: Durability<B = Sim>>() -> VetReport {
    let sim = SimHandle::new();
    let _g = sim.enter();
    let vet = Vet::install(&sim);
    {
        let s = HarrisList::<u64, u64, D>::with_collector(Collector::leaking());
        for k in 0..16 {
            vet.op("prefill", || s.insert(k * 2, k));
        }
        for k in [5, 17, 40] {
            vet.op("insert+get", || {
                let batch = FenceBatch::<Sim>::begin();
                assert!(s.insert(k, k));
                assert_eq!(s.get(k), Some(k));
                batch.close();
            });
            vet.op("remove+get", || {
                let batch = FenceBatch::<Sim>::begin();
                assert!(s.remove(k));
                assert_eq!(s.get(k), None);
                batch.close();
            });
        }
    }
    vet.finish(&sim)
}

#[test]
fn vet_flags_no_hold_as_elided_unpersisted_in_one_batched_run() {
    let r = vet_batched_run::<NoHold>();
    assert!(
        r.has(FindingKind::ElidedUnpersisted),
        "a get skipped the flush of an unfenced link, but the sanitizer \
         recorded no elided-unpersisted: {:#?}",
        r.findings
    );
}

#[test]
fn real_policy_is_clean_in_the_same_batched_run() {
    use nvtraverse::policy::NvTraverse;
    let r = vet_batched_run::<NvTraverse<Sim>>();
    assert!(r.is_clean(), "{:#?}", r.findings);
}
