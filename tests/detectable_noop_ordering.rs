//! Ordering of the detectable **no-op** paths under `NvTraverse`.
//!
//! `makePersistent` leaves the window flushes pending for the next
//! Protocol 2 fence. A duplicate insert or a remove miss writes no structure
//! word — its only persistent writes are the descriptor's arm and NOOP
//! result — so unless the structure fences before arming, those descriptor
//! words could persist (a cache eviction is enough) ahead of the window that
//! decided the no-op: after a crash the descriptor would say "the key was
//! there" while the key is gone.
//!
//! `makePersistent` flushes a window line only while a write to it waits
//! for its fence, so each no-op here first runs behind a write of its own
//! window inside an open [`FenceBatch`]: that write is flushed but its
//! fence is deferred, so the window is dirty on purpose. The crash sweeps
//! cannot see the ordering (by the time they crash, the window is durable
//! one way or another), so it is pinned directly, from the simulator's
//! event stream: the no-op flushes its window, then fences, and only then
//! writes the descriptor slot.

use nvtraverse::detect::OpTable;
use nvtraverse::policy::NvTraverse;
use nvtraverse::DurableSet;
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::batch::FenceBatch;
use nvtraverse_pmem::{Sim, SimHandle, SimObserver, WriteKind};
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy)]
enum Ev {
    Register(usize, usize),
    Write(usize),
    Flush,
    Fence,
}

#[derive(Default)]
struct Log(Mutex<Vec<Ev>>);

impl Log {
    fn take(&self) -> Vec<Ev> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

impl SimObserver for Log {
    fn on_register_range(&self, addr: usize, len: usize) {
        self.0.lock().unwrap().push(Ev::Register(addr, len));
    }
    fn on_tracked_write(&self, addr: usize, _bits: u64, _kind: WriteKind, wrote: bool) {
        if wrote {
            self.0.lock().unwrap().push(Ev::Write(addr));
        }
    }
    fn on_flush(&self, _addr: usize) {
        self.0.lock().unwrap().push(Ev::Flush);
    }
    fn on_fence(&self) {
        self.0.lock().unwrap().push(Ev::Fence);
    }
}

/// Asserts that before its first write into `slot` the operation flushed
/// something (the window) and fenced after its last flush.
fn assert_fenced_before_descriptor(what: &str, events: &[Ev], slot: (usize, usize)) {
    let in_slot = |a: usize| (slot.0..slot.0 + slot.1).contains(&a);
    let first = events
        .iter()
        .position(|e| matches!(*e, Ev::Write(a) if in_slot(a)))
        .unwrap_or_else(|| panic!("{what}: never wrote its descriptor"));
    let before = &events[..first];
    let last_flush = before
        .iter()
        .rposition(|e| matches!(e, Ev::Flush))
        .unwrap_or_else(|| panic!("{what}: no window flush before the descriptor write"));
    assert!(
        before[last_flush..].iter().any(|e| matches!(e, Ev::Fence)),
        "{what}: the descriptor was written with the window flushes still unfenced \
         (events up to the write: {before:?})"
    );
}

/// Runs a duplicate insert and a remove miss on a prefilled `s`, each right
/// after an unfenced write of its window, and checks both no-op paths
/// flush the window and fence before they arm.
fn noop_paths_fence_before_arming<S: DurableSet<u64, u64>>(make: impl FnOnce() -> S) {
    let sim = SimHandle::new();
    let _g = sim.enter();
    let s = make();
    for k in 0..16 {
        assert!(s.insert(k * 2, k));
    }
    let log = Arc::new(Log::default());
    sim.set_observer(Some(log.clone()));
    let table: OpTable<Sim> = OpTable::new(1);
    let slot = match log.take().first() {
        Some(&Ev::Register(addr, len)) => (addr, len),
        other => panic!("expected the table's registration first, got {other:?}"),
    };
    let mut tok = table.token(0);

    // Re-insert key 8: the link to it is written and flushed, not fenced.
    let batch = FenceBatch::<Sim>::begin();
    assert!(s.remove(8) && s.insert(8, 8));
    log.take();
    let (_, inserted) = s.insert_detectable(&mut tok, 8, 99).unwrap();
    assert!(!inserted, "key 8 is present: a duplicate");
    assert_fenced_before_descriptor("duplicate insert", &log.take(), slot);
    batch.close();

    // Insert and remove key 9: the unlink is written and flushed, not fenced.
    let batch = FenceBatch::<Sim>::begin();
    assert!(s.insert(9, 9) && s.remove(9));
    log.take();
    let (_, removed) = s.remove_detectable(&mut tok, 9).unwrap();
    assert!(!removed, "key 9 is absent: a miss");
    assert_fenced_before_descriptor("remove miss", &log.take(), slot);
    batch.close();

    sim.set_observer(None);
}

#[test]
fn list_noop_paths_fence_before_arming() {
    noop_paths_fence_before_arming(|| {
        HarrisList::<u64, u64, NvTraverse<Sim>>::with_collector(Collector::leaking())
    });
}

#[test]
fn hash_noop_paths_fence_before_arming() {
    noop_paths_fence_before_arming(|| {
        HashMapDs::<u64, u64, NvTraverse<Sim>>::with_collector(4, Collector::leaking())
    });
}
