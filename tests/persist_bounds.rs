//! Per-structure persistence-instruction **bounds**: one durable insert and
//! one durable remove must cost at most a small, structure-specific
//! constant number of flushes and fences under `NvTraverse` — the paper's
//! central quantitative claim (the journey is free, the destination is a
//! constant), pinned as a regression test per structure.
//!
//! Counting goes through the [`MmapBackend`] backend, whose every flush/fence is
//! recorded into the thread's attributed `nvtraverse-obs` metric set. The
//! tests count with [`obs::counted`], which attributes to a **private**
//! metric set: that is what makes the counts exact even though the test
//! binary runs other tests (and their flushes) concurrently — attribution
//! is thread-local, so only this thread's instructions are counted. The
//! counts therefore need telemetry on (`NVT_OBS` unset).
//!
//! # The constants
//!
//! Measured single-threaded (no helping, no contention) after a 32-key
//! prefill. The exact uncontended costs observed when the bounds were set
//! are listed per test. The set structures' **fence** bounds are exact:
//! where a fence lands depends only on the protocol, never on allocator
//! state. Lookups are pinned exactly at zero: `NvTraverse` flushes a window
//! line only while some thread's write to it waits for its fence, and a
//! measured lookup runs on quiescent state. Flush bounds add only modest
//! slack (at most one flush over the observation), because a node that
//! straddles a cache line costs one more flush. These are regression tripwires, not estimates: a
//! policy change that adds a persistence instruction per op trips them.

use nvtraverse::detect::OpTable;
use nvtraverse::policy::{NvTraverse, Soft};
use nvtraverse::DurableSet;
use nvtraverse_obs as obs;
use nvtraverse_pmem::batch::FenceBatch;
use nvtraverse_pmem::heap::{self, AllocTarget};
use nvtraverse_pmem::{MmapBackend, CACHE_LINE};
use nvtraverse_structures::ellen_bst::EllenBst;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::queue::MsQueue;
use nvtraverse_structures::nm_bst::NmBst;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::soft_hash::SoftHash;
use nvtraverse_structures::soft_list::SoftList;
use nvtraverse_structures::stack::TreiberStack;
use std::alloc::Layout;
use std::sync::atomic::{AtomicUsize, Ordering};

type D = NvTraverse<MmapBackend>;
type SD = Soft<MmapBackend>;

/// Keys present before each measured operation (the structures should be
/// non-trivially populated — an empty-structure op can take shortcuts).
const PREFILL: u64 = 32;

/// The exact (flushes, fences) this thread issued while running `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (c, ()) = obs::counted(f);
    (c.flushes, c.fences)
}

/// Asserts an exact measurement against its documented bound. A durable
/// update must also issue at least one fence — zero would mean the op was
/// not persisted at all (a different bug than exceeding the bound).
fn assert_bound(what: &str, (fl, fe): (u64, u64), max_flushes: u64, max_fences: u64) {
    assert!(
        fe >= 1,
        "{what}: a durable operation must fence at least once (got 0)"
    );
    assert!(
        fl <= max_flushes && fe <= max_fences,
        "{what}: {fl} flushes (bound {max_flushes}), {fe} fences (bound {max_fences}) — \
         a policy or structure change raised the constant per-op persistence cost"
    );
}

/// Prefills a set with the even keys below `2 * PREFILL`, then measures one
/// insert of an absent key and one remove of a present key, plus a hit and
/// a miss lookup. Every write before a lookup has been fenced, so no window
/// line is held: the lookup flushes nothing, and with nothing pending its
/// closing fence is elided too.
fn set_bounds<S: DurableSet<u64, u64>>(
    name: &str,
    make: impl FnOnce() -> S,
    max: (u64, u64, u64, u64),
) {
    let s = make();
    for k in 0..PREFILL {
        assert!(s.insert(k * 2, k));
    }
    let ins = counted(|| assert!(s.insert(33, 33)));
    let rem = counted(|| assert!(s.remove(16)));
    let hit = counted(|| assert_eq!(s.get(14), Some(7)));
    let miss = counted(|| assert_eq!(s.get(15), None));
    let (ins_fl, ins_fe, rem_fl, rem_fe) = max;
    assert_bound(&format!("{name} insert"), ins, ins_fl, ins_fe);
    assert_bound(&format!("{name} remove"), rem, rem_fl, rem_fe);
    for (what, cost) in [("get(hit)", hit), ("get(miss)", miss)] {
        assert_eq!(
            cost,
            (0, 0),
            "{name} {what}: a quiescent lookup persists nothing"
        );
    }
}

// Observed: insert 2/2 (new node + pred link; the window is quiescent, so
// Protocol 1 flushes nothing), remove 2/2 (mark + unlink). The insert's
// first fence is its linking CAS's pre-fence, which persists the new node;
// the remove's is its unlink's pre-fence, which persists the mark. The
// flush bounds keep one flush of slack for a node straddling a line.
#[test]
fn list_bounds() {
    set_bounds("list", HarrisList::<u64, u64, D>::new, (3, 2, 3, 2));
}

// Observed: insert 2/2, remove 2/2 — one bucket is one Harris list.
#[test]
fn hash_bounds() {
    set_bounds("hash", || HashMapDs::<u64, u64, D>::new(64), (3, 2, 3, 2));
}

// Observed: insert 4/2, remove 2/2 — and, unlike the pre-sanitizer
// bounds, *independent* of the tower-height draw: only `next[0]` is
// durable, the upper tower links are volatile raw CASes that cost no
// persistence instructions (the vet sanitizer pins this — they are
// declared volatile-by-design at allocation).
#[test]
fn skiplist_bounds() {
    set_bounds("skiplist", SkipList::<u64, u64, D>::new, (5, 2, 3, 2));
}

// Observed: insert 10–11/4, remove 5–6/5 — internal+leaf node pair plus
// the Info descriptor, and the help path flushes descriptor state it
// itself wrote and has not fenced yet while completing the operation.
#[test]
fn ellen_bst_bounds() {
    set_bounds("ellen-bst", EllenBst::<u64, u64, D>::new, (12, 4, 7, 5));
}

// Observed: insert 3–4/2, remove 7/3 — internal+leaf pair, edge-CAS
// based deletion (no descriptors, but the two-step flag+prune remove
// persists both edges and re-reads the flagged edge it just wrote).
#[test]
fn nm_bst_bounds() {
    set_bounds("nm-bst", NmBst::<u64, u64, D>::new, (5, 2, 8, 3));
}

// Observed: enqueue 2/2, dequeue 1/1 (the tail shortcut is volatile — it
// costs nothing persistent — and enqueue no longer flushes the anchor head:
// the appended node is reachable through already-persisted links).
#[test]
fn queue_bounds() {
    let q: MsQueue<u64, D> = MsQueue::new();
    for v in 0..PREFILL {
        q.enqueue(v);
    }
    let enq = counted(|| q.enqueue(99));
    let deq = counted(|| assert!(q.dequeue().is_some()));
    assert_bound("queue enqueue", enq, 3, 2);
    assert_bound("queue dequeue", deq, 2, 1);
}

// Observed: push 2/2, pop 1/1.
#[test]
fn stack_bounds() {
    let s: TreiberStack<u64, D> = TreiberStack::new();
    for v in 0..PREFILL {
        s.push(v);
    }
    let push = counted(|| s.push(99));
    let pop = counted(|| assert!(s.pop().is_some()));
    assert_bound("stack push", push, 3, 2);
    assert_bound("stack pop", pop, 2, 1);
}

/// Asserts the detectable-vs-plain overhead of one operation: the entire
/// price of detectability is the descriptor — the arm (one cache line,
/// flushed as one range) and the result publish — so at most **+2 flushes
/// and at most `max_d_fences` fences**. On the effectful insert that is
/// **+0**: arming and publishing ride the linking CAS's pre-fence and the
/// closing fence. The effectful remove pays **+1**: its arm must persist
/// before its mark, so the mark's pre-fence is issued — which the plain
/// remove, with nothing pending before its mark, elides. On the no-op
/// paths it is **+1**: the plain no-op writes nothing and elides its
/// closing fence, while the detectable one must fence its arm+publish
/// words before it returns.
fn assert_detectable_delta(
    what: &str,
    plain: (u64, u64),
    detectable: (u64, u64),
    max_d_fences: i64,
) {
    let d_flushes = detectable.0 as i64 - plain.0 as i64;
    let d_fences = detectable.1 as i64 - plain.1 as i64;
    assert!(
        d_fences <= max_d_fences,
        "{what}: detectable path added {d_fences} fences (plain {plain:?}, \
         detectable {detectable:?}) — bound is {max_d_fences}"
    );
    assert!(
        d_flushes <= 2,
        "{what}: detectable path added {d_flushes} flushes (plain {plain:?}, \
         detectable {detectable:?}) — bound is arm + publish = 2"
    );
}

/// Builds a structure whose nodes all come from a private arena of
/// cache-line-aligned slots. A node that straddles a line boundary costs
/// `flush_range` one more flush, so on the shared volatile heap a node's
/// flush count depends on where other tests' allocations left the heap;
/// here it does not.
fn line_aligned<S>(make: impl FnOnce() -> S) -> S {
    const ARENA: usize = 1 << 20;
    unsafe fn alloc(ctx: usize, size: usize, _align: usize) -> *mut u8 {
        // SAFETY: `ctx` is the leaked, never-freed bump cursor below.
        let (next, end) = unsafe { &*(ctx as *const (AtomicUsize, usize)) };
        let len = size.next_multiple_of(CACHE_LINE);
        let p = next.fetch_add(len, Ordering::Relaxed);
        if p + len > *end {
            std::ptr::null_mut()
        } else {
            p as *mut u8
        }
    }
    // Freed nodes are never reused: the arena lives as long as the test.
    unsafe fn dealloc(_ctx: usize, _ptr: *mut u8, _size: usize, _align: usize) {}
    let layout = Layout::from_size_align(ARENA, CACHE_LINE).unwrap();
    // SAFETY: the layout has a non-zero size.
    let base = unsafe { std::alloc::alloc(layout) } as usize;
    assert_ne!(base, 0, "arena allocation failed");
    let cursor: &'static (AtomicUsize, usize) =
        Box::leak(Box::new((AtomicUsize::new(base), base + ARENA)));
    let ctx = cursor as *const (AtomicUsize, usize) as usize;
    heap::register_region(base, ARENA, ctx, dealloc);
    // Structures capture the allocation target in effect when they are
    // built and re-enter it around every operation.
    let prev = heap::swap_scoped_target(Some(AllocTarget { ctx, alloc }));
    let s = make();
    heap::swap_scoped_target(prev);
    s
}

/// Prefills a set, then measures matching plain/detectable insert and
/// remove pairs and pins the descriptor overhead of each, plus the absolute
/// (flushes, fences) of the detectable insert, remove and duplicate insert
/// against `max`.
fn detectable_delta_bounds<S: DurableSet<u64, u64>>(
    name: &str,
    make: impl FnOnce() -> S,
    max: [(u64, u64); 3],
) {
    let table: OpTable<MmapBackend> = OpTable::new(1);
    let mut tok = table.token(0);
    let s = line_aligned(make);
    for k in 0..PREFILL {
        assert!(s.insert(k * 2, k));
    }
    // Odd keys are absent.
    let plain_ins = counted(|| assert!(s.insert(101, 1)));
    let det_ins = counted(|| assert!(s.insert_detectable(&mut tok, 103, 1).unwrap().1));
    let plain_rem = counted(|| assert!(s.remove(16)));
    let det_rem = counted(|| assert!(s.remove_detectable(&mut tok, 18).unwrap().1));
    assert_detectable_delta(&format!("{name} insert"), plain_ins, det_ins, 0);
    assert_detectable_delta(&format!("{name} remove"), plain_rem, det_rem, 1);
    // The no-op paths arm and publish together under the closing fence —
    // which only the detectable run issues (the plain no-op elides it).
    let plain_dup = counted(|| assert!(!s.insert(101, 9)));
    let det_dup = counted(|| assert!(!s.insert_detectable(&mut tok, 103, 9).unwrap().1));
    assert_detectable_delta(&format!("{name} duplicate insert"), plain_dup, det_dup, 1);
    for (what, (fl, fe), (max_fl, max_fe)) in [
        ("insert", det_ins, max[0]),
        ("remove", det_rem, max[1]),
        ("duplicate insert", det_dup, max[2]),
    ] {
        assert!(
            fl <= max_fl && fe <= max_fe,
            "{name} detectable {what}: ({fl}, {fe}), bound ({max_fl}, {max_fe})"
        );
    }
}

// Observed: insert 2/2 → 4/2, remove 2/2 → 4/3, duplicate insert 0/0 →
// 2/1 (arm and publish share the slot's cache line but are separate flush
// instructions). The absolute bounds are the costs before reads skipped
// quiescent lines — insert 6/2, remove 8/3, duplicate 5/2 on the list and
// 5/2, 7/3, 4/2 on the hash — so detectability got no dearer in absolute
// terms: the remove's extra fence is one the plain remove stopped paying.
#[test]
fn list_detectable_delta() {
    detectable_delta_bounds(
        "list",
        HarrisList::<u64, u64, D>::new,
        [(6, 2), (8, 3), (5, 2)],
    );
}

#[test]
fn hash_detectable_delta() {
    detectable_delta_bounds(
        "hash",
        || HashMapDs::<u64, u64, D>::new(64),
        [(5, 2), (7, 3), (4, 2)],
    );
}

// ---- SOFT: the minimal-flushing bound is *exact*, not a tripwire ----------

/// Measures one SOFT insert, remove, hit-get and miss-get and pins their
/// **exact** persistence costs: an update is one flush (the node's validity
/// header, one 64-aligned cache line) plus the closing fence; a lookup or
/// no-op update costs **nothing** — it flushes nothing, and the closing
/// fence is elided because the thread has no flush pending. Unlike the
/// NvTraverse bounds above there is no slack — SOFT's whole claim is that
/// these are constants of the protocol, not of allocator state.
fn soft_exact_bounds<S: DurableSet<u64, u64>>(name: &str, make: impl FnOnce() -> S) {
    let s = make();
    for k in 0..PREFILL {
        assert!(s.insert(k * 2, k));
    }
    let ins = counted(|| assert!(s.insert(33, 33)));
    let rem = counted(|| assert!(s.remove(16)));
    let hit = counted(|| assert_eq!(s.get(14), Some(7)));
    let miss = counted(|| assert_eq!(s.get(15), None));
    let dup = counted(|| assert!(!s.insert(33, 99)));
    assert_eq!(ins, (1, 1), "{name} insert: must be exactly 1 flush + 1 fence");
    assert_eq!(rem, (1, 1), "{name} remove: must be exactly 1 flush + 1 fence");
    assert_eq!(hit, (0, 0), "{name} get(hit): zero persistence instructions");
    assert_eq!(miss, (0, 0), "{name} get(miss): zero persistence instructions");
    assert_eq!(dup, (0, 0), "{name} duplicate insert: no effect, no cost");
}

#[test]
fn soft_list_bounds() {
    soft_exact_bounds("soft-list", SoftList::<u64, u64, SD>::new);
}

#[test]
fn soft_hash_bounds() {
    soft_exact_bounds("soft-hash", || SoftHash::<u64, u64, SD>::new(64));
}

/// The `soft_vs_nvt` figure's acceptance condition, pinned as a test: on
/// the same state shape, SOFT's update costs **strictly fewer flushes**
/// than the NVTraverse transformation, for both the list and the hash
/// table. (NVTraverse must flush the new node *and* critical-window links;
/// SOFT flushes one validity header.)
fn assert_soft_strictly_cheaper(name: &str, nvt: (u64, u64), soft: (u64, u64)) {
    assert!(
        soft.0 < nvt.0,
        "{name}: SOFT must flush strictly less than NvTraverse \
         (soft {soft:?} vs nvt {nvt:?})"
    );
}

#[test]
fn soft_beats_nvtraverse_flush_counts() {
    fn update_costs<S: DurableSet<u64, u64>>(make: impl FnOnce() -> S) -> ((u64, u64), (u64, u64)) {
        let s = make();
        for k in 0..PREFILL {
            assert!(s.insert(k * 2, k));
        }
        let ins = counted(|| assert!(s.insert(33, 33)));
        let rem = counted(|| assert!(s.remove(16)));
        (ins, rem)
    }
    let (nvt_ins, nvt_rem) = update_costs(HarrisList::<u64, u64, D>::new);
    let (soft_ins, soft_rem) = update_costs(SoftList::<u64, u64, SD>::new);
    assert_soft_strictly_cheaper("list insert", nvt_ins, soft_ins);
    assert_soft_strictly_cheaper("list remove", nvt_rem, soft_rem);

    let (nvt_ins, nvt_rem) = update_costs(|| HashMapDs::<u64, u64, D>::new(64));
    let (soft_ins, soft_rem) = update_costs(|| SoftHash::<u64, u64, SD>::new(64));
    assert_soft_strictly_cheaper("hash insert", nvt_ins, soft_ins);
    assert_soft_strictly_cheaper("hash remove", nvt_rem, soft_rem);
}

// ---- batch fence amortization: N ops, one closing fence -------------------

/// Runs the same `B` update operations on two identically prefilled
/// structures — once op-by-op, once inside a [`FenceBatch`] — and returns
/// `(unbatched, batched)` exact counts. Identical key sequences on fresh
/// identical structures make the counts comparable flush-for-flush: the
/// only permitted difference is the deferred closing fences.
fn batch_vs_singles<S: DurableSet<u64, u64>>(
    make: impl Fn() -> S,
    ops: u64,
) -> ((u64, u64), (u64, u64)) {
    let run = |batched: bool| {
        let s = make();
        for k in 0..PREFILL {
            assert!(s.insert(k * 2, k));
        }
        counted(|| {
            let scope = batched.then(FenceBatch::<MmapBackend>::begin);
            for i in 0..ops {
                assert!(s.insert(101 + 2 * i, i));
            }
            drop(scope); // the batch durability point: one fence for all ops
        })
    };
    (run(false), run(true))
}

/// NVTraverse: the closing fence is one of each op's constant fence count,
/// so a B-op batch costs exactly B−1 fences less than B singles. Fence
/// counts are exact; flush counts are only near-equal, because the two
/// runs' heap-allocated nodes land at different addresses and a node that
/// straddles a cache line costs `flush_range` one extra flush (the same
/// wobble the per-op bounds above document).
#[test]
fn nvtraverse_batch_saves_exactly_b_minus_one_fences() {
    const B: u64 = 16;
    let (unbatched, batched) = batch_vs_singles(|| HashMapDs::<u64, u64, D>::new(64), B);
    assert_eq!(
        batched.1,
        unbatched.1 - (B - 1),
        "B-op batch must cost exactly B-1 fewer fences (unbatched {unbatched:?}, \
         batched {batched:?})"
    );
    assert!(
        batched.0.abs_diff(unbatched.0) <= B / 2,
        "batching must not change flush counts beyond line-straddle wobble \
         (unbatched {unbatched:?}, batched {batched:?})"
    );
    assert!(batched.1 < unbatched.1, "batched strictly cheaper than B singles");
}

/// SOFT: an update's *only* fence is the closing one, so a B-op batch is
/// exactly B flushes + **1** fence — the fences/op = 1/B floor of a
/// B-op BATCH frame. Lookups add nothing.
#[test]
fn soft_batch_hits_the_one_fence_floor() {
    const B: u64 = 16;
    let (unbatched, batched) = batch_vs_singles(|| SoftHash::<u64, u64, SD>::new(64), B);
    assert_eq!(unbatched, (B, B), "B soft singles: B flushes, B fences");
    assert_eq!(batched, (B, 1), "B-op soft batch: B flushes, exactly 1 fence");

    // A batch mixing lookups in pays for the updates only.
    let s = SoftHash::<u64, u64, SD>::new(64);
    for k in 0..PREFILL {
        assert!(s.insert(k * 2, k));
    }
    let mixed = counted(|| {
        let scope = FenceBatch::<MmapBackend>::begin();
        for i in 0..B {
            assert!(s.insert(101 + 2 * i, i));
            assert_eq!(s.get(14), Some(7));
        }
        assert_eq!(scope.close(), 2 * B, "every op defers its closing fence");
    });
    assert_eq!(mixed, (B, 1), "lookups add no flushes and share the one fence");
}

/// NVTraverse lookups in a batch cost nothing, as SOFT's do: a get of a
/// key no pending write touches flushes no window line, and its closing
/// fence defers into the batch's. So B gets mixed into a batch of B
/// inserts add **zero** flushes and **zero** fences, and a batch of gets
/// alone costs nothing at all — not even the batch's fence, as nothing is
/// pending when it closes. Both structures of the mixed comparison come
/// from line-aligned arenas, so their flush counts are comparable exactly.
#[test]
fn nvtraverse_batched_gets_share_one_fence() {
    const B: u64 = 16;
    let run = |with_gets: bool| {
        let s = line_aligned(|| HashMapDs::<u64, u64, D>::new(64));
        for k in 0..PREFILL {
            assert!(s.insert(k * 2, k));
        }
        counted(|| {
            let scope = FenceBatch::<MmapBackend>::begin();
            for i in 0..B {
                assert!(s.insert(101 + 2 * i, i));
                if with_gets {
                    assert_eq!(s.get(14), Some(7));
                }
            }
            let ops = if with_gets { 2 * B } else { B };
            assert_eq!(scope.close(), ops, "every op defers its closing fence");
        })
    };
    let (inserts, mixed) = (run(false), run(true));
    assert_eq!(
        mixed, inserts,
        "gets must add no flushes and no fences to a batch"
    );

    let s = HashMapDs::<u64, u64, D>::new(64);
    for k in 0..PREFILL {
        assert!(s.insert(k * 2, k));
    }
    let gets = counted(|| {
        let scope = FenceBatch::<MmapBackend>::begin();
        for i in 0..B {
            s.get(i);
        }
        assert_eq!(scope.close(), B);
    });
    assert_eq!(
        gets,
        (0, 0),
        "a B-get batch of quiescent keys costs nothing"
    );
}

/// A lookup skips a window line only while no write there waits for its
/// fence — whichever thread wrote it. Thread A inserts a key inside an open
/// [`FenceBatch`], so its linking CAS is flushed but not fenced. While A's
/// batch is open, thread B's get of that key sees the held line: it flushes
/// it and fences, so it cannot return a value a crash could lose. Once A's
/// batch closes, the same get costs nothing.
fn get_during_and_after_open_insert<S: DurableSet<u64, u64>>(s: &S) -> ((u64, u64), (u64, u64)) {
    use std::sync::mpsc;
    for k in 0..PREFILL {
        assert!(s.insert(k * 2, k));
    }
    let during = std::thread::scope(|scope| {
        let (inserted, wait_inserted) = mpsc::channel();
        let (read, wait_read) = mpsc::channel::<()>();
        scope.spawn(move || {
            let batch = FenceBatch::<MmapBackend>::begin();
            assert!(s.insert(33, 33));
            inserted.send(()).unwrap();
            wait_read.recv().unwrap();
            batch.close();
        });
        wait_inserted.recv().unwrap();
        let during = counted(|| assert_eq!(s.get(33), Some(33)));
        read.send(()).unwrap();
        during
    });
    let after = counted(|| assert_eq!(s.get(33), Some(33)));
    (during, after)
}

#[test]
fn nvtraverse_get_persists_another_threads_unfenced_insert() {
    for (name, (during, after)) in [
        (
            "list",
            get_during_and_after_open_insert(&HarrisList::<u64, u64, D>::new()),
        ),
        (
            "hash",
            get_during_and_after_open_insert(&HashMapDs::<u64, u64, D>::new(64)),
        ),
    ] {
        assert!(
            during.0 >= 1 && during.1 == 1,
            "{name}: a get of an unfenced insert must flush and fence ({during:?})"
        );
        assert_eq!(
            after,
            (0, 0),
            "{name}: once the insert is fenced, the get is free"
        );
    }
}

/// The same arithmetic through the **server's** batch executor
/// (`run_batch` over a real `MmapBackend`-pooled `KvStore`): a B-op batch
/// pays exactly one closing fence at its durability point, for both
/// policies, and saves exactly B−1 fences against the same ops unbatched.
///
/// Pool-backed operations attribute their persistence traffic to the
/// owning pool's metric set (the `PoolCtx::enter` bracket), while the
/// batch's shared closing fence is issued outside any op and lands in the
/// caller's attribution — so the true per-run cost is the **sum** of the
/// thread-attributed count and the store's pool-snapshot delta.
#[test]
fn server_batch_path_pays_one_closing_fence() {
    use nvtraverse_server::{exec_data_op, run_batch, ConnTokens, KvStore, PolicyKind, Request};

    if !obs::enabled() {
        return; // MmapBackend attribution is off; nothing to count
    }
    const B: u64 = 8;
    for policy in [PolicyKind::NvTraverse, PolicyKind::Soft] {
        let run = |batched: bool| {
            let dir = std::env::temp_dir().join(format!(
                "nvt-persist-bounds-srv-{}-{}-{batched}",
                std::process::id(),
                policy.name()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = KvStore::create(&dir, policy, 2, 4 << 20).unwrap();
            let mut tokens = ConnTokens::new();
            for k in 0..PREFILL {
                assert!(store.try_insert(k * 2, k).unwrap());
            }
            let reqs: Vec<Request> = (0..B).map(|i| Request::Insert(101 + 2 * i, i)).collect();
            let pools_before = store.metrics_snapshot();
            let ambient = counted(|| {
                if batched {
                    let (replies, stats) = run_batch(&store, &mut tokens, &reqs);
                    assert_eq!(replies.len(), B as usize);
                    assert_eq!(stats.closing_fences, 1);
                } else {
                    for r in &reqs {
                        exec_data_op(&store, &mut tokens, r);
                    }
                }
            });
            let pools_after = store.metrics_snapshot();
            let counts = (
                ambient.0 + pools_after.total_flushes() - pools_before.total_flushes(),
                ambient.1 + pools_after.total_fences() - pools_before.total_fences(),
            );
            store.close().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            counts
        };
        let unbatched = run(false);
        let batched = run(true);
        assert_eq!(
            batched.1,
            unbatched.1 - (B - 1),
            "{policy:?}: server batch must save exactly B-1 fences \
             (unbatched {unbatched:?}, batched {batched:?})"
        );
        assert_eq!(batched.0, unbatched.0, "{policy:?}: flush counts unchanged by batching");
        assert!(batched.1 < unbatched.1, "{policy:?}: batched strictly cheaper");
        if policy == PolicyKind::Soft {
            assert_eq!(batched.1, 1, "SOFT batch: exactly the one closing fence");
        }
    }
}

/// The bounds above are *attributed* counts; this pins the machinery they
/// rely on — the same operation, counted twice, shows identical counts, and
/// an unattributed interleaved operation is counted in neither.
#[test]
fn attribution_is_exact_and_private() {
    let list = line_aligned(HarrisList::<u64, u64, D>::new);
    for k in 0..PREFILL {
        assert!(list.insert(k * 2, k));
    }
    let a = counted(|| assert!(list.insert(101, 1)));
    assert!(list.remove(101), "unattributed op (counted nowhere)");
    let b = counted(|| assert!(list.insert(101, 1)));
    assert_eq!(a, b, "same op, same state shape ⇒ identical exact counts");
}
