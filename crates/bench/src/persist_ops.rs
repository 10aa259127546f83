//! Per-pool persistence-instruction accounting: flushes and fences **per
//! operation**, for every pool-resident structure under the durable
//! policies, attributed to each pool's `nvtraverse-obs` metric set.
//!
//! Where `abl1` counts volatile structures one measurement at a time
//! through `obs::counted`, this figure runs the
//! production configuration — `MmapBackend` flushes on pool-resident nodes —
//! and reads the **owning pool's** metric set: each measurement creates its
//! own pool file, brackets the workload in `obs::attribute_to(pool.metrics())`,
//! and diffs snapshots. Concurrent pools would not bleed into each other's
//! numbers, which is the point of attribution.
//!
//! The phase split is the paper's thesis made visible: under NVTraverse the
//! traversal phase records **zero** flushes (the journey is free) and the
//! critical phase a small constant, while Izraelevitz's transform pays along
//! the whole journey (§5.2's explanation for every throughput gap).
//!
//! Points flow through the `--json` sink as figure `persist_ops`, series
//! `<policy>`, x = structure, metrics `flushes_per_op`, `fences_per_op`,
//! and the flush phase split `traversal_flushes_per_op` /
//! `critical_flushes_per_op` / `alloc_flushes_per_op`.

use crate::figures::Mode;
use nvtraverse::policy::{Durability, Izraelevitz, NvTraverse};
use nvtraverse::{DurableSet, PoolTrace, TypedRoots};
use nvtraverse_obs as obs;
use nvtraverse_pmem::MmapBackend;
use nvtraverse_pool::Pool;
use nvtraverse_structures::ellen_bst::EllenBst;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::nm_bst::NmBst;
use nvtraverse_structures::queue::MsQueue;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::stack::TreiberStack;

/// Measured operations per point (single-threaded: the quantity is a count,
/// not a rate, so more threads would only add attribution noise).
const OPS: u64 = 2_000;
/// Key range for the set-shaped structures (prefilled to half, §5.1).
const KEY_RANGE: u64 = 2048;
const POOL_CAP: u64 = 32 << 20;

fn pool_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nvt-persist-ops-{}-{tag}.pool", std::process::id()))
}

/// One measurement: creates `S` in a fresh pool, runs `prep` (unmeasured)
/// then `run` (which returns its operation count) inside the pool's
/// attribution scope, and returns the metric-set delta across `run` plus
/// the op count.
fn measure_pooled<S: PoolTrace>(
    tag: &str,
    prep: impl FnOnce(&S),
    run: impl FnOnce(&S) -> u64,
) -> (obs::Snapshot, u64) {
    let path = pool_path(tag);
    let _ = std::fs::remove_file(&path);
    let pool = Pool::builder()
        .path(&path)
        .capacity(POOL_CAP)
        .create()
        .unwrap();
    let s = pool.create_root::<S>("bench").unwrap();
    let metrics = pool.metrics();
    let (delta, ops) = {
        // Explicit attribution: the structure's own PoolCtx scopes cover
        // its allocating operations, but read-only lookups flush too under
        // Izraelevitz — the bracket catches everything the workload does.
        let _t = obs::attribute_to(Some(metrics));
        prep(&s);
        let before = metrics.snapshot();
        let ops = run(&s);
        (metrics.snapshot().since(&before), ops)
    };
    s.close().unwrap();
    drop(pool);
    let _ = std::fs::remove_file(&path);
    (delta, ops)
}

/// §5.1 mixed workload (20% updates) over a prefilled set, `OPS` operations.
fn set_point<S: PoolTrace + DurableSet<u64, u64>>(tag: &str) -> (obs::Snapshot, u64) {
    use rand::prelude::*;
    let cfg = crate::workload::Cfg {
        threads: 1,
        range: KEY_RANGE,
        prefill: KEY_RANGE / 2,
        update_pct: 20,
        secs: 0.0,
        seed: 7,
    };
    measure_pooled::<S>(
        tag,
        |s| crate::workload::prefill(s, &cfg),
        |s| {
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            for _ in 0..OPS {
                let k = rng.random_range(0..cfg.range);
                match rng.random_range(0..100u32) {
                    0..=9 => {
                        s.insert(k, k);
                    }
                    10..=19 => {
                        s.remove(k);
                    }
                    _ => {
                        s.get(k);
                    }
                }
            }
            OPS
        },
    )
}

/// Enqueue+dequeue pairs on a prefilled queue, `OPS` operations total.
fn queue_point<D: Durability>(tag: &str) -> (obs::Snapshot, u64) {
    measure_pooled::<MsQueue<u64, D>>(
        tag,
        |q| {
            for v in 0..KEY_RANGE / 2 {
                q.enqueue(v);
            }
        },
        |q| {
            for v in 0..OPS / 2 {
                q.enqueue(v);
                q.dequeue();
            }
            OPS
        },
    )
}

/// Push+pop pairs on a prefilled stack, `OPS` operations total.
fn stack_point<D: Durability>(tag: &str) -> (obs::Snapshot, u64) {
    measure_pooled::<TreiberStack<u64, D>>(
        tag,
        |s| {
            for v in 0..KEY_RANGE / 2 {
                s.push(v);
            }
        },
        |s| {
            for v in 0..OPS / 2 {
                s.push(v);
                s.pop();
            }
            OPS
        },
    )
}

/// Prints and records one (structure, policy) row.
fn row(structure: &str, policy: &str, (d, ops): (obs::Snapshot, u64)) {
    let per = |n: u64| n as f64 / ops as f64;
    let trav = per(d.flushes[obs::Phase::Traversal as usize]);
    let crit = per(d.flushes[obs::Phase::Critical as usize]);
    let alloc = per(d.flushes[obs::Phase::Alloc as usize]);
    let fl = per(d.total_flushes());
    let fe = per(d.total_fences());
    println!("{structure:>10}{policy:>8}{fl:>12.2}{fe:>12.2}{trav:>12.2}{crit:>12.2}{alloc:>12.2}");
    crate::json::record("persist_ops", policy, structure, "flushes_per_op", fl);
    crate::json::record("persist_ops", policy, structure, "fences_per_op", fe);
    crate::json::record("persist_ops", policy, structure, "traversal_flushes_per_op", trav);
    crate::json::record("persist_ops", policy, structure, "critical_flushes_per_op", crit);
    crate::json::record("persist_ops", policy, structure, "alloc_flushes_per_op", alloc);
}

/// Runs the full sweep: 7 structures × {NvTraverse, Izraelevitz} on
/// `MmapBackend` pools. Mode-independent (counts, not rates).
pub fn run(_mode: Mode) {
    type Nvt = NvTraverse<MmapBackend>;
    type Izr = Izraelevitz<MmapBackend>;
    println!("\n== persist_ops: flushes/fences per op, per-pool attribution (range {KEY_RANGE}, 20% updates) ==");
    println!(
        "{:>10}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "structure", "policy", "flushes/op", "fences/op", "trav-fl/op", "crit-fl/op", "alloc-fl/op"
    );
    row("list", "nvt", set_point::<HarrisList<u64, u64, Nvt>>("list-nvt"));
    row("list", "izr", set_point::<HarrisList<u64, u64, Izr>>("list-izr"));
    row("hash", "nvt", set_point::<HashMapDs<u64, u64, Nvt>>("hash-nvt"));
    row("hash", "izr", set_point::<HashMapDs<u64, u64, Izr>>("hash-izr"));
    row("skiplist", "nvt", set_point::<SkipList<u64, u64, Nvt>>("skip-nvt"));
    row("skiplist", "izr", set_point::<SkipList<u64, u64, Izr>>("skip-izr"));
    row("ellen-bst", "nvt", set_point::<EllenBst<u64, u64, Nvt>>("ellen-nvt"));
    row("ellen-bst", "izr", set_point::<EllenBst<u64, u64, Izr>>("ellen-izr"));
    row("nm-bst", "nvt", set_point::<NmBst<u64, u64, Nvt>>("nm-nvt"));
    row("nm-bst", "izr", set_point::<NmBst<u64, u64, Izr>>("nm-izr"));
    row("queue", "nvt", queue_point::<Nvt>("queue-nvt"));
    row("queue", "izr", queue_point::<Izr>("queue-izr"));
    row("stack", "nvt", stack_point::<Nvt>("stack-nvt"));
    row("stack", "izr", stack_point::<Izr>("stack-izr"));
}
