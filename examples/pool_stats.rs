//! Observability quick-start: run a workload on a pooled structure, then
//! dump the process's per-pool telemetry as JSON.
//!
//! ```text
//! $ cargo run --example pool_stats | python3 -m json.tool
//! ```
//!
//! **Stdout carries exactly one JSON document** (`nvtraverse-obs`'s
//! [`stats_json`](nvtraverse_suite::obs::stats_json): one entry per pool the
//! process touched — flush/fence counts split by phase, allocator and GC
//! counters — plus the recent lifecycle event ring).
//! All narration goes to stderr, so the output pipes straight into `jq` or
//! `python3 -m json.tool`. CI runs it exactly that way as a smoke test.
//!
//! Two pools are exercised to show attribution: each pool's numbers are its
//! own — the busy pool's flush counts do not bleed into the idle one's.

use nvtraverse_suite::core::policy::NvTraverse;
use nvtraverse_suite::core::pool::Pool;
use nvtraverse_suite::core::{DurableSet, TypedRoots};
use nvtraverse_suite::obs;
use nvtraverse_suite::pmem::MmapBackend;
use nvtraverse_suite::structures::list::HarrisList;

type List = HarrisList<u64, u64, NvTraverse<MmapBackend>>;

const KEYS: u64 = 512;

fn main() {
    let dir = std::env::temp_dir();
    let busy_path = dir.join(format!("nvt-pool-stats-busy-{}.pool", std::process::id()));
    let idle_path = dir.join(format!("nvt-pool-stats-idle-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&busy_path);
    let _ = std::fs::remove_file(&idle_path);

    // An idle pool: it appears in the report with (near-)zero traffic,
    // demonstrating that attribution is per pool, not process-global.
    let idle = Pool::builder().path(&idle_path).capacity(1 << 20).create().unwrap();

    let pool = Pool::builder().path(&busy_path).capacity(8 << 20).create().unwrap();
    let list = pool.create_root::<List>("stats-demo").unwrap();

    // Attribute this thread's flushes/fences to the busy pool for the
    // workload (the structure's own scopes cover allocation; the explicit
    // bracket also catches lookups).
    {
        let _scope = obs::attribute_to(Some(pool.metrics()));
        for k in 0..KEYS {
            list.insert(k, k * 3);
        }
        for k in (0..KEYS).step_by(2) {
            list.remove(k);
        }
        let mut hits = 0;
        for k in 0..KEYS {
            if list.get(k).is_some() {
                hits += 1;
            }
        }
        eprintln!("workload done: {KEYS} inserts, {} removes, {hits}/{KEYS} lookups hit", KEYS / 2);
    }

    let snap = pool.metrics().snapshot();
    eprintln!(
        "busy pool: {} flushes / {} fences attributed",
        snap.total_flushes(),
        snap.total_fences(),
    );

    list.close().unwrap();
    drop(pool);
    drop(idle);

    // The one JSON document on stdout: every pool this process touched,
    // plus the lifecycle event ring (create/open/GC/close).
    println!("{}", obs::stats_json());

    let _ = std::fs::remove_file(&busy_path);
    let _ = std::fs::remove_file(&idle_path);
}
