//! One runner per figure of the paper's evaluation (§5, Figures 5 and 6),
//! plus two ablations. Each runner prints a throughput table whose rows are
//! the figure's x-axis and whose columns are the paper's series.
//!
//! Sizes and thread counts are scaled to the measurement machine (the paper
//! used 48-way and 64-way servers with Optane DC; see DESIGN.md's
//! substitution notes). The *shape* — who wins, by what factor, where the
//! crossovers sit — is the reproduction target, not absolute numbers.

use crate::workload::{measure, prefill, Cfg};
use nvtraverse::policy::{Durability, Izraelevitz, LinkPersist, NvTraverse, Soft, Volatile};
use nvtraverse::DurableSet;
use nvtraverse_ebr::Collector;
use nvtraverse_onefile::{TmBst, TmList};
use nvtraverse_pmem::{MmapBackend, Sim};
use nvtraverse_structures::ellen_bst::EllenBst;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::{HarrisList, HarrisListOrigParent};
use nvtraverse_structures::nm_bst::NmBst;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::soft_hash::SoftHash;
use nvtraverse_structures::soft_list::SoftList;

/// How much machine time to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CI-sized: ~0.12 s per point, tens of thousands of keys.
    Quick,
    /// Paper-sized (scaled): 1 s per point, hundreds of thousands of keys.
    Full,
}

impl Mode {
    fn secs(self) -> f64 {
        match self {
            Mode::Quick => 0.12,
            Mode::Full => 1.0,
        }
    }
    /// Key range standing in for the paper's "1M / 8M nodes" structures.
    fn big_range(self) -> u64 {
        match self {
            Mode::Quick => 50_000,
            Mode::Full => 400_000,
        }
    }
    fn threads_sweep(self) -> Vec<usize> {
        vec![1, 2, 4]
    }
    fn max_threads(self) -> usize {
        4
    }
}

type Point = fn(&Cfg) -> f64;
type Series = (&'static str, Point);

// ---- one monomorphized measurement function per (structure, policy) ------

fn list_point<D: Durability>(cfg: &Cfg) -> f64 {
    measure(HarrisList::<u64, u64, D>::new, cfg)
}

fn list_orig_parent_point<D: Durability>(cfg: &Cfg) -> f64 {
    // The original-parent field may be flushed after its node's parent was
    // reclaimed; run with a leaking collector so the address stays mapped
    // (the paper notes this variant "may also delay garbage collection").
    measure(
        || HarrisListOrigParent::<u64, u64, D>::with_collector(Collector::leaking()),
        cfg,
    )
}

fn hash_point<D: Durability>(cfg: &Cfg) -> f64 {
    let buckets = (cfg.prefill.max(1)) as usize;
    measure(|| HashMapDs::<u64, u64, D>::new(buckets), cfg)
}

fn ellen_point<D: Durability>(cfg: &Cfg) -> f64 {
    measure(EllenBst::<u64, u64, D>::new, cfg)
}

fn nm_point<D: Durability>(cfg: &Cfg) -> f64 {
    measure(NmBst::<u64, u64, D>::new, cfg)
}

fn skip_point<D: Durability>(cfg: &Cfg) -> f64 {
    measure(SkipList::<u64, u64, D>::new, cfg)
}

fn soft_list_point<D: Durability>(cfg: &Cfg) -> f64 {
    measure(SoftList::<u64, u64, D>::new, cfg)
}

fn soft_hash_point<D: Durability>(cfg: &Cfg) -> f64 {
    let buckets = (cfg.prefill.max(1)) as usize;
    measure(|| SoftHash::<u64, u64, D>::new(buckets), cfg)
}

fn tmlist_point(cfg: &Cfg) -> f64 {
    measure(TmList::<u64, u64, MmapBackend>::new, cfg)
}

fn tmbst_point(cfg: &Cfg) -> f64 {
    measure(TmBst::<u64, u64, MmapBackend>::new, cfg)
}

// ---- table rendering ------------------------------------------------------

fn print_table(title: &str, x_label: &str, xs: &[String], series: &[Series], cfgs: &[Cfg]) {
    // Figure id for the JSON sink: the part of the title before ':'.
    let figure_id = title.split(':').next().unwrap_or(title).trim();
    println!("\n== {title} ==");
    print!("{x_label:>10}");
    for (name, _) in series {
        print!("{name:>12}");
    }
    println!("  [Mops/s]");
    for (x, cfg) in xs.iter().zip(cfgs) {
        print!("{x:>10}");
        for (name, point) in series {
            let mops = point(cfg);
            print!("{mops:>12.3}");
            crate::json::record(figure_id, name, x, "mops", mops);
        }
        println!();
    }
}

fn upd_sweep() -> Vec<u32> {
    vec![0, 5, 10, 20, 50, 100]
}

fn run_sweep(
    title: &str,
    x_label: &str,
    series: &[Series],
    cfgs: Vec<(String, Cfg)>,
) {
    let (xs, cfgs): (Vec<String>, Vec<Cfg>) = cfgs.into_iter().unzip();
    print_table(title, x_label, &xs, series, &cfgs);
}

fn base_cfg(mode: Mode, threads: usize, range: u64, update_pct: u32) -> Cfg {
    Cfg {
        threads,
        range,
        prefill: range / 2,
        update_pct,
        secs: mode.secs(),
        seed: 42,
    }
}

// ---- the figures -----------------------------------------------------------

/// Figure 5(a): list, thread sweep, 80% lookups, 512 keys of 1024.
pub fn fig5a(mode: Mode) {
    let series: Vec<Series> = vec![
        ("orig", list_point::<Volatile>),
        ("nvt", list_point::<NvTraverse<MmapBackend>>),
        ("izr", list_point::<Izraelevitz<MmapBackend>>),
        ("onefile", tmlist_point),
    ];
    run_sweep(
        "fig5a: Linked-List, varying threads, 80% lookups, range 1024",
        "threads",
        &series,
        mode.threads_sweep()
            .into_iter()
            .map(|t| (t.to_string(), base_cfg(mode, t, 1024, 20)))
            .collect(),
    );
}

/// Figure 5(b): list, size sweep, 16 threads (scaled), 80% lookups.
pub fn fig5b(mode: Mode) {
    let series: Vec<Series> = vec![
        ("orig", list_point::<Volatile>),
        ("nvt", list_point::<NvTraverse<MmapBackend>>),
        ("izr", list_point::<Izraelevitz<MmapBackend>>),
        ("onefile", tmlist_point),
    ];
    let sizes = match mode {
        Mode::Quick => vec![256u64, 1024, 4096],
        Mode::Full => vec![256, 512, 1024, 2048, 4096, 8192],
    };
    run_sweep(
        "fig5b: Linked-List, varying range, max threads, 80% lookups",
        "range",
        &series,
        sizes
            .into_iter()
            .map(|r| (r.to_string(), base_cfg(mode, mode.max_threads(), r, 20)))
            .collect(),
    );
}

/// Figure 5(c): list, update-percentage sweep, 500 keys.
pub fn fig5c(mode: Mode) {
    let series: Vec<Series> = vec![
        ("orig", list_point::<Volatile>),
        ("nvt", list_point::<NvTraverse<MmapBackend>>),
        ("izr", list_point::<Izraelevitz<MmapBackend>>),
        ("onefile", tmlist_point),
    ];
    run_sweep(
        "fig5c: Linked-List, varying update %, max threads, range 1000",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), 1000, u)))
            .collect(),
    );
}

/// Figure 5(d): hash table, update sweep, 1M nodes (scaled).
pub fn fig5d(mode: Mode) {
    let series: Vec<Series> = vec![
        ("orig", hash_point::<Volatile>),
        ("nvt", hash_point::<NvTraverse<MmapBackend>>),
        ("izr", hash_point::<Izraelevitz<MmapBackend>>),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig5d: Hash-Table, varying update %, max threads, big",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );
}

/// Figure 5(e): both BSTs, update sweep, 1M nodes (scaled).
pub fn fig5e(mode: Mode) {
    let series: Vec<Series> = vec![
        ("orig-el", ellen_point::<Volatile>),
        ("nvt-el", ellen_point::<NvTraverse<MmapBackend>>),
        ("izr-el", ellen_point::<Izraelevitz<MmapBackend>>),
        ("orig-nm", nm_point::<Volatile>),
        ("nvt-nm", nm_point::<NvTraverse<MmapBackend>>),
        ("izr-nm", nm_point::<Izraelevitz<MmapBackend>>),
        ("onefile", tmbst_point),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig5e: BSTs (Ellen, Natarajan-Mittal), varying update %, big",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );
}

/// Figure 5(f): skiplist, update sweep, 1M nodes (scaled).
pub fn fig5f(mode: Mode) {
    let series: Vec<Series> = vec![
        ("orig", skip_point::<Volatile>),
        ("nvt", skip_point::<NvTraverse<MmapBackend>>),
        ("izr", skip_point::<Izraelevitz<MmapBackend>>),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig5f: Skip-List, varying update %, max threads, big",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );
}

/// Figure 6(g): list, thread sweep, 80% lookups, 8000 nodes (DRAM machine —
/// the link-and-persist competitor appears from here on).
pub fn fig6g(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", list_point::<NvTraverse<MmapBackend>>),
        ("izr", list_point::<Izraelevitz<MmapBackend>>),
        ("logfree", list_point::<LinkPersist<MmapBackend>>),
        ("onefile", tmlist_point),
    ];
    let r = match mode {
        Mode::Quick => 4096,
        Mode::Full => 16384,
    };
    run_sweep(
        "fig6g: Linked-List, varying threads, 80% lookups, large list",
        "threads",
        &series,
        mode.threads_sweep()
            .into_iter()
            .map(|t| (t.to_string(), base_cfg(mode, t, r, 20)))
            .collect(),
    );
}

/// Figure 6(h): list, update sweep, 8000 nodes, max threads.
pub fn fig6h(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", list_point::<NvTraverse<MmapBackend>>),
        ("izr", list_point::<Izraelevitz<MmapBackend>>),
        ("logfree", list_point::<LinkPersist<MmapBackend>>),
        ("onefile", tmlist_point),
    ];
    let r = match mode {
        Mode::Quick => 4096,
        Mode::Full => 16384,
    };
    run_sweep(
        "fig6h: Linked-List, varying update %, max threads, large list",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );
}

/// Figure 6(i): list, size sweep, max threads, 80% lookups.
pub fn fig6i(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", list_point::<NvTraverse<MmapBackend>>),
        ("logfree", list_point::<LinkPersist<MmapBackend>>),
    ];
    let sizes = match mode {
        Mode::Quick => vec![2048u64, 8192],
        Mode::Full => vec![2048, 4096, 8192, 16384, 32768],
    };
    run_sweep(
        "fig6i: Linked-List, varying range, max threads, 80% lookups",
        "range",
        &series,
        sizes
            .into_iter()
            .map(|r| (r.to_string(), base_cfg(mode, mode.max_threads(), r, 20)))
            .collect(),
    );
}

/// Figure 6(j): hash table, thread sweep, 80% lookups, 8M nodes (scaled).
pub fn fig6j(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", hash_point::<NvTraverse<MmapBackend>>),
        ("izr", hash_point::<Izraelevitz<MmapBackend>>),
        ("logfree", hash_point::<LinkPersist<MmapBackend>>),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig6j: Hash-Table, varying threads, 80% lookups, big",
        "threads",
        &series,
        mode.threads_sweep()
            .into_iter()
            .map(|t| (t.to_string(), base_cfg(mode, t, r, 20)))
            .collect(),
    );
}

/// Figure 6(k): hash table, update sweep, 8M nodes (scaled).
pub fn fig6k(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", hash_point::<NvTraverse<MmapBackend>>),
        ("izr", hash_point::<Izraelevitz<MmapBackend>>),
        ("logfree", hash_point::<LinkPersist<MmapBackend>>),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig6k: Hash-Table, varying update %, big",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );
}

/// Figure 6(l): hash table, size sweep, 20% updates.
pub fn fig6l(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", hash_point::<NvTraverse<MmapBackend>>),
        ("logfree", hash_point::<LinkPersist<MmapBackend>>),
    ];
    let base = mode.big_range();
    let sizes = vec![base / 4, base / 2, base, base * 2];
    run_sweep(
        "fig6l: Hash-Table, varying range, 20% updates",
        "range",
        &series,
        sizes
            .into_iter()
            .map(|r| (r.to_string(), base_cfg(mode, mode.max_threads(), r, 20)))
            .collect(),
    );
}

/// Figure 6(m): BSTs, update sweep, 8M nodes (scaled).
pub fn fig6m(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt-el", ellen_point::<NvTraverse<MmapBackend>>),
        ("izr-el", ellen_point::<Izraelevitz<MmapBackend>>),
        ("lf-el", ellen_point::<LinkPersist<MmapBackend>>),
        ("nvt-nm", nm_point::<NvTraverse<MmapBackend>>),
        ("izr-nm", nm_point::<Izraelevitz<MmapBackend>>),
        ("lf-nm", nm_point::<LinkPersist<MmapBackend>>),
        ("onefile", tmbst_point),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig6m: BSTs, varying update %, big",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );
}

/// Figure 6(n): skiplist, thread sweep, 20% updates, 8M nodes (scaled).
pub fn fig6n(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", skip_point::<NvTraverse<MmapBackend>>),
        ("izr", skip_point::<Izraelevitz<MmapBackend>>),
        ("logfree", skip_point::<LinkPersist<MmapBackend>>),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig6n: Skip-List, varying threads, 20% updates, big",
        "threads",
        &series,
        mode.threads_sweep()
            .into_iter()
            .map(|t| (t.to_string(), base_cfg(mode, t, r, 20)))
            .collect(),
    );
}

/// Figure 6(o): skiplist, update sweep, 8M nodes (scaled).
pub fn fig6o(mode: Mode) {
    let series: Vec<Series> = vec![
        ("nvt", skip_point::<NvTraverse<MmapBackend>>),
        ("logfree", skip_point::<LinkPersist<MmapBackend>>),
    ];
    let r = mode.big_range();
    run_sweep(
        "fig6o: Skip-List, varying update %, big",
        "update%",
        &series,
        upd_sweep()
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );
}

// ---- ablations -------------------------------------------------------------

/// Runs 2000 mixed operations (20% updates, range 2048, prefill 1024) on a
/// freshly built set over `MmapBackend` and returns the measured
/// `(flushes/op, fences/op)` — the instrumentation shared by `abl1` and
/// `soft_vs_nvt`.
fn count_ops<S: DurableSet<u64, u64>>(make: impl FnOnce() -> S) -> (f64, f64) {
    const OPS: u64 = 2_000;
    let cfg = Cfg {
        threads: 1,
        range: 2048,
        prefill: 1024,
        update_pct: 20,
        secs: 0.0,
        seed: 7,
    };
    let s = make();
    prefill(&s, &cfg);
    use rand::prelude::*;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Exact counts of this thread's instructions (zero under NVT_OBS=off).
    let (d, ()) = nvtraverse_obs::counted(|| {
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
    });
    (d.flushes as f64 / OPS as f64, d.fences as f64 / OPS as f64)
}

/// Counts flush/fence instructions per operation for each policy on each
/// structure (single-threaded, counted through `obs::counted`) — the quantity the whole
/// design minimizes, explaining every gap in Figures 5 and 6.
pub fn ablation_flushes(_mode: Mode) {
    println!("\n== abl1: persistence instructions per operation (range 2048, 20% updates) ==");
    println!(
        "{:>14}{:>12}{:>14}{:>14}",
        "structure", "policy", "flushes/op", "fences/op"
    );
    let rows: Vec<(&str, &str, (f64, f64))> = vec![
        ("list", "nvt", count_ops(HarrisList::<u64, u64, NvTraverse<MmapBackend>>::new)),
        ("list", "izr", count_ops(HarrisList::<u64, u64, Izraelevitz<MmapBackend>>::new)),
        ("list", "logfree", count_ops(HarrisList::<u64, u64, LinkPersist<MmapBackend>>::new)),
        ("hash", "nvt", count_ops(|| HashMapDs::<u64, u64, NvTraverse<MmapBackend>>::new(1024))),
        ("hash", "izr", count_ops(|| HashMapDs::<u64, u64, Izraelevitz<MmapBackend>>::new(1024))),
        ("hash", "logfree", count_ops(|| HashMapDs::<u64, u64, LinkPersist<MmapBackend>>::new(1024))),
        ("ellen-bst", "nvt", count_ops(EllenBst::<u64, u64, NvTraverse<MmapBackend>>::new)),
        ("ellen-bst", "izr", count_ops(EllenBst::<u64, u64, Izraelevitz<MmapBackend>>::new)),
        ("nm-bst", "nvt", count_ops(NmBst::<u64, u64, NvTraverse<MmapBackend>>::new)),
        ("nm-bst", "izr", count_ops(NmBst::<u64, u64, Izraelevitz<MmapBackend>>::new)),
        ("skiplist", "nvt", count_ops(SkipList::<u64, u64, NvTraverse<MmapBackend>>::new)),
        ("skiplist", "izr", count_ops(SkipList::<u64, u64, Izraelevitz<MmapBackend>>::new)),
    ];
    for (ds, policy, (fl, fe)) in rows {
        println!("{ds:>14}{policy:>12}{fl:>14.2}{fe:>14.2}");
        crate::json::record("abl1", policy, ds, "flushes_per_op", fl);
        crate::json::record("abl1", policy, ds, "fences_per_op", fe);
    }
}

/// Compares the two `ensureReachable` strategies of §4.1 on the list:
/// Supplement 2's original-parent field vs. the Lemma 4.1 current-parent
/// optimization.
pub fn ablation_parent(mode: Mode) {
    let series: Vec<Series> = vec![
        ("cur-parent", list_point::<NvTraverse<MmapBackend>>),
        ("orig-parent", list_orig_parent_point::<NvTraverse<MmapBackend>>),
    ];
    run_sweep(
        "abl2: ensureReachable strategy (Lemma 4.1 optimization vs Supplement 2 field)",
        "update%",
        &series,
        vec![0u32, 20, 50, 100]
            .into_iter()
            .map(|u| (u.to_string(), base_cfg(mode, mode.max_threads(), 2048, u)))
            .collect(),
    );
}

/// Head-to-head against the related-work system that flushes *less* than
/// NVTraverse: SOFT (Zuriel et al., OOPSLA 2019; `Soft<B>` policy +
/// `SoftList`/`SoftHash`) vs. the NVTraverse transformation vs. the
/// volatile upper bound, on the two structures the systems share.
///
/// Two sections per structure: a throughput update-% sweep, and the counted
/// persistence instructions per operation (the mechanism behind any gap —
/// SOFT pays one flush per update and none per lookup, NVTraverse flushes
/// the new node and the links it writes, plus any window line a write
/// still holds; `tests/persist_bounds.rs` pins the exact columns).
pub fn soft_vs_nvt(mode: Mode) {
    let list_series: Vec<Series> = vec![
        ("orig", list_point::<Volatile>),
        ("nvt", list_point::<NvTraverse<MmapBackend>>),
        ("soft", soft_list_point::<Soft<MmapBackend>>),
    ];
    run_sweep(
        "soft_vs_nvt: Linked-List, NVTraverse vs SOFT, varying update %, range 1024",
        "update%",
        &list_series,
        upd_sweep()
            .into_iter()
            .map(|u| (format!("list/{u}"), base_cfg(mode, mode.max_threads(), 1024, u)))
            .collect(),
    );

    let hash_series: Vec<Series> = vec![
        ("orig", hash_point::<Volatile>),
        ("nvt", hash_point::<NvTraverse<MmapBackend>>),
        ("soft", soft_hash_point::<Soft<MmapBackend>>),
    ];
    let r = mode.big_range();
    run_sweep(
        "soft_vs_nvt: Hash-Table, NVTraverse vs SOFT, varying update %, big",
        "update%",
        &hash_series,
        upd_sweep()
            .into_iter()
            .map(|u| (format!("hash/{u}"), base_cfg(mode, mode.max_threads(), r, u)))
            .collect(),
    );

    println!("\n== soft_vs_nvt: persistence instructions per operation ==");
    println!(
        "{:>14}{:>12}{:>14}{:>14}",
        "structure", "policy", "flushes/op", "fences/op"
    );
    let rows: Vec<(&str, &str, (f64, f64))> = vec![
        ("list", "nvt", count_ops(HarrisList::<u64, u64, NvTraverse<MmapBackend>>::new)),
        ("list", "soft", count_ops(SoftList::<u64, u64, Soft<MmapBackend>>::new)),
        ("hash", "nvt", count_ops(|| HashMapDs::<u64, u64, NvTraverse<MmapBackend>>::new(1024))),
        ("hash", "soft", count_ops(|| SoftHash::<u64, u64, Soft<MmapBackend>>::new(1024))),
    ];
    for (ds, policy, (fl, fe)) in rows {
        println!("{ds:>14}{policy:>12}{fl:>14.2}{fe:>14.2}");
        crate::json::record("soft_vs_nvt", policy, ds, "flushes_per_op", fl);
        crate::json::record("soft_vs_nvt", policy, ds, "fences_per_op", fe);
    }
}

// ---- persistency-sanitizer summary ---------------------------------------

/// Runs a fixed mixed workload against a set under the [`Vet`] sanitizer
/// and returns the report (same install-before-construction /
/// drop-before-finish discipline as `tests/vet_clean.rs`).
fn vet_point<S: DurableSet<u64, u64>>(make: impl FnOnce() -> S) -> nvtraverse_vet::VetReport {
    use nvtraverse_pmem::sim::SimHandle;
    use nvtraverse_vet::Vet;

    let sim = SimHandle::new();
    let _g = sim.enter();
    let vet = Vet::install(&sim);
    {
        let s = make();
        for k in 0..32u64 {
            vet.op("insert", || s.insert(k, k * 10));
        }
        for k in 0..48u64 {
            vet.op("get", || s.get(k));
        }
        for k in (0..32u64).step_by(2) {
            vet.op("remove", || s.remove(k));
        }
        for k in 0..16u64 {
            vet.op("insert", || s.insert(100 + k, k));
        }
    }
    vet.finish(&sim)
}

/// Persistency-sanitizer summary: every vet-clean structure × policy combo
/// runs a mixed workload under the `nvtraverse-vet` dynamic sanitizer on
/// the `Sim` backend, and the table reports finding counts per combo.
///
/// Errors must be zero (`tests/vet_clean.rs` enforces that per-combo with
/// reclaiming collectors); warn-level redundant-flush/fence counts are the
/// interesting trajectory — they measure how much slack the fence-elision
/// optimizations still leave on the table. `LinkPersist` is absent for the
/// same reason it is absent from the test matrix: its dirty-bit clear is
/// unpersisted by design, which word-granular tracking cannot tell apart
/// from a leak.
///
/// With `NVT_VET_REPORT=<path>` in the environment, the full per-combo
/// [`VetReport`](nvtraverse_vet::VetReport) JSON documents (counts, phases,
/// individual findings) are additionally written to `path` as one JSON
/// object — the vet-report artifact CI uploads next to the benchmark
/// points.
pub fn vet_summary(_mode: Mode) {
    use nvtraverse_vet::FindingKind;

    println!("\n== vet: sanitizer findings per structure x policy (Sim backend, fixed workload) ==");
    println!(
        "{:>14}{:>12}{:>8}{:>8}{:>8}{:>12}{:>12}",
        "structure", "policy", "ops", "errors", "warns", "red.flush", "red.fence"
    );

    type MkReport = fn() -> nvtraverse_vet::VetReport;
    let rows: Vec<(&str, &str, MkReport)> = vec![
        ("list", "nvt", || {
            vet_point(HarrisList::<u64, u64, NvTraverse<Sim>>::new)
        }),
        ("list", "izr", || {
            vet_point(HarrisList::<u64, u64, Izraelevitz<Sim>>::new)
        }),
        ("hash", "nvt", || {
            vet_point(|| HashMapDs::<u64, u64, NvTraverse<Sim>>::new(16))
        }),
        ("hash", "izr", || {
            vet_point(|| HashMapDs::<u64, u64, Izraelevitz<Sim>>::new(16))
        }),
        ("skiplist", "nvt", || {
            vet_point(SkipList::<u64, u64, NvTraverse<Sim>>::new)
        }),
        ("skiplist", "izr", || {
            vet_point(SkipList::<u64, u64, Izraelevitz<Sim>>::new)
        }),
        ("ellen-bst", "nvt", || {
            vet_point(EllenBst::<u64, u64, NvTraverse<Sim>>::new)
        }),
        ("ellen-bst", "izr", || {
            vet_point(EllenBst::<u64, u64, Izraelevitz<Sim>>::new)
        }),
        ("nm-bst", "nvt", || vet_point(NmBst::<u64, u64, NvTraverse<Sim>>::new)),
        ("nm-bst", "izr", || {
            vet_point(NmBst::<u64, u64, Izraelevitz<Sim>>::new)
        }),
        ("soft-list", "soft", || {
            vet_point(SoftList::<u64, u64, Soft<Sim>>::new)
        }),
        ("soft-hash", "soft", || {
            vet_point(|| SoftHash::<u64, u64, Soft<Sim>>::new(16))
        }),
    ];

    let mut artifact = String::from("{\n  \"reports\": [\n");
    for (i, (ds, policy, mk)) in rows.iter().enumerate() {
        let r = mk();
        let (rf, rff) = (
            r.count(FindingKind::RedundantFlush),
            r.count(FindingKind::RedundantFence),
        );
        println!(
            "{ds:>14}{policy:>12}{:>8}{:>8}{:>8}{rf:>12}{rff:>12}",
            r.ops,
            r.errors(),
            r.warnings()
        );
        crate::json::record("vet", policy, ds, "ops", r.ops as f64);
        crate::json::record("vet", policy, ds, "errors", r.errors() as f64);
        crate::json::record("vet", policy, ds, "warnings", r.warnings() as f64);
        crate::json::record("vet", policy, ds, "redundant_flush", rf as f64);
        crate::json::record("vet", policy, ds, "redundant_fence", rff as f64);
        artifact.push_str(&format!(
            "    {{\"structure\":\"{ds}\",\"policy\":\"{policy}\",\"report\":{}}}{}\n",
            r.to_json(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    artifact.push_str("  ]\n}\n");

    if let Ok(path) = std::env::var("NVT_VET_REPORT") {
        if !path.is_empty() {
            match std::fs::write(&path, &artifact) {
                Ok(()) => println!("vet report written to {path}"),
                Err(e) => eprintln!("vet report write to {path} failed: {e}"),
            }
        }
    }
}

/// Every figure id in run order.
pub const ALL_FIGURES: &[&str] = &[
    "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig6g", "fig6h", "fig6i", "fig6j",
    "fig6k", "fig6l", "fig6m", "fig6n", "fig6o", "abl1", "abl2", "soft_vs_nvt",
    "alloc_scaling", "pool_structs", "pool_shards", "persist_ops", "vet",
];

/// Runs one figure by id (or `all`).
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_figure(id: &str, mode: Mode) {
    match id {
        "fig5a" => fig5a(mode),
        "fig5b" => fig5b(mode),
        "fig5c" => fig5c(mode),
        "fig5d" => fig5d(mode),
        "fig5e" => fig5e(mode),
        "fig5f" => fig5f(mode),
        "fig6g" => fig6g(mode),
        "fig6h" => fig6h(mode),
        "fig6i" => fig6i(mode),
        "fig6j" => fig6j(mode),
        "fig6k" => fig6k(mode),
        "fig6l" => fig6l(mode),
        "fig6m" => fig6m(mode),
        "fig6n" => fig6n(mode),
        "fig6o" => fig6o(mode),
        "abl1" | "ablation-flushes" => ablation_flushes(mode),
        "abl2" | "ablation-parent" => ablation_parent(mode),
        "soft_vs_nvt" | "soft-vs-nvt" => soft_vs_nvt(mode),
        "alloc_scaling" | "alloc-scaling" => crate::alloc_scaling::run(mode),
        "pool_structs" | "pool-structs" => crate::pool_structs::run(mode),
        "pool_shards" | "pool-shards" => crate::pool_shards::run(mode),
        "persist_ops" | "persist-ops" => crate::persist_ops::run(mode),
        "vet" | "vet_summary" | "vet-summary" => vet_summary(mode),
        "all" => {
            for f in ALL_FIGURES {
                run_figure(f, mode);
            }
        }
        other => panic!("unknown figure id {other:?}; known: {ALL_FIGURES:?} or 'all'"),
    }
}
