//! Criterion micro-benchmarks: the raw cost of the persistence primitives
//! and of single operations under each durability policy.
//!
//! These quantify the building blocks behind the figures: a flush+fence pair
//! costs tens to hundreds of nanoseconds, which is why a transformation that
//! issues O(1) of them per operation (NVTraverse) beats one that issues one
//! pair per shared access (Izraelevitz et al.).

use criterion::{criterion_group, criterion_main, Criterion};
use nvtraverse::policy::{Izraelevitz, LinkPersist, NvTraverse, Volatile};
use nvtraverse::DurableSet;
use nvtraverse_pmem::{Backend, MmapBackend, PCell};
use nvtraverse_structures::list::HarrisList;
use std::hint::black_box;

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    let cell: PCell<u64, MmapBackend> = PCell::new(1);

    g.bench_function("clwb_flush_only", |b| {
        b.iter(|| {
            cell.store(black_box(2));
            MmapBackend::flush(cell.addr());
        })
    });
    g.bench_function("clwb_flush_fence", |b| {
        b.iter(|| {
            cell.store(black_box(2));
            MmapBackend::flush(cell.addr());
            MmapBackend::fence();
        })
    });
    g.bench_function("fence_only", |b| b.iter(MmapBackend::fence));
    g.finish();
}

fn bench_list_single_op(c: &mut Criterion) {
    let mut g = c.benchmark_group("list_single_op");
    const N: u64 = 512;

    macro_rules! per_policy {
        ($name:literal, $d:ty) => {
            let list: HarrisList<u64, u64, $d> = HarrisList::new();
            for k in 0..N {
                list.insert(k * 2, k);
            }
            g.bench_function(concat!($name, "_lookup"), |b| {
                let mut k = 1u64;
                b.iter(|| {
                    k = (k + 7) % (2 * N);
                    black_box(list.get(black_box(k)))
                })
            });
            g.bench_function(concat!($name, "_insert_remove"), |b| {
                b.iter(|| {
                    list.insert(black_box(N + 1), 0);
                    list.remove(black_box(N + 1))
                })
            });
        };
    }

    per_policy!("volatile", Volatile);
    per_policy!("nvtraverse", NvTraverse<MmapBackend>);
    per_policy!("izraelevitz", Izraelevitz<MmapBackend>);
    per_policy!("link_persist", LinkPersist<MmapBackend>);
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_millis(700)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_primitives, bench_list_single_op
}
criterion_main!(benches);
