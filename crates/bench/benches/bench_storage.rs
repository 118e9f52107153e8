//! Micro-benchmarks of the storage primitives behind sketches: bitvector
//! union/containment (the sketch algebra of §1) and fragment counters.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use imp_core::fragcount::FragCounts;
use imp_storage::BitVec;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

fn bench_bitvec(c: &mut Criterion) {
    let a = BitVec::from_bits(5000, (0..5000).step_by(7));
    let b = BitVec::from_bits(5000, (0..5000).step_by(11));
    c.bench_function("bitvec_union_5000", |bench| {
        bench.iter(|| black_box(a.union(&b)))
    });
    c.bench_function("bitvec_subset_5000", |bench| {
        bench.iter(|| black_box(a.is_subset(&b)))
    });
    c.bench_function("bitvec_iter_ones_5000", |bench| {
        bench.iter(|| black_box(a.iter_ones().count()))
    });
}

fn bench_fragcounts(c: &mut Criterion) {
    c.bench_function("fragcounts_small_updates", |bench| {
        bench.iter(|| {
            let mut f = FragCounts::new();
            for i in 0..8u32 {
                f.add(black_box(i), 1);
            }
            for i in 0..8u32 {
                f.add(black_box(i), -1);
            }
            black_box(f.len())
        })
    });
    c.bench_function("fragcounts_large_updates", |bench| {
        bench.iter(|| {
            let mut f = FragCounts::new();
            for i in 0..200u32 {
                f.add(black_box(i % 64), 1);
            }
            black_box(f.to_bits(64))
        })
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_bitvec, bench_fragcounts
}
criterion_main!(benches);
