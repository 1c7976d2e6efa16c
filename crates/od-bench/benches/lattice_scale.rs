//! E16 bench — partition products through the deep lattice: all ordered-pair
//! products of the per-attribute CSR partitions on the counting-kernel and
//! hash paths, and end-to-end width-4 discovery where every level ≥ 2
//! partition is a memoized kernel product.  Row counts stay moderate so the bench harness
//! finishes in CI time; the million-row numbers come from `reproduce -- e16`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_setbased::{
    discover_statements, ClassCodes, LatticeConfig, RefineScratch, StrippedPartition,
};
use od_workload::{scale_relation, SCALE_1M};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice_scale");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    for rows in [20_000usize, 100_000] {
        let cfg = SCALE_1M.with_rows(rows);
        let rel = scale_relation(&cfg);
        let arity = rel.schema().arity();
        let enc = rel.encoding();
        let mut scratch = RefineScratch::default();
        let parts: Vec<StrippedPartition> = (0..arity)
            .map(|i| StrippedPartition::by_codes_with(enc.codes(i), &mut scratch))
            .collect();
        let codes: Vec<ClassCodes> = parts.iter().map(StrippedPartition::class_codes).collect();

        group.bench_with_input(BenchmarkId::new("product_kernel", rows), &rows, |b, _| {
            b.iter(|| {
                let mut scratch = RefineScratch::default();
                let mut classes = 0usize;
                for (i, p) in parts.iter().enumerate() {
                    for (j, c) in codes.iter().enumerate() {
                        if i != j {
                            classes += p.product_with(c, &mut scratch).num_classes();
                        }
                    }
                }
                classes
            })
        });

        group.bench_with_input(BenchmarkId::new("product_hash", rows), &rows, |b, _| {
            b.iter(|| {
                let mut classes = 0usize;
                for (i, p) in parts.iter().enumerate() {
                    for (j, c) in codes.iter().enumerate() {
                        if i != j {
                            classes += p.product_hash(c).num_classes();
                        }
                    }
                }
                classes
            })
        });

        group.bench_with_input(BenchmarkId::new("discover_w4", rows), &rows, |b, _| {
            let config = LatticeConfig {
                max_context: 4,
                threads: 1,
                ..Default::default()
            };
            b.iter(|| {
                discover_statements(&rel, &config)
                    .minimal_statements()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
