//! E14 bench — the columnar core's three hot paths on the scale table:
//! relation build (dictionary encode included), all width-≤2 partition
//! refinements on code columns through the counting kernel, and end-to-end
//! width-2 discovery.  Row counts stay moderate so the bench harness
//! finishes in CI time; the full million-row numbers come from
//! `reproduce -- e14`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_setbased::{discover_statements, LatticeConfig, RefineScratch, StrippedPartition};
use od_workload::{scale_relation, SCALE_1M};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_scale");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    for rows in [20_000usize, 100_000] {
        let cfg = SCALE_1M.with_rows(rows);
        let rel = scale_relation(&cfg);
        let arity = rel.schema().arity();

        group.bench_with_input(BenchmarkId::new("build", rows), &rows, |b, _| {
            b.iter(|| scale_relation(&cfg).len())
        });

        group.bench_with_input(BenchmarkId::new("refine_kernel", rows), &rows, |b, _| {
            let enc = rel.encoding();
            b.iter(|| {
                let mut scratch = RefineScratch::default();
                let mut classes = 0usize;
                for i in 0..arity {
                    let p = StrippedPartition::by_codes_with(enc.codes(i), &mut scratch);
                    for j in 0..arity {
                        if i != j {
                            classes += p.refine_by_with(enc.codes(j), &mut scratch).num_classes();
                        }
                    }
                }
                classes
            })
        });

        group.bench_with_input(BenchmarkId::new("discover_w2", rows), &rows, |b, _| {
            let config = LatticeConfig {
                max_context: 2,
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
