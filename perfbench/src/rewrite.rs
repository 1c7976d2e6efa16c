//! `rewrite_star`: the paper's query-optimization use.  The 18-query
//! date-range suite over the generated star schema, each query planned with
//! the OD rewrite (`od-optimizer` + the `od-infer` decider in `OdRegistry`)
//! and executed by `od-engine`; the baseline (join) plans are the
//! correctness reference.

use crate::common::{
    median, median_secs, mix_seed, percentile, repeat_setup, trace_report, Digest, Gate, Outcome,
    Phase, Stop,
};
use crate::Args;
use od_core::AttrList;
use od_engine::{execute, Batch, Expr};
use od_obs::Registry;
use od_optimizer::same_results;
use od_workload::{build_warehouse, date_query_suite, SuiteQuery, Warehouse, WarehouseConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

const SETUP_REPS: usize = 5;
/// Query rounds of each phase of a traced run.
const TRACE_ROUNDS: usize = 20;

fn config(args: &Args) -> WarehouseConfig {
    let base = WarehouseConfig {
        seed: mix_seed(args.seed, 3),
        ..WarehouseConfig::default()
    };
    if args.tiny {
        WarehouseConfig {
            n_days: 400,
            fact_rows: 5_000,
            fact_partitions: 8,
            ..base
        }
    } else {
        base
    }
}

fn setup(cfg: WarehouseConfig) -> (Warehouse, Vec<SuiteQuery>) {
    let wh = build_warehouse(cfg);
    let suite = date_query_suite(&wh);
    (wh, suite)
}

/// One query: plan it with the rewrite, execute the plan.  `None` if
/// planning declined the rewrite or anything panicked.
fn run_query(
    wh: &mut Warehouse,
    q: &SuiteQuery,
) -> (Option<(Batch, od_engine::Metrics)>, f64, f64) {
    let t = Instant::now();
    let plan = catch_unwind(AssertUnwindSafe(|| {
        let _s = od_obs::span("plan");
        q.query.plan_optimized(&wh.catalog, &mut wh.registry)
    }))
    .ok()
    .flatten();
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let Some(plan) = plan else {
        return (None, plan_ms, 0.0);
    };
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _s = od_obs::span("execute");
        execute(&plan, &wh.catalog)
    }))
    .ok();
    (result, plan_ms, t.elapsed().as_secs_f64() * 1e3)
}

/// `od-engine` counts of one round of rewritten plans.
#[derive(Default)]
struct Round {
    rows_scanned: u64,
    partitions_scanned: u64,
    partitions_total: u64,
}

/// Run whole rounds of the suite until `stop`.
fn measure(
    wh: &mut Warehouse,
    suite: &[SuiteQuery],
    reference: &[Batch],
    stop: Stop,
    inject_fault: bool,
) -> (Phase, Gate, Option<Round>) {
    let mut phase = Phase::default();
    let mut gate = Gate::default();
    let mut first = None;
    let start = Instant::now();
    let mut done = 0usize;
    while stop.more(done) {
        let mut round = Round::default();
        for (i, q) in suite.iter().enumerate() {
            let (result, plan_ms, exec_ms) = run_query(wh, q);
            phase.secondary_ms.push(plan_ms);
            phase.primary_ms.push(exec_ms);
            // The check runs outside both timed calls.
            let ok = match result {
                Some((mut batch, m)) => {
                    if inject_fault && done == 0 && i == 0 {
                        batch.rows.pop();
                    }
                    round.rows_scanned += m.rows_scanned;
                    round.partitions_scanned += m.partitions_scanned;
                    round.partitions_total += m.partitions_total;
                    same_results(&batch, &reference[i])
                }
                None => false,
            };
            gate.record(ok);
        }
        first.get_or_insert(round);
        done += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.ops = (done * suite.len()) as u64;
    (phase, gate, first)
}

pub fn run(args: &Args) -> Outcome {
    let cfg = config(args);
    let registry = Arc::new(Registry::new());
    let traced = args.trace.then_some(&registry);
    let ((mut wh, suite), setup_times, setup_traced) =
        repeat_setup(SETUP_REPS, traced, || setup(cfg), drop);
    let mut out = Outcome::default();

    // The correctness reference: every query's baseline (join) plan.
    let mut baseline_ms = Vec::new();
    let reference: Vec<Batch> = suite
        .iter()
        .map(|q| {
            let plan = q.query.plan_baseline();
            let t = Instant::now();
            let (batch, _) = execute(&plan, &wh.catalog);
            baseline_ms.push(t.elapsed().as_secs_f64() * 1e3);
            batch
        })
        .collect();
    let mut digest = Digest::default();
    for batch in &reference {
        digest.add_debug(&batch.rows);
    }

    // Warm-up round: builds the registry's decider before anything is timed.
    let (_, warm_gate, _) = measure(&mut wh, &suite, &reference, Stop::After(1), false);

    let mut gate = warm_gate;
    let (phase, g, first) = if args.trace {
        let rounds = Stop::After(TRACE_ROUNDS);
        let (untraced, g1, first) = measure(&mut wh, &suite, &reference, rounds, false);
        let (traced, g2, _) = od_obs::scoped(Arc::clone(&registry), || {
            let _root = od_obs::span("perfbench");
            let m = {
                let _s = od_obs::span("queries");
                measure(&mut wh, &suite, &reference, rounds, false)
            };
            probe_layers(&mut out, &mut wh, &suite);
            m
        });
        gate.merge(g1);
        let report = trace_report(&registry, &untraced, &traced, &setup_times, setup_traced);
        out.report.extend(report);
        (untraced, g2, first)
    } else {
        let stop = Stop::for_seconds(args.seconds);
        measure(&mut wh, &suite, &reference, stop, args.inject_fault)
    };
    gate.merge(g);
    out.gate = gate;

    for (name, value) in phase.metrics() {
        out.set(name, value);
    }
    out.set("setup_s", median(&mut setup_times.clone()));
    if args.trace {
        let fact = wh.catalog.table("store_sales").expect("fact table");
        let dim = wh.catalog.table("date_dim").expect("dimension table");
        let heap = fact.relation.approx_heap_bytes() + dim.relation.approx_heap_bytes();
        out.set("od-core.heap_mib", heap as f64 / crate::common::MIB);
        let encode = registry
            .snapshot()
            .durations
            .iter()
            .filter(|(p, _)| p.starts_with("setup/") && p.ends_with("relation.encode"))
            .map(|(_, d)| d.total_nanos as f64 / 1e9)
            .sum::<f64>();
        out.set("od-core.encode_s", encode);
        if let Some(r) = first {
            out.set("od-engine.rows_scanned", r.rows_scanned as f64);
            out.set(
                "od-engine.partitions_scanned_frac",
                r.partitions_scanned as f64 / r.partitions_total.max(1) as f64,
            );
        }
        let mut exec = phase.primary_ms.clone();
        out.set("od-engine.query_p99_ms", percentile(&mut exec, 0.99));
        out.set("od-engine.baseline_query_p50_ms", median(&mut baseline_ms));
    }
    let rows = wh.catalog.table("store_sales").map_or(0, |t| t.row_count());
    out.manifest = vec![
        ("discovery_threads", "0".into()),
        ("clients", "0".into()),
        ("rows", rows.to_string()),
        ("queries", suite.len().to_string()),
        ("digest", digest.hex()),
    ];
    out.report.push(format!(
        "rewrite_star: {rows} fact rows, {} queries in {:.3} s, execute p50 {:.3} ms, plan p50 {:.3} ms, baseline p50 {:.3} ms",
        phase.ops,
        phase.wall_s,
        out.metrics["primary_p50_ms"],
        out.metrics["secondary_p50_ms"],
        median(&mut baseline_ms),
    ));
    out
}

/// Time the optimizer's implication test and the engine's index probe, the
/// two calls a rewritten plan is built from.
fn probe_layers(out: &mut Outcome, wh: &mut Warehouse, suite: &[SuiteQuery]) {
    let _s = od_obs::span("probe");
    let q = &suite[0].query;
    let sk = AttrList::new([q.dim_sk]);
    let date = AttrList::new([q.dim_date]);
    let order_us = {
        let _s = od_obs::span("order_satisfies");
        1e6 * median_secs(501, || {
            std::hint::black_box(wh.registry.order_satisfies(&q.dim, &sk, &date));
        })
    };
    out.set("od-optimizer.order_satisfies_us", order_us);

    let dim = wh.catalog.table(&q.dim).expect("dimension table");
    let index = dim.index_on_leading(q.dim_sk).expect("surrogate-key index");
    let mut probe_us = Vec::new();
    let _s = od_obs::span("index_probe");
    for sq in suite {
        let pred = Expr::col(sq.query.dim_date).between(
            Expr::lit(sq.query.date_lo.clone()),
            Expr::lit(sq.query.date_hi.clone()),
        );
        probe_us.push(
            1e6 * median_secs(11, || {
                std::hint::black_box(index.min_max_matching(&dim.relation, &pred));
            }),
        );
    }
    out.set("od-engine.index_probe_us", median(&mut probe_us));
}
