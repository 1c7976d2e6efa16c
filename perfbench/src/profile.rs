//! `profile_1m`: width-4 set-based discovery over `SCALE_1M` with two
//! threads, at ε = 0 (decider on, budget 0) and ε = 0.01 (budget ⌊0.01·n⌋,
//! decider inert), on one encoded relation.

use crate::common::{
    median, mix_seed, repeat_setup, self_time_ending, span_rows, trace_report, Digest, Gate,
    Outcome, Phase, Stop, MIB,
};
use crate::Args;
use od_core::check::{od_evidence, od_holds};
use od_core::{AttrId, AttrSet, Relation};
use od_obs::Registry;
use od_setbased::validate::statement_verdict;
use od_setbased::{
    discover_statements, error_budget, LatticeConfig, LatticeStats, PartitionCache, RefineScratch,
    SetBasedDiscovery, SetOd, StrippedPartition,
};
use od_workload::scale::{generate_scale_rows, scale_schema, ScaleConfig, SCALE_1M};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const THREADS: usize = 2;
const WIDTH: usize = 4;
const APPROX_EPSILON: f64 = 0.01;
const SETUP_REPS: usize = 3;

fn lattice(epsilon: f64) -> LatticeConfig {
    LatticeConfig {
        max_context: WIDTH,
        threads: THREADS,
        epsilon,
        ..LatticeConfig::default()
    }
}

fn scale_config(args: &Args) -> ScaleConfig {
    SCALE_1M.with_rows(if args.tiny { 20_000 } else { SCALE_1M.rows })
}

/// Generate the `SCALE_1M` rows (od-workload) in an order drawn from `seed`
/// and encode them (od-core); returns the relation and the encode time.
///
/// The seed permutes the preset's rows rather than re-drawing them: the
/// lattice's shape (which contexts are keys, which statements hold) turns
/// on a few chance collisions in the near-unique columns, so re-drawn
/// tables differ in work by ±20% and would drown a real change.
fn build(cfg: &ScaleConfig, seed: u64) -> (Relation, f64) {
    let mut rows = generate_scale_rows(cfg);
    for i in (1..rows.len()).rev() {
        rows.swap(i, (mix_seed(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    let t = Instant::now();
    let rel = Relation::from_rows(scale_schema(), rows).expect("scale rows fit their schema");
    (rel, t.elapsed().as_secs_f64())
}

/// One discovery: its result (an `Err` if it panicked) and wall clock.
fn discover(rel: &Relation, epsilon: f64) -> (Option<SetBasedDiscovery>, f64) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        discover_statements(rel, &lattice(epsilon))
    }))
    .ok();
    (out, t.elapsed().as_secs_f64())
}

/// Re-check every accepted statement against the sort-based oracle of
/// `od_core::check`: exact satisfaction at budget 0, removal count within
/// the budget otherwise.  Two threads share the statements.
fn oracle_accepts(rel: &Relation, statements: &[SetOd], budget: usize) -> bool {
    // A compatibility statement's two list ODs (`CAB ↦ CBA` and back) admit
    // no splits and share their swaps, so the first decides the statement
    // and carries its removal count.
    let check = |stmt: &SetOd| {
        let od = &stmt.as_list_ods()[0];
        if budget == 0 {
            od_holds(rel, od)
        } else {
            od_evidence(rel, od, 0).removal_count <= budget
        }
    };
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut ok = true;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(stmt) = statements.get(i) else {
                return ok;
            };
            ok &= check(stmt);
        }
    };
    std::thread::scope(|s| {
        let other = s.spawn(worker);
        let here = worker();
        here & other.join().unwrap_or(false)
    })
}

/// The reference result of one ε: the first discovery's statements and
/// stats, and whether the oracle accepted every statement.
struct Reference {
    statements: Vec<SetOd>,
    stats: LatticeStats,
    sound: bool,
}

/// One finished discovery: its minimal statements, stats and budget.
type Found = (Vec<SetOd>, LatticeStats, usize);

/// Gate the discoveries of one ε — each must have finished and found the
/// reference's statement set — and return the oracle-checked reference (the
/// first finished discovery).
fn gate_discoveries(
    rel: &Relation,
    results: &[Option<Found>],
    gate: &mut Gate,
) -> Option<Reference> {
    let reference = results
        .iter()
        .flatten()
        .next()
        .map(|(stmts, stats, budget)| Reference {
            statements: stmts.clone(),
            stats: *stats,
            sound: oracle_accepts(rel, stmts, *budget),
        });
    for result in results {
        let ok = match (result, &reference) {
            (Some((stmts, ..)), Some(r)) => r.sound && *stmts == r.statements,
            _ => false,
        };
        gate.record(ok);
    }
    reference
}

/// Alternate ε = 0 and ε = 0.01 discoveries until `stop`.  Returns the
/// phase and every discovery's output per ε.
fn measure(rel: &Relation, stop: Stop) -> (Phase, [Vec<Option<Found>>; 2]) {
    let mut phase = Phase::default();
    let mut outputs: [Vec<Option<Found>>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut done = 0usize;
    while stop.more(done) {
        for (k, epsilon) in [0.0, APPROX_EPSILON].into_iter().enumerate() {
            let _s = od_obs::span(if k == 0 {
                "discover_exact"
            } else {
                "discover_approx"
            });
            let (found, secs) = discover(rel, epsilon);
            if k == 0 {
                phase.primary_ms.push(secs * 1e3);
            } else {
                phase.secondary_ms.push(secs * 1e3);
            }
            outputs[k].push(found.map(|d| (d.minimal_statements().to_vec(), d.stats, d.budget())));
        }
        done += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.ops = (2 * done) as u64;
    (phase, outputs)
}

pub fn run(args: &Args) -> Outcome {
    let cfg = scale_config(args);
    let registry = Arc::new(Registry::new());
    let traced = args.trace.then_some(&registry);
    let mut encode_times = Vec::new();
    let (rel, setup_times, setup_traced) = repeat_setup(
        SETUP_REPS,
        traced,
        || {
            let (rel, encode_s) = build(&cfg, args.seed);
            encode_times.push(encode_s);
            rel
        },
        drop,
    );
    let mut out = Outcome::default();

    // One untimed warm-up pair first: it touches the memory every later
    // discovery reuses.  Its outputs are gated like the timed ones.
    let (_, mut outputs) = measure(&rel, Stop::After(1));

    // With tracing: one untraced pair, then one traced pair and the layer
    // probes under the scoped registry.  Without: pairs for `seconds`.
    let mut probes = None;
    let (phase, more, traced_phase) = if args.trace {
        let (untraced, mut outputs) = measure(&rel, Stop::After(1));
        let (traced, more) = od_obs::scoped(Arc::clone(&registry), || {
            let _root = od_obs::span("perfbench");
            let m = measure(&rel, Stop::After(1));
            probes = Some(probe_layers(&rel));
            m
        });
        for (k, more) in more.into_iter().enumerate() {
            outputs[k].extend(more);
        }
        (untraced, outputs, Some(traced))
    } else {
        let (phase, outputs) = measure(&rel, Stop::for_seconds(args.seconds));
        (phase, outputs, None)
    };
    for (k, more) in more.into_iter().enumerate() {
        outputs[k].extend(more);
    }
    if args.inject_fault {
        // Drop one statement from the last ε = 0 discovery.
        if let Some(Some((stmts, ..))) = outputs[0].last_mut() {
            stmts.pop();
        }
    }

    // The correctness gate, outside every timed region.
    let mut gate = Gate::default();
    let mut digest = Digest::default();
    let refs: Vec<Option<Reference>> = outputs
        .iter()
        .map(|results| gate_discoveries(&rel, results, &mut gate))
        .collect();
    for r in refs.iter().flatten() {
        digest.add_debug(&r.statements);
    }
    out.gate = gate;

    for (name, value) in phase.metrics() {
        out.set(name, value);
    }
    out.set("setup_s", median(&mut setup_times.clone()));
    if let (Some(traced), Some(probes)) = (traced_phase, probes) {
        layer_metrics(&mut out, &registry, &refs, &probes, &phase, &rel);
        out.set("od-core.encode_s", median(&mut encode_times));
        let report = trace_report(&registry, &phase, &traced, &setup_times, setup_traced);
        out.report.extend(report);
    }

    let counts: Vec<String> = refs
        .iter()
        .map(|r| r.as_ref().map_or(0, |r| r.statements.len()).to_string())
        .collect();
    out.manifest = vec![
        ("discovery_threads", THREADS.to_string()),
        ("clients", "0".into()),
        ("rows", rel.len().to_string()),
        ("width", WIDTH.to_string()),
        (
            "budgets",
            format!("0,{}", error_budget(rel.len(), APPROX_EPSILON)),
        ),
        ("minimal_statements", counts.join(",")),
        ("digest", digest.hex()),
    ];
    out.report.push(format!(
        "profile_1m: {} rows, {} discoveries in {:.3} s, exact p50 {:.1} ms, approx p50 {:.1} ms",
        rel.len(),
        phase.ops,
        phase.wall_s,
        out.metrics["primary_p50_ms"],
        out.metrics["secondary_p50_ms"]
    ));
    let list = |v: &[f64]| {
        v.iter()
            .map(|ms| format!("{ms:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.report.push(format!(
        "exact discoveries (ms): {}",
        list(&phase.primary_ms)
    ));
    out.report.push(format!(
        "approx discoveries (ms): {}",
        list(&phase.secondary_ms)
    ));
    out
}

/// Wall clock of the layer probes (each wrapped in its own span).
#[derive(Debug, Default)]
struct Probes {
    refine_s: f64,
    product_s: [f64; 3],
    validate_l0_s: [f64; 2],
    validate_l1_s: [f64; 2],
}

fn attrs(rel: &Relation) -> Vec<AttrId> {
    (0..rel.schema().arity() as u32).map(AttrId).collect()
}

/// All `k`-subsets of `attrs`.
fn subsets(attrs: &[AttrId], k: usize) -> Vec<AttrSet> {
    (0u32..1 << attrs.len())
        .filter(|mask| mask.count_ones() as usize == k)
        .map(|mask| {
            let picked = attrs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
            picked.map(|(_, &a)| a).collect()
        })
        .collect()
}

/// Time the od-setbased layer calls one at a time, from outside.
fn probe_layers(rel: &Relation) -> Probes {
    let _s = od_obs::span("probe");
    let attrs = attrs(rel);
    let mut p = Probes::default();
    let mut cache = PartitionCache::new(rel);

    // Level-1 refinement: bucket each attribute's code column.
    {
        let _s = od_obs::span("refine");
        let mut scratch = RefineScratch::default();
        let codes: Vec<_> = attrs.iter().map(|&a| cache.codes(a)).collect();
        let t = Instant::now();
        for c in &codes {
            std::hint::black_box(StrippedPartition::by_codes_with(c, &mut scratch));
        }
        p.refine_s = t.elapsed().as_secs_f64();
    }

    // Level 2–4 products, level by level, evicting as the lattice does.
    for a in &attrs {
        cache.partition(&AttrSet::singleton(*a));
    }
    for k in 2..=WIDTH.min(attrs.len()) {
        let _s = od_obs::span(format!("product_l{k}"));
        let sets = subsets(&attrs, k);
        let t = Instant::now();
        for set in &sets {
            cache.partition(set);
        }
        p.product_s[k - 2] = t.elapsed().as_secs_f64();
        cache.evict_sets_of_size(k - 1);
    }
    drop(cache);

    // Level-0 and level-1 statement validation at both budgets.
    let mut cache = PartitionCache::new(rel);
    let budgets = [0, error_budget(rel.len(), APPROX_EPSILON)];
    let empty = AttrSet::new();
    let mut level0 = Vec::new();
    for (i, &a) in attrs.iter().enumerate() {
        for &b in &attrs[i + 1..] {
            level0.push(SetOd::compatibility(empty, a, b));
        }
    }
    let mut level1 = Vec::new();
    for &c in &attrs {
        let ctx = AttrSet::singleton(c);
        cache.partition(&ctx);
        let rest: Vec<AttrId> = attrs.iter().copied().filter(|&a| a != c).collect();
        for (i, &a) in rest.iter().enumerate() {
            level1.push(SetOd::constancy(ctx, a));
            for &b in &rest[i + 1..] {
                level1.push(SetOd::compatibility(ctx, a, b));
            }
        }
    }
    for (k, &budget) in budgets.iter().enumerate() {
        let label = if k == 0 { "exact" } else { "approx" };
        for (level, stmts, slot) in [
            (0, &level0, &mut p.validate_l0_s[k]),
            (1, &level1, &mut p.validate_l1_s[k]),
        ] {
            let _s = od_obs::span(format!("validate_l{level}_{label}"));
            let t = Instant::now();
            for stmt in stmts.iter() {
                std::hint::black_box(statement_verdict(&mut cache, stmt, THREADS, budget));
            }
            *slot = t.elapsed().as_secs_f64();
        }
    }
    p
}

fn layer_metrics(
    out: &mut Outcome,
    registry: &Registry,
    refs: &[Option<Reference>],
    p: &Probes,
    untraced: &Phase,
    rel: &Relation,
) {
    out.set("od-core.heap_mib", rel.approx_heap_bytes() as f64 / MIB);
    out.set("od-setbased.refine_s", p.refine_s);
    for k in 2..=4 {
        out.set(&format!("od-setbased.product_l{k}_s"), p.product_s[k - 2]);
    }
    // Share of the untraced discovery of the same ε (the stated base).
    let base = [
        untraced.primary_ms.first().copied().unwrap_or(f64::NAN) / 1e3,
        untraced.secondary_ms.first().copied().unwrap_or(f64::NAN) / 1e3,
    ];
    for (k, label) in ["exact", "approx"].into_iter().enumerate() {
        out.set(
            &format!("od-setbased.validate_l0_{label}_s"),
            p.validate_l0_s[k],
        );
        out.set(
            &format!("od-setbased.validate_l1_{label}_s"),
            p.validate_l1_s[k],
        );
        out.set(
            &format!("od-setbased.validate_l0_{label}_share_pct"),
            100.0 * p.validate_l0_s[k] / base[k],
        );
        out.report.push(format!(
            "validate_l0_{label}: {:.4} s = {:.1}% of one untraced width-4 discovery at the same epsilon ({:.4} s)",
            p.validate_l0_s[k],
            100.0 * p.validate_l0_s[k] / base[k],
            base[k]
        ));
    }

    // Only the traced discovery pair opens `discovery` spans, so these sum
    // over exactly that pair.
    let rows = span_rows(&registry.snapshot().durations);
    let pair = |suffix: &str| self_time_ending(&rows, suffix);
    for level in 0..=4 {
        let phases: &[&str] = if level < 2 {
            &["refine", "validate"]
        } else {
            &["refine", "product", "validate"]
        };
        for phase in phases {
            let suffix = match *phase {
                "product" => format!("discovery/level{level}/refine/product"),
                other => format!("discovery/level{level}/{other}"),
            };
            out.set(
                &format!("od-setbased.level{level}.{phase}.self_s"),
                pair(&suffix),
            );
        }
        out.set(
            &format!("od-infer.level{level}.decider.self_s"),
            pair(&format!("discovery/level{level}/decider")),
        );
    }
    out.set("od-setbased.discovery.self_s", pair("discovery"));
    out.set(
        "od-setbased.csr_mib",
        registry.gauge_value("partition.csr_bytes") as f64 / MIB,
    );
    for (r, label) in refs.iter().zip(["exact", "approx"]) {
        let Some(r) = r else { continue };
        let s = &r.stats;
        let name = |m: &str| format!("od-setbased.{label}.{m}");
        out.set(&name("candidates"), s.candidates as f64);
        out.set(&name("validated"), s.validated as f64);
        out.set(&name("decider_pruned"), s.decider_pruned as f64);
        out.set(
            &name("prune_ratio"),
            s.decider_pruned as f64 / (s.candidates.max(1)) as f64,
        );
        out.set(&name("cache_misses"), s.cache_misses as f64);
        out.set(
            &name("peak_cached_partitions"),
            s.peak_cached_partitions as f64,
        );
        out.set(&name("product_radix_passes"), s.product_radix_passes as f64);
        out.set(&name("decider_witness_hits"), s.decider_witness_hits as f64);
    }
}
