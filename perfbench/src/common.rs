//! Shared plumbing: metric catalogue, the correctness gate, percentiles,
//! digests, the span self-time table and the result line.

use od_obs::{DurationStat, MetricsSnapshot, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics: every workload emits each of them with `--trace 0`.
/// What "primary" and "secondary" mean on each workload is listed in
/// `perfbench/METRICS.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("primary_p50_ms", "ms"),
    ("primary_p90_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_p90_ms", "ms"),
];

/// Per-layer metrics: every workload emits each of them with `--trace 1`;
/// a layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // od-core
    ("od-core.encode_s", "s"),
    ("od-core.heap_mib", "MiB"),
    // od-setbased: timed calls (profile_1m)
    ("od-setbased.refine_s", "s"),
    ("od-setbased.product_l2_s", "s"),
    ("od-setbased.product_l3_s", "s"),
    ("od-setbased.product_l4_s", "s"),
    ("od-setbased.validate_l0_exact_s", "s"),
    ("od-setbased.validate_l0_approx_s", "s"),
    ("od-setbased.validate_l0_exact_share_pct", "%"),
    ("od-setbased.validate_l0_approx_share_pct", "%"),
    ("od-setbased.validate_l1_exact_s", "s"),
    ("od-setbased.validate_l1_approx_s", "s"),
    // od-setbased: the program's own span tree, per traced discovery pair
    ("od-setbased.level0.refine.self_s", "s"),
    ("od-setbased.level0.validate.self_s", "s"),
    ("od-setbased.level1.refine.self_s", "s"),
    ("od-setbased.level1.validate.self_s", "s"),
    ("od-setbased.level2.refine.self_s", "s"),
    ("od-setbased.level2.product.self_s", "s"),
    ("od-setbased.level2.validate.self_s", "s"),
    ("od-setbased.level3.refine.self_s", "s"),
    ("od-setbased.level3.product.self_s", "s"),
    ("od-setbased.level3.validate.self_s", "s"),
    ("od-setbased.level4.refine.self_s", "s"),
    ("od-setbased.level4.product.self_s", "s"),
    ("od-setbased.level4.validate.self_s", "s"),
    ("od-setbased.discovery.self_s", "s"),
    // od-setbased: LatticeStats of one discovery at each epsilon
    ("od-setbased.exact.candidates", "count"),
    ("od-setbased.exact.validated", "count"),
    ("od-setbased.exact.decider_pruned", "count"),
    ("od-setbased.exact.prune_ratio", "ratio"),
    ("od-setbased.exact.cache_misses", "count"),
    ("od-setbased.exact.peak_cached_partitions", "count"),
    ("od-setbased.exact.product_radix_passes", "count"),
    ("od-setbased.exact.decider_witness_hits", "count"),
    ("od-setbased.approx.candidates", "count"),
    ("od-setbased.approx.validated", "count"),
    ("od-setbased.approx.decider_pruned", "count"),
    ("od-setbased.approx.prune_ratio", "ratio"),
    ("od-setbased.approx.cache_misses", "count"),
    ("od-setbased.approx.peak_cached_partitions", "count"),
    ("od-setbased.approx.product_radix_passes", "count"),
    ("od-setbased.approx.decider_witness_hits", "count"),
    ("od-setbased.csr_mib", "MiB"),
    // od-setbased: stream ledgers behind the monitors (serve_mixed)
    ("od-setbased.stream.classes_touched", "count/delta"),
    ("od-setbased.stream.lis_invocations", "count/delta"),
    // od-infer
    ("od-infer.level0.decider.self_s", "s"),
    ("od-infer.level1.decider.self_s", "s"),
    ("od-infer.level2.decider.self_s", "s"),
    ("od-infer.level3.decider.self_s", "s"),
    ("od-infer.level4.decider.self_s", "s"),
    ("od-infer.implies_us", "us"),
    // od-discovery
    ("od-discovery.discover_ms", "ms"),
    ("od-discovery.monitor_apply_us", "us"),
    ("od-discovery.monitor_status_us", "us"),
    // od-server
    ("od-server.codec_us.read", "us"),
    ("od-server.codec_us.write", "us"),
    ("od-server.codec_us.profile", "us"),
    ("od-server.transport_us.read", "us"),
    ("od-server.transport_us.write", "us"),
    ("od-server.transport_us.profile", "us"),
    ("od-server.cache_hits", "count"),
    ("od-server.cache_misses", "count"),
    ("od-server.cache_invalidations", "count"),
    ("od-server.cache_hit_ratio", "ratio"),
    ("od-server.read_p99_us", "us"),
    ("od-server.write_p99_us", "us"),
    ("od-server.profile_p99_us", "us"),
    ("od-server.notifications_dropped", "count"),
    // od-optimizer
    ("od-optimizer.order_satisfies_us", "us"),
    // od-engine
    ("od-engine.index_probe_us", "us"),
    ("od-engine.rows_scanned", "count"),
    ("od-engine.partitions_scanned_frac", "ratio"),
    ("od-engine.query_p99_ms", "ms"),
    ("od-engine.baseline_query_p50_ms", "ms"),
];

/// Counts checked operations; a wrong answer, an error or a panic fails one.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The measured operations of one phase of a run, split into the workload's
/// two operation classes (see METRICS.md).
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub wall_s: f64,
    pub ops: u64,
    pub primary_ms: Vec<f64>,
    pub secondary_ms: Vec<f64>,
}

impl Phase {
    /// The phase's share of the end-to-end metrics (all but set-up and RSS).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut p = self.primary_ms.clone();
        let mut s = self.secondary_ms.clone();
        vec![
            ("throughput_per_s", self.ops as f64 / self.wall_s.max(1e-9)),
            ("primary_p50_ms", percentile(&mut p, 0.5)),
            ("primary_p90_ms", percentile(&mut p, 0.9)),
            ("secondary_p50_ms", percentile(&mut s, 0.5)),
            ("secondary_p90_ms", percentile(&mut s, 0.9)),
        ]
    }
}

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Until this instant, after at least one iteration.
    At(Instant),
    /// Exactly this many iterations.
    After(usize),
}

impl Stop {
    pub fn for_seconds(seconds: f64) -> Stop {
        Stop::At(Instant::now() + std::time::Duration::from_secs_f64(seconds))
    }

    /// Run iteration `done` (counted from 0)?
    pub fn more(self, done: usize) -> bool {
        match self {
            Stop::At(deadline) => done == 0 || Instant::now() < deadline,
            Stop::After(n) => done < n,
        }
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub gate: Gate,
    /// Metric name → value; units come from the catalogues above.
    pub metrics: BTreeMap<String, f64>,
    /// Run manifest entries (besides the ones `main` adds).
    pub manifest: Vec<(&'static str, String)>,
    /// Report lines printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Nearest-rank percentile (sorts in place); 0 for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median wall clock of `reps` calls of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Run `setup` `reps` times and keep the last result, handing each earlier
/// one to `teardown` before the next starts.  With `traced`, the last
/// repetition runs under the trace registry (inside a `setup` span) and its
/// time is returned separately from the untraced ones.
pub fn repeat_setup<T>(
    reps: usize,
    traced: Option<&Arc<Registry>>,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>, Option<f64>) {
    let untraced_reps = if traced.is_some() { reps - 1 } else { reps };
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..untraced_reps {
        if let Some(old) = kept.take() {
            teardown(old);
            release_free_heap();
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let mut traced_s = None;
    if let Some(reg) = traced {
        if let Some(old) = kept.take() {
            teardown(old);
            release_free_heap();
        }
        kept = Some(od_obs::scoped(Arc::clone(reg), || {
            let _s = od_obs::span("setup");
            let t = Instant::now();
            let out = setup();
            traced_s = Some(t.elapsed().as_secs_f64());
            out
        }));
    }
    (kept.expect("at least one set-up"), times, traced_s)
}

/// Hand the allocator's free pages back to the OS, so what one set-up
/// repetition freed does not stay resident and stack onto the next one's
/// peak RSS.  Without it, which thread arenas the repetitions' server threads
/// land in decided whether `serve_mixed` peaked at ~60 or ~85 MiB.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free memory to the OS;
        // it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Derive a workload-specific seed from the run seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over byte strings: the digest of a run's deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_debug(&mut self, value: &impl std::fmt::Debug) {
        self.add(format!("{value:?}").as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn peak_rss_mib() -> f64 {
    od_obs::peak_rss_kib().unwrap_or(0) as f64 / 1024.0
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Per-path span aggregate with self time (total minus direct children).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanRow {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub fn span_rows(durations: &BTreeMap<String, DurationStat>) -> BTreeMap<String, SpanRow> {
    let mut rows: BTreeMap<String, SpanRow> = durations
        .iter()
        .map(|(path, stat)| {
            let total_s = stat.total_nanos as f64 / 1e9;
            let row = SpanRow {
                count: stat.count,
                total_s,
                self_s: total_s,
            };
            (path.clone(), row)
        })
        .collect();
    for (path, stat) in durations {
        if let Some((parent, _)) = path.rsplit_once('/') {
            if let Some(row) = rows.get_mut(parent) {
                row.self_s -= stat.total_nanos as f64 / 1e9;
            }
        }
    }
    rows
}

/// Sum of self times over every span path ending in `suffix` (a whole
/// `/`-separated tail).
pub fn self_time_ending(rows: &BTreeMap<String, SpanRow>, suffix: &str) -> f64 {
    rows.iter()
        .filter(|(path, _)| *path == suffix || path.ends_with(&format!("/{suffix}")))
        .map(|(_, row)| row.self_s)
        .sum()
}

/// The self-time table: path, count, total, self and share of the root
/// span `root`.
fn self_time_table(snapshot: &MetricsSnapshot, root: &str) -> Vec<String> {
    let rows = span_rows(&snapshot.durations);
    let root_s = rows.get(root).map_or(0.0, |r| r.total_s).max(1e-12);
    let mut out = vec![
        format!("self-time table (root `{root}` = {root_s:.6} s wall)"),
        format!(
            "{:<64} {:>8} {:>12} {:>12} {:>8}",
            "path", "count", "total_s", "self_s", "%root"
        ),
    ];
    for (path, row) in &rows {
        out.push(format!(
            "{:<64} {:>8} {:>12.6} {:>12.6} {:>7.2}%",
            path,
            row.count,
            row.total_s,
            row.self_s,
            100.0 * row.self_s / root_s
        ));
    }
    out
}

/// The report of a traced run: the tracing overhead of every end-to-end
/// metric (same fixed work untraced and traced; set-up: median of the
/// untraced repetitions against the traced one) and the self-time table.
pub fn trace_report(
    registry: &Registry,
    untraced: &Phase,
    traced: &Phase,
    setup_untraced: &[f64],
    setup_traced: Option<f64>,
) -> Vec<String> {
    let mut base = untraced.metrics();
    base.push(("setup_s", median(&mut setup_untraced.to_vec())));
    let mut with = traced.metrics();
    with.push(("setup_s", setup_traced.unwrap_or(f64::NAN)));
    let mut out = overhead_table(&base, &with);
    out.extend(self_time_table(&registry.snapshot(), "perfbench"));
    out
}

fn overhead_table(untraced: &[(&str, f64)], traced: &[(&str, f64)]) -> Vec<String> {
    let mut out = vec![format!(
        "{:<20} {:>14} {:>14} {:>10}",
        "tracing overhead", "untraced", "traced", "change"
    )];
    for (name, base) in untraced {
        let Some((_, with)) = traced.iter().find(|(n, _)| n == name) else {
            continue;
        };
        out.push(format!(
            "{:<20} {:>14.6} {:>14.6} {:>9.2}%",
            name,
            base,
            with,
            100.0 * (with / base - 1.0)
        ));
    }
    out
}

/// Render the result line.  Values are printed in Rust's shortest exact
/// round-trip form, so no digit is lost.
pub fn result_line(gate: Gate, correct: bool, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

/// Render `(key, value)` pairs as a one-line JSON object of strings.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 5.0);
        assert_eq!(percentile(&mut v, 0.9), 9.0);
        assert_eq!(percentile(&mut v, 1.0), 10.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut d = BTreeMap::new();
        let stat = |ms: u64| DurationStat {
            count: 1,
            total_nanos: ms * 1_000_000,
            max_nanos: ms * 1_000_000,
        };
        d.insert("a".to_string(), stat(10));
        d.insert("a/b".to_string(), stat(6));
        d.insert("a/b/c".to_string(), stat(4));
        let rows = span_rows(&d);
        assert!((rows["a"].self_s - 0.004).abs() < 1e-12);
        assert!((rows["a/b"].self_s - 0.002).abs() < 1e-12);
        assert!((self_time_ending(&rows, "b/c") - 0.004).abs() < 1e-12);
    }
}
