//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile_1m|serve_mixed|rewrite_star> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up several times (the
//! median is `setup_s`), measures for `--seconds`, checks every answer, and
//! prints report lines, a run manifest line and, last, one JSON result line
//! with `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs a fixed amount of work twice
//! (untraced, then traced under a scoped `od_obs` registry), prints the
//! self-time table and the tracing overhead, and reports the per-layer
//! metrics.  `--tiny` shrinks every input for smoke runs.  METRICS.md
//! defines every metric.

mod common;
mod profile;
mod rewrite;
#[cfg(test)]
mod selftest;
mod serve;

use common::{json_object, peak_rss_mib, result_line, Outcome, END_TO_END, PER_LAYER};

pub const WORKLOADS: &[&str] = &["profile_1m", "serve_mixed", "rewrite_star"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every input (smoke runs and the self-test).
    pub tiny: bool,
    /// Corrupt one answer before the correctness gate sees it (self-test).
    pub inject_fault: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject_fault: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = match args.workload.as_str() {
        "profile_1m" => profile::run(args),
        "serve_mixed" => serve::run(args),
        "rewrite_star" => rewrite::run(args),
        other => unreachable!("unvalidated workload {other}"),
    };
    outcome.set("peak_rss_mib", peak_rss_mib());
    outcome
}

/// The metrics of the result line, in catalogue order.  A per-layer metric
/// the workload never touched reads 0.
pub fn result_metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("workload did not measure end-to-end metric {name}"),
            };
            (name, value, unit)
        })
        .collect()
}

/// The commit of the checkout, read from `.git` without leaving it.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let metrics = result_metrics(&outcome, args.trace);
    let correct = outcome.gate.failed == 0 && outcome.gate.attempted > 0;

    for line in &outcome.report {
        println!("# {line}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut manifest = vec![
        ("workload", args.workload.clone()),
        ("commit", commit()),
        ("nproc", nproc.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("tiny", args.tiny.to_string()),
    ];
    manifest.extend(outcome.manifest.iter().cloned());
    println!("{{\"manifest\": {}}}", json_object(&manifest));
    println!("{}", result_line(outcome.gate, correct, &metrics));
}
