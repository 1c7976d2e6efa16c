//! Tiny-scale self-test of the benchmark: every metric `BENCHMARK.json`
//! names is emitted with its unit, end-to-end metrics are never 0, and the
//! correctness gate counts an injected wrong answer as a failed operation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use crate::common::{END_TO_END, PER_LAYER};
use crate::{result_metrics, run, Args, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The value of `"key": "value"` on one line of BENCHMARK.json.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// `(name, unit)` of every metric listed under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let end = body[1..]
        .find("\"per_layer\"")
        .map_or(body.len(), |e| e + 1);
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?.to_string(), field(l, "unit")?.to_string())))
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn tiny(workload: &str, trace: bool, inject_fault: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: 7,
        seconds: 0.3,
        trace,
        tiny: true,
        inject_fault,
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let text = benchmark_json();
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\"")),
            "{w} not declared"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let outcome = run(&tiny(w, trace, false));
            assert_eq!(outcome.gate.failed, 0, "{w} trace={trace}: failed ops");
            assert!(
                outcome.gate.attempted > 0,
                "{w} trace={trace}: nothing attempted"
            );
            let emitted: Vec<(String, String)> = result_metrics(&outcome, trace)
                .into_iter()
                .map(|(n, v, u)| {
                    assert!(v.is_finite(), "{w}: {n} = {v}");
                    if !trace {
                        assert!(v > 0.0, "{w}: end-to-end metric {n} reads {v}");
                    }
                    (n.to_string(), u.to_string())
                })
                .collect();
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted, declared(section), "{w} trace={trace}");
        }
    }
}

#[test]
fn injected_wrong_answer_counts_as_failed() {
    for w in WORKLOADS {
        let outcome = run(&tiny(w, false, true));
        assert!(
            outcome.gate.failed >= 1 && outcome.gate.failed < outcome.gate.attempted,
            "{w}: {:?}",
            outcome.gate
        );
    }
}
