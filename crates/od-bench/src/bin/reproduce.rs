//! `reproduce` — regenerate every figure and quantitative claim of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p od-bench --bin reproduce                    # all experiments
//! cargo run --release -p od-bench --bin reproduce -- e4              # a single experiment (e1..e9, e12..e16)
//! cargo run --release -p od-bench --bin reproduce -- --tiny          # small data sizes (quick smoke run)
//! cargo run --release -p od-bench --bin reproduce -- e13 --max-context 5
//! #                       deepest lattice level for E13 (default 4)
//! cargo run --release -p od-bench --bin reproduce -- e12 e13 --metrics-out out/
//! #                       also write BENCH_<exp>.json canonical-metrics artifacts
//! cargo run --release -p od-bench --bin reproduce -- e14 --rows 250000
//! #                       rows for the E14 columnar-scale table (default 1M; --tiny 20k)
//! cargo run --release -p od-bench --bin reproduce -- e15 --metrics-out out/
//! #                       service-layer load over loopback TCP (throughput, latency
//! #                       percentiles, pub/sub flips, max-capacity saturation knee)
//! cargo run --release -p od-bench --bin reproduce -- e16 --rows 1000000
//! #                       partition products (hash vs comparison vs radix CSR) and
//! #                       width-2/3/4 discovery on the scale table (--rows as in e14)
//! ```
//!
//! An unknown experiment id or option is rejected with a usage message and
//! exit status 2.

use od_bench::*;

/// Every experiment id the harness runs, in run order.
const EXPERIMENTS: [&str; 14] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e12", "e13", "e14", "e15", "e16",
];

/// Reject the command line with `message` and exit code 2 — an unknown
/// experiment id or option must not silently run nothing and succeed.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: reproduce [EXPERIMENT...] [--tiny] [--max-context N] [--metrics-out DIR] \
         [--rows N]\nexperiments: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// The numeric value following `flag`, or a usage error citing `example`.
fn numeric_value(value: Option<String>, flag: &str, example: &str) -> usize {
    match value.map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => n,
        _ => usage_error(&format!(
            "{flag} requires a numeric value, e.g. {flag} {example}"
        )),
    }
}

fn main() {
    let mut tiny = false;
    // `--max-context N` passes the lattice depth through to E13.
    let mut max_context = 4;
    // `--metrics-out DIR` captures E12–E16 under a scoped registry and writes
    // `BENCH_<experiment>.json` (full) plus `.deterministic.json` (the
    // run-comparable section) into DIR, creating it if needed.
    let mut metrics_out: Option<std::path::PathBuf> = None;
    // `--rows N` sizes the E14/E16 scale table (default 1M full, 20k tiny).
    let mut rows: Option<usize> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tiny" => tiny = true,
            "--max-context" => max_context = numeric_value(args.next(), &arg, "4"),
            "--rows" => rows = Some(numeric_value(args.next(), &arg, "250000")),
            "--metrics-out" => match args.next() {
                Some(dir) if !dir.starts_with("--") => metrics_out = Some(dir.into()),
                _ => usage_error("--metrics-out requires a directory, e.g. --metrics-out out/"),
            },
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            id => {
                let id = id.to_lowercase();
                if !EXPERIMENTS.contains(&id.as_str()) {
                    usage_error(&format!("unknown experiment {id}"));
                }
                selected.push(id);
            }
        }
    }
    let scale = if tiny {
        ExperimentScale::tiny()
    } else {
        ExperimentScale::default()
    };
    let scale_rows = rows.unwrap_or(if tiny { 20_000 } else { 1_000_000 });
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    println!("Reproduction harness — 'Fundamentals of Order Dependencies' (VLDB 2012)");
    println!("scale: {scale:?}\n");

    if want("e1") {
        println!("{}", exp_e1_figure1());
    }
    if want("e2") {
        println!("{}", exp_e2_dates(scale));
    }
    if want("e3") {
        println!("{}", exp_e3_example1(scale));
    }
    if want("e4") {
        let (report, _) = exp_e4_tpcds(scale);
        println!("{report}");
    }
    if want("e5") {
        println!("{}", exp_e5_tax(scale));
    }
    if want("e6") {
        println!("{}", exp_e6_soundness());
    }
    if want("e7") {
        println!("{}", exp_e7_witness());
    }
    if want("e8") {
        println!("{}", exp_e8_fd_subsumption());
    }
    if want("e9") {
        println!("{}", exp_e9_implication());
    }
    if want("e12") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e12_width3_with_metrics(scale);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e12_width3(scale)),
        }
    }
    if want("e13") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e13_width4_with_metrics(scale, max_context);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e13_width4(scale, max_context)),
        }
    }
    if want("e14") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e14_columnar_with_metrics(scale_rows);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e14_columnar(scale_rows)),
        }
    }
    if want("e15") {
        let config = if tiny {
            LoadConfig::tiny()
        } else {
            LoadConfig::default()
        };
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e15_server_load_with_metrics(config);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e15_server_load(config)),
        }
    }
    if want("e16") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e16_lattice_with_metrics(scale_rows);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e16_lattice(scale_rows)),
        }
    }
}

/// Write one experiment's metrics artifacts, failing loudly: a bench-smoke CI
/// run that silently skips its artifacts would defeat the diff step.
fn emit(metrics: &od_obs::MetricsReport, dir: &std::path::Path) {
    match metrics.write_to(dir) {
        Ok((full, deterministic)) => {
            println!(
                "metrics: {} + {}\n",
                full.display(),
                deterministic.display()
            );
        }
        Err(err) => {
            eprintln!("failed to write metrics into {}: {err}", dir.display());
            std::process::exit(1);
        }
    }
}
