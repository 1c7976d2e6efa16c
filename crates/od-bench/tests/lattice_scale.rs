//! CI guard for the E16 deep-lattice products: the three product paths
//! (per-class hash grouping, comparison-sorted packed keys, radix-sorted
//! packed keys) must produce identical CSR partitions, the radix path must
//! clear its 3x bar against hash grouping at scale, and width-4 discovery
//! must complete at the full million rows inside a wall-clock budget.
//! `run_e16` stamps any violation with an `UNEXPECTED` line, so the semantic
//! assertion here is a single marker check on the report text.
//!
//! Wall-clock bounds follow the `width4_speed` / `columnar_speed` idiom:
//! asserted only in release builds (debug timings measure the compiler, not
//! the algorithm), while the semantic checks run in every profile at a
//! debug-affordable row count.

use od_bench::{exp_e16_lattice, exp_e16_lattice_with_metrics};
use std::time::Instant;

/// Rows for the release-profile guard — the headline E16 scale, where the
/// width-4 lattice runs entirely on memoized radix products.
const RELEASE_ROWS: usize = 1_000_000;

/// Rows for the always-on semantic pass: large enough that the products
/// clear the radix threshold (`RADIX_MIN_PAIRS`), small enough for a debug
/// binary to finish width-4 discovery.
const SEMANTIC_ROWS: usize = 20_000;

#[test]
fn e16_report_is_clean_at_semantic_scale() {
    let report = exp_e16_lattice(SEMANTIC_ROWS);
    assert!(
        !report.contains("UNEXPECTED"),
        "E16 failed its internal checks at {SEMANTIC_ROWS} rows:\n{report}"
    );
    assert!(report.contains("identical CSR partitions on all three paths"));
    assert!(report.contains("width-4 discovery"));
}

#[cfg(not(debug_assertions))]
#[test]
fn e16_clears_speed_bar_at_full_scale() {
    let start = Instant::now();
    let report = exp_e16_lattice(RELEASE_ROWS);
    let elapsed = start.elapsed();
    // At >= 250k rows run_e16 enforces the 3x radix-vs-hash bar itself; a
    // miss (or a partition mismatch across the three paths) shows up as an
    // UNEXPECTED line.
    assert!(
        !report.contains("UNEXPECTED"),
        "E16 failed an acceptance bar at {RELEASE_ROWS} rows:\n{report}"
    );
    // Generous end-to-end budget: the steady-state run is ~40s in release
    // (three timed product paths, interleaved best-of-3 passes of two
    // product sets each, plus width-2/3/4 discovery at ~1s each); 120s
    // leaves headroom for loaded CI machines while still catching a return
    // to per-class hash products.
    assert!(
        elapsed.as_secs_f64() < 120.0,
        "E16 at {RELEASE_ROWS} rows took {elapsed:?} (budget 120s):\n{report}"
    );
}

#[cfg(debug_assertions)]
#[test]
fn e16_speed_bar_skipped_in_debug_profile() {
    // Placeholder so `cargo test` output shows the guard exists in debug
    // builds; the wall-clock and 3x assertions only make sense in release.
    let _ = (RELEASE_ROWS, Instant::now());
}

#[test]
fn e16_deterministic_section_is_stable_across_consecutive_runs() {
    // The bench-smoke diff step reruns the release binary and compares
    // `BENCH_e16.deterministic.json` byte-for-byte; this is the in-process
    // version of that check (thread-count invariance is covered separately
    // in metrics_determinism.rs).
    let rows = if cfg!(debug_assertions) {
        5_000
    } else {
        60_000
    };
    let (_, first) = exp_e16_lattice_with_metrics(rows);
    let (_, second) = exp_e16_lattice_with_metrics(rows);
    assert_eq!(
        first.deterministic_json(),
        second.deterministic_json(),
        "E16 deterministic metrics drifted between consecutive runs"
    );
    assert!(first.deterministic_json().contains("e16.rows"));
    assert!(first
        .deterministic_json()
        .contains("discovery.product_radix_passes"));
}
