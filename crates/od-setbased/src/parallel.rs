//! Parallel validation: shard partition-class work across threads.
//!
//! Canonical-statement validation is embarrassingly parallel — each equivalence
//! class contributes an independent removal count and the statement verdict is
//! their sum — so classes are split into contiguous chunks, one scoped thread
//! per chunk, with a shared **atomic error-budget counter**: every thread adds
//! its per-class removals to the counter and stops at the next class boundary
//! once the running total exceeds the budget (budget 0 reproduces the classic
//! first-violation early exit).  Everything uses `std::thread::scope`; no
//! external thread-pool dependency is needed.
//!
//! The accept/reject decision (`verdict.within(budget)`) is deterministic
//! across thread counts: threads only stop early after the shared counter has
//! strictly exceeded the budget, so an accepted verdict always carries the
//! complete, exact removal count.  For rejected verdicts the overshoot and the
//! witness sample depend on scheduling.

use crate::partition::{ClassCodes, ColCodes, RefineScratch, StrippedPartition};
use crate::validate::{
    class_compatibility_removal, class_constancy_removal, ClassScratch, Verdict, WITNESS_SAMPLE_CAP,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A sensible thread count for validation work on this machine.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Scan every class of `part` with `per_class`, sharded over up to `threads`
/// threads, stopping once the summed removal count exceeds `budget`.
///
/// `per_class(class, allowance, scratch, witnesses)` returns the class's
/// removal count and may append witnesses; `allowance` is what is left of the
/// budget, and a class may stop early with any count above it.  The serial
/// scan reuses `scratch`; each spawned thread owns its own.  Classes are read
/// directly as CSR slices; workers claim contiguous index ranges.
pub(crate) fn scan_classes<F>(
    part: &StrippedPartition,
    threads: usize,
    budget: usize,
    scratch: &mut ClassScratch<u32>,
    per_class: F,
) -> Verdict
where
    F: Fn(&[u32], usize, &mut ClassScratch<u32>, &mut Vec<(u32, u32)>) -> usize + Sync,
{
    let n_classes = part.num_classes();
    let threads = threads.clamp(1, n_classes.max(1));
    if threads <= 1 || n_classes < 2 {
        let mut verdict = Verdict::clean();
        for class in part.classes() {
            verdict.classes_scanned += 1;
            let allowance = budget - verdict.removal_count;
            verdict.removal_count +=
                per_class(class, allowance, scratch, &mut verdict.violating_pairs);
            if verdict.removal_count > budget {
                verdict.exceeded = true;
                break;
            }
        }
        return verdict;
    }
    let removal = AtomicUsize::new(0);
    let scanned = AtomicUsize::new(0);
    let exceeded = AtomicBool::new(false);
    let chunk_size = n_classes.div_ceil(threads);
    let mut witnesses: Vec<(u32, u32)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut start = 0usize;
        while start < n_classes {
            let end = (start + chunk_size).min(n_classes);
            let removal = &removal;
            let scanned = &scanned;
            let exceeded = &exceeded;
            let per_class = &per_class;
            handles.push(scope.spawn(move || {
                let mut scratch = ClassScratch::default();
                let mut local_witnesses = Vec::new();
                let mut local_scanned = 0usize;
                for i in start..end {
                    if exceeded.load(Ordering::Relaxed) {
                        break;
                    }
                    local_scanned += 1;
                    // Other threads only add to the total, so this allowance
                    // never overstates what is left of the budget.
                    let allowance = budget.saturating_sub(removal.load(Ordering::Relaxed));
                    let r = per_class(part.class(i), allowance, &mut scratch, &mut local_witnesses);
                    if r > 0 {
                        let total = removal.fetch_add(r, Ordering::Relaxed) + r;
                        if total > budget {
                            exceeded.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                scanned.fetch_add(local_scanned, Ordering::Relaxed);
                local_witnesses
            }));
            start = end;
        }
        for handle in handles {
            let local = handle.join().expect("validation worker panicked");
            for pair in local {
                if witnesses.len() >= WITNESS_SAMPLE_CAP {
                    break;
                }
                witnesses.push(pair);
            }
        }
    });
    Verdict {
        removal_count: removal.load(Ordering::Relaxed),
        exceeded: exceeded.load(Ordering::Relaxed),
        violating_pairs: witnesses,
        classes_scanned: scanned.load(Ordering::Relaxed),
    }
}

/// One statement's pre-resolved inputs: the context's stripped partition plus
/// the rank codes of the mentioned attribute(s).  Building the jobs
/// (partition products, code lookups) stays serial — the caches hand out
/// `Rc`s — while the scans themselves are shared-nothing reads.
pub enum StatementJob<'a> {
    /// `𝒞 : [] ↦ A` over `part` with `A`'s codes.
    Constancy {
        /// Stripped partition of the context `𝒞`.
        part: &'a StrippedPartition,
        /// Rank codes of the constant attribute.
        codes: &'a ColCodes,
    },
    /// `𝒞 : A ~ B` over `part` with both attributes' codes.
    Compatibility {
        /// Stripped partition of the context `𝒞`.
        part: &'a StrippedPartition,
        /// Rank codes of the pair's smaller attribute.
        codes_a: &'a ColCodes,
        /// Rank codes of the pair's larger attribute.
        codes_b: &'a ColCodes,
    },
}

impl StatementJob<'_> {
    /// Validate the statement, sharding its classes over up to `threads`
    /// threads and stopping once the removal count exceeds `budget`.
    pub fn verdict(&self, threads: usize, budget: usize) -> Verdict {
        self.scan(threads, budget, &mut ClassScratch::default())
    }

    fn scan(&self, threads: usize, budget: usize, scratch: &mut ClassScratch<u32>) -> Verdict {
        match *self {
            StatementJob::Constancy { part, codes } => {
                let (codes, domain): (&[u32], _) = (codes, codes.domain());
                scan_classes(part, threads, budget, scratch, |class, allowance, s, w| {
                    class_constancy_removal(class, codes, domain, allowance, s, w)
                })
            }
            StatementJob::Compatibility {
                part,
                codes_a,
                codes_b,
            } => {
                let domain_a = codes_a.domain();
                let (codes_a, codes_b): (&[u32], &[u32]) = (codes_a, codes_b);
                scan_classes(part, threads, budget, scratch, |class, allowance, s, w| {
                    class_compatibility_removal(class, codes_a, domain_a, codes_b, allowance, s, w)
                })
            }
        }
    }
}

/// Validate a whole level's surviving statements in one sharded pass.
///
/// Where `scan_classes` parallelizes *within* one statement (sharding one
/// partition's classes), this shards *across* statements: each job is scanned
/// serially by exactly one thread, jobs are claimed from a shared atomic
/// cursor (statement costs vary wildly — a level's empty-context statement
/// covers every row while its key-adjacent ones cover almost none, so static
/// chunking would straggle), and the verdicts come back in job order.  Each
/// worker reuses one `ClassScratch` across all the jobs it claims.  Because
/// every scan is the serial scan, the returned verdicts — witnesses, exact
/// overshoot and all — are bit-identical on every thread count.
pub fn validate_statement_batch(
    jobs: &[StatementJob<'_>],
    threads: usize,
    budget: usize,
) -> Vec<Verdict> {
    let threads = threads.clamp(1, jobs.len().max(1));
    if threads <= 1 || jobs.len() < 2 {
        let mut scratch = ClassScratch::default();
        return jobs
            .iter()
            .map(|job| job.scan(1, budget, &mut scratch))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<Verdict>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut scratch = ClassScratch::default();
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    local.push((i, jobs[i].scan(1, budget, &mut scratch)));
                }
                local
            }));
        }
        for handle in handles {
            for (i, verdict) in handle.join().expect("batch validation worker panicked") {
                out[i] = Some(verdict);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every job index is claimed exactly once"))
        .collect()
}

/// One context's partition composition for a sharded level expansion: either a
/// level-1 bucketing of the full relation on an attribute's raw code column,
/// or a level ≥ 2 packed-u64 product against the last attribute's class-code
/// column.  Both are pure functions of their inputs.
#[derive(Clone, Copy)]
pub enum RefineJob<'a> {
    /// Bucket `base` (the full-relation partition) on a raw code column.
    Codes {
        /// Partition of the context minus its last attribute.
        base: &'a StrippedPartition,
        /// The last attribute's order-preserving rank codes.
        codes: &'a [u32],
    },
    /// Product of `base` with the last attribute's class-code column.
    Product {
        /// Partition of the context minus its last attribute.
        base: &'a StrippedPartition,
        /// The last attribute's dense class ids ([`ClassCodes`]).
        other: &'a ClassCodes,
    },
}

impl RefineJob<'_> {
    fn run(&self, scratch: &mut RefineScratch) -> StrippedPartition {
        match self {
            RefineJob::Codes { base, codes } => base.refine_by_with(codes, scratch),
            RefineJob::Product { base, other } => base.product_with(other, scratch),
        }
    }
}

/// Shard a level's partition products **by context** across threads.
///
/// Each job is one context's incremental composition (see [`RefineJob`]);
/// `None` jobs (contexts already cached) pass through untouched.  Jobs are
/// claimed from contiguous chunks with one reused [`RefineScratch`] per
/// worker; every job is a pure function of its inputs, so the output vector is
/// bit-identical on every thread count.  This is the third sharding axis of
/// the crate — classes within a scan (`scan_classes`), statements within a
/// level ([`validate_statement_batch`]), and now contexts within a level
/// expansion.
///
/// The second and third return values are the total radix counting passes the
/// workers spent on u32 refinement keys and packed u64 product keys — each a
/// deterministic function of the jobs (a per-class property, independent of
/// how jobs were sharded), summed here so the orchestrating thread can fold
/// them into its own metrics; the workers themselves never touch od-obs.
pub fn refine_batch(
    jobs: &[Option<RefineJob<'_>>],
    threads: usize,
) -> (Vec<Option<StrippedPartition>>, u64, u64) {
    let live = jobs.iter().filter(|j| j.is_some()).count();
    let threads = threads.clamp(1, live.max(1));
    if threads <= 1 || live < 2 {
        let mut scratch = RefineScratch::default();
        let out = jobs
            .iter()
            .map(|job| job.map(|j| j.run(&mut scratch)))
            .collect();
        return (out, scratch.radix_passes(), scratch.product_radix_passes());
    }
    let chunk_size = jobs.len().div_ceil(threads);
    let mut out: Vec<Option<StrippedPartition>> = Vec::with_capacity(jobs.len());
    let mut passes = 0u64;
    let mut product_passes = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in jobs.chunks(chunk_size) {
            handles.push(scope.spawn(move || {
                let mut scratch = RefineScratch::default();
                let fresh = chunk
                    .iter()
                    .map(|job| job.map(|j| j.run(&mut scratch)))
                    .collect::<Vec<_>>();
                (
                    fresh,
                    scratch.radix_passes(),
                    scratch.product_radix_passes(),
                )
            }));
        }
        for handle in handles {
            let (fresh, worker_passes, worker_product) =
                handle.join().expect("refinement worker panicked");
            out.extend(fresh);
            passes += worker_passes;
            product_passes += worker_product;
        }
    });
    (out, passes, product_passes)
}

/// Run `patch` over every ledger, sharded over up to `threads` threads.
///
/// This is the streaming counterpart of `scan_classes`: where a snapshot
/// scan shards the *classes* of one partition, a delta patch shards the
/// *ledgers* — each [`crate::stream::VerdictLedger`] owns its per-class state
/// and reads only shared immutable structures (partitions, column codes), so
/// ledgers are embarrassingly parallel.  Serial when `threads ≤ 1` or there
/// is at most one ledger.
pub fn for_each_ledger<T, F>(ledgers: &mut [T], threads: usize, patch: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = threads.clamp(1, ledgers.len().max(1));
    if threads <= 1 || ledgers.len() < 2 {
        for ledger in ledgers {
            patch(ledger);
        }
        return;
    }
    let chunk_size = ledgers.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for chunk in ledgers.chunks_mut(chunk_size) {
            let patch = &patch;
            scope.spawn(move || {
                for ledger in chunk {
                    patch(ledger);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionCache;
    use od_core::{AttrId, Relation, Schema, Value};

    fn rel_with_groups(groups: usize, per_group: usize) -> Relation {
        let mut schema = Schema::new("t");
        schema.add_attr("g");
        schema.add_attr("a");
        schema.add_attr("b");
        let mut rows = Vec::new();
        for g in 0..groups as i64 {
            for i in 0..per_group as i64 {
                rows.push(vec![Value::Int(g), Value::Int(i), Value::Int(i * 2)]);
            }
        }
        Relation::from_rows(schema, rows).unwrap()
    }

    /// The `(g, a, b)` code columns of a three-column relation.
    fn columns(rel: &Relation) -> [ColCodes; 3] {
        let cache = PartitionCache::new(rel);
        [0, 1, 2].map(|i| cache.codes(AttrId(i)))
    }

    #[test]
    fn parallel_agrees_with_serial() {
        let rel = rel_with_groups(23, 7);
        let [g, a, b] = columns(&rel);
        let part = StrippedPartition::by_codes(&g);
        let constancy = |codes| StatementJob::Constancy { part: &part, codes };
        let compat = StatementJob::Compatibility {
            part: &part,
            codes_a: &a,
            codes_b: &b,
        };
        for threads in [1, 2, 4, 16] {
            // Unlimited budget: removal counts are exact on any thread count.
            let c = constancy(&a).verdict(threads, usize::MAX);
            assert_eq!(
                c.removal_count,
                constancy(&a).verdict(1, usize::MAX).removal_count
            );
            assert_eq!(c.classes_scanned, part.num_classes());
            let k = compat.verdict(threads, usize::MAX);
            assert_eq!(k.removal_count, compat.verdict(1, usize::MAX).removal_count);
        }
        // Constancy of g itself within g-classes holds on any thread count.
        assert!(constancy(&g).verdict(4, 0).holds());
    }

    #[test]
    fn budget_exceeded_reports_failure() {
        // b decreases while a increases inside every class: all-swap classes.
        let mut schema = Schema::new("t");
        schema.add_attr("g");
        schema.add_attr("a");
        schema.add_attr("b");
        let mut rows = Vec::new();
        for g in 0..40i64 {
            rows.push(vec![Value::Int(g), Value::Int(0), Value::Int(1)]);
            rows.push(vec![Value::Int(g), Value::Int(1), Value::Int(0)]);
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        let [g, a, b] = columns(&rel);
        let part = StrippedPartition::by_codes(&g);
        let compat = StatementJob::Compatibility {
            part: &part,
            codes_a: &a,
            codes_b: &b,
        };
        let k = compat.verdict(8, 0);
        assert!(!k.holds() && k.exceeded && !k.within(0));
        assert!(!k.violating_pairs.is_empty());
        let c = StatementJob::Constancy {
            part: &part,
            codes: &a,
        }
        .verdict(8, 0);
        assert!(!c.holds() && !c.violating_pairs.is_empty());
        // With one removal per class and 40 classes, a budget of 39 is a near
        // miss and 40 accepts: the decision matches on every thread count.
        for threads in [1, 3, 8] {
            assert!(!compat.verdict(threads, 39).within(39));
            assert!(compat.verdict(threads, 40).within(40));
        }
    }

    #[test]
    fn degenerate_inputs() {
        let part = StrippedPartition::full(0);
        let rel = rel_with_groups(0, 0);
        let [g, ..] = columns(&rel);
        let job = StatementJob::Constancy {
            part: &part,
            codes: &g,
        };
        assert!(job.verdict(4, 0).holds());
        assert!(
            scan_classes(&part, 4, 0, &mut ClassScratch::default(), |_, _, _, _| 1).holds(),
            "vacuous truth over no classes"
        );
        assert!(available_threads() >= 1);
    }

    #[test]
    fn statement_batch_matches_serial_scans_on_any_thread_count() {
        let rel = rel_with_groups(17, 5);
        let [g, a, b] = columns(&rel);
        let part = StrippedPartition::by_codes(&g);
        let jobs = vec![
            StatementJob::Constancy {
                part: &part,
                codes: &a,
            },
            StatementJob::Compatibility {
                part: &part,
                codes_a: &a,
                codes_b: &b,
            },
            StatementJob::Constancy {
                part: &part,
                codes: &g,
            },
        ];
        for budget in [0, 3, usize::MAX] {
            let serial = validate_statement_batch(&jobs, 1, budget);
            for threads in [2, 4, 16] {
                let batched = validate_statement_batch(&jobs, threads, budget);
                assert_eq!(serial, batched, "threads = {threads}, budget = {budget}");
            }
            if budget == usize::MAX {
                assert_eq!(serial[0].removal_count, 17 * 4);
            }
            assert!(serial[1].holds() && serial[2].holds());
        }
        assert!(validate_statement_batch(&[], 8, 0).is_empty());
    }

    #[test]
    fn for_each_ledger_visits_every_item_on_any_thread_count() {
        for threads in [1, 2, 5, 16] {
            let mut items: Vec<usize> = (0..23).collect();
            for_each_ledger(&mut items, threads, |item| *item += 100);
            assert!(
                items.iter().enumerate().all(|(i, &v)| v == i + 100),
                "threads = {threads}"
            );
        }
        let mut empty: Vec<usize> = Vec::new();
        for_each_ledger(&mut empty, 4, |_| unreachable!());
    }
}
