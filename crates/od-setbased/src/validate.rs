//! Data-level validation of canonical statements and whole ODs against
//! stripped / sorted partitions, returning **violation evidence** rather than
//! bare booleans.
//!
//! Every statement check produces a [`Verdict`]: the minimal number of tuples
//! that must be removed for the statement to hold (the numerator of the
//! TANE-style `g3` error), a bounded sample of violating row pairs, and the
//! number of partition classes scanned.  Exact validation is the special case
//! `removal_count == 0`; approximate validation accepts any verdict whose
//! removal count stays within an error budget `⌊ε·n⌋`.
//!
//! The per-class removal counts are exact:
//!
//! * **constancy** `𝒞 : [] ↦ A` — a class becomes constant on `A` by keeping
//!   its largest `A`-value group, so the minimal removal is
//!   `|class| − max value-group size`;
//! * **compatibility** `𝒞 : A ~ B` — a class becomes swap-free by keeping a
//!   largest subset in which `A`-order never inverts `B`-order.  Ordering the
//!   class by `(code_A, code_B)`, such subsets are exactly the subsequences
//!   with non-decreasing `code_B` (ties on `A` are unconstrained and sort
//!   adjacent), so the minimal removal is `|class| −` the longest
//!   non-decreasing `B`-subsequence (a patience pass).
//!
//! Classes are independent — removing tuples of one class cannot create
//! violations in another — so the statement-level removal count is the sum
//! over classes, and scans short-circuit once the running sum exceeds the
//! budget.
//!
//! # Cost model
//!
//! All validators work on order-preserving rank codes (see
//! [`od_core::Relation::rank_column`]).  Each class gets one fused
//! check-and-removal pass that is handed the statement's remaining budget
//! (its *allowance*), and is sorted at most once:
//!
//! * **Dense path** — a class with at least `|dom A|` rows (the whole
//!   relation under the empty context, or any class that large).  Codes are
//!   dense ranks, so one pass fills per-code count, min-`B` and max-`B`
//!   arrays sized `|dom A|`, which decides `A ~ B` in `O(k + |dom A|)`
//!   without a sort: `A`-groups taken in increasing order must each start at
//!   or above the largest `B` of the groups before them.  Constancy counts
//!   value groups in the same kind of array.
//! * **Sorted path** — smaller classes are sorted once by `(A, B, row)`
//!   (packed-`u64` radix passes for `u32` codes above `CLASS_RADIX_MIN`
//!   rows) and checked by the patience pass itself.
//! * **Allowance 0** (exact validation) — a violating class contributes the
//!   lower bound 1 with the swap or split witness its check found; no removal
//!   is computed and no second sort runs.
//! * **Allowance > 0** — the patience pass (on the dense path, after a
//!   counting sort on `A` that sorts each `A`-group by `B` only once the pass
//!   reaches it) stops as soon as `processed − |tails|`, which never
//!   decreases, exceeds the allowance.
//!
//! An accepted verdict therefore carries the exact removal count; a rejected
//! one carries a lower bound that already exceeds the budget.  Every buffer a
//! class check needs lives in a `ClassScratch` owned by the scanning worker.

use crate::canonical::SetOd;
use crate::parallel::StatementJob;
use crate::partition::{PartitionCache, SortedPartition};
use od_core::{radix, OrderDependency};

/// Row-coverage threshold below which threaded validation is not worth the
/// spawning overhead.
pub const PARALLEL_ROW_THRESHOLD: usize = 8_192;

/// Maximum number of violating row pairs a verdict samples as witnesses.
pub const WITNESS_SAMPLE_CAP: usize = 8;

/// Class size from which the `u32` sorted path switches from `sort_unstable`
/// to radix passes over packed `(a, b)` keys.
const CLASS_RADIX_MIN: usize = 256;

/// An order-preserving code type the class validators can sort and count on.
///
/// Implemented for `u32` (the snapshot path's dense rank codes, see
/// [`od_core::ColumnarEncoding`]) and `u64` (the streaming path's gapped live
/// codes, see [`crate::stream`], which have no dense domain and so always take
/// the sorted path).
pub(crate) trait ClassCode: Copy + Ord + Default + Send + Sync {
    /// Sort `(code_a, code_b, row)` triples lexicographically.
    ///
    /// The default is `sort_unstable`.  The `u32` impl runs stable LSB
    /// [`od_core::radix`] passes over packed `(a, b)` keys in `buffers` once
    /// a slice is large enough to amortize the histogram pre-pass; callers
    /// push rows in ascending order, so both routes give the same order.
    /// These sorts run inside worker threads and record no `radix_passes`
    /// metrics.
    fn sort_triples(triples: &mut [(Self, Self, u32)], _buffers: &mut RadixBuffers) {
        triples.sort_unstable();
    }

    /// The code as an index into a per-code array (dense path only).
    fn index(self) -> usize;
}

impl ClassCode for u64 {
    fn index(self) -> usize {
        self as usize
    }
}

impl ClassCode for u32 {
    fn sort_triples(triples: &mut [(u32, u32, u32)], [keyed, ping]: &mut RadixBuffers) {
        if triples.len() < CLASS_RADIX_MIN {
            triples.sort_unstable();
            return;
        }
        keyed.clear();
        let keys = triples.iter();
        keyed.extend(keys.map(|&(a, b, row)| ((u64::from(a) << 32) | u64::from(b), row)));
        radix::sort_pairs(keyed, ping);
        for (dst, &(key, row)) in triples.iter_mut().zip(keyed.iter()) {
            *dst = ((key >> 32) as u32, key as u32, row);
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Packed `(a, b)` radix keys and their ping-pong buffer.
pub(crate) type RadixBuffers = [Vec<(u64, u32)>; 2];

/// Reusable buffers for the class validators.  One scanning worker owns one
/// and reuses it across every class and statement it checks, so a batch
/// allocates its working set once instead of per class.
#[derive(Debug, Default)]
pub(crate) struct ClassScratch<C> {
    /// `(code_a, code_b, row)` triples of the class being ordered.
    triples: Vec<(C, C, u32)>,
    /// Patience tails: `tails[k]` is the smallest last `B` of any
    /// non-decreasing run of length `k + 1`.
    tails: Vec<C>,
    /// Radix buffers for sorting `u32` triples.
    radix: RadixBuffers,
    /// Dense path: one entry per `A`-code.
    groups: Vec<DenseGroup<C>>,
}

/// One `A`-code's rows in a dense-path class.  Kept in one array so the
/// check pass touches one cache line per row.
#[derive(Debug, Default, Clone, Copy)]
struct DenseGroup<C> {
    /// Rows with this code (reused as the counting sort's group offset).
    count: u32,
    /// Smallest and largest `(B, row)`, first row on ties.
    lo: (C, u32),
    hi: (C, u32),
}

/// The tuple-removal budget `⌊ε·n⌋` corresponding to an error threshold ε on
/// an `n`-row relation (non-finite or negative ε clamps to 0, ε ≥ 1 to `n`).
pub fn error_budget(n_rows: usize, epsilon: f64) -> usize {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        0
    } else if epsilon >= 1.0 {
        n_rows
    } else {
        (epsilon * n_rows as f64).floor() as usize
    }
}

/// Violation evidence from one statement (or whole-OD) check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Minimal number of tuples to remove so the checked statement holds (the
    /// `g3` numerator).  Exact when the scan ran to completion; a lower bound
    /// when [`Self::exceeded`] is set; an upper bound when the verdict was
    /// inherited from a sub-context statement instead of scanned.  At budget
    /// 0 a rejected count is the lower bound 1: the scan stops at the first
    /// violating class without computing its removal.
    pub removal_count: usize,
    /// True when the scan stopped early because `removal_count` went past the
    /// error budget — the count is then a lower bound, which is all an
    /// accept/reject decision needs.
    pub exceeded: bool,
    /// Sampled violating row pairs (at most [`WITNESS_SAMPLE_CAP`]): rows that
    /// disagree on the constant attribute, or a swap pair for compatibility.
    /// Every scanned verdict with a non-zero removal carries at least one.
    pub violating_pairs: Vec<(u32, u32)>,
    /// Partition classes examined before the scan finished or short-circuited.
    pub classes_scanned: usize,
}

impl Verdict {
    /// The verdict of a statement with no violations.
    pub fn clean() -> Self {
        Verdict::default()
    }

    /// Does the statement hold exactly (no tuple needs to be removed)?
    pub fn holds(&self) -> bool {
        self.removal_count == 0
    }

    /// Does the statement hold after removing at most `budget` tuples?
    ///
    /// Sound under early exit: a scan only stops once its running removal
    /// count strictly exceeds the budget, so `removal_count <= budget` implies
    /// the count is complete.
    pub fn within(&self, budget: usize) -> bool {
        self.removal_count <= budget
    }

    /// The `g3` error: the fraction of tuples to remove (0 on empty relations).
    pub fn g3(&self, n_rows: usize) -> f64 {
        if n_rows == 0 {
            0.0
        } else {
            self.removal_count as f64 / n_rows as f64
        }
    }

    /// Combine per-statement verdicts of one OD: the removal count becomes the
    /// **maximum** over statements — the `g3` score of the OD's worst canonical
    /// statement, which is the acceptance measure for approximate discovery and
    /// a lower bound on the OD-level `g3` (the true OD removal lies between the
    /// max and the sum of its statement removals, since statement satisfaction
    /// is monotone under tuple removal).
    pub fn join_max(&mut self, other: &Verdict) {
        self.removal_count = self.removal_count.max(other.removal_count);
        self.exceeded |= other.exceeded;
        self.classes_scanned += other.classes_scanned;
        for &pair in &other.violating_pairs {
            if self.violating_pairs.len() >= WITNESS_SAMPLE_CAP {
                break;
            }
            self.violating_pairs.push(pair);
        }
    }
}

/// Is `attr` (given by its codes) constant within one equivalence class?
///
/// Generic over the code type so both the snapshot path (dense `u32` rank
/// codes) and the streaming path (gapped `u64` live codes, see
/// [`crate::stream`]) share one implementation — any order-preserving code
/// assignment yields the same answer.
pub fn class_is_constant<C: Copy + Ord>(class: &[u32], codes: &[C]) -> bool {
    let first = codes[class[0] as usize];
    class.iter().all(|&row| codes[row as usize] == first)
}

/// Append `pair` unless the witness sample is full.
fn push_witness(witnesses: &mut Vec<(u32, u32)>, pair: (u32, u32)) {
    if witnesses.len() < WITNESS_SAMPLE_CAP {
        witnesses.push(pair);
    }
}

/// Minimal tuples to remove so the class becomes constant on `attr`:
/// `|class| − max value-group size`, appending split witnesses (the class
/// head against rows holding another value) up to the remaining capacity.
///
/// `domain` bounds the codes (`usize::MAX` when they are not dense ranks);
/// a class of at least `domain` rows counts its value groups in a dense
/// array, a smaller one sorts once.  With `allowance` 0 a split returns the
/// lower bound 1 after its first witness, without counting groups.
pub(crate) fn class_constancy_removal<C: ClassCode>(
    class: &[u32],
    codes: &[C],
    domain: usize,
    allowance: usize,
    scratch: &mut ClassScratch<C>,
    witnesses: &mut Vec<(u32, u32)>,
) -> usize {
    let head = class[0];
    let head_code = codes[head as usize];
    let Some(first) = class.iter().position(|&r| codes[r as usize] != head_code) else {
        return 0;
    };
    if allowance == 0 {
        push_witness(witnesses, (head, class[first]));
        return 1;
    }
    for &row in &class[first..] {
        if witnesses.len() >= WITNESS_SAMPLE_CAP {
            break;
        }
        if codes[row as usize] != head_code {
            witnesses.push((head, row));
        }
    }
    let largest = if class.len() >= domain {
        let groups = &mut scratch.groups;
        groups.clear();
        groups.resize(domain, DenseGroup::default());
        for &row in class {
            groups[codes[row as usize].index()].count += 1;
        }
        groups.iter().map(|g| g.count as usize).max().unwrap_or(0)
    } else {
        scratch.triples.clear();
        let keys = class.iter().map(|&r| (codes[r as usize], C::default(), r));
        scratch.triples.extend(keys);
        C::sort_triples(&mut scratch.triples, &mut scratch.radix);
        let runs = scratch.triples.chunk_by(|x, y| x.0 == y.0);
        runs.map(<[_]>::len).max().unwrap_or(0)
    };
    class.len() - largest
}

/// Minimal tuples to remove so the class becomes swap-free on `(A, B)`,
/// appending swap witnesses up to the remaining capacity.
///
/// The kept subset is a longest non-decreasing `B`-run in `(A, B, row)`
/// order, found by a patience pass that returns early — with a count that is
/// then a lower bound — once the removal exceeds `allowance`.  `domain_a`
/// bounds `A`'s codes (`usize::MAX` when they are not dense ranks): a class
/// of at least `domain_a` rows takes the dense path, a smaller one sorts
/// once.  Both paths visit the same elements in the same order, so they
/// return the same count and the same witnesses.
pub(crate) fn class_compatibility_removal<C: ClassCode>(
    class: &[u32],
    codes_a: &[C],
    domain_a: usize,
    codes_b: &[C],
    allowance: usize,
    scratch: &mut ClassScratch<C>,
    witnesses: &mut Vec<(u32, u32)>,
) -> usize {
    if class.len() < 2 {
        return 0;
    }
    if class.len() >= domain_a {
        return dense_compatibility_removal(
            class, codes_a, domain_a, codes_b, allowance, scratch, witnesses,
        );
    }
    scratch.triples.clear();
    let keys = class
        .iter()
        .map(|&r| (codes_a[r as usize], codes_b[r as usize], r));
    scratch.triples.extend(keys);
    C::sort_triples(&mut scratch.triples, &mut scratch.radix);
    patience_removal(scratch, false, allowance, witnesses)
}

/// The dense path of [`class_compatibility_removal`].
fn dense_compatibility_removal<C: ClassCode>(
    class: &[u32],
    codes_a: &[C],
    domain_a: usize,
    codes_b: &[C],
    allowance: usize,
    s: &mut ClassScratch<C>,
    witnesses: &mut Vec<(u32, u32)>,
) -> usize {
    s.groups.clear();
    s.groups.resize(domain_a, DenseGroup::default());
    for &row in class {
        let b = codes_b[row as usize];
        let g = &mut s.groups[codes_a[row as usize].index()];
        if g.count == 0 {
            (g.lo, g.hi) = ((b, row), (b, row));
        } else if b < g.lo.0 {
            g.lo = (b, row);
        } else if b > g.hi.0 {
            g.hi = (b, row);
        }
        g.count += 1;
    }
    // The first A-group whose smallest B undercuts an earlier group's largest
    // B holds the first swap of the (A, B, row) order.
    let mut prev_max: Option<(C, u32)> = None;
    let mut swap = None;
    for g in s.groups.iter().filter(|g| g.count > 0) {
        match prev_max {
            Some((mb, mrow)) if g.lo.0 < mb => {
                swap = Some((mrow, g.lo.1));
                break;
            }
            Some((mb, _)) if mb >= g.hi.0 => {}
            _ => prev_max = Some(g.hi),
        }
    }
    let Some(swap) = swap else {
        return 0;
    };
    if allowance == 0 {
        push_witness(witnesses, swap);
        return 1;
    }
    // Counting sort on A; rows stay ascending inside a group.
    let mut offset = 0u32;
    for g in s.groups.iter_mut() {
        offset += std::mem::replace(&mut g.count, offset);
    }
    s.triples.clear();
    s.triples.resize(class.len(), Default::default());
    for &row in class {
        let a = codes_a[row as usize];
        let slot = &mut s.groups[a.index()].count;
        s.triples[*slot as usize] = (a, codes_b[row as usize], row);
        *slot += 1;
    }
    patience_removal(s, true, allowance, witnesses)
}

/// The patience pass over the class in `s.triples`, laid out as `A`-groups
/// in increasing `A` order and each sorted by `(B, row)` — here, when
/// `sort_groups`, as the pass reaches it.  Tracks the longest
/// non-decreasing `B`-run and samples swap witnesses against the largest `B`
/// of the earlier groups.  `processed − |tails|` never decreases, so the
/// pass returns it as a lower bound once it exceeds `allowance`; otherwise
/// it is the exact removal.
fn patience_removal<C: ClassCode>(
    s: &mut ClassScratch<C>,
    sort_groups: bool,
    allowance: usize,
    witnesses: &mut Vec<(u32, u32)>,
) -> usize {
    let ClassScratch {
        triples,
        tails,
        radix,
        ..
    } = s;
    tails.clear();
    let mut processed = 0;
    let mut prev_max: Option<(C, u32)> = None;
    for group in triples.chunk_by_mut(|x, y| x.0 == y.0) {
        if sort_groups {
            C::sort_triples(group, radix);
        }
        for &(_, b, row) in group.iter() {
            match prev_max {
                Some((mb, mrow)) if b < mb => push_witness(witnesses, (mrow, row)),
                _ => {}
            }
            if tails.last().is_none_or(|&t| t <= b) {
                tails.push(b);
            } else {
                let pos = tails.partition_point(|&t| t <= b);
                tails[pos] = b;
            }
            processed += 1;
            if processed - tails.len() > allowance {
                return processed - tails.len();
            }
        }
        // The group's largest B, first row on ties; earlier groups win ties.
        let max_b = group[group.len() - 1].1;
        let (_, b, row) = group[group.partition_point(|t| t.1 < max_b)];
        if prev_max.is_none_or(|(mb, _)| b > mb) {
            prev_max = Some((b, row));
        }
    }
    processed - tails.len()
}

/// Validate one canonical statement against the data: fetch (or build) the
/// context's stripped partition and scan it, sharding classes across
/// `threads` threads when the partition covers at least
/// [`PARALLEL_ROW_THRESHOLD`] rows.  The single dispatch point shared by the
/// lattice traversal and the demand-driven engine.
///
/// `budget` is the tuple-removal allowance `⌊ε·n⌋`: the scan short-circuits
/// once the statement's removal count exceeds it (0 = exact validation with
/// the classic first-violation early exit).  The accept/reject decision
/// (`verdict.within(budget)`) is deterministic across thread counts; the
/// sampled witnesses and the exact overshoot of a rejected verdict are not.
pub fn statement_verdict(
    cache: &mut PartitionCache<'_>,
    stmt: &SetOd,
    threads: usize,
    budget: usize,
) -> Verdict {
    let part = cache.partition(stmt.context());
    if part.is_key() {
        // No two tuples agree on the context: classes are all singletons, so
        // neither a split nor an in-class swap can exist.
        return Verdict::clean();
    }
    let threads = if threads > 1 && part.covered_rows() >= PARALLEL_ROW_THRESHOLD {
        threads
    } else {
        1
    };
    match stmt {
        SetOd::Constancy { attr, .. } => {
            let codes = cache.codes(*attr);
            StatementJob::Constancy {
                part: &part,
                codes: &codes,
            }
            .verdict(threads, budget)
        }
        SetOd::Compatibility { a, b, .. } => {
            let (codes_a, codes_b) = (cache.codes(*a), cache.codes(*b));
            StatementJob::Compatibility {
                part: &part,
                codes_a: &codes_a,
                codes_b: &codes_b,
            }
            .verdict(threads, budget)
        }
    }
}

/// Validate a whole list OD `X ↦ Y` via a sorted partition: `Y` must be
/// constant within every `Π_set(X)` class (else a split) and non-decreasing
/// across classes in `X` order (else a swap).
///
/// Semantically identical to [`od_core::check::od_holds`]; the cost model is
/// different — class representatives are sorted instead of all rows, and all
/// comparisons are on cached integer codes.
pub fn od_holds_with_partitions(cache: &mut PartitionCache<'_>, od: &OrderDependency) -> bool {
    let n = cache.relation().len();
    if n < 2 {
        return true;
    }
    let sorted = SortedPartition::for_list(cache, &od.lhs);
    let rhs_codes: Vec<_> = od.rhs.iter().map(|a| cache.codes(a)).collect();
    let mut prev_rep: Option<u32> = None;
    for (rep, class) in sorted.groups() {
        // Split check: every class member agrees with the representative on Y.
        for codes in &rhs_codes {
            if !class_is_constant(class, codes) {
                return false;
            }
        }
        // Swap check: representatives are strictly increasing on X (distinct
        // classes differ on set(X)), so Y must be non-decreasing.
        if let Some(prev) = prev_rep {
            for codes in &rhs_codes {
                match codes[prev as usize].cmp(&codes[*rep as usize]) {
                    std::cmp::Ordering::Less => break,
                    std::cmp::Ordering::Equal => continue,
                    std::cmp::Ordering::Greater => return false,
                }
            }
        }
        prev_rep = Some(*rep);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::check::od_holds;
    use od_core::{AttrId, AttrList, Relation, Schema, Value};

    fn rel_from(rows: &[&[i64]]) -> Relation {
        let mut schema = Schema::new("t");
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        for i in 0..arity {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn class_constancy_detects_variation() {
        let codes = [0u32, 1, 1, 0];
        assert!(class_is_constant(&[1, 2], &codes));
        assert!(!class_is_constant(&[0, 1], &codes));
        assert!(class_is_constant(&[3], &codes));
    }

    /// One past the largest code: the dense domain of a code column.
    fn domain(codes: &[u32]) -> usize {
        codes.iter().max().map_or(0, |&m| m as usize + 1)
    }

    /// Compatibility removal at `allowance` on the dense and the sorted path,
    /// which must agree on the count and on every witness.
    fn compat(class: &[u32], a: &[u32], b: &[u32], allowance: usize) -> (usize, Vec<(u32, u32)>) {
        let mut scratch = ClassScratch::default();
        let (mut dense_w, mut sorted_w) = (Vec::new(), Vec::new());
        let dense = dense_compatibility_removal(
            class,
            a,
            domain(a),
            b,
            allowance,
            &mut scratch,
            &mut dense_w,
        );
        let sorted = class_compatibility_removal(
            class,
            a,
            usize::MAX,
            b,
            allowance,
            &mut scratch,
            &mut sorted_w,
        );
        assert_eq!(
            (dense, &dense_w),
            (sorted, &sorted_w),
            "paths disagree on {class:?}"
        );
        (sorted, sorted_w)
    }

    fn compatible(class: &[u32], a: &[u32], b: &[u32]) -> bool {
        compat(class, a, b, 0).0 == 0
    }

    fn assert_swaps(pairs: &[(u32, u32)], a: &[u32], b: &[u32]) {
        for &(s, t) in pairs {
            let (si, ti) = (s as usize, t as usize);
            assert!(
                (a[si] < a[ti] && b[si] > b[ti]) || (a[ti] < a[si] && b[ti] > b[si]),
                "({s},{t}) is not a swap"
            );
        }
    }

    #[test]
    fn class_compatibility_handles_ties_and_swaps() {
        // a: 0 0 1 1, b: 5 7 7 9 — compatible (ties on a, b rises).
        let a = [0u32, 0, 1, 1];
        let b = [5u32, 7, 7, 9];
        assert!(compatible(&[0, 1, 2, 3], &a, &b));
        // b2: 5 7 6 9 — swap: row1 (a=0,b=7) vs row2 (a=1,b=6).
        let b2 = [5u32, 7, 6, 9];
        assert!(!compatible(&[0, 1, 2, 3], &a, &b2));
        assert_eq!(compat(&[0, 1, 2, 3], &a, &b2, 0), (1, vec![(1, 2)]));
        // Equal a values never swap even with wild b.
        let a3 = [4u32, 4, 4, 4];
        assert!(compatible(&[0, 1, 2, 3], &a3, &b2));
        // Singleton and pair classes.
        assert!(compatible(&[2], &a, &b2));
        assert!(compatible(&[0, 1], &a, &b2));
    }

    #[test]
    fn swap_detection_needs_strictly_smaller_b_in_later_group() {
        // a: 0 1, b: 3 3 — equal b across groups is fine (non-decreasing).
        assert!(compatible(&[0, 1], &[0u32, 1], &[3, 3]));
        // a: 0 1, b: 3 2 — genuine swap.
        assert!(!compatible(&[0, 1], &[0u32, 1], &[3, 2]));
    }

    #[test]
    fn constancy_removal_is_size_minus_largest_group() {
        let codes = [0u32, 1, 1, 2, 1];
        let mut scratch = ClassScratch::default();
        // Class {0,1,2,3,4}: groups {0}, {1,2,4}, {3} → keep 3, remove 2, on
        // the dense path (5 rows ≥ 3 codes) and the sorted path alike.
        for dom in [domain(&codes), usize::MAX] {
            let mut w = Vec::new();
            let all = [0, 1, 2, 3, 4];
            let removal =
                class_constancy_removal(&all, &codes, dom, usize::MAX, &mut scratch, &mut w);
            assert_eq!(removal, 2);
            assert!(!w.is_empty() && w.len() <= WITNESS_SAMPLE_CAP);
            for &(s, t) in &w {
                assert_ne!(codes[s as usize], codes[t as usize]);
            }
            // Allowance 0 stops at the first split: the lower bound 1.
            let mut w0 = Vec::new();
            assert_eq!(
                class_constancy_removal(&all, &codes, dom, 0, &mut scratch, &mut w0),
                1
            );
            assert_eq!(w0, vec![(0, 1)]);
            // A constant class removes nothing.
            let mut w2 = Vec::new();
            let removal =
                class_constancy_removal(&[1, 2, 4], &codes, dom, usize::MAX, &mut scratch, &mut w2);
            assert_eq!(removal, 0);
            assert!(w2.is_empty());
        }
    }

    #[test]
    fn compatibility_removal_is_size_minus_longest_chain() {
        // a: 0 1 2 3, b: 0 9 1 2 — drop row 1 (b=9) and the rest chains.
        let a = [0u32, 1, 2, 3];
        let b = [0u32, 9, 1, 2];
        let (removal, w) = compat(&[0, 1, 2, 3], &a, &b, usize::MAX);
        assert_eq!(removal, 1);
        // Each witness is a genuine swap pair.
        assert!(!w.is_empty());
        assert_swaps(&w, &a, &b);
        // Fully reversed: keep one tuple per strictly-decreasing chain.
        let a2 = [0u32, 1, 2];
        let b2 = [2u32, 1, 0];
        assert_eq!(compat(&[0, 1, 2], &a2, &b2, usize::MAX).0, 2);
        // ...and an allowance of 1 stops there with a count past it.
        assert_eq!(compat(&[0, 1, 2], &a2, &b2, 1).0, 2);
        // Ties on A are unconstrained: no removal however wild B is.
        let a3 = [5u32, 5, 5];
        let (removal, w3) = compat(&[0, 1, 2], &a3, &b2, usize::MAX);
        assert_eq!(removal, 0);
        assert!(w3.is_empty());
    }

    /// A small deterministic generator for class test data.
    fn lcg(seed: &mut u64) -> u32 {
        *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (*seed >> 33) as u32
    }

    #[test]
    fn dense_and_sorted_paths_agree_on_every_class() {
        // Classes below and above CLASS_RADIX_MIN, over narrow and wide A
        // domains, at every allowance the budgets produce: both paths must
        // reach the same decision with the same count and witnesses, and a
        // count within its allowance must be the exact one.
        let mut seed = 7;
        for (rows, dom_a, dom_b) in [(9, 3, 4), (40, 40, 5), (600, 17, 600), (700, 700, 9)] {
            let rows_u32 = rows as u32;
            let a: Vec<u32> = (0..rows).map(|_| lcg(&mut seed) % dom_a).collect();
            // Mostly rising B with noise, so counts span 0 to large.
            let b: Vec<u32> = (0..rows)
                .map(|i| (a[i] * dom_b / dom_a + lcg(&mut seed) % 3).min(dom_b - 1))
                .collect();
            let class: Vec<u32> = (0..rows_u32).filter(|&r| r % 5 != 1).collect();
            let (exact, _) = compat(&class, &a, &b, usize::MAX);
            for allowance in [0, 1, 2, class.len() / 4, usize::MAX] {
                let (removal, w) = compat(&class, &a, &b, allowance);
                if exact <= allowance {
                    assert_eq!(removal, exact);
                } else {
                    assert!(allowance < removal && removal <= exact);
                    assert!(!w.is_empty());
                    assert_swaps(&w, &a, &b);
                }
            }
        }
    }

    #[test]
    fn class_code_radix_overrides_match_comparison_defaults() {
        // A class big enough to push every u32 sort onto the radix path; the
        // u64 impl runs the provided sort_unstable defaults on the same data,
        // so removal counts AND witness pairs must agree bit-for-bit.
        let n = 2 * CLASS_RADIX_MIN as u32;
        let class: Vec<u32> = (0..n).collect();
        let codes_a: Vec<u32> = (0..n).map(|i| (i.wrapping_mul(7919)) % 13).collect();
        let codes_b: Vec<u32> = (0..n).map(|i| (i.wrapping_mul(104_729)) % 11).collect();
        let a64: Vec<u64> = codes_a.iter().map(|&c| u64::from(c)).collect();
        let b64: Vec<u64> = codes_b.iter().map(|&c| u64::from(c)).collect();
        let (mut s32, mut s64) = (ClassScratch::default(), ClassScratch::default());
        for allowance in [0, 3, usize::MAX] {
            let (mut w32, mut w64) = (Vec::new(), Vec::new());
            assert_eq!(
                class_constancy_removal(
                    &class,
                    &codes_a,
                    usize::MAX,
                    allowance,
                    &mut s32,
                    &mut w32
                ),
                class_constancy_removal(&class, &a64, usize::MAX, allowance, &mut s64, &mut w64)
            );
            assert_eq!(w32, w64);
            let (mut w32, mut w64) = (Vec::new(), Vec::new());
            assert_eq!(
                class_compatibility_removal(
                    &class,
                    &codes_a,
                    usize::MAX,
                    &codes_b,
                    allowance,
                    &mut s32,
                    &mut w32
                ),
                class_compatibility_removal(
                    &class,
                    &a64,
                    usize::MAX,
                    &b64,
                    allowance,
                    &mut s64,
                    &mut w64
                )
            );
            assert_eq!(w32, w64);
        }
    }

    #[test]
    fn verdict_budget_short_circuits() {
        // Ten all-different pairs under one constant context column.
        let rows: Vec<Vec<i64>> = (0..10).map(|i| vec![0, i]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let cache = PartitionCache::new(&rel);
        let part = crate::partition::StrippedPartition::by_codes(&cache.codes(AttrId(0)));
        let a = cache.codes(AttrId(1));
        let verdict = |budget| {
            StatementJob::Constancy {
                part: &part,
                codes: &a,
            }
            .verdict(1, budget)
        };
        // Exact: removal 9 (keep one of ten values).
        let exact = verdict(usize::MAX);
        assert_eq!(exact.removal_count, 9);
        assert!(!exact.exceeded && !exact.holds() && exact.within(9));
        // Budget 3: the scan stops as soon as the count passes 3.
        let clipped = verdict(3);
        assert!(clipped.exceeded && !clipped.within(3));
        assert!(clipped.removal_count > 3);
        // Budget 0: the lower bound 1, with one split witness.
        let first = verdict(0);
        assert!(first.exceeded && first.removal_count == 1);
        assert_eq!(first.violating_pairs.len(), 1);
    }

    #[test]
    fn error_budget_clamps() {
        assert_eq!(error_budget(100, 0.0), 0);
        assert_eq!(error_budget(100, -0.5), 0);
        assert_eq!(error_budget(100, f64::NAN), 0);
        assert_eq!(error_budget(100, 0.05), 5);
        assert_eq!(error_budget(100, 1.0), 100);
        assert_eq!(error_budget(100, 7.0), 100);
        assert_eq!(error_budget(0, 0.5), 0);
    }

    #[test]
    fn verdict_join_caps_witnesses_and_takes_the_max() {
        let part = Verdict {
            removal_count: 2,
            exceeded: false,
            violating_pairs: vec![(0, 1); WITNESS_SAMPLE_CAP],
            classes_scanned: 1,
        };
        let mut m = Verdict::clean();
        m.join_max(&part);
        m.join_max(&part);
        assert_eq!(m.violating_pairs.len(), WITNESS_SAMPLE_CAP);
        m.join_max(&Verdict {
            removal_count: 7,
            ..Verdict::clean()
        });
        assert_eq!(m.removal_count, 7);
        assert_eq!(m.classes_scanned, 2);
        assert_eq!(m.g3(14), 0.5);
    }

    #[test]
    fn partition_od_check_agrees_with_sort_based_checker() {
        let rel = rel_from(&[
            &[1, 10, 100],
            &[2, 10, 200],
            &[2, 10, 200],
            &[3, 20, 300],
            &[4, 20, 100],
        ]);
        let ids: Vec<AttrId> = rel.schema().attr_ids().collect();
        let lists: Vec<AttrList> = vec![
            AttrList::empty(),
            AttrList::new([ids[0]]),
            AttrList::new([ids[1]]),
            AttrList::new([ids[2]]),
            AttrList::new([ids[0], ids[1]]),
            AttrList::new([ids[1], ids[2]]),
            AttrList::new([ids[2], ids[0]]),
        ];
        let mut cache = PartitionCache::new(&rel);
        for lhs in &lists {
            for rhs in &lists {
                let od = OrderDependency::new(lhs.clone(), rhs.clone());
                assert_eq!(
                    od_holds_with_partitions(&mut cache, &od),
                    od_holds(&rel, &od),
                    "disagreement on {od}"
                );
            }
        }
    }

    #[test]
    fn tiny_relations_satisfy_everything() {
        let rel = rel_from(&[&[1, 2]]);
        let ids: Vec<AttrId> = rel.schema().attr_ids().collect();
        let mut cache = PartitionCache::new(&rel);
        let od = OrderDependency::new(vec![ids[1]], vec![ids[0]]);
        assert!(od_holds_with_partitions(&mut cache, &od));
        let empty = rel_from(&[]);
        let mut cache2 = PartitionCache::new(&empty);
        assert!(od_holds_with_partitions(
            &mut cache2,
            &OrderDependency::new(AttrList::empty(), AttrList::empty())
        ));
    }
}
