//! Differential proptests for the columnar code path.  The dictionary codes
//! built at relation construction, the counting-kernel partition refinement
//! and products, and the code-based statement verdicts must be bit-for-bit
//! interchangeable with their Value-comparison oracles — on relations with
//! NULLs, heavy duplicates, mixed value types, and single-value columns,
//! small and large (`CLASS_RADIX_MIN` is 256, so the "large" cases
//! genuinely take the validators' radix paths).

use od_core::check::od_removal_count;
use od_core::{AttrId, AttrSet, Relation, Schema, Value};
use od_setbased::validate::statement_verdict;
use od_setbased::{
    discover_statements, error_budget, ClassCodes, LatticeConfig, PartitionCache, RefineScratch,
    SetOd, StrippedPartition,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

/// Small value pool: NULLs, duplicate-heavy small integers, and a couple of
/// strings so the per-attribute dictionaries span value types (`Value`'s
/// total order puts Null first, then Int, then Str).
fn value_strategy() -> impl Strategy<Value = Value> {
    (0u8..8).prop_map(|k| match k {
        0..=3 => Value::Int(i64::from(k) % 3),
        4 | 5 => Value::Null,
        6 => Value::Str("x".into()),
        _ => Value::Str("y".into()),
    })
}

/// A relation with `cols` generated columns plus two appended degenerate
/// columns: a single-value column (every row `Int(42)` — one full class)
/// and a unique column (`Int(row)` — every class a
/// singleton, so its stripped partition is empty and its class codes are all
/// sentinel).  Together they pin both extremes of the product kernel.
fn relation_strategy(cols: usize, rows: std::ops::Range<usize>) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(value_strategy(), cols), rows).prop_map(
        move |rows| {
            let mut schema = Schema::new("coldiff");
            for i in 0..=cols + 1 {
                schema.add_attr(format!("c{i}"));
            }
            Relation::from_rows(
                schema,
                rows.into_iter().enumerate().map(|(i, mut r)| {
                    r.push(Value::Int(42));
                    r.push(Value::Int(i as i64));
                    r
                }),
            )
            .expect("arity fixed by construction")
        },
    )
}

/// Value-path oracle for stripped bucketing: sort `(&Value, row)` pairs with
/// `Value::cmp`, emit runs of ≥ 2 equal values, classes in first-member
/// order, members ascending — the output contract of [`StrippedPartition`].
fn bucket_by_value(rel: &Relation, attr: AttrId, rows: &[u32]) -> Vec<Vec<u32>> {
    let mut pairs: Vec<(&Value, u32)> = rows
        .iter()
        .map(|&r| (rel.value(r as usize, attr), r))
        .collect();
    pairs.sort_by(|x, y| x.0.cmp(y.0).then(x.1.cmp(&y.1)));
    let mut classes = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i + 1;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        if j - i >= 2 {
            classes.push(pairs[i..j].iter().map(|p| p.1).collect::<Vec<u32>>());
        }
        i = j;
    }
    classes.sort_by_key(|c| c[0]);
    classes
}

/// Every non-trivial canonical statement over the relation's attributes with
/// a context of at most `max_context` attributes.
fn all_statements(cols: u32, max_context: usize) -> Vec<SetOd> {
    let universe: Vec<AttrId> = (0..cols).map(AttrId).collect();
    let mut contexts: Vec<AttrSet> = vec![AttrSet::new()];
    for _ in 0..max_context {
        let mut next = Vec::new();
        for ctx in &contexts {
            for &a in &universe {
                if !ctx.contains(a) {
                    let mut bigger = *ctx;
                    bigger.insert(a);
                    next.push(bigger);
                }
            }
        }
        contexts.extend(next);
        contexts.sort();
        contexts.dedup();
    }
    let mut out = Vec::new();
    for ctx in &contexts {
        for &a in &universe {
            let c = SetOd::constancy(*ctx, a);
            if !c.is_trivial() {
                out.push(c);
            }
            for &b in &universe {
                if b > a {
                    let k = SetOd::compatibility(*ctx, a, b);
                    if !k.is_trivial() {
                        out.push(k);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Shared body: dictionary codes, stripped partitions and all width-2
/// refinements against the Value-comparison oracles, bit for bit.  Returns
/// the rows the kernel's counting branch bucketed.
fn assert_partitions_match_value_oracle(rel: &Relation) -> Result<u64, TestCaseError> {
    let all_rows: Vec<u32> = (0..rel.len() as u32).collect();
    let attrs: Vec<AttrId> = rel.schema().attr_ids().collect();
    let enc = rel.encoding();
    let mut scratch = RefineScratch::default();
    for (i, &a) in attrs.iter().enumerate() {
        // The encoding's code column is the same dense ranking the
        // comparison-sort reference produces.
        prop_assert_eq!(
            rel.rank_column(a),
            rel.rank_column_by_sort(a),
            "codes of {:?}",
            a
        );
        let p = StrippedPartition::by_codes_with(enc.codes(i), &mut scratch);
        let single = bucket_by_value(rel, a, &all_rows);
        prop_assert_eq!(p.class_vecs(), single.clone(), "Π_{{{:?}}}", a);
        for (j, &b) in attrs.iter().enumerate() {
            if i == j {
                continue;
            }
            let refined = p.refine_by_with(enc.codes(j), &mut scratch);
            let mut oracle = Vec::new();
            for class in &single {
                oracle.extend(bucket_by_value(rel, b, class));
            }
            oracle.sort_by_key(|c| c[0]);
            prop_assert_eq!(refined.class_vecs(), oracle, "Π_{{{:?},{:?}}}", a, b);
        }
    }
    Ok(scratch.counted_rows())
}

/// Shared body: exact (`ε = 0`, unbounded budget) removal counts and budgeted
/// (`ε > 0`) accept/reject decisions against the sort-based list-OD oracle.
fn assert_verdicts_match_value_oracle(rel: &Relation) -> Result<(), TestCaseError> {
    let cols = rel.schema().arity() as u32;
    let mut cache = PartitionCache::new(rel);
    for stmt in all_statements(cols, 2) {
        let exact = statement_verdict(&mut cache, &stmt, 1, usize::MAX);
        // Both list-OD directions of a compatibility share one removal count;
        // one representative suffices as the Value-path oracle.
        let oracle = od_removal_count(rel, &stmt.as_list_ods()[0]);
        prop_assert_eq!(
            exact.removal_count,
            oracle,
            "exact removal of {} on {} rows",
            &stmt,
            rel.len()
        );
        prop_assert_eq!(exact.holds(), oracle == 0);
        for epsilon in [0.1, 0.25] {
            let budget = error_budget(rel.len(), epsilon);
            let approx = statement_verdict(&mut cache, &stmt, 1, budget);
            // A budgeted scan may short-circuit, so only the decision is
            // pinned — the overshoot of a rejected verdict is not exact.
            prop_assert_eq!(
                approx.within(budget),
                oracle <= budget,
                "ε = {}: {} (oracle {}, budget {})",
                epsilon,
                &stmt,
                oracle,
                budget
            );
        }
    }
    Ok(())
}

/// Shared body: every ordered-pair product Π_A · Π_B on the kernel,
/// comparison-sort, and hash paths, bit for bit against the raw-code
/// refinement oracle (`Π_A` refined by B's dictionary codes — the level-1
/// path, which never sees class ids).  The three product paths drop rows
/// singleton in either operand; refinement strips them afterwards, so all
/// four land on the identical CSR partition.  Also pins self-product
/// idempotence (Π · Π = Π).  Returns the rows the products' counting branch
/// bucketed.
fn assert_products_match_oracles(rel: &Relation) -> Result<u64, TestCaseError> {
    let attrs: Vec<AttrId> = rel.schema().attr_ids().collect();
    let enc = rel.encoding();
    let mut scratch = RefineScratch::default();
    let mut kernel = RefineScratch::default();
    let parts: Vec<StrippedPartition> = (0..attrs.len())
        .map(|i| StrippedPartition::by_codes_with(enc.codes(i), &mut scratch))
        .collect();
    let codes: Vec<ClassCodes> = parts.iter().map(StrippedPartition::class_codes).collect();
    for (i, p) in parts.iter().enumerate() {
        for (j, c) in codes.iter().enumerate() {
            if i == j {
                continue;
            }
            let product = p.product_with(c, &mut kernel);
            let oracle = p.refine_by_with(enc.codes(j), &mut scratch);
            prop_assert_eq!(&product, &oracle, "product vs refinement {:?}x{:?}", i, j);
            let comparison = p.product_comparison(c, &mut scratch);
            prop_assert_eq!(
                &product,
                &comparison,
                "product vs comparison {:?}x{:?}",
                i,
                j
            );
            let hash = p.product_hash(c);
            prop_assert_eq!(&product, &hash, "product vs hash oracle {:?}x{:?}", i, j);
        }
        let self_product = p.product_with(&codes[i], &mut kernel);
        prop_assert_eq!(
            &self_product,
            p,
            "self-product of {:?} must be idempotent",
            i
        );
    }
    Ok(kernel.counted_rows())
}

/// A relation with `cols` columns drawn from `values` plus four appended
/// columns that pin the kernel's edge cases: a unique column (`|dom| = n`:
/// a key base, and an all-sentinel operand with 0 classes), a column with
/// `|dom| = n − 1` (one size-2 class), a pairs column (`row / 2`: only
/// size-2 classes) and a constant column (an operand with 1 class).
fn edge_relation_strategy<S>(
    values: S,
    cols: usize,
    rows: std::ops::Range<usize>,
) -> impl Strategy<Value = Relation>
where
    S: Strategy<Value = Value>,
{
    prop::collection::vec(prop::collection::vec(values, cols), rows).prop_map(move |rows| {
        let n = rows.len() as i64;
        let mut schema = Schema::new("edges");
        for i in 0..cols + 4 {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.into_iter().enumerate().map(|(i, mut r)| {
                let i = i as i64;
                r.push(Value::Int(i));
                r.push(Value::Int(if i == n - 1 && n >= 2 { 0 } else { i }));
                r.push(Value::Int(i / 2));
                r.push(Value::Int(7));
                r
            }),
        )
        .expect("arity fixed by construction")
    })
}

/// Every attribute set of `attrs` with at most `width` members, by size.
fn contexts_up_to(attrs: &[AttrId], width: usize) -> Vec<AttrSet> {
    let mut out: Vec<AttrSet> = (0u64..1 << attrs.len())
        .map(|mask| {
            let picked = attrs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
            picked.map(|(_, &a)| a).collect::<AttrSet>()
        })
        .filter(|set| set.len() <= width)
        .collect();
    out.sort_by_key(|set| (set.len(), *set));
    out
}

/// Kernel-free oracle for `Π_set`: rows grouped by their tuple of codes.
fn grouped_by_codes(rel: &Relation, set: &AttrSet) -> StrippedPartition {
    let cols: Vec<Vec<u32>> = set.iter().map(|a| rel.rank_column(a)).collect();
    let mut groups: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
    for row in 0..rel.len() {
        let key = cols.iter().map(|c| c[row]).collect();
        groups.entry(key).or_default().push(row as u32);
    }
    let classes = groups.into_values().filter(|c| c.len() >= 2).collect();
    StrippedPartition::from_classes(classes, rel.len())
}

/// Shared body: for every context `X` of width ≤ 4 and every split `a ∈ X`,
/// the product `Π_{X−a} · Π_{a}` equals the raw-code refinement chain, the
/// hash product and the kernel-free grouping oracle — directly, and through
/// a cache holding only `Π_{X−a}` (which forces that split).  Then the
/// level-wise batch path rebuilds every context at threads {1, 2, 4} with
/// identical partitions and an identical `partition_rows` count.
fn assert_every_split_matches_oracles(rel: &Relation) -> Result<(), TestCaseError> {
    let attrs: Vec<AttrId> = rel.schema().attr_ids().collect();
    let contexts = contexts_up_to(&attrs, 4);
    let mut chain: HashMap<AttrSet, StrippedPartition> = HashMap::new();
    for set in &contexts {
        let part = match set.last() {
            None => StrippedPartition::full(rel.len()),
            Some(last) => chain[&set.without(last)].refine_by(&rel.rank_column(last)),
        };
        prop_assert_eq!(&part, &grouped_by_codes(rel, set), "chain Π_{:?}", set);
        chain.insert(*set, part);
    }
    let class_codes: HashMap<AttrId, ClassCodes> = attrs
        .iter()
        .map(|&a| (a, chain[&AttrSet::singleton(a)].class_codes()))
        .collect();
    let mut scratch = RefineScratch::default();
    for set in contexts.iter().filter(|set| set.len() >= 2) {
        for a in set.iter() {
            let base = &chain[&set.without(a)];
            let product = base.product_with(&class_codes[&a], &mut scratch);
            prop_assert_eq!(&product, &chain[set], "Π_{:?} split on {:?}", set, a);
            prop_assert_eq!(&base.product_hash(&class_codes[&a]), &product);
            let mut cache = PartitionCache::new(rel);
            cache.partition(&set.without(a));
            prop_assert_eq!(&*cache.partition(set), &product, "cached split {:?}", a);
        }
    }
    let mut rows_at_one = None;
    for threads in [1usize, 2, 4] {
        let mut cache = PartitionCache::new(rel);
        for width in 0..=4 {
            let level: Vec<AttrSet> = contexts
                .iter()
                .copied()
                .filter(|set| set.len() == width)
                .collect();
            for (set, part) in level.iter().zip(cache.partitions_batch(&level, threads)) {
                prop_assert_eq!(
                    &*part,
                    &chain[set],
                    "batch Π_{:?}, threads {}",
                    set,
                    threads
                );
            }
            if width >= 1 {
                cache.evict_sets_of_size(width - 1);
            }
        }
        let rows = *rows_at_one.get_or_insert(cache.partition_rows);
        prop_assert_eq!(cache.partition_rows, rows, "threads {}", threads);
    }
    let discovered: Vec<u64> = [1, 2, 4]
        .map(|threads| {
            let config = LatticeConfig {
                max_context: 4,
                threads,
                ..Default::default()
            };
            discover_statements(rel, &config).stats.partition_rows
        })
        .to_vec();
    prop_assert!(
        discovered.iter().all(|&r| r == discovered[0]),
        "partition_rows across threads {{1, 2, 4}}: {:?}",
        discovered
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small relations: exhaustive shape coverage (empty, all-NULL columns,
    /// size-2 classes, every class below the validators' radix threshold).
    #[test]
    fn small_relations_partition_and_verdict_parity(
        rel in relation_strategy(2, 0usize..14),
    ) {
        assert_partitions_match_value_oracle(&rel)?;
        assert_products_match_oracles(&rel)?;
        assert_verdicts_match_value_oracle(&rel)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Large relations: few distinct values over hundreds of rows, so
    /// partition classes take the kernel's counting branch and clear
    /// `CLASS_RADIX_MIN` — this is the differential pin on the counting
    /// kernel and the validators' counting-sort paths (plus the single-value
    /// column, whose constant key must yield one full class).
    #[test]
    fn large_relations_take_radix_paths_and_agree(
        rel in relation_strategy(2, 400usize..520),
    ) {
        let counted = assert_partitions_match_value_oracle(&rel)?;
        prop_assert!(counted > 0, "expected the counting branch on large classes");
        let product_counted = assert_products_match_oracles(&rel)?;
        prop_assert!(
            product_counted > 0,
            "expected products to take the counting branch"
        );
        assert_verdicts_match_value_oracle(&rel)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `LatticeStats::partition_rows` (the counter behind
    /// `discovery.partition_rows`) is a pure function of the input: sharding
    /// the lattice's kernel jobs across worker threads must not change it,
    /// nor the discovered statements.
    #[test]
    fn product_pass_counts_are_thread_invariant(
        rel in relation_strategy(3, 0usize..40),
    ) {
        let config = |threads| LatticeConfig {
            max_context: 3,
            threads,
            ..Default::default()
        };
        let reference = discover_statements(&rel, &config(1));
        for threads in [4usize, 8] {
            let d = discover_statements(&rel, &config(threads));
            prop_assert_eq!(
                d.stats.partition_rows,
                reference.stats.partition_rows,
                "partition rows drifted at {} threads",
                threads
            );
            prop_assert_eq!(d.minimal_statements(), reference.minimal_statements());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every split of every width-≤4 context on NULL/string relations with
    /// the edge-case columns agrees with the refinement chain, the hash
    /// product and the grouping oracle, on the serial and batch paths.
    #[test]
    fn every_split_agrees_on_null_and_string_relations(
        rel in edge_relation_strategy(value_strategy(), 2, 0usize..40),
    ) {
        assert_every_split_matches_oracles(&rel)?;
    }

    /// The same pin on duplicate-heavy integer relations.
    #[test]
    fn every_split_agrees_on_int_relations(
        rel in edge_relation_strategy((0i64..5).prop_map(Value::Int), 2, 0usize..40),
    ) {
        assert_every_split_matches_oracles(&rel)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Hundreds of rows: large classes through the counting branch.
    #[test]
    fn every_split_agrees_on_large_relations(
        rel in edge_relation_strategy((0i64..9).prop_map(Value::Int), 2, 300usize..420),
    ) {
        assert_every_split_matches_oracles(&rel)?;
    }
}
