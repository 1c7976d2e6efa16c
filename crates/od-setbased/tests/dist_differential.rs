//! Worker-count invariance of the lattice traversal.
//!
//! `discover_statements` distributes context expansion and statement
//! validation over a pool of worker threads.  Everything it returns —
//! minimal statements, verdicts (witness pairs included), `LatticeStats`,
//! per-level stats — must be bit-identical at every worker count, exact and
//! under a `g3` budget.  The checks are in [`assert_thread_invariant`]; this
//! file feeds it fixed edge cases and duplicate-heavy mixed-type relations.

use od_core::{Relation, Schema, Value};
use proptest::prelude::*;

mod common;
use common::assert_thread_invariant;

/// Duplicate-heavy values mixing small ints, NULLs and strings, so
/// partitions have real classes at a few dozen rows and some statements hold
/// while others fail.
fn value_strategy() -> impl Strategy<Value = Value> {
    (0u8..8).prop_map(|k| match k {
        0..=3 => Value::Int(i64::from(k) % 3),
        4 | 5 => Value::Null,
        6 => Value::Str("x".into()),
        _ => Value::Int(9),
    })
}

fn relation_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(value_strategy(), cols), 0..max_rows).prop_map(
        move |rows| {
            let mut schema = Schema::new("distdiff");
            for i in 0..cols {
                schema.add_attr(format!("c{i}"));
            }
            Relation::from_rows(schema, rows).expect("arity fixed by construction")
        },
    )
}

#[test]
fn taxes_fixture_is_worker_invariant_exact_and_budgeted() {
    assert_thread_invariant(&od_core::fixtures::example_5_taxes());
}

#[test]
fn empty_relation_is_worker_invariant() {
    let mut schema = Schema::new("empty");
    schema.add_attr("a");
    schema.add_attr("b");
    let rel = Relation::from_rows(schema, Vec::<Vec<Value>>::new()).unwrap();
    assert_thread_invariant(&rel);
}

#[test]
fn single_attribute_relation_is_worker_invariant() {
    let mut schema = Schema::new("one");
    schema.add_attr("a");
    let rel = Relation::from_rows(schema, [1, 1, 2].map(|v| vec![Value::Int(v)])).unwrap();
    // More workers than attributes: the extra shards stay idle.
    assert_thread_invariant(&rel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random duplicate-heavy relations: the traversal agrees bit-for-bit
    /// at 1, 2 and 4 workers.
    #[test]
    fn random_relations_are_worker_invariant(rel in relation_strategy(4, 28)) {
        assert_thread_invariant(&rel);
    }
}
