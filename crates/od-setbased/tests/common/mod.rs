//! Helpers shared by the integration tests of this crate.

use od_core::Relation;
use od_setbased::{discover_statements, LatticeConfig};

/// Assert the full result surface of a width-4 traversal — minimal
/// statements, verdicts (witness pairs included), [`LatticeStats`] and
/// per-level stats — is identical at 1, 2 and 4 threads, exact and under a
/// `g3` budget.  ε = 0.02 leaves the budget at 0 below 50 rows (decider on);
/// ε = 0.25 makes small relations take the budgeted, decider-off path.
///
/// [`LatticeStats`]: od_setbased::LatticeStats
pub fn assert_thread_invariant(rel: &Relation) {
    for epsilon in [0.0, 0.02, 0.25] {
        let config = LatticeConfig {
            max_context: 4,
            epsilon,
            ..Default::default()
        };
        let serial = discover_statements(rel, &config);
        for threads in [1, 2, 4] {
            let sharded = discover_statements(rel, &LatticeConfig { threads, ..config });
            let at = format!("threads={threads}, ε={epsilon}");
            assert_eq!(
                serial.minimal_statements(),
                sharded.minimal_statements(),
                "{at}"
            );
            assert_eq!(serial.verdicts(), sharded.verdicts(), "{at}");
            assert_eq!(serial.stats, sharded.stats, "{at}");
            assert_eq!(serial.level_stats(), sharded.level_stats(), "{at}");
        }
    }
}
