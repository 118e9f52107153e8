//! Property tests for the storage primitives: bitvector algebra,
//! delta-log windowing, and value ordering laws.

use imp_storage::{BitVec, DeltaLog, DeltaOp, Row, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks Eq-based roundtrip comparison.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot check).
        if a.cmp(&b) == Ordering::Less && b.cmp(&c) == Ordering::Less {
            prop_assert_eq!(a.cmp(&c), Ordering::Less);
        }
        // Eq ⇒ equal hashes.
        if a == b {
            use std::hash::{Hash, Hasher};
            let mut ha = imp_storage::FxHasher::default();
            let mut hb = imp_storage::FxHasher::default();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    #[test]
    fn bitvec_algebra_laws(
        len in 1usize..300,
        xs in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
        ys in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
    ) {
        let a = BitVec::from_bits(len, xs.iter().map(|i| i.index(len)));
        let b = BitVec::from_bits(len, ys.iter().map(|i| i.index(len)));
        // Union is commutative and idempotent.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        // a ⊆ a ∪ b.
        prop_assert!(a.is_subset(&a.union(&b)));
        // count_ones consistent with iter_ones.
        prop_assert_eq!(a.count_ones(), a.iter_ones().count());
    }

    #[test]
    fn delta_log_since_partitions_the_log(
        entries in prop::collection::vec((1u64..20, any::<bool>(), any::<i64>()), 0..50),
        watermark in 0u64..25,
    ) {
        let mut sorted = entries.clone();
        sorted.sort_by_key(|e| e.0);
        let mut log = DeltaLog::new();
        for (v, ins, x) in &sorted {
            let op = if *ins { DeltaOp::Insert } else { DeltaOp::Delete };
            log.append(*v, op, Row::new(vec![Value::Int(*x)]), 1);
        }
        let after = log.since(watermark);
        // Everything returned is strictly after the watermark...
        prop_assert!(after.iter().all(|r| r.version > watermark));
        // ...and nothing after the watermark is missing.
        let expected = sorted.iter().filter(|e| e.0 > watermark).count();
        prop_assert_eq!(after.len(), expected);
        // Truncating through the watermark keeps exactly that window, and
        // the last logged version outlives the records it truncates.
        let last = sorted.last().map_or(0, |e| e.0);
        prop_assert_eq!(log.last_version(), last);
        log.truncate_through(watermark);
        prop_assert_eq!(log.len(), expected);
        prop_assert_eq!(log.last_version(), last);
    }
}
