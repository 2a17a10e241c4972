//! The *topologically follows* relation `⇒` (Section 4.3).
//!
//! Defined for transactions `t1 ∈ T_i`, `t2 ∈ T_j` whose classes lie on
//! one critical path:
//!
//! 1. `T_i = T_j`:  `t1 ⇒ t2` iff `I(t1) > I(t2)`;
//! 2. `T_i ↑ T_j` (t1's class higher):  `t1 ⇒ t2` iff
//!    `I(t1) ≥ A_j^i(I(t2))`;
//! 3. `T_j ↑ T_i` (t2's class higher):  `t1 ⇒ t2` iff
//!    `I(t2) < A_i^j(I(t1))`.
//!
//! `⇒` is anti-symmetric (Property 1.1) and critical-path transitive
//! (Property 1.2); the scheduler enforces the **partition synchronization
//! rule** — every direct dependency `t1 → t2` implies `t1 ⇒ t2` — which by
//! Theorem 1 keeps the dependency graph acyclic. This module exists to
//! *check* the relation in tests and property tests; the scheduler itself never evaluates `⇒` (that is the point of the
//! algorithm: Protocols A/B enforce it implicitly).

use super::funcs::ActivityFuncs;
use txn_model::{ClassId, Timestamp};

/// A transaction's coordinates for the relation: class and initiation
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnCoord {
    /// The transaction's class.
    pub class: ClassId,
    /// Its initiation time `I(t)`.
    pub start: Timestamp,
}

impl TxnCoord {
    /// Build a coordinate.
    pub fn new(class: ClassId, start: Timestamp) -> Self {
        TxnCoord { class, start }
    }
}

/// Evaluate `t1 ⇒ t2`. Returns `None` when the classes are not on one
/// critical path (the relation is undefined there: the `A` function does
/// not exist).
pub fn topologically_follows(
    funcs: &ActivityFuncs<'_>,
    t1: TxnCoord,
    t2: TxnCoord,
) -> Option<bool> {
    let h = funcs.hierarchy();
    if t1.class == t2.class {
        return Some(t1.start > t2.start);
    }
    if h.higher_than(t1.class, t2.class) {
        // Case 2: t1 higher; compare I(t1) against A from t2's class up
        // to t1's class applied to I(t2).
        Some(t1.start >= funcs.a_fn(t2.class, t1.class, t2.start))
    } else if h.higher_than(t2.class, t1.class) {
        // Case 3: t2 higher.
        Some(t2.start < funcs.a_fn(t1.class, t2.class, t1.start))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::registry::ActivityRegistry;
    use crate::analysis::{AccessSpec, Hierarchy};
    use txn_model::SegmentId;

    fn ts(t: u64) -> Timestamp {
        Timestamp(t)
    }

    /// Chain 2 → 1 → 0 plus a sibling 3 → 0 (3 and 1 incomparable...
    /// actually 3 → 0 makes 3 comparable to 0 but not to 1 or 2).
    fn hierarchy() -> Hierarchy {
        let s = SegmentId;
        Hierarchy::build(
            4,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c2", vec![s(2)], vec![s(1), s(0)]),
                AccessSpec::new("c3", vec![s(3)], vec![s(0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn same_class_is_initiation_order() {
        let h = hierarchy();
        let r = ActivityRegistry::new(4);
        let f = ActivityFuncs::new(&h, &r);
        let a = TxnCoord::new(ClassId(1), ts(5));
        let b = TxnCoord::new(ClassId(1), ts(9));
        assert_eq!(topologically_follows(&f, b, a), Some(true));
        assert_eq!(topologically_follows(&f, a, b), Some(false));
        assert_eq!(topologically_follows(&f, a, a), Some(false));
    }

    #[test]
    fn cross_class_uses_activity_link() {
        let h = hierarchy();
        let r = ActivityRegistry::new(4);
        // Class 1 (higher than 2) has a long-running txn since 3.
        r.begin(ClassId(1), ts(3));
        let f = ActivityFuncs::new(&h, &r);

        // t_low ∈ T_2 at 10; t_high ∈ T_1 at 3 (the running one).
        // Case 3 for (t_low ⇒ t_high): I(t_high)=3 < A_2^1(10)=I_1_old(10)=3?
        // 3 < 3 is false → t_low does NOT follow t_high.
        let t_low = TxnCoord::new(ClassId(2), ts(10));
        let t_high = TxnCoord::new(ClassId(1), ts(3));
        assert_eq!(topologically_follows(&f, t_low, t_high), Some(false));

        // An older high txn that committed earlier IS followed.
        let t_high_old = TxnCoord::new(ClassId(1), ts(2));
        assert_eq!(topologically_follows(&f, t_low, t_high_old), Some(true));

        // Case 2: t_high ⇒ t_low iff I(t_high) ≥ A_2^1(I(t_low)) =
        // I_1_old(10) = 3: the running txn at 3 follows t_low.
        assert_eq!(topologically_follows(&f, t_high, t_low), Some(true));
    }

    #[test]
    fn anti_symmetry_property_1_1() {
        let h = hierarchy();
        let r = ActivityRegistry::new(4);
        r.begin(ClassId(1), ts(4));
        r.begin(ClassId(0), ts(2));
        let f = ActivityFuncs::new(&h, &r);
        let pairs = [
            (
                TxnCoord::new(ClassId(2), ts(7)),
                TxnCoord::new(ClassId(1), ts(4)),
            ),
            (
                TxnCoord::new(ClassId(2), ts(7)),
                TxnCoord::new(ClassId(0), ts(2)),
            ),
            (
                TxnCoord::new(ClassId(1), ts(4)),
                TxnCoord::new(ClassId(0), ts(2)),
            ),
            (
                TxnCoord::new(ClassId(1), ts(1)),
                TxnCoord::new(ClassId(1), ts(6)),
            ),
        ];
        for (a, b) in pairs {
            let ab = topologically_follows(&f, a, b).unwrap();
            let ba = topologically_follows(&f, b, a).unwrap();
            assert!(!(ab && ba), "⇒ must be anti-symmetric for {a:?}, {b:?}");
        }
    }

    #[test]
    fn undefined_off_critical_path() {
        let h = hierarchy();
        let r = ActivityRegistry::new(4);
        let f = ActivityFuncs::new(&h, &r);
        // Classes 2 and 3 are not on one critical path.
        let a = TxnCoord::new(ClassId(2), ts(5));
        let b = TxnCoord::new(ClassId(3), ts(6));
        assert_eq!(topologically_follows(&f, a, b), None);
    }

    #[test]
    fn transitivity_spot_check_property_1_2() {
        // t1 ∈ T_2, t2 ∈ T_1, t3 ∈ T_0 on the chain; verify
        // t1 ⇒ t2 ∧ t2 ⇒ t3 → t1 ⇒ t3 over a grid of times.
        let h = hierarchy();
        let r = ActivityRegistry::new(4);
        r.begin(ClassId(1), ts(5));
        r.commit(ClassId(1), ts(5), ts(9));
        r.begin(ClassId(0), ts(3));
        r.commit(ClassId(0), ts(3), ts(12));
        r.begin(ClassId(0), ts(11));
        let f = ActivityFuncs::new(&h, &r);
        for i1 in 1..15u64 {
            for i2 in 1..15u64 {
                for i3 in 1..15u64 {
                    let t1 = TxnCoord::new(ClassId(2), ts(i1));
                    let t2 = TxnCoord::new(ClassId(1), ts(i2));
                    let t3 = TxnCoord::new(ClassId(0), ts(i3));
                    let ab = topologically_follows(&f, t1, t2).unwrap();
                    let bc = topologically_follows(&f, t2, t3).unwrap();
                    let ac = topologically_follows(&f, t1, t3).unwrap();
                    if ab && bc {
                        assert!(ac, "transitivity violated at ({i1},{i2},{i3})");
                    }
                }
            }
        }
    }
}
