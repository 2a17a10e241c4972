//! The activity link function `A`, its inverse `B`, and the extended
//! activity link function `E` (Sections 4.1 and 5.1).
//!
//! With `CP_i^j = T_i → T_k → ... → T_j` (classes above `i`, up to and
//! including `j`):
//!
//! * `A_i^j(m)` composes `I_old` **upward**: `I_j(... I_k(m))` — "the
//!   initiation time of successively the oldest active transaction"
//!   along the critical path. Always computable for `m ≤ now`.
//! * `B_j^i(m)` composes `C_late` **downward** over the same classes:
//!   `C_k(... C_j(m))`. It is `A`'s mirror: Property 2.1
//!   (`A_i^j(B_j^i(m)) ≥ m`) and Property 2.2 (`A_i^j(B_j^i(m) − ε) < m`)
//!   follow by telescoping the per-class inequalities
//!   `I_c(C_c(x)) ≥ x` and `I_c(C_c(x) − ε) < x`.
//! * `E_i^j(m)` walks the *undirected* critical path: an **upward** step
//!   into class `c` applies `I_c_old`; a **downward** step out of class
//!   `c` applies `C_c_late` — in both cases the function of the *higher*
//!   class of the arc. `E` inherits `C_late`'s computability caveat.
//!
//! `B` and `E` can be temporarily not computable (some transaction
//! started at or before the argument is still running); callers retry.

use super::registry::{ActivityRegistry, CLate};
use crate::analysis::Hierarchy;
use txn_model::{ClassId, Timestamp};

/// Evaluator for `A`, `B` and `E` over a hierarchy plus live activity.
#[derive(Debug, Clone, Copy)]
pub struct ActivityFuncs<'a> {
    hierarchy: &'a Hierarchy,
    registry: &'a ActivityRegistry,
}

impl<'a> ActivityFuncs<'a> {
    /// Bind a hierarchy and a registry.
    pub fn new(hierarchy: &'a Hierarchy, registry: &'a ActivityRegistry) -> Self {
        debug_assert_eq!(hierarchy.class_count(), registry.class_count());
        ActivityFuncs {
            hierarchy,
            registry,
        }
    }

    /// `A_i^j(m)`: fold `I_old` up the critical path from `i` to `j`,
    /// excluding `i`, including `j`. Returns `m` itself when `i == j`
    /// (the natural identity extension used by `⇒` case analysis).
    ///
    /// # Panics
    /// If no critical path `CP_i^j` exists.
    pub fn a_fn(&self, i: ClassId, j: ClassId, m: Timestamp) -> Timestamp {
        self.a_path(i, j, m, false, |_, _| {}).0
    }

    /// `A` anchored at a *fictitious class below `c`* (Section 5.0: a
    /// read-only transaction whose read segments lie on one critical
    /// path obeys the protocol of a class right below the lowest class of
    /// that path). Folds `I_old` over the path from `c` to `j`
    /// **including `c` itself**.
    pub fn a_fn_from_below(&self, c: ClassId, j: ClassId, m: Timestamp) -> Timestamp {
        self.a_path(c, j, m, true, |_, _| {}).0
    }

    /// The fold behind [`a_fn`](Self::a_fn) (or, `from_below`,
    /// [`a_fn_from_below`](Self::a_fn_from_below)) that reports every
    /// hop: `hop(k, v)` runs after `I_old` of class `k`. The hierarchy is
    /// a TST, so the path to each class `k` on `CP_i^j` is a prefix of
    /// it and `v` is the same function's value at `k` — `A_i^k(m)`.
    /// Returns the bound and the registry intervals examined (the obs
    /// registry-scan length).
    ///
    /// # Panics
    /// If no critical path `CP_i^j` exists.
    pub fn a_path(
        &self,
        i: ClassId,
        j: ClassId,
        m: Timestamp,
        from_below: bool,
        mut hop: impl FnMut(ClassId, Timestamp),
    ) -> (Timestamp, u64) {
        let paths = self.hierarchy.paths();
        let hops = match from_below {
            false => paths.a_hops(i.index(), j.index()),
            true => paths.a_hops_inclusive(i.index(), j.index()),
        };
        let hops = hops.unwrap_or_else(|| panic!("A_{i}^{j} undefined: no critical path"));
        hops.iter().fold((m, 0), |(cur, scanned), &c| {
            let (t, s) = self.registry.i_old_counted(ClassId(c), cur);
            hop(ClassId(c), t);
            (t, scanned + s)
        })
    }

    /// `B_j^i(m)`: fold `C_late` down the critical path from `j` to `i`,
    /// including `j`, excluding `i`. Identity when `i == j`.
    ///
    /// # Panics
    /// If no critical path `CP_i^j` exists.
    pub fn b_fn(&self, j: ClassId, i: ClassId, m: Timestamp) -> CLate {
        let hops = self
            .hierarchy
            .paths()
            .a_hops(i.index(), j.index())
            .unwrap_or_else(|| panic!("B_{j}^{i} undefined: no critical path"));
        let mut cur = m;
        for &c in hops.iter().rev() {
            match self.registry.c_late(ClassId(c), cur) {
                CLate::Time(t) => cur = t,
                CLate::NotComputable => return CLate::NotComputable,
            }
        }
        CLate::Time(cur)
    }

    /// `E_i^j(m)`: walk `UCP_i^j`; each upward step into class `c`
    /// applies `I_c_old`, each downward step out of class `c` applies
    /// `C_c_late`. Identity when `i == j`. `None`-style
    /// [`CLate::NotComputable`] propagates.
    ///
    /// # Panics
    /// If `i` and `j` are in different components (no UCP).
    pub fn e_fn(&self, i: ClassId, j: ClassId, m: Timestamp) -> CLate {
        let steps = self
            .hierarchy
            .paths()
            .e_steps(i.index(), j.index())
            .unwrap_or_else(|| panic!("E_{i}^{j} undefined: no UCP (different components)"));
        let mut cur = m;
        for &(is_up, c) in steps {
            if is_up {
                cur = self.registry.i_old(ClassId(c), cur);
            } else {
                match self.registry.c_late(ClassId(c), cur) {
                    CLate::Time(t) => cur = t,
                    CLate::NotComputable => return CLate::NotComputable,
                }
            }
        }
        CLate::Time(cur)
    }

    /// The hierarchy this evaluator is bound to.
    pub fn hierarchy(&self) -> &'a Hierarchy {
        self.hierarchy
    }

    /// The registry this evaluator is bound to.
    pub fn registry(&self) -> &'a ActivityRegistry {
        self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AccessSpec;
    use txn_model::SegmentId;

    fn ts(t: u64) -> Timestamp {
        Timestamp(t)
    }

    /// Chain hierarchy 2 → 1 → 0 (class 2 lowest, class 0 highest):
    /// the paper's inventory shape.
    fn chain() -> Hierarchy {
        let s = SegmentId;
        Hierarchy::build(
            3,
            &[
                AccessSpec::new("t1", vec![s(0)], vec![]),
                AccessSpec::new("t2", vec![s(1)], vec![s(0)]),
                AccessSpec::new("t3", vec![s(2)], vec![s(0), s(1)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn a_fn_composes_i_old_up_the_path() {
        let h = chain();
        let r = ActivityRegistry::new(3);
        // Class 1 has a txn active since 4; class 0 active since 6.
        r.begin(ClassId(1), ts(4));
        r.begin(ClassId(0), ts(6));
        let f = ActivityFuncs::new(&h, &r);
        // A_2^1(10) = I_1_old(10) = 4.
        assert_eq!(f.a_fn(ClassId(2), ClassId(1), ts(10)), ts(4));
        // A_2^0(10) = I_0_old(I_1_old(10)) = I_0_old(4) = 4
        // (class 0's txn started at 6 > 4, so not active at 4).
        assert_eq!(f.a_fn(ClassId(2), ClassId(0), ts(10)), ts(4));
        // With nothing active, A is the identity.
        r.commit(ClassId(1), ts(4), ts(7));
        r.commit(ClassId(0), ts(6), ts(8));
        assert_eq!(f.a_fn(ClassId(2), ClassId(0), ts(20)), ts(20));
        // i == j is the identity.
        assert_eq!(f.a_fn(ClassId(2), ClassId(2), ts(9)), ts(9));
    }

    #[test]
    fn a_fn_figure6_walkthrough() {
        // Figure 6: CP = T_i → T_k → T_j; A_i^j(m) = I_j_old(I_k_old(m)).
        let h = chain(); // i=2, k=1, j=0
        let r = ActivityRegistry::new(3);
        r.begin(ClassId(1), ts(10)); // oldest active in T_k at m=30
        r.begin(ClassId(1), ts(20));
        r.begin(ClassId(0), ts(5)); // oldest active in T_j at 10
        r.begin(ClassId(0), ts(8));
        let f = ActivityFuncs::new(&h, &r);
        // I_k_old(30) = 10; I_j_old(10) = 5.
        assert_eq!(f.a_fn(ClassId(2), ClassId(0), ts(30)), ts(5));
    }

    #[test]
    fn a_from_below_includes_the_base_class() {
        let h = chain();
        let r = ActivityRegistry::new(3);
        r.begin(ClassId(2), ts(3));
        let f = ActivityFuncs::new(&h, &r);
        // Fictitious class below 2: I_2_old applies first.
        assert_eq!(f.a_fn_from_below(ClassId(2), ClassId(2), ts(10)), ts(3));
        // Plain A_2^2 would be the identity.
        assert_eq!(f.a_fn(ClassId(2), ClassId(2), ts(10)), ts(10));
    }

    #[test]
    fn b_fn_mirrors_a_fn() {
        let h = chain();
        let r = ActivityRegistry::new(3);
        // One committed interval per class.
        r.begin(ClassId(0), ts(2));
        r.commit(ClassId(0), ts(2), ts(12));
        r.begin(ClassId(1), ts(3));
        r.commit(ClassId(1), ts(3), ts(15));
        let f = ActivityFuncs::new(&h, &r);
        // B_0^2(5) = C_1_late(C_0_late(5)) = C_1_late(12) = 15.
        assert_eq!(f.b_fn(ClassId(0), ClassId(2), ts(5)), CLate::Time(ts(15)));
        // Not computable while a relevant txn runs.
        r.begin(ClassId(0), ts(20));
        assert_eq!(f.b_fn(ClassId(0), ClassId(2), ts(21)), CLate::NotComputable);
        // ... but computable for arguments before it started.
        assert_eq!(f.b_fn(ClassId(0), ClassId(2), ts(19)), CLate::Time(ts(19)));
    }

    #[test]
    fn property_2_1_and_2_2_on_a_scenario() {
        // A(B(m)) >= m and A(B(m) - ε) < m.
        let h = chain();
        let r = ActivityRegistry::new(3);
        r.begin(ClassId(0), ts(4));
        r.commit(ClassId(0), ts(4), ts(11));
        r.begin(ClassId(1), ts(6));
        r.commit(ClassId(1), ts(6), ts(14));
        let f = ActivityFuncs::new(&h, &r);
        for m in 1..20u64 {
            let m = ts(m);
            if let CLate::Time(b) = f.b_fn(ClassId(0), ClassId(2), m) {
                assert!(
                    f.a_fn(ClassId(2), ClassId(0), b) >= m,
                    "Property 2.1 violated at m={m}"
                );
                assert!(
                    f.a_fn(ClassId(2), ClassId(0), b.pred()) < m || b == Timestamp::ZERO,
                    "Property 2.2 violated at m={m}"
                );
            }
        }
    }

    /// Branching hierarchy for E: 3 → 1 → 0 ← 2, 4 → 1.
    fn tree() -> Hierarchy {
        let s = SegmentId;
        Hierarchy::build(
            5,
            &[
                AccessSpec::new("top", vec![s(0)], vec![]),
                AccessSpec::new("mid", vec![s(1)], vec![s(0)]),
                AccessSpec::new("right", vec![s(2)], vec![s(0)]),
                AccessSpec::new("leaf3", vec![s(3)], vec![s(1), s(0)]),
                AccessSpec::new("leaf4", vec![s(4)], vec![s(1)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn e_fn_identity_and_pure_up() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        r.begin(ClassId(1), ts(5));
        let f = ActivityFuncs::new(&h, &r);
        assert_eq!(f.e_fn(ClassId(3), ClassId(3), ts(9)), CLate::Time(ts(9)));
        // Pure-up UCP 3 → 1: E = I_1_old = A_3^1.
        assert_eq!(f.e_fn(ClassId(3), ClassId(1), ts(9)), CLate::Time(ts(5)));
        assert_eq!(
            f.e_fn(ClassId(3), ClassId(1), ts(9)),
            CLate::Time(f.a_fn(ClassId(3), ClassId(1), ts(9)))
        );
    }

    #[test]
    fn e_fn_peak_path_applies_c_late_of_the_apex() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        // Apex class 1: interval (5, 12) committed.
        r.begin(ClassId(1), ts(5));
        r.commit(ClassId(1), ts(5), ts(12));
        let f = ActivityFuncs::new(&h, &r);
        // UCP 3 → 1 → 4: up into 1 then down out of 1.
        // E = C_1_late(I_1_old(m)); at m=9: I_1_old(9) = 5; C_1_late(5)=5
        // (nothing active strictly before 5).
        assert_eq!(f.e_fn(ClassId(3), ClassId(4), ts(9)), CLate::Time(ts(5)));
        // At m=20 (after commit): I_1_old(20) = 20, C_1_late(20) = 20.
        assert_eq!(f.e_fn(ClassId(3), ClassId(4), ts(20)), CLate::Time(ts(20)));
    }

    #[test]
    fn e_fn_down_path_not_computable_while_running() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        r.begin(ClassId(0), ts(4)); // running in the top class
        let f = ActivityFuncs::new(&h, &r);
        // UCP 3 → 1 → 0 → 2 includes a downward step out of 0.
        assert_eq!(f.e_fn(ClassId(3), ClassId(2), ts(9)), CLate::NotComputable);
        r.commit(ClassId(0), ts(4), ts(10));
        assert!(matches!(
            f.e_fn(ClassId(3), ClassId(2), ts(9)),
            CLate::Time(_)
        ));
    }

    #[test]
    #[should_panic(expected = "no critical path")]
    fn a_fn_panics_off_path() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        // 3 and 4 are siblings: no CP.
        f.a_fn(ClassId(3), ClassId(4), ts(5));
    }
}
