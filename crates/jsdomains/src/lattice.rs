//! The lattice abstraction shared by all abstract domains.

/// A join semi-lattice with a partial order, as used by the abstract
/// interpreter. `bottom` is the least element (unreachable / uninitialized).
///
/// Implementations must satisfy the usual laws, which the test-suites of
/// the concrete domains check with `proptest`:
///
/// - `join` is commutative, associative, and idempotent;
/// - `leq` is a partial order consistent with `join`
///   (`a.leq(b) <=> a.join(b) == b`);
/// - `bottom.leq(a)` for all `a`.
pub trait Lattice: Clone + PartialEq {
    /// The least element.
    fn bottom() -> Self;

    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;

    /// Partial order test.
    fn leq(&self, other: &Self) -> bool;

    /// True if this is the least element.
    fn is_bottom(&self) -> bool {
        *self == Self::bottom()
    }

    /// Joins `other` into `self`, returning true if `self` changed.
    /// The workhorse of worklist fixpoints.
    fn join_in_place(&mut self, other: &Self) -> bool {
        let joined = self.join(other);
        if joined == *self {
            false
        } else {
            *self = joined;
            true
        }
    }
}

/// A lattice that also has a greatest element and a meet operation.
pub trait MeetLattice: Lattice {
    /// The greatest element.
    fn top() -> Self;

    /// Greatest lower bound.
    fn meet(&self, other: &Self) -> Self;

    /// True if this is the greatest element.
    fn is_top(&self) -> bool {
        *self == Self::top()
    }
}

#[cfg(all(test, feature = "fuzz"))]
pub(crate) mod laws {
    //! Reusable law checks invoked from each domain's proptest suite.
    use super::*;

    pub fn check_join_laws<L: Lattice + std::fmt::Debug>(a: &L, b: &L, c: &L) {
        assert_eq!(a.join(b), b.join(a), "join commutes");
        assert_eq!(a.join(a), a.clone(), "join idempotent");
        assert_eq!(
            a.join(b).join(c),
            a.join(&b.join(c)),
            "join associative"
        );
        assert!(L::bottom().leq(a), "bottom is least");
        assert!(a.leq(&a.join(b)), "join is an upper bound (left)");
        assert!(b.leq(&a.join(b)), "join is an upper bound (right)");
        assert_eq!(a.leq(b), &a.join(b) == b, "leq consistent with join");
        // `join_in_place` (which a domain may override) agrees with
        // `join`: it leaves the join behind and reports a change exactly
        // when the join differs from `a`.
        let mut joined = a.clone();
        let changed = joined.join_in_place(b);
        assert_eq!(changed, &a.join(b) != a, "join_in_place reports change");
        assert_eq!(joined, a.join(b), "join_in_place leaves the join");
    }

    pub fn check_meet_laws<L: MeetLattice + std::fmt::Debug>(a: &L, b: &L) {
        assert_eq!(a.meet(b), b.meet(a), "meet commutes");
        assert_eq!(a.meet(a), a.clone(), "meet idempotent");
        assert!(a.meet(b).leq(a), "meet is a lower bound (left)");
        assert!(a.meet(b).leq(b), "meet is a lower bound (right)");
        assert!(a.leq(&L::top()), "top is greatest");
    }
}
