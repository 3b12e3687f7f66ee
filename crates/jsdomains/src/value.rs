//! Abstract JavaScript values.
//!
//! An abstract value is the reduced product of the per-type domains: a
//! set of possible `undefined`/`null` flags, a boolean lattice element, a
//! number lattice element, a prefix-string element, and a set of abstract
//! object addresses (allocation sites).

use crate::consts::{BoolDom, NumDom};
use crate::lattice::Lattice;
use crate::prefix::Pre;
use crate::sites::SiteSet;
use std::fmt;

/// An abstract heap address: the allocation site that created the object,
/// numbered densely by the base analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocSite(pub u32);

impl fmt::Display for AllocSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// An abstract value: the join-semilattice product of all base domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AValue {
    /// May the value be `undefined`?
    pub undef: bool,
    /// May the value be `null`?
    pub null: bool,
    /// Possible boolean values.
    pub bools: BoolDom,
    /// Possible numeric values.
    pub nums: NumDom,
    /// Possible string values (prefix domain).
    pub strs: Pre,
    /// Possible object addresses.
    pub objs: SiteSet,
}

impl AValue {
    /// The abstract `undefined`.
    pub fn undef() -> AValue {
        AValue {
            undef: true,
            ..AValue::bottom()
        }
    }

    /// The abstract `null`.
    pub fn null() -> AValue {
        AValue {
            null: true,
            ..AValue::bottom()
        }
    }

    /// An abstract boolean constant.
    pub fn bool(b: bool) -> AValue {
        AValue {
            bools: BoolDom::of(b),
            ..AValue::bottom()
        }
    }

    /// Any boolean.
    pub fn any_bool() -> AValue {
        AValue {
            bools: BoolDom::Top,
            ..AValue::bottom()
        }
    }

    /// An abstract numeric constant.
    pub fn num(n: f64) -> AValue {
        AValue {
            nums: NumDom::Const(n),
            ..AValue::bottom()
        }
    }

    /// Any number.
    pub fn any_num() -> AValue {
        AValue {
            nums: NumDom::Top,
            ..AValue::bottom()
        }
    }

    /// An abstract string from a prefix-domain element.
    pub fn str(s: impl Into<Pre>) -> AValue {
        AValue {
            strs: s.into(),
            ..AValue::bottom()
        }
    }

    /// Any string.
    pub fn any_str() -> AValue {
        AValue {
            strs: Pre::any(),
            ..AValue::bottom()
        }
    }

    /// A single object address.
    pub fn obj(site: AllocSite) -> AValue {
        let mut objs = SiteSet::new();
        objs.insert(site);
        AValue {
            objs,
            ..AValue::bottom()
        }
    }

    /// A set of object addresses.
    pub fn objects(sites: impl IntoIterator<Item = AllocSite>) -> AValue {
        AValue {
            objs: sites.into_iter().collect(),
            ..AValue::bottom()
        }
    }

    /// The completely unknown value (any type).
    pub fn any() -> AValue {
        AValue {
            undef: true,
            null: true,
            bools: BoolDom::Top,
            nums: NumDom::Top,
            strs: Pre::any(),
            objs: SiteSet::new(),
        }
    }

    /// May this value be a string?
    pub fn may_be_string(&self) -> bool {
        !self.strs.is_bottom()
    }

    /// May a property access on this value throw (i.e. may it be
    /// `undefined` or `null`)? This drives the implicit-exception CFG
    /// edges of Section 3.
    pub fn may_throw_on_access(&self) -> bool {
        self.undef || self.null
    }

    /// May this value be a non-object primitive?
    pub fn may_be_primitive(&self) -> bool {
        self.undef
            || self.null
            || self.bools != BoolDom::Bot
            || self.nums != NumDom::Bot
            || !self.strs.is_bottom()
    }

    /// Abstract truthiness.
    pub fn truthiness(&self) -> BoolDom {
        let mut may_true = !self.objs.is_empty();
        let mut may_false = self.undef || self.null;
        match self.bools {
            BoolDom::Bot => {}
            BoolDom::True => may_true = true,
            BoolDom::False => may_false = true,
            BoolDom::Top => {
                may_true = true;
                may_false = true;
            }
        }
        match self.nums {
            NumDom::Bot => {}
            NumDom::Const(n) => {
                if n != 0.0 && !n.is_nan() {
                    may_true = true;
                } else {
                    may_false = true;
                }
            }
            NumDom::Top => {
                may_true = true;
                may_false = true;
            }
        }
        match &self.strs {
            Pre::Bot => {}
            Pre::Exact(s) => {
                if s.is_empty() {
                    may_false = true;
                } else {
                    may_true = true;
                }
            }
            Pre::Prefix(p) => {
                may_true = true;
                if p.is_empty() {
                    may_false = true;
                }
            }
        }
        match (may_true, may_false) {
            (true, true) => BoolDom::Top,
            (true, false) => BoolDom::True,
            (false, true) => BoolDom::False,
            (false, false) => BoolDom::Bot,
        }
    }

    /// Abstract coercion to a string (for property keys, concatenation).
    pub fn to_abstract_string(&self) -> Pre {
        let mut out = Pre::Bot;
        if self.undef {
            out = out.join(&Pre::exact("undefined"));
        }
        if self.null {
            out = out.join(&Pre::exact("null"));
        }
        match self.bools {
            BoolDom::Bot => {}
            BoolDom::True => out = out.join(&Pre::exact("true")),
            BoolDom::False => out = out.join(&Pre::exact("false")),
            BoolDom::Top => {
                out = out.join(&Pre::exact("true")).join(&Pre::exact("false"));
            }
        }
        match self.nums {
            NumDom::Bot => {}
            NumDom::Const(n) => {
                out = out.join(&Pre::exact(jsparser::number_to_string(n)));
            }
            NumDom::Top => out = Pre::any(),
        }
        out = out.join(&self.strs);
        if !self.objs.is_empty() {
            // Object toString is arbitrary.
            out = Pre::any();
        }
        out
    }

    /// Rewrites one object address into another (recency aging).
    pub fn rename_site(&mut self, from: AllocSite, to: AllocSite) -> bool {
        if self.objs.remove(&from) {
            self.objs.insert(to);
            true
        } else {
            false
        }
    }

    /// Removes object addresses, keeping only primitive parts.
    pub fn without_objects(&self) -> AValue {
        AValue {
            objs: SiteSet::new(),
            ..self.clone()
        }
    }
}

impl Lattice for AValue {
    fn bottom() -> Self {
        AValue {
            undef: false,
            null: false,
            bools: BoolDom::Bot,
            nums: NumDom::Bot,
            strs: Pre::Bot,
            objs: SiteSet::new(),
        }
    }

    fn join(&self, other: &Self) -> Self {
        AValue {
            undef: self.undef || other.undef,
            null: self.null || other.null,
            bools: self.bools.join(&other.bools),
            nums: self.nums.join(&other.nums),
            strs: self.strs.join(&other.strs),
            objs: self.objs.union(&other.objs),
        }
    }

    fn leq(&self, other: &Self) -> bool {
        (!self.undef || other.undef)
            && (!self.null || other.null)
            && self.bools.leq(&other.bools)
            && self.nums.leq(&other.nums)
            && self.strs.leq(&other.strs)
            && self.objs.is_subset(&other.objs)
    }

    /// Component by component, inserting into `objs` in place: the
    /// default would build a union set and compare whole values on every
    /// property of every object join.
    fn join_in_place(&mut self, other: &Self) -> bool {
        let mut changed = false;
        if other.undef && !self.undef {
            self.undef = true;
            changed = true;
        }
        if other.null && !self.null {
            self.null = true;
            changed = true;
        }
        changed |= self.bools.join_in_place(&other.bools);
        changed |= self.nums.join_in_place(&other.nums);
        changed |= self.strs.join_in_place(&other.strs);
        for site in &other.objs {
            changed |= self.objs.insert(*site);
        }
        changed
    }
}

impl fmt::Display for AValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.undef {
            parts.push("undefined".into());
        }
        if self.null {
            parts.push("null".into());
        }
        if self.bools != BoolDom::Bot {
            parts.push(self.bools.to_string());
        }
        if self.nums != NumDom::Bot {
            parts.push(self.nums.to_string());
        }
        if !self.strs.is_bottom() {
            parts.push(self.strs.to_string());
        }
        for o in &self.objs {
            parts.push(o.to_string());
        }
        if parts.is_empty() {
            write!(f, "⊥")
        } else {
            write!(f, "{}", parts.join(" | "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_queries() {
        assert!(AValue::undef().may_throw_on_access());
        assert!(AValue::null().may_throw_on_access());
        assert!(!AValue::num(1.0).may_throw_on_access());
        assert!(!AValue::obj(AllocSite(0)).may_be_primitive());
        assert!(AValue::str("x").may_be_string());
    }

    #[test]
    fn truthiness() {
        assert_eq!(AValue::bool(true).truthiness(), BoolDom::True);
        assert_eq!(AValue::undef().truthiness(), BoolDom::False);
        assert_eq!(AValue::num(0.0).truthiness(), BoolDom::False);
        assert_eq!(AValue::num(2.0).truthiness(), BoolDom::True);
        assert_eq!(AValue::str("").truthiness(), BoolDom::False);
        assert_eq!(AValue::str("x").truthiness(), BoolDom::True);
        assert_eq!(AValue::any().truthiness(), BoolDom::Top);
        assert_eq!(
            AValue::str(Pre::prefix("ab")).truthiness(),
            BoolDom::True,
            "a string with nonempty prefix is never falsy"
        );
        assert_eq!(AValue::obj(AllocSite(1)).truthiness(), BoolDom::True);
    }

    #[test]
    fn to_string_coercion() {
        assert_eq!(AValue::num(42.0).to_abstract_string(), Pre::exact("42"));
        assert_eq!(
            AValue::undef().to_abstract_string(),
            Pre::exact("undefined")
        );
        assert_eq!(AValue::str("k").to_abstract_string(), Pre::exact("k"));
        assert_eq!(AValue::obj(AllocSite(0)).to_abstract_string(), Pre::any());
        // Join of two different constants becomes a common prefix.
        let v = AValue::bool(true).join(&AValue::bool(false));
        assert_eq!(
            v.to_abstract_string(),
            Pre::Bot
                .join(&Pre::exact("true"))
                .join(&Pre::exact("false"))
        );
    }

    #[test]
    fn join_and_leq() {
        let a = AValue::num(1.0);
        let b = AValue::str("s");
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert!(!j.leq(&a));
        assert!(AValue::bottom().leq(&a));
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(AValue::bottom().to_string(), "⊥");
        assert!(AValue::any().to_string().contains("undefined"));
    }
}

#[cfg(all(test, feature = "fuzz"))]
mod proptests {
    use super::*;
    use crate::lattice::laws;
    use minicheck::Gen;

    fn arb_value(g: &mut Gen) -> AValue {
        let bools = *g.pick(&[BoolDom::Bot, BoolDom::True, BoolDom::False, BoolDom::Top]);
        let nums = match g.below(3) {
            0 => NumDom::Bot,
            1 => NumDom::Top,
            _ => NumDom::Const(g.range(-2, 2) as f64),
        };
        let strs = match g.below(3) {
            0 => Pre::Bot,
            1 => Pre::exact(g.string_of(&['a', 'b'], 2)),
            _ => Pre::prefix(g.string_of(&['a', 'b'], 2)),
        };
        // Up to five draws of four sites, past `SiteSet`'s inline capacity.
        let objs: SiteSet = (0..g.below(6))
            .map(|_| AllocSite(g.below(4) as u32))
            .collect();
        AValue {
            undef: g.bool(),
            null: g.bool(),
            bools,
            nums,
            strs,
            objs,
        }
    }

    #[test]
    fn value_lattice_laws() {
        minicheck::check("value_lattice_laws", 256, |g| {
            let (a, b, c) = (arb_value(g), arb_value(g), arb_value(g));
            laws::check_join_laws(&a, &b, &c);
        });
    }

    #[test]
    fn to_string_monotone() {
        minicheck::check("value_to_string_monotone", 256, |g| {
            use crate::lattice::Lattice as _;
            let (a, b) = (arb_value(g), arb_value(g));
            if a.leq(&b) {
                assert!(a.to_abstract_string().leq(&b.to_abstract_string()));
            }
        });
    }
}
