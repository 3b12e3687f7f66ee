//! The prefix string abstract domain of Section 5 of the paper.
//!
//! The domain is `Pre = (String x Boolean) + bottom`: an element `(str, b)`
//! with `b = true` means *exactly* the string `str`; `b = false` means
//! *some string with prefix* `str`. Bottom represents an uninitialized
//! string value and top is `("", false)` (every string has the empty
//! prefix). Tracking exact strings, not just prefixes, matters because the
//! same domain doubles as the property-name domain of the base analysis
//! (the paper's key precision observation over Costantini et al.).
//!
//! Elements carry interned [`Sym`]s, which makes the whole domain `Copy`:
//! joins, equality tests, and property-name comparisons in the
//! interpreter's hot path never allocate.

use crate::lattice::{Lattice, MeetLattice};
use crate::sym::Sym;
use std::fmt;

/// An element of the prefix string domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pre {
    /// No string at all (uninitialized).
    Bot,
    /// Exactly the contained string: `(str, true)` in the paper.
    Exact(Sym),
    /// Any string starting with the contained prefix: `(str, false)`.
    Prefix(Sym),
}

impl Pre {
    /// The top element: all possible strings.
    pub fn any() -> Pre {
        Pre::Prefix(Sym::empty())
    }

    /// An exact string.
    pub fn exact(s: impl AsRef<str>) -> Pre {
        Pre::Exact(Sym::intern(s.as_ref()))
    }

    /// A known prefix of an otherwise unknown string.
    pub fn prefix(s: impl AsRef<str>) -> Pre {
        Pre::Prefix(Sym::intern(s.as_ref()))
    }

    /// True if this element denotes exactly one string.
    pub fn is_exact(&self) -> bool {
        matches!(self, Pre::Exact(_))
    }

    /// The exact string, if this element is exact.
    pub fn as_exact(&self) -> Option<&'static str> {
        match self {
            Pre::Exact(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The known text (exact string or prefix); `None` for bottom.
    pub fn known_text(&self) -> Option<&'static str> {
        match self {
            Pre::Bot => None,
            Pre::Exact(s) | Pre::Prefix(s) => Some(s.as_str()),
        }
    }

    /// Membership in the concretization: could this abstract element
    /// describe the concrete string `s`?
    pub fn may_be(&self, s: &str) -> bool {
        match self {
            Pre::Bot => false,
            Pre::Exact(e) => *e == s,
            Pre::Prefix(p) => s.starts_with(p.as_str()),
        }
    }

    /// Abstract string concatenation, the `+` of Section 5:
    ///
    /// - `bot + X = X + bot = bot`
    /// - `(s1, true) + (s2, b2) = (s1 . s2, b2)`
    /// - `(s1, false) + (s2, b2) = (s1, false)`
    pub fn concat(&self, other: &Pre) -> Pre {
        match (self, other) {
            (Pre::Bot, _) | (_, Pre::Bot) => Pre::Bot,
            (Pre::Exact(a), _) if a.is_empty() => *other,
            (Pre::Exact(a), Pre::Exact(b)) => Pre::exact(format!("{a}{b}")),
            (Pre::Exact(a), Pre::Prefix(b)) => Pre::prefix(format!("{a}{b}")),
            (Pre::Prefix(a), _) => Pre::Prefix(*a),
        }
    }

    /// Byte length of the greatest common prefix (always a char
    /// boundary in both strings).
    fn common_prefix_len(a: &str, b: &str) -> usize {
        a.char_indices()
            .zip(b.chars())
            .take_while(|((_, ca), cb)| ca == cb)
            .last()
            .map(|((i, ca), _)| i + ca.len_utf8())
            .unwrap_or(0)
    }

    /// Greatest common prefix of two strings (the paper's `(+)` operator).
    pub fn common_prefix(a: &str, b: &str) -> String {
        a[..Pre::common_prefix_len(a, b)].to_owned()
    }

    /// Abstract equality comparison against another abstract string:
    /// `Some(true)`/`Some(false)` when the comparison is statically
    /// decided, `None` when both outcomes are possible.
    pub fn compare_eq(&self, other: &Pre) -> Option<bool> {
        match (self, other) {
            (Pre::Bot, _) | (_, Pre::Bot) => None,
            (Pre::Exact(a), Pre::Exact(b)) => Some(a == b),
            // An exact string the prefix admits could be the unknown
            // string or not, and so could two unknown strings whose
            // prefixes are compatible; only incompatible ones differ.
            _ if self.leq(other) || other.leq(self) => None,
            _ => Some(false),
        }
    }

    /// Abstract lowercasing (preserves exactness; lowercasing is
    /// prefix-monotone for ASCII, which is all URLs need).
    pub fn to_lowercase(&self) -> Pre {
        match self {
            Pre::Bot => Pre::Bot,
            Pre::Exact(s) => Pre::exact(s.to_lowercase()),
            Pre::Prefix(s) => {
                if s.is_ascii() {
                    Pre::prefix(s.to_lowercase())
                } else {
                    Pre::any()
                }
            }
        }
    }

    /// Abstract `substring(0, n)` / `slice(0, n)`: taking a leading slice
    /// of a known prefix keeps the shorter prefix.
    pub fn leading_slice(&self, n: usize) -> Pre {
        match self {
            Pre::Bot => Pre::Bot,
            Pre::Exact(s) => {
                let end = s.char_indices().nth(n).map(|(i, _)| i).unwrap_or(s.len());
                Pre::exact(&s[..end])
            }
            Pre::Prefix(p) => {
                let end = p.char_indices().nth(n).map(|(i, _)| i).unwrap_or(p.len());
                if end < p.len() {
                    // The slice is fully inside the known prefix: exact.
                    Pre::exact(&p[..end])
                } else {
                    Pre::Prefix(*p)
                }
            }
        }
    }

    /// The result of any string operation we model conservatively.
    pub fn unknown_derived(&self) -> Pre {
        match self {
            Pre::Bot => Pre::Bot,
            _ => Pre::any(),
        }
    }
}

impl Lattice for Pre {
    fn bottom() -> Self {
        Pre::Bot
    }

    /// Join per Section 5: exact strings join to themselves when equal,
    /// everything else joins to the greatest common prefix (as a prefix).
    ///
    /// The comparable cases (including the overwhelmingly common `x ⊔ x`)
    /// are answered without touching the interner; only a genuinely new
    /// common prefix interns a string.
    fn join(&self, other: &Self) -> Self {
        if self.leq(other) {
            return *other;
        }
        if other.leq(self) {
            return *self;
        }
        // Incomparable: both are non-bottom, result is the common prefix.
        let (sa, sb) = match (self, other) {
            (Pre::Exact(a) | Pre::Prefix(a), Pre::Exact(b) | Pre::Prefix(b)) => (*a, *b),
            _ => unreachable!("bot is comparable to everything"),
        };
        let end = Pre::common_prefix_len(sa.as_str(), sb.as_str());
        // When the common prefix IS one of the operands' texts (e.g.
        // Exact("a") ⊔ Exact("ab"), or Exact ⊔ an incompatible Prefix it
        // extends), reuse that operand's Sym: no allocation, and — more
        // importantly — no fresh intern. A corpus sweep joins the same
        // incomparable pairs millions of times; only a genuinely new
        // common-prefix *text* may grow the interner, and interning the
        // same text repeatedly is already a no-op, so growth stays
        // bounded by the set of distinct common prefixes.
        if end == sa.len() {
            return Pre::Prefix(sa);
        }
        if end == sb.len() {
            return Pre::Prefix(sb);
        }
        Pre::prefix(&sa.as_str()[..end])
    }

    /// Order per Section 5: `(s1,b1) <= (s2,b2)` iff either `b2 = false`
    /// and `s2` is a prefix of `s1`, or both exact and equal. A symbol is
    /// a prefix of itself and the empty symbol of everything, which are
    /// the common cases in a heap join; both are answered from the
    /// symbols themselves (id and length), and only the rest read the
    /// text.
    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (Pre::Bot, _) => true,
            (_, Pre::Bot) => false,
            (Pre::Exact(a), Pre::Exact(b)) => a == b,
            (Pre::Prefix(_), Pre::Exact(_)) => false,
            (Pre::Exact(a) | Pre::Prefix(a), Pre::Prefix(b)) => {
                a == b || b.is_empty() || a.starts_with(b.as_str())
            }
        }
    }
}

impl MeetLattice for Pre {
    fn top() -> Self {
        Pre::any()
    }

    /// Meet per Section 5, extended with the reflexive exact/exact case
    /// the paper's equations leave implicit (`x ⊓ x = x`).
    fn meet(&self, other: &Self) -> Self {
        if self.leq(other) {
            *self
        } else if other.leq(self) {
            *other
        } else {
            Pre::Bot
        }
    }
}

impl fmt::Display for Pre {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pre::Bot => write!(f, "⊥"),
            Pre::Exact(s) => write!(f, "{s:?}"),
            Pre::Prefix(s) if s.is_empty() => write!(f, "<unknown>"),
            Pre::Prefix(s) => write!(f, "{s:?}..."),
        }
    }
}

impl From<&str> for Pre {
    fn from(s: &str) -> Pre {
        Pre::exact(s)
    }
}

impl From<String> for Pre {
    fn from(s: String) -> Pre {
        Pre::exact(s)
    }
}

impl From<Sym> for Pre {
    fn from(s: Sym) -> Pre {
        Pre::Exact(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::tests::{pool, CASES};
    use minicheck::Gen;

    /// An element as Section 5 writes it: `None` for bottom, else the
    /// string and whether it is exact. The functions below define the
    /// domain's operations on these from the text alone, as the
    /// reference for `Pre`'s shortcuts on symbol ids.
    type Paper = Option<(String, bool)>;

    fn paper(p: &Pre) -> Paper {
        match p {
            Pre::Bot => None,
            Pre::Exact(s) => Some((s.to_string(), true)),
            Pre::Prefix(s) => Some((s.to_string(), false)),
        }
    }

    /// `(s1,b1) <= (s2,b2)` iff `b2 = false` and `s2` is a prefix of
    /// `s1`, or both are exact and equal; bottom is below everything.
    fn paper_leq(a: &Paper, b: &Paper) -> bool {
        match (a, b) {
            (None, _) => true,
            (_, None) => false,
            (Some((s1, _)), Some((s2, false))) => s1.starts_with(s2.as_str()),
            (Some((s1, b1)), Some((s2, true))) => *b1 && s1 == s2,
        }
    }

    /// Equal strings join to the string, exact only if both are; other
    /// strings to their greatest common prefix, as a prefix.
    fn paper_join(a: &Paper, b: &Paper) -> Paper {
        match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some((s1, b1)), Some((s2, b2))) if s1 == s2 => Some((s1.clone(), *b1 && *b2)),
            (Some((s1, _)), Some((s2, _))) => {
                let common = s1.chars().zip(s2.chars()).take_while(|(x, y)| x == y);
                Some((common.map(|(c, _)| c).collect(), false))
            }
        }
    }

    /// The greatest lower bound: the lower of two comparable elements,
    /// bottom for incomparable ones (no string is in both).
    fn paper_meet(a: &Paper, b: &Paper) -> Paper {
        if paper_leq(a, b) {
            a.clone()
        } else if paper_leq(b, a) {
            b.clone()
        } else {
            None
        }
    }

    /// Decided when both are exact, or when no string is in both
    /// concretizations; undecided with bottom.
    fn paper_compare_eq(a: &Paper, b: &Paper) -> Option<bool> {
        let ((s1, b1), (s2, b2)) = (a.as_ref()?, b.as_ref()?);
        let disjoint = match (b1, b2) {
            (true, true) => return Some(s1 == s2),
            (true, false) => !s1.starts_with(s2.as_str()),
            (false, true) => !s2.starts_with(s1.as_str()),
            (false, false) => !s1.starts_with(s2.as_str()) && !s2.starts_with(s1.as_str()),
        };
        disjoint.then_some(false)
    }

    fn arb_pre(g: &mut Gen, pool: &[Sym]) -> Pre {
        match g.below(5) {
            0 => Pre::Bot,
            1 | 2 => Pre::Exact(*g.pick(pool)),
            _ => Pre::Prefix(*g.pick(pool)),
        }
    }

    /// `leq`, `join`, `meet` and `compare_eq` against the text-only
    /// definitions, on elements drawn from a shared symbol pool.
    #[test]
    fn operations_match_the_text_definitions() {
        minicheck::check("pre_matches_text_definitions", CASES, |g| {
            let pool = pool(g);
            let (a, b) = (arb_pre(g, &pool), arb_pre(g, &pool));
            let (pa, pb) = (paper(&a), paper(&b));
            assert_eq!(a.leq(&b), paper_leq(&pa, &pb), "{a:?} <= {b:?}");
            assert_eq!(paper(&a.join(&b)), paper_join(&pa, &pb), "{a:?} join {b:?}");
            assert_eq!(paper(&a.meet(&b)), paper_meet(&pa, &pb), "{a:?} meet {b:?}");
            assert_eq!(
                a.compare_eq(&b),
                paper_compare_eq(&pa, &pb),
                "{a:?} == {b:?}"
            );
        });
    }

    #[test]
    fn join_equal_exacts_stays_exact() {
        let a = Pre::exact("www.example.com");
        assert_eq!(a.join(&a), a);
    }

    #[test]
    fn join_computes_common_prefix() {
        // The motivating example of Section 5: baseURL += "name" vs "age".
        let base = Pre::exact("www.example.com/req?");
        let name = base.concat(&Pre::exact("name"));
        let age = base.concat(&Pre::exact("age"));
        assert_eq!(name.join(&age), Pre::prefix("www.example.com/req?"));
    }

    #[test]
    fn join_of_unrelated_domains_loses_everything() {
        // The VKVideoDownloader failure mode: three unrelated player
        // domains join to the empty prefix (unknown).
        let a = Pre::exact("http://vkontakte.ru/player");
        let b = Pre::exact("http://rutube.ru/player");
        assert_eq!(a.join(&b), Pre::prefix("http://"));
        let c = Pre::exact("https://video.mail.ru");
        assert_eq!(a.join(&b).join(&c), Pre::prefix("http"));
    }

    #[test]
    fn join_interns_only_genuinely_new_common_prefixes() {
        // Unique texts so concurrent tests interning in parallel don't
        // collide with ours (the interner is process-global).
        let a = Pre::exact("sym-churn://host/path-alpha");
        let b = Pre::exact("sym-churn://host/path-beta");
        // First incomparable join interns the one new common prefix.
        let joined = a.join(&b);
        assert_eq!(joined, Pre::prefix("sym-churn://host/path-"));
        let after_first = Sym::interner_len();
        // A corpus sweep re-joins the same pairs constantly; repeating
        // the join (both orders, plus the prefix-absorbing variants)
        // must not keep growing the interner. The bound is loose only
        // to tolerate unrelated tests interning concurrently — the
        // churn bug this guards against added one symbol per join.
        for _ in 0..2000 {
            assert_eq!(a.join(&b), joined);
            assert_eq!(b.join(&a), joined);
            assert_eq!(joined.join(&a), joined);
        }
        let growth = Sym::interner_len() - after_first;
        assert!(
            growth <= 32,
            "6000 repeated joins grew the interner by {growth} symbols"
        );
        // When the common prefix IS one operand's text, that operand's
        // Sym is reused — Exact("…/a") ⊔ Exact("…/ab") must not intern
        // "…/a" a second time (nor allocate to discover it's known).
        let short = Pre::exact("sym-churn-reuse://x/a");
        let long = Pre::exact("sym-churn-reuse://x/ab");
        let before = Sym::interner_len();
        assert_eq!(
            short.join(&long),
            Pre::Prefix(Sym::intern("sym-churn-reuse://x/a"))
        );
        // `Sym::intern` in the assertion finds the existing symbol; the
        // join itself added nothing beyond what `exact()` created.
        assert!(Sym::interner_len() <= before + 32);
    }

    #[test]
    fn concat_follows_paper_equations() {
        let bot = Pre::Bot;
        let e = Pre::exact("ab");
        let p = Pre::prefix("cd");
        assert_eq!(bot.concat(&e), Pre::Bot);
        assert_eq!(e.concat(&bot), Pre::Bot);
        assert_eq!(e.concat(&e), Pre::exact("abab"));
        assert_eq!(e.concat(&p), Pre::prefix("abcd"));
        assert_eq!(p.concat(&e), Pre::prefix("cd"));
        assert_eq!(p.concat(&p), Pre::prefix("cd"));
        assert_eq!(Pre::exact("").concat(&e), e, "empty exact is identity");
    }

    #[test]
    fn order_per_paper() {
        assert!(Pre::exact("abc").leq(&Pre::prefix("ab")));
        assert!(Pre::prefix("abc").leq(&Pre::prefix("ab")));
        assert!(!Pre::prefix("ab").leq(&Pre::exact("abc")));
        assert!(!Pre::prefix("ab").leq(&Pre::prefix("abc")));
        assert!(Pre::exact("x").leq(&Pre::any()));
        assert!(Pre::Bot.leq(&Pre::exact("x")));
    }

    #[test]
    fn meet_per_paper() {
        assert_eq!(
            Pre::exact("abc").meet(&Pre::prefix("ab")),
            Pre::exact("abc")
        );
        assert_eq!(
            Pre::prefix("ab").meet(&Pre::prefix("abc")),
            Pre::prefix("abc")
        );
        assert_eq!(Pre::exact("abc").meet(&Pre::exact("abd")), Pre::Bot);
        assert_eq!(Pre::exact("abc").meet(&Pre::prefix("xy")), Pre::Bot);
        assert_eq!(Pre::exact("a").meet(&Pre::Bot), Pre::Bot);
    }

    #[test]
    fn compare_eq_decides_when_possible() {
        assert_eq!(Pre::exact("a").compare_eq(&Pre::exact("a")), Some(true));
        assert_eq!(Pre::exact("a").compare_eq(&Pre::exact("b")), Some(false));
        assert_eq!(Pre::exact("abc").compare_eq(&Pre::prefix("ab")), None);
        assert_eq!(
            Pre::exact("xyz").compare_eq(&Pre::prefix("ab")),
            Some(false)
        );
        assert_eq!(Pre::prefix("ab").compare_eq(&Pre::prefix("abc")), None);
        assert_eq!(
            Pre::prefix("ab").compare_eq(&Pre::prefix("cd")),
            Some(false)
        );
    }

    #[test]
    fn may_be_membership() {
        assert!(Pre::any().may_be("anything"));
        assert!(Pre::exact("a").may_be("a"));
        assert!(!Pre::exact("a").may_be("ab"));
        assert!(Pre::prefix("http://").may_be("http://x.com"));
        assert!(!Pre::prefix("http://").may_be("ftp://x.com"));
        assert!(!Pre::Bot.may_be(""));
    }

    #[test]
    fn common_prefix_unicode_safe() {
        assert_eq!(Pre::common_prefix("naïve", "naïf"), "naï");
        assert_eq!(Pre::common_prefix("", "abc"), "");
        assert_eq!(Pre::common_prefix("abc", "abc"), "abc");
    }

    #[test]
    fn leading_slice_behaviour() {
        assert_eq!(Pre::exact("abcdef").leading_slice(3), Pre::exact("abc"));
        assert_eq!(Pre::exact("ab").leading_slice(5), Pre::exact("ab"));
        assert_eq!(Pre::prefix("abcdef").leading_slice(3), Pre::exact("abc"));
        assert_eq!(Pre::prefix("ab").leading_slice(5), Pre::prefix("ab"));
    }

    #[test]
    fn lowercase() {
        assert_eq!(
            Pre::exact("HTTP://X.COM").to_lowercase(),
            Pre::exact("http://x.com")
        );
        assert_eq!(Pre::prefix("HTTP").to_lowercase(), Pre::prefix("http"));
        assert_eq!(Pre::Bot.to_lowercase(), Pre::Bot);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pre::Bot.to_string(), "⊥");
        assert_eq!(Pre::exact("a").to_string(), "\"a\"");
        assert_eq!(Pre::prefix("a").to_string(), "\"a\"...");
        assert_eq!(Pre::any().to_string(), "<unknown>");
    }
}

#[cfg(all(test, feature = "fuzz"))]
mod proptests {
    use super::*;
    use crate::lattice::laws;
    use minicheck::Gen;

    const ABC: &[char] = &['a', 'b', 'c'];

    fn arb_pre(g: &mut Gen) -> Pre {
        match g.below(3) {
            0 => Pre::Bot,
            1 => Pre::exact(g.string_of(ABC, 4)),
            _ => Pre::prefix(g.string_of(ABC, 4)),
        }
    }

    #[test]
    fn lattice_laws() {
        minicheck::check("pre_lattice_laws", 512, |g| {
            let (a, b, c) = (arb_pre(g), arb_pre(g), arb_pre(g));
            laws::check_join_laws(&a, &b, &c);
            laws::check_meet_laws(&a, &b);
        });
    }

    #[test]
    fn join_soundness() {
        minicheck::check("pre_join_soundness", 512, |g| {
            let (a, b) = (arb_pre(g), arb_pre(g));
            let s = g.string_of(ABC, 6);
            // Anything described by a or b is described by the join.
            if a.may_be(&s) || b.may_be(&s) {
                assert!(a.join(&b).may_be(&s));
            }
        });
    }

    #[test]
    fn concat_soundness() {
        minicheck::check("pre_concat_soundness", 512, |g| {
            let sa = g.string_of(ABC, 3);
            let sb = g.string_of(ABC, 3);
            let ta = g.string_of(ABC, 2);
            let tb = g.string_of(ABC, 2);
            // For concrete strings in the concretizations, the abstract
            // concat describes the concrete concatenation.
            for a in [Pre::exact(sa.clone()), Pre::prefix(sa.clone())] {
                for b in [Pre::exact(sb.clone()), Pre::prefix(sb.clone())] {
                    let ca = format!("{sa}{ta}");
                    let cb = format!("{sb}{tb}");
                    let (ca, cb) = match (&a, &b) {
                        (Pre::Exact(_), Pre::Exact(_)) => (sa.clone(), sb.clone()),
                        (Pre::Exact(_), _) => (sa.clone(), cb),
                        (_, Pre::Exact(_)) => (ca, sb.clone()),
                        _ => (ca, cb),
                    };
                    assert!(a.may_be(&ca));
                    assert!(b.may_be(&cb));
                    assert!(
                        a.concat(&b).may_be(&format!("{ca}{cb}")),
                        "concat unsound: {a:?} + {b:?} vs {ca} {cb}"
                    );
                }
            }
        });
    }

    #[test]
    fn compare_eq_soundness() {
        minicheck::check("pre_compare_eq_soundness", 512, |g| {
            let (a, b) = (arb_pre(g), arb_pre(g));
            let s = g.string_of(ABC, 4);
            // If compare_eq says definitely-false, no common string exists.
            if a.compare_eq(&b) == Some(false) {
                assert!(!(a.may_be(&s) && b.may_be(&s)));
            }
        });
    }

    #[test]
    fn meet_is_intersection_upper() {
        minicheck::check("pre_meet_is_intersection_upper", 512, |g| {
            let (a, b) = (arb_pre(g), arb_pre(g));
            let s = g.string_of(ABC, 4);
            if a.may_be(&s) && b.may_be(&s) {
                assert!(a.meet(&b).may_be(&s), "meet lost {s} from {a:?} ^ {b:?}");
            }
        });
    }

    #[test]
    fn noetherian_ascending_chains() {
        minicheck::check("pre_noetherian_ascending_chains", 512, |g| {
            let ss = g.vec_of(1, 7, |g| g.string_of(ABC, 4));
            // Joining any sequence terminates at a fixed element quickly:
            // chains stabilize (finite ascending chain condition).
            let mut acc = Pre::Bot;
            let mut changes = 0;
            for s in &ss {
                let next = acc.join(&Pre::exact(s.clone()));
                if next != acc {
                    changes += 1;
                }
                acc = next;
            }
            // At most: bot -> exact -> a strictly shortening chain of
            // prefixes. Prefix length only decreases, so changes are
            // bounded by 2 + max prefix length.
            assert!(changes <= 2 + 4);
        });
    }
}
