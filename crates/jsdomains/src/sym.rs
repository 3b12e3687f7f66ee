//! Interned string symbols.
//!
//! The base analysis manipulates the same small set of strings over and
//! over: property names, frame-variable keys (`v0`, `v1`, ...), URL
//! fragments. Interning them into [`Sym`] makes the prefix domain
//! [`Copy`](core::marker::Copy), turns equality into an integer compare,
//! and removes per-step allocation from the interpreter's hot path.
//!
//! The interner is global and append-only (symbols live for the process
//! lifetime), which makes ids consistent across threads: the parallel
//! corpus runs and the sequential golden run agree on every symbol.
//! Because worker threads may intern in nondeterministic order, `Ord`
//! compares the *text*, not the id, so ordered containers iterate
//! identically no matter which thread interned first. Equal ids are
//! equal texts, so `Ord` answers `Equal` for them without reading the
//! text, and so does the prefix domain's order for a symbol against
//! itself.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned, immutable string. `Copy`, pointer-sized payload, O(1)
/// equality/hash by id, text-ordered so `BTreeMap<Sym, _>` iteration is
/// deterministic. Dereferences to `str`, so string methods work directly.
#[derive(Clone, Copy)]
pub struct Sym {
    id: u32,
    text: &'static str,
}

fn interner() -> &'static RwLock<HashMap<&'static str, Sym>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, Sym>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::new()))
}

impl Sym {
    /// Interns `s`, returning the canonical symbol for that text. The same
    /// text always yields the same symbol, across threads.
    pub fn intern(s: &str) -> Sym {
        // Poison recovery, not propagation: the map is append-only and
        // structurally valid after any panic, and a poisoned-interner
        // panic would cascade into every analysis thread.
        if let Some(sym) = interner()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(s)
        {
            return *sym;
        }
        let mut map = interner().write().unwrap_or_else(PoisonError::into_inner);
        if let Some(sym) = map.get(s) {
            // Raced with another writer between the read and write locks.
            return *sym;
        }
        let text: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let sym = Sym {
            id: u32::try_from(map.len()).expect("interner overflow"),
            text,
        };
        map.insert(text, sym);
        sym
    }

    /// The empty symbol (cached: `Pre::any()` is built constantly).
    pub fn empty() -> Sym {
        static EMPTY: OnceLock<Sym> = OnceLock::new();
        *EMPTY.get_or_init(|| Sym::intern(""))
    }

    /// The symbol's text.
    pub fn as_str(&self) -> &'static str {
        self.text
    }

    /// Number of symbols interned so far, process-wide. The interner is
    /// append-only, so this only grows — tests use it to bound interner
    /// churn (e.g. repeated `Pre::join`s must not keep interning).
    pub fn interner_len() -> usize {
        interner()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl Deref for Sym {
    type Target = str;

    fn deref(&self) -> &str {
        self.text
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        // Ids are canonical per text, so this equals text equality.
        self.id == other.id
    }
}

impl Eq for Sym {}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        // By text, NOT by id: interning order depends on thread timing,
        // text order does not. Ids are canonical per text, so equal ids
        // are equal texts and skip the byte walk: a heap join compares
        // mostly keys that are the same symbol.
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.text.cmp(other.text)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.text)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use minicheck::Gen;

    /// More cases under `--features fuzz`.
    pub(crate) const CASES: u64 = if cfg!(feature = "fuzz") { 4096 } else { 256 };

    /// A pool of symbols for checking the id shortcuts against the text:
    /// a random text, the empty symbol, a prefix of the text, an
    /// extension of it and an unrelated text (which may by chance be
    /// related). Two draws from a pool are the same symbol a fifth of
    /// the time. `é` and `è` share their first byte, so a matching byte
    /// is not always a matching character.
    pub(crate) fn pool(g: &mut Gen) -> [Sym; 5] {
        const ALPHABET: &[char] = &['a', 'b', 'é', 'è'];
        let base = g.string_of(ALPHABET, 3);
        let cut = base
            .char_indices()
            .map(|(i, _)| i)
            .nth(g.below(base.chars().count() + 1))
            .unwrap_or(base.len());
        let extension = format!("{base}{}", g.string_of(ALPHABET, 2));
        [
            Sym::intern(&base),
            Sym::empty(),
            Sym::intern(&base[..cut]),
            Sym::intern(&extension),
            Sym::intern(&g.string_of(ALPHABET, 3)),
        ]
    }

    /// `Ord` answers equal ids without the text; it must still be the
    /// text's order, and equality the text's equality.
    #[test]
    fn order_and_equality_are_the_texts() {
        minicheck::check("sym_order_is_text_order", CASES, |g| {
            let pool = pool(g);
            let (a, b) = (*g.pick(&pool), *g.pick(&pool));
            assert_eq!(a.cmp(&b), a.as_str().cmp(b.as_str()), "{a:?} vs {b:?}");
            assert_eq!(a.partial_cmp(&b), Some(a.as_str().cmp(b.as_str())));
            assert_eq!(a == b, a.as_str() == b.as_str(), "{a:?} vs {b:?}");
        });
    }

    #[test]
    fn interning_is_canonical() {
        let a = Sym::intern("hello-sym-test");
        let b = Sym::intern("hello-sym-test");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello-sym-test");
    }

    #[test]
    fn distinct_texts_differ() {
        assert_ne!(Sym::intern("sym-x"), Sym::intern("sym-y"));
    }

    #[test]
    fn ord_is_by_text() {
        let b = Sym::intern("sym-ord-b");
        let a = Sym::intern("sym-ord-a"); // interned after b
        assert!(a < b, "order must follow text, not interning order");
    }

    #[test]
    fn deref_gives_str_methods() {
        let s = Sym::intern("prefix-body");
        assert!(s.starts_with("prefix"));
        assert!(!s.is_empty());
        assert!(Sym::empty().is_empty());
        assert_eq!(s.len(), "prefix-body".len());
    }

    #[test]
    fn eq_against_str() {
        let s = Sym::intern("compare-me");
        assert!(s == "compare-me");
        assert!(s == *"compare-me");
    }

    #[test]
    fn canonical_across_threads() {
        let syms: Vec<Sym> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| Sym::intern("cross-thread-sym")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for w in syms.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
