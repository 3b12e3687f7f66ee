//! Interned string symbols.
//!
//! The base analysis manipulates the same small set of strings over and
//! over: property names, frame-variable keys (`v0`, `v1`, ...), URL
//! fragments. Interning them into [`Sym`] makes the prefix domain
//! [`Copy`](core::marker::Copy), turns equality into an integer compare,
//! and removes per-step allocation from the interpreter's hot path.
//!
//! Two kinds of table hold the texts:
//!
//! - The **process table** is global and append-only: its symbols live
//!   as long as the process, and their ids are the same on every thread,
//!   so the parallel corpus runs and the sequential golden run agree on
//!   every symbol. Outside a job scope every text is interned here, and
//!   so is every symbol a `static` or `thread_local` keeps
//!   ([`Sym::intern_process`]).
//! - A **job table** belongs to one [`job_scope`] on one thread and is
//!   freed when the scope ends, so a daemon that vets never-seen addons
//!   does not grow with them. Inside a scope, [`Sym::intern`] looks in
//!   the job table, then in the process table, and puts a new text in
//!   the job table. A process-table hit is remembered in the job table,
//!   so a job takes the process table's lock at most once per text. Job
//!   ids come from a range of their own, so inside a scope each text
//!   still has exactly one symbol, and equality stays one compare of ids.
//!
//! Because worker threads may intern in nondeterministic order, `Ord`
//! compares the *text*, not the id, so ordered containers iterate
//! identically no matter which thread interned first. Equal ids are
//! equal texts, so `Ord` answers `Equal` for them without reading the
//! text, and so does the prefix domain's order for a symbol against
//! itself.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned, immutable string. `Copy`, 24 bytes, O(1) equality/hash
/// by id, text-ordered so `BTreeMap<Sym, _>` iteration is deterministic.
/// Dereferences to `str`, so string methods work directly.
#[derive(Clone, Copy)]
pub struct Sym {
    id: u32,
    /// The job scope whose table holds the text, or 0 for the process
    /// table. It fills the padding beside `id`.
    scope: u32,
    text: &'static str,
}

/// Job-table ids start here; process-table ids stay below.
const JOB_IDS: u32 = 1 << 31;

fn interner() -> &'static RwLock<HashMap<&'static str, Sym>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, Sym>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::new()))
}

// Poison recovery, not propagation, in both lookups: the map is
// append-only and structurally valid after any panic, and a
// poisoned-interner panic would cascade into every analysis thread.

fn process_get(s: &str) -> Option<Sym> {
    interner()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(s)
        .copied()
}

fn process_intern(s: &str) -> Sym {
    if let Some(sym) = process_get(s) {
        return sym;
    }
    let mut map = interner().write().unwrap_or_else(PoisonError::into_inner);
    if let Some(sym) = map.get(s) {
        // Raced with another writer between the read and write locks.
        return *sym;
    }
    let text: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let sym = Sym {
        id: u32::try_from(map.len())
            .ok()
            .filter(|&id| id < JOB_IDS)
            .expect("process table overflow"),
        scope: 0,
        text,
    };
    map.insert(text, sym);
    sym
}

/// The table of the job scope open on a thread.
struct JobTable {
    scope: u32,
    /// Every text the job interned, process-table hits included.
    index: HashMap<&'static str, Sym>,
    /// The texts the process table did not hold. `index` borrows them,
    /// so they are dropped with it, when the scope ends.
    texts: Vec<Box<str>>,
}

impl JobTable {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.index.get(s) {
            return *sym;
        }
        let sym = process_get(s).unwrap_or_else(|| {
            let owned: Box<str> = s.into();
            let ptr: *const str = &*owned;
            // SAFETY: a boxed text stays where it is until `texts` drops
            // it at the end of the scope, and `job_scope`'s caller
            // promises that no symbol of the scope is used after that.
            let text: &'static str = unsafe { &*ptr };
            let id = u32::try_from(self.texts.len())
                .ok()
                .and_then(|n| JOB_IDS.checked_add(n))
                .expect("job table overflow");
            self.texts.push(owned);
            Sym {
                id,
                scope: self.scope,
                text,
            }
        });
        self.index.insert(sym.text, sym);
        sym
    }
}

thread_local! {
    static JOB: RefCell<Option<JobTable>> = const { RefCell::new(None) };
}

/// Runs `f` with a job table of its own on this thread: every text
/// [`Sym::intern`] meets inside `f` that the process table does not
/// hold goes into that table, and the table is freed when `f` returns
/// or unwinds. A later scope on the thread starts from an empty table.
///
/// # Safety
///
/// No symbol interned inside `f` may be used after `f` returns: not its
/// text, its order, its equality or its hash. Its text is freed, and a
/// later scope gives its id to another text. So `f` must return owned
/// data only, never a `Sym` or a value that holds one (a `Pre`, an
/// `AValue`, a `Heap`, an analysis result), and must leave none where
/// it outlives the call, such as in a `static` or a `thread_local`.
/// What outlives every job interns with [`Sym::intern_process`]. Debug
/// builds panic when a symbol's text is read outside its scope.
///
/// # Panics
///
/// If a scope is already open on this thread: scopes do not nest.
pub unsafe fn job_scope<R>(f: impl FnOnce() -> R) -> R {
    /// Frees the job table when the scope ends, by return or by unwind.
    struct Close;
    impl Drop for Close {
        fn drop(&mut self) {
            drop(JOB.take());
        }
    }
    static SCOPES: AtomicU32 = AtomicU32::new(0);
    let scope = SCOPES
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_add(1)
        .max(1);
    JOB.with_borrow_mut(|job| {
        assert!(job.is_none(), "job scopes do not nest");
        *job = Some(JobTable {
            scope,
            index: HashMap::new(),
            texts: Vec::new(),
        });
    });
    let _close = Close;
    f()
}

impl Sym {
    /// Interns `s`, returning the canonical symbol for that text: the
    /// same text always yields the same symbol, across threads outside
    /// job scopes, and within one scope.
    pub fn intern(s: &str) -> Sym {
        JOB.with_borrow_mut(|job| match job {
            Some(job) => job.intern(s),
            None => process_intern(s),
        })
    }

    /// Interns `s` in the process table, also inside a job scope: for a
    /// symbol that a `static` or `thread_local` keeps, which outlives
    /// every job.
    ///
    /// # Panics
    ///
    /// If the open scope's table already holds `s`: the text would then
    /// have two symbols. Such caches are built before their scope
    /// interns anything.
    pub fn intern_process(s: &str) -> Sym {
        JOB.with_borrow(|job| {
            if let Some(sym) = job.as_ref().and_then(|job| job.index.get(s)) {
                assert!(
                    sym.scope == 0,
                    "{s:?} is already a symbol of job scope {}",
                    sym.scope
                );
            }
        });
        process_intern(s)
    }

    /// The empty symbol. `Pre::any()` is built constantly, so it is
    /// cached for the process, and so interned in the process table.
    pub fn empty() -> Sym {
        static EMPTY: OnceLock<Sym> = OnceLock::new();
        *EMPTY.get_or_init(|| Sym::intern_process(""))
    }

    /// The symbol's text. A job symbol's text lives as long as its scope
    /// (see [`job_scope`]); debug builds panic when it is read outside.
    pub fn as_str(&self) -> &'static str {
        #[cfg(debug_assertions)]
        if self.scope != 0
            && !JOB.with_borrow(|job| job.as_ref().is_some_and(|job| job.scope == self.scope))
        {
            panic!(
                "symbol {} of job scope {} read outside that scope: \
                 it has closed, or it is another thread's",
                self.id, self.scope
            );
        }
        self.text
    }

    /// Number of symbols in the process table. It only grows, and a job
    /// scope's own symbols are not in it: tests use it to bound churn
    /// (e.g. repeated `Pre::join`s must not keep interning, and a daemon
    /// that vets never-seen addons must not grow it).
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
        self.as_str()
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        // Ids are canonical per text (within a scope), so this equals
        // text equality.
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
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
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
    /// text's order, and equality the text's equality. Every other case
    /// runs in a job scope, where texts the process table lacks become
    /// job symbols and the pool mixes both kinds.
    #[test]
    fn order_and_equality_are_the_texts() {
        // The process table's caches are filled before a scope interns.
        Sym::empty();
        minicheck::check("sym_order_is_text_order", CASES, |g| {
            let scoped = g.below(2) == 0;
            let check = |g: &mut Gen| {
                let pool = pool(g);
                let (a, b) = (*g.pick(&pool), *g.pick(&pool));
                assert_eq!(a.cmp(&b), a.as_str().cmp(b.as_str()), "{a:?} vs {b:?}");
                assert_eq!(a.partial_cmp(&b), Some(a.as_str().cmp(b.as_str())));
                assert_eq!(a == b, a.as_str() == b.as_str(), "{a:?} vs {b:?}");
            };
            if scoped {
                // SAFETY: the pool's symbols stay inside the closure.
                unsafe { job_scope(|| check(g)) }
            } else {
                check(g);
            }
        });
    }

    #[test]
    fn a_symbol_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Sym>(), 24);
    }

    #[test]
    fn a_scope_interns_new_texts_in_its_own_table() {
        let known = Sym::intern("sym-scope-known");
        // SAFETY: only owned data leaves the closure.
        let seen = unsafe {
            job_scope(|| {
                let fresh = Sym::intern("sym-scope-fresh");
                assert_eq!(fresh, Sym::intern("sym-scope-fresh"));
                assert!(fresh.id >= JOB_IDS && fresh.scope != 0);
                assert_eq!(Sym::intern("sym-scope-known"), known);
                assert_eq!(Sym::intern_process("sym-scope-known"), known);
                assert!(fresh < known && known != fresh);
                (fresh.to_string(), fresh.id)
            })
        };
        assert_eq!(seen.0, "sym-scope-fresh");
        assert!(process_get("sym-scope-fresh").is_none());
        // A later scope starts empty: its first new text takes the first
        // job id again.
        // SAFETY: only an integer leaves the closure.
        let id = unsafe { job_scope(|| Sym::intern("sym-scope-other").id) };
        assert_eq!(id, JOB_IDS);
        assert_eq!(seen.1, JOB_IDS);
    }

    #[test]
    fn a_panicking_job_closes_its_scope() {
        let caught = std::panic::catch_unwind(|| {
            // SAFETY: nothing leaves the closure.
            unsafe {
                job_scope(|| {
                    Sym::intern("sym-scope-doomed");
                    panic!("job failed");
                })
            }
        });
        assert!(caught.is_err());
        assert!(JOB.with_borrow(Option::is_none), "the scope stayed open");
        // SAFETY: only an integer leaves the closure.
        let id = unsafe { job_scope(|| Sym::intern("sym-scope-doomed").id) };
        assert_eq!(id, JOB_IDS, "the next scope did not start empty");
    }

    #[test]
    fn a_text_of_the_open_scope_cannot_become_a_process_symbol() {
        let caught = std::panic::catch_unwind(|| {
            // SAFETY: nothing leaves the closure.
            unsafe {
                job_scope(|| {
                    Sym::intern("sym-scope-twice");
                    Sym::intern_process("sym-scope-twice");
                })
            }
        });
        assert!(caught.is_err());
        assert!(process_get("sym-scope-twice").is_none());
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
