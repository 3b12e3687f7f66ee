//! A tiny, deterministic property-testing harness.
//!
//! The workspace's randomized suites (lattice laws, postdominance
//! brute-force comparison, whole-pipeline fuzzing) originally used
//! `proptest`, which pulls a large dependency tree and breaks airgapped
//! builds. The suites only need three things: a seeded generator, many
//! cases, and a reproducible failure report — so this crate provides
//! exactly that over `std`.
//!
//! Generation is driven by [`Gen`], a splitmix64/xorshift-style PRNG with
//! convenience samplers. [`check`] runs a property over `cases` seeds
//! derived deterministically from the property name, so failures
//! reproduce without any persisted regression files.

#![warn(missing_docs)]

/// Deterministic random generator handed to properties.
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a seed. Seed 0 is remapped (xorshift has
    /// a fixed point at 0).
    pub fn new(seed: u64) -> Gen {
        Gen {
            state: splitmix(seed.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// The next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform bool.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Gen::below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform i64 in `[lo, hi)`. Panics on an empty range.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "Gen::range empty");
        lo + self.below((hi - lo) as usize) as i64
    }

    /// A uniform element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// A string of length `[0, max_len]` over the given alphabet.
    pub fn string_of(&mut self, alphabet: &[char], max_len: usize) -> String {
        let len = self.below(max_len + 1);
        (0..len).map(|_| *self.pick(alphabet)).collect()
    }

    /// A vector of `len in [min_len, max_len]` elements drawn from `f`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = min_len + self.below(max_len - min_len + 1);
        (0..len).map(|_| f(self)).collect()
    }
}

fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    if x == 0 {
        1
    } else {
        x
    }
}

/// Runs `property` for `cases` deterministic seeds. On a panic inside the
/// property, re-raises with the property name and failing seed so the
/// case can be re-run in isolation with [`Gen::new`].
pub fn check(name: &str, cases: u64, property: impl Fn(&mut Gen) + std::panic::RefUnwindSafe) {
    // Derive the base seed from the property name so distinct properties
    // explore distinct streams even at equal case indices.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    for case in 0..cases {
        let seed = splitmix(base ^ case);
        let result = std::panic::catch_unwind(|| {
            let mut g = Gen::new(seed);
            property(&mut g);
        });
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property '{name}' failed at case {case} (Gen::new({seed:#x})): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn samplers_stay_in_bounds() {
        let mut g = Gen::new(42);
        for _ in 0..1000 {
            assert!(g.below(7) < 7);
            let r = g.range(-3, 4);
            assert!((-3..4).contains(&r));
            let s = g.string_of(&['a', 'b'], 4);
            assert!(s.len() <= 4 && s.chars().all(|c| c == 'a' || c == 'b'));
            let v = g.vec_of(1, 3, |g| g.bool());
            assert!((1..=3).contains(&v.len()));
        }
    }

    #[test]
    fn check_runs_all_cases() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static RAN: AtomicU64 = AtomicU64::new(0);
        check("counter", 25, |_| {
            RAN.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(RAN.load(Ordering::SeqCst), 25);
    }

    #[test]
    fn check_reports_seed_on_failure() {
        let failure = std::panic::catch_unwind(|| {
            check("always-fails", 3, |_| panic!("boom"));
        })
        .unwrap_err();
        let msg = failure.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always-fails"), "{msg}");
        assert!(msg.contains("Gen::new("), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }
}
