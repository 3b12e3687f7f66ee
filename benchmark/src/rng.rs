//! Seeded pseudo-random numbers: SplitMix64 and the distributions the
//! workload generators draw from. Everything a workload feeds the
//! program comes from here, so one `--seed` gives one set of inputs.

/// SplitMix64 (Steele, Lea & Flood): tiny, fast, and good enough to
/// shuffle and size benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`. Workloads draw from
    /// separate streams so adding a draw to one leaves the others alone.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A lowercase identifier fragment of `len` letters.
    pub fn word(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// `n` points spread log-uniformly over `[lo, hi)`: the midpoints of `n`
/// equal slices of `[ln lo, ln hi)`. Input sizes come from this grid,
/// not from the seed: costs such as the DDG's grow steeply with size, so
/// a seeded size would make every seed a different workload.
pub fn log_uniform_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let (a, b) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (a + (b - a) * (i as f64 + 0.5) / n as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, "range");
        for n in [1, 2, 3, 15, 64] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn log_uniform_grid_spans_the_range_evenly_in_log() {
        let (lo, hi, n) = (2048.0f64, 65536.0f64, 64);
        let v = log_uniform_grid(lo, hi, n);
        assert_eq!(v.len(), n);
        let step = (hi.ln() - lo.ln()) / n as f64;
        for (i, x) in v.iter().enumerate() {
            assert!(*x > lo && *x < hi, "{x} outside ({lo}, {hi})");
            let slice = ((x.ln() - lo.ln()) / step).floor() as usize;
            assert_eq!(slice, i, "point {x} left its slice");
        }
        assert!(
            (v[0] * v[n - 1] - lo * hi).abs() / (lo * hi) < 1e-9,
            "symmetric in log"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(9, "shuffle");
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 items almost surely move");
    }
}
