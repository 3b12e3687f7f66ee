//! Host speed: a fixed kernel of the benchmark's own, timed next to the
//! work, by which the compute-bound timings are scaled to the speed of
//! the machine the benchmark was built on.
//!
//! The benchmark runs on a virtual machine that shares its host with
//! other tenants. Their load slows everything here, in spells of seconds
//! to minutes, by up to 1.9×, with little steal time: it is contention
//! for the host's shared hardware. A median over windows cannot remove a
//! spell longer than the run; scaling can. The gauge runs twice right
//! after each timed operation on the same thread, the second time
//! counting, and the operation's time is divided by the median of the
//! counted gauge times around it, then multiplied by the gauge's time on
//! the reference machine in a quiet spell. The kernel
//! sorts integers and formats, sorts and joins short strings: branchy
//! code, small allocations and copying, like the analyzer's. Of the
//! kernels tried (integer sort, B-tree and hash-map inserts, pointer
//! chasing, string handling with and without allocation), this pair
//! tracked the analyzer's slowdowns best. It is the benchmark's own code,
//! so no change to the program moves it.

use crate::rng::Rng;
use crate::stats::median;
use std::time::Instant;

/// The kernel's time on the reference machine (2 vCPUs of an Intel Xeon
/// at 2.1 GHz) in a quiet spell, in ms: the fastest tenth of its times.
pub const REFERENCE_MS: f64 = 0.7;
/// Gauge times on each side of an operation whose median scales it.
const REACH: usize = 8;
/// Gauge times whose median [`spot`] reports; the first runs cold.
const SPOT_TICKS: usize = 5;
const INTS: usize = 16 * 1024;
const STRINGS: usize = 3000;

pub struct Gauge {
    ints: Vec<u64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            ints: vec![0; INTS],
        }
    }

    /// Runs the kernel once and returns its time in ms.
    pub fn tick(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut rng = Rng::new(7, "gauge");
        for x in &mut self.ints {
            *x = rng.next_u64();
        }
        self.ints.sort_unstable();
        let mut words: Vec<String> = (0..STRINGS)
            .map(|i| format!("item-{}-{i}", i * 7919 % 3001))
            .collect();
        words.sort();
        std::hint::black_box((&self.ints, words.join(",")));
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// The median of [`SPOT_TICKS`] gauge times taken now, ms: the host's
/// speed right after a one-off operation such as a set-up.
pub fn spot() -> f64 {
    let mut g = Gauge::new();
    let ticks: Vec<f64> = (0..SPOT_TICKS).map(|_| g.tick()).collect();
    median(&ticks)
}

/// How many times slower than on the reference machine `gauge` ran.
pub fn slowdown(gauge: &[f64]) -> f64 {
    median(gauge) / REFERENCE_MS
}

/// The median of one-off times at the reference machine's speed, from
/// `(time, spot gauge time taken right after it)` pairs.
pub fn scaled_median(pairs: &[(f64, f64)]) -> f64 {
    let scaled: Vec<f64> = pairs.iter().map(|&(x, g)| x / slowdown(&[g])).collect();
    median(&scaled)
}

/// Each of `raw` at the reference machine's speed, where `gauge[t]` was
/// taken right after `raw[t]`: divided by the [`slowdown`] of the gauge
/// times within [`REACH`] of it.
pub fn scale(raw: &[f64], gauge: &[f64]) -> Vec<f64> {
    assert_eq!(raw.len(), gauge.len(), "one gauge time per operation");
    raw.iter()
        .enumerate()
        .map(|(t, x)| {
            let near = &gauge[t.saturating_sub(REACH)..(t + REACH + 1).min(gauge.len())];
            x / slowdown(near)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_spell_scales_away() {
        // Operations of 10 ms; from the 40th on, the host runs twice as
        // slowly, operations and gauge alike.
        let slow = |t: usize| if t >= 40 { 2.0 } else { 1.0 };
        let raw: Vec<f64> = (0..100).map(|t| 10.0 * slow(t)).collect();
        let gauge: Vec<f64> = (0..100).map(|t| REFERENCE_MS * slow(t)).collect();
        let scaled = scale(&raw, &gauge);
        for (t, x) in scaled.iter().enumerate() {
            // Only operations within REACH of the change see a mix.
            if t.abs_diff(40) > REACH {
                assert!((x - 10.0).abs() < 1e-9, "t={t}: {x}");
            }
        }
        assert!((slowdown(&gauge[50..]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn one_stray_gauge_time_moves_nothing() {
        let raw = vec![5.0; 20];
        let mut gauge = vec![REFERENCE_MS; 20];
        gauge[7] = 10.0 * REFERENCE_MS;
        assert!(scale(&raw, &gauge).iter().all(|&x| (x - 5.0).abs() < 1e-9));
    }
}
