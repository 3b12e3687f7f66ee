//! Shared helpers for the table-regeneration binaries: the paper's
//! timing methodology (11 runs, discard the first, report the median --
//! Section 6.2).

#![warn(missing_docs)]

use sigtrace::LayerTimes;
use std::time::Duration;

/// Runs `f` the paper's way: `runs + 1` times, discarding the first
/// (warm-up) result and returning the median of the rest.
pub fn median_timing<T>(runs: usize, mut f: impl FnMut() -> (T, Duration)) -> (T, Duration) {
    let (_, _) = f(); // discarded warm-up, as in the paper
    let mut results: Vec<(T, Duration)> = (0..runs).map(|_| f()).collect();
    results.sort_by_key(|(_, d)| *d);
    let mid = results.len() / 2;
    results.swap_remove(mid)
}

/// Renders a duration in seconds with one decimal, Table 2 style.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// The value after a command-line flag, parsed; panics with `usage`
/// when it is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, usage: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).expect(usage)
}

/// Runs `f` on every addon and returns the results in corpus order:
/// one addon at a time with `sequential`, else on one scoped thread per
/// addon (each addon's pipeline is independent).
pub fn per_addon<T: Send>(
    addons: &[corpus::Addon],
    sequential: bool,
    f: impl Fn(&corpus::Addon) -> T + Sync,
) -> Vec<T> {
    if sequential {
        return addons.iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = addons.iter().map(|a| scope.spawn(|| f(a))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("addon thread"))
            .collect()
    })
}

/// Per-addon measurement row for Table 2.
pub struct Table2Row {
    /// Addon name.
    pub name: String,
    /// Verdict string (pass/fail/leak).
    pub result: String,
    /// Per-layer times; [`LayerTimes::phase`] gives the P1–P3 columns.
    pub timings: LayerTimes,
}

/// Measures one addon with the paper's methodology and compares against
/// its manual signature.
pub fn measure_addon(addon: &corpus::Addon, runs: usize) -> Table2Row {
    let (report, _) = median_timing(runs, || {
        let start = std::time::Instant::now();
        let report = addon_sig::analyze_addon(addon.source).expect("pipeline");
        (report, start.elapsed())
    });
    let cmp = jssig::compare(
        &report.signature,
        &addon.manual,
        addon.real_extra_flow,
        addon.real_extra_sink,
    );
    Table2Row {
        name: addon.name.to_owned(),
        result: cmp.verdict.to_string(),
        timings: report.timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_runs() {
        let mut calls = 0;
        let (_, d) = median_timing(3, || {
            calls += 1;
            ((), Duration::from_millis(calls))
        });
        assert_eq!(calls, 4, "warm-up + 3 measured runs");
        // Durations 2,3,4 after warm-up: median 3.
        assert_eq!(d, Duration::from_millis(3));
    }

    #[test]
    fn secs_format() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50");
    }
}
