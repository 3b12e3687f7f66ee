//! `benchmark compare A.json... -- B.json...`: for every end-to-end
//! metric and workload, the medians and quartiles of two sets of runs,
//! the metric's bound, and whether B stays within it.

use crate::stats::quartiles;
use minijson::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    /// The runs spread wider than the bound, so the bound cannot be
    /// judged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's median
/// (negative when B is better).
pub fn worsening(a_median: f64, b_median: f64, lower_is_better: bool) -> f64 {
    let change = (b_median - a_median) / a_median;
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// A set's spread: the distance between its quartiles over its median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a).max(spread(b)) > bound && !b_always_better {
        return Verdict::Unresolved;
    }
    let (_, a_med, _) = quartiles(a);
    let (_, b_med, _) = quartiles(b);
    if worsening(a_med, b_med, lower_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// `x` with four significant digits.
fn sig4(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

struct Spec {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn read_spec(path: &str) -> Result<Vec<Spec>, String> {
    let doc = read_json(path)?;
    let metrics = doc["end_to_end"]
        .as_array()
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            Ok(Spec {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: m["better"] == "lower",
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// workload -> metric -> one value per run file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let doc = read_json(path)?;
        let Json::Obj(workloads) = &doc["workloads"] else {
            return Err(format!("{path}: not a `benchmark --out` file"));
        };
        for (workload, result) in workloads {
            if let Json::Obj(metrics) = &result["metrics"] {
                for (name, m) in metrics {
                    if let Some(v) = m["value"].as_f64() {
                        runs.entry(workload.clone())
                            .or_default()
                            .entry(name.clone())
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(runs)
}

pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(regressed) => i32::from(regressed),
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            eprintln!("usage: benchmark compare [--spec BENCHMARK.json] A.json... -- B.json...");
            2
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let (spec_path, rest) = match args {
        [flag, path, rest @ ..] if flag == "--spec" => (path.as_str(), rest),
        rest => ("BENCHMARK.json", rest),
    };
    let split = rest
        .iter()
        .position(|a| a == "--")
        .ok_or("missing `--` between the two sets")?;
    let (a_paths, b_paths) = (&rest[..split], &rest[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("both sets need at least one file".to_owned());
    }
    let specs = read_spec(spec_path)?;
    let (a, b) = (read_runs(a_paths)?, read_runs(b_paths)?);
    println!(
        "{:<16} {:<18} {:>26} {:>26} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut regressed = false;
    for (workload, a_metrics) in &a {
        for spec in &specs {
            let (Some(av), Some(bv)) = (
                a_metrics.get(&spec.name),
                b.get(workload).and_then(|m| m.get(&spec.name)),
            ) else {
                continue;
            };
            let (aq1, am, aq3) = quartiles(av);
            let (bq1, bm, bq3) = quartiles(bv);
            let v = verdict(av, bv, spec.lower_is_better, spec.bound);
            regressed |= v == Verdict::Regressed;
            println!(
                "{:<16} {:<18} {:>26} {:>26} {:>+7.1}% {:>5.0}%  {}",
                workload,
                spec.name,
                format!("{} [{}, {}]", sig4(am), sig4(aq1), sig4(aq3)),
                format!("{} [{}, {}]", sig4(bm), sig4(bq1), sig4(bq3)),
                worsening(am, bm, spec.lower_is_better) * 100.0,
                spec.bound * 100.0,
                v.label()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn small_changes_are_within_bound() {
        let b = A.map(|x| x * 1.05);
        assert_eq!(verdict(&A, &b, true, 0.10), Verdict::Within);
        assert_eq!(
            verdict(&A, &b, false, 0.10),
            Verdict::Within,
            "an improvement"
        );
    }

    #[test]
    fn large_changes_regress_in_the_worse_direction_only() {
        let slower = A.map(|x| x * 1.2);
        assert_eq!(verdict(&A, &slower, true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&A, &slower, false, 0.10), Verdict::Within);
        let fewer = A.map(|x| x * 0.8);
        assert_eq!(verdict(&A, &fewer, false, 0.10), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&A, &noisy, true, 0.10), Verdict::Unresolved);
        let noisy_but_faster = [20.0, 40.0, 60.0, 30.0, 50.0];
        assert_eq!(verdict(&A, &noisy_but_faster, true, 0.10), Verdict::Within);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.1).abs() < 1e-12);
    }
}
