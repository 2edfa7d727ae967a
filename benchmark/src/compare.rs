//! `benchmark compare A.json B.json`: apply `BENCHMARK.json`'s bounds to
//! two suite result files, one row per (workload, metric).
//!
//! A bounded metric is `worse` when B's median is worse than A's by more
//! than its bound, `unresolved` when either side's own spread (quartile
//! distance over median of its per-unit samples) is wider than the bound —
//! unless every B sample beats every A sample — and `ok` otherwise.
//! A metric reported without samples (`setup_s`, like the driver, is held
//! to its bound only) has no spread. Per-layer metrics have no bound and are
//! listed as `info`.

use std::path::Path;

use crate::json::Json;
use crate::trace::median;

/// Quartile distance over the median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread the
/// driver computes. Fewer than two samples have no spread.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// One side of a comparison: the reported value and the samples behind it
/// (just the value when the metric is not a median of samples).
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

pub fn judge(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = b
        .samples
        .iter()
        .all(|&x| a.samples.iter().all(|&y| better(x, y)));
    if !all_better && (spread(&a.samples) > bound || spread(&b.samples) > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if j.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{}: not a full result set (quick runs are a smoke test, not a measurement)",
            path.display()
        ));
    }
    Ok(j)
}

fn side(results: &Json, workload: &str, section: &str, metric: &str) -> Option<Side> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let samples = match m.get("samples") {
        Some(s) => s.items().iter().filter_map(Json::as_f64).collect(),
        None => vec![value],
    };
    Some(Side { value, samples })
}

/// Returns whether no bounded metric got worse.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let contract =
        Json::parse(crate::BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |e: &Json, k: &str| {
        e.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for w in contract.get("workloads").map_or(&[][..], Json::items) {
        let workload = field(w, "name");
        for (section, key) in [("e2e", "end_to_end"), ("layers", "per_layer")] {
            for def in contract.get(key).map_or(&[][..], Json::items) {
                let metric = field(def, "name");
                let (Some(sa), Some(sb)) = (
                    side(&a, &workload, section, &metric),
                    side(&b, &workload, section, &metric),
                ) else {
                    return Err(format!("{workload}/{metric} is missing from a result file"));
                };
                let widest = spread(&sa.samples).max(spread(&sb.samples));
                let (bound_text, verdict) = match def.get("bound").and_then(Json::as_f64) {
                    Some(bound) => {
                        let v = judge(&sa, &sb, field(def, "better") == "higher", bound);
                        worse += usize::from(v == Verdict::Worse);
                        unresolved += usize::from(v == Verdict::Unresolved);
                        (format!("{bound}"), format!("{v:?}").to_lowercase())
                    }
                    None => ("-".into(), "info".into()),
                };
                let ratio = if sa.value == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", sb.value / sa.value)
                };
                println!(
                    "{workload:<14} {metric:<34} {:>14.6} {:>14.6} {ratio:>8} {bound_text:>7} {widest:>8.4}  {verdict}",
                    sa.value, sb.value,
                );
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved (every ratio is B over A)");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side {
        Side {
            value: median(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // 5 % slower, bound 10 %: ok. 20 % slower: worse.
        assert_eq!(
            judge(&base, &side(&[95.0, 95.5, 94.5]), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &side(&[80.0, 80.5, 79.5]), true, 0.10),
            Verdict::Worse
        );
        // Lower-is-better flips the direction.
        assert_eq!(
            judge(&base, &side(&[120.0, 121.0, 119.0]), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &side(&[80.0, 80.5, 79.5]), false, 0.10),
            Verdict::Ok
        );
        // A side noisier than the bound cannot be resolved...
        let noisy = side(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        assert_eq!(judge(&base, &noisy, true, 0.10), Verdict::Unresolved);
        // ...unless every one of its runs beats every base run.
        let noisy_fast = side(&[160.0, 200.0, 240.0, 180.0, 220.0]);
        assert_eq!(judge(&base, &noisy_fast, true, 0.10), Verdict::Ok);
    }
}
