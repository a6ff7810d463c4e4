//! `compare A B`: two directories of result files, one verdict per
//! end-to-end metric × workload, under the bounds `BENCHMARK.json` fixes.

use crate::json::{parse, Value};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `BENCHMARK.json` of the checkout the command runs in: the nearest
/// one at or above the working directory.
pub fn find_benchmark_json() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Reads the end-to-end rules out of a `BENCHMARK.json` document, in file
/// order.
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn rules(doc: &Value) -> Result<Vec<(String, Rule)>, String> {
    let list = doc.get("end_to_end").and_then(Value::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without name")?;
            let better = m.get("better").and_then(Value::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without bound")?;
            Ok((name.to_owned(), Rule { lower_is_better: better == "lower", bound }))
        })
        .collect()
}

/// `(workload, metric) → one value per untraced result file` of `dir`.
///
/// # Errors
///
/// Returns a message if the directory or one of its result files cannot
/// be read.
pub fn load_dir(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("traced") != Some(&Value::Bool(false)) {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(Value::as_str),
            doc.get("metrics").and_then(Value::as_obj),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_owned(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    match values {
        [only] => (*only, *only, *only),
        _ => quartiles(values),
    }
}

/// B against A for one metric. A metric whose run-to-run spread (on either
/// side) exceeds its bound cannot be called unchanged: it is `Unresolved`
/// unless the two sides do not overlap at all.
pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let (a_q1, a_med, a_q3) = summary(a);
    let (b_q1, b_med, b_q3) = summary(b);
    let scale = a_med.abs().max(f64::MIN_POSITIVE);
    let spread = ((a_q3 - a_q1) / scale).max((b_q3 - b_q1) / b_med.abs().max(f64::MIN_POSITIVE));
    let min_max = |v: &[f64]| {
        v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if spread > rule.bound && overlap && a_med != b_med {
        return Verdict::Unresolved;
    }
    let worse_by = if rule.lower_is_better { b_med - a_med } else { a_med - b_med } / scale;
    if worse_by > rule.bound {
        Verdict::Worse
    } else if -worse_by > rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Renders the comparison table; the flag says whether every pair read
/// `same` (or `better`).
///
/// # Errors
///
/// Returns a message if a directory or `BENCHMARK.json` cannot be read.
pub fn compare(
    a_dir: &Path,
    b_dir: &Path,
    benchmark_json: &Path,
) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let rules = rules(&parse(&text)?)?;
    let (a, b) = (load_dir(a_dir)?, load_dir(b_dir)?);
    let mut out = format!(
        "{:<15} {:<17} {:>12} {:>25} {:>3}   {:>12} {:>25} {:>3}   {:>7}  {}\n",
        "workload",
        "metric",
        "A median",
        "[q1, q3]",
        "n",
        "B median",
        "[q1, q3]",
        "n",
        "B vs A",
        "verdict"
    );
    let mut all_ok = true;
    for workload in crate::catalogue::WORKLOADS {
        for (metric, rule) in &rules {
            let key = (workload.to_owned(), metric.clone());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else { continue };
            let (a_q1, a_med, a_q3) = summary(av);
            let (b_q1, b_med, b_q3) = summary(bv);
            let v = verdict(av, bv, *rule);
            all_ok &= matches!(v, Verdict::Same | Verdict::Better);
            let change = (b_med - a_med) / a_med.abs().max(f64::MIN_POSITIVE) * 100.0;
            out.push_str(&format!(
                "{workload:<15} {metric:<17} {a_med:>12.4} {:>25} {:>3}   {b_med:>12.4} {:>25} {:>3}   {change:>+6.1}%  {}\n",
                format!("[{a_q1:.4}, {a_q3:.4}]"),
                av.len(),
                format!("[{b_q1:.4}, {b_q3:.4}]"),
                bv.len(),
                v.label(),
            ));
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_8: Rule = Rule { lower_is_better: true, bound: 0.08 };
    const HIGHER_8: Rule = Rule { lower_is_better: false, bound: 0.08 };

    #[test]
    fn steady_sides_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &[103.0, 104.0, 102.0, 103.5, 102.5], LOWER_8), Verdict::Same);
        assert_eq!(verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], LOWER_8), Verdict::Worse);
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], LOWER_8), Verdict::Better);
        assert_eq!(verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], HIGHER_8), Verdict::Better);
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], HIGHER_8), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_while_the_sides_overlap() {
        let noisy = [100.0, 130.0, 90.0, 120.0, 80.0];
        assert_eq!(
            verdict(&noisy, &[105.0, 125.0, 95.0, 115.0, 85.0], LOWER_8),
            Verdict::Unresolved
        );
        // Disjoint sides resolve even when noisy.
        assert_eq!(verdict(&noisy, &[200.0, 260.0, 180.0, 240.0, 170.0], LOWER_8), Verdict::Worse);
    }

    #[test]
    fn deterministic_metrics_must_repeat_exactly_under_a_zero_bound() {
        let zero = Rule { lower_is_better: true, bound: 0.0 };
        assert_eq!(verdict(&[2.5, 2.5, 2.5], &[2.5, 2.5, 2.5], zero), Verdict::Same);
        assert_eq!(verdict(&[2.5, 2.5, 2.5], &[2.6, 2.6, 2.6], zero), Verdict::Worse);
    }
}
