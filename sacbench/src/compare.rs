//! `sac-bench compare A.json… -- B.json…`: per (workload, metric), each
//! side's median and quartiles, B's win share over the pairs (Aᵢ, Bᵢ) — run
//! them alternately — and a verdict against the bounds in `BENCHMARK.json`.
//!
//! * `improved`: over at least ten pairs, B wins at least nine tenths (ties
//!   count for neither) and the medians differ by more than A's
//!   interquartile spread.
//! * `regressed`: B's median is worse than A's by more than the metric's
//!   bound; for a metric without a bound, A wins nine tenths of at least
//!   ten pairs by more than A's spread.
//! * `unresolved`: A's own spread is wider than the bound (or there is no
//!   bound) and not every B reads better than every A.
//! * `unchanged`: none of the above.

use crate::results::{Better, Results};
use crate::stats::{median, quartiles};
use sac_proto::json::Json;
use std::collections::BTreeMap;

/// Fewest pairs on which a win share can decide a verdict.
const MIN_PAIRS: usize = 10;

/// Median, first and third quartile of one side's runs.
fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    (median(values).unwrap_or(f64::NAN), q1, q3)
}

/// The verdict of one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B's share of pair wins and the verdict, for values where `better` says
/// which direction wins and `bound` is the allowed relative worsening.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> (f64, Verdict) {
    let gain = |from: f64, to: f64| match better {
        Better::Lower => from - to,
        Better::Higher => to - from,
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| gain(a[i], b[i]) > 0.0).count();
    let losses = (0..pairs).filter(|&i| gain(a[i], b[i]) < 0.0).count();
    let share = wins as f64 / pairs.max(1) as f64;
    let (Some(ma), Some(mb), Some((q1, q3))) = (median(a), median(b), quartiles(a)) else {
        return (share, Verdict::Unresolved);
    };
    let spread = q3 - q1;
    let change = gain(ma, mb);
    let decisive = |count: usize| pairs >= MIN_PAIRS && count * 10 >= pairs * 9;
    let regressed = match bound {
        Some(bound) => -change > bound * ma.abs(),
        None => decisive(losses) && -change > spread,
    };
    if regressed {
        return (share, Verdict::Regressed);
    }
    if decisive(wins) && change > spread {
        return (share, Verdict::Improved);
    }
    let all_better = a.iter().all(|&x| b.iter().all(|&y| gain(x, y) > 0.0));
    let wide = bound.is_none_or(|bound| spread > bound * ma.abs());
    if wide && !all_better {
        (share, Verdict::Unresolved)
    } else {
        (share, Verdict::Unchanged)
    }
}

/// Bounds of the end-to-end metrics in `BENCHMARK.json`.
pub fn bounds(bench: &Json) -> BTreeMap<String, f64> {
    bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Prints the comparison table; returns whether any bounded metric
/// regressed.
pub fn compare(a: &[Results], b: &[Results], bounds: &BTreeMap<String, f64>) -> bool {
    // (workload, metric) -> direction, unit, and the values of sides A and B.
    type Row = (Better, String, [Vec<f64>; 2]);
    let mut table: BTreeMap<(String, String), Row> = BTreeMap::new();
    for (side, runs) in [a, b].into_iter().enumerate() {
        for run in runs {
            for w in &run.workloads {
                for m in w.metrics.iter().chain(&w.layers) {
                    table
                        .entry((w.name.clone(), m.name.clone()))
                        .or_insert_with(|| (m.better, m.unit.clone(), [vec![], vec![]]))
                        .2[side]
                        .push(m.value);
                }
            }
        }
    }
    println!("workload metric unit | A median [q1 q3] | B median [q1 q3] | B wins | verdict");
    let mut regressed = false;
    for ((workload, name), (better, unit, [va, vb])) in &table {
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let bound = bounds.get(name).copied();
        let (share, verdict) = judge(va, vb, *better, bound);
        regressed |= verdict == Verdict::Regressed && bound.is_some();
        let (ma, a1, a3) = summary(va);
        let (mb, b1, b3) = summary(vb);
        println!(
            "{workload} {name} {unit} | {ma} [{a1} {a3}] | {mb} [{b1} {b3}] | {:.0}% of {} | {}",
            share * 100.0,
            va.len().min(vb.len()),
            verdict.as_str()
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pair_rule_and_the_bounds() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(
            judge(&a, &faster, Better::Lower, Some(0.1)),
            (1.0, Verdict::Improved)
        );
        assert_eq!(
            judge(&a, &slower, Better::Lower, Some(0.1)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &slower, Better::Higher, Some(0.1)).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &same, Better::Lower, Some(0.1)).1,
            Verdict::Unchanged
        );
        // Without a bound, "no change" cannot be claimed.
        assert_eq!(judge(&a, &same, Better::Lower, None).1, Verdict::Unresolved);
        assert_eq!(
            judge(&a, &slower, Better::Lower, None).1,
            Verdict::Regressed
        );
        // Three pairs cannot show a gain, however one-sided.
        assert_ne!(
            judge(&a[..3], &faster[..3], Better::Lower, None).1,
            Verdict::Improved
        );
        // A spread wider than the bound leaves a small change unresolved.
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0];
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 0.97).collect();
        assert_eq!(
            judge(&noisy, &shifted, Better::Lower, Some(0.1)).1,
            Verdict::Unresolved
        );
    }
}
