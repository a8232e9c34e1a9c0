//! Compare helper: two result sets (parent and change), one row per
//! workload × metric with medians, quartiles and pairs won, each ending in
//! `improved`, `worse`, `unchanged` or `unresolved`.
//!
//! A result set is the JSON-lines file the steadiness mode writes with
//! `--out`. Runs pair up in file order (run i of the parent with run i of
//! the change), so make both sets with the same seeds. The verdict rule:
//!
//! * `improved` — the change wins at least nine tenths of the pairs (ties
//!   count for neither) and its median is better than the parent's by
//!   more than the parent's own spread (q3 − q1);
//! * `unresolved` — the metric has a bound, the parent's spread is wider
//!   than that bound, and not every change run beats every parent run;
//! * `worse` — the change's median is worse than the parent's by more than
//!   the bound (share of the parent median); for a metric without a bound,
//!   by more than the parent's spread with the parent winning nine tenths
//!   of the pairs;
//! * `unchanged` — otherwise.

use std::collections::BTreeMap;

use crate::stats::{quartiles, Json};

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent median, if bounded.
    pub bound: Option<f64>,
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the rule above.
    Improved,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

/// Judges one metric from paired runs.
pub fn judge(parent: &[f64], change: &[f64], rule: Rule) -> (Verdict, usize, usize) {
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (p1, pm, p3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let spread = p3 - p1;
    // Signed gain of the change, in the metric's better direction.
    let gain = if rule.lower_is_better {
        pm - cm
    } else {
        cm - pm
    };
    let nine_tenths = |n: usize| pairs > 0 && 10 * n >= 9 * pairs;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if nine_tenths(wins) && gain > spread {
        Verdict::Improved
    } else if let Some(bound) = rule.bound {
        if pm != 0.0 && spread / pm.abs() > bound && !all_better {
            Verdict::Unresolved
        } else if -gain > bound * pm.abs() {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        }
    } else if nine_tenths(losses) && -gain > spread {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (verdict, wins, pairs)
}

/// Reads the rules of every metric from `BENCHMARK.json`.
pub fn rules(bench: &Json) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        if let Some(Json::Arr(list)) = bench.get(key) {
            for m in list {
                if let Some(name) = m.get("name").and_then(Json::str) {
                    out.insert(
                        name.to_string(),
                        Rule {
                            lower_is_better: m.get("better").and_then(Json::str) != Some("higher"),
                            bound: m.get("bound").and_then(Json::num),
                        },
                    );
                }
            }
        }
    }
    out
}

type Sets = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &str) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: Sets = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = row
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        if let Some(Json::Obj(metrics)) = row.get("result").and_then(|r| r.get("metrics")) {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::num) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Runs the compare helper; returns the exit code (1 if any row is worse).
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut files = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench_path = it.next().ok_or("--bench needs a value")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [parent_path, change_path] = files.as_slice() else {
        return Err(
            "usage: nvbench compare PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]".into(),
        );
    };
    let bench_text =
        std::fs::read_to_string(&bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let rules = rules(&Json::parse(&bench_text).map_err(|e| format!("{bench_path}: {e}"))?);
    let (parent, change) = (read_set(parent_path)?, read_set(change_path)?);
    println!(
        "{:<18} {:<34} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    let mut worse = false;
    for (key, p) in &parent {
        let Some(c) = change.get(key) else { continue };
        let rule = rules.get(&key.1).copied().unwrap_or(Rule {
            lower_is_better: true,
            bound: None,
        });
        let (verdict, wins, pairs) = judge(p, c, rule);
        worse |= verdict == Verdict::Worse;
        let fmt = |v: &[f64]| {
            let (q1, m, q3) = quartiles(v);
            format!("{m:.4} [{q1:.4}, {q3:.4}]")
        };
        println!(
            "{:<18} {:<34} {:>30} {:>30} {:>7}  {}",
            key.0,
            key.1,
            fmt(p),
            fmt(c),
            format!("{wins}/{pairs}"),
            format!("{verdict:?}").to_lowercase()
        );
    }
    Ok(i32::from(worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&parent, &faster, LOWER).0, Verdict::Improved);
        assert_eq!(judge(&parent, &slower, LOWER).0, Verdict::Worse);
        assert_eq!(judge(&parent, &same, LOWER).0, Verdict::Unchanged);
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(judge(&noisy, &noisy, LOWER).0, Verdict::Unresolved);
        let higher = Rule {
            lower_is_better: false,
            bound: None,
        };
        assert_eq!(judge(&parent, &slower, higher).0, Verdict::Improved);
    }
}
