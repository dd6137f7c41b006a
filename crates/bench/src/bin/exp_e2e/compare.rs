//! `repeat`: run every workload several times and check the runs agree
//! within the benchmark's own bounds. `compare`: judge one such summary
//! against another under the same bounds.

use crate::json::{self, Value};
use crate::metrics::{Bounded, Contract, END_TO_END, PER_LAYER};
use crate::stats::{median, sorted};
use std::process::Command;

/// `(max − min) / median` of a sample: the run-to-run spread as a share of
/// the typical value (`0` for a single run or an all-zero sample).
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match (s.first(), s.last(), median(values)) {
        (Some(lo), Some(hi), Some(mid)) if mid != 0.0 => (hi - lo) / mid.abs(),
        _ => 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side disagree by more than the bound, so a change
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` (repeated runs of one metric on one
/// workload) under the metric's direction and bound.
pub fn verdict(metric: &Bounded, base: &[f64], new: &[f64]) -> Option<(f64, f64, Verdict)> {
    let (a, b) = (median(base)?, median(new)?);
    let v = if spread(base).max(spread(new)) > metric.bound {
        Verdict::Unresolved
    } else {
        let worsening = metric.worsening(a, b);
        if worsening > metric.bound {
            Verdict::Worse
        } else if worsening < -metric.bound {
            Verdict::Better
        } else {
            Verdict::Same
        }
    };
    Some((a, b, v))
}

fn values_of(summary: &Value, workload: &str, group: &str, metric: &str) -> Option<Vec<f64>> {
    summary
        .get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// One row per (end-to-end metric, workload): both medians, the ratio with
/// its base, and the verdict. Returns the table and whether any row is
/// `worse`.
pub fn compare(contract: &Contract, base: &Value, new: &Value) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<20} {:<16} {:>14} {:>14} {:>9}  {}\n",
        "workload", "metric", "a (median)", "b (median)", "b/a", "verdict"
    );
    let mut any_worse = false;
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let side = |summary, which| {
                values_of(summary, workload, "end_to_end", &metric.name)
                    .ok_or_else(|| format!("{which}: no values of {} on {workload}", metric.name))
            };
            let (a, b, v) = verdict(metric, &side(base, "a")?, &side(new, "b")?)
                .ok_or_else(|| format!("no runs of {} on {workload}", metric.name))?;
            any_worse |= v == Verdict::Worse;
            table.push_str(&format!(
                "{workload:<20} {:<16} {a:>14.4} {b:>14.4} {:>9.4}  {} (bound {:.1}% of a, {})\n",
                metric.name,
                b / a,
                v.name(),
                metric.bound * 100.0,
                metric.unit,
            ));
        }
    }
    Ok((table, any_worse))
}

fn last_two_lines(stdout: &str) -> Option<(&str, &str)> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next()?;
    Some((lines.next()?, result))
}

/// Run this binary once as a child process — peak memory and CPU time are
/// per process, so repeated runs must not share one — and parse its report
/// and result lines.
fn run_child(workload: &str, trace: bool, opts: &RepeatOpts) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to exit before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run of {workload} (trace {trace}) failed with {}: {}{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let (report, result) = last_two_lines(&stdout)
        .ok_or_else(|| format!("run of {workload} printed no report and result"))?;
    Ok((json::parse(report)?, json::parse(result)?))
}

#[derive(Debug, Clone, Copy)]
pub struct RepeatOpts {
    pub sets: usize,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Metric values of one result line, in declaration order.
fn metric_values(result: &Value, names: &[&str]) -> Result<Vec<f64>, String> {
    names
        .iter()
        .map(|name| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("a run printed no {name}"))
        })
        .collect()
}

/// Run every workload `sets` times, untraced and traced, and check that
/// the sets agree: every end-to-end metric within its bound, every digest
/// and every counted metric exactly. Returns the printable table, the
/// summary (`compare`'s input) and whether all checks held.
pub fn repeat(contract: &Contract, opts: &RepeatOpts) -> Result<(String, Value, bool), String> {
    let mut table = String::new();
    let mut ok = true;
    let mut workloads = Vec::new();
    let groups = [
        ("end_to_end", false, END_TO_END),
        ("per_layer", true, PER_LAYER),
    ];
    for workload in &contract.workloads {
        let mut fields = Vec::new();
        for (group, trace, defs) in &groups {
            let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
            let mut per_set = Vec::with_capacity(opts.sets);
            let mut digests = Vec::with_capacity(opts.sets);
            for _ in 0..opts.sets {
                let (report, result) = run_child(workload, *trace, opts)?;
                ok &= result.get("correct").and_then(Value::as_bool) == Some(true);
                digests.push(
                    report
                        .get("stream_digest")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                );
                per_set.push(metric_values(&result, &names)?);
            }
            let digests_agree = digests.iter().all(|d| !d.is_empty() && *d == digests[0]);
            ok &= digests_agree;
            table.push_str(&format!(
                "{workload} {group}: stream_digest {} {}\n",
                digests[0],
                if digests_agree { "repeats" } else { "DIFFERS" }
            ));
            let mut metrics = Vec::new();
            for (i, def) in defs.iter().enumerate() {
                let (name, exact) = (def.name, def.exact);
                let values: Vec<f64> = per_set.iter().map(|set| set[i]).collect();
                let gap = spread(&values);
                let bound = contract.end_to_end.iter().find(|m| m.name == name);
                let held = if exact {
                    values.iter().all(|v| *v == values[0])
                } else {
                    bound.is_none_or(|m| gap <= m.bound)
                };
                ok &= held;
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                table.push_str(&format!(
                    "  {name:<36} {:<40} gap {:>6.2}%{}{}\n",
                    shown.join("  "),
                    gap * 100.0,
                    match (exact, bound) {
                        (true, _) => "  must repeat exactly".to_string(),
                        (false, Some(m)) => format!("  bound {:.1}%", m.bound * 100.0),
                        (false, None) => String::new(),
                    },
                    if held { "" } else { "  FAILED" }
                ));
                metrics.push((
                    name,
                    Value::obj([
                        ("unit", Value::str(def.unit)),
                        (
                            "values",
                            Value::Arr(values.into_iter().map(Value::Num).collect()),
                        ),
                    ]),
                ));
            }
            if !*trace {
                fields.push(("stream_digest", Value::str(digests[0].clone())));
            }
            fields.push((*group, Value::obj(metrics)));
        }
        workloads.push((workload.clone(), Value::obj(fields)));
    }
    let summary = Value::obj([
        ("bench", Value::str("exp_e2e")),
        ("sets", Value::Num(opts.sets as f64)),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("workloads", Value::Obj(workloads)),
    ]);
    Ok((table, summary, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{parse_contract, Better, BENCHMARK_JSON};

    fn latency(bound: f64) -> Bounded {
        Bounded {
            name: "tbt_us_p50".into(),
            unit: "us".into(),
            better: Better::Lower,
            bound,
        }
    }

    #[test]
    fn spread_is_the_range_over_the_median() {
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        let m = latency(0.1);
        let v = |base: &[f64], new: &[f64]| verdict(&m, base, new).unwrap().2;
        assert_eq!(v(&[100.0, 101.0], &[104.0, 105.0]), Verdict::Same);
        assert_eq!(v(&[100.0, 101.0], &[120.0, 121.0]), Verdict::Worse);
        assert_eq!(v(&[100.0, 101.0], &[80.0, 81.0]), Verdict::Better);
        // 30% apart within one side: nothing can be concluded.
        assert_eq!(v(&[100.0, 130.0], &[200.0, 201.0]), Verdict::Unresolved);
        let mut higher = latency(0.1);
        higher.better = Better::Higher;
        assert_eq!(
            verdict(&higher, &[100.0], &[120.0]).unwrap().2,
            Verdict::Better
        );
        assert!(verdict(&m, &[], &[1.0]).is_none());
    }

    fn summary(contract: &Contract, scale: f64) -> Value {
        let workloads = contract
            .workloads
            .iter()
            .map(|w| {
                let metrics = contract
                    .end_to_end
                    .iter()
                    .map(|m| {
                        let base = if m.better == Better::Lower {
                            scale
                        } else {
                            1.0 / scale
                        };
                        (
                            m.name.clone(),
                            Value::obj([(
                                "values",
                                Value::Arr(vec![
                                    Value::Num(100.0 * base),
                                    Value::Num(100.5 * base),
                                ]),
                            )]),
                        )
                    })
                    .collect();
                (w.clone(), Value::obj([("end_to_end", Value::Obj(metrics))]))
            })
            .collect();
        Value::obj([("workloads", Value::Obj(workloads))])
    }

    #[test]
    fn compare_prints_one_row_per_metric_and_workload() {
        let contract = parse_contract(BENCHMARK_JSON).unwrap();
        let base = summary(&contract, 1.0);
        let (table, worse) = compare(&contract, &base, &base).unwrap();
        assert!(!worse);
        let rows = contract.workloads.len() * contract.end_to_end.len();
        assert_eq!(table.lines().count(), rows + 1);
        assert!(table.contains("same"));
        // Everything 40% worse in its own direction.
        let (table, worse) = compare(&contract, &base, &summary(&contract, 1.4)).unwrap();
        assert!(worse && table.contains("worse") && !table.contains("better"));
        let (table, worse) = compare(&contract, &summary(&contract, 1.4), &base).unwrap();
        assert!(!worse && table.contains("better"));
        let empty = Value::obj([("workloads", Value::Obj(Vec::new()))]);
        assert!(compare(&contract, &base, &empty)
            .unwrap_err()
            .starts_with("b:"));
    }

    #[test]
    fn child_output_is_read_from_the_last_two_lines() {
        assert_eq!(
            last_two_lines("noise\n{\"a\": 1}\n{\"b\": 2}\n\n"),
            Some(("{\"a\": 1}", "{\"b\": 2}"))
        );
        assert_eq!(last_two_lines("only one\n"), None);
        let result = json::parse(r#"{"metrics": {"x": {"value": 2.5, "unit": "s"}}}"#).unwrap();
        assert_eq!(metric_values(&result, &["x"]).unwrap(), vec![2.5]);
        assert!(metric_values(&result, &["y"]).unwrap_err().contains("no y"));
    }
}
