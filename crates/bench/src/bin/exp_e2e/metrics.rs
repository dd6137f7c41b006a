//! The metric names the benchmark prints, and their agreement with
//! `BENCHMARK.json` — the contract later changes are judged against.

use crate::json::{self, Value};
use crate::spec::WORKLOADS;

/// The contract, embedded at build time so the binary and the file it is
/// checked against cannot drift apart unnoticed.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Counted or computed, never timed: repeats exactly for a given seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: true,
    }
}

/// Measured with tracing off; printed by `--trace 0`.
pub const END_TO_END: &[Def] = &[
    timed("setup_s", "s"),
    timed("ttft_ms_p50", "ms"),
    timed("tbt_us_p50", "us"),
    timed("tbt_us_p99", "us"),
    timed("out_tok_s", "tok/s"),
    timed("cpu_s", "s"),
    timed("peak_rss_mb", "MiB"),
    exact("top1_agree_full", "share"),
    exact("completed_share", "share"),
];

/// Taken from the traced run's three phases; printed by `--trace 1`. The
/// prefix is the crate (layer) the number belongs to.
pub const PER_LAYER: &[Def] = &[
    // Phase 1: spans around Scheduler::{submit, tick, report}.
    exact("sched.ticks", "count"),
    timed("sched.tick_ms_total", "ms"),
    timed("sched.submit_us_mean", "us"),
    timed("sched.report_ms", "ms"),
    exact("sched.decode_batch_mean", "tok"),
    exact("sched.mixed_tick_share", "share"),
    exact("sched.prefill_tok_per_tick_mean", "tok"),
    timed("trace.overhead_share", "share"),
    // Phase 2: spans around the ServeEngine calls of the replayed plan.
    timed("model.create_session_us_mean", "us"),
    timed("model.prefill_chunk_ms_total", "ms"),
    timed("model.prefill_tok_s", "tok/s"),
    timed("model.finish_prefill_ms_mean", "ms"),
    timed("model.decode_batch_us_p50", "us"),
    timed("model.decode_batch_us_p95", "us"),
    timed("model.decode_tok_s", "tok/s"),
    timed("model.release_us_mean", "us"),
    timed("model.cpu_over_wall", "cores"),
    timed("sched.self_ms", "ms"),
    timed("sched.self_share", "share"),
    exact("core.scored_vectors_per_step", "count"),
    exact("kvcache.hit_rate", "share"),
    exact("kvcache.recalled_mb", "MiB"),
    exact("kvcache.demotions", "count"),
    exact("kvcache.compressed_hits", "count"),
    exact("kvcache.prefetch_accuracy", "share"),
    exact("kvcache.prefix_hit_token_share", "share"),
    exact("faults.checksum_verifies", "count"),
    timed("model.modeled_over_measured_decode", "ratio"),
    timed("model.modeled_over_measured_prefill", "ratio"),
    timed("baselines.quest_over_ckv_decode", "ratio"),
    timed("baselines.full_over_ckv_decode", "ratio"),
    // Phase 3: each kernel alone, at the workload's shapes.
    timed("core.cluster_prefill_ms", "ms"),
    timed("core.kmeans_assign_ms", "ms"),
    timed("core.select_us", "us"),
    timed("core.lookahead_us", "us"),
    timed("kvcache.access_us", "us"),
    timed("kvcache.compress_page_us", "us"),
    timed("kvcache.prefix_match_us", "us"),
    timed("kvcache.prefix_insert_ms", "ms"),
    timed("faults.checksum_mb_s", "MB/s"),
    timed("model.attend_selected_us", "us"),
    timed("model.attend_full_us", "us"),
    timed("tensor.matvec_t_us", "us"),
    timed("tensor.matvec_rows_us", "us"),
    timed("tensor.gather_matvec_us", "us"),
    timed("tensor.weighted_sum_us", "us"),
    exact("tensor.flops_per_decode_step", "flop"),
    exact("tensor.bytes_per_decode_step", "B"),
    timed("model.decode_unattributed_share", "share"),
];

/// Values gathered during a run, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// `{name: {"value", "unit"}}` over exactly `defs`: a missing, repeated,
    /// unknown or non-finite value is an error, not a gap in the output.
    pub fn to_json(&self, defs: &[Def]) -> Result<Value, String> {
        for (name, _) in &self.0 {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("metric {name} is not declared for this mode"));
            }
        }
        let mut fields = Vec::with_capacity(defs.len());
        for def in defs {
            let mut values = self.0.iter().filter(|(n, _)| *n == def.name);
            let value = match (values.next(), values.next()) {
                (Some(&(_, v)), None) if v.is_finite() => v,
                (Some(&(_, v)), None) => {
                    return Err(format!("metric {} is not finite: {v}", def.name))
                }
                (None, _) => return Err(format!("metric {} was not measured", def.name)),
                (Some(_), Some(_)) => return Err(format!("metric {} was set twice", def.name)),
            };
            fields.push((
                def.name,
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(def.unit))]),
            ));
        }
        Ok(Value::obj(fields))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base value the metric may worsen by.
    pub bound: f64,
}

impl Bounded {
    /// How much worse `new` is than `base`, as a share of `base`, signed so
    /// that positive is worse whatever the metric's direction.
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        let change = (new - base) / base;
        match self.better {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing \"{key}\""))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" is not a string"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" is not a list"))
}

fn better(v: &Value) -> Result<Better, String> {
    match text(v, "better")?.as_str() {
        "lower" => Ok(Better::Lower),
        "higher" => Ok(Better::Higher),
        other => Err(format!("BENCHMARK.json: better = \"{other}\"")),
    }
}

pub fn parse_contract(source: &str) -> Result<Contract, String> {
    let doc = json::parse(source)?;
    let run_seconds = field(&doc, "run_seconds")?
        .as_f64()
        .ok_or("BENCHMARK.json: run_seconds is not a number")?;
    let workloads = list(&doc, "workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list(&doc, "end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bounded {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: better(m)?,
                bound: field(m, "bound")?
                    .as_f64()
                    .ok_or("BENCHMARK.json: bound is not a number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list(&doc, "per_layer")?
        .iter()
        .map(|m| {
            better(m)?;
            Ok((text(m, "name")?, text(m, "unit")?))
        })
        .collect::<Result<_, String>>()?;
    Ok(Contract {
        run_seconds,
        workloads,
        end_to_end,
        per_layer,
    })
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

/// Every workload and metric name the binary uses is well formed, used
/// once, and equal — with its unit — to what `contract` declares.
pub fn check_names(contract: &Contract) -> Result<(), String> {
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut seen = std::collections::BTreeSet::new();
    for name in ours
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
    {
        if !well_formed(name) {
            return Err(format!(
                "name {name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
        if !seen.insert(name) {
            return Err(format!("name {name} is used twice"));
        }
    }
    if contract.workloads != ours {
        return Err(format!(
            "workloads differ: BENCHMARK.json has {:?}, the binary {ours:?}",
            contract.workloads
        ));
    }
    let pairs = |defs: &[Def]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    let declared: Vec<(String, String)> = contract
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    if declared != pairs(END_TO_END) {
        return Err("end_to_end metrics of BENCHMARK.json and the binary differ".into());
    }
    if contract.per_layer != pairs(PER_LAYER) {
        return Err("per_layer metrics of BENCHMARK.json and the binary differ".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_names_what_the_binary_prints() {
        let contract = parse_contract(BENCHMARK_JSON).unwrap();
        check_names(&contract).unwrap();
        assert!(contract.run_seconds >= 1.0 && contract.run_seconds <= 60.0);
        let setup = &contract.end_to_end[0];
        assert_eq!(
            (setup.name.as_str(), setup.better),
            ("setup_s", Better::Lower)
        );
        for m in &contract.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: {}", m.name, m.bound);
        }
        assert!(contract.per_layer.len() <= 128);
    }

    #[test]
    fn name_check_catches_drift() {
        let mut contract = parse_contract(BENCHMARK_JSON).unwrap();
        contract.per_layer[3].1 = "s".into();
        assert!(check_names(&contract).unwrap_err().contains("per_layer"));
        let mut contract = parse_contract(BENCHMARK_JSON).unwrap();
        contract.end_to_end.pop();
        assert!(check_names(&contract).unwrap_err().contains("end_to_end"));
        let mut contract = parse_contract(BENCHMARK_JSON).unwrap();
        contract.workloads.swap(0, 1);
        assert!(check_names(&contract).unwrap_err().contains("workloads"));
        assert!(well_formed("tbt_us_p99") && well_formed("kvcache.hit-rate"));
        assert!(
            !well_formed("") && !well_formed(".x") && !well_formed("a b") && !well_formed("µs")
        );
        assert!(!well_formed(&"x".repeat(65)));
    }

    #[test]
    fn contract_parser_rejects_missing_and_mistyped_fields() {
        assert!(parse_contract("{}").unwrap_err().contains("run_seconds"));
        let bad_direction = r#"{"run_seconds": 1, "workloads": [], "end_to_end":
            [{"name": "a", "unit": "s", "better": "faster", "bound": 0.1}], "per_layer": []}"#;
        assert!(parse_contract(bad_direction)
            .unwrap_err()
            .contains("faster"));
        let bad_bound = r#"{"run_seconds": 1, "workloads": [], "end_to_end":
            [{"name": "a", "unit": "s", "better": "lower", "bound": "x"}], "per_layer": []}"#;
        assert!(parse_contract(bad_bound).unwrap_err().contains("bound"));
    }

    #[test]
    fn metrics_emit_exactly_the_declared_set() {
        let defs = [timed("a", "ms"), exact("b", "count")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.to_json(&defs).unwrap_err().contains("b was not measured"));
        m.set("b", 2.0);
        let text = m.to_json(&defs).unwrap().render();
        assert_eq!(
            text,
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 2, "unit": "count"}}"#
        );
        m.set("a", 3.0);
        assert!(m.to_json(&defs).unwrap_err().contains("twice"));
        let mut stray = Metrics::default();
        stray.set("c", 1.0);
        assert!(stray.to_json(&defs).unwrap_err().contains("not declared"));
        let mut nan = Metrics::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.to_json(&defs).unwrap_err().contains("not finite"));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        let mut m = Bounded {
            name: "x".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: 0.1,
        };
        assert!((m.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        m.better = Better::Higher;
        assert!((m.worsening(100.0, 110.0) + 0.1).abs() < 1e-12);
    }
}
