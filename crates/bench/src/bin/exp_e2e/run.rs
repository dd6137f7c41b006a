//! One benchmark run: the untraced run that yields the end-to-end metrics,
//! or the traced run whose three phases yield the per-layer ledger.

use crate::components;
use crate::driver::{
    serve_closed_loop, set_up, stream_digest, tbt_us, timed_set_up, top1_agree_full, ttft_ms,
    PhaseCount, WarmUp,
};
use crate::json::Value;
use crate::metrics::{Def, Metrics, END_TO_END, PER_LAYER};
use crate::replay::{reconstruct_plan, replay, single_session_step_us};
use crate::spec::{Scale, Workload, CHUNK_TOKENS};
use crate::stats::{mean, peak_rss_mib, percentile, sorted};
use crate::trace::Tracer;
use clusterkv_baselines::QuestFactory;
use clusterkv_kvcache::stats::PrefetchStats;
use clusterkv_model::policy::FullAttentionFactory;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed section on the reference box; sets the number
    /// of requests and nothing else.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run prints: a descriptive report line, then the result line of
/// the benchmark contract.
#[derive(Debug)]
pub struct RunOutput {
    pub report: Value,
    pub result: Value,
    pub correct: bool,
    /// The traced run's spans, for the caller to write out.
    pub spans: Option<Value>,
}

/// Output checks that failed, in the order they were made.
#[derive(Debug, Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Percentile of an ascending sample, or an error naming what was empty.
fn p(ascending: &[f64], pct: f64, what: &str) -> Result<f64, String> {
    percentile(ascending, pct).ok_or_else(|| format!("no {what} samples"))
}

fn avg(values: &[f64], what: &str) -> Result<f64, String> {
    mean(values).ok_or_else(|| format!("no {what} samples"))
}

fn warm_phase(name: &'static str, warm: &Option<WarmUp>) -> Option<PhaseCount> {
    warm.as_ref()
        .map(|w| PhaseCount::of(name, &w.pass.report, &w.requests))
}

/// What a run produced besides its metrics and phase counts.
struct Produced {
    stream_digest: String,
    /// Extra fields of the report line.
    extra: Vec<(&'static str, Value)>,
    spans: Option<Value>,
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let scale = args.scale;
    let mut checks = Checks::default();
    let mut phases = Vec::new();
    let mut metrics = Metrics::default();
    let (defs, produced) = if args.trace {
        let produced = traced(args, &scale, &mut metrics, &mut phases, &mut checks)?;
        (PER_LAYER, produced)
    } else {
        let produced = untraced(args, &scale, &mut metrics, &mut phases, &mut checks)?;
        (END_TO_END, produced)
    };
    let attempted: usize = phases.iter().map(|p| p.attempted).sum();
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    checks.require(failed == 0, || {
        format!("{failed} of {attempted} requests failed")
    });
    finish(args, defs, &metrics, &phases, produced, checks)
}

/// The untraced run: set-up, one closed-loop timed section, the quality
/// probe. Returns the stream digest and report extras.
fn untraced(
    args: &RunArgs,
    scale: &Scale,
    metrics: &mut Metrics,
    phases: &mut Vec<PhaseCount>,
    checks: &mut Checks,
) -> Result<Produced, String> {
    let w = args.workload;
    let count = w.request_count(scale, args.seconds);
    let inputs = w.inputs(scale, args.seed, count);
    let (mut sched, warm, setup_s) = timed_set_up(w, scale, &inputs)?;
    phases.extend(warm_phase("setup", &warm));
    let pass = serve_closed_loop(&mut sched, &inputs.requests, w.clients, &mut None)?;
    drop(sched);
    let timed = PhaseCount::of("timed", &pass.report, &inputs.requests);
    phases.push(timed);
    let ttft = sorted(ttft_ms(&pass)?);
    let tbt = sorted(tbt_us(&pass.ticks));
    let generated: usize = inputs.requests.iter().map(|r| r.max_new).sum();
    checks.require(tbt.len() == generated, || {
        format!("{} TBT samples for {generated} generated tokens", tbt.len())
    });
    metrics.set("setup_s", setup_s);
    metrics.set("ttft_ms_p50", p(&ttft, 50.0, "TTFT")?);
    metrics.set("tbt_us_p50", p(&tbt, 50.0, "TBT")?);
    metrics.set("tbt_us_p99", p(&tbt, 99.0, "TBT")?);
    metrics.set(
        "out_tok_s",
        pass.report.total_generated as f64 / pass.wall_s,
    );
    metrics.set(
        "cpu_s",
        pass.cpu_s
            .ok_or("cpu_s is unavailable: /proc/self/stat could not be read")?,
    );
    // The probe's time belongs to no metric: it runs after the timed
    // section and outside set-up.
    metrics.set("top1_agree_full", top1_agree_full(w, scale)?);
    metrics.set(
        "completed_share",
        1.0 - timed.failed as f64 / timed.attempted as f64,
    );
    metrics.set(
        "peak_rss_mb",
        peak_rss_mib().ok_or("peak_rss_mb is unavailable: /proc/self/status has no VmHWM")?,
    );
    let extra = vec![
        ("requests", Value::Num(count as f64)),
        ("ttft_samples", Value::Num(ttft.len() as f64)),
        ("tbt_samples", Value::Num(tbt.len() as f64)),
        ("ticks", Value::Num(pass.ticks.len() as f64)),
        ("timed_wall_s", Value::Num(pass.wall_s)),
        (
            "failed_share",
            Value::Num(timed.failed as f64 / timed.attempted as f64),
        ),
    ];
    Ok(Produced {
        stream_digest: stream_digest(&pass.report),
        extra,
        spans: None,
    })
}

/// The traced run. Three passes over the same requests, each on a freshly
/// set-up engine: untraced (the wall-time reference), scheduler-driven
/// with spans, and the engine-driven replay; then the single-session
/// baselines and the component replay on the replay's engine.
fn traced(
    args: &RunArgs,
    scale: &Scale,
    metrics: &mut Metrics,
    phases: &mut Vec<PhaseCount>,
    checks: &mut Checks,
) -> Result<Produced, String> {
    let w = args.workload;
    // Three passes share the run's time, so each gets half a section.
    let count = w.request_count(scale, args.seconds / 2.0);
    let inputs = w.inputs(scale, args.seed, count);
    let requests = &inputs.requests;
    let mut tracer = Some(Tracer::new());
    let root = |t: &mut Option<Tracer>, name| t.as_mut().expect("tracing").begin(name, None);
    let close = |t: &mut Option<Tracer>, span| t.as_mut().expect("tracing").end(span);

    // Set up as the untraced run does, repeats included, so this pass does
    // not start on a core that has just woken up.
    let (mut sched, warm, _) = timed_set_up(w, scale, &inputs)?;
    phases.extend(warm_phase("untraced.setup", &warm));
    let reference = serve_closed_loop(&mut sched, requests, w.clients, &mut None)?;
    phases.push(PhaseCount::of("untraced", &reference.report, requests));
    drop(sched);

    // Phase 1: the same pass with spans around submit, tick and report.
    let (mut sched, warm) = set_up(w, &inputs)?;
    phases.extend(warm_phase("scheduler_driven.setup", &warm));
    let span = root(&mut tracer, "phase.scheduler_driven");
    let pass = serve_closed_loop(&mut sched, requests, w.clients, &mut tracer)?;
    close(&mut tracer, span);
    drop(sched);
    phases.push(PhaseCount::of("scheduler_driven", &pass.report, requests));
    let digest = stream_digest(&pass.report);
    checks.require(digest == stream_digest(&reference.report), || {
        "stream_digest differs between the untraced and the traced pass".into()
    });
    let same_plan = pass.ticks.len() == reference.ticks.len()
        && pass.ticks.iter().zip(&reference.ticks).all(|(a, b)| {
            a.clock.to_bits() == b.clock.to_bits()
                && (a.prefill_tokens, a.decode_tokens) == (b.prefill_tokens, b.decode_tokens)
                && a.admitted == b.admitted
                && a.completed == b.completed
        });
    checks.require(same_plan, || {
        "the traced pass did not repeat the untraced pass's ticks".into()
    });

    // Phase 2: the plan, rebuilt from the tick outcomes, replayed on a
    // fresh engine. Set-up is replayed too, so the prefix store starts in
    // the state the scheduler's engine started in.
    let budget = CHUNK_TOKENS + w.clients;
    let mut engine = w.engine().map_err(|e| e.to_string())?;
    if let Some(warm) = &warm {
        let plan = reconstruct_plan(&warm.requests, &warm.pass.ticks, CHUNK_TOKENS, budget)?;
        replay(&mut engine, &warm.requests, &plan, &mut None)?;
    }
    let plan = reconstruct_plan(requests, &pass.ticks, CHUNK_TOKENS, budget)?;
    let span = root(&mut tracer, "phase.engine_driven");
    let replayed = replay(&mut engine, requests, &plan, &mut tracer)?;
    close(&mut tracer, span);
    let short = replayed
        .streams
        .iter()
        .zip(requests)
        .filter(|(s, r)| s.len() != r.max_new)
        .count();
    phases.push(PhaseCount {
        name: "engine_driven",
        attempted: requests.len(),
        failed: short,
    });
    checks.require(replayed.digest() == digest, || {
        "stream_digest differs between the scheduler-driven pass and the replay".into()
    });

    // Single-session decode under three policies, at the context the
    // workload's first request leaves behind.
    let prompt = &requests[0].prompt;
    let span = root(&mut tracer, "phase.baselines");
    let steps = scale.baseline_steps;
    let ckv_us = single_session_step_us(&mut engine, None, prompt, steps)?;
    let quest_us =
        single_session_step_us(&mut engine, Some(&QuestFactory::default()), prompt, steps)?;
    let full_us = single_session_step_us(&mut engine, Some(&FullAttentionFactory), prompt, steps)?;
    close(&mut tracer, span);

    // Phase 3: each kernel alone.
    let span = root(&mut tracer, "phase.component_replay");
    let parts = components::measure(w, &mut engine, prompt, scale.component_slice_s)?;
    close(&mut tracer, span);
    drop(engine);

    let tracer = tracer.expect("tracing");
    let of = |name: &str| tracer.seconds_of(name);
    let total = |name: &str| of(name).iter().sum::<f64>();

    // Phase 1 metrics.
    let ticks = &pass.ticks;
    let decode_sizes: Vec<f64> = ticks
        .iter()
        .filter(|t| t.decode_tokens > 0)
        .map(|t| t.decode_tokens as f64)
        .collect();
    let prefill_sizes: Vec<f64> = ticks
        .iter()
        .filter(|t| t.prefill_tokens > 0)
        .map(|t| t.prefill_tokens as f64)
        .collect();
    let mixed = ticks
        .iter()
        .filter(|t| t.prefill_tokens > 0 && t.decode_tokens > 0)
        .count();
    let tick_s = total("sched.tick");
    metrics.set("sched.ticks", ticks.len() as f64);
    metrics.set("sched.tick_ms_total", tick_s * 1e3);
    metrics.set(
        "sched.submit_us_mean",
        avg(&of("sched.submit"), "submit")? * 1e6,
    );
    metrics.set("sched.report_ms", total("sched.report") * 1e3);
    metrics.set(
        "sched.decode_batch_mean",
        avg(&decode_sizes, "decode tick")?,
    );
    metrics.set("sched.mixed_tick_share", mixed as f64 / ticks.len() as f64);
    metrics.set(
        "sched.prefill_tok_per_tick_mean",
        avg(&prefill_sizes, "prefill tick")?,
    );
    metrics.set("trace.overhead_share", pass.wall_s / reference.wall_s - 1.0);

    // Phase 2 metrics.
    let decode_s = of("model.decode_batch");
    let decode_total: f64 = decode_s.iter().sum();
    let decode_tokens: usize = plan.iter().map(|t| t.decode.len()).sum();
    let prefill_total = total("model.prefill_chunk");
    let engine_s = total("model.create_session")
        + prefill_total
        + total("model.finish_prefill")
        + decode_total
        + total("model.release");
    let decode_us = sorted(decode_s.iter().map(|s| s * 1e6).collect());
    let decode_p50 = p(&decode_us, 50.0, "decode batch")?;
    metrics.set(
        "model.create_session_us_mean",
        avg(&of("model.create_session"), "create_session")? * 1e6,
    );
    metrics.set("model.prefill_chunk_ms_total", prefill_total * 1e3);
    metrics.set(
        "model.prefill_tok_s",
        replayed.prefill_tokens as f64 / prefill_total,
    );
    metrics.set(
        "model.finish_prefill_ms_mean",
        avg(&of("model.finish_prefill"), "finish_prefill")? * 1e3,
    );
    metrics.set("model.decode_batch_us_p50", decode_p50);
    metrics.set(
        "model.decode_batch_us_p95",
        p(&decode_us, 95.0, "decode batch")?,
    );
    metrics.set("model.decode_tok_s", decode_tokens as f64 / decode_total);
    metrics.set(
        "model.release_us_mean",
        avg(&of("model.release"), "release")? * 1e6,
    );
    metrics.set(
        "model.cpu_over_wall",
        replayed
            .cpu_s
            .ok_or("model.cpu_over_wall is unavailable: /proc/self/stat could not be read")?
            / replayed.wall_s,
    );
    metrics.set("sched.self_ms", (tick_s - engine_s) * 1e3);
    metrics.set("sched.self_share", (tick_s - engine_s) / tick_s);

    // Counts, read from the released sessions' own accounting.
    let reports = &replayed.reports;
    let steps_run: u64 = reports.iter().map(|r| r.generated_tokens as u64).sum();
    let scored: u64 = reports.iter().map(|r| r.stats.scored_vectors).sum();
    let hits: u64 = reports.iter().map(|r| r.stats.cache.hits).sum();
    let lookups: u64 = reports.iter().map(|r| r.stats.cache.total()).sum();
    let recalled: u64 = reports.iter().map(|r| r.bytes_recalled().get()).sum();
    let mut prefetch = PrefetchStats::new();
    for r in reports {
        prefetch.merge(&r.prefetch);
    }
    let shared: usize = reports.iter().map(|r| r.shared_prefix_tokens).sum();
    let prompt_tokens: usize = requests.iter().map(|r| r.prompt.len()).sum();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    metrics.set("core.scored_vectors_per_step", ratio(scored, steps_run));
    metrics.set("kvcache.hit_rate", ratio(hits, lookups));
    metrics.set("kvcache.recalled_mb", recalled as f64 / (1u64 << 20) as f64);
    metrics.set(
        "kvcache.demotions",
        reports.iter().map(|r| r.compression.demotions).sum::<u64>() as f64,
    );
    metrics.set(
        "kvcache.compressed_hits",
        reports
            .iter()
            .map(|r| r.compression.compressed_hits)
            .sum::<u64>() as f64,
    );
    metrics.set("kvcache.prefetch_accuracy", prefetch.accuracy());
    metrics.set(
        "kvcache.prefix_hit_token_share",
        shared as f64 / prompt_tokens as f64,
    );
    metrics.set(
        "faults.checksum_verifies",
        reports
            .iter()
            .map(|r| r.integrity.verifications)
            .sum::<u64>() as f64,
    );
    let modeled_decode: f64 = reports.iter().map(|r| r.modeled_decode_time.get()).sum();
    metrics.set(
        "model.modeled_over_measured_decode",
        modeled_decode / decode_total,
    );
    metrics.set(
        "model.modeled_over_measured_prefill",
        replayed.modeled_prefill.get() / prefill_total,
    );
    metrics.set("baselines.quest_over_ckv_decode", quest_us / ckv_us);
    metrics.set("baselines.full_over_ckv_decode", full_us / ckv_us);

    // Phase 3 metrics.
    let cfg = w.model();
    metrics.set("core.cluster_prefill_ms", parts.cluster_prefill_ms);
    metrics.set("core.kmeans_assign_ms", parts.kmeans_assign_ms);
    metrics.set("core.select_us", parts.select_us);
    metrics.set("core.lookahead_us", parts.lookahead_us);
    metrics.set("kvcache.access_us", parts.access_us);
    metrics.set("kvcache.compress_page_us", parts.compress_page_us);
    metrics.set("kvcache.prefix_match_us", parts.prefix_match_us);
    metrics.set("kvcache.prefix_insert_ms", parts.prefix_insert_ms);
    metrics.set("faults.checksum_mb_s", parts.checksum_mb_s);
    metrics.set("model.attend_selected_us", parts.attend_selected_us);
    metrics.set("model.attend_full_us", parts.attend_full_us);
    metrics.set("tensor.matvec_t_us", parts.matvec_t_us);
    metrics.set("tensor.matvec_rows_us", parts.matvec_rows_us);
    metrics.set("tensor.gather_matvec_us", parts.gather_matvec_us);
    metrics.set("tensor.weighted_sum_us", parts.weighted_sum_us);
    metrics.set(
        "tensor.flops_per_decode_step",
        components::flops_per_decode_step(&cfg, &parts),
    );
    metrics.set(
        "tensor.bytes_per_decode_step",
        components::bytes_per_decode_step(&cfg, &parts),
    );
    let batch = p(&sorted(decode_sizes), 50.0, "decode tick")?;
    let attributed = components::attributed_batch_us(w, &cfg, &parts, batch);
    metrics.set(
        "model.decode_unattributed_share",
        1.0 - attributed / decode_p50,
    );

    let extra = vec![
        ("requests", Value::Num(count as f64)),
        ("ticks", Value::Num(ticks.len() as f64)),
        ("spans", Value::Num(tracer.spans().len() as f64)),
        ("untraced_wall_s", Value::Num(reference.wall_s)),
        ("traced_wall_s", Value::Num(pass.wall_s)),
        ("replay_wall_s", Value::Num(replayed.wall_s)),
        ("ckv_step_us", Value::Num(ckv_us)),
        ("quest_step_us", Value::Num(quest_us)),
        ("full_step_us", Value::Num(full_us)),
        ("component_context", Value::Num(parts.context as f64)),
        ("component_clusters", Value::Num(parts.clusters as f64)),
    ];
    Ok(Produced {
        stream_digest: digest,
        extra,
        spans: Some(tracer.to_json()),
    })
}

fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("threads", Value::Num(rayon::current_num_threads() as f64)),
    ])
}

fn finish(
    args: &RunArgs,
    defs: &[Def],
    metrics: &Metrics,
    phases: &[PhaseCount],
    produced: Produced,
    checks: Checks,
) -> Result<RunOutput, String> {
    let metrics_json = metrics.to_json(defs)?;
    let attempted: usize = phases.iter().map(|p| p.attempted).sum();
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    let correct = checks.0.is_empty();
    let phases_json = Value::Arr(
        phases
            .iter()
            .map(|p| {
                Value::obj([
                    ("phase", Value::str(p.name)),
                    ("attempted", Value::Num(p.attempted as f64)),
                    ("completed", Value::Num((p.attempted - p.failed) as f64)),
                    ("failed", Value::Num(p.failed as f64)),
                ])
            })
            .collect(),
    );
    let mut report = vec![
        ("bench", Value::str("exp_e2e")),
        ("workload", Value::str(args.workload.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.scale.smoke)),
        ("host", host()),
        ("stream_digest", Value::str(produced.stream_digest)),
        ("phases", phases_json),
    ];
    report.extend(produced.extra);
    report.push((
        "failed_checks",
        Value::Arr(checks.0.iter().map(Value::str).collect()),
    ));
    report.push(("metrics", metrics_json.clone()));
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_json),
    ]);
    Ok(RunOutput {
        report: Value::obj(report),
        result,
        correct,
        spans: produced.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn tiny(workload: &'static Workload, trace: bool) -> RunOutput {
        run(&RunArgs {
            workload,
            seed: 5,
            seconds: 1.0,
            trace,
            scale: Scale::tiny(),
        })
        .unwrap()
    }

    fn keys(v: &Value) -> Vec<String> {
        match v {
            Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn names(result: &Value) -> Vec<String> {
        keys(result.get("metrics").unwrap())
    }

    #[test]
    fn untraced_run_prints_every_end_to_end_metric() {
        for w in &WORKLOADS {
            let out = tiny(w, false);
            assert!(out.correct, "{}", out.report.render());
            let expected: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
            assert_eq!(names(&out.result), expected);
            assert_eq!(out.result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert_eq!(
                keys(&out.result),
                ["correct", "attempted", "failed", "metrics"]
            );
            let digest = out.report.get("stream_digest").and_then(Value::as_str);
            assert_eq!(digest.map(str::len), Some(16));
        }
        // A second run of one seed repeats the digest and the exact metrics.
        let (a, b) = (tiny(&WORKLOADS[2], false), tiny(&WORKLOADS[2], false));
        assert_eq!(a.report.get("stream_digest"), b.report.get("stream_digest"));
        for exact in END_TO_END.iter().filter(|d| d.exact) {
            let value = |o: &RunOutput| {
                o.result
                    .get("metrics")
                    .and_then(|m| m.get(exact.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            assert_eq!(value(&a), value(&b), "{}", exact.name);
        }
    }

    #[test]
    fn traced_run_prints_every_per_layer_metric_and_returns_the_spans() {
        for w in &WORKLOADS {
            let out = tiny(w, true);
            assert!(out.correct, "{}", out.report.render());
            let expected: Vec<String> = PER_LAYER.iter().map(|d| d.name.to_string()).collect();
            assert_eq!(names(&out.result), expected);
            let spans = crate::json::parse(&out.spans.unwrap().render()).unwrap();
            let spans = spans.as_arr().unwrap();
            assert!(spans.len() > 10);
            assert_eq!(
                spans[0].get("name").and_then(Value::as_str),
                Some("phase.scheduler_driven")
            );
            let phases = out.report.get("phases").and_then(Value::as_arr).unwrap();
            assert!(phases.iter().any(|p| {
                p.get("phase").and_then(Value::as_str) == Some("engine_driven")
                    && p.get("failed").and_then(Value::as_f64) == Some(0.0)
            }));
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.require(true, || unreachable!());
        checks.require(false, || "digest differs".into());
        let args = RunArgs {
            workload: &WORKLOADS[0],
            seed: 1,
            seconds: 1.0,
            trace: false,
            scale: Scale::tiny(),
        };
        let mut metrics = Metrics::default();
        for d in END_TO_END {
            metrics.set(d.name, 1.0);
        }
        let produced = Produced {
            stream_digest: "0".into(),
            extra: Vec::new(),
            spans: None,
        };
        let out = finish(&args, END_TO_END, &metrics, &[], produced, checks).unwrap();
        assert!(!out.correct);
        assert_eq!(out.result.get("correct"), Some(&Value::Bool(false)));
        assert!(out.report.render().contains("digest differs"));
    }
}
