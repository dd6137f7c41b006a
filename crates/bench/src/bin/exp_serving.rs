//! Experiment E13 — traffic-driven serving: continuous batching vs
//! run-to-completion.
//!
//! ClusterKV's headline claim is serving-time efficiency, so this experiment
//! puts the whole stack under open-loop traffic: a deterministic Poisson
//! trace of mixed-length requests (`clusterkv_workloads::generate_traffic`)
//! is served by `clusterkv_sched::Scheduler` over a ClusterKV `ServeEngine`
//! with a bounded GPU cluster cache, sweeping **arrival rate × scheduling
//! policy × KV admission budget**. For every cell it reports modeled
//! generation throughput and the TTFT / end-to-end latency distributions
//! (mean / p50 / p95 / p99 via `clusterkv_metrics::LatencySummary`).
//!
//! Two properties are asserted, not assumed:
//!
//! * **Identical outputs** — every policy generates byte-identical
//!   per-request token streams (scheduling decides *when*, never *what*),
//!   and a repeated run reproduces the report bit for bit.
//! * **Continuous batching wins** — at the highest swept arrival rate,
//!   CB-FCFS beats run-to-completion FCFS on mean TTFT.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_serving`
//! (set `EXP_SERVING_SMOKE=1` for the CI-sized trace).

use clusterkv::ClusterKvFactory;
use clusterkv_bench::{serving_clusterkv_config, serving_model_config};
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_metrics::{fmt, LatencySummary, Table};
use clusterkv_model::{ModelConfig, ServeEngine};
use clusterkv_sched::{SchedConfig, SchedPolicy, Scheduler, ServingReport};
use clusterkv_workloads::{generate_traffic, TrafficConfig};

const BUDGET: usize = 48;
const SEED: u64 = 0xE13;

fn model_config() -> ModelConfig {
    serving_model_config(512)
}

fn engine(kv_cache: Bytes) -> ServeEngine {
    let factory = ClusterKvFactory::new(serving_clusterkv_config());
    ServeEngine::builder(model_config())
        .synthetic_weights(SEED)
        .budget(Budget::new(BUDGET))
        .policy(Box::new(factory))
        .kv_cache_capacity(kv_cache)
        .build()
        .expect("valid serving config")
}

/// One swept cell: serve `traffic` under `policy` with the given KV
/// admission budget.
fn serve(
    policy: SchedPolicy,
    kv_admission: Option<Bytes>,
    rate: f64,
    smoke: bool,
) -> ServingReport {
    let cfg = model_config();
    let traffic = generate_traffic(
        &TrafficConfig::new(if smoke { 10 } else { 32 }, rate, cfg.vocab_size)
            .with_prompt_len(24, 96)
            .with_output_len(4, if smoke { 8 } else { 16 })
            .with_priority_levels(3)
            .with_seed(SEED),
    );
    let mut sched_cfg = SchedConfig::fcfs(8)
        .with_policy(policy)
        .with_chunk_tokens(32)
        .with_tick_token_budget(64);
    if let Some(capacity) = kv_admission {
        sched_cfg = sched_cfg.with_kv_capacity(capacity);
    }
    let mut sched =
        Scheduler::new(engine(Bytes(1 << 17)), sched_cfg).expect("valid scheduler config");
    sched.submit_all(traffic).expect("trace is servable");
    sched.run().expect("trace completes")
}

fn main() {
    let smoke = std::env::var("EXP_SERVING_SMOKE").is_ok();
    let policies = [
        SchedPolicy::RunToCompletion,
        SchedPolicy::Fcfs,
        SchedPolicy::PriorityAging {
            aging_per_second: 50.0,
        },
    ];
    let rates: &[f64] = if smoke {
        &[50.0, 2_000.0]
    } else {
        &[20.0, 200.0, 2_000.0]
    };
    let kv_per_token = model_config().kv_bytes_per_token();
    // Admission budgets: enough worst-case KV for ~2 concurrent long
    // requests (tight) vs effectively unbounded.
    let kv_budgets: [(&str, Option<Bytes>); 2] = [
        ("tight", Some(Bytes(2 * 112 * kv_per_token))),
        ("unbounded", None),
    ];

    println!("# Serving under open-loop traffic — arrival rate x policy x KV admission budget\n");
    println!(
        "model: {} layers x {} heads; selection budget {BUDGET}; \
         {} requests per cell{}\n",
        model_config().num_layers,
        model_config().num_heads,
        if smoke { 10 } else { 32 },
        if smoke { " (smoke scale)" } else { "" },
    );

    let mut table = Table::new(vec![
        "Policy",
        "Rate (req/s)",
        "KV budget",
        "Tok/s",
        "TTFT mean (ms)",
        "TTFT p50",
        "TTFT p95",
        "TTFT p99",
        "E2E p95 (ms)",
    ]);
    let mut cb_vs_rtc_at_peak: Option<(f64, f64)> = None;
    for &(kv_name, kv) in &kv_budgets {
        for &rate in rates {
            let mut streams_reference: Option<Vec<Vec<usize>>> = None;
            for policy in policies {
                let report = serve(policy, kv, rate, smoke);
                // Scheduling must never change what is generated.
                let streams: Vec<Vec<usize>> =
                    report.requests.iter().map(|r| r.tokens.clone()).collect();
                match &streams_reference {
                    Some(reference) => assert_eq!(
                        &streams,
                        reference,
                        "{} changed token streams at rate {rate} ({kv_name})",
                        policy.name()
                    ),
                    None => streams_reference = Some(streams),
                }
                let ttft = LatencySummary::from_values(&report.ttfts());
                let e2e = LatencySummary::from_values(&report.e2es());
                if kv_name == "unbounded" && rate == *rates.last().unwrap() {
                    match policy {
                        SchedPolicy::RunToCompletion => {
                            cb_vs_rtc_at_peak = Some((ttft.mean, f64::NAN))
                        }
                        SchedPolicy::Fcfs => {
                            if let Some((rtc, _)) = cb_vs_rtc_at_peak {
                                cb_vs_rtc_at_peak = Some((rtc, ttft.mean));
                            }
                        }
                        SchedPolicy::PriorityAging { .. } => {}
                    }
                }
                let mut cells = vec![
                    policy.name().to_string(),
                    fmt(rate, 0),
                    kv_name.to_string(),
                    fmt(report.throughput(), 0),
                ];
                cells.extend(ttft.millis_cells(2));
                cells.push(fmt(e2e.p95 * 1e3, 2));
                table.row(cells);
            }
        }
    }
    println!("{}", table.render());

    // Determinism gate: the CI smoke (and any rerun) must reproduce the
    // same totals bit for bit.
    let peak = *rates.last().unwrap();
    let a = serve(SchedPolicy::Fcfs, None, peak, smoke);
    let b = serve(SchedPolicy::Fcfs, None, peak, smoke);
    assert_eq!(a, b, "repeated runs must produce bit-identical reports");
    println!(
        "Determinism: repeated CB-FCFS run at rate {peak} reproduced \
         {} generated tokens and makespan {} bit for bit.",
        a.total_generated, a.makespan
    );

    // The acceptance gate: continuous batching strictly beats
    // run-to-completion on mean TTFT at the highest swept arrival rate.
    let (rtc, cb) = cb_vs_rtc_at_peak.expect("peak cells ran");
    assert!(
        cb < rtc,
        "continuous batching must beat run-to-completion on mean TTFT at \
         rate {peak}: CB {cb:.6} s vs RTC {rtc:.6} s"
    );
    println!(
        "Continuous batching beats run-to-completion on mean TTFT at rate \
         {peak}: {:.2} ms vs {:.2} ms ({:.2}x).",
        cb * 1e3,
        rtc * 1e3,
        rtc / cb
    );

    // Per-request detail of the most interesting cell, through the shared
    // metrics row emitter (no hand-formatted report fields).
    println!("\n## Per-request detail — CB-FCFS, rate {peak}, unbounded KV\n");
    println!(
        "{}",
        clusterkv_metrics::request_table(&a.request_rows()).render()
    );
}
