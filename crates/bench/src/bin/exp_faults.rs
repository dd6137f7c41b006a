//! Experiment E16 — serving under injected faults: integrity, recovery and
//! graceful degradation (DESIGN.md §11).
//!
//! A deterministic open-loop trace is served through the full stack while a
//! seeded `FaultPlan` injects modeled transfer failures (retry with
//! exponential backoff charged to the clock), page corruption (detected by
//! per-page checksums and repaired in place), whole-session crashes
//! (checkpoint/restore through the prefix store, bounded re-admission) and
//! capacity-pressure events (the shed → demote → stop-admitting ladder).
//! The sweep is **fault rate × recovery policy** (fail-fast: no retries vs
//! retry: bounded crash re-admission), and four properties are asserted,
//! not assumed:
//!
//! * **Parity** — every request that completes under faults streams tokens
//!   byte-identical to the fault-free run, at every thread count probed.
//!   Faults change *when* and *how long*, never *what* attends.
//! * **Monotone degradation** — goodput (completed fraction and completed
//!   tokens per modeled second) never improves as the fault rate rises, and
//!   the retry policy never completes fewer requests than fail-fast.
//! * **Zero silent corruptions** — every injected corruption is detected by
//!   a checksum mismatch and repaired: injected == detected == repaired,
//!   with a strictly positive count at positive rates.
//! * **Determinism** — a repeated run of the faultiest cell reproduces the
//!   whole serving report bit for bit.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_faults`
//! (set `EXP_FAULTS_SMOKE=1` for the CI-sized trace, `--json` for the
//! machine-readable summary).

use std::collections::BTreeMap;

use clusterkv::ClusterKvFactory;
use clusterkv_bench::{
    serving_clusterkv_config, serving_model_config, smoke, with_threads, Json, Report,
};
use clusterkv_faults::FaultPlan;
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::{ModelConfig, ServeEngine};
use clusterkv_sched::{SchedConfig, Scheduler, ServingReport};
use clusterkv_workloads::{generate_traffic, TrafficConfig};

const BUDGET: usize = 48;
const SEED: u64 = 0xE16;

const SMOKE_VAR: &str = "EXP_FAULTS_SMOKE";

fn model_config() -> ModelConfig {
    serving_model_config(512)
}

fn num_requests() -> usize {
    if smoke(SMOKE_VAR) {
        10
    } else {
        24
    }
}

/// The serving engine every cell uses: a ClusterKV policy over a bounded
/// GPU cluster cache (so demand transfers — the fault surface — actually
/// happen) plus a prefix store (the crash checkpoint: prompts donated at
/// finish-prefill are re-adopted on retry instead of recomputed).
fn engine(plan: FaultPlan) -> ServeEngine {
    let factory = ClusterKvFactory::new(serving_clusterkv_config());
    ServeEngine::builder(model_config())
        .synthetic_weights(SEED)
        .budget(Budget::new(BUDGET))
        .policy(Box::new(factory))
        // Tight enough that the selected working set does not stay fully
        // resident: demand transfers — the retry fault surface — happen on
        // most decode steps.
        .kv_cache_capacity(Bytes(1 << 14))
        .prefix_store(Bytes(1 << 20))
        .faults(plan)
        .build()
        .expect("valid serving config")
}

/// One recovery policy: a name and the crash-retry budget it grants.
#[derive(Debug, Clone, Copy)]
struct RecoveryPolicy {
    name: &'static str,
    max_retries: u32,
}

const POLICIES: [RecoveryPolicy; 2] = [
    RecoveryPolicy {
        name: "fail-fast",
        max_retries: 0,
    },
    RecoveryPolicy {
        name: "retry",
        max_retries: 3,
    },
];

/// Serve the deterministic trace under `plan` and `policy`.
fn serve(plan: FaultPlan, policy: RecoveryPolicy) -> ServingReport {
    let cfg = model_config();
    let traffic = generate_traffic(
        &TrafficConfig::new(num_requests(), 200.0, cfg.vocab_size)
            .with_prompt_len(24, 96)
            .with_output_len(4, if smoke(SMOKE_VAR) { 8 } else { 12 })
            .with_priority_levels(3)
            .with_seed(SEED),
    );
    let sched_cfg = SchedConfig::fcfs(8)
        .with_chunk_tokens(32)
        .with_tick_token_budget(64)
        .with_kv_capacity(Bytes(2 * 108 * cfg.kv_bytes_per_token()))
        .with_faults(plan)
        .with_max_retries(policy.max_retries);
    // The same plan drives both layers: the engine injector owns the
    // transfer-retry and corruption sites, the scheduler injector owns
    // crash and pressure.
    let mut sched = Scheduler::new(engine(plan), sched_cfg).expect("valid scheduler config");
    sched.submit_all(traffic).expect("trace is servable");
    sched.run().expect("trace completes")
}

/// Completed token streams keyed by request id.
fn completed_streams(report: &ServingReport) -> BTreeMap<u64, Vec<usize>> {
    report
        .completed()
        .map(|r| (r.id.0, r.tokens.clone()))
        .collect()
}

fn main() {
    let out = Report::from_args();
    let cfg = model_config();
    let rates: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

    out.say("# Serving under injected faults — fault rate x recovery policy (DESIGN.md §11)\n");
    out.say(format_args!(
        "model: {} layers x {} heads; {} requests, uniform fault plan \
         (transfer = rate, corruption = rate/2, crash = rate/8, pressure = rate){}\n",
        cfg.num_layers,
        cfg.num_heads,
        num_requests(),
        if smoke(SMOKE_VAR) {
            " (smoke scale)"
        } else {
            ""
        },
    ));

    // The fault-free reference: every request completes, and its streams
    // are the parity baseline for every faulty cell.
    let reference = with_threads(1, || serve(FaultPlan::uniform(SEED, 0.0), POLICIES[1]));
    assert_eq!(
        reference.completed_fraction(),
        1.0,
        "the fault-free reference completes every request"
    );
    let reference_streams = completed_streams(&reference);

    // ---- Sweep: fault rate x recovery policy.
    let mut rows: Vec<(f64, &'static str, ServingReport)> = Vec::new();
    for &rate in &rates {
        for policy in POLICIES {
            let report = serve(FaultPlan::uniform(SEED, rate), policy);
            rows.push((rate, policy.name, report));
        }
    }
    let cell = |rate: f64, policy: &str| {
        &rows
            .iter()
            .find(|(r, p, _)| *r == rate && *p == policy)
            .expect("sweep covers the full grid")
            .2
    };

    // ---- Gate (a): stream parity for completed requests, every cell.
    for (rate, policy, report) in &rows {
        for (id, tokens) in completed_streams(report) {
            assert_eq!(
                Some(&tokens),
                reference_streams.get(&id),
                "request {id} diverged from the fault-free stream \
                 (rate={rate}, policy={policy})"
            );
        }
    }
    // ... at other thread counts too: the faultiest retry cell reproduces
    // its single-thread streams under the default thread pool.
    let threaded = serve(FaultPlan::uniform(SEED, rates[3]), POLICIES[1]);
    assert_eq!(
        completed_streams(&threaded),
        completed_streams(cell(rates[3], "retry")),
        "thread count changed completed streams under faults"
    );

    // ---- Gate (b): monotone goodput degradation along the rate axis, and
    // retries never complete fewer requests than fail-fast.
    for policy in POLICIES {
        let mut prev_completed = f64::INFINITY;
        let mut prev_goodput = f64::INFINITY;
        for &rate in &rates {
            let report = cell(rate, policy.name);
            let completed = report.completed_fraction();
            let goodput = report.throughput();
            assert!(
                completed <= prev_completed,
                "completed fraction rose with the fault rate \
                 (policy={}, rate={rate}: {completed} > {prev_completed})",
                policy.name
            );
            assert!(
                goodput <= prev_goodput,
                "goodput rose with the fault rate \
                 (policy={}, rate={rate}: {goodput} > {prev_goodput})",
                policy.name
            );
            prev_completed = completed;
            prev_goodput = goodput;
        }
    }
    for &rate in &rates[1..] {
        assert!(
            cell(rate, "retry").completed_fraction()
                >= cell(rate, "fail-fast").completed_fraction(),
            "bounded retries must not complete fewer requests than fail-fast at rate {rate}"
        );
    }

    // ---- Gate (c): zero silent corruptions — injected == detected ==
    // repaired everywhere, strictly positive once faults are on.
    for (rate, policy, report) in &rows {
        let integrity = report.integrity();
        assert_eq!(
            integrity.silent_corruptions(),
            0,
            "silent corruption escaped the checksums (rate={rate}, policy={policy})"
        );
        assert_eq!(
            integrity.corruptions_detected, integrity.corruptions_repaired,
            "a detected corruption was not repaired (rate={rate}, policy={policy})"
        );
        if *rate == 0.0 {
            assert_eq!(integrity.corruptions_injected, 0);
            assert_eq!(integrity.transfer_retries, 0);
        }
    }
    let faultiest = cell(rates[3], "retry");
    assert!(
        faultiest.integrity().corruptions_injected > 0,
        "the faultiest cell must actually inject corruptions"
    );
    assert!(
        faultiest.integrity().transfer_retries > 0,
        "the faultiest cell must actually retry transfers"
    );

    // ---- Gate (d): bit-identical repeat of the faultiest cell.
    let again = serve(FaultPlan::uniform(SEED, rates[3]), POLICIES[1]);
    assert_eq!(
        faultiest, &again,
        "repeated faulty runs must produce bit-identical reports"
    );

    let mut table = Table::new(vec![
        "Rate",
        "Policy",
        "Completed",
        "Tok/s",
        "Retries/req",
        "Corrupt inj/det/rep",
        "Xfer retries",
        "Backoff (µs)",
    ]);
    for (rate, policy, report) in &rows {
        let integrity = report.integrity();
        table.row(vec![
            fmt(*rate, 2),
            policy.to_string(),
            format!("{:.1}%", report.completed_fraction() * 100.0),
            fmt(report.throughput(), 0),
            fmt(report.retry_rate(), 2),
            format!(
                "{}/{}/{}",
                integrity.corruptions_injected,
                integrity.corruptions_detected,
                integrity.corruptions_repaired
            ),
            integrity.transfer_retries.to_string(),
            fmt(integrity.backoff_seconds * 1e6, 1),
        ]);
    }
    out.say(table.render());
    out.say(
        "Parity: every completed stream in every cell (and a multi-threaded probe) \
         is byte-identical to the fault-free run.",
    );
    out.say(format_args!(
        "Integrity: {} injected corruptions, all detected and repaired — zero silent.",
        faultiest.integrity().corruptions_injected
    ));
    out.say("Determinism: the faultiest cell repeated bit for bit.");

    out.emit(Json::obj([
        ("bench", "exp_faults".into()),
        ("smoke", smoke(SMOKE_VAR).into()),
        ("threads", rayon::current_num_threads().into()),
        (
            "workload",
            Json::obj([
                ("requests", num_requests().into()),
                ("budget", BUDGET.into()),
            ]),
        ),
        ("stream_parity", true.into()),
        ("monotone_goodput", true.into()),
        ("silent_corruptions", 0usize.into()),
        (
            "sweep",
            Json::Arr(
                rows.iter()
                    .map(|(rate, policy, report)| {
                        let integrity = report.integrity();
                        Json::row([
                            ("fault_rate", Json::Num(*rate)),
                            ("policy", (*policy).into()),
                            (
                                "completed_fraction",
                                Json::Fixed(report.completed_fraction(), 6),
                            ),
                            ("goodput_tok_s", Json::Fixed(report.throughput(), 3)),
                            ("retry_rate", Json::Fixed(report.retry_rate(), 6)),
                            (
                                "cancelled_fraction",
                                Json::Fixed(report.cancelled_fraction(), 6),
                            ),
                            (
                                "corruptions_injected",
                                integrity.corruptions_injected.into(),
                            ),
                            (
                                "corruptions_detected",
                                integrity.corruptions_detected.into(),
                            ),
                            (
                                "corruptions_repaired",
                                integrity.corruptions_repaired.into(),
                            ),
                            ("transfer_retries", integrity.transfer_retries.into()),
                            ("retried_bytes", integrity.retried_bytes.into()),
                            ("backoff_seconds", Json::Fixed(integrity.backoff_seconds, 9)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("deterministic", true.into()),
    ]));
}
