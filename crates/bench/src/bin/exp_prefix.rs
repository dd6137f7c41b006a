//! Experiment E14 — cross-session KV prefix sharing (DESIGN.md §8).
//!
//! Serving traffic is rarely cold: agents, RAG pipelines, and chat UIs all
//! replay long shared system prompts. This experiment puts the workspace
//! [`PrefixStore`](clusterkv_kvcache::prefix::PrefixStore) under templated
//! traffic (`N` templates × `M` users) and asserts the four properties the
//! design promises, rather than assuming them:
//!
//! * **Parity** — per-session token streams are byte-identical with the
//!   store enabled vs disabled, at every prefill chunking and every thread
//!   count swept. Sharing decides *what is recomputed*, never *what is
//!   generated*.
//! * **Prefill speedup** — for a 90 %-shared workload, the computed prompt
//!   tokens (the prefill FLOPs proxy) and the modeled prefill latency both
//!   improve by at least 2x over the cold run, and modeled mean TTFT
//!   strictly improves. The 2x gate targets the prefill component sharing
//!   actually removes: at bench scale the analytical device model's fixed
//!   kernel overheads put an identical ~tens-of-µs decode floor under the
//!   TTFT of *both* runs, so full-TTFT ratios understate the effect that
//!   dominates at production scale (where prefill is the bulk of TTFT).
//! * **Admission capacity** — under a fixed KV admission budget, the peak
//!   number of concurrently running sessions grows with the shared
//!   fraction, because the scheduler only reserves private (unshared)
//!   bytes per request.
//! * **Determinism** — a repeated store-enabled run reproduces the serving
//!   report and the store statistics bit for bit.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_prefix`
//! (set `EXP_PREFIX_SMOKE=1` for the CI-sized trace, `--json` for the
//! machine-readable summary).

use clusterkv::ClusterKvFactory;
use clusterkv_bench::{
    serving_clusterkv_config, serving_model_config, smoke, with_threads, Json, Report,
};
use clusterkv_kvcache::prefix::PrefixStoreStats;
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_metrics::{fmt, LatencySummary, Table};
use clusterkv_model::{ModelConfig, ServeEngine};
use clusterkv_sched::{SchedConfig, Scheduler, ServingReport};
use clusterkv_workloads::{generate_traffic, TrafficConfig};

const SEED: u64 = 0xE14;
const BUDGET: usize = 48;
/// Gate: modeled prefill latency must improve by at least this factor on
/// the 90 %-shared workload.
const PREFILL_FLOOR: f64 = 2.0;
/// Gate: computed prompt tokens (prefill FLOPs proxy) must drop to at most
/// this fraction of the cold run on the 90 %-shared workload.
const COMPUTE_CEILING: f64 = 0.5;

const SMOKE_VAR: &str = "EXP_PREFIX_SMOKE";

fn model_config() -> ModelConfig {
    serving_model_config(1024)
}

/// Workload scale: `requests` users over `templates` shared prompt
/// templates, each prompt exactly `prompt_len` tokens with `shared_len` of
/// them drawn from the template.
#[derive(Clone, Copy)]
struct Scale {
    requests: usize,
    prompt_len: usize,
    templates: usize,
    shared_len: usize,
    output_len: usize,
    decode_steps: usize,
}

fn scale() -> Scale {
    if smoke(SMOKE_VAR) {
        Scale {
            requests: 12,
            prompt_len: 80,
            templates: 2,
            shared_len: 72,
            output_len: 4,
            decode_steps: 6,
        }
    } else {
        Scale {
            requests: 36,
            prompt_len: 160,
            templates: 4,
            shared_len: 144,
            output_len: 4,
            decode_steps: 8,
        }
    }
}

fn engine(store: bool) -> ServeEngine {
    let factory = ClusterKvFactory::new(serving_clusterkv_config());
    let mut builder = ServeEngine::builder(model_config())
        .synthetic_weights(SEED)
        .budget(Budget::new(BUDGET))
        .policy(Box::new(factory))
        .kv_cache_capacity(Bytes(1 << 17));
    if store {
        builder = builder.prefix_store(Bytes(8 << 20));
    }
    builder.build().expect("valid serving config")
}

/// Deterministic parity prompts: three users over one shared template plus
/// one unrelated prompt, so a single run exercises hit, divergence, and
/// miss paths of the store.
fn parity_prompts(vocab: usize) -> Vec<Vec<usize>> {
    let template: Vec<usize> = (0..48).map(|t| (t * 7 + 13) % vocab).collect();
    let mut prompts: Vec<Vec<usize>> = (0..3)
        .map(|user| {
            let mut p = template.clone();
            p.extend((0..12).map(|t| (t * 11 + 31 * (user + 1)) % vocab));
            p
        })
        .collect();
    prompts.push((0..32).map(|t| (t * 17 + 5) % vocab).collect());
    prompts
}

/// Serve `prompts` one session at a time on a fresh engine: prefill
/// (monolithic when `chunk == 0`, otherwise in `chunk`-token pieces), then
/// decode `steps` tokens. Sessions are created in order and kept alive, so
/// later sessions can reuse what earlier ones donated to the store.
fn run_parity(store: bool, chunk: usize, steps: usize) -> (Vec<Vec<usize>>, u64) {
    let mut eng = engine(store);
    let mut streams = Vec::new();
    for prompt in parity_prompts(model_config().vocab_size) {
        let session = eng.create_session().expect("session slot");
        if chunk == 0 {
            eng.prefill(session, &prompt).expect("prefill");
        } else {
            for piece in prompt.chunks(chunk) {
                eng.prefill_chunk(session, piece).expect("prefill chunk");
            }
            eng.finish_prefill(session).expect("finish prefill");
        }
        let mut stream = Vec::with_capacity(steps);
        for _ in 0..steps {
            stream.push(eng.decode_batch(&[session]).expect("decode")[0].next_token);
        }
        streams.push(stream);
    }
    let hits = eng.prefix_store_stats().map_or(0, |s| s.hit_tokens);
    (streams, hits)
}

/// One scheduler run over templated traffic. `shared_len == 0` disables the
/// templates entirely (a cold trace with identical arrivals and lengths).
fn serve(
    store: bool,
    shared_len: usize,
    kv_admission: Option<Bytes>,
    rate: f64,
    s: Scale,
) -> (ServingReport, usize, Option<PrefixStoreStats>) {
    let cfg = model_config();
    let mut traffic_cfg = TrafficConfig::new(s.requests, rate, cfg.vocab_size)
        .with_prompt_len(s.prompt_len, s.prompt_len)
        .with_output_len(s.output_len, s.output_len)
        .with_seed(SEED);
    if shared_len > 0 {
        traffic_cfg = traffic_cfg.with_prefix_templates(s.templates, shared_len, shared_len);
    }
    let traffic = generate_traffic(&traffic_cfg);
    let mut sched_cfg = SchedConfig::fcfs(8)
        .with_chunk_tokens(64)
        .with_tick_token_budget(256);
    if let Some(capacity) = kv_admission {
        sched_cfg = sched_cfg.with_kv_capacity(capacity);
    }
    let mut sched = Scheduler::new(engine(store), sched_cfg).expect("valid scheduler config");
    sched.submit_all(traffic).expect("trace is servable");
    let mut peak_running = 0;
    while !sched.is_idle() {
        sched.tick().expect("tick");
        peak_running = peak_running.max(sched.num_running());
    }
    let stats = sched.engine().prefix_store_stats();
    (sched.report(), peak_running, stats)
}

/// Prompt tokens actually charged to compute: everything the store did not
/// serve from shared pages.
fn computed_prompt_tokens(report: &ServingReport) -> usize {
    report
        .requests
        .iter()
        .map(|r| r.prompt_len - r.shared_prefix_tokens)
        .sum()
}

/// Total modeled prefill latency across the report, priced exactly like the
/// scheduler prices chunks: a request whose first `shared` positions came
/// from the store is charged `prefill(len) - prefill(len - computed)`, which
/// telescopes to the full `prefill(len)` when nothing was shared.
fn modeled_prefill_time(report: &ServingReport, lm: &clusterkv_model::LatencyModel) -> f64 {
    report
        .requests
        .iter()
        .map(|r| {
            let computed = r.prompt_len - r.shared_prefix_tokens;
            let tail = if computed == r.prompt_len {
                0.0
            } else {
                lm.prefill(r.prompt_len - computed).get()
            };
            lm.prefill(r.prompt_len).get() - tail
        })
        .sum()
}

fn main() {
    let out = Report::from_args();
    let s = scale();
    let bytes_per_token = model_config().kv_bytes_per_token();

    out.say("# Cross-session KV prefix sharing — parity, speedup, admission capacity\n");
    out.say(format_args!(
        "model: {} layers x {} heads; {} requests x {} prompt tokens, \
         {} templates x {} shared tokens{}\n",
        model_config().num_layers,
        model_config().num_heads,
        s.requests,
        s.prompt_len,
        s.templates,
        s.shared_len,
        if smoke(SMOKE_VAR) {
            " (smoke scale)"
        } else {
            ""
        },
    ));

    // ---- Gate (a): byte-identical streams, store on/off, at every
    // chunking and thread count swept. Reference: store off, monolithic
    // prefill, one thread.
    let (reference, _) = with_threads(1, || run_parity(false, 0, s.decode_steps));
    let chunkings = [0usize, 7, 16];
    let threads = [1usize, 2, 8];
    let mut parity_cells = 0usize;
    for &store in &[false, true] {
        for &chunk in &chunkings {
            for &t in &threads {
                let (streams, hits) = with_threads(t, || run_parity(store, chunk, s.decode_steps));
                assert_eq!(
                    streams, reference,
                    "token streams diverged (store={store}, chunk={chunk}, threads={t})"
                );
                if store && chunk != 0 {
                    assert!(
                        hits > 0,
                        "store enabled but no prefix hits (chunk={chunk}, threads={t})"
                    );
                }
                parity_cells += 1;
            }
        }
    }
    out.say(format_args!(
        "Parity: {parity_cells} cells (store on/off x chunkings {chunkings:?} x threads \
         {threads:?}) all byte-identical to the cold monolithic single-thread run.\n"
    ));

    // ---- Gate (b): prefill compute and modeled TTFT on the 90 %-shared
    // workload, store on vs off over the identical trace.
    let (cold_report, _, _) = serve(false, s.shared_len, None, 5_000.0, s);
    let (shared_report, _, shared_stats) = serve(true, s.shared_len, None, 5_000.0, s);
    let cold_streams: Vec<&[usize]> = cold_report.requests.iter().map(|r| &r.tokens[..]).collect();
    let shared_streams: Vec<&[usize]> = shared_report
        .requests
        .iter()
        .map(|r| &r.tokens[..])
        .collect();
    assert_eq!(
        cold_streams, shared_streams,
        "prefix store changed generated tokens under the scheduler"
    );
    let computed_cold = computed_prompt_tokens(&cold_report);
    let computed_shared = computed_prompt_tokens(&shared_report);
    assert!(
        (computed_shared as f64) <= COMPUTE_CEILING * computed_cold as f64,
        "shared workload must compute at most {COMPUTE_CEILING}x of cold \
         prompt tokens: {computed_shared} vs {computed_cold}"
    );
    let lm = engine(false).latency_model().clone();
    let prefill_cold = modeled_prefill_time(&cold_report, &lm);
    let prefill_shared = modeled_prefill_time(&shared_report, &lm);
    let prefill_speedup = prefill_cold / prefill_shared;
    assert!(
        prefill_speedup >= PREFILL_FLOOR,
        "prefix sharing must cut modeled prefill latency by at least \
         {PREFILL_FLOOR}x: {prefill_cold:.6} s vs {prefill_shared:.6} s \
         ({prefill_speedup:.2}x)"
    );
    let ttft_cold = LatencySummary::from_values(&cold_report.ttfts());
    let ttft_shared = LatencySummary::from_values(&shared_report.ttfts());
    let speedup = ttft_cold.mean / ttft_shared.mean;
    assert!(
        speedup > 1.0,
        "prefix sharing must strictly improve modeled mean TTFT: \
         {:.6} s vs {:.6} s",
        ttft_cold.mean,
        ttft_shared.mean
    );
    let stats = shared_stats.expect("store-enabled run has stats");
    assert!(stats.hit_tokens > 0, "templated trace must hit the store");
    let mut table = Table::new(vec![
        "Run",
        "Computed prompt tok",
        "TTFT mean (ms)",
        "TTFT p95 (ms)",
        "E2E p95 (ms)",
    ]);
    for (name, report, computed) in [
        ("cold", &cold_report, computed_cold),
        ("shared", &shared_report, computed_shared),
    ] {
        let ttft = LatencySummary::from_values(&report.ttfts());
        let e2e = LatencySummary::from_values(&report.e2es());
        table.row(vec![
            name.to_string(),
            format!("{computed}"),
            fmt(ttft.mean * 1e3, 2),
            fmt(ttft.p95 * 1e3, 2),
            fmt(e2e.p95 * 1e3, 2),
        ]);
    }
    out.say(table.render());
    out.say(format_args!(
        "Speedup: {prefill_speedup:.2}x modeled prefill latency, \
         {speedup:.2}x mean TTFT; computed prompt tokens \
         {computed_shared}/{computed_cold} ({:.0}%); store holds {} \
         nodes / {} shared bytes.\n",
        100.0 * computed_shared as f64 / computed_cold as f64,
        stats.nodes,
        stats.shared_bytes.get()
    ));

    // ---- Gate (c): admission capacity grows with the shared fraction
    // under a KV budget sized for exactly two cold requests.
    let kv_capacity = Bytes(2 * (s.prompt_len + s.output_len) as u64 * bytes_per_token);
    let fractions = [s.prompt_len / 20, s.prompt_len / 2, s.shared_len];
    let mut peaks = Vec::new();
    // A burst trace (everything arrives within a few ticks) makes the KV
    // budget the binding constraint, so peak concurrency measures exactly
    // how far the discounted reservations stretch it.
    for &shared_len in &fractions {
        let (report, peak, _) = serve(true, shared_len, Some(kv_capacity), 1_000_000.0, s);
        assert_eq!(report.requests.len(), s.requests, "all requests served");
        peaks.push((shared_len, peak));
    }
    assert!(
        peaks.windows(2).all(|w| w[0].1 < w[1].1),
        "peak concurrency must grow strictly with the shared fraction: {peaks:?}"
    );
    let mut table = Table::new(vec!["Shared tokens", "Shared fraction", "Peak running"]);
    for &(shared_len, peak) in &peaks {
        table.row(vec![
            format!("{shared_len}"),
            fmt(shared_len as f64 / s.prompt_len as f64, 2),
            format!("{peak}"),
        ]);
    }
    out.say(table.render());
    out.say(format_args!(
        "Admission: KV budget fits 2 cold requests; concurrency grows \
         {} -> {} as the shared fraction rises.\n",
        peaks.first().unwrap().1,
        peaks.last().unwrap().1
    ));

    // ---- Gate (d): bit-identical repeat of the store-enabled run.
    let (repeat_report, _, repeat_stats) = serve(true, s.shared_len, None, 5_000.0, s);
    assert_eq!(
        shared_report, repeat_report,
        "repeated store-enabled runs must produce bit-identical reports"
    );
    assert_eq!(
        stats,
        repeat_stats.expect("repeat run has stats"),
        "repeated store-enabled runs must produce bit-identical store stats"
    );
    out.say(format_args!(
        "Determinism: repeated shared run reproduced {} generated \
         tokens and makespan {} bit for bit.",
        repeat_report.total_generated, repeat_report.makespan
    ));

    out.emit(Json::obj([
        ("bench", "exp_prefix".into()),
        ("smoke", smoke(SMOKE_VAR).into()),
        ("threads", rayon::current_num_threads().into()),
        (
            "workload",
            Json::obj([
                ("requests", s.requests.into()),
                ("prompt_len", s.prompt_len.into()),
                ("templates", s.templates.into()),
                ("shared_len", s.shared_len.into()),
                ("output_len", s.output_len.into()),
                ("decode_steps", s.decode_steps.into()),
            ]),
        ),
        ("parity_cells", parity_cells.into()),
        ("prefill_cold_ms", Json::Fixed(prefill_cold * 1e3, 6)),
        ("prefill_shared_ms", Json::Fixed(prefill_shared * 1e3, 6)),
        ("prefill_speedup", Json::Fixed(prefill_speedup, 4)),
        ("ttft_cold_ms", Json::Fixed(ttft_cold.mean * 1e3, 6)),
        ("ttft_shared_ms", Json::Fixed(ttft_shared.mean * 1e3, 6)),
        ("ttft_speedup", Json::Fixed(speedup, 4)),
        (
            "computed_prompt_tokens",
            Json::row([
                ("cold", computed_cold.into()),
                ("shared", computed_shared.into()),
            ]),
        ),
        (
            "admission_peak_running",
            Json::Row(
                peaks
                    .iter()
                    .map(|&(shared_len, peak)| (shared_len.to_string(), peak.into()))
                    .collect(),
            ),
        ),
        ("store_shared_bytes", stats.shared_bytes.get().into()),
        ("store_nodes", stats.nodes.into()),
        ("deterministic", true.into()),
    ]));
}
