//! Experiment E12 — thread scaling of batched multi-session decode.
//!
//! CentroidKV-style systems hit serving-grade latency by parallelising the
//! "score, rank, gather" decode loop across heads and sequences. This
//! experiment measures what the rayon-backed `ServeEngine` actually delivers:
//! an 8-session batched decode (ClusterKV policy, bounded cluster cache) is
//! run to completion at 1, 2, 4, … worker threads (`RAYON_NUM_THREADS`), and
//! each run's wall-clock time is reported next to its speedup over the
//! single-thread run.
//!
//! **Parity is asserted, not assumed**: every run's token streams, cache
//! hit/miss counts, recalled bytes and modeled decode times must be
//! byte-identical to the 1-thread reference — the experiment aborts
//! otherwise. Speedup is a property of the host (on a multicore machine the
//! session fan-out is embarrassingly parallel; a 1-core container times-lices
//! the workers and shows ~1×), while parity must hold everywhere.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_scaling`

use clusterkv::ClusterKvFactory;
use clusterkv_bench::serving_clusterkv_config;
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::{ModelConfig, ServeEngine, SessionId};
use std::time::{Duration, Instant};

const NUM_SESSIONS: usize = 8;
const PROMPT_LEN: usize = 192;
const DECODE_STEPS: usize = 24;
const BUDGET: usize = 48;

/// A model large enough that per-session decode work dominates the pool's
/// per-batch coordination cost, small enough to run in seconds.
fn model_config() -> ModelConfig {
    ModelConfig {
        num_layers: 4,
        num_heads: 4,
        num_kv_heads: 2,
        head_dim: 32,
        ffn_dim: 256,
        vocab_size: 512,
        max_context: PROMPT_LEN + DECODE_STEPS + 8,
        dense_layers: 1,
    }
}

fn clusterkv_factory() -> ClusterKvFactory {
    ClusterKvFactory::new(serving_clusterkv_config())
}

fn prompts() -> Vec<Vec<usize>> {
    (0..NUM_SESSIONS)
        .map(|s| {
            (0..PROMPT_LEN)
                .map(|i| (i * (3 + s) + 11 * s + 1) % 512)
                .collect()
        })
        .collect()
}

/// Everything one run produces: timings plus the observables that must be
/// invariant to the thread count.
struct RunOutcome {
    prefill: Duration,
    decode: Duration,
    streams: Vec<Vec<usize>>,
    hits: u64,
    misses: u64,
    bytes_recalled: u64,
    modeled: f64,
}

fn run_at(threads: usize) -> RunOutcome {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let factory = clusterkv_factory();
    let mut engine = ServeEngine::builder(model_config())
        .synthetic_weights(0x5CA1E)
        .budget(Budget::new(BUDGET))
        .policy(Box::new(factory))
        .kv_cache_capacity(Bytes(1 << 18))
        .build()
        .expect("valid scaling config");
    let ids: Vec<SessionId> = (0..NUM_SESSIONS)
        .map(|_| engine.create_session().expect("session capacity"))
        .collect();

    let start = Instant::now();
    for (id, prompt) in ids.iter().zip(prompts()) {
        engine.prefill(*id, &prompt).expect("prefill");
    }
    let prefill = start.elapsed();

    let mut streams = vec![Vec::new(); NUM_SESSIONS];
    let start = Instant::now();
    for _ in 0..DECODE_STEPS {
        let outs = engine.decode_batch(&ids).expect("decode");
        for (stream, out) in streams.iter_mut().zip(&outs) {
            stream.push(out.next_token);
        }
    }
    let decode = start.elapsed();

    let (mut hits, mut misses, mut bytes_recalled, mut modeled) = (0u64, 0u64, 0u64, 0f64);
    for &id in &ids {
        let report = engine.release(id).expect("release");
        hits += report.stats.cache.hits;
        misses += report.stats.cache.misses;
        bytes_recalled += report.bytes_recalled().0;
        modeled += report.modeled_decode_time.get();
    }
    RunOutcome {
        prefill,
        decode,
        streams,
        hits,
        misses,
        bytes_recalled,
        modeled,
    }
}

fn main() {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize, 2, 4];
    if host_cores > 4 && !thread_counts.contains(&host_cores) {
        thread_counts.push(host_cores);
    }

    println!("# Thread scaling — {NUM_SESSIONS}-session batched decode");
    println!(
        "\nmodel: {} layers x {} heads, head_dim {}; prompt {PROMPT_LEN}, \
         {DECODE_STEPS} decode steps, budget {BUDGET}; host cores: {host_cores}\n",
        model_config().num_layers,
        model_config().num_heads,
        model_config().head_dim,
    );

    let runs: Vec<(usize, RunOutcome)> = thread_counts.iter().map(|&t| (t, run_at(t))).collect();
    std::env::remove_var("RAYON_NUM_THREADS");

    // Parity gate: every observable must match the 1-thread reference.
    let reference = &runs[0].1;
    for (threads, run) in &runs[1..] {
        assert_eq!(
            run.streams, reference.streams,
            "token streams diverged at {threads} threads"
        );
        assert_eq!(
            (run.hits, run.misses, run.bytes_recalled),
            (reference.hits, reference.misses, reference.bytes_recalled),
            "cache accounting diverged at {threads} threads"
        );
        assert_eq!(
            run.modeled.to_bits(),
            reference.modeled.to_bits(),
            "modeled decode time diverged at {threads} threads"
        );
    }

    let mut table = Table::new(vec![
        "Threads",
        "Prefill (ms)",
        "Decode (ms)",
        "Decode speedup",
        "Tok/s (decode)",
    ]);
    let base_decode = reference.decode.as_secs_f64();
    for (threads, run) in &runs {
        let decode_s = run.decode.as_secs_f64();
        table.row(vec![
            threads.to_string(),
            fmt(run.prefill.as_secs_f64() * 1e3, 1),
            fmt(decode_s * 1e3, 1),
            format!("{}x", fmt(base_decode / decode_s, 2)),
            fmt((NUM_SESSIONS * DECODE_STEPS) as f64 / decode_s, 0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Parity: token streams, cache hits/misses ({}/{}), recalled bytes ({}) and modeled \
         decode time are byte-identical across all thread counts.",
        reference.hits, reference.misses, reference.bytes_recalled
    );
    if host_cores < 4 {
        println!(
            "Note: this host exposes {host_cores} core(s); speedups above are \
             time-sliced. Run on >= 4 cores to observe the >1.5x target at 4 threads."
        );
    }
}
