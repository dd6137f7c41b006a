//! Experiment E15 — speculative cluster prefetch under the overlap clock
//! (DESIGN.md §10).
//!
//! During decode step *t* the engine nominates the clusters step *t+1* is
//! likely to select and stages their pages into a bounded staging buffer;
//! the roofline clock prices staged transfers as overlapped with compute
//! (`max(compute, staged) + demand` instead of a pure sum). This experiment
//! sweeps GPU cache capacity × prefetch off / on (the `none` and
//! `reuse+lookahead` rows: this step's pages plus the selector's lookahead
//! hint) and asserts the three properties the design promises, rather than
//! assuming them:
//!
//! * **Parity** — token streams, cache hit/miss counts and transfer
//!   counters are byte-identical with prefetch off and on, at every thread
//!   count swept. Prefetch changes *when* bytes move, never *what* attends.
//! * **Speedup** — reuse+lookahead strictly improves modeled mean TBT over
//!   no-prefetch at the two tightest capacities, where demand misses
//!   dominate the step and promotion out of the staging buffer pays.
//! * **Determinism** — a repeated reuse+lookahead run reproduces streams,
//!   clock bits and prefetch statistics bit for bit.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_prefetch`
//! (set `EXP_PREFETCH_SMOKE=1` for the CI-sized sweep, `--json` for the
//! machine-readable summary).

use clusterkv::ClusterKvFactory;
use clusterkv_bench::{serving_clusterkv_config, serving_model_config, smoke, with_threads};
use clusterkv_kvcache::stats::{CacheStats, PrefetchStats, TransferStats};
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_kvcache::DeviceModel;
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::{ModelConfig, PrefetchConfig, ServeEngine, SessionReport};

const SEED: u64 = 0xE15;
const BUDGET: usize = 48;
const SESSIONS: usize = 3;

const SMOKE_VAR: &str = "EXP_PREFETCH_SMOKE";

fn model_config() -> ModelConfig {
    serving_model_config(1024)
}

/// Device model for this experiment: the bench-scale weights are ~100 KB,
/// so at real HBM bandwidth the modeled compute would be nanoseconds and
/// nothing could hide behind it. Slowing the modeled HBM to 2 GB/s scales
/// the compute term up to where a production-sized model's sits (~100 µs
/// per step), restoring the compute-vs-PCIe ratio the overlap clock is
/// about; the PCIe side keeps the paper's testbed bandwidth.
fn bench_device() -> DeviceModel {
    DeviceModel {
        hbm_bandwidth: 2e9,
        ..DeviceModel::ada6000()
    }
}

fn context_len() -> usize {
    if smoke(SMOKE_VAR) {
        96
    } else {
        192
    }
}

fn decode_steps() -> usize {
    if smoke(SMOKE_VAR) {
        6
    } else {
        16
    }
}

fn engine(capacity: Bytes, prefetch: PrefetchConfig) -> ServeEngine {
    let factory = ClusterKvFactory::new(serving_clusterkv_config());
    ServeEngine::builder(model_config())
        .synthetic_weights(SEED)
        .budget(Budget::new(BUDGET))
        .policy(Box::new(factory))
        .kv_cache_capacity(capacity)
        .device(bench_device())
        .prefetch(prefetch)
        .build()
        .expect("valid serving config")
}

/// Everything one serving run produces that the gates compare. Clock times
/// are compared through their raw bit patterns — "close enough" is not a
/// thing the determinism gate accepts.
#[derive(Debug, Clone, PartialEq)]
struct RunOutcome {
    streams: Vec<Vec<usize>>,
    modeled_bits: Vec<u64>,
    cache: CacheStats,
    transfers: TransferStats,
    tbt: f64,
    prefetch: PrefetchStats,
    accuracy: f64,
    hidden_fraction: f64,
    wasted_bytes: u64,
}

/// Serve `SESSIONS` deterministic prompts on a fresh engine: prefill, then
/// `decode_steps()` fused batch steps across all sessions.
fn run(capacity: Bytes, prefetch: PrefetchConfig) -> RunOutcome {
    let cfg = model_config();
    let mut eng = engine(capacity, prefetch);
    let mut ids = Vec::new();
    for s in 0..SESSIONS {
        let prompt: Vec<usize> = (0..context_len())
            .map(|t| (t * 7 + 11 * (s + 1)) % cfg.vocab_size)
            .collect();
        let id = eng.create_session().expect("session slot");
        eng.prefill(id, &prompt).expect("prefill");
        ids.push(id);
    }
    let mut streams = vec![Vec::new(); SESSIONS];
    for _ in 0..decode_steps() {
        let outs = eng.decode_batch(&ids).expect("decode");
        for (stream, out) in streams.iter_mut().zip(&outs) {
            stream.push(out.next_token);
        }
    }
    let reports: Vec<SessionReport> = ids
        .into_iter()
        .map(|id| eng.release(id).expect("release"))
        .collect();
    let total_decode: f64 = reports.iter().map(|r| r.modeled_decode_time.get()).sum();
    let hidden: f64 = reports.iter().map(|r| r.hidden_transfer_time.get()).sum();
    let transfer: f64 = reports.iter().map(|r| r.transfer_time.get()).sum();
    let mut prefetch_stats = PrefetchStats::new();
    let (mut cache, mut transfers) = (CacheStats::new(), TransferStats::new());
    for r in &reports {
        prefetch_stats.merge(&r.prefetch);
        cache.merge(&r.stats.cache);
        transfers.merge(&r.stats.transfer);
    }
    RunOutcome {
        streams,
        modeled_bits: reports
            .iter()
            .map(|r| r.modeled_decode_time.get().to_bits())
            .collect(),
        cache,
        transfers,
        tbt: total_decode / (SESSIONS * decode_steps()) as f64,
        accuracy: prefetch_stats.accuracy(),
        hidden_fraction: if transfer == 0.0 {
            0.0
        } else {
            hidden / transfer
        },
        wasted_bytes: prefetch_stats.wasted_bytes.get(),
        prefetch: prefetch_stats,
    }
}

/// The staging buffer every prefetch-enabled run uses: roomy enough that
/// the GPU cache capacity stays the binding constraint.
fn staging_capacity() -> Bytes {
    Bytes(1 << 20)
}

fn predictors() -> [(&'static str, PrefetchConfig); 2] {
    [
        ("none", PrefetchConfig::disabled()),
        (
            "reuse+lookahead",
            PrefetchConfig::lookahead(staging_capacity()),
        ),
    ]
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cfg = model_config();
    // Capacities in units of one step's selected KV (budget plus one
    // trimmed cluster of slack): 1/4 and 1/2 thrash hard (the speedup
    // gates), 1 ≈ the paper's recency window R = 1, 8 holds the working
    // set.
    let unit =
        cfg.selected_kv_bytes_per_step(BUDGET + serving_clusterkv_config().tokens_per_cluster);
    let capacities: [(&str, Bytes); 4] = [
        ("1/4", Bytes(unit / 4)),
        ("1/2", Bytes(unit / 2)),
        ("1", Bytes(unit)),
        ("8", Bytes(8 * unit)),
    ];

    if !json {
        println!("# Speculative cluster prefetch under the overlap clock (DESIGN.md §10)\n");
        println!(
            "model: {} layers x {} heads; {} sessions x {} prompt tokens, {} decode steps, \
             budget {}{}\n",
            cfg.num_layers,
            cfg.num_heads,
            SESSIONS,
            context_len(),
            decode_steps(),
            BUDGET,
            if smoke(SMOKE_VAR) {
                " (smoke scale)"
            } else {
                ""
            },
        );
    }

    // ---- Gate (a): byte-identical streams and cache accounting with
    // prefetch off and on, across thread counts. Reference: prefetch off on
    // one thread.
    let reference = with_threads(1, || run(capacities[1].1, PrefetchConfig::disabled()));
    let mut parity_cells = 0;
    for (name, prefetch) in predictors() {
        for &threads in &[1usize, 2, 8] {
            let outcome = with_threads(threads, || run(capacities[1].1, prefetch));
            assert_eq!(
                outcome.streams, reference.streams,
                "token streams diverged (predictor={name}, threads={threads})"
            );
            assert_eq!(
                (outcome.cache, outcome.transfers),
                (reference.cache, reference.transfers),
                "cache accounting diverged (predictor={name}, threads={threads})"
            );
            parity_cells += 1;
        }
    }
    if !json {
        println!(
            "Parity: {} cells (prefetch off / on x threads [1, 2, 8]) all byte-identical \
             to the prefetch-off single-thread run.\n",
            parity_cells
        );
    }

    // ---- Sweep: capacity x predictor.
    let mut rows: Vec<(String, String, RunOutcome)> = Vec::new();
    for (cap_label, capacity) in &capacities {
        for (pred_label, prefetch) in predictors() {
            let outcome = run(*capacity, prefetch);
            rows.push((cap_label.to_string(), pred_label.to_string(), outcome));
        }
    }
    let row = |cap: &str, pred: &str| {
        &rows
            .iter()
            .find(|(c, p, _)| c == cap && p == pred)
            .expect("sweep covers the full grid")
            .2
    };

    // Every cell of the sweep generates the same streams.
    for (cap, pred, outcome) in &rows {
        assert_eq!(
            outcome.streams, reference.streams,
            "token streams diverged in the sweep (capacity={cap}, predictor={pred})"
        );
    }

    // ---- Gate (b): reuse+lookahead strictly improves modeled mean TBT
    // over no-prefetch at the two tightest capacities.
    for (cap_label, _) in &capacities[..2] {
        let base = row(cap_label, "none");
        let look = row(cap_label, "reuse+lookahead");
        assert!(
            look.prefetch.used_pages > 0,
            "capacity {cap_label}: lookahead staged nothing the next step used"
        );
        assert!(
            look.tbt < base.tbt,
            "capacity {cap_label}: reuse+lookahead must strictly improve mean TBT \
             ({:.3} µs vs {:.3} µs)",
            look.tbt * 1e6,
            base.tbt * 1e6
        );
    }

    if !json {
        let mut table = Table::new(vec![
            "Capacity (steps)",
            "Predictor",
            "TBT (µs)",
            "Hit rate",
            "Accuracy",
            "Hidden transfer",
            "Wasted",
        ]);
        for (cap, pred, o) in &rows {
            let hit_rate = o.cache.hits as f64 / (o.cache.hits + o.cache.misses).max(1) as f64;
            table.row(vec![
                cap.clone(),
                pred.clone(),
                fmt(o.tbt * 1e6, 2),
                format!("{:.1}%", hit_rate * 100.0),
                format!("{:.1}%", o.accuracy * 100.0),
                format!("{:.1}%", o.hidden_fraction * 100.0),
                Bytes(o.wasted_bytes).to_string(),
            ]);
        }
        println!("{}", table.render());
        let tight = row("1/4", "reuse+lookahead");
        let base = row("1/4", "none");
        println!(
            "Tightest capacity: reuse+lookahead cuts mean TBT {} -> {} \
             ({:.1}% of staged bytes used, {:.1}% of transfer time hidden).\n",
            fmt(base.tbt * 1e6, 2),
            fmt(tight.tbt * 1e6, 2),
            tight.accuracy * 100.0,
            tight.hidden_fraction * 100.0,
        );
    }

    // ---- Gate (c): bit-identical repeat of the reuse+lookahead run at the
    // tightest capacity.
    let again = run(
        capacities[0].1,
        PrefetchConfig::lookahead(staging_capacity()),
    );
    assert_eq!(
        row("1/4", "reuse+lookahead"),
        &again,
        "repeated reuse+lookahead runs must be bit-identical"
    );
    if !json {
        println!(
            "Determinism: repeated reuse+lookahead run reproduced every stream, clock bit \
             and prefetch counter."
        );
    }

    if json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"exp_prefetch\",\n");
        out.push_str(&format!("  \"smoke\": {},\n", smoke(SMOKE_VAR)));
        out.push_str(&format!(
            "  \"threads\": {},\n",
            rayon::current_num_threads()
        ));
        out.push_str("  \"workload\": {\n");
        out.push_str(&format!("    \"sessions\": {SESSIONS},\n"));
        out.push_str(&format!("    \"context_len\": {},\n", context_len()));
        out.push_str(&format!("    \"decode_steps\": {},\n", decode_steps()));
        out.push_str(&format!("    \"budget\": {BUDGET}\n"));
        out.push_str("  },\n");
        out.push_str(&format!("  \"parity_cells\": {parity_cells},\n"));
        out.push_str("  \"sweep\": [\n");
        for (i, (cap, pred, o)) in rows.iter().enumerate() {
            let hit_rate = o.cache.hits as f64 / (o.cache.hits + o.cache.misses).max(1) as f64;
            out.push_str(&format!(
                "    {{\"capacity_steps\": \"{cap}\", \"predictor\": \"{pred}\", \
                 \"tbt_us\": {:.6}, \"hit_rate\": {:.6}, \"accuracy\": {:.6}, \
                 \"hidden_fraction\": {:.6}, \"staged_bytes\": {}, \"used_bytes\": {}, \
                 \"wasted_bytes\": {}}}{}\n",
                o.tbt * 1e6,
                hit_rate,
                o.accuracy,
                o.hidden_fraction,
                o.prefetch.staged_bytes.get(),
                o.prefetch.used_bytes.get(),
                o.wasted_bytes,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"deterministic\": true\n");
        out.push_str("}\n");
        print!("{out}");
    }
}
